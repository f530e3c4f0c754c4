//! `flpd-chaos` — certify crash consistency under the fault matrix.
//!
//! ```text
//! flpd-chaos [--smoke] [--seeds N] [--kinds drop,delay,dup,partial,crash,jam]
//! ```
//!
//! Default is the full acceptance matrix (6 fault families × 20 seeds).
//! `--smoke` runs the reduced CI matrix. Exits non-zero if any cell
//! violates a consistency invariant.

#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::process::ExitCode;

use fl_flpd::chaos::{run_matrix, FaultKind, MatrixConfig};

fn main() -> ExitCode {
    let mut cfg = MatrixConfig::full();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => cfg = MatrixConfig::smoke(),
            "--seeds" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.seeds = n,
                None => {
                    eprintln!("flpd-chaos: --seeds needs a number");
                    return ExitCode::from(1);
                }
            },
            "--kinds" => {
                let Some(list) = args.next() else {
                    eprintln!("flpd-chaos: --kinds needs a comma-separated list");
                    return ExitCode::from(1);
                };
                let mut kinds = Vec::new();
                for name in list.split(',') {
                    match FaultKind::parse_str(name.trim()) {
                        Some(k) => kinds.push(k),
                        None => {
                            eprintln!("flpd-chaos: unknown fault kind {name:?}");
                            return ExitCode::from(1);
                        }
                    }
                }
                cfg.kinds = kinds;
            }
            "--help" | "-h" => {
                println!(
                    "usage: flpd-chaos [--smoke] [--seeds N] \
                     [--kinds drop,delay,dup,partial,crash,jam]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("flpd-chaos: unknown argument {other:?}");
                return ExitCode::from(1);
            }
        }
    }

    println!(
        "flpd-chaos: {} fault families x {} seeds, {} sessions per cell",
        cfg.kinds.len(),
        cfg.seeds,
        cfg.sessions
    );
    let report = run_matrix(&cfg);
    print!("{}", report.summary());
    let failed = report.failed().len();
    println!(
        "flpd-chaos: {}/{} cells pass",
        report.passed(),
        report.cells.len()
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
