//! `flpd-bench` — the end-to-end benchmark of the `flpd` auction service.
//!
//! One run self-hosts a daemon in-process with the default
//! `DaemonConfig` (Strict durability, default `Limits`), drives it over
//! loopback TCP through `fl_flpd::Client` on two connections, checks every
//! acknowledged output against a local reference, restarts the daemon on
//! its own journal, and prints its metrics. See `README.md` beside this
//! package for the workloads, the metrics and how they relate.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path flpd_bench/Cargo.toml -- \
//!     --workload sealed_large --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`, with the
//! end-to-end metrics under `--trace 0`, and under `--trace 1` the
//! per-layer metrics, measured after the load by replaying the run's own
//! data through each layer (see `layers.rs`). The exit code is non-zero
//! when an output check fails or the run cannot complete.

mod check;
mod drive;
mod layers;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use fl_flpd::{Daemon, DaemonConfig};
use fl_telemetry::json::Json;

use crate::drive::{LoadOut, Op, OpRecord};
use crate::stats::{
    median, process_cpu_ns, quantile, reference_median_ns, to_reference_speed, Metrics,
};
use crate::workload::{Generated, Plan, Workload, CONNECTIONS};

/// Set-ups per run: the one the load runs on, and more thrown away after
/// it; `setup_s` is their median.
const SETUPS: usize = 9;

/// Restarts on the run's journal per run of workload `w`; `recover_s` is
/// their median.
fn restarts(w: Workload) -> usize {
    match w {
        // Each restart re-drives 64 000 online decisions, about 2 s.
        Workload::StreamIngest => 3,
        Workload::SealedSmall | Workload::SealedLarge => 7,
    }
}

/// The end-to-end metrics `BENCHMARK.json` gates, in its order; the
/// others are printed with their sample counts only (see `README.md`).
const GATED: [&str; 6] = [
    "setup_s",
    "write_cpu_us",
    "close_cpu_ms",
    "read_cpu_us",
    "recover_s",
    "peak_rss_mb",
];

/// Scratch directory for journals, relative to the working directory.
const RUN_ROOT: &str = ".flpd_bench_run";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: flpd-bench --workload <sealed_small|sealed_large|stream_ingest> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("flpd-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    // Each run directory removes itself; this removes their empty parent.
    let _ = std::fs::remove_dir(RUN_ROOT);
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("flpd-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the benchmark and prints its report; returns whether every
/// output check passed.
fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    println!(
        "flpd-bench workload={} seed={} seconds={} trace={} connections={CONNECTIONS}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let pass = run_pass(w, args.seed, args.seconds, args.trace)?;
    print_metrics("end-to-end", &pass.e2e);
    let metrics = if args.trace {
        let started = Instant::now();
        let per_layer = layers::measure(&pass)?;
        let took = started.elapsed().as_secs_f64();
        print_metrics(&format!("per-layer (replays took {took:.1} s)"), &per_layer);
        per_layer
    } else {
        let gated = pass
            .e2e
            .0
            .iter()
            .filter(|m| GATED.contains(&m.name.as_str()));
        Metrics(gated.cloned().collect())
    };
    let mismatches = &pass.mismatches;
    let correct = mismatches.is_empty();
    for m in mismatches.iter().take(20) {
        eprintln!("flpd-bench: output check failed: {m}");
    }
    println!(
        "{}",
        result_json(correct, pass.attempted, pass.failed, &metrics)?
    );
    Ok(correct)
}

fn print_metrics(title: &str, metrics: &Metrics) {
    println!("-- {title}");
    for m in &metrics.0 {
        println!(
            "{:<40} {:>14.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
) -> Result<String, String> {
    let mut body = Vec::new();
    for m in &metrics.0 {
        if !m.value.is_finite() {
            return Err(format!("metric {} has no value ({})", m.name, m.value));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    ))
}

/// A journal directory under [`RUN_ROOT`], removed on drop.
pub struct RunDir(PathBuf);

impl RunDir {
    fn new(tag: &str) -> Result<RunDir, String> {
        let dir = PathBuf::from(RUN_ROOT).join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }

    /// The daemon journal inside the directory.
    pub fn journal(&self) -> PathBuf {
        self.0.join("wal.jsonl")
    }

    /// A scratch file inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One complete pass: set-up, measured load, output check, restarts.
pub struct Pass {
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations failed in the measured phase.
    pub failed: u64,
    /// Output-check failures.
    pub mismatches: Vec<String>,
    /// The generated requests.
    pub gen: Generated,
    /// What the warm-up sent and received.
    pub warm: LoadOut,
    /// What the measured phase sent and received.
    pub load: LoadOut,
    /// The daemon's `stats` document right after the measured phase.
    pub stats_doc: Json,
    /// Where the run's journal lives.
    pub dir: RunDir,
}

fn daemon_at(journal: PathBuf) -> Result<Daemon, String> {
    Daemon::start(DaemonConfig::new(journal)).map_err(|e| format!("daemon start: {e}"))
}

/// A daemon ready for the load: what a set-up produced.
struct Ready {
    // Dropped in order: the daemon stops before its directory goes.
    daemon: Daemon,
    warm: LoadOut,
    gen: Generated,
    dir: RunDir,
}

/// Reference computations timed before each set-up and restart.
const REFERENCE_REPS: usize = 7;

/// How long a step took.
#[derive(Debug, Clone, Copy)]
struct Took {
    /// Processor time of the whole process, s.
    cpu_s: f64,
    /// Wall time, s.
    wall_s: f64,
    /// [`to_reference_speed`] of the reference computation timed right
    /// before and right after the step.
    speed: f64,
}

impl Took {
    /// Runs `f`, timing it.
    fn time<T>(f: impl FnOnce() -> T) -> (T, Took) {
        let before = reference_median_ns(REFERENCE_REPS);
        let (cpu, wall) = (process_cpu_ns(), Instant::now());
        let out = f();
        let (cpu_s, wall_s) = (
            (process_cpu_ns() - cpu) as f64 / 1e9,
            wall.elapsed().as_secs_f64(),
        );
        let after = reference_median_ns(REFERENCE_REPS);
        let speed = to_reference_speed((before + after) / 2.0);
        (
            out,
            Took {
                cpu_s,
                wall_s,
                speed,
            },
        )
    }

    /// Processor time at the reference machine's speed, s.
    fn scaled_s(&self) -> f64 {
        self.cpu_s * self.speed
    }
}

/// One set-up: generate every request of the run, start a daemon on a
/// fresh journal and run the warm-up sessions through it. Returns it
/// with how long it took.
fn set_up(w: Workload, seed: u64, seconds: f64, rep: usize) -> Result<(Ready, Took), String> {
    let (ready, took) = Took::time(|| set_up_untimed(w, seed, seconds, rep));
    Ok((ready?, took))
}

fn set_up_untimed(w: Workload, seed: u64, seconds: f64, rep: usize) -> Result<Ready, String> {
    let gen = workload::generate(w, seed, seconds)?;
    let dir = RunDir::new(&format!("{}-{rep}", w.name()))?;
    let daemon = daemon_at(dir.journal())?;
    let warm = drive::run(daemon.addr(), &gen.warmup, &[], false, 1, seed)?;
    if warm.failed > 0 {
        return Err(format!("warm-up failed: {:?}", warm.errors));
    }
    Ok(Ready {
        daemon,
        warm,
        gen,
        dir,
    })
}

/// With `trace`, the end-to-end metrics are not the run's result, and the
/// pass makes one set-up and one restart (still checking every session
/// after it), leaving the time to the layer replays.
fn run_pass(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Pass, String> {
    let (ready, took) = set_up(w, seed, seconds, 0)?;
    let mut setups = vec![took];
    let Ready {
        mut daemon,
        warm,
        gen,
        dir,
    } = ready;

    let load = drive::run(
        daemon.addr(),
        &gen.plans,
        &gen.stats_due,
        w.open_loop(),
        CONNECTIONS,
        seed,
    )?;
    let peak_rss = stats::peak_rss_mb();
    let stats_doc = drive::connect(daemon.addr(), seed)?
        .stats_doc()
        .map_err(|e| format!("stats after the run: {e}"))?;
    daemon.stop();
    drop(daemon);

    let mut mismatches = check::outputs(&gen.plans, &load, CONNECTIONS);
    if let Err(e) = check::self_test(&gen.plans, &load) {
        mismatches.push(e);
    }

    let setups_made = if trace { 1 } else { SETUPS };
    for rep in 1..setups_made {
        let (spare, took) = set_up(w, seed, seconds, rep)?;
        setups.push(took);
        drop(spare);
    }

    // Recovery: restart on the run's own journal several times; after
    // each restart, a share of the acknowledged sessions must answer as
    // before, so that every session is checked once.
    let acked: Vec<_> = warm.sessions.iter().chain(&load.sessions).collect();
    let reps = if trace { 1 } else { restarts(w) };
    let mut recoveries = Vec::with_capacity(reps);
    for rep in 0..reps {
        let (restarted, took) = Took::time(|| daemon_at(dir.journal()));
        let restarted = restarted?;
        recoveries.push(took);
        let share: Vec<_> = acked.iter().skip(rep).step_by(reps).copied().collect();
        mismatches.extend(check::after_restart(restarted.addr(), &share, seed)?);
    }

    let e2e = end_to_end(&gen.plans, &load, &setups, &recoveries, peak_rss);
    Ok(Pass {
        e2e,
        attempted: load.attempted,
        failed: load.failed,
        mismatches,
        gen,
        warm,
        load,
        stats_doc,
        dir,
    })
}

/// The acknowledged calls of the load phase whose op `keep` accepts.
/// The calls of probe sessions count toward the close figures only.
fn acked<'a>(
    plans: &'a [Plan],
    load: &'a LoadOut,
    keep: &'a dyn Fn(Op) -> bool,
) -> impl Iterator<Item = &'a OpRecord> + 'a {
    load.records.iter().filter(move |r| {
        r.ok && keep(r.op) && (r.op == Op::Close || r.session.is_none_or(|i| !plans[i].probe))
    })
}

/// The end-to-end metrics of one pass.
///
/// The gated figures are processor time at the reference machine's
/// speed (see `README.md`, "Steadiness"): `*_cpu_*` from the clock of the
/// daemon thread that served each call, `setup_s` and `recover_s` from
/// the whole process's clock over each set-up and restart; each scaled
/// by the reference computation timed in the same run. The wall-clock
/// figures beside them move with the load of the shared host; they are
/// printed as medians and tails over every sample, with `steal_share`.
fn end_to_end(
    plans: &[Plan],
    load: &LoadOut,
    setups: &[Took],
    recoveries: &[Took],
    peak_rss: f64,
) -> Metrics {
    let mut reference: Vec<f64> = load.reference.iter().map(|&ns| ns as f64).collect();
    let n_reference = reference.len();
    let reference_ns = median(&mut reference);
    let speed = to_reference_speed(reference_ns);
    let wall_ms = |keep: &dyn Fn(Op) -> bool| -> Vec<f64> {
        acked(plans, load, keep).map(OpRecord::latency_ms).collect()
    };
    let cpu_us = |keep: &dyn Fn(Op) -> bool| -> Vec<f64> {
        acked(plans, load, keep)
            .filter_map(OpRecord::cpu_us)
            .map(|us| us * speed)
            .collect()
    };
    let done: Vec<usize> = (0..load.sessions.len())
        .filter(|&i| !load.sessions[i].failed && !plans[i].probe)
        .collect();
    let mut session_ms: Vec<f64> = done
        .iter()
        .map(|&i| {
            let s = &load.sessions[i];
            (s.end_ns - s.start_ns) as f64 / 1e6
        })
        .collect();
    // A session's daemon processor time: the sum over its calls, for the
    // sessions whose every call was read.
    let mut session_cpu = vec![(0.0, 0); load.sessions.len()];
    let mut steps = vec![0; load.sessions.len()];
    let mut daemon_cpu_s = 0.0;
    for r in &load.records {
        let us = r.cpu_us().map(|us| us * speed);
        daemon_cpu_s += us.unwrap_or(0.0) / 1e6;
        let Some(i) = r.session else { continue };
        steps[i] += 1;
        if let Some(us) = us {
            session_cpu[i].0 += us / 1e3;
            session_cpu[i].1 += 1;
        }
    }
    let mut session_cpu_ms: Vec<f64> = done
        .iter()
        .filter(|&&i| session_cpu[i].1 == steps[i])
        .map(|&i| session_cpu[i].0)
        .collect();
    let is_bid = |op| matches!(op, Op::Bid | Op::Submit);
    let bids = acked(plans, load, &is_bid).count();
    let mut writes = wall_ms(&Op::is_write);
    let mut closes = wall_ms(&|op| op == Op::Close);
    let mut reads = wall_ms(&Op::is_read);
    let mut write_cpu = cpu_us(&Op::is_write);
    let mut close_cpu = cpu_us(&|op| op == Op::Close);
    let mut read_cpu = cpu_us(&Op::is_read);
    let of = |took: &[Took], f: fn(&Took) -> f64| -> Vec<f64> { took.iter().map(f).collect() };

    let mut m = Metrics::default();
    let n = setups.len();
    m.push("setup_s", median(&mut of(setups, Took::scaled_s)), "s", n);
    m.push("bids_per_cpu_s", bids as f64 / daemon_cpu_s, "1/s", bids);
    let n = write_cpu.len();
    m.push("write_cpu_us", median(&mut write_cpu), "us", n);
    let n = close_cpu.len();
    m.push("close_cpu_ms", median(&mut close_cpu) / 1e3, "ms", n);
    let n = read_cpu.len();
    m.push("read_cpu_us", median(&mut read_cpu), "us", n);
    let n = recoveries.len();
    m.push(
        "recover_s",
        median(&mut of(recoveries, Took::scaled_s)),
        "s",
        n,
    );
    m.push("peak_rss_mb", peak_rss, "MiB", 1);

    let n = setups.len();
    m.push("setup_cpu_s", median(&mut of(setups, |t| t.cpu_s)), "s", n);
    m.push(
        "setup_wall_s",
        median(&mut of(setups, |t| t.wall_s)),
        "s",
        n,
    );
    let n = session_cpu_ms.len();
    m.push("session_cpu_ms", median(&mut session_cpu_ms), "ms", n);
    let n = session_ms.len();
    m.push("session_p50_ms", median(&mut session_ms), "ms", n);
    m.push("session_p99_ms", quantile(&mut session_ms, 0.99), "ms", n);
    m.push("sessions_per_s", n as f64 / load.elapsed_s, "1/s", n);
    let n = writes.len();
    m.push("write_p50_ms", median(&mut writes), "ms", n);
    m.push("write_p99_ms", quantile(&mut writes, 0.99), "ms", n);
    m.push("bids_per_s", bids as f64 / load.elapsed_s, "1/s", bids);
    let n = closes.len();
    m.push("close_p50_ms", median(&mut closes), "ms", n);
    m.push("close_p90_ms", quantile(&mut closes, 0.9), "ms", n);
    let n = reads.len();
    m.push("read_p50_ms", median(&mut reads), "ms", n);
    m.push("read_p99_ms", quantile(&mut reads, 0.99), "ms", n);
    m.push(
        "failed_frac",
        load.failed as f64 / load.attempted.max(1) as f64,
        "ratio",
        load.attempted as usize,
    );
    let n = recoveries.len();
    m.push(
        "recover_cpu_s",
        median(&mut of(recoveries, |t| t.cpu_s)),
        "s",
        n,
    );
    m.push(
        "recover_wall_s",
        median(&mut of(recoveries, |t| t.wall_s)),
        "s",
        n,
    );
    m.push("reference_us", reference_ns / 1e3, "us", n_reference);
    m.push(
        "steal_share",
        load.steal_share.unwrap_or(f64::NAN),
        "ratio",
        1,
    );
    m
}
