//! The chaos matrix: certify crash consistency under injected faults.
//!
//! Each *cell* of the matrix is `(fault kind, seed)`. A cell builds a
//! deterministic script of sessions (profiles, bids, closes), computes
//! every epoch's reference outcome locally with `fl_auction`, then
//! drives the script against a real daemon running under the cell's
//! fault plan. If the daemon dies at its crash point, or a jammed append
//! poisons its journal, the harness restarts it from the journal —
//! exactly what a supervisor would do — and finishes the script. A cell
//! passes only if:
//!
//! 1. every session ends committed with an outcome **bit-identical** to
//!    the fault-free reference (serialized-form equality), or explicitly
//!    aborted exactly when the reference is infeasible — so faults can
//!    cause neither payment drift nor silent divergence;
//! 2. per-client payments equal the reference to the bit;
//! 3. the final journal scans clean: zero torn records, and every
//!    `close_begin` has exactly one `close_commit`;
//! 4. recovery was bounded: at most one restart (plans inject at most
//!    one journal fault) and the per-step retry budget was never
//!    exhausted;
//! 5. the live daemon's memory is a replay of its journal: a core
//!    recovered from the file has the same per-session digests
//!    ([`crate::session::ServerCore::audit`]).

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Duration;

use fl_auction::{run_auction, serial, AuctionError, Instance};
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

use crate::client::{Client, ClientConfig, ClientError, CloseReply};
use crate::daemon::{Daemon, DaemonConfig};
use crate::faults::FaultPlan;
use crate::journal::{scan_bytes, CrashPoint, JamPoint, Record, RecordKind};
use crate::session::Limits;
use crate::testutil::TempDir;
use crate::wire::{BidParams, OpenParams};

/// The fault families the matrix exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Response frames vanish.
    Drop,
    /// Response frames stall.
    Delay,
    /// Response frames arrive twice.
    Dup,
    /// The daemon dies mid-append, tearing the journal tail.
    Partial,
    /// The daemon dies at a record boundary (before or after a whole
    /// record reached disk).
    Crash,
    /// A journal append fails without killing the daemon, poisoning it.
    Jam,
}

impl FaultKind {
    /// All six families, matrix order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::Drop,
        FaultKind::Delay,
        FaultKind::Dup,
        FaultKind::Partial,
        FaultKind::Crash,
        FaultKind::Jam,
    ];

    /// Display name.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Delay => "delay",
            FaultKind::Dup => "dup",
            FaultKind::Partial => "partial",
            FaultKind::Crash => "crash",
            FaultKind::Jam => "jam",
        }
    }

    /// Parses a display name.
    pub fn parse_str(s: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

/// Matrix dimensions.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Fault families to run.
    pub kinds: Vec<FaultKind>,
    /// Seeds per family (seed values `0..seeds`).
    pub seeds: u64,
    /// Sessions per cell script.
    pub sessions: u32,
}

impl MatrixConfig {
    /// The acceptance matrix: all 6 families × 20 seeds.
    pub fn full() -> MatrixConfig {
        MatrixConfig {
            kinds: FaultKind::ALL.to_vec(),
            seeds: 20,
            sessions: 3,
        }
    }

    /// The CI smoke matrix: all families, 4 seeds.
    pub fn smoke() -> MatrixConfig {
        MatrixConfig {
            kinds: FaultKind::ALL.to_vec(),
            seeds: 4,
            sessions: 2,
        }
    }
}

/// One cell's verdict.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Fault family.
    pub kind: FaultKind,
    /// Seed.
    pub seed: u64,
    /// Whether every invariant held.
    pub pass: bool,
    /// First violation, empty when passing.
    pub detail: String,
    /// Daemon restarts after a crash or a poisoned journal (0 or 1).
    pub crashes: u32,
    /// Client retry attempts consumed.
    pub retries: u64,
}

/// The whole matrix's verdict.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    /// Per-cell outcomes, kinds-major.
    pub cells: Vec<CellOutcome>,
}

impl MatrixReport {
    /// Cells that held every invariant.
    pub fn passed(&self) -> usize {
        self.cells.iter().filter(|c| c.pass).count()
    }

    /// Cells that violated an invariant.
    pub fn failed(&self) -> Vec<&CellOutcome> {
        self.cells.iter().filter(|c| !c.pass).collect()
    }

    /// Human-readable summary table.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let mut by_kind: Vec<(FaultKind, usize, usize, u64, u32)> = Vec::new();
        for kind in FaultKind::ALL {
            let cells: Vec<&CellOutcome> = self.cells.iter().filter(|c| c.kind == kind).collect();
            if cells.is_empty() {
                continue;
            }
            by_kind.push((
                kind,
                cells.iter().filter(|c| c.pass).count(),
                cells.len(),
                cells.iter().map(|c| c.retries).sum(),
                cells.iter().map(|c| c.crashes).sum(),
            ));
        }
        for (kind, pass, total, retries, crashes) in by_kind {
            out.push_str(&format!(
                "{:<8} {pass}/{total} pass  {crashes} restarts  {retries} retries\n",
                kind.as_str()
            ));
        }
        for cell in self.failed() {
            out.push_str(&format!(
                "FAIL {}#{}: {}\n",
                cell.kind.as_str(),
                cell.seed,
                cell.detail
            ));
        }
        out
    }
}

/// Runs the matrix sequentially; each cell gets a fresh scratch journal.
pub fn run_matrix(cfg: &MatrixConfig) -> MatrixReport {
    let mut cells = Vec::new();
    for &kind in &cfg.kinds {
        for seed in 0..cfg.seeds {
            cells.push(run_cell(kind, seed, cfg.sessions));
        }
    }
    MatrixReport { cells }
}

// ---------------------------------------------------------------------
// Script generation and local reference.

struct ScriptSession {
    params: OpenParams,
    clients: Vec<(f64, f64)>,
    bids: Vec<BidParams>,
    /// `Some(json)` = committed reference outcome (lossless encoding);
    /// `None` = the reference run is infeasible.
    reference: Option<String>,
}

fn build_script(seed: u64, sessions: u32) -> Vec<ScriptSession> {
    let mut rng = StdRng::seed_from_u64(0xc4a0_5e5e ^ seed.wrapping_mul(0x9e37_79b9));
    (0..sessions)
        .map(|idx| {
            let t = rng.random_range(5..=9);
            let k = rng.random_range(1..=2u32);
            let params = OpenParams::new(seed.wrapping_mul(1000) + u64::from(idx) + 1, t, k, 60.0);
            let n_clients = rng.random_range(3..=5u32);
            let clients: Vec<(f64, f64)> = (0..n_clients)
                .map(|_| (1.0 + rng.next_f64() * 2.0, 2.0 + rng.next_f64() * 4.0))
                .collect();
            let mut bids = Vec::new();
            for client in 0..n_clients {
                for _ in 0..rng.random_range(1..=2) {
                    let a = rng.random_range(1..=t);
                    let d = rng.random_range(a..=t);
                    bids.push(BidParams {
                        client,
                        price: 1.0 + rng.next_f64() * 9.0,
                        theta: 0.4 + rng.next_f64() * 0.4,
                        a,
                        d,
                        c: rng.random_range(1..=(d - a + 1)),
                    });
                }
            }
            let reference = reference_outcome(&params, &clients, &bids);
            ScriptSession {
                params,
                clients,
                bids,
                reference,
            }
        })
        .collect()
}

/// The fault-free ground truth, computed in-process on an identical
/// instance — `run_auction` is deterministic, so this *is* what a
/// fault-free daemon run would commit.
fn reference_outcome(
    params: &OpenParams,
    clients: &[(f64, f64)],
    bids: &[BidParams],
) -> Option<String> {
    let config = params.to_config().expect("script params are valid");
    let mut instance = Instance::new(config);
    for &(t_cmp, t_com) in clients {
        instance.add_client(
            fl_auction::ClientProfile::new(t_cmp, t_com).expect("script profiles are valid"),
        );
    }
    for b in bids {
        let bid = fl_auction::Bid::new(
            b.price,
            b.theta,
            fl_auction::Window::new(fl_auction::Round(b.a), fl_auction::Round(b.d)),
            b.c,
        )
        .expect("script bids are valid");
        instance
            .add_bid(fl_auction::ClientId(b.client), bid)
            .expect("script bids attach");
    }
    match run_auction(&instance) {
        Ok(outcome) => Some(serial::outcome_to_json(&outcome)),
        Err(AuctionError::Infeasible) => None,
        Err(e) => panic!("reference solve failed unexpectedly: {e}"),
    }
}

// ---------------------------------------------------------------------
// Cell execution.

fn fault_plan(kind: FaultKind, seed: u64) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(0xfa01 ^ seed);
    let crash_target = |rng: &mut StdRng, cut: f64| {
        // Aim at the records every script produces several of.
        let kinds = [
            RecordKind::Bid,
            RecordKind::CloseBegin,
            RecordKind::CloseCommit,
        ];
        Some(CrashPoint {
            kind: kinds[rng.random_range(0..kinds.len())],
            nth: rng.random_range(1..=2),
            cut,
        })
    };
    match kind {
        FaultKind::Drop => FaultPlan {
            seed,
            drop_resp: 0.25,
            ..FaultPlan::default()
        },
        FaultKind::Delay => FaultPlan {
            seed,
            delay: Some((0.5, 2)),
            ..FaultPlan::default()
        },
        FaultKind::Dup => FaultPlan {
            seed,
            dup_resp: 0.3,
            ..FaultPlan::default()
        },
        FaultKind::Partial => {
            let cut = 0.2 + rng.next_f64() * 0.7;
            FaultPlan {
                seed,
                crash: crash_target(&mut rng, cut),
                ..FaultPlan::default()
            }
        }
        FaultKind::Crash => FaultPlan {
            seed,
            crash: crash_target(&mut rng, if seed.is_multiple_of(2) { 0.0 } else { 1.0 }),
            ..FaultPlan::default()
        },
        FaultKind::Jam => {
            let kinds = [
                RecordKind::Client,
                RecordKind::Bid,
                RecordKind::CloseBegin,
                RecordKind::CloseCommit,
            ];
            FaultPlan {
                seed,
                jam: Some(JamPoint {
                    kind: kinds[rng.random_range(0..kinds.len())],
                    nth: rng.random_range(1..=2),
                }),
                ..FaultPlan::default()
            }
        }
    }
}

fn chaos_client(addr: SocketAddr, seed: u64) -> Client {
    Client::new(
        addr,
        ClientConfig {
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_millis(60),
            max_attempts: 12,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(40),
            seed,
        },
    )
}

struct Cell {
    daemon: Daemon,
    client: Client,
    plan: FaultPlan,
    journal: std::path::PathBuf,
    seed: u64,
    crashes: u32,
    retries: u64,
}

impl Cell {
    const MAX_RESTARTS: u32 = 3;

    fn daemon_config(journal: &Path, plan: FaultPlan) -> DaemonConfig {
        let mut cfg = DaemonConfig::new(journal.to_path_buf());
        cfg.faults = Some(plan);
        cfg.io_timeout = Duration::from_millis(250);
        cfg.limits = Limits {
            max_sessions: 64,
            max_inflight_close: 2,
        };
        cfg
    }

    fn start(journal: &Path, plan: FaultPlan, seed: u64) -> Result<Cell, String> {
        let daemon = Daemon::start(Self::daemon_config(journal, plan))
            .map_err(|e| format!("daemon start: {e}"))?;
        let client = chaos_client(daemon.addr(), seed);
        Ok(Cell {
            client,
            daemon,
            plan,
            journal: journal.to_path_buf(),
            seed,
            crashes: 0,
            retries: 0,
        })
    }

    /// Restarts the daemon from the journal after an injected death or
    /// a poisoned journal.
    fn restart(&mut self) -> Result<(), String> {
        self.crashes += 1;
        if self.crashes > Self::MAX_RESTARTS {
            return Err("unbounded recovery: too many restarts".into());
        }
        self.retries += self.client.retries();
        self.daemon.stop();
        self.plan = self.plan.after_crash();
        self.daemon = Daemon::start(Self::daemon_config(&self.journal, self.plan))
            .map_err(|e| format!("daemon restart: {e}"))?;
        let mut next = chaos_client(
            self.daemon.addr(),
            self.seed.wrapping_add(self.crashes.into()),
        );
        next.adopt_sessions(&self.client);
        self.client = next;
        Ok(())
    }

    /// Runs one client call, restarting through an injected fault. A
    /// step is attempted at most once per daemon incarnation plus one
    /// final time, which bounds recovery. `rewind` names the session a
    /// mutating op targets: after a restart its seq counter is rewound
    /// so the retry reuses the in-flight seq and dedups server-side.
    fn step<T>(
        &mut self,
        rewind: Option<&str>,
        mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, String> {
        loop {
            match op(&mut self.client) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    if self.daemon.crashed() || self.daemon.poisoned() {
                        self.restart()?;
                        if let Some(session) = rewind {
                            self.client.rewind_seq(session);
                        }
                        continue;
                    }
                    return Err(format!("step failed without a crash: {e}"));
                }
            }
        }
    }
}

fn run_cell(kind: FaultKind, seed: u64, sessions: u32) -> CellOutcome {
    let fail = |detail: String, crashes: u32, retries: u64| CellOutcome {
        kind,
        seed,
        pass: false,
        detail,
        crashes,
        retries,
    };
    let dir = TempDir::new(&format!("chaos-{}-{seed}", kind.as_str()));
    let journal = dir.path().join("wal.jsonl");
    let script = build_script(
        seed.wrapping_mul(31)
            .wrapping_add(kind.as_str().len() as u64),
        sessions,
    );
    let plan = fault_plan(kind, seed);

    let mut cell = match Cell::start(&journal, plan, seed) {
        Ok(c) => c,
        Err(e) => return fail(e, 0, 0),
    };

    // Drive the script.
    let mut session_ids = Vec::new();
    for (idx, s) in script.iter().enumerate() {
        let params = s.params.clone();
        let sid = match cell.step(None, |c| c.open(params.clone())) {
            Ok(sid) => sid,
            Err(e) => {
                return fail(
                    format!("open session {idx}: {e}"),
                    cell.crashes,
                    cell.retries,
                )
            }
        };
        for &(t_cmp, t_com) in &s.clients {
            if let Err(e) = cell.step(Some(&sid), |c| c.add_client(&sid, t_cmp, t_com)) {
                return fail(format!("add client: {e}"), cell.crashes, cell.retries);
            }
        }
        for bid in &s.bids {
            if let Err(e) = cell.step(Some(&sid), |c| c.add_bid(&sid, *bid)) {
                return fail(format!("add bid: {e}"), cell.crashes, cell.retries);
            }
        }
        if let Err(e) = cell.step(Some(&sid), |c| c.close(&sid)) {
            return fail(format!("close: {e}"), cell.crashes, cell.retries);
        }
        session_ids.push(sid);
    }

    // Verify every epoch against the fault-free reference.
    for (s, sid) in script.iter().zip(&session_ids) {
        let reply = match cell.step(None, |c| c.outcome(sid)) {
            Ok(r) => r,
            Err(e) => return fail(format!("query outcome: {e}"), cell.crashes, cell.retries),
        };
        match (&s.reference, &reply) {
            (Some(expected), CloseReply::Committed(outcome)) => {
                let got = serial::outcome_to_json(outcome);
                if &got != expected {
                    return fail(
                        format!("outcome drift in {sid}: expected {expected} got {got}"),
                        cell.crashes,
                        cell.retries,
                    );
                }
                // Payments must match per client, bit for bit.
                let expected_outcome =
                    serial::outcome_from_json(expected).expect("reference re-parses");
                for client_idx in 0..s.clients.len() as u32 {
                    // Same fold (identity 0.0, winner order) as the
                    // daemon's payment handler, so equality is bitwise.
                    let expect_total: f64 = expected_outcome
                        .solution()
                        .winners()
                        .iter()
                        .filter(|w| w.bid_ref.client.0 == client_idx)
                        .fold(0.0f64, |acc, w| acc + w.payment);
                    match cell.step(None, |c| c.payments(sid, client_idx)) {
                        Ok(crate::client::PaymentReply::Committed { total, .. }) => {
                            if total.to_bits() != expect_total.to_bits() {
                                return fail(
                                    format!(
                                        "payment drift in {sid} client {client_idx}: \
                                         expected {expect_total} got {total}"
                                    ),
                                    cell.crashes,
                                    cell.retries,
                                );
                            }
                        }
                        Ok(other) => {
                            return fail(
                                format!("payment status mismatch: {other:?}"),
                                cell.crashes,
                                cell.retries,
                            )
                        }
                        Err(e) => {
                            return fail(format!("query payments: {e}"), cell.crashes, cell.retries)
                        }
                    }
                }
            }
            (None, CloseReply::Aborted(reason)) => {
                if reason != "infeasible" {
                    return fail(
                        format!("abort reason drift: {reason:?}"),
                        cell.crashes,
                        cell.retries,
                    );
                }
            }
            (expected, got) => {
                return fail(
                    format!("decision drift in {sid}: reference {expected:?} vs daemon {got:?}"),
                    cell.crashes,
                    cell.retries,
                )
            }
        }
    }

    // Journal forensics: memory is a replay of the journal, zero torn
    // records, balanced close markers.
    let retries = cell.retries + cell.client.retries();
    let crashes = cell.crashes;
    let audit = cell.daemon.audit(dir.path());
    cell.daemon.stop();
    if let Err(e) = audit {
        return fail(format!("journal audit: {e}"), crashes, retries);
    }
    let bytes = match std::fs::read(&journal) {
        Ok(b) => b,
        Err(e) => return fail(format!("read journal: {e}"), crashes, retries),
    };
    let scan = scan_bytes(&bytes);
    if scan.torn {
        return fail("journal left torn after recovery".into(), crashes, retries);
    }
    let mut begins: HashMap<&str, u32> = HashMap::new();
    let mut commits: HashMap<&str, u32> = HashMap::new();
    for rec in &scan.records {
        match rec {
            Record::CloseBegin { session, .. } => *begins.entry(session).or_default() += 1,
            Record::CloseCommit { session, .. } => *commits.entry(session).or_default() += 1,
            _ => {}
        }
    }
    for sid in &session_ids {
        if begins.get(sid.as_str()) != Some(&1) || commits.get(sid.as_str()) != Some(&1) {
            return fail(
                format!(
                    "unbalanced close markers for {sid}: {} begins, {} commits",
                    begins.get(sid.as_str()).copied().unwrap_or(0),
                    commits.get(sid.as_str()).copied().unwrap_or(0)
                ),
                crashes,
                retries,
            );
        }
    }

    CellOutcome {
        kind,
        seed,
        pass: true,
        detail: String::new(),
        crashes,
        retries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_deterministic_and_mostly_feasible() {
        let a = build_script(7, 3);
        let b = build_script(7, 3);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.params, y.params);
            assert_eq!(x.bids, y.bids);
            assert_eq!(x.reference, y.reference);
        }
        // Across a handful of seeds, at least one committed epoch must
        // exist or the matrix would certify nothing.
        let any_feasible = (0..8u64)
            .flat_map(|s| build_script(s, 3))
            .any(|s| s.reference.is_some());
        assert!(any_feasible);
    }

    #[test]
    fn fault_plans_differ_by_kind() {
        let drop = fault_plan(FaultKind::Drop, 1);
        assert!(drop.drop_resp > 0.0 && drop.crash.is_none());
        let partial = fault_plan(FaultKind::Partial, 1);
        let cp = partial.crash.unwrap();
        assert!(cp.cut > 0.0 && cp.cut < 1.0, "partial must tear: {cp:?}");
        let crash = fault_plan(FaultKind::Crash, 1);
        let cp = crash.crash.unwrap();
        assert!(cp.cut == 0.0 || cp.cut == 1.0, "crash is boundary-clean");
        let jam = fault_plan(FaultKind::Jam, 1);
        assert!(jam.crash.is_none() && !jam.has_wire_faults());
        assert!((1..=2).contains(&jam.jam.unwrap().nth));
    }

    #[test]
    fn single_fault_free_cell_passes() {
        // A cell with an empty plan exercises the full driver path.
        let cell = run_cell(FaultKind::Delay, 0, 1);
        assert!(cell.pass, "{}", cell.detail);
    }
}
