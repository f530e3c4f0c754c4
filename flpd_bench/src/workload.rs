//! Workload generation: every request of a run is derived from the seed
//! before any timing starts.
//!
//! A run is a list of [`Plan`]s, one per session. A plan holds the
//! session's open parameters, its client profiles and bids, and the exact
//! step sequence a caller sends: open, then each client followed by its
//! bids, then close, one `outcome` read and, in `sealed_small`, one
//! `payments` read per client. An operator `stats` poll runs on the same
//! connections at a fixed interval in every workload.
//!
//! Only `sealed_small` reads payments. A streaming client already holds
//! its verdict and payment from its `submit` reply. In `sealed_large`,
//! the 1000 reads after each close made `read_p50_ms` bimodal across
//! runs: whether they met the other caller's fsyncs on the daemon's one
//! lock depended on how the two callers' sessions happened to line up.

use std::time::Duration;

use fl_auction::{Bid, ClientId, ClientProfile, Instance, Round, Window};
use fl_flpd::session::Limits;
use fl_flpd::wire::{BidParams, OpenParams};
use fl_workload::sample::{distinct_sorted, uniform};
use fl_workload::{ArrivalProcess, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop of small sealed-bid sessions (T=8, K=2, 5 clients).
    SealedSmall,
    /// Closed loop of large sealed-bid sessions (T=64, K=8, 1000 clients).
    SealedLarge,
    /// Closed loop of long streaming sessions under a posted-price budget.
    StreamIngest,
}

impl Workload {
    /// Every workload, in the order the doc lists them.
    pub const ALL: [Workload; 3] = [
        Workload::SealedSmall,
        Workload::SealedLarge,
        Workload::StreamIngest,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SealedSmall => "sealed_small",
            Workload::SealedLarge => "sealed_large",
            Workload::StreamIngest => "stream_ingest",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether sessions arrive on a schedule (open loop) or back to back
    /// from each caller (closed loop).
    pub fn open_loop(self) -> bool {
        self == Workload::SealedSmall
    }
}

/// Client connections (and load-generating threads) of every workload.
pub const CONNECTIONS: usize = 2;

/// Offered rate of the `sealed_small` open loop, sessions per second: at
/// `--seconds 20` its sessions nearly fill one daemon lifetime. A lower
/// rate leaves the processors idle between requests most of the time,
/// and the reference machine's wake-up latency from idle drifts by up to
/// a factor of two over tens of seconds.
pub const SMALL_RATE: f64 = 50.0;

/// Interval of the operator `stats` poll.
pub const STATS_EVERY: Duration = Duration::from_millis(50);

/// Sessions each `sealed_large` caller runs per second of `--seconds`:
/// 12 closes at `--seconds 15`, so that `close_cpu_ms` rests on more than
/// a handful and a run stays under a minute while the host is busy.
pub const LARGE_SESSIONS_PER_CALLER_PER_S: f64 = 0.4;

/// Seconds of `--seconds` per streaming session of each caller: 4
/// streams at `--seconds 15`, two a caller. With 6, a run took 40 s on a
/// quiet host and over 100 s while the host was busy.
pub const STREAM_SECONDS_PER_SESSION: f64 = 7.5;

/// Short streaming sessions (5 clients × 4 bids) each `stream_ingest`
/// run sends beside its long streams, half on each connection, to time
/// their `close`. A streaming close commits the decisions taken on
/// arrival without a solve; its processor time (two fsynced journal
/// records) varies by a third from close to close, so the four closes of
/// the long streams alone gave `close_cpu_ms` a ten-run spread of up to
/// 0.25. Sent back to back in the first half second of the load, the
/// short streams' median close moved with the machine's state in that
/// half second (spreads of 0.26 and 0.28), so they arrive on a schedule
/// over the first [`PROBE_SPAN`] of `--seconds` instead, beside the long
/// streams, the way the writes are spread over the whole load.
pub const STREAM_CLOSE_PROBES: usize = 100;

/// Share of `--seconds` over which the short streams of
/// [`STREAM_CLOSE_PROBES`] arrive; the long streams last longer.
pub const PROBE_SPAN: f64 = 0.8;

/// Clients per `sealed_large` session; with 4 bids each, 4 000 bids.
pub const LARGE_CLIENTS: usize = 1_000;

/// Clients per streaming session; with 4 bids each, 16 000 bids.
pub const STREAM_CLIENTS: usize = 4_000;

/// Posted price per scheduled round of a streaming session: its budget
/// is `B = 25·K·T` (the `online_ingest` shape of the bench suite).
pub const STREAM_PRICE_PER_ROUND: f64 = 25.0;

/// Warm-up sessions run through each daemon before timing starts.
pub const WARMUP_SESSIONS: usize = 2;

/// One step a caller sends for a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// `open` the session.
    Open,
    /// Register client `c`.
    Client(u32),
    /// Send bid `i` of [`Plan::bids`] (`bid` in a sealed session,
    /// `submit` in a streaming one).
    Bid(u32),
    /// Close the epoch.
    Close,
    /// Read the committed outcome.
    Outcome,
    /// Read the payments of client `c`.
    Payment(u32),
}

/// One session's generated requests.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Open parameters, with a nonce unique within the daemon.
    pub params: OpenParams,
    /// Client profiles `(t_cmp, t_com)` in registration order.
    pub clients: Vec<(f64, f64)>,
    /// Bids in arrival order.
    pub bids: Vec<BidParams>,
    /// The request sequence.
    pub steps: Vec<Step>,
    /// Open-loop arrival offset from the start of the run.
    pub arrival: Duration,
    /// A [`STREAM_CLOSE_PROBES`] session: it arrives at [`Plan::arrival`]
    /// even in a closed loop, and is left out of the per-session figures
    /// and of the per-layer mechanism and online replays.
    pub probe: bool,
}

impl Plan {
    /// Whether the session is a streaming (budgeted) one.
    pub fn streaming(&self) -> bool {
        self.params.budget.is_some()
    }

    /// Builds the session from a generated instance: clients in index
    /// order, each followed by its bids.
    fn from_instance(params: OpenParams, inst: &Instance) -> Plan {
        let clients = inst
            .clients()
            .iter()
            .map(|p| (p.compute_time(), p.comm_time()))
            .collect();
        let mut bids = Vec::with_capacity(inst.num_bids());
        for c in 0..inst.num_clients() {
            for b in inst.bids_of(ClientId(c as u32)) {
                bids.push(BidParams {
                    client: c as u32,
                    price: b.price(),
                    theta: b.accuracy(),
                    a: b.window().start().0,
                    d: b.window().end().0,
                    c: b.rounds(),
                });
            }
        }
        Plan::new(params, clients, bids, false)
    }

    /// The session's steps; with `payments`, every client reads its
    /// payments after the outcome.
    fn new(
        params: OpenParams,
        clients: Vec<(f64, f64)>,
        bids: Vec<BidParams>,
        payments: bool,
    ) -> Plan {
        let mut steps = Vec::with_capacity(2 + 2 * clients.len() + bids.len() + 2);
        steps.push(Step::Open);
        let mut next_bid = 0usize;
        for c in 0..clients.len() as u32 {
            steps.push(Step::Client(c));
            while next_bid < bids.len() && bids[next_bid].client == c {
                steps.push(Step::Bid(next_bid as u32));
                next_bid += 1;
            }
        }
        assert_eq!(next_bid, bids.len(), "bids must be grouped by client");
        steps.push(Step::Close);
        steps.push(Step::Outcome);
        if payments {
            steps.extend((0..clients.len() as u32).map(Step::Payment));
        }
        Plan {
            params,
            clients,
            bids,
            steps,
            arrival: Duration::ZERO,
            probe: false,
        }
    }

    /// The instance the daemon builds from this session's requests, for
    /// the local reference solve.
    pub fn instance(&self) -> Result<Instance, String> {
        let config = self.params.to_config().map_err(|e| e.to_string())?;
        let mut inst = Instance::new(config);
        for &(t_cmp, t_com) in &self.clients {
            inst.add_client(ClientProfile::new(t_cmp, t_com).map_err(|e| e.to_string())?);
        }
        for b in &self.bids {
            inst.add_bid(ClientId(b.client), to_bid(b)?)
                .map_err(|e| e.to_string())?;
        }
        Ok(inst)
    }
}

/// The auction bid a wire bid describes.
pub fn to_bid(b: &BidParams) -> Result<Bid, String> {
    Bid::new(b.price, b.theta, Window::new(Round(b.a), Round(b.d)), b.c).map_err(|e| e.to_string())
}

/// Everything a run sends, generated before timing.
#[derive(Debug)]
pub struct Generated {
    /// Warm-up sessions (run closed loop before the measured phase).
    pub warmup: Vec<Plan>,
    /// Measured sessions.
    pub plans: Vec<Plan>,
    /// Operator `stats` poll offsets from the start of the run.
    pub stats_due: Vec<Duration>,
}

/// The number of measured sessions a run of `seconds` sends.
pub fn session_count(w: Workload, seconds: f64) -> usize {
    match w {
        // One daemon lifetime holds at most `max_sessions` sessions, the
        // warm-up included: the daemon never evicts closed sessions.
        Workload::SealedSmall => ((SMALL_RATE * seconds).round() as usize)
            .clamp(1, Limits::default().max_sessions - WARMUP_SESSIONS),
        Workload::SealedLarge => {
            CONNECTIONS * ((seconds * LARGE_SESSIONS_PER_CALLER_PER_S).round() as usize).max(1)
        }
        Workload::StreamIngest => {
            CONNECTIONS * ((seconds / STREAM_SECONDS_PER_SESSION).round() as usize).max(1)
        }
    }
}

/// Generates a run's warm-up and measured sessions from `seed`.
pub fn generate(w: Workload, seed: u64, seconds: f64) -> Result<Generated, String> {
    let n = session_count(w, seconds);
    let mut plans = Vec::with_capacity(n);
    for i in 0..n {
        plans.push(session(w, mix(seed, i as u64), i as u64 + 1)?);
    }
    if w == Workload::StreamIngest {
        // Probe `j` goes to connection `j mod 2`, like every plan; each
        // connection's probes arrive evenly over the span.
        let per_conn = STREAM_CLOSE_PROBES / CONNECTIONS;
        let every = seconds * PROBE_SPAN / per_conn as f64;
        let mut probes = Vec::with_capacity(STREAM_CLOSE_PROBES);
        for j in 0..STREAM_CLOSE_PROBES {
            let i = (n + j) as u64;
            let mut probe = stream_session(mix(seed, i), i + 1, 5)?;
            probe.probe = true;
            probe.arrival = Duration::from_secs_f64(every * (j / CONNECTIONS) as f64);
            probes.push(probe);
        }
        plans.splice(0..0, probes);
    }
    if w.open_loop() {
        let arrivals = ArrivalProcess::Poisson {
            rate_per_sec: SMALL_RATE,
        }
        .schedule(mix(seed, u64::MAX), n);
        // Stretch the schedule so that its last arrival falls at
        // `n / rate`: a Poisson process conditioned on its n-th arrival
        // time, so that the run's length does not vary with the seed.
        let last = arrivals.last().map_or(0.0, Duration::as_secs_f64);
        let stretch = n as f64 / SMALL_RATE / last.max(f64::MIN_POSITIVE);
        for (plan, at) in plans.iter_mut().zip(arrivals) {
            plan.arrival = at.mul_f64(stretch);
        }
    }
    // Polls are scheduled well past the expected end; each connection
    // stops polling once its last session has ended.
    let horizon = Duration::from_secs_f64(2.0 * seconds);
    let stats_due = std::iter::successors(Some(STATS_EVERY), |at| Some(*at + STATS_EVERY))
        .take_while(|at| *at <= horizon)
        .collect();
    let first_nonce = plans.len() as u64 + 1;
    let warmup = (0..WARMUP_SESSIONS)
        .map(|i| warmup_session(w, mix(!seed, i as u64), first_nonce + i as u64))
        .collect::<Result<_, _>>()?;
    Ok(Generated {
        warmup,
        plans,
        stats_due,
    })
}

/// One measured session of workload `w`.
fn session(w: Workload, seed: u64, nonce: u64) -> Result<Plan, String> {
    match w {
        Workload::SealedSmall => Ok(small_session(seed, nonce)),
        Workload::SealedLarge => Ok(frontier_session(seed, nonce, LARGE_CLIENTS)),
        Workload::StreamIngest => stream_session(seed, nonce, STREAM_CLIENTS),
    }
}

/// A warm-up session: the workload's session shape at a small size.
fn warmup_session(w: Workload, seed: u64, nonce: u64) -> Result<Plan, String> {
    match w {
        Workload::SealedSmall => Ok(small_session(seed, nonce)),
        Workload::SealedLarge => Ok(frontier_session(seed, nonce, 50)),
        Workload::StreamIngest => stream_session(seed, nonce, 50),
    }
}

/// A streaming session of the `online_ingest` shape: T=16, K=5,
/// `B = 25·K·T`, `clients` clients with 4 bids each.
fn stream_session(seed: u64, nonce: u64, clients: usize) -> Result<Plan, String> {
    paper_session(
        seed,
        open_params(nonce, 16, 5, Some(stream_budget(16, 5))),
        clients,
        4,
    )
}

/// `B = π·K·T` for the posted price [`STREAM_PRICE_PER_ROUND`].
pub fn stream_budget(t: u32, k: u32) -> f64 {
    STREAM_PRICE_PER_ROUND * f64::from(k) * f64::from(t)
}

/// Open parameters with the paper's local-iteration model
/// (`T_l(θ) = ⌊10(1−θ)⌋`) and a 60 s round limit.
fn open_params(nonce: u64, t: u32, k: u32, budget: Option<f64>) -> OpenParams {
    OpenParams {
        param: 10.0,
        budget,
        ..OpenParams::new(nonce, t, k, 60.0)
    }
}

/// A session drawn from the paper's §VII-A client and bid distributions.
fn paper_session(
    seed: u64,
    params: OpenParams,
    clients: usize,
    bids_per_client: u32,
) -> Result<Plan, String> {
    let config = params.to_config().map_err(|e| e.to_string())?;
    let inst = WorkloadSpec::paper_default()
        .with_clients(clients)
        .with_bids_per_client(bids_per_client)
        .with_config(config)
        .generate(seed)
        .map_err(|e| format!("workload generation failed: {e}"))?;
    Ok(Plan::from_instance(params, &inst))
}

/// A sealed session of the bench suite's `scale_frontier` shape: T=64,
/// K=8, `clients` clients with 4 bids each, windows from 8 distinct
/// sorted draws in `[1, T]`, `c` uniform in `[1, d−a]`, prices in
/// `[10, 50]`, and every bid's accuracy `θ = 1 − 1/T`. That accuracy makes
/// `T_0 = T`, so each close solves one full-horizon winner determination
/// over every bid instead of a sweep that pruning cuts short.
fn frontier_session(seed: u64, nonce: u64, clients: usize) -> Plan {
    const T: u32 = 64;
    const J: usize = 4;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut profiles = Vec::with_capacity(clients);
    let mut bids = Vec::with_capacity(clients * J);
    for c in 0..clients as u32 {
        profiles.push((uniform(&mut rng, 5.0, 10.0), uniform(&mut rng, 10.0, 15.0)));
        let marks = distinct_sorted(&mut rng, 2 * J, T);
        for m in 0..J {
            let (a, d) = (marks[2 * m], marks[2 * m + 1]);
            bids.push(BidParams {
                client: c,
                price: uniform(&mut rng, 10.0, 50.0),
                theta: 1.0 - 1.0 / f64::from(T),
                a,
                d,
                c: rng.random_range(1..=(d - a)),
            });
        }
    }
    Plan::new(open_params(nonce, T, 8, None), profiles, bids, false)
}

/// The small sealed session of the bench suite's `flpd_service`
/// scenario: T=8, K=2, 5 clients with 2 bids each, the first bid of each
/// client spanning the whole horizon so that the pool covers demand.
fn small_session(seed: u64, nonce: u64) -> Plan {
    const T: u32 = 8;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut clients = Vec::new();
    let mut bids = Vec::new();
    for c in 0..5u32 {
        clients.push((1.0 + rng.next_f64(), 2.0 + rng.next_f64() * 2.0));
        for j in 0..2 {
            let (a, d) = if j == 0 {
                (1, T)
            } else {
                let a = rng.random_range(1..=T);
                (a, rng.random_range(a..=T))
            };
            bids.push(BidParams {
                client: c,
                price: 1.0 + rng.next_f64() * 5.0,
                theta: 0.5 + rng.next_f64() * 0.3,
                a,
                d,
                c: rng.random_range(1..=(d - a + 1)),
            });
        }
    }
    Plan::new(OpenParams::new(nonce, T, 2, 60.0), clients, bids, true)
}

/// SplitMix64 of `(seed, i)`: independent per-session seeds.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
