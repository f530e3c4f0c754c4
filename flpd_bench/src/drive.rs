//! The load generator: sends every planned request over loopback TCP
//! through `fl_flpd::Client` and times each call from outside.
//!
//! Each connection is one thread with one `Client`. Its pending requests
//! sit in a queue ordered by due time. In the open loop every session's
//! `open` is due at its scheduled arrival and every operator `stats` poll
//! at its fixed offset; in the closed loop a caller's next session is due
//! when its previous one ends. Within a session, each request is due when
//! the previous one was answered. A request's latency runs from its due
//! time to its reply, so time spent waiting for a busy connection counts.
//!
//! Around each call the caller also reads the processor clock of the
//! daemon thread serving its connection (`flpd-conn-<n>`): the
//! difference is the daemon's processor time for that request.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::SocketAddr;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use fl_flpd::client::{PaymentReply, SubmitReply};
use fl_flpd::{Client, ClientConfig, ClientError, CloseReply};

use crate::stats;
use crate::workload::{mix, Plan, Step};

/// A request kind, named like the wire op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    /// `open`
    Open,
    /// `client`
    Client,
    /// `bid`
    Bid,
    /// `submit`
    Submit,
    /// `close`
    Close,
    /// `outcome`
    Outcome,
    /// `payment`
    Payment,
    /// `stats`
    Stats,
}

impl Op {
    /// The wire op name (also the daemon's `service.cmd.<op>_ms` key).
    pub fn name(self) -> &'static str {
        match self {
            Op::Open => "open",
            Op::Client => "client",
            Op::Bid => "bid",
            Op::Submit => "submit",
            Op::Close => "close",
            Op::Outcome => "outcome",
            Op::Payment => "payment",
            Op::Stats => "stats",
        }
    }

    /// Acknowledged mutations counted by the `write_*` metrics.
    pub fn is_write(self) -> bool {
        matches!(self, Op::Client | Op::Bid | Op::Submit)
    }

    /// Queries counted by the `read_*` metrics.
    pub fn is_read(self) -> bool {
        matches!(self, Op::Outcome | Op::Payment | Op::Stats)
    }

    /// Requests the daemon journals.
    pub fn is_mutation(self) -> bool {
        matches!(
            self,
            Op::Open | Op::Client | Op::Bid | Op::Submit | Op::Close
        )
    }

    /// The op a plan step sends.
    pub fn of(plan: &Plan, step: Step) -> Op {
        match step {
            Step::Open => Op::Open,
            Step::Client(_) => Op::Client,
            Step::Bid(_) if plan.streaming() => Op::Submit,
            Step::Bid(_) => Op::Bid,
            Step::Close => Op::Close,
            Step::Outcome => Op::Outcome,
            Step::Payment(_) => Op::Payment,
        }
    }
}

/// One request as its caller saw it. Times are nanoseconds from the
/// start of the load phase.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    /// Request id, unique within the run; the layer spans of `--trace 1`
    /// carry it too.
    pub rid: u64,
    /// Request kind.
    pub op: Op,
    /// Plan index (`None` for an operator `stats` poll).
    pub session: Option<usize>,
    /// Index into the plan's steps.
    pub step: usize,
    /// When the request was due.
    pub due_ns: u64,
    /// When the caller sent it.
    pub sent_ns: u64,
    /// When the reply arrived.
    pub done_ns: u64,
    /// Whether the call succeeded.
    pub ok: bool,
    /// Processor time the daemon thread serving the connection spent on
    /// the call, ns (`None` when its clock could not be read: the client
    /// reconnected to another thread).
    pub cpu_ns: Option<u64>,
}

impl OpRecord {
    /// Latency from due time to reply, ms.
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.due_ns) as f64 / 1e6
    }

    /// Client round trip (send to reply), ms.
    pub fn rtt_ms(&self) -> f64 {
        (self.done_ns - self.sent_ns) as f64 / 1e6
    }

    /// How late the caller sent the request, ms.
    pub fn late_ms(&self) -> f64 {
        (self.sent_ns - self.due_ns) as f64 / 1e6
    }

    /// The daemon's processor time for the call, µs.
    pub fn cpu_us(&self) -> Option<f64> {
        self.cpu_ns.map(|ns| ns as f64 / 1e3)
    }
}

/// What one session's calls returned.
#[derive(Debug, Default)]
pub struct SessionOut {
    /// Daemon session handle.
    pub sid: Option<String>,
    /// The `close` reply.
    pub close: Option<CloseReply>,
    /// The `outcome` reply.
    pub outcome: Option<CloseReply>,
    /// `(bid index, verdict)` of each `submit`.
    pub submits: Vec<(u32, SubmitReply)>,
    /// `(client, reply)` of each `payments` read.
    pub payments: Vec<(u32, PaymentReply)>,
    /// When the session was due to start, ns.
    pub start_ns: u64,
    /// When its last reply arrived, ns.
    pub end_ns: u64,
    /// Whether any call failed.
    pub failed: bool,
    /// Replies that contradict the plan (wrong client or bid index).
    pub mismatches: Vec<String>,
}

/// Everything the load phase produced.
#[derive(Debug, Default)]
pub struct LoadOut {
    /// Every request sent, in no particular order.
    pub records: Vec<OpRecord>,
    /// Per-plan results, indexed like the plans.
    pub sessions: Vec<SessionOut>,
    /// Operations attempted (sent, or skipped after an earlier failure
    /// of their session).
    pub attempted: u64,
    /// Operations that failed or were skipped.
    pub failed: u64,
    /// Retried attempts inside the clients.
    pub retries: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// From the start of the load phase to the last reply, s.
    pub elapsed_s: f64,
    /// Share of the machine's processor time the hypervisor gave to other
    /// guests while the load ran (see [`stats::machine_ticks`]).
    pub steal_share: Option<f64>,
    /// Processor time of [`stats::reference_ns`], ns, timed every
    /// [`REFERENCE_EVERY`] on the calling thread while the load ran.
    pub reference: Vec<u64>,
}

/// How often the load phase times the reference computation.
pub const REFERENCE_EVERY: Duration = Duration::from_millis(250);

/// A client with the default retry policy, connected and answering.
///
/// # Errors
///
/// Describes a failed first `ping`.
pub fn connect(addr: SocketAddr, seed: u64) -> Result<Client, String> {
    let mut client = Client::new(
        addr,
        ClientConfig {
            seed,
            ..ClientConfig::default()
        },
    );
    client.ping().map_err(|e| format!("ping: {e}"))?;
    Ok(client)
}

/// A connected client and the id of the daemon thread serving it: the
/// one `flpd-conn-<n>` thread that appeared while it connected.
///
/// # Errors
///
/// Describes a failed first `ping`.
fn connect_observed(addr: SocketAddr, seed: u64) -> Result<(Client, Option<u32>), String> {
    let before = stats::threads_named(CONN_THREAD);
    let client = connect(addr, seed)?;
    let mut new = stats::threads_named(CONN_THREAD)
        .into_iter()
        .filter(|t| !before.contains(t));
    let tid = match (new.next(), new.next()) {
        (Some((_, tid)), None) => Some(tid),
        _ => None,
    };
    Ok((client, tid))
}

/// The name prefix of the daemon's per-connection threads.
const CONN_THREAD: &str = "flpd-conn-";

/// Sends `plans` over `conns` connections: session `i` on connection
/// `i % conns`, `stats` poll `j` on connection `j % conns` while that
/// connection still has sessions to run. With `open_loop`, sessions
/// start at their arrival offsets; otherwise each connection runs its
/// sessions back to back.
///
/// # Errors
///
/// Fails only when a connection cannot be established.
pub fn run(
    addr: SocketAddr,
    plans: &[Plan],
    stats_due: &[Duration],
    open_loop: bool,
    conns: usize,
    seed: u64,
) -> Result<LoadOut, String> {
    // One at a time, so that each new daemon thread is known to serve
    // the client that just connected.
    let mut clients = Vec::with_capacity(conns);
    for c in 0..conns {
        clients.push(connect_observed(addr, mix(seed, 0xc0 + c as u64))?);
    }
    let ticks_before = stats::machine_ticks();
    let t0 = Instant::now();
    let mut reference = Vec::new();
    // Each worker holds a sender; the channel disconnects when the last
    // one ends.
    let (finished, all_finished) = mpsc::channel::<()>();
    let outs: Vec<(Vec<(usize, SessionOut)>, Worker)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, (client, daemon_tid))| {
                let mine: Vec<usize> = (c..plans.len()).step_by(conns).collect();
                let polls: Vec<Duration> =
                    stats_due.iter().copied().skip(c).step_by(conns).collect();
                let daemon_tid = *daemon_tid;
                let finished = finished.clone();
                scope.spawn(move || {
                    let _finished = finished;
                    let mut w = Worker::new(client, daemon_tid, c as u64, t0);
                    let sessions = w.run(plans, &mine, &polls, open_loop);
                    w.retries = w.client.retries();
                    (sessions, w)
                })
            })
            .collect::<Vec<_>>();
        drop(finished);
        loop {
            reference.push(stats::reference_ns());
            if all_finished.recv_timeout(REFERENCE_EVERY) == Err(RecvTimeoutError::Disconnected) {
                break;
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let steal_share = stats::steal_share(ticks_before, stats::machine_ticks());
    let mut load = LoadOut {
        sessions: (0..plans.len()).map(|_| SessionOut::default()).collect(),
        ..LoadOut::default()
    };
    let mut last_ns = 0;
    for (sessions, w) in outs {
        for (i, s) in sessions {
            load.sessions[i] = s;
        }
        last_ns = last_ns.max(w.records.iter().map(|r| r.done_ns).max().unwrap_or(0));
        load.records.extend(w.records);
        load.attempted += w.attempted;
        load.failed += w.failed;
        load.retries += w.retries;
        load.errors.extend(w.errors);
    }
    load.errors.truncate(8);
    load.elapsed_s = last_ns as f64 / 1e9;
    load.steal_share = steal_share;
    load.reference = reference;
    Ok(load)
}

/// The first session at or after `from` in `mine` that a closed loop
/// runs back to back (not a probe).
fn next_chained(plans: &[Plan], mine: &[usize], from: usize) -> Option<usize> {
    (from..mine.len()).find(|&local| !plans[mine[local]].probe)
}

/// A queued request: a session step or an operator poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Item {
    Stats,
    Step { local: usize, pos: usize },
}

struct Worker<'c> {
    client: &'c mut Client,
    /// The daemon thread serving `client`, while it is known.
    daemon_tid: Option<u32>,
    conn: u64,
    t0: Instant,
    next_rid: u64,
    records: Vec<OpRecord>,
    attempted: u64,
    failed: u64,
    retries: u64,
    errors: Vec<String>,
}

impl<'c> Worker<'c> {
    fn new(client: &'c mut Client, daemon_tid: Option<u32>, conn: u64, t0: Instant) -> Worker<'c> {
        Worker {
            client,
            daemon_tid,
            conn,
            t0,
            next_rid: 0,
            records: Vec::new(),
            attempted: 0,
            failed: 0,
            retries: 0,
            errors: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// The serving daemon thread's processor clock, ns. Once it cannot be
    /// read (the client reconnected and another thread serves it), it is
    /// not read again.
    fn daemon_cpu_ns(&mut self) -> Option<u64> {
        let ns = stats::thread_cpu_ns(self.daemon_tid?);
        if ns.is_none() {
            self.daemon_tid = None;
        }
        ns
    }

    fn run(
        &mut self,
        plans: &[Plan],
        mine: &[usize],
        polls: &[Duration],
        open_loop: bool,
    ) -> Vec<(usize, SessionOut)> {
        let mut outs: Vec<SessionOut> = mine.iter().map(|_| SessionOut::default()).collect();
        let mut queue = BinaryHeap::new();
        let mut order = 0u64;
        let mut push = |queue: &mut BinaryHeap<_>, due: u64, item: Item| {
            order += 1;
            queue.push(Reverse((due, order, item)));
        };
        if open_loop {
            for (local, &i) in mine.iter().enumerate() {
                let due = plans[i].arrival.as_nanos() as u64;
                outs[local].start_ns = due;
                push(&mut queue, due, Item::Step { local, pos: 0 });
            }
        } else {
            // Sessions back to back, probes at their arrival beside them.
            for (local, &i) in mine.iter().enumerate() {
                if plans[i].probe {
                    let due = plans[i].arrival.as_nanos() as u64;
                    push(&mut queue, due, Item::Step { local, pos: 0 });
                }
            }
            if let Some(local) = next_chained(plans, mine, 0) {
                push(&mut queue, 0, Item::Step { local, pos: 0 });
            }
        }
        for due in polls {
            push(&mut queue, due.as_nanos() as u64, Item::Stats);
        }
        let mut unfinished = mine.len();
        while let Some(Reverse((due, _, item))) = queue.pop() {
            if item == Item::Stats && unfinished == 0 {
                continue;
            }
            let now = self.now_ns();
            if due > now {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            match item {
                Item::Stats => {
                    let cpu = self.daemon_cpu_ns();
                    let sent = self.now_ns();
                    let res = self.client.stats_doc().map(|_| ());
                    self.record(Op::Stats, None, 0, due, sent, cpu, res);
                }
                Item::Step { local, pos } => {
                    let i = mine[local];
                    let plan = &plans[i];
                    let out = &mut outs[local];
                    if pos == 0 {
                        out.start_ns = due;
                    }
                    let cpu = self.daemon_cpu_ns();
                    let sent = self.now_ns();
                    let res = exec(self.client, plan, out, plan.steps[pos]);
                    let ok = res.is_ok();
                    let op = Op::of(plan, plan.steps[pos]);
                    let done = self.record(op, Some(i), pos, due, sent, cpu, res);
                    let last = pos + 1 == plan.steps.len();
                    if !ok {
                        out.failed = true;
                        let skipped = (plan.steps.len() - pos - 1) as u64;
                        self.attempted += skipped;
                        self.failed += skipped;
                    }
                    if last || !ok {
                        out.end_ns = done;
                        unfinished -= 1;
                        let next = next_chained(plans, mine, local + 1);
                        if let Some(next) = next.filter(|_| !open_loop && !plan.probe) {
                            push(
                                &mut queue,
                                done,
                                Item::Step {
                                    local: next,
                                    pos: 0,
                                },
                            );
                        }
                    } else {
                        push(
                            &mut queue,
                            done,
                            Item::Step {
                                local,
                                pos: pos + 1,
                            },
                        );
                    }
                }
            }
        }
        mine.iter().copied().zip(outs).collect()
    }

    /// Records one call, with the serving daemon thread's processor clock
    /// read before it was sent; returns its reply time.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        op: Op,
        session: Option<usize>,
        step: usize,
        due_ns: u64,
        sent_ns: u64,
        cpu_before: Option<u64>,
        res: Result<(), ClientError>,
    ) -> u64 {
        let done_ns = self.now_ns();
        let cpu_ns = match (cpu_before, self.daemon_cpu_ns()) {
            (Some(a), Some(b)) => b.checked_sub(a),
            _ => None,
        };
        self.next_rid += 1;
        self.attempted += 1;
        if let Err(e) = &res {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(format!("{}: {e}", op.name()));
            }
        }
        self.records.push(OpRecord {
            rid: (self.conn << 40) | self.next_rid,
            op,
            session,
            step,
            due_ns,
            sent_ns,
            done_ns,
            ok: res.is_ok(),
            cpu_ns,
        });
        done_ns
    }
}

/// Sends one plan step and stores its reply.
fn exec(
    client: &mut Client,
    plan: &Plan,
    out: &mut SessionOut,
    step: Step,
) -> Result<(), ClientError> {
    if step == Step::Open {
        out.sid = Some(client.open(plan.params.clone())?);
        return Ok(());
    }
    let sid = out.sid.clone().expect("open precedes every other step");
    match step {
        Step::Open => unreachable!("handled above"),
        Step::Client(c) => {
            let (t_cmp, t_com) = plan.clients[c as usize];
            let idx = client.add_client(&sid, t_cmp, t_com)?;
            if idx != c {
                out.mismatches
                    .push(format!("{sid}: client {c} registered as index {idx}"));
            }
        }
        Step::Bid(i) => {
            let bid = plan.bids[i as usize];
            let within = plan.bids[..i as usize]
                .iter()
                .rev()
                .take_while(|b| b.client == bid.client)
                .count() as u32;
            let idx = if plan.streaming() {
                let reply = client.submit(&sid, bid)?;
                let idx = reply.bid;
                out.submits.push((i, reply));
                idx
            } else {
                client.add_bid(&sid, bid)?
            };
            if idx != within {
                out.mismatches.push(format!(
                    "{sid}: bid {i} of client {} acknowledged as index {idx}, expected {within}",
                    bid.client
                ));
            }
        }
        Step::Close => out.close = Some(client.close(&sid)?),
        Step::Outcome => out.outcome = Some(client.outcome(&sid)?),
        Step::Payment(c) => {
            let reply = client.payments(&sid, c)?;
            out.payments.push((c, reply));
        }
    }
    Ok(())
}
