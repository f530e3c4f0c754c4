//! Per-layer metrics of a run (`--trace 1`).
//!
//! The daemon itself is not instrumented, and the load is the same as
//! under `--trace 0`. Instead, after the load, each layer is driven again from this file on the run's own data,
//! and every call into it is timed as a span carrying the request id of
//! the request that caused it:
//!
//! * `wire`: `request_with_trace` and `parse_request` on each replayed
//!   request;
//! * `session`: `ServerCore::handle` on an in-process replay of the
//!   run's whole request log, against a scratch journal;
//! * `journal`: `Journal::append_with_trace` of the same records on a
//!   second scratch journal, and `Journal::open` of the run's journal;
//! * `preprocess`/`winner`/`auction`: `SweepPrecomp::new`/`qualify_at`,
//!   `AWinner` with and without its certificate, and `run_auction_with`
//!   on each closed instance;
//! * `online`: `OnlineAuction::submit` on each stream.
//!
//! A request's session self time is its `handle` span minus its parse,
//! journal and mechanism spans. Spans stay in memory until the run ends.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use fl_auction::{
    min_horizon, run_auction_with, AWinner, ClientId, ClientProfile, Instance, OnlineAuction,
    SweepPrecomp, WdpSolver,
};
use fl_flpd::client::SubmitReply;
use fl_flpd::journal::{CloseResult, Durability, Journal, Record};
use fl_flpd::session::{HandleResult, Limits, ServerCore};
use fl_flpd::wire::{self, Request};
use fl_flpd::CloseReply;
use fl_telemetry::json::{self, Json};
use fl_telemetry::{install_local, Recorder};

use crate::drive::{Op, OpRecord};
use crate::stats::{median, quantile, Metrics};
use crate::workload::{stream_budget, to_bid, Plan, Step};
use crate::Pass;

/// A timed call into one layer, tied to the request that caused it
/// (`rid` 0: a side measurement no request waited for).
#[derive(Debug, Clone, Copy)]
struct Span {
    rid: u64,
    name: &'static str,
    ns: u64,
}

#[derive(Debug, Default)]
struct Spans(Vec<Span>);

impl Spans {
    /// Runs `f` as span `name` of request `rid`.
    fn time<R>(&mut self, rid: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = f();
        self.0.push(Span {
            rid,
            name,
            ns: started.elapsed().as_nanos() as u64,
        });
        out
    }

    /// Total span time per request id for spans called `name`, µs.
    fn by_rid(&self, name: &str) -> HashMap<u64, f64> {
        let mut out = HashMap::new();
        for s in self.0.iter().filter(|s| s.name == name) {
            *out.entry(s.rid).or_insert(0.0) += s.ns as f64 / 1e3;
        }
        out
    }

    /// Every span called `name`, µs.
    fn all(&self, name: &str) -> Vec<f64> {
        self.0
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns as f64 / 1e3)
            .collect()
    }
}

/// One write (`client`, `bid`, `submit`) in this many has its journal
/// records appended to the scratch journal: each append is an fsync, and
/// at one in four the traced run of `stream_ingest` still times some
/// 30 000 of them.
const JOURNAL_EVERY: usize = 4;

/// Indices of the per-request span columns used for self time.
const HANDLE: usize = 0;
const PARSE: usize = 1;
const JOURNAL: usize = 2;
const MECHANISM: usize = 3;
const ENCODE: usize = 4;

/// The class a request's latency is reported under.
fn class_of(op: Op) -> &'static str {
    if op.is_write() {
        "write"
    } else if op.is_read() {
        "read"
    } else if op == Op::Close {
        "close"
    } else {
        "open"
    }
}

/// The sequence number the client sends with each step of `plan`
/// (mutating steps count from 1; `open` and reads carry none).
fn seqs(plan: &Plan) -> Vec<u64> {
    let mut seq = 0;
    plan.steps
        .iter()
        .map(|step| {
            if matches!(step, Step::Client(_) | Step::Bid(_) | Step::Close) {
                seq += 1;
            }
            seq
        })
        .collect()
}

/// The request a record sent, addressed to session `sid`.
fn request(plan: &Plan, step: Step, sid: &str, seq: u64) -> Request {
    let session = sid.to_string();
    match step {
        Step::Open => Request::Open(plan.params.clone()),
        Step::Client(c) => {
            let (t_cmp, t_com) = plan.clients[c as usize];
            Request::Client {
                session,
                seq,
                t_cmp,
                t_com,
            }
        }
        Step::Bid(i) if plan.streaming() => Request::Submit {
            session,
            seq,
            bid: plan.bids[i as usize],
        },
        Step::Bid(i) => Request::Bid {
            session,
            seq,
            bid: plan.bids[i as usize],
        },
        Step::Close => Request::Close { session, seq },
        Step::Outcome => Request::Outcome { session },
        Step::Payment(client) => Request::Payment { session, client },
    }
}

/// The journal records the daemon appends for an acknowledged mutation.
fn records(
    plan: &Plan,
    step: Step,
    sid: &str,
    seq: u64,
    submit: Option<&SubmitReply>,
    close: Option<&CloseReply>,
) -> Vec<Record> {
    let session = sid.to_string();
    match step {
        Step::Open => vec![Record::Open {
            session,
            params: plan.params.clone(),
        }],
        Step::Client(c) => {
            let (t_cmp, t_com) = plan.clients[c as usize];
            vec![Record::Client {
                session,
                seq,
                t_cmp,
                t_com,
            }]
        }
        Step::Bid(i) => {
            let b = plan.bids[i as usize];
            match submit {
                Some(v) => vec![Record::Decision {
                    session,
                    seq,
                    client: b.client,
                    price: b.price,
                    theta: b.theta,
                    a: b.a,
                    d: b.d,
                    c: b.c,
                    committed: v.committed,
                    payment: v.payment,
                    reason: v.reason.clone(),
                    duplicate: v.duplicate,
                }],
                None => vec![Record::Bid {
                    session,
                    seq,
                    client: b.client,
                    price: b.price,
                    theta: b.theta,
                    a: b.a,
                    d: b.d,
                    c: b.c,
                }],
            }
        }
        Step::Close => {
            let result = match close {
                Some(CloseReply::Committed(o)) => CloseResult::Committed(o.clone()),
                Some(CloseReply::Aborted(r)) => CloseResult::Aborted(r.clone()),
                None => return Vec::new(),
            };
            vec![
                Record::CloseBegin {
                    session: session.clone(),
                    seq,
                },
                Record::CloseCommit { session, result },
            ]
        }
        Step::Outcome | Step::Payment(_) => Vec::new(),
    }
}

/// Solves per horizon with and without the certificate.
const CERTIFICATE_REPS: usize = 3;

/// Mechanism layer times of one closed instance, ms, and its counters.
#[derive(Debug, Default, Clone, Copy)]
struct Mechanism {
    precomp_ms: f64,
    qualify_ms: f64,
    solve_ms: f64,
    certificate_ms: f64,
    run_ms: f64,
    swept: u64,
    pruned: u64,
    greedy_iterations: u64,
    lazy_refreshes: u64,
}

/// Drives the batch mechanism's layers on `inst` as `run_auction_with`
/// does with one sweep thread: horizons ascending, a horizon pruned when
/// its cost lower bound exceeds the best cost so far.
fn mechanism(inst: &Instance, rid: u64, spans: &mut Spans) -> Mechanism {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let mut m = Mechanism::default();
    let started = Instant::now();
    let _ = spans.time(rid, "auction.run", || {
        run_auction_with(inst, &AWinner::new())
    });
    m.run_ms = ms(started);
    // The library's own counters, from a second run with a recorder on
    // this thread only (the daemon's threads never see it).
    let recorder = Arc::new(Recorder::default());
    {
        let _guard = install_local(recorder.clone());
        let _ = run_auction_with(inst, &AWinner::new());
    }
    let counters = recorder.snapshot().counters;
    let count = |name: &str| counters.get(name).copied().unwrap_or(0);
    m.swept = count("afl.horizons_swept");
    m.pruned = count("afl.horizons_pruned");
    m.greedy_iterations = count("winner.greedy_iterations");
    m.lazy_refreshes = count("winner.lazy_refreshes");

    let started = Instant::now();
    let precomp = spans.time(rid, "preprocess.precomp", || SweepPrecomp::new(inst));
    m.precomp_ms = ms(started);
    let Some(t0) = min_horizon(inst) else {
        return m;
    };
    let plain = AWinner::new().without_certificate();
    let full = AWinner::new();
    let mut best = f64::INFINITY;
    for h in t0..=inst.config().max_rounds() {
        if precomp.cost_lower_bound(h) > best {
            continue;
        }
        let started = Instant::now();
        let wdp = spans.time(rid, "preprocess.qualify", || precomp.qualify_at(h));
        m.qualify_ms += ms(started);
        if wdp.obviously_infeasible() {
            continue;
        }
        // The certificate's cost is the difference of two solves, each
        // the fastest of a few so that timer noise cannot dominate it.
        let mut without = f64::INFINITY;
        let mut with = f64::INFINITY;
        let mut solved = None;
        for _ in 0..CERTIFICATE_REPS {
            let started = Instant::now();
            let _ = spans.time(rid, "winner.solve", || plain.solve_wdp(&wdp));
            without = without.min(ms(started));
            let started = Instant::now();
            solved = Some(spans.time(rid, "winner.solve_certified", || full.solve_wdp(&wdp)));
            with = with.min(ms(started));
        }
        m.solve_ms += without;
        m.certificate_ms += with - without;
        if let Some(Ok(sol)) = solved {
            best = best.min(sol.cost());
        }
    }
    m
}

/// Re-drives `plan`'s bids through `OnlineAuction`, timing each submit
/// as a span of the request in `rids` (or 0). Returns
/// `(per-arrival µs, committed, arrived)`.
fn online(
    plan: &Plan,
    budget: f64,
    rids: &HashMap<u32, u64>,
    spans: &mut Spans,
) -> Result<(Vec<f64>, u64, u64), String> {
    let config = plan.params.to_config().map_err(|e| e.to_string())?;
    let mut auction = OnlineAuction::new(config, budget).map_err(|e| e.to_string())?;
    let mut times = Vec::with_capacity(plan.bids.len());
    for step in &plan.steps {
        match *step {
            Step::Client(c) => {
                let (t_cmp, t_com) = plan.clients[c as usize];
                auction
                    .register_client(ClientProfile::new(t_cmp, t_com).map_err(|e| e.to_string())?);
            }
            Step::Bid(i) => {
                let b = &plan.bids[i as usize];
                let bid = to_bid(b)?;
                let rid = rids.get(&i).copied().unwrap_or(0);
                let started = Instant::now();
                spans
                    .time(rid, "online.submit", || {
                        auction.submit(ClientId(b.client), bid)
                    })
                    .map_err(|e| e.to_string())?;
                times.push(started.elapsed().as_secs_f64() * 1e6);
            }
            _ => {}
        }
    }
    let c = auction.counters();
    Ok((times, c.committed, c.arrived))
}

/// The op of `ops` the log holds most requests of.
fn commonest(log: &[&OpRecord], ops: &[Op]) -> Op {
    *ops.iter()
        .max_by_key(|op| log.iter().filter(|r| r.op == **op).count())
        .expect("ops is not empty")
}

/// The daemon's own median service time of `op`, ms, from its `stats`.
fn hist_p50(stats: &Json, op: &str) -> Option<f64> {
    stats
        .get("live")?
        .get("hists")?
        .get(&format!("service.cmd.{op}_ms"))?
        .get("p50")?
        .as_f64()
}

/// Per-layer metrics of a pass, from replays of its data after its load.
///
/// # Errors
///
/// Fails when a replayed request is refused or a scratch journal cannot
/// be written: the layer numbers would not describe the run.
pub fn measure(pass: &Pass) -> Result<Metrics, String> {
    let plans = &pass.gen.plans;
    let load = &pass.load;
    let mut spans = Spans::default();
    let mut log: Vec<&OpRecord> = load.records.iter().filter(|r| r.ok).collect();
    log.sort_by_key(|r| (r.sent_ns, r.rid));
    let seq_of: Vec<Vec<u64>> = plans.iter().map(seqs).collect();

    // session + wire: replay the whole request log, in send order, into a
    // fresh core (sessions are independent in the daemon, so one
    // connection replays what two sent); journal: append the records of
    // every `open` and `close` and of every `JOURNAL_EVERY`-th write to a
    // second scratch journal right after its replay, so that both see the
    // same disk conditions.
    let replay_dir = pass.dir.file("replay.jsonl");
    let (core, _) = ServerCore::recover(&replay_dir, Durability::Strict, None, Limits::default())
        .map_err(|e| format!("replay core: {e}"))?;
    let (mut journal, _) = Journal::open(
        &pass.dir.file("scratch.jsonl"),
        Durability::Strict,
        None,
        None,
    )
    .map_err(|e| format!("scratch journal: {e}"))?;
    let mut replay_sid: Vec<Option<String>> = vec![None; plans.len()];
    let mut writes = 0usize;
    let mut req_bytes = Vec::with_capacity(log.len());
    let mut resp_bytes = Vec::with_capacity(log.len());
    for r in &log {
        let req = match r.session {
            None => Request::Stats,
            Some(i) => {
                let step = plans[i].steps[r.step];
                let sid = replay_sid[i].as_deref().unwrap_or("");
                request(&plans[i], step, sid, seq_of[i][r.step])
            }
        };
        let trace = format!("bench-{}", r.rid);
        let text = spans.time(r.rid, "wire.encode", || {
            wire::request_with_trace(r.rid, Some(&trace), &req)
        });
        spans
            .time(r.rid, "wire.parse", || wire::parse_request(&text))
            .map_err(|e| format!("replayed request does not parse: {e}"))?;
        let reply = match spans.time(r.rid, "session.handle", || core.handle(&text)) {
            HandleResult::Reply(reply) => reply,
            other => return Err(format!("replay of {} ended with {other:?}", r.op.name())),
        };
        let doc = json::parse(&reply).map_err(|e| format!("replay reply: {e}"))?;
        if doc.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("replayed {} refused: {reply}", r.op.name()));
        }
        if let (Op::Open, Some(i)) = (r.op, r.session) {
            replay_sid[i] = doc
                .get("session")
                .and_then(Json::as_str)
                .map(str::to_string);
        }
        req_bytes.push(text.len() as f64);
        resp_bytes.push(reply.len() as f64);

        let (Some(i), true) = (r.session, r.op.is_mutation()) else {
            continue;
        };
        if r.op.is_write() {
            writes += 1;
            if !writes.is_multiple_of(JOURNAL_EVERY) {
                continue;
            }
        }
        let out = &load.sessions[i];
        let step = plans[i].steps[r.step];
        let submit = match step {
            Step::Bid(b) if plans[i].streaming() => out
                .submits
                .binary_search_by_key(&b, |(idx, _)| *idx)
                .ok()
                .map(|k| &out.submits[k].1),
            _ => None,
        };
        let sid = out.sid.as_deref().unwrap_or("");
        for rec in records(
            &plans[i],
            step,
            sid,
            seq_of[i][r.step],
            submit,
            out.close.as_ref(),
        ) {
            spans
                .time(r.rid, "journal.append", || {
                    journal.append_with_trace(&rec, Some(&trace))
                })
                .map_err(|e| format!("scratch append: {e}"))?;
        }
    }
    drop((core, journal));

    // recovery: the scan, then the whole recovery, of the run's journal.
    let run_journal = pass.dir.journal();
    let started = Instant::now();
    let (scan, recovered) = Journal::open(&run_journal, Durability::Strict, None, None)
        .map_err(|e| format!("journal open: {e}"))?;
    let open_ms = started.elapsed().as_secs_f64() * 1e3;
    drop((scan, recovered));
    let started = Instant::now();
    let recovered = ServerCore::recover(&run_journal, Durability::Strict, None, Limits::default())
        .map_err(|e| format!("recover: {e}"))?;
    let recover_ms = started.elapsed().as_secs_f64() * 1e3;
    drop(recovered);

    // mechanism and online layers, per closed session.
    let close_rid: HashMap<usize, u64> = log
        .iter()
        .filter(|r| r.op == Op::Close)
        .filter_map(|r| r.session.map(|i| (i, r.rid)))
        .collect();
    let mut mech = Vec::new();
    let mut mech_on_close: HashMap<u64, f64> = HashMap::new();
    let mut deciles: Vec<Vec<f64>> = vec![Vec::new(); 10];
    let (mut committed, mut arrived) = (0u64, 0u64);
    for (i, plan) in plans.iter().enumerate() {
        let Some(&rid) = close_rid.get(&i).filter(|_| !plan.probe) else {
            continue;
        };
        let inst = plan.instance()?;
        // A streaming close takes no solve: the batch mechanism runs here
        // as the offline comparator, off the request path.
        let m = mechanism(&inst, if plan.streaming() { 0 } else { rid }, &mut spans);
        if !plan.streaming() {
            mech_on_close.insert(rid, m.run_ms * 1e3);
        }
        mech.push(m);
        // The online layer: on the request path for streams; for sealed
        // sessions, the same bids re-driven under the stream budget rule.
        let rids: HashMap<u32, u64> = if plan.streaming() {
            log.iter()
                .filter(|r| r.session == Some(i) && r.op == Op::Submit)
                .filter_map(|r| match plan.steps[r.step] {
                    Step::Bid(b) => Some((b, r.rid)),
                    _ => None,
                })
                .collect()
        } else {
            HashMap::new()
        };
        let budget = plan
            .params
            .budget
            .unwrap_or_else(|| stream_budget(plan.params.t, plan.params.k));
        let (times, c, a) = online(plan, budget, &rids, &mut spans)?;
        let n = times.len().max(1);
        for (pos, t) in times.into_iter().enumerate() {
            deciles[pos * 10 / n].push(t);
        }
        committed += c;
        arrived += a;
    }

    // Session self time: per request class, the median handle span
    // minus the medians of its parse, journal and mechanism spans.
    let by_rid = [
        spans.by_rid("session.handle"),
        spans.by_rid("wire.parse"),
        spans.by_rid("journal.append"),
        spans.by_rid("online.submit"),
        spans.by_rid("wire.encode"),
    ];
    let mut parts: HashMap<&str, [Vec<f64>; 5]> = HashMap::new();
    for r in &log {
        let p = parts.entry(class_of(r.op)).or_default();
        for (k, spans) in by_rid.iter().enumerate() {
            if k == JOURNAL && r.op.is_write() && !spans.contains_key(&r.rid) {
                // Not among the writes appended to the scratch journal.
                continue;
            }
            let mut us = spans.get(&r.rid).copied().unwrap_or(0.0);
            if k == MECHANISM {
                us += mech_on_close.get(&r.rid).copied().unwrap_or(0.0);
            }
            p[k].push(us);
        }
    }
    let mut part = |class: &str, k: usize| parts.get_mut(class).map_or(0.0, |p| median(&mut p[k]));
    let mut self_us = HashMap::new();
    for class in ["write", "close", "read"] {
        let own = part(class, HANDLE)
            - part(class, PARSE)
            - part(class, JOURNAL)
            - part(class, MECHANISM);
        self_us.insert(class, own);
    }
    let write_journal_us = part("write", JOURNAL);
    let write_wire_us = part("write", ENCODE) + part("write", PARSE);
    // Lock and fsync contention between the connections: the live
    // daemon's median service time of the commonest write op minus the
    // median of its uncontended replay.
    let write_op = commonest(&log, &[Op::Client, Op::Bid, Op::Submit]);
    let mut handled: Vec<f64> = log
        .iter()
        .filter(|r| r.op == write_op)
        .map(|r| by_rid[HANDLE][&r.rid])
        .collect();
    let contention_us =
        hist_p50(&pass.stats_doc, write_op.name()).unwrap_or(f64::NAN) * 1e3 - median(&mut handled);

    // The pass's own client-side view.
    let lat = |keep: &dyn Fn(Op) -> bool| -> Vec<f64> {
        log.iter()
            .filter(|r| keep(r.op))
            .map(|r| r.latency_ms())
            .collect()
    };
    let write_p50_ms = median(&mut lat(&Op::is_write));
    let close_ms: HashMap<u64, f64> = log
        .iter()
        .filter(|r| r.op == Op::Close)
        .map(|r| (r.rid, r.latency_ms()))
        .collect();
    let mut close_share: Vec<f64> = close_ms
        .iter()
        .map(|(rid, ms)| mech_on_close.get(rid).copied().unwrap_or(0.0) / 1e3 / ms)
        .collect();

    // Queueing in the daemon: the client's median round trip minus the
    // daemon's own median service time, for the class's commonest op.
    let queue = |ops: &[Op]| -> (f64, usize) {
        let op = commonest(&log, ops);
        let mut rtt: Vec<f64> = log
            .iter()
            .filter(|r| r.op == op)
            .map(|r| r.rtt_ms())
            .collect();
        let n = rtt.len();
        (
            median(&mut rtt) - hist_p50(&pass.stats_doc, op.name()).unwrap_or(f64::NAN),
            n,
        )
    };
    let acks = pass
        .warm
        .records
        .iter()
        .chain(&load.records)
        .filter(|r| r.ok && r.op.is_mutation())
        .count() as f64;
    let appends = pass
        .stats_doc
        .get("live")
        .and_then(|l| l.get("hists"))
        .and_then(|h| h.get("service.journal.append_ms"))
        .and_then(|h| h.get("n"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN);
    let journal_bytes = std::fs::metadata(&run_journal)
        .map(|m| m.len() as f64)
        .map_err(|e| format!("journal size: {e}"))?;

    let mut m = Metrics::default();
    let mut appends_us = spans.all("journal.append");
    let n_app = appends_us.len();
    m.push(
        "journal.append_us_p50",
        median(&mut appends_us),
        "us",
        n_app,
    );
    m.push(
        "journal.append_us_p99",
        quantile(&mut appends_us, 0.99),
        "us",
        n_app,
    );
    m.push(
        "journal.fsyncs_per_ack",
        appends / acks,
        "ratio",
        acks as usize,
    );
    m.push(
        "journal.bytes_per_ack",
        journal_bytes / acks,
        "B",
        acks as usize,
    );
    m.push("journal.open_ms", open_ms, "ms", 1);
    m.push("recover.replay_ms", recover_ms - open_ms, "ms", 1);
    for class in ["write", "close", "read"] {
        let n = log.iter().filter(|r| class_of(r.op) == class).count();
        m.push(format!("session.self_us.{class}"), self_us[class], "us", n);
    }
    m.push(
        "session.contention_us.write",
        contention_us,
        "us",
        handled.len(),
    );
    let (queue_write_ms, n) = queue(&[Op::Client, Op::Bid, Op::Submit]);
    m.push("daemon.queue_ms.write", queue_write_ms, "ms", n);
    let (queue_read_ms, n) = queue(&[Op::Payment, Op::Outcome, Op::Stats]);
    m.push("daemon.queue_ms.read", queue_read_ms, "ms", n);
    let n_mech = mech.len();
    let mean =
        |f: &dyn Fn(&Mechanism) -> f64| mech.iter().map(f).sum::<f64>() / n_mech.max(1) as f64;
    m.push(
        "preprocess.precomp_ms",
        mean(&|x| x.precomp_ms),
        "ms",
        n_mech,
    );
    m.push(
        "preprocess.qualify_ms",
        mean(&|x| x.qualify_ms),
        "ms",
        n_mech,
    );
    m.push("winner.solve_ms", mean(&|x| x.solve_ms), "ms", n_mech);
    m.push(
        "winner.certificate_ms",
        mean(&|x| x.certificate_ms),
        "ms",
        n_mech,
    );
    m.push("auction.run_ms", mean(&|x| x.run_ms), "ms", n_mech);
    m.push(
        "auction.horizons_swept",
        mean(&|x| x.swept as f64),
        "count",
        n_mech,
    );
    m.push(
        "auction.horizons_pruned",
        mean(&|x| x.pruned as f64),
        "count",
        n_mech,
    );
    m.push(
        "winner.greedy_iterations",
        mean(&|x| x.greedy_iterations as f64),
        "count",
        n_mech,
    );
    m.push(
        "winner.lazy_refreshes",
        mean(&|x| x.lazy_refreshes as f64),
        "count",
        n_mech,
    );
    let mut p50s = Vec::with_capacity(10);
    for (d, times) in deciles.iter_mut().enumerate() {
        let n = times.len();
        let p50 = median(times);
        p50s.push(p50);
        m.push(format!("online.submit_us.d{}", d + 1), p50, "us", n);
    }
    m.push("online.growth", p50s[9] / p50s[0], "ratio", 2);
    m.push(
        "online.commit_ratio",
        committed as f64 / arrived.max(1) as f64,
        "ratio",
        arrived as usize,
    );
    let mut encode = spans.all("wire.encode");
    let mut parse_us = spans.all("wire.parse");
    m.push("wire.encode_us", median(&mut encode), "us", encode.len());
    m.push("wire.parse_us", median(&mut parse_us), "us", parse_us.len());
    m.push(
        "wire.req_bytes",
        median(&mut req_bytes),
        "B",
        req_bytes.len(),
    );
    m.push(
        "wire.resp_bytes",
        median(&mut resp_bytes),
        "B",
        resp_bytes.len(),
    );
    m.push("client.retries", load.retries as f64, "count", 1);
    m.push(
        "daemon.shed",
        pass.stats_doc
            .get("shed")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN),
        "count",
        1,
    );
    let mut late: Vec<f64> = log.iter().map(|r| r.late_ms()).collect();
    m.push(
        "bench.gen_late_ms",
        quantile(&mut late, 0.99),
        "ms",
        late.len(),
    );
    // Where the median write went, as shares of `write_p50_ms`.
    let writes = log.iter().filter(|r| r.op.is_write()).count();
    let write_us = write_p50_ms * 1e3;
    m.push(
        "attrib.write_journal_session_share",
        (write_journal_us + self_us["write"] + contention_us) / write_us,
        "ratio",
        writes,
    );
    m.push(
        "attrib.write_journal_share",
        write_journal_us / write_us,
        "ratio",
        writes,
    );
    m.push(
        "attrib.write_contention_share",
        contention_us / write_us,
        "ratio",
        writes,
    );
    m.push(
        "attrib.write_wire_share",
        write_wire_us / write_us,
        "ratio",
        writes,
    );
    m.push(
        "attrib.write_queue_share",
        queue_write_ms * 1e3 / write_us,
        "ratio",
        writes,
    );
    let n_close = close_share.len();
    m.push(
        "attrib.close_mechanism_share",
        median(&mut close_share),
        "ratio",
        n_close,
    );
    Ok(m)
}
