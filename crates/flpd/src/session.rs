//! Session state machine and the request handler shared by the live
//! daemon and journal recovery.
//!
//! A session walks `Collecting → Closing → Closed(committed | aborted)`.
//! Every mutation (open, client, bid, submit, close) takes the same five
//! steps: *validate* without side effects → build the journal [`Record`]
//! → append it (fsynced under [`Durability::Strict`]) → *apply* the
//! record → reply. Recovery replays the journal through that same apply,
//! so the daemon's memory is a replay of its journal by construction,
//! and every acknowledgement names a journaled mutation.
//!
//! Mutations are idempotent per session via the client-chosen `seq`:
//! applying a record remembers `(seq, response)`, so a retry whose ack
//! was lost replays the stored response instead of double-applying — in
//! this process or in a recovered one. Every fresh seq journals exactly
//! one record: an identical bid resubmitted under a new seq is journaled
//! too, and applies as a duplicate.
//!
//! A failed append (ENOSPC, EIO, an injected `jam`) *poisons* the
//! journal. From then on every mutation answers `internal`, exact-seq
//! replays of already-journaled acks still replay, reads keep working,
//! and `health` reports `"poisoned"`: restart the daemon to recover.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use fl_auction::online::{bid_key, BidKey};
use fl_auction::{
    run_auction, serial, AuctionError, AuctionOutcome, Bid, ClientId, ClientProfile, Instance,
    OnlineAuction, OnlineDecision, Round, Window,
};
use fl_telemetry::{json, FlightRecorder, LiveMetrics};

use crate::error::{ErrCode, ServiceError};
use crate::faults::FaultPlan;
use crate::journal::{is_injected_crash, CloseResult, Durability, Journal, Record};
use crate::wire::{self, BidParams, OpenParams, ReqMeta, Request};

/// Capacity limits the daemon sheds load against.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum live sessions; `open` beyond this is `Overloaded`.
    pub max_sessions: usize,
    /// Maximum concurrent epoch closes; beyond this `close` is
    /// `Backlog`. Zero means every close is shed (used in tests).
    pub max_inflight_close: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_sessions: 1024,
            max_inflight_close: 2,
        }
    }
}

#[derive(Debug)]
enum SessionState {
    Collecting,
    /// `close_begin` is journaled under this seq; the commit is pending.
    Closing(u64),
    Closed(CloseResult),
}

/// How a session collects bids.
#[derive(Debug)]
enum Mode {
    /// Sealed bids: the instance grows per bid and close solves `A_FL`.
    Batch {
        instance: Instance,
        /// Duplicate ledger: fingerprint → bid index of the first
        /// submission.
        seen_bids: HashMap<BidKey, u32>,
    },
    /// Opened with a budget: the online driver owns the arrivals and
    /// decides each one irrevocably (and dedups them itself); close
    /// commits the decided set.
    Streaming(OnlineAuction),
}

#[derive(Debug)]
struct Session {
    mode: Mode,
    state: SessionState,
    last_seq: u64,
    last_resp: Option<String>,
}

impl Session {
    fn create(params: &OpenParams) -> Result<Session, ServiceError> {
        let config = params.to_config()?;
        let mode = match params.budget {
            Some(budget) => {
                Mode::Streaming(OnlineAuction::new(config, budget).map_err(bad_request)?)
            }
            None => Mode::Batch {
                instance: Instance::new(config),
                seen_bids: HashMap::new(),
            },
        };
        Ok(Session {
            mode,
            state: SessionState::Collecting,
            last_seq: 0,
            last_resp: None,
        })
    }

    /// Everything the journal determines about the session, as text.
    fn digest(&self) -> String {
        let mode = match &self.mode {
            Mode::Batch { instance, .. } => format!("{instance:?}"),
            Mode::Streaming(online) => format!("{:?} {:?}", online.instance(), online.outcome()),
        };
        format!(
            "{:?} last_seq={} last_resp={:?} {mode}",
            self.state, self.last_seq, self.last_resp
        )
    }
}

/// What the commit phase of a close needs: a batch solve input, or the
/// streaming session's already-decided committed set.
enum CloseWork {
    Batch(Instance),
    Streaming(CloseResult),
}

impl CloseWork {
    fn of(s: &Session) -> CloseWork {
        match &s.mode {
            // A streaming close never solves: every decision was taken
            // (and journaled) on arrival, so the outcome is just the
            // accumulated committed set.
            Mode::Streaming(online) => {
                let out = online.outcome();
                CloseWork::Streaming(CloseResult::Committed(AuctionOutcome::from_parts(
                    out.horizon(),
                    out.solution(),
                )))
            }
            Mode::Batch { instance, .. } => CloseWork::Batch(instance.clone()),
        }
    }

    fn resolve(self) -> CloseResult {
        match self {
            CloseWork::Batch(instance) => solve(&instance),
            CloseWork::Streaming(result) => result,
        }
    }
}

const BID_ON_STREAMING: &str = "streaming session accepts \"submit\", not \"bid\"";
const SUBMIT_ON_BATCH: &str = "batch session accepts \"bid\", not \"submit\"";

#[derive(Default)]
struct Inner {
    sessions: HashMap<String, Session>,
    nonces: HashMap<u64, String>,
    next_id: u64,
    closed: u64,
}

impl Inner {
    /// Applies one journaled record: the only way session state changes,
    /// live or in recovery. Returns the reply the record acknowledges
    /// (`None` for the `close_begin` intent marker). An `Err` means the
    /// record contradicts the session — a corrupt journal — and nothing
    /// changed.
    fn apply(&mut self, rec: &Record) -> Result<Option<String>, ServiceError> {
        if let Record::Open { session, params } = rec {
            if self.sessions.contains_key(session) {
                return Err(conflict(&format!("session {session:?} opened twice")));
            }
            let created = Session::create(params)?;
            let numeric = session
                .strip_prefix("s-")
                .and_then(|n| n.parse().ok())
                .unwrap_or(0);
            self.next_id = self.next_id.max(numeric);
            self.nonces.insert(params.nonce, session.clone());
            self.sessions.insert(session.clone(), created);
            return Ok(Some(open_resp(session)));
        }
        let s = self
            .sessions
            .get_mut(rec.session())
            .ok_or_else(|| unknown_session(rec.session()))?;
        let seq = match (rec, &s.state) {
            (Record::CloseCommit { .. }, SessionState::Closing(seq)) => *seq,
            (
                Record::Client { seq, .. }
                | Record::Bid { seq, .. }
                | Record::Decision { seq, .. }
                | Record::CloseBegin { seq, .. },
                SessionState::Collecting,
            ) if *seq > s.last_seq => *seq,
            _ => {
                return Err(conflict(&format!(
                    "{} record does not follow the session's state",
                    rec.kind().as_str()
                )))
            }
        };
        let resp = match rec {
            Record::Open { .. } => unreachable!("handled above"),
            Record::Client { t_cmp, t_com, .. } => {
                let profile = ClientProfile::new(*t_cmp, *t_com).map_err(bad_request)?;
                let id = match &mut s.mode {
                    Mode::Batch { instance, .. } => instance.add_client(profile),
                    Mode::Streaming(online) => online.register_client(profile),
                };
                client_resp(id.0)
            }
            Record::Bid {
                client,
                price,
                theta,
                a,
                d,
                c,
                ..
            } => {
                let Mode::Batch {
                    instance,
                    seen_bids,
                } = &mut s.mode
                else {
                    return Err(conflict(BID_ON_STREAMING));
                };
                let bid = to_bid(*price, *theta, *a, *d, *c)?;
                let fp = bid_key(ClientId(*client), &bid);
                match seen_bids.get(&fp) {
                    Some(&idx) => bid_resp(idx, true),
                    None => {
                        let idx = instance
                            .add_bid(ClientId(*client), bid)
                            .map_err(bad_request)?
                            .bid;
                        seen_bids.insert(fp, idx);
                        bid_resp(idx, false)
                    }
                }
            }
            Record::Decision {
                client,
                price,
                theta,
                a,
                d,
                c,
                committed,
                payment,
                reason,
                duplicate,
                ..
            } => {
                let Mode::Streaming(online) = &mut s.mode else {
                    return Err(conflict(SUBMIT_ON_BATCH));
                };
                let bid = to_bid(*price, *theta, *a, *d, *c)?;
                let client = ClientId(*client);
                let decision = online.decide(client, &bid).map_err(bad_request)?;
                // The verdict is a pure function of the journaled
                // arrivals: one that differs by a single bit means the
                // journal and the mechanism disagree, which must surface,
                // never be papered over.
                if decision.committed != *committed
                    || decision.payment.to_bits() != payment.to_bits()
                    || decision.reason.as_str() != reason
                    || decision.duplicate != *duplicate
                {
                    return Err(ServiceError::new(
                        ErrCode::Internal,
                        "re-derived verdict differs from the journaled one",
                    ));
                }
                online.commit(client, bid, &decision);
                submit_resp(&decision)
            }
            Record::CloseBegin { seq, .. } => {
                s.state = SessionState::Closing(*seq);
                return Ok(None);
            }
            Record::CloseCommit { result, .. } => {
                s.state = SessionState::Closed(result.clone());
                self.closed += 1;
                close_resp(result)
            }
        };
        s.last_seq = seq;
        s.last_resp = Some(resp.clone());
        Ok(Some(resp))
    }
}

/// What recovery found and did.
#[derive(Debug, Default, Clone, Copy)]
pub struct RecoveryReport {
    /// Sessions rebuilt from the journal.
    pub sessions: usize,
    /// Epochs whose `close_begin` had no commit and were re-solved.
    pub replayed_closes: usize,
    /// Epochs recovered (or re-solved) into an explicit abort.
    pub aborted: usize,
    /// Records that contradicted session invariants (corrupt journal).
    pub anomalies: usize,
    /// Torn-tail bytes truncated from the journal file.
    pub truncated_bytes: u64,
}

/// Everything the journal determines about a core's sessions, for
/// checking that memory equals a replay of the journal
/// ([`ServerCore::audit`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    /// Epochs closed (committed or aborted).
    pub closed: u64,
    /// Per session: its state (with any outcome), `last_seq`,
    /// `last_resp`, and its instance or online outcome, as text.
    pub sessions: BTreeMap<String, String>,
}

/// How the connection layer must react to a handled request.
#[derive(Debug)]
pub enum HandleResult {
    /// Send this frame.
    Reply(String),
    /// The (simulated) process is dead: send nothing, stop everything.
    Crashed,
    /// Send this frame, then begin graceful shutdown.
    ShutdownRequested(String),
}

enum Failure {
    Err(ServiceError),
    Crash,
}

impl From<ServiceError> for Failure {
    fn from(e: ServiceError) -> Failure {
        Failure::Err(e)
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The daemon's shared state: sessions plus the write-ahead journal,
/// instrumented with the live observability plane (sharded metrics +
/// flight recorder, see `fl_telemetry`).
pub struct ServerCore {
    inner: Mutex<Inner>,
    journal: Mutex<Journal>,
    limits: Limits,
    inflight_close: AtomicUsize,
    crashed: AtomicBool,
    /// Set when an append fails without killing the process.
    poisoned: AtomicBool,
    live: Arc<LiveMetrics>,
    flight: Arc<FlightRecorder>,
    /// Source of server-assigned `srv-<n>` trace ids.
    next_trace: AtomicU64,
    /// Connections shed at the accept gate (reported by the daemon via
    /// [`note_shed`](Self::note_shed)).
    shed: AtomicU64,
    started: Instant,
}

impl ServerCore {
    /// Opens the journal at `path`, replays it, and re-solves any epoch
    /// that was mid-close when the previous process died. The fault plan
    /// supplies the journal's injected crash/jam points, if any.
    ///
    /// # Errors
    ///
    /// Propagates journal file I/O failures.
    pub fn recover(
        path: &std::path::Path,
        durability: Durability,
        faults: Option<FaultPlan>,
        limits: Limits,
    ) -> std::io::Result<(ServerCore, RecoveryReport)> {
        let crash = faults.and_then(|p| p.crash);
        let jam = faults.and_then(|p| p.jam);
        let (journal, recovered) = Journal::open(path, durability, crash, jam)?;
        let core = ServerCore {
            inner: Mutex::new(Inner::default()),
            journal: Mutex::new(journal),
            limits,
            inflight_close: AtomicUsize::new(0),
            crashed: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            live: Arc::new(LiveMetrics::new()),
            flight: Arc::new(FlightRecorder::new()),
            next_trace: AtomicU64::new(1),
            shed: AtomicU64::new(0),
            started: Instant::now(),
        };
        // Pre-register the full error taxonomy so `stats` always shows
        // every `service.err.<code>` counter, fired or not.
        for code in ErrCode::ALL {
            core.live
                .counter(&format!("service.err.{}", code.as_str()), 0);
        }
        let mut report = RecoveryReport {
            truncated_bytes: recovered.truncated,
            ..RecoveryReport::default()
        };
        core.replay(recovered.records, &mut report);
        core.finish_pending_closes(&mut report);
        report.sessions = lock(&core.inner).sessions.len();
        if report.truncated_bytes > 0 {
            core.flight.record(
                "recovery",
                "recover",
                &format!("truncated {} torn tail bytes", report.truncated_bytes),
            );
        }
        if report.replayed_closes > 0 {
            core.flight.record(
                "recovery",
                "recover",
                &format!("re-solved {} pending closes", report.replayed_closes),
            );
        }
        core.flight.record(
            "recovery",
            "start",
            &format!("recovered {} sessions", report.sessions),
        );
        Ok((core, report))
    }

    /// Whether an injected crash has killed this core.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Whether a failed journal append has poisoned this core (see the
    /// [module docs](self)).
    pub fn poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// The core's live metrics aggregator (shared with the daemon layer,
    /// which records accept-gate and framing events into it).
    pub fn live(&self) -> &Arc<LiveMetrics> {
        &self.live
    }

    /// The core's flight recorder.
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// Records one connection shed at the accept gate. Counted both as a
    /// `service.shed` event and under the `overloaded` error code (that
    /// is the frame the peer received).
    pub fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        self.live.counter("service.shed", 1);
        self.live.counter("service.err.overloaded", 1);
        self.flight
            .record("", "shed", "connection shed at capacity");
    }

    /// Total connections shed at the accept gate so far.
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Records a connection-layer failure that never reached [`Self::handle`]
    /// (oversized frame, I/O deadline) under its taxonomy code.
    pub fn note_wire_err(&self, code: ErrCode, detail: &str) {
        self.live
            .counter(&format!("service.err.{}", code.as_str()), 1);
        self.flight
            .record("", "err", &format!("{}: {detail}", code.as_str()));
    }

    fn assign_trace(&self) -> String {
        format!("srv-{}", self.next_trace.fetch_add(1, Ordering::Relaxed))
    }

    /// Handles one parsed-or-raw request frame end to end. Every request
    /// gets a trace id (the client's, or a fresh `srv-<n>`) that is
    /// echoed on the response, stamped on journal records, and threaded
    /// through the flight recorder; per-command latency lands in the
    /// `service.cmd.<op>_ms` live histogram and error responses increment
    /// `service.err.<code>`.
    pub fn handle(&self, payload: &str) -> HandleResult {
        if self.crashed() {
            return HandleResult::Crashed;
        }
        let started = Instant::now();
        let (meta, req) = match wire::parse_request(payload) {
            Ok(parsed) => parsed,
            Err(e) => {
                let trace = self.assign_trace();
                self.live.counter("service.err.bad_request", 1);
                self.live
                    .sample("service.cmd.invalid_ms", ms_since(started));
                self.flight.record(&trace, "err", "unparseable request");
                let meta = ReqMeta {
                    id: None,
                    trace: Some(trace),
                };
                return HandleResult::Reply(wire::with_meta(&wire::error_response(&e), &meta));
            }
        };
        let trace = meta.trace.clone().unwrap_or_else(|| self.assign_trace());
        let resp_meta = ReqMeta {
            id: meta.id,
            trace: Some(trace.clone()),
        };
        let op = wire::op_name(&req);
        self.flight.record(&trace, "req", op);
        if matches!(req, Request::Shutdown) {
            self.flight.record(&trace, "resp", "shutdown requested");
            return HandleResult::ShutdownRequested(wire::with_meta(&ok_only(), &resp_meta));
        }
        let result = self.dispatch(&req, &trace);
        self.live
            .sample(&format!("service.cmd.{op}_ms"), ms_since(started));
        match result {
            Ok(resp) => {
                self.flight.record(&trace, "resp", "ok");
                HandleResult::Reply(wire::with_meta(&resp, &resp_meta))
            }
            Err(Failure::Err(e)) => {
                self.live
                    .counter(&format!("service.err.{}", e.code.as_str()), 1);
                self.flight.record(&trace, "err", e.code.as_str());
                HandleResult::Reply(wire::with_meta(&wire::error_response(&e), &resp_meta))
            }
            Err(Failure::Crash) => {
                self.flight
                    .record(&trace, "crash", "injected journal crash");
                HandleResult::Crashed
            }
        }
    }

    fn dispatch(&self, req: &Request, trace: &str) -> Result<String, Failure> {
        match req {
            Request::Ping => Ok(json::object(&[
                ("ok".into(), "true".into()),
                ("op".into(), json::string("ping")),
            ])),
            Request::Stats => Ok(self.stats_resp()),
            Request::Health => Ok(self.health_resp()),
            Request::Flight => Ok(json::object(&[
                ("ok".into(), "true".into()),
                ("flight".into(), self.flight.dump_json()),
            ])),
            Request::Shutdown => Ok(ok_only()),
            Request::Open(params) => self.handle_open(params, trace),
            Request::Client {
                session,
                seq,
                t_cmp,
                t_com,
            } => self.handle_client(session, *seq, *t_cmp, *t_com, trace),
            Request::Bid { session, seq, bid } => self.handle_bid(session, *seq, bid, trace),
            Request::Submit { session, seq, bid } => self.handle_submit(session, *seq, bid, trace),
            Request::Close { session, seq } => self.handle_close(session, *seq, trace),
            Request::Outcome { session } => self.handle_outcome(session),
            Request::Payment { session, client } => self.handle_payment(session, *client),
        }
    }

    /// The `stats` response: the session-level counters the original
    /// daemon exposed (`sessions`/`closed`, which clients still read),
    /// the close/shed pressure state, per-session FSM tallies, and the
    /// merged live-metrics snapshot (per-command latency histograms,
    /// journal fsync latency, error-taxonomy counters).
    fn stats_resp(&self) -> String {
        let (sessions, closed, fsm) = {
            let inner = lock(&self.inner);
            let mut fsm = [0u64; 4];
            for s in inner.sessions.values() {
                let slot = match &s.state {
                    SessionState::Collecting => 0,
                    SessionState::Closing(_) => 1,
                    SessionState::Closed(CloseResult::Committed(_)) => 2,
                    SessionState::Closed(CloseResult::Aborted(_)) => 3,
                };
                fsm[slot] += 1;
            }
            (inner.sessions.len(), inner.closed, fsm)
        };
        json::object(&[
            ("ok".into(), "true".into()),
            ("sessions".into(), sessions.to_string()),
            ("closed".into(), closed.to_string()),
            (
                "inflight_close".into(),
                self.inflight_close.load(Ordering::SeqCst).to_string(),
            ),
            ("shed".into(), self.shed_count().to_string()),
            (
                "uptime_ms".into(),
                self.started.elapsed().as_millis().to_string(),
            ),
            (
                "fsm".into(),
                json::object(&[
                    ("collecting".into(), fsm[0].to_string()),
                    ("closing".into(), fsm[1].to_string()),
                    ("committed".into(), fsm[2].to_string()),
                    ("aborted".into(), fsm[3].to_string()),
                ]),
            ),
            ("live".into(), self.live.merge().to_json()),
        ])
    }

    /// The `health` response: liveness, poisoned and overload state
    /// without merging metrics — cheap enough for tight poll loops.
    fn health_resp(&self) -> String {
        let sessions = lock(&self.inner).sessions.len();
        let inflight = self.inflight_close.load(Ordering::SeqCst);
        let overloaded = sessions >= self.limits.max_sessions
            || (self.limits.max_inflight_close > 0 && inflight >= self.limits.max_inflight_close);
        let status = match (self.poisoned(), overloaded) {
            (true, _) => "poisoned",
            (false, true) => "overloaded",
            (false, false) => "ok",
        };
        json::object(&[
            ("ok".into(), "true".into()),
            ("status".into(), json::string(status)),
            ("sessions".into(), sessions.to_string()),
            ("inflight_close".into(), inflight.to_string()),
            ("shed".into(), self.shed_count().to_string()),
            (
                "uptime_ms".into(),
                self.started.elapsed().as_millis().to_string(),
            ),
        ])
    }

    fn handle_open(&self, params: &OpenParams, trace: &str) -> Result<String, Failure> {
        Session::create(params)?; // validation: apply builds the session
        let mut inner = lock(&self.inner);
        if let Some(existing) = inner.nonces.get(&params.nonce) {
            return Ok(open_resp(existing));
        }
        self.writable()?;
        if inner.sessions.len() >= self.limits.max_sessions {
            return Err(ServiceError::new(
                ErrCode::Overloaded,
                format!("session capacity {} reached", self.limits.max_sessions),
            )
            .into());
        }
        let rec = Record::Open {
            session: format!("s-{}", inner.next_id + 1),
            params: params.clone(),
        };
        self.commit(&mut inner, &rec, trace)
    }

    fn handle_client(
        &self,
        session: &str,
        seq: u64,
        t_cmp: f64,
        t_com: f64,
        trace: &str,
    ) -> Result<String, Failure> {
        self.mutate(session, seq, trace, |_| {
            ClientProfile::new(t_cmp, t_com).map_err(bad_request)?;
            Ok(Record::Client {
                session: session.into(),
                seq,
                t_cmp,
                t_com,
            })
        })
    }

    fn handle_bid(
        &self,
        session: &str,
        seq: u64,
        bid: &BidParams,
        trace: &str,
    ) -> Result<String, Failure> {
        self.mutate(session, seq, trace, |s| {
            let Mode::Batch {
                instance,
                seen_bids,
            } = &s.mode
            else {
                return Err(conflict(BID_ON_STREAMING));
            };
            let parsed = to_bid(bid.price, bid.theta, bid.a, bid.d, bid.c)?;
            if bid.client as usize >= instance.num_clients() {
                return Err(bad_request(format!("unknown client {}", bid.client)));
            }
            if seen_bids.contains_key(&bid_key(ClientId(bid.client), &parsed)) {
                self.live.counter("service.bid.duplicate", 1);
            }
            Ok(Record::Bid {
                session: session.into(),
                seq,
                client: bid.client,
                price: bid.price,
                theta: bid.theta,
                a: bid.a,
                d: bid.d,
                c: bid.c,
            })
        })
    }

    fn handle_submit(
        &self,
        session: &str,
        seq: u64,
        bid: &BidParams,
        trace: &str,
    ) -> Result<String, Failure> {
        self.mutate(session, seq, trace, |s| {
            let Mode::Streaming(online) = &s.mode else {
                return Err(conflict(SUBMIT_ON_BATCH));
            };
            let parsed = to_bid(bid.price, bid.theta, bid.a, bid.d, bid.c)?;
            let decision = online
                .decide(ClientId(bid.client), &parsed)
                .map_err(bad_request)?;
            if decision.duplicate {
                self.live.counter("service.bid.duplicate", 1);
            }
            // The verdict is journaled *with* the arrival: applying the
            // record re-derives it and refuses one that differs by a bit.
            Ok(Record::Decision {
                session: session.into(),
                seq,
                client: bid.client,
                price: bid.price,
                theta: bid.theta,
                a: bid.a,
                d: bid.d,
                c: bid.c,
                committed: decision.committed,
                payment: decision.payment,
                reason: decision.reason.as_str().into(),
                duplicate: decision.duplicate,
            })
        })
    }

    fn handle_close(&self, session: &str, seq: u64, trace: &str) -> Result<String, Failure> {
        // Phase 1: gate, reserve a close slot, journal the intent.
        let work = {
            let mut inner = lock(&self.inner);
            if let Some(resp) = self.admit(&inner, session, seq, ErrCode::Backlog)? {
                return Ok(resp);
            }
            if !self.try_reserve_close_slot() {
                return Err(ServiceError::new(
                    ErrCode::Backlog,
                    format!("all {} close slots busy", self.limits.max_inflight_close),
                )
                .into());
            }
            let begin = Record::CloseBegin {
                session: session.into(),
                seq,
            };
            if let Err(e) = self.commit(&mut inner, &begin, trace) {
                self.release_close_slot();
                return Err(e);
            }
            CloseWork::of(&inner.sessions[session])
        };

        // Phase 2: solve outside every lock — closes of other sessions
        // and all queries proceed meanwhile. (Streaming sessions resolve
        // instantly: their decisions were all taken on arrival.)
        let result = work.resolve();

        // Phase 3: commit the decision.
        let resp = self.commit_close(session, result, trace);
        self.release_close_slot();
        resp
    }

    fn handle_outcome(&self, session: &str) -> Result<String, Failure> {
        let inner = lock(&self.inner);
        let s = known_session(&inner, session)?;
        match &s.state {
            SessionState::Closed(result) => Ok(close_resp(result)),
            SessionState::Closing(_) => {
                Err(ServiceError::new(ErrCode::Backlog, "close in progress").into())
            }
            SessionState::Collecting => Err(conflict("session not closed").into()),
        }
    }

    fn handle_payment(&self, session: &str, client: u32) -> Result<String, Failure> {
        let inner = lock(&self.inner);
        let s = known_session(&inner, session)?;
        match &s.state {
            SessionState::Closed(CloseResult::Committed(outcome)) => {
                let mut entries = Vec::new();
                let mut total = 0.0f64;
                for w in outcome.solution().winners() {
                    if w.bid_ref.client.0 == client {
                        total += w.payment;
                        entries.push(json::object(&[
                            ("bid".into(), w.bid_ref.bid.to_string()),
                            ("payment".into(), json::number(w.payment)),
                        ]));
                    }
                }
                Ok(json::object(&[
                    ("ok".into(), "true".into()),
                    ("status".into(), json::string("committed")),
                    ("client".into(), client.to_string()),
                    ("total".into(), json::number(total)),
                    ("payments".into(), json::array(&entries)),
                ]))
            }
            SessionState::Closed(CloseResult::Aborted(reason)) => Ok(json::object(&[
                ("ok".into(), "true".into()),
                ("status".into(), json::string("aborted")),
                ("reason".into(), json::string(reason)),
            ])),
            SessionState::Closing(_) => {
                Err(ServiceError::new(ErrCode::Backlog, "close in progress").into())
            }
            SessionState::Collecting => Err(conflict("session not closed").into()),
        }
    }

    fn try_reserve_close_slot(&self) -> bool {
        self.inflight_close
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.limits.max_inflight_close).then_some(n + 1)
            })
            .is_ok()
    }

    fn release_close_slot(&self) {
        self.inflight_close.fetch_sub(1, Ordering::SeqCst);
    }

    /// Rejects every mutation once an append has failed: the journal is
    /// poisoned and only a restart (recovery from the file) can tell
    /// which records reached the disk.
    fn writable(&self) -> Result<(), ServiceError> {
        if self.poisoned() {
            return Err(ServiceError::new(
                ErrCode::Internal,
                "journal is poisoned; restart the daemon to recover",
            ));
        }
        Ok(())
    }

    /// The gate in front of every session mutation, in order: an
    /// exact-seq retry of a journaled ack replays it (`Some`, whatever
    /// the state, poisoned or not); a poisoned journal refuses; a closing
    /// session answers `closing` (`backlog` for a close, whose retry will
    /// replay the commit); a closed session or a stale seq is a conflict.
    fn admit(
        &self,
        inner: &Inner,
        session: &str,
        seq: u64,
        closing: ErrCode,
    ) -> Result<Option<String>, ServiceError> {
        let s = known_session(inner, session)?;
        if seq == s.last_seq && s.last_resp.is_some() {
            return Ok(s.last_resp.clone());
        }
        self.writable()?;
        match &s.state {
            SessionState::Collecting if seq > s.last_seq => Ok(None),
            SessionState::Collecting => Err(conflict(&format!(
                "stale seq {seq} (last applied {})",
                s.last_seq
            ))),
            SessionState::Closing(_) => Err(ServiceError::new(closing, "close in progress")),
            SessionState::Closed(_) => Err(conflict("session already closed")),
        }
    }

    /// One session mutation short of a close: [`admit`](Self::admit),
    /// then `validate` — side-effect free, it returns the record to
    /// journal — then [`commit`](Self::commit).
    fn mutate(
        &self,
        session: &str,
        seq: u64,
        trace: &str,
        validate: impl FnOnce(&Session) -> Result<Record, ServiceError>,
    ) -> Result<String, Failure> {
        let mut inner = lock(&self.inner);
        if let Some(resp) = self.admit(&inner, session, seq, ErrCode::Conflict)? {
            return Ok(resp);
        }
        let rec = validate(&inner.sessions[session])?;
        self.commit(&mut inner, &rec, trace)
    }

    /// Journals `rec`, then applies it: the step every live mutation
    /// shares. Replies only once the record is durable.
    fn commit(&self, inner: &mut Inner, rec: &Record, trace: &str) -> Result<String, Failure> {
        self.journal_append(rec, trace)?;
        apply_journaled(inner, rec)
    }

    /// Commits an epoch's decision — the last step of a live close and
    /// of a close recovery re-solves. The append runs outside the
    /// session lock, like the solve before it.
    fn commit_close(
        &self,
        session: &str,
        result: CloseResult,
        trace: &str,
    ) -> Result<String, Failure> {
        let rec = Record::CloseCommit {
            session: session.into(),
            result,
        };
        self.journal_append(&rec, trace)?;
        apply_journaled(&mut lock(&self.inner), &rec)
    }

    fn journal_append(&self, rec: &Record, trace: &str) -> Result<(), Failure> {
        let started = Instant::now();
        let mut journal = lock(&self.journal);
        let out = journal.append_with_trace(rec, (!trace.is_empty()).then_some(trace));
        self.live
            .sample("service.journal.append_ms", ms_since(started));
        match out {
            Ok(()) => Ok(()),
            Err(e) if is_injected_crash(&e) => {
                self.crashed.store(true, Ordering::SeqCst);
                Err(Failure::Crash)
            }
            Err(e) => {
                self.poisoned.store(true, Ordering::SeqCst);
                Err(
                    ServiceError::new(ErrCode::Internal, format!("journal append failed: {e}"))
                        .into(),
                )
            }
        }
    }

    /// Rebuilds in-memory state from journal records (no re-journaling)
    /// through the same [`Inner::apply`] the live handlers use. Each
    /// record is dropped once applied, so the journal's copy and the
    /// rebuilt state do not both stay resident.
    fn replay(&self, records: Vec<Record>, report: &mut RecoveryReport) {
        let mut inner = lock(&self.inner);
        for rec in records {
            match inner.apply(&rec) {
                Ok(_) => {
                    if let Record::CloseCommit {
                        result: CloseResult::Aborted(_),
                        ..
                    } = rec
                    {
                        report.aborted += 1;
                    }
                }
                Err(_) => report.anomalies += 1,
            }
        }
    }

    /// Re-solves epochs whose `close_begin` never committed. The solve
    /// is deterministic on the journaled bid set, so the outcome is
    /// bit-identical to what the dead process would have produced.
    fn finish_pending_closes(&self, report: &mut RecoveryReport) {
        let pending: Vec<(String, CloseWork)> = {
            let inner = lock(&self.inner);
            inner
                .sessions
                .iter()
                .filter(|(_, s)| matches!(s.state, SessionState::Closing(_)))
                .map(|(id, s)| (id.clone(), CloseWork::of(s)))
                .collect()
        };
        for (id, work) in pending {
            let result = work.resolve();
            let aborted = matches!(result, CloseResult::Aborted(_));
            if self.commit_close(&id, result, "recovery").is_err() {
                // Crashed again (nested crash point) or journal broke:
                // leave the session Closing; the next recovery retries.
                return;
            }
            report.replayed_closes += 1;
            if aborted {
                report.aborted += 1;
            }
        }
    }

    /// The core's [`Digest`].
    pub fn digest(&self) -> Digest {
        let inner = lock(&self.inner);
        Digest {
            closed: inner.closed,
            sessions: inner
                .sessions
                .iter()
                .map(|(id, s)| (id.clone(), s.digest()))
                .collect(),
        }
    }

    /// Checks that memory equals a replay of the journal: recovers a
    /// fresh core from a copy of the journal file placed in `scratch`
    /// and compares [`digest`](Self::digest)s. Meant for a quiescent
    /// core with no close pending (recovery would finish it).
    ///
    /// # Errors
    ///
    /// Names the first session whose digests differ, or the I/O failure.
    pub fn audit(&self, scratch: &Path) -> Result<(), String> {
        let copy = scratch.join("audit-wal.jsonl");
        std::fs::copy(lock(&self.journal).path(), &copy)
            .map_err(|e| format!("copy journal for audit: {e}"))?;
        let replayed = ServerCore::recover(&copy, Durability::Strict, None, self.limits);
        let _ = std::fs::remove_file(&copy);
        let replayed = replayed
            .map_err(|e| format!("recover journal copy: {e}"))?
            .0;
        let (live, replayed) = (self.digest(), replayed.digest());
        let differs = live
            .sessions
            .iter()
            .find(|&(id, d)| replayed.sessions.get(id) != Some(d));
        match differs {
            None if live == replayed => Ok(()),
            _ => Err(format!(
                "memory is not a replay of the journal: {differs:?} (closed {} vs {})",
                live.closed, replayed.closed
            )),
        }
    }
}

/// Applies a record the journal already holds, for a reply.
fn apply_journaled(inner: &mut Inner, rec: &Record) -> Result<String, Failure> {
    match inner.apply(rec) {
        Ok(resp) => Ok(resp.unwrap_or_default()),
        // Validation missed what apply refuses: the record is journaled
        // but changes nothing, here and in every replay.
        Err(e) => Err(ServiceError::new(
            ErrCode::Internal,
            format!(
                "journaled {} record did not apply: {e}",
                rec.kind().as_str()
            ),
        )
        .into()),
    }
}

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

fn solve(instance: &Instance) -> CloseResult {
    match run_auction(instance) {
        Ok(outcome) => CloseResult::Committed(outcome),
        Err(AuctionError::Infeasible) => CloseResult::Aborted("infeasible".into()),
        Err(e) => CloseResult::Aborted(format!("solver failed: {e}")),
    }
}

fn conflict(detail: &str) -> ServiceError {
    ServiceError::new(ErrCode::Conflict, detail)
}

fn bad_request(e: impl std::fmt::Display) -> ServiceError {
    ServiceError::new(ErrCode::BadRequest, e.to_string())
}

fn unknown_session(session: &str) -> ServiceError {
    ServiceError::new(ErrCode::UnknownSession, format!("no session {session:?}"))
}

fn known_session<'a>(inner: &'a Inner, session: &str) -> Result<&'a Session, ServiceError> {
    inner
        .sessions
        .get(session)
        .ok_or_else(|| unknown_session(session))
}

fn to_bid(price: f64, theta: f64, a: u32, d: u32, c: u32) -> Result<Bid, ServiceError> {
    Bid::new(price, theta, Window::new(Round(a), Round(d)), c).map_err(bad_request)
}

fn ok_only() -> String {
    json::object(&[("ok".into(), "true".into())])
}

fn open_resp(session: &str) -> String {
    json::object(&[
        ("ok".into(), "true".into()),
        ("session".into(), json::string(session)),
    ])
}

fn client_resp(idx: u32) -> String {
    json::object(&[
        ("ok".into(), "true".into()),
        ("client".into(), idx.to_string()),
    ])
}

fn bid_resp(idx: u32, duplicate: bool) -> String {
    let mut members = vec![
        ("ok".into(), "true".into()),
        ("bid".into(), idx.to_string()),
    ];
    if duplicate {
        members.push(("duplicate".into(), "true".into()));
    }
    json::object(&members)
}

/// The `submit` response: the irrevocable on-arrival verdict.
fn submit_resp(d: &OnlineDecision) -> String {
    let rounds: Vec<String> = d.schedule.iter().map(|r| r.0.to_string()).collect();
    json::object(&[
        ("ok".into(), "true".into()),
        ("bid".into(), d.bid_ref.bid.to_string()),
        ("committed".into(), d.committed.to_string()),
        ("reason".into(), json::string(d.reason.as_str())),
        ("payment".into(), json::number(d.payment)),
        ("rounds".into(), json::array(&rounds)),
        ("duplicate".into(), d.duplicate.to_string()),
    ])
}

/// The close/outcome response: the committed outcome in the lossless
/// `fl_auction::serial` encoding, or the explicit abort.
fn close_resp(result: &CloseResult) -> String {
    match result {
        CloseResult::Committed(outcome) => json::object(&[
            ("ok".into(), "true".into()),
            ("status".into(), json::string("committed")),
            ("outcome".into(), serial::outcome_to_json(outcome)),
        ]),
        CloseResult::Aborted(reason) => json::object(&[
            ("ok".into(), "true".into()),
            ("status".into(), json::string("aborted")),
            ("reason".into(), json::string(reason)),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use fl_telemetry::json::Json;

    fn core(dir: &TempDir, limits: Limits) -> ServerCore {
        ServerCore::recover(
            &dir.path().join("wal.jsonl"),
            Durability::Strict,
            None,
            limits,
        )
        .unwrap()
        .0
    }

    fn reply(core: &ServerCore, req: &str) -> Json {
        match core.handle(req) {
            HandleResult::Reply(text) => json::parse(&text).unwrap(),
            other => panic!("expected reply, got {other:?}"),
        }
    }

    fn ok(doc: &Json) -> bool {
        doc.get("ok").and_then(Json::as_bool) == Some(true)
    }

    fn drive_session(core: &ServerCore) -> String {
        let open = reply(core, r#"{"op":"open","nonce":1,"t":6,"k":2,"t_max":60}"#);
        assert!(ok(&open), "{open:?}");
        let sid = open
            .get("session")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        let mut seq = 0u64;
        for i in 0..4 {
            seq += 1;
            let r = reply(
                core,
                &format!(r#"{{"op":"client","session":"{sid}","seq":{seq},"t_cmp":2,"t_com":5}}"#),
            );
            assert!(ok(&r), "{r:?}");
            seq += 1;
            let r = reply(
                core,
                &format!(
                    r#"{{"op":"bid","session":"{sid}","seq":{seq},"client":{i},"price":{},"theta":0.55,"a":1,"d":6,"c":6}}"#,
                    2.0 + i as f64
                ),
            );
            assert!(ok(&r), "{r:?}");
        }
        sid
    }

    #[test]
    fn lifecycle_and_idempotent_replay() {
        let dir = TempDir::new("core-lifecycle");
        let core = core(&dir, Limits::default());
        let sid = drive_session(&core);

        // Duplicate bid seq replays the stored response, applying nothing.
        let dup = reply(
            &core,
            &format!(
                r#"{{"op":"bid","session":"{sid}","seq":8,"client":3,"price":5,"theta":0.55,"a":1,"d":6,"c":6}}"#
            ),
        );
        assert_eq!(dup.get("bid").and_then(Json::as_u64), Some(0));

        // Stale seq is a fatal conflict.
        let stale = reply(
            &core,
            &format!(r#"{{"op":"client","session":"{sid}","seq":3,"t_cmp":2,"t_com":5}}"#),
        );
        assert_eq!(stale.get("code").and_then(Json::as_str), Some("conflict"));

        let close = reply(
            &core,
            &format!(r#"{{"op":"close","session":"{sid}","seq":9}}"#),
        );
        assert_eq!(
            close.get("status").and_then(Json::as_str),
            Some("committed")
        );
        // Close replay and the outcome query return the same decision.
        // Each request carries its own server-assigned trace, so compare
        // with the trace member stripped.
        let sans_trace = |doc: &Json| match doc {
            Json::Obj(members) => format!(
                "{:?}",
                members
                    .iter()
                    .filter(|(k, _)| k != "trace")
                    .collect::<Vec<_>>()
            ),
            other => format!("{other:?}"),
        };
        let again = reply(
            &core,
            &format!(r#"{{"op":"close","session":"{sid}","seq":9}}"#),
        );
        assert_eq!(sans_trace(&close), sans_trace(&again));
        let queried = reply(&core, &format!(r#"{{"op":"outcome","session":"{sid}"}}"#));
        assert_eq!(sans_trace(&close), sans_trace(&queried));

        // Mutations after close are conflicts.
        let late = reply(
            &core,
            &format!(
                r#"{{"op":"bid","session":"{sid}","seq":10,"client":0,"price":5,"theta":0.55,"a":1,"d":6,"c":6}}"#
            ),
        );
        assert_eq!(late.get("code").and_then(Json::as_str), Some("conflict"));
    }

    #[test]
    fn open_is_idempotent_by_nonce() {
        let dir = TempDir::new("core-nonce");
        let core = core(&dir, Limits::default());
        let a = reply(&core, r#"{"op":"open","nonce":77,"t":6,"k":2,"t_max":60}"#);
        let b = reply(&core, r#"{"op":"open","nonce":77,"t":6,"k":2,"t_max":60}"#);
        assert_eq!(
            a.get("session").and_then(Json::as_str),
            b.get("session").and_then(Json::as_str)
        );
        let c = reply(&core, r#"{"op":"open","nonce":78,"t":6,"k":2,"t_max":60}"#);
        assert_ne!(
            a.get("session").and_then(Json::as_str),
            c.get("session").and_then(Json::as_str)
        );
    }

    #[test]
    fn capacity_limits_shed_with_retryable_codes() {
        let dir = TempDir::new("core-capacity");
        let core = core(
            &dir,
            Limits {
                max_sessions: 1,
                max_inflight_close: 0,
            },
        );
        assert!(ok(&reply(
            &core,
            r#"{"op":"open","nonce":1,"t":6,"k":2,"t_max":60}"#
        )));
        let shed = reply(&core, r#"{"op":"open","nonce":2,"t":6,"k":2,"t_max":60}"#);
        assert_eq!(shed.get("code").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(shed.get("retryable").and_then(Json::as_bool), Some(true));

        // Zero close slots: every close is backlogged (and retryable).
        let backlog = reply(&core, r#"{"op":"close","session":"s-1","seq":1}"#);
        assert_eq!(backlog.get("code").and_then(Json::as_str), Some("backlog"));
        assert_eq!(backlog.get("retryable").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn recovery_without_close_rebuilds_collecting_sessions() {
        let dir = TempDir::new("core-reopen");
        let path = dir.path().join("wal.jsonl");
        let sid;
        {
            let (core, _) =
                ServerCore::recover(&path, Durability::Strict, None, Limits::default()).unwrap();
            sid = drive_session(&core);
        }
        let (core, report) =
            ServerCore::recover(&path, Durability::Strict, None, Limits::default()).unwrap();
        assert_eq!(report.sessions, 1);
        assert_eq!(report.anomalies, 0);
        // The rebuilt session accepts the close and commits.
        let close = reply(
            &core,
            &format!(r#"{{"op":"close","session":"{sid}","seq":9}}"#),
        );
        assert_eq!(
            close.get("status").and_then(Json::as_str),
            Some("committed")
        );
    }

    fn submit_frame(
        sid: &str,
        seq: u64,
        client: u32,
        price: f64,
        a: u32,
        d: u32,
        c: u32,
    ) -> String {
        format!(
            r#"{{"op":"submit","session":"{sid}","seq":{seq},"client":{client},"price":{price},"theta":0.55,"a":{a},"d":{d},"c":{c}}}"#
        )
    }

    /// Drives a streaming session: K = 1, T = 4, B = 40 → π = 10/round.
    fn drive_streaming(core: &ServerCore) -> String {
        let open = reply(
            core,
            r#"{"op":"open","nonce":5,"t":4,"k":1,"t_max":60,"budget":40}"#,
        );
        assert!(ok(&open), "{open:?}");
        let sid = open
            .get("session")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        let r = reply(
            core,
            &format!(r#"{{"op":"client","session":"{sid}","seq":1,"t_cmp":2,"t_com":5}}"#),
        );
        assert!(ok(&r), "{r:?}");
        sid
    }

    #[test]
    fn streaming_session_decides_on_arrival_and_closes_with_the_committed_set() {
        let dir = TempDir::new("core-streaming");
        let core = core(&dir, Limits::default());
        let sid = drive_streaming(&core);

        // Fits the posted offer (4 rounds x pi = 40 >= 25): committed.
        let d1 = reply(&core, &submit_frame(&sid, 2, 0, 25.0, 1, 4, 4));
        assert_eq!(d1.get("committed").and_then(Json::as_bool), Some(true));
        assert_eq!(d1.get("reason").and_then(Json::as_str), Some("committed"));
        assert_eq!(d1.get("payment").and_then(Json::as_f64), Some(40.0));

        // Coverage is saturated: rejected, and the decision is explicit.
        let d2 = reply(&core, &submit_frame(&sid, 3, 0, 1.0, 1, 4, 4));
        assert_eq!(d2.get("committed").and_then(Json::as_bool), Some(false));
        assert_eq!(d2.get("reason").and_then(Json::as_str), Some("no_capacity"));

        // An identical re-submission under a NEW seq is a duplicate:
        // replays the original verdict, moves nothing.
        let dup = reply(&core, &submit_frame(&sid, 4, 0, 25.0, 1, 4, 4));
        assert_eq!(dup.get("committed").and_then(Json::as_bool), Some(true));
        assert_eq!(dup.get("duplicate").and_then(Json::as_bool), Some(true));
        assert_eq!(dup.get("payment").and_then(Json::as_f64), Some(40.0));

        // The batch op on a streaming session is a conflict, not a panic.
        let wrong = reply(
            &core,
            &format!(
                r#"{{"op":"bid","session":"{sid}","seq":5,"client":0,"price":1,"theta":0.55,"a":1,"d":4,"c":1}}"#
            ),
        );
        assert_eq!(wrong.get("code").and_then(Json::as_str), Some("conflict"));

        // Close commits exactly the on-arrival committed set.
        let close = reply(
            &core,
            &format!(r#"{{"op":"close","session":"{sid}","seq":6}}"#),
        );
        assert_eq!(
            close.get("status").and_then(Json::as_str),
            Some("committed")
        );
        let outcome = close.get("outcome").expect("committed close has outcome");
        let back = serial::outcome_from_value(outcome).unwrap();
        assert_eq!(back.solution().winners().len(), 1);
        assert!((back.solution().winners()[0].payment - 40.0).abs() < 1e-12);
    }

    #[test]
    fn submit_on_a_batch_session_is_a_conflict() {
        let dir = TempDir::new("core-submit-batch");
        let core = core(&dir, Limits::default());
        let sid = drive_session(&core);
        let wrong = reply(&core, &submit_frame(&sid, 9, 0, 1.0, 1, 6, 1));
        assert_eq!(wrong.get("code").and_then(Json::as_str), Some("conflict"));
    }

    #[test]
    fn streaming_recovery_replays_decisions_bit_identically() {
        let dir = TempDir::new("core-streaming-recover");
        let path = dir.path().join("wal.jsonl");
        let sid;
        let d2;
        {
            let (core, _) =
                ServerCore::recover(&path, Durability::Strict, None, Limits::default()).unwrap();
            sid = drive_streaming(&core);
            let d1 = reply(&core, &submit_frame(&sid, 2, 0, 25.0, 1, 4, 4));
            assert_eq!(d1.get("committed").and_then(Json::as_bool), Some(true));
            d2 = reply(&core, &submit_frame(&sid, 3, 0, 1.0, 1, 4, 4));
        }
        let (core, report) =
            ServerCore::recover(&path, Durability::Strict, None, Limits::default()).unwrap();
        assert_eq!(report.sessions, 1);
        assert_eq!(report.anomalies, 0, "re-derived decisions must match");
        // Replayed idempotency: retrying the last journaled seq returns
        // the stored verdict (modulo per-request trace ids).
        let strip = |doc: &Json| match doc {
            Json::Obj(members) => format!(
                "{:?}",
                members
                    .iter()
                    .filter(|(k, _)| k != "trace" && k != "id")
                    .collect::<Vec<_>>()
            ),
            other => format!("{other:?}"),
        };
        let r2 = reply(&core, &submit_frame(&sid, 3, 0, 1.0, 1, 4, 4));
        assert_eq!(strip(&d2), strip(&r2));
        // The stream continues where it left off.
        let d3 = reply(&core, &submit_frame(&sid, 4, 0, 2.0, 1, 4, 1));
        assert_eq!(d3.get("reason").and_then(Json::as_str), Some("no_capacity"));
    }

    #[test]
    fn crash_on_a_decision_record_recovers_without_the_lost_arrival() {
        use crate::faults::FaultPlan;
        let dir = TempDir::new("core-decision-crash");
        let path = dir.path().join("wal.jsonl");
        let sid;
        {
            let plan = FaultPlan::parse("crash=decision:2:0.5").unwrap();
            let (core, _) =
                ServerCore::recover(&path, Durability::Strict, Some(plan), Limits::default())
                    .unwrap();
            sid = drive_streaming(&core);
            let d1 = reply(&core, &submit_frame(&sid, 2, 0, 25.0, 1, 4, 4));
            assert_eq!(d1.get("committed").and_then(Json::as_bool), Some(true));
            // The second decision dies mid-append: no ack, core dead.
            match core.handle(&submit_frame(&sid, 3, 0, 1.0, 1, 4, 4)) {
                HandleResult::Crashed => {}
                other => panic!("expected crash, got {other:?}"),
            }
            assert!(core.crashed());
        }
        let (core, report) =
            ServerCore::recover(&path, Durability::Strict, None, Limits::default()).unwrap();
        assert_eq!(report.anomalies, 0);
        // The first (acknowledged) decision survived; the torn second one
        // was truncated away, so its seq applies fresh — with the same
        // deterministic verdict the dead daemon would have taken.
        assert!(report.truncated_bytes > 0);
        let d2 = reply(&core, &submit_frame(&sid, 3, 0, 1.0, 1, 4, 4));
        assert_eq!(d2.get("committed").and_then(Json::as_bool), Some(false));
        assert_eq!(d2.get("reason").and_then(Json::as_str), Some("no_capacity"));
    }

    #[test]
    fn duplicate_batch_bids_are_idempotent_under_fresh_seqs() {
        let dir = TempDir::new("core-dup-bid");
        let core = core(&dir, Limits::default());
        let open = reply(&core, r#"{"op":"open","nonce":1,"t":6,"k":1,"t_max":60}"#);
        let sid = open
            .get("session")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        reply(
            &core,
            &format!(r#"{{"op":"client","session":"{sid}","seq":1,"t_cmp":2,"t_com":5}}"#),
        );
        let bid_frame = |seq: u64, price: f64| {
            format!(
                r#"{{"op":"bid","session":"{sid}","seq":{seq},"client":0,"price":{price},"theta":0.55,"a":1,"d":6,"c":6}}"#
            )
        };
        let first = reply(&core, &bid_frame(2, 3.0));
        assert_eq!(first.get("bid").and_then(Json::as_u64), Some(0));
        assert_eq!(first.get("duplicate"), None);
        // Same bid, fresh seq: replays index 0 instead of double-adding.
        let dup = reply(&core, &bid_frame(3, 3.0));
        assert_eq!(dup.get("bid").and_then(Json::as_u64), Some(0));
        assert_eq!(dup.get("duplicate").and_then(Json::as_bool), Some(true));
        // A different price is a genuinely new bid.
        let fresh = reply(&core, &bid_frame(4, 4.0));
        assert_eq!(fresh.get("bid").and_then(Json::as_u64), Some(1));
        // The instance holds exactly two bids: the close sees no phantom.
        let close = reply(
            &core,
            &format!(r#"{{"op":"close","session":"{sid}","seq":5}}"#),
        );
        assert_eq!(
            close.get("status").and_then(Json::as_str),
            Some("committed")
        );
        // Every fresh seq journaled one record, the duplicate included,
        // and memory is exactly a replay of that journal.
        let bytes = std::fs::read(dir.path().join("wal.jsonl")).unwrap();
        let bids = crate::journal::scan_bytes(&bytes)
            .records
            .iter()
            .filter(|r| matches!(r, Record::Bid { .. }))
            .count();
        assert_eq!(bids, 3);
        core.audit(dir.path()).unwrap();
    }

    fn code(doc: &Json) -> Option<&str> {
        doc.get("code").and_then(Json::as_str)
    }

    /// The `jam` regression harness. Every frame of `acked` succeeds;
    /// then `jammed` meets a failed append and answers `internal`, and so
    /// does its identical retry — never `ok`. The poisoned core still
    /// answers reads and the exact-seq replay of its last ack. A core
    /// recovered from the file must equal a fault-free core fed exactly
    /// the acknowledged frames — plus the jammed close when its
    /// `close_begin` intent was journaled, which recovery finishes.
    fn jam_case(jam: &str, acked: &[String], jammed: &str, intent_journaled: bool) {
        let dir = TempDir::new("core-jam");
        let path = dir.path().join("wal.jsonl");
        {
            let plan = FaultPlan::parse(jam).unwrap();
            let (core, _) =
                ServerCore::recover(&path, Durability::Strict, Some(plan), Limits::default())
                    .unwrap();
            for frame in acked {
                assert!(ok(&reply(&core, frame)), "{jam}: {frame}");
            }
            for attempt in ["first", "retry"] {
                let r = reply(&core, jammed);
                assert_eq!(code(&r), Some("internal"), "{jam} {attempt}: {r:?}");
            }
            assert!(core.poisoned());
            let health = reply(&core, &wire::request_to_json(1, &Request::Health));
            assert_eq!(
                health.get("status").and_then(Json::as_str),
                Some("poisoned")
            );
            let last = acked.last().unwrap();
            assert!(ok(&reply(&core, last)), "{jam}: replay of {last}");
            let read = reply(&core, r#"{"op":"outcome","session":"s-1"}"#);
            assert_ne!(code(&read), Some("internal"), "{jam}: reads keep working");
        }
        let (recovered, report) =
            ServerCore::recover(&path, Durability::Strict, None, Limits::default()).unwrap();
        assert_eq!(report.anomalies, 0);
        let reference_dir = TempDir::new("core-jam-reference");
        let reference = core(&reference_dir, Limits::default());
        let expected = acked.iter().map(String::as_str);
        for frame in expected.chain(intent_journaled.then_some(jammed)) {
            assert!(ok(&reply(&reference, frame)), "{frame}");
        }
        assert_eq!(recovered.digest(), reference.digest(), "{jam}");
    }

    const OPEN: &str = r#"{"op":"open","nonce":1,"t":6,"k":1,"t_max":60}"#;
    const CLIENT: &str = r#"{"op":"client","session":"s-1","seq":1,"t_cmp":2,"t_com":5}"#;
    const BID: &str = r#"{"op":"bid","session":"s-1","seq":2,"client":0,"price":3,"theta":0.55,"a":1,"d":6,"c":6}"#;
    const CLOSE: &str = r#"{"op":"close","session":"s-1","seq":3}"#;

    #[test]
    fn jammed_bid_is_never_acknowledged() {
        // The retry must not pass for a duplicate of a bid the journal
        // never saw.
        jam_case("jam=bid:1", &[OPEN.into(), CLIENT.into()], BID, false);
    }

    #[test]
    fn jammed_client_is_never_acknowledged() {
        jam_case("jam=client:1", &[OPEN.into()], CLIENT, false);
    }

    #[test]
    fn jammed_submit_is_never_acknowledged() {
        let open = r#"{"op":"open","nonce":5,"t":4,"k":1,"t_max":60,"budget":40}"#;
        jam_case(
            "jam=decision:1",
            &[open.into(), CLIENT.into()],
            &submit_frame("s-1", 2, 0, 25.0, 1, 4, 4),
            false,
        );
    }

    #[test]
    fn jammed_close_is_never_acknowledged() {
        let acked = [OPEN.into(), CLIENT.into(), BID.into()];
        jam_case("jam=close_begin:1", &acked, CLOSE, false);
        // The intent is durable, so recovery finishes the close; until
        // then the retry answers `internal`, not `backlog`.
        jam_case("jam=close_commit:1", &acked, CLOSE, true);
    }

    #[test]
    fn records_that_contradict_their_session_are_anomalies() {
        let dir = TempDir::new("core-anomalies");
        let path = dir.path().join("wal.jsonl");
        let (mut journal, _) = Journal::open(&path, Durability::Strict, None, None).unwrap();
        let session = || "s-1".to_string();
        for rec in [
            Record::Open {
                session: session(),
                params: OpenParams::new(1, 6, 1, 60.0),
            },
            Record::Client {
                session: session(),
                seq: 2,
                t_cmp: 2.0,
                t_com: 5.0,
            },
            // Stale seq, a commit with no begin, an unknown session.
            Record::Client {
                session: session(),
                seq: 2,
                t_cmp: 2.0,
                t_com: 5.0,
            },
            Record::CloseCommit {
                session: session(),
                result: CloseResult::Aborted("infeasible".into()),
            },
            Record::CloseBegin {
                session: "s-9".into(),
                seq: 1,
            },
        ] {
            journal.append(&rec).unwrap();
        }
        drop(journal);
        let (core, report) =
            ServerCore::recover(&path, Durability::Strict, None, Limits::default()).unwrap();
        assert_eq!(report.anomalies, 3);
        let r = reply(
            &core,
            r#"{"op":"client","session":"s-1","seq":3,"t_cmp":2,"t_com":5}"#,
        );
        assert_eq!(r.get("client").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn infeasible_close_aborts_explicitly() {
        let dir = TempDir::new("core-infeasible");
        let core = core(&dir, Limits::default());
        let open = reply(&core, r#"{"op":"open","nonce":1,"t":6,"k":5,"t_max":60}"#);
        let sid = open
            .get("session")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        // One client cannot satisfy K=5.
        reply(
            &core,
            &format!(r#"{{"op":"client","session":"{sid}","seq":1,"t_cmp":2,"t_com":5}}"#),
        );
        reply(
            &core,
            &format!(
                r#"{{"op":"bid","session":"{sid}","seq":2,"client":0,"price":2,"theta":0.55,"a":1,"d":6,"c":6}}"#
            ),
        );
        let close = reply(
            &core,
            &format!(r#"{{"op":"close","session":"{sid}","seq":3}}"#),
        );
        assert_eq!(close.get("status").and_then(Json::as_str), Some("aborted"));
        assert_eq!(
            close.get("reason").and_then(Json::as_str),
            Some("infeasible")
        );
        // Payments on an aborted epoch are explicit about it.
        let pay = reply(
            &core,
            &format!(r#"{{"op":"payment","session":"{sid}","client":0}}"#),
        );
        assert_eq!(pay.get("status").and_then(Json::as_str), Some("aborted"));
    }
}
