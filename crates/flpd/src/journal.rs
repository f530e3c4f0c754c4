//! The write-ahead session journal.
//!
//! Every state change the daemon acknowledges is first appended here as
//! one framed JSON record (`fl_telemetry::frame`), so a `kill -9` at any
//! instant loses at most the *unacknowledged* tail: on restart the file
//! is scanned, a torn final record (the signature of a crash mid-append)
//! is truncated away, and the surviving records replay deterministically
//! into the exact session state the daemon had acknowledged.
//!
//! Record stream grammar (per session):
//!
//! ```text
//! batch:     open → (client | bid)* → close_begin → close_commit
//! streaming: open(budget) → (client | decision)* → close_begin → close_commit
//! ```
//!
//! Every record but `open` and `close_commit` carries the `seq` of the
//! request it acknowledges, and every fresh seq writes exactly one
//! record: an identical bid resubmitted under a new seq is journaled
//! again and applies as a duplicate (a `bid` record whose fingerprint
//! was already seen, or a `decision` with `duplicate: true`). The daemon
//! appends a record *before* applying it, and recovery replays the file
//! through the same apply, so memory is always a replay of the journal.
//!
//! A streaming session (opened with a budget) journals one `decision`
//! record per arriving bid *including the irrevocable commit/reject
//! verdict and payment*: applying the record re-derives the verdict with
//! the same deterministic online rule and refuses one that differs by a
//! bit, so a replayed daemon can never silently re-decide an
//! already-acknowledged arrival.
//!
//! `close_begin` is the intent marker: a journal that ends after a
//! `close_begin` with no matching `close_commit` means the daemon died
//! mid-solve — recovery re-runs the auction on the journaled bid set,
//! which is deterministic, so the re-derived outcome is bit-identical to
//! what the dead daemon would have committed.
//!
//! The crash-injection seam lives here too: a [`CrashPoint`] makes
//! `append` physically write only a prefix of one chosen record and then
//! poison the journal, which is byte-for-byte what a real crash mid-
//! `write(2)` leaves on disk.

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use fl_auction::{serial, AuctionOutcome};
use fl_telemetry::frame::{self, FrameError};
use fl_telemetry::json::{self, Json};

use crate::wire::OpenParams;

/// Size cap for one journal record (outcomes scale with winner count).
pub const MAX_RECORD: usize = 4 << 20;

/// How eagerly the journal reaches the platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// fsync after every record: an acknowledged mutation is never lost.
    /// This is the default and the only mode the chaos matrix certifies.
    Strict,
    /// fsync only at epoch boundaries (`close_begin`/`close_commit`);
    /// acknowledged bids between boundaries can be lost to a crash.
    /// Exists to measure the cost of `Strict` under load, not for
    /// production use.
    EpochOnly,
}

/// How an epoch ended.
#[derive(Debug, Clone, PartialEq)]
pub enum CloseResult {
    /// The auction solved; the full outcome (winners, payments,
    /// certificate) is committed.
    Committed(AuctionOutcome),
    /// The epoch ended without an outcome (infeasible instance, solver
    /// failure); the reason is recorded so the abort is explicit, never
    /// silent.
    Aborted(String),
}

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A session was created.
    Open {
        /// Session handle.
        session: String,
        /// The session's auction parameters (including the idempotency
        /// nonce).
        params: OpenParams,
    },
    /// A client profile was accepted.
    Client {
        /// Session handle.
        session: String,
        /// Sequence number the acknowledgement carried.
        seq: u64,
        /// Per-round computation time.
        t_cmp: f64,
        /// Per-round communication time.
        t_com: f64,
    },
    /// A bid was accepted.
    Bid {
        /// Session handle.
        session: String,
        /// Sequence number the acknowledgement carried.
        seq: u64,
        /// Owning client index.
        client: u32,
        /// Claimed cost.
        price: f64,
        /// Local accuracy.
        theta: f64,
        /// Window start round.
        a: u32,
        /// Window end round.
        d: u32,
        /// Participation round budget.
        c: u32,
    },
    /// A streaming bid arrived and its irrevocable on-arrival verdict
    /// was taken (online sessions only). The verdict fields are stored
    /// alongside the bid so recovery can re-derive the decision and
    /// prove it bit-identical before trusting the rebuilt state.
    Decision {
        /// Session handle.
        session: String,
        /// Sequence number the acknowledgement carried.
        seq: u64,
        /// Owning client index.
        client: u32,
        /// Claimed cost.
        price: f64,
        /// Local accuracy.
        theta: f64,
        /// Window start round.
        a: u32,
        /// Window end round.
        d: u32,
        /// Participation round budget.
        c: u32,
        /// Whether the bid was committed.
        committed: bool,
        /// The posted offer paid on commit (`0.0` on rejection).
        payment: f64,
        /// The decision reason (`fl_auction::DecisionReason` spelling).
        reason: String,
        /// Whether this submission duplicated an earlier identical bid
        /// and replayed its original decision.
        duplicate: bool,
    },
    /// The daemon is about to solve the epoch.
    CloseBegin {
        /// Session handle.
        session: String,
        /// Sequence number of the close request.
        seq: u64,
    },
    /// The epoch decision is final.
    CloseCommit {
        /// Session handle.
        session: String,
        /// Outcome or explicit abort.
        result: CloseResult,
    },
}

/// The record's kind, used by [`CrashPoint`] targeting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// `open` record.
    Open,
    /// `client` record.
    Client,
    /// `bid` record.
    Bid,
    /// `decision` record.
    Decision,
    /// `close_begin` record.
    CloseBegin,
    /// `close_commit` record.
    CloseCommit,
}

impl RecordKind {
    /// Wire/journal spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            RecordKind::Open => "open",
            RecordKind::Client => "client",
            RecordKind::Bid => "bid",
            RecordKind::Decision => "decision",
            RecordKind::CloseBegin => "close_begin",
            RecordKind::CloseCommit => "close_commit",
        }
    }

    /// Parses the spelling back.
    pub fn parse_str(s: &str) -> Option<RecordKind> {
        Some(match s {
            "open" => RecordKind::Open,
            "client" => RecordKind::Client,
            "bid" => RecordKind::Bid,
            "decision" => RecordKind::Decision,
            "close_begin" => RecordKind::CloseBegin,
            "close_commit" => RecordKind::CloseCommit,
            _ => return None,
        })
    }

    fn index(self) -> usize {
        match self {
            RecordKind::Open => 0,
            RecordKind::Client => 1,
            RecordKind::Bid => 2,
            RecordKind::Decision => 3,
            RecordKind::CloseBegin => 4,
            RecordKind::CloseCommit => 5,
        }
    }
}

impl Record {
    /// The record's kind.
    pub fn kind(&self) -> RecordKind {
        match self {
            Record::Open { .. } => RecordKind::Open,
            Record::Client { .. } => RecordKind::Client,
            Record::Bid { .. } => RecordKind::Bid,
            Record::Decision { .. } => RecordKind::Decision,
            Record::CloseBegin { .. } => RecordKind::CloseBegin,
            Record::CloseCommit { .. } => RecordKind::CloseCommit,
        }
    }

    /// The session the record belongs to.
    pub fn session(&self) -> &str {
        match self {
            Record::Open { session, .. }
            | Record::Client { session, .. }
            | Record::Bid { session, .. }
            | Record::Decision { session, .. }
            | Record::CloseBegin { session, .. }
            | Record::CloseCommit { session, .. } => session,
        }
    }

    /// Serialises the record payload (one line of JSON, no framing).
    pub fn to_json(&self) -> String {
        self.to_json_with_trace(None)
    }

    /// Serialises the record payload with the originating request's trace
    /// id stamped on it, so a journal read tells *which* request caused
    /// each mutation. [`Record::from_json`] ignores the member (traces
    /// are forensic, not state), so trace-stamped and bare records replay
    /// identically.
    pub fn to_json_with_trace(&self, trace: Option<&str>) -> String {
        let mut members = vec![("rec".into(), json::string(self.kind().as_str()))];
        if let Some(trace) = trace {
            members.push(("trace".into(), json::string(trace)));
        }
        match self {
            Record::Open { session, params } => {
                members.push(("session".into(), json::string(session)));
                members.extend(params.json_members());
            }
            Record::Client {
                session,
                seq,
                t_cmp,
                t_com,
            } => {
                members.push(("session".into(), json::string(session)));
                members.push(("seq".into(), seq.to_string()));
                members.push(("t_cmp".into(), json::number(*t_cmp)));
                members.push(("t_com".into(), json::number(*t_com)));
            }
            Record::Bid {
                session,
                seq,
                client,
                price,
                theta,
                a,
                d,
                c,
            }
            | Record::Decision {
                session,
                seq,
                client,
                price,
                theta,
                a,
                d,
                c,
                ..
            } => {
                members.push(("session".into(), json::string(session)));
                members.push(("seq".into(), seq.to_string()));
                members.push(("client".into(), client.to_string()));
                members.push(("price".into(), json::number(*price)));
                members.push(("theta".into(), json::number(*theta)));
                members.push(("a".into(), a.to_string()));
                members.push(("d".into(), d.to_string()));
                members.push(("c".into(), c.to_string()));
                if let Record::Decision {
                    committed,
                    payment,
                    reason,
                    duplicate,
                    ..
                } = self
                {
                    members.push(("committed".into(), committed.to_string()));
                    members.push(("payment".into(), json::number(*payment)));
                    members.push(("reason".into(), json::string(reason)));
                    members.push(("duplicate".into(), duplicate.to_string()));
                }
            }
            Record::CloseBegin { session, seq } => {
                members.push(("session".into(), json::string(session)));
                members.push(("seq".into(), seq.to_string()));
            }
            Record::CloseCommit { session, result } => {
                members.push(("session".into(), json::string(session)));
                match result {
                    CloseResult::Committed(outcome) => {
                        members.push(("outcome".into(), serial::outcome_to_json(outcome)));
                    }
                    CloseResult::Aborted(reason) => {
                        members.push(("aborted".into(), json::string(reason)));
                    }
                }
            }
        }
        json::object(&members)
    }

    /// Parses a record payload.
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped field.
    pub fn from_json(text: &str) -> Result<Record, String> {
        let doc = json::parse(text)?;
        let kind = doc
            .get("rec")
            .and_then(Json::as_str)
            .ok_or("missing \"rec\" discriminator")?;
        let kind = RecordKind::parse_str(kind).ok_or_else(|| format!("unknown record {kind:?}"))?;
        let session = doc
            .get("session")
            .and_then(Json::as_str)
            .ok_or("missing \"session\"")?
            .to_string();
        let seq = || {
            doc.get("seq")
                .and_then(Json::as_u64)
                .ok_or_else(|| "missing \"seq\"".to_string())
        };
        let f64_of = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing number {key:?}"))
        };
        let u32_of = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .and_then(|v| u32::try_from(v).ok())
                .ok_or_else(|| format!("missing u32 {key:?}"))
        };
        Ok(match kind {
            RecordKind::Open => Record::Open {
                session,
                params: OpenParams::from_value(&doc)?,
            },
            RecordKind::Client => Record::Client {
                session,
                seq: seq()?,
                t_cmp: f64_of("t_cmp")?,
                t_com: f64_of("t_com")?,
            },
            RecordKind::Bid => Record::Bid {
                session,
                seq: seq()?,
                client: u32_of("client")?,
                price: f64_of("price")?,
                theta: f64_of("theta")?,
                a: u32_of("a")?,
                d: u32_of("d")?,
                c: u32_of("c")?,
            },
            RecordKind::Decision => Record::Decision {
                session,
                seq: seq()?,
                client: u32_of("client")?,
                price: f64_of("price")?,
                theta: f64_of("theta")?,
                a: u32_of("a")?,
                d: u32_of("d")?,
                c: u32_of("c")?,
                committed: doc
                    .get("committed")
                    .and_then(Json::as_bool)
                    .ok_or("missing bool \"committed\"")?,
                payment: f64_of("payment")?,
                reason: doc
                    .get("reason")
                    .and_then(Json::as_str)
                    .ok_or("missing \"reason\"")?
                    .to_string(),
                duplicate: doc
                    .get("duplicate")
                    .and_then(Json::as_bool)
                    .ok_or("missing bool \"duplicate\"")?,
            },
            RecordKind::CloseBegin => Record::CloseBegin {
                session,
                seq: seq()?,
            },
            RecordKind::CloseCommit => {
                let result = if let Some(reason) = doc.get("aborted").and_then(Json::as_str) {
                    CloseResult::Aborted(reason.to_string())
                } else {
                    let outcome = doc.get("outcome").ok_or("missing \"outcome\"")?;
                    CloseResult::Committed(serial::outcome_from_value(outcome)?)
                };
                Record::CloseCommit { session, result }
            }
        })
    }
}

/// Frames one record exactly as [`Journal::append`] writes it.
pub fn encode_record(rec: &Record) -> Vec<u8> {
    encode_record_traced(rec, None)
}

/// Frames one record with a trace stamp, exactly as
/// [`Journal::append_with_trace`] writes it.
pub fn encode_record_traced(rec: &Record, trace: Option<&str>) -> Vec<u8> {
    let mut bytes = Vec::new();
    frame::write_frame(&mut bytes, &rec.to_json_with_trace(trace))
        .expect("Vec write is infallible");
    bytes
}

/// What a scan of journal bytes found.
#[derive(Debug)]
pub struct Scan {
    /// Records recovered, in append order.
    pub records: Vec<Record>,
    /// Byte length of the valid prefix (everything after is torn).
    pub valid_len: usize,
    /// Whether a torn or malformed tail was present.
    pub torn: bool,
}

/// Scans journal bytes, stopping (not failing) at the first torn or
/// malformed frame — exactly the tail a crash mid-append leaves.
pub fn scan_bytes(bytes: &[u8]) -> Scan {
    let mut r = bytes;
    let mut records = Vec::new();
    let mut valid_len = 0usize;
    loop {
        match frame::read_frame(&mut r, MAX_RECORD) {
            Ok(None) => {
                return Scan {
                    records,
                    valid_len,
                    torn: false,
                }
            }
            Ok(Some(payload)) => match Record::from_json(&payload) {
                Ok(rec) => {
                    valid_len = bytes.len() - r.len();
                    records.push(rec);
                }
                Err(_) => {
                    return Scan {
                        records,
                        valid_len,
                        torn: true,
                    }
                }
            },
            Err(FrameError::Io(_)) | Err(_) => {
                return Scan {
                    records,
                    valid_len,
                    torn: true,
                }
            }
        }
    }
}

/// A crash-injection target: die while appending the `nth` record of
/// `kind` (1-based), having physically written only `cut` of its bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashPoint {
    /// Which record kind to die on.
    pub kind: RecordKind,
    /// 1-based occurrence count of that kind.
    pub nth: u32,
    /// Fraction of the frame physically written before death: `0.0`
    /// leaves a clean boundary, `1.0` writes the whole record first (a
    /// crash *between* records), anything else tears the tail.
    pub cut: f64,
}

/// The error kind `append` returns when a [`CrashPoint`] fires. The
/// daemon treats it as process death: stop everything, flush nothing.
pub fn is_injected_crash(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::Other && e.to_string().contains("injected crash")
}

/// A jam-injection target: the `nth` append of `kind` (1-based) fails
/// with a *plain* I/O error — the daemon stays alive but must surface an
/// `internal` error and treat the journal as poisoned, exactly like a
/// real ENOSPC. The observability tests use this to drive the
/// `service.err.internal` counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JamPoint {
    /// Which record kind to fail on.
    pub kind: RecordKind,
    /// 1-based occurrence count of that kind.
    pub nth: u32,
}

/// What `Journal::open` recovered from an existing file.
#[derive(Debug)]
pub struct Recovered {
    /// Records that survived, in order.
    pub records: Vec<Record>,
    /// Bytes of torn tail truncated away.
    pub truncated: u64,
}

/// The append-only session journal.
pub struct Journal {
    writer: Option<BufWriter<File>>,
    path: PathBuf,
    durability: Durability,
    crash: Option<CrashPoint>,
    jam: Option<JamPoint>,
    counts: [u32; 6],
    poisoned: bool,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("durability", &self.durability)
            .field("poisoned", &self.poisoned)
            .finish_non_exhaustive()
    }
}

impl Journal {
    /// Opens (creating if absent) the journal at `path`, scans it, and
    /// truncates any torn tail so the file ends at a record boundary.
    ///
    /// # Errors
    ///
    /// Propagates file I/O failures.
    pub fn open(
        path: &Path,
        durability: Durability,
        crash: Option<CrashPoint>,
        jam: Option<JamPoint>,
    ) -> io::Result<(Journal, Recovered)> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let scan = scan_bytes(&bytes);
        let truncated = (bytes.len() - scan.valid_len) as u64;
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path)?;
        if scan.torn {
            file.set_len(scan.valid_len as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(scan.valid_len as u64))?;
        Ok((
            Journal {
                writer: Some(BufWriter::new(file)),
                path: path.to_path_buf(),
                durability,
                crash,
                jam,
                counts: [0; 6],
                poisoned: false,
            },
            Recovered {
                records: scan.records,
                truncated,
            },
        ))
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record. Under [`Durability::Strict`] the record is
    /// flushed *and fsynced* before this returns — an `Ok` here means
    /// the mutation survives any crash.
    ///
    /// # Errors
    ///
    /// Real I/O failures (ENOSPC and friends) poison the journal, as
    /// does a firing [`CrashPoint`] (detect with [`is_injected_crash`]).
    pub fn append(&mut self, rec: &Record) -> io::Result<()> {
        self.append_with_trace(rec, None)
    }

    /// [`append`](Self::append) with the originating request's trace id
    /// stamped on the record (see [`Record::to_json_with_trace`]).
    ///
    /// # Errors
    ///
    /// As for [`append`](Self::append).
    pub fn append_with_trace(&mut self, rec: &Record, trace: Option<&str>) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other("journal is poisoned"));
        }
        let kind = rec.kind();
        self.counts[kind.index()] += 1;
        if let Some(cp) = self.crash {
            if cp.kind == kind && self.counts[kind.index()] == cp.nth {
                return Err(self.crash_now(rec, trace, cp.cut));
            }
        }
        if let Some(jp) = self.jam {
            if jp.kind == kind && self.counts[kind.index()] == jp.nth {
                self.poison();
                return Err(io::Error::other(format!(
                    "injected jam at {}#{}",
                    kind.as_str(),
                    self.counts[kind.index()]
                )));
            }
        }
        let frame = encode_record_traced(rec, trace);
        let result = (|| {
            let w = self
                .writer
                .as_mut()
                .ok_or_else(|| io::Error::other("journal closed"))?;
            w.write_all(&frame)?;
            if self.durability == Durability::Strict
                || matches!(kind, RecordKind::CloseBegin | RecordKind::CloseCommit)
            {
                w.flush()?;
                w.get_ref().sync_data()?;
            }
            Ok(())
        })();
        if result.is_err() {
            self.poison();
        }
        result
    }

    /// Whether a crash or I/O failure has disabled the journal.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Simulated process death: flush what a real kernel would already
    /// have (previous completed writes), physically write `cut` of the
    /// pending frame, and poison the journal so nothing further —
    /// including the `BufWriter`'s drop-flush — reaches the file.
    fn crash_now(&mut self, rec: &Record, trace: Option<&str>, cut: f64) -> io::Error {
        let frame = encode_record_traced(rec, trace);
        let take = ((frame.len() as f64) * cut.clamp(0.0, 1.0)).round() as usize;
        let take = take.min(frame.len());
        if let Some(w) = self.writer.take() {
            // Earlier Strict-mode records were already fsynced; carry any
            // EpochOnly-buffered bytes over, then the torn prefix.
            match w.into_parts() {
                (mut file, Ok(buffered)) => {
                    let _ = file.write_all(&buffered);
                    let _ = file.write_all(&frame[..take]);
                    let _ = file.sync_data();
                }
                (mut file, Err(e)) => {
                    let _ = file.write_all(&frame[..take]);
                    let _ = file.sync_data();
                    drop(e);
                }
            }
        }
        self.poisoned = true;
        io::Error::other(format!(
            "injected crash at {}#{} (cut {cut})",
            rec.kind().as_str(),
            self.counts[rec.kind().index()]
        ))
    }

    /// Drops the file handle without flushing (used when the daemon
    /// simulates death for reasons other than a crash point).
    fn poison(&mut self) {
        self.poisoned = true;
        if let Some(w) = self.writer.take() {
            // Discard the buffer: a dead process never flushes.
            let _ = w.into_parts();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;

    fn bid(session: &str, seq: u64, price: f64) -> Record {
        Record::Bid {
            session: session.into(),
            seq,
            client: 0,
            price,
            theta: 0.55,
            a: 1,
            d: 6,
            c: 6,
        }
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Open {
                session: "s-1".into(),
                params: OpenParams::new(7, 6, 2, 60.0),
            },
            Record::Client {
                session: "s-1".into(),
                seq: 1,
                t_cmp: 2.0,
                t_com: 5.0,
            },
            bid("s-1", 2, 3.25),
            Record::CloseBegin {
                session: "s-1".into(),
                seq: 3,
            },
            Record::CloseCommit {
                session: "s-1".into(),
                result: CloseResult::Aborted("infeasible".into()),
            },
        ]
    }

    #[test]
    fn records_round_trip() {
        for rec in sample_records() {
            let back = Record::from_json(&rec.to_json()).unwrap();
            assert_eq!(back, rec);
        }
    }

    fn decision(seq: u64, committed: bool) -> Record {
        Record::Decision {
            session: "s-9".into(),
            seq,
            client: 2,
            price: 3.5,
            theta: 0.6,
            a: 1,
            d: 4,
            c: 3,
            committed,
            payment: if committed { 12.0 } else { 0.0 },
            reason: if committed {
                "committed"
            } else {
                "price_above_offer"
            }
            .into(),
            duplicate: false,
        }
    }

    #[test]
    fn decision_records_round_trip() {
        for rec in [decision(1, true), decision(2, false)] {
            let back = Record::from_json(&rec.to_json()).unwrap();
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn crash_point_targets_decision_records() {
        let dir = TempDir::new("journal-decision-crash");
        let path = dir.path().join("wal.jsonl");
        let cp = CrashPoint {
            kind: RecordKind::Decision,
            nth: 2,
            cut: 0.4,
        };
        let (mut journal, _) = Journal::open(&path, Durability::Strict, Some(cp), None).unwrap();
        journal.append(&decision(1, true)).unwrap();
        let err = journal.append(&decision(2, false)).unwrap_err();
        assert!(is_injected_crash(&err), "{err}");
        drop(journal);
        let scan = scan_bytes(&std::fs::read(&path).unwrap());
        assert!(scan.torn, "cut 0.4 must tear the second decision");
        assert_eq!(scan.records, vec![decision(1, true)]);
    }

    #[test]
    fn scan_recovers_appended_records_and_flags_torn_tail() {
        let mut bytes = Vec::new();
        for rec in sample_records() {
            bytes.extend_from_slice(&encode_record(&rec));
        }
        let clean = scan_bytes(&bytes);
        assert!(!clean.torn);
        assert_eq!(clean.records, sample_records());
        assert_eq!(clean.valid_len, bytes.len());

        // Tear the last record mid-frame.
        let keep = clean.valid_len - 7;
        let torn = scan_bytes(&bytes[..keep]);
        assert!(torn.torn);
        assert_eq!(torn.records.len(), sample_records().len() - 1);
        // The valid prefix ends exactly at the last whole record.
        let prior: usize = sample_records()[..4]
            .iter()
            .map(|r| encode_record(r).len())
            .sum();
        assert_eq!(torn.valid_len, prior);
    }

    #[test]
    fn open_truncates_torn_tail_and_appends_cleanly() {
        let dir = TempDir::new("journal-torn");
        let path = dir.path().join("wal.jsonl");
        let mut bytes = Vec::new();
        for rec in sample_records() {
            bytes.extend_from_slice(&encode_record(&rec));
        }
        let cut = bytes.len() - 5;
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let (mut journal, recovered) =
            Journal::open(&path, Durability::Strict, None, None).unwrap();
        assert_eq!(recovered.records.len(), 4);
        assert!(recovered.truncated > 0);
        journal.append(&bid("s-1", 9, 1.5)).unwrap();
        drop(journal);

        let reread = scan_bytes(&std::fs::read(&path).unwrap());
        assert!(!reread.torn);
        assert_eq!(reread.records.len(), 5);
        assert_eq!(reread.records[4], bid("s-1", 9, 1.5));
    }

    #[test]
    fn crash_point_tears_exactly_the_targeted_record() {
        let dir = TempDir::new("journal-crash");
        let path = dir.path().join("wal.jsonl");
        let cp = CrashPoint {
            kind: RecordKind::Bid,
            nth: 2,
            cut: 0.5,
        };
        let (mut journal, _) = Journal::open(&path, Durability::Strict, Some(cp), None).unwrap();
        journal.append(&bid("s-1", 1, 1.0)).unwrap();
        let err = journal.append(&bid("s-1", 2, 2.0)).unwrap_err();
        assert!(is_injected_crash(&err), "{err}");
        assert!(journal.poisoned());
        // Post-crash appends fail without touching the file.
        assert!(journal.append(&bid("s-1", 3, 3.0)).is_err());
        drop(journal);

        let bytes = std::fs::read(&path).unwrap();
        let scan = scan_bytes(&bytes);
        assert!(scan.torn, "half a record must be on disk");
        assert_eq!(scan.records, vec![bid("s-1", 1, 1.0)]);

        // Reopening recovers: torn tail gone, appends work again.
        let (mut journal, recovered) =
            Journal::open(&path, Durability::Strict, None, None).unwrap();
        assert_eq!(recovered.records.len(), 1);
        assert!(recovered.truncated > 0);
        journal.append(&bid("s-1", 2, 2.0)).unwrap();
        drop(journal);
        assert!(!scan_bytes(&std::fs::read(&path).unwrap()).torn);
    }

    #[test]
    fn crash_with_zero_cut_leaves_clean_boundary() {
        let dir = TempDir::new("journal-cut0");
        let path = dir.path().join("wal.jsonl");
        let cp = CrashPoint {
            kind: RecordKind::CloseBegin,
            nth: 1,
            cut: 0.0,
        };
        let (mut journal, _) = Journal::open(&path, Durability::Strict, Some(cp), None).unwrap();
        journal.append(&bid("s-1", 1, 1.0)).unwrap();
        let err = journal
            .append(&Record::CloseBegin {
                session: "s-1".into(),
                seq: 2,
            })
            .unwrap_err();
        assert!(is_injected_crash(&err));
        drop(journal);
        let scan = scan_bytes(&std::fs::read(&path).unwrap());
        assert!(!scan.torn, "cut 0.0 writes nothing of the record");
        assert_eq!(scan.records.len(), 1);
    }

    #[test]
    fn committed_outcome_records_round_trip_bit_identically() {
        use fl_auction::{run_auction, AuctionConfig, Bid, ClientProfile, Instance, Round, Window};
        let cfg = AuctionConfig::builder()
            .max_rounds(6)
            .clients_per_round(2)
            .round_time_limit(60.0)
            .build()
            .unwrap();
        let mut inst = Instance::new(cfg);
        for i in 0..4u32 {
            let c = inst.add_client(ClientProfile::new(2.0, 5.0).unwrap());
            inst.add_bid(
                c,
                Bid::new(2.0 + f64::from(i), 0.5, Window::new(Round(1), Round(6)), 6).unwrap(),
            )
            .unwrap();
        }
        let outcome = run_auction(&inst).unwrap();
        let rec = Record::CloseCommit {
            session: "s-1".into(),
            result: CloseResult::Committed(outcome.clone()),
        };
        match Record::from_json(&rec.to_json()).unwrap() {
            Record::CloseCommit {
                result: CloseResult::Committed(back),
                ..
            } => assert_eq!(back, outcome),
            other => panic!("{other:?}"),
        }
    }
}
