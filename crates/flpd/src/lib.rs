//! `fl-flpd` — the crash-safe auction service daemon.
//!
//! The mechanism crates solve one auction in one process; `flpd` turns
//! them into a long-running service: concurrent *sessions* accumulate
//! client profiles and sealed bids over TCP, an epoch *close* runs the
//! full `A_FL` mechanism (`fl_auction::run_auction`) on the session's
//! bid set, and the committed outcome — winners, schedules, payments,
//! dual certificate — is queryable until the daemon dies.
//!
//! The central promise is crash consistency: every acknowledged request
//! is first appended to a write-ahead [`journal`] and fsynced, so a
//! `kill -9` at *any* instant recovers to a state where each epoch is
//! either bit-identical to the fault-free outcome or explicitly marked
//! aborted — never torn, never silently different. The [`faults`] seam
//! injects drops, delays, duplicates, partial-write crash points and
//! failed appends to let the [`chaos`] harness certify exactly that,
//! across a matrix of fault types and seeds.
//!
//! Module map:
//!
//! * [`wire`] — framed-JSON request protocol (idempotent via `seq`);
//! * [`journal`] — append-only WAL with torn-tail recovery;
//! * [`session`] — session state machine and request handler;
//! * [`daemon`] — TCP listener, deadlines, load shedding;
//! * [`client`] — retrying client with jittered backoff;
//! * [`faults`] — deterministic fault plans (`FLPD_FAULTS`);
//! * [`chaos`] — the fault-matrix certification harness;
//! * [`error`] — the retryable-vs-fatal error taxonomy.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// Service code reports through responses and returned reports; only the
// bins print.
#![warn(clippy::print_stdout)]
#![warn(clippy::print_stderr)]

pub mod chaos;
pub mod client;
pub mod daemon;
pub mod error;
pub mod faults;
pub mod journal;
pub mod session;
#[doc(hidden)]
pub mod testutil;
pub mod wire;

pub use client::{Client, ClientConfig, ClientError, CloseReply};
pub use daemon::{Daemon, DaemonConfig};
pub use error::{ErrCode, ServiceError};
pub use faults::FaultPlan;
pub use journal::Durability;
pub use session::{Limits, RecoveryReport};
