//! The TCP daemon: listener, per-connection deadlines, load shedding,
//! and the wire-fault seam.
//!
//! Threading model is deliberately boring — one thread per connection,
//! bounded by `max_conns`; a connection above the bound is *shed*: it
//! receives one `overloaded` (retryable) error frame and is closed, so
//! overload turns into fast explicit backpressure instead of unbounded
//! queueing. Read/write deadlines bound every blocking call; an idle or
//! stalled peer is disconnected after `io_timeout`, never parked
//! forever.
//!
//! An injected crash (see [`crate::journal::CrashPoint`]) makes the
//! whole daemon behave like a killed process: every connection drops
//! without a response and the acceptor exits. [`Daemon::crashed`] (and
//! [`Daemon::poisoned`], for a journal that failed without killing the
//! process) lets a supervisor — the chaos harness — observe the fault and
//! restart from the journal.

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fl_telemetry::frame::{self, FrameError};

use crate::error::{ErrCode, ServiceError};
use crate::faults::{FaultPlan, WireAction, WireDice};
use crate::journal::Durability;
use crate::session::{HandleResult, Limits, RecoveryReport, ServerCore};
use crate::wire;

/// Everything a daemon needs to start.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// Write-ahead journal path (created if absent, recovered if not).
    pub journal: PathBuf,
    /// Journal durability mode.
    pub durability: Durability,
    /// Session and close-concurrency limits.
    pub limits: Limits,
    /// Maximum request frame size in bytes.
    pub max_frame: usize,
    /// Per-connection read/write deadline.
    pub io_timeout: Duration,
    /// Connection cap; connections beyond it are shed.
    pub max_conns: usize,
    /// Fault-injection plan, if any.
    pub faults: Option<FaultPlan>,
    /// Where automatic flight-recorder dumps land (`None` disables
    /// them). The daemon dumps once at startup when recovery had to
    /// repair anything, and once when sheds first cross
    /// [`SHED_STORM_THRESHOLD`].
    pub dump_dir: Option<PathBuf>,
}

impl DaemonConfig {
    /// Defaults: loopback on an ephemeral port, strict durability, 64
    /// KiB frames, 2 s deadlines, 64 connections.
    pub fn new(journal: PathBuf) -> DaemonConfig {
        DaemonConfig {
            addr: "127.0.0.1:0".into(),
            journal,
            durability: Durability::Strict,
            limits: Limits::default(),
            max_frame: 64 << 10,
            io_timeout: Duration::from_secs(2),
            max_conns: 64,
            faults: None,
            dump_dir: None,
        }
    }
}

/// Shed count at which the daemon considers itself inside a shed storm
/// and writes one automatic flight dump (if a dump dir is configured).
pub const SHED_STORM_THRESHOLD: u64 = 8;

/// A running daemon.
pub struct Daemon {
    addr: SocketAddr,
    core: Arc<ServerCore>,
    shutdown: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
    recovery: RecoveryReport,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("addr", &self.addr)
            .field("crashed", &self.crashed())
            .finish_non_exhaustive()
    }
}

impl Daemon {
    /// Recovers the journal, binds the listener, and starts accepting.
    ///
    /// # Errors
    ///
    /// Propagates journal and bind failures.
    pub fn start(cfg: DaemonConfig) -> io::Result<Daemon> {
        let (core, recovery) =
            ServerCore::recover(&cfg.journal, cfg.durability, cfg.faults, cfg.limits)?;
        let core = Arc::new(core);
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        if recovery.replayed_closes > 0 || recovery.truncated_bytes > 0 || recovery.anomalies > 0 {
            dump_flight(&core, cfg.dump_dir.as_deref(), "recovery", addr.port());
        }
        let shutdown = Arc::new(AtomicBool::new(false));

        let accept = {
            let core = Arc::clone(&core);
            let shutdown = Arc::clone(&shutdown);
            let cfg = cfg.clone();
            std::thread::Builder::new()
                .name("flpd-accept".into())
                .spawn(move || accept_loop(listener, addr, core, shutdown, cfg))?
        };
        Ok(Daemon {
            addr,
            core,
            shutdown,
            accept: Some(accept),
            recovery,
        })
    }

    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// What journal recovery found at startup.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// Connections shed at the accept gate so far.
    pub fn shed_count(&self) -> u64 {
        self.core.shed_count()
    }

    /// Whether an injected crash has killed the daemon.
    pub fn crashed(&self) -> bool {
        self.core.crashed()
    }

    /// Whether a failed journal append has poisoned the daemon: it still
    /// serves reads but refuses every mutation until restarted.
    pub fn poisoned(&self) -> bool {
        self.core.poisoned()
    }

    /// [`ServerCore::audit`] of the daemon's core.
    ///
    /// # Errors
    ///
    /// As for [`ServerCore::audit`].
    pub fn audit(&self, scratch: &Path) -> Result<(), String> {
        self.core.audit(scratch)
    }

    /// Whether shutdown has begun (crash or a client `shutdown` request).
    pub fn stopped(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Begins shutdown and waits for the acceptor to exit. Live
    /// connections die within one `io_timeout`.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        wake(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Nudges a blocking `accept` so it re-checks the shutdown flag.
fn wake(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
}

#[allow(clippy::needless_pass_by_value)]
fn accept_loop(
    listener: TcpListener,
    addr: SocketAddr,
    core: Arc<ServerCore>,
    shutdown: Arc<AtomicBool>,
    cfg: DaemonConfig,
) {
    let live = Arc::new(AtomicUsize::new(0));
    let mut conn_no: u64 = 0;
    loop {
        if shutdown.load(Ordering::SeqCst) || core.crashed() {
            return;
        }
        let (stream, _) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(_) => continue,
        };
        if shutdown.load(Ordering::SeqCst) || core.crashed() {
            return;
        }
        conn_no += 1;
        if live.load(Ordering::SeqCst) >= cfg.max_conns {
            core.note_shed();
            if core.shed_count() == SHED_STORM_THRESHOLD {
                dump_flight(&core, cfg.dump_dir.as_deref(), "shed-storm", addr.port());
            }
            shed_connection(stream, cfg.io_timeout, cfg.max_conns);
            continue;
        }
        live.fetch_add(1, Ordering::SeqCst);
        let conn_core = Arc::clone(&core);
        let shutdown = Arc::clone(&shutdown);
        let live_conn = Arc::clone(&live);
        let dice = cfg
            .faults
            .filter(FaultPlan::has_wire_faults)
            .map(|plan| WireDice::new(plan, conn_no));
        let cfg = cfg.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("flpd-conn-{conn_no}"))
            .spawn(move || {
                serve_conn(stream, &conn_core, dice, &cfg, &shutdown, addr);
                live_conn.fetch_sub(1, Ordering::SeqCst);
            });
        if spawned.is_err() {
            // Could not spawn: count it as shed; `live` was already
            // incremented, undo it.
            live.fetch_sub(1, Ordering::SeqCst);
            core.note_shed();
        }
    }
}

/// Load shedding: one retryable error frame, then close.
fn shed_connection(mut stream: TcpStream, io_timeout: Duration, cap: usize) {
    let _ = stream.set_write_timeout(Some(io_timeout));
    let err = ServiceError::new(
        ErrCode::Overloaded,
        format!("connection capacity {cap} reached"),
    );
    let _ = frame::write_frame(&mut stream, &wire::error_response(&err));
    let _ = stream.flush();
}

fn serve_conn(
    stream: TcpStream,
    core: &ServerCore,
    mut dice: Option<WireDice>,
    cfg: &DaemonConfig,
    shutdown: &AtomicBool,
    addr: SocketAddr,
) {
    if stream.set_read_timeout(Some(cfg.io_timeout)).is_err()
        || stream.set_write_timeout(Some(cfg.io_timeout)).is_err()
    {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        if shutdown.load(Ordering::SeqCst) || core.crashed() {
            return;
        }
        match frame::read_frame(&mut reader, cfg.max_frame) {
            Ok(None) => return,
            Ok(Some(payload)) => match core.handle(&payload) {
                HandleResult::Reply(resp) => {
                    if !send(&mut writer, &resp, &mut dice) {
                        return;
                    }
                }
                HandleResult::Crashed => {
                    // Simulated process death: no response, wake the
                    // acceptor so it observes the crash flag.
                    shutdown.store(true, Ordering::SeqCst);
                    wake(addr);
                    return;
                }
                HandleResult::ShutdownRequested(resp) => {
                    let _ = frame::write_frame(&mut writer, &resp);
                    let _ = writer.flush();
                    shutdown.store(true, Ordering::SeqCst);
                    wake(addr);
                    return;
                }
            },
            Err(e) => {
                respond_to_frame_error(&mut writer, core, &e);
                return;
            }
        }
    }
}

/// Best-effort error frame for a broken request stream; the connection
/// closes either way because framing is lost.
fn respond_to_frame_error(writer: &mut TcpStream, core: &ServerCore, e: &FrameError) {
    let err = match e {
        // Deadline expiry (idle or stalled peer) — just disconnect,
        // but account the lost connection in the stats plane.
        FrameError::Io(io_err) => {
            if matches!(
                io_err.kind(),
                io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
            ) {
                core.note_wire_err(ErrCode::Deadline, "connection idle deadline expired");
            }
            return;
        }
        FrameError::TooLarge { declared, cap } => {
            core.note_wire_err(ErrCode::TooLarge, "request frame exceeds cap");
            ServiceError::new(
                ErrCode::TooLarge,
                format!("frame of {declared} bytes exceeds cap {cap}"),
            )
        }
        other => {
            core.note_wire_err(ErrCode::BadRequest, "malformed frame");
            ServiceError::new(ErrCode::BadRequest, format!("malformed frame: {other}"))
        }
    };
    let _ = frame::write_frame(writer, &wire::error_response(&err));
    let _ = writer.flush();
}

/// Writes the flight recorder to `<dir>/flight-<tag>-<port>.json`.
/// Best-effort on purpose: observability must never take the daemon
/// down, so directory or write failures are swallowed.
fn dump_flight(core: &ServerCore, dir: Option<&std::path::Path>, tag: &str, port: u16) {
    let Some(dir) = dir else { return };
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let _ = std::fs::write(
        dir.join(format!("flight-{tag}-{port}.json")),
        core.flight().dump_json(),
    );
}

/// Writes one response, applying the wire-fault dice. Returns `false`
/// when the connection is no longer usable.
fn send(writer: &mut TcpStream, resp: &str, dice: &mut Option<WireDice>) -> bool {
    let action = dice.as_mut().map_or(WireAction::Send, WireDice::roll);
    match action {
        WireAction::Drop => true,
        WireAction::Send => frame::write_frame(writer, resp).is_ok(),
        WireAction::DelayMs(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            frame::write_frame(writer, resp).is_ok()
        }
        WireAction::Duplicate => {
            frame::write_frame(writer, resp).is_ok() && frame::write_frame(writer, resp).is_ok()
        }
    }
}
