//! The live observability plane, end to end: every error code in the
//! taxonomy lands in its own `service.err.<code>` counter, automatic
//! flight dumps fire on shed storms and crash recovery, and the flight
//! recorder stays coherent under fault injection and ring wrap.

use std::io::BufReader;
use std::net::TcpStream;
use std::time::Duration;

use fl_flpd::daemon::{DaemonConfig, SHED_STORM_THRESHOLD};
use fl_flpd::wire::{self, BidParams, OpenParams, Request};
use fl_flpd::{Client, ClientConfig, Daemon, ErrCode, FaultPlan, Limits};
use fl_telemetry::flight::events_from_json;
use fl_telemetry::frame;
use fl_telemetry::json::{self, Json};

fn scratch(tag: &str) -> fl_flpd::testutil::TempDir {
    fl_flpd::testutil::TempDir::new(tag)
}

fn raw_conn(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    stream
        .set_write_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

/// One framed request/response exchange on an existing connection.
fn raw_call(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, text: &str) -> Json {
    frame::write_frame(stream, text).unwrap();
    let payload = frame::read_frame(reader, 4 << 20).unwrap().expect("reply");
    json::parse(&payload).unwrap()
}

/// One exchange on a fresh connection (error paths close the stream).
fn one_shot(addr: std::net::SocketAddr, text: &str) -> Json {
    let (mut stream, mut reader) = raw_conn(addr);
    raw_call(&mut stream, &mut reader, text)
}

fn err_code(doc: &Json) -> Option<&str> {
    doc.get("code").and_then(Json::as_str)
}

fn err_counter(stats: &Json, code: ErrCode) -> u64 {
    stats
        .get("live")
        .and_then(|l| l.get("counters"))
        .and_then(|c| c.get(&format!("service.err.{code}")))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Drives the daemon through every error in the taxonomy on one process
/// and asserts each `service.err.<code>` counter counted its own code —
/// the stats plane distinguishes all eight, not just "errors happened".
#[test]
fn every_error_code_lands_in_its_own_counter() {
    let dir = scratch("obs-taxonomy");
    let mut cfg = DaemonConfig::new(dir.path().join("wal.jsonl"));
    cfg.limits = Limits {
        max_sessions: 1,
        max_inflight_close: 0,
    };
    cfg.max_frame = 512;
    cfg.io_timeout = Duration::from_millis(300);
    // The first `client` journal append fails with a plain I/O error —
    // the `internal` path. Triggered last: a jammed journal poisons
    // every later append.
    cfg.faults = Some(FaultPlan::parse("jam=client:1").unwrap());
    let daemon = Daemon::start(cfg).unwrap();
    let addr = daemon.addr();

    // overloaded: the session cap is 1, the second open is shed.
    let open = one_shot(addr, r#"{"op":"open","nonce":1,"t":6,"k":2,"t_max":60}"#);
    let sid = open
        .get("session")
        .and_then(Json::as_str)
        .expect("first open succeeds")
        .to_string();
    let shed = one_shot(addr, r#"{"op":"open","nonce":2,"t":6,"k":2,"t_max":60}"#);
    assert_eq!(err_code(&shed), Some("overloaded"));

    // unknown_session: a mutation against a session that never existed.
    let ghost = one_shot(
        addr,
        r#"{"op":"bid","session":"s-404","seq":1,"client":0,"price":2,"theta":0.5,"a":1,"d":6,"c":6}"#,
    );
    assert_eq!(err_code(&ghost), Some("unknown_session"));

    // bad_request: an unparseable request body.
    let garbage = one_shot(addr, "this is not a request");
    assert_eq!(err_code(&garbage), Some("bad_request"));

    // conflict: seq 0 is always stale (nothing was ever applied at 0).
    let stale = one_shot(
        addr,
        &format!(r#"{{"op":"client","session":"{sid}","seq":0,"t_cmp":2,"t_com":5}}"#),
    );
    assert_eq!(err_code(&stale), Some("conflict"));

    // backlog: zero close slots shed every close before journaling.
    let backlog = one_shot(
        addr,
        &format!(r#"{{"op":"close","session":"{sid}","seq":1}}"#),
    );
    assert_eq!(err_code(&backlog), Some("backlog"));

    // deadline: hold a connection idle past the io timeout; the daemon
    // hangs up and accounts the lost connection.
    {
        let (_stream, mut reader) = raw_conn(addr);
        let got = frame::read_frame(&mut reader, 64 << 10).unwrap();
        assert!(got.is_none(), "idle connection must be disconnected");
    }

    // too_large: a frame over the 512-byte cap is rejected before parse.
    let huge = one_shot(addr, &format!(r#"{{"pad":"{}"}}"#, "x".repeat(600)));
    assert_eq!(err_code(&huge), Some("too_large"));

    // internal (last): the jammed journal append surfaces as a fatal
    // internal error instead of dying or lying about durability.
    let jammed = one_shot(
        addr,
        &format!(r#"{{"op":"client","session":"{sid}","seq":1,"t_cmp":2,"t_com":5}}"#),
    );
    assert_eq!(err_code(&jammed), Some("internal"));

    // The stats plane must have counted each code under its own name.
    let stats = one_shot(addr, &wire::request_to_json(99, &Request::Stats));
    for code in ErrCode::ALL {
        assert!(
            err_counter(&stats, code) >= 1,
            "service.err.{code} did not count its error: {stats:?}"
        );
    }
    // And only what actually fired: one overloaded, one deadline.
    assert_eq!(err_counter(&stats, ErrCode::Overloaded), 1);
    assert_eq!(err_counter(&stats, ErrCode::Deadline), 1);
    // The failed append poisoned the daemon, and the health plane says so.
    let health = one_shot(addr, &wire::request_to_json(100, &Request::Health));
    assert_eq!(
        health.get("status").and_then(Json::as_str),
        Some("poisoned")
    );
}

/// Crossing [`SHED_STORM_THRESHOLD`] sheds writes one automatic flight
/// dump naming the storm, with the shed events inside it.
#[test]
fn shed_storm_writes_an_automatic_flight_dump() {
    let dir = scratch("obs-storm");
    let dumps = dir.path().join("dumps");
    let mut cfg = DaemonConfig::new(dir.path().join("wal.jsonl"));
    cfg.max_conns = 1;
    cfg.dump_dir = Some(dumps.clone());
    let daemon = Daemon::start(cfg).unwrap();

    // Fill the only slot with a live connection…
    let (mut holder, mut holder_reader) = raw_conn(daemon.addr());
    let pong = raw_call(
        &mut holder,
        &mut holder_reader,
        &wire::request_to_json(1, &Request::Ping),
    );
    assert!(wire::error_from_value(&pong).is_none());

    // …then shed one connection past the storm threshold. Reading the
    // shed frame synchronizes: the dump is written before the frame.
    for _ in 0..=SHED_STORM_THRESHOLD {
        let (_stream, mut reader) = raw_conn(daemon.addr());
        let payload = frame::read_frame(&mut reader, 64 << 10)
            .unwrap()
            .expect("shed frame");
        let doc = json::parse(&payload).unwrap();
        assert_eq!(err_code(&doc), Some("overloaded"));
    }

    let dump_path = dumps.join(format!("flight-shed-storm-{}.json", daemon.addr().port()));
    let text = std::fs::read_to_string(&dump_path)
        .unwrap_or_else(|e| panic!("missing {}: {e}", dump_path.display()));
    let events = events_from_json(&json::parse(&text).unwrap()).expect("dump parses");
    let sheds = events.iter().filter(|e| e.kind == "shed").count();
    assert!(
        sheds as u64 >= SHED_STORM_THRESHOLD,
        "storm dump holds {sheds} shed events"
    );
    assert!(
        events.windows(2).all(|w| w[0].seq < w[1].seq),
        "dump must be in causal order"
    );
}

/// An injected mid-close crash, then a restart on the same journal: the
/// recovering daemon re-solves the pending close and writes an automatic
/// recovery flight dump whose events narrate what was repaired.
#[test]
fn crash_recovery_writes_an_automatic_flight_dump() {
    let dir = scratch("obs-recovery");
    let journal = dir.path().join("wal.jsonl");
    let dumps = dir.path().join("dumps");

    // First life: die appending the close commit.
    {
        let mut cfg = DaemonConfig::new(journal.clone());
        cfg.faults = Some(FaultPlan::parse("crash=close_commit:1").unwrap());
        let daemon = Daemon::start(cfg).unwrap();
        let (mut stream, mut reader) = raw_conn(daemon.addr());
        let open = raw_call(
            &mut stream,
            &mut reader,
            r#"{"op":"open","nonce":1,"t":6,"k":1,"t_max":60}"#,
        );
        let sid = open
            .get("session")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        raw_call(
            &mut stream,
            &mut reader,
            &format!(r#"{{"op":"client","session":"{sid}","seq":1,"t_cmp":2,"t_com":5}}"#),
        );
        raw_call(
            &mut stream,
            &mut reader,
            &format!(
                r#"{{"op":"bid","session":"{sid}","seq":2,"client":0,"price":2,"theta":0.55,"a":1,"d":6,"c":6}}"#
            ),
        );
        // The close crashes the daemon: no response, just EOF.
        frame::write_frame(
            &mut stream,
            &format!(r#"{{"op":"close","session":"{sid}","seq":3}}"#),
        )
        .unwrap();
        assert!(frame::read_frame(&mut reader, 64 << 10).unwrap().is_none());
        assert!(daemon.crashed());
        std::mem::forget(daemon); // died; no graceful stop
    }

    // Second life: recovery re-solves the close and dumps about it.
    let mut cfg = DaemonConfig::new(journal);
    cfg.dump_dir = Some(dumps.clone());
    let daemon = Daemon::start(cfg).unwrap();
    assert_eq!(daemon.recovery().replayed_closes, 1);
    let dump_path = dumps.join(format!("flight-recovery-{}.json", daemon.addr().port()));
    let text = std::fs::read_to_string(&dump_path)
        .unwrap_or_else(|e| panic!("missing {}: {e}", dump_path.display()));
    let events = events_from_json(&json::parse(&text).unwrap()).expect("dump parses");
    assert!(
        events
            .iter()
            .any(|e| e.trace == "recovery" && e.detail.contains("re-solved 1 pending closes")),
        "recovery dump must narrate the re-solve: {events:?}"
    );

    // The recovered session serves its outcome, and the live flight
    // plane agrees with the on-disk dump's history.
    let mut client = Client::new(daemon.addr(), ClientConfig::default());
    let flight = client.flight().unwrap();
    let live = events_from_json(flight.get("flight").unwrap()).unwrap();
    assert!(live.iter().any(|e| e.trace == "recovery"));
}

/// Under wire chaos (dropped and duplicated responses) with a retrying
/// client, the flight dump stays coherent: it parses, is causally
/// ordered, and every request trace opens with a `req` event.
#[test]
fn flight_dump_is_coherent_under_wire_faults() {
    let dir = scratch("obs-chaos");
    let mut cfg = DaemonConfig::new(dir.path().join("wal.jsonl"));
    cfg.faults = Some(FaultPlan::parse("seed=7,drop=0.25,dup=0.2").unwrap());
    cfg.io_timeout = Duration::from_millis(300);
    let daemon = Daemon::start(cfg).unwrap();
    let mut client = Client::new(
        daemon.addr(),
        ClientConfig {
            io_timeout: Duration::from_millis(400),
            max_attempts: 10,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(20),
            seed: 11,
            ..ClientConfig::default()
        },
    );

    let sid = client.open(OpenParams::new(0, 6, 1, 60.0)).unwrap();
    for c in 0..3u32 {
        client.add_client(&sid, 1.5, 3.0).unwrap();
        client
            .add_bid(
                &sid,
                BidParams {
                    client: c,
                    price: 2.0 + f64::from(c),
                    theta: 0.55,
                    a: 1,
                    d: 6,
                    c: 6,
                },
            )
            .unwrap();
    }
    client.close(&sid).unwrap();

    let flight = client.flight().unwrap();
    let events = events_from_json(flight.get("flight").unwrap()).expect("dump parses under chaos");
    assert!(!events.is_empty());
    assert!(
        events.windows(2).all(|w| w[0].seq < w[1].seq),
        "dump must be causally ordered"
    );
    // Per-trace projection: every request trace starts with its `req`.
    let mut seen = std::collections::HashSet::new();
    for e in &events {
        if (e.trace.starts_with("cli-") || e.trace.starts_with("srv-")) && seen.insert(&e.trace) {
            assert_eq!(e.kind, "req", "trace {} starts with {:?}", e.trace, e.kind);
        }
    }
    // Retries reuse one logical trace, so at least one trace must carry
    // more than one `req` under a 25% drop rate with this seed — the
    // propagation, not just the fallback, is what is being verified.
    assert!(
        client.retries() > 0,
        "chaos plan produced no retries; the test lost its teeth"
    );
}

/// Ring wrap under sustained load: far more events than one ring holds,
/// then a dump that still parses, stays bounded, and keeps causal order.
#[test]
fn flight_ring_wrap_keeps_dumps_bounded_and_ordered() {
    let dir = scratch("obs-wrap");
    let daemon = Daemon::start(DaemonConfig::new(dir.path().join("wal.jsonl"))).unwrap();
    let (mut stream, mut reader) = raw_conn(daemon.addr());
    // Each ping records a req and a resp event: 800 pings is well past
    // the 1024-event per-thread ring.
    for i in 0..800u64 {
        let doc = raw_call(
            &mut stream,
            &mut reader,
            &wire::request_to_json(i, &Request::Ping),
        );
        assert!(wire::error_from_value(&doc).is_none());
    }
    let flight = raw_call(
        &mut stream,
        &mut reader,
        &wire::request_to_json(9000, &Request::Flight),
    );
    let events = events_from_json(flight.get("flight").unwrap()).expect("dump parses after wrap");
    assert!(
        events.len() <= 2 * 1024 + 64,
        "dump must stay ring-bounded, got {} events",
        events.len()
    );
    assert!(
        events.windows(2).all(|w| w[0].seq < w[1].seq),
        "wrapped dump must stay causally ordered"
    );
    // The oldest events were overwritten: the dump no longer starts at
    // the beginning of history.
    assert!(events.first().map_or(0, |e| e.seq) > 1);
}
