//! End-to-end service tests: real daemon, real TCP, real journal.

use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use fl_auction::{run_auction, serial, Bid, ClientId, ClientProfile, Instance, Round, Window};
use fl_flpd::chaos::{run_matrix, FaultKind, MatrixConfig};
use fl_flpd::client::{PaymentReply, SubmitReply};
use fl_flpd::daemon::DaemonConfig;
use fl_flpd::wire::{self, BidParams, OpenParams, Request};
use fl_flpd::{
    Client, ClientConfig, ClientError, CloseReply, Daemon, ErrCode, Limits, ServiceError,
};
use fl_telemetry::frame;
use fl_telemetry::json::{self, Json};

fn scratch(tag: &str) -> fl_flpd::testutil::TempDir {
    fl_flpd::testutil::TempDir::new(tag)
}

fn fast_client(addr: std::net::SocketAddr) -> Client {
    Client::new(
        addr,
        ClientConfig {
            io_timeout: Duration::from_millis(500),
            max_attempts: 6,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(50),
            seed: 7,
            ..ClientConfig::default()
        },
    )
}

/// The daemon's committed outcome must be bit-identical to solving the
/// same instance locally.
#[test]
fn lifecycle_matches_local_reference() {
    let dir = scratch("svc-lifecycle");
    let daemon = Daemon::start(DaemonConfig::new(dir.path().join("wal.jsonl"))).unwrap();
    let mut client = fast_client(daemon.addr());

    let params = OpenParams::new(0, 6, 1, 60.0);
    let sid = client.open(params.clone()).unwrap();
    let profiles = [(1.5, 3.0), (2.0, 4.0), (1.0, 2.5)];
    let bids = [
        BidParams {
            client: 0,
            price: 4.0,
            theta: 0.6,
            a: 1,
            d: 4,
            c: 3,
        },
        BidParams {
            client: 1,
            price: 2.5,
            theta: 0.5,
            a: 2,
            d: 6,
            c: 4,
        },
        BidParams {
            client: 2,
            price: 6.0,
            theta: 0.7,
            a: 1,
            d: 6,
            c: 2,
        },
    ];
    for &(t_cmp, t_com) in &profiles {
        client.add_client(&sid, t_cmp, t_com).unwrap();
    }
    for bid in &bids {
        client.add_bid(&sid, *bid).unwrap();
    }
    let CloseReply::Committed(remote) = client.close(&sid).unwrap() else {
        panic!("epoch should commit");
    };

    // Local ground truth on the identical instance.
    let mut instance = Instance::new(params.to_config().unwrap());
    for &(t_cmp, t_com) in &profiles {
        instance.add_client(ClientProfile::new(t_cmp, t_com).unwrap());
    }
    for b in &bids {
        instance
            .add_bid(
                ClientId(b.client),
                Bid::new(b.price, b.theta, Window::new(Round(b.a), Round(b.d)), b.c).unwrap(),
            )
            .unwrap();
    }
    let local = run_auction(&instance).unwrap();
    assert_eq!(
        serial::outcome_to_json(&remote),
        serial::outcome_to_json(&local),
        "service outcome must be bit-identical to a local solve"
    );

    // Outcome query replays the same decision; payments are consistent.
    let CloseReply::Committed(again) = client.outcome(&sid).unwrap() else {
        panic!("outcome query should see the commit");
    };
    assert_eq!(
        serial::outcome_to_json(&again),
        serial::outcome_to_json(&local)
    );
    let mut paid = 0.0;
    for c in 0..profiles.len() as u32 {
        match client.payments(&sid, c).unwrap() {
            PaymentReply::Committed { total, .. } => paid += total,
            PaymentReply::Aborted(r) => panic!("unexpected abort: {r}"),
        }
    }
    let local_paid: f64 = local.solution().winners().iter().map(|w| w.payment).sum();
    assert!((paid - local_paid).abs() < 1e-12);
}

/// Raw framed exchange on one connection.
fn raw_call(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, text: &str) -> Json {
    frame::write_frame(stream, text).unwrap();
    let payload = frame::read_frame(reader, 4 << 20).unwrap().expect("reply");
    json::parse(&payload).unwrap()
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

/// At 2x the connection cap, excess connections get an explicit
/// retryable `overloaded` frame within the deadline — never a stall.
#[test]
fn overload_sheds_with_retryable_errors() {
    let dir = scratch("svc-shed");
    let mut cfg = DaemonConfig::new(dir.path().join("wal.jsonl"));
    cfg.max_conns = 2;
    cfg.io_timeout = Duration::from_secs(5);
    let daemon = Daemon::start(cfg).unwrap();

    // Fill the cap with two live connections (ping proves each is
    // being served, not just queued in the accept backlog).
    let mut holders = Vec::new();
    for _ in 0..2 {
        let (mut stream, mut reader) = raw_conn(daemon.addr());
        let doc = raw_call(
            &mut stream,
            &mut reader,
            &wire::request_to_json(1, &Request::Ping),
        );
        assert!(wire::error_from_value(&doc).is_none());
        holders.push((stream, reader));
    }

    // 2x the cap beyond it: every one must be shed promptly.
    let deadline = Duration::from_secs(2);
    for i in 0..4 {
        let start = Instant::now();
        let (_stream, mut reader) = raw_conn(daemon.addr());
        let payload = frame::read_frame(&mut reader, 64 << 10)
            .unwrap()
            .expect("shed frame");
        let doc = json::parse(&payload).unwrap();
        let err = wire::error_from_value(&doc).expect("shed is an error frame");
        assert_eq!(err.code, ErrCode::Overloaded, "conn {i}");
        assert!(err.retryable(), "shed must be retryable");
        assert!(
            start.elapsed() < deadline,
            "shed reply stalled: {:?}",
            start.elapsed()
        );
    }
    assert!(daemon.shed_count() >= 4);
}

/// With zero close slots every close sheds with `backlog`; the client
/// surfaces retry exhaustion rather than hanging.
#[test]
fn close_backlog_is_retryable_and_bounded() {
    let dir = scratch("svc-backlog");
    let mut cfg = DaemonConfig::new(dir.path().join("wal.jsonl"));
    cfg.limits = Limits {
        max_sessions: 16,
        max_inflight_close: 0,
    };
    let daemon = Daemon::start(cfg).unwrap();
    let mut client = fast_client(daemon.addr());
    let sid = client.open(OpenParams::new(0, 5, 1, 60.0)).unwrap();
    client.add_client(&sid, 1.0, 2.0).unwrap();

    let start = Instant::now();
    match client.close(&sid) {
        Err(ClientError::Exhausted { attempts, last }) => {
            assert_eq!(attempts, 6);
            assert!(last.contains("backlog"), "last failure: {last}");
        }
        other => panic!("expected retry exhaustion, got {other:?}"),
    }
    assert!(client.retries() >= 5);
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "close retries must stay bounded"
    );
}

/// An idle connection is disconnected once the io deadline expires —
/// the daemon never parks a reader forever.
#[test]
fn idle_connection_closed_by_deadline() {
    let dir = scratch("svc-idle");
    let mut cfg = DaemonConfig::new(dir.path().join("wal.jsonl"));
    cfg.io_timeout = Duration::from_millis(150);
    let daemon = Daemon::start(cfg).unwrap();

    let (_stream, mut reader) = raw_conn(daemon.addr());
    let start = Instant::now();
    // Send nothing; the daemon must hang up on its own.
    let got = frame::read_frame(&mut reader, 64 << 10).unwrap();
    assert!(got.is_none(), "expected EOF from idle disconnect");
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "idle disconnect took {:?}",
        start.elapsed()
    );
}

/// Crash mid-journal-append, restart on the same journal, and the
/// recovered epoch must be bit-identical to the fault-free outcome.
/// (The chaos matrix runs this over many seeds; this pins one cell of
/// each crashing family as a plain test.)
#[test]
fn crash_recovery_is_bit_identical() {
    let report = run_matrix(&MatrixConfig {
        kinds: vec![FaultKind::Partial, FaultKind::Crash],
        seeds: 2,
        sessions: 2,
    });
    for cell in &report.cells {
        assert!(
            cell.pass,
            "{}#{} violated consistency: {}",
            cell.kind.as_str(),
            cell.seed,
            cell.detail
        );
    }
    assert!(
        report.cells.iter().any(|c| c.crashes > 0),
        "at least one cell must actually crash for this test to mean anything"
    );
}

/// A flaky listener: drops the first connection outright, sheds the
/// second with a retryable error, then proxies nothing but answers ok.
/// The client must ride through both failures and succeed on the third
/// attempt; a fatal error must abort immediately.
#[test]
fn client_retries_flaky_listener_and_respects_fatal_errors() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        // 1st conn: slam the door (transport error for the client).
        let (c1, _) = listener.accept().unwrap();
        drop(c1);
        // 2nd conn: retryable service error.
        let (mut c2, _) = listener.accept().unwrap();
        let mut r2 = BufReader::new(c2.try_clone().unwrap());
        let _ = frame::read_frame(&mut r2, 64 << 10);
        let shed = ServiceError::new(ErrCode::Overloaded, "synthetic shed");
        frame::write_frame(&mut c2, &wire::error_response(&shed)).unwrap();
        drop(c2);
        // 3rd conn: success, then a *fatal* error on the next request.
        let (mut c3, _) = listener.accept().unwrap();
        let mut r3 = BufReader::new(c3.try_clone().unwrap());
        let req = frame::read_frame(&mut r3, 64 << 10).unwrap().unwrap();
        let doc = json::parse(&req).unwrap();
        let id = doc.get("id").and_then(Json::as_u64).unwrap();
        frame::write_frame(&mut c3, &format!("{{\"id\":{id},\"ok\":true}}")).unwrap();
        let _ = frame::read_frame(&mut r3, 64 << 10);
        let fatal = ServiceError::new(ErrCode::BadRequest, "synthetic fatal");
        frame::write_frame(&mut c3, &wire::error_response(&fatal)).unwrap();
    });

    let mut client = fast_client(addr);
    client
        .ping()
        .expect("ping should survive two flaky attempts");
    assert!(
        client.retries() >= 2,
        "expected at least two retries, saw {}",
        client.retries()
    );
    let retries_before = client.retries();
    match client.ping() {
        Err(ClientError::Service(e)) => {
            assert_eq!(e.code, ErrCode::BadRequest);
            assert!(!e.retryable());
        }
        other => panic!("fatal error must not be retried: {other:?}"),
    }
    assert_eq!(
        client.retries(),
        retries_before,
        "fatal errors must not consume retry budget"
    );
    server.join().unwrap();
}

/// End-to-end streaming session: submits decide on arrival, duplicate
/// re-submissions replay their original verdict under fresh seqs, the
/// wrong-op pairs are fatal `conflict`s in both directions, and the
/// close commits exactly the on-arrival committed set.
#[test]
fn streaming_session_over_the_wire() {
    let dir = scratch("svc-streaming");
    let daemon = Daemon::start(DaemonConfig::new(dir.path().join("wal.jsonl"))).unwrap();
    let mut client = fast_client(daemon.addr());

    // K = 1, T = 4, B = 40 → posted offer π = 10 per round.
    let sid = client
        .open(OpenParams::streaming(0, 4, 1, 60.0, 40.0))
        .unwrap();
    client.add_client(&sid, 2.0, 5.0).unwrap();
    let bid = BidParams {
        client: 0,
        price: 25.0,
        theta: 0.55,
        a: 1,
        d: 4,
        c: 4,
    };
    let d1 = client.submit(&sid, bid).unwrap();
    assert_eq!(
        d1,
        SubmitReply {
            bid: 0,
            committed: true,
            reason: "committed".into(),
            payment: 40.0,
            duplicate: false,
        }
    );

    // Identical re-submission (fresh seq): the daemon replays the
    // original verdict instead of double-hiring.
    let dup = client.submit(&sid, bid).unwrap();
    assert!(dup.duplicate, "re-submission must be flagged");
    assert_eq!((dup.bid, dup.committed, dup.payment), (0, true, 40.0));

    // A genuinely new bid is rejected explicitly — coverage is full.
    let d2 = client
        .submit(
            &sid,
            BidParams {
                client: 0,
                price: 1.0,
                theta: 0.55,
                a: 1,
                d: 4,
                c: 4,
            },
        )
        .unwrap();
    assert!(!d2.committed);
    assert_eq!(d2.reason, "no_capacity");

    // Wrong op for the session mode: fatal conflict, both directions.
    match client.add_bid(&sid, bid) {
        Err(ClientError::Service(e)) => assert_eq!(e.code, ErrCode::Conflict),
        other => panic!("bid on a streaming session must conflict: {other:?}"),
    }
    let batch_sid = client.open(OpenParams::new(0, 4, 1, 60.0)).unwrap();
    client.add_client(&batch_sid, 2.0, 5.0).unwrap();
    match client.submit(&batch_sid, bid) {
        Err(ClientError::Service(e)) => assert_eq!(e.code, ErrCode::Conflict),
        other => panic!("submit on a batch session must conflict: {other:?}"),
    }

    // The streaming close needs no solve: it commits the set already
    // decided on arrival, and survives a restart.
    let first = match client.close(&sid).unwrap() {
        CloseReply::Committed(o) => {
            assert_eq!(o.solution().winners().len(), 1);
            assert!((o.solution().winners()[0].payment - 40.0).abs() < 1e-12);
            serial::outcome_to_json(&o)
        }
        CloseReply::Aborted(r) => panic!("unexpected abort: {r}"),
    };
    drop(daemon);
    let daemon = Daemon::start(DaemonConfig::new(dir.path().join("wal.jsonl"))).unwrap();
    assert_eq!(daemon.recovery().anomalies, 0);
    let mut client = fast_client(daemon.addr());
    match client.outcome(&sid).unwrap() {
        CloseReply::Committed(o) => assert_eq!(serial::outcome_to_json(&o), first),
        CloseReply::Aborted(r) => panic!("lost the streaming commit: {r}"),
    }
}

/// Duplicate batch bids are deduplicated server-side: re-adding an
/// identical bid under a fresh seq returns the original index and a
/// duplicate marker rather than growing the instance.
#[test]
fn duplicate_batch_bids_are_idempotent_over_the_wire() {
    let dir = scratch("svc-dup-bids");
    let daemon = Daemon::start(DaemonConfig::new(dir.path().join("wal.jsonl"))).unwrap();
    let mut client = fast_client(daemon.addr());
    let sid = client.open(OpenParams::new(0, 6, 1, 60.0)).unwrap();
    client.add_client(&sid, 1.2, 2.4).unwrap();
    let bid = BidParams {
        client: 0,
        price: 3.0,
        theta: 0.6,
        a: 1,
        d: 5,
        c: 3,
    };
    assert_eq!(client.add_bid(&sid, bid).unwrap(), 0);
    assert_eq!(client.add_bid(&sid, bid).unwrap(), 0, "dup replays index");
    let mut other = bid;
    other.price = 4.0;
    assert_eq!(client.add_bid(&sid, other).unwrap(), 1);
    // The close sees exactly two bids — no phantom duplicates.
    match client.close(&sid).unwrap() {
        CloseReply::Committed(o) => assert_eq!(o.solution().winners().len(), 1),
        CloseReply::Aborted(r) => panic!("unexpected abort: {r}"),
    }
}

/// Restarting on a journal written by a *previous daemon process*
/// (clean shutdown, no crash) serves the committed outcome again.
#[test]
fn journal_survives_clean_restart() {
    let dir = scratch("svc-restart");
    let journal = dir.path().join("wal.jsonl");
    let first;
    {
        let daemon = Daemon::start(DaemonConfig::new(journal.clone())).unwrap();
        let mut client = fast_client(daemon.addr());
        let sid = client.open(OpenParams::new(0, 5, 1, 60.0)).unwrap();
        client.add_client(&sid, 1.2, 2.4).unwrap();
        client
            .add_bid(
                &sid,
                BidParams {
                    client: 0,
                    price: 3.0,
                    theta: 0.6,
                    a: 1,
                    d: 5,
                    c: 3,
                },
            )
            .unwrap();
        first = match client.close(&sid).unwrap() {
            CloseReply::Committed(o) => serial::outcome_to_json(&o),
            CloseReply::Aborted(r) => panic!("unexpected abort: {r}"),
        };
    }
    let daemon = Daemon::start(DaemonConfig::new(journal)).unwrap();
    assert_eq!(daemon.recovery().sessions, 1);
    // The close committed before shutdown, so nothing needed re-solving.
    assert_eq!(daemon.recovery().replayed_closes, 0);
    assert_eq!(daemon.recovery().truncated_bytes, 0);
    let mut client = fast_client(daemon.addr());
    match client.outcome("s-1").unwrap() {
        CloseReply::Committed(o) => assert_eq!(serial::outcome_to_json(&o), first),
        CloseReply::Aborted(r) => panic!("lost the commit across restart: {r}"),
    }
}

/// Memory is a replay of the journal: after batch and streaming sessions,
/// a close a crash left pending, and a duplicate `bid` and a duplicate
/// `submit` under fresh seqs — each the last mutation of its session, so
/// nothing later masks a skipped record — a core recovered from the
/// journal file digests exactly like the live daemon.
#[test]
fn live_state_is_a_replay_of_the_journal() {
    let dir = scratch("svc-audit");
    let journal = dir.path().join("wal.jsonl");
    let mut cfg = DaemonConfig::new(journal.clone());
    cfg.faults = Some(fl_flpd::FaultPlan::parse("crash=close_commit:1").unwrap());
    let daemon = Daemon::start(cfg).unwrap();
    let mut client = fast_client(daemon.addr());
    let bid = |client, price, c| BidParams {
        client,
        price,
        theta: 0.55,
        a: 1,
        d: 4,
        c,
    };

    // The first close commit kills the daemon: the epoch stays pending.
    let closed = client.open(OpenParams::new(1, 4, 1, 60.0)).unwrap();
    for _ in 0..2 {
        client.add_client(&closed, 2.0, 5.0).unwrap();
    }
    client.add_bid(&closed, bid(0, 3.0, 4)).unwrap();
    client.add_bid(&closed, bid(1, 2.0, 2)).unwrap();
    assert!(client.close(&closed).is_err());
    assert!(daemon.crashed());
    drop(daemon);

    // Recovery re-solves the pending close.
    let daemon = Daemon::start(DaemonConfig::new(journal)).unwrap();
    assert_eq!(daemon.recovery().replayed_closes, 1);
    assert_eq!(daemon.recovery().anomalies, 0);
    let mut client = fast_client(daemon.addr());
    assert!(matches!(
        client.outcome(&closed).unwrap(),
        CloseReply::Committed(_)
    ));

    let batch = client.open(OpenParams::new(2, 4, 1, 60.0)).unwrap();
    client.add_client(&batch, 1.0, 1.0).unwrap();
    assert_eq!(client.add_bid(&batch, bid(0, 9.0, 1)).unwrap(), 0);
    assert_eq!(client.add_bid(&batch, bid(0, 9.0, 1)).unwrap(), 0);

    let streaming = client
        .open(OpenParams::streaming(3, 4, 1, 60.0, 40.0))
        .unwrap();
    client.add_client(&streaming, 2.0, 5.0).unwrap();
    assert!(
        client
            .submit(&streaming, bid(0, 25.0, 4))
            .unwrap()
            .committed
    );
    assert!(!client.submit(&streaming, bid(0, 1.0, 4)).unwrap().committed);
    assert!(
        client
            .submit(&streaming, bid(0, 25.0, 4))
            .unwrap()
            .duplicate
    );

    daemon.audit(dir.path()).unwrap();
}
