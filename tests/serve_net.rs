//! Acceptance tests for the network serve front-end (ISSUE 9).
//!
//! Three guarantees pin the socket layer to the in-process serve mode:
//!
//! 1. **Fidelity** — a loopback run (one client per shard, the same
//!    seeded workload) produces per-shard results *equal* to the
//!    in-process scheduler's, and per-shard telemetry *byte-identical*
//!    after `strip_volatile`. The wire adds accounting, never behavior.
//! 2. **Backpressure is deterministic** — with an in-flight window of 1,
//!    a second unacknowledged turn is refused with `Busy` (and counted),
//!    applied only after an explicit `Ack`; whether a turn is refused
//!    depends only on the frame sequence, never on timing.
//! 3. **Failure is typed end to end** — a panic in one shard's
//!    collection surfaces as a `ShardFailed` protocol error on that
//!    shard's connection while the other shard's client completes every
//!    operation, and a graceful drain loses zero acknowledged ops.

use std::time::Duration;

use odbgc_core::{CollectionObservation, FixedRatePolicy, RatePolicy, Trigger};
use odbgc_engine::{
    serve, EngineConfig, ObjRef, ServeConfig, SessionOp, SessionWorkload, WorkloadParams,
};
use odbgc_net::proto::{MAX_CREATE_SLOTS, STATS_MAX_CLIENTS};
use odbgc_net::{
    run_client, ClientConfig, ClientError, Conn, ErrorCode, NetConfig, NetOutcome, NetServer,
    Request, Response,
};
use odbgc_sim::run_document;

const OPS: u64 = 400;
const BATCH: u64 = 8;

fn net_config(shards: u32) -> NetConfig {
    NetConfig {
        engine: EngineConfig::tiny(),
        shards,
        // Short idle timeout so a hung test fails fast, long enough to
        // never fire during normal turns.
        idle_timeout: Duration::from_secs(10),
        ..NetConfig::default()
    }
}

/// Binds a server on an ephemeral loopback port and runs it on a
/// background thread; returns the address and the outcome handle.
fn spawn_server(config: NetConfig) -> (String, std::thread::JoinHandle<NetOutcome>) {
    let server = NetServer::bind("127.0.0.1:0", config, |_| {
        Box::new(FixedRatePolicy::new(20))
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    (addr, std::thread::spawn(move || server.run()))
}

fn client_config(addr: &str, session: u32) -> ClientConfig {
    ClientConfig {
        addr: addr.to_owned(),
        session,
        ops: OPS,
        batch: BATCH,
        window: 4,
        workload: WorkloadParams::default(),
        shutdown_after: false,
    }
}

fn shutdown(addr: &str) {
    let mut admin = Conn::connect(addr).expect("admin connect");
    match admin.request(&Request::Shutdown).expect("shutdown") {
        Response::ShutdownOk => {}
        other => panic!("want ShutdownOk, got {other:?}"),
    }
}

/// (1) Fidelity: loopback vs in-process, same seeds, one client per
/// shard. Shard results equal; shard telemetry byte-identical after
/// stripping volatile keys.
#[test]
fn loopback_telemetry_matches_in_process_serve() {
    // In-process reference: 2 sessions on 2 shards — each shard's op
    // stream is exactly its one session's stream, independent of the
    // scheduler seed.
    let reference = serve(
        ServeConfig {
            engine: EngineConfig::tiny(),
            sessions: 2,
            shards: 2,
            ops_per_session: OPS,
            batch: BATCH,
            scheduler_seed: 42,
            workload: WorkloadParams::default(),
            gc_fault: None,
        },
        |_| Box::new(FixedRatePolicy::new(20)),
    )
    .expect("in-process serve");
    assert!(reference.failures.is_empty());

    // Loopback: one client per shard driving the same generator.
    let (addr, server) = spawn_server(net_config(2));
    let clients: Vec<_> = (0..2u32)
        .map(|session| {
            let config = client_config(&addr, session);
            std::thread::spawn(move || run_client(&config).expect("client"))
        })
        .collect();
    let reports: Vec<_> = clients.into_iter().map(|h| h.join().unwrap()).collect();
    shutdown(&addr);
    let outcome = server.join().unwrap();

    for (session, report) in reports.iter().enumerate() {
        assert_eq!(
            report.ops_applied, OPS,
            "client {session} must complete its whole budget, exactly"
        );
        assert_eq!(report.busy, 0, "well-behaved driver never sees Busy");
    }
    assert_eq!(outcome.shards.len(), 2);
    for (i, (net, inproc)) in outcome.shards.iter().zip(&reference.shards).enumerate() {
        assert_eq!(
            net.result, inproc.result,
            "shard {i}: loopback result diverged from in-process serve"
        );
        let telemetry = |shard: &odbgc_engine::ShardOutcome| {
            run_document(&shard.policy, &shard.log)
                .strip_volatile()
                .to_string_pretty()
        };
        assert_eq!(
            telemetry(net),
            telemetry(inproc),
            "shard {i}: loopback telemetry diverged byte-wise"
        );
    }
    // Every connection (2 clients + 1 admin) closed cleanly and was
    // accounted.
    assert_eq!(outcome.clients.len(), 3);
    assert!(outcome.clients.iter().all(|c| c.clean_close));
    let total_ops: u64 = outcome.clients.iter().map(|c| c.ops).sum();
    assert_eq!(total_ops, 2 * OPS);
}

/// (2) Backpressure: at window 1, the second unacknowledged turn is
/// refused deterministically, counted, and applied after an Ack.
#[test]
fn window_of_one_rejects_unacked_turns() {
    let (addr, server) = spawn_server(net_config(1));
    let mut conn = Conn::connect(&addr).expect("connect");
    match conn
        .request(&Request::Hello {
            session: 0,
            window: 1,
        })
        .expect("hello")
    {
        Response::HelloOk { window: 1, .. } => {}
        other => panic!("want window 1 granted, got {other:?}"),
    }

    // Generate real turns so the refused turn is a turn the server
    // could have applied.
    let mut workload = SessionWorkload::new(0, WorkloadParams::default(), 64);
    let first = workload.next_turn(BATCH);
    let second = workload.next_turn(BATCH);

    match conn.request(&Request::Ops { ops: first }).expect("turn 1") {
        Response::OpsOk { in_flight: 1, .. } => {}
        other => panic!("want OpsOk in_flight=1, got {other:?}"),
    }
    // No Ack: the window is full, so the next turn must bounce.
    let refused = conn
        .request(&Request::Ops {
            ops: second.clone(),
        })
        .expect("turn 2 (refused)");
    match refused {
        Response::Busy {
            in_flight: 1,
            window: 1,
        } => {}
        other => panic!("want Busy at window 1, got {other:?}"),
    }
    // Return the credit; the same turn now applies.
    match conn.request(&Request::Ack { n: 1 }).expect("ack") {
        Response::AckOk { in_flight: 0 } => {}
        other => panic!("want AckOk in_flight=0, got {other:?}"),
    }
    match conn.request(&Request::Ops { ops: second }).expect("turn 2") {
        Response::OpsOk { in_flight: 1, .. } => {}
        other => panic!("want OpsOk after ack, got {other:?}"),
    }
    match conn.request(&Request::Bye).expect("bye") {
        Response::ByeOk => {}
        other => panic!("want ByeOk, got {other:?}"),
    }

    // The rejection is visible in the server's per-client counters.
    let mut admin = Conn::connect(&addr).expect("admin");
    let snap = match admin.request(&Request::Stats).expect("stats") {
        Response::StatsOk(snap) => snap,
        other => panic!("want StatsOk, got {other:?}"),
    };
    let c = snap
        .clients
        .iter()
        .find(|c| c.session == 0)
        .expect("closed client counters");
    assert_eq!(c.busy_rejections, 1, "exactly one queue-full rejection");
    assert_eq!(c.turns, 2, "both turns eventually applied");
    assert!(c.clean_close);
    match admin.request(&Request::Shutdown).expect("shutdown") {
        Response::ShutdownOk => {}
        other => panic!("want ShutdownOk, got {other:?}"),
    }
    let outcome = server.join().unwrap();
    assert_eq!(
        outcome
            .clients
            .iter()
            .map(|c| c.busy_rejections)
            .sum::<u64>(),
        1
    );
}

/// Rate 20 until its first collection finishes, then a panic in
/// `after_collection`: a failure from inside a real collection.
struct DiesAfterCollecting(FixedRatePolicy);

impl RatePolicy for DiesAfterCollecting {
    fn initial_trigger(&mut self) -> Trigger {
        self.0.initial_trigger()
    }

    fn after_collection(&mut self, obs: &CollectionObservation) -> Trigger {
        panic!("policy died after collection {}", obs.collection_index)
    }

    fn name(&self) -> String {
        self.0.name()
    }
}

/// (3a) Typed shard failure over the wire: shard 0's policy panics
/// inside its first collection; its client gets `ShardFailed` (not a
/// hang, not a dropped connection), while shard 1's client completes
/// everything. `Stats` reports what each shard's loop published: the
/// failure notice and the collection count the drain outcome later
/// confirms.
#[test]
fn gc_worker_death_is_a_typed_wire_error_and_other_shard_drains() {
    let server = NetServer::bind(
        "127.0.0.1:0",
        net_config(2),
        |shard| -> Box<dyn RatePolicy + Send> {
            match shard {
                0 => Box::new(DiesAfterCollecting(FixedRatePolicy::new(20))),
                _ => Box::new(FixedRatePolicy::new(20)),
            }
        },
    )
    .expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let server = std::thread::spawn(move || server.run());

    // Session 1 → shard 1: unaffected, must finish its whole budget.
    let healthy = {
        let config = client_config(&addr, 1);
        std::thread::spawn(move || run_client(&config).expect("healthy client"))
    };
    // Session 0 → shard 0: drive turns until the fault surfaces.
    let faulted = run_client(&client_config(&addr, 0));
    let err = faulted.expect_err("shard 0 client must hit the fault");
    match err {
        ClientError::Server { code, message } => {
            assert_eq!(code, ErrorCode::ShardFailed);
            assert!(
                message.contains("policy died after collection 0"),
                "{message}"
            );
        }
        other => panic!("want a typed server error, got {other}"),
    }

    let healthy_report = healthy.join().unwrap();
    assert_eq!(healthy_report.ops_applied, OPS);

    // A loop publishes after each collection drain and before it applies
    // the shard's next turn, so the reply to an empty turn on shard 1
    // means the drain behind session 1's last turn has been published.
    // Shard 0's notice was published before the turn that reported it.
    let mut probe = Conn::connect(&addr).expect("probe connect");
    probe
        .request(&Request::Hello {
            session: 1,
            window: 1,
        })
        .expect("hello");
    match probe
        .request(&Request::Ops { ops: Vec::new() })
        .expect("empty turn")
    {
        Response::OpsOk { applied: 0, .. } => {}
        other => panic!("want OpsOk for the empty turn, got {other:?}"),
    }
    let stats = match probe.request(&Request::Stats).expect("stats") {
        Response::StatsOk(snap) => snap.shards,
        other => panic!("want StatsOk, got {other:?}"),
    };
    match probe.request(&Request::Bye).expect("bye") {
        Response::ByeOk => {}
        other => panic!("want ByeOk, got {other:?}"),
    }

    shutdown(&addr);
    let outcome = server.join().unwrap();
    assert_eq!(
        outcome.shards[0].failed.as_deref(),
        Some("collection panicked: policy died after collection 0"),
        "shard 0 outcome records the panic payload"
    );
    assert!(outcome.shards[1].failed.is_none());
    assert_eq!(stats[0].failed, outcome.shards[0].failed);
    assert_eq!(stats[1].failed, None);
    assert!(stats[1].collections > 0, "rate-20 policy must collect");
    assert_eq!(
        stats[1].collections,
        outcome.shards[1].result.collection_count()
    );
}

/// (3b) Graceful drain: after shutdown, every acknowledged op is in the
/// shard results — the drain loses nothing — and new turns are refused
/// with a `Draining` error rather than silently dropped.
#[test]
fn drain_keeps_every_acknowledged_op_and_refuses_new_turns() {
    let (addr, server) = spawn_server(net_config(2));
    let reports: Vec<_> = (0..2u32)
        .map(|session| {
            let config = client_config(&addr, session);
            std::thread::spawn(move || run_client(&config).expect("client"))
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();
    let acked: u64 = reports.iter().map(|r| r.ops_applied).sum();
    assert_eq!(acked, 2 * OPS, "budgets complete exactly, no overshoot");

    // Open a connection, then shut down through another: the first must
    // be refused with Draining, not hung or dropped mid-protocol.
    let mut late = Conn::connect(&addr).expect("late client");
    match late
        .request(&Request::Hello {
            session: 0,
            window: 1,
        })
        .expect("hello")
    {
        Response::HelloOk { .. } => {}
        other => panic!("want HelloOk, got {other:?}"),
    }
    shutdown(&addr);
    let refused = late.request_raw(&Request::Ops {
        ops: vec![SessionOp::Create { size: 64, slots: 0 }],
    });
    match refused {
        Ok(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Draining),
        // The server may already have closed the socket; that is also a
        // refusal, not a silent drop.
        Err(ClientError::Proto(_)) => {}
        other => panic!("want Draining or closed socket, got {other:?}"),
    }

    let outcome = server.join().unwrap();
    let applied: u64 = outcome
        .shards
        .iter()
        .map(|s| s.result.events_replayed)
        .sum();
    assert_eq!(
        applied, acked,
        "every acknowledged op survived the drain, and nothing else"
    );
}

/// (4) A connection is bound once. A second `Hello` is refused and
/// changes nothing: the next turn runs on the first session's shard,
/// resolves against the first session's object table, keeps the credit
/// already spent, and is reported under the first session at drain. A
/// first `Hello` after the drain began is refused too.
#[test]
fn second_hello_is_refused_and_the_binding_is_kept() {
    let (addr, server) = spawn_server(net_config(2));
    let mut conn = Conn::connect(&addr).expect("connect");
    match conn
        .request(&Request::Hello {
            session: 0,
            window: 2,
        })
        .expect("hello")
    {
        Response::HelloOk {
            shard: 0,
            window: 2,
            ..
        } => {}
        other => panic!("want HelloOk on shard 0, got {other:?}"),
    }
    let create = vec![
        SessionOp::Create { size: 64, slots: 0 },
        SessionOp::AddRoot { obj: ObjRef(0) },
    ];
    match conn.request(&Request::Ops { ops: create }).expect("turn 1") {
        Response::OpsOk {
            applied: 2,
            created: 1,
            in_flight: 1,
            ..
        } => {}
        other => panic!("want OpsOk for the create turn, got {other:?}"),
    }

    // Session 1 lives on shard 1, whose store never minted ObjRef(0).
    match conn
        .request_raw(&Request::Hello {
            session: 1,
            window: 4,
        })
        .expect("second hello")
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("want a Protocol error for the second Hello, got {other:?}"),
    }
    let access = vec![SessionOp::Access { obj: ObjRef(0) }];
    match conn.request(&Request::Ops { ops: access }).expect("turn 2") {
        Response::OpsOk {
            applied: 1,
            in_flight: 2,
            ..
        } => {}
        other => panic!("want OpsOk on the original binding, got {other:?}"),
    }
    match conn.request(&Request::Bye).expect("bye") {
        Response::ByeOk => {}
        other => panic!("want ByeOk, got {other:?}"),
    }

    // Connected before the drain, first Hello after it: never HelloOk.
    let mut late = Conn::connect(&addr).expect("late connect");
    shutdown(&addr);
    match late.request_raw(&Request::Hello {
        session: 1,
        window: 1,
    }) {
        Ok(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Draining),
        // The drain may already have closed the socket.
        Err(ClientError::Proto(_)) => {}
        other => panic!("want Draining or closed socket, got {other:?}"),
    }

    let outcome = server.join().unwrap();
    assert_eq!(outcome.shards[0].result.events_replayed, 3);
    assert_eq!(outcome.shards[1].result.events_replayed, 0);
    let bound = outcome
        .clients
        .iter()
        .find(|c| c.turns > 0)
        .expect("the bound connection's counters");
    assert_eq!((bound.session, bound.turns, bound.ops), (0, 2, 3));
}

/// (5) A `Create` no store could honour, or a frame whose creates
/// declare more slots than it has bytes, is refused at the decoder: the
/// sender gets a `Protocol` error and loses its connection, nothing
/// reaches the shard, and the shard's other sessions never notice.
#[test]
fn hostile_create_is_a_protocol_error_and_the_shard_keeps_serving() {
    // One shard, served with the paper geometry (where a create of
    // `u32::MAX` bytes used to take the shard down).
    let (addr, server) = spawn_server(NetConfig {
        engine: EngineConfig::default(),
        ..net_config(1)
    });
    let hello = |conn: &mut Conn, session| match conn
        .request(&Request::Hello { session, window: 4 })
        .expect("hello")
    {
        Response::HelloOk { shard: 0, .. } => {}
        other => panic!("want HelloOk on shard 0, got {other:?}"),
    };
    let mut hostile = Conn::connect(&addr).expect("hostile connect");
    let mut bystander = Conn::connect(&addr).expect("bystander connect");
    hello(&mut hostile, 0);
    hello(&mut bystander, 1);

    let after_a_create = |size, slots| {
        vec![
            SessionOp::Create { size: 64, slots: 0 },
            SessionOp::Create { size, slots },
        ]
    };
    for ops in [
        after_a_create(u32::MAX, 0),
        after_a_create(64, u32::MAX),
        // Each create within bounds, but together they would take
        // 512 MiB of slot arena from a 5 KiB frame.
        vec![
            SessionOp::Create {
                size: 1,
                slots: MAX_CREATE_SLOTS
            };
            1024
        ],
    ] {
        let what = format!("{} op(s) ending in {:?}", ops.len(), ops[ops.len() - 1]);
        match hostile.request_raw(&Request::Ops { ops }) {
            Ok(Response::Error { code, message }) => {
                assert_eq!(code, ErrorCode::Protocol);
                assert!(message.contains("MAX_CREATE"), "{message}");
            }
            other => panic!("want a Protocol error for {what}, got {other:?}"),
        }
        // Closed after the error was flushed, like any undecodable frame.
        assert!(hostile.request_raw(&Request::Stats).is_err());
        hostile = Conn::connect(&addr).expect("hostile reconnect");
        hello(&mut hostile, 0);
    }

    let turn = vec![
        SessionOp::Create { size: 64, slots: 1 },
        SessionOp::AddRoot { obj: ObjRef(0) },
    ];
    match bystander
        .request(&Request::Ops { ops: turn })
        .expect("turn")
    {
        Response::OpsOk {
            applied: 2,
            created: 1,
            ..
        } => {}
        other => panic!("want OpsOk on the hostile sender's shard, got {other:?}"),
    }
    for conn in [&mut hostile, &mut bystander] {
        match conn.request(&Request::Bye).expect("bye") {
            Response::ByeOk => {}
            other => panic!("want ByeOk, got {other:?}"),
        }
    }
    shutdown(&addr);
    let outcome = server.join().unwrap();
    assert!(outcome.shards[0].failed.is_none());
    assert_eq!(
        outcome.shards[0].result.events_replayed, 2,
        "no op of a refused frame was applied"
    );
}

/// (6) A `Stats` reply fits a frame however many connections have come
/// and gone: it carries the most recent `STATS_MAX_CLIENTS` closed
/// connections, the drain report every one.
#[test]
fn stats_reply_is_bounded_after_many_closed_connections() {
    use std::io::Read;
    use std::net::{Shutdown, TcpStream};

    const DROPPED: usize = STATS_MAX_CLIENTS + 100;
    let (addr, server) = spawn_server(net_config(1));
    let mut live = Conn::connect(&addr).expect("live connect");
    match live
        .request(&Request::Hello {
            session: 0,
            window: 4,
        })
        .expect("hello")
    {
        Response::HelloOk { .. } => {}
        other => panic!("want HelloOk, got {other:?}"),
    }

    // Open and drop, never saying Hello. Waiting for the server's close
    // means each record is in place before the next connection opens (and
    // the server never holds more than two sockets).
    for i in 0..DROPPED {
        let mut peer = TcpStream::connect(&addr).expect("connect");
        peer.shutdown(Shutdown::Write).expect("half-close");
        let closed = peer.read(&mut [0u8; 1]);
        assert!(matches!(closed, Ok(0)), "connection {i}: {closed:?}");
    }

    match live.request(&Request::Stats).expect("stats reply decodes") {
        Response::StatsOk(snap) => {
            assert_eq!(snap.clients.len(), STATS_MAX_CLIENTS);
            assert!(snap.clients.iter().all(|c| c.session == u32::MAX));
        }
        other => panic!("want StatsOk, got {other:?}"),
    }
    let turn = vec![SessionOp::Create { size: 64, slots: 0 }];
    match live.request(&Request::Ops { ops: turn }).expect("turn") {
        Response::OpsOk { applied: 1, .. } => {}
        other => panic!("want OpsOk after the stats reply, got {other:?}"),
    }
    match live.request(&Request::Bye).expect("bye") {
        Response::ByeOk => {}
        other => panic!("want ByeOk, got {other:?}"),
    }
    shutdown(&addr);
    let outcome = server.join().unwrap();
    // The dropped peers, the live connection and the admin one.
    assert_eq!(outcome.clients.len(), DROPPED + 2);
}
