//! Acceptance tests for the readiness-driven event loop (ISSUE 10).
//!
//! Four guarantees pin the event loop to the blocking server it
//! replaced, and a fifth bounds what a connection can make it hold:
//!
//! 1. **Reassembly is split-agnostic** — a frame stream delivered with a
//!    break at *every* byte boundary (checked exhaustively, then under
//!    random chunkings) reassembles to exactly the bodies that were
//!    framed.
//! 2. **The connection state machine survives trickled input** — a
//!    client writing its frames one byte at a time still gets correct
//!    responses end to end.
//! 3. **Connection count scales past thread count** — 64 connections
//!    drain through a 2-thread loop pool with zero acknowledged-op loss
//!    and every close clean.
//! 4. **Idle costs nothing** — 64 parked connections produce zero poll
//!    timer ticks; the old accept/read sleep-polling is gone.
//! 5. **Unread replies are bounded** — a peer that pipelines requests
//!    and never reads is no longer read from once its unflushed replies
//!    pass a fixed bound; when it does read, every reply is there.
//! 6. **Drain always terminates** — a peer that never reads its replies
//!    is reaped after `idle_timeout` during a drain as at any other
//!    time, so `NetServer::run` returns; no other session loses an
//!    acknowledged op.
//!
//! Three more pin who owns a shard: the loop count (one per shard
//! unless capped), the move of a connection to its shard's loop with
//! whatever it pipelined behind its `Hello`, and what `gc_stall_ns`
//! measures now that a loop runs its shards' collections itself.

use std::io::{ErrorKind, Read, Write};
use std::time::{Duration, Instant};

use odbgc_core::FixedRatePolicy;
use odbgc_engine::{EngineConfig, SessionWorkload, WorkloadParams};
use odbgc_net::{
    frame_into, run_clients, ClientConfig, Conn, FrameAssembler, NetConfig, NetOutcome, NetServer,
    Request, Response,
};
use proptest::prelude::*;

fn net_config(shards: u32, net_threads: usize) -> NetConfig {
    NetConfig {
        engine: EngineConfig::tiny(),
        shards,
        net_threads,
        // Short enough that a hung test fails fast, long enough to never
        // fire during normal turns (or the idle window below).
        idle_timeout: Duration::from_secs(10),
        ..NetConfig::default()
    }
}

fn spawn_server(config: NetConfig) -> (String, std::thread::JoinHandle<NetOutcome>) {
    spawn_server_collecting_every(config, 20)
}

/// A server whose shards collect every `overwrites` pointer overwrites.
fn spawn_server_collecting_every(
    config: NetConfig,
    overwrites: u64,
) -> (String, std::thread::JoinHandle<NetOutcome>) {
    let server = NetServer::bind("127.0.0.1:0", config, |_| {
        Box::new(FixedRatePolicy::new(overwrites))
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    (addr, std::thread::spawn(move || server.run()))
}

fn shutdown(addr: &str) {
    let mut admin = Conn::connect(addr).expect("admin connect");
    match admin.request(&Request::Shutdown).expect("shutdown") {
        Response::ShutdownOk => {}
        other => panic!("want ShutdownOk, got {other:?}"),
    }
}

fn body_of(req: &Request) -> Vec<u8> {
    let mut body = Vec::new();
    req.encode_into(&mut body);
    body
}

/// One request as the bytes of its frame.
fn frame_of(req: &Request) -> Vec<u8> {
    let mut wire = Vec::new();
    frame_into(&mut wire, &body_of(req));
    wire
}

/// Blocks for the next frame body on a raw stream, reassembled by
/// `frames` (which keeps whatever arrives past it for the next call).
fn next_body(stream: &mut impl Read, frames: &mut FrameAssembler) -> Vec<u8> {
    let mut buf = [0u8; 4096];
    loop {
        if let Some(body) = frames.next_frame().expect("clean stream") {
            return body.to_vec();
        }
        let n = stream.read(&mut buf).expect("read");
        assert!(n > 0, "stream ended mid-frame");
        frames.extend(&buf[..n]);
    }
}

/// Blocks for the next response on a raw stream.
fn response(stream: &mut std::net::TcpStream, frames: &mut FrameAssembler) -> Response {
    Response::decode(&next_body(stream, frames)).expect("response decodes")
}

/// A realistic mixed frame stream: requests and responses a connection
/// actually carries, including an empty-ish admin frame and a turn of
/// generated ops.
fn sample_bodies() -> Vec<Vec<u8>> {
    let turn = SessionWorkload::new(0, WorkloadParams::default(), 32).next_turn(8);
    let response = |resp: Response| {
        let mut body = Vec::new();
        resp.encode_into(&mut body);
        body
    };
    vec![
        body_of(&Request::Hello {
            session: 7,
            window: 4,
        }),
        body_of(&Request::Ops { ops: turn }),
        body_of(&Request::Ack { n: 1 }),
        body_of(&Request::Stats),
        response(Response::HelloOk {
            session: 7,
            shard: 1,
            window: 4,
        }),
        response(Response::Error {
            code: odbgc_net::ErrorCode::Draining,
            message: "server is draining; no new turns".into(),
        }),
        body_of(&Request::Bye),
    ]
}

/// (1a) Exhaustive: split the whole wire stream at every byte boundary;
/// every split reassembles to the same frame bodies in the same order.
#[test]
fn every_byte_boundary_split_reassembles_exactly() {
    let bodies = sample_bodies();
    let mut wire = Vec::new();
    for body in &bodies {
        frame_into(&mut wire, body);
    }
    for split in 0..=wire.len() {
        let mut asm = FrameAssembler::new();
        let mut seen: Vec<Vec<u8>> = Vec::new();
        for part in [&wire[..split], &wire[split..]] {
            asm.extend(part);
            while let Some(frame) = asm.next_frame().expect("clean stream") {
                seen.push(frame.to_vec());
            }
        }
        assert_eq!(seen, bodies, "diverged when split at byte {split}");
        assert_eq!(asm.pending(), 0, "leftover bytes when split at {split}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (1b) Random chunkings: arbitrary frame bodies delivered in
    /// arbitrary-sized pieces reassemble to the original bodies.
    #[test]
    fn random_chunkings_reassemble(
        bodies in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200),
            1..8,
        ),
        chunks in proptest::collection::vec(1usize..17, 1..64),
    ) {
        let mut wire = Vec::new();
        for body in &bodies {
            frame_into(&mut wire, body);
        }
        let mut asm = FrameAssembler::new();
        let mut seen: Vec<Vec<u8>> = Vec::new();
        let mut pos = 0;
        let mut next_chunk = 0;
        while pos < wire.len() {
            let take = chunks[next_chunk % chunks.len()].min(wire.len() - pos);
            next_chunk += 1;
            asm.extend(&wire[pos..pos + take]);
            pos += take;
            while let Some(frame) = asm.next_frame().expect("clean stream") {
                seen.push(frame.to_vec());
            }
        }
        prop_assert_eq!(seen, bodies);
        prop_assert_eq!(asm.pending(), 0);
    }
}

/// (2) End to end at one byte per write: the per-connection state
/// machine reassembles trickled requests and responds correctly.
#[test]
fn byte_trickled_requests_are_served() {
    let (addr, server) = spawn_server(net_config(1, 1));
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    let mut frames = FrameAssembler::new();

    fn trickle(stream: &mut std::net::TcpStream, req: &Request) {
        for byte in &frame_of(req) {
            stream.write_all(std::slice::from_ref(byte)).unwrap();
            stream.flush().unwrap();
        }
    }

    trickle(
        &mut stream,
        &Request::Hello {
            session: 3,
            window: 2,
        },
    );
    match response(&mut stream, &mut frames) {
        Response::HelloOk { session: 3, .. } => {}
        other => panic!("want HelloOk, got {other:?}"),
    }

    let turn = SessionWorkload::new(3, WorkloadParams::default(), 16).next_turn(8);
    let turn_len = turn.len() as u64;
    trickle(&mut stream, &Request::Ops { ops: turn });
    match response(&mut stream, &mut frames) {
        Response::OpsOk { applied, .. } => assert_eq!(applied, turn_len),
        other => panic!("want OpsOk, got {other:?}"),
    }

    trickle(&mut stream, &Request::Bye);
    match response(&mut stream, &mut frames) {
        Response::ByeOk => {}
        other => panic!("want ByeOk, got {other:?}"),
    }
    drop(stream);

    shutdown(&addr);
    let outcome = server.join().unwrap();
    assert!(outcome.clients.iter().all(|c| c.clean_close));
}

const CONNS: u32 = 64;
const OPS_PER_CONN: u64 = 50;

/// (3) 64 connections over 2 loop threads: the full multiplexed load
/// drains with zero acknowledged-op loss and every close clean, and the
/// thread pool stays at its configured size regardless of connection
/// count.
#[test]
fn sixty_four_connections_drain_with_zero_acked_loss() {
    let (addr, server) = spawn_server(net_config(2, 2));
    let report = run_clients(
        &ClientConfig {
            addr,
            session: 0,
            ops: OPS_PER_CONN,
            batch: 8,
            window: 4,
            workload: WorkloadParams::default(),
            shutdown_after: true,
        },
        CONNS,
    )
    .expect("multi-client run");

    assert_eq!(report.reports.len(), CONNS as usize);
    let totals = report.totals();
    assert_eq!(
        totals.ops_applied,
        CONNS as u64 * OPS_PER_CONN,
        "every session completes its whole budget, exactly"
    );

    let outcome = server.join().unwrap();
    assert_eq!(
        outcome.loops.len(),
        2,
        "loop-thread count is fixed at bind, independent of connections"
    );
    assert_eq!(outcome.clients.len(), CONNS as usize);
    assert!(outcome.clients.iter().all(|c| c.clean_close));
    let applied: u64 = outcome
        .shards
        .iter()
        .map(|s| s.result.events_replayed)
        .sum();
    assert_eq!(
        applied, totals.ops_applied,
        "every acknowledged op survived the drain, and nothing else"
    );
}

/// (4) Idle is free: 64 parked connections for 300ms produce zero poll
/// timer ticks — the loops block on readiness, they do not sleep-poll.
#[test]
fn idle_connections_never_tick() {
    let (addr, server) = spawn_server(net_config(1, 2));
    let mut conns: Vec<Conn> = (0..CONNS)
        .map(|i| {
            let mut conn = Conn::connect(&addr).expect("connect");
            match conn
                .request(&Request::Hello {
                    session: i,
                    window: 1,
                })
                .expect("hello")
            {
                Response::HelloOk { .. } => conn,
                other => panic!("want HelloOk, got {other:?}"),
            }
        })
        .collect();

    std::thread::sleep(Duration::from_millis(300));

    for conn in conns.iter_mut() {
        match conn.request(&Request::Bye).expect("bye") {
            Response::ByeOk => {}
            other => panic!("want ByeOk, got {other:?}"),
        }
    }
    drop(conns);
    shutdown(&addr);
    let outcome = server.join().unwrap();

    assert_eq!(
        outcome.loops.iter().map(|l| l.accepted).sum::<u64>(),
        CONNS as u64 + 1, // + the admin connection
    );
    if cfg!(unix) {
        // The real poll(2) path: the only timer is the 10s idle
        // deadline, which never fires here. The non-unix emulation
        // tick-polls by design and is exempt.
        assert_eq!(
            outcome.loops.iter().map(|l| l.timeouts).sum::<u64>(),
            0,
            "an idle server must not wake up: {:?}",
            outcome.loops
        );
    }
}

/// (5) A peer that writes requests and never reads its replies: once
/// the server holds more than its fixed bound of unflushed output for
/// the connection it stops reading from it, so the peer's writes stall
/// within a fixed byte budget instead of growing the server's buffer
/// for as long as the peer cares to write. When the peer then reads,
/// every reply comes back, intact and in order.
#[test]
fn unread_replies_stall_the_peer_within_a_byte_budget() {
    // Far above what the bound plus both directions' kernel buffers
    // hold; a server that keeps reading takes all of it.
    const BUDGET: usize = 64 << 20;

    let (addr, server) = spawn_server(net_config(1, 1));
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    // A write that moves nothing for this long reports `WouldBlock`:
    // the non-blocking answer, minus the moments the server is merely
    // behind.
    stream
        .set_write_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let frame = frame_of(&Request::Stats);
    let chunk = frame.repeat(4096);
    let mut written = 0usize;
    loop {
        assert!(
            written < BUDGET,
            "the server read {written} bytes of requests while none of its replies were read"
        );
        // `chunk` is whole frames, so resuming at this offset keeps the
        // stream frame-aligned after a partial write.
        match stream.write(&chunk[written % chunk.len()..]) {
            Ok(n) => written += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
            Err(e) => panic!("write: {e}"),
        }
    }

    let mut replies = stream.try_clone().unwrap();
    let mut frames = FrameAssembler::new();
    let first = next_body(&mut replies, &mut frames);
    match Response::decode(&first).expect("reply decodes") {
        Response::StatsOk(snap) => assert_eq!(snap.shards.len(), 1),
        other => panic!("want StatsOk, got {other:?}"),
    }
    let whole = written / frame.len();
    for i in 1..whole {
        assert_eq!(
            next_body(&mut replies, &mut frames),
            first,
            "reply {i} of {whole}"
        );
    }
    // Finish the request the stall cut short; its reply and a clean
    // goodbye show the connection is in step.
    let cut = written % frame.len();
    if cut > 0 {
        stream.write_all(&frame[cut..]).unwrap();
        assert_eq!(next_body(&mut replies, &mut frames), first, "last reply");
    }
    stream.write_all(&frame_of(&Request::Bye)).unwrap();
    let bye = next_body(&mut replies, &mut frames);
    assert_eq!(Response::decode(&bye).unwrap(), Response::ByeOk);
    drop((replies, stream));

    shutdown(&addr);
    let outcome = server.join().unwrap();
    assert!(outcome.clients.iter().all(|c| c.clean_close));
}

/// (6) A peer fills its window, keeps writing requests, and never reads
/// a reply, so the server is left holding replies it cannot flush. A
/// `Shutdown` from another connection must still end `run`: the stalled
/// connection is reaped `idle_timeout` after its last byte moved and
/// recorded unclean, while every other session's acknowledged ops are
/// all in the shard results.
#[test]
fn drain_terminates_when_a_peer_never_reads() {
    const IDLE: Duration = Duration::from_secs(2);
    const STALLED: u32 = 99;
    const WINDOW: u32 = 4;

    let (addr, server) = spawn_server(NetConfig {
        idle_timeout: IDLE,
        ..net_config(2, 2)
    });

    // Well-behaved sessions first; their closed-connection counters
    // also make each `Stats` reply below a few hundred bytes.
    let report = run_clients(
        &ClientConfig {
            addr: addr.clone(),
            session: 0,
            ops: OPS_PER_CONN,
            batch: 8,
            window: 4,
            workload: WorkloadParams::default(),
            shutdown_after: false,
        },
        8,
    )
    .expect("multi-client run");

    let mut stalled = std::net::TcpStream::connect(&addr).expect("connect");
    stalled.set_nodelay(true).unwrap();
    // A write that moves nothing for this long (well under IDLE) means
    // the server has stopped reading: its replies are backed up.
    stalled
        .set_write_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    let mut wire = frame_of(&Request::Hello {
        session: STALLED,
        window: WINDOW,
    });
    let mut workload = SessionWorkload::new(STALLED, WorkloadParams::default(), 1_000);
    let mut stalled_ops = 0;
    for _ in 0..WINDOW {
        let ops = workload.next_turn(8);
        stalled_ops += ops.len() as u64;
        wire.extend(frame_of(&Request::Ops { ops }));
    }
    stalled
        .write_all(&wire)
        .expect("hello and a window of turns");
    let chunk = frame_of(&Request::Stats).repeat(4096);
    let mut written = 0usize;
    loop {
        assert!(written < 64 << 20, "the server never stopped reading");
        match stalled.write(&chunk[written % chunk.len()..]) {
            Ok(n) => written += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
            Err(e) => panic!("write: {e}"),
        }
    }

    shutdown(&addr);
    let asked = Instant::now();
    let (done, outcome) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(server.join().unwrap()));
    let outcome = outcome
        .recv_timeout(IDLE + Duration::from_secs(8))
        .expect("the drain must not wait forever on a peer that never reads");
    assert!(
        asked.elapsed() >= IDLE / 4,
        "the stalled peer was given its idle allowance: {:?}",
        asked.elapsed()
    );
    // Held open until here: the server saw a silent peer, not a reset.
    drop(stalled);

    let by_session = |session: u32| {
        let mut found = outcome.clients.iter().filter(|c| c.session == session);
        let counters = found.next().expect("session has counters");
        assert!(found.next().is_none(), "one connection per session");
        counters
    };
    let reaped = by_session(STALLED);
    assert!(!reaped.clean_close, "a reaped connection is unclean");
    assert_eq!(reaped.turns, WINDOW as u64);
    assert_eq!(reaped.ops, stalled_ops);
    for (session, acked) in report.reports.iter().enumerate() {
        let counters = by_session(session as u32);
        assert!(counters.clean_close);
        assert_eq!(counters.ops, acked.ops_applied, "session {session}");
    }
    let applied: u64 = outcome
        .shards
        .iter()
        .map(|s| s.result.events_replayed)
        .sum();
    assert_eq!(
        applied,
        report.totals().ops_applied + stalled_ops,
        "every acknowledged op survived the drain, and nothing else"
    );
}

/// (7) Loop census: one loop per shard by default, `net_threads` caps
/// the count at the shard count, and a loop that owns two shards applies
/// each one's turns to that shard.
#[test]
fn one_loop_per_shard_unless_capped() {
    let loops = |shards, net_threads| {
        let (addr, server) = spawn_server(net_config(shards, net_threads));
        shutdown(&addr);
        server.join().unwrap().loops.len()
    };
    assert_eq!(loops(3, 0), 3);
    assert_eq!(loops(2, 8), 2);

    let (addr, server) = spawn_server(net_config(2, 1));
    let report = run_clients(
        &ClientConfig {
            addr,
            session: 0,
            ops: OPS_PER_CONN,
            batch: 8,
            window: 4,
            workload: WorkloadParams::default(),
            shutdown_after: true,
        },
        2,
    )
    .expect("multi-client run");
    let outcome = server.join().unwrap();
    assert_eq!(outcome.loops.len(), 1);
    // Connection `i` drives session `i`, which lives on shard `i`.
    for (i, (shard, acked)) in outcome.shards.iter().zip(&report.reports).enumerate() {
        assert_eq!(acked.ops_applied, OPS_PER_CONN, "session {i}");
        assert_eq!(shard.result.events_replayed, acked.ops_applied, "shard {i}");
    }
}

/// (8) A `Hello` for a shard loop 0 does not own moves the connection to
/// the owning loop together with the turns pipelined behind it in the
/// same write: the replies come back in order and every op lands on the
/// named session's shard.
#[test]
fn hello_hands_pipelined_turns_to_the_owning_loop() {
    let (addr, server) = spawn_server(net_config(2, 0));
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let mut workload = SessionWorkload::new(1, WorkloadParams::default(), 64);
    let mut wire = frame_of(&Request::Hello {
        session: 1,
        window: 4,
    });
    let mut sent = 0;
    for _ in 0..2 {
        let ops = workload.next_turn(8);
        sent += ops.len() as u64;
        wire.extend(frame_of(&Request::Ops { ops }));
    }
    stream.write_all(&wire).expect("one write");

    let mut frames = FrameAssembler::new();
    match response(&mut stream, &mut frames) {
        Response::HelloOk {
            session: 1,
            shard: 1,
            ..
        } => {}
        other => panic!("want HelloOk on shard 1, got {other:?}"),
    }
    for turn in 1..=2 {
        match response(&mut stream, &mut frames) {
            Response::OpsOk { in_flight, .. } => assert_eq!(in_flight, turn),
            other => panic!("want OpsOk for turn {turn}, got {other:?}"),
        }
    }
    stream.write_all(&frame_of(&Request::Bye)).unwrap();
    assert_eq!(response(&mut stream, &mut frames), Response::ByeOk);
    drop(stream);

    shutdown(&addr);
    let outcome = server.join().unwrap();
    assert_eq!(outcome.shards[1].result.events_replayed, sent);
    assert_eq!(outcome.shards[0].result.events_replayed, 0);
    // Loop 0 accepted both connections and decoded the Hello and the
    // Shutdown; shard 1's loop decoded the two turns and the Bye.
    assert_eq!(outcome.loops[0].accepted, 2);
    assert_eq!(outcome.loops[0].frames_in, 2);
    assert_eq!(outcome.loops[1].frames_in, 3);
    assert!(outcome.clients.iter().all(|c| c.clean_close));
}

/// (9) `gc_stall_ns` is the collection time a turn's loop spent since
/// the connection's previous turn reply: exactly zero when the shard
/// never collects, positive when it collects after almost every turn,
/// and zero on the first turn after `Hello`.
#[test]
fn gc_stall_is_the_loops_collection_time_between_turns() {
    let lockstep_stalls = |overwrites| {
        let (addr, server) = spawn_server_collecting_every(net_config(1, 0), overwrites);
        let mut conn = Conn::connect(&addr).expect("connect");
        match conn
            .request(&Request::Hello {
                session: 0,
                window: 1,
            })
            .expect("hello")
        {
            Response::HelloOk { .. } => {}
            other => panic!("want HelloOk, got {other:?}"),
        }
        let mut workload = SessionWorkload::new(0, WorkloadParams::default(), 400);
        let mut stalls = Vec::new();
        loop {
            let ops = workload.next_turn(8);
            if ops.is_empty() {
                break;
            }
            match conn.request(&Request::Ops { ops }).expect("turn") {
                Response::OpsOk { gc_stall_ns, .. } => stalls.push(gc_stall_ns),
                other => panic!("want OpsOk, got {other:?}"),
            }
            match conn.request(&Request::Ack { n: 1 }).expect("ack") {
                Response::AckOk { in_flight: 0 } => {}
                other => panic!("want AckOk, got {other:?}"),
            }
        }
        assert_eq!(conn.request(&Request::Bye).expect("bye"), Response::ByeOk);
        shutdown(&addr);
        let outcome = server.join().unwrap();
        (stalls, outcome.shards[0].result.collection_count())
    };

    let (never, collections) = lockstep_stalls(1_000_000_000);
    assert_eq!(collections, 0);
    assert_eq!(never.iter().sum::<u64>(), 0, "{never:?}");

    let (always, collections) = lockstep_stalls(1);
    assert!(collections > 0);
    assert_eq!(always[0], 0, "the first turn after Hello");
    assert!(always.iter().sum::<u64>() > 0, "{always:?}");
}
