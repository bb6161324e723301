//! Fault injection against the networked server: replica death, slow
//! replicas, mid-request shutdown — with tracing enabled, so the failure
//! paths also prove the trace trees still reconstruct.
//!
//! The invariants under test, per failure mode:
//!
//! * **Replica death** — every successful response stays bitwise-correct
//!   (re-routing never mixes up slots or serves stale weights), the error
//!   responses are bounded and typed, and the killed replica's thread is
//!   joined.
//! * **Slow replica** — an injected dispatch latency above the request
//!   deadline produces timely `DeadlineExpired` errors, not hangs.
//! * **Shutdown** — dropping the server mid-traffic yields clean typed
//!   connection errors on the client and leaks no threads.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use common::{guard, live_threads, sess, session_pool, ToyModel};
use embsr_net::{NetClient, NetError, Server, ServerConfig};
use embsr_obs::trace::{self, SpanRecord};
use embsr_obs::{MemorySink, Stopwatch};
use embsr_serve::{EngineConfig, FrozenModel, ScoreBatch, SubmitOptions};
use embsr_sessions::Session;

const NUM_ITEMS: usize = 24;

fn start_server(replicas: usize, seed: u64) -> (Server, FrozenModel<ToyModel>) {
    let frozen = FrozenModel::freeze(ToyModel::new(NUM_ITEMS, seed), 16);
    let server = Server::start(
        &frozen,
        move || ToyModel::new(NUM_ITEMS, seed),
        ServerConfig {
            replicas,
            dispatchers: 2,
            engine: EngineConfig {
                workers: 1,
                max_batch: 16,
                flush_deadline_us: 200,
                ..EngineConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    (server, frozen)
}

fn assert_bitwise(expected: &[Vec<f32>], got: &[Vec<f32>], what: &str) {
    assert_eq!(expected.len(), got.len(), "{what}: row count");
    for (e, g) in expected.iter().zip(got) {
        assert_eq!(e.len(), g.len(), "{what}: row width");
        for (a, b) in e.iter().zip(g) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} != {b}");
        }
    }
}

#[test]
fn replica_death_mid_load_reroutes_with_zero_wrong_answers() {
    let _g = guard();
    let mem = MemorySink::new();
    embsr_obs::add_sink(Arc::new(mem.clone()));
    trace::set_enabled(true);

    let (server, frozen) = start_server(3, 7);
    let sessions = session_pool(120, NUM_ITEMS as u32, 3);
    // Expected answers are computed in-process up front (the frozen model
    // is not Sync; the client threads only compare).
    // One client thread's schedule: (request batch, expected score rows).
    type Round = (Vec<Session>, Vec<Vec<f32>>);
    let plan: Vec<Vec<Round>> = (0..4usize)
        .map(|t| {
            (0..10usize)
                .map(|round| {
                    let base = (t * 10 + round) * 3 % (sessions.len() - 3);
                    let batch: Vec<Session> = sessions[base..base + 3].to_vec();
                    let expected = frozen.score_batch(&batch);
                    (batch, expected)
                })
                .collect()
        })
        .collect();
    let wrong = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let oks = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for rounds in plan.iter() {
            let server = &server;
            let wrong = &wrong;
            let errors = &errors;
            let oks = &oks;
            scope.spawn(move || {
                let client = NetClient::connect(server.addr()).expect("connect");
                for (batch, expected) in rounds {
                    let batch = batch.clone();
                    match client.score(
                        &ScoreBatch { sessions: batch },
                        SubmitOptions::default(),
                    ) {
                        Ok(resp) => {
                            oks.fetch_add(1, Ordering::Relaxed);
                            for (e, g) in expected.iter().zip(&resp.scores) {
                                for (a, b) in e.iter().zip(g) {
                                    if a.to_bits() != b.to_bits() {
                                        wrong.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            }
                        }
                        // A request caught mid-kill may fail; it must fail
                        // *typed*, and never with a wrong answer.
                        Err(NetError::Unavailable(_)) | Err(NetError::DeadlineExpired { .. }) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(other) => panic!("unexpected error class: {other}"),
                    }
                }
            });
        }
        // Kill a replica while the clients above are mid-flight.
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(server.kill_replica(1), "replica 1 exists");
    });

    trace::set_enabled(false);
    embsr_obs::clear_sinks();

    assert_eq!(wrong.load(Ordering::Relaxed), 0, "zero wrong answers");
    let errs = errors.load(Ordering::Relaxed);
    let total = 4 * 10;
    assert_eq!(oks.load(Ordering::Relaxed) + errs, total, "every request answered");
    assert!(errs <= total / 2, "errors stay bounded under one replica death: {errs}");

    // Post-kill traffic (now over 2 replicas) still scores bitwise.
    let client = NetClient::connect(server.addr()).expect("connect");
    let batch: Vec<Session> = sessions[..5].to_vec();
    let expected = frozen.score_batch(&batch);
    let resp = client
        .score(&ScoreBatch { sessions: batch }, SubmitOptions::default())
        .expect("survivors serve");
    assert_bitwise(&expected, &resp.scores, "post-kill batch");

    let stats = server.stats();
    assert_eq!(stats.bad_requests, 0);
    server.shutdown();

    // The traced run — kill included — must still reconstruct into legal
    // span trees, one per networked request, rooted client-side.
    let records: Vec<SpanRecord> = mem
        .lines()
        .iter()
        .filter_map(|l| trace::validate_line(l).expect("schema-legal lines"))
        .collect();
    let trees = trace::build_trees(&records).expect("tree invariants hold under faults");
    let net_roots = trees
        .iter()
        .filter(|t| t.root().name == "net_request")
        .count();
    assert_eq!(net_roots as u64, total, "one tree per networked request");
    // The server's work nests under the client's root via the wire-borne
    // TraceCtx — the cross-process propagation invariant.
    let nested = trees
        .iter()
        .filter(|t| t.root().name == "net_request")
        .filter(|t| t.spans.iter().any(|s| s.name == "server_request"))
        .count();
    assert_eq!(nested as u64, total, "server spans join the client trace");
}

#[test]
fn slow_replica_yields_deadline_expiry_not_hangs() {
    let _g = guard();
    let (server, _frozen) = start_server(2, 11);

    // Find session ids that deterministically shard to each replica.
    let alive = [true, true];
    let to_replica = |want: usize| -> Session {
        let mut id = 1u64;
        loop {
            if embsr_net::shard::route(id, &alive) == Some(want) {
                return sess(id, &[1, 2, 3]);
            }
            id += 1;
        }
    };

    server.set_replica_delay_us(0, 50_000);
    let deadline = SubmitOptions {
        deadline_us: 5_000,
        shed: true,
    };

    let client = NetClient::connect(server.addr()).expect("connect");
    let watch = Stopwatch::start();

    // The slow replica's sessions expire...
    let slow = client.score(
        &ScoreBatch {
            sessions: vec![to_replica(0)],
        },
        deadline,
    );
    match slow {
        Err(NetError::DeadlineExpired { waited_us }) => {
            assert!(waited_us >= 5_000, "expiry reports the real wait");
        }
        other => panic!("slow replica must expire the deadline, got {other:?}"),
    }
    // ...and do so in bounded time (injected delay + slack), not by hanging.
    assert!(
        watch.elapsed_us() < 5_000_000,
        "deadline expiry must be timely"
    );

    // The healthy replica is unaffected.
    let fast = client.score(
        &ScoreBatch {
            sessions: vec![to_replica(1)],
        },
        deadline,
    );
    assert!(fast.is_ok(), "healthy replica still serves: {fast:?}");

    // Clearing the fault heals the slow replica.
    server.set_replica_delay_us(0, 0);
    let healed = client.score(
        &ScoreBatch {
            sessions: vec![to_replica(0)],
        },
        deadline,
    );
    assert!(healed.is_ok(), "healed replica serves again: {healed:?}");

    let stats = server.stats();
    assert!(stats.deadline_expired >= 1, "expiry was accounted");
    server.shutdown();
}

#[test]
fn server_drop_mid_request_is_a_clean_connection_error() {
    let _g = guard();
    let (server, _frozen) = start_server(2, 5);
    let addr = server.addr();

    let client = NetClient::connect(addr).expect("connect");
    // Prove the connection works, then tear the server down under it.
    client
        .score(
            &ScoreBatch {
                sessions: vec![sess(9, &[1, 2])],
            },
            SubmitOptions::default(),
        )
        .expect("pre-shutdown request succeeds");

    server.shutdown();

    // The dropped connection surfaces as a typed error — closed, reset, or
    // refused depending on where teardown caught it — never a hang or panic.
    let watch = Stopwatch::start();
    let after = client.score(
        &ScoreBatch {
            sessions: vec![sess(10, &[3])],
        },
        SubmitOptions::default(),
    );
    assert!(after.is_err(), "requests after shutdown must fail");
    assert!(
        watch.elapsed_us() < 10_000_000,
        "failure must be prompt, not a stall"
    );

    // Fresh connections are refused outright.
    assert!(NetClient::connect(addr).is_err(), "listener is gone");
}

#[test]
fn shutdown_joins_every_thread_no_leaks() {
    let _g = guard();
    let before = live_threads();
    for round in 0..3 {
        let (server, frozen) = start_server(3, 13 + round);
        let sessions = session_pool(12, NUM_ITEMS as u32, round);
        let client = NetClient::connect(server.addr()).expect("connect");
        let expected = frozen.score_batch(&sessions[..4]);
        let resp = client
            .score(
                &ScoreBatch {
                    sessions: sessions[..4].to_vec(),
                },
                SubmitOptions::default(),
            )
            .expect("serves");
        assert_bitwise(&expected, &resp.scores, "pre-shutdown batch");
        // Mix a kill into odd rounds so the kill path's join is covered too.
        if round % 2 == 1 {
            server.kill_replica(0);
        }
        server.shutdown();
    }
    // Accept/replica/dispatcher/handler threads are all joined by
    // shutdown(); three full server lifecycles must leave the process at
    // its baseline thread count (small slack for the test runtime itself).
    let after = live_threads();
    assert!(
        after <= before + 1,
        "thread leak: {before} before, {after} after three server lifecycles"
    );
}
