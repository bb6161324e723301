//! Admission-control behavior under saturation: bounded engine queues
//! refuse shedding work with typed `Overloaded` errors (never silent
//! drops), the client- and server-side rejection accounting reconciles
//! exactly, retry-with-backoff recovers once load subsides, and the control
//! plane still answers promptly while the data plane is saturated.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use common::{guard, sess, session_pool, ToyModel};
use embsr_net::{NetClient, NetError, RetryPolicy, Server, ServerConfig};
use embsr_obs::Stopwatch;
use embsr_serve::{EngineConfig, FrozenModel, ScoreBatch, SubmitOptions};

const NUM_ITEMS: usize = 16;

/// A deliberately tiny server: one replica whose one worker scores one
/// session per batch, in front of a `queue_cap`-session engine queue — so
/// saturation is deterministic, not statistical.
fn tiny_server(seed: u64, queue_cap: usize) -> Server {
    let frozen = FrozenModel::freeze(ToyModel::new(NUM_ITEMS, seed), 16);
    Server::start(
        &frozen,
        move || ToyModel::new(NUM_ITEMS, seed),
        ServerConfig {
            replicas: 1,
            engine: EngineConfig {
                workers: 1,
                max_batch: 1,
                flush_deadline_us: 100,
                queue_cap,
                ..EngineConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("server starts")
}

#[test]
fn saturation_yields_overloaded_never_silent_drops() {
    let _g = guard();
    let server = tiny_server(3, 1);
    // Every scored batch crawls, so the one-slot queue stays full while the
    // shedding clients hammer it.
    server.set_replica_delay_us(0, 30_000);

    let sessions = session_pool(32, NUM_ITEMS as u32, 9);
    let oks = AtomicU64::new(0);
    let overloaded = AtomicU64::new(0);
    let n_clients = 4usize;
    let per_client = 8usize;

    std::thread::scope(|scope| {
        for c in 0..n_clients {
            let server = &server;
            let sessions = &sessions;
            let oks = &oks;
            let overloaded = &overloaded;
            scope.spawn(move || {
                let client = NetClient::connect(server.addr()).expect("connect");
                for r in 0..per_client {
                    let s = sessions[(c * per_client + r) % sessions.len()].clone();
                    match client.score(
                        &ScoreBatch { sessions: vec![s] },
                        SubmitOptions {
                            deadline_us: 0,
                            shed: true,
                        },
                    ) {
                        Ok(_) => {
                            oks.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(NetError::Overloaded { queued, cap }) => {
                            assert_eq!(cap, 1, "the configured admission cap rides the error");
                            assert!(queued >= cap, "rejection reports a full queue");
                            overloaded.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(other) => panic!("unexpected error under saturation: {other}"),
                    }
                }
            });
        }
    });

    let total = (n_clients * per_client) as u64;
    let oks = oks.load(Ordering::Relaxed);
    let rejected = overloaded.load(Ordering::Relaxed);
    // No silent drops: every request resolved to scores or a typed refusal.
    assert_eq!(oks + rejected, total, "every request answered");
    assert!(rejected > 0, "the one-slot queue must have refused something");
    assert!(oks > 0, "admitted work still completes under overload");

    let stats = server.stats();
    assert_eq!(stats.completed, oks, "server-side completion accounting");
    assert_eq!(stats.rejected, rejected, "server-side rejection accounting");
    server.shutdown();
}

#[test]
fn client_observed_rejections_match_server_counters_exactly() {
    let _g = guard();
    let server = tiny_server(5, 1);
    server.set_replica_delay_us(0, 20_000);

    let sessions = session_pool(16, NUM_ITEMS as u32, 2);
    let client_seen = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for c in 0..3usize {
            let server = &server;
            let sessions = &sessions;
            let client_seen = &client_seen;
            scope.spawn(move || {
                let client = NetClient::connect(server.addr()).expect("connect");
                for r in 0..6usize {
                    let s = sessions[(c * 6 + r) % sessions.len()].clone();
                    let _ = client.score(
                        &ScoreBatch { sessions: vec![s] },
                        SubmitOptions {
                            deadline_us: 0,
                            shed: true,
                        },
                    );
                }
                client_seen.fetch_add(client.overloaded_seen(), Ordering::Relaxed);
            });
        }
    });

    // One-for-one: every `Overloaded` the server accounted was observed by
    // exactly one client, and vice versa.
    assert_eq!(
        client_seen.load(Ordering::Relaxed),
        server.stats().rejected,
        "client- and server-side rejection accounting reconcile"
    );
    server.shutdown();
}

#[test]
fn backoff_retry_succeeds_once_load_subsides() {
    let _g = guard();
    let server = tiny_server(7, 1);
    // Phase 1 — build deterministic saturation: the worker is pinned on a
    // 200ms batch (A) and the one-slot queue holds another (B).
    server.set_replica_delay_us(0, 200_000);
    let addr = server.addr();

    std::thread::scope(|scope| {
        for blocker in 0..2u64 {
            scope.spawn(move || {
                let client = NetClient::connect(addr).expect("connect");
                // Non-shedding: these occupy the worker + queue slot.
                let resp = client.score(
                    &ScoreBatch {
                        sessions: vec![sess(blocker, &[1, 2])],
                    },
                    SubmitOptions::default(),
                );
                assert!(resp.is_ok(), "blockers eventually complete: {resp:?}");
            });
        }
        // Let A reach the worker and B the queue before contending.
        std::thread::sleep(Duration::from_millis(60));

        // Phase 2 — a shedding client retries with backoff. Its first
        // attempts land on the full queue (Overloaded); as A and B drain,
        // a retry is admitted and succeeds.
        let client = NetClient::connect(addr).expect("connect");
        let policy = RetryPolicy {
            max_retries: 200,
            base_backoff_us: 2_000,
            max_backoff_us: 20_000,
        };
        let (resp, attempts) = client
            .score_with_retry(
                &ScoreBatch {
                    sessions: vec![sess(99, &[3, 4])],
                },
                SubmitOptions {
                    deadline_us: 0,
                    shed: true,
                },
                &policy,
            )
            .expect("retry converges once load subsides");
        assert_eq!(resp.scores.len(), 1);
        assert!(attempts >= 1, "the saturated first attempt was refused");
        assert!(client.overloaded_seen() >= 1, "rejections were observed");
        assert_eq!(client.retries(), u64::from(attempts), "retry accounting");

        // Drop the injected latency so the blockers finish promptly.
        server.set_replica_delay_us(0, 0);
    });

    let stats = server.stats();
    assert!(stats.rejected >= 1, "server accounted the refusals");
    assert_eq!(stats.completed, 3, "both blockers and the retrier completed");
    server.shutdown();
}

#[test]
fn control_answers_promptly_while_the_data_plane_is_saturated() {
    let _g = guard();
    let server = tiny_server(11, 1);
    // The lone worker takes 200ms per session, so three blocking requests
    // keep it busy for 600ms: one scoring, two queued behind it.
    server.set_replica_delay_us(0, 200_000);
    let addr = server.addr();
    let control = NetClient::connect(addr).expect("control connect");

    std::thread::scope(|scope| {
        for blocker in 0..3u64 {
            scope.spawn(move || {
                let client = NetClient::connect(addr).expect("connect");
                let resp = client.score(
                    &ScoreBatch {
                        sessions: vec![sess(blocker, &[1, 2])],
                    },
                    SubmitOptions::default(),
                );
                assert!(resp.is_ok(), "blockers eventually complete: {resp:?}");
            });
        }
        // Let the blockers reach the engine before probing.
        std::thread::sleep(Duration::from_millis(50));

        let watch = Stopwatch::start();
        let status = control.status().expect("status under saturation");
        let waited_us = watch.elapsed_us();
        assert_eq!(status.replicas.len(), 1);
        assert_eq!(status.replicas[0].active_version, 1);
        assert!(
            waited_us < 50_000,
            "status waited {waited_us}us behind data-plane work"
        );
        server.set_replica_delay_us(0, 0);
    });

    let stats = server.stats();
    assert_eq!(stats.completed, 4, "three blockers and the status probe");
    assert_eq!(stats.control, 1);
    server.shutdown();
}
