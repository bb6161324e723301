//! Zero-downtime snapshot hot-swap over the wire: the protocol-v2 control
//! plane stages a new `EMBSRSNP` snapshot into every replica and flips
//! scoring atomically, without draining in-flight traffic.
//!
//! The invariants under test:
//!
//! * **No drain, no lies** — under continuous load spanning a
//!   `LoadSnapshot` + `Activate`, every response is bitwise-correct for
//!   the version its `model_version` tag claims, with zero failures, and
//!   both versions' tags are observed. The traced run still reconstructs
//!   into one legal span tree per request.
//! * **Rejection stays healthy** — malformed, wrong-layout, and unknown
//!   versions are refused with typed errors while scoring continues on
//!   the active version.
//! * **Status** — the staged/active lifecycle is observable over the wire
//!   for every replica.
//! * **Cache coherence** — a warm session-repr cache never serves reprs
//!   from the pre-swap version.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use common::{guard, sess, session_pool, ToyModel};
use embsr_net::{NetClient, NetError, Server, ServerConfig};
use embsr_obs::trace::{self, SpanRecord};
use embsr_obs::MemorySink;
use embsr_serve::snapshot::encode_snapshot;
use embsr_serve::{EngineConfig, FrozenModel, ScoreBatch, SubmitOptions};
use embsr_sessions::Session;

const NUM_ITEMS: usize = 24;

fn start_server(replicas: usize, seed: u64, repr_cache: usize) -> (Server, FrozenModel<ToyModel>) {
    let frozen = FrozenModel::freeze(ToyModel::new(NUM_ITEMS, seed), 16);
    let server = Server::start(
        &frozen,
        move || ToyModel::new(NUM_ITEMS, seed),
        ServerConfig {
            replicas,
            engine: EngineConfig {
                workers: 1,
                max_batch: 16,
                flush_deadline_us: 200,
                repr_cache,
                ..EngineConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    (server, frozen)
}

/// Wire-format snapshot bytes for a fresh toy model at `seed`, plus its
/// frozen twin for computing expected scores in-process.
fn snapshot_for(seed: u64) -> (Vec<u8>, FrozenModel<ToyModel>) {
    let frozen = FrozenModel::freeze(ToyModel::new(NUM_ITEMS, seed), 16);
    let bytes = encode_snapshot(frozen.snapshot(), frozen.max_session_len(), frozen.precision());
    (bytes, frozen)
}

fn rows_match(expected: &[Vec<f32>], got: &[Vec<f32>]) -> bool {
    expected.len() == got.len()
        && expected.iter().zip(got).all(|(e, g)| {
            e.len() == g.len() && e.iter().zip(g).all(|(a, b)| a.to_bits() == b.to_bits())
        })
}

fn assert_bitwise(expected: &[Vec<f32>], got: &[Vec<f32>], what: &str) {
    assert!(rows_match(expected, got), "{what}: rows diverge");
}

#[test]
fn hot_swap_under_load_swaps_without_drain_or_wrong_answers() {
    let _g = guard();
    let mem = MemorySink::new();
    embsr_obs::add_sink(Arc::new(mem.clone()));
    trace::set_enabled(true);

    let (server, frozen_a) = start_server(2, 7, 0);
    let (snap_b, frozen_b) = snapshot_for(8);
    let sessions = session_pool(60, NUM_ITEMS as u32, 3);

    // Each client thread's schedule, with the expected rows under BOTH
    // versions precomputed (the frozen models are not Sync; the threads
    // only compare against the version the response tag claims).
    type Round = (Vec<Session>, Vec<Vec<f32>>, Vec<Vec<f32>>);
    let plan: Vec<Vec<Round>> = (0..4usize)
        .map(|t| {
            (0..12usize)
                .map(|round| {
                    let base = (t * 12 + round) * 3 % (sessions.len() - 3);
                    let batch: Vec<Session> = sessions[base..base + 3].to_vec();
                    let want_a = frozen_a.score_batch(&batch);
                    let want_b = frozen_b.score_batch(&batch);
                    (batch, want_a, want_b)
                })
                .collect()
        })
        .collect();
    let wrong = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let saw_v1 = AtomicU64::new(0);
    let saw_v2 = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for rounds in plan.iter() {
            let server = &server;
            let (wrong, failed) = (&wrong, &failed);
            let (saw_v1, saw_v2) = (&saw_v1, &saw_v2);
            scope.spawn(move || {
                let client = NetClient::connect(server.addr()).expect("connect");
                for (batch, want_a, want_b) in rounds {
                    match client.score(
                        &ScoreBatch {
                            sessions: batch.clone(),
                        },
                        SubmitOptions::default(),
                    ) {
                        Ok(resp) => {
                            // Every row must be bitwise-correct for one of
                            // the two versions — never a third value. The
                            // tag is the NEWEST contributing version, so a
                            // mid-swap batch tagged 2 may mix v1 and v2
                            // rows across replicas, but a tag of 1
                            // guarantees the whole batch is pre-swap.
                            match resp.model_version {
                                1 => {
                                    saw_v1.fetch_add(1, Ordering::Relaxed);
                                    if !rows_match(want_a, &resp.scores) {
                                        wrong.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                                2 => {
                                    saw_v2.fetch_add(1, Ordering::Relaxed);
                                    let ok = resp.scores.len() == want_a.len()
                                        && resp.scores.iter().enumerate().all(|(i, row)| {
                                            rows_match(
                                                std::slice::from_ref(&want_a[i]),
                                                std::slice::from_ref(row),
                                            ) || rows_match(
                                                std::slice::from_ref(&want_b[i]),
                                                std::slice::from_ref(row),
                                            )
                                        });
                                    if !ok {
                                        wrong.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                                v => panic!("unexpected model_version tag {v}"),
                            }
                        }
                        Err(_) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }

        // The operator swaps mid-flight: stage, then flip. No drain.
        std::thread::sleep(std::time::Duration::from_millis(3));
        let ctl = NetClient::connect(server.addr()).expect("control connect");
        ctl.load_snapshot(2, &snap_b).expect("stage v2");
        ctl.activate(2).expect("activate v2");
    });

    trace::set_enabled(false);
    embsr_obs::clear_sinks();

    let total = 4 * 12;
    assert_eq!(wrong.load(Ordering::Relaxed), 0, "zero wrong answers");
    assert_eq!(failed.load(Ordering::Relaxed), 0, "hot-swap drops nothing");
    assert_eq!(
        saw_v1.load(Ordering::Relaxed) + saw_v2.load(Ordering::Relaxed),
        total,
        "every request answered and tagged"
    );
    assert!(
        saw_v2.load(Ordering::Relaxed) > 0,
        "the new version served some of the load"
    );

    // Post-swap traffic is wholly on version 2.
    let client = NetClient::connect(server.addr()).expect("connect");
    let batch = sessions[..5].to_vec();
    let want = frozen_b.score_batch(&batch);
    let resp = client
        .score(&ScoreBatch { sessions: batch }, SubmitOptions::default())
        .expect("post-swap scores");
    assert_eq!(resp.model_version, 2, "post-swap tag");
    assert_bitwise(&want, &resp.scores, "post-swap batch");
    server.shutdown();

    // The traced run — swap included — still reconstructs into one legal
    // span tree per scoring request, with the server's work nested under
    // the client root via the wire-borne TraceCtx.
    let records: Vec<SpanRecord> = mem
        .lines()
        .iter()
        .filter_map(|l| trace::validate_line(l).expect("schema-legal lines"))
        .collect();
    let trees = trace::build_trees(&records).expect("tree invariants hold across the swap");
    let score_requests = total as usize; // the probe above ran untraced
    let net_roots: Vec<_> = trees
        .iter()
        .filter(|t| t.root().name == "net_request")
        .collect();
    assert_eq!(net_roots.len(), score_requests, "one tree per request");
    let nested = net_roots
        .iter()
        .filter(|t| t.spans.iter().any(|s| s.name == "server_request"))
        .count();
    assert_eq!(nested, score_requests, "server spans join the client trace");
    // The two control exchanges (stage + activate) trace under their own
    // root name, distinct from the data plane.
    let control_roots = trees
        .iter()
        .filter(|t| t.root().name == "net_control")
        .count();
    assert_eq!(control_roots, 2, "one tree per control exchange");
}

#[test]
fn bad_snapshots_are_refused_and_serving_stays_on_the_active_version() {
    let _g = guard();
    let (server, frozen) = start_server(2, 19, 0);
    let client = NetClient::connect(server.addr()).expect("connect");

    // Garbage bytes: not an EMBSRSNP container at all.
    match client.load_snapshot(3, b"definitely not a snapshot") {
        Err(NetError::BadRequest(_)) => {}
        other => panic!("malformed snapshot must be a typed refusal, got {other:?}"),
    }
    // Structurally valid container, wrong weight count for this model.
    let wrong_layout = encode_snapshot(&[0.25f32; 9], 16, frozen.precision());
    match client.load_snapshot(4, &wrong_layout) {
        Err(NetError::BadRequest(_)) => {}
        other => panic!("wrong layout must be a typed refusal, got {other:?}"),
    }
    // Activating a version nobody staged.
    match client.activate(9) {
        Err(NetError::BadRequest(_)) => {}
        other => panic!("unknown version must be a typed refusal, got {other:?}"),
    }

    // None of that touched the data plane.
    let batch = vec![sess(2, &[1, 2, 3]), sess(5, &[4])];
    let want = frozen.score_batch(&batch);
    let resp = client
        .score(&ScoreBatch { sessions: batch }, SubmitOptions::default())
        .expect("serving is unaffected");
    assert_eq!(resp.model_version, 1, "still on the boot version");
    assert_bitwise(&want, &resp.scores, "post-refusal batch");

    let status = client.status().expect("status");
    for (i, r) in status.replicas.iter().enumerate() {
        assert_eq!(r.active_version, 1, "replica {i} active version");
        assert_eq!(r.staged, vec![1], "replica {i} staged set is unpolluted");
    }
    server.shutdown();
}

#[test]
fn status_reports_the_staged_and_active_lifecycle_per_replica() {
    let _g = guard();
    let (server, _frozen) = start_server(3, 23, 0);
    let (snap_b, frozen_b) = snapshot_for(29);
    let client = NetClient::connect(server.addr()).expect("connect");

    let boot = client.status().expect("boot status");
    assert_eq!(boot.replicas.len(), 3, "one status row per replica");
    for r in &boot.replicas {
        assert_eq!(r.active_version, 1);
        assert_eq!(r.staged, vec![1]);
    }

    client.load_snapshot(7, &snap_b).expect("stage");
    let staged = client.status().expect("staged status");
    for r in &staged.replicas {
        assert_eq!(r.active_version, 1, "staging does not flip");
        assert_eq!(r.staged, vec![1, 7], "both versions held");
    }

    client.activate(7).expect("activate");
    let active = client.status().expect("active status");
    for r in &active.replicas {
        assert_eq!(r.active_version, 7, "activation flips every replica");
    }

    // And the flip is real: scores now come from the staged weights.
    let batch = vec![sess(11, &[1, 2]), sess(12, &[3, 4, 5])];
    let want = frozen_b.score_batch(&batch);
    let resp = client
        .score(&ScoreBatch { sessions: batch }, SubmitOptions::default())
        .expect("post-activate scores");
    assert_eq!(resp.model_version, 7);
    assert_bitwise(&want, &resp.scores, "post-activate batch");
    server.shutdown();
}

#[test]
fn warm_repr_cache_never_serves_the_pre_swap_version() {
    let _g = guard();
    let (server, frozen_a) = start_server(1, 37, 64);
    let (snap_b, frozen_b) = snapshot_for(43);
    let client = NetClient::connect(server.addr()).expect("connect");

    let batch = vec![sess(4, &[1, 2, 3]), sess(6, &[2, 3]), sess(9, &[5])];
    let want_a = frozen_a.score_batch(&batch);
    let want_b = frozen_b.score_batch(&batch);

    // Warm the session-repr cache on version 1: same batch twice, both
    // bitwise vs the uncached model, with hits recorded on the repeat.
    for round in 0..2 {
        let resp = client
            .score(
                &ScoreBatch {
                    sessions: batch.clone(),
                },
                SubmitOptions::default(),
            )
            .expect("warm-up scores");
        assert_eq!(resp.model_version, 1);
        assert_bitwise(&want_a, &resp.scores, "cached round");
        let _ = round;
    }
    let warm = client.status().expect("warm status");
    let cache = &warm.replicas[0].cache;
    assert!(cache.insertions >= 1, "cache populated: {cache:?}");
    assert!(cache.hits >= 1, "repeat batch hits: {cache:?}");

    // Swap. The cache is keyed by (session content, model version), so
    // the warm entries must not leak version-1 reprs into version 2.
    client.load_snapshot(2, &snap_b).expect("stage");
    client.activate(2).expect("activate");
    let resp = client
        .score(
            &ScoreBatch {
                sessions: batch.clone(),
            },
            SubmitOptions::default(),
        )
        .expect("post-swap scores");
    assert_eq!(resp.model_version, 2);
    assert_bitwise(&want_b, &resp.scores, "post-swap cached batch");

    // And version 2 warms its own entries.
    let resp = client
        .score(&ScoreBatch { sessions: batch }, SubmitOptions::default())
        .expect("post-swap repeat");
    assert_bitwise(&want_b, &resp.scores, "post-swap repeat");
    let after = client.status().expect("post-swap status");
    assert!(
        after.replicas[0].cache.hits > cache.hits,
        "version-2 entries serve hits: {:?}",
        after.replicas[0].cache
    );
    server.shutdown();
}
