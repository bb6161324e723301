//! Networked-serving equivalence: scores served over TCP — through the
//! frame codec, the JSON wire format, rendezvous sharding across multiple
//! replicas, the router queues, and the micro-batching engine — must be
//! **bitwise identical** (`f32::to_bits`) to the in-process frozen model.
//!
//! Two properties make exact equality achievable and therefore required:
//! every replica rebuilds from the same weight snapshot (pinned by
//! `serving_equivalence.rs`), and the wire format round-trips `f32` exactly
//! (`f32 → f64` is exact, the JSON writer prints shortest-round-trip
//! decimals, and narrowing back to `f32` recovers the original bits).
//! Anything short of bitwise equality here means the network layer
//! corrupted a score.

use embsr_baselines::{Gru4Rec, Narm};
use embsr_core::{Embsr, EmbsrConfig};
use embsr_net::{NetClient, Server, ServerConfig};
use embsr_serve::{
    top_k_of_row, EngineConfig, FrozenModel, Precision, ScoreBatch, SubmitOptions, TopK,
};
use embsr_sessions::{MicroBehavior, Session};
use embsr_train::{SessionModel, TrainConfig};

const SEEDS: [u64; 3] = [11, 42, 1337];
const RAGGED_BATCHES: [usize; 5] = [1, 3, 4, 5, 32];

const NUM_ITEMS: usize = 40;
const NUM_OPS: usize = 6;
const DIM: usize = 16;

/// The same variable-length session pool as `serving_equivalence.rs`, so
/// the two suites pin the same arithmetic at different layers.
fn test_sessions(seed: u64) -> Vec<Session> {
    (0..64u64)
        .map(|i| {
            let len = 1 + ((i * 7 + seed) % 9) as usize;
            Session {
                id: i,
                events: (0..len)
                    .map(|j| {
                        let item = ((i * 13 + j as u64 * 5 + seed) % NUM_ITEMS as u64) as u32;
                        let op = ((i + j as u64) % NUM_OPS as u64) as u16;
                        MicroBehavior::new(item, op)
                    })
                    .collect(),
            }
        })
        .collect()
}

/// Serves `model` over TCP behind ≥2 sharded replicas and pins every score
/// row to the in-process frozen path, bit for bit, across ragged batches.
fn assert_network_equivalence<M, F>(model: M, factory: F, seed: u64)
where
    M: SessionModel,
    F: Fn() -> M + Send + Sync + 'static,
{
    let max_len = TrainConfig::fast().max_session_len;
    let frozen = FrozenModel::freeze(model, max_len);
    let server = Server::start(
        &frozen,
        factory,
        ServerConfig {
            replicas: 3, // multi-replica: sharding is on the request path
            dispatchers: 2,
            engine: EngineConfig {
                workers: 2,
                max_batch: 16,
                flush_deadline_us: 200,
                ..EngineConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let client = NetClient::connect(server.addr()).expect("connect");
    let sessions = test_sessions(seed);
    for &batch in &RAGGED_BATCHES {
        for chunk in sessions.chunks(batch) {
            let expected = frozen.score_batch(chunk);
            let resp = client
                .score(
                    &ScoreBatch {
                        sessions: chunk.to_vec(),
                    },
                    SubmitOptions::default(),
                )
                .expect("networked scoring succeeds");
            assert_eq!(resp.scores.len(), chunk.len());
            for ((session, want), got) in chunk.iter().zip(&expected).zip(&resp.scores) {
                assert_eq!(want.len(), got.len());
                for (i, (a, b)) in want.iter().zip(got).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "model {} seed {seed} batch {batch} session {} item {i}: \
                         in-process {a} != networked {b}",
                        frozen.name(),
                        session.id,
                    );
                }
            }
        }
    }
    server.shutdown();
}

#[test]
fn embsr_networked_scores_are_bitwise_equal() {
    for seed in SEEDS {
        let mut cfg = EmbsrConfig::full(NUM_ITEMS, NUM_OPS, DIM);
        cfg.seed = seed;
        let factory_cfg = cfg.clone();
        assert_network_equivalence(
            Embsr::new(cfg),
            move || Embsr::new(factory_cfg.clone()),
            seed,
        );
    }
}

#[test]
fn gru4rec_networked_scores_are_bitwise_equal() {
    for seed in SEEDS {
        assert_network_equivalence(
            Gru4Rec::new(NUM_ITEMS, DIM, seed),
            move || Gru4Rec::new(NUM_ITEMS, DIM, seed),
            seed,
        );
    }
}

#[test]
fn narm_networked_scores_are_bitwise_equal() {
    for seed in SEEDS {
        assert_network_equivalence(
            Narm::new(NUM_ITEMS, DIM, 0.25, seed),
            move || Narm::new(NUM_ITEMS, DIM, 0.25, seed),
            seed,
        );
    }
}

#[test]
fn reduced_precision_snapshots_cross_the_wire() {
    // The deployment path for quantized models: the trainer side freezes at
    // reduced precision and serializes (`snapshot_bytes`, the EMBSRSNP wire
    // format at ~half the f32 bytes); the server side rebuilds a frozen
    // model from the bytes and serves it behind TCP replicas. Because
    // quantization happens once at freeze, every score served over the
    // network must be bitwise identical to the trainer-side master.
    for precision in [Precision::F16, Precision::Bf16] {
        let max_len = TrainConfig::fast().max_session_len;
        let mut cfg = EmbsrConfig::full(NUM_ITEMS, NUM_OPS, DIM);
        cfg.seed = 42;
        let master =
            FrozenModel::freeze_with_precision(Embsr::new(cfg.clone()), max_len, precision);
        let bytes = master.snapshot_bytes();
        cfg.seed = 7; // the server's fresh init must be overwritten
        let factory_cfg = cfg.clone();
        let server_frozen =
            FrozenModel::from_snapshot_bytes(Embsr::new(cfg), &bytes).expect("snapshot decodes");
        assert_eq!(server_frozen.precision(), precision);
        assert_eq!(server_frozen.max_session_len(), max_len);
        let server = Server::start(
            &server_frozen,
            move || Embsr::new(factory_cfg.clone()),
            ServerConfig {
                replicas: 2,
                ..ServerConfig::default()
            },
        )
        .expect("server starts");
        let client = NetClient::connect(server.addr()).expect("connect");
        let sessions = test_sessions(42);
        for chunk in sessions.chunks(5).take(4) {
            let expected = master.score_batch(chunk);
            let resp = client
                .score(
                    &ScoreBatch {
                        sessions: chunk.to_vec(),
                    },
                    SubmitOptions::default(),
                )
                .expect("networked scoring succeeds");
            for ((session, want), got) in chunk.iter().zip(&expected).zip(&resp.scores) {
                assert_eq!(want.len(), got.len());
                for (i, (a, b)) in want.iter().zip(got).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{precision:?} session {} item {i}: master {a} != networked {b}",
                        session.id,
                    );
                }
            }
        }
        server.shutdown();
    }
}

#[test]
fn networked_top_k_matches_in_process_selection() {
    let mut cfg = EmbsrConfig::full(NUM_ITEMS, NUM_OPS, DIM);
    cfg.seed = 42;
    let max_len = TrainConfig::fast().max_session_len;
    let frozen = FrozenModel::freeze(Embsr::new(cfg.clone()), max_len);
    let factory_cfg = cfg;
    let server = Server::start(
        &frozen,
        move || Embsr::new(factory_cfg.clone()),
        ServerConfig {
            replicas: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let client = NetClient::connect(server.addr()).expect("connect");
    let sessions = test_sessions(42);
    for k in [1usize, 5, 10] {
        let chunk = &sessions[..7];
        let resp = client
            .top_k(
                &TopK {
                    sessions: chunk.to_vec(),
                    k,
                },
                SubmitOptions::default(),
            )
            .expect("networked top-k succeeds");
        let rows = frozen.score_batch(chunk);
        for (row, got) in rows.iter().zip(&resp.items) {
            let want = top_k_of_row(row, k);
            assert_eq!(want.len(), got.len(), "k={k}");
            for (w, g) in want.iter().zip(got) {
                assert_eq!(w.item, g.item, "k={k}: item order");
                assert_eq!(
                    w.score.to_bits(),
                    g.score.to_bits(),
                    "k={k}: score bits for item {}",
                    w.item
                );
            }
        }
    }
    server.shutdown();
}
