//! Traced runs: the same workload and seed fed layer by layer through each
//! layer's public entry point, bottom up — session graph, encoder, logits
//! GEMM, top-k selection, frozen batch, engine, wire codec, framing — then
//! through the loopback. Spans are recorded here, around the calls into
//! each layer (none are added inside the program), kept in memory and
//! written out when the run ends. Counters come from what the program
//! already exposes: `status()`, `Server::stats()`, the `serve.*`,
//! `tensor.pool_*` and `train.*` metrics, and the training report.

use std::hint::black_box;
use std::time::{Duration, Instant};

use embsr_core::{Embsr, EmbsrConfig};
use embsr_net::{frame, wire, Frame, FrameKind, NetClient, Server, ServerStatus};
use embsr_obs::TraceCtx;
use embsr_serve::{
    serve, top_k_of_row, Client, FrozenModel, KernelTier, ScoreBatch, ScoreResponse, SubmitOptions,
    TopK, TopKResponse,
};
use embsr_sessions::{Session, SessionGraph};
use embsr_tensor::{import_params, inference_mode, kernels, Tensor};
use embsr_train::SessionModel;

use crate::gen::{MAX_LEN, TOP_K};
use crate::serving::{
    self, closed_loop, open_loop, references, same_lists, same_rows, verify, Deployment, Kind,
    Spec, Stamps,
};
use crate::stats::{median, percentile, Counts, Outcome, Spans};
use crate::training;

/// Each in-process rung repeats its inputs for at least this long.
const RUNG_SECS: f64 = 0.5;
/// Sessions fed through the in-process rungs.
const LADDER_SESSIONS: usize = 256;
/// Requests fed through the codec rungs.
const CODEC_REQUESTS: usize = 32;
/// Length of the in-process engine's open loop.
const ENGINE_SECS: f64 = 3.0;
/// Blocking caller threads of the in-process engine's open loop.
const ENGINE_LANES: usize = 8;
/// Untraced/traced pairs of closed-loop slices whose median throughputs
/// give the tracing overhead, and the length of each slice.
const OVERHEAD_PAIRS: usize = 3;
const OVERHEAD_SECS: f64 = 0.5;
/// Training examples of the one-epoch probe on the serving workloads.
const PROBE_TRAIN: usize = 1024;
/// Offered rate of `train-jd`'s engine and loopback rungs, requests/s.
const TRAIN_SERVE_RPS: f64 = 300.0;

/// Runs `f` over `items` repeatedly for at least [`RUNG_SECS`] inside one
/// span; returns microseconds per item.
fn per_item<T>(spans: &mut Spans, name: &'static str, items: &[T], mut f: impl FnMut(&T)) -> f64 {
    assert!(!items.is_empty(), "rung {name} has no inputs");
    let start_us = spans.now_us();
    let t = Instant::now();
    let mut n = 0usize;
    while n == 0 || t.elapsed().as_secs_f64() < RUNG_SECS {
        for x in items {
            f(x);
        }
        n += items.len();
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / n as f64;
    spans.record(name, start_us, spans.now_us(), None, 0);
    us
}

fn simd<R>(f: impl FnOnce() -> R) -> R {
    kernels::with_tier(KernelTier::Simd, || inference_mode(f))
}

/// Per-session costs of the in-process rungs, for the ladder residual.
struct ModelRungs {
    encode_us: f64,
    logits_b32_us: f64,
    select_us: f64,
    frozen_b32_us: f64,
}

/// Graph build, encoder, logits GEMM, top-k selection and the frozen
/// batch, on the workload's own sessions.
fn model_rungs(
    cfg: &EmbsrConfig,
    frozen: &FrozenModel<Embsr>,
    sessions: &[Session],
    spans: &mut Spans,
    out: &mut Outcome,
) -> ModelRungs {
    let sessions = &sessions[..sessions.len().min(LADDER_SESSIONS)];
    let model = Embsr::new(cfg.clone());
    import_params(&model.parameters(), frozen.snapshot());
    let (d, v) = (cfg.dim, frozen.num_items());

    let graph_us = per_item(spans, "sessions.graph_build", sessions, |s| {
        black_box(SessionGraph::from_session(s));
    });
    out.metric("sessions.graph_build_us", "us", graph_us);
    let encode_us = per_item(spans, "core.encode", sessions, |s| {
        black_box(simd(|| model.repr_infer(s)));
    });
    out.metric("core.encode_us", "us", encode_us);

    let reprs: Vec<Tensor> = sessions
        .iter()
        .map(|s| simd(|| model.repr_infer(s)).expect("EMBSR exposes the repr seam"))
        .collect();
    let mut logits_b32_us = 0.0;
    for (b, name) in [
        (1, "tensor.logits.b1"),
        (8, "tensor.logits.b8"),
        (32, "tensor.logits.b32"),
    ] {
        let batches: Vec<Tensor> = reprs.chunks_exact(b).map(Tensor::stack_rows).collect();
        let us = per_item(spans, name, &batches, |x| {
            black_box(simd(|| model.logits_of_reprs(x)));
        });
        out.metric(&format!("tensor.logits_us.b{b}"), "us", us);
        logits_b32_us = us;
    }
    // Work and bytes of one [32, d] x [d, |V|] GEMM, computed from shapes.
    let flops = 2.0 * 32.0 * d as f64 * v as f64;
    let bytes = 4.0 * (v * d + 32 * d + 32 * v) as f64;
    out.metric(
        "tensor.logits_gflops.b32",
        "GFLOP/s",
        flops / (logits_b32_us * 1e3),
    );
    out.metric(
        "tensor.logits_gbps.b32",
        "GB/s",
        bytes / (logits_b32_us * 1e3),
    );
    println!(
        "logits b32: {flops} flop and {bytes} bytes per call, computed from the shapes [32,{d}]x[{d},{v}]"
    );

    let rows: Vec<Vec<f32>> = reprs
        .iter()
        .take(64)
        .map(|r| {
            simd(|| model.logits_of_reprs(&Tensor::stack_rows(std::slice::from_ref(r))))
                .expect("EMBSR exposes the repr seam")
                .to_vec()
        })
        .collect();
    let select_us = per_item(spans, "serve.topk_select", &rows, |r| {
        black_box(top_k_of_row(r, TOP_K));
    });
    out.metric("serve.topk_select_us", "us", select_us);

    let frozen_b1_us = per_item(spans, "serve.frozen_topk.b1", sessions, |s| {
        black_box(frozen.top_k(std::slice::from_ref(s), TOP_K));
    });
    out.metric("serve.frozen_topk_us.b1", "us", frozen_b1_us);
    let chunks: Vec<&[Session]> = sessions.chunks_exact(32).collect();
    let frozen_b32_us = per_item(spans, "serve.frozen_topk.b32", &chunks, |c| {
        black_box(frozen.top_k(c, TOP_K));
    }) / 32.0;
    out.metric("serve.frozen_topk_us.b32", "us", frozen_b32_us);
    ModelRungs {
        encode_us,
        logits_b32_us,
        select_us,
        frozen_b32_us,
    }
}

/// The wire codec and framing on the workload's real payloads. Returns the
/// codec and framing microseconds one request costs, and the round-trip
/// mismatches.
fn wire_rungs(
    kind: Kind,
    requests: &[Vec<Session>],
    frozen: &FrozenModel<Embsr>,
    spans: &mut Spans,
    out: &mut Outcome,
) -> (f64, Vec<String>) {
    let requests = &requests[..requests.len().min(CODEC_REQUESTS)];
    let opts = SubmitOptions::default();
    let mut errors = Vec::new();
    let (enc_req, dec_req, enc_resp, dec_resp, req_bytes, resp_bytes, kinds) = match kind {
        Kind::TopK => {
            let reqs: Vec<TopK> = requests
                .iter()
                .map(|r| TopK {
                    sessions: r.clone(),
                    k: TOP_K,
                })
                .collect();
            let resps: Vec<TopKResponse> = reqs
                .iter()
                .map(|r| TopKResponse {
                    items: frozen.top_k(&r.sessions, TOP_K),
                    model_version: 1,
                })
                .collect();
            let enc_req = per_item(spans, "net.encode_request", &reqs, |r| {
                black_box(wire::encode_top_k_request(r, opts, TraceCtx::NONE));
            });
            let req_bytes: Vec<Vec<u8>> = reqs
                .iter()
                .map(|r| wire::encode_top_k_request(r, opts, TraceCtx::NONE))
                .collect();
            let dec_req = per_item(spans, "net.decode_request", &req_bytes, |b| {
                black_box(wire::decode_request(b, true).ok());
            });
            let enc_resp = per_item(spans, "net.encode_response", &resps, |r| {
                black_box(wire::encode_top_k_response(r));
            });
            let resp_bytes: Vec<Vec<u8>> = resps.iter().map(wire::encode_top_k_response).collect();
            let dec_resp = per_item(spans, "net.decode_response", &resp_bytes, |b| {
                black_box(wire::decode_top_k_response(b).ok());
            });
            for (r, b) in resps.iter().zip(&resp_bytes) {
                match wire::decode_top_k_response(b) {
                    Ok(got) if same_lists(&got.items, &r.items) && got.model_version == 1 => {}
                    _ => errors.push("top-k response did not survive the codec bitwise".into()),
                }
            }
            (
                enc_req,
                dec_req,
                enc_resp,
                dec_resp,
                req_bytes,
                resp_bytes,
                (FrameKind::TopKRequest, FrameKind::TopKResponse),
            )
        }
        Kind::Rows => {
            let reqs: Vec<ScoreBatch> = requests
                .iter()
                .map(|r| ScoreBatch {
                    sessions: r.clone(),
                })
                .collect();
            let resps: Vec<ScoreResponse> = reqs
                .iter()
                .map(|r| ScoreResponse {
                    scores: frozen.score_batch(&r.sessions),
                    model_version: 1,
                })
                .collect();
            let enc_req = per_item(spans, "net.encode_request", &reqs, |r| {
                black_box(wire::encode_score_request(r, opts, TraceCtx::NONE));
            });
            let req_bytes: Vec<Vec<u8>> = reqs
                .iter()
                .map(|r| wire::encode_score_request(r, opts, TraceCtx::NONE))
                .collect();
            let dec_req = per_item(spans, "net.decode_request", &req_bytes, |b| {
                black_box(wire::decode_request(b, false).ok());
            });
            let enc_resp = per_item(spans, "net.encode_response", &resps, |r| {
                black_box(wire::encode_score_response(r));
            });
            let resp_bytes: Vec<Vec<u8>> = resps.iter().map(wire::encode_score_response).collect();
            let dec_resp = per_item(spans, "net.decode_response", &resp_bytes, |b| {
                black_box(wire::decode_score_response(b).ok());
            });
            for (r, b) in resps.iter().zip(&resp_bytes) {
                match wire::decode_score_response(b) {
                    Ok(got) if same_rows(&got.scores, &r.scores) && got.model_version == 1 => {}
                    _ => errors.push("score rows did not survive the codec bitwise".into()),
                }
            }
            (
                enc_req,
                dec_req,
                enc_resp,
                dec_resp,
                req_bytes,
                resp_bytes,
                (FrameKind::ScoreRequest, FrameKind::ScoreResponse),
            )
        }
    };
    let pairs: Vec<(&Vec<u8>, &Vec<u8>)> = req_bytes.iter().zip(&resp_bytes).collect();
    let frame_rw = per_item(spans, "net.frame_rw", &pairs, |(req, resp)| {
        for (k, payload) in [(kinds.0, *req), (kinds.1, *resp)] {
            let mut buf = Vec::with_capacity(payload.len() + 32);
            let written = frame::write_frame(&mut buf, &Frame::new(k, 7, payload.clone()));
            black_box(
                written
                    .and_then(|()| frame::read_frame(&mut buf.as_slice()))
                    .ok(),
            );
        }
    });
    out.metric("net.encode_request_us", "us", enc_req);
    out.metric("net.decode_request_us", "us", dec_req);
    out.metric("net.encode_response_us", "us", enc_resp);
    out.metric("net.decode_response_us", "us", dec_resp);
    out.metric(
        "net.response_bytes",
        "bytes",
        resp_bytes.iter().map(Vec::len).sum::<usize>() as f64 / resp_bytes.len() as f64,
    );
    out.metric("net.frame_rw_us", "us", frame_rw);
    (enc_req + dec_req + enc_resp + dec_resp + frame_rw, errors)
}

fn engine_call(client: &Client<'_>, kind: Kind, sessions: &[Session]) -> bool {
    let sessions = sessions.to_vec();
    let opts = SubmitOptions::default();
    match kind {
        Kind::TopK => client.try_top_k(TopK { sessions, k: TOP_K }, opts).is_ok(),
        Kind::Rows => client.try_score(ScoreBatch { sessions }, opts).is_ok(),
    }
}

/// In-process `serve()` with the loopback's engine config, warmed with
/// `warm`, then an open loop over `requests` at `rate_rps` from
/// [`ENGINE_LANES`] blocking callers. Returns the p50 in µs and the
/// requests' outcomes.
fn engine_rung(
    cfg: &EmbsrConfig,
    frozen: &FrozenModel<Embsr>,
    kind: Kind,
    warm: &[Vec<Session>],
    requests: &[Vec<Session>],
    rate_rps: f64,
    spans: &mut Spans,
) -> (Option<f64>, Counts) {
    let n = requests.len().min((rate_rps * ENGINE_SECS) as usize);
    let interval = 1.0 / rate_rps;
    let start_us = spans.now_us();
    let (lat_ms, failed) = serve(
        frozen,
        || Embsr::new(cfg.clone()),
        serving::engine_config(),
        |client| {
            let mut failed = 0u64;
            for r in warm {
                failed += u64::from(!engine_call(client, kind, r));
            }
            let start = Instant::now() + Duration::from_millis(5);
            let per_lane: Vec<(Vec<f64>, u64)> = std::thread::scope(|scope| {
                let lanes: Vec<_> = (0..ENGINE_LANES)
                    .map(|lane| {
                        scope.spawn(move || {
                            let mut lat = Vec::new();
                            let mut failed = 0u64;
                            for i in (lane..n).step_by(ENGINE_LANES) {
                                let due = start + Duration::from_secs_f64(i as f64 * interval);
                                let now = Instant::now();
                                if due > now {
                                    std::thread::sleep(due - now);
                                }
                                if engine_call(client, kind, &requests[i]) {
                                    lat.push(due.elapsed().as_secs_f64() * 1e3);
                                } else {
                                    failed += 1;
                                }
                            }
                            (lat, failed)
                        })
                    })
                    .collect();
                lanes
                    .into_iter()
                    .map(|h| h.join().expect("engine lane panicked"))
                    .collect()
            });
            let mut lat = Vec::new();
            for (l, f) in per_lane {
                lat.extend(l);
                failed += f;
            }
            (lat, failed)
        },
    );
    spans.record("serve.engine_open_loop", start_us, spans.now_us(), None, 0);
    let attempted = (warm.len() + n) as u64;
    let counts = Counts {
        attempted,
        succeeded: attempted - failed,
        rejected: 0,
        failed,
    };
    let p50_us = (!lat_ms.is_empty()).then(|| percentile(&lat_ms, 0.5) * 1e3);
    (p50_us, counts)
}

/// Request spans from loop timestamps: a root per request with the
/// client's submit (encode + frame write) and the wait for the answer.
fn request_spans(spans: &mut Spans, base_us: u64, stamps: &[Stamps], first_request: u64) {
    for (i, s) in stamps.iter().enumerate() {
        let at = |us: f64| base_us + us as u64;
        let request = first_request + i as u64;
        let root = spans.record("request", at(s.due_us), at(s.done_us), None, request);
        spans.record(
            "client_submit",
            at(s.submitted_us),
            at(s.sent_us),
            Some(root),
            request,
        );
        spans.record(
            "in_flight",
            at(s.sent_us),
            at(s.done_us),
            Some(root),
            request,
        );
    }
}

fn cache_totals(status: &ServerStatus) -> (u64, u64, u64) {
    status.replicas.iter().fold((0, 0, 0), |(h, m, e), r| {
        (h + r.cache.hits, m + r.cache.misses, e + r.cache.evictions)
    })
}

/// The loopback rungs on a running deployment: untraced vs traced closed
/// loops (tracing overhead), the open loop with its hot-swaps, one more
/// hot-swap after it, and the counters the server exposes. Returns the
/// open loop's p50 in µs.
#[allow(clippy::too_many_arguments)]
fn loopback_rungs(
    server: &Server,
    client: &NetClient,
    control: &NetClient,
    kind: Kind,
    closed: &[Vec<Session>],
    open: &[Vec<Session>],
    rate_rps: f64,
    window: usize,
    swaps: &[usize],
    snapshots: &[Vec<u8>],
    refs: &[FrozenModel<Embsr>],
    before: Counts,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Option<f64> {
    // Untraced and traced closed-loop slices alternate, each order equally
    // often, so a drift of the machine or a warming cache lands on both.
    let slice = closed.len() / (2 * OVERHEAD_PAIRS);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut traced_requests = 0u64;
    for k in 0..2 * OVERHEAD_PAIRS {
        let requests = &closed[k * slice..(k + 1) * slice];
        let record = (k % 2 == 0) == (k / 2 % 2 == 0);
        let base_us = spans.now_us();
        let run = closed_loop(client, kind, requests, window, OVERHEAD_SECS, record);
        if record {
            request_spans(spans, base_us, &run.stamps, 1 + traced_requests);
            traced_requests += run.stamps.len() as u64;
            traced.push((k * slice, run));
        } else {
            plain.push((k * slice, run));
        }
    }
    let rate = |runs: &[(usize, serving::Closed)]| {
        median(&runs.iter().map(|(_, r)| r.throughput()).collect::<Vec<_>>())
    };
    let (plain_sps, traced_sps) = (rate(&plain), rate(&traced));
    out.metric(
        "bench.trace_overhead_pct",
        "%",
        (plain_sps - traced_sps) / plain_sps * 100.0,
    );

    // Three status probes bracket the open loop and the last hot-swap.
    const STATUS_PROBES: u64 = 3;
    let status = || control.status().map_err(|e| format!("status: {e}"));
    let result = (|| -> Result<f64, String> {
        let s0 = status()?;
        embsr_obs::metrics::histogram(embsr_serve::METRIC_BATCH_SESSIONS).reset();
        let base_us = spans.now_us();
        let open_run = open_loop(client, control, kind, open, rate_rps, swaps, snapshots);
        request_spans(spans, base_us, &open_run.stamps, 1 + traced_requests);
        if open_run.latencies_ms.is_empty() {
            return Err("no loopback request succeeded".into());
        }
        let batch_mean = embsr_obs::metrics::histogram(embsr_serve::METRIC_BATCH_SESSIONS).mean();
        let s1 = status()?;
        let extra = snapshots.len() - 1;
        let version = 2 + extra as u64;
        let t = Instant::now();
        let start_us = spans.now_us();
        control
            .load_snapshot(version, &snapshots[extra])
            .and_then(|()| control.activate(version))
            .map_err(|e| format!("hot-swap to version {version}: {e}"))?;
        let extra_ms = t.elapsed().as_secs_f64() * 1e3;
        spans.record("serve.hot_swap", start_us, spans.now_us(), None, 0);
        let s2 = status()?;
        for e in &open_run.swap_errors {
            out.error(e.clone());
        }
        let swap_count = open_run.swap_ms.len() as u64 + 1;
        let mut swap_ms = open_run.swap_ms.clone();
        swap_ms.push(extra_ms);

        let ((h0, m0, e0), (h1, m1, e1)) = (cache_totals(&s0), cache_totals(&s1));
        out.metric("serve.batch_sessions_mean", "count", batch_mean);
        out.metric(
            "serve.cache_hit_ratio",
            "ratio",
            (h1 - h0) as f64 / ((h1 - h0) + (m1 - m0)).max(1) as f64,
        );
        out.metric("serve.cache_evictions", "count", (e1 - e0) as f64);
        out.metric("serve.swap_ms", "ms", median(&swap_ms));
        out.metric(
            "serve.staged_versions",
            "count",
            s2.replicas
                .iter()
                .map(|r| r.staged.len())
                .max()
                .unwrap_or(0) as f64,
        );
        out.metric(
            "bench.open_p99_ms",
            "ms",
            percentile(&open_run.latencies_ms, 0.99),
        );
        out.metric(
            "bench.generator_late_max_ms",
            "ms",
            open_run.late_ms.iter().copied().fold(0.0, f64::max),
        );

        let mut mismatches = verify(&[], open, kind, &open_run.samples, refs);
        let mut total = before;
        total.add(open_run.counts);
        out.counts.add(open_run.counts);
        for (first, run) in plain.iter().chain(&traced) {
            mismatches.extend(verify(&closed[*first..], &[], kind, &run.samples, refs));
            total.add(run.counts);
            out.counts.add(run.counts);
        }
        let control = 2 * swap_count + STATUS_PROBES;
        for e in serving::reconcile(&server.stats(), total.succeeded, total.rejected, control) {
            out.error(e);
        }
        out.counts.failed += mismatches.len() as u64;
        for e in mismatches {
            out.error(e);
        }
        println!(
            "loopback: closed untraced {plain_sps:.1} / traced {traced_sps:.1} sessions/s; open loop {} requests at {rate_rps} req/s; {swap_count} hot-swap(s)",
            open.len()
        );
        Ok(percentile(&open_run.latencies_ms, 0.5) * 1e3)
    })();
    result.map_err(|e| out.error(e)).ok()
}

/// Reports the rungs that compare layers with the ones above them.
fn residuals(
    m: &ModelRungs,
    engine_p50_us: f64,
    loop_p50_us: f64,
    wire_us: f64,
    out: &mut Outcome,
) {
    let parts = m.encode_us + m.logits_b32_us / 32.0 + m.select_us;
    let frozen_pct = (m.frozen_b32_us - parts) / m.frozen_b32_us * 100.0;
    let overhead_us = loop_p50_us - engine_p50_us;
    let net_pct = (overhead_us - wire_us) / loop_p50_us * 100.0;
    out.metric("serve.engine_p50_us", "us", engine_p50_us);
    out.metric("net.overhead_us", "us", overhead_us);
    out.metric("bench.ladder_residual_frozen_pct", "%", frozen_pct);
    out.metric("bench.ladder_residual_net_pct", "%", net_pct);
    println!(
        "ladder: frozen b32 {:.1} us/session vs encode {:.1} + logits/32 {:.1} + select {:.1} = {parts:.1} us ({frozen_pct:+.1}% unexplained)",
        m.frozen_b32_us, m.encode_us, m.logits_b32_us / 32.0, m.select_us
    );
    println!(
        "ladder: loopback p50 {loop_p50_us:.1} us = engine p50 {engine_p50_us:.1} + net overhead {overhead_us:.1} us, of which codec+framing {wire_us:.1} us ({net_pct:+.1}% of p50 unexplained)"
    );
}

/// Training rungs: dataset build, one fit with the program's metrics on,
/// evaluation. `train_len` limits the examples of the fit.
fn training_rungs(
    seed: u64,
    epochs: usize,
    train_len: Option<usize>,
    spans: &mut Spans,
    out: &mut Outcome,
) -> (training::Trained, embsr_datasets::Dataset) {
    let start_us = spans.now_us();
    let training::Setup { ds, model, build_s } = training::setup(seed);
    spans.record("datasets.build", start_us, spans.now_us(), None, 0);
    let m = embsr_obs::metrics::counter;
    let (hits0, misses0, batches0) = (
        m("tensor.pool_hits").get(),
        m("tensor.pool_misses").get(),
        m("train.batches").get(),
    );
    let phases = ["forward", "backward", "reduce", "optimizer"];
    for p in phases {
        embsr_obs::metrics::histogram_owned(format!("train.phase.{p}_us")).reset();
    }
    let len = train_len.unwrap_or(ds.train.len());
    let start_us = spans.now_us();
    let trained = training::train(&ds, model, epochs, len);
    let end_us = spans.now_us();
    let fit_end = start_us + (trained.fit_s * 1e6) as u64;
    spans.record("train.fit", start_us, fit_end.min(end_us), None, 0);
    spans.record(
        "eval.evaluate",
        end_us - (trained.evaluate_s * 1e6) as u64,
        end_us,
        None,
        0,
    );
    let batches = (m("train.batches").get() - batches0).max(1) as f64;
    let (hits, misses) = (
        m("tensor.pool_hits").get() - hits0,
        m("tensor.pool_misses").get() - misses0,
    );
    out.metric("datasets.build_s", "s", build_s);
    out.metric(
        "train.epoch_s",
        "s",
        median(
            &trained
                .report
                .epochs
                .iter()
                .map(|e| e.duration_s)
                .collect::<Vec<_>>(),
        ),
    );
    for p in phases {
        let h = embsr_obs::metrics::histogram_owned(format!("train.phase.{p}_us"));
        let per_batch = h.mean() * h.count() as f64 / batches;
        out.metric(&format!("train.phase.{p}_us"), "us", per_batch);
    }
    out.metric(
        "tensor.pool_miss_ratio",
        "ratio",
        misses as f64 / (hits + misses).max(1) as f64,
    );
    out.metric("eval.evaluate_s", "s", trained.evaluate_s);
    let loss = trained.report.final_train_loss();
    if trained.report.epochs.len() != epochs || !loss.is_finite() {
        out.error(format!("training did not finish cleanly (loss {loss})"));
    }
    println!(
        "training: {len} examples x {epochs} epoch(s), {batches} batches, fit {:.3} s, MRR@20 {:.3}%",
        trained.fit_s, trained.mrr20
    );
    (trained, ds)
}

/// Traced run of a serving workload.
pub fn run_serving(spec: &Spec, seed: u64, seconds: f64, out: &mut Outcome, spans: &mut Spans) {
    embsr_obs::metrics::set_enabled(true);
    let start_us = spans.now_us();
    let d = match Deployment::setup(spec, seed, seconds) {
        Ok(d) => d,
        Err(e) => return out.error(format!("set-up: {e}")),
    };
    spans.record("setup", start_us, spans.now_us(), None, 0);
    let cfg = serving::model_cfg(1);
    let frozen = FrozenModel::freeze(Embsr::new(cfg.clone()), MAX_LEN);
    let sessions: Vec<Session> = d.plan.open.iter().flatten().cloned().collect();

    let rungs = model_rungs(&cfg, &frozen, &sessions, spans, out);
    let (wire_us, codec_errors) = wire_rungs(spec.kind, &d.plan.open, &frozen, spans, out);
    for e in codec_errors {
        out.counts.failed += 1;
        out.error(e);
    }
    let (engine_p50, engine_counts) = engine_rung(
        &cfg,
        &frozen,
        spec.kind,
        &d.plan.warmup,
        &d.plan.open,
        spec.rate_rps,
        spans,
    );
    out.counts.add(engine_counts);

    // One more snapshot than the open loop swaps to, for the swap after it.
    let mut snapshots = d.swap_snapshots.clone();
    snapshots.push(
        FrozenModel::freeze(
            Embsr::new(serving::model_cfg(2 + spec.swaps as u64)),
            MAX_LEN,
        )
        .snapshot_bytes(),
    );
    let refs = references(1 + spec.swaps);
    let lb = loopback_rungs(
        &d.server,
        &d.client,
        &d.control,
        spec.kind,
        &d.plan.closed,
        &d.plan.open,
        spec.rate_rps,
        spec.window,
        &d.plan.swaps,
        &snapshots,
        &refs,
        d.warmup,
        spans,
        out,
    );
    d.shutdown();
    if let (Some(lb), Some(engine_p50)) = (lb, engine_p50) {
        residuals(&rungs, engine_p50, lb, wire_us, out);
    } else {
        out.error("engine or loopback rung produced no latency".into());
    }
    // The training layers, on a one-epoch probe of the train-jd set-up.
    let _ = training_rungs(seed, 1, Some(PROBE_TRAIN), spans, out);
}

/// Traced run of `train-jd`: the training rungs with the program's
/// metrics on, then the serving ladder on the trained model and the test
/// split's sessions.
pub fn run_training(seed: u64, out: &mut Outcome, spans: &mut Spans) {
    embsr_obs::metrics::set_enabled(true);
    let (trained, ds) = training_rungs(
        seed,
        training::EPOCHS,
        Some(training::TRAIN_EXAMPLES),
        spans,
        out,
    );
    let cfg = training::model_cfg(&ds);
    let frozen = trained.frozen;
    let requests: Vec<Vec<Session>> = ds
        .test
        .iter()
        .filter(|ex| !ex.session.is_empty())
        .map(|ex| vec![embsr_train::truncate_session(&ex.session, MAX_LEN)])
        .collect();
    let sessions: Vec<Session> = requests.iter().flatten().cloned().collect();
    let rungs = model_rungs(&cfg, &frozen, &sessions, spans, out);
    let (wire_us, codec_errors) = wire_rungs(Kind::TopK, &requests, &frozen, spans, out);
    for e in codec_errors {
        out.counts.failed += 1;
        out.error(e);
    }
    let (warm, timed) = requests.split_at(requests.len().min(100));
    let (engine_p50, engine_counts) = engine_rung(
        &cfg,
        &frozen,
        Kind::TopK,
        warm,
        timed,
        TRAIN_SERVE_RPS,
        spans,
    );
    out.counts.add(engine_counts);

    let replica = |cfg: &EmbsrConfig| {
        FrozenModel::from_snapshot(Embsr::new(cfg.clone()), frozen.snapshot(), MAX_LEN)
    };
    let refs = vec![replica(&cfg), replica(&cfg)];
    let factory_cfg = cfg.clone();
    let started = Server::start(
        &frozen,
        move || Embsr::new(factory_cfg.clone()),
        serving::server_config(),
    )
    .map_err(|e| format!("server start: {e}"))
    .and_then(|server| {
        let client = NetClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let control = NetClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        Ok((server, client, control))
    });
    let (server, client, control) = match started {
        Ok(s) => s,
        Err(e) => return out.error(e),
    };
    // The closed loops send training prefixes, so the test prefixes of the
    // open loop reach the repr cache cold, as they reach the engine rung.
    let closed: Vec<Vec<Session>> = ds
        .train
        .iter()
        .map(|ex| vec![embsr_train::truncate_session(&ex.session, MAX_LEN)])
        .collect();
    let lb = loopback_rungs(
        &server,
        &client,
        &control,
        Kind::TopK,
        &closed,
        timed,
        TRAIN_SERVE_RPS,
        8,
        &[],
        &[frozen.snapshot_bytes()],
        &refs,
        Counts::default(),
        spans,
        out,
    );
    drop(client);
    drop(control);
    server.shutdown();
    if let (Some(lb), Some(engine_p50)) = (lb, engine_p50) {
        residuals(&rungs, engine_p50, lb, wire_us, out);
    } else {
        out.error("engine or loopback rung produced no latency".into());
    }
}
