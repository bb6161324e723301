//! The serving workloads: one server replica with two engine workers and
//! the repr cache on, driven over the v2 loopback by one connection.
//!
//! A run sets up the deployment several times (`setup_s` is the median),
//! then measures two phases on the last one:
//!
//! * closed loop — one thread keeps a fixed window of requests in flight
//!   until its share of `--seconds` is up (`throughput_sps`);
//! * open loop — a generator thread sends a fixed number of requests at the
//!   workload's fixed rate and a collector thread waits for them, each timed
//!   from its due time (`p50_ms`; the p99 is printed). Hot-swaps, where
//!   the workload has them, run on a second connection at fixed request
//!   indices.
//!
//! A fixed sample of responses is checked bitwise against in-process
//! `FrozenModel` references after the timed phases.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use embsr_core::{Embsr, EmbsrConfig};
use embsr_net::{NetClient, NetError, Pending, Server, ServerConfig, ServerStats};
use embsr_serve::{
    EngineConfig, FrozenModel, ScoreBatch, ScoreResponse, ScoredItem, SubmitOptions, TopK,
    TopKResponse,
};
use embsr_sessions::Session;

use crate::gen::{Draw, Plan, PlanShape, DIM, MAX_LEN, NUM_ITEMS, TOP_K};
use crate::stats::{median, percentile, Counts, Outcome};

/// Operation vocabulary of the JD-shaped sessions.
pub const NUM_OPS: usize = 10;
/// Repr-cache entries per engine.
pub const REPR_CACHE: usize = 4096;
/// Every `SAMPLE_EVERY`-th request of a phase is verified.
pub const SAMPLE_EVERY: usize = 8;
/// Samples kept from a closed loop, whose length follows the program's
/// speed, so the responses held for checking do not grow with throughput.
const CLOSED_SAMPLES: usize = 32;
/// Deployments built per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// The closed loop's session budget is sized for this rate, far above the
/// seed's capacity, so a faster program never runs out of fresh sessions.
const CLOSED_CEILING_SPS: f64 = 3000.0;
/// Share of `--seconds` given to the closed loop; the open loop gets the rest.
const CLOSED_SHARE: f64 = 1.0 / 3.0;
/// The closed loop's throughput is the median over windows this long, so
/// a short stall of the machine moves one window, not the result.
const THROUGHPUT_WINDOW_S: f64 = 0.5;

/// What a serving request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The top-[`TOP_K`] items per session.
    TopK,
    /// Full `|V|` score rows per session.
    Rows,
}

/// One serving workload's fixed definition.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub kind: Kind,
    pub draw: Draw,
    pub per_request: usize,
    /// Open-loop offered rate, requests per second.
    pub rate_rps: f64,
    /// Closed-loop requests in flight.
    pub window: usize,
    /// Hot-swaps during the open loop.
    pub swaps: usize,
    pub warmup: usize,
}

impl Spec {
    pub fn closed_secs(seconds: f64) -> f64 {
        seconds * CLOSED_SHARE
    }

    pub fn open_requests(&self, seconds: f64) -> usize {
        (self.rate_rps * seconds * (1.0 - CLOSED_SHARE)).round() as usize
    }

    pub fn shape(&self, seconds: f64) -> PlanShape {
        let closed_sessions = CLOSED_CEILING_SPS * Self::closed_secs(seconds);
        PlanShape {
            draw: self.draw,
            per_request: self.per_request,
            warmup: self.warmup,
            closed: (closed_sessions / self.per_request as f64).ceil() as usize,
            open: self.open_requests(seconds),
            swaps: self.swaps,
        }
    }
}

/// The model of snapshot `version`: version 1 is served from the start,
/// each hot-swap activates the next one.
pub fn model_cfg(version: u64) -> EmbsrConfig {
    let mut cfg = EmbsrConfig::full(NUM_ITEMS, NUM_OPS, DIM);
    cfg.seed = 17 + version;
    cfg
}

pub fn server_config() -> ServerConfig {
    ServerConfig {
        replicas: 1,
        engine: engine_config(),
        ..Default::default()
    }
}

pub fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: 2,
        repr_cache: REPR_CACHE,
        ..Default::default()
    }
}

/// A response of either kind.
pub enum Resp {
    TopK(TopKResponse),
    Rows(ScoreResponse),
}

impl Resp {
    pub fn version(&self) -> u64 {
        match self {
            Resp::TopK(r) => r.model_version,
            Resp::Rows(r) => r.model_version,
        }
    }
}

/// An in-flight request of either kind.
pub enum Waiting {
    TopK(Pending<TopKResponse>),
    Rows(Pending<ScoreResponse>),
}

impl Waiting {
    pub fn wait(self) -> Result<Resp, NetError> {
        match self {
            Waiting::TopK(p) => p.wait().map(Resp::TopK),
            Waiting::Rows(p) => p.wait().map(Resp::Rows),
        }
    }
}

pub fn submit(client: &NetClient, kind: Kind, sessions: &[Session]) -> Waiting {
    let sessions = sessions.to_vec();
    match kind {
        Kind::TopK => Waiting::TopK(
            client.submit_top_k(&TopK { sessions, k: TOP_K }, SubmitOptions::default()),
        ),
        Kind::Rows => {
            Waiting::Rows(client.submit_score(&ScoreBatch { sessions }, SubmitOptions::default()))
        }
    }
}

/// What the verifier keeps of a sampled response: its payload, moved
/// aside as it arrives and compared only after the timed phase.
pub enum Served {
    TopK(Vec<Vec<ScoredItem>>),
    Rows(Vec<Vec<f32>>),
}

pub struct Sample {
    pub phase: Phase,
    pub index: usize,
    pub version: u64,
    pub served: Served,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Closed,
    Open,
}

fn keep(phase: Phase, index: usize, resp: Resp) -> Sample {
    let version = resp.version();
    let served = match resp {
        Resp::TopK(r) => Served::TopK(r.items),
        Resp::Rows(r) => Served::Rows(r.scores),
    };
    Sample {
        phase,
        index,
        version,
        served,
    }
}

/// Tallies one finished request; a kept sample when it is due for checking.
fn tally(
    counts: &mut Counts,
    phase: Phase,
    index: usize,
    result: Result<Resp, NetError>,
) -> Option<Sample> {
    match result {
        Ok(resp) => {
            counts.succeeded += 1;
            let sampled = index.is_multiple_of(SAMPLE_EVERY)
                && (phase == Phase::Open || index < SAMPLE_EVERY * CLOSED_SAMPLES);
            sampled.then(|| keep(phase, index, resp))
        }
        Err(NetError::Overloaded { .. }) => {
            counts.rejected += 1;
            None
        }
        Err(e) => {
            eprintln!("perfbench: request {index} failed: {e}");
            counts.failed += 1;
            None
        }
    }
}

/// A running deployment plus everything its run sends.
pub struct Deployment {
    pub plan: Plan,
    /// `EMBSRSNP` bytes of versions 2, 3, ... for the hot-swaps.
    pub swap_snapshots: Vec<Vec<u8>>,
    pub server: Server,
    pub client: NetClient,
    pub control: NetClient,
    /// Requests of the set-up's warm-up (they count in `Server::stats`).
    pub warmup: Counts,
}

impl Deployment {
    /// Generates the inputs, freezes the model, starts the server and
    /// warms it up.
    pub fn setup(spec: &Spec, seed: u64, seconds: f64) -> Result<Deployment, String> {
        let plan = Plan::generate(seed, spec.shape(seconds));
        let frozen = FrozenModel::freeze(Embsr::new(model_cfg(1)), MAX_LEN);
        let swap_snapshots = (0..spec.swaps as u64)
            .map(|k| FrozenModel::freeze(Embsr::new(model_cfg(2 + k)), MAX_LEN).snapshot_bytes())
            .collect();
        let server = Server::start(&frozen, || Embsr::new(model_cfg(1)), server_config())
            .map_err(|e| format!("server start: {e}"))?;
        let client = NetClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let control = NetClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let mut warmup = Counts::default();
        let mut inflight = VecDeque::new();
        for (i, req) in plan.warmup.iter().enumerate() {
            if inflight.len() >= spec.window {
                let w: Waiting = inflight.pop_front().expect("window is non-empty");
                let _ = tally(&mut warmup, Phase::Closed, i, w.wait());
            }
            warmup.attempted += 1;
            inflight.push_back(submit(&client, spec.kind, req));
        }
        for w in inflight {
            let _ = tally(&mut warmup, Phase::Closed, 1, w.wait());
        }
        if warmup.failed > 0 {
            return Err(format!("{} warm-up request(s) failed", warmup.failed));
        }
        Ok(Deployment {
            plan,
            swap_snapshots,
            server,
            client,
            control,
            warmup,
        })
    }

    pub fn shutdown(self) {
        drop(self.client);
        drop(self.control);
        self.server.shutdown();
    }
}

/// Closed-loop result.
pub struct Closed {
    pub counts: Counts,
    /// `(seconds since start, sessions)` of each successful request.
    pub done: Vec<(f64, u64)>,
    /// Per-request timestamps when recorded (`due_us` is the submit time).
    pub stamps: Vec<Stamps>,
    pub secs: f64,
    pub samples: Vec<Sample>,
}

impl Closed {
    /// Sessions per second: the median over the full windows of the run.
    pub fn throughput(&self) -> f64 {
        let windows = (self.secs / THROUGHPUT_WINDOW_S).floor().max(1.0) as usize;
        let mut per = vec![0u64; windows];
        for &(t, n) in &self.done {
            let w = (t / THROUGHPUT_WINDOW_S) as usize;
            if w < windows {
                per[w] += n;
            }
        }
        let width = if self.secs < THROUGHPUT_WINDOW_S {
            self.secs
        } else {
            THROUGHPUT_WINDOW_S
        };
        median(&per.iter().map(|&n| n as f64 / width).collect::<Vec<_>>())
    }
}

/// Keeps `window` requests of `requests` in flight on one connection until
/// `secs` have passed, then drains the window. With `record`, keeps each
/// request's timestamps for spans.
pub fn closed_loop(
    client: &NetClient,
    kind: Kind,
    requests: &[Vec<Session>],
    window: usize,
    secs: f64,
    record: bool,
) -> Closed {
    let mut counts = Counts::default();
    let mut samples = Vec::new();
    let mut done = Vec::with_capacity(requests.len());
    let mut stamps = Vec::new();
    let mut inflight: VecDeque<(usize, Waiting, f64, f64)> = VecDeque::with_capacity(window);
    let start = Instant::now();
    let us = |t: Instant| t.saturating_duration_since(start).as_secs_f64() * 1e6;
    let deadline = start + Duration::from_secs_f64(secs);
    let mut next = 0;
    loop {
        while inflight.len() < window && next < requests.len() && Instant::now() < deadline {
            counts.attempted += 1;
            let submitted = Instant::now();
            let w = submit(client, kind, &requests[next]);
            inflight.push_back((next, w, us(submitted), us(Instant::now())));
            next += 1;
        }
        let Some((i, w, submitted_us, sent_us)) = inflight.pop_front() else {
            break;
        };
        let before = counts.succeeded;
        samples.extend(tally(&mut counts, Phase::Closed, i, w.wait()));
        let now = Instant::now();
        if counts.succeeded > before {
            done.push((us(now) / 1e6, requests[i].len() as u64));
        }
        if record {
            stamps.push(Stamps {
                due_us: submitted_us,
                submitted_us,
                sent_us,
                done_us: us(now),
            });
        }
    }
    Closed {
        counts,
        done,
        stamps,
        secs: start.elapsed().as_secs_f64(),
        samples,
    }
}

/// Per-request timestamps of the open loop, µs from the phase start.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stamps {
    pub due_us: f64,
    pub submitted_us: f64,
    pub sent_us: f64,
    pub done_us: f64,
}

/// Open-loop result.
pub struct Open {
    pub counts: Counts,
    /// Latency of each successful request from its due time, ms.
    pub latencies_ms: Vec<f64>,
    /// How late the generator sent each request, ms.
    pub late_ms: Vec<f64>,
    pub stamps: Vec<Stamps>,
    pub swap_ms: Vec<f64>,
    pub swap_errors: Vec<String>,
    pub samples: Vec<Sample>,
}

/// Sends `requests` at `rate_rps` from one generator thread and collects
/// them on the calling thread; the hot-swap at each index of `swaps`
/// activates the next snapshot of `snapshots` on the `control` connection.
pub fn open_loop(
    client: &NetClient,
    control: &NetClient,
    kind: Kind,
    requests: &[Vec<Session>],
    rate_rps: f64,
    swaps: &[usize],
    snapshots: &[Vec<u8>],
) -> Open {
    let interval = 1.0 / rate_rps;
    let (tx, rx) = mpsc::channel::<(usize, Instant, f64, f64, Waiting)>();
    let (swap_tx, swap_rx) = mpsc::channel::<usize>();
    let mut counts = Counts::default();
    let mut latencies_ms = Vec::with_capacity(requests.len());
    let mut stamps = vec![Stamps::default(); requests.len()];
    let mut samples = Vec::new();
    let start = Instant::now() + Duration::from_millis(5);
    let (late_ms, (swap_ms, swap_errors)) = std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut late_ms = Vec::with_capacity(requests.len());
            let mut next_swap = 0;
            for (i, req) in requests.iter().enumerate() {
                let due = start + Duration::from_secs_f64(i as f64 * interval);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                if swaps.get(next_swap) == Some(&i) {
                    let _ = swap_tx.send(next_swap);
                    next_swap += 1;
                }
                let submitted = Instant::now();
                let waiting = submit(client, kind, req);
                let sent = Instant::now();
                late_ms.push(submitted.saturating_duration_since(due).as_secs_f64() * 1e3);
                let us = |t: Instant| t.saturating_duration_since(start).as_secs_f64() * 1e6;
                if tx.send((i, due, us(submitted), us(sent), waiting)).is_err() {
                    break;
                }
            }
            late_ms
        });
        let swapper = scope.spawn(move || {
            let mut swap_ms = Vec::new();
            let mut errors = Vec::new();
            for k in swap_rx {
                let version = 2 + k as u64;
                let t = Instant::now();
                match control
                    .load_snapshot(version, &snapshots[k])
                    .and_then(|()| control.activate(version))
                {
                    Ok(()) => swap_ms.push(t.elapsed().as_secs_f64() * 1e3),
                    Err(e) => errors.push(format!("hot-swap to version {version}: {e}")),
                }
            }
            (swap_ms, errors)
        });
        for (i, due, submitted_us, sent_us, waiting) in rx {
            counts.attempted += 1;
            let result = waiting.wait();
            let done = Instant::now();
            if result.is_ok() {
                latencies_ms.push(done.saturating_duration_since(due).as_secs_f64() * 1e3);
            }
            stamps[i] = Stamps {
                due_us: due.saturating_duration_since(start).as_secs_f64() * 1e6,
                submitted_us,
                sent_us,
                done_us: done.saturating_duration_since(start).as_secs_f64() * 1e6,
            };
            samples.extend(tally(&mut counts, Phase::Open, i, result));
        }
        (
            generator.join().expect("generator thread panicked"),
            swapper.join().expect("swap thread panicked"),
        )
    });
    Open {
        counts,
        latencies_ms,
        late_ms,
        stamps,
        swap_ms,
        swap_errors,
        samples,
    }
}

/// Checks every sample bitwise against `refs[version - 1]`, an in-process
/// frozen model of the version the response is tagged with. Returns the
/// mismatches.
pub fn verify(
    closed: &[Vec<Session>],
    open: &[Vec<Session>],
    kind: Kind,
    samples: &[Sample],
    refs: &[FrozenModel<Embsr>],
) -> Vec<String> {
    let mut errors = Vec::new();
    for s in samples {
        let Some(model) = (s.version as usize)
            .checked_sub(1)
            .and_then(|v| refs.get(v))
        else {
            errors.push(format!(
                "{:?} request {} tagged with unknown version {}",
                s.phase, s.index, s.version
            ));
            continue;
        };
        let sessions = match s.phase {
            Phase::Closed => &closed[s.index],
            Phase::Open => &open[s.index],
        };
        let ok = match (&s.served, kind) {
            (Served::TopK(items), Kind::TopK) => same_lists(&model.top_k(sessions, TOP_K), items),
            (Served::Rows(rows), Kind::Rows) => same_rows(&model.score_batch(sessions), rows),
            _ => false,
        };
        if !ok {
            errors.push(format!(
                "{:?} request {} (version {}) differs from the in-process reference",
                s.phase, s.index, s.version
            ));
        }
    }
    errors
}

/// Bitwise equality of score rows.
pub fn same_rows(a: &[Vec<f32>], b: &[Vec<f32>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Bitwise equality of recommendation lists.
pub fn same_lists(a: &[Vec<ScoredItem>], b: &[Vec<ScoredItem>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|(p, q)| p.item == q.item && p.score.to_bits() == q.score.to_bits())
        })
}

/// In-process references for versions `1..=versions`.
pub fn references(versions: usize) -> Vec<FrozenModel<Embsr>> {
    (1..=versions as u64)
        .map(|v| FrozenModel::freeze(Embsr::new(model_cfg(v)), MAX_LEN))
        .collect()
}

/// Checks the client-side tallies against the server's own accounting,
/// which counts answered control commands as completed too.
pub fn reconcile(stats: &ServerStats, succeeded: u64, rejected: u64, control: u64) -> Vec<String> {
    let mut errors = Vec::new();
    if stats.completed != succeeded + control
        || stats.rejected != rejected
        || stats.control != control
    {
        errors.push(format!(
            "accounting: server completed {} / rejected {} / control {}, clients saw {succeeded} / {rejected} / {control}",
            stats.completed, stats.rejected, stats.control
        ));
    }
    if stats.deadline_expired + stats.unavailable + stats.bad_requests > 0 {
        errors.push(format!("server reported failures: {stats:?}"));
    }
    errors
}

/// The end-to-end run of a serving workload.
pub fn run(spec: &Spec, seed: u64, seconds: f64, out: &mut Outcome) {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut deployment = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = deployment.take() {
            Deployment::shutdown(previous);
        }
        let t = Instant::now();
        match Deployment::setup(spec, seed, seconds) {
            Ok(d) => {
                setup_s.push(t.elapsed().as_secs_f64());
                deployment = Some(d);
            }
            Err(e) => {
                out.error(format!("set-up {rep}: {e}"));
                return;
            }
        }
    }
    let d = deployment.expect("at least one set-up");
    let closed = closed_loop(
        &d.client,
        spec.kind,
        &d.plan.closed,
        spec.window,
        Spec::closed_secs(seconds),
        false,
    );
    let open = open_loop(
        &d.client,
        &d.control,
        spec.kind,
        &d.plan.open,
        spec.rate_rps,
        &d.plan.swaps,
        &d.swap_snapshots,
    );
    let stats = d.server.stats();
    let throughput = closed.throughput();
    let samples: Vec<Sample> = closed.samples.into_iter().chain(open.samples).collect();
    let refs = references(1 + d.plan.swaps.len());
    let mismatches = verify(&d.plan.closed, &d.plan.open, spec.kind, &samples, &refs);
    let verified = samples.len() - mismatches.len();

    let mut total = d.warmup;
    total.add(closed.counts);
    total.add(open.counts);
    let control = 2 * open.swap_ms.len() as u64;
    for e in reconcile(&stats, total.succeeded, total.rejected, control)
        .into_iter()
        .chain(open.swap_errors)
    {
        out.error(e);
    }
    if open.swap_ms.len() != d.plan.swaps.len() {
        out.error(format!(
            "{} of {} hot-swaps done",
            open.swap_ms.len(),
            d.plan.swaps.len()
        ));
    }
    out.counts.add(closed.counts);
    out.counts.add(open.counts);
    out.counts.failed += mismatches.len() as u64;
    for e in mismatches {
        out.error(e);
    }

    print_phase("warmup", &d.warmup);
    print_phase("closed", &closed.counts);
    print_phase("open", &open.counts);
    println!(
        "server stats: completed {} rejected {} control {} (reconciled against clients)",
        stats.completed, stats.rejected, stats.control
    );
    println!(
        "verified {verified} of {} sampled responses bitwise; generator late max {:.3} ms p99 {:.3} ms",
        samples.len(),
        open.late_ms.iter().copied().fold(0.0, f64::max),
        percentile(&open.late_ms, 0.99),
    );
    if !open.swap_ms.is_empty() {
        println!("hot-swaps: {:?} ms", open.swap_ms);
    }
    println!(
        "open loop: {} requests at {} req/s, {} latency samples, {} beyond p99",
        d.plan.open.len(),
        spec.rate_rps,
        open.latencies_ms.len(),
        open.latencies_ms.len() / 100
    );
    println!(
        "closed loop: {} window(s) of {THROUGHPUT_WINDOW_S} s, window {} requests",
        (closed.secs / THROUGHPUT_WINDOW_S).floor(),
        spec.window
    );
    out.metric("throughput_sps", "sessions/s", throughput);
    if open.latencies_ms.is_empty() {
        out.error("no open-loop request succeeded".into());
    } else {
        // p99 is printed but is not a result metric: on a shared 2-core VM it
        // spread over 50% between seeds of identical code.
        println!(
            "open loop p99: {:.4} ms",
            percentile(&open.latencies_ms, 0.99)
        );
        out.metric("p50_ms", "ms", percentile(&open.latencies_ms, 0.5));
    }
    out.metric("setup_s", "s", median(&setup_s));
    // Every workload reports every end-to-end metric. Serving has no target
    // item to rank, so its mrr20 is the share of sampled responses that
    // matched the reference bitwise: 100 on every correct run.
    out.metric(
        "mrr20",
        "%",
        100.0 * verified as f64 / samples.len().max(1) as f64,
    );
    out.series.push(("open_latency_ms", open.latencies_ms));
    out.series.push(("generator_late_ms", open.late_ms));
    out.series.push((
        "closed_done_s",
        closed.done.iter().map(|&(t, _)| t).collect(),
    ));
    out.series.push(("setup_s", setup_s));
    d.shutdown();
}

pub fn print_phase(name: &str, c: &Counts) {
    println!(
        "phase {name}: attempted {} succeeded {} rejected {} failed {}",
        c.attempted, c.succeeded, c.rejected, c.failed
    );
}
