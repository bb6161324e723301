//! Measurement helpers: exact percentiles from raw samples, per-phase
//! outcome counts, in-memory spans, and the run's result line.

use std::fmt::Write as _;
use std::time::Instant;

/// Percentile `q` in `[0, 1]` of raw samples by linear interpolation
/// between closest ranks (the definition numpy calls `linear`). Always
/// inside the observed range, unlike a bucketed histogram's midpoints.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Outcomes of one phase. `failed` covers transport errors and
/// verification mismatches alike.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub attempted: u64,
    pub succeeded: u64,
    pub rejected: u64,
    pub failed: u64,
}

impl Counts {
    pub fn add(&mut self, other: Counts) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.rejected += other.rejected;
        self.failed += other.failed;
    }
}

/// One closed span: a named interval with an optional parent and the
/// request it belongs to (0 for spans outside any request).
pub struct Span {
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Spans recorded by the benchmark around its calls into each layer. They
/// stay in memory until the run ends.
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Records a closed span and returns its index (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        start_us: u64,
        end_us: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_us,
            end_us,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// One JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_us, s.end_us, s.request
            );
        }
        out
    }
}

/// A named metric of the result line.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// What one invocation prints last.
#[derive(Default)]
pub struct Outcome {
    pub counts: Counts,
    /// Reasons the run is not correct; empty when it is.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Raw samples kept for the run's artifacts (not part of the result).
    pub series: Vec<(&'static str, Vec<f64>)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    pub fn error(&mut self, msg: String) {
        eprintln!("perfbench: {msg}");
        self.errors.push(msg);
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.counts.failed == 0 && self.counts.attempted > 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push(',');
            }
            let _ = write!(
                m,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                metric.name, metric.value, metric.unit
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{m}}}}}",
            self.correct(),
            self.counts.attempted,
            self.counts.failed
        )
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Milliseconds for a fixed CPU-bound reference loop: a diagnostic of how
/// fast this machine ran during the run, independent of the program.
pub fn calib_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x1234_5678_9ABC_DEF0u64;
    let mut acc = 0.0f64;
    for i in 0..20_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += (x >> 40) as f64 * 1e-9 + i as f64 * 1e-12;
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// `(revision, dirty)` of the working directory when it is the root of a
/// git checkout; git is kept from searching the directories above it.
pub fn git_revision() -> (String, String) {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    let run = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .env("GIT_CEILING_DIRECTORIES", &ceiling)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match run(&["rev-parse", "HEAD"]) {
        Some(rev) => {
            let dirty = run(&["status", "--porcelain"])
                .map_or("unknown".into(), |s| (!s.is_empty()).to_string());
            (rev, dirty)
        }
        None => ("unknown".into(), "unknown".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_inside_the_range() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert!((percentile(&xs, 0.5) - 50.5).abs() < 1e-12);
        assert!((percentile(&xs, 0.99) - 99.01).abs() < 1e-9);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome::default();
        o.counts.attempted = 3;
        o.metric("p50_ms", "ms", 1.25);
        assert_eq!(
            o.result_line(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"p50_ms\":{\"value\":1.25,\"unit\":\"ms\"}}}"
        );
        o.error("mismatch".into());
        assert!(o.result_line().starts_with("{\"correct\":false"));
    }
}
