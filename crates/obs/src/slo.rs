//! Latency objectives evaluated against the live metrics registry.
//!
//! An SLO binds a histogram metric to a quantile objective — "p99 of
//! `serve.request_latency_us` stays at or below 2000µs" — plus an **error
//! budget**: the fraction of samples allowed to violate the objective
//! before the SLO is considered burned. Specs use a compact string form
//! so bins can take them straight from a flag or env var:
//!
//! ```text
//! serve.request_latency_us:p99<=2000        # budget defaults to 1-q = 0.01
//! serve.request_latency_us:p99.9<=5000@0.002
//! ```
//!
//! [`evaluate`] reads the named histograms from the registry
//! ([`metrics::histogram`]) at call time — it is a point-in-time check,
//! not a monitor. The quantile estimate inherits the histogram's ≤1/32
//! (~3.1%) bucketing error; the violation fraction is reported as an
//! interval that is exact from the bucket counts (samples in a bucket
//! that straddles the objective may lie on either side, so they widen it).

use crate::json::JsonValue;
use crate::metrics;

/// One parsed latency objective.
#[derive(Clone, Debug, PartialEq)]
pub struct SloSpec {
    /// Registry name of the histogram (recorded in microseconds).
    pub metric: String,
    /// Objective quantile in `(0, 1)`, e.g. `0.99` for p99.
    pub quantile: f64,
    /// The latency bound the quantile must not exceed, in microseconds.
    pub objective_us: u64,
    /// Allowed violating fraction in `(0, 1]`; defaults to `1 - quantile`.
    pub budget: f64,
}

impl SloSpec {
    /// Parses the compact form `metric:pQQ<=OBJECTIVE_US[@BUDGET]`.
    pub fn parse(s: &str) -> Result<SloSpec, String> {
        let err = |what: &str| format!("SLO `{s}`: {what} (expected `metric:pQQ<=objective_us[@budget]`)");
        let (metric, rest) = s.split_once(':').ok_or_else(|| err("missing `:`"))?;
        let metric = metric.trim();
        if metric.is_empty() {
            return Err(err("empty metric name"));
        }
        let (q_part, rest) = rest.split_once("<=").ok_or_else(|| err("missing `<=`"))?;
        let q_digits = q_part
            .trim()
            .strip_prefix('p')
            .ok_or_else(|| err("quantile must look like `p99`"))?;
        let percent: f64 = q_digits
            .parse()
            .map_err(|_| err("quantile is not a number"))?;
        if !(percent > 0.0 && percent < 100.0) {
            return Err(err("quantile must be in (0, 100)"));
        }
        let quantile = percent / 100.0;
        let (obj_part, budget) = match rest.split_once('@') {
            Some((o, b)) => {
                let budget: f64 = b.trim().parse().map_err(|_| err("budget is not a number"))?;
                if !(budget > 0.0 && budget <= 1.0) {
                    return Err(err("budget must be in (0, 1]"));
                }
                (o, budget)
            }
            None => (rest, 1.0 - quantile),
        };
        let objective_us: u64 = obj_part
            .trim()
            .parse()
            .map_err(|_| err("objective is not an integer microsecond count"))?;
        Ok(SloSpec {
            metric: metric.to_string(),
            quantile,
            objective_us,
            budget,
        })
    }

    /// The canonical compact form (inverse of [`SloSpec::parse`]).
    pub fn display(&self) -> String {
        format!(
            "{}:p{}<={}@{}",
            self.metric,
            trim_float(self.quantile * 100.0),
            self.objective_us,
            trim_float(self.budget)
        )
    }
}

/// Shortest-reasonable rendering of a float: six decimals, trailing zeros
/// stripped. Keeps the default budget `1 - q` from printing binary noise
/// (`0.010000000000000009`).
fn trim_float(v: f64) -> String {
    let s = format!("{v:.6}");
    let s = s.trim_end_matches('0');
    s.trim_end_matches('.').to_string()
}

/// Point-in-time verdict for one [`SloSpec`].
#[derive(Clone, Debug)]
pub struct SloReport {
    pub spec: SloSpec,
    /// Samples in the histogram at evaluation time.
    pub samples: u64,
    /// Measured quantile value in µs (`NaN` when the histogram is empty).
    pub measured_us: f64,
    /// Objective met? An empty histogram is vacuously met.
    pub met: bool,
    /// Bounds `(lower, upper)` on the fraction of samples above the
    /// objective; the true fraction lies inside
    /// ([`metrics::Histogram::fraction_above_bounds`]).
    pub violation_fraction: (f64, f64),
    /// Both bounds of `violation_fraction / budget`: a lower bound
    /// `>= 1.0` means the error budget is certainly exhausted, an upper
    /// bound `< 1.0` that it certainly is not.
    pub budget_consumed: (f64, f64),
}

impl SloReport {
    /// JSON shape used by `results/profile.json`.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("slo", self.spec.display().into()),
            ("metric", self.spec.metric.as_str().into()),
            ("quantile", self.spec.quantile.into()),
            ("objective_us", self.spec.objective_us.into()),
            ("budget", self.spec.budget.into()),
            ("samples", self.samples.into()),
            ("measured_us", self.measured_us.into()),
            ("met", self.met.into()),
            ("violation_fraction_lo", self.violation_fraction.0.into()),
            ("violation_fraction_hi", self.violation_fraction.1.into()),
            ("budget_consumed_lo", self.budget_consumed.0.into()),
            ("budget_consumed_hi", self.budget_consumed.1.into()),
        ])
    }
}

/// Evaluates each spec against the live registry. Unknown metrics resolve
/// to empty histograms (vacuously met, zero budget consumed).
pub fn evaluate(specs: &[SloSpec]) -> Vec<SloReport> {
    specs
        .iter()
        .map(|spec| {
            let h = metrics::histogram(&spec.metric);
            let samples = h.count();
            let measured_us = h.quantile(spec.quantile);
            let (lo, hi) = h.fraction_above_bounds(spec.objective_us);
            let met = samples == 0 || measured_us <= spec.objective_us as f64;
            SloReport {
                spec: spec.clone(),
                samples,
                measured_us,
                met,
                violation_fraction: (lo, hi),
                budget_consumed: (lo / spec.budget, hi / spec.budget),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_and_defaults_the_budget() {
        let spec = SloSpec::parse("serve.request_latency_us:p99<=2000").expect("valid");
        assert_eq!(spec.metric, "serve.request_latency_us");
        assert_eq!(spec.quantile, 0.99);
        assert_eq!(spec.objective_us, 2000);
        assert!((spec.budget - 0.01).abs() < 1e-12);

        let spec = SloSpec::parse("m:p99.9<=5000@0.002").expect("valid");
        assert!((spec.quantile - 0.999).abs() < 1e-12);
        assert!((spec.budget - 0.002).abs() < 1e-12);
        assert_eq!(SloSpec::parse(&spec.display()).expect("round trip"), spec);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "no-colon",
            "m:99<=10",
            "m:p99<10",
            "m:p0<=10",
            "m:p100<=10",
            "m:p99<=abc",
            "m:p99<=10@0",
            "m:p99<=10@1.5",
            ":p99<=10",
        ] {
            assert!(SloSpec::parse(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn evaluate_reads_the_live_histogram_and_accounts_the_budget() {
        let h = metrics::histogram("test.slo.latency_us");
        h.reset();
        for _ in 0..98 {
            h.record(100);
        }
        h.record(10_000);
        h.record(10_000);
        let specs = [
            SloSpec::parse("test.slo.latency_us:p50<=500").expect("spec"),
            SloSpec::parse("test.slo.latency_us:p99<=500@0.01").expect("spec"),
        ];
        let reports = evaluate(&specs);
        assert_eq!(reports.len(), 2);
        // p50 ~ 100µs: met, exactly 2% of samples above objective, budget
        // 0.5.
        assert!(reports[0].met, "p50 {}", reports[0].measured_us);
        let (lo, hi) = reports[0].violation_fraction;
        assert!(lo <= 0.02 && 0.02 <= hi, "[{lo}, {hi}]");
        assert!(reports[0].budget_consumed.1 < 0.1);
        // p99 ~ 10000µs: violated, budget exhausted (2% > 1%).
        assert!(!reports[1].met, "p99 {}", reports[1].measured_us);
        assert!(reports[1].budget_consumed.0 > 1.0);
        assert_eq!(reports[1].samples, 100);
        h.reset();
    }

    #[test]
    fn empty_histogram_is_vacuously_met() {
        let spec = SloSpec::parse("test.slo.never_recorded:p99<=1").expect("spec");
        let r = &evaluate(&[spec])[0];
        assert!(r.met);
        assert_eq!(r.samples, 0);
        assert!(r.measured_us.is_nan());
        assert_eq!(r.budget_consumed, (0.0, 0.0));
        let v = r.to_json_value();
        assert_eq!(v.get("met").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("samples").unwrap().as_f64(), Some(0.0));
    }
}
