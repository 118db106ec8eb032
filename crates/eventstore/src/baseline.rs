//! Per-edge steady-state baselines learned during fault-free warmup.
//!
//! The Assertion Checker and the streaming monitor both take
//! operator-supplied thresholds; the paper notes that "expected
//! behavior" differs per dependency edge. An [`EdgeBaseline`] captures
//! one edge's steady state from a fault-free warmup phase — request
//! rate (EWMA + MAD dispersion over per-window samples), error rate
//! (Wilson upper confidence bound), and latency percentiles (from
//! `gremlin-telemetry` histogram snapshots, with MAD dispersion over
//! per-window medians) — so later windows can be scored as robust
//! z-scores against the learned profile instead of fixed limits.
//!
//! The statistics are deliberately robust: medians and MAD instead of
//! mean/stddev (a single warmup hiccup must not inflate the scale),
//! and every dispersion is floored (a relative and an absolute floor)
//! so a perfectly steady warmup can never produce a zero scale and
//! turn ordinary jitter into infinite z-scores.

use serde::{Deserialize, Serialize};

use gremlin_telemetry::HistogramSnapshot;

/// Scale factor turning a MAD into a robust standard-deviation
/// estimate (for normally distributed data).
pub const MAD_SIGMA: f64 = 1.4826;

/// EWMA smoothing factor for the request-rate baseline.
const RATE_EWMA_ALPHA: f64 = 0.3;

/// Relative floor on the rate scale, as a fraction of the baseline
/// rate.
const RATE_REL_FLOOR: f64 = 0.25;
/// Absolute floor on the rate scale, requests/second.
const RATE_ABS_FLOOR: f64 = 0.5;
/// Relative floor on the latency scale, as a fraction of the baseline
/// percentile.
const LATENCY_REL_FLOOR: f64 = 0.25;
/// Absolute floor on the latency scale, microseconds.
const LATENCY_ABS_FLOOR_US: f64 = 1_000.0;
/// Floor on the error-rate margin (the Wilson half-width).
const ERROR_MARGIN_FLOOR: f64 = 0.02;
/// z for the 95% Wilson upper confidence bound.
const WILSON_Z: f64 = 1.96;

/// Median of a sample; `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Median absolute deviation of a sample around `center`; `0.0` for
/// an empty slice.
pub fn mad(values: &[f64], center: f64) -> f64 {
    let deviations: Vec<f64> = values.iter().map(|v| (v - center).abs()).collect();
    median(&deviations)
}

/// Wilson score interval upper bound for a binomial proportion with
/// `failures` successes out of `trials`, at confidence `z` (e.g.
/// `1.96` for 95%). Returns `1.0` when `trials` is zero — with no
/// observations nothing can be ruled out.
pub fn wilson_upper(failures: u64, trials: u64, z: f64) -> f64 {
    if trials == 0 {
        return 1.0;
    }
    let n = trials as f64;
    let p = failures as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = p + z2 / (2.0 * n);
    let margin = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((center + margin) / denom).clamp(0.0, 1.0)
}

/// One edge's learned steady-state profile.
///
/// Built by a [`BaselineBuilder`] from fault-free warmup windows; the
/// `*_z` methods score a later window against the profile as robust
/// z-scores. Every scale is floored, so the scores are always finite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeBaseline {
    /// Calling service.
    pub src: String,
    /// Called service.
    pub dst: String,
    /// Warmup windows (with traffic) the profile was learned from.
    pub windows: u32,
    /// Exponentially weighted moving average of per-window request
    /// rates, requests/second.
    pub rate_ewma: f64,
    /// Median absolute deviation of per-window request rates.
    pub rate_mad: f64,
    /// Failed fraction of responses over the whole warmup.
    pub error_rate: f64,
    /// Wilson 95% upper confidence bound on the error rate.
    pub error_upper: f64,
    /// Responses observed during warmup.
    pub responses: u64,
    /// p50 reply latency over the whole warmup, microseconds.
    pub p50_us: u64,
    /// p99 reply latency over the whole warmup, microseconds.
    pub p99_us: u64,
    /// Median absolute deviation of per-window p50 latencies,
    /// microseconds.
    pub latency_mad_us: f64,
}

impl EdgeBaseline {
    /// Robust z-score of a window's request rate against the
    /// baseline. Two-sided: both a surge and a collapse (e.g. a
    /// crashed dependency) are surprising.
    pub fn rate_z(&self, rate_rps: f64) -> f64 {
        let scale = (MAD_SIGMA * self.rate_mad)
            .max(RATE_REL_FLOOR * self.rate_ewma)
            .max(RATE_ABS_FLOOR);
        (rate_rps - self.rate_ewma).abs() / scale
    }

    /// Robust z-score of a window's error rate. One-sided: only an
    /// error rate *above* the Wilson upper bound is surprising, scaled
    /// by the (floored) Wilson margin. `0.0` for a window with no
    /// responses.
    pub fn error_z(&self, errors: u64, responses: u64) -> f64 {
        if responses == 0 {
            return 0.0;
        }
        let rate = errors as f64 / responses as f64;
        let excess = rate - self.error_upper;
        if excess <= 0.0 {
            return 0.0;
        }
        excess / (self.error_upper - self.error_rate).max(ERROR_MARGIN_FLOOR)
    }

    /// Robust z-score of a window's latency percentiles. One-sided:
    /// only slower-than-baseline is surprising. `0.0` when the warmup
    /// saw no replies on the edge.
    pub fn latency_z(&self, p50_us: u64, p99_us: u64) -> f64 {
        if self.responses == 0 {
            return 0.0;
        }
        let mad = MAD_SIGMA * self.latency_mad_us;
        let scale50 = mad
            .max(LATENCY_REL_FLOOR * self.p50_us as f64)
            .max(LATENCY_ABS_FLOOR_US);
        let scale99 = mad
            .max(LATENCY_REL_FLOOR * self.p99_us as f64)
            .max(LATENCY_ABS_FLOOR_US);
        let z50 = (p50_us as f64 - self.p50_us as f64) / scale50;
        let z99 = (p99_us as f64 - self.p99_us as f64) / scale99;
        z50.max(z99).max(0.0)
    }
}

/// Accumulates fault-free warmup windows for one edge and builds the
/// [`EdgeBaseline`].
///
/// # Examples
///
/// ```
/// use gremlin_store::BaselineBuilder;
/// use gremlin_telemetry::{HistogramSnapshot, LatencyHistogram};
/// use std::time::Duration;
///
/// let mut builder = BaselineBuilder::new("web", "db");
/// for _ in 0..5 {
///     let hist = LatencyHistogram::new();
///     for _ in 0..10 {
///         hist.record(Duration::from_millis(5));
///     }
///     builder.add_window(10.0, 10, 0, &hist.snapshot());
/// }
/// let baseline = builder.build();
/// assert_eq!(baseline.windows, 5);
/// assert!(baseline.rate_z(10.0) < 1.0);
/// assert!(baseline.rate_z(100.0) > 3.0);
/// ```
#[derive(Debug)]
pub struct BaselineBuilder {
    src: String,
    dst: String,
    rates: Vec<f64>,
    window_p50s: Vec<f64>,
    errors: u64,
    responses: u64,
    latency: HistogramSnapshot,
}

impl BaselineBuilder {
    /// Creates an empty builder for the `src -> dst` edge.
    pub fn new(src: impl Into<String>, dst: impl Into<String>) -> BaselineBuilder {
        BaselineBuilder {
            src: src.into(),
            dst: dst.into(),
            rates: Vec::new(),
            window_p50s: Vec::new(),
            errors: 0,
            responses: 0,
            latency: HistogramSnapshot::empty(),
        }
    }

    /// Folds one warmup window into the profile: the window's request
    /// rate, its response/error counts, and the latency distribution
    /// of just that window (a snapshot delta).
    pub fn add_window(
        &mut self,
        rate_rps: f64,
        responses: u64,
        errors: u64,
        latency: &HistogramSnapshot,
    ) {
        self.rates.push(rate_rps);
        self.responses += responses;
        self.errors += errors;
        if !latency.is_empty() {
            if let Some(p50) = latency.percentile(0.50) {
                self.window_p50s.push(p50.as_micros() as f64);
            }
            self.latency = self.latency.merge(latency);
        }
    }

    /// Warmup windows folded in so far.
    pub fn windows(&self) -> u32 {
        self.rates.len() as u32
    }

    /// Builds the baseline from the windows folded in so far.
    pub fn build(&self) -> EdgeBaseline {
        let mut ewma = 0.0;
        for (i, rate) in self.rates.iter().enumerate() {
            ewma = if i == 0 {
                *rate
            } else {
                RATE_EWMA_ALPHA * rate + (1.0 - RATE_EWMA_ALPHA) * ewma
            };
        }
        let rate_mad = mad(&self.rates, median(&self.rates));
        let error_rate = if self.responses == 0 {
            0.0
        } else {
            self.errors as f64 / self.responses as f64
        };
        EdgeBaseline {
            src: self.src.clone(),
            dst: self.dst.clone(),
            windows: self.windows(),
            rate_ewma: ewma,
            rate_mad,
            error_rate,
            error_upper: wilson_upper(self.errors, self.responses, WILSON_Z),
            responses: self.responses,
            p50_us: self
                .latency
                .percentile(0.50)
                .map(|d| d.as_micros() as u64)
                .unwrap_or(0),
            p99_us: self
                .latency
                .percentile(0.99)
                .map(|d| d.as_micros() as u64)
                .unwrap_or(0),
            latency_mad_us: mad(&self.window_p50s, median(&self.window_p50s)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gremlin_telemetry::LatencyHistogram;
    use std::time::Duration;

    fn window_hist(latency_ms: u64, count: usize) -> HistogramSnapshot {
        let hist = LatencyHistogram::new();
        for _ in 0..count {
            hist.record(Duration::from_millis(latency_ms));
        }
        hist.snapshot()
    }

    fn steady_baseline() -> EdgeBaseline {
        let mut builder = BaselineBuilder::new("a", "b");
        for _ in 0..6 {
            builder.add_window(10.0, 10, 0, &window_hist(5, 10));
        }
        builder.build()
    }

    #[test]
    fn median_and_mad_basics() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(mad(&[1.0, 2.0, 3.0], 2.0), 1.0);
        assert_eq!(mad(&[], 0.0), 0.0);
    }

    #[test]
    fn wilson_upper_bounds() {
        // No observations: nothing can be ruled out.
        assert_eq!(wilson_upper(0, 0, 1.96), 1.0);
        // Clean warmup: upper bound shrinks with sample size.
        let small = wilson_upper(0, 10, 1.96);
        let large = wilson_upper(0, 1000, 1.96);
        assert!(small > large, "{small} vs {large}");
        assert!(large < 0.01, "{large}");
        // All failures: bound pinned near 1.
        assert!(wilson_upper(10, 10, 1.96) > 0.7);
        assert!(wilson_upper(10, 10, 1.96) <= 1.0);
    }

    #[test]
    fn steady_windows_score_near_zero() {
        let baseline = steady_baseline();
        assert_eq!(baseline.windows, 6);
        assert!((baseline.rate_ewma - 10.0).abs() < 1e-9);
        assert_eq!(baseline.error_rate, 0.0);
        assert!(baseline.error_upper > 0.0 && baseline.error_upper < 0.1);
        assert!(baseline.p50_us >= 4_000 && baseline.p50_us <= 6_000);
        // An identical window is unsurprising in every dimension.
        assert!(baseline.rate_z(10.0) < 0.5);
        assert_eq!(baseline.error_z(0, 10), 0.0);
        assert!(baseline.latency_z(baseline.p50_us, baseline.p99_us) < 0.5);
    }

    #[test]
    fn deviations_score_high() {
        let baseline = steady_baseline();
        // Rate collapse (crashed dependency) and surge both register.
        assert!(baseline.rate_z(0.0) > 3.0);
        assert!(baseline.rate_z(40.0) > 3.0);
        // A 60ms delay against a 5ms baseline is a massive z.
        assert!(baseline.latency_z(60_000, 60_000) > 10.0);
        // Faster than baseline is not an anomaly.
        assert_eq!(baseline.latency_z(0, 0), 0.0);
        // An all-error window blows far past the Wilson bound.
        assert!(baseline.error_z(10, 10) > 3.0);
        // A single error in a small window stays under the bar.
        assert!(baseline.error_z(1, 20) < 3.0);
    }

    #[test]
    fn degenerate_inputs_stay_finite_and_zero() {
        // A baseline learned from zero-traffic windows must never
        // produce NaN or infinity.
        let mut builder = BaselineBuilder::new("a", "b");
        builder.add_window(0.0, 0, 0, &HistogramSnapshot::empty());
        let baseline = builder.build();
        assert_eq!(baseline.error_rate, 0.0);
        assert_eq!(baseline.error_upper, 1.0);
        assert_eq!(baseline.p50_us, 0);
        for z in [
            baseline.rate_z(0.0),
            baseline.rate_z(100.0),
            baseline.error_z(0, 0),
            baseline.error_z(5, 5),
            baseline.latency_z(1_000_000, 1_000_000),
        ] {
            assert!(z.is_finite(), "{z}");
        }
        // No warmup responses: latency is unscorable, not infinite.
        assert_eq!(baseline.latency_z(1_000_000, 1_000_000), 0.0);
        // Zero responses in the scored window: error is unscorable.
        assert_eq!(steady_baseline().error_z(0, 0), 0.0);
    }

    #[test]
    fn serde_round_trips() {
        let baseline = steady_baseline();
        let json = serde_json::to_string(&baseline).unwrap();
        let back: EdgeBaseline = serde_json::from_str(&json).unwrap();
        assert_eq!(baseline, back);
    }
}
