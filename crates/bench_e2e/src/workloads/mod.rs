//! The four workloads. Names are fixed; later issues cite them.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::driver::RoundOutcome;
use crate::spans::{Recorder, Span};
use crate::stats;

mod observe;
mod proxy;
mod recipe;

/// Workload names, in the order they are run and reported.
pub const NAMES: [&str; 4] = [
    "proxy_passthrough",
    "proxy_faulted",
    "observe_pipeline",
    "recipe_verdict",
];

/// Operations per timed round (K). A constant per workload, so both
/// sides of a comparison do the same work and exact counts repeat.
/// On the reference box a round takes 0.4 s (observe), 0.7 s (proxy) or
/// 5 s (recipe); `--seconds` then decides how many rounds are run. Each
/// is at least 1000, so a round's p99 has ten samples beyond it.
pub fn ops_per_round(workload: &str) -> Option<usize> {
    match workload {
        "proxy_passthrough" => Some(24_000),
        "proxy_faulted" => Some(24_000),
        "observe_pipeline" => Some(1_000),
        "recipe_verdict" => Some(1_000),
        _ => None,
    }
}

/// Operations per round under `--smoke`.
pub fn smoke_ops(workload: &str) -> usize {
    match workload {
        "observe_pipeline" | "recipe_verdict" => 24,
        _ => 240,
    }
}

/// Values of per-layer metrics, by the names `BENCHMARK.json` lists.
#[derive(Debug, Default)]
pub struct LayerMetrics(pub BTreeMap<&'static str, f64>);

impl LayerMetrics {
    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// What the traced rounds of a run observed, handed to
/// [`Workload::layer_metrics`].
#[derive(Debug, Default)]
pub struct Traced {
    /// Every span of the traced rounds.
    pub spans: Vec<Span>,
    /// Operation latencies of the *untraced* rounds of the same run.
    pub untraced_latencies_ns: Vec<u64>,
    /// Per traced operation (one per root span): self time by span name,
    /// and the root's duration; see [`crate::spans::self_times`].
    pub self_times: Vec<(Vec<(&'static str, u64)>, u64)>,
}

impl Traced {
    /// Durations, in microseconds, of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.duration_ns() as f64 / 1_000.0)
            .collect()
    }

    /// Median duration in microseconds of the spans called `name`.
    pub fn p50_us(&self, name: &str) -> f64 {
        stats::quantile(&mut self.durations_us(name), 0.5)
    }

    /// Mean duration in nanoseconds of the spans called `name`.
    pub fn mean_ns(&self, name: &str) -> f64 {
        stats::mean(&self.durations_us(name)) * 1_000.0
    }
}

/// One deployment of the program under test plus the generated inputs
/// that drive it. Dropping it stops every thread and server it started.
pub trait Workload {
    /// Closed-loop clients driving the deployment: generator
    /// connections, producers, or operators. Never more than the
    /// machine has cores.
    fn clients(&self) -> usize;

    /// Resets state left by the previous round (untimed), runs `ops`
    /// operations from all clients (timed), then checks what the round
    /// left behind against the seed's prediction (untimed); every
    /// deviation counts as a failed operation. Spans are kept when the
    /// recorder given at set-up is enabled.
    fn round(&mut self, ops: usize) -> RoundOutcome;

    /// Per-layer numbers: derived from the traced rounds' spans, from
    /// exact counters, and from direct probes that call each layer's
    /// public functions on the workload's own inputs.
    fn layer_metrics(&mut self, traced: &Traced, out: &mut LayerMetrics);
}

/// Builds the named workload for `ops`-operation rounds. With a
/// recorder, layer boundaries are wrapped so that spans can be kept;
/// without one nothing is wrapped.
///
/// # Errors
///
/// An unknown name, or the deployment could not be started.
pub fn set_up(
    name: &str,
    seed: u64,
    ops: usize,
    recorder: Option<Arc<Recorder>>,
) -> Result<Box<dyn Workload>, String> {
    match name {
        "proxy_passthrough" => {
            proxy::set_up(crate::gen::passthrough_inputs(seed, ops), seed, recorder)
        }
        "proxy_faulted" => proxy::set_up(crate::gen::faulted_inputs(seed, ops), seed, recorder),
        "observe_pipeline" => observe::set_up(seed, ops, recorder),
        "recipe_verdict" => recipe::set_up(seed, ops, recorder),
        other => Err(format!(
            "unknown workload `{other}`; expected one of {NAMES:?}"
        )),
    }
}

/// Times `f` `n` times and returns the median in microseconds.
pub(crate) fn probe_p50_us(n: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let started = std::time::Instant::now();
        f();
        samples.push(started.elapsed().as_nanos() as f64 / 1_000.0);
    }
    stats::quantile(&mut samples, 0.5)
}

/// Times one call of `f`, which performs `items` units of work, and
/// returns nanoseconds per unit.
pub(crate) fn probe_ns_per_item(items: usize, f: impl FnOnce()) -> f64 {
    let started = std::time::Instant::now();
    f();
    started.elapsed().as_nanos() as f64 / items.max(1) as f64
}
