//! Runs one workload and turns its rounds into the declared metrics.
//!
//! Run shape, every workload: set-up (build the deployment, generate the
//! inputs, one short untimed warm-up round), then timed rounds of a
//! fixed number of operations until `--seconds` is spent. Each round
//! starts from reset state, so memory stays bounded and rounds are
//! stationary. End-to-end metrics come from untraced runs only; the
//! traced run alternates untraced and traced rounds and reports the
//! per-layer metrics plus what tracing itself cost.

use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::contract::{Contract, MetricSpec};
use crate::driver::{self, RoundOutcome};
use crate::spans::{self, Recorder};
use crate::stats;
use crate::workloads::{self, LayerMetrics, Traced, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Traced rounds whose spans are kept and written out.
const TRACED_ROUNDS_KEPT: usize = 2;
/// Where the traced run writes `<workload>.spans.jsonl`, relative to the
/// directory the benchmark is run from (the repository root).
pub const RESULTS_DIR: &str = "crates/bench_e2e/results";

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// One of [`workloads::NAMES`].
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics from an untraced one.
    pub trace: bool,
    /// One small round, to check that everything runs.
    pub smoke: bool,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from `BENCHMARK.json`.
    pub name: String,
    /// As measured.
    pub value: f64,
    /// Unit from `BENCHMARK.json`.
    pub unit: String,
}

/// The outcome of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Operations whose results were checked.
    pub attempted: u64,
    /// Of those, the ones that differed from the seed's prediction.
    pub failed: u64,
    /// Every end-to-end metric (untraced) or per-layer metric (traced).
    pub metrics: Vec<Metric>,
    /// Facts a reader needs beside the numbers.
    pub notes: Vec<String>,
}

impl RunResult {
    /// No operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line the contract asks for: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> serde_json::Value {
        let metrics: serde_json::Map<String, serde_json::Value> = self
            .metrics
            .iter()
            .map(|metric| {
                (
                    metric.name.clone(),
                    serde_json::json!({"value": metric.value, "unit": metric.unit}),
                )
            })
            .collect();
        serde_json::json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        })
    }
}

fn round_ops(config: &RunConfig) -> Result<usize, String> {
    let ops = workloads::ops_per_round(&config.workload).ok_or_else(|| {
        format!(
            "unknown workload `{}`; expected one of {:?}",
            config.workload,
            workloads::NAMES
        )
    })?;
    Ok(if config.smoke {
        workloads::smoke_ops(&config.workload)
    } else {
        ops
    })
}

/// Builds the deployment and warms it up; returns it with the time that
/// took.
fn timed_set_up(
    config: &RunConfig,
    ops: usize,
    recorder: Option<Arc<Recorder>>,
) -> Result<(Box<dyn Workload>, f64), String> {
    let started = Instant::now();
    let mut workload = workloads::set_up(&config.workload, config.seed, ops, recorder)?;
    let warm_up = workload.round((ops / 10).max(1));
    let elapsed = started.elapsed().as_secs_f64();
    if warm_up.failed > 0 {
        return Err(format!(
            "{} of {} warm-up operations differed from the seed's prediction",
            warm_up.failed,
            warm_up.attempted()
        ));
    }
    Ok((workload, elapsed))
}

fn ops_per_s(round: &RoundOutcome) -> f64 {
    round.attempted() as f64 / round.wall.as_secs_f64().max(1e-9)
}

/// Quantile `q` of one round's operation latencies, in microseconds.
fn latency_us(round: &RoundOutcome, q: f64) -> f64 {
    let mut us: Vec<f64> = round
        .latencies_ns
        .iter()
        .map(|ns| *ns as f64 / 1_000.0)
        .collect();
    stats::quantile(&mut us, q)
}

fn cpu_ms_per_kop(round: &RoundOutcome) -> f64 {
    round.cpu_ms / (round.attempted() as f64 / 1_000.0).max(1e-9)
}

fn common_notes(config: &RunConfig, clients: usize, ops: usize, rounds: usize) -> Vec<String> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        format!(
            "closed loop, {clients} client(s) on {cores} usable core(s), {}, loopback only",
            match cores {
                1 => "every thread confined to that core: effects that need two cores at once are not measured",
                _ => "NOT pinned to one core: expect noisy numbers",
            },
        ),
        format!(
            "third-party crates: {}",
            option_env!("GREMLIN_BENCH_DEPS").unwrap_or("as published")
        ),
        format!(
            "workload {} seed {} : {rounds} round(s) of {ops} operations",
            config.workload, config.seed
        ),
    ]
}

/// Runs `config` and returns what the contract's result line needs.
///
/// # Errors
///
/// The deployment could not be started, the warm-up failed its checks,
/// or (traced) the spans could not be written.
pub fn run(config: &RunConfig, contract: &Contract) -> Result<RunResult, String> {
    if config.trace {
        run_traced(config, contract)
    } else {
        run_untraced(config, contract)
    }
}

fn run_untraced(config: &RunConfig, contract: &Contract) -> Result<RunResult, String> {
    let ops = round_ops(config)?;
    let repeats = if config.smoke { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::with_capacity(repeats);
    let mut workload = None;
    for _ in 0..repeats {
        // Tear the previous deployment down before timing the next.
        drop(workload.take());
        let (built, seconds) = timed_set_up(config, ops, None)?;
        setups.push(seconds);
        workload = Some(built);
    }
    let mut workload = workload.expect("at least one set-up ran");

    let budget = Duration::from_secs_f64(config.seconds);
    let measuring = Instant::now();
    let mut rounds: Vec<RoundOutcome> = Vec::new();
    loop {
        rounds.push(workload.round(ops));
        let elapsed = measuring.elapsed();
        // Start another round only if at least half of it fits.
        if config.smoke || elapsed + elapsed / (2 * rounds.len() as u32) >= budget {
            break;
        }
    }
    let clients = workload.clients();
    drop(workload);

    let attempted: usize = rounds.iter().map(RoundOutcome::attempted).sum();
    let failed: usize = rounds.iter().map(|round| round.failed).sum();
    // Every metric is a median over the rounds: the reference box has
    // phases in which everything runs a third slower, and a median does
    // not move unless such a phase covers more than half of the run.
    let per_round = |of: fn(&RoundOutcome) -> f64| -> Vec<f64> { rounds.iter().map(of).collect() };
    let mut round_p50 = per_round(|round| latency_us(round, 0.5));
    let mut round_cpu = per_round(cpu_ms_per_kop);
    let mut rates = per_round(ops_per_s);
    let rates_in_order = format!(
        "ops_per_s by round, in order: {:?}",
        rates.iter().map(|rate| rate.round()).collect::<Vec<_>>()
    );

    let measured = [
        ("setup_s", stats::median(&mut setups)),
        ("ops_per_s", stats::median(&mut rates)),
        ("op_latency_p50_us", stats::median(&mut round_p50)),
        ("cpu_ms_per_kop", stats::median(&mut round_cpu)),
        ("peak_rss_mb", driver::peak_rss_mib()),
    ];
    let metrics = contract
        .end_to_end
        .iter()
        .map(|spec| {
            measured
                .iter()
                .find(|(name, _)| *name == spec.name)
                .map(|(_, value)| metric(spec, *value))
                .ok_or_else(|| {
                    format!(
                        "BENCHMARK.json declares `{}`, which nothing measures",
                        spec.name
                    )
                })
        })
        .collect::<Result<Vec<_>, _>>()?;

    let mut notes = common_notes(config, clients, ops, rounds.len());
    notes.push(format!(
        "op_latency_p50_us and cpu_ms_per_kop are medians over {} rounds; each round's p50 is over {ops} samples",
        rounds.len(),
    ));
    notes.push(format!(
        "setup_s is the median of {} set-up(s): {:?}",
        setups.len(),
        setups
    ));
    notes.push(rates_in_order);
    Ok(RunResult {
        attempted: attempted as u64,
        failed: failed as u64,
        metrics,
        notes,
    })
}

fn metric(spec: &MetricSpec, value: f64) -> Metric {
    Metric {
        name: spec.name.clone(),
        value,
        unit: spec.unit.clone(),
    }
}

fn run_traced(config: &RunConfig, contract: &Contract) -> Result<RunResult, String> {
    let ops = round_ops(config)?;
    let recorder = Arc::new(Recorder::new());
    let (mut workload, _) = timed_set_up(config, ops, Some(Arc::clone(&recorder)))?;

    // Alternate untraced and traced rounds, so that both see the same
    // machine state; at least one pair, and no more than fit in 70 % of
    // the budget (the direct probes need the rest).
    let budget = Duration::from_secs_f64(config.seconds * 0.7);
    let measuring = Instant::now();
    let mut untraced: Vec<RoundOutcome> = Vec::new();
    let mut traced_rounds: Vec<RoundOutcome> = Vec::new();
    let mut kept = Traced::default();
    loop {
        recorder.set_enabled(false);
        untraced.push(workload.round(ops));
        recorder.set_enabled(true);
        traced_rounds.push(workload.round(ops));
        recorder.set_enabled(false);
        let spans = recorder.drain();
        if traced_rounds.len() <= TRACED_ROUNDS_KEPT {
            kept.spans.extend(spans);
        }
        let elapsed = measuring.elapsed();
        if config.smoke || elapsed + elapsed / traced_rounds.len() as u32 >= budget {
            break;
        }
    }
    kept.untraced_latencies_ns = untraced
        .iter()
        .flat_map(|round| round.latencies_ns.iter().copied())
        .collect();
    kept.self_times = spans::group_by_op(&kept.spans)
        .iter()
        .filter_map(|op| spans::self_times(op))
        .collect();

    let mut layers = LayerMetrics::default();
    workload.layer_metrics(&kept, &mut layers);
    let clients = workload.clients();
    drop(workload);

    let untraced_rate = stats::median(&mut untraced.iter().map(ops_per_s).collect::<Vec<_>>());
    let traced_rate = stats::median(&mut traced_rounds.iter().map(ops_per_s).collect::<Vec<_>>());
    layers.set(
        "bench.trace.overhead_pct",
        (untraced_rate - traced_rate) / untraced_rate.max(1e-9) * 100.0,
    );
    layers.set("bench.trace.spans", kept.spans.len() as f64);
    // The tail as an application or operator sees it, from the untraced
    // rounds. Not an end-to-end metric: on one shared core it is set by
    // the kernel's time slices and does not repeat within a tenth.
    let mut round_p99: Vec<f64> = untraced
        .iter()
        .map(|round| latency_us(round, 0.99))
        .collect();
    layers.set("op_latency_p99_us", stats::median(&mut round_p99));

    let spans_path = Path::new(RESULTS_DIR).join(format!("{}.spans.jsonl", config.workload));
    fs::create_dir_all(RESULTS_DIR)
        .and_then(|()| fs::File::create(&spans_path))
        .and_then(|file| spans::write_jsonl(std::io::BufWriter::new(file), &kept.spans))
        .map_err(|err| format!("writing {}: {err}", spans_path.display()))?;

    for name in layers.0.keys() {
        if !contract.per_layer.iter().any(|spec| spec.name == *name) {
            return Err(format!(
                "`{name}` is measured but not declared in BENCHMARK.json"
            ));
        }
    }
    // A layer the workload does not exercise reports 0.
    let metrics = contract
        .per_layer
        .iter()
        .map(|spec| {
            metric(
                spec,
                layers.0.get(spec.name.as_str()).copied().unwrap_or(0.0),
            )
        })
        .collect();

    let all_rounds = untraced.iter().chain(&traced_rounds);
    let attempted: usize = all_rounds.clone().map(RoundOutcome::attempted).sum();
    let failed: usize = all_rounds.map(|round| round.failed).sum();
    let mut notes = common_notes(config, clients, ops, untraced.len() + traced_rounds.len());
    notes.push(format!(
        "untraced {untraced_rate:.1} ops/s, traced {traced_rate:.1} ops/s over {} pair(s) of rounds",
        traced_rounds.len()
    ));
    notes.push(format!(
        "{} spans of {} traced round(s) written to {}; self times computed for {} operations",
        kept.spans.len(),
        traced_rounds.len().min(TRACED_ROUNDS_KEPT),
        spans_path.display(),
        kept.self_times.len(),
    ));
    Ok(RunResult {
        attempted: attempted as u64,
        failed: failed as u64,
        metrics,
        notes,
    })
}
