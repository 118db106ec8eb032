//! The coverage ledger: a cross-run scorecard over flight-recorder
//! artifacts.
//!
//! Every other observability layer (metrics, traces, live monitor,
//! anomaly scorer, flight recorder) watches **one run at a time**.
//! The [`CoverageLedger`] answers the questions that only make sense
//! across runs:
//!
//! * which `(src, dst, fault kind, intensity)` cells of the
//!   fault-injection space have ever been exercised, and with what
//!   outcomes ([`CellStats`]);
//! * which recipes regressed — flipped from passing to
//!   failing/violated, or still pass but drifted hard against their
//!   own historical baselines ([`Regression`], via
//!   [`drift_z`](crate::anomaly::drift_z));
//! * what to test next — [`SteeringPlan`] feeds
//!   `RecipeGenerator::steer`, which skips cells that already
//!   Violated and escalates intensity on cells with long pass
//!   streaks (feedback-based failure testing in the spirit of Cui et
//!   al., arXiv:1908.06466).
//!
//! The ledger is derived state: [`CoverageLedger::scan`] walks a
//! flight-recorder root (each subdirectory is one run, see
//! [`crate::flight`]) plus the append-only `campaigns.jsonl` the
//! [`CampaignDispatcher`](crate::dispatch::CampaignDispatcher) writes
//! for runs that recorded no artifacts. Partial or crashed run
//! directories are indexed as [`RunOutcome::Incomplete`] rather than
//! failing the scan. All derived views (matrix, markdown scorecard,
//! JSON summary) are deterministic for a given root.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use gremlin_store::{EdgeBaseline, Micros};
use gremlin_telemetry::MetricsRegistry;

use crate::anomaly::drift_z;
use crate::flight::{FlightLog, FlightSummary};
use crate::graph::AppGraph;
use crate::monitor::Verdict;
use crate::recipe::RecipeReport;
use crate::scenarios::{Scenario, ScenarioKind};

/// `src` placeholder for service-scoped faults (Crash, Hang, Overload,
/// FakeSuccess) that hit the service from *every* dependent rather
/// than one edge.
pub const SERVICE_WILDCARD: &str = "*";

/// Default robust-z threshold above which baseline drift between two
/// runs of the same edge is reported as a [`Regression`].
pub const DEFAULT_DRIFT_Z: f64 = 3.0;

/// Name of the append-only campaign verdict log inside a flight root.
pub const CAMPAIGN_LEDGER_FILE: &str = "campaigns.jsonl";

/// The fault-type axis of the coverage cube — one variant per
/// [`ScenarioKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FaultKind {
    /// [`ScenarioKind::Abort`].
    Abort,
    /// [`ScenarioKind::Delay`].
    Delay,
    /// [`ScenarioKind::Modify`].
    Modify,
    /// [`ScenarioKind::Disconnect`].
    Disconnect,
    /// [`ScenarioKind::Crash`].
    Crash,
    /// [`ScenarioKind::Hang`].
    Hang,
    /// [`ScenarioKind::Overload`].
    Overload,
    /// [`ScenarioKind::Partition`].
    Partition,
    /// [`ScenarioKind::FakeSuccess`].
    FakeSuccess,
}

impl FaultKind {
    /// Every fault kind, in the canonical column order of the
    /// coverage matrix.
    pub fn all() -> [FaultKind; 9] {
        [
            FaultKind::Abort,
            FaultKind::Delay,
            FaultKind::Modify,
            FaultKind::Disconnect,
            FaultKind::Crash,
            FaultKind::Hang,
            FaultKind::Overload,
            FaultKind::Partition,
            FaultKind::FakeSuccess,
        ]
    }

    /// Short column header for the matrix rendering.
    pub fn short(&self) -> &'static str {
        match self {
            FaultKind::Abort => "abort",
            FaultKind::Delay => "delay",
            FaultKind::Modify => "modify",
            FaultKind::Disconnect => "disc",
            FaultKind::Crash => "crash",
            FaultKind::Hang => "hang",
            FaultKind::Overload => "over",
            FaultKind::Partition => "part",
            FaultKind::FakeSuccess => "fake",
        }
    }

    /// The fault kind of a scenario.
    pub fn of(kind: &ScenarioKind) -> FaultKind {
        match kind {
            ScenarioKind::Abort { .. } => FaultKind::Abort,
            ScenarioKind::Delay { .. } => FaultKind::Delay,
            ScenarioKind::Modify { .. } => FaultKind::Modify,
            ScenarioKind::Disconnect { .. } => FaultKind::Disconnect,
            ScenarioKind::Crash { .. } => FaultKind::Crash,
            ScenarioKind::Hang { .. } => FaultKind::Hang,
            ScenarioKind::Overload { .. } => FaultKind::Overload,
            ScenarioKind::Partition { .. } => FaultKind::Partition,
            ScenarioKind::FakeSuccess { .. } => FaultKind::FakeSuccess,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FaultKind::Abort => "abort",
            FaultKind::Delay => "delay",
            FaultKind::Modify => "modify",
            FaultKind::Disconnect => "disconnect",
            FaultKind::Crash => "crash",
            FaultKind::Hang => "hang",
            FaultKind::Overload => "overload",
            FaultKind::Partition => "partition",
            FaultKind::FakeSuccess => "fake_success",
        };
        f.write_str(name)
    }
}

/// Buckets a scenario's intensity onto a small ordinal scale so that
/// "the same fault, but harder" lands in a *different* cube cell:
///
/// * probability-driven faults (Abort, Crash) map `p` onto quartiles
///   `1..=4` (`ceil(p * 4)`);
/// * duration-driven faults (Delay, Hang, Overload) map the injected
///   delay onto doubling buckets `floor(log2(ms)) + 1`, clamped to
///   `1..=10` — doubling the delay always moves up one bucket, which
///   is exactly what steering's escalation does;
/// * shape-only faults (Modify, Disconnect, Partition, FakeSuccess)
///   have no intensity knob and always bucket to `1`.
pub fn intensity_bucket(kind: &ScenarioKind) -> u8 {
    fn quartile(p: f64) -> u8 {
        ((p * 4.0).ceil() as i64).clamp(1, 4) as u8
    }
    fn duration_bucket(micros: u128) -> u8 {
        let ms = (micros / 1_000).max(1) as u64;
        let bucket = 64 - ms.leading_zeros(); // floor(log2(ms)) + 1
        (bucket as i64).clamp(1, 10) as u8
    }
    match kind {
        ScenarioKind::Abort { probability, .. } | ScenarioKind::Crash { probability, .. } => {
            quartile(*probability)
        }
        ScenarioKind::Delay { interval, .. } | ScenarioKind::Hang { interval, .. } => {
            duration_bucket(interval.as_micros())
        }
        ScenarioKind::Overload { delay, .. } => duration_bucket(delay.as_micros()),
        _ => 1,
    }
}

/// One cell of the coverage cube: `(src, dst, fault kind, intensity
/// bucket)`. Service-scoped faults use [`SERVICE_WILDCARD`] as `src`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CellKey {
    /// Calling service, or [`SERVICE_WILDCARD`] for service-scoped
    /// faults.
    pub src: String,
    /// Called (or targeted) service.
    pub dst: String,
    /// Fault-type axis.
    pub fault: FaultKind,
    /// Ordinal intensity bucket (see [`intensity_bucket`]).
    pub intensity: u8,
}

impl fmt::Display for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} · {} @{}",
            self.src, self.dst, self.fault, self.intensity
        )
    }
}

/// The cube cells a scenario exercises. Edge-scoped faults yield one
/// cell; service-scoped faults yield one wildcard cell; a Partition
/// yields one cell per severed cross pair (both directions).
pub fn cells_for_scenario(scenario: &Scenario) -> Vec<CellKey> {
    let intensity = intensity_bucket(&scenario.kind);
    let fault = FaultKind::of(&scenario.kind);
    let cell = |src: &str, dst: &str| CellKey {
        src: src.to_string(),
        dst: dst.to_string(),
        fault,
        intensity,
    };
    match &scenario.kind {
        ScenarioKind::Abort { src, dst, .. }
        | ScenarioKind::Delay { src, dst, .. }
        | ScenarioKind::Modify { src, dst, .. }
        | ScenarioKind::Disconnect { src, dst, .. } => vec![cell(src, dst)],
        ScenarioKind::Crash { service, .. }
        | ScenarioKind::Hang { service, .. }
        | ScenarioKind::Overload { service, .. }
        | ScenarioKind::FakeSuccess { service, .. } => vec![cell(SERVICE_WILDCARD, service)],
        ScenarioKind::Partition { group_a, group_b } => {
            let mut cells = Vec::new();
            for a in group_a {
                for b in group_b {
                    cells.push(cell(a, b));
                    cells.push(cell(b, a));
                }
            }
            cells.sort();
            cells.dedup();
            cells
        }
    }
}

/// The outcome of one historical run, as recorded in the ledger.
///
/// Variant order is severity order — the derived `Ord` is what
/// `worst_outcome` aggregation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum RunOutcome {
    /// All post-hoc checks and live assertions passed, no edge went
    /// anomalous.
    Pass,
    /// The run crashed or was killed before writing `report.json` —
    /// the directory is indexed, not trusted.
    Incomplete,
    /// The run finished but the anomaly scorer flagged at least one
    /// edge Anomalous (checks may still have passed).
    Anomalous,
    /// At least one post-hoc or live check failed.
    AssertionFailed,
    /// A streaming assertion reached the terminal
    /// [`Verdict::Violated`].
    Violated,
}

impl RunOutcome {
    /// Derives the outcome from a finished run's `report.json`.
    pub fn of_summary(summary: &FlightSummary) -> RunOutcome {
        if summary
            .monitor
            .iter()
            .any(|check| check.verdict == Verdict::Violated)
        {
            RunOutcome::Violated
        } else if !summary.passed {
            RunOutcome::AssertionFailed
        } else if summary
            .anomalies
            .iter()
            .any(|score| score.anomalous_at_us.is_some())
        {
            RunOutcome::Anomalous
        } else {
            RunOutcome::Pass
        }
    }

    /// Derives the outcome from an in-memory [`RecipeReport`] — used
    /// by the campaign dispatcher when appending verdicts to the ledger.
    pub fn of_report(report: &RecipeReport) -> RunOutcome {
        if report
            .monitor
            .iter()
            .any(|check| check.verdict == Verdict::Violated)
        {
            RunOutcome::Violated
        } else if !report.passed {
            RunOutcome::AssertionFailed
        } else if report
            .anomalies
            .iter()
            .any(|score| score.anomalous_at_us.is_some())
        {
            RunOutcome::Anomalous
        } else {
            RunOutcome::Pass
        }
    }

    /// Single-character matrix symbol.
    pub fn symbol(&self) -> &'static str {
        match self {
            RunOutcome::Pass => "✓",
            RunOutcome::Anomalous => "A",
            RunOutcome::AssertionFailed => "F",
            RunOutcome::Violated => "V",
            RunOutcome::Incomplete => "?",
        }
    }

    /// `true` only for [`RunOutcome::Pass`].
    pub fn is_pass(&self) -> bool {
        matches!(self, RunOutcome::Pass)
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RunOutcome::Pass => "pass",
            RunOutcome::Anomalous => "anomalous",
            RunOutcome::AssertionFailed => "assertion-failed",
            RunOutcome::Violated => "violated",
            RunOutcome::Incomplete => "incomplete",
        };
        f.write_str(name)
    }
}

/// One line of `campaigns.jsonl`: a recipe verdict appended by the
/// campaign dispatcher, covering runs with *and without* flight
/// artifacts. Entries whose `flight_dir` was also scanned as a run
/// directory are deduplicated (the richer directory wins).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerEntry {
    /// Recipe name.
    pub recipe: String,
    /// Wall-clock micros when the recipe started.
    pub started_at_us: Micros,
    /// Derived outcome.
    pub outcome: RunOutcome,
    /// Scenarios the recipe staged.
    pub scenarios: Vec<Scenario>,
    /// Flight-recorder directory, when the run recorded one.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub flight_dir: Option<PathBuf>,
}

/// One indexed historical run (a flight directory or a dirless
/// `campaigns.jsonl` entry), after deduplication.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunSummary {
    /// Directory name under the root, or the recipe name for dirless
    /// campaign entries.
    pub name: String,
    /// Recipe name.
    pub recipe: String,
    /// Wall-clock micros when the run started.
    pub at_us: Micros,
    /// Derived outcome.
    pub outcome: RunOutcome,
    /// Scenarios the run staged (empty for incomplete runs and
    /// pre-ledger recordings).
    pub scenarios: Vec<Scenario>,
    /// Edges the anomaly scorer drove to Anomalous.
    pub anomalous_edges: Vec<String>,
    /// Flight-recorder directory, when the run has one.
    pub flight_dir: Option<PathBuf>,
}

/// One observation of a cube cell: a run that exercised it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CellObservation {
    /// Run start time, micros.
    pub at_us: Micros,
    /// Recipe name.
    pub recipe: String,
    /// Run outcome.
    pub outcome: RunOutcome,
    /// Flight directory of the run, when recorded.
    pub flight_dir: Option<PathBuf>,
}

/// Per-cell statistics derived from the observation history.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CellStats {
    /// The cube cell.
    pub key: CellKey,
    /// Total observations.
    pub attempts: usize,
    /// Observations that passed.
    pub passes: usize,
    /// Trailing consecutive passes (the signal steering escalates
    /// on).
    pub pass_streak: usize,
    /// Fraction of adjacent observation pairs that flipped between
    /// pass and non-pass: `0.0` for a stable cell, approaching `1.0`
    /// for a coin-flip cell.
    pub flakiness: f64,
    /// Most recent outcome.
    pub last_outcome: RunOutcome,
    /// Most severe outcome ever observed (what the matrix shows).
    pub worst_outcome: RunOutcome,
    /// Full history, oldest first.
    pub history: Vec<CellObservation>,
}

/// How a regression was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum RegressionKind {
    /// A cell that was passing now fails or violates.
    Outcome,
    /// An edge still passes but its learned baseline drifted beyond
    /// the z threshold between its earliest and latest runs.
    Drift,
}

/// A resilience regression surfaced by the ledger.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Regression {
    /// Detection mechanism.
    pub kind: RegressionKind,
    /// Calling service (or [`SERVICE_WILDCARD`]).
    pub src: String,
    /// Called service.
    pub dst: String,
    /// The affected cube cell, for outcome regressions.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub cell: Option<CellKey>,
    /// The drift z-score, for drift regressions.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub z: Option<f64>,
    /// Human-readable explanation.
    pub detail: String,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.kind {
            RegressionKind::Outcome => "OUTCOME",
            RegressionKind::Drift => "DRIFT",
        };
        write!(f, "{tag:>7}  {} -> {}: {}", self.src, self.dst, self.detail)
    }
}

/// Serializable scan summary, emitted by `gremlin coverage --json`.
#[derive(Debug, Clone, Serialize)]
pub struct LedgerSummary {
    /// The scanned flight root.
    pub root: PathBuf,
    /// Number of runs indexed (directories + dirless campaign
    /// entries).
    pub runs_scanned: usize,
    /// Names of runs indexed as incomplete.
    pub incomplete_runs: Vec<String>,
    /// Number of distinct cube cells with at least one observation.
    pub covered_cells: usize,
    /// Every indexed run.
    pub runs: Vec<RunSummary>,
    /// Per-cell stats, in cube-key order.
    pub cells: Vec<CellStats>,
    /// Detected regressions.
    pub regressions: Vec<Regression>,
}

/// The feedback signal extracted from a ledger for
/// `RecipeGenerator::steer`: per `(src, dst, fault kind)` —
/// intensity buckets merged — whether the cell family ever Violated,
/// and its trailing pass streak.
#[derive(Debug, Clone, Default)]
pub struct SteeringPlan {
    violated: BTreeSet<(String, String, FaultKind)>,
    streaks: BTreeMap<(String, String, FaultKind), usize>,
}

/// The steering verdict for one candidate scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum Steering {
    /// No history worth acting on: emit the test unchanged.
    Fresh,
    /// The cell already Violated — re-running it re-confirms a known
    /// defect; skip it and spend the budget elsewhere.
    Skip {
        /// Why the test was dropped.
        reason: String,
    },
    /// The cell keeps passing: escalate intensity.
    Escalate {
        /// Trailing consecutive passes observed.
        streak: usize,
    },
}

impl SteeringPlan {
    /// The steering verdict for a candidate scenario, given the
    /// escalation threshold (minimum trailing pass streak).
    pub fn verdict_for(&self, scenario: &Scenario, escalate_after: usize) -> Steering {
        let mut best_streak = 0usize;
        for cell in cells_for_scenario(scenario) {
            let key = (cell.src, cell.dst, cell.fault);
            if self.violated.contains(&key) {
                return Steering::Skip {
                    reason: format!(
                        "skip: {} -> {} already violated under {}",
                        key.0, key.1, key.2
                    ),
                };
            }
            if let Some(streak) = self.streaks.get(&key) {
                best_streak = best_streak.max(*streak);
            }
        }
        if escalate_after > 0 && best_streak >= escalate_after {
            Steering::Escalate {
                streak: best_streak,
            }
        } else {
            Steering::Fresh
        }
    }
}

/// The cross-run coverage ledger. Build one with
/// [`CoverageLedger::scan`]; see the module docs for what it indexes.
#[derive(Debug, Clone)]
pub struct CoverageLedger {
    root: PathBuf,
    runs: Vec<RunSummary>,
    incomplete: Vec<String>,
    cells: BTreeMap<CellKey, CellStats>,
    regressions: Vec<Regression>,
}

impl CoverageLedger {
    /// Scans a flight root with the default drift threshold
    /// ([`DEFAULT_DRIFT_Z`]). A missing root yields an empty ledger,
    /// not an error — "never ran anything" is a valid coverage state.
    ///
    /// # Errors
    ///
    /// Filesystem errors walking the root (individual broken run
    /// directories are indexed as incomplete instead).
    pub fn scan(root: impl AsRef<Path>) -> io::Result<CoverageLedger> {
        Self::scan_with(root, DEFAULT_DRIFT_Z)
    }

    /// Like [`CoverageLedger::scan`], but also bumps the
    /// `gremlin_ledger_runs_scanned_total` and
    /// `gremlin_ledger_regressions_total` counters on `registry`.
    ///
    /// # Errors
    ///
    /// Same as [`CoverageLedger::scan`].
    pub fn scan_with_telemetry(
        root: impl AsRef<Path>,
        registry: &MetricsRegistry,
    ) -> io::Result<CoverageLedger> {
        let ledger = Self::scan(root)?;
        registry
            .counter(
                "gremlin_ledger_runs_scanned_total",
                "Historical runs indexed into the coverage ledger.",
                &[],
            )
            .add(ledger.runs.len() as u64);
        registry
            .counter(
                "gremlin_ledger_regressions_total",
                "Resilience regressions (outcome flips and baseline drift) detected by ledger scans.",
                &[],
            )
            .add(ledger.regressions.len() as u64);
        Ok(ledger)
    }

    /// Scans a flight root with an explicit drift-z threshold.
    ///
    /// # Errors
    ///
    /// Filesystem errors walking the root.
    pub fn scan_with(root: impl AsRef<Path>, drift_threshold: f64) -> io::Result<CoverageLedger> {
        let root = root.as_ref();
        let mut runs: Vec<RunSummary> = Vec::new();
        let mut incomplete: Vec<String> = Vec::new();
        // Per-edge baseline timeline across runs, for drift detection.
        let mut baselines: BTreeMap<(String, String), Vec<(Micros, EdgeBaseline)>> =
            BTreeMap::new();
        let mut scanned_dirs: BTreeSet<String> = BTreeSet::new();

        if root.is_dir() {
            let mut dirs: Vec<PathBuf> = fs::read_dir(root)?
                .filter_map(|entry| entry.ok())
                .map(|entry| entry.path())
                .filter(|path| path.is_dir())
                .collect();
            dirs.sort();
            for dir in dirs {
                let name = dir
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                scanned_dirs.insert(name.clone());
                match FlightLog::load(&dir) {
                    Ok(log) => {
                        for baseline in &log.baselines {
                            baselines
                                .entry((baseline.src.clone(), baseline.dst.clone()))
                                .or_default()
                                .push((log.meta.started_at_us, baseline.clone()));
                        }
                        let (outcome, scenarios, anomalous_edges) = match &log.report {
                            Some(report) => (
                                RunOutcome::of_summary(report),
                                report.scenarios.clone(),
                                report
                                    .anomalies
                                    .iter()
                                    .filter(|score| score.anomalous_at_us.is_some())
                                    .map(|score| format!("{} -> {}", score.src, score.dst))
                                    .collect(),
                            ),
                            None => (RunOutcome::Incomplete, Vec::new(), Vec::new()),
                        };
                        if outcome == RunOutcome::Incomplete {
                            incomplete.push(name.clone());
                        }
                        runs.push(RunSummary {
                            name,
                            recipe: log.meta.recipe.clone(),
                            at_us: log.meta.started_at_us,
                            outcome,
                            scenarios,
                            anomalous_edges,
                            flight_dir: Some(dir),
                        });
                    }
                    Err(_) => {
                        // Even meta.json is gone or garbage: index the
                        // husk so the scorecard shows it happened.
                        incomplete.push(name.clone());
                        runs.push(RunSummary {
                            at_us: trailing_micros(&name),
                            recipe: name.clone(),
                            name,
                            outcome: RunOutcome::Incomplete,
                            scenarios: Vec::new(),
                            anomalous_edges: Vec::new(),
                            flight_dir: Some(dir),
                        });
                    }
                }
            }
        }

        // Campaign verdicts without artifacts (unmonitored recipes):
        // tolerate torn tail lines, skip entries whose directory was
        // already indexed above.
        for entry in read_campaign_entries(&root.join(CAMPAIGN_LEDGER_FILE)) {
            let claimed = entry
                .flight_dir
                .as_ref()
                .and_then(|dir| dir.file_name())
                .map(|n| n.to_string_lossy().into_owned());
            if matches!(&claimed, Some(dir) if scanned_dirs.contains(dir)) {
                continue;
            }
            if entry.outcome == RunOutcome::Incomplete {
                incomplete.push(entry.recipe.clone());
            }
            runs.push(RunSummary {
                name: entry.recipe.clone(),
                recipe: entry.recipe,
                at_us: entry.started_at_us,
                outcome: entry.outcome,
                scenarios: entry.scenarios,
                anomalous_edges: Vec::new(),
                flight_dir: entry.flight_dir,
            });
        }

        runs.sort_by(|a, b| (a.at_us, &a.name).cmp(&(b.at_us, &b.name)));

        // Fold runs into the cube.
        let mut histories: BTreeMap<CellKey, Vec<CellObservation>> = BTreeMap::new();
        for run in &runs {
            for scenario in &run.scenarios {
                for key in cells_for_scenario(scenario) {
                    histories.entry(key).or_default().push(CellObservation {
                        at_us: run.at_us,
                        recipe: run.recipe.clone(),
                        outcome: run.outcome,
                        flight_dir: run.flight_dir.clone(),
                    });
                }
            }
        }
        let cells: BTreeMap<CellKey, CellStats> = histories
            .into_iter()
            .map(|(key, history)| (key.clone(), CellStats::from_history(key, history)))
            .collect();

        let mut regressions = Vec::new();
        for stats in cells.values() {
            let n = stats.history.len();
            if n >= 2
                && stats.history[n - 2].outcome.is_pass()
                && matches!(
                    stats.history[n - 1].outcome,
                    RunOutcome::AssertionFailed | RunOutcome::Violated
                )
            {
                regressions.push(Regression {
                    kind: RegressionKind::Outcome,
                    src: stats.key.src.clone(),
                    dst: stats.key.dst.clone(),
                    cell: Some(stats.key.clone()),
                    z: None,
                    detail: format!(
                        "{} was passing, latest run {} ({})",
                        stats.key,
                        stats.history[n - 1].outcome,
                        stats.history[n - 1].recipe
                    ),
                });
            }
        }
        for ((src, dst), mut timeline) in baselines {
            if timeline.len() < 2 {
                continue;
            }
            timeline.sort_by_key(|(at, _)| *at);
            let (_, reference) = &timeline[0];
            let (_, current) = &timeline[timeline.len() - 1];
            let z = drift_z(reference, current);
            if z >= drift_threshold {
                regressions.push(Regression {
                    kind: RegressionKind::Drift,
                    detail: format!(
                        "baseline drift z={z:.1} across {} runs (p50 {}us -> {}us, error rate {:.3} -> {:.3})",
                        timeline.len(),
                        reference.p50_us,
                        current.p50_us,
                        reference.error_rate,
                        current.error_rate,
                    ),
                    src,
                    dst,
                    cell: None,
                    z: Some(z),
                });
            }
        }
        regressions.sort_by(|a, b| {
            (&a.src, &a.dst, a.kind == RegressionKind::Drift).cmp(&(
                &b.src,
                &b.dst,
                b.kind == RegressionKind::Drift,
            ))
        });

        Ok(CoverageLedger {
            root: root.to_path_buf(),
            runs,
            incomplete,
            cells,
            regressions,
        })
    }

    /// The scanned root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Every indexed run, sorted by start time.
    pub fn runs(&self) -> &[RunSummary] {
        &self.runs
    }

    /// Number of indexed runs.
    pub fn runs_scanned(&self) -> usize {
        self.runs.len()
    }

    /// Names of runs indexed as [`RunOutcome::Incomplete`].
    pub fn incomplete_runs(&self) -> &[String] {
        &self.incomplete
    }

    /// Per-cell stats, in cube-key order.
    pub fn cells(&self) -> impl Iterator<Item = &CellStats> {
        self.cells.values()
    }

    /// Stats for one cell.
    pub fn cell(&self, key: &CellKey) -> Option<&CellStats> {
        self.cells.get(key)
    }

    /// Number of distinct covered cells.
    pub fn covered_cells(&self) -> usize {
        self.cells.len()
    }

    /// The set of covered cell keys — the campaign dispatcher diffs this
    /// before/after to report cells newly covered by a campaign.
    pub fn covered_keys(&self) -> BTreeSet<CellKey> {
        self.cells.keys().cloned().collect()
    }

    /// Detected regressions, sorted by edge.
    pub fn regressions(&self) -> &[Regression] {
        &self.regressions
    }

    /// Extracts the steering signal (see [`SteeringPlan`]).
    pub fn steering_plan(&self) -> SteeringPlan {
        let mut merged: BTreeMap<(String, String, FaultKind), Vec<CellObservation>> =
            BTreeMap::new();
        for stats in self.cells.values() {
            merged
                .entry((
                    stats.key.src.clone(),
                    stats.key.dst.clone(),
                    stats.key.fault,
                ))
                .or_default()
                .extend(stats.history.iter().cloned());
        }
        let mut plan = SteeringPlan::default();
        for (key, mut history) in merged {
            history.sort_by_key(|obs| obs.at_us);
            if history
                .iter()
                .any(|obs| obs.outcome == RunOutcome::Violated)
            {
                plan.violated.insert(key);
                continue;
            }
            let streak = history
                .iter()
                .rev()
                .take_while(|obs| obs.outcome.is_pass())
                .count();
            if streak > 0 {
                plan.streaks.insert(key, streak);
            }
        }
        plan
    }

    /// Cube cells the application graph makes testable but no run has
    /// ever exercised: per edge the Abort/Delay/Disconnect family,
    /// per service with dependents the Crash/Hang/Overload family
    /// (intensity ignored — any bucket counts as exercised).
    pub fn untested(&self, graph: &AppGraph) -> Vec<(String, String, FaultKind)> {
        let covered: BTreeSet<(String, String, FaultKind)> = self
            .cells
            .keys()
            .map(|key| (key.src.clone(), key.dst.clone(), key.fault))
            .collect();
        let mut missing = Vec::new();
        for (src, dst) in graph.edges() {
            for fault in [FaultKind::Abort, FaultKind::Delay, FaultKind::Disconnect] {
                let key = (src.clone(), dst.clone(), fault);
                if !covered.contains(&key) {
                    missing.push(key);
                }
            }
        }
        for service in graph.services() {
            if graph.dependents(&service).is_empty() {
                continue;
            }
            for fault in [FaultKind::Crash, FaultKind::Hang, FaultKind::Overload] {
                let key = (SERVICE_WILDCARD.to_string(), service.clone(), fault);
                if !covered.contains(&key) {
                    missing.push(key);
                }
            }
        }
        missing.sort();
        missing
    }

    /// The serializable scan summary (`gremlin coverage --json`).
    pub fn summary(&self) -> LedgerSummary {
        LedgerSummary {
            root: self.root.clone(),
            runs_scanned: self.runs.len(),
            incomplete_runs: self.incomplete.clone(),
            covered_cells: self.cells.len(),
            runs: self.runs.clone(),
            cells: self.cells.values().cloned().collect(),
            regressions: self.regressions.clone(),
        }
    }

    /// Rows of the coverage matrix: distinct `(src, dst)` pairs with
    /// any coverage, plus (when a graph is given) every graph edge
    /// and every service-wildcard row the graph implies.
    fn matrix_rows(&self, graph: Option<&AppGraph>) -> Vec<(String, String)> {
        let mut rows: BTreeSet<(String, String)> = self
            .cells
            .keys()
            .map(|key| (key.src.clone(), key.dst.clone()))
            .collect();
        if let Some(graph) = graph {
            for (src, dst) in graph.edges() {
                rows.insert((src, dst));
            }
            for service in graph.services() {
                if !graph.dependents(&service).is_empty() {
                    rows.insert((SERVICE_WILDCARD.to_string(), service));
                }
            }
        }
        rows.into_iter().collect()
    }

    /// Columns of the coverage matrix: fault kinds with any coverage,
    /// plus the graph-implied universe when a graph is given, in
    /// canonical order.
    fn matrix_columns(&self, graph: Option<&AppGraph>) -> Vec<FaultKind> {
        let mut present: BTreeSet<FaultKind> = self.cells.keys().map(|key| key.fault).collect();
        if graph.is_some() {
            present.extend([
                FaultKind::Abort,
                FaultKind::Delay,
                FaultKind::Disconnect,
                FaultKind::Crash,
                FaultKind::Hang,
                FaultKind::Overload,
            ]);
        }
        FaultKind::all()
            .into_iter()
            .filter(|fault| present.contains(fault))
            .collect()
    }

    /// Aggregates one matrix slot across intensity buckets: worst
    /// outcome plus total attempts, or `None` if untested.
    fn slot(&self, src: &str, dst: &str, fault: FaultKind) -> Option<(RunOutcome, usize)> {
        let mut worst: Option<RunOutcome> = None;
        let mut attempts = 0usize;
        for (key, stats) in &self.cells {
            if key.src == src && key.dst == dst && key.fault == fault {
                attempts += stats.attempts;
                worst = Some(match worst {
                    Some(prev) => prev.max(stats.worst_outcome),
                    None => stats.worst_outcome,
                });
            }
        }
        worst.map(|w| (w, attempts))
    }

    /// Renders the scorecard as text: header, edge × fault matrix,
    /// regression section, and (with a graph) the untested-cell
    /// listing. `color` enables ANSI escapes.
    pub fn render(&self, graph: Option<&AppGraph>, color: bool) -> String {
        let paint = |text: String, code: &str| -> String {
            if color {
                format!("\x1b[{code}m{text}\x1b[0m")
            } else {
                text
            }
        };
        let mut out = format!(
            "coverage ledger: {}\n  {} run(s) scanned, {} incomplete, {} cell(s) covered, {} regression(s)\n",
            self.root.display(),
            self.runs.len(),
            self.incomplete.len(),
            self.cells.len(),
            self.regressions.len(),
        );
        let rows = self.matrix_rows(graph);
        let columns = self.matrix_columns(graph);
        if rows.is_empty() || columns.is_empty() {
            out.push_str("  (no runs recorded)\n");
            return out;
        }
        let label_width = rows
            .iter()
            .map(|(src, dst)| src.chars().count() + dst.chars().count() + 4)
            .max()
            .unwrap_or(8)
            .max("edge \\ fault".len());
        out.push('\n');
        out.push_str(&format!("  {:label_width$}", "edge \\ fault"));
        for fault in &columns {
            out.push_str(&format!("  {:>6}", fault.short()));
        }
        out.push('\n');
        for (src, dst) in &rows {
            let label = format!("{src} -> {dst}");
            out.push_str(&format!("  {label:label_width$}"));
            for fault in &columns {
                match self.slot(src, dst, *fault) {
                    Some((worst, attempts)) => {
                        let text = format!("{}{}", worst.symbol(), attempts);
                        let code = match worst {
                            RunOutcome::Pass => "32",
                            RunOutcome::Anomalous => "33",
                            RunOutcome::AssertionFailed | RunOutcome::Violated => "31",
                            RunOutcome::Incomplete => "2",
                        };
                        // Pad before painting: escape codes have no
                        // width.
                        out.push_str(&format!("  {}", paint(format!("{text:>6}"), code)));
                    }
                    None => out.push_str(&format!("  {}", paint(format!("{:>6}", "·"), "2"))),
                }
            }
            out.push('\n');
        }
        if !self.regressions.is_empty() {
            out.push_str("\nregressions:\n");
            for regression in &self.regressions {
                out.push_str(&format!("  {}\n", paint(regression.to_string(), "31")));
            }
        }
        if let Some(graph) = graph {
            let untested = self.untested(graph);
            if !untested.is_empty() {
                out.push_str("\nuntested cells:\n");
                let mut by_edge: BTreeMap<(String, String), Vec<FaultKind>> = BTreeMap::new();
                for (src, dst, fault) in untested {
                    by_edge.entry((src, dst)).or_default().push(fault);
                }
                for ((src, dst), faults) in by_edge {
                    let list: Vec<String> = faults.iter().map(|f| f.to_string()).collect();
                    out.push_str(&format!("  {src} -> {dst}: {}\n", list.join(", ")));
                }
            }
        }
        if !self.incomplete.is_empty() {
            out.push_str("\nincomplete runs:\n");
            for name in &self.incomplete {
                out.push_str(&format!("  {name}\n"));
            }
        }
        out
    }

    /// Renders the scorecard as Markdown — the CI build artifact.
    pub fn to_markdown(&self, graph: Option<&AppGraph>) -> String {
        let mut out = String::from("# Resilience coverage scorecard\n\n");
        out.push_str(&format!(
            "`{}` — {} run(s) scanned, {} incomplete, {} cell(s) covered, {} regression(s).\n\n",
            self.root.display(),
            self.runs.len(),
            self.incomplete.len(),
            self.cells.len(),
            self.regressions.len(),
        ));
        let rows = self.matrix_rows(graph);
        let columns = self.matrix_columns(graph);
        if !rows.is_empty() && !columns.is_empty() {
            out.push_str("| edge \\ fault |");
            for fault in &columns {
                out.push_str(&format!(" {fault} |"));
            }
            out.push_str("\n|---|");
            for _ in &columns {
                out.push_str("---|");
            }
            out.push('\n');
            for (src, dst) in &rows {
                out.push_str(&format!("| `{src} -> {dst}` |"));
                for fault in &columns {
                    match self.slot(src, dst, *fault) {
                        Some((worst, attempts)) => {
                            let text = format!("{worst} ×{attempts}");
                            if matches!(worst, RunOutcome::Violated | RunOutcome::AssertionFailed) {
                                out.push_str(&format!(" **{text}** |"));
                            } else {
                                out.push_str(&format!(" {text} |"));
                            }
                        }
                        None => out.push_str(" — |"),
                    }
                }
                out.push('\n');
            }
            out.push('\n');
        }
        if !self.regressions.is_empty() {
            out.push_str("## Regressions\n\n");
            for regression in &self.regressions {
                let tag = match regression.kind {
                    RegressionKind::Outcome => "outcome",
                    RegressionKind::Drift => "drift",
                };
                out.push_str(&format!(
                    "- **{tag}** `{} -> {}`: {}\n",
                    regression.src, regression.dst, regression.detail
                ));
            }
            out.push('\n');
        }
        if let Some(graph) = graph {
            let untested = self.untested(graph);
            if !untested.is_empty() {
                out.push_str("## Untested cells\n\n");
                let mut by_edge: BTreeMap<(String, String), Vec<FaultKind>> = BTreeMap::new();
                for (src, dst, fault) in untested {
                    by_edge.entry((src, dst)).or_default().push(fault);
                }
                for ((src, dst), faults) in by_edge {
                    let list: Vec<String> = faults.iter().map(|f| f.to_string()).collect();
                    out.push_str(&format!("- `{src} -> {dst}`: {}\n", list.join(", ")));
                }
                out.push('\n');
            }
        }
        if !self.incomplete.is_empty() {
            out.push_str("## Incomplete runs\n\n");
            for name in &self.incomplete {
                out.push_str(&format!("- `{name}`\n"));
            }
            out.push('\n');
        }
        out
    }
}

impl CellStats {
    fn from_history(key: CellKey, history: Vec<CellObservation>) -> CellStats {
        let attempts = history.len();
        let passes = history.iter().filter(|obs| obs.outcome.is_pass()).count();
        let pass_streak = history
            .iter()
            .rev()
            .take_while(|obs| obs.outcome.is_pass())
            .count();
        let flips = history
            .windows(2)
            .filter(|pair| pair[0].outcome.is_pass() != pair[1].outcome.is_pass())
            .count();
        let flakiness = if attempts > 1 {
            flips as f64 / (attempts - 1) as f64
        } else {
            0.0
        };
        let last_outcome = history
            .last()
            .map(|obs| obs.outcome)
            .unwrap_or(RunOutcome::Incomplete);
        let worst_outcome = history
            .iter()
            .map(|obs| obs.outcome)
            .max()
            .unwrap_or(RunOutcome::Incomplete);
        CellStats {
            key,
            attempts,
            passes,
            pass_streak,
            flakiness,
            last_outcome,
            worst_outcome,
            history,
        }
    }
}

/// Appends campaign verdict entries to `<root>/campaigns.jsonl`
/// (creating the root if needed) — called by the campaign dispatcher
/// after every wave.
///
/// # Errors
///
/// Directory creation, serialization or file I/O failures.
pub fn append_campaign_entries(root: impl AsRef<Path>, entries: &[LedgerEntry]) -> io::Result<()> {
    if entries.is_empty() {
        return Ok(());
    }
    let root = root.as_ref();
    fs::create_dir_all(root)?;
    let mut file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(root.join(CAMPAIGN_LEDGER_FILE))?;
    use std::io::Write;
    for entry in entries {
        let line = serde_json::to_string(entry)?;
        writeln!(file, "{line}")?;
    }
    Ok(())
}

fn read_campaign_entries(path: &Path) -> Vec<LedgerEntry> {
    match fs::read_to_string(path) {
        Ok(text) => text
            .lines()
            .filter(|line| !line.trim().is_empty())
            .filter_map(|line| serde_json::from_str(line).ok())
            .collect(),
        Err(_) => Vec::new(),
    }
}

/// Best-effort start-time recovery for a husk directory whose
/// `meta.json` is gone: the directory name ends in `-<started_at_us>`.
fn trailing_micros(name: &str) -> Micros {
    name.rsplit('-')
        .next()
        .and_then(|tail| tail.parse::<Micros>().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::{FlightRecorder, FLIGHT_SCHEMA_VERSION};
    use crate::monitor::LiveCheck;
    use std::time::Duration;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gremlin-ledger-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn summary(name: &str, passed: bool, scenarios: Vec<Scenario>) -> FlightSummary {
        FlightSummary {
            name: name.to_string(),
            passed,
            injected: scenarios.iter().map(|s| s.to_string()).collect(),
            checks: Vec::new(),
            monitor: Vec::new(),
            anomalies: Vec::new(),
            scenarios,
        }
    }

    fn violated_check() -> LiveCheck {
        LiveCheck {
            name: "LiveErrorRate(web, <= 1%)".to_string(),
            verdict: Verdict::Violated,
            detail: "error rate 40%".to_string(),
            windows: 4,
            first_failing_at_us: Some(1_000_000),
            violated_at_us: Some(3_000_000),
        }
    }

    fn record_run(
        root: &Path,
        recipe: &str,
        at: Micros,
        summary: &FlightSummary,
        baselines: &[EdgeBaseline],
    ) -> PathBuf {
        let mut recorder = FlightRecorder::create(root, recipe, at, 1_000_000).unwrap();
        recorder.record_baselines(baselines).unwrap();
        recorder.finish(summary).unwrap()
    }

    fn baseline(src: &str, dst: &str, p50_ms: u64) -> EdgeBaseline {
        EdgeBaseline {
            src: src.to_string(),
            dst: dst.to_string(),
            windows: 10,
            rate_ewma: 10.0,
            rate_mad: 0.5,
            error_rate: 0.0,
            error_upper: 0.02,
            responses: 100,
            p50_us: p50_ms * 1_000,
            p99_us: p50_ms * 2_000,
            latency_mad_us: 400.0,
        }
    }

    #[test]
    fn intensity_buckets_are_ordinal_and_escalation_moves_them() {
        let delay = |ms| Scenario::delay("a", "b", Duration::from_millis(ms)).kind;
        assert_eq!(intensity_bucket(&delay(1)), 1);
        assert_eq!(intensity_bucket(&delay(60)), 6);
        assert_eq!(
            intensity_bucket(&delay(120)),
            intensity_bucket(&delay(60)) + 1,
            "doubling the delay moves up exactly one bucket"
        );
        assert_eq!(intensity_bucket(&delay(1 << 20)), 10, "clamped");
        let abort = |p| ScenarioKind::Abort {
            src: "a".into(),
            dst: "b".into(),
            error: Some(503),
            probability: p,
        };
        assert_eq!(intensity_bucket(&abort(0.1)), 1);
        assert_eq!(intensity_bucket(&abort(0.5)), 2);
        assert_eq!(intensity_bucket(&abort(1.0)), 4);
        assert_eq!(intensity_bucket(&Scenario::disconnect("a", "b").kind), 1);
    }

    #[test]
    fn cells_cover_edge_service_and_partition_scopes() {
        let edge = cells_for_scenario(&Scenario::delay("web", "db", Duration::from_millis(60)));
        assert_eq!(edge.len(), 1);
        assert_eq!(edge[0].src, "web");
        assert_eq!(edge[0].dst, "db");
        assert_eq!(edge[0].fault, FaultKind::Delay);

        let service = cells_for_scenario(&Scenario::crash("db"));
        assert_eq!(service.len(), 1);
        assert_eq!(service[0].src, SERVICE_WILDCARD);
        assert_eq!(service[0].dst, "db");
        assert_eq!(service[0].fault, FaultKind::Crash);

        let cut = cells_for_scenario(&Scenario::partition(
            vec!["a".to_string()],
            vec!["b".to_string(), "c".to_string()],
        ));
        assert_eq!(cut.len(), 4, "{cut:?}");
        assert!(cut.iter().all(|c| c.fault == FaultKind::Partition));
    }

    #[test]
    fn outcome_derivation_orders_by_severity() {
        let mut s = summary("r", true, Vec::new());
        assert_eq!(RunOutcome::of_summary(&s), RunOutcome::Pass);
        s.anomalies.push(crate::anomaly::AnomalyScore {
            src: "a".into(),
            dst: "b".into(),
            state: crate::anomaly::EdgeState::Anomalous,
            score: 9.0,
            rate_z: 0.0,
            error_z: 0.0,
            latency_z: 9.0,
            peak_score: 9.0,
            windows: 5,
            first_suspect_at_us: Some(1),
            anomalous_at_us: Some(2),
            baseline: None,
        });
        assert_eq!(RunOutcome::of_summary(&s), RunOutcome::Anomalous);
        s.passed = false;
        assert_eq!(RunOutcome::of_summary(&s), RunOutcome::AssertionFailed);
        s.monitor.push(violated_check());
        assert_eq!(RunOutcome::of_summary(&s), RunOutcome::Violated);
        assert!(RunOutcome::Violated > RunOutcome::Pass, "Ord = severity");
    }

    #[test]
    fn scan_indexes_runs_streaks_and_incomplete_dirs() {
        let root = tmp_root("scan");
        let hang = vec![Scenario::delay("web", "db", Duration::from_secs(2))];
        let mut violated = summary("hang db", false, hang.clone());
        violated.monitor.push(violated_check());
        record_run(&root, "hang db", 100, &violated, &[]);
        for at in [200, 300, 400] {
            record_run(
                &root,
                "hang cache",
                at,
                &summary(
                    "hang cache",
                    true,
                    vec![Scenario::delay("web", "cache", Duration::from_secs(2))],
                ),
                &[],
            );
        }
        // A crashed run: meta.json only.
        let husk = root.join("crashy-999");
        fs::create_dir_all(&husk).unwrap();
        fs::write(
            husk.join("meta.json"),
            serde_json::to_string(&crate::flight::FlightMeta {
                schema_version: FLIGHT_SCHEMA_VERSION,
                recipe: "crashy".to_string(),
                started_at_us: 999,
                window_us: 1_000_000,
            })
            .unwrap(),
        )
        .unwrap();

        let ledger = CoverageLedger::scan(&root).unwrap();
        assert_eq!(ledger.runs_scanned(), 5);
        assert_eq!(ledger.incomplete_runs(), ["crashy-999".to_string()]);
        assert_eq!(ledger.covered_cells(), 2);

        let streak_cell = ledger
            .cell(&CellKey {
                src: "web".into(),
                dst: "cache".into(),
                fault: FaultKind::Delay,
                intensity: intensity_bucket(
                    &Scenario::delay("web", "cache", Duration::from_secs(2)).kind,
                ),
            })
            .unwrap();
        assert_eq!(streak_cell.attempts, 3);
        assert_eq!(streak_cell.pass_streak, 3);
        assert_eq!(streak_cell.flakiness, 0.0);
        assert_eq!(streak_cell.worst_outcome, RunOutcome::Pass);

        let plan = ledger.steering_plan();
        let hang_db = Scenario::delay("web", "db", Duration::from_secs(2));
        assert!(matches!(
            plan.verdict_for(&hang_db, 3),
            Steering::Skip { .. }
        ));
        let hang_cache = Scenario::delay("web", "cache", Duration::from_secs(2));
        assert_eq!(
            plan.verdict_for(&hang_cache, 3),
            Steering::Escalate { streak: 3 }
        );
        assert_eq!(plan.verdict_for(&hang_cache, 4), Steering::Fresh);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn drift_between_runs_is_a_regression_even_when_passing() {
        let root = tmp_root("drift");
        let run = |at, p50_ms| {
            record_run(
                &root,
                "steady",
                at,
                &summary(
                    "steady",
                    true,
                    vec![Scenario::delay("user", "web", Duration::from_millis(10))],
                ),
                &[baseline("user", "web", p50_ms)],
            );
        };
        run(100, 5);
        run(200, 120); // 24x latency blowup, still "passing"
        let ledger = CoverageLedger::scan(&root).unwrap();
        assert_eq!(ledger.regressions().len(), 1, "{:?}", ledger.regressions());
        let regression = &ledger.regressions()[0];
        assert_eq!(regression.kind, RegressionKind::Drift);
        assert_eq!(
            (regression.src.as_str(), regression.dst.as_str()),
            ("user", "web")
        );
        assert!(regression.z.unwrap() >= DEFAULT_DRIFT_Z);
        assert!(
            regression.detail.contains("p50 5000us -> 120000us"),
            "{}",
            regression.detail
        );
        // And the rendered scorecard surfaces it.
        let text = ledger.render(None, false);
        assert!(text.contains("DRIFT"), "{text}");
        assert!(text.contains("1 regression(s)"), "{text}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn outcome_flip_is_a_regression() {
        let root = tmp_root("flip");
        let scenario = vec![Scenario::disconnect("web", "db")];
        record_run(
            &root,
            "disc",
            100,
            &summary("disc", true, scenario.clone()),
            &[],
        );
        record_run(&root, "disc", 200, &summary("disc", false, scenario), &[]);
        let ledger = CoverageLedger::scan(&root).unwrap();
        assert_eq!(ledger.regressions().len(), 1);
        assert_eq!(ledger.regressions()[0].kind, RegressionKind::Outcome);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn campaign_entries_fill_dirless_runs_and_dedupe_dirs() {
        let root = tmp_root("entries");
        let scenario = vec![Scenario::crash("db")];
        let dir = record_run(
            &root,
            "crash db",
            100,
            &summary("crash db", true, scenario.clone()),
            &[],
        );
        append_campaign_entries(
            &root,
            &[
                // Duplicates the recorded dir: must be skipped.
                LedgerEntry {
                    recipe: "crash db".to_string(),
                    started_at_us: 100,
                    outcome: RunOutcome::Pass,
                    scenarios: scenario,
                    flight_dir: Some(dir),
                },
                // Dirless (unmonitored) run: must be indexed.
                LedgerEntry {
                    recipe: "abort cache".to_string(),
                    started_at_us: 150,
                    outcome: RunOutcome::AssertionFailed,
                    scenarios: vec![Scenario::abort("web", "cache", 503)],
                    flight_dir: None,
                },
            ],
        )
        .unwrap();
        let ledger = CoverageLedger::scan(&root).unwrap();
        assert_eq!(ledger.runs_scanned(), 2, "{:?}", ledger.runs());
        assert_eq!(ledger.covered_cells(), 2);
        let abort_cell = ledger
            .cells()
            .find(|c| c.key.fault == FaultKind::Abort)
            .unwrap();
        assert_eq!(abort_cell.last_outcome, RunOutcome::AssertionFailed);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn renders_are_deterministic_and_scoped_by_graph() {
        let root = tmp_root("render");
        record_run(
            &root,
            "hang cache",
            100,
            &summary(
                "hang cache",
                true,
                vec![Scenario::delay("web", "cache", Duration::from_secs(2))],
            ),
            &[],
        );
        let graph = AppGraph::from_edges(vec![("web", "db"), ("web", "cache")]);
        let ledger = CoverageLedger::scan(&root).unwrap();
        let once = ledger.render(Some(&graph), false);
        let twice = CoverageLedger::scan(&root)
            .unwrap()
            .render(Some(&graph), false);
        assert_eq!(once, twice, "render is deterministic");
        assert!(once.contains("✓1"), "{once}");
        assert!(once.contains("untested cells:"), "{once}");
        assert!(
            once.contains("web -> db: abort, delay, disconnect"),
            "{once}"
        );
        assert!(once.contains("* -> db"), "{once}");

        let md = ledger.to_markdown(Some(&graph));
        assert!(md.contains("# Resilience coverage scorecard"), "{md}");
        assert!(md.contains("| `web -> cache` |"), "{md}");
        assert!(md.contains("pass ×1"), "{md}");

        let json = serde_json::to_string(&ledger.summary()).unwrap();
        assert!(json.contains("\"runs_scanned\":1"), "{json}");
        assert!(json.contains("\"incomplete_runs\":[]"), "{json}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_root_scans_to_an_empty_ledger() {
        let root = tmp_root("missing");
        let ledger = CoverageLedger::scan(&root).unwrap();
        assert_eq!(ledger.runs_scanned(), 0);
        assert_eq!(ledger.covered_cells(), 0);
        assert!(ledger.render(None, false).contains("no runs recorded"));
    }

    #[test]
    fn scan_with_telemetry_bumps_the_counters() {
        let root = tmp_root("telemetry");
        record_run(
            &root,
            "one",
            100,
            &summary("one", true, vec![Scenario::disconnect("a", "b")]),
            &[],
        );
        let registry = MetricsRegistry::new();
        let _ = CoverageLedger::scan_with_telemetry(&root, &registry).unwrap();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_value("gremlin_ledger_runs_scanned_total", &[]),
            Some(1)
        );
        assert_eq!(
            snap.counter_value("gremlin_ledger_regressions_total", &[]),
            Some(0)
        );
        let _ = fs::remove_dir_all(&root);
    }
}
