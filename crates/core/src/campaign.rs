//! Campaigns: many recipes, one mesh, concurrent waves.
//!
//! Gremlin's value is *systematic* testing — sweeping a whole set of
//! failure scenarios over the dependency graph — but running each
//! recipe back-to-back pays the full wall-clock sum even when the
//! recipes touch disjoint parts of the mesh. A campaign exploits the
//! observation (FastFI-style) that fault injections on non-interfering
//! fault sites can run concurrently. This module holds what does not
//! depend on *where* a recipe runs; the one loop driving it is
//! [`CampaignDispatcher::run`](crate::dispatch::CampaignDispatcher::run):
//!
//! 1. Each [`CampaignRecipe`]'s **fault-edge footprint** is computed
//!    up front: the `(src, dst)` edges its scenarios translate to
//!    over the [`AppGraph`], unioned with the edges its monitor
//!    assertions observe (service-scoped assertions claim every graph
//!    edge touching the service).
//! 2. Recipes are packed into **waves** by [`plan_waves`]: a greedy
//!    first-fit pass in input order, where a recipe joins the first
//!    wave whose members' footprints are all disjoint from its own
//!    (bounded by `max_in_flight`). Recipes with colliding footprints
//!    always land in different waves — the deterministic serial
//!    fallback.
//! 3. Waves execute in order; recipes inside a wave run on scoped
//!    threads against the same mesh ([`execute_recipe`]), each with
//!    its own monitor and flight recording. Staged faults are cleared
//!    at every wave boundary.
//!
//! The emitted [`CampaignReport`] aggregates the per-recipe
//! [`RecipeReport`]s with the campaign's wall clock vs. the
//! sum-of-serial estimate — the realized speedup.
//!
//! # Baseline reuse
//!
//! A campaign with a
//! [`seed`](crate::dispatch::CampaignDispatcher::seed) snapshot hands
//! prior [`EdgeBaseline`]s to every monitored recipe, so anomaly
//! scorers skip their warmup windows entirely (see
//! [`AnomalyScorer::seed`](crate::AnomalyScorer::seed)); freshly
//! learned baselines are merged and persisted as `baselines.json`
//! under the campaign's flight root for the *next* campaign. Warmup
//! cost becomes per-campaign instead of per-run.
//!
//! # Sharing caveats
//!
//! Concurrent recipes share the fleet, the store and the telemetry
//! registry. Footprint disjointness keeps their *verdicts* and fault
//! rules independent, but informational output (a report's
//! `metrics_delta`, the ambient anomaly list) can include a sibling's
//! traffic. And because the control channel has no per-rule removal,
//! a recipe that aborts early clears **every** staged fault — its
//! wave siblings finish against a fault-free mesh, visible in their
//! reports.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use gremlin_store::{now_micros, EdgeBaseline, Micros};

use crate::error::CoreError;
use crate::graph::AppGraph;
use crate::ledger::{cells_for_scenario, CellKey, CoverageLedger, LedgerEntry, RunOutcome};
use crate::monitor::MonitorSpec;
use crate::recipe::{RecipeReport, RecipeRun, TestContext};
use crate::scenarios::Scenario;

fn default_hold() -> Duration {
    Duration::from_secs(2)
}

/// One schedulable unit of a campaign: the scenarios to stage, an
/// optional monitor stanza, and how long to hold the faults while the
/// monitor watches. Serializable, so campaign files are plain JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignRecipe {
    /// Recipe name, used in reports and flight-recording directories.
    pub name: String,
    /// Failure scenarios staged together when the recipe starts.
    pub scenarios: Vec<Scenario>,
    /// The recipe's `monitor:` stanza, if any.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub monitor: Option<MonitorSpec>,
    /// How long the faults stay staged (the monitor polls throughout;
    /// a `Violated` assertion aborts earlier). Defaults to 2s.
    #[serde(default = "default_hold")]
    pub hold: Duration,
}

impl CampaignRecipe {
    /// Creates a recipe with no scenarios, no monitor, and the
    /// default hold.
    pub fn new(name: impl Into<String>) -> CampaignRecipe {
        CampaignRecipe {
            name: name.into(),
            scenarios: Vec::new(),
            monitor: None,
            hold: default_hold(),
        }
    }

    /// Builder-style: adds a scenario.
    pub fn scenario(mut self, scenario: Scenario) -> CampaignRecipe {
        self.scenarios.push(scenario);
        self
    }

    /// Builder-style: attaches the monitor stanza.
    pub fn monitor(mut self, spec: MonitorSpec) -> CampaignRecipe {
        self.monitor = Some(spec);
        self
    }

    /// Builder-style: sets the fault hold duration.
    pub fn hold(mut self, hold: Duration) -> CampaignRecipe {
        self.hold = hold;
        self
    }

    /// The recipe's fault-edge footprint over `graph`: every `(src,
    /// dst)` edge its scenarios inject faults on, unioned with the
    /// edges its monitor assertions observe. Two recipes with
    /// disjoint footprints neither fault nor judge each other's
    /// edges, so they can run concurrently.
    ///
    /// # Errors
    ///
    /// Scenario translation failures ([`Scenario::to_rules`]).
    pub fn footprint(&self, graph: &AppGraph) -> Result<BTreeSet<(String, String)>, CoreError> {
        let mut edges = BTreeSet::new();
        for scenario in &self.scenarios {
            for rule in scenario.to_rules(graph)? {
                edges.insert((rule.src, rule.dst));
            }
        }
        if let Some(spec) = &self.monitor {
            for assertion in &spec.assertions {
                edges.extend(assertion.scope().edges(graph));
            }
        }
        Ok(edges)
    }
}

/// A campaign file: the recipes plus scheduling knobs. The JSON input
/// of `gremlin campaign`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Maximum recipes in flight per wave (default
    /// [`DEFAULT_MAX_IN_FLIGHT`]; 1 forces serial execution).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub max_in_flight: Option<usize>,
    /// The recipes, in scheduling order.
    pub recipes: Vec<CampaignRecipe>,
}

/// Default cap on concurrently running recipes per wave.
pub const DEFAULT_MAX_IN_FLIGHT: usize = 4;

/// Ledger flakiness at or above which a cell counts as flaky for
/// steered wave ordering (see
/// [`CampaignDispatcher::steer_order`](crate::dispatch::CampaignDispatcher::steer_order)).
pub const STEER_FLAKY_THRESHOLD: f64 = 0.25;

/// Packs recipe indices into execution waves: greedy first-fit in
/// input order, where index `i` joins the first wave that has fewer
/// than `max_in_flight` members and whose members' footprints are all
/// disjoint from `footprints[i]`. Every index appears in exactly one
/// wave; intersecting footprints never share a wave, so two recipes
/// that fault or observe the same edge serialize deterministically.
pub fn plan_waves(
    footprints: &[BTreeSet<(String, String)>],
    max_in_flight: usize,
) -> Vec<Vec<usize>> {
    let max_in_flight = max_in_flight.max(1);
    let mut waves: Vec<Vec<usize>> = Vec::new();
    for (index, footprint) in footprints.iter().enumerate() {
        let slot = waves.iter_mut().find(|wave| {
            wave.len() < max_in_flight
                && wave
                    .iter()
                    .all(|&other| footprints[other].is_disjoint(footprint))
        });
        match slot {
            Some(wave) => wave.push(index),
            None => waves.push(vec![index]),
        }
    }
    waves
}

/// Steered scheduling priority for one recipe, lower first: `0` when
/// any of its coverage cells is untested (not in `covered`), `1` when
/// any is flaky per the ledger, `2` when everything it touches is
/// stable.
pub(crate) fn steer_priority(
    recipe: &CampaignRecipe,
    ledger: Option<&CoverageLedger>,
    covered: &BTreeSet<CellKey>,
) -> u8 {
    let mut priority = 2u8;
    for scenario in &recipe.scenarios {
        for cell in cells_for_scenario(scenario) {
            if !covered.contains(&cell) {
                return 0;
            }
            let flaky = ledger
                .and_then(|ledger| ledger.cell(&cell))
                .is_some_and(|stats| stats.flakiness >= STEER_FLAKY_THRESHOLD);
            if flaky {
                priority = 1;
            }
        }
    }
    priority
}

/// What one recipe execution yielded, beyond its report.
///
/// This is the unit of work an operator hands back to the coordinator
/// (see [`crate::dispatch`]) — across a network hop when the operator
/// is remote, so it is fully serializable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecipeOutcome {
    /// The recipe's complete report (checks, live verdicts, anomaly
    /// scores, metrics delta, trace digest).
    pub report: RecipeReport,
    /// Wall-clock cost of the run, summed into the campaign's serial
    /// estimate.
    pub duration: Duration,
    /// Wall-clock micros when the run started.
    pub started_at_us: Micros,
    /// Structured scenarios staged during the run, in injection order
    /// (the source of the outcome's coverage cells).
    pub scenarios: Vec<Scenario>,
    /// Edges whose anomaly scorer was seeded from prior baselines
    /// (non-zero means the run skipped its warmup windows).
    pub seeded_edges: usize,
    /// Per-edge baselines learned during the run.
    pub baselines: Vec<EdgeBaseline>,
}

impl RecipeOutcome {
    /// The coverage-ledger entry this outcome contributes. Built only
    /// from a finished run (`RecipeRun::finish` has resolved the final
    /// monitor verdict), so a ledger never records a provisional
    /// outcome.
    pub fn ledger_entry(&self) -> LedgerEntry {
        LedgerEntry {
            recipe: self.report.name.clone(),
            started_at_us: self.started_at_us,
            outcome: RunOutcome::of_report(&self.report),
            scenarios: self.scenarios.clone(),
            flight_dir: self.report.flight_dir.clone(),
        }
    }
}

/// Runs one recipe over `ctx`: attach (and seed) the monitor, stage
/// the scenarios, hold the faults while polling for violations, and
/// finish. Inject and driver failures become failed checks in the
/// recipe's report, not panics — a broken recipe fails itself, never
/// its campaign.
pub fn execute_recipe(
    ctx: &TestContext,
    recipe: &CampaignRecipe,
    seed_baselines: &[EdgeBaseline],
    flight_root: Option<&Path>,
) -> RecipeOutcome {
    let started = Instant::now();
    let started_at_us = now_micros();
    let mut run = RecipeRun::new(recipe.name.clone(), ctx);
    let mut seeded_edges = 0;
    if let Some(spec) = &recipe.monitor {
        let mut spec = spec.clone();
        if spec.anomaly.is_some() && spec.seed_baselines.is_empty() {
            spec.seed_baselines = seed_baselines.to_vec();
        }
        run.start_monitor(spec);
        seeded_edges = run.monitor().map_or(0, |m| m.seeded_edges());
        if let Some(root) = flight_root {
            // Best-effort, like RecipeRun's own detach-on-error
            // policy: a full disk degrades the artifact, not the
            // experiment.
            let _ = run.start_flight_recorder(root);
        }
    }
    let mut staged = true;
    for scenario in &recipe.scenarios {
        if let Err(err) = run.inject(scenario) {
            run.check(crate::checker::Check {
                name: format!("inject {scenario}"),
                passed: false,
                details: err.to_string(),
            });
            staged = false;
            break;
        }
    }
    if staged {
        let deadline = started + recipe.hold;
        loop {
            match run.abort_if_violated() {
                Ok(true) => break,
                Ok(false) => {}
                Err(err) => {
                    run.check(crate::checker::Check {
                        name: "abort staged faults".to_string(),
                        passed: false,
                        details: err.to_string(),
                    });
                    break;
                }
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            std::thread::sleep((deadline - now).min(Duration::from_millis(20)));
        }
    }
    let baselines = run
        .monitor()
        .map_or_else(Vec::new, |m| m.learned_baselines());
    let report = run.finish();
    RecipeOutcome {
        report,
        duration: started.elapsed(),
        started_at_us,
        scenarios: recipe.scenarios.clone(),
        seeded_edges,
        baselines,
    }
}

/// Runs `work` over every item concurrently on scoped threads (a
/// single item runs inline), returning results aligned with `items`.
pub(crate) fn par_map<T: Sync, R: Send>(items: &[T], work: impl Fn(&T) -> R + Sync) -> Vec<R> {
    if let [only] = items {
        return vec![work(only)];
    }
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .iter()
            .map(|item| scope.spawn(move || work(item)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("worker panicked"))
            .collect()
    })
}

/// Runs a footprint-disjoint batch of recipes concurrently, returning
/// outcomes aligned with `recipes`. The caller owns the wave-boundary
/// fault clear.
pub(crate) fn execute_wave(
    ctx: &TestContext,
    recipes: &[CampaignRecipe],
    seed_baselines: &[EdgeBaseline],
    flight_root: Option<&Path>,
) -> Vec<RecipeOutcome> {
    par_map(recipes, |recipe| {
        execute_recipe(ctx, recipe, seed_baselines, flight_root)
    })
}

/// Merges per-recipe outcomes, in campaign input order, into the final
/// [`CampaignReport`].
pub(crate) fn assemble_report(
    outcomes: Vec<RecipeOutcome>,
    waves: Vec<Vec<String>>,
    steered: bool,
    wall_clock: Duration,
    seed_baselines: &[EdgeBaseline],
    prior_covered: &BTreeSet<CellKey>,
) -> CampaignReport {
    let mut reports = Vec::with_capacity(outcomes.len());
    let mut durations = Vec::with_capacity(outcomes.len());
    let mut flight_dirs = Vec::with_capacity(outcomes.len());
    let mut newly_covered: BTreeSet<CellKey> = BTreeSet::new();
    let mut warmup_skipped = 0;
    let mut merged: BTreeMap<(String, String), EdgeBaseline> = BTreeMap::new();
    for baseline in seed_baselines.iter().cloned() {
        merged.insert((baseline.src.clone(), baseline.dst.clone()), baseline);
    }
    for outcome in outcomes {
        if outcome.seeded_edges > 0 {
            warmup_skipped += 1;
        }
        for baseline in outcome.baselines {
            merged.insert((baseline.src.clone(), baseline.dst.clone()), baseline);
        }
        for scenario in &outcome.scenarios {
            for cell in cells_for_scenario(scenario) {
                if !prior_covered.contains(&cell) {
                    newly_covered.insert(cell);
                }
            }
        }
        flight_dirs.push(outcome.report.flight_dir.clone());
        durations.push(outcome.duration);
        reports.push(outcome.report);
    }
    let serial_estimate = durations.iter().sum();
    CampaignReport {
        recipes: reports,
        durations,
        waves,
        steered,
        wall_clock,
        serial_estimate,
        warmup_skipped,
        baselines: merged.into_values().collect(),
        flight_dirs,
        newly_covered: newly_covered.into_iter().collect(),
    }
}

/// Best-effort persistence of a campaign's merged baselines as
/// `baselines.json` under the flight root — the snapshot the next
/// campaign seeds from. Per-run dirs already carry their own copies,
/// so failures degrade a convenience, not the experiment.
pub(crate) fn persist_merged_baselines(root: &Path, baselines: &[EdgeBaseline]) {
    if baselines.is_empty() {
        return;
    }
    let _ = fs::create_dir_all(root);
    let _ = serde_json::to_string_pretty(baselines)
        .map_err(std::io::Error::from)
        .and_then(|json| fs::write(root.join("baselines.json"), json));
}

/// The aggregate outcome of a campaign.
#[derive(Debug)]
pub struct CampaignReport {
    /// Per-recipe reports, in the campaign's input order.
    pub recipes: Vec<RecipeReport>,
    /// Per-recipe wall-clock durations, aligned with `recipes`.
    pub durations: Vec<Duration>,
    /// The executed schedule: recipe names per wave, in execution
    /// order (ledger-steered when `steered` is set).
    pub waves: Vec<Vec<String>>,
    /// Whether the wave order was steered by coverage-ledger priority
    /// ([`CampaignDispatcher::steer_order`](crate::dispatch::CampaignDispatcher::steer_order)).
    pub steered: bool,
    /// Campaign wall clock, wave starts to last wave end.
    pub wall_clock: Duration,
    /// Sum of the per-recipe durations — what strict serial execution
    /// would have cost.
    pub serial_estimate: Duration,
    /// Recipes whose anomaly scorer was seeded from prior baselines
    /// (and therefore skipped its warmup windows).
    pub warmup_skipped: usize,
    /// The merged per-edge baselines after this campaign: seeds
    /// overlaid with everything freshly learned. Persisted as
    /// `baselines.json` under the flight root, when one is set.
    pub baselines: Vec<EdgeBaseline>,
    /// Each recipe's flight-recorder artifact directory, aligned with
    /// `recipes` (`None` for unmonitored or unrecorded recipes).
    pub flight_dirs: Vec<Option<PathBuf>>,
    /// Coverage-cube cells this campaign exercised that no prior run
    /// under the flight root had covered (everything it touched, when
    /// no flight root was set).
    pub newly_covered: Vec<CellKey>,
}

impl CampaignReport {
    /// `true` when every recipe passed.
    pub fn passed(&self) -> bool {
        self.recipes.iter().all(|report| report.passed)
    }

    /// Realized speedup: the serial estimate over the wall clock
    /// (1.0 for a degenerate, instant campaign).
    pub fn speedup(&self) -> f64 {
        let wall = self.wall_clock.as_secs_f64();
        let serial = self.serial_estimate.as_secs_f64();
        if wall <= 0.0 || serial <= 0.0 {
            1.0
        } else {
            serial / wall
        }
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "campaign: {} recipe(s) in {} wave(s){} — wall clock {:?} vs {:?} serial ({:.1}x), {} warmup(s) skipped",
            self.recipes.len(),
            self.waves.len(),
            if self.steered { " (steered order)" } else { "" },
            self.wall_clock,
            self.serial_estimate,
            self.speedup(),
            self.warmup_skipped,
        )?;
        for (wave_index, wave) in self.waves.iter().enumerate() {
            writeln!(f, "  wave {}: {}", wave_index + 1, wave.join(", "))?;
        }
        for (index, (report, duration)) in self.recipes.iter().zip(&self.durations).enumerate() {
            write!(
                f,
                "  [{}] {} ({:?})",
                if report.passed { "PASS" } else { "FAIL" },
                report.name,
                duration,
            )?;
            if let Some(Some(dir)) = self.flight_dirs.get(index) {
                write!(f, " -> {}", dir.display())?;
            }
            writeln!(f)?;
        }
        if !self.newly_covered.is_empty() {
            writeln!(
                f,
                "  coverage: {} cell(s) newly covered",
                self.newly_covered.len(),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anomaly::AnomalyConfig;
    use crate::dispatch::CampaignDispatcher;
    use crate::ledger::append_campaign_entries;
    use crate::monitor::{MonitorSpec, StreamingAssertion};
    use crate::testutil::{ctx_over, fan_ctx, FakeAgent};
    use gremlin_store::EventStore;
    use std::sync::Arc;

    fn edge_set(edges: &[(&str, &str)]) -> BTreeSet<(String, String)> {
        edges
            .iter()
            .map(|(s, d)| (s.to_string(), d.to_string()))
            .collect()
    }

    #[test]
    fn footprint_unions_scenario_rules_and_assertion_scopes() {
        let graph = AppGraph::from_edges(vec![("a", "b"), ("a", "c"), ("c", "d")]);
        let recipe = CampaignRecipe::new("r")
            .scenario(Scenario::abort("a", "b", 503))
            .monitor(
                MonitorSpec::new(Duration::from_secs(1))
                    .assert(StreamingAssertion::ErrorRateAtMost {
                        src: "a".into(),
                        dst: "c".into(),
                        max_ratio: 0.1,
                    })
                    .assert(StreamingAssertion::LatencySlo {
                        service: "c".into(),
                        quantile: 0.99,
                        bound: Duration::from_millis(100),
                    }),
            );
        let footprint = recipe.footprint(&graph).unwrap();
        // abort edge + assertion edge + every edge touching service c.
        assert_eq!(footprint, edge_set(&[("a", "b"), ("a", "c"), ("c", "d")]));
    }

    #[test]
    fn plan_waves_packs_disjoint_and_serializes_collisions() {
        let footprints = vec![
            edge_set(&[("a", "b")]),
            edge_set(&[("c", "d")]), // disjoint from 0 -> same wave
            edge_set(&[("a", "b")]), // collides with 0 -> new wave
            edge_set(&[("e", "f")]), // disjoint from all -> first wave
        ];
        let waves = plan_waves(&footprints, 4);
        assert_eq!(waves, vec![vec![0, 1, 3], vec![2]]);
        // max_in_flight bounds wave width.
        let waves = plan_waves(&footprints, 2);
        assert_eq!(waves, vec![vec![0, 1], vec![2, 3]]);
        // max_in_flight 1 is strict serial in input order.
        let waves = plan_waves(&footprints, 1);
        assert_eq!(waves, vec![vec![0], vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn campaign_runs_disjoint_recipes_concurrently() {
        let pairs = [("c1", "s1"), ("c2", "s2"), ("c3", "s3"), ("c4", "s4")];
        let (ctx, agents) = fan_ctx(&pairs);
        let hold = Duration::from_millis(150);
        let recipes: Vec<CampaignRecipe> = pairs
            .iter()
            .map(|(src, dst)| {
                CampaignRecipe::new(format!("{src}-{dst}"))
                    .scenario(Scenario::abort(*src, *dst, 503))
                    .hold(hold)
            })
            .collect();
        let report = CampaignDispatcher::single_host(ctx, None)
            .max_in_flight(4)
            .run(recipes)
            .unwrap();
        assert_eq!(report.waves.len(), 1, "{:?}", report.waves);
        assert_eq!(report.recipes.len(), 4);
        assert!(report.passed(), "{report}");
        // Concurrency: four 150ms holds in one wave finish well under
        // the 600ms serial estimate.
        assert!(
            report.wall_clock < hold * 3,
            "wall {:?} vs serial {:?}",
            report.wall_clock,
            report.serial_estimate,
        );
        assert!(report.serial_estimate >= hold * 4);
        assert!(report.speedup() > 1.5, "{}", report.speedup());
        // Wave boundary cleared the fleet.
        for agent in &agents {
            assert!(agent.rules.lock().is_empty());
        }
        let text = report.to_string();
        assert!(text.contains("wave 1:"), "{text}");
        assert!(text.contains("[PASS]"), "{text}");
    }

    #[test]
    fn colliding_recipes_serialize_into_waves() {
        let (ctx, _) = fan_ctx(&[("a", "b")]);
        let hold = Duration::from_millis(40);
        let recipes = vec![
            CampaignRecipe::new("first")
                .scenario(Scenario::abort("a", "b", 503))
                .hold(hold),
            CampaignRecipe::new("second")
                .scenario(Scenario::delay("a", "b", Duration::from_millis(10)))
                .hold(hold),
        ];
        let report = CampaignDispatcher::single_host(ctx, None)
            .run(recipes)
            .unwrap();
        assert_eq!(
            report.waves,
            vec![vec!["first".to_string()], vec!["second".to_string()]]
        );
        assert!(report.wall_clock >= hold * 2);
    }

    #[test]
    fn inject_failure_fails_the_recipe_not_the_campaign() {
        // The scenario translates (the edge exists) but cannot
        // install: no agent fronts "a" in this context.
        let lonely = TestContext::new(
            AppGraph::from_edges(vec![("a", "b")]),
            Vec::new(),
            EventStore::shared(),
        );
        let report = CampaignDispatcher::single_host(lonely, None)
            .run(vec![CampaignRecipe::new("no-agent")
                .scenario(Scenario::abort("a", "b", 503))
                .hold(Duration::from_millis(10))])
            .unwrap();
        assert_eq!(report.recipes.len(), 1);
        assert!(!report.passed());
        assert!(!report.recipes[0].checks[0].passed);
        assert!(
            report.recipes[0].checks[0].name.starts_with("inject"),
            "{:?}",
            report.recipes[0].checks
        );
    }

    #[test]
    fn campaign_translation_error_fails_fast() {
        let (ctx, agents) = fan_ctx(&[("a", "b")]);
        let err = CampaignDispatcher::single_host(ctx, None)
            .run(vec![
                CampaignRecipe::new("ghost").scenario(Scenario::abort("nope", "b", 503))
            ])
            .unwrap_err();
        assert!(matches!(err, CoreError::UnknownService(_)), "{err}");
        assert!(agents[0].rules.lock().is_empty(), "nothing was staged");
    }

    #[test]
    fn seeded_campaign_skips_warmup_and_persists_baselines() {
        let pairs = [("c1", "s1"), ("c2", "s2")];
        let hold = Duration::from_millis(60);
        let window = Duration::from_millis(10);
        let recipes = |seedless: bool| -> Vec<CampaignRecipe> {
            pairs
                .iter()
                .map(|(src, dst)| {
                    CampaignRecipe::new(format!("{src}-{dst}{}", if seedless { "" } else { "-2" }))
                        .scenario(Scenario::delay(*src, *dst, Duration::from_millis(1)))
                        .monitor(
                            MonitorSpec::new(window)
                                .anomaly(AnomalyConfig::default().warmup_windows(2)),
                        )
                        .hold(hold)
                })
                .collect()
        };
        let root =
            std::env::temp_dir().join(format!("gremlin-campaign-seed-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);

        // First campaign: drive traffic so baselines are learned.
        let (ctx, _) = fan_ctx(&pairs);
        let store = Arc::clone(ctx.store());
        let feeder = std::thread::spawn(move || {
            for w in 0..8u64 {
                for (src, dst) in pairs {
                    for i in 0..5u64 {
                        let ts = w * 10_000 + i * 2_000;
                        store.record_event(
                            gremlin_store::Event::request(src, dst, "GET", "/x").with_timestamp(ts),
                        );
                        store.record_event(
                            gremlin_store::Event::response(src, dst, 200, Duration::from_millis(2))
                                .with_timestamp(ts + 500),
                        );
                    }
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let first = CampaignDispatcher::single_host(ctx, Some(root.clone()))
            .run(recipes(true))
            .unwrap();
        feeder.join().unwrap();
        assert_eq!(first.warmup_skipped, 0);
        assert!(!first.baselines.is_empty(), "baselines learned");
        let persisted = crate::flight::load_baselines(&root).unwrap();
        assert_eq!(persisted, first.baselines);

        // Second campaign: seeded from the persisted snapshot, every
        // monitored recipe skips its warmup.
        let (ctx2, _) = fan_ctx(&pairs);
        let second = CampaignDispatcher::single_host(ctx2, None)
            .seed(persisted)
            .run(recipes(false))
            .unwrap();
        assert_eq!(second.warmup_skipped, 2, "{second}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn campaign_appends_ledger_entries_and_reports_coverage_delta() {
        let pairs = [("w1", "d1")];
        let root =
            std::env::temp_dir().join(format!("gremlin-campaign-ledger-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let recipe = |name: &str| {
            CampaignRecipe::new(name)
                .scenario(Scenario::abort("w1", "d1", 503))
                .hold(Duration::from_millis(10))
        };

        let first = CampaignDispatcher::single_host(fan_ctx(&pairs).0, Some(root.clone()))
            .run(vec![recipe("first")])
            .unwrap();
        assert_eq!(first.flight_dirs, vec![None], "unmonitored: no flight dir");
        assert_eq!(first.newly_covered.len(), 1, "{:?}", first.newly_covered);
        let text = first.to_string();
        assert!(text.contains("coverage: 1 cell(s) newly covered"), "{text}");
        let ledger = CoverageLedger::scan(&root).unwrap();
        assert_eq!(ledger.runs_scanned(), 1);
        assert_eq!(ledger.covered_cells(), 1);

        // Same cell again: the appended entry made it "covered", so
        // the second campaign reports no delta.
        let second = CampaignDispatcher::single_host(fan_ctx(&pairs).0, Some(root.clone()))
            .run(vec![recipe("second")])
            .unwrap();
        assert!(
            second.newly_covered.is_empty(),
            "{:?}",
            second.newly_covered
        );
        assert!(!second.to_string().contains("coverage:"), "{second}");
        let ledger = CoverageLedger::scan(&root).unwrap();
        assert_eq!(ledger.runs_scanned(), 2);
        let _ = fs::remove_dir_all(&root);
    }

    /// The lines of `campaigns.jsonl` under `root`.
    fn ledger_entries(root: &Path) -> Vec<LedgerEntry> {
        let raw = fs::read_to_string(root.join(crate::ledger::CAMPAIGN_LEDGER_FILE)).unwrap();
        raw.lines()
            .map(|line| serde_json::from_str(line).unwrap())
            .collect()
    }

    #[test]
    fn aborted_campaign_keeps_completed_wave_entries_exactly_once() {
        // An agent whose very first fault-clear fails — models an
        // operator host dying at a wave boundary.
        let pairs = [("a", "b")];
        let ctx = ctx_over(&pairs, &[FakeAgent::failing_clears_after("a", 0)]);
        let root =
            std::env::temp_dir().join(format!("gremlin-campaign-abort-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);

        // Two colliding recipes -> two waves. The very first
        // wave-boundary clear fails, so wave 2 never runs and the
        // campaign errors out — but wave 1's verdict was already
        // final, so its ledger entry must survive, exactly once.
        let hold = Duration::from_millis(10);
        let err = CampaignDispatcher::single_host(ctx, Some(root.clone()))
            .run(vec![
                CampaignRecipe::new("first")
                    .scenario(Scenario::abort("a", "b", 503))
                    .hold(hold),
                CampaignRecipe::new("second")
                    .scenario(Scenario::delay("a", "b", Duration::from_millis(1)))
                    .hold(hold),
            ])
            .unwrap_err();
        assert!(matches!(err, CoreError::AgentFailed { .. }), "{err}");

        let recorded = ledger_entries(&root);
        assert_eq!(recorded.len(), 1, "{recorded:?}");
        assert_eq!(recorded[0].recipe, "first");
        assert_eq!(recorded[0].outcome, RunOutcome::Pass);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn boundary_clear_failure_after_the_last_wave_fails_the_campaign() {
        // One clear succeeds (the boundary after wave 1), the next one
        // — after the last wave — fails. Nothing is left to run, but
        // the fleet may still carry wave 2's faults, so the campaign
        // must not report success; both waves stay in the ledger.
        let pairs = [("a", "b")];
        let agent = FakeAgent::failing_clears_after("a", 1);
        let ctx = ctx_over(&pairs, &[Arc::clone(&agent)]);
        let root =
            std::env::temp_dir().join(format!("gremlin-campaign-last-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let hold = Duration::from_millis(5);
        let err = CampaignDispatcher::single_host(ctx, Some(root.clone()))
            .run(vec![
                CampaignRecipe::new("first")
                    .scenario(Scenario::abort("a", "b", 503))
                    .hold(hold),
                CampaignRecipe::new("last")
                    .scenario(Scenario::delay("a", "b", Duration::from_millis(1)))
                    .hold(hold),
            ])
            .unwrap_err();
        assert!(matches!(err, CoreError::AgentFailed { .. }), "{err}");
        assert!(!agent.rules.lock().is_empty(), "wave 2's faults leaked");
        let recorded: Vec<String> = ledger_entries(&root)
            .into_iter()
            .map(|entry| entry.recipe)
            .collect();
        assert_eq!(recorded, vec!["first", "last"]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn single_host_ledger_scan_counts_into_the_context_registry() {
        let pairs = [("a", "b")];
        let root =
            std::env::temp_dir().join(format!("gremlin-campaign-scan-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let run = || {
            let (ctx, _) = fan_ctx(&pairs);
            let registry = Arc::clone(ctx.telemetry());
            CampaignDispatcher::single_host(ctx, Some(root.clone()))
                .run(vec![CampaignRecipe::new("r")
                    .scenario(Scenario::abort("a", "b", 503))
                    .hold(Duration::from_millis(5))])
                .unwrap();
            registry
                .snapshot()
                .counter_value("gremlin_ledger_runs_scanned_total", &[])
        };
        // The scan runs before the campaign: an empty root first, then
        // the first campaign's one entry.
        assert_eq!(run(), Some(0));
        assert_eq!(run(), Some(1));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn steered_order_runs_untested_then_flaky_then_stable() {
        let pairs = [("a", "b"), ("c", "d"), ("e", "f")];
        let root =
            std::env::temp_dir().join(format!("gremlin-campaign-steer-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).unwrap();

        // Prior history: a->b stable (two passes), c->d flaky
        // (pass then assertion failure), e->f never tested.
        let entry = |name: &str, at: Micros, outcome: RunOutcome, scenario: Scenario| LedgerEntry {
            recipe: name.to_string(),
            started_at_us: at,
            outcome,
            scenarios: vec![scenario],
            flight_dir: None,
        };
        append_campaign_entries(
            &root,
            &[
                entry("h1", 1, RunOutcome::Pass, Scenario::abort("a", "b", 503)),
                entry("h2", 2, RunOutcome::Pass, Scenario::abort("a", "b", 503)),
                entry("h3", 3, RunOutcome::Pass, Scenario::abort("c", "d", 503)),
                entry(
                    "h4",
                    4,
                    RunOutcome::AssertionFailed,
                    Scenario::abort("c", "d", 503),
                ),
            ],
        )
        .unwrap();

        let recipes = || {
            vec![
                CampaignRecipe::new("stable")
                    .scenario(Scenario::abort("a", "b", 503))
                    .hold(Duration::from_millis(5)),
                CampaignRecipe::new("flaky")
                    .scenario(Scenario::abort("c", "d", 503))
                    .hold(Duration::from_millis(5)),
                CampaignRecipe::new("untested")
                    .scenario(Scenario::abort("e", "f", 503))
                    .hold(Duration::from_millis(5)),
            ]
        };

        // Unsteered: planner input order, even with the same ledger.
        let plain = CampaignDispatcher::single_host(fan_ctx(&pairs).0, Some(root.clone()))
            .max_in_flight(1)
            .run(recipes())
            .unwrap();
        assert!(!plain.steered);
        assert_eq!(
            plain.waves,
            vec![
                vec!["stable".to_string()],
                vec!["flaky".to_string()],
                vec!["untested".to_string()],
            ]
        );
        assert!(!plain.to_string().contains("steered"), "{plain}");

        // Steered against the *original* history (rebuild it under a
        // fresh root so the first campaign's appended entries don't
        // shift priorities).
        let root2 =
            std::env::temp_dir().join(format!("gremlin-campaign-steer2-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root2);
        fs::create_dir_all(&root2).unwrap();
        append_campaign_entries(
            &root2,
            &[
                entry("h1", 1, RunOutcome::Pass, Scenario::abort("a", "b", 503)),
                entry("h2", 2, RunOutcome::Pass, Scenario::abort("a", "b", 503)),
                entry("h3", 3, RunOutcome::Pass, Scenario::abort("c", "d", 503)),
                entry(
                    "h4",
                    4,
                    RunOutcome::AssertionFailed,
                    Scenario::abort("c", "d", 503),
                ),
            ],
        )
        .unwrap();
        let steered = CampaignDispatcher::single_host(fan_ctx(&pairs).0, Some(root2.clone()))
            .max_in_flight(1)
            .steer_order(true)
            .run(recipes())
            .unwrap();
        assert!(steered.steered);
        assert_eq!(
            steered.waves,
            vec![
                vec!["untested".to_string()],
                vec!["flaky".to_string()],
                vec!["stable".to_string()],
            ],
            "{steered}"
        );
        assert!(steered.to_string().contains("(steered order)"), "{steered}");
        // Reports and durations stay aligned with the input order.
        assert_eq!(steered.recipes[0].name, "stable");
        assert_eq!(steered.recipes.len(), 3);
        let _ = fs::remove_dir_all(&root);
        let _ = fs::remove_dir_all(&root2);
    }

    #[test]
    fn campaign_waves_annotate_an_attached_timeline() {
        use gremlin_telemetry::TimeSeriesStore;

        let (ctx, _) = fan_ctx(&[("a", "b")]);
        let ctx = ctx.with_timeline(TimeSeriesStore::shared());
        let timeline = Arc::clone(ctx.timeline().unwrap());
        CampaignDispatcher::single_host(ctx, None)
            .run(vec![CampaignRecipe::new("annotated")
                .scenario(Scenario::abort("a", "b", 503))
                .hold(Duration::from_millis(5))])
            .unwrap();
        let phases: Vec<String> = timeline
            .annotations(0, u64::MAX)
            .into_iter()
            .map(|a| a.phase)
            .collect();
        assert_eq!(
            phases,
            vec!["wave-begin", "install", "clear", "wave-end"],
            "{phases:?}"
        );
        let begin = &timeline.annotations(0, u64::MAX)[0];
        assert!(begin.detail.contains("annotated"), "{}", begin.detail);
    }

    #[test]
    fn spec_serde_round_trips() {
        let spec = CampaignSpec {
            max_in_flight: Some(2),
            recipes: vec![CampaignRecipe::new("r")
                .scenario(Scenario::crash("b"))
                .hold(Duration::from_secs(1))],
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: CampaignSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        // hold, monitor and max_in_flight all default when absent.
        let minimal: CampaignSpec = serde_json::from_str(
            r#"{"recipes": [{"name": "r", "scenarios": [
                {"kind": {"kind": "crash", "service": "b", "probability": 1.0}}
            ]}]}"#,
        )
        .unwrap();
        assert!(minimal.max_in_flight.is_none());
        assert_eq!(minimal.recipes[0].scenarios, spec.recipes[0].scenarios);
        assert_eq!(minimal.recipes[0].hold, default_hold());
        assert!(minimal.recipes[0].monitor.is_none());
    }
}
