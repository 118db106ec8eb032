//! Automatic recipe generation — the paper's §9 future-work
//! direction: *"Given semantic annotations to the application graph,
//! it might be possible to automatically identify microservices and
//! resiliency patterns in need of testing, then construct and run
//! appropriate recipes."*
//!
//! [`RecipeGenerator`] walks the application graph and derives, for
//! every caller→callee edge, the systematic test matrix the paper's
//! §2.1 patterns imply:
//!
//! * a **disconnect** probing bounded retries;
//! * a **crash** (TCP reset) probing the circuit breaker;
//! * a **hang** probing the caller's timeout;
//! * for services with several dependencies, a **hang of one
//!   dependency** probing the bulkhead.
//!
//! With [`RecipeGenerator::steer`] the matrix is additionally
//! feedback-steered by a [`CoverageLedger`](crate::ledger::CoverageLedger)
//! built from prior runs: tests whose coverage cell already
//! **Violated** are dropped (re-running them re-confirms a known
//! defect), and tests whose cell keeps passing get their intensity
//! escalated, with the [`GeneratedTest::steering_reason`] explaining
//! each decision.

use std::collections::BTreeSet;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use gremlin_store::Pattern;

/// Serde helper storing `Duration` as integer microseconds.
mod duration_micros {
    use super::*;
    use serde::Deserializer;

    pub fn serialize<S: serde::Serializer>(
        value: &Duration,
        serializer: S,
    ) -> Result<S::Ok, S::Error> {
        serializer.serialize_u64(value.as_micros() as u64)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(deserializer: D) -> Result<Duration, D::Error> {
        let micros = u64::deserialize(deserializer)?;
        Ok(Duration::from_micros(micros))
    }
}

use crate::checker::{AssertionChecker, Check};
use crate::graph::AppGraph;
use crate::ledger::{CoverageLedger, Steering, SteeringPlan};
use crate::scenarios::{Scenario, ScenarioKind};
use crate::timeutil::format_duration;

/// Default trailing pass streak after which a steered generator
/// escalates a cell's intensity.
pub const DEFAULT_ESCALATE_STREAK: usize = 3;

/// The resiliency expectations used when generating assertions.
#[derive(Debug, Clone)]
pub struct Expectations {
    /// Retry budget per failing call (`HasBoundedRetries`).
    pub max_tries: usize,
    /// Failures that must trip a breaker (`HasCircuitBreaker`).
    pub breaker_threshold: usize,
    /// Open window the breaker must honour.
    pub breaker_window: Duration,
    /// Probe successes to close the breaker.
    pub breaker_success_threshold: usize,
    /// Upper bound on a service's reply latency under dependency
    /// failure (`HasTimeouts`).
    pub max_latency: Duration,
    /// Injected hang used when probing timeouts and bulkheads.
    pub hang: Duration,
    /// Minimum request rate to healthy dependencies during a hang
    /// (`HasBulkHead`).
    pub min_rate: f64,
}

impl Default for Expectations {
    fn default() -> Self {
        Expectations {
            max_tries: 5,
            breaker_threshold: 5,
            breaker_window: Duration::from_secs(30),
            breaker_success_threshold: 1,
            max_latency: Duration::from_secs(1),
            hang: Duration::from_secs(2),
            min_rate: 1.0,
        }
    }
}

/// Which resiliency pattern a generated test probes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "probe", rename_all = "snake_case")]
pub enum ProbedPattern {
    /// `HasBoundedRetries(src, dst, max_tries)`.
    BoundedRetries {
        /// Calling service.
        src: String,
        /// Called service.
        dst: String,
        /// Allowed attempts.
        max_tries: usize,
    },
    /// `HasCircuitBreaker(src, dst, threshold, window, success)`.
    CircuitBreaker {
        /// Calling service.
        src: String,
        /// Called service.
        dst: String,
        /// Failures tripping the breaker.
        threshold: usize,
        /// Open window.
        #[serde(with = "duration_micros")]
        window: Duration,
        /// Probe successes to close.
        success_threshold: usize,
    },
    /// `HasTimeouts(service, max_latency)`.
    Timeouts {
        /// The service whose replies are timed.
        service: String,
        /// Latency bound.
        #[serde(with = "duration_micros")]
        max_latency: Duration,
    },
    /// `HasBulkHead(src, slow_dst, min_rate)`.
    Bulkhead {
        /// Calling service.
        src: String,
        /// The degraded dependency.
        slow_dst: String,
        /// Required rate to the other dependencies.
        min_rate: f64,
    },
}

impl ProbedPattern {
    /// Evaluates the probe against the collected observations.
    pub fn evaluate(
        &self,
        checker: &AssertionChecker,
        graph: &AppGraph,
        pattern: &Pattern,
    ) -> Check {
        match self {
            ProbedPattern::BoundedRetries {
                src,
                dst,
                max_tries,
            } => checker.has_bounded_retries(src, dst, *max_tries, pattern),
            ProbedPattern::CircuitBreaker {
                src,
                dst,
                threshold,
                window,
                success_threshold,
            } => checker.has_circuit_breaker(
                src,
                dst,
                *threshold,
                *window,
                *success_threshold,
                pattern,
            ),
            ProbedPattern::Timeouts {
                service,
                max_latency,
            } => checker.has_timeouts(service, *max_latency, pattern),
            ProbedPattern::Bulkhead {
                src,
                slow_dst,
                min_rate,
            } => checker.has_bulkhead(graph, src, slow_dst, *min_rate, pattern),
        }
    }
}

/// One automatically generated test: a failure to stage plus the
/// pattern to probe afterwards.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeneratedTest {
    /// Descriptive name, e.g. `disconnect:webapp->db/bounded-retries`.
    pub name: String,
    /// The outage to stage.
    pub scenario: Scenario,
    /// The assertion to evaluate after driving load.
    pub probe: ProbedPattern,
    /// Why a steered generator altered this test (`None` for an
    /// unsteered or unchanged test), e.g. `escalate: 3 consecutive
    /// pass(es) — delay 2s -> 4s`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub steering_reason: Option<String>,
}

/// Generates the systematic per-edge test matrix for an application
/// graph.
///
/// # Examples
///
/// ```
/// use gremlin_core::autogen::RecipeGenerator;
/// use gremlin_core::AppGraph;
///
/// let graph = AppGraph::from_edges(vec![("web", "db"), ("web", "cache")]);
/// let tests = RecipeGenerator::new().exclude("user").generate(&graph);
/// // 3 probes per edge + 1 bulkhead probe per multi-dependency service.
/// assert_eq!(tests.len(), 2 * 3 + 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RecipeGenerator {
    expectations: Expectations,
    pattern: Option<Pattern>,
    exclude: BTreeSet<String>,
    steering: Option<SteeringPlan>,
    escalate_after: Option<usize>,
}

impl RecipeGenerator {
    /// A generator with default [`Expectations`] and the `test-*`
    /// flow pattern.
    pub fn new() -> RecipeGenerator {
        RecipeGenerator::default()
    }

    /// Overrides the expectations.
    pub fn expectations(mut self, expectations: Expectations) -> RecipeGenerator {
        self.expectations = expectations;
        self
    }

    /// Overrides the request-ID pattern (default `test-*`).
    pub fn pattern(mut self, pattern: impl Into<Pattern>) -> RecipeGenerator {
        self.pattern = Some(pattern.into());
        self
    }

    /// Excludes a service from acting as a test *source* (e.g. the
    /// synthetic `user`).
    pub fn exclude(mut self, service: impl Into<String>) -> RecipeGenerator {
        self.exclude.insert(service.into());
        self
    }

    /// Steers generation from a coverage ledger's history (see the
    /// module docs): cells that already Violated are skipped, cells
    /// with at least [`DEFAULT_ESCALATE_STREAK`] trailing passes are
    /// escalated. Tune the streak threshold with
    /// [`RecipeGenerator::escalate_after`].
    pub fn steer(mut self, ledger: &CoverageLedger) -> RecipeGenerator {
        self.steering = Some(ledger.steering_plan());
        self
    }

    /// Overrides the trailing pass streak after which a steered
    /// generator escalates (default [`DEFAULT_ESCALATE_STREAK`]).
    pub fn escalate_after(mut self, streak: usize) -> RecipeGenerator {
        self.escalate_after = Some(streak);
        self
    }

    /// The flow pattern generated scenarios are confined to.
    pub fn flow_pattern(&self) -> Pattern {
        self.pattern
            .clone()
            .unwrap_or_else(|| Pattern::new("test-*"))
    }

    /// Walks `graph` and emits the test matrix. A steered generator
    /// (see [`RecipeGenerator::steer`]) then filters and escalates
    /// the matrix against the ledger history.
    pub fn generate(&self, graph: &AppGraph) -> Vec<GeneratedTest> {
        let pattern = self.flow_pattern();
        let expect = &self.expectations;
        let mut tests = Vec::new();
        for (src, dst) in graph.edges() {
            if self.exclude.contains(&src) {
                continue;
            }
            tests.push(GeneratedTest {
                name: format!("disconnect:{src}->{dst}/bounded-retries"),
                scenario: Scenario::disconnect(src.clone(), dst.clone())
                    .with_pattern(pattern.clone()),
                probe: ProbedPattern::BoundedRetries {
                    src: src.clone(),
                    dst: dst.clone(),
                    max_tries: expect.max_tries,
                },
                steering_reason: None,
            });
            tests.push(GeneratedTest {
                name: format!("crash:{src}->{dst}/circuit-breaker"),
                scenario: Scenario::abort_reset(src.clone(), dst.clone())
                    .with_pattern(pattern.clone()),
                probe: ProbedPattern::CircuitBreaker {
                    src: src.clone(),
                    dst: dst.clone(),
                    threshold: expect.breaker_threshold,
                    window: expect.breaker_window,
                    success_threshold: expect.breaker_success_threshold,
                },
                steering_reason: None,
            });
            tests.push(GeneratedTest {
                name: format!("hang:{src}->{dst}/timeouts"),
                scenario: Scenario::delay(src.clone(), dst.clone(), expect.hang)
                    .with_pattern(pattern.clone()),
                probe: ProbedPattern::Timeouts {
                    service: src.clone(),
                    max_latency: expect.max_latency,
                },
                steering_reason: None,
            });
        }
        // Bulkhead probes: one per (service, slow dependency) where
        // the service has other dependencies to protect.
        for service in graph.services() {
            if self.exclude.contains(&service) {
                continue;
            }
            let dependencies = graph.dependencies(&service);
            if dependencies.len() < 2 {
                continue;
            }
            for slow in &dependencies {
                tests.push(GeneratedTest {
                    name: format!("hang:{service}->{slow}/bulkhead"),
                    scenario: Scenario::delay(service.clone(), slow.clone(), expect.hang)
                        .with_pattern(pattern.clone()),
                    probe: ProbedPattern::Bulkhead {
                        src: service.clone(),
                        slow_dst: slow.clone(),
                        min_rate: expect.min_rate,
                    },
                    steering_reason: None,
                });
            }
        }
        match &self.steering {
            Some(plan) => {
                let streak_floor = self.escalate_after.unwrap_or(DEFAULT_ESCALATE_STREAK);
                tests
                    .into_iter()
                    .filter_map(|test| apply_steering(test, plan, streak_floor))
                    .collect()
            }
            None => tests,
        }
    }
}

/// Applies one steering verdict: `None` drops the test (cell already
/// Violated), otherwise the test is returned — escalated with a
/// recorded [`GeneratedTest::steering_reason`] when its cell has a
/// long enough pass streak and an intensity knob to turn.
fn apply_steering(
    mut test: GeneratedTest,
    plan: &SteeringPlan,
    escalate_after: usize,
) -> Option<GeneratedTest> {
    match plan.verdict_for(&test.scenario, escalate_after) {
        Steering::Fresh => Some(test),
        Steering::Skip { .. } => None,
        Steering::Escalate { streak } => {
            if let Some((scenario, change)) = escalate(&test.scenario) {
                test.steering_reason = Some(format!(
                    "escalate: {streak} consecutive pass(es) — {change}"
                ));
                test.scenario = scenario;
            }
            Some(test)
        }
    }
}

/// Doubles a scenario's intensity knob, returning the harder scenario
/// plus a human-readable description of the change. Scenarios without
/// a knob left to turn (shape-only faults, probabilities already at
/// 1.0) return `None` and run unchanged.
fn escalate(scenario: &Scenario) -> Option<(Scenario, String)> {
    let mut out = scenario.clone();
    let change = match &mut out.kind {
        ScenarioKind::Delay { interval, .. } | ScenarioKind::Hang { interval, .. } => {
            let was = *interval;
            *interval = was.saturating_mul(2);
            format!(
                "delay {} -> {}",
                format_duration(was),
                format_duration(*interval)
            )
        }
        ScenarioKind::Overload { delay, .. } => {
            let was = *delay;
            *delay = was.saturating_mul(2);
            format!(
                "overload delay {} -> {}",
                format_duration(was),
                format_duration(*delay)
            )
        }
        ScenarioKind::Abort { probability, .. } | ScenarioKind::Crash { probability, .. }
            if *probability < 1.0 =>
        {
            let was = *probability;
            *probability = (was * 2.0).min(1.0);
            format!("probability {was} -> {}", *probability)
        }
        _ => return None,
    };
    Some((out, change))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> AppGraph {
        AppGraph::from_edges(vec![
            ("user", "web"),
            ("web", "db"),
            ("web", "cache"),
            ("cache", "db"),
        ])
    }

    #[test]
    fn generates_three_probes_per_edge() {
        let tests = RecipeGenerator::new().exclude("user").generate(&graph());
        // Edges excluding user->web: web->db, web->cache, cache->db.
        let edge_tests = tests
            .iter()
            .filter(|t| !t.name.contains("/bulkhead"))
            .count();
        assert_eq!(edge_tests, 9);
    }

    #[test]
    fn generates_bulkhead_probes_for_multi_dependency_services() {
        let tests = RecipeGenerator::new().exclude("user").generate(&graph());
        let bulkheads: Vec<_> = tests
            .iter()
            .filter(|t| t.name.contains("/bulkhead"))
            .collect();
        // Only "web" has 2+ dependencies; one probe per slow dep.
        assert_eq!(bulkheads.len(), 2);
        assert!(bulkheads.iter().all(|t| t.name.contains("web->")));
    }

    #[test]
    fn excluded_sources_generate_nothing() {
        let tests = RecipeGenerator::new()
            .exclude("user")
            .exclude("web")
            .exclude("cache")
            .generate(&graph());
        assert!(tests.is_empty());
    }

    #[test]
    fn scenarios_carry_the_flow_pattern() {
        let tests = RecipeGenerator::new()
            .pattern("probe-*")
            .exclude("user")
            .generate(&graph());
        assert!(tests
            .iter()
            .all(|t| t.scenario.pattern == Pattern::new("probe-*")));
    }

    #[test]
    fn all_scenarios_translate_over_the_graph() {
        let g = graph();
        for test in RecipeGenerator::new().exclude("user").generate(&g) {
            let rules = test.scenario.to_rules(&g).expect("must translate");
            assert!(!rules.is_empty(), "{}", test.name);
        }
    }

    #[test]
    fn probes_evaluate_against_empty_store_as_failures() {
        let g = graph();
        let checker = AssertionChecker::new(gremlin_store::EventStore::shared());
        let generator = RecipeGenerator::new().exclude("user");
        let pattern = generator.flow_pattern();
        for test in generator.generate(&g) {
            let check = test.probe.evaluate(&checker, &g, &pattern);
            assert!(!check.passed, "{}: {check}", test.name);
        }
    }

    #[test]
    fn names_are_unique() {
        let tests = RecipeGenerator::new().exclude("user").generate(&graph());
        let mut names: Vec<_> = tests.iter().map(|t| &t.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), tests.len());
    }

    #[test]
    fn escalate_doubles_intensity_knobs() {
        let (harder, change) =
            escalate(&Scenario::delay("a", "b", Duration::from_secs(2))).unwrap();
        assert!(matches!(
            harder.kind,
            ScenarioKind::Delay { interval, .. } if interval == Duration::from_secs(4)
        ));
        assert_eq!(change, "delay 2s -> 4s");

        let (harder, change) = escalate(&Scenario::transient_crash("db", 0.3)).unwrap();
        assert!(matches!(
            harder.kind,
            ScenarioKind::Crash { probability, .. } if (probability - 0.6).abs() < 1e-9
        ));
        assert!(change.contains("probability 0.3"), "{change}");

        // No knob left to turn: shape-only faults and hard crashes.
        assert!(escalate(&Scenario::disconnect("a", "b")).is_none());
        assert!(escalate(&Scenario::crash("db")).is_none());
    }

    #[test]
    fn steered_generator_skips_violated_and_escalates_streaks() {
        use crate::flight::{FlightRecorder, FlightSummary};
        use crate::ledger::CoverageLedger;
        use crate::monitor::{LiveCheck, Verdict};

        let root =
            std::env::temp_dir().join(format!("gremlin-autogen-steer-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let record = |recipe: &str, at: u64, passed: bool, violated: bool, scenario: Scenario| {
            let recorder = FlightRecorder::create(&root, recipe, at, 1_000_000).unwrap();
            let monitor = if violated {
                vec![LiveCheck {
                    name: "LiveErrorRate(web, <= 1%)".to_string(),
                    verdict: Verdict::Violated,
                    detail: "error rate 30%".to_string(),
                    windows: 3,
                    first_failing_at_us: Some(1),
                    violated_at_us: Some(2),
                }]
            } else {
                Vec::new()
            };
            recorder
                .finish(&FlightSummary {
                    name: recipe.to_string(),
                    passed,
                    injected: vec![scenario.to_string()],
                    checks: Vec::new(),
                    monitor,
                    anomalies: Vec::new(),
                    scenarios: vec![scenario],
                })
                .unwrap();
        };
        let hang = Duration::from_secs(2);
        record(
            "hang db",
            100,
            false,
            true,
            Scenario::delay("web", "db", hang),
        );
        for at in [200, 300, 400] {
            record(
                "hang cache",
                at,
                true,
                false,
                Scenario::delay("web", "cache", hang),
            );
        }
        let ledger = CoverageLedger::scan(&root).unwrap();

        let unsteered = RecipeGenerator::new().exclude("user").generate(&graph());
        let steered = RecipeGenerator::new()
            .exclude("user")
            .steer(&ledger)
            .generate(&graph());

        // The Violated cell (web -> db under delay) drops both its
        // timeout probe and its bulkhead probe.
        assert!(unsteered.iter().any(|t| t.name == "hang:web->db/timeouts"));
        assert!(!steered.iter().any(|t| t.name == "hang:web->db/timeouts"));
        assert!(!steered.iter().any(|t| t.name == "hang:web->db/bulkhead"));
        assert_eq!(steered.len(), unsteered.len() - 2);

        // The 3-pass-streak cell (web -> cache under delay) comes
        // back harder, with the reason recorded.
        let escalated = steered
            .iter()
            .find(|t| t.name == "hang:web->cache/timeouts")
            .unwrap();
        assert!(matches!(
            escalated.scenario.kind,
            ScenarioKind::Delay { interval, .. } if interval == Duration::from_secs(4)
        ));
        let reason = escalated.steering_reason.as_deref().unwrap();
        assert!(
            reason.contains("3 consecutive pass(es)") && reason.contains("2s -> 4s"),
            "{reason}"
        );

        // Untouched cells pass through unchanged.
        let fresh = steered
            .iter()
            .find(|t| t.name == "disconnect:web->cache/bounded-retries")
            .unwrap();
        assert!(fresh.steering_reason.is_none());

        // A higher streak floor leaves the streak cell unescalated.
        let strict = RecipeGenerator::new()
            .exclude("user")
            .steer(&ledger)
            .escalate_after(5)
            .generate(&graph());
        let unescalated = strict
            .iter()
            .find(|t| t.name == "hang:web->cache/timeouts")
            .unwrap();
        assert!(unescalated.steering_reason.is_none());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn steering_reason_is_backwards_compatible_json() {
        // Pre-steering JSON (no steering_reason field) still
        // deserializes, and None is omitted on the way out.
        let tests = RecipeGenerator::new().exclude("user").generate(&graph());
        let json = serde_json::to_string(&tests).unwrap();
        assert!(!json.contains("steering_reason"), "{json}");
        let back: Vec<GeneratedTest> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), tests.len());
    }
}
