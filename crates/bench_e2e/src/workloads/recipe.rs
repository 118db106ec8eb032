//! `recipe_verdict`: the operator's loop — stage a fault over the
//! control plane, run the assertions, produce a verdict, clean up.
//!
//! One operator — a recipe is run by one person or one CI job, and a
//! second operator on the same core would only time-slice with the
//! first — works a deployment of a 15-service binary tree (depth 3) under
//! `user`: one `GremlinAgent` per tree service behind a `ControlServer`,
//! driven through `ControlClient`s, the paper's REST control plane. One
//! operation is one recipe cycle:
//! `RecipeRun::new` → `inject` of a seeded overload or delay →
//! `has_timeouts`, `has_bounded_retries` and `has_latency_slo` for every
//! service → `finish` → `clear_faults`. The store is pre-loaded each
//! round with a seeded synthetic log; no application traffic flows inside
//! a cycle, because Fig. 7 plots orchestration plus assertion time and
//! the application's own latency would dilute it.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gremlin_core::{AppGraph, RecipeRun, Scenario, TestContext};
use gremlin_proxy::{AgentConfig, AgentControl, ControlClient, ControlServer, GremlinAgent};
use gremlin_store::{Event, EventStore, Pattern, Query};

use super::{probe_p50_us, LayerMetrics, Traced, Workload};
use crate::driver::{run_clients, ClientOutcome, RoundOutcome};
use crate::gen::{
    caller_of, cycle_plans, service_name, tree_log, CyclePlan, DEFAULT_SEED, MAX_TRIES, SLO_BOUND,
    SLO_QUANTILE, TIMEOUT_BOUND, TREE_SERVICES, USER,
};
use crate::spans::Recorder;
use crate::stats;

/// Verdicts the default seed's log must produce, committed so that a
/// change to the generator or to the checker cannot pass unnoticed.
const REFERENCE: &str = include_str!("../../reference/recipe_verdict.seed2016.json");

/// Delay staged by the cycles that do not stage an overload.
const STAGED_DELAY: Duration = Duration::from_millis(5);

/// One operator's deployment.
struct Fleet {
    // The context's control clients go before the servers they talk to,
    // and the servers before the agents they front.
    ctx: TestContext,
    clients: Vec<Arc<ControlClient>>,
    _controls: Vec<ControlServer>,
    _agents: Vec<Arc<GremlinAgent>>,
    store: Arc<EventStore>,
}

struct RecipeWorkload {
    fleet: Fleet,
    plans: Vec<CyclePlan>,
    log: Vec<Event>,
    expected: Vec<bool>,
    pattern: Pattern,
    recorder: Option<Arc<Recorder>>,
    /// Exact counts of the last round, for the traced report.
    last_round: Totals,
    push_failures: usize,
    clear_ms: Vec<f64>,
}

/// Parses the committed reference verdicts.
pub(crate) fn reference_verdicts() -> Result<Vec<bool>, String> {
    let reference: serde_json::Value =
        serde_json::from_str(REFERENCE).map_err(|err| format!("reference file: {err}"))?;
    reference["verdicts"]
        .as_array()
        .map(|verdicts| {
            verdicts
                .iter()
                .filter_map(serde_json::Value::as_bool)
                .collect()
        })
        .ok_or_else(|| "reference file has no `verdicts` array".to_string())
}

fn tree_graph() -> AppGraph {
    let mut graph = AppGraph::binary_tree(3);
    graph.add_edge(USER, service_name(0));
    graph
}

fn start_fleet() -> Result<Fleet, String> {
    let store = Arc::new(EventStore::new());
    let mut agents = Vec::with_capacity(TREE_SERVICES);
    let mut controls = Vec::with_capacity(TREE_SERVICES);
    let mut clients = Vec::with_capacity(TREE_SERVICES);
    for index in 0..TREE_SERVICES {
        // No routes: nothing is proxied inside a cycle, the agents only
        // take rule pushes.
        let agent = Arc::new(
            GremlinAgent::start(
                AgentConfig::new(service_name(index)),
                Arc::clone(&store) as _,
            )
            .map_err(|err| format!("agent {index}: {err}"))?,
        );
        let control = ControlServer::start(Arc::clone(&agent), "127.0.0.1:0")
            .map_err(|err| format!("control server {index}: {err}"))?;
        let client = ControlClient::connect(control.local_addr())
            .map_err(|err| format!("control client {index}: {err}"))?;
        agents.push(agent);
        controls.push(control);
        clients.push(Arc::new(client));
    }
    let handles: Vec<Arc<dyn AgentControl>> = clients
        .iter()
        .map(|client| Arc::clone(client) as Arc<dyn AgentControl>)
        .collect();
    Ok(Fleet {
        ctx: TestContext::new(tree_graph(), handles, Arc::clone(&store)),
        clients,
        _controls: controls,
        _agents: agents,
        store,
    })
}

pub(super) fn set_up(
    seed: u64,
    ops: usize,
    recorder: Option<Arc<Recorder>>,
) -> Result<Box<dyn Workload>, String> {
    let log = tree_log(seed);
    let expected = log.expected_verdicts();
    if seed == DEFAULT_SEED && expected != reference_verdicts()? {
        return Err(format!(
            "the default seed's predicted verdicts differ from reference/: predicted {expected:?}"
        ));
    }
    Ok(Box::new(RecipeWorkload {
        fleet: start_fleet()?,
        plans: cycle_plans(seed, ops),
        log: log.events,
        expected,
        pattern: Pattern::new("test-*"),
        recorder,
        last_round: Totals::default(),
        push_failures: 0,
        clear_ms: Vec::new(),
    }))
}

fn scenario_of(plan: CyclePlan) -> Scenario {
    let target = service_name(plan.target);
    let scenario = if plan.overload {
        Scenario::overload(target)
    } else {
        Scenario::delay(caller_of(plan.target), target, STAGED_DELAY)
    };
    scenario.with_pattern("test-*")
}

/// Exact counts summed over a round's cycles.
#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    pushes: usize,
    push_failures: usize,
    checks: usize,
    checks_passed: usize,
}

/// What one cycle produced, beyond its latency.
struct Cycle {
    as_predicted: bool,
    pushes: usize,
    push_failed: bool,
    checks: usize,
    checks_passed: usize,
}

/// Times `f` as a child span of the cycle when tracing.
fn spanned<T>(
    recorder: Option<&Recorder>,
    id: &Arc<str>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match recorder {
        None => f(),
        Some(recorder) => {
            let start = recorder.now_ns();
            let value = f();
            recorder.record(id, Some("cycle"), name, start);
            value
        }
    }
}

fn run_cycle(
    fleet: &Fleet,
    plan: CyclePlan,
    id: &Arc<str>,
    pattern: &Pattern,
    expected: &[bool],
    recorder: Option<&Recorder>,
) -> Cycle {
    let ctx = &fleet.ctx;
    let mut run = RecipeRun::new(&**id, ctx);
    let scenario = scenario_of(plan);
    let injected = spanned(recorder, id, "inject", || run.inject(&scenario));
    for index in 0..TREE_SERVICES {
        let service = service_name(index);
        let caller = caller_of(index);
        let checker = ctx.checker();
        let check = spanned(recorder, id, "check.has_timeouts", || {
            checker.has_timeouts(&service, TIMEOUT_BOUND, pattern)
        });
        run.check(check);
        let check = spanned(recorder, id, "check.has_bounded_retries", || {
            checker.has_bounded_retries(&caller, &service, MAX_TRIES, pattern)
        });
        run.check(check);
        let check = spanned(recorder, id, "check.has_latency_slo", || {
            checker.has_latency_slo(&service, SLO_QUANTILE, SLO_BOUND, pattern)
        });
        run.check(check);
    }
    let report = spanned(recorder, id, "finish", || run.finish());
    let cleared = spanned(recorder, id, "clear_faults", || ctx.clear_faults());

    let verdicts: Vec<bool> = report.checks.iter().map(|check| check.passed).collect();
    let pushes = injected.as_ref().map_or(0, |stats| stats.installations);
    Cycle {
        as_predicted: verdicts == expected
            && report.passed == expected.iter().all(|passed| *passed)
            && pushes == plan.expected_installations()
            && cleared.is_ok(),
        pushes,
        push_failed: injected.is_err(),
        checks: verdicts.len(),
        checks_passed: verdicts.iter().filter(|passed| **passed).count(),
    }
}

impl Workload for RecipeWorkload {
    fn clients(&self) -> usize {
        1
    }

    fn round(&mut self, ops: usize) -> RoundOutcome {
        // Untimed barrier: every round starts from the same log.
        let cleared = Instant::now();
        self.fleet.store.clear();
        self.clear_ms
            .push(cleared.elapsed().as_secs_f64() * 1_000.0);
        self.fleet.store.record_batch(self.log.clone());

        let plans = &self.plans[..ops.min(self.plans.len())];
        let (fleet, pattern, expected) = (&self.fleet, &self.pattern, &self.expected);
        let recorder = self
            .recorder
            .as_deref()
            .filter(|recorder| recorder.enabled());
        let totals = Mutex::new(Totals::default());
        let round = run_clients(1, |_operator| {
            let mut outcome = ClientOutcome::default();
            let mut sum = Totals::default();
            for (number, plan) in plans.iter().enumerate() {
                let id: Arc<str> = format!("cycle-{number:05}").into();
                let root_start = recorder.map(Recorder::now_ns);
                let started = Instant::now();
                let cycle = run_cycle(fleet, *plan, &id, pattern, expected, recorder);
                outcome
                    .latencies_ns
                    .push(started.elapsed().as_nanos() as u64);
                if let (Some(recorder), Some(start)) = (recorder, root_start) {
                    recorder.record(&id, None, "cycle", start);
                }
                if !cycle.as_predicted {
                    outcome.failed += 1;
                }
                sum.pushes += cycle.pushes;
                sum.push_failures += usize::from(cycle.push_failed);
                sum.checks += cycle.checks;
                sum.checks_passed += cycle.checks_passed;
            }
            *totals
                .lock()
                .expect("totals lock poisoned: the operator panicked") = sum;
            outcome
        });
        let totals = totals
            .into_inner()
            .expect("totals lock poisoned: the operator panicked");
        self.push_failures += totals.push_failures;
        self.last_round = totals;
        round
    }

    fn layer_metrics(&mut self, traced: &Traced, out: &mut LayerMetrics) {
        let fleet = &self.fleet;
        let graph = tree_graph();
        let scenarios: Vec<Scenario> = self
            .plans
            .iter()
            .take(200)
            .map(|p| scenario_of(*p))
            .collect();

        // core.scenarios: the recipe translator on the run's scenarios.
        let mut next = scenarios.iter().cycle();
        out.set(
            "core.scenarios.to_rules_us",
            probe_p50_us(scenarios.len().max(1), || {
                if let Some(scenario) = next.next() {
                    std::hint::black_box(scenario.to_rules(&graph).ok());
                }
            }),
        );

        // core.orchestrator: fan-out of already translated rules, and
        // the fleet-wide flush.
        let rule_sets: Vec<_> = scenarios
            .iter()
            .filter_map(|s| s.to_rules(&graph).ok())
            .collect();
        let mut next = rule_sets.iter().cycle();
        out.set(
            "core.orchestrator.apply_rules_us",
            probe_p50_us(rule_sets.len().max(1), || {
                if let Some(rules) = next.next() {
                    let _ = fleet.ctx.orchestrator().apply_rules(rules);
                }
            }),
        );
        out.set(
            "core.orchestrator.clear_us",
            probe_p50_us(100, || {
                let _ = fleet.ctx.orchestrator().clear();
            }),
        );
        out.set("core.orchestrator.pushes", self.last_round.pushes as f64);
        out.set("core.orchestrator.push_failures", self.push_failures as f64);

        // proxy.control: one REST round trip each.
        let client = &fleet.clients[0];
        if let Some(rules) = rule_sets.first() {
            out.set(
                "proxy.control.install_rtt_us",
                probe_p50_us(200, || {
                    let _ = client.install_rules(rules);
                }),
            );
            let _ = client.clear_rules();
        }
        out.set(
            "proxy.control.health_rtt_us",
            probe_p50_us(200, || {
                std::hint::black_box(client.health().ok());
            }),
        );

        // core.checker and core.recipe, from the cycles' spans.
        out.set(
            "core.checker.has_timeouts_us",
            traced.p50_us("check.has_timeouts"),
        );
        out.set(
            "core.checker.has_bounded_retries_us",
            traced.p50_us("check.has_bounded_retries"),
        );
        out.set(
            "core.checker.has_latency_slo_us",
            traced.p50_us("check.has_latency_slo"),
        );
        out.set("core.checker.checks", self.last_round.checks as f64);
        out.set(
            "core.checker.checks_passed",
            self.last_round.checks_passed as f64,
        );
        out.set("core.recipe.finish_us", traced.p50_us("finish"));
        let (mut in_checks, mut in_cycles) = (0u64, 0u64);
        for (shares, root) in &traced.self_times {
            in_cycles += root;
            in_checks += shares
                .iter()
                .filter(|(name, _)| name.starts_with("check."))
                .map(|(_, ns)| ns)
                .sum::<u64>();
        }
        out.set(
            "core.checker.cycle_share",
            in_checks as f64 / in_cycles.max(1) as f64,
        );

        // Store queries, on the pre-loaded log (the other workloads only
        // append).
        let (src, dst) = (caller_of(1), service_name(1));
        out.set(
            "core.checker.get_requests_us",
            probe_p50_us(200, || {
                std::hint::black_box(fleet.ctx.checker().get_requests(&src, &dst, &self.pattern));
            }),
        );
        let edge = Query::edge(src.as_str(), dst.as_str());
        out.set(
            "eventstore.store.query_edge_us",
            probe_p50_us(200, || {
                std::hint::black_box(fleet.store.query(&edge));
            }),
        );
        let scratch = EventStore::new();
        let batch = self.log.clone();
        let events = batch.len();
        let started = Instant::now();
        scratch.record_batch(batch);
        out.set(
            "eventstore.store.record_batch_ns_per_event",
            started.elapsed().as_nanos() as f64 / events.max(1) as f64,
        );
        out.set("eventstore.store.events", fleet.store.len() as f64);
        out.set(
            "eventstore.store.clear_ms",
            stats::quantile(&mut self.clear_ms.clone(), 0.5),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_seed_predicts_the_committed_reference() {
        assert_eq!(
            tree_log(DEFAULT_SEED).expected_verdicts(),
            reference_verdicts().unwrap()
        );
    }

    #[test]
    fn the_tree_has_fifteen_services_under_user() {
        let graph = tree_graph();
        assert_eq!(graph.len(), TREE_SERVICES + 1);
        assert!(graph.has_edge(USER, "svc-0"));
        for index in 1..TREE_SERVICES {
            assert!(graph.has_edge(&caller_of(index), &service_name(index)));
        }
    }
}
