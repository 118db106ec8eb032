//! The Failure Orchestrator (paper §4.2): pushes translated
//! fault-injection rules to every physical Gremlin agent instance
//! through the out-of-band control channel.
//!
//! Control calls fan out **concurrently**: installs go to every agent
//! that has rules to receive, flushes and listings to all agents, over
//! a bounded pool of scoped threads (at most
//! [`FailureOrchestrator::with_max_fanout`] calls in flight), so a
//! fleet-wide push costs roughly one slow agent's round-trip instead
//! of the sum of all of them. The calling thread is the pool's first
//! worker and helpers are started only while unclaimed agents remain,
//! so a push to a single agent starts no thread at all. Every agent
//! with work is always attempted — a failing agent never shields the
//! rest of the fleet from the push or the flush — and the first error
//! in agent order is reported after the whole fan-out completes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::Scope;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use gremlin_proxy::{AgentControl, Rule};
use gremlin_store::now_micros;
use gremlin_telemetry::{Counter, Gauge, LatencyHistogram, MetricsRegistry};

use crate::error::CoreError;
use crate::graph::AppGraph;
use crate::scenarios::Scenario;

/// Statistics from one orchestration step (feeds the paper's
/// Figure 7 measurements).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrchestrationStats {
    /// Rules produced by the translator.
    pub rules: usize,
    /// Rule installations performed (one per matching agent
    /// instance).
    pub installations: usize,
    /// Wall-clock time spent translating and installing.
    pub duration: Duration,
}

/// Programs a fleet of Gremlin agents.
///
/// Since an application may run multiple instances of any service,
/// the orchestrator locates **all** agent instances fronting a rule's
/// source service and installs the rule on each of them (paper
/// Figure 3).
pub struct FailureOrchestrator {
    agents: Vec<Arc<dyn AgentControl>>,
    telemetry: Option<ControlTelemetry>,
    max_fanout: usize,
}

/// Default bound on concurrent control calls during a fan-out.
pub const DEFAULT_MAX_FANOUT: usize = 8;

/// Control-plane telemetry: per-agent push counters, last-seen
/// timestamps and push-latency histograms (vectors parallel to
/// `agents`), plus one push-latency histogram for the whole fleet.
struct ControlTelemetry {
    pushes: Vec<Arc<Counter>>,
    last_seen: Vec<Arc<Gauge>>,
    agent_push_seconds: Vec<Arc<LatencyHistogram>>,
    push_seconds: Arc<LatencyHistogram>,
}

impl ControlTelemetry {
    fn new(agents: &[Arc<dyn AgentControl>], registry: &MetricsRegistry) -> ControlTelemetry {
        let mut pushes = Vec::with_capacity(agents.len());
        let mut last_seen = Vec::with_capacity(agents.len());
        let mut agent_push_seconds = Vec::with_capacity(agents.len());
        for agent in agents {
            let service = agent.service_name();
            let labels = &[("service", service.as_str())];
            pushes.push(registry.counter(
                "gremlin_control_rule_pushes_total",
                "Rules pushed to the agent by the orchestrator.",
                labels,
            ));
            last_seen.push(registry.gauge(
                "gremlin_control_agent_last_seen_timestamp_us",
                "Unix microseconds of the agent's last successful control call.",
                labels,
            ));
            agent_push_seconds.push(registry.histogram(
                "gremlin_control_agent_push_seconds",
                "Wall-clock time of one rule push to this agent.",
                labels,
            ));
        }
        ControlTelemetry {
            pushes,
            last_seen,
            agent_push_seconds,
            push_seconds: registry.histogram(
                "gremlin_control_push_seconds",
                "Wall-clock time of one fleet-wide rule push.",
                &[],
            ),
        }
    }

    fn saw_agent(&self, index: usize) {
        if let Some(gauge) = self.last_seen.get(index) {
            gauge.set(now_micros() as i64);
        }
    }
}

/// One fan-out in flight: what its workers share.
struct FanOut<'a, T, F> {
    agents: &'a [Arc<dyn AgentControl>],
    /// Agent indices to call, in result order.
    targets: &'a [usize],
    task: F,
    /// Next unclaimed position in `targets`.
    next: AtomicUsize,
    /// One result per target.
    slots: Vec<Mutex<Option<T>>>,
    max_workers: usize,
}

impl<T: Send, F: Fn(usize, &dyn AgentControl) -> T + Sync> FanOut<'_, T, F> {
    /// Claims and serves targets until none are left. `workers` counts
    /// the workers started so far, this one included; each worker
    /// starts at most one more, so it is also this worker's number.
    fn work<'scope>(&'scope self, scope: &'scope Scope<'scope, '_>, workers: usize) {
        let mut may_spawn = workers < self.max_workers;
        loop {
            let position = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(&index) = self.targets.get(position) else {
                return;
            };
            if may_spawn && position + 1 < self.targets.len() {
                may_spawn = false;
                scope.spawn(move || self.work(scope, workers + 1));
            }
            let result = (self.task)(index, self.agents[index].as_ref());
            *self.slots[position].lock() = Some(result);
        }
    }
}

impl std::fmt::Debug for FailureOrchestrator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FailureOrchestrator")
            .field("agents", &self.agents.len())
            .finish()
    }
}

impl FailureOrchestrator {
    /// Creates an orchestrator driving the given agent handles
    /// (in-process agents or remote control clients).
    pub fn new(agents: Vec<Arc<dyn AgentControl>>) -> FailureOrchestrator {
        FailureOrchestrator {
            agents,
            telemetry: None,
            max_fanout: DEFAULT_MAX_FANOUT,
        }
    }

    /// Creates an orchestrator that records control-plane telemetry
    /// (rule pushes, per-agent and fleet push latency, per-agent
    /// last-seen timestamps) into `registry`.
    pub fn with_telemetry(
        agents: Vec<Arc<dyn AgentControl>>,
        registry: &MetricsRegistry,
    ) -> FailureOrchestrator {
        let telemetry = ControlTelemetry::new(&agents, registry);
        FailureOrchestrator {
            agents,
            telemetry: Some(telemetry),
            max_fanout: DEFAULT_MAX_FANOUT,
        }
    }

    /// Builder-style: bounds the worker pool used for concurrent
    /// control fan-out (minimum 1; 1 degenerates to serial pushes).
    pub fn with_max_fanout(mut self, max_fanout: usize) -> FailureOrchestrator {
        self.max_fanout = max_fanout.max(1);
        self
    }

    /// Number of agent instances under control.
    pub fn agent_count(&self) -> usize {
        self.agents.len()
    }

    /// Fan-out targets for a call that goes to the whole fleet.
    fn all_agents(&self) -> Vec<usize> {
        (0..self.agents.len()).collect()
    }

    /// Runs `task` once for each agent in `targets` (agent indices),
    /// returning the results in `targets` order.
    ///
    /// The calling thread is the first worker. Workers claim targets
    /// off a shared cursor, so a slow agent delays only its own slot;
    /// a worker that claims a target while others are still unclaimed
    /// starts one helper before it makes its call, until `max_fanout`
    /// workers exist. One target therefore spawns nothing, a fleet of
    /// agents that answer in microseconds is mostly served by the
    /// threads already running, and a fleet of slow agents has its full
    /// pool within a few thread start-ups.
    fn fan_out<T: Send>(
        &self,
        targets: &[usize],
        task: impl Fn(usize, &dyn AgentControl) -> T + Sync,
    ) -> Vec<T> {
        let pool = FanOut {
            agents: &self.agents,
            targets,
            task,
            next: AtomicUsize::new(0),
            slots: targets.iter().map(|_| Mutex::new(None)).collect(),
            max_workers: self.max_fanout,
        };
        std::thread::scope(|scope| pool.work(scope, 1));
        pool.slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every target slot is filled"))
            .collect()
    }

    /// Installs `rules`, grouping them by source service and fanning
    /// each group out to every matching agent instance — all matching
    /// agents concurrently, bounded by the fan-out pool.
    ///
    /// Every agent is attempted even when another install fails; the
    /// first failure in agent order is returned once the fan-out
    /// completes, so one broken agent never leaves the rest of the
    /// fleet unprogrammed.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NoAgentForService`] — a rule's source service
    ///   has no agent; nothing is installed in that case.
    /// * [`CoreError::AgentFailed`] — an agent rejected the batch
    ///   (the first such failure, after all agents were attempted).
    pub fn apply_rules(&self, rules: &[Rule]) -> Result<OrchestrationStats, CoreError> {
        let started = Instant::now();
        let mut by_src: HashMap<&str, Vec<Rule>> = HashMap::new();
        for rule in rules {
            by_src
                .entry(rule.src.as_str())
                .or_default()
                .push(rule.clone());
        }
        // Validate coverage before touching any agent, so a failed
        // apply is all-or-nothing at the fleet level.
        let services: Vec<String> = self.agents.iter().map(|a| a.service_name()).collect();
        for src in by_src.keys() {
            if !services.iter().any(|s| s == src) {
                return Err(CoreError::NoAgentForService(src.to_string()));
            }
        }
        // Only agents with a rule group are called.
        let targets: Vec<usize> = (0..services.len())
            .filter(|&index| by_src.contains_key(services[index].as_str()))
            .collect();
        let outcomes = self.fan_out(&targets, |index, agent| {
            let service = &services[index];
            let group = &by_src[service.as_str()];
            let push_started = Instant::now();
            let pushed = agent.install_rules(group);
            let push_duration = push_started.elapsed();
            match pushed {
                Ok(()) => {
                    if let Some(telemetry) = &self.telemetry {
                        telemetry.pushes[index].add(group.len() as u64);
                        telemetry.agent_push_seconds[index].record(push_duration);
                        telemetry.saw_agent(index);
                    }
                    Ok(group.len())
                }
                Err(source) => Err(CoreError::AgentFailed {
                    service: service.clone(),
                    source,
                }),
            }
        });
        let mut installations = 0;
        let mut first_error = None;
        for outcome in outcomes {
            match outcome {
                Ok(count) => installations += count,
                Err(err) => {
                    first_error.get_or_insert(err);
                }
            }
        }
        let duration = started.elapsed();
        if let Some(telemetry) = &self.telemetry {
            telemetry.push_seconds.record(duration);
        }
        if let Some(err) = first_error {
            return Err(err);
        }
        Ok(OrchestrationStats {
            rules: rules.len(),
            installations,
            duration,
        })
    }

    /// Translates `scenario` over `graph` and installs the resulting
    /// rules.
    ///
    /// # Errors
    ///
    /// Translation errors (see [`Scenario::to_rules`]) plus the
    /// installation errors of [`FailureOrchestrator::apply_rules`].
    pub fn inject(
        &self,
        scenario: &Scenario,
        graph: &AppGraph,
    ) -> Result<OrchestrationStats, CoreError> {
        let started = Instant::now();
        let rules = scenario.to_rules(graph)?;
        let mut stats = self.apply_rules(&rules)?;
        stats.duration = started.elapsed();
        Ok(stats)
    }

    /// Flushes the rules of every agent, concurrently.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::AgentFailed`] for the first agent (in
    /// agent order) whose flush failed — every agent is always
    /// attempted, so no agent is left with stale rules because an
    /// earlier one was unreachable.
    pub fn clear(&self) -> Result<(), CoreError> {
        let outcomes = self.fan_out(&self.all_agents(), |index, agent| {
            match agent.clear_rules() {
                Ok(()) => {
                    if let Some(telemetry) = &self.telemetry {
                        telemetry.saw_agent(index);
                    }
                    Ok(())
                }
                Err(source) => Err(CoreError::AgentFailed {
                    service: agent.service_name(),
                    source,
                }),
            }
        });
        outcomes.into_iter().find(|o| o.is_err()).unwrap_or(Ok(()))
    }

    /// Lists every agent's installed rules, concurrently, as
    /// `(service, rules)` pairs in agent order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::AgentFailed`] for the first agent whose
    /// listing failed, after every agent was attempted.
    pub fn list_rules(&self) -> Result<Vec<(String, Vec<Rule>)>, CoreError> {
        let outcomes = self.fan_out(&self.all_agents(), |index, agent| {
            let service = agent.service_name();
            match agent.list_rules() {
                Ok(rules) => {
                    if let Some(telemetry) = &self.telemetry {
                        telemetry.saw_agent(index);
                    }
                    Ok((service, rules))
                }
                Err(source) => Err(CoreError::AgentFailed { service, source }),
            }
        });
        outcomes.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gremlin_proxy::{AbortKind, ProxyError};
    use parking_lot::Mutex;
    use std::collections::HashSet;
    use std::thread::{self, ThreadId};

    /// A scriptable in-memory agent for orchestrator tests.
    struct FakeAgent {
        service: String,
        rules: Mutex<Vec<Rule>>,
        fail_installs: bool,
        fail_clears: bool,
        latency: Duration,
        /// The thread of every `install_rules` call, in call order.
        install_threads: Mutex<Vec<ThreadId>>,
    }

    impl FakeAgent {
        fn scripted(service: &str, failing: bool, latency: Duration) -> Arc<FakeAgent> {
            Arc::new(FakeAgent {
                service: service.to_string(),
                rules: Mutex::new(Vec::new()),
                fail_installs: failing,
                fail_clears: failing,
                latency,
                install_threads: Mutex::new(Vec::new()),
            })
        }

        fn new(service: &str) -> Arc<FakeAgent> {
            FakeAgent::scripted(service, false, Duration::ZERO)
        }

        fn failing(service: &str) -> Arc<FakeAgent> {
            FakeAgent::scripted(service, true, Duration::ZERO)
        }

        fn slow(service: &str, latency: Duration) -> Arc<FakeAgent> {
            FakeAgent::scripted(service, false, latency)
        }
    }

    impl AgentControl for FakeAgent {
        fn service_name(&self) -> String {
            self.service.clone()
        }

        fn install_rules(&self, rules: &[Rule]) -> Result<(), ProxyError> {
            self.install_threads.lock().push(thread::current().id());
            if !self.latency.is_zero() {
                thread::sleep(self.latency);
            }
            if self.fail_installs {
                return Err(ProxyError::InvalidRule("scripted failure".into()));
            }
            self.rules.lock().extend(rules.iter().cloned());
            Ok(())
        }

        fn clear_rules(&self) -> Result<(), ProxyError> {
            if self.fail_clears {
                return Err(ProxyError::InvalidRule("scripted clear failure".into()));
            }
            self.rules.lock().clear();
            Ok(())
        }

        fn list_rules(&self) -> Result<Vec<Rule>, ProxyError> {
            Ok(self.rules.lock().clone())
        }
    }

    fn graph() -> AppGraph {
        AppGraph::from_edges(vec![("a", "c"), ("b", "c")])
    }

    #[test]
    fn routes_rules_to_matching_agents() {
        let agent_a = FakeAgent::new("a");
        let agent_b = FakeAgent::new("b");
        let orchestrator = FailureOrchestrator::new(vec![
            Arc::clone(&agent_a) as Arc<dyn AgentControl>,
            Arc::clone(&agent_b) as Arc<dyn AgentControl>,
        ]);
        let stats = orchestrator
            .inject(&Scenario::crash("c"), &graph())
            .unwrap();
        assert_eq!(stats.rules, 2);
        assert_eq!(stats.installations, 2);
        assert_eq!(agent_a.rules.lock().len(), 1);
        assert_eq!(agent_b.rules.lock().len(), 1);
        assert_eq!(agent_a.rules.lock()[0].src, "a");
        assert_eq!(agent_b.rules.lock()[0].src, "b");
    }

    #[test]
    fn all_instances_of_a_service_receive_rules() {
        // Two physical instances of the same service (Figure 3).
        let instance_1 = FakeAgent::new("a");
        let instance_2 = FakeAgent::new("a");
        let orchestrator = FailureOrchestrator::new(vec![
            Arc::clone(&instance_1) as Arc<dyn AgentControl>,
            Arc::clone(&instance_2) as Arc<dyn AgentControl>,
        ]);
        let rules = vec![Rule::abort("a", "c", AbortKind::Status(503))];
        let stats = orchestrator.apply_rules(&rules).unwrap();
        assert_eq!(stats.installations, 2);
        assert_eq!(instance_1.rules.lock().len(), 1);
        assert_eq!(instance_2.rules.lock().len(), 1);
    }

    #[test]
    fn missing_agent_fails_before_any_install() {
        let agent_a = FakeAgent::new("a");
        let orchestrator =
            FailureOrchestrator::new(vec![Arc::clone(&agent_a) as Arc<dyn AgentControl>]);
        // Crash of c requires agents for both a and b.
        let err = orchestrator
            .inject(&Scenario::crash("c"), &graph())
            .unwrap_err();
        assert!(matches!(err, CoreError::NoAgentForService(s) if s == "b"));
        assert!(agent_a.rules.lock().is_empty(), "nothing installed");
    }

    #[test]
    fn agent_failure_is_reported() {
        let bad = FakeAgent::failing("a");
        let orchestrator = FailureOrchestrator::new(vec![bad as Arc<dyn AgentControl>]);
        let rules = vec![Rule::abort("a", "c", AbortKind::Status(503))];
        let err = orchestrator.apply_rules(&rules).unwrap_err();
        assert!(matches!(err, CoreError::AgentFailed { .. }));
    }

    #[test]
    fn clear_flushes_every_agent() {
        let agent_a = FakeAgent::new("a");
        let agent_b = FakeAgent::new("b");
        let orchestrator = FailureOrchestrator::new(vec![
            Arc::clone(&agent_a) as Arc<dyn AgentControl>,
            Arc::clone(&agent_b) as Arc<dyn AgentControl>,
        ]);
        orchestrator
            .inject(&Scenario::crash("c"), &graph())
            .unwrap();
        orchestrator.clear().unwrap();
        assert!(agent_a.rules.lock().is_empty());
        assert!(agent_b.rules.lock().is_empty());
    }

    #[test]
    fn telemetry_counts_pushes_per_agent() {
        let registry = MetricsRegistry::new();
        let agent_a = FakeAgent::new("a");
        let agent_b = FakeAgent::new("b");
        let orchestrator = FailureOrchestrator::with_telemetry(
            vec![
                Arc::clone(&agent_a) as Arc<dyn AgentControl>,
                Arc::clone(&agent_b) as Arc<dyn AgentControl>,
            ],
            &registry,
        );
        orchestrator
            .inject(&Scenario::crash("c"), &graph())
            .unwrap();
        orchestrator
            .apply_rules(&[Rule::abort("a", "c", AbortKind::Status(503))])
            .unwrap();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_value("gremlin_control_rule_pushes_total", &[("service", "a")]),
            Some(2)
        );
        assert_eq!(
            snap.counter_value("gremlin_control_rule_pushes_total", &[("service", "b")]),
            Some(1)
        );
        assert_eq!(
            snap.histogram("gremlin_control_push_seconds", &[])
                .unwrap()
                .count(),
            2
        );
        assert!(
            snap.gauge_value(
                "gremlin_control_agent_last_seen_timestamp_us",
                &[("service", "a")]
            )
            .unwrap()
                > 0
        );
    }

    #[test]
    fn stats_include_duration() {
        let agent_a = FakeAgent::new("a");
        let orchestrator = FailureOrchestrator::new(vec![agent_a as Arc<dyn AgentControl>]);
        let stats = orchestrator
            .apply_rules(&[Rule::abort("a", "c", AbortKind::Status(503))])
            .unwrap();
        assert!(stats.duration < Duration::from_secs(1));
        assert_eq!(orchestrator.agent_count(), 1);
    }

    #[test]
    fn fan_out_pushes_concurrently() {
        // Eight slow agents, 60ms install latency each. Serial execution
        // would take ~480ms; concurrent fan-out should finish in roughly
        // one agent's latency. The 240ms bound (half of serial) keeps the
        // test robust on loaded CI machines while still proving overlap.
        let latency = Duration::from_millis(60);
        let agents: Vec<Arc<FakeAgent>> = (0..8)
            .map(|i| FakeAgent::slow(&format!("s{i}"), latency))
            .collect();
        let orchestrator = FailureOrchestrator::new(
            agents
                .iter()
                .map(|a| Arc::clone(a) as Arc<dyn AgentControl>)
                .collect(),
        );
        let rules: Vec<Rule> = (0..8)
            .map(|i| Rule::abort(&format!("s{i}"), "c", AbortKind::Status(503)))
            .collect();
        let stats = orchestrator.apply_rules(&rules).unwrap();
        assert_eq!(stats.installations, 8);
        assert!(
            stats.duration < Duration::from_millis(240),
            "fan-out took {:?}, expected well under the ~480ms serial time",
            stats.duration
        );
        for agent in &agents {
            assert_eq!(agent.rules.lock().len(), 1);
        }
    }

    fn controls(agents: &[Arc<FakeAgent>]) -> Vec<Arc<dyn AgentControl>> {
        agents
            .iter()
            .map(|agent| Arc::clone(agent) as Arc<dyn AgentControl>)
            .collect()
    }

    #[test]
    fn single_target_push_runs_on_the_callers_thread() {
        // Fifteen agents, rules for one of them: only that agent is
        // called, and by the caller itself — no thread is started.
        let agents: Vec<Arc<FakeAgent>> =
            (0..15).map(|i| FakeAgent::new(&format!("s{i}"))).collect();
        let orchestrator = FailureOrchestrator::new(controls(&agents));
        let rules = vec![
            Rule::abort("s7", "x", AbortKind::Status(503)),
            Rule::abort("s7", "y", AbortKind::Status(503)),
        ];
        let stats = orchestrator.apply_rules(&rules).unwrap();
        assert_eq!(stats.installations, 2);
        for (index, agent) in agents.iter().enumerate() {
            let threads = agent.install_threads.lock();
            if index == 7 {
                assert_eq!(*threads, [thread::current().id()]);
                assert_eq!(agent.rules.lock().len(), 2);
            } else {
                assert!(threads.is_empty(), "agent s{index} has no rules to receive");
            }
        }
    }

    #[test]
    fn helpers_start_on_demand_up_to_max_fanout() {
        // Nine slow agents, at most three calls in flight: the caller
        // serves some itself and exactly two helpers join it.
        let agents: Vec<Arc<FakeAgent>> = (0..9)
            .map(|i| FakeAgent::slow(&format!("s{i}"), Duration::from_millis(20)))
            .collect();
        let orchestrator = FailureOrchestrator::new(controls(&agents)).with_max_fanout(3);
        let rules: Vec<Rule> = (0..9)
            .map(|i| Rule::abort(format!("s{i}"), "c", AbortKind::Status(503)))
            .collect();
        let stats = orchestrator.apply_rules(&rules).unwrap();
        assert_eq!(stats.installations, 9);
        let threads: HashSet<ThreadId> = agents
            .iter()
            .flat_map(|agent| agent.install_threads.lock().clone())
            .collect();
        assert!(
            threads.contains(&thread::current().id()),
            "the caller works too"
        );
        assert_eq!(threads.len(), 3, "two helpers beside the caller");
        // Three at a time over nine 20ms agents: three rounds, not nine.
        assert!(
            stats.duration < Duration::from_millis(150),
            "took {:?}, serial would be ~180ms",
            stats.duration
        );
    }

    #[test]
    fn fan_out_respects_max_fanout_of_one() {
        let latency = Duration::from_millis(20);
        let agents: Vec<Arc<FakeAgent>> = (0..4)
            .map(|i| FakeAgent::slow(&format!("s{i}"), latency))
            .collect();
        let orchestrator = FailureOrchestrator::new(
            agents
                .iter()
                .map(|a| Arc::clone(a) as Arc<dyn AgentControl>)
                .collect(),
        )
        .with_max_fanout(1);
        let rules: Vec<Rule> = (0..4)
            .map(|i| Rule::abort(&format!("s{i}"), "c", AbortKind::Status(503)))
            .collect();
        let stats = orchestrator.apply_rules(&rules).unwrap();
        assert_eq!(stats.installations, 4);
        assert!(
            stats.duration >= Duration::from_millis(80),
            "serial fallback should pay every agent's latency, got {:?}",
            stats.duration
        );
    }

    #[test]
    fn failing_agent_does_not_block_the_rest() {
        // Agent order: good, bad, good. The push must still reach every
        // healthy agent, and the bad agent's error is reported afterwards.
        let agent_a = FakeAgent::new("a");
        let bad = FakeAgent::failing("b");
        let agent_c = FakeAgent::new("c");
        let orchestrator = FailureOrchestrator::new(vec![
            Arc::clone(&agent_a) as Arc<dyn AgentControl>,
            Arc::clone(&bad) as Arc<dyn AgentControl>,
            Arc::clone(&agent_c) as Arc<dyn AgentControl>,
        ]);
        let rules = vec![
            Rule::abort("a", "x", AbortKind::Status(503)),
            Rule::abort("b", "x", AbortKind::Status(503)),
            Rule::abort("c", "x", AbortKind::Status(503)),
        ];
        let err = orchestrator.apply_rules(&rules).unwrap_err();
        assert!(matches!(err, CoreError::AgentFailed { ref service, .. } if service == "b"));
        assert_eq!(agent_a.rules.lock().len(), 1, "healthy agent still pushed");
        assert_eq!(agent_c.rules.lock().len(), 1, "healthy agent still pushed");
    }

    #[test]
    fn clear_attempts_every_agent_despite_failures() {
        let agent_a = FakeAgent::new("a");
        let bad = FakeAgent::failing("b");
        let agent_c = FakeAgent::new("c");
        let orchestrator = FailureOrchestrator::new(vec![
            Arc::clone(&agent_a) as Arc<dyn AgentControl>,
            Arc::clone(&bad) as Arc<dyn AgentControl>,
            Arc::clone(&agent_c) as Arc<dyn AgentControl>,
        ]);
        agent_a
            .rules
            .lock()
            .push(Rule::abort("a", "x", AbortKind::Status(503)));
        agent_c
            .rules
            .lock()
            .push(Rule::abort("c", "x", AbortKind::Status(503)));
        let err = orchestrator.clear().unwrap_err();
        assert!(matches!(err, CoreError::AgentFailed { ref service, .. } if service == "b"));
        assert!(agent_a.rules.lock().is_empty(), "cleared despite b failing");
        assert!(agent_c.rules.lock().is_empty(), "cleared despite b failing");
    }

    #[test]
    fn list_rules_aggregates_across_agents() {
        let agent_a = FakeAgent::new("a");
        let agent_b = FakeAgent::new("b");
        let orchestrator = FailureOrchestrator::new(vec![
            Arc::clone(&agent_a) as Arc<dyn AgentControl>,
            Arc::clone(&agent_b) as Arc<dyn AgentControl>,
        ]);
        orchestrator
            .inject(&Scenario::crash("c"), &graph())
            .unwrap();
        let listing = orchestrator.list_rules().unwrap();
        assert_eq!(listing.len(), 2);
        assert_eq!(listing[0].0, "a");
        assert_eq!(listing[0].1.len(), 1);
        assert_eq!(listing[1].0, "b");
        assert_eq!(listing[1].1.len(), 1);
    }

    #[test]
    fn per_agent_push_latency_is_recorded() {
        let registry = MetricsRegistry::new();
        let agent_a = FakeAgent::new("a");
        let agent_b = FakeAgent::new("b");
        let orchestrator = FailureOrchestrator::with_telemetry(
            vec![
                Arc::clone(&agent_a) as Arc<dyn AgentControl>,
                Arc::clone(&agent_b) as Arc<dyn AgentControl>,
            ],
            &registry,
        );
        orchestrator
            .inject(&Scenario::crash("c"), &graph())
            .unwrap();
        let snap = registry.snapshot();
        for service in ["a", "b"] {
            let hist = snap
                .histogram(
                    "gremlin_control_agent_push_seconds",
                    &[("service", service)],
                )
                .unwrap_or_else(|| panic!("missing per-agent histogram for {service}"));
            assert_eq!(hist.count(), 1);
        }
    }
}
