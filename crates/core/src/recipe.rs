//! Recipes: the operator-facing layer tying the translator,
//! orchestrator and checker together.
//!
//! A paper recipe is a Python script that stages an outage, drives
//! load, and checks assertions (§3.2). Here a recipe is ordinary Rust
//! code over a [`TestContext`]; the [`RecipeRun`] helper records each
//! step so a structured [`RecipeReport`] can be printed at the end.
//! Chained failure scenarios (§4.2 "Chained failures") are plain
//! control flow: inspect intermediate [`Check`] results and stage the
//! next outage conditionally.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use gremlin_proxy::AgentControl;
use gremlin_store::{now_micros, EventStore, Micros};
use gremlin_telemetry::{MetricsRegistry, SampleValue, TelemetrySnapshot, TimeSeriesStore};

use crate::anomaly::AnomalyScore;
use crate::checker::{AssertionChecker, Check};
use crate::error::CoreError;
use crate::flight::{FlightRecorder, FlightSummary};
use crate::graph::AppGraph;
use crate::monitor::{AlertEvent, LiveCheck, LiveMonitor, MonitorSpec, Verdict};
use crate::orchestrator::{FailureOrchestrator, OrchestrationStats};
use crate::scenarios::Scenario;
use crate::trace::TraceDigest;

/// How many anomalous edges a [`RecipeReport`] lists, worst first.
const REPORT_ANOMALY_LIMIT: usize = 8;

/// Minimum wall-clock gap between two local telemetry samples pushed
/// onto an attached timeline (a tight poll loop must not flood it).
const TIMELINE_SAMPLE_GAP_US: u64 = 250_000;

/// Everything a recipe needs: the application graph, the agent
/// fleet, and the observation store.
#[derive(Debug)]
pub struct TestContext {
    graph: AppGraph,
    orchestrator: FailureOrchestrator,
    checker: AssertionChecker,
    store: Arc<EventStore>,
    telemetry: Arc<MetricsRegistry>,
    timeline: Option<Arc<TimeSeriesStore>>,
}

impl TestContext {
    /// Creates a context over the given graph, agent handles and
    /// store, with a fresh metrics registry.
    pub fn new(
        graph: AppGraph,
        agents: Vec<Arc<dyn AgentControl>>,
        store: Arc<EventStore>,
    ) -> TestContext {
        TestContext::with_telemetry(graph, agents, store, MetricsRegistry::shared())
    }

    /// Creates a context recording control-plane and store telemetry
    /// into a caller-supplied registry — share the registry with the
    /// agents (via `AgentConfig::telemetry`) and the load generator
    /// to get one unified snapshot per recipe.
    pub fn with_telemetry(
        graph: AppGraph,
        agents: Vec<Arc<dyn AgentControl>>,
        store: Arc<EventStore>,
        telemetry: Arc<MetricsRegistry>,
    ) -> TestContext {
        store.enable_telemetry(&telemetry);
        TestContext {
            graph,
            orchestrator: FailureOrchestrator::with_telemetry(agents, &telemetry),
            checker: AssertionChecker::new(Arc::clone(&store)),
            store,
            telemetry,
            timeline: None,
        }
    }

    /// Builder-style: attaches a shared [`TimeSeriesStore`] timeline.
    /// Control-plane phase transitions (rule install, clear, warmup,
    /// abort, campaign waves) are annotated onto it, and recipe runs
    /// periodically sample the context's registry into it under the
    /// `local` target — share the store with a
    /// [`Scraper`](gremlin_proxy::Scraper) and the collector to line
    /// the phases up with the fleet's scraped series.
    pub fn with_timeline(mut self, timeline: Arc<TimeSeriesStore>) -> TestContext {
        self.timeline = Some(timeline);
        self
    }

    /// The attached timeline, if any.
    pub fn timeline(&self) -> Option<&Arc<TimeSeriesStore>> {
        self.timeline.as_ref()
    }

    /// Marks a control-plane phase transition on the attached
    /// timeline at the current wall clock. A no-op without a
    /// timeline, so callers annotate unconditionally.
    pub fn annotate(&self, phase: &str, detail: &str) {
        if let Some(timeline) = &self.timeline {
            timeline.annotate(now_micros(), phase, detail);
        }
    }

    /// The metrics registry recipes record into.
    pub fn telemetry(&self) -> &Arc<MetricsRegistry> {
        &self.telemetry
    }

    /// The logical application graph.
    pub fn graph(&self) -> &AppGraph {
        &self.graph
    }

    /// The assertion checker bound to this context's store.
    pub fn checker(&self) -> &AssertionChecker {
        &self.checker
    }

    /// The failure orchestrator.
    pub fn orchestrator(&self) -> &FailureOrchestrator {
        &self.orchestrator
    }

    /// The observation store.
    pub fn store(&self) -> &Arc<EventStore> {
        &self.store
    }

    /// Stages `scenario`: translates it over the graph and installs
    /// the rules on every agent.
    ///
    /// # Errors
    ///
    /// Translation and installation errors; see
    /// [`FailureOrchestrator::inject`].
    pub fn inject(&self, scenario: &Scenario) -> Result<OrchestrationStats, CoreError> {
        let stats = self.orchestrator.inject(scenario, &self.graph)?;
        self.annotate("install", &scenario.to_string());
        Ok(stats)
    }

    /// Removes every installed fault.
    ///
    /// # Errors
    ///
    /// Returns the first agent failure, if any.
    pub fn clear_faults(&self) -> Result<(), CoreError> {
        self.orchestrator.clear()?;
        self.annotate("clear", "all faults removed");
        Ok(())
    }

    /// Clears faults *and* drops all recorded observations — a fresh
    /// slate between chained test steps.
    ///
    /// # Errors
    ///
    /// Returns the first agent failure, if any.
    pub fn reset(&self) -> Result<(), CoreError> {
        self.clear_faults()?;
        self.store.clear();
        Ok(())
    }
}

/// Records the checks of one recipe execution.
#[derive(Debug)]
pub struct RecipeRun<'a> {
    name: String,
    ctx: &'a TestContext,
    checks: Vec<Check>,
    injected: Vec<String>,
    staged: Vec<Scenario>,
    baseline: TelemetrySnapshot,
    monitor: Option<LiveMonitor>,
    flight: Option<FlightRecorder>,
    flight_cursor: u64,
    last_timeline_us: u64,
}

impl<'a> RecipeRun<'a> {
    /// Starts a named recipe over `ctx`, capturing a telemetry
    /// baseline so the final report can show what this run changed.
    pub fn new(name: impl Into<String>, ctx: &'a TestContext) -> RecipeRun<'a> {
        RecipeRun {
            name: name.into(),
            ctx,
            checks: Vec::new(),
            injected: Vec::new(),
            staged: Vec::new(),
            baseline: ctx.telemetry.snapshot(),
            monitor: None,
            flight: None,
            flight_cursor: 0,
            last_timeline_us: 0,
        }
    }

    /// Attaches the recipe's `monitor:` stanza: a [`LiveMonitor`]
    /// tailing the context's store (history recorded before this call
    /// is ignored) and publishing alert telemetry into the context's
    /// registry. The final [`RecipeReport`] records each assertion's
    /// last verdict and when it first flipped to failing.
    pub fn start_monitor(&mut self, spec: MonitorSpec) -> &LiveMonitor {
        self.ctx.annotate("warmup", &self.name);
        self.monitor.insert(
            LiveMonitor::tailing(Arc::clone(&self.ctx.store), spec)
                .with_telemetry(&self.ctx.telemetry),
        )
    }

    /// The attached live monitor, if [`RecipeRun::start_monitor`] ran.
    pub fn monitor(&self) -> Option<&LiveMonitor> {
        self.monitor.as_ref()
    }

    /// Attaches a [`FlightRecorder`]: monitor records (verdict and
    /// anomaly transitions) and periodic edge matrices are persisted
    /// under a fresh per-run directory inside `root` as the run
    /// progresses, and `report.json` is written by
    /// [`RecipeRun::finish`]. Replay the directory offline with
    /// `gremlin replay <dir>`. Returns the created directory.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when no monitor is attached
    /// ([`RecipeRun::start_monitor`] must run first — the recorder
    /// persists the monitor's state); otherwise directory/file
    /// creation failures.
    pub fn start_flight_recorder(&mut self, root: impl AsRef<Path>) -> io::Result<PathBuf> {
        let Some(monitor) = self.monitor.as_ref() else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "attach a monitor (start_monitor) before the flight recorder",
            ));
        };
        let window_us = (monitor.window().as_micros() as Micros).max(1);
        let recorder = FlightRecorder::create(root, &self.name, now_micros(), window_us)?;
        let dir = recorder.dir().to_path_buf();
        self.flight = Some(recorder);
        self.flight_cursor = 0;
        Ok(dir)
    }

    /// Samples the context's registry onto the attached timeline
    /// under the `local` target, throttled to one snapshot per
    /// [`TIMELINE_SAMPLE_GAP_US`]. A no-op without a timeline.
    fn sample_timeline(&mut self) {
        let Some(timeline) = self.ctx.timeline() else {
            return;
        };
        let now_us = now_micros();
        if now_us < self.last_timeline_us.saturating_add(TIMELINE_SAMPLE_GAP_US) {
            return;
        }
        self.last_timeline_us = now_us;
        timeline.ingest_snapshot("local", now_us, &self.ctx.telemetry.snapshot());
    }

    /// Drains fresh monitor records into the flight recorder and logs
    /// a (throttled) matrix snapshot. Best-effort: on disk trouble
    /// the recorder is detached — a full disk should degrade the
    /// postmortem artifact, not fail the experiment.
    fn record_flight(&mut self) {
        self.sample_timeline();
        let (Some(monitor), Some(flight)) = (self.monitor.as_ref(), self.flight.as_mut()) else {
            return;
        };
        let (records, next) = monitor.records_after(self.flight_cursor);
        let ok = flight.append_records(&records).is_ok() && flight.record_snapshot(monitor).is_ok();
        self.flight_cursor = next;
        if !ok {
            self.flight = None;
        }
    }

    /// Polls the attached monitor, returning any fresh verdict
    /// transitions (empty without a monitor).
    pub fn poll_monitor(&mut self) -> Vec<AlertEvent> {
        let alerts = self
            .monitor
            .as_ref()
            .map(|monitor| monitor.poll())
            .unwrap_or_default();
        self.record_flight();
        alerts
    }

    /// Polls the monitor and, when any streaming assertion has
    /// reached the terminal [`Verdict::Violated`], tears the staged
    /// faults down so the experiment stops early. Returns whether the
    /// run aborted.
    ///
    /// # Errors
    ///
    /// Propagates agent failures from clearing the rules.
    pub fn abort_if_violated(&mut self) -> Result<bool, CoreError> {
        let violated = match &self.monitor {
            Some(monitor) => {
                monitor.poll();
                monitor.violated()
            }
            None => false,
        };
        self.record_flight();
        if violated {
            self.ctx.annotate("abort", &self.name);
            self.ctx.clear_faults()?;
        }
        Ok(violated)
    }

    /// The context this run executes against.
    pub fn ctx(&self) -> &TestContext {
        self.ctx
    }

    /// Stages a scenario, recording it in the report.
    ///
    /// # Errors
    ///
    /// Propagates [`TestContext::inject`] failures.
    pub fn inject(&mut self, scenario: &Scenario) -> Result<OrchestrationStats, CoreError> {
        let stats = self.ctx.inject(scenario)?;
        self.injected.push(scenario.to_string());
        self.staged.push(scenario.clone());
        Ok(stats)
    }

    /// Records a check result, returning whether it passed (for
    /// conditional chaining).
    pub fn check(&mut self, check: Check) -> bool {
        let passed = check.passed;
        self.checks.push(check);
        passed
    }

    /// `true` while every recorded check has passed.
    pub fn passing(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// Finishes the run, producing the report. The report carries the
    /// delta between the context's telemetry now and the baseline
    /// captured when the run started. An attached monitor is
    /// finalized (its partial window closed) and its verdicts and
    /// anomalous edges embedded; a `Violated` assertion fails the run
    /// even when every recorded post-hoc check passed. An attached
    /// flight recorder is drained one last time and its `report.json`
    /// written.
    pub fn finish(mut self) -> RecipeReport {
        let monitor = match &self.monitor {
            Some(monitor) => {
                monitor.finalize();
                monitor.verdicts()
            }
            None => Vec::new(),
        };
        let anomalies = self
            .monitor
            .as_ref()
            .map(|monitor| {
                let mut scores: Vec<AnomalyScore> = monitor
                    .anomaly_scores()
                    .into_iter()
                    .filter(|score| score.first_suspect_at_us.is_some())
                    .collect();
                scores.sort_by(|a, b| {
                    b.peak_score
                        .partial_cmp(&a.peak_score)
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                scores.truncate(REPORT_ANOMALY_LIMIT);
                scores
            })
            .unwrap_or_default();
        self.record_flight(); // finalize() may have closed a partial window
        let passed = self.passing() && monitor.iter().all(|c| c.verdict != Verdict::Violated);
        let metrics_delta = self.ctx.telemetry.snapshot().delta(&self.baseline);
        if let Some(timeline) = self.ctx.timeline() {
            // Closing sample, bypassing the throttle: the dumped
            // history must include the run's final state.
            timeline.ingest_snapshot("local", now_micros(), &self.ctx.telemetry.snapshot());
        }
        let flight_dir = match (self.flight.take(), self.monitor.as_ref()) {
            (Some(mut flight), live) => {
                if let Some(live) = live {
                    let _ = flight.record_snapshot_now(live);
                    // Persist the learned baselines so the next run
                    // can seed its scorer and skip the warmup.
                    let _ = flight.record_baselines(&live.learned_baselines());
                }
                if let Some(timeline) = self.ctx.timeline() {
                    // Metric history + phase annotations, for
                    // offline re-rendering by `gremlin replay`.
                    let _ = flight.record_timeseries(timeline);
                }
                let summary = FlightSummary {
                    name: self.name.clone(),
                    passed,
                    injected: self.injected.clone(),
                    checks: self.checks.clone(),
                    monitor: monitor.clone(),
                    anomalies: anomalies.clone(),
                    scenarios: self.staged.clone(),
                };
                flight.finish(&summary).ok()
            }
            (None, _) => None,
        };
        RecipeReport {
            name: self.name,
            injected: self.injected,
            checks: self.checks,
            monitor,
            anomalies,
            passed,
            metrics_delta,
            traces: TraceDigest::from_store(&self.ctx.store),
            flight_dir,
        }
    }
}

/// The outcome of a recipe execution.
///
/// Serializable end to end (checks, live verdicts, anomaly scores,
/// metrics delta, trace digest), so distributed campaign operators can
/// stream complete reports back to the coordinating host unchanged.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RecipeReport {
    /// Recipe name.
    pub name: String,
    /// Scenarios staged, in order.
    pub injected: Vec<String>,
    /// Check results, in order.
    pub checks: Vec<Check>,
    /// Final status of each streaming assertion from the run's
    /// `monitor:` stanza (empty when none was attached), including
    /// when each first flipped to failing.
    pub monitor: Vec<LiveCheck>,
    /// Edges whose anomaly score ever left `Nominal`, worst peak
    /// score first (at most 8 listed; empty without an
    /// anomaly-configured monitor).
    pub anomalies: Vec<AnomalyScore>,
    /// `true` when every check passed and no monitored assertion was
    /// violated.
    pub passed: bool,
    /// What the run changed in the context's metrics registry
    /// (counters and histograms as before/after deltas, gauges at
    /// their final value).
    pub metrics_delta: TelemetrySnapshot,
    /// Trace statistics over every flow the store observed: slowest
    /// flow, deepest causal tree, faulted-span count.
    pub traces: TraceDigest,
    /// The flight-recorder artifact directory, when one was attached
    /// and its final report was written (`gremlin replay` re-renders
    /// it).
    pub flight_dir: Option<PathBuf>,
}

fn format_sample_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        let pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{{{}}}", pairs.join(","))
    }
}

impl RecipeReport {
    /// Counter changes from the run's metrics delta, as
    /// `(series, increment)` pairs ready for display.
    pub fn counter_changes(&self) -> Vec<(String, u64)> {
        self.metrics_delta
            .samples
            .iter()
            .filter_map(|sample| match sample.value {
                SampleValue::Counter(v) => Some((
                    format!("{}{}", sample.name, format_sample_labels(&sample.labels)),
                    v,
                )),
                _ => None,
            })
            .collect()
    }

    /// Renders the report as a Markdown section (for CI summaries
    /// and postmortem docs).
    pub fn to_markdown(&self) -> String {
        let mut out = format!(
            "## Recipe `{}` — {}\n\n",
            self.name,
            if self.passed {
                "✅ passed"
            } else {
                "❌ failed"
            }
        );
        if !self.injected.is_empty() {
            out.push_str("**Staged failures**\n\n");
            for scenario in &self.injected {
                out.push_str(&format!("- {scenario}\n"));
            }
            out.push('\n');
        }
        if !self.checks.is_empty() {
            out.push_str("| Check | Result | Details |\n|---|---|---|\n");
            for check in &self.checks {
                out.push_str(&format!(
                    "| {} | {} | {} |\n",
                    check.name.replace('|', "\\|"),
                    if check.passed { "pass" } else { "**fail**" },
                    check.details.replace('|', "\\|")
                ));
            }
        }
        if !self.monitor.is_empty() {
            out.push_str("\n**Live monitor**\n\n");
            out.push_str("| Assertion | Verdict | First failing | Detail |\n|---|---|---|---|\n");
            for live in &self.monitor {
                out.push_str(&format!(
                    "| {} | {} | {} | {} |\n",
                    live.name.replace('|', "\\|"),
                    live.verdict,
                    live.first_failing_at_us
                        .map(|at| format!("{at}us"))
                        .unwrap_or_else(|| "-".to_string()),
                    live.detail.replace('|', "\\|")
                ));
            }
        }
        if !self.anomalies.is_empty() {
            out.push_str("\n**Anomalous edges**\n\n");
            out.push_str("| Edge | State | Peak score | First suspect |\n|---|---|---|---|\n");
            for score in &self.anomalies {
                out.push_str(&format!(
                    "| {} -> {} | {} | {:.1} | {} |\n",
                    score.src,
                    score.dst,
                    score.state,
                    score.peak_score,
                    score
                        .first_suspect_at_us
                        .map(|at| format!("{at}us"))
                        .unwrap_or_else(|| "-".to_string()),
                ));
            }
        }
        let counters = self.counter_changes();
        if !counters.is_empty() {
            out.push_str("\n**Metrics delta**\n\n");
            for (series, value) in counters {
                out.push_str(&format!("- `{series}` +{value}\n"));
            }
        }
        if self.traces.flows > 0 {
            out.push_str(&format!("\n**Traces**: {}\n", self.traces));
        }
        out
    }
}

impl fmt::Display for RecipeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "recipe {:?}: {}",
            self.name,
            if self.passed { "PASSED" } else { "FAILED" }
        )?;
        for scenario in &self.injected {
            writeln!(f, "  staged: {scenario}")?;
        }
        for check in &self.checks {
            writeln!(f, "  {check}")?;
        }
        for live in &self.monitor {
            write!(f, "  monitor: {live}")?;
            if let Some(at) = live.first_failing_at_us {
                write!(f, " (first failing at {at}us)")?;
            }
            writeln!(f)?;
        }
        for score in &self.anomalies {
            write!(
                f,
                "  anomaly: {} -> {} {} (peak score {:.1}",
                score.src, score.dst, score.state, score.peak_score
            )?;
            if let Some(at) = score.first_suspect_at_us {
                write!(f, ", first suspect at {at}us")?;
            }
            writeln!(f, ")")?;
        }
        if let Some(dir) = &self.flight_dir {
            writeln!(f, "  flight recording: {}", dir.display())?;
        }
        for (series, value) in self.counter_changes() {
            writeln!(f, "  metric: {series} +{value}")?;
        }
        if self.traces.flows > 0 {
            writeln!(f, "  traces: {}", self.traces)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Check;
    use gremlin_proxy::{ProxyError, Rule};
    use parking_lot::Mutex;

    struct FakeAgent {
        service: String,
        rules: Mutex<Vec<Rule>>,
    }

    impl AgentControl for FakeAgent {
        fn service_name(&self) -> String {
            self.service.clone()
        }
        fn install_rules(&self, rules: &[Rule]) -> Result<(), ProxyError> {
            self.rules.lock().extend(rules.iter().cloned());
            Ok(())
        }
        fn clear_rules(&self) -> Result<(), ProxyError> {
            self.rules.lock().clear();
            Ok(())
        }
        fn list_rules(&self) -> Result<Vec<Rule>, ProxyError> {
            Ok(self.rules.lock().clone())
        }
    }

    fn context() -> (TestContext, Arc<FakeAgent>) {
        let agent = Arc::new(FakeAgent {
            service: "a".to_string(),
            rules: Mutex::new(Vec::new()),
        });
        let ctx = TestContext::new(
            AppGraph::from_edges(vec![("a", "b")]),
            vec![Arc::clone(&agent) as Arc<dyn AgentControl>],
            EventStore::shared(),
        );
        (ctx, agent)
    }

    #[test]
    fn inject_and_clear() {
        let (ctx, agent) = context();
        let stats = ctx.inject(&Scenario::abort("a", "b", 503)).unwrap();
        assert_eq!(stats.rules, 1);
        assert_eq!(agent.rules.lock().len(), 1);
        ctx.clear_faults().unwrap();
        assert!(agent.rules.lock().is_empty());
    }

    #[test]
    fn reset_clears_store_too() {
        let (ctx, _agent) = context();
        ctx.store()
            .record_event(gremlin_store::Event::request("a", "b", "GET", "/"));
        assert_eq!(ctx.store().len(), 1);
        ctx.reset().unwrap();
        assert!(ctx.store().is_empty());
    }

    #[test]
    fn recipe_run_records_everything() {
        let (ctx, _agent) = context();
        let mut run = RecipeRun::new("overload-test", &ctx);
        run.inject(&Scenario::abort("a", "b", 503)).unwrap();
        assert!(run.check(Check {
            name: "first".into(),
            passed: true,
            details: "ok".into(),
        }));
        assert!(run.passing());
        assert!(!run.check(Check {
            name: "second".into(),
            passed: false,
            details: "nope".into(),
        }));
        assert!(!run.passing());
        let report = run.finish();
        assert!(!report.passed);
        assert_eq!(report.checks.len(), 2);
        assert_eq!(report.injected.len(), 1);
        let text = report.to_string();
        assert!(text.contains("FAILED"));
        assert!(text.contains("[PASS] first"));
        assert!(text.contains("[FAIL] second"));
    }

    #[test]
    fn markdown_rendering() {
        let (ctx, _agent) = context();
        let mut run = RecipeRun::new("md-test", &ctx);
        run.inject(&Scenario::abort("a", "b", 503)).unwrap();
        run.check(Check {
            name: "A|B".into(),
            passed: false,
            details: "pipe | inside".into(),
        });
        let md = run.finish().to_markdown();
        assert!(md.contains("## Recipe `md-test` — ❌ failed"));
        assert!(md.contains("**Staged failures**"));
        assert!(md.contains("| A\\|B | **fail** | pipe \\| inside |"));
    }

    #[test]
    fn empty_recipe_passes() {
        let (ctx, _agent) = context();
        let report = RecipeRun::new("noop", &ctx).finish();
        assert!(report.passed);
        // A delta carries every gauge at its current value (the store's
        // size gauges, here); nothing that counts may have moved.
        let moved: Vec<_> = report
            .metrics_delta
            .samples
            .iter()
            .filter(|sample| !matches!(sample.value, SampleValue::Gauge(_)))
            .collect();
        assert!(moved.is_empty(), "{moved:?}");
        assert!(report.to_string().contains("PASSED"));
    }

    #[test]
    fn report_carries_trace_digest() {
        let (ctx, _agent) = context();
        let run = RecipeRun::new("traced", &ctx);
        ctx.store().record_event(
            gremlin_store::Event::request("a", "b", "GET", "/x")
                .with_request_id("flow-9")
                .with_span_id("s1"),
        );
        let report = run.finish();
        assert_eq!(report.traces.flows, 1);
        assert_eq!(report.traces.spans, 1);
        assert_eq!(report.traces.slowest.as_ref().unwrap().request_id, "flow-9");
        assert!(report.to_string().contains("traces: 1 flow(s)"));
        assert!(report.to_markdown().contains("**Traces**"));
    }

    #[test]
    fn monitor_stanza_records_flips_and_aborts_early() {
        use crate::monitor::{MonitorSpec, StreamingAssertion};
        use std::time::Duration;

        let (ctx, agent) = context();
        ctx.inject(&Scenario::abort("a", "b", 503)).unwrap();
        assert_eq!(agent.rules.lock().len(), 1);

        let mut run = RecipeRun::new("monitored", &ctx);
        run.start_monitor(
            MonitorSpec::new(Duration::from_millis(10))
                .violate_after(1)
                .assert(StreamingAssertion::ErrorRateAtMost {
                    src: "a".into(),
                    dst: "b".into(),
                    max_ratio: 0.1,
                }),
        );

        // All-503 traffic; event timestamps drive the 10ms windows,
        // so the reply at 15ms closes the first (all-error) window.
        for i in 0..4u64 {
            let ts = i * 7_000;
            ctx.store().record_event(
                gremlin_store::Event::request("a", "b", "GET", "/x").with_timestamp(ts),
            );
            let mut reply = gremlin_store::Event::response("a", "b", 503, Duration::from_millis(1));
            reply.timestamp_us = ts + 1_000;
            ctx.store().record_event(reply);
        }

        assert!(run.abort_if_violated().unwrap(), "must abort on Violated");
        assert!(agent.rules.lock().is_empty(), "early abort clears rules");

        let report = run.finish();
        assert!(!report.passed, "a violated assertion fails the run");
        assert_eq!(report.monitor.len(), 1);
        assert_eq!(report.monitor[0].verdict, Verdict::Violated);
        assert!(report.monitor[0].first_failing_at_us.is_some());
        let text = report.to_string();
        assert!(text.contains("monitor: [violated]"), "{text}");
        assert!(text.contains("first failing at"), "{text}");
        assert!(report.to_markdown().contains("**Live monitor**"));
    }

    #[test]
    fn runs_without_monitor_report_no_live_checks() {
        let (ctx, _agent) = context();
        let mut run = RecipeRun::new("plain", &ctx);
        assert!(run.monitor().is_none());
        assert!(run.poll_monitor().is_empty());
        let report = run.finish();
        assert!(report.monitor.is_empty());
        assert!(report.anomalies.is_empty());
        assert!(report.flight_dir.is_none());
        assert!(report.passed);
    }

    #[test]
    fn flight_recorder_requires_a_monitor() {
        let (ctx, _agent) = context();
        let mut run = RecipeRun::new("no-monitor", &ctx);
        let err = run.start_flight_recorder(std::env::temp_dir()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn flight_recorder_persists_the_run_timeline() {
        use crate::flight::FlightLog;
        use crate::monitor::{MonitorSpec, StreamingAssertion};
        use std::time::Duration;

        let root =
            std::env::temp_dir().join(format!("gremlin-recipe-flight-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);

        let (ctx, _agent) = context();
        let mut run = RecipeRun::new("flight-test", &ctx);
        run.start_monitor(
            MonitorSpec::new(Duration::from_millis(10))
                .violate_after(1)
                .assert(StreamingAssertion::ErrorRateAtMost {
                    src: "a".into(),
                    dst: "b".into(),
                    max_ratio: 0.1,
                }),
        );
        let dir = run.start_flight_recorder(&root).unwrap();
        assert!(dir.starts_with(&root));

        for i in 0..4u64 {
            let ts = i * 7_000;
            ctx.store().record_event(
                gremlin_store::Event::request("a", "b", "GET", "/x").with_timestamp(ts),
            );
            let mut reply = gremlin_store::Event::response("a", "b", 503, Duration::from_millis(1));
            reply.timestamp_us = ts + 1_000;
            ctx.store().record_event(reply);
        }
        assert!(run.abort_if_violated().unwrap());

        let report = run.finish();
        assert_eq!(report.flight_dir.as_deref(), Some(dir.as_path()));

        let log = FlightLog::load(&dir).unwrap();
        assert_eq!(log.meta.recipe, "flight-test");
        assert_eq!(log.meta.window_us, 10_000);
        assert!(!log.records.is_empty(), "verdict flips must be persisted");
        assert!(
            !log.snapshots.is_empty(),
            "matrix snapshots must be persisted"
        );
        let summary = log.report.as_ref().expect("report.json written by finish");
        assert!(!summary.passed);
        assert_eq!(summary.monitor.len(), 1);
        let timeline = log.render_timeline();
        assert!(timeline.contains("violated"), "{timeline}");
        assert!(timeline.contains("outcome: FAILED"), "{timeline}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn timeline_captures_phases_and_local_samples() {
        use crate::monitor::{MonitorSpec, StreamingAssertion};
        use std::time::Duration;

        let agent = Arc::new(FakeAgent {
            service: "a".to_string(),
            rules: Mutex::new(Vec::new()),
        });
        let ctx = TestContext::new(
            AppGraph::from_edges(vec![("a", "b")]),
            vec![Arc::clone(&agent) as Arc<dyn AgentControl>],
            EventStore::shared(),
        )
        .with_timeline(TimeSeriesStore::shared());
        let timeline = Arc::clone(ctx.timeline().expect("timeline attached"));

        let mut run = RecipeRun::new("timed", &ctx);
        run.start_monitor(MonitorSpec::new(Duration::from_millis(10)).assert(
            StreamingAssertion::ErrorRateAtMost {
                src: "a".into(),
                dst: "b".into(),
                max_ratio: 0.5,
            },
        ));
        run.inject(&Scenario::abort("a", "b", 503)).unwrap();
        run.poll_monitor();
        ctx.clear_faults().unwrap();
        let _ = run.finish();

        let phases: Vec<String> = timeline
            .annotations(0, u64::MAX)
            .into_iter()
            .map(|a| a.phase)
            .collect();
        assert_eq!(phases, vec!["warmup", "install", "clear"], "{phases:?}");
        let install = &timeline.annotations(0, u64::MAX)[1];
        assert_eq!(install.detail, "abort a->b with 503 (p=1)");

        // The poll loop sampled the context's registry under `local`:
        // the staged rule shows up as a control-plane counter series.
        let point = timeline
            .latest("gremlin_control_rule_pushes_total", "local")
            .expect("local telemetry sampled onto the timeline");
        assert!(point.value >= 1.0, "{point:?}");
    }

    #[test]
    fn report_carries_metrics_delta() {
        let (ctx, _agent) = context();
        // Activity before the run starts is excluded by the baseline.
        ctx.inject(&Scenario::abort("a", "b", 503)).unwrap();
        let mut run = RecipeRun::new("delta", &ctx);
        run.inject(&Scenario::abort("a", "b", 404)).unwrap();
        ctx.store()
            .record_event(gremlin_store::Event::request("a", "b", "GET", "/"));
        let report = run.finish();
        assert_eq!(
            report
                .metrics_delta
                .counter_value("gremlin_control_rule_pushes_total", &[("service", "a")]),
            Some(1)
        );
        assert_eq!(
            report
                .metrics_delta
                .counter_value("gremlin_store_appends_total", &[]),
            Some(1)
        );
        let text = report.to_string();
        assert!(
            text.contains("metric: gremlin_control_rule_pushes_total{service=a} +1"),
            "unexpected report: {text}"
        );
        assert!(report.to_markdown().contains("**Metrics delta**"));
    }
}
