//! Live assertion monitoring: streaming evaluation of the checker
//! vocabulary while the experiment is still running.
//!
//! The paper's Assertion Checker (§4.2) is post-hoc: a recipe stages
//! an outage, waits, then queries the full observation store. The
//! [`LiveMonitor`] here is the streaming counterpart. It consumes
//! events incrementally (via
//! [`HealthMonitor`](gremlin_store::HealthMonitor), which itself uses
//! only [`EventStore::read_after`](gremlin_store::EventStore::read_after)
//! — never full-store scans, never copies), feeds them to each assertion's
//! [`Fold`] — the same fold a post-hoc
//! [`AssertionChecker::check`](crate::AssertionChecker::check) closes
//! once over the whole log — and closes it once per **event-time
//! window** as timestamps advance past the window boundary.
//!
//! Each assertion ([`StreamingAssertion`], the engine's
//! [`Assertion`]) carries a verdict state machine:
//!
//! ```text
//! Pending ──▶ Passing ◀──▶ Failing ──▶ Violated   (final)
//! ```
//!
//! * `Pending` — no window with relevant observations has closed yet.
//! * `Passing` / `Failing` — the latest closed window's outcome;
//!   assertions may recover (`Failing → Passing`).
//! * `Violated` — terminal. Reached after
//!   [`MonitorSpec::violate_after`] *consecutive* failing windows, or
//!   immediately for unrecoverable breaches (a request budget or a
//!   cumulative status count exceeded can never un-exceed).
//!
//! Every verdict transition is recorded as an [`AlertEvent`]; recipes
//! subscribe via [`LiveMonitor::violated`] to abort early, and the
//! collector streams the same alerts over `GET /alerts`.
//!
//! Window semantics: windows are measured in *event time* (agent
//! timestamps), so replaying a recorded log yields the same verdict
//! sequence a live run produced. Windows only close when an event
//! with a timestamp past the boundary arrives — a completely silent
//! store closes no windows. Late events (clock skew between agents)
//! fold into the currently open window.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use gremlin_store::{EdgeBaseline, EdgeHealth, EventStore, HealthMonitor, Micros};
use gremlin_telemetry::{Counter, Gauge, MetricsRegistry};

use crate::anomaly::{AnomalyAlert, AnomalyConfig, AnomalyScore, AnomalyScorer, EdgeState};
use crate::assertion::{Assertion, Fold};
use crate::checker::Check;

/// The state of one streaming assertion's verdict machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Verdict {
    /// No window with relevant observations has closed yet.
    Pending,
    /// The latest closed window satisfied the assertion.
    Passing,
    /// The latest closed window breached the assertion; recovery is
    /// still possible.
    Failing,
    /// Terminal: the assertion can no longer hold for this run.
    Violated,
}

impl Verdict {
    /// `true` for the terminal state.
    pub fn is_final(&self) -> bool {
        matches!(self, Verdict::Violated)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Pending => "pending",
            Verdict::Passing => "passing",
            Verdict::Failing => "failing",
            Verdict::Violated => "violated",
        })
    }
}

/// The assertions a monitor watches are the engine's [`Assertion`]s;
/// this is the name the `monitor:` stanza has always used for them.
pub type StreamingAssertion = Assertion;

fn default_violate_after() -> u32 {
    3
}

/// Configuration of a [`LiveMonitor`]: the evaluation window and the
/// streaming assertions to track — the recipe's `monitor:` stanza.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonitorSpec {
    /// Event-time window length assertions evaluate over.
    pub window: Duration,
    /// Consecutive failing windows before a recoverable assertion
    /// escalates to [`Verdict::Violated`]. Defaults to 3.
    #[serde(default = "default_violate_after")]
    pub violate_after: u32,
    /// When set, the monitor learns per-edge baselines during warmup
    /// and scores every window ([`AnomalyScorer`]); required by
    /// [`StreamingAssertion::AnomalousEdge`].
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub anomaly: Option<AnomalyConfig>,
    /// Baselines from a prior run's `baselines.json` to seed the
    /// anomaly scorer with; seeded edges skip the warmup entirely
    /// (see [`AnomalyScorer::seed`]). Ignored without `anomaly`.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub seed_baselines: Vec<EdgeBaseline>,
    /// The assertions to evaluate.
    pub assertions: Vec<StreamingAssertion>,
}

impl MonitorSpec {
    /// Creates a spec with the given window, no assertions, and the
    /// default escalation threshold.
    pub fn new(window: Duration) -> MonitorSpec {
        MonitorSpec {
            window,
            violate_after: default_violate_after(),
            anomaly: None,
            seed_baselines: Vec::new(),
            assertions: Vec::new(),
        }
    }

    /// Builder-style: adds an assertion.
    pub fn assert(mut self, assertion: StreamingAssertion) -> MonitorSpec {
        self.assertions.push(assertion);
        self
    }

    /// Builder-style: enables adaptive anomaly scoring with the given
    /// configuration.
    pub fn anomaly(mut self, config: AnomalyConfig) -> MonitorSpec {
        self.anomaly = Some(config);
        self
    }

    /// Builder-style: seeds the anomaly scorer with baselines from a
    /// prior run, skipping the warmup on those edges.
    pub fn seed(mut self, baselines: Vec<EdgeBaseline>) -> MonitorSpec {
        self.seed_baselines = baselines;
        self
    }

    /// Builder-style: sets the consecutive-failing-window threshold
    /// for escalation to `Violated` (minimum 1).
    pub fn violate_after(mut self, windows: u32) -> MonitorSpec {
        self.violate_after = windows.max(1);
        self
    }
}

/// The live status of one streaming assertion — the monitor's
/// counterpart of the checker's [`Check`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LiveCheck {
    /// Human-readable assertion name, e.g. `LiveLatencySlo(web, p99 <= 100ms)`.
    pub name: String,
    /// Current verdict.
    pub verdict: Verdict,
    /// Supporting detail from the latest evaluated window.
    pub detail: String,
    /// Windows evaluated so far.
    pub windows: u64,
    /// Event-time timestamp of the first flip to `Failing` (or
    /// directly to `Violated`), if any.
    pub first_failing_at_us: Option<Micros>,
    /// Event-time timestamp of the flip to `Violated`, if any.
    pub violated_at_us: Option<Micros>,
}

impl LiveCheck {
    /// Collapses the live status into a post-hoc [`Check`] for recipe
    /// reports: only `Passing` counts as passed — a `Pending`
    /// assertion never saw relevant traffic, which (like the post-hoc
    /// checker's no-observation case) is inconclusive and fails.
    pub fn to_check(&self) -> Check {
        let mut details = format!("{} after {} window(s)", self.verdict, self.windows);
        if let Some(at) = self.first_failing_at_us {
            details.push_str(&format!("; first failing at {at}us"));
        }
        if let Some(at) = self.violated_at_us {
            details.push_str(&format!("; violated at {at}us"));
        }
        if !self.detail.is_empty() {
            details.push_str("; ");
            details.push_str(&self.detail);
        }
        Check {
            name: self.name.clone(),
            passed: self.verdict == Verdict::Passing,
            details,
        }
    }
}

impl fmt::Display for LiveCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} — {}", self.verdict, self.name, self.detail)
    }
}

/// One verdict transition, as streamed over `GET /alerts`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlertEvent {
    /// Position in the monitor's alert log (0-based, monotone).
    pub seq: u64,
    /// Event-time timestamp of the window close (or breach) that
    /// caused the transition.
    pub at_us: Micros,
    /// The assertion's name.
    pub check: String,
    /// Verdict before the transition.
    pub from: Verdict,
    /// Verdict after the transition.
    pub to: Verdict,
    /// Supporting detail for the transition.
    pub detail: String,
}

impl fmt::Display for AlertEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}us] {} {} -> {} — {}",
            self.at_us, self.check, self.from, self.to, self.detail
        )
    }
}

/// One entry of the monitor's record log: either a verdict transition
/// or an anomaly state transition. Serialized internally tagged, so
/// every `GET /alerts` NDJSON line carries a `"kind"` discriminator
/// (`"verdict"` or `"anomaly"`) alongside the entry's own fields.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum MonitorRecord {
    /// A streaming assertion changed verdict.
    Verdict(AlertEvent),
    /// An edge changed anomaly state.
    Anomaly(AnomalyAlert),
}

impl MonitorRecord {
    /// Position in the record log.
    pub fn seq(&self) -> u64 {
        match self {
            MonitorRecord::Verdict(alert) => alert.seq,
            MonitorRecord::Anomaly(alert) => alert.seq,
        }
    }

    /// Event-time timestamp of the transition.
    pub fn at_us(&self) -> Micros {
        match self {
            MonitorRecord::Verdict(alert) => alert.at_us,
            MonitorRecord::Anomaly(alert) => alert.at_us,
        }
    }
}

impl fmt::Display for MonitorRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonitorRecord::Verdict(alert) => write!(f, "{alert}"),
            MonitorRecord::Anomaly(alert) => write!(f, "{alert}"),
        }
    }
}

/// One watched assertion: its fold, and the status the monitor reports
/// for it.
struct CheckState {
    fold: Fold,
    live: LiveCheck,
    consecutive_failing: u32,
}

impl CheckState {
    fn new(assertion: Assertion) -> CheckState {
        CheckState {
            live: LiveCheck {
                name: format!("{assertion:#}"),
                verdict: Verdict::Pending,
                detail: String::new(),
                windows: 0,
                first_failing_at_us: None,
                violated_at_us: None,
            },
            fold: Fold::new(assertion),
            consecutive_failing: 0,
        }
    }
}

struct MonitorInner {
    violate_after: u32,
    states: Vec<CheckState>,
    window_start_us: Option<Micros>,
    clock_us: Micros,
    windows_closed: u64,
    records: Vec<MonitorRecord>,
    scorer: Option<AnomalyScorer>,
}

impl MonitorInner {
    fn transition(
        &mut self,
        index: usize,
        to: Verdict,
        at_us: Micros,
        detail: String,
        emitted: &mut Vec<AlertEvent>,
    ) {
        let state = &mut self.states[index].live;
        let from = state.verdict;
        state.detail.clone_from(&detail);
        if from == to {
            return;
        }
        state.verdict = to;
        if to == Verdict::Failing && state.first_failing_at_us.is_none() {
            state.first_failing_at_us = Some(at_us);
        }
        if to == Verdict::Violated {
            state.violated_at_us = Some(at_us);
            if state.first_failing_at_us.is_none() {
                state.first_failing_at_us = Some(at_us);
            }
        }
        let alert = AlertEvent {
            seq: self.records.len() as u64,
            at_us,
            check: self.states[index].live.name.clone(),
            from,
            to,
            detail,
        };
        self.records.push(MonitorRecord::Verdict(alert.clone()));
        emitted.push(alert);
    }

    /// Closes the window ending at `end_us`: scores the anomaly
    /// window, closes every assertion's fold over the `span` of event
    /// time the window actually covered, and applies the verdict
    /// transitions and the consecutive-failing escalation.
    fn close_window(
        &mut self,
        end_us: Micros,
        window: Duration,
        span: Duration,
        emitted: &mut Vec<AlertEvent>,
    ) {
        self.windows_closed += 1;
        if let Some(scorer) = self.scorer.as_mut() {
            for mut alert in scorer.close_window(end_us, window) {
                alert.seq = self.records.len() as u64;
                self.records.push(MonitorRecord::Anomaly(alert));
            }
        }
        for index in 0..self.states.len() {
            let state = &mut self.states[index];
            if state.live.verdict.is_final() {
                continue;
            }
            state.live.windows += 1;
            // The one assertion the scorer judges instead of the fold.
            let (held, detail, confirmed) = match state.fold.assertion() {
                Assertion::AnomalousEdge { src, dst } => {
                    anomaly_outcome(self.scorer.as_ref(), src, dst)
                }
                _ => {
                    let (held, detail) = state.fold.close(span);
                    (held, detail, false)
                }
            };
            let Some(held) = held else {
                // Nothing to judge: the verdict stands, and a pending
                // assertion says what it is waiting for.
                if state.live.verdict == Verdict::Pending {
                    state.live.detail = detail;
                }
                continue;
            };
            if held {
                state.consecutive_failing = 0;
                self.transition(index, Verdict::Passing, end_us, detail, emitted);
                continue;
            }
            state.consecutive_failing += 1;
            let failing = state.consecutive_failing;
            // A failing window flips Pending/Passing to Failing; the
            // Failing transition is recorded even when the same window
            // close escalates to Violated, so subscribers see both
            // steps of the machine.
            self.transition(index, Verdict::Failing, end_us, detail.clone(), emitted);
            if confirmed {
                self.transition(index, Verdict::Violated, end_us, detail, emitted);
            } else if failing >= self.violate_after {
                let detail = format!("{detail}; {failing} consecutive failing window(s)");
                self.transition(index, Verdict::Violated, end_us, detail, emitted);
            }
        }
    }
}

/// What the anomaly scorer says about the `src -> dst` edge's latest
/// window, in the fold's terms: `Nominal` holds, `Suspect` and
/// `Anomalous` do not, and an edge still `Warming` or never seen is
/// nothing to judge yet. The flag marks a confirmed anomaly, which is
/// unrecoverable for the run.
fn anomaly_outcome(
    scorer: Option<&AnomalyScorer>,
    src: &str,
    dst: &str,
) -> (Option<bool>, String, bool) {
    let Some(score) = scorer.and_then(|scorer| scorer.score(src, dst)) else {
        return (
            None,
            "no traffic observed on the edge yet".to_string(),
            false,
        );
    };
    if score.state == EdgeState::Warming {
        let detail = format!(
            "warming up: learning the edge baseline ({} window(s) so far)",
            score.windows
        );
        return (None, detail, false);
    }
    let detail = format!(
        "edge {} -> {} {}: score {:.1} (rate z {:.1}, error z {:.1}, latency z {:.1})",
        score.src,
        score.dst,
        score.state,
        score.score,
        score.rate_z,
        score.error_z,
        score.latency_z
    );
    (
        Some(score.state == EdgeState::Nominal),
        detail,
        score.state == EdgeState::Anomalous,
    )
}

/// Streaming assertion engine over an [`EventStore`].
///
/// Wraps a [`HealthMonitor`] (the per-edge health matrix) and
/// evaluates a [`MonitorSpec`]'s assertions per event-time window.
/// Drive it with [`LiveMonitor::poll`] — typically from the load loop
/// of a recipe or a background thread — and subscribe to verdicts via
/// [`LiveMonitor::verdicts`], [`LiveMonitor::violated`] and
/// [`LiveMonitor::alerts_after`].
pub struct LiveMonitor {
    health: HealthMonitor,
    inner: Mutex<MonitorInner>,
    alerts_total: Option<Arc<Counter>>,
    failing_gauge: Option<Arc<Gauge>>,
}

impl fmt::Debug for LiveMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("LiveMonitor")
            .field("window", &self.health.window())
            .field("checks", &inner.states.len())
            .field("windows_closed", &inner.windows_closed)
            .field("records", &inner.records.len())
            .finish()
    }
}

impl LiveMonitor {
    /// Creates a monitor over `store` evaluating `spec`, observing
    /// the stream from its beginning.
    pub fn new(store: Arc<EventStore>, spec: MonitorSpec) -> LiveMonitor {
        LiveMonitor::build(HealthMonitor::new(store, spec.window), spec)
    }

    /// Creates a monitor that only observes events recorded after
    /// this call — the recipe `monitor:` stanza uses this so earlier
    /// steps of a chained test don't leak in.
    pub fn tailing(store: Arc<EventStore>, spec: MonitorSpec) -> LiveMonitor {
        LiveMonitor::build(HealthMonitor::tailing(store, spec.window), spec)
    }

    fn build(health: HealthMonitor, spec: MonitorSpec) -> LiveMonitor {
        let MonitorSpec {
            violate_after,
            anomaly,
            seed_baselines,
            assertions,
            ..
        } = spec;
        LiveMonitor {
            health,
            inner: Mutex::new(MonitorInner {
                violate_after: violate_after.max(1),
                states: assertions.into_iter().map(CheckState::new).collect(),
                window_start_us: None,
                clock_us: 0,
                windows_closed: 0,
                records: Vec::new(),
                scorer: anomaly.map(|config| AnomalyScorer::with_baselines(config, seed_baselines)),
            }),
            alerts_total: None,
            failing_gauge: None,
        }
    }

    /// Builder-style: records alert counts and the failing-assertion
    /// gauge into `registry` (`gremlin_monitor_alerts_total`,
    /// `gremlin_monitor_checks_failing`).
    pub fn with_telemetry(mut self, registry: &MetricsRegistry) -> LiveMonitor {
        self.alerts_total = Some(registry.counter(
            "gremlin_monitor_alerts_total",
            "Verdict transitions emitted by the live monitor.",
            &[],
        ));
        self.failing_gauge = Some(registry.gauge(
            "gremlin_monitor_checks_failing",
            "Streaming assertions currently failing or violated.",
            &[],
        ));
        self
    }

    /// The evaluation window length.
    pub fn window(&self) -> Duration {
        self.health.window()
    }

    /// The underlying per-edge health matrix.
    pub fn health(&self) -> &HealthMonitor {
        &self.health
    }

    /// Consumes newly recorded events, folds them into the edge
    /// matrix and the assertion windows, closes any completed
    /// windows, and returns the verdict transitions this poll
    /// produced.
    ///
    /// The events are folded where they lie: this monitor's lock is
    /// taken first, then the health matrix's, then the store's read
    /// locks (the order [`EventStore::read_after`] documents), and
    /// nothing is copied out of the store.
    pub fn poll(&self) -> Vec<AlertEvent> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let records_before = inner.records.len();
        let mut emitted = Vec::new();
        let window = self.health.window();
        // A zero-length window walks (and divides) as one microsecond.
        let window_us = (window.as_micros() as Micros).max(1);
        let covered = window.max(Duration::from_micros(1));
        self.health.poll_with(|event| {
            let ts = event.timestamp_us;
            inner.clock_us = inner.clock_us.max(ts);
            let start = *inner.window_start_us.get_or_insert(ts);
            if ts >= start {
                let mut start = start;
                while ts >= start + window_us {
                    start += window_us;
                    inner.close_window(start, window, covered, &mut emitted);
                }
                inner.window_start_us = Some(start);
            }
            if let Some(scorer) = inner.scorer.as_mut() {
                scorer.observe(event);
            }
            for index in 0..inner.states.len() {
                let state = &mut inner.states[index];
                if state.live.verdict.is_final() {
                    continue;
                }
                if let Some(detail) = state.fold.feed(event) {
                    inner.transition(index, Verdict::Violated, ts, detail, &mut emitted);
                }
            }
        });
        self.publish(inner, inner.records.len() - records_before);
        emitted
    }

    /// Closes the currently open (partial) window so end-of-run
    /// verdicts reflect the final stretch of traffic; rates are taken
    /// over the part of the window the events covered, not its full
    /// length. Call after the last [`LiveMonitor::poll`]; recipes do
    /// this in [`RecipeRun::finish`](crate::RecipeRun::finish).
    pub fn finalize(&self) -> Vec<AlertEvent> {
        let mut inner = self.inner.lock();
        let records_before = inner.records.len();
        let mut emitted = Vec::new();
        if let Some(start) = inner.window_start_us {
            let end = inner.clock_us;
            let covered = Duration::from_micros(end.saturating_sub(start));
            inner.close_window(end, self.health.window(), covered, &mut emitted);
            inner.window_start_us = Some(end);
        }
        self.publish(&inner, inner.records.len() - records_before);
        emitted
    }

    fn publish(&self, inner: &MonitorInner, new_records: usize) {
        if let Some(counter) = &self.alerts_total {
            counter.add(new_records as u64);
        }
        if let Some(gauge) = &self.failing_gauge {
            let failing = inner
                .states
                .iter()
                .filter(|s| matches!(s.live.verdict, Verdict::Failing | Verdict::Violated))
                .count();
            gauge.set(failing as i64);
        }
    }

    /// The live status of every assertion.
    pub fn verdicts(&self) -> Vec<LiveCheck> {
        self.inner
            .lock()
            .states
            .iter()
            .map(|state| state.live.clone())
            .collect()
    }

    /// `true` once any assertion reached the terminal
    /// [`Verdict::Violated`] state — the recipe abort-early signal.
    pub fn violated(&self) -> bool {
        self.inner
            .lock()
            .states
            .iter()
            .any(|s| s.live.verdict.is_final())
    }

    /// Verdict alerts recorded at or after `cursor` (an index into
    /// the record log), plus the next cursor — the same contract as
    /// [`EventStore::events_after`]. Anomaly records are skipped; use
    /// [`LiveMonitor::records_after`] for the interleaved log.
    pub fn alerts_after(&self, cursor: u64) -> (Vec<AlertEvent>, u64) {
        let inner = self.inner.lock();
        let next = inner.records.len() as u64;
        let from = (cursor as usize).min(inner.records.len());
        let alerts = inner.records[from..]
            .iter()
            .filter_map(|record| match record {
                MonitorRecord::Verdict(alert) => Some(alert.clone()),
                MonitorRecord::Anomaly(_) => None,
            })
            .collect();
        (alerts, next)
    }

    /// The full record log (verdict and anomaly transitions,
    /// interleaved in the order they happened) at or after `cursor`,
    /// plus the next cursor.
    pub fn records_after(&self, cursor: u64) -> (Vec<MonitorRecord>, u64) {
        let inner = self.inner.lock();
        let next = inner.records.len() as u64;
        let from = (cursor as usize).min(inner.records.len());
        (inner.records[from..].to_vec(), next)
    }

    /// Every edge's current anomaly score (empty without
    /// [`MonitorSpec::anomaly`]).
    pub fn anomaly_scores(&self) -> Vec<AnomalyScore> {
        self.inner
            .lock()
            .scorer
            .as_ref()
            .map(|scorer| scorer.scores())
            .unwrap_or_default()
    }

    /// Every baseline the anomaly scorer currently holds — learned
    /// during this run's warmup or seeded from a prior run. The
    /// recipe machinery persists these as `baselines.json` in the
    /// flight-recorder artifact dir.
    pub fn learned_baselines(&self) -> Vec<EdgeBaseline> {
        self.inner
            .lock()
            .scorer
            .as_ref()
            .map(|scorer| scorer.baselines())
            .unwrap_or_default()
    }

    /// How many edges were seeded from prior baselines (zero without
    /// [`MonitorSpec::seed`]).
    pub fn seeded_edges(&self) -> usize {
        self.inner
            .lock()
            .scorer
            .as_ref()
            .map(|scorer| scorer.seeded_edges())
            .unwrap_or(0)
    }

    /// Windows closed so far.
    pub fn windows_closed(&self) -> u64 {
        self.inner.lock().windows_closed
    }

    /// The current per-edge health matrix.
    pub fn edge_health(&self) -> Vec<EdgeHealth> {
        self.health.snapshot()
    }
}

impl gremlin_proxy::MonitorSource for LiveMonitor {
    fn refresh(&self) {
        self.poll();
    }

    fn health_json(&self) -> String {
        let edges = self.edge_health();
        let checks = self.verdicts();
        let scores = self.anomaly_scores();
        format!(
            "{{\"schema_version\":{},\"window_us\":{},\"clock_us\":{},\"edges\":{},\"checks\":{},\"scores\":{}}}",
            gremlin_proxy::HEALTH_SCHEMA_VERSION,
            self.window().as_micros(),
            self.health.clock_us(),
            serde_json::to_string(&edges).unwrap_or_else(|_| "[]".into()),
            serde_json::to_string(&checks).unwrap_or_else(|_| "[]".into()),
            serde_json::to_string(&scores).unwrap_or_else(|_| "[]".into()),
        )
    }

    fn alert_lines_after(&self, cursor: u64) -> (Vec<String>, u64) {
        let (records, next) = self.records_after(cursor);
        let lines = records
            .iter()
            .filter_map(|record| serde_json::to_string(record).ok())
            .collect();
        (lines, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gremlin_store::{AppliedFault, Event};

    fn sec(s: u64) -> Micros {
        s * 1_000_000
    }

    fn request(ts: Micros) -> Event {
        Event::request("a", "b", "GET", "/x")
            .with_request_id("test-1")
            .with_timestamp(ts)
    }

    fn reply_to(dst: &str, ts: Micros, status: u16, latency_ms: u64) -> Event {
        Event::response("a", dst, status, Duration::from_millis(latency_ms))
            .with_request_id("test-1")
            .with_timestamp(ts)
    }

    fn monitor_with(spec: MonitorSpec) -> (Arc<EventStore>, LiveMonitor) {
        let store = EventStore::shared();
        let monitor = LiveMonitor::new(Arc::clone(&store), spec);
        (store, monitor)
    }

    #[test]
    fn latency_slo_fails_then_recovers() {
        let spec =
            MonitorSpec::new(Duration::from_secs(2)).assert(StreamingAssertion::LatencySlo {
                service: "b".into(),
                quantile: 0.99,
                bound: Duration::from_millis(50),
            });
        let (store, monitor) = monitor_with(spec);

        // Window 1 ([0, 2s)): slow replies -> Failing.
        store.record_event(reply_to("b", sec(0), 200, 200));
        store.record_event(reply_to("b", sec(1), 200, 300));
        // Window 2 ([2s, 4s)): fast replies -> Passing.
        store.record_event(reply_to("b", sec(2), 200, 5));
        store.record_event(reply_to("b", sec(3), 200, 5));
        // An event past window 2 closes it.
        store.record_event(reply_to("b", sec(4), 200, 5));

        let alerts = monitor.poll();
        assert_eq!(alerts.len(), 2, "{alerts:?}");
        assert_eq!(alerts[0].to, Verdict::Failing);
        assert_eq!(alerts[1].to, Verdict::Passing);
        let checks = monitor.verdicts();
        assert_eq!(checks[0].verdict, Verdict::Passing);
        assert_eq!(checks[0].first_failing_at_us, Some(sec(2)));
        assert!(!monitor.violated());
    }

    #[test]
    fn consecutive_failing_windows_escalate_to_violated() {
        let spec = MonitorSpec::new(Duration::from_secs(1))
            .violate_after(2)
            .assert(StreamingAssertion::LatencySlo {
                service: "b".into(),
                quantile: 0.5,
                bound: Duration::from_millis(10),
            });
        let (store, monitor) = monitor_with(spec);
        for s in 0..4 {
            store.record_event(reply_to("b", sec(s), 200, 100));
        }
        let alerts = monitor.poll();
        // Window 1: Failing. Window 2: still failing -> Failing
        // persists, escalation to Violated.
        assert!(monitor.violated());
        let kinds: Vec<Verdict> = alerts.iter().map(|a| a.to).collect();
        assert_eq!(
            kinds,
            vec![Verdict::Failing, Verdict::Violated],
            "{alerts:?}"
        );
        let checks = monitor.verdicts();
        assert_eq!(checks[0].verdict, Verdict::Violated);
        assert!(checks[0].violated_at_us.is_some());
        // Terminal: further windows change nothing.
        store.record_event(reply_to("b", sec(10), 200, 1));
        assert!(monitor.poll().is_empty());
    }

    #[test]
    fn at_most_requests_violates_immediately_mid_window() {
        let spec =
            MonitorSpec::new(Duration::from_secs(60)).assert(StreamingAssertion::AtMostRequests {
                src: "a".into(),
                dst: "b".into(),
                max: 2,
            });
        let (store, monitor) = monitor_with(spec);
        store.record_event(request(sec(0)));
        store.record_event(request(sec(1)));
        assert!(monitor.poll().is_empty());
        assert!(!monitor.violated());
        // The third request breaches the budget inside the window: no
        // window close needed.
        store.record_event(request(sec(2)));
        let alerts = monitor.poll();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].to, Verdict::Violated);
        assert!(monitor.violated());
        assert_eq!(monitor.verdicts()[0].violated_at_us, Some(sec(2)));
    }

    #[test]
    fn request_rate_fails_on_starved_window() {
        let spec = MonitorSpec::new(Duration::from_secs(1)).assert(
            StreamingAssertion::RequestRateAtLeast {
                src: "a".into(),
                dst: "b".into(),
                min_rate: 2.0,
            },
        );
        let (store, monitor) = monitor_with(spec);
        // Window 1: 3 requests -> 3 req/s, passing.
        for i in 0..3 {
            store.record_event(request(i * 300_000));
        }
        // Window 2: only unrelated traffic -> rate 0, failing.
        store.record_event(Event::request("a", "c", "GET", "/x").with_timestamp(sec(1) + 100_000));
        store.record_event(Event::request("a", "c", "GET", "/x").with_timestamp(sec(2) + 100_000));
        let alerts = monitor.poll();
        let kinds: Vec<Verdict> = alerts.iter().map(|a| a.to).collect();
        assert_eq!(
            kinds,
            vec![Verdict::Passing, Verdict::Failing],
            "{alerts:?}"
        );
    }

    #[test]
    fn error_rate_counts_faulted_replies() {
        let spec =
            MonitorSpec::new(Duration::from_secs(2)).assert(StreamingAssertion::ErrorRateAtMost {
                src: "a".into(),
                dst: "b".into(),
                max_ratio: 0.2,
            });
        let (store, monitor) = monitor_with(spec);
        store.record_event(reply_to("b", sec(0), 200, 1));
        store.record_event(
            reply_to("b", sec(1), 503, 1).with_fault(AppliedFault::Abort { status: 503 }),
        );
        store.record_event(reply_to("b", sec(3), 200, 1)); // closes window 1
        let alerts = monitor.poll();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].to, Verdict::Failing);
        assert!(alerts[0].detail.contains("0.5"), "{}", alerts[0].detail);
    }

    #[test]
    fn status_bounds_track_cumulative_matches() {
        let spec = MonitorSpec::new(Duration::from_secs(1))
            .assert(StreamingAssertion::StatusAtLeast {
                src: "a".into(),
                dst: "b".into(),
                status: 503,
                count: 2,
            })
            .assert(StreamingAssertion::StatusAtMost {
                src: "a".into(),
                dst: "b".into(),
                status: 503,
                max: 3,
            });
        let (store, monitor) = monitor_with(spec);
        store.record_event(reply_to("b", sec(0), 503, 1));
        store.record_event(reply_to("b", sec(2), 503, 1)); // closes window 1
        monitor.poll();
        let checks = monitor.verdicts();
        // One match at window close: at-least still pending.
        assert_eq!(checks[0].verdict, Verdict::Pending);
        assert_eq!(checks[1].verdict, Verdict::Passing);
        store.record_event(reply_to("b", sec(4), 503, 1)); // closes window 2 (2 matches)
        monitor.poll();
        assert_eq!(monitor.verdicts()[0].verdict, Verdict::Passing);
        // One more match blows the at-most budget of 3 immediately.
        store.record_event(reply_to("b", sec(5), 503, 1));
        monitor.poll();
        let checks = monitor.verdicts();
        assert_eq!(checks[1].verdict, Verdict::Violated, "{checks:?}");
        assert!(monitor.violated());
    }

    #[test]
    fn finalize_closes_the_partial_window() {
        let spec =
            MonitorSpec::new(Duration::from_secs(60)).assert(StreamingAssertion::LatencySlo {
                service: "b".into(),
                quantile: 0.5,
                bound: Duration::from_millis(10),
            });
        let (store, monitor) = monitor_with(spec);
        store.record_event(reply_to("b", sec(0), 200, 100));
        monitor.poll();
        // The 60s window never closes on its own.
        assert_eq!(monitor.verdicts()[0].verdict, Verdict::Pending);
        let alerts = monitor.finalize();
        assert_eq!(alerts.len(), 1);
        assert_eq!(monitor.verdicts()[0].verdict, Verdict::Failing);
    }

    #[test]
    fn finalize_measures_rates_over_the_covered_part_of_the_window() {
        let spec = MonitorSpec::new(Duration::from_secs(10)).assert(
            StreamingAssertion::RequestRateAtLeast {
                src: "a".into(),
                dst: "b".into(),
                min_rate: 5.0,
            },
        );
        let (store, monitor) = monitor_with(spec);
        // The run ends 2s into a 10s window: 21 requests over those 2s
        // are 10.5 req/s, not the 2.1 the full window length would give.
        for i in 0..=20 {
            store.record_event(request(i * 100_000));
        }
        monitor.poll();
        monitor.finalize();
        let check = &monitor.verdicts()[0];
        assert_eq!(check.verdict, Verdict::Passing, "{check}");
        assert!(check.detail.contains("10.5 req/s"), "{check}");
    }

    #[test]
    fn alerts_after_pages_the_log() {
        let spec = MonitorSpec::new(Duration::from_secs(1)).assert(
            StreamingAssertion::RequestRateAtLeast {
                src: "a".into(),
                dst: "b".into(),
                min_rate: 0.5,
            },
        );
        let (store, monitor) = monitor_with(spec);
        store.record_event(request(sec(0)));
        store.record_event(request(sec(2)));
        monitor.poll();
        let (alerts, next) = monitor.alerts_after(0);
        assert!(!alerts.is_empty());
        assert_eq!(alerts[0].seq, 0);
        let (rest, next_2) = monitor.alerts_after(next);
        assert!(rest.is_empty());
        assert_eq!(next, next_2);
    }

    #[test]
    fn telemetry_records_alerts_and_failing_gauge() {
        let registry = MetricsRegistry::new();
        let store = EventStore::shared();
        let monitor = LiveMonitor::new(
            Arc::clone(&store),
            MonitorSpec::new(Duration::from_secs(1)).assert(StreamingAssertion::LatencySlo {
                service: "b".into(),
                quantile: 0.5,
                bound: Duration::from_millis(10),
            }),
        )
        .with_telemetry(&registry);
        store.record_event(reply_to("b", sec(0), 200, 100));
        store.record_event(reply_to("b", sec(2), 200, 100));
        monitor.poll();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_value("gremlin_monitor_alerts_total", &[]),
            Some(1)
        );
        assert_eq!(
            snap.gauge_value("gremlin_monitor_checks_failing", &[]),
            Some(1)
        );
    }

    #[test]
    fn live_check_collapses_to_post_hoc_check() {
        let check = LiveCheck {
            name: "LiveLatencySlo(b, p99 <= 10ms)".into(),
            verdict: Verdict::Failing,
            detail: "window p99 = 100ms".into(),
            windows: 3,
            first_failing_at_us: Some(123),
            violated_at_us: None,
        };
        let collapsed = check.to_check();
        assert!(!collapsed.passed);
        assert!(collapsed.details.contains("first failing at 123us"));
        let pending = LiveCheck {
            name: "x".into(),
            verdict: Verdict::Pending,
            detail: String::new(),
            windows: 0,
            first_failing_at_us: None,
            violated_at_us: None,
        };
        assert!(!pending.to_check().passed, "pending is inconclusive");
        let passing = LiveCheck {
            verdict: Verdict::Passing,
            ..pending
        };
        assert!(passing.to_check().passed);
    }

    #[test]
    fn tailing_monitor_ignores_history() {
        let store = EventStore::shared();
        store.record_event(reply_to("b", sec(0), 200, 500));
        let monitor = LiveMonitor::tailing(
            Arc::clone(&store),
            MonitorSpec::new(Duration::from_secs(1)).assert(StreamingAssertion::LatencySlo {
                service: "b".into(),
                quantile: 0.5,
                bound: Duration::from_millis(10),
            }),
        );
        store.record_event(reply_to("b", sec(10), 200, 1));
        store.record_event(reply_to("b", sec(12), 200, 1));
        monitor.poll();
        // Only the fast post-attach replies were seen: passing.
        assert_eq!(monitor.verdicts()[0].verdict, Verdict::Passing);
    }

    #[test]
    fn spec_serde_round_trips() {
        let spec = MonitorSpec::new(Duration::from_secs(5))
            .violate_after(2)
            .assert(StreamingAssertion::LatencySlo {
                service: "web".into(),
                quantile: 0.99,
                bound: Duration::from_millis(250),
            })
            .assert(StreamingAssertion::AtMostRequests {
                src: "a".into(),
                dst: "b".into(),
                max: 5,
            });
        let json = serde_json::to_string(&spec).unwrap();
        let back: MonitorSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        // violate_after defaults when absent.
        let minimal: MonitorSpec =
            serde_json::from_str(r#"{"window":{"secs":1,"nanos":0},"assertions":[]}"#).unwrap();
        assert_eq!(minimal.violate_after, 3);
    }

    #[test]
    fn monitor_source_json_shapes() {
        use gremlin_proxy::MonitorSource;
        let spec = MonitorSpec::new(Duration::from_secs(1)).assert(
            StreamingAssertion::RequestRateAtLeast {
                src: "a".into(),
                dst: "b".into(),
                min_rate: 0.5,
            },
        );
        let (store, monitor) = monitor_with(spec);
        store.record_event(request(sec(0)));
        store.record_event(request(sec(2)));
        monitor.refresh();
        let health = monitor.health_json();
        assert!(
            health.starts_with("{\"schema_version\":2,\"window_us\":1000000"),
            "{health}"
        );
        assert!(health.contains("\"edges\":["), "{health}");
        assert!(health.contains("\"checks\":["), "{health}");
        assert!(health.contains("\"scores\":["), "{health}");
        let parsed: serde_json::Value = serde_json::from_str(&health).unwrap();
        assert!(parsed["edges"][0]["requests"].as_u64().unwrap() >= 1);
        assert_eq!(parsed["schema_version"], 2);
        let (lines, next) = monitor.alert_lines_after(0);
        assert!(!lines.is_empty());
        assert!(next >= 1);
        let alert: serde_json::Value = serde_json::from_str(&lines[0]).unwrap();
        assert_eq!(alert["seq"], 0);
        assert_eq!(alert["kind"], "verdict");
    }

    #[test]
    fn anomalous_edge_assertion_tracks_the_scorer() {
        use crate::anomaly::AnomalyConfig;

        let spec = MonitorSpec::new(Duration::from_secs(1))
            .anomaly(AnomalyConfig::default().warmup_windows(2))
            .assert(StreamingAssertion::AnomalousEdge {
                src: "a".into(),
                dst: "b".into(),
            });
        let (store, monitor) = monitor_with(spec);
        // Two fault-free warmup windows at 10 req/s, 5ms.
        for w in 0..2u64 {
            for i in 0..10u64 {
                let ts = sec(w) + i * 100_000;
                store.record_event(request(ts));
                store.record_event(reply_to("b", ts + 1_000, 200, 5));
            }
        }
        store.record_event(reply_to("b", sec(2), 200, 5)); // closes warmup
        monitor.poll();
        // Baseline learned; the assertion is no longer pending.
        let scores = monitor.anomaly_scores();
        assert_eq!(scores.len(), 1, "{scores:?}");
        assert!(scores[0].baseline.is_some());

        // Two consecutive slow windows: Suspect (Failing) then
        // Anomalous (straight to Violated).
        for w in 2..4u64 {
            for i in 0..10u64 {
                let ts = sec(w) + i * 100_000;
                store.record_event(request(ts));
                store.record_event(reply_to("b", ts + 1_000, 200, 90));
            }
        }
        store.record_event(reply_to("b", sec(4) + 100_000, 200, 90));
        monitor.poll();
        assert!(monitor.violated(), "{:?}", monitor.verdicts());
        let check = &monitor.verdicts()[0];
        assert_eq!(check.verdict, Verdict::Violated);
        assert!(check.detail.contains("anomalous"), "{}", check.detail);
        let score = &monitor.anomaly_scores()[0];
        assert_eq!(score.state, crate::anomaly::EdgeState::Anomalous);
        assert!(score.first_suspect_at_us.is_some());

        // The record log interleaves verdicts and anomalies with
        // contiguous sequence numbers and tagged JSON.
        let (records, next) = monitor.records_after(0);
        assert_eq!(records.len() as u64, next);
        for (i, record) in records.iter().enumerate() {
            assert_eq!(record.seq(), i as u64, "{records:?}");
        }
        assert!(records
            .iter()
            .any(|r| matches!(r, MonitorRecord::Anomaly(a) if a.to == crate::anomaly::EdgeState::Anomalous)));
        let (lines, _) = {
            use gremlin_proxy::MonitorSource;
            monitor.alert_lines_after(0)
        };
        assert!(
            lines.iter().any(|l| l.contains("\"kind\":\"anomaly\"")),
            "{lines:?}"
        );
        assert!(
            lines.iter().any(|l| l.contains("\"kind\":\"verdict\"")),
            "{lines:?}"
        );
        // The verdict-only view still pages cleanly past the mixed log.
        let (alerts, after) = monitor.alerts_after(0);
        assert_eq!(after, next);
        assert!(alerts.iter().all(|a| (a.seq as usize) < records.len()));
    }

    #[test]
    fn seeded_monitor_skips_warmup_and_matches_fresh_verdicts() {
        use crate::anomaly::AnomalyConfig;

        let spec = |seed: Vec<EdgeBaseline>| {
            MonitorSpec::new(Duration::from_secs(1))
                .anomaly(AnomalyConfig::default().warmup_windows(2))
                .seed(seed)
                .assert(StreamingAssertion::AnomalousEdge {
                    src: "a".into(),
                    dst: "b".into(),
                })
        };

        // Fresh run: two warmup windows, then the measured stream.
        let (fresh_store, fresh) = monitor_with(spec(Vec::new()));
        for w in 0..2u64 {
            for i in 0..10u64 {
                let ts = sec(w) + i * 100_000;
                fresh_store.record_event(request(ts));
                fresh_store.record_event(reply_to("b", ts + 1_000, 200, 5));
            }
        }
        fresh_store.record_event(reply_to("b", sec(2), 200, 5));
        fresh.poll();
        let baselines = fresh.learned_baselines();
        assert_eq!(baselines.len(), 1);
        assert_eq!(fresh.seeded_edges(), 0);

        // Seeded run: the same measured stream, no warmup traffic at
        // all. Both streams are two slow windows from here.
        let (seeded_store, seeded) = monitor_with(spec(baselines));
        assert_eq!(seeded.seeded_edges(), 1);
        let measured = |store: &EventStore| {
            for w in 2..4u64 {
                for i in 0..10u64 {
                    let ts = sec(w) + i * 100_000;
                    store.record_event(request(ts));
                    store.record_event(reply_to("b", ts + 1_000, 200, 90));
                }
            }
            store.record_event(reply_to("b", sec(4) + 100_000, 200, 90));
        };
        measured(&fresh_store);
        measured(&seeded_store);
        fresh.poll();
        seeded.poll();

        // Identical verdicts and identical edge states, and the
        // seeded run never warmed: no Warming state, no "baseline
        // learned" record.
        assert_eq!(
            fresh.verdicts()[0].verdict,
            seeded.verdicts()[0].verdict,
            "fresh {:?} vs seeded {:?}",
            fresh.verdicts(),
            seeded.verdicts()
        );
        assert!(seeded.violated());
        let fresh_score = &fresh.anomaly_scores()[0];
        let seeded_score = &seeded.anomaly_scores()[0];
        assert_eq!(fresh_score.state, seeded_score.state);
        assert_eq!(seeded_score.state, crate::anomaly::EdgeState::Anomalous);
        let (records, _) = seeded.records_after(0);
        assert!(
            !records.iter().any(|r| matches!(
                r,
                MonitorRecord::Anomaly(a)
                    if a.from == crate::anomaly::EdgeState::Warming
            )),
            "seeded run must not emit warmup transitions: {records:?}"
        );

        // The seed survives the spec's JSON round trip (recipe files).
        let spec_json = serde_json::to_string(&spec(fresh.learned_baselines())).unwrap();
        let back: MonitorSpec = serde_json::from_str(&spec_json).unwrap();
        assert_eq!(back.seed_baselines.len(), 1);
        // And specs without the field still parse (schema compat).
        let legacy: MonitorSpec =
            serde_json::from_str(r#"{"window":{"secs":1,"nanos":0},"assertions":[]}"#).unwrap();
        assert!(legacy.seed_baselines.is_empty());
    }

    #[test]
    fn degenerate_windows_keep_streaming_checks_finite() {
        // Zero-duration window spec: rates divide by the floored
        // window, never by zero.
        let spec =
            MonitorSpec::new(Duration::ZERO).assert(StreamingAssertion::RequestRateAtLeast {
                src: "a".into(),
                dst: "b".into(),
                min_rate: 1.0,
            });
        let (store, monitor) = monitor_with(spec);
        // Tight timestamps: the zero window is floored to 1us, and the
        // close walk advances one floored window per step.
        store.record_event(request(0));
        store.record_event(request(10));
        monitor.poll();
        monitor.finalize();
        for check in monitor.verdicts() {
            assert!(!check.detail.contains("NaN"), "{}", check.detail);
            assert!(!check.detail.contains("inf"), "{}", check.detail);
        }

        // Windows with no relevant observations leave error-rate and
        // latency verdicts untouched (no divide-by-zero evaluation).
        let spec = MonitorSpec::new(Duration::from_secs(1))
            .assert(StreamingAssertion::ErrorRateAtMost {
                src: "a".into(),
                dst: "b".into(),
                max_ratio: 0.5,
            })
            .assert(StreamingAssertion::LatencySlo {
                service: "b".into(),
                quantile: 0.99,
                bound: Duration::from_millis(10),
            });
        let (store, monitor) = monitor_with(spec);
        // Only requests (no replies): both assertions stay Pending
        // across closed windows.
        store.record_event(request(sec(0)));
        store.record_event(request(sec(5)));
        monitor.poll();
        for check in monitor.verdicts() {
            assert_eq!(check.verdict, Verdict::Pending, "{check:?}");
        }
    }
}
