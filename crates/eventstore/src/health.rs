//! Per-edge live health aggregation over the observation stream.
//!
//! The Assertion Checker (paper §4.2) evaluates expectations *after* a
//! recipe finishes by querying the full store. The [`HealthMonitor`]
//! here is the streaming counterpart: it consumes new events
//! incrementally through [`EventStore::read_after`] — never a full
//! store scan, never a copy — and maintains a per-`(src, dst)` **edge
//! health matrix**: request/response/error totals, fault-injection hit
//! counts, latency percentiles (via `gremlin-telemetry` histograms),
//! and sliding-window request and error rates.
//!
//! Windows are measured in *event time* (the timestamps the agents
//! stamped), so replaying a recorded log produces the same matrix a
//! live run did.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use gremlin_telemetry::LatencyHistogram;

use crate::event::{Event, Micros};
use crate::name::Name;
use crate::store::EventStore;

/// Default sliding-window length for rate computations.
pub const DEFAULT_HEALTH_WINDOW: Duration = Duration::from_secs(10);

/// One row of the edge health matrix: the live state of a single
/// `(src, dst)` call edge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeHealth {
    /// Calling service.
    pub src: String,
    /// Called service.
    pub dst: String,
    /// Requests observed since the monitor started.
    pub requests: u64,
    /// Responses observed since the monitor started.
    pub responses: u64,
    /// Failed responses (status 0 or 5xx) since the monitor started.
    pub errors: u64,
    /// Messages on which an agent applied a fault action.
    pub fault_hits: u64,
    /// Requests per second over the sliding window.
    pub rate_rps: f64,
    /// Failed responses as a fraction of responses in the window
    /// (0.0 when the window holds no responses).
    pub error_rate: f64,
    /// p50 response latency in microseconds, over all observations.
    pub p50_us: u64,
    /// p99 response latency in microseconds, over all observations.
    pub p99_us: u64,
    /// Event-time timestamp of the newest observation on the edge.
    pub last_seen_us: Micros,
}

/// Internal per-edge accumulator.
struct EdgeStats {
    requests: u64,
    responses: u64,
    errors: u64,
    fault_hits: u64,
    latency: LatencyHistogram,
    /// Request timestamps inside the sliding window.
    window_requests: VecDeque<Micros>,
    /// `(timestamp, failed)` for responses inside the window.
    window_responses: VecDeque<(Micros, bool)>,
    last_seen_us: Micros,
}

impl EdgeStats {
    fn new() -> EdgeStats {
        EdgeStats {
            requests: 0,
            responses: 0,
            errors: 0,
            fault_hits: 0,
            latency: LatencyHistogram::new(),
            window_requests: VecDeque::new(),
            window_responses: VecDeque::new(),
            last_seen_us: 0,
        }
    }

    fn observe(&mut self, event: &Event) {
        self.last_seen_us = self.last_seen_us.max(event.timestamp_us);
        if event.fault.is_some() {
            self.fault_hits += 1;
        }
        if event.kind.is_request() {
            self.requests += 1;
            self.window_requests.push_back(event.timestamp_us);
        } else if let Some(status) = event.status() {
            self.responses += 1;
            let failed = status == 0 || (500..600).contains(&status);
            if failed {
                self.errors += 1;
            }
            self.window_responses
                .push_back((event.timestamp_us, failed));
            if let Some(latency) = event.observed_latency() {
                self.latency.record(latency);
            }
        }
    }

    /// Drops window entries older than `horizon`.
    fn prune(&mut self, horizon: Micros) {
        while self.window_requests.front().is_some_and(|ts| *ts < horizon) {
            self.window_requests.pop_front();
        }
        while self
            .window_responses
            .front()
            .is_some_and(|(ts, _)| *ts < horizon)
        {
            self.window_responses.pop_front();
        }
    }

    fn snapshot(&self, src: &Name, dst: &Name, window: Duration) -> EdgeHealth {
        // Degenerate windows must degrade to 0.0, never NaN/inf: the
        // divisor is floored (a zero-length window still divides by
        // 1µs) and an empty window is explicitly rate 0.
        let window_secs = window.as_secs_f64().max(1e-6);
        let snap = self.latency.snapshot();
        let window_errors = self
            .window_responses
            .iter()
            .filter(|(_, failed)| *failed)
            .count();
        let window_responses = self.window_responses.len();
        EdgeHealth {
            src: src.to_string(),
            dst: dst.to_string(),
            requests: self.requests,
            responses: self.responses,
            errors: self.errors,
            fault_hits: self.fault_hits,
            rate_rps: if self.window_requests.is_empty() {
                0.0
            } else {
                self.window_requests.len() as f64 / window_secs
            },
            error_rate: if window_responses == 0 {
                0.0
            } else {
                window_errors as f64 / window_responses as f64
            },
            p50_us: snap
                .percentile(0.50)
                .map(|d| d.as_micros() as u64)
                .unwrap_or(0),
            p99_us: snap
                .percentile(0.99)
                .map(|d| d.as_micros() as u64)
                .unwrap_or(0),
            last_seen_us: self.last_seen_us,
        }
    }
}

struct HealthInner {
    cursor: u64,
    /// Latest event-time timestamp seen; the "now" of window pruning.
    clock_us: Micros,
    edges: BTreeMap<(Name, Name), EdgeStats>,
}

/// Streaming per-edge health aggregation over an [`EventStore`].
///
/// Every [`HealthMonitor::poll_with`] consumes exactly the events
/// recorded since the previous poll (via [`EventStore::read_after`])
/// and folds them into the matrix; it never rescans the store. Layered
/// consumers — the live assertion engine in `gremlin-core` — are handed
/// the same fresh events, borrowed, so one cursor drives everything;
/// [`HealthMonitor::poll`] returns them as copies.
///
/// # Examples
///
/// ```
/// use gremlin_store::{Event, EventStore, HealthMonitor};
/// use std::time::Duration;
///
/// let store = EventStore::shared();
/// let monitor = HealthMonitor::new(store.clone(), Duration::from_secs(10));
/// store.record_event(Event::request("a", "b", "GET", "/x").with_timestamp(1_000_000));
/// store.record_event(Event::response("a", "b", 503, Duration::from_millis(2)).with_timestamp(2_000_000));
/// monitor.poll();
/// let matrix = monitor.snapshot();
/// assert_eq!(matrix.len(), 1);
/// assert_eq!(matrix[0].requests, 1);
/// assert_eq!(matrix[0].errors, 1);
/// ```
pub struct HealthMonitor {
    store: Arc<EventStore>,
    window: Duration,
    inner: Mutex<HealthInner>,
}

impl std::fmt::Debug for HealthMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("HealthMonitor")
            .field("window", &self.window)
            .field("cursor", &inner.cursor)
            .field("edges", &inner.edges.len())
            .finish()
    }
}

impl HealthMonitor {
    /// Creates a monitor over `store` with the given sliding-window
    /// length, starting from the beginning of the stream (events
    /// already recorded are folded in on the first poll).
    pub fn new(store: Arc<EventStore>, window: Duration) -> HealthMonitor {
        HealthMonitor {
            store,
            window,
            inner: Mutex::new(HealthInner {
                cursor: 0,
                clock_us: 0,
                edges: BTreeMap::new(),
            }),
        }
    }

    /// Creates a monitor that only observes events recorded after this
    /// call (history is skipped).
    pub fn tailing(store: Arc<EventStore>, window: Duration) -> HealthMonitor {
        let cursor = store.tail_cursor();
        let monitor = HealthMonitor::new(store, window);
        monitor.inner.lock().cursor = cursor;
        monitor
    }

    /// The sliding-window length rates are computed over.
    pub fn window(&self) -> Duration {
        self.window
    }

    /// The store this monitor tails.
    pub fn store(&self) -> &Arc<EventStore> {
        &self.store
    }

    /// The monitor's position in the event stream (next sequence
    /// number it will consume).
    pub fn cursor(&self) -> u64 {
        self.inner.lock().cursor
    }

    /// Consumes every event recorded since the last poll: folds each
    /// into the matrix and hands it, borrowed and in arrival order, to
    /// `visit` for layered consumers.
    ///
    /// `visit` runs inside [`EventStore::read_after`], under this
    /// monitor's lock and the store's read locks, so its rule applies:
    /// no writing to or re-entering the store, and no call back into
    /// this monitor.
    pub fn poll_with(&self, mut visit: impl FnMut(&Event)) {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let (fresh, next) = self.store.read_after(inner.cursor, |fresh| {
            // One matrix lookup per run of consecutive events on an edge.
            for run in fresh.chunk_by(|a, b| a.src == b.src && a.dst == b.dst) {
                let stats = inner
                    .edges
                    .entry((run[0].src.clone(), run[0].dst.clone()))
                    .or_insert_with(EdgeStats::new);
                for &event in run {
                    inner.clock_us = inner.clock_us.max(event.timestamp_us);
                    stats.observe(event);
                    visit(event);
                }
            }
            fresh.len()
        });
        inner.cursor = next;
        if fresh > 0 {
            let horizon = inner
                .clock_us
                .saturating_sub(self.window.as_micros() as Micros);
            for stats in inner.edges.values_mut() {
                stats.prune(horizon);
            }
        }
    }

    /// [`HealthMonitor::poll_with`] for callers that keep the batch:
    /// copies of the fresh events, in arrival order.
    pub fn poll(&self) -> Vec<Event> {
        let mut fresh = Vec::new();
        self.poll_with(|event| fresh.push(event.clone()));
        fresh
    }

    /// The current edge health matrix, sorted by `(src, dst)`.
    pub fn snapshot(&self) -> Vec<EdgeHealth> {
        let inner = self.inner.lock();
        inner
            .edges
            .iter()
            .map(|((src, dst), stats)| stats.snapshot(src, dst, self.window))
            .collect()
    }

    /// The health of one edge, if any traffic was observed on it.
    pub fn edge(&self, src: &str, dst: &str) -> Option<EdgeHealth> {
        let inner = self.inner.lock();
        inner
            .edges
            .get(&(Name::from(src), Name::from(dst)))
            .map(|stats| stats.snapshot(&Name::from(src), &Name::from(dst), self.window))
    }

    /// The latest event-time timestamp the monitor has folded in.
    pub fn clock_us(&self) -> Micros {
        self.inner.lock().clock_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::AppliedFault;

    fn sec(s: u64) -> Micros {
        s * 1_000_000
    }

    fn request(ts: Micros) -> Event {
        Event::request("a", "b", "GET", "/x")
            .with_request_id("test-1")
            .with_timestamp(ts)
    }

    fn reply(ts: Micros, status: u16, latency_ms: u64) -> Event {
        Event::response("a", "b", status, Duration::from_millis(latency_ms))
            .with_request_id("test-1")
            .with_timestamp(ts)
    }

    #[test]
    fn matrix_accumulates_totals_and_rates() {
        let store = EventStore::shared();
        let monitor = HealthMonitor::new(Arc::clone(&store), Duration::from_secs(10));
        for i in 0..10 {
            store.record_event(request(sec(i)));
            store.record_event(reply(
                sec(i) + 500_000,
                if i % 2 == 0 { 200 } else { 503 },
                5,
            ));
        }
        monitor.poll();
        let matrix = monitor.snapshot();
        assert_eq!(matrix.len(), 1);
        let edge = &matrix[0];
        assert_eq!(edge.src, "a");
        assert_eq!(edge.dst, "b");
        assert_eq!(edge.requests, 10);
        assert_eq!(edge.responses, 10);
        assert_eq!(edge.errors, 5);
        assert!(edge.rate_rps > 0.0, "window rate must be non-zero");
        assert!((edge.error_rate - 0.5).abs() < 1e-9, "{}", edge.error_rate);
        assert!(
            edge.p50_us >= 4_000 && edge.p50_us <= 6_000,
            "{}",
            edge.p50_us
        );
    }

    #[test]
    fn window_prunes_old_entries() {
        let store = EventStore::shared();
        let monitor = HealthMonitor::new(Arc::clone(&store), Duration::from_secs(5));
        store.record_event(request(sec(0)));
        store.record_event(request(sec(1)));
        monitor.poll();
        assert!(monitor.edge("a", "b").unwrap().rate_rps > 0.0);
        // A much later event pushes the clock forward; the old
        // requests leave the window, totals stay.
        store.record_event(request(sec(100)));
        monitor.poll();
        let edge = monitor.edge("a", "b").unwrap();
        assert_eq!(edge.requests, 3);
        assert!((edge.rate_rps - 0.2).abs() < 1e-9, "{}", edge.rate_rps);
    }

    #[test]
    fn fault_hits_are_counted() {
        let store = EventStore::shared();
        let monitor = HealthMonitor::new(Arc::clone(&store), DEFAULT_HEALTH_WINDOW);
        store.record_event(reply(sec(0), 503, 1).with_fault(AppliedFault::Abort { status: 503 }));
        monitor.poll();
        let edge = monitor.edge("a", "b").unwrap();
        assert_eq!(edge.fault_hits, 1);
        assert_eq!(edge.errors, 1);
    }

    #[test]
    fn poll_returns_only_fresh_events() {
        let store = EventStore::shared();
        let monitor = HealthMonitor::new(Arc::clone(&store), DEFAULT_HEALTH_WINDOW);
        store.record_event(request(sec(0)));
        assert_eq!(monitor.poll().len(), 1);
        assert!(monitor.poll().is_empty());
        store.record_event(request(sec(1)));
        store.record_event(request(sec(2)));
        assert_eq!(monitor.poll().len(), 2);
        assert_eq!(monitor.edge("a", "b").unwrap().requests, 3);
    }

    #[test]
    fn tailing_skips_history() {
        let store = EventStore::shared();
        store.record_event(request(sec(0)));
        let monitor = HealthMonitor::tailing(Arc::clone(&store), DEFAULT_HEALTH_WINDOW);
        assert!(monitor.poll().is_empty());
        store.record_event(request(sec(1)));
        assert_eq!(monitor.poll().len(), 1);
        assert_eq!(monitor.edge("a", "b").unwrap().requests, 1);
    }

    #[test]
    fn unknown_edge_is_none_and_serde_round_trips() {
        let store = EventStore::shared();
        let monitor = HealthMonitor::new(Arc::clone(&store), DEFAULT_HEALTH_WINDOW);
        assert!(monitor.edge("x", "y").is_none());
        store.record_event(request(sec(0)));
        monitor.poll();
        let matrix = monitor.snapshot();
        let json = serde_json::to_string(&matrix).unwrap();
        let back: Vec<EdgeHealth> = serde_json::from_str(&json).unwrap();
        assert_eq!(matrix, back);
    }

    #[test]
    fn degenerate_windows_yield_zero_not_nan() {
        // Requests with no responses: error rate and percentiles are
        // 0.0/0, not NaN.
        let store = EventStore::shared();
        let monitor = HealthMonitor::new(Arc::clone(&store), Duration::from_secs(5));
        store.record_event(request(sec(0)));
        monitor.poll();
        let edge = monitor.edge("a", "b").unwrap();
        assert_eq!(edge.error_rate, 0.0);
        assert_eq!(edge.p50_us, 0);
        assert_eq!(edge.p99_us, 0);
        assert!(edge.rate_rps.is_finite());

        // Everything pruned out of the window: rates drop to exactly
        // 0.0 while totals persist.
        store.record_event(reply(sec(100), 503, 1));
        monitor.poll();
        let edge = monitor.edge("a", "b").unwrap();
        assert_eq!(edge.requests, 1);
        assert_eq!(edge.rate_rps, 0.0, "zero-request window must be rate 0");

        // A zero-length window never divides by zero.
        let store = EventStore::shared();
        let zero = HealthMonitor::new(Arc::clone(&store), Duration::ZERO);
        store.record_event(request(sec(1)));
        store.record_event(reply(sec(1), 200, 1));
        zero.poll();
        let edge = zero.edge("a", "b").unwrap();
        assert!(edge.rate_rps.is_finite(), "{}", edge.rate_rps);
        assert!(edge.error_rate.is_finite());
    }

    #[test]
    fn monitor_never_runs_store_queries() {
        // The streaming contract: only the tail read, never query().
        let registry = gremlin_telemetry::MetricsRegistry::new();
        let store = EventStore::shared();
        store.enable_telemetry(&registry);
        let monitor = HealthMonitor::new(Arc::clone(&store), DEFAULT_HEALTH_WINDOW);
        store.record_event(request(sec(0)));
        monitor.poll();
        monitor.snapshot();
        let queries = registry
            .snapshot()
            .histogram("gremlin_store_query_seconds", &[])
            .map(|h| h.count())
            .unwrap_or(0);
        assert_eq!(queries, 0, "health monitor must not scan the store");
    }
}
