//! The Assertion Checker (paper §4.2, Table 3): queries over the
//! central observation store, composable base assertions, and the
//! built-in resiliency-pattern checks.
//!
//! ## The `withRule` parameter
//!
//! The paper's queries take a boolean `withRule` selecting whether
//! Gremlin's own actions are part of the picture. This crate encodes
//! the two readings as [`View`]:
//!
//! * [`View::Observed`] (`withRule = true`) — events exactly as the
//!   calling service experienced them: injected delays included in
//!   latencies, synthesized error responses counted.
//! * [`View::Untampered`] (`withRule = false`) — the callee's genuine
//!   behaviour: injected delays subtracted from latencies, and
//!   Gremlin-synthesized responses (aborts) excluded.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use gremlin_store::{Event, EventStore, Micros, Pattern, Query};

use crate::assertion::{Assertion, Fold};
use crate::graph::AppGraph;

/// Which view of the observations an assertion computes over (the
/// paper's `withRule` boolean — see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum View {
    /// `withRule = true`: as the caller observed, Gremlin effects
    /// included.
    Observed,
    /// `withRule = false`: the callee's untampered behaviour.
    Untampered,
}

impl View {
    /// Should `event` be counted under this view?
    fn counts(&self, event: &Event) -> bool {
        match self {
            View::Observed => true,
            View::Untampered => {
                // Synthesized responses never came from the callee.
                !matches!(
                    event.fault,
                    Some(gremlin_store::AppliedFault::Abort { .. })
                        | Some(gremlin_store::AppliedFault::AbortReset)
                )
            }
        }
    }

    /// The latency of a response event under this view.
    fn latency(&self, event: &Event) -> Option<Duration> {
        match self {
            View::Observed => event.observed_latency(),
            View::Untampered => event.untampered_latency(),
        }
    }
}

/// The result of one assertion or pattern check, for recipe reports.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Check {
    /// Human-readable name, e.g. `HasBoundedRetries(web, db, 5)`.
    pub name: String,
    /// Whether the expectation held.
    pub passed: bool,
    /// Supporting detail (counts, latencies, the failing position).
    pub details: String,
}

impl Check {
    fn new(name: impl Into<String>, passed: bool, details: impl Into<String>) -> Check {
        Check {
            name: name.into(),
            passed,
            details: details.into(),
        }
    }
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} — {}",
            if self.passed { "PASS" } else { "FAIL" },
            self.name,
            self.details
        )
    }
}

// ---------------------------------------------------------------------------
// Base assertions over event lists (RLists)
// ---------------------------------------------------------------------------

/// Counts request events in `rlist`, optionally limited to a time
/// window of `tdelta` anchored at the list's first event
/// (`NumRequests` in Table 3).
pub fn num_requests(rlist: &[Event], tdelta: Option<Duration>, view: View) -> usize {
    let Some(first) = rlist.first() else {
        return 0;
    };
    let cutoff: Option<Micros> = tdelta.map(|delta| {
        first
            .timestamp_us
            .saturating_add(delta.as_micros() as Micros)
    });
    rlist
        .iter()
        .filter(|event| event.kind.is_request())
        .filter(|event| view.counts(event))
        .filter(|event| match cutoff {
            Some(cutoff) => event.timestamp_us < cutoff,
            None => true,
        })
        .count()
}

/// The latency of every response event in `rlist` under `view`
/// (`ReplyLatency` in Table 3).
pub fn reply_latency(rlist: &[Event], view: View) -> Vec<Duration> {
    rlist
        .iter()
        .filter(|event| view.counts(event))
        .filter_map(|event| view.latency(event))
        .collect()
}

/// `AtMostRequests` (Table 3): at most `num` requests within `tdelta`
/// of the list's first event.
pub fn at_most_requests(rlist: &[Event], tdelta: Duration, view: View, num: usize) -> bool {
    num_requests(rlist, Some(tdelta), view) <= num
}

/// `CheckStatus` (Table 3): at least `num_match` responses in `rlist`
/// carry `status`.
pub fn check_status(rlist: &[Event], status: u16, num_match: usize, view: View) -> bool {
    rlist
        .iter()
        .filter(|event| view.counts(event))
        .filter(|event| event.status() == Some(status))
        .count()
        >= num_match
}

/// `RequestRate` (Table 3): requests per second across the span of
/// `rlist`. Returns 0.0 for empty lists and for degenerate spans
/// (a single event, or all events sharing one timestamp) — a rate
/// needs a measurable interval, and guarding the divide keeps
/// downstream comparisons (`rate >= min_rate`) conservative instead
/// of vacuously infinite.
pub fn request_rate(rlist: &[Event]) -> f64 {
    let requests = rlist.iter().filter(|e| e.kind.is_request()).count();
    if requests == 0 {
        return 0.0;
    }
    let first = rlist.iter().map(|e| e.timestamp_us).min().unwrap_or(0);
    let last = rlist.iter().map(|e| e.timestamp_us).max().unwrap_or(0);
    let span_secs = last.saturating_sub(first) as f64 / 1e6;
    if span_secs <= 0.0 {
        return 0.0;
    }
    requests as f64 / span_secs
}

/// One step of a [`combine`] chain.
#[derive(Debug, Clone, PartialEq)]
pub enum CombineStep {
    /// Consume events up to and including the `num_match`-th response
    /// with `status`; fails if fewer occur.
    CheckStatus {
        /// Status code to match.
        status: u16,
        /// Matches required.
        num_match: usize,
        /// View to count under.
        view: View,
    },
    /// Over the window `tdelta` from the first remaining event: at
    /// most `num` requests. Consumes every event in the window.
    AtMostRequests {
        /// Window length.
        tdelta: Duration,
        /// View to count under.
        view: View,
        /// Maximum allowed requests.
        num: usize,
    },
    /// Over the window `tdelta` from the first remaining event: at
    /// least `num` requests. Consumes every event in the window.
    AtLeastRequests {
        /// Window length.
        tdelta: Duration,
        /// View to count under.
        view: View,
        /// Minimum required requests.
        num: usize,
    },
}

impl CombineStep {
    /// Evaluates the step on `events`, returning how many leading
    /// events it consumed, or `None` if the step's condition failed.
    fn consume(&self, events: &[Event]) -> Option<usize> {
        match self {
            CombineStep::CheckStatus {
                status,
                num_match,
                view,
            } => {
                if *num_match == 0 {
                    return Some(0);
                }
                let mut seen = 0;
                for (index, event) in events.iter().enumerate() {
                    if view.counts(event) && event.status() == Some(*status) {
                        seen += 1;
                        if seen == *num_match {
                            return Some(index + 1);
                        }
                    }
                }
                None
            }
            CombineStep::AtMostRequests { tdelta, view, num } => {
                let (count, consumed) = window_requests(events, *tdelta, *view);
                (count <= *num).then_some(consumed)
            }
            CombineStep::AtLeastRequests { tdelta, view, num } => {
                let (count, consumed) = window_requests(events, *tdelta, *view);
                (count >= *num).then_some(consumed)
            }
        }
    }
}

/// Counts requests in the `tdelta` window anchored at `events[0]`,
/// returning `(count, events_in_window)`.
fn window_requests(events: &[Event], tdelta: Duration, view: View) -> (usize, usize) {
    let Some(first) = events.first() else {
        return (0, 0);
    };
    let cutoff = first
        .timestamp_us
        .saturating_add(tdelta.as_micros() as Micros);
    let mut count = 0;
    let mut consumed = 0;
    for event in events {
        if event.timestamp_us >= cutoff {
            break;
        }
        consumed += 1;
        if event.kind.is_request() && view.counts(event) {
            count += 1;
        }
    }
    (count, consumed)
}

/// `Combine` (Table 3): evaluates `steps` as a state machine over
/// `rlist`. Each satisfied step consumes the events that made it
/// true before handing the remainder to the next step; the chain
/// fails at the first unsatisfied step.
pub fn combine(rlist: &[Event], steps: &[CombineStep]) -> bool {
    let mut remaining = rlist;
    for step in steps {
        match step.consume(remaining) {
            Some(consumed) => remaining = &remaining[consumed..],
            None => return false,
        }
    }
    true
}

// ---------------------------------------------------------------------------
// The checker: queries + pattern checks
// ---------------------------------------------------------------------------

/// Validates recipe assertions against the central observation store.
#[derive(Debug, Clone)]
pub struct AssertionChecker {
    store: Arc<EventStore>,
}

impl AssertionChecker {
    /// Creates a checker reading from `store`.
    pub fn new(store: Arc<EventStore>) -> AssertionChecker {
        AssertionChecker { store }
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<EventStore> {
        &self.store
    }

    /// `GetRequests(Src, Dst, ID)` — requests on the edge, filtered
    /// by request-ID pattern, sorted by time.
    pub fn get_requests(&self, src: &str, dst: &str, pattern: &Pattern) -> Vec<Event> {
        self.store
            .query(&Query::requests(src, dst).with_id_pattern(pattern.clone()))
    }

    /// `GetReplies(Src, Dst, ID)` — replies on the edge, filtered by
    /// request-ID pattern, sorted by time.
    pub fn get_replies(&self, src: &str, dst: &str, pattern: &Pattern) -> Vec<Event> {
        self.store
            .query(&Query::replies(src, dst).with_id_pattern(pattern.clone()))
    }

    /// Both directions of the edge interleaved by time — the list
    /// shape `Combine` chains operate over.
    pub fn get_edge_events(&self, src: &str, dst: &str, pattern: &Pattern) -> Vec<Event> {
        self.store
            .query(&Query::edge(src, dst).with_id_pattern(pattern.clone()))
    }

    /// Checks `assertion` over the flows matching `pattern`: one
    /// borrowed read of the assertion's scope, fed to its
    /// [`Fold`] event by event and closed once — a live monitor's
    /// window that happens to cover the whole log. The read's span,
    /// last timestamp minus first, is what a rate is measured over. A
    /// read with nothing to judge the assertion on is inconclusive and
    /// fails, the detail saying what was missing.
    pub fn check(&self, assertion: &Assertion, pattern: &Pattern) -> Check {
        let mut fold = Fold::new(assertion.clone());
        let (held, details) = self.store.read(&assertion.query(pattern), |events| {
            for event in events {
                fold.feed(event);
            }
            let span = match (events.first(), events.last()) {
                (Some(first), Some(last)) => last.timestamp_us - first.timestamp_us,
                _ => 0,
            };
            fold.close(Duration::from_micros(span))
        });
        Check::new(assertion.to_string(), held == Some(true), details)
    }

    /// `HasTimeouts(Src, MaxLatency)` (Table 3): every reply `src`
    /// produced for its upstream callers arrived within
    /// `max_latency`.
    ///
    /// Requires the deployment to observe inbound traffic of `src`
    /// (e.g. via an ingress agent for edge services).
    pub fn has_timeouts(&self, src: &str, max_latency: Duration, pattern: &Pattern) -> Check {
        let service = src.to_string();
        let assertion = Assertion::HasTimeouts {
            service,
            max_latency,
        };
        self.check(&assertion, pattern)
    }

    /// `HasBoundedRetries(Src, Dst, MaxTries)` (Table 3): when a call
    /// from `src` to `dst` fails, `src` issues at most `max_tries`
    /// attempts for that call.
    ///
    /// Because retries of one API call all carry the same propagated
    /// request ID (§4.1), the check groups edge traffic by ID: every
    /// flow that observed at least one failed reply (5xx or
    /// TCP-level) must contain at most `max_tries` requests. Flows
    /// without failures are ignored. The check is inconclusive
    /// (fails) when no failures were observed at all — the retry
    /// logic was never exercised.
    ///
    /// The paper's §4.2 sketch — an aggregate
    /// `Combine(CheckStatus(…), AtMostRequests(…))` chain, meaningful
    /// when a single test flow is evaluated per window — is spelled
    /// with [`combine`] and [`CombineStep`] over
    /// [`AssertionChecker::get_edge_events`].
    pub fn has_bounded_retries(
        &self,
        src: &str,
        dst: &str,
        max_tries: usize,
        pattern: &Pattern,
    ) -> Check {
        let (src, dst) = (src.to_string(), dst.to_string());
        let assertion = Assertion::BoundedRetries {
            src,
            dst,
            max_tries,
        };
        self.check(&assertion, pattern)
    }

    /// `HasCircuitBreaker(Src, Dst, Threshold, Tdelta,
    /// SuccessThreshold)` (Table 3): after `threshold` failed replies,
    /// `src` stops calling `dst` for `tdelta`; traffic may resume
    /// afterwards (probes / close).
    pub fn has_circuit_breaker(
        &self,
        src: &str,
        dst: &str,
        threshold: usize,
        tdelta: Duration,
        success_threshold: usize,
        pattern: &Pattern,
    ) -> Check {
        let assertion = Assertion::CircuitBreaker {
            src: src.to_string(),
            dst: dst.to_string(),
            threshold,
            tdelta,
            success_threshold,
        };
        self.check(&assertion, pattern)
    }

    /// `HasLatencySlo(Service, Quantile, Bound)` — an extension
    /// check: the `quantile` (0..=1) of the service's reply latencies
    /// to its upstream callers is at most `bound`. Where
    /// [`AssertionChecker::has_timeouts`] bounds the worst case, this
    /// bounds a percentile — the form production SLOs take.
    pub fn has_latency_slo(
        &self,
        service: &str,
        quantile: f64,
        bound: Duration,
        pattern: &Pattern,
    ) -> Check {
        let assertion = Assertion::LatencySlo {
            service: service.to_string(),
            quantile,
            bound,
        };
        self.check(&assertion, pattern)
    }

    /// `HasFallback(Src, Primary, Secondary)` — an extension check
    /// for the graceful-degradation pattern the WordPress case study
    /// exercises (§7.1): every flow in which `src`'s call to
    /// `primary` failed must also contain a call from `src` to
    /// `secondary` (the fallback). Inconclusive (fails) when no
    /// primary failures were observed.
    pub fn has_fallback(
        &self,
        src: &str,
        primary: &str,
        secondary: &str,
        pattern: &Pattern,
    ) -> Check {
        let assertion = Assertion::Fallback {
            src: src.to_string(),
            primary: primary.to_string(),
            secondary: secondary.to_string(),
        };
        self.check(&assertion, pattern)
    }

    /// `HasBulkHead(Src, SlowDst, Rate)` (Table 3): while `slow_dst`
    /// is degraded, `src` keeps calling each of its *other*
    /// dependencies (from `graph`) at a rate of at least
    /// `min_rate` requests/second — one
    /// [`Assertion::RequestRateAtLeast`] per other dependency, all of
    /// which must hold.
    pub fn has_bulkhead(
        &self,
        graph: &AppGraph,
        src: &str,
        slow_dst: &str,
        min_rate: f64,
        pattern: &Pattern,
    ) -> Check {
        let name = format!("HasBulkHead({src}, {slow_dst}, {min_rate} req/s)");
        let others: Vec<Check> = graph
            .dependencies(src)
            .into_iter()
            .filter(|dst| dst != slow_dst)
            .map(|dst| {
                let src = src.to_string();
                self.check(
                    &Assertion::RequestRateAtLeast { src, dst, min_rate },
                    pattern,
                )
            })
            .collect();
        if others.is_empty() {
            return Check::new(name, false, "service has no other dependencies to protect");
        }
        let details: Vec<&str> = others.iter().map(|check| check.details.as_str()).collect();
        Check::new(
            name,
            others.iter().all(|check| check.passed),
            details.join(", "),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gremlin_store::AppliedFault;

    fn request(src: &str, dst: &str, ts: Micros) -> Event {
        Event::request(src, dst, "GET", "/")
            .with_request_id("test-1")
            .with_timestamp(ts)
    }

    fn reply(src: &str, dst: &str, status: u16, ts: Micros, latency_ms: u64) -> Event {
        let mut event = Event::response(src, dst, status, Duration::from_millis(latency_ms))
            .with_request_id("test-1");
        event.timestamp_us = ts;
        event
    }

    fn sec(s: u64) -> Micros {
        s * 1_000_000
    }

    #[test]
    fn num_requests_counts_and_windows() {
        let events = vec![
            request("a", "b", sec(0)),
            reply("a", "b", 200, sec(1), 10),
            request("a", "b", sec(2)),
            request("a", "b", sec(10)),
        ];
        assert_eq!(num_requests(&events, None, View::Observed), 3);
        assert_eq!(
            num_requests(&events, Some(Duration::from_secs(5)), View::Observed),
            2
        );
        assert_eq!(num_requests(&[], None, View::Observed), 0);
    }

    #[test]
    fn views_differ_on_synthesized_replies() {
        let clean = reply("a", "b", 200, sec(0), 10);
        let injected =
            reply("a", "b", 503, sec(1), 1).with_fault(AppliedFault::Abort { status: 503 });
        let events = vec![clean, injected];
        assert!(check_status(&events, 503, 1, View::Observed));
        assert!(!check_status(&events, 503, 1, View::Untampered));
    }

    #[test]
    fn reply_latency_subtracts_injected_delay_in_untampered_view() {
        let delayed =
            reply("a", "b", 200, sec(0), 150).with_fault(AppliedFault::Delay { delay_us: 100_000 });
        let observed = reply_latency(std::slice::from_ref(&delayed), View::Observed);
        let untampered = reply_latency(std::slice::from_ref(&delayed), View::Untampered);
        assert_eq!(observed, vec![Duration::from_millis(150)]);
        assert_eq!(untampered, vec![Duration::from_millis(50)]);
    }

    #[test]
    fn request_rate_computation() {
        let events = vec![
            request("a", "b", sec(0)),
            request("a", "b", sec(1)),
            request("a", "b", sec(2)),
        ];
        let rate = request_rate(&events);
        assert!(
            (rate - 1.5).abs() < 1e-9,
            "3 requests over 2s = 1.5/s, got {rate}"
        );
        assert_eq!(request_rate(&[]), 0.0);
    }

    #[test]
    fn request_rate_zero_span_is_zero_not_infinite() {
        // A single event (or several sharing one timestamp) spans no
        // measurable interval: the rate is 0.0, not a divide-by-zero
        // infinity that would vacuously satisfy any minimum-rate bound.
        assert_eq!(request_rate(&[request("a", "b", sec(0))]), 0.0);
        assert_eq!(
            request_rate(&[request("a", "b", sec(3)), request("a", "b", sec(3))]),
            0.0
        );
    }

    #[test]
    fn reply_latency_tolerates_out_of_order_timestamps() {
        // Latencies come from the events' own latency fields, never
        // from subtracting adjacent timestamps, so a reply logged
        // "before" its neighbor (clock skew between agents) must not
        // panic or skew the result.
        let events = vec![
            reply("a", "b", 200, sec(5), 30),
            reply("a", "b", 200, sec(1), 20), // earlier timestamp, later in list
        ];
        let latencies = reply_latency(&events, View::Observed);
        assert_eq!(
            latencies,
            vec![Duration::from_millis(30), Duration::from_millis(20)]
        );
    }

    #[test]
    fn combine_consumes_in_sequence() {
        // 5 error replies, then 3 requests within a minute, then
        // (after the window) more requests.
        let mut events = Vec::new();
        for i in 0..5 {
            events.push(reply("a", "b", 503, sec(i), 1));
        }
        for i in 0..3 {
            events.push(request("a", "b", sec(6 + i)));
        }
        events.push(request("a", "b", sec(120)));

        // Bounded retries with budget 5: passes (3 <= 5).
        assert!(combine(
            &events,
            &[
                CombineStep::CheckStatus {
                    status: 503,
                    num_match: 5,
                    view: View::Observed
                },
                CombineStep::AtMostRequests {
                    tdelta: Duration::from_secs(60),
                    view: View::Observed,
                    num: 5
                },
            ]
        ));
        // Budget 2: fails (3 > 2).
        assert!(!combine(
            &events,
            &[
                CombineStep::CheckStatus {
                    status: 503,
                    num_match: 5,
                    view: View::Observed
                },
                CombineStep::AtMostRequests {
                    tdelta: Duration::from_secs(60),
                    view: View::Observed,
                    num: 2
                },
            ]
        ));
        // Needing 6 errors: the first step itself fails.
        assert!(!combine(
            &events,
            &[CombineStep::CheckStatus {
                status: 503,
                num_match: 6,
                view: View::Observed
            }]
        ));
    }

    #[test]
    fn combine_discards_consumed_events() {
        // CheckStatus must consume through its last match so the
        // window of the next step starts *after* the failures.
        let events = vec![
            reply("a", "b", 503, sec(0), 1),
            request("a", "b", sec(1)),
            reply("a", "b", 503, sec(2), 1),
            request("a", "b", sec(3)),
        ];
        // After consuming through the second 503 (index 2), only the
        // final request remains: count 1.
        assert!(combine(
            &events,
            &[
                CombineStep::CheckStatus {
                    status: 503,
                    num_match: 2,
                    view: View::Observed
                },
                CombineStep::AtMostRequests {
                    tdelta: Duration::from_secs(60),
                    view: View::Observed,
                    num: 1
                },
            ]
        ));
        assert!(!combine(
            &events,
            &[
                CombineStep::CheckStatus {
                    status: 503,
                    num_match: 2,
                    view: View::Observed
                },
                CombineStep::AtMostRequests {
                    tdelta: Duration::from_secs(60),
                    view: View::Observed,
                    num: 0
                },
            ]
        ));
    }

    #[test]
    fn at_least_requests_step() {
        let events = vec![request("a", "b", sec(0)), request("a", "b", sec(1))];
        assert!(combine(
            &events,
            &[CombineStep::AtLeastRequests {
                tdelta: Duration::from_secs(60),
                view: View::Observed,
                num: 2
            }]
        ));
        assert!(!combine(
            &events,
            &[CombineStep::AtLeastRequests {
                tdelta: Duration::from_secs(60),
                view: View::Observed,
                num: 3
            }]
        ));
    }

    fn store_with(events: Vec<Event>) -> AssertionChecker {
        let store = EventStore::shared();
        store.extend(events);
        AssertionChecker::new(store)
    }

    #[test]
    fn has_timeouts_passes_fast_replies() {
        let checker = store_with(vec![
            reply("user", "web", 200, sec(0), 50),
            reply("user", "web", 200, sec(1), 80),
        ]);
        let check = checker.has_timeouts("web", Duration::from_millis(100), &Pattern::Any);
        assert!(check.passed, "{check}");
    }

    #[test]
    fn has_timeouts_fails_slow_replies() {
        let checker = store_with(vec![
            reply("user", "web", 200, sec(0), 50),
            reply("user", "web", 200, sec(1), 2500),
        ]);
        let check = checker.has_timeouts("web", Duration::from_secs(1), &Pattern::Any);
        assert!(!check.passed, "{check}");
        assert!(check.details.contains("1 over the limit"));
    }

    #[test]
    fn has_timeouts_fails_without_observations() {
        let checker = store_with(vec![]);
        assert!(
            !checker
                .has_timeouts("web", Duration::from_secs(1), &Pattern::Any)
                .passed
        );
    }

    #[test]
    fn has_bounded_retries_pass_and_fail() {
        // 5 failures then 3 retries within the minute.
        let mut events = Vec::new();
        for i in 0..5 {
            events.push(reply("a", "b", 503, sec(i), 1));
        }
        for i in 0..3 {
            events.push(request("a", "b", sec(10 + i)));
        }
        let checker = store_with(events);
        assert!(
            checker
                .has_bounded_retries("a", "b", 5, &Pattern::Any)
                .passed
        );
        assert!(
            !checker
                .has_bounded_retries("a", "b", 2, &Pattern::Any)
                .passed
        );
    }

    #[test]
    fn has_circuit_breaker_detects_quiet_window() {
        let mut events = Vec::new();
        for i in 0..5 {
            events.push(request("a", "b", sec(i)));
            events.push(reply("a", "b", 503, sec(i) + 100, 1));
        }
        // Silence until sec(70), then traffic resumes.
        events.push(request("a", "b", sec(70)));
        let checker = store_with(events);
        let check =
            checker.has_circuit_breaker("a", "b", 5, Duration::from_secs(60), 1, &Pattern::Any);
        assert!(check.passed, "{check}");
        assert!(check.details.contains("1 calls after"));
    }

    #[test]
    fn has_circuit_breaker_fails_on_calls_during_open_window() {
        let mut events = Vec::new();
        for i in 0..5 {
            events.push(reply("a", "b", 503, sec(i), 1));
        }
        events.push(request("a", "b", sec(10))); // violates the open window
        let checker = store_with(events);
        let check =
            checker.has_circuit_breaker("a", "b", 5, Duration::from_secs(60), 1, &Pattern::Any);
        assert!(!check.passed, "{check}");
    }

    #[test]
    fn has_circuit_breaker_counts_tcp_failures() {
        let mut events = Vec::new();
        for i in 0..3 {
            events.push(reply("a", "b", 0, sec(i), 1));
        }
        let checker = store_with(events);
        let check =
            checker.has_circuit_breaker("a", "b", 3, Duration::from_secs(60), 1, &Pattern::Any);
        assert!(check.passed, "{check}");
    }

    #[test]
    fn has_circuit_breaker_inconclusive_without_enough_failures() {
        let checker = store_with(vec![reply("a", "b", 503, sec(0), 1)]);
        let check =
            checker.has_circuit_breaker("a", "b", 5, Duration::from_secs(60), 1, &Pattern::Any);
        assert!(!check.passed);
        assert!(check.details.contains("never challenged"));
    }

    #[test]
    fn has_latency_slo_bounds_percentile_not_max() {
        // Nine fast replies and one slow straggler: p90 passes a
        // 100ms bound even though the max does not.
        let mut events: Vec<Event> = (0..9)
            .map(|i| reply("user", "web", 200, sec(i), 10))
            .collect();
        events.push(reply("user", "web", 200, sec(9), 5000));
        let checker = store_with(events);
        let slo = checker.has_latency_slo("web", 0.9, Duration::from_millis(100), &Pattern::Any);
        assert!(slo.passed, "{slo}");
        let strict = checker.has_latency_slo("web", 1.0, Duration::from_millis(100), &Pattern::Any);
        assert!(!strict.passed, "{strict}");
        let empty = AssertionChecker::new(EventStore::shared());
        assert!(
            !empty
                .has_latency_slo("web", 0.5, Duration::from_secs(1), &Pattern::Any)
                .passed
        );
    }

    #[test]
    fn has_fallback_detects_missing_fallback() {
        // Flow test-1: primary fails, falls back. Flow test-2:
        // primary fails, no fallback.
        let mut fail_1 = reply("web", "es", 503, sec(0), 1);
        fail_1.request_id = Some("test-1".into());
        let mut fallback_1 = request("web", "mysql", sec(1));
        fallback_1.request_id = Some("test-1".into());
        let mut fail_2 = reply("web", "es", 0, sec(2), 1);
        fail_2.request_id = Some("test-2".into());
        let checker = store_with(vec![fail_1, fallback_1, fail_2]);
        let check = checker.has_fallback("web", "es", "mysql", &Pattern::Any);
        assert!(!check.passed, "{check}");
        assert!(check.details.contains("1 did not fall back"));
    }

    #[test]
    fn has_fallback_passes_when_every_failure_falls_back() {
        let mut fail = reply("web", "es", 503, sec(0), 1);
        fail.request_id = Some("test-1".into());
        let mut fallback = request("web", "mysql", sec(1));
        fallback.request_id = Some("test-1".into());
        let checker = store_with(vec![fail, fallback]);
        assert!(
            checker
                .has_fallback("web", "es", "mysql", &Pattern::Any)
                .passed
        );
    }

    #[test]
    fn has_fallback_inconclusive_without_failures() {
        let ok = reply("web", "es", 200, sec(0), 1);
        let checker = store_with(vec![ok]);
        let check = checker.has_fallback("web", "es", "mysql", &Pattern::Any);
        assert!(!check.passed);
        assert!(check.details.contains("never exercised"));
    }

    #[test]
    fn has_bulkhead_checks_other_dependencies() {
        let graph = AppGraph::from_edges(vec![("a", "slow"), ("a", "fast")]);
        // 11 requests to fast over 1 second -> 10 req/s.
        let mut events = Vec::new();
        for i in 0..=10u64 {
            events.push(request("a", "fast", i * 100_000));
        }
        let checker = store_with(events);
        assert!(
            checker
                .has_bulkhead(&graph, "a", "slow", 5.0, &Pattern::Any)
                .passed
        );
        assert!(
            !checker
                .has_bulkhead(&graph, "a", "slow", 50.0, &Pattern::Any)
                .passed
        );
    }

    #[test]
    fn has_bulkhead_requires_other_dependencies() {
        let graph = AppGraph::from_edges(vec![("a", "slow")]);
        let checker = store_with(vec![]);
        let check = checker.has_bulkhead(&graph, "a", "slow", 1.0, &Pattern::Any);
        assert!(!check.passed);
    }

    #[test]
    fn bulkhead_fails_when_other_dependency_starved() {
        let graph = AppGraph::from_edges(vec![("a", "slow"), ("a", "fast")]);
        let checker = store_with(vec![request("a", "slow", sec(0))]);
        // No traffic at all to "fast": rate 0.
        let check = checker.has_bulkhead(&graph, "a", "slow", 1.0, &Pattern::Any);
        assert!(!check.passed, "{check}");
    }

    #[test]
    fn check_display_format() {
        let check = Check::new("X", true, "fine");
        assert_eq!(check.to_string(), "[PASS] X — fine");
        let check = Check::new("Y", false, "bad");
        assert!(check.to_string().starts_with("[FAIL]"));
    }

    #[test]
    fn queries_filter_by_pattern() {
        let store = EventStore::shared();
        store.record_event(request("a", "b", sec(0)));
        store.record_event(
            Event::request("a", "b", "GET", "/")
                .with_request_id("prod-1")
                .with_timestamp(sec(1)),
        );
        let checker = AssertionChecker::new(store);
        assert_eq!(
            checker
                .get_requests("a", "b", &Pattern::new("test-*"))
                .len(),
            1
        );
        assert_eq!(checker.get_requests("a", "b", &Pattern::Any).len(), 2);
        assert!(checker.get_replies("a", "b", &Pattern::Any).is_empty());
        assert_eq!(checker.get_edge_events("a", "b", &Pattern::Any).len(), 2);
    }
}
