//! The assertion engine: the paper's Table 3 vocabulary, written once.
//!
//! An [`Assertion`] is a value — the recipe's `monitor:` stanza holds
//! them as JSON — and a [`Fold`] evaluates one over a stream of events:
//! [`Fold::feed`] takes the events one at a time, [`Fold::close`] ends
//! a stretch of them and says what the stretch showed. Both callers are
//! thin:
//!
//! * [`AssertionChecker::check`](crate::AssertionChecker::check)
//!   (batch) feeds one borrowed store read and closes once;
//! * [`LiveMonitor`](crate::LiveMonitor) (live) feeds events as they
//!   arrive and closes once per event-time window.
//!
//! `close` answers `None` when the stretch held nothing the assertion
//! could be judged on — the detail says what was missing. The batch
//! path reports that as a failed, inconclusive check; the live path
//! keeps the assertion's previous verdict (`Pending` until a window
//! has something to say).
//!
//! Latency, rate and error-ratio assertions judge each stretch on its
//! own. The counting and pattern assertions (`AtMostRequests`,
//! `Status*`, `BoundedRetries`, `CircuitBreaker`, `Fallback`) carry
//! their tallies across closes, because a retry storm or an open
//! breaker does not respect window boundaries; where a tally can only
//! grow, `feed` reports the event that broke the budget so the live
//! path can stop the run at once.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use gremlin_store::{Event, KindFilter, Micros, Name, Pattern, Query};
use gremlin_telemetry::percentile;

use crate::graph::AppGraph;

/// One assertion of the checker vocabulary (Table 3 and its
/// extensions). Every variant can be checked post-hoc over the store
/// and watched live per event-time window; the variant docs say what a
/// window means for each.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum Assertion {
    /// `HasLatencySlo`: the `quantile` (exact nearest rank) of
    /// `service`'s reply latencies in each stretch stays at most
    /// `bound`.
    LatencySlo {
        /// Service whose replies (to upstream callers) are measured.
        service: String,
        /// Quantile in `0..=1`, e.g. `0.99`.
        quantile: f64,
        /// Upper bound on the quantile.
        bound: Duration,
    },
    /// `HasTimeouts`: every reply `service` produced in the stretch
    /// arrived within `max_latency`.
    HasTimeouts {
        /// Service whose replies are measured.
        service: String,
        /// Upper bound on the worst reply.
        max_latency: Duration,
    },
    /// The `src -> dst` request rate over each stretch stays at least
    /// `min_rate` requests/second (`HasBulkHead` is this, for every
    /// dependency but the slow one).
    RequestRateAtLeast {
        /// Calling service.
        src: String,
        /// Called service.
        dst: String,
        /// Minimum requests/second.
        min_rate: f64,
    },
    /// The fraction of failed replies (status 0 or 5xx) on
    /// `src -> dst` in each stretch stays at most `max_ratio`.
    ErrorRateAtMost {
        /// Calling service.
        src: String,
        /// Called service.
        dst: String,
        /// Maximum failed fraction in `0..=1`.
        max_ratio: f64,
    },
    /// `AtMostRequests`: at most `max` requests on `src -> dst` per
    /// stretch. Live, a breach is unrecoverable for the run — the
    /// verdict jumps straight to `Violated`.
    AtMostRequests {
        /// Calling service.
        src: String,
        /// Called service.
        dst: String,
        /// Maximum requests allowed in any single stretch.
        max: usize,
    },
    /// `CheckStatus`, lower bound: the run observes at least `count`
    /// replies with `status` on `src -> dst`. Live it stays `Pending`
    /// until satisfied, then flips to `Passing`; it never fails before
    /// the run ends.
    StatusAtLeast {
        /// Calling service.
        src: String,
        /// Called service.
        dst: String,
        /// Status code to match.
        status: u16,
        /// Matches required.
        count: usize,
    },
    /// `CheckStatus`, upper bound: the run observes at most `max`
    /// replies with `status` on `src -> dst`, cumulatively. Live,
    /// exceeding the budget is unrecoverable — straight to `Violated`.
    StatusAtMost {
        /// Calling service.
        src: String,
        /// Called service.
        dst: String,
        /// Status code to match.
        status: u16,
        /// Maximum matches allowed over the whole run.
        max: usize,
    },
    /// Threshold-free: the `src -> dst` edge must stay
    /// [`EdgeState::Nominal`](crate::EdgeState::Nominal) against its
    /// learned baseline. Judged by the live monitor's anomaly scorer
    /// ([`MonitorSpec::anomaly`](crate::MonitorSpec::anomaly)), never
    /// by the fold: `Suspect` windows are `Failing`, a confirmed
    /// `Anomalous` edge is `Violated`, and a batch check is
    /// inconclusive.
    AnomalousEdge {
        /// Calling service.
        src: String,
        /// Called service.
        dst: String,
    },
    /// `HasBoundedRetries`: every flow (request ID) that saw a failed
    /// reply on `src -> dst` holds at most `max_tries` requests there.
    /// Inconclusive until a reply fails. Live, a flow past its budget
    /// is unrecoverable.
    BoundedRetries {
        /// Calling service.
        src: String,
        /// Called service.
        dst: String,
        /// Attempts allowed per failing flow.
        max_tries: usize,
    },
    /// `HasCircuitBreaker`: after the `threshold`-th failed reply,
    /// `src` sends `dst` nothing for `tdelta`; traffic may resume
    /// afterwards. Inconclusive until the breaker is challenged. Live,
    /// a call inside the open window is unrecoverable.
    CircuitBreaker {
        /// Calling service.
        src: String,
        /// Called service.
        dst: String,
        /// Failed replies that must trip the breaker.
        threshold: usize,
        /// How long the breaker must stay open.
        tdelta: Duration,
        /// Probe successes expected to close it again (reported, not
        /// judged).
        success_threshold: usize,
    },
    /// `HasFallback`: every failed reply from `primary` belongs to a
    /// flow in which `src` also called `secondary`. Inconclusive until
    /// a primary call fails.
    Fallback {
        /// Calling service.
        src: String,
        /// The dependency that fails.
        primary: String,
        /// The dependency `src` must fall back to.
        secondary: String,
    },
}

impl fmt::Display for Assertion {
    /// `{}` is the name a batch [`Check`](crate::Check) carries;
    /// `{:#}` is the `Live…` name of the same assertion under a
    /// monitor.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let live = if f.alternate() { "Live" } else { "" };
        match self {
            Assertion::LatencySlo {
                service,
                quantile,
                bound,
            } => write!(
                f,
                "{}LatencySlo({service}, p{:.0} <= {bound:?})",
                if f.alternate() { "Live" } else { "Has" },
                quantile * 100.0
            ),
            Assertion::HasTimeouts {
                service,
                max_latency,
            } => write!(f, "{live}HasTimeouts({service}, {max_latency:?})"),
            Assertion::RequestRateAtLeast { src, dst, min_rate } => {
                write!(f, "{live}RequestRate({src}, {dst}, >= {min_rate} req/s)")
            }
            Assertion::ErrorRateAtMost {
                src,
                dst,
                max_ratio,
            } => write!(f, "{live}ErrorRate({src}, {dst}, <= {max_ratio})"),
            Assertion::AtMostRequests { src, dst, max } => {
                write!(f, "{live}AtMostRequests({src}, {dst}, {max})")
            }
            Assertion::StatusAtLeast {
                src,
                dst,
                status,
                count,
            } => write!(f, "{live}StatusAtLeast({src}, {dst}, {status} x{count})"),
            Assertion::StatusAtMost {
                src,
                dst,
                status,
                max,
            } => write!(f, "{live}StatusAtMost({src}, {dst}, {status} <= {max})"),
            Assertion::AnomalousEdge { src, dst } => {
                write!(f, "{live}AnomalousEdge({src} -> {dst})")
            }
            Assertion::BoundedRetries {
                src,
                dst,
                max_tries,
            } => write!(f, "{live}HasBoundedRetries({src}, {dst}, {max_tries})"),
            Assertion::CircuitBreaker {
                src,
                dst,
                threshold,
                tdelta,
                ..
            } => write!(
                f,
                "{live}HasCircuitBreaker({src}, {dst}, {threshold}, {tdelta:?})"
            ),
            Assertion::Fallback {
                src,
                primary,
                secondary,
            } => write!(f, "{live}HasFallback({src}, {primary} -> {secondary})"),
        }
    }
}

/// Which part of the traffic an assertion is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope<'a> {
    /// The `src -> dst` edge.
    Edge(&'a str, &'a str),
    /// What the service answers its upstream callers.
    Service(&'a str),
    /// Every call the service makes.
    Caller(&'a str),
}

impl Scope<'_> {
    /// The graph edges a recipe asserting over this scope lays claim
    /// to, for wave planning: the edge itself, or — for a service —
    /// every edge touching it, in either direction.
    pub fn edges(&self, graph: &AppGraph) -> Vec<(String, String)> {
        match *self {
            Scope::Edge(src, dst) => vec![(src.to_string(), dst.to_string())],
            Scope::Service(name) | Scope::Caller(name) => graph
                .edges()
                .into_iter()
                .filter(|(src, dst)| src == name || dst == name)
                .collect(),
        }
    }
}

impl Assertion {
    /// The traffic this assertion is about.
    pub fn scope(&self) -> Scope<'_> {
        match self {
            Assertion::LatencySlo { service, .. } | Assertion::HasTimeouts { service, .. } => {
                Scope::Service(service)
            }
            Assertion::RequestRateAtLeast { src, dst, .. }
            | Assertion::ErrorRateAtMost { src, dst, .. }
            | Assertion::AtMostRequests { src, dst, .. }
            | Assertion::StatusAtLeast { src, dst, .. }
            | Assertion::StatusAtMost { src, dst, .. }
            | Assertion::AnomalousEdge { src, dst }
            | Assertion::BoundedRetries { src, dst, .. }
            | Assertion::CircuitBreaker { src, dst, .. } => Scope::Edge(src, dst),
            Assertion::Fallback { src, .. } => Scope::Caller(src),
        }
    }

    /// The store read a batch check of this assertion folds over:
    /// its scope, for flows whose request ID matches `pattern`. The
    /// query only narrows the read ([`Fold::feed`] ignores what is not
    /// its business), except that a rate is measured over the requests
    /// alone — the span of the read is the rate's divisor.
    pub fn query(&self, pattern: &Pattern) -> Query {
        let (src, dst, kind) = match (self.scope(), self) {
            (Scope::Edge(src, dst), Assertion::RequestRateAtLeast { .. }) => {
                (Some(src), Some(dst), KindFilter::Requests)
            }
            (Scope::Edge(src, dst), _) => (Some(src), Some(dst), KindFilter::All),
            (Scope::Service(service), _) => (None, Some(service), KindFilter::Replies),
            (Scope::Caller(src), _) => (Some(src), None, KindFilter::All),
        };
        Query {
            src: src.map(str::to_string),
            dst: dst.map(str::to_string),
            kind,
            id_pattern: Some(pattern.clone()),
            ..Query::default()
        }
    }
}

fn on_edge(event: &Event, src: &str, dst: &str) -> bool {
    event.src.as_str() == src && event.dst.as_str() == dst
}

/// A failed reply: a 5xx, or status 0 for a TCP-level failure.
fn failed(event: &Event) -> bool {
    matches!(event.status(), Some(status) if status == 0 || (500..600).contains(&status))
}

/// One assertion under evaluation: the value, and what its fold has
/// seen so far.
#[derive(Debug)]
pub struct Fold {
    assertion: Assertion,
    // Since the last close:
    /// Reply latencies, in arrival order.
    latencies: Vec<Duration>,
    requests: usize,
    replies: usize,
    errors: usize,
    // Since the fold began (the counting and pattern assertions):
    /// Events in scope.
    seen: usize,
    /// Replies carrying the asserted status; failed replies up to the
    /// trip, for the breaker.
    matches: usize,
    /// Per request ID: `(requests, failed replies)` on the edge for
    /// `BoundedRetries`, `(failed primary replies, fallback calls)` for
    /// `Fallback`. Ordered, so reports name the same flow every time.
    flows: BTreeMap<Name, (usize, usize)>,
    /// When the breaker's `threshold`-th failure arrived.
    tripped_at: Option<Micros>,
    /// Calls after the trip: inside the open window, and after it.
    calls: (usize, usize),
}

impl Fold {
    /// A fold of `assertion` that has seen nothing yet.
    pub fn new(assertion: Assertion) -> Fold {
        Fold {
            assertion,
            latencies: Vec::new(),
            requests: 0,
            replies: 0,
            errors: 0,
            seen: 0,
            matches: 0,
            flows: BTreeMap::new(),
            tripped_at: None,
            calls: (0, 0),
        }
    }

    /// The assertion being evaluated.
    pub fn assertion(&self) -> &Assertion {
        &self.assertion
    }

    /// Folds one event in; events outside the assertion's scope are
    /// ignored. Returns `Some(detail)` when this event breaks a budget
    /// no later event can restore — the live path's signal to declare
    /// the assertion violated without waiting for a window to close.
    /// [`Fold::close`] reaches the same verdict on its own, so a batch
    /// caller may ignore the signal.
    pub fn feed(&mut self, event: &Event) -> Option<String> {
        match &self.assertion {
            Assertion::LatencySlo { service, .. } | Assertion::HasTimeouts { service, .. } => {
                if event.dst.as_str() == service {
                    self.latencies.extend(event.observed_latency());
                }
            }
            Assertion::RequestRateAtLeast { src, dst, .. } => {
                if event.kind.is_request() && on_edge(event, src, dst) {
                    self.requests += 1;
                }
            }
            Assertion::ErrorRateAtMost { src, dst, .. } => {
                if event.kind.is_response() && on_edge(event, src, dst) {
                    self.replies += 1;
                    self.errors += usize::from(failed(event));
                }
            }
            Assertion::AtMostRequests { src, dst, max } => {
                if event.kind.is_request() && on_edge(event, src, dst) {
                    self.requests += 1;
                    let sent = self.requests;
                    return (sent > *max).then(|| {
                        format!("{sent} request(s) in the window exceeds the budget of {max}")
                    });
                }
            }
            Assertion::StatusAtLeast {
                src, dst, status, ..
            } => {
                if on_edge(event, src, dst) && event.status() == Some(*status) {
                    self.matches += 1;
                }
            }
            Assertion::StatusAtMost {
                src,
                dst,
                status,
                max,
            } => {
                if on_edge(event, src, dst) && event.status() == Some(*status) {
                    self.matches += 1;
                    let matched = self.matches;
                    return (matched > *max).then(|| {
                        format!("{matched} replies with the status exceeds the budget of {max}")
                    });
                }
            }
            // The anomaly scorer observes the event stream itself.
            Assertion::AnomalousEdge { .. } => {}
            Assertion::BoundedRetries {
                src,
                dst,
                max_tries,
            } => {
                if on_edge(event, src, dst) {
                    self.seen += 1;
                    // Retries of one call share its request ID (§4.1).
                    if let Some(id) = &event.request_id {
                        let (requests, failures) = self.flows.entry(id.clone()).or_default();
                        *requests += usize::from(event.kind.is_request());
                        *failures += usize::from(failed(event));
                        return (*failures > 0 && *requests > *max_tries).then(|| {
                            format!(
                                "failing flow {id} sent {requests} request(s) (budget {max_tries})"
                            )
                        });
                    }
                }
            }
            Assertion::CircuitBreaker {
                src,
                dst,
                threshold,
                tdelta,
                ..
            } => {
                if on_edge(event, src, dst) {
                    self.seen += 1;
                    let at = event.timestamp_us;
                    match self.tripped_at {
                        None if failed(event) => {
                            self.matches += 1;
                            self.tripped_at = (self.matches == *threshold).then_some(at);
                        }
                        Some(tripped) if event.kind.is_request() => {
                            if at >= tripped.saturating_add(tdelta.as_micros() as Micros) {
                                self.calls.1 += 1;
                            } else if at > tripped {
                                self.calls.0 += 1;
                                let late = at - tripped;
                                return Some(format!(
                                    "call {late}us into the {tdelta:?} open window"
                                ));
                            }
                        }
                        _ => {}
                    }
                }
            }
            Assertion::Fallback {
                src,
                primary,
                secondary,
            } => {
                if let Some(id) = &event.request_id {
                    if failed(event) && on_edge(event, src, primary) {
                        self.flows.entry(id.clone()).or_default().0 += 1;
                    } else if event.kind.is_request() && on_edge(event, src, secondary) {
                        self.flows.entry(id.clone()).or_default().1 += 1;
                    }
                }
            }
        }
        None
    }

    /// Ends the stretch of events fed since the last close (or since
    /// the fold began) and judges it: `Some(held)`, or `None` when the
    /// stretch held nothing to judge the assertion on; the detail says
    /// which, in numbers. `span` is the event time the caller covered —
    /// the window length, the covered part of a final partial window,
    /// or last-minus-first timestamp of a batch read — and is what a
    /// rate divides by. The per-stretch tallies start over; the
    /// cumulative ones (see the module docs) carry on.
    pub fn close(&mut self, span: Duration) -> (Option<bool>, String) {
        let (flows, calls, n) = (&self.flows, self.calls, self.latencies.len());
        let (requests, matches) = (self.requests, self.matches);
        let no_replies = || (None, "no replies from the service were observed".into());
        let no_traffic = || (None, "no traffic observed on the edge".into());
        let outcome = match &self.assertion {
            Assertion::LatencySlo {
                quantile, bound, ..
            } => {
                // `percentile` insists on 0..=1: a quantile outside lands
                // on the nearer end, NaN on the minimum.
                let rank = quantile.max(0.0);
                self.latencies.sort_unstable();
                percentile(&self.latencies, rank.min(1.0)).map_or_else(no_replies, |measured| {
                    let pct = quantile * 100.0;
                    let detail = format!("measured p{pct:.0} = {measured:?} over {n} replies");
                    (Some(measured <= *bound), detail)
                })
            }
            Assertion::HasTimeouts { max_latency, .. } => {
                self.latencies.iter().max().map_or_else(no_replies, |max| {
                    let slow = self.latencies.iter().filter(|l| *l > max_latency).count();
                    let detail =
                        format!("{n} replies observed, max latency {max:?}, {slow} over the limit");
                    (Some(slow == 0), detail)
                })
            }
            Assertion::RequestRateAtLeast { dst, min_rate, .. } => {
                // A rate needs a measurable interval: over none it is
                // 0, not an infinity that would satisfy any bound.
                let secs = span.as_micros() as f64 / 1e6;
                let rate = if secs > 0.0 {
                    requests as f64 / secs
                } else {
                    0.0
                };
                (Some(rate >= *min_rate), format!("{dst}: {rate:.1} req/s"))
            }
            Assertion::ErrorRateAtMost { max_ratio, .. } => match self.replies {
                0 => (None, "no replies observed on the edge".into()),
                replies => {
                    let ratio = self.errors as f64 / replies as f64;
                    let detail = format!(
                        "window error rate {ratio:.3} over {replies} replies (max {max_ratio})"
                    );
                    (Some(ratio <= *max_ratio), detail)
                }
            },
            Assertion::AtMostRequests { max, .. } => (
                Some(requests <= *max),
                format!("{requests} request(s) in the window (budget {max})"),
            ),
            // Short of its count only the end of the run can settle it.
            Assertion::StatusAtLeast { count, .. } => (
                (matches >= *count).then_some(true),
                format!("{matches} of {count} required status matches observed"),
            ),
            Assertion::StatusAtMost { max, .. } => (
                Some(matches <= *max),
                format!("{matches} status matches (budget {max})"),
            ),
            Assertion::AnomalousEdge { .. } => (
                None,
                "scored against a learned baseline by a live monitor only".into(),
            ),
            Assertion::BoundedRetries { max_tries, .. } => {
                let failing = || flows.iter().filter(|(_, (_, failures))| *failures > 0);
                // Ties go to the last flow in ID order.
                match failing().max_by_key(|(_, (requests, _))| *requests) {
                    None if self.seen == 0 => no_traffic(),
                    None => (
                        None,
                        "no failed replies observed; retry logic never exercised".into(),
                    ),
                    Some((worst, (most, _))) => {
                        let over = failing().filter(|(_, (sent, _))| sent > max_tries).count();
                        let detail = format!(
                            "{} failing flow(s); worst flow {worst} sent {most} request(s) \
                             (budget {max_tries}); {over} violation(s)",
                            failing().count()
                        );
                        (Some(over == 0), detail)
                    }
                }
            }
            Assertion::CircuitBreaker {
                threshold,
                tdelta,
                success_threshold,
                ..
            } => match self.tripped_at {
                None if self.seen == 0 => no_traffic(),
                None => (
                    None,
                    format!("only {matches} failed replies observed, breaker never challenged"),
                ),
                Some(_) => {
                    let detail = format!(
                        "tripped after {threshold} failures; {} calls during the {tdelta:?} open \
                         window (expected 0); {} calls after (success threshold {success_threshold})",
                        calls.0, calls.1
                    );
                    (Some(calls.0 == 0), detail)
                }
            },
            Assertion::Fallback { secondary, .. } => {
                // Counted per failed reply, as the reports always have.
                let all = || flows.values();
                let failed: usize = all().map(|(failures, _)| failures).sum();
                let lost: usize = all()
                    .filter(|(_, calls)| *calls == 0)
                    .map(|(failures, _)| failures)
                    .sum();
                if failed == 0 {
                    let detail = "no failed primary calls observed; fallback never exercised";
                    (None, detail.into())
                } else {
                    let detail = format!(
                        "{failed} flow(s) saw primary failures; {lost} did not fall back to \
                         {secondary}"
                    );
                    (Some(lost == 0), detail)
                }
            }
        };
        self.latencies.clear();
        self.requests = 0;
        self.replies = 0;
        self.errors = 0;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(src: &str, dst: &str) -> (String, String) {
        (src.to_string(), dst.to_string())
    }

    #[test]
    fn names_come_in_a_batch_and_a_live_form() {
        let slo = Assertion::LatencySlo {
            service: "web".into(),
            quantile: 0.99,
            bound: Duration::from_millis(100),
        };
        assert_eq!(slo.to_string(), "HasLatencySlo(web, p99 <= 100ms)");
        assert_eq!(format!("{slo:#}"), "LiveLatencySlo(web, p99 <= 100ms)");
        let timeouts = Assertion::HasTimeouts {
            service: "web".into(),
            max_latency: Duration::from_secs(1),
        };
        assert_eq!(timeouts.to_string(), "HasTimeouts(web, 1s)");
        assert_eq!(format!("{timeouts:#}"), "LiveHasTimeouts(web, 1s)");
        let errors = Assertion::ErrorRateAtMost {
            src: "a".into(),
            dst: "b".into(),
            max_ratio: 0.05,
        };
        assert_eq!(format!("{errors:#}"), "LiveErrorRate(a, b, <= 0.05)");
    }

    #[test]
    fn scope_yields_the_footprint_and_the_read() {
        let graph = AppGraph::from_edges(vec![("a", "b"), ("b", "c"), ("c", "d")]);
        let rate = Assertion::RequestRateAtLeast {
            src: "a".into(),
            dst: "b".into(),
            min_rate: 1.0,
        };
        assert_eq!(rate.scope().edges(&graph), vec![edge("a", "b")]);
        assert_eq!(
            rate.query(&Pattern::Any),
            Query::requests("a", "b").with_id_pattern(Pattern::Any)
        );
        let timeouts = Assertion::HasTimeouts {
            service: "b".into(),
            max_latency: Duration::from_secs(1),
        };
        assert_eq!(
            timeouts.scope().edges(&graph),
            vec![edge("a", "b"), edge("b", "c")]
        );
        let query = timeouts.query(&Pattern::new("test-*"));
        assert_eq!(
            (query.src, query.dst.as_deref(), query.kind),
            (None, Some("b"), KindFilter::Replies)
        );
        let fallback = Assertion::Fallback {
            src: "b".into(),
            primary: "c".into(),
            secondary: "x".into(),
        };
        assert_eq!(fallback.scope(), Scope::Caller("b"));
        assert_eq!(fallback.query(&Pattern::Any).src.as_deref(), Some("b"));
    }

    #[test]
    fn windowed_tallies_start_over_and_cumulative_ones_carry_on() {
        let request = |ts| {
            Event::request("a", "b", "GET", "/")
                .with_request_id("test-1")
                .with_timestamp(ts)
        };
        let mut budget = Fold::new(Assertion::AtMostRequests {
            src: "a".into(),
            dst: "b".into(),
            max: 1,
        });
        assert_eq!(budget.feed(&request(0)), None);
        assert_eq!(budget.close(Duration::from_secs(1)).0, Some(true));
        // A fresh window has a fresh budget.
        assert_eq!(budget.feed(&request(1)), None);
        assert!(budget.feed(&request(2)).is_some());
        assert_eq!(budget.close(Duration::from_secs(1)).0, Some(false));

        let mut retries = Fold::new(Assertion::BoundedRetries {
            src: "a".into(),
            dst: "b".into(),
            max_tries: 1,
        });
        assert_eq!(retries.feed(&request(0)), None);
        let (outcome, detail) = retries.close(Duration::from_secs(1));
        assert_eq!(outcome, None, "{detail}");
        assert!(detail.contains("never exercised"), "{detail}");
        // The flow's first request is remembered across the close.
        let failure = Event::response("a", "b", 503, Duration::from_millis(1))
            .with_request_id("test-1")
            .with_timestamp(3);
        assert_eq!(retries.feed(&failure), None);
        let breach = retries
            .feed(&request(4))
            .expect("second try of a failing flow");
        assert!(breach.contains("test-1 sent 2 request(s)"), "{breach}");
        assert_eq!(retries.close(Duration::from_secs(1)).0, Some(false));
    }

    #[test]
    fn a_rate_over_no_interval_is_zero() {
        let mut rate = Fold::new(Assertion::RequestRateAtLeast {
            src: "a".into(),
            dst: "b".into(),
            min_rate: 1.0,
        });
        rate.feed(&Event::request("a", "b", "GET", "/"));
        assert_eq!(
            rate.close(Duration::ZERO),
            (Some(false), "b: 0.0 req/s".into())
        );
    }

    #[test]
    fn wire_format_of_the_new_variants() {
        let breaker = Assertion::CircuitBreaker {
            src: "a".into(),
            dst: "b".into(),
            threshold: 5,
            tdelta: Duration::from_secs(30),
            success_threshold: 1,
        };
        let json = serde_json::to_string(&breaker).unwrap();
        assert!(
            json.starts_with(r#"{"kind":"circuit_breaker","src":"a""#),
            "{json}"
        );
        assert_eq!(serde_json::from_str::<Assertion>(&json).unwrap(), breaker);
        let parsed: Assertion =
            serde_json::from_str(r#"{"kind":"bounded_retries","src":"a","dst":"b","max_tries":3}"#)
                .unwrap();
        assert_eq!(parsed.to_string(), "HasBoundedRetries(a, b, 3)");
        let parsed: Assertion = serde_json::from_str(
            r#"{"kind":"fallback","src":"web","primary":"es","secondary":"mysql"}"#,
        )
        .unwrap();
        assert_eq!(parsed.to_string(), "HasFallback(web, es -> mysql)");
    }
}
