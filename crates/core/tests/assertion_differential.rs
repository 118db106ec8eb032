//! Differential tests for the one assertion engine: on random logs,
//! every `has_*` check reports exactly the `Check` the definition it
//! replaced reported, a batch check is the live monitor's verdict over
//! one window covering the same events, and the `monitor:` wire format
//! is the one earlier recipes were written in.
//!
//! The logs come from a seeded SplitMix64 generator rather than
//! proptest, as in `trace_differential.rs`, so the tests run wherever
//! the crate builds (the offline proptest stand-in is empty).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use gremlin_core::{
    reply_latency, request_rate, AnomalyConfig, AppGraph, AssertionChecker, Check, LiveMonitor,
    MonitorSpec, StreamingAssertion, Verdict, View,
};
use gremlin_store::{AppliedFault, Event, EventStore, KindFilter, Micros, Pattern, Query};

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

const SEEDS: u64 = 600;
const SERVICES: [&str; 4] = ["user", "web", "db", "cache"];
const STATUSES: [u16; 7] = [200, 200, 200, 404, 500, 503, 0];
const LATENCIES_US: [u64; 5] = [1_000, 20_000, 80_000, 150_000, 400_000];

/// A log of up to eight interleaved flows over four services, in
/// shuffled arrival order: flows that hammer one edge (retries) and
/// flows that wander, `test-*` and `prod-*` request IDs, 5xx and
/// status-0 replies, injected `Abort` / `Delay` / reset faults, a coarse
/// clock (timestamp ties between and within flows), lost requests, lost
/// replies, and events that carry no request ID at all. One seed in
/// nine yields an empty log.
fn random_log(rng: &mut SplitMix) -> Vec<Event> {
    let mut events = Vec::new();
    for flow in 0..rng.below(9) {
        let id = format!("{}-{flow}", if rng.chance(70) { "test" } else { "prod" });
        let home = (*rng.pick(&SERVICES), *rng.pick(&SERVICES));
        let mut clock: Micros = rng.below(8) * 250_000;
        for _ in 0..1 + rng.below(8) {
            let (src, dst) = if rng.chance(70) {
                home
            } else {
                (*rng.pick(&SERVICES), *rng.pick(&SERVICES))
            };
            clock += rng.below(4) * 250_000;
            let latency_us = *rng.pick(&LATENCIES_US) + rng.below(3) * 1_000;
            if !rng.chance(10) {
                events.push(
                    Event::request(src, dst, "GET", "/")
                        .with_request_id(id.as_str())
                        .with_timestamp(clock),
                );
            }
            if !rng.chance(15) {
                let (status, fault) = match rng.below(8) {
                    0 => (503, Some(AppliedFault::Abort { status: 503 })),
                    1 => (0, Some(AppliedFault::AbortReset)),
                    2 => (
                        *rng.pick(&STATUSES),
                        Some(AppliedFault::Delay { delay_us: 100_000 }),
                    ),
                    _ => (*rng.pick(&STATUSES), None),
                };
                let observed = if rng.chance(30) {
                    clock
                } else {
                    clock + latency_us
                };
                let mut reply =
                    Event::response(src, dst, status, Duration::from_micros(latency_us))
                        .with_request_id(id.as_str())
                        .with_timestamp(observed);
                reply.fault = fault;
                events.push(reply);
            }
        }
    }
    for _ in 0..rng.below(5) {
        let (src, dst) = (*rng.pick(&SERVICES), *rng.pick(&SERVICES));
        let at = rng.below(16) * 250_000;
        events.push(if rng.chance(50) {
            Event::request(src, dst, "GET", "/anonymous").with_timestamp(at)
        } else {
            Event::response(src, dst, *rng.pick(&STATUSES), Duration::from_millis(30))
                .with_timestamp(at)
        });
    }
    // Arrival order is not time order.
    for i in (1..events.len()).rev() {
        events.swap(i, rng.below(i as u64 + 1) as usize);
    }
    events
}

/// What one seed asks of the checker: the log in a store, and one
/// draw of every parameter a check takes — degenerate values included.
struct Case {
    store: Arc<EventStore>,
    label: String,
    pattern: Pattern,
    src: &'static str,
    dst: &'static str,
    other: &'static str,
    graph: AppGraph,
    max_tries: usize,
    threshold: usize,
    tdelta: Duration,
    quantile: f64,
    bound: Duration,
    min_rate: f64,
    status: u16,
}

impl Case {
    /// Every variant of the engine's enum, over this case's draw.
    fn assertions(&self) -> Vec<StreamingAssertion> {
        let (src, dst) = (self.src.to_string(), self.dst.to_string());
        vec![
            StreamingAssertion::LatencySlo {
                service: dst.clone(),
                quantile: self.quantile,
                bound: self.bound,
            },
            StreamingAssertion::HasTimeouts {
                service: dst.clone(),
                max_latency: self.bound,
            },
            StreamingAssertion::RequestRateAtLeast {
                src: src.clone(),
                dst: dst.clone(),
                min_rate: self.min_rate,
            },
            StreamingAssertion::ErrorRateAtMost {
                src: src.clone(),
                dst: dst.clone(),
                max_ratio: self.quantile / 2.0,
            },
            StreamingAssertion::AtMostRequests {
                src: src.clone(),
                dst: dst.clone(),
                max: self.max_tries,
            },
            StreamingAssertion::StatusAtLeast {
                src: src.clone(),
                dst: dst.clone(),
                status: self.status,
                count: self.threshold,
            },
            StreamingAssertion::StatusAtMost {
                src: src.clone(),
                dst: dst.clone(),
                status: self.status,
                max: self.threshold,
            },
            StreamingAssertion::AnomalousEdge {
                src: src.clone(),
                dst: dst.clone(),
            },
            StreamingAssertion::BoundedRetries {
                src: src.clone(),
                dst: dst.clone(),
                max_tries: self.max_tries,
            },
            StreamingAssertion::CircuitBreaker {
                src: src.clone(),
                dst: dst.clone(),
                threshold: self.threshold,
                tdelta: self.tdelta,
                success_threshold: 2,
            },
            StreamingAssertion::Fallback {
                src,
                primary: dst,
                secondary: self.other.to_string(),
            },
        ]
    }
}

fn for_each_case(mut check: impl FnMut(&Case)) {
    for seed in 0..SEEDS {
        let rng = &mut SplitMix(seed);
        let log = random_log(rng);
        let shards = *rng.pick(&[1, 2, 7]);
        let store = Arc::new(EventStore::with_shards(shards));
        // Both append paths, so both build the indexes.
        let (singly, batched) = log.split_at(log.len() / 3);
        for event in singly {
            store.record_event(event.clone());
        }
        store.record_batch(batched.to_vec());
        let mut graph = AppGraph::new();
        for _ in 0..rng.below(7) {
            graph.add_edge(*rng.pick(&SERVICES), *rng.pick(&SERVICES));
        }
        let (src, dst, other) = (
            *rng.pick(&SERVICES),
            *rng.pick(&SERVICES),
            *rng.pick(&SERVICES),
        );
        check(&Case {
            store,
            label: format!("seed={seed} shards={shards}"),
            pattern: match rng.below(4) {
                0 => Pattern::new("test-*"),
                1 => Pattern::new("test-1"),
                2 => Pattern::new("*-?"),
                _ => Pattern::Any,
            },
            src,
            dst,
            other,
            graph,
            max_tries: rng.below(5) as usize,
            threshold: rng.below(4) as usize,
            tdelta: Duration::from_millis(*rng.pick(&[0, 300, 1_000, 60_000])),
            quantile: *rng.pick(&[0.0, 0.5, 0.9, 0.99, 1.0]),
            bound: Duration::from_micros(*rng.pick(&LATENCIES_US)),
            min_rate: *rng.pick(&[0.0, 0.5, 2.0, 50.0]),
            status: *rng.pick(&STATUSES),
        });
    }
}

fn check(name: String, passed: bool, details: impl Into<String>) -> Check {
    Check {
        name,
        passed,
        details: details.into(),
    }
}

fn failed(event: &Event) -> bool {
    matches!(event.status(), Some(status) if status == 0 || (500..600).contains(&status))
}

// ---------------------------------------------------------------------------
// References: the definitions the engine replaced, kept to compare against.
// Each takes the events its `store.query(..)` returned.
// ---------------------------------------------------------------------------

fn service_replies(store: &EventStore, service: &str, pattern: &Pattern) -> Vec<Event> {
    store.query(&Query {
        dst: Some(service.to_string()),
        kind: KindFilter::Replies,
        id_pattern: Some(pattern.clone()),
        ..Query::default()
    })
}

fn edge_events(store: &EventStore, src: &str, dst: &str, pattern: &Pattern) -> Vec<Event> {
    store.query(&Query::edge(src, dst).with_id_pattern(pattern.clone()))
}

/// `has_timeouts` as it was.
fn reference_timeouts(replies: &[Event], src: &str, max_latency: Duration) -> Check {
    let name = format!("HasTimeouts({src}, {max_latency:?})");
    if replies.is_empty() {
        return check(name, false, "no replies from the service were observed");
    }
    let latencies = reply_latency(replies, View::Observed);
    let max = latencies.iter().max().copied().unwrap_or_default();
    let slow = latencies.iter().filter(|l| **l > max_latency).count();
    check(
        name,
        slow == 0,
        format!(
            "{} replies observed, max latency {:?}, {} over the limit",
            latencies.len(),
            max,
            slow
        ),
    )
}

/// `has_bounded_retries` as it was.
fn reference_bounded_retries(events: &[Event], src: &str, dst: &str, max_tries: usize) -> Check {
    let name = format!("HasBoundedRetries({src}, {dst}, {max_tries})");
    if events.is_empty() {
        return check(name, false, "no traffic observed on the edge");
    }
    let mut flows: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for event in events {
        let Some(id) = event.request_id.as_deref() else {
            continue;
        };
        let entry = flows.entry(id).or_insert((0, 0));
        match event.status() {
            None => entry.0 += 1, // a request
            Some(status) if status == 0 || (500..600).contains(&status) => entry.1 += 1,
            Some(_) => {}
        }
    }
    let failed_flows: Vec<(&&str, &(usize, usize))> = flows
        .iter()
        .filter(|(_, (_, failures))| *failures > 0)
        .collect();
    if failed_flows.is_empty() {
        return check(
            name,
            false,
            "no failed replies observed; retry logic never exercised",
        );
    }
    let worst = failed_flows
        .iter()
        .max_by_key(|(_, (requests, _))| *requests)
        .expect("non-empty");
    let violations = failed_flows
        .iter()
        .filter(|(_, (requests, _))| *requests > max_tries)
        .count();
    check(
        name,
        violations == 0,
        format!(
            "{} failing flow(s); worst flow {} sent {} request(s) (budget {}); {} violation(s)",
            failed_flows.len(),
            worst.0,
            worst.1 .0,
            max_tries,
            violations
        ),
    )
}

/// `has_circuit_breaker` as it was.
fn reference_circuit_breaker(
    events: &[Event],
    src: &str,
    dst: &str,
    threshold: usize,
    tdelta: Duration,
    success_threshold: usize,
) -> Check {
    let name = format!("HasCircuitBreaker({src}, {dst}, {threshold}, {tdelta:?})");
    if events.is_empty() {
        return check(name, false, "no traffic observed on the edge");
    }
    // Locate the `threshold`-th failed reply (5xx or TCP-level 0).
    let mut failures = 0;
    let mut trip_index = None;
    for (index, event) in events.iter().enumerate() {
        if let Some(status) = event.status() {
            if status == 0 || (500..600).contains(&status) {
                failures += 1;
                if failures == threshold {
                    trip_index = Some(index);
                    break;
                }
            }
        }
    }
    let Some(trip_index) = trip_index else {
        return check(
            name,
            false,
            format!("only {failures} failed replies observed, breaker never challenged"),
        );
    };
    let trip_time = events[trip_index].timestamp_us;
    let window_end = trip_time.saturating_add(tdelta.as_micros() as Micros);
    let calls_during_open = events[trip_index + 1..]
        .iter()
        .filter(|e| e.kind.is_request())
        .filter(|e| e.timestamp_us > trip_time && e.timestamp_us < window_end)
        .count();
    let resumed = events[trip_index + 1..]
        .iter()
        .filter(|e| e.kind.is_request())
        .filter(|e| e.timestamp_us >= window_end)
        .count();
    check(
        name,
        calls_during_open == 0,
        format!(
            "tripped after {threshold} failures; {calls_during_open} calls during the \
             {tdelta:?} open window (expected 0); {resumed} calls after \
             (success threshold {success_threshold})"
        ),
    )
}

/// `has_latency_slo` as it was, hand-rolled nearest rank included.
fn reference_latency_slo(
    replies: &[Event],
    service: &str,
    quantile: f64,
    bound: Duration,
) -> Check {
    let name = format!(
        "HasLatencySlo({service}, p{:.0} <= {bound:?})",
        quantile * 100.0
    );
    if replies.is_empty() {
        return check(name, false, "no replies from the service were observed");
    }
    let mut latencies = reply_latency(replies, View::Observed);
    latencies.sort();
    let rank = ((quantile * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
    let measured = latencies[rank - 1];
    check(
        name,
        measured <= bound,
        format!(
            "measured p{:.0} = {measured:?} over {} replies",
            quantile * 100.0,
            latencies.len()
        ),
    )
}

/// `has_fallback` as it was: one scan of the secondary requests per
/// failed primary reply.
fn reference_fallback(
    primary_replies: &[Event],
    secondary_requests: &[Event],
    src: &str,
    primary: &str,
    secondary: &str,
) -> Check {
    let name = format!("HasFallback({src}, {primary} -> {secondary})");
    let failed_flows: Vec<&str> = primary_replies
        .iter()
        .filter(|event| failed(event))
        .filter_map(|event| event.request_id.as_deref())
        .collect();
    if failed_flows.is_empty() {
        return check(
            name,
            false,
            "no failed primary calls observed; fallback never exercised",
        );
    }
    let missing = failed_flows
        .iter()
        .filter(|flow| {
            !secondary_requests
                .iter()
                .any(|event| event.request_id.as_deref() == Some(**flow))
        })
        .count();
    check(
        name,
        missing == 0,
        format!(
            "{} flow(s) saw primary failures; {} did not fall back to {secondary}",
            failed_flows.len(),
            missing
        ),
    )
}

/// `has_bulkhead` as it was: `request_rate` over each other
/// dependency's requests.
fn reference_bulkhead(
    store: &EventStore,
    graph: &AppGraph,
    src: &str,
    slow_dst: &str,
    min_rate: f64,
    pattern: &Pattern,
) -> Check {
    let name = format!("HasBulkHead({src}, {slow_dst}, {min_rate} req/s)");
    let others: Vec<String> = graph
        .dependencies(src)
        .into_iter()
        .filter(|dst| dst != slow_dst)
        .collect();
    if others.is_empty() {
        return check(name, false, "service has no other dependencies to protect");
    }
    let mut details = Vec::new();
    let mut passed = true;
    for dst in &others {
        let requests =
            store.query(&Query::requests(src, dst.as_str()).with_id_pattern(pattern.clone()));
        let rate = request_rate(&requests);
        if rate < min_rate || rate.is_nan() {
            passed = false;
        }
        details.push(format!("{dst}: {rate:.1} req/s"));
    }
    check(name, passed, details.join(", "))
}

// ---------------------------------------------------------------------------
// (a) every has_* equals the definition it replaced
// ---------------------------------------------------------------------------

#[test]
fn every_has_check_reports_what_its_old_definition_reported() {
    for_each_case(|case| {
        let checker = AssertionChecker::new(Arc::clone(&case.store));
        let (store, pattern, at) = (&*case.store, &case.pattern, &case.label);
        let (src, dst, other) = (case.src, case.dst, case.other);

        assert_eq!(
            checker.has_timeouts(dst, case.bound, pattern),
            reference_timeouts(&service_replies(store, dst, pattern), dst, case.bound),
            "{at}"
        );
        assert_eq!(
            checker.has_latency_slo(dst, case.quantile, case.bound, pattern),
            reference_latency_slo(
                &service_replies(store, dst, pattern),
                dst,
                case.quantile,
                case.bound
            ),
            "{at}"
        );
        let edge = edge_events(store, src, dst, pattern);
        assert_eq!(
            checker.has_bounded_retries(src, dst, case.max_tries, pattern),
            reference_bounded_retries(&edge, src, dst, case.max_tries),
            "{at}"
        );
        assert_eq!(
            checker.has_circuit_breaker(src, dst, case.threshold, case.tdelta, 2, pattern),
            reference_circuit_breaker(&edge, src, dst, case.threshold, case.tdelta, 2),
            "{at}"
        );
        assert_eq!(
            checker.has_fallback(src, dst, other, pattern),
            reference_fallback(
                &store.query(&Query::replies(src, dst).with_id_pattern(pattern.clone())),
                &store.query(&Query::requests(src, other).with_id_pattern(pattern.clone())),
                src,
                dst,
                other
            ),
            "{at}"
        );
        assert_eq!(
            checker.has_bulkhead(&case.graph, src, dst, case.min_rate, pattern),
            reference_bulkhead(store, &case.graph, src, dst, case.min_rate, pattern),
            "{at}"
        );
    });
}

/// The comparison above means little on logs that never reach a
/// verdict's interesting side; count that the generator gets there.
#[test]
fn generator_reaches_both_sides_of_every_check() {
    let mut seen: BTreeMap<(&str, bool), usize> = BTreeMap::new();
    let mut inconclusive: BTreeMap<&str, usize> = BTreeMap::new();
    let (mut ties, mut anonymous, mut faulted, mut empty) = (0, 0, 0, 0);
    for_each_case(|case| {
        let checker = AssertionChecker::new(Arc::clone(&case.store));
        let pattern = &case.pattern;
        let (src, dst, other) = (case.src, case.dst, case.other);
        let checks = [
            ("timeouts", checker.has_timeouts(dst, case.bound, pattern)),
            (
                "slo",
                checker.has_latency_slo(dst, case.quantile, case.bound, pattern),
            ),
            (
                "retries",
                checker.has_bounded_retries(src, dst, case.max_tries, pattern),
            ),
            (
                "breaker",
                checker.has_circuit_breaker(src, dst, case.threshold, case.tdelta, 2, pattern),
            ),
            ("fallback", checker.has_fallback(src, dst, other, pattern)),
            (
                "bulkhead",
                checker.has_bulkhead(&case.graph, src, dst, case.min_rate, pattern),
            ),
        ];
        for (name, check) in checks {
            *seen.entry((name, check.passed)).or_default() += 1;
            if check.details.starts_with("no ")
                || check.details.starts_with("only ")
                || check.details.starts_with("service has no")
            {
                *inconclusive.entry(name).or_default() += 1;
            }
        }
        let log = case.store.snapshot();
        empty += usize::from(log.is_empty());
        ties += usize::from(
            log.windows(2)
                .any(|pair| pair[0].timestamp_us == pair[1].timestamp_us),
        );
        anonymous += usize::from(log.iter().any(|event| event.request_id.is_none()));
        faulted += usize::from(log.iter().any(Event::is_faulted));
    });
    for name in [
        "timeouts", "slo", "retries", "breaker", "fallback", "bulkhead",
    ] {
        for passed in [true, false] {
            let count = seen.get(&(name, passed)).copied().unwrap_or(0);
            assert!(count >= 10, "{name} passed={passed} only {count} time(s)");
        }
        let count = inconclusive.get(name).copied().unwrap_or(0);
        assert!(count >= 10, "{name} inconclusive only {count} time(s)");
        let conclusive_failures = seen[&(name, false)] - count;
        assert!(
            conclusive_failures >= 10,
            "{name} failed on evidence only {conclusive_failures} time(s)"
        );
    }
    assert!(empty >= 20 && ties >= 300 && anonymous >= 300 && faulted >= 300);
}

// ---------------------------------------------------------------------------
// (b) batch = one window
// ---------------------------------------------------------------------------

/// For every variant: the batch check, and a live monitor whose single
/// window covers the very events the batch check read (in the order it
/// read them), agree on pass/fail — and, short of a mid-window breach,
/// on the detail. A read that matches nothing is the one place they
/// part by design: a silent store opens no window, so the live verdict
/// stays `Pending` where the batch fold still closes once.
#[test]
fn a_batch_check_is_the_live_verdict_of_one_window_over_the_same_events() {
    let mut compared: BTreeMap<(String, bool), usize> = BTreeMap::new();
    for_each_case(|case| {
        let checker = AssertionChecker::new(Arc::clone(&case.store));
        for assertion in case.assertions() {
            let at = format!("{} {assertion}", case.label);
            let batch = checker.check(&assertion, &case.pattern);
            let read = case.store.query(&assertion.query(&case.pattern));
            let silent = read.is_empty();
            let store = EventStore::shared();
            store.extend(read);
            let monitor = LiveMonitor::new(
                store,
                MonitorSpec::new(Duration::from_secs(3_600)).assert(assertion.clone()),
            );
            monitor.poll();
            assert_eq!(monitor.windows_closed(), 0, "{at}");
            monitor.finalize();
            let live = monitor.verdicts().remove(0);
            assert_eq!(live.name, format!("{assertion:#}"), "{at}");
            if silent {
                assert_eq!((live.verdict, live.windows), (Verdict::Pending, 0), "{at}");
                continue;
            }
            assert_eq!(
                live.to_check().passed,
                batch.passed,
                "{at}: {live} vs {batch}"
            );
            let scored_elsewhere = matches!(assertion, StreamingAssertion::AnomalousEdge { .. });
            // A breach ends the assertion before its window closes.
            if live.verdict != Verdict::Violated && !scored_elsewhere {
                assert_eq!(live.windows, 1, "{at}");
                assert_eq!(live.detail, batch.details, "{at}");
            }
            let kind = batch.name.split('(').next().unwrap_or_default().to_string();
            *compared.entry((kind, batch.passed)).or_default() += 1;
        }
    });
    // Both sides of every variant the fold judges were compared.
    assert_eq!(compared.len(), 2 * 10 + 1, "{compared:?}");
    assert!(compared.values().all(|count| *count >= 5), "{compared:?}");
}

/// The live monitor folds events borrowed from the store, inside the
/// tail read. On every seeded log, arriving singly and in batches with
/// polls at random points: it raises the alerts, poll by poll, and ends
/// with the verdicts, the window count, the record log and the edge
/// matrix of a reference monitor that is fed *copies* — the
/// `events_after` clones of the same cursors, re-recorded into a store
/// of its own — and of a monitor that polls the live store once at the
/// end (where polls cut the stream does not matter).
#[test]
fn a_live_monitor_folding_borrowed_events_matches_one_fed_copies() {
    let (mut alerts_seen, mut windows_seen, mut cases) = (0usize, 0u64, 0u64);
    for_each_case(|case| {
        cases += 1;
        let rng = &mut SplitMix(0xB0_0000 + cases);
        let log = case.store.events_after(0).0;
        let spec = || {
            let spec = case.assertions().into_iter().fold(
                MonitorSpec::new(Duration::from_millis(500)).violate_after(2),
                MonitorSpec::assert,
            );
            if case.threshold % 2 == 0 {
                spec.anomaly(AnomalyConfig::default().warmup_windows(2))
            } else {
                spec
            }
        };
        let store = Arc::new(EventStore::with_shards(case.store.shard_count()));
        let copies = Arc::new(EventStore::with_shards(1));
        let live = LiveMonitor::new(Arc::clone(&store), spec());
        let reference = LiveMonitor::new(Arc::clone(&copies), spec());
        let at_end = LiveMonitor::new(Arc::clone(&store), spec());
        let mut cursor = 0;
        let mut alerts = Vec::new();
        let mut poll_both = |context: &str| {
            let (fresh, next) = store.events_after(cursor);
            cursor = next;
            copies.record_batch(fresh);
            let raised = live.poll();
            assert_eq!(raised, reference.poll(), "{} {context}", case.label);
            alerts.extend(raised);
        };
        let mut rest = &log[..];
        while !rest.is_empty() {
            let (now, later) = rest.split_at(1 + rng.below(rest.len() as u64) as usize % 6);
            rest = later;
            if now.len() == 1 {
                store.record_event(now[0].clone());
            } else {
                store.record_batch(now.to_vec());
            }
            if rng.chance(40) {
                poll_both("mid-log");
            }
        }
        poll_both("at the end");
        poll_both("with nothing new");
        let closing = live.finalize();
        assert_eq!(closing, reference.finalize(), "{} finalize", case.label);
        alerts.extend(closing);
        let mut expected = at_end.poll();
        expected.extend(at_end.finalize());
        for (other, name) in [(&reference, "copies"), (&at_end, "one poll")] {
            let at = format!("{} vs {name}", case.label);
            assert_eq!(live.verdicts(), other.verdicts(), "{at}");
            assert_eq!(live.windows_closed(), other.windows_closed(), "{at}");
            assert_eq!(live.records_after(0), other.records_after(0), "{at}");
            assert_eq!(live.edge_health(), other.edge_health(), "{at}");
            assert_eq!(live.anomaly_scores(), other.anomaly_scores(), "{at}");
            assert_eq!(live.health().clock_us(), other.health().clock_us(), "{at}");
        }
        assert_eq!(alerts, expected, "{}", case.label);
        alerts_seen += alerts.len();
        windows_seen += live.windows_closed();
    });
    // The logs did close windows and flip verdicts.
    assert!(windows_seen > 1_000, "{windows_seen} windows");
    assert!(alerts_seen > 1_000, "{alerts_seen} alerts");
}

// ---------------------------------------------------------------------------
// (c) wire format
// ---------------------------------------------------------------------------

/// The `monitor:` stanza's eight assertions as recipes written before
/// the merge spell them (captured from the parent commit): each still
/// parses to the same value and is written back byte for byte.
#[test]
fn the_monitor_stanza_wire_format_is_unchanged() {
    let (a, b) = (|| "a".to_string(), || "b".to_string());
    let golden = [
        (
            r#"{"kind":"latency_slo","service":"web","quantile":0.99,"bound":{"secs":0,"nanos":250000000}}"#,
            StreamingAssertion::LatencySlo {
                service: "web".into(),
                quantile: 0.99,
                bound: Duration::from_millis(250),
            },
        ),
        (
            r#"{"kind":"has_timeouts","service":"web","max_latency":{"secs":1,"nanos":0}}"#,
            StreamingAssertion::HasTimeouts {
                service: "web".into(),
                max_latency: Duration::from_secs(1),
            },
        ),
        (
            r#"{"kind":"request_rate_at_least","src":"a","dst":"b","min_rate":2.5}"#,
            StreamingAssertion::RequestRateAtLeast {
                src: a(),
                dst: b(),
                min_rate: 2.5,
            },
        ),
        (
            r#"{"kind":"error_rate_at_most","src":"a","dst":"b","max_ratio":0.05}"#,
            StreamingAssertion::ErrorRateAtMost {
                src: a(),
                dst: b(),
                max_ratio: 0.05,
            },
        ),
        (
            r#"{"kind":"at_most_requests","src":"a","dst":"b","max":5}"#,
            StreamingAssertion::AtMostRequests {
                src: a(),
                dst: b(),
                max: 5,
            },
        ),
        (
            r#"{"kind":"status_at_least","src":"a","dst":"b","status":503,"count":2}"#,
            StreamingAssertion::StatusAtLeast {
                src: a(),
                dst: b(),
                status: 503,
                count: 2,
            },
        ),
        (
            r#"{"kind":"status_at_most","src":"a","dst":"b","status":503,"max":3}"#,
            StreamingAssertion::StatusAtMost {
                src: a(),
                dst: b(),
                status: 503,
                max: 3,
            },
        ),
        (
            r#"{"kind":"anomalous_edge","src":"a","dst":"b"}"#,
            StreamingAssertion::AnomalousEdge { src: a(), dst: b() },
        ),
    ];
    for (json, value) in golden {
        let parsed: StreamingAssertion = serde_json::from_str(json).expect(json);
        assert_eq!(parsed, value, "{json}");
        assert_eq!(serde_json::to_string(&value).unwrap(), json);
    }
}
