//! Differential tests for the borrowed read path: the one-pass
//! `TraceDigest`, the flow visitor, the shared parent-linkage rule and
//! the borrowed span pairing must report exactly what the definitions
//! they replaced reported, on random logs.
//!
//! The logs come from a seeded SplitMix64 generator rather than
//! proptest so the tests run wherever the crate builds (the offline
//! proptest stand-in is empty); `crates/eventstore/tests/properties.rs`
//! mirrors the store-level half as a proptest.

use std::collections::HashMap;
use std::time::Duration;

use gremlin_core::{SpanTree, TraceDigest, TraceSummary};
use gremlin_store::{
    assemble_spans, AppliedFault, Event, EventKind, EventStore, Name, Query, SpanRecord,
};

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

const SERVICES: [&str; 5] = ["user", "web", "cart", "db", "cache"];
const STATUSES: [u16; 6] = [200, 200, 404, 500, 503, 0];

/// A log of up to eight interleaved flows over five services, in
/// shuffled arrival order, built to hit every branch of pairing and
/// linkage: calls with and without span IDs, duplicate span IDs, parent
/// IDs that name an earlier span, a later one (cycles), the span itself
/// or a span never observed, parents carried only by the response,
/// retries hammering one edge, lost requests, lost responses, responses
/// stamped before their request, timestamp ties, and events that carry
/// no request ID at all.
fn random_log(rng: &mut SplitMix, span_ids: bool) -> Vec<Event> {
    let mut events = Vec::new();
    for flow in 0..1 + rng.below(8) {
        let id = format!("flow-{flow}");
        let calls = 1 + rng.below(10);
        let spans: Vec<String> = (0..calls)
            .map(|call| format!("{flow:x}-{:x}", if rng.chance(8) { 0 } else { call }))
            .collect();
        let retried = rng
            .chance(35)
            .then(|| (*rng.pick(&SERVICES), *rng.pick(&SERVICES)));
        let mut clock = rng.below(50);
        for call in 0..calls as usize {
            let (src, dst) = retried.unwrap_or((*rng.pick(&SERVICES), *rng.pick(&SERVICES)));
            let span = (span_ids && !rng.chance(15)).then(|| spans[call].clone());
            let parent = match rng.below(10) {
                0..=5 => Some(rng.pick(&spans).clone()),
                6 => Some("never-observed".to_string()),
                _ => None,
            };
            let parent_on_response = rng.chance(20);
            let fault = rng.chance(20).then(|| match rng.below(3) {
                0 => AppliedFault::Abort { status: 503 },
                1 => AppliedFault::Delay { delay_us: 5_000 },
                _ => AppliedFault::AbortReset,
            });
            let fault_on_response = rng.chance(50);
            let start = clock + rng.below(40);
            clock += rng.below(30);
            let latency = rng.below(200);

            if !rng.chance(10) {
                let mut request = Event::request(src, dst, "GET", format!("/c{call}"))
                    .with_request_id(id.as_str())
                    .with_timestamp(start);
                request.span_id = span.as_deref().map(Name::from);
                if !parent_on_response {
                    request.parent_id = parent.as_deref().map(Name::from);
                }
                if !fault_on_response {
                    request.fault = fault.clone();
                }
                events.push(request);
            }
            if !rng.chance(15) {
                let observed = if rng.chance(5) {
                    start.saturating_sub(5)
                } else {
                    start + latency
                };
                let status = *rng.pick(&STATUSES);
                let mut response =
                    Event::response(src, dst, status, Duration::from_micros(latency))
                        .with_request_id(id.as_str())
                        .with_timestamp(observed);
                response.span_id = span.as_deref().map(Name::from);
                if parent_on_response || rng.chance(30) {
                    response.parent_id = parent.as_deref().map(Name::from);
                }
                if fault_on_response {
                    response.fault = fault;
                }
                events.push(response);
            }
        }
    }
    for _ in 0..rng.below(6) {
        let (src, dst) = (*rng.pick(&SERVICES), *rng.pick(&SERVICES));
        events.push(Event::request(src, dst, "GET", "/anonymous").with_timestamp(rng.below(300)));
    }
    // Arrival order is not time order.
    for i in (1..events.len()).rev() {
        events.swap(i, rng.below(i as u64 + 1) as usize);
    }
    events
}

/// Runs `check` over every (seed, span IDs on/off, shard count) store.
fn for_each_random_store(mut check: impl FnMut(&EventStore, &str)) {
    for seed in 0..120u64 {
        for span_ids in [true, false] {
            let log = random_log(&mut SplitMix(seed), span_ids);
            for shards in [1, 2, 7] {
                let store = EventStore::with_shards(shards);
                // Both append paths, so both build the indexes.
                let (singly, batched) = log.split_at(log.len() / 3);
                for event in singly {
                    store.record_event(event.clone());
                }
                store.record_batch(batched.to_vec());
                check(
                    &store,
                    &format!("seed={seed} span_ids={span_ids} shards={shards}"),
                );
            }
        }
    }
}

fn flow_query(id: &str) -> Query {
    Query::new().with_request_id(id)
}

// ---------------------------------------------------------------------------
// References: the definitions this path replaced, kept to compare against
// ---------------------------------------------------------------------------

/// `SpanTree::depth` as it was: a walk down from the roots.
fn depth_by_walk(tree: &SpanTree) -> usize {
    let mut deepest = 0;
    let mut stack: Vec<(usize, usize)> = tree.roots.iter().map(|&root| (root, 1)).collect();
    while let Some((index, depth)) = stack.pop() {
        deepest = deepest.max(depth);
        for &child in &tree.nodes[index].children {
            stack.push((child, depth + 1));
        }
    }
    deepest
}

/// `TraceDigest::from_store` as it was: the fold of every flow's
/// `SpanTree::from_store(id).summary()` in `request_ids()` order, the
/// first flow winning ties for `slowest` and `deepest`.
fn reference_digest(store: &EventStore) -> TraceDigest {
    let mut digest = TraceDigest {
        flows: 0,
        spans: 0,
        faulted_spans: 0,
        slowest: None,
        deepest: None,
    };
    for request_id in store.request_ids() {
        let tree = SpanTree::from_store(store, request_id.as_str());
        let summary = TraceSummary {
            depth: depth_by_walk(&tree),
            ..tree.summary()
        };
        digest.flows += 1;
        digest.spans += summary.spans;
        digest.faulted_spans += summary.faulted_spans;
        if digest
            .slowest
            .as_ref()
            .map(|s| summary.duration_us > s.duration_us)
            .unwrap_or(true)
        {
            digest.slowest = Some(summary.clone());
        }
        if digest
            .deepest
            .as_ref()
            .map(|d| summary.depth > d.depth)
            .unwrap_or(true)
        {
            digest.deepest = Some(summary);
        }
    }
    digest
}

/// The parent-linkage rule as `SpanTree::from_records` had it inline:
/// `(parent, inferred)` per record, records in start order.
fn reference_parents(records: &[SpanRecord]) -> Vec<Option<(usize, bool)>> {
    let by_span: HashMap<Name, usize> = records
        .iter()
        .enumerate()
        .filter_map(|(index, record)| record.span_id.clone().map(|span| (span, index)))
        .collect();
    (0..records.len())
        .map(|index| {
            let child = &records[index];
            let explicit = child
                .parent_id
                .as_ref()
                .and_then(|parent| by_span.get(parent).copied())
                .filter(|&parent| parent != index);
            if let Some(parent) = explicit {
                return Some((parent, false));
            }
            (0..index)
                .filter(|&candidate| {
                    let parent = &records[candidate];
                    parent.dst == child.src
                        && parent.start_us <= child.start_us
                        && parent
                            .end_us()
                            .map(|end| end >= child.start_us)
                            .unwrap_or(true)
                })
                .max_by_key(|&candidate| records[candidate].start_us)
                .map(|parent| (parent, true))
        })
        .collect()
}

/// `assemble_spans` as it was: records built and patched in place.
fn reference_assemble(request_id: &str, events: &[Event]) -> Vec<SpanRecord> {
    let mut records: Vec<SpanRecord> = Vec::new();
    let mut open: HashMap<Name, usize> = HashMap::new();
    let mut pending: Vec<usize> = Vec::new();
    for event in events {
        match &event.kind {
            EventKind::Request { method, uri } => {
                let index = records.len();
                records.push(SpanRecord {
                    trace_id: request_id.to_string(),
                    span_id: event.span_id.clone(),
                    parent_id: event.parent_id.clone(),
                    src: event.src.clone(),
                    dst: event.dst.clone(),
                    call: format!("{method} {uri}"),
                    start_us: event.timestamp_us,
                    latency_us: None,
                    status: None,
                    fault: event.fault.clone(),
                    agent: event.agent.clone(),
                });
                match &event.span_id {
                    Some(span) => {
                        open.insert(span.clone(), index);
                    }
                    None => pending.push(index),
                }
            }
            EventKind::Response { status, latency_us } => {
                let slot = match &event.span_id {
                    Some(span) => open.remove(span),
                    None => pending
                        .iter()
                        .position(|&index| {
                            records[index].src == event.src && records[index].dst == event.dst
                        })
                        .map(|position| pending.remove(position)),
                };
                match slot {
                    Some(index) => {
                        let record = &mut records[index];
                        record.status = Some(*status);
                        record.latency_us = Some(*latency_us);
                        if record.fault.is_none() {
                            record.fault = event.fault.clone();
                        }
                        if record.parent_id.is_none() {
                            record.parent_id = event.parent_id.clone();
                        }
                    }
                    None => records.push(SpanRecord {
                        trace_id: request_id.to_string(),
                        span_id: event.span_id.clone(),
                        parent_id: event.parent_id.clone(),
                        src: event.src.clone(),
                        dst: event.dst.clone(),
                        call: "(request not observed)".to_string(),
                        start_us: event.timestamp_us,
                        latency_us: Some(*latency_us),
                        status: Some(*status),
                        fault: event.fault.clone(),
                        agent: event.agent.clone(),
                    }),
                }
            }
        }
    }
    records.sort_by_key(|record| record.start_us);
    records
}

// ---------------------------------------------------------------------------
// The tests
// ---------------------------------------------------------------------------

#[test]
fn digest_equals_the_fold_of_span_tree_summaries() {
    for_each_random_store(|store, case| {
        assert_eq!(
            TraceDigest::from_store(store),
            reference_digest(store),
            "{case}"
        );
    });
}

#[test]
fn flow_visitor_yields_each_flows_exact_query() {
    for_each_random_store(|store, case| {
        let mut visited: Vec<(Name, Vec<Event>)> = Vec::new();
        store.for_each_flow(|id, events| {
            visited.push((id.clone(), events.iter().map(|&e| e.clone()).collect()));
        });
        let ids: Vec<Name> = visited.iter().map(|(id, _)| id.clone()).collect();
        assert_eq!(ids, store.request_ids(), "{case}");
        for (id, events) in &visited {
            let query = flow_query(id.as_str());
            assert_eq!(events, &store.query(&query), "{case} flow={id}");
            assert_eq!(events.len(), store.count(&query), "{case} flow={id}");
        }
        // Flows and the anonymous events partition the log.
        let in_flows: usize = visited.iter().map(|(_, events)| events.len()).sum();
        let anonymous = store
            .snapshot()
            .iter()
            .filter(|event| event.request_id.is_none())
            .count();
        assert_eq!(in_flows + anonymous, store.len(), "{case}");
    });
}

#[test]
fn span_trees_link_and_measure_depth_as_before() {
    for_each_random_store(|store, case| {
        for id in store.request_ids() {
            let tree = SpanTree::from_store(store, id.as_str());
            let records: Vec<SpanRecord> = tree.nodes.iter().map(|n| n.record.clone()).collect();
            let linked: Vec<Option<(usize, bool)>> = tree
                .nodes
                .iter()
                .map(|node| node.parent.map(|parent| (parent, node.inferred_parent)))
                .collect();
            assert_eq!(linked, reference_parents(&records), "{case} flow={id}");
            assert_eq!(tree.depth(), depth_by_walk(&tree), "{case} flow={id}");
        }
    });
}

#[test]
fn spans_pair_as_before() {
    for_each_random_store(|store, case| {
        for id in store.request_ids() {
            let events = store.query(&flow_query(id.as_str()));
            assert_eq!(
                assemble_spans(id.as_str(), &events),
                reference_assemble(id.as_str(), &events),
                "{case} flow={id}"
            );
        }
    });
}

/// The generator has to reach the cases the differential tests exist
/// for; a change to it that stops producing them would pass silently.
#[test]
fn generator_reaches_the_hard_cases() {
    let (mut cycles, mut orphans, mut open, mut legacy) = (0, 0, 0, 0);
    let (mut inferred, mut explicit) = (0, 0);
    for_each_random_store(|store, _| {
        for id in store.request_ids() {
            let tree = SpanTree::from_store(store, id.as_str());
            // Spans no root reaches sit on or below a parent cycle.
            let mut reached = 0;
            let mut stack = tree.roots.clone();
            while let Some(index) = stack.pop() {
                reached += 1;
                stack.extend(&tree.nodes[index].children);
            }
            cycles += usize::from(reached < tree.len());
            for node in &tree.nodes {
                orphans += usize::from(node.record.call == "(request not observed)");
                open += usize::from(node.record.status.is_none());
                legacy += usize::from(node.record.span_id.is_none());
                inferred += usize::from(node.parent.is_some() && node.inferred_parent);
                explicit += usize::from(node.parent.is_some() && !node.inferred_parent);
            }
        }
    });
    assert!(
        cycles > 0 && orphans > 0 && open > 0 && legacy > 0 && inferred > 0 && explicit > 0,
        "cycles={cycles} orphans={orphans} open={open} legacy={legacy} \
         inferred={inferred} explicit={explicit}"
    );
}
