//! Property-based tests for the pattern matcher and the indexed
//! query engine.

use std::time::Duration;

use proptest::prelude::*;

use gremlin_store::pattern::glob_match_reference;
use gremlin_store::{AppliedFault, Event, EventStore, KindFilter, Pattern, Query};

/// Strategy producing glob patterns over a tiny alphabet so that
/// wildcard collisions actually happen.
fn pattern_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just('a'),
            Just('b'),
            Just('c'),
            Just('*'),
            Just('?'),
            Just('-')
        ],
        0..8,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

fn text_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![Just('a'), Just('b'), Just('c'), Just('-')],
        0..10,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

proptest! {
    /// The optimized matcher (with its Any/Exact/Prefix fast paths)
    /// must agree with the simple recursive reference matcher.
    #[test]
    fn optimized_matcher_agrees_with_reference(
        pattern in pattern_strategy(),
        text in text_strategy(),
    ) {
        let compiled = Pattern::new(&pattern);
        prop_assert_eq!(
            compiled.matches(&text),
            glob_match_reference(&pattern, &text),
            "pattern={} text={}", pattern, text
        );
    }

    /// Compiling a pattern and printing it back yields an equivalent
    /// matcher.
    #[test]
    fn pattern_display_round_trip(pattern in pattern_strategy(), text in text_strategy()) {
        let compiled = Pattern::new(&pattern);
        let recompiled = Pattern::new(&compiled.to_string());
        prop_assert_eq!(compiled.matches(&text), recompiled.matches(&text));
    }
}

/// A generated event description small enough for proptest shrinking
/// to stay readable.
#[derive(Debug, Clone)]
struct EventSpec {
    src: u8,
    dst: u8,
    is_request: bool,
    id: Option<u8>,
    timestamp: u64,
    faulted: bool,
}

fn event_spec_strategy() -> impl Strategy<Value = EventSpec> {
    (
        0u8..3,
        0u8..3,
        any::<bool>(),
        proptest::option::of(0u8..4),
        0u64..1000,
        any::<bool>(),
    )
        .prop_map(|(src, dst, is_request, id, timestamp, faulted)| EventSpec {
            src,
            dst,
            is_request,
            id,
            timestamp,
            faulted,
        })
}

fn materialize(spec: &EventSpec) -> Event {
    let src = format!("svc-{}", spec.src);
    let dst = format!("svc-{}", spec.dst);
    let mut event = if spec.is_request {
        Event::request(src, dst, "GET", "/p")
    } else {
        Event::response(src, dst, 200, Duration::from_millis(1))
    };
    event.timestamp_us = spec.timestamp;
    if let Some(id) = spec.id {
        event.request_id = Some(format!("test-{id}").into());
    }
    if spec.faulted {
        event.fault = Some(AppliedFault::Abort { status: 503 });
    }
    event
}

proptest! {
    /// The indexed query path must return exactly what a naive filter
    /// over the full snapshot returns (same multiset, time-sorted).
    #[test]
    fn indexed_query_equals_naive_scan(
        specs in proptest::collection::vec(event_spec_strategy(), 0..60),
        src in 0u8..3,
        dst in 0u8..3,
        kind_choice in 0u8..3,
        from in 0u64..1000,
        len in 0u64..500,
    ) {
        let store = EventStore::new();
        let events: Vec<Event> = specs.iter().map(materialize).collect();
        store.extend(events.clone());

        let kind = match kind_choice {
            0 => KindFilter::Requests,
            1 => KindFilter::Replies,
            _ => KindFilter::All,
        };
        let query = Query {
            src: Some(format!("svc-{src}")),
            dst: Some(format!("svc-{dst}")),
            kind,
            id_pattern: Some(Pattern::new("test-*")),
            from_us: Some(from),
            until_us: Some(from + len),
            faulted: None,
        };

        let via_index = store.query(&query);
        let mut naive: Vec<Event> =
            events.iter().filter(|e| query.matches(e)).cloned().collect();
        naive.sort_by_key(|e| e.timestamp_us);

        // Same length and same sorted timestamps; content equality up
        // to reordering of equal timestamps.
        prop_assert_eq!(via_index.len(), naive.len());
        let index_ts: Vec<u64> = via_index.iter().map(|e| e.timestamp_us).collect();
        let naive_ts: Vec<u64> = naive.iter().map(|e| e.timestamp_us).collect();
        prop_assert_eq!(index_ts, naive_ts);
        prop_assert_eq!(store.count(&query), naive.len());
    }

    /// The request-ID index path (queries without src/dst) must also
    /// match the naive scan, for exact, prefix and glob patterns.
    #[test]
    fn id_indexed_query_equals_naive_scan(
        specs in proptest::collection::vec(event_spec_strategy(), 0..60),
        pattern_choice in 0u8..4,
        target_id in 0u8..4,
    ) {
        let store = EventStore::new();
        let events: Vec<Event> = specs.iter().map(materialize).collect();
        store.extend(events.clone());

        let pattern = match pattern_choice {
            0 => Pattern::Exact(format!("test-{target_id}")),
            1 => Pattern::new("test-*"),
            2 => Pattern::new(&format!("test-{target_id}*")),
            _ => Pattern::new("test-?"),
        };
        let query = Query {
            id_pattern: Some(pattern),
            ..Query::default()
        };
        let via_index = store.query(&query);
        let mut naive: Vec<Event> =
            events.iter().filter(|e| query.matches(e)).cloned().collect();
        naive.sort_by_key(|e| e.timestamp_us);
        prop_assert_eq!(via_index.len(), naive.len());
        let index_ts: Vec<u64> = via_index.iter().map(|e| e.timestamp_us).collect();
        let naive_ts: Vec<u64> = naive.iter().map(|e| e.timestamp_us).collect();
        prop_assert_eq!(index_ts, naive_ts);
    }

    /// Every read wrapper answers from the same index selection:
    /// whichever index a query's shape picks (request ID, edge, edge
    /// narrowed by an exact ID, or none for a dst-only query), on any
    /// shard count, `count` equals `query().len()` equals a scan of the
    /// log — and the flow visitor yields each flow exactly as
    /// `query(Exact id)` returns it. Mirrors the seeded differential
    /// test in `crates/core/tests/trace_differential.rs`.
    #[test]
    fn read_wrappers_agree_on_every_shard_count(
        specs in proptest::collection::vec(event_spec_strategy(), 0..60),
        shard_choice in 0usize..3,
        src in 0u8..3,
        dst in 0u8..3,
        target_id in 0u8..4,
    ) {
        let store = EventStore::with_shards([1, 2, 7][shard_choice]);
        let events: Vec<Event> = specs.iter().map(materialize).collect();
        store.extend(events.clone());

        let exact = Pattern::Exact(format!("test-{target_id}"));
        let queries = [
            Query { id_pattern: Some(exact.clone()), ..Query::default() },
            Query { id_pattern: Some(Pattern::new("test-*")), ..Query::default() },
            Query::edge(format!("svc-{src}"), format!("svc-{dst}")).with_id_pattern(exact),
            Query { dst: Some(format!("svc-{dst}")), ..Query::default() },
        ];
        for query in &queries {
            let found = store.query(query);
            let mut naive: Vec<u64> = events
                .iter()
                .filter(|e| query.matches(e))
                .map(|e| e.timestamp_us)
                .collect();
            naive.sort_unstable();
            let found_ts: Vec<u64> = found.iter().map(|e| e.timestamp_us).collect();
            prop_assert_eq!(found_ts, naive, "query={:?}", query);
            prop_assert_eq!(store.count(query), found.len(), "query={:?}", query);
            let lent = store.read(query, |events| events.len());
            prop_assert_eq!(lent, found.len(), "query={:?}", query);
        }

        let mut flows: Vec<(String, Vec<Event>)> = Vec::new();
        store.for_each_flow(|id, events| {
            flows.push((id.to_string(), events.iter().map(|&e| e.clone()).collect()));
        });
        let ids: Vec<String> = store.request_ids().iter().map(|id| id.to_string()).collect();
        let visited: Vec<String> = flows.iter().map(|(id, _)| id.clone()).collect();
        prop_assert_eq!(visited, ids);
        for (id, events) in &flows {
            let by_query = store.query(&Query::new().with_request_id(id.as_str()));
            prop_assert_eq!(events, &by_query, "flow={}", id);
        }
    }

    /// JSON export/import preserves the full event set.
    #[test]
    fn json_round_trip_preserves_events(
        specs in proptest::collection::vec(event_spec_strategy(), 0..30),
    ) {
        let store = EventStore::new();
        store.extend(specs.iter().map(materialize));
        let json = store.export_json().unwrap();
        let restored = EventStore::new();
        restored.import_json(&json).unwrap();
        prop_assert_eq!(restored.snapshot(), store.snapshot());
    }
}
