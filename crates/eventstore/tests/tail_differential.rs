//! Differential tests for the agents→store hand-offs that pass borrows
//! instead of copies:
//!
//! * `EventStore::read_after` against the definition it replaced —
//!   filter `seq >= cursor`, clone, sort by `seq` — kept here as the
//!   reference, over a model of the log the test maintains itself;
//! * a store filled by `record_batch` (one index lookup per run)
//!   against one filled by `record_event` (one per event);
//! * `ndjson::read_line_after` against `ndjson::read_line`.
//!
//! Inputs come from a seeded SplitMix64 generator rather than proptest
//! so the tests run wherever the crate builds (the offline proptest
//! stand-in is empty).

use std::sync::{Arc, Barrier};
use std::time::Duration;

use gremlin_store::ndjson::{read_fast, read_line, read_line_after, write_line};
use gremlin_store::{AppliedFault, Event, EventStore, Name, Pattern, Query};

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

const SHARDS: [usize; 3] = [1, 2, 8];

/// Few enough names that consecutive events often share them; the
/// empty name, and two that the line codec must escape (so those lines
/// go through the serde fallback).
const SERVICES: [&str; 6] = ["web", "db", "cache", "", "caf\u{e9}", "a\"b\\c\n"];
const AGENTS: [&str; 3] = ["agent-0", "agent-1", ""];

/// One event out of small pools: `tag` makes it unique (it ends up in
/// the URI or the latency), everything a query can select on repeats.
fn random_event(rng: &mut SplitMix, tag: u64) -> Event {
    let (src, dst) = (*rng.pick(&SERVICES), *rng.pick(&SERVICES));
    let mut event = if rng.chance(50) {
        Event::request(src, dst, "GET", format!("/{tag}"))
    } else {
        Event::response(
            src,
            dst,
            *rng.pick(&[0, 200, 503]),
            Duration::from_micros(tag),
        )
    }
    .with_timestamp(rng.below(1_000))
    .with_agent(*rng.pick(&AGENTS));
    if rng.chance(80) {
        event = event.with_request_id(format!("test-{}", rng.below(24)));
    }
    if rng.chance(30) {
        event = event.with_span_id(format!("{:08x}", rng.below(8)));
    }
    if rng.chance(10) {
        event = event.with_fault(AppliedFault::Abort { status: 503 });
    }
    event
}

// ---------------------------------------------------------------------
// (a) read_after against the definition it replaced
// ---------------------------------------------------------------------

/// What the test knows the store to hold: every live event with the
/// insertion sequence the store gave it. Sequences are dense — each
/// record reserves exactly its count, `clear` and `prune_before`
/// return none — so a single-threaded writer knows them.
#[derive(Default)]
struct Model {
    live: Vec<(u64, Event)>,
    next_seq: u64,
}

impl Model {
    fn push(&mut self, event: &Event) {
        self.live.push((self.next_seq, event.clone()));
        self.next_seq += 1;
    }

    /// `events_after` as it was before `read_after`: every live event
    /// with `seq >= cursor`, cloned, sorted by `seq`; the next cursor
    /// is one past the last, or `cursor` when there is none.
    fn events_after(&self, cursor: u64) -> (Vec<Event>, u64) {
        let mut fresh: Vec<(u64, Event)> = self
            .live
            .iter()
            .filter(|(seq, _)| *seq >= cursor)
            .cloned()
            .collect();
        fresh.sort_unstable_by_key(|(seq, _)| *seq);
        let next = fresh.last().map_or(cursor, |(seq, _)| seq + 1);
        (fresh.into_iter().map(|(_, event)| event).collect(), next)
    }
}

/// Every cursor when there are few, the ends and a seeded sample when
/// there are many.
fn cursors(rng: &mut SplitMix, end: u64) -> Vec<u64> {
    if end <= 400 {
        return (0..=end + 1).collect();
    }
    let mut picked: Vec<u64> = (0..4).chain(end - 3..=end + 1).collect();
    picked.extend((0..200).map(|_| rng.below(end)));
    picked
}

fn assert_tail_matches(store: &EventStore, model: &Model, rng: &mut SplitMix, context: &str) {
    assert_eq!(store.tail_cursor(), model.next_seq, "{context}");
    for cursor in cursors(rng, model.next_seq) {
        let expected = model.events_after(cursor);
        let borrowed = store.read_after(cursor, |events| {
            events
                .iter()
                .map(|&event| event.clone())
                .collect::<Vec<_>>()
        });
        assert_eq!(borrowed, expected, "{context}: read_after({cursor})");
        assert_eq!(
            store.events_after(cursor),
            expected,
            "{context}: events_after({cursor})"
        );
    }
    // A follower that starts anywhere and polls to the end sees every
    // live event from there on exactly once, in order, and then nothing.
    for _ in 0..8 {
        let start = rng.below(model.next_seq + 1);
        let mut cursor = start;
        let mut seen = Vec::new();
        loop {
            let (count, next) = store.read_after(cursor, |events| {
                seen.extend(events.iter().map(|&event| event.clone()));
                events.len()
            });
            assert!(next >= cursor, "{context}: the cursor went backwards");
            cursor = next;
            if count == 0 {
                break;
            }
        }
        assert_eq!(seen, model.events_after(start).0, "{context}: from {start}");
    }
}

#[test]
fn read_after_is_the_old_events_after_for_every_cursor() {
    for shards in SHARDS {
        let mut rng = SplitMix(0x7A11 + shards as u64);
        let store = Arc::new(EventStore::with_shards(shards));
        let mut model = Model::default();
        let mut tag = 0u64;
        let mut fresh = |rng: &mut SplitMix| {
            tag += 1;
            random_event(rng, tag)
        };
        assert_tail_matches(&store, &model, &mut rng, "empty");

        for phase in 0..6 {
            // Single events and batches, interleaved by one writer.
            for _ in 0..40 {
                if rng.chance(50) {
                    let event = fresh(&mut rng);
                    model.push(&event);
                    store.record_event(event);
                } else {
                    let batch: Vec<Event> = (0..rng.below(9)).map(|_| fresh(&mut rng)).collect();
                    batch.iter().for_each(|event| model.push(event));
                    store.record_batch(batch);
                }
            }
            let context = format!("shards={shards} phase={phase}");
            assert_tail_matches(&store, &model, &mut rng, &format!("{context} one writer"));

            // Four writers at once, singles and batches. Their
            // sequences are not knowable from outside; what is: the
            // phase's events occupy the next dense block, each writer's
            // in the order it wrote them, each batch contiguous.
            let phase_start = model.next_seq;
            let per_writer: Vec<Vec<Vec<Event>>> = (0..4)
                .map(|_| {
                    (0..30)
                        .map(|_| (0..1 + rng.below(4)).map(|_| fresh(&mut rng)).collect())
                        .collect()
                })
                .collect();
            let barrier = Arc::new(Barrier::new(per_writer.len()));
            let writers: Vec<_> = per_writer
                .iter()
                .cloned()
                .map(|writes| {
                    let (store, barrier) = (Arc::clone(&store), Arc::clone(&barrier));
                    std::thread::spawn(move || {
                        barrier.wait();
                        for mut write in writes {
                            if write.len() == 1 {
                                store.record_event(write.remove(0));
                            } else {
                                store.record_batch(write);
                            }
                        }
                    })
                })
                .collect();
            for writer in writers {
                writer.join().expect("a writer panicked");
            }
            let (arrived, end) = store.events_after(phase_start);
            let written: usize = per_writer.iter().flatten().map(Vec::len).sum();
            assert_eq!(arrived.len(), written, "{context}");
            assert_eq!(end, phase_start + written as u64, "{context}");
            for writes in &per_writer {
                let mut at = 0;
                for write in writes {
                    at += arrived[at..]
                        .iter()
                        .position(|event| event == &write[0])
                        .unwrap_or_else(|| panic!("{context}: a write is missing or out of order"));
                    assert_eq!(&arrived[at..at + write.len()], &write[..], "{context}");
                    at += write.len();
                }
            }
            arrived.iter().for_each(|event| model.push(event));
            assert_tail_matches(&store, &model, &mut rng, &format!("{context} four writers"));

            // Retention and reset: sequences are never reused, the
            // tail of what is left is unchanged.
            match phase % 3 {
                0 => {
                    let cutoff = rng.below(1_000);
                    let removed = store.prune_before(cutoff);
                    let before = model.live.len();
                    model.live.retain(|(_, event)| event.timestamp_us >= cutoff);
                    assert_eq!(removed, before - model.live.len(), "{context}");
                }
                1 => {
                    store.clear();
                    model.live.clear();
                }
                _ => {}
            }
            assert_tail_matches(
                &store,
                &model,
                &mut rng,
                &format!("{context} after retention"),
            );
        }
    }
}

// ---------------------------------------------------------------------
// (b) record_batch builds the indexes record_event builds
// ---------------------------------------------------------------------

/// A burst whose consecutive events share an edge and a flow in runs
/// of `run` (the last run may be shorter), with an event without a
/// request ID dropped into the middle of some runs.
fn burst(rng: &mut SplitMix, len: usize, run: usize, tag: &mut u64) -> Vec<Event> {
    let mut events = Vec::with_capacity(len);
    let (mut src, mut dst, mut id) = ("web", "db", String::new());
    for index in 0..len {
        if index % run == 0 {
            src = *rng.pick(&SERVICES);
            dst = *rng.pick(&SERVICES);
            id = format!("test-{}", rng.below(16));
        }
        *tag += 1;
        let mut event = if index % 2 == 0 {
            Event::request(src, dst, "GET", format!("/{tag}"))
        } else {
            Event::response(src, dst, 200, Duration::from_micros(*tag))
        }
        .with_timestamp(rng.below(500));
        // A hole in the flow run, not in the edge run.
        let hole = (run > 2 && index % run == run / 2) || rng.chance(5);
        if !hole {
            event = event.with_request_id(id.as_str());
        }
        events.push(event);
    }
    events
}

fn queries() -> Vec<Query> {
    let mut queries = vec![
        Query::new(),
        Query::new().with_time_range(100, 300),
        Query::new().with_faulted(false),
        Query::new().with_id_pattern(Pattern::new("test-1*")),
        Query::new().with_id_pattern(Pattern::new("test-?")),
        Query::new().with_request_id("nope"),
        Query {
            dst: Some("db".into()),
            ..Query::default()
        },
    ];
    for id in 0..16 {
        queries.push(Query::new().with_request_id(format!("test-{id}")));
    }
    for src in SERVICES {
        for dst in SERVICES {
            queries.push(Query::edge(src, dst));
            queries.push(Query::requests(src, dst).with_request_id("test-3"));
            queries.push(Query::replies(src, dst).with_id_pattern(Pattern::new("test-*")));
        }
    }
    queries
}

fn flows(store: &EventStore) -> Vec<(Name, Vec<Event>)> {
    let mut flows = Vec::new();
    store.for_each_flow(|id, events| {
        flows.push((id.clone(), events.iter().map(|&e| e.clone()).collect()));
    });
    flows
}

#[test]
fn record_batch_indexes_as_record_event_does() {
    for shards in SHARDS {
        for run in [1, 2, 128] {
            let mut rng = SplitMix(0xBA7C + (shards * 1000 + run) as u64);
            let batched = EventStore::with_shards(shards);
            let singly = EventStore::with_shards(shards);
            let mut tag = 0;
            for round in 0..5 {
                let len = [128, 1, 7, 128, 300][round];
                let events = burst(&mut rng, len, run, &mut tag);
                for event in &events {
                    singly.record_event(event.clone());
                }
                batched.record_batch(events);
                // An append between batches lands in the same lists.
                let lone = random_event(&mut rng, 1_000_000 + round as u64);
                singly.record_event(lone.clone());
                batched.record_event(lone);
                if round == 2 {
                    assert_eq!(batched.prune_before(50), singly.prune_before(50));
                }
            }
            let context = format!("shards={shards} run={run}");
            assert_eq!(batched.len(), singly.len(), "{context}");
            for query in queries() {
                let expected = singly.query(&query);
                assert_eq!(batched.query(&query), expected, "{context} {query:?}");
                assert_eq!(batched.count(&query), expected.len(), "{context} {query:?}");
            }
            assert_eq!(flows(&batched), flows(&singly), "{context}");
            assert_eq!(batched.request_ids(), singly.request_ids(), "{context}");
            assert_eq!(batched.events_after(0), singly.events_after(0), "{context}");
        }
    }
}

// ---------------------------------------------------------------------
// (c) read_line_after against read_line
// ---------------------------------------------------------------------

fn encoded(event: &Event) -> Vec<u8> {
    let mut out = Vec::new();
    write_line(event, &mut out);
    assert_eq!(out.pop(), Some(b'\n'));
    out
}

/// Whether two names are one allocation. (The shared empty name is one
/// allocation wherever it came from.)
fn same_allocation(a: &Name, b: &Name) -> bool {
    std::ptr::eq(a.as_str(), b.as_str())
}

/// For each name `read_line_after` may share: the two events' names.
fn shareable<'a>(event: &'a Event, prev: &'a Event) -> Vec<(&'a Name, &'a Name, &'static str)> {
    let mut pairs = vec![
        (&event.src, &prev.src, "src"),
        (&event.dst, &prev.dst, "dst"),
        (&event.agent, &prev.agent, "agent"),
    ];
    if let (Some(id), Some(prev_id)) = (&event.request_id, &prev.request_id) {
        pairs.push((id, prev_id, "request_id"));
    }
    pairs
}

#[test]
fn read_line_after_is_read_line_and_shares_only_equal_names() {
    let mut rng = SplitMix(0x11AE);
    let corpus: Vec<Event> = (0..360).map(|tag| random_event(&mut rng, tag)).collect();
    let lines: Vec<Vec<u8>> = corpus.iter().map(encoded).collect();
    let (mut shared, mut fell_back) = (0usize, 0usize);
    for (line, event) in lines.iter().zip(&corpus) {
        let plain = read_line(line).expect("the codec reads what it wrote");
        assert_eq!(&plain, event);
        assert_eq!(read_line_after(line, None).ok().as_ref(), Some(event));
        let fast = read_fast(line).is_some();
        fell_back += usize::from(!fast);
        for prev in &corpus {
            let after = read_line_after(line, Some(prev)).expect("prev cannot make a line fail");
            assert_eq!(&after, event, "prev={prev:?}");
            for (name, prev_name, field) in shareable(&after, prev) {
                if name.is_empty() {
                    continue; // one shared allocation either way
                }
                let expected = fast && name == prev_name;
                assert_eq!(
                    same_allocation(name, prev_name),
                    expected,
                    "{field} of {event:?} after {prev:?}"
                );
                shared += usize::from(expected);
            }
            // Only those four: a span ID equal to prev's is its own.
            if let (Some(span), Some(prev_span)) = (&after.span_id, &prev.span_id) {
                assert!(!same_allocation(span, prev_span));
            }
        }
    }
    // The corpus exercised both outcomes and both readers.
    assert!(shared > 10_000, "{shared} names shared");
    assert!(fell_back > 20, "{fell_back} lines took the serde fallback");

    // A malformed line is the same error with and without `prev`.
    for bad in [
        &b"not json"[..],
        b"{}",
        b"",
        &lines[0][..lines[0].len() - 1],
    ] {
        let plain = read_line(bad).map_err(|err| err.to_string());
        let after = read_line_after(bad, Some(&corpus[0])).map_err(|err| err.to_string());
        assert!(plain.is_err());
        assert_eq!(after, plain);
    }
}
