//! The centralized observation store.
//!
//! Gremlin agents report every observation to a central store; the
//! Assertion Checker then runs queries over it (paper §4.2). The
//! paper's implementation used logstash + Elasticsearch; this store
//! provides the same query surface — filtered, time-sorted retrieval —
//! as an in-memory indexed structure.
//!
//! # Sharding
//!
//! A resilience test at production traffic levels has every agent
//! thread appending observations concurrently. A single
//! `RwLock<Vec<Event>>` serializes all of them; instead the store is
//! split into N shards (default: one per CPU), each with its own lock,
//! event vector, and edge/request-ID indices. A write touches exactly
//! one shard; queries fan out over all shards and merge the matches
//! back into one timestamp-sorted list.
//!
//! Every event is tagged with a global, monotonically increasing
//! sequence number when it is recorded. Merged query results are
//! ordered by `(timestamp, sequence)`, which reproduces exactly the
//! order the previous single-vector implementation produced with a
//! stable sort by timestamp (ties broken by insertion order).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::pattern::Pattern;

use gremlin_telemetry::{Counter, Gauge, LatencyHistogram, MetricsRegistry};
use parking_lot::RwLock;

use crate::event::{Event, Micros};
use crate::name::Name;
use crate::ndjson;
use crate::query::Query;

/// A sink that accepts observation events.
///
/// Gremlin agents hold an `Arc<dyn EventSink>`; in single-process
/// deployments this is the [`EventStore`] itself, in distributed
/// deployments it can be a forwarding client.
pub trait EventSink: Send + Sync {
    /// Records one observation.
    fn record(&self, event: Event);

    /// Records a batch of observations. The default implementation
    /// records events one by one; sinks with per-call overhead (a lock
    /// acquisition, a network round trip) should override it.
    fn record_batch(&self, events: Vec<Event>) {
        for event in events {
            self.record(event);
        }
    }
}

/// An in-memory, sharded, indexed, concurrently-writable event store.
///
/// Events are indexed by `(src, dst)` edge for the common
/// `GetRequests(Src, Dst, …)` query shape. Query results are always
/// sorted by timestamp, regardless of arrival order.
///
/// # Examples
///
/// ```
/// use gremlin_store::{Event, EventStore, Query};
/// use std::time::Duration;
///
/// let store = EventStore::new();
/// store.record_event(Event::request("a", "b", "GET", "/x").with_request_id("test-1"));
/// store.record_event(Event::response("a", "b", 503, Duration::from_millis(2)).with_request_id("test-1"));
///
/// let requests = store.query(&Query::requests("a", "b"));
/// assert_eq!(requests.len(), 1);
/// let replies = store.query(&Query::replies("a", "b"));
/// assert_eq!(replies[0].status(), Some(503));
/// ```
#[derive(Debug)]
pub struct EventStore {
    shards: Box<[Shard]>,
    /// Global insertion sequence; total-orders events across shards.
    seq: AtomicU64,
    /// Total stored events, maintained outside the shard locks so
    /// `len()` never has to fan out.
    count: AtomicUsize,
    /// Telemetry handles, set via [`EventStore::enable_telemetry`].
    telemetry: RwLock<Option<StoreTelemetry>>,
}

#[derive(Debug, Default)]
struct Shard {
    inner: RwLock<ShardInner>,
}

#[derive(Debug, Clone)]
struct StoredEvent {
    /// Global insertion sequence number; ties on timestamp sort in
    /// insertion order, matching the old stable-sort behavior.
    seq: u64,
    /// The highest `seq` in this shard up to and including this slot.
    /// Non-decreasing along the vector (and still an upper bound after
    /// `prune_before` removes slots), so a tail read can binary-search
    /// for where `seq >= cursor` can first occur.
    seq_high: u64,
    event: Event,
}

#[derive(Debug, Default)]
struct ShardInner {
    events: Vec<StoredEvent>,
    /// Edge index: (src, dst) -> indices into `events`.
    edges: HashMap<(Name, Name), Vec<usize>>,
    /// Request-ID index: id -> indices into `events`. A BTreeMap so
    /// prefix patterns can range-scan.
    ids: BTreeMap<Name, Vec<usize>>,
}

#[derive(Debug)]
struct StoreTelemetry {
    appends: Arc<Counter>,
    size: Arc<Gauge>,
    query_seconds: Arc<LatencyHistogram>,
    /// One gauge per shard, labelled `shard="<index>"`.
    shard_events: Vec<Arc<Gauge>>,
}

impl StoreTelemetry {
    fn new(registry: &MetricsRegistry, shards: usize) -> StoreTelemetry {
        let shard_events = (0..shards)
            .map(|index| {
                let label = index.to_string();
                registry.gauge(
                    "gremlin_store_shard_events",
                    "Events currently held by each observation-store shard.",
                    &[("shard", label.as_str())],
                )
            })
            .collect();
        StoreTelemetry {
            appends: registry.counter(
                "gremlin_store_appends_total",
                "Events appended to the observation store.",
                &[],
            ),
            size: registry.gauge(
                "gremlin_store_events",
                "Events currently held by the observation store.",
                &[],
            ),
            query_seconds: registry.histogram(
                "gremlin_store_query_seconds",
                "Latency of observation-store queries.",
                &[],
            ),
            shard_events,
        }
    }
}

impl ShardInner {
    fn append(&mut self, seq: u64, event: Event) {
        let index = self.events.len();
        self.edges
            .entry((event.src.clone(), event.dst.clone()))
            .or_default()
            .push(index);
        if let Some(id) = &event.request_id {
            self.ids.entry(id.clone()).or_default().push(index);
        }
        let seq_high = self
            .events
            .last()
            .map_or(seq, |last| last.seq_high.max(seq));
        self.events.push(StoredEvent {
            seq,
            seq_high,
            event,
        });
    }

    /// Appends one batch's share of this shard, building the indexes
    /// [`ShardInner::append`] would build event by event, with one
    /// lookup per *run* of consecutive events on the same edge or in
    /// the same flow instead of one per event: a batch comes from one
    /// agent, and a request and its response are adjacent.
    fn append_batch(&mut self, bucket: Vec<(u64, Event)>) {
        let first = self.events.len();
        let mut slot = first;
        for run in bucket.chunk_by(|(_, a), (_, b)| a.src == b.src && a.dst == b.dst) {
            let (_, head) = &run[0];
            self.edges
                .entry((head.src.clone(), head.dst.clone()))
                .or_default()
                .extend(slot..slot + run.len());
            slot += run.len();
        }
        slot = first;
        for run in bucket.chunk_by(|(_, a), (_, b)| a.request_id == b.request_id) {
            if let Some(id) = &run[0].1.request_id {
                self.ids
                    .entry(id.clone())
                    .or_default()
                    .extend(slot..slot + run.len());
            }
            slot += run.len();
        }
        let mut seq_high = self.events.last().map_or(0, |last| last.seq_high);
        self.events.extend(bucket.into_iter().map(|(seq, event)| {
            seq_high = seq_high.max(seq);
            StoredEvent {
                seq,
                seq_high,
                event,
            }
        }));
    }

    fn rebuild_indexes(&mut self) {
        self.edges.clear();
        self.ids.clear();
        for index in 0..self.events.len() {
            let event = &self.events[index].event;
            self.edges
                .entry((event.src.clone(), event.dst.clone()))
                .or_default()
                .push(index);
            if let Some(id) = &event.request_id {
                self.ids.entry(id.clone()).or_default().push(index);
            }
        }
    }

    /// Pushes every event of this shard that satisfies `query` onto
    /// `out`, in no particular order.
    ///
    /// This is the store's only index selection. A query naming both
    /// ends of an edge reads the edge index — unless it also names one
    /// exact request ID whose flow is shorter than the edge's list, in
    /// which case the request-ID index is the narrower one. Without an
    /// edge, an exact ID looks the flow up and a prefix range-scans
    /// the (sorted) ID index; everything else scans the shard.
    fn gather<'a>(
        &'a self,
        query: &Query,
        edge: Option<&(Name, Name)>,
        out: &mut Vec<&'a StoredEvent>,
    ) {
        let slots_of = |slots: Option<&'a Vec<usize>>| slots.map_or(&[][..], Vec::as_slice);
        let on_edge = edge.map(|key| slots_of(self.edges.get(key)));
        let of_flow = match &query.id_pattern {
            Some(Pattern::Exact(id)) => Some(slots_of(self.ids.get(id.as_str()))),
            _ => None,
        };
        match (on_edge, of_flow, &query.id_pattern) {
            (Some(edge), Some(flow), _) if flow.len() < edge.len() => {
                self.keep(flow, |event| query.matches(event), out);
            }
            // The edge index already fixed src and dst.
            (Some(edge), _, _) => self.keep(edge, |event| query.matches_unindexed(event), out),
            (None, Some(flow), _) => self.keep(flow, |event| query.matches(event), out),
            (None, None, Some(Pattern::Prefix(prefix))) => {
                let from = std::ops::Bound::Included(prefix.as_str());
                for (_, slots) in self
                    .ids
                    .range::<str, _>((from, std::ops::Bound::Unbounded))
                    .take_while(|(id, _)| id.starts_with(prefix.as_str()))
                {
                    self.keep(slots, |event| query.matches(event), out);
                }
            }
            (None, None, _) => out.extend(
                self.events
                    .iter()
                    .filter(|stored| query.matches(&stored.event)),
            ),
        }
    }

    /// Pushes the events in `slots` that satisfy `matches` onto `out`.
    fn keep<'a>(
        &'a self,
        slots: &[usize],
        matches: impl Fn(&Event) -> bool,
        out: &mut Vec<&'a StoredEvent>,
    ) {
        out.extend(
            slots
                .iter()
                .map(|&slot| &self.events[slot])
                .filter(|stored| matches(&stored.event)),
        );
    }
}

/// Puts `matched` in the store's result order — timestamp, then
/// insertion sequence, which is what a stable sort by timestamp over
/// one insertion-ordered vector would give — and returns the events.
fn in_log_order<'a>(matched: &mut [&'a StoredEvent]) -> Vec<&'a Event> {
    matched.sort_unstable_by_key(|stored| (stored.event.timestamp_us, stored.seq));
    matched.iter().map(|stored| &stored.event).collect()
}

fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(1, 64)
}

impl EventStore {
    /// Creates an empty store with one shard per available CPU.
    pub fn new() -> EventStore {
        EventStore::with_shards(default_shards())
    }

    /// Creates an empty store with an explicit shard count (minimum 1).
    pub fn with_shards(shards: usize) -> EventStore {
        let shards = shards.max(1);
        EventStore {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            seq: AtomicU64::new(0),
            count: AtomicUsize::new(0),
            telemetry: RwLock::new(None),
        }
    }

    /// Creates an empty store behind an [`Arc`], ready to share with
    /// agents.
    pub fn shared() -> Arc<EventStore> {
        Arc::new(EventStore::new())
    }

    /// Number of shards this store spreads writes over.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Starts recording store activity (appends, total and per-shard
    /// size, query latency) into `registry`. Idempotent in effect:
    /// calling again re-binds the handles to the given registry.
    pub fn enable_telemetry(&self, registry: &MetricsRegistry) {
        let telemetry = StoreTelemetry::new(registry, self.shards.len());
        telemetry
            .size
            .set(self.count.load(Ordering::Relaxed) as i64);
        for (index, shard) in self.shards.iter().enumerate() {
            telemetry.shard_events[index].set(shard.inner.read().events.len() as i64);
        }
        *self.telemetry.write() = Some(telemetry);
    }

    fn shard_for(&self, seq: u64) -> usize {
        (seq % self.shards.len() as u64) as usize
    }

    /// Appends one event.
    pub fn record_event(&self, event: Event) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let shard = self.shard_for(seq);
        let shard_len = {
            let mut inner = self.shards[shard].inner.write();
            inner.append(seq, event);
            inner.events.len()
        };
        self.count.fetch_add(1, Ordering::Relaxed);
        if let Some(telemetry) = self.telemetry.read().as_ref() {
            telemetry.appends.inc();
            telemetry
                .size
                .set(self.count.load(Ordering::Relaxed) as i64);
            telemetry.shard_events[shard].set(shard_len as i64);
        }
    }

    /// Appends a batch of events, acquiring each shard lock at most
    /// once. This is the path collectors use so one lock acquisition
    /// covers a whole agent batch.
    pub fn record_batch(&self, events: Vec<Event>) {
        let n = events.len();
        if n == 0 {
            return;
        }
        let base = self.seq.fetch_add(n as u64, Ordering::Relaxed);
        let per_shard = n.div_ceil(self.shards.len());
        let mut buckets: Vec<Vec<(u64, Event)>> = Vec::new();
        buckets.resize_with(self.shards.len(), || Vec::with_capacity(per_shard));
        for (offset, event) in events.into_iter().enumerate() {
            let seq = base + offset as u64;
            buckets[self.shard_for(seq)].push((seq, event));
        }
        let mut shard_lens: Vec<(usize, usize)> = Vec::new();
        for (shard, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let mut inner = self.shards[shard].inner.write();
            inner.append_batch(bucket);
            shard_lens.push((shard, inner.events.len()));
        }
        self.count.fetch_add(n, Ordering::Relaxed);
        if let Some(telemetry) = self.telemetry.read().as_ref() {
            telemetry.appends.add(n as u64);
            telemetry
                .size
                .set(self.count.load(Ordering::Relaxed) as i64);
            for (shard, len) in shard_lens {
                telemetry.shard_events[shard].set(len as i64);
            }
        }
    }

    /// Appends many events.
    pub fn extend(&self, events: impl IntoIterator<Item = Event>) {
        self.record_batch(events.into_iter().collect());
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// Returns `true` if the store holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes all events (used between test runs; paper §9 "state
    /// cleanup").
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut inner = shard.inner.write();
            inner.events.clear();
            inner.edges.clear();
            inner.ids.clear();
        }
        self.count.store(0, Ordering::Relaxed);
        if let Some(telemetry) = self.telemetry.read().as_ref() {
            telemetry.size.set(0);
            for gauge in &telemetry.shard_events {
                gauge.set(0);
            }
        }
    }

    /// Drops every event older than `cutoff_us` (log retention for
    /// long-running agents), returning how many were removed. Shard
    /// indexes are rebuilt.
    pub fn prune_before(&self, cutoff_us: Micros) -> usize {
        let mut removed = 0;
        let mut shard_lens: Vec<usize> = Vec::with_capacity(self.shards.len());
        for shard in self.shards.iter() {
            let mut inner = shard.inner.write();
            let before = inner.events.len();
            inner
                .events
                .retain(|stored| stored.event.timestamp_us >= cutoff_us);
            let dropped = before - inner.events.len();
            if dropped > 0 {
                inner.rebuild_indexes();
                removed += dropped;
            }
            shard_lens.push(inner.events.len());
        }
        if removed > 0 {
            self.count.fetch_sub(removed, Ordering::Relaxed);
        }
        if let Some(telemetry) = self.telemetry.read().as_ref() {
            telemetry
                .size
                .set(self.count.load(Ordering::Relaxed) as i64);
            for (shard, len) in shard_lens.into_iter().enumerate() {
                telemetry.shard_events[shard].set(len as i64);
            }
        }
        removed
    }

    /// Runs `query` and hands the matching events to `visit`, borrowed
    /// from the store and sorted by timestamp (insertion order on
    /// ties) — the read primitive every query method is built on.
    ///
    /// Every shard's read lock is taken, in shard order, before the
    /// first event is looked at and held until `visit` returns, so the
    /// slice is one consistent view of the log and nothing is copied
    /// that `visit` does not copy itself. Which index narrows the scan
    /// is decided per shard by the query's shape: the `(src, dst)`
    /// edge index, the request-ID index (exact IDs and prefixes), or a
    /// scan.
    ///
    /// **`visit` must not write to or re-enter the store.** A write
    /// (`record_event`, `clear`, …) waits for the read locks `visit`
    /// is running under and never returns; a nested read can wait
    /// behind a writer that is itself waiting for those locks.
    ///
    /// # Examples
    ///
    /// ```
    /// use gremlin_store::{Event, EventStore, Query};
    ///
    /// let store = EventStore::new();
    /// store.record_event(Event::request("a", "b", "GET", "/x").with_timestamp(2));
    /// store.record_event(Event::request("a", "b", "GET", "/y").with_timestamp(1));
    /// let first = store.read(&Query::edge("a", "b"), |events| events[0].timestamp_us);
    /// assert_eq!(first, 1);
    /// ```
    pub fn read<R>(&self, query: &Query, visit: impl FnOnce(&[&Event]) -> R) -> R {
        let started = Instant::now();
        let edge: Option<(Name, Name)> = match (&query.src, &query.dst) {
            (Some(src), Some(dst)) => Some((Name::from(src.as_str()), Name::from(dst.as_str()))),
            _ => None,
        };
        let shards: Vec<_> = self.shards.iter().map(|shard| shard.inner.read()).collect();
        let mut matched: Vec<&StoredEvent> = Vec::new();
        for shard in &shards {
            shard.gather(query, edge.as_ref(), &mut matched);
        }
        let result = visit(&in_log_order(&mut matched));
        drop(shards);
        self.record_query(started);
        result
    }

    /// Hands every flow — the events carrying one request ID — to
    /// `visit`, in request-ID order, each as [`EventStore::read`] would
    /// return it for that exact ID: borrowed, sorted by timestamp
    /// (insertion order on ties). Events without a request ID belong
    /// to no flow.
    ///
    /// All flows are read under one set of shard read locks, so they
    /// are mutually consistent, and the per-shard request-ID index is
    /// walked once instead of being looked up per flow. The rule of
    /// [`EventStore::read`] applies: `visit` must not write to or
    /// re-enter the store.
    pub fn for_each_flow(&self, mut visit: impl FnMut(&Name, &[&Event])) {
        let started = Instant::now();
        let shards: Vec<_> = self.shards.iter().map(|shard| shard.inner.read()).collect();
        // Each shard's ID index is sorted: merge them, lowest ID first.
        let mut cursors: Vec<_> = shards
            .iter()
            .map(|shard| shard.ids.iter().peekable())
            .collect();
        let mut flow: Vec<&StoredEvent> = Vec::new();
        while let Some(id) = cursors
            .iter_mut()
            .filter_map(|cursor| cursor.peek().map(|(id, _)| *id))
            .min()
        {
            flow.clear();
            for (shard, cursor) in shards.iter().zip(&mut cursors) {
                if let Some((_, slots)) = cursor.next_if(|(candidate, _)| *candidate == id) {
                    flow.extend(slots.iter().map(|&slot| &shard.events[slot]));
                }
            }
            visit(id, &in_log_order(&mut flow));
        }
        drop(cursors);
        drop(shards);
        self.record_query(started);
    }

    fn record_query(&self, started: Instant) {
        if let Some(telemetry) = self.telemetry.read().as_ref() {
            telemetry.query_seconds.record(started.elapsed());
        }
    }

    /// Returns every stored event sorted by timestamp (insertion order
    /// on ties).
    pub fn snapshot(&self) -> Vec<Event> {
        self.query(&Query::new())
    }

    /// Runs `query`, returning copies of the matching events sorted by
    /// timestamp (insertion order on ties). See [`EventStore::read`]
    /// for how the scan is narrowed, and for reading without copying.
    pub fn query(&self, query: &Query) -> Vec<Event> {
        self.read(query, |events| {
            events.iter().map(|&event| event.clone()).collect()
        })
    }

    /// Counts matching events without copying them.
    pub fn count(&self, query: &Query) -> usize {
        self.read(query, |events| events.len())
    }

    /// The timestamp of the earliest stored event, if any.
    pub fn earliest(&self) -> Option<Micros> {
        self.shards
            .iter()
            .filter_map(|shard| {
                shard
                    .inner
                    .read()
                    .events
                    .iter()
                    .map(|stored| stored.event.timestamp_us)
                    .min()
            })
            .min()
    }

    /// The timestamp of the latest stored event, if any.
    pub fn latest(&self) -> Option<Micros> {
        self.shards
            .iter()
            .filter_map(|shard| {
                shard
                    .inner
                    .read()
                    .events
                    .iter()
                    .map(|stored| stored.event.timestamp_us)
                    .max()
            })
            .max()
    }

    /// Hands `visit` every event with insertion sequence `>= cursor`,
    /// borrowed from the store and in arrival order, and returns its
    /// result with the cursor to pass on the next poll — the tail read
    /// every follower is built on.
    ///
    /// A follower starts at `0` (full history) or
    /// [`EventStore::tail_cursor`] (future events only) and calls
    /// again with each returned cursor to receive exactly the events
    /// that arrived in between. A shard's vector is not sequence-sorted
    /// under concurrent writers, but the running maximum kept beside
    /// each slot is: the tail starts where that maximum first reaches
    /// `cursor`, so a poll costs O(log n + new) and copies nothing
    /// that `visit` does not copy itself.
    ///
    /// Every shard's read lock is held until `visit` returns, and the
    /// rule of [`EventStore::read`] applies: **`visit` must not write
    /// to or re-enter the store**, nor wait for anything that does — a
    /// network write belongs after the call. Locks are always taken in
    /// the order follower (a `LiveMonitor`'s, then its
    /// [`HealthMonitor`](crate::HealthMonitor)'s) before shards, never
    /// the reverse.
    ///
    /// # Examples
    ///
    /// ```
    /// use gremlin_store::{Event, EventStore};
    ///
    /// let store = EventStore::new();
    /// store.record_event(Event::request("a", "b", "GET", "/x"));
    /// let (seen, cursor) = store.read_after(0, |events| events.len());
    /// assert_eq!(seen, 1);
    /// store.record_event(Event::request("a", "b", "GET", "/y"));
    /// let (fresh, _) = store.read_after(cursor, |events| events.len());
    /// assert_eq!(fresh, 1);
    /// ```
    pub fn read_after<R>(&self, cursor: u64, visit: impl FnOnce(&[&Event]) -> R) -> (R, u64) {
        let shards: Vec<_> = self.shards.iter().map(|shard| shard.inner.read()).collect();
        let mut fresh: Vec<&StoredEvent> = Vec::new();
        for shard in &shards {
            let tail = shard
                .events
                .partition_point(|stored| stored.seq_high < cursor);
            fresh.extend(
                shard.events[tail..]
                    .iter()
                    .filter(|stored| stored.seq >= cursor),
            );
        }
        if !fresh.is_sorted_by_key(|stored| stored.seq) {
            fresh.sort_unstable_by_key(|stored| stored.seq);
        }
        let next = fresh.last().map_or(cursor, |stored| stored.seq + 1);
        let events: Vec<&Event> = fresh.iter().map(|stored| &stored.event).collect();
        (visit(&events), next)
    }

    /// Copies of every event with insertion sequence `>= cursor`, in
    /// arrival order, with the next cursor: [`EventStore::read_after`]
    /// for callers that keep the batch.
    pub fn events_after(&self, cursor: u64) -> (Vec<Event>, u64) {
        self.read_after(cursor, |events| {
            events.iter().map(|&event| event.clone()).collect()
        })
    }

    /// The cursor positioned after every event recorded so far; a
    /// tail started here sees only future events.
    pub fn tail_cursor(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Every distinct request ID seen in the store, sorted.
    pub fn request_ids(&self) -> Vec<Name> {
        let mut ids: Vec<Name> = Vec::new();
        self.for_each_flow(|id, _| ids.push(id.clone()));
        ids
    }

    /// Serializes every event as newline-delimited JSON
    /// ([`ndjson::write_line`]), from one borrowed read of the log.
    ///
    /// # Errors
    ///
    /// None today — the line codec cannot fail; the `Result` is kept
    /// for the callers written against the serde signature.
    pub fn export_json(&self) -> serde_json::Result<String> {
        let bytes = self.read(&Query::new(), |events| {
            let mut out = Vec::new();
            for event in events {
                ndjson::write_line(event, &mut out);
            }
            out
        });
        String::from_utf8(bytes).map_err(serde::ser::Error::custom)
    }

    /// Imports newline-delimited JSON produced by
    /// [`EventStore::export_json`] ([`ndjson::lines`],
    /// [`ndjson::read_line`]).
    ///
    /// # Errors
    ///
    /// Returns a `serde_json::Error` on the first malformed line.
    pub fn import_json(&self, text: &str) -> serde_json::Result<usize> {
        let mut imported = 0;
        for line in ndjson::lines(text.as_bytes()) {
            self.record_event(ndjson::read_line(line)?);
            imported += 1;
        }
        Ok(imported)
    }
}

impl Default for EventStore {
    fn default() -> EventStore {
        EventStore::new()
    }
}

impl EventSink for EventStore {
    fn record(&self, event: Event) {
        self.record_event(event);
    }

    fn record_batch(&self, events: Vec<Event>) {
        EventStore::record_batch(self, events);
    }
}

impl EventSink for Arc<EventStore> {
    fn record(&self, event: Event) {
        self.record_event(event);
    }

    fn record_batch(&self, events: Vec<Event>) {
        EventStore::record_batch(self, events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use std::time::Duration;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::request("a", "b", "GET", "/1")
                .with_request_id("test-1")
                .with_timestamp(30),
            Event::request("a", "b", "GET", "/2")
                .with_request_id("test-2")
                .with_timestamp(10),
            Event::response("a", "b", 200, Duration::from_millis(1))
                .with_request_id("test-1")
                .with_timestamp(40),
            Event::request("b", "c", "GET", "/3")
                .with_request_id("test-1")
                .with_timestamp(20),
        ]
    }

    #[test]
    fn record_and_len() {
        let store = EventStore::new();
        assert!(store.is_empty());
        store.extend(sample_events());
        assert_eq!(store.len(), 4);
        assert!(!store.is_empty());
    }

    #[test]
    fn query_by_edge_sorted_by_time() {
        let store = EventStore::new();
        store.extend(sample_events());
        let result = store.query(&Query::edge("a", "b"));
        assert_eq!(result.len(), 3);
        let times: Vec<_> = result.iter().map(|e| e.timestamp_us).collect();
        assert_eq!(times, vec![10, 30, 40]);
    }

    #[test]
    fn query_requests_and_replies() {
        let store = EventStore::new();
        store.extend(sample_events());
        let requests = store.query(&Query::requests("a", "b"));
        assert_eq!(requests.len(), 2);
        assert!(requests.iter().all(|e| e.kind.is_request()));
        let replies = store.query(&Query::replies("a", "b"));
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].status(), Some(200));
    }

    #[test]
    fn query_unindexed_scans_everything() {
        let store = EventStore::new();
        store.extend(sample_events());
        let all = store.query(&Query::new());
        assert_eq!(all.len(), 4);
        let by_id = store.query(&Query::new().with_request_id("test-1"));
        assert_eq!(by_id.len(), 3);
    }

    #[test]
    fn count_matches_query_len() {
        let store = EventStore::new();
        store.extend(sample_events());
        for q in [
            Query::new(),
            Query::edge("a", "b"),
            Query::requests("a", "b"),
            Query::edge("nope", "b"),
        ] {
            assert_eq!(store.count(&q), store.query(&q).len());
        }
    }

    /// A log with several flows crossing shared edges, events without
    /// an ID, and timestamp ties.
    fn mixed_log() -> Vec<Event> {
        let mut events = sample_events();
        for i in 0..24u64 {
            let (src, dst) = [("a", "b"), ("b", "c"), ("a", "c")][(i % 3) as usize];
            let mut event = if i % 2 == 0 {
                Event::request(src, dst, "GET", format!("/{i}"))
            } else {
                Event::response(src, dst, 200, Duration::from_millis(1))
            }
            .with_timestamp(100 - (i / 2) * 7);
            if i % 5 != 0 {
                event = event.with_request_id(format!("test-{}", i % 4));
            }
            events.push(event);
        }
        events
    }

    /// `count` goes through the same index selection as `query`: for
    /// every query shape, on every shard count, the two agree with each
    /// other and with a scan of the whole log. (`count` used to ignore
    /// the request-ID index.)
    #[test]
    fn count_equals_query_len_whichever_index_answers() {
        let queries = [
            // id-only: exact, prefix, glob, missing.
            Query::new().with_request_id("test-1"),
            Query::new().with_id_pattern(Pattern::new("test-*")),
            Query::new().with_id_pattern(Pattern::new("test-?")),
            Query::new().with_request_id("nope"),
            // edge + id: the flow is shorter than the edge's list, longer
            // than it, and absent from it.
            Query::edge("a", "b").with_request_id("test-2"),
            Query::edge("b", "c").with_request_id("test-1"),
            Query::edge("a", "c").with_request_id("test-2"),
            Query::requests("a", "b").with_id_pattern(Pattern::new("test-*")),
            // dst-only and src-only: no index applies.
            Query {
                dst: Some("c".into()),
                ..Query::default()
            },
            Query {
                src: Some("a".into()),
                id_pattern: Some(Pattern::Exact("test-1".into())),
                ..Query::default()
            },
            Query::new().with_time_range(20, 90).with_faulted(false),
        ];
        for shards in [1, 2, 7] {
            let store = EventStore::with_shards(shards);
            let log = mixed_log();
            // Half singly, half as a batch: both append paths index.
            let (singly, batched) = log.split_at(log.len() / 2);
            for event in singly {
                store.record_event(event.clone());
            }
            store.record_batch(batched.to_vec());
            let all = store.snapshot();
            assert_eq!(all.len(), log.len());
            for query in &queries {
                let found = store.query(query);
                let scanned: Vec<&Event> = all.iter().filter(|e| query.matches(e)).collect();
                assert_eq!(
                    found.iter().collect::<Vec<_>>(),
                    scanned,
                    "shards={shards} query={query:?}"
                );
                assert_eq!(store.count(query), found.len(), "shards={shards} {query:?}");
            }
        }
    }

    #[test]
    fn read_lends_the_matches_without_copying() {
        let store = EventStore::with_shards(3);
        store.extend(sample_events());
        let times = store.read(&Query::edge("a", "b"), |events| {
            events.iter().map(|e| e.timestamp_us).collect::<Vec<_>>()
        });
        assert_eq!(times, vec![10, 30, 40]);
        assert_eq!(store.read(&Query::edge("x", "y"), |events| events.len()), 0);
    }

    #[test]
    fn for_each_flow_yields_every_flow_as_its_exact_query() {
        for shards in [1, 2, 7] {
            let store = EventStore::with_shards(shards);
            store.extend(mixed_log());
            let mut seen: Vec<(Name, Vec<Event>)> = Vec::new();
            store.for_each_flow(|id, events| {
                seen.push((id.clone(), events.iter().map(|&e| e.clone()).collect()));
            });
            let ids: Vec<Name> = seen.iter().map(|(id, _)| id.clone()).collect();
            assert_eq!(ids, store.request_ids());
            assert_eq!(ids, ["test-0", "test-1", "test-2", "test-3"]);
            for (id, events) in &seen {
                assert_eq!(
                    events,
                    &store.query(&Query::new().with_request_id(id.as_str())),
                    "shards={shards} flow={id}"
                );
            }
        }
        EventStore::new().for_each_flow(|_, _| panic!("an empty store has no flows"));
    }

    #[test]
    fn every_read_wrapper_records_query_latency() {
        let registry = MetricsRegistry::new();
        let store = EventStore::with_shards(2);
        store.enable_telemetry(&registry);
        store.extend(sample_events());
        let _ = store.query(&Query::edge("a", "b"));
        let _ = store.count(&Query::new().with_request_id("test-1"));
        let _ = store.snapshot();
        let _ = store.request_ids();
        store.read(&Query::new(), |_| ());
        store.for_each_flow(|_, _| ());
        let recorded = registry
            .snapshot()
            .histogram("gremlin_store_query_seconds", &[])
            .unwrap()
            .count();
        assert_eq!(recorded, 6);
    }

    #[test]
    fn clear_empties_store() {
        let store = EventStore::new();
        store.extend(sample_events());
        store.clear();
        assert!(store.is_empty());
        assert!(store.query(&Query::edge("a", "b")).is_empty());
    }

    #[test]
    fn id_index_exact_and_prefix_queries() {
        let store = EventStore::new();
        store.extend(sample_events()); // ids test-1 (x3), test-2
                                       // Exact: uses the id index.
        let exact = store.query(&Query::new().with_request_id("test-1"));
        assert_eq!(exact.len(), 3);
        assert!(exact
            .windows(2)
            .all(|w| w[0].timestamp_us <= w[1].timestamp_us));
        // Prefix: range-scans the id index.
        let prefix = store.query(&Query::new().with_id_pattern(Pattern::new("test-*")));
        assert_eq!(prefix.len(), 4);
        // Prefix that excludes some ids.
        let narrow = store.query(&Query::new().with_id_pattern(Pattern::new("test-2*")));
        assert_eq!(narrow.len(), 1);
        // Glob falls back to the scan and agrees.
        let glob = store.query(&Query::new().with_id_pattern(Pattern::new("test-?")));
        assert_eq!(glob.len(), 4);
        // Missing id.
        assert!(store
            .query(&Query::new().with_request_id("nope"))
            .is_empty());
    }

    #[test]
    fn id_index_combines_with_other_filters() {
        let store = EventStore::new();
        store.extend(sample_events());
        // id test-1 exists on edges (a,b) and (b,c); restrict by kind.
        let query = Query {
            kind: crate::KindFilter::Requests,
            id_pattern: Some(Pattern::Exact("test-1".into())),
            ..Query::default()
        };
        let result = store.query(&query);
        assert_eq!(result.len(), 2);
        assert!(result.iter().all(|e| e.kind.is_request()));
        assert_eq!(store.count(&query), 2);
    }

    #[test]
    fn id_index_survives_prune_and_clear() {
        let store = EventStore::new();
        store.extend(sample_events());
        store.prune_before(25);
        let after_prune = store.query(&Query::new().with_request_id("test-1"));
        assert_eq!(after_prune.len(), 2); // timestamps 30 and 40 remain
        store.clear();
        assert!(store
            .query(&Query::new().with_request_id("test-1"))
            .is_empty());
    }

    #[test]
    fn prune_removes_old_events_and_keeps_index_valid() {
        let store = EventStore::new();
        store.extend(sample_events()); // timestamps 10, 20, 30, 40
        let removed = store.prune_before(25);
        assert_eq!(removed, 2);
        assert_eq!(store.len(), 2);
        assert_eq!(store.earliest(), Some(30));
        // The rebuilt index still answers edge queries correctly.
        let edge = store.query(&Query::edge("a", "b"));
        assert_eq!(edge.len(), 2);
        assert!(edge.iter().all(|e| e.timestamp_us >= 25));
        assert_eq!(store.count(&Query::edge("a", "b")), 2);
    }

    #[test]
    fn prune_noop_when_nothing_old() {
        let store = EventStore::new();
        store.extend(sample_events());
        assert_eq!(store.prune_before(0), 0);
        assert_eq!(store.len(), 4);
        assert_eq!(store.query(&Query::edge("a", "b")).len(), 3);
    }

    #[test]
    fn prune_everything() {
        let store = EventStore::new();
        store.extend(sample_events());
        assert_eq!(store.prune_before(u64::MAX), 4);
        assert!(store.is_empty());
        assert!(store.query(&Query::edge("a", "b")).is_empty());
    }

    #[test]
    fn earliest_latest() {
        let store = EventStore::new();
        assert_eq!(store.earliest(), None);
        store.extend(sample_events());
        assert_eq!(store.earliest(), Some(10));
        assert_eq!(store.latest(), Some(40));
    }

    #[test]
    fn json_export_import_round_trip() {
        let store = EventStore::new();
        store.extend(sample_events());
        let json = store.export_json().unwrap();
        let restored = EventStore::new();
        let n = restored.import_json(&json).unwrap();
        assert_eq!(n, 4);
        assert_eq!(restored.snapshot(), store.snapshot());
    }

    #[test]
    fn import_skips_blank_lines() {
        let store = EventStore::new();
        let event = Event::request("a", "b", "GET", "/").with_timestamp(1);
        let json = format!("\n{}\n\n", serde_json::to_string(&event).unwrap());
        assert_eq!(store.import_json(&json).unwrap(), 1);
    }

    #[test]
    fn import_rejects_garbage() {
        let store = EventStore::new();
        assert!(store.import_json("not json").is_err());
    }

    #[test]
    fn concurrent_writers() {
        let store = EventStore::shared();
        let mut handles = Vec::new();
        for thread_id in 0..8 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    store.record_event(
                        Event::request("a", "b", "GET", format!("/{thread_id}/{i}"))
                            .with_timestamp((thread_id * 1000 + i) as u64),
                    );
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(store.len(), 800);
        let sorted = store.snapshot();
        assert!(sorted
            .windows(2)
            .all(|w| w[0].timestamp_us <= w[1].timestamp_us));
    }

    #[test]
    fn shard_counts() {
        assert!(EventStore::new().shard_count() >= 1);
        assert_eq!(EventStore::with_shards(3).shard_count(), 3);
        // Minimum of one shard even when asked for zero.
        assert_eq!(EventStore::with_shards(0).shard_count(), 1);
    }

    /// The sharded store must produce byte-identical query results —
    /// same events, same order — as a single-shard (i.e. the old
    /// unsharded) store, including on timestamp ties where the
    /// insertion sequence breaks the tie.
    #[test]
    fn sharded_query_order_matches_single_shard() {
        let single = EventStore::with_shards(1);
        let sharded = EventStore::with_shards(4);
        let mut events = sample_events();
        // Timestamp ties across different shards.
        for i in 0..20 {
            events.push(
                Event::request("a", "b", "GET", format!("/tie/{i}"))
                    .with_request_id(format!("test-tie-{i}"))
                    .with_timestamp(50),
            );
        }
        for event in &events {
            single.record_event(event.clone());
            sharded.record_event(event.clone());
        }
        let queries = [
            Query::new(),
            Query::edge("a", "b"),
            Query::requests("a", "b"),
            Query::replies("a", "b"),
            Query::new().with_request_id("test-1"),
            Query::new().with_id_pattern(Pattern::new("test-*")),
            Query::new().with_id_pattern(Pattern::new("test-tie-1?")),
            Query::new().with_time_range(20, 51),
        ];
        for query in &queries {
            assert_eq!(
                single.query(query),
                sharded.query(query),
                "query: {query:?}"
            );
            assert_eq!(single.count(query), sharded.count(query));
        }
        assert_eq!(single.snapshot(), sharded.snapshot());
    }

    #[test]
    fn record_batch_spreads_and_queries_agree() {
        let store = EventStore::with_shards(4);
        store.record_batch(sample_events());
        assert_eq!(store.len(), 4);
        let result = store.query(&Query::edge("a", "b"));
        let times: Vec<_> = result.iter().map(|e| e.timestamp_us).collect();
        assert_eq!(times, vec![10, 30, 40]);
        // Batches spread over more than one shard.
        let populated = store
            .shards
            .iter()
            .filter(|shard| !shard.inner.read().events.is_empty())
            .count();
        assert!(populated > 1);
        store.record_batch(Vec::new());
        assert_eq!(store.len(), 4);
    }

    #[test]
    fn telemetry_tracks_appends_size_and_queries() {
        let registry = MetricsRegistry::new();
        let store = EventStore::new();
        store.record_event(Event::request("a", "b", "GET", "/pre").with_timestamp(1));
        store.enable_telemetry(&registry);
        // Size reflects pre-existing events; appends only count new ones.
        assert_eq!(
            registry.snapshot().gauge_value("gremlin_store_events", &[]),
            Some(1)
        );
        store.extend(sample_events());
        let _ = store.query(&Query::edge("a", "b"));
        store.prune_before(25);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_value("gremlin_store_appends_total", &[]),
            Some(4)
        );
        // prune_before(25) drops timestamps 1, 10 and 20, keeping 30 and 40.
        assert_eq!(snap.gauge_value("gremlin_store_events", &[]), Some(2));
        assert_eq!(
            snap.histogram("gremlin_store_query_seconds", &[])
                .unwrap()
                .count(),
            1
        );
        store.clear();
        assert_eq!(
            registry.snapshot().gauge_value("gremlin_store_events", &[]),
            Some(0)
        );
    }

    #[test]
    fn telemetry_tracks_per_shard_sizes() {
        let registry = MetricsRegistry::new();
        let store = EventStore::with_shards(2);
        store.enable_telemetry(&registry);
        store.record_batch(sample_events()); // 4 events round-robin over 2 shards
        let snap = registry.snapshot();
        let shard0 = snap.gauge_value("gremlin_store_shard_events", &[("shard", "0")]);
        let shard1 = snap.gauge_value("gremlin_store_shard_events", &[("shard", "1")]);
        assert_eq!(shard0, Some(2));
        assert_eq!(shard1, Some(2));
        store.clear();
        let snap = registry.snapshot();
        assert_eq!(
            snap.gauge_value("gremlin_store_shard_events", &[("shard", "0")]),
            Some(0)
        );
    }

    #[test]
    fn events_after_tails_in_arrival_order() {
        let store = EventStore::with_shards(4);
        store.extend(sample_events());
        // From zero: full history in insertion (not timestamp) order.
        let (all, cursor) = store.events_after(0);
        assert_eq!(all.len(), 4);
        let times: Vec<_> = all.iter().map(|e| e.timestamp_us).collect();
        assert_eq!(times, vec![30, 10, 40, 20]);
        // Nothing new: cursor is stable.
        let (none, same) = store.events_after(cursor);
        assert!(none.is_empty());
        assert_eq!(same, cursor);
        // New arrivals show up exactly once.
        store.record_event(Event::request("x", "y", "GET", "/new").with_timestamp(5));
        let (fresh, next) = store.events_after(cursor);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].src, "x");
        assert!(next > cursor);
    }

    /// Two writers can reserve sequence numbers in one order and reach
    /// a shard in the other, so a slot can sit behind a higher one; the
    /// tail read starts at the running maximum, not at the slot's own
    /// number, and must still find it — before and after retention.
    #[test]
    fn read_after_finds_slots_appended_out_of_sequence_order() {
        let store = EventStore::with_shards(1);
        let arrival = [0u64, 1, 5, 2, 7, 3, 6, 4];
        {
            let mut inner = store.shards[0].inner.write();
            for seq in arrival {
                inner.append(
                    seq,
                    Event::request("a", "b", "GET", "/").with_timestamp(seq),
                );
            }
            inner.append_batch(vec![
                (9, Event::request("a", "b", "GET", "/").with_timestamp(9)),
                (8, Event::request("a", "b", "GET", "/").with_timestamp(8)),
            ]);
            let highs: Vec<u64> = inner.events.iter().map(|s| s.seq_high).collect();
            assert_eq!(highs, [0, 1, 5, 5, 7, 7, 7, 7, 9, 9]);
        }
        let tail = |cursor: u64| {
            store.read_after(cursor, |events| {
                events.iter().map(|e| e.timestamp_us).collect::<Vec<_>>()
            })
        };
        for cursor in 0..12 {
            let expected: Vec<u64> = (cursor..10).collect();
            let next = if cursor < 10 { 10 } else { cursor };
            assert_eq!(tail(cursor), (expected, next), "cursor {cursor}");
        }
        // Retention removes slots, never raises a remaining bound.
        store.count.store(10, Ordering::Relaxed);
        assert_eq!(store.prune_before(3), 3);
        for cursor in 0..12 {
            let expected: Vec<u64> = (cursor.max(3)..10).collect();
            let next = if cursor < 10 { 10 } else { cursor };
            assert_eq!(tail(cursor), (expected, next), "pruned, cursor {cursor}");
        }
    }

    #[test]
    fn tail_cursor_skips_history() {
        let store = EventStore::new();
        store.extend(sample_events());
        let cursor = store.tail_cursor();
        let (none, _) = store.events_after(cursor);
        assert!(none.is_empty());
        store.record_event(Event::request("x", "y", "GET", "/only-this"));
        let (fresh, _) = store.events_after(cursor);
        assert_eq!(fresh.len(), 1);
    }

    #[test]
    fn request_ids_are_distinct_and_sorted() {
        let store = EventStore::with_shards(3);
        store.extend(sample_events()); // test-1 (x3), test-2
        store.record_event(Event::request("a", "b", "GET", "/anon")); // no id
        let ids = store.request_ids();
        assert_eq!(ids.len(), 2);
        assert_eq!(ids[0], "test-1");
        assert_eq!(ids[1], "test-2");
    }

    #[test]
    fn sink_trait_records() {
        let store = EventStore::shared();
        let sink: Arc<dyn EventSink> = store.clone();
        sink.record(Event::request("x", "y", "GET", "/"));
        sink.record_batch(vec![
            Event::request("x", "y", "GET", "/a"),
            Event::request("x", "y", "GET", "/b"),
        ]);
        assert_eq!(store.len(), 3);
        assert!(matches!(
            store.snapshot()[0].kind,
            EventKind::Request { .. }
        ));
    }
}
