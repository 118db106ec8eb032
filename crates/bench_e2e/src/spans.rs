//! Span recording for the traced run, and self-time attribution.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer; they stay in memory until the run ends. All spans of
//! one operation share the operation's request ID.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The operation's request ID, shared by all its spans so that
    /// recording one allocates nothing.
    pub id: Arc<str>,
    /// Name of the span that caused this one; `None` for the root.
    pub parent: Option<&'static str>,
    /// What was timed, e.g. `sink.record`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, on the same clock.
    pub end_ns: u64,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Lock shards; threads spread over them so recording rarely contends.
const SHARDS: usize = 16;

/// Collects spans from every thread of the benchmark. Recording is off
/// until [`Recorder::set_enabled`] turns it on, so untraced rounds of a
/// traced run pay one relaxed load per call site.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: AtomicBool,
    next_shard: AtomicUsize,
    shards: Vec<Mutex<Vec<Span>>>,
}

thread_local! {
    static SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder whose clock starts now, with recording off.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            next_shard: AtomicUsize::new(0),
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, enabled: bool) {
        // SeqCst: rounds are separated by thread joins anyway; this only
        // keeps the flag's meaning obvious.
        self.enabled.store(enabled, Ordering::SeqCst);
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Keeps a span that ends now.
    pub fn record(
        &self,
        id: &Arc<str>,
        parent: Option<&'static str>,
        name: &'static str,
        start_ns: u64,
    ) {
        self.record_until(id, parent, name, start_ns, self.now_ns());
    }

    /// Keeps a span with both ends given.
    pub fn record_until(
        &self,
        id: &Arc<str>,
        parent: Option<&'static str>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) {
        let shard = SHARD.with(|cell| {
            if cell.get() == usize::MAX {
                cell.set(self.next_shard.fetch_add(1, Ordering::Relaxed) % SHARDS);
            }
            cell.get()
        });
        self.shards[shard]
            .lock()
            .expect("span shard lock poisoned: a recording thread panicked")
            .push(Span {
                id: Arc::clone(id),
                parent,
                name,
                start_ns,
                end_ns,
            });
    }

    /// Removes and returns every span kept so far, ordered by start.
    pub fn drain(&self) -> Vec<Span> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.append(
                &mut shard
                    .lock()
                    .expect("span shard lock poisoned: a recording thread panicked"),
            );
        }
        all.sort_by_key(|span| (span.start_ns, span.end_ns));
        all
    }
}

/// Writes spans as JSON lines: `{id, parent, name, start_ns, end_ns}`.
///
/// # Errors
///
/// The writer's I/O errors.
pub fn write_jsonl<W: Write>(mut out: W, spans: &[Span]) -> io::Result<()> {
    for span in spans {
        let line = serde_json::json!({
            "id": &*span.id,
            "parent": span.parent,
            "name": span.name,
            "start_ns": span.start_ns,
            "end_ns": span.end_ns,
        });
        writeln!(out, "{line}")?;
    }
    out.flush()
}

/// Groups spans into operations: one per root span (a span without a
/// parent), holding the root and every span of the same ID that starts
/// inside the root's interval. Request IDs repeat from round to round,
/// so the ID alone does not identify an operation; spans that fall
/// inside no root of their ID are left out.
pub fn group_by_op(spans: &[Span]) -> Vec<Vec<&Span>> {
    let mut by_id: BTreeMap<&str, Vec<&Span>> = BTreeMap::new();
    for span in spans {
        by_id.entry(&span.id).or_default().push(span);
    }
    let mut ops = Vec::new();
    for mut same_id in by_id.into_values() {
        same_id.sort_by_key(|span| (span.start_ns, span.parent.is_some()));
        let mut current: Option<Vec<&Span>> = None;
        for span in same_id {
            if span.parent.is_none() {
                ops.extend(current.replace(vec![span]));
            } else if let Some(op) = current.as_mut() {
                if span.start_ns <= op[0].end_ns {
                    op.push(span);
                }
            }
        }
        ops.extend(current);
    }
    ops
}

/// Splits the root's duration among the spans of one operation: every
/// instant of the root interval goes to exactly one span, the innermost
/// one active at that instant (deepest; among equally deep, the latest
/// to start). A span's share is its self time: its duration minus what
/// its children cover, with overlapping siblings never counted twice, so
/// the shares always sum to the root's duration.
///
/// Returns `(name, self_ns)` per distinct span name, in first-seen
/// order, and the root's duration. Parts of a span outside the root's
/// interval are ignored. `None` when `op` has no root.
pub fn self_times(op: &[&Span]) -> Option<(Vec<(&'static str, u64)>, u64)> {
    let root = op.iter().find(|span| span.parent.is_none())?;
    let depth_of = |span: &Span| -> usize {
        // Parents are named, not pointed to; walk names up to the root.
        let mut depth = 0;
        let mut parent = span.parent;
        while let Some(name) = parent {
            depth += 1;
            parent = op
                .iter()
                .find(|candidate| candidate.name == name)
                .and_then(|candidate| candidate.parent);
            if depth > op.len() {
                break; // a naming cycle; stop rather than spin
            }
        }
        depth
    };
    struct Clipped {
        name: &'static str,
        depth: usize,
        start: u64,
        end: u64,
    }
    let clipped: Vec<Clipped> = op
        .iter()
        .map(|span| Clipped {
            name: span.name,
            depth: depth_of(span),
            start: span.start_ns.clamp(root.start_ns, root.end_ns),
            end: span.end_ns.clamp(root.start_ns, root.end_ns),
        })
        .filter(|span| span.end > span.start || span.depth == 0)
        .collect();
    let mut cuts: Vec<u64> = clipped.iter().flat_map(|s| [s.start, s.end]).collect();
    cuts.sort_unstable();
    cuts.dedup();

    let mut shares: Vec<(&'static str, u64)> = Vec::new();
    for window in cuts.windows(2) {
        let (from, to) = (window[0], window[1]);
        let owner = clipped
            .iter()
            .filter(|span| span.start <= from && span.end >= to)
            .max_by_key(|span| (span.depth, span.start))
            .expect("the root covers every cut inside its interval");
        match shares.iter_mut().find(|(name, _)| *name == owner.name) {
            Some((_, total)) => *total += to - from,
            None => shares.push((owner.name, to - from)),
        }
    }
    Some((shares, root.duration_ns()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<&'static str>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id: Arc::from("op-1"),
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    fn shares_of(spans: &[Span]) -> (Vec<(&'static str, u64)>, u64) {
        let refs: Vec<&Span> = spans.iter().collect();
        self_times(&refs).expect("has a root")
    }

    #[test]
    fn disjoint_children_leave_the_rest_to_the_root() {
        let (shares, root) = shares_of(&[
            span(None, "root", 100, 200),
            span(Some("root"), "a", 110, 130),
            span(Some("root"), "b", 150, 160),
        ]);
        assert_eq!(root, 100);
        assert_eq!(shares, vec![("root", 70), ("a", 20), ("b", 10)]);
    }

    #[test]
    fn nested_children_take_time_from_their_parent_not_the_root() {
        let (shares, root) = shares_of(&[
            span(None, "root", 0, 100),
            span(Some("root"), "outer", 10, 60),
            span(Some("outer"), "inner", 20, 30),
        ]);
        assert_eq!(shares, vec![("root", 50), ("outer", 40), ("inner", 10)]);
        assert_eq!(shares.iter().map(|(_, ns)| ns).sum::<u64>(), root);
    }

    #[test]
    fn overlapping_siblings_are_not_counted_twice() {
        let (shares, root) = shares_of(&[
            span(None, "root", 0, 100),
            span(Some("root"), "a", 10, 50),
            span(Some("root"), "b", 40, 70),
        ]);
        // 40..50 is covered by both; it goes to `b`, the later start.
        assert_eq!(shares, vec![("root", 40), ("a", 30), ("b", 30)]);
        assert_eq!(shares.iter().map(|(_, ns)| ns).sum::<u64>(), root);
    }

    #[test]
    fn repeated_names_pool_and_strays_are_clipped() {
        let (shares, root) = shares_of(&[
            span(None, "root", 50, 100),
            span(Some("root"), "rec", 40, 60), // starts before the root
            span(Some("root"), "rec", 70, 80),
            span(Some("root"), "late", 95, 130), // ends after the root
            span(Some("root"), "outside", 200, 210),
        ]);
        assert_eq!(root, 50);
        assert_eq!(shares, vec![("rec", 20), ("root", 25), ("late", 5)]);
        assert_eq!(shares.iter().map(|(_, ns)| ns).sum::<u64>(), root);
    }

    #[test]
    fn a_repeated_id_yields_one_operation_per_root() {
        // The same request ID in two rounds, and a stray child between.
        let spans = [
            span(None, "root", 0, 10),
            span(Some("root"), "a", 2, 4),
            span(Some("root"), "a", 50, 60),
            span(None, "root", 100, 120),
            span(Some("root"), "a", 105, 110),
            span(Some("root"), "b", 111, 119),
        ];
        let ops = group_by_op(&spans);
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].len(), 2);
        assert_eq!(ops[1].len(), 3);
        let (shares, root) = self_times(&ops[1]).unwrap();
        assert_eq!(root, 20);
        assert_eq!(shares, vec![("root", 7), ("a", 5), ("b", 8)]);
    }

    #[test]
    fn an_op_without_root_has_no_self_times() {
        let orphan = span(Some("root"), "a", 0, 1);
        assert!(self_times(&[&orphan]).is_none());
        assert!(group_by_op(&[orphan]).is_empty());
    }

    #[test]
    fn recorder_starts_disabled_and_drains_sorted_across_threads() {
        let recorder = Recorder::new();
        assert!(!recorder.enabled());
        recorder.set_enabled(true);
        recorder.record_until(&Arc::from("b"), None, "root", 20, 30);
        std::thread::scope(|scope| {
            scope.spawn(|| recorder.record_until(&Arc::from("a"), None, "root", 5, 9));
        });
        let spans = recorder.drain();
        assert_eq!(spans.iter().map(|s| &*s.id).collect::<Vec<_>>(), ["a", "b"]);
        assert!(recorder.drain().is_empty());
        assert_eq!(group_by_op(&spans).len(), 2);

        let mut out = Vec::new();
        write_jsonl(&mut out, &spans).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text.lines().next().unwrap(),
            r#"{"end_ns":9,"id":"a","name":"root","parent":null,"start_ns":5}"#
        );
    }
}
