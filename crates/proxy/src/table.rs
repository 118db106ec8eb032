//! The agent's installed-rule table and its matching logic.
//!
//! # Hot-path design
//!
//! `match_message` runs for every proxied message, so the table is
//! built for reads:
//!
//! * **Snapshot publication** — the installed rules live in an
//!   immutable [`RuleIndex`] behind an `Arc`. Readers clone the `Arc`
//!   (one atomic increment) and match entirely lock-free; `install`
//!   and `clear` build a fresh index and swap the pointer, so a
//!   concurrent reader always sees a complete rule set, never a torn
//!   one.
//! * **Edge indexing** — rules with concrete `src`/`dst` are bucketed
//!   by `(src, dst, side)` in nested hash maps keyed by `Box<str>`, so
//!   lookup borrows the incoming `&str`s without allocating. Rules
//!   addressing `"*"` (any service) go to a small fallback list that is
//!   merged into evaluation by installation order, preserving
//!   first-match-wins semantics.
//! * **Pattern pre-dispatch** — within a bucket, rules are sub-indexed
//!   by the first literal byte of their request-ID pattern. A message
//!   whose ID starts with `t` only ever evaluates rules whose pattern
//!   could match a `t…` ID (plus patterns with no leading literal,
//!   such as `*`). The paper's Figure 8 worst case — hundreds of
//!   installed rules, none matching — collapses from an O(rules) glob
//!   scan to two hash lookups.
//! * **Lock-free sampling** — probability coin flips draw from
//!   per-thread RNG streams (see [`crate::rng`]) instead of a global
//!   `Mutex<StdRng>`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use gremlin_telemetry::{Counter, MetricsRegistry};
use parking_lot::RwLock;

use crate::error::ProxyError;
use crate::rng;
use crate::rules::{MessageSide, Rule};

/// The set of fault-injection rules installed on one Gremlin agent,
/// with first-match-wins evaluation and per-rule probability
/// sampling.
///
/// Matching walks rules in installation order and applies the first
/// rule whose edge, side and request-ID pattern match *and* whose
/// probability coin-flip succeeds; later rules then act as fallbacks.
/// (To split traffic 25% abort / 75% delay, install an abort rule
/// with probability 0.25 followed by a delay rule with probability 1.)
///
/// # Examples
///
/// ```
/// use gremlin_proxy::{AbortKind, MessageSide, Rule, RuleTable};
///
/// let table = RuleTable::new();
/// table
///     .install(vec![Rule::abort("a", "b", AbortKind::Status(503)).with_pattern("test-*")])
///     .unwrap();
/// let hit = table.match_message("a", "b", MessageSide::Request, Some("test-42"));
/// assert!(hit.is_some());
/// let miss = table.match_message("a", "b", MessageSide::Request, Some("prod-42"));
/// assert!(miss.is_none());
/// ```
#[derive(Debug)]
pub struct RuleTable {
    /// The published snapshot; swapped whole on install/clear.
    index: RwLock<Arc<RuleIndex>>,
    /// Base seed for probability sampling streams.
    seed: u64,
    /// Process-unique ID keying this table's per-thread RNG streams.
    stream: u64,
    checks: AtomicU64,
    hits: AtomicU64,
    index_hits: AtomicU64,
    index_misses: AtomicU64,
    telemetry: OnceLock<TableTelemetry>,
}

/// One installed rule plus its bookkeeping, shared between the
/// in-order list and the index buckets.
#[derive(Debug, Clone)]
struct Entry {
    /// Installation sequence number; evaluation order across buckets.
    seq: u32,
    rule: Arc<Rule>,
    hits: Arc<AtomicU64>,
}

/// Per-`(src, dst, side)` bucket, sub-indexed by the first literal
/// byte of each rule's request-ID pattern.
#[derive(Debug, Default)]
struct SideBucket {
    /// Rules whose pattern can only match IDs starting with this byte.
    by_first: HashMap<u8, Vec<Entry>>,
    /// Rules whose pattern has no leading literal byte (`*`, `?x`, …);
    /// evaluated for every ID (and for messages without an ID).
    unconstrained: Vec<Entry>,
}

/// An immutable, published snapshot of the installed rules.
#[derive(Debug, Default)]
struct RuleIndex {
    /// src -> dst -> [request bucket, response bucket].
    edges: HashMap<Box<str>, HashMap<Box<str>, [SideBucket; 2]>>,
    /// Rules with `src == "*"` or `dst == "*"`, per side, in
    /// installation order; merged into every lookup.
    wildcard: [Vec<Entry>; 2],
    /// Every rule in installation order (serves `rules()` and
    /// per-rule hit counts).
    all: Vec<Entry>,
}

fn side_index(side: MessageSide) -> usize {
    match side {
        MessageSide::Request => 0,
        MessageSide::Response => 1,
    }
}

/// The first byte an ID must start with for `rule`'s pattern to match,
/// or `None` when the pattern has no leading literal.
fn leading_literal(rule: &Rule) -> Option<u8> {
    use gremlin_store::Pattern;
    match &rule.pattern {
        Pattern::Any => None,
        Pattern::Exact(text) | Pattern::Prefix(text) => text.as_bytes().first().copied(),
        Pattern::Glob(glob) => glob
            .as_bytes()
            .first()
            .copied()
            .filter(|byte| *byte != b'*' && *byte != b'?'),
    }
}

impl RuleIndex {
    fn build(all: Vec<Entry>) -> RuleIndex {
        let mut index = RuleIndex {
            all,
            ..RuleIndex::default()
        };
        for entry in &index.all {
            let rule = &entry.rule;
            let side = side_index(rule.on);
            if rule.src == "*" || rule.dst == "*" {
                index.wildcard[side].push(entry.clone());
                continue;
            }
            let bucket = &mut index
                .edges
                .entry(rule.src.as_str().into())
                .or_default()
                .entry(rule.dst.as_str().into())
                .or_default()[side];
            match leading_literal(rule) {
                Some(byte) => bucket.by_first.entry(byte).or_default().push(entry.clone()),
                None => bucket.unconstrained.push(entry.clone()),
            }
        }
        index
    }
}

#[derive(Debug)]
struct TableTelemetry {
    lookup_hits: Arc<Counter>,
    lookup_misses: Arc<Counter>,
}

impl Default for RuleTable {
    fn default() -> Self {
        RuleTable::new()
    }
}

impl RuleTable {
    /// Creates an empty table with an entropy-derived sampling seed.
    pub fn new() -> RuleTable {
        RuleTable::with_seed(rng::entropy_seed())
    }

    /// Creates an empty table with a deterministic sampling seed —
    /// single-threaded probability sampling becomes reproducible,
    /// which tests rely on.
    pub fn with_seed(seed: u64) -> RuleTable {
        RuleTable {
            index: RwLock::new(Arc::new(RuleIndex::default())),
            seed,
            stream: rng::next_stream_id(),
            checks: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            index_hits: AtomicU64::new(0),
            index_misses: AtomicU64::new(0),
            telemetry: OnceLock::new(),
        }
    }

    /// Starts counting rule-index lookups (hit = the message's edge
    /// had a bucket) into `registry`, labelled by `service`. Only the
    /// first call binds; later calls are ignored.
    pub fn bind_telemetry(&self, registry: &MetricsRegistry, service: &str) {
        let _ = self.telemetry.set(TableTelemetry {
            lookup_hits: registry.counter(
                "gremlin_proxy_rule_index_lookups_total",
                "Rule-index lookups by whether the message's edge had installed rules.",
                &[("service", service), ("result", "hit")],
            ),
            lookup_misses: registry.counter(
                "gremlin_proxy_rule_index_lookups_total",
                "Rule-index lookups by whether the message's edge had installed rules.",
                &[("service", service), ("result", "miss")],
            ),
        });
    }

    /// Appends `rules` after validating each, publishing a new
    /// snapshot. Concurrent matches see either the previous or the new
    /// rule set, never a partial one.
    ///
    /// # Errors
    ///
    /// Returns the first validation failure; in that case **no** rule
    /// from the batch is installed.
    pub fn install(&self, rules: Vec<Rule>) -> Result<(), ProxyError> {
        for rule in &rules {
            rule.validate()?;
        }
        let mut guard = self.index.write();
        let mut all = guard.all.clone();
        let base = all.len() as u32;
        all.extend(rules.into_iter().enumerate().map(|(offset, rule)| Entry {
            seq: base + offset as u32,
            rule: Arc::new(rule),
            hits: Arc::new(AtomicU64::new(0)),
        }));
        *guard = Arc::new(RuleIndex::build(all));
        Ok(())
    }

    /// Removes every installed rule.
    pub fn clear(&self) {
        *self.index.write() = Arc::new(RuleIndex::default());
    }

    fn snapshot(&self) -> Arc<RuleIndex> {
        self.index.read().clone()
    }

    /// A snapshot of the installed rules in evaluation order.
    pub fn rules(&self) -> Vec<Rule> {
        self.snapshot()
            .all
            .iter()
            .map(|entry| (*entry.rule).clone())
            .collect()
    }

    /// Per-rule hit counts, parallel to [`RuleTable::rules`] — which
    /// rule fired how often, for recipe debugging.
    pub fn rule_hit_counts(&self) -> Vec<u64> {
        self.snapshot()
            .all
            .iter()
            .map(|entry| entry.hits.load(Ordering::Relaxed))
            .collect()
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.snapshot().all.len()
    }

    /// Returns `true` if no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evaluates the table against one message, returning the rule to
    /// apply (if any).
    ///
    /// Every call increments the check counter; a returned rule
    /// increments the hit counter. These counters feed the proxy
    /// overhead benchmarks (paper Figure 8).
    pub fn match_message(
        &self,
        src: &str,
        dst: &str,
        side: MessageSide,
        request_id: Option<&str>,
    ) -> Option<Rule> {
        self.checks.fetch_add(1, Ordering::Relaxed);
        let index = self.snapshot();
        let side_idx = side_index(side);
        let bucket = index
            .edges
            .get(src)
            .and_then(|dsts| dsts.get(dst))
            .map(|sides| &sides[side_idx]);
        if bucket.is_some() {
            self.index_hits.fetch_add(1, Ordering::Relaxed);
            if let Some(telemetry) = self.telemetry.get() {
                telemetry.lookup_hits.inc();
            }
        } else {
            self.index_misses.fetch_add(1, Ordering::Relaxed);
            if let Some(telemetry) = self.telemetry.get() {
                telemetry.lookup_misses.inc();
            }
        }
        const EMPTY: &[Entry] = &[];
        let (by_first, unconstrained) = match bucket {
            Some(bucket) => {
                let by_first = request_id
                    .and_then(|id| id.as_bytes().first())
                    .and_then(|byte| bucket.by_first.get(byte))
                    .map(Vec::as_slice)
                    .unwrap_or(EMPTY);
                (by_first, bucket.unconstrained.as_slice())
            }
            None => (EMPTY, EMPTY),
        };
        // Merge the three candidate lists in installation order so
        // first-match-wins holds across the index split.
        let lists: [&[Entry]; 3] = [by_first, unconstrained, index.wildcard[side_idx].as_slice()];
        let mut cursor = [0usize; 3];
        loop {
            let mut best: Option<(u32, usize)> = None;
            for (list_idx, list) in lists.iter().enumerate() {
                if let Some(entry) = list.get(cursor[list_idx]) {
                    if best.is_none_or(|(seq, _)| entry.seq < seq) {
                        best = Some((entry.seq, list_idx));
                    }
                }
            }
            let (_, list_idx) = best?;
            let entry = &lists[list_idx][cursor[list_idx]];
            cursor[list_idx] += 1;
            // Bucketed entries already matched on (src, dst, side); the
            // wildcard list needs the full check.
            let applies = if list_idx == 2 {
                entry.rule.matches(src, dst, side, request_id)
            } else {
                entry.rule.pattern.matches_opt(request_id)
            };
            if !applies {
                continue;
            }
            if entry.rule.probability >= 1.0
                || rng::flip(self.stream, self.seed, entry.rule.probability)
            {
                self.hits.fetch_add(1, Ordering::Relaxed);
                entry.hits.fetch_add(1, Ordering::Relaxed);
                return Some((*entry.rule).clone());
            }
        }
    }

    /// Total messages evaluated since creation.
    pub fn checks(&self) -> u64 {
        self.checks.load(Ordering::Relaxed)
    }

    /// Total messages that matched a rule since creation.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found an indexed bucket for the message's edge.
    pub fn index_hits(&self) -> u64 {
        self.index_hits.load(Ordering::Relaxed)
    }

    /// Lookups where the message's edge had no installed rules (the
    /// production-traffic fast path: two hash probes, no rule visits).
    pub fn index_misses(&self) -> u64 {
        self.index_misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::AbortKind;
    use std::time::Duration;

    fn abort(src: &str, dst: &str) -> Rule {
        Rule::abort(src, dst, AbortKind::Status(503))
    }

    #[test]
    fn install_validates_batch_atomically() {
        let table = RuleTable::new();
        let result = table.install(vec![abort("a", "b"), abort("a", "b").with_probability(2.0)]);
        assert!(result.is_err());
        assert!(table.is_empty());
    }

    #[test]
    fn first_match_wins() {
        let table = RuleTable::new();
        table
            .install(vec![
                abort("a", "b").with_pattern("test-*"),
                Rule::delay("a", "b", Duration::from_millis(5)),
            ])
            .unwrap();
        let hit = table
            .match_message("a", "b", MessageSide::Request, Some("test-1"))
            .unwrap();
        assert!(matches!(hit.action, crate::FaultAction::Abort { .. }));
        // Non-matching ID falls through to the delay rule (pattern *).
        let hit = table
            .match_message("a", "b", MessageSide::Request, Some("prod-1"))
            .unwrap();
        assert!(matches!(hit.action, crate::FaultAction::Delay { .. }));
    }

    #[test]
    fn first_match_wins_across_index_lists() {
        // Rules land in three different candidate lists (first-byte
        // bucket, unconstrained bucket, wildcard fallback); evaluation
        // must still follow installation order.
        let table = RuleTable::new();
        table
            .install(vec![
                Rule::delay("*", "b", Duration::from_millis(1)).with_pattern("zzz-*"),
                abort("a", "b").with_pattern("test-*"),
                Rule::delay("a", "b", Duration::from_millis(5)),
            ])
            .unwrap();
        // The wildcard rule is installed first but does not match this
        // ID; the abort (first-byte bucket) must beat the delay
        // (unconstrained bucket).
        let hit = table
            .match_message("a", "b", MessageSide::Request, Some("test-1"))
            .unwrap();
        assert!(matches!(hit.action, crate::FaultAction::Abort { .. }));
        // A zzz ID hits the wildcard rule before anything else.
        let hit = table
            .match_message("a", "b", MessageSide::Request, Some("zzz-1"))
            .unwrap();
        assert!(
            matches!(hit.action, crate::FaultAction::Delay { interval } if interval == Duration::from_millis(1))
        );
    }

    #[test]
    fn wildcard_src_and_dst_rules_apply_to_any_edge() {
        let table = RuleTable::new();
        table
            .install(vec![abort("*", "db").with_pattern("test-*")])
            .unwrap();
        assert!(table
            .match_message("web", "db", MessageSide::Request, Some("test-1"))
            .is_some());
        assert!(table
            .match_message("api", "db", MessageSide::Request, Some("test-1"))
            .is_some());
        assert!(table
            .match_message("web", "cache", MessageSide::Request, Some("test-1"))
            .is_none());
        table.clear();
        table.install(vec![abort("web", "*")]).unwrap();
        assert!(table
            .match_message("web", "db", MessageSide::Request, None)
            .is_some());
        assert!(table
            .match_message("api", "db", MessageSide::Request, None)
            .is_none());
    }

    #[test]
    fn side_must_match() {
        let table = RuleTable::new();
        table.install(vec![abort("a", "b")]).unwrap();
        assert!(table
            .match_message("a", "b", MessageSide::Response, Some("x"))
            .is_none());
        assert!(table
            .match_message("a", "b", MessageSide::Request, Some("x"))
            .is_some());
    }

    #[test]
    fn zero_probability_never_fires() {
        let table = RuleTable::with_seed(7);
        table
            .install(vec![abort("a", "b").with_probability(0.0)])
            .unwrap();
        for _ in 0..100 {
            assert!(table
                .match_message("a", "b", MessageSide::Request, Some("x"))
                .is_none());
        }
    }

    #[test]
    fn fractional_probability_fires_sometimes() {
        let table = RuleTable::with_seed(42);
        table
            .install(vec![abort("a", "b").with_probability(0.5)])
            .unwrap();
        let fired = (0..1000)
            .filter(|_| {
                table
                    .match_message("a", "b", MessageSide::Request, Some("x"))
                    .is_some()
            })
            .count();
        assert!((300..700).contains(&fired), "fired {fired}/1000");
    }

    #[test]
    fn probabilistic_fallback_chain() {
        // Abort p=0.25 then delay p=1: every message matches
        // *something*, roughly a quarter the abort.
        let table = RuleTable::with_seed(9);
        table
            .install(vec![
                abort("a", "b").with_probability(0.25),
                Rule::delay("a", "b", Duration::from_millis(1)),
            ])
            .unwrap();
        let mut aborts = 0;
        let mut delays = 0;
        for _ in 0..1000 {
            match table
                .match_message("a", "b", MessageSide::Request, Some("x"))
                .expect("fallback rule must fire")
                .action
            {
                crate::FaultAction::Abort { .. } => aborts += 1,
                crate::FaultAction::Delay { .. } => delays += 1,
                crate::FaultAction::Modify { .. } => unreachable!(),
            }
        }
        assert!((150..350).contains(&aborts), "aborts {aborts}");
        assert_eq!(aborts + delays, 1000);
    }

    #[test]
    fn counters_track_checks_and_hits() {
        let table = RuleTable::new();
        table.install(vec![abort("a", "b")]).unwrap();
        table.match_message("a", "b", MessageSide::Request, None);
        table.match_message("x", "y", MessageSide::Request, None);
        assert_eq!(table.checks(), 2);
        assert_eq!(table.hits(), 1);
        assert_eq!(table.index_hits(), 1);
        assert_eq!(table.index_misses(), 1);
    }

    #[test]
    fn per_rule_hit_counts() {
        let table = RuleTable::new();
        table
            .install(vec![
                abort("a", "b").with_pattern("test-a-*"),
                abort("a", "b").with_pattern("test-*"),
            ])
            .unwrap();
        table.match_message("a", "b", MessageSide::Request, Some("test-a-1"));
        table.match_message("a", "b", MessageSide::Request, Some("test-b-1"));
        table.match_message("a", "b", MessageSide::Request, Some("test-b-2"));
        assert_eq!(table.rule_hit_counts(), vec![1, 2]);
        table.clear();
        assert!(table.rule_hit_counts().is_empty());
    }

    #[test]
    fn hit_counts_survive_later_installs() {
        let table = RuleTable::new();
        table.install(vec![abort("a", "b")]).unwrap();
        table.match_message("a", "b", MessageSide::Request, None);
        table.install(vec![abort("x", "y")]).unwrap();
        // The rebuilt index keeps the original counters.
        assert_eq!(table.rule_hit_counts(), vec![1, 0]);
    }

    #[test]
    fn clear_removes_rules() {
        let table = RuleTable::new();
        table.install(vec![abort("a", "b")]).unwrap();
        assert_eq!(table.len(), 1);
        table.clear();
        assert!(table.is_empty());
        assert!(table
            .match_message("a", "b", MessageSide::Request, None)
            .is_none());
    }

    #[test]
    fn worst_case_no_match_scans_all_rules() {
        // Figure 8 setup: many rules, none matching.
        let table = RuleTable::new();
        let rules: Vec<Rule> = (0..100)
            .map(|i| abort("a", "b").with_pattern(format!("nomatch-{i}-*").as_str()))
            .collect();
        table.install(rules).unwrap();
        assert!(table
            .match_message("a", "b", MessageSide::Request, Some("test-1"))
            .is_none());
        assert_eq!(table.hits(), 0);
    }

    #[test]
    fn rules_preserve_install_order() {
        let table = RuleTable::new();
        table
            .install(vec![
                abort("a", "b").with_pattern("one-*"),
                abort("*", "b").with_pattern("two-*"),
            ])
            .unwrap();
        table
            .install(vec![abort("c", "d").with_pattern("three-*")])
            .unwrap();
        let patterns: Vec<String> = table
            .rules()
            .iter()
            .map(|rule| rule.pattern.as_str())
            .collect();
        assert_eq!(patterns, vec!["one-*", "two-*", "three-*"]);
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn telemetry_counts_index_hits_and_misses() {
        let registry = MetricsRegistry::new();
        let table = RuleTable::new();
        table.bind_telemetry(&registry, "web");
        table.install(vec![abort("a", "b")]).unwrap();
        table.match_message("a", "b", MessageSide::Request, None); // hit
        table.match_message("x", "y", MessageSide::Request, None); // miss
        table.match_message("a", "b", MessageSide::Response, None); // hit (bucket exists, empty side)
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_value(
                "gremlin_proxy_rule_index_lookups_total",
                &[("service", "web"), ("result", "hit")],
            ),
            Some(2)
        );
        assert_eq!(
            snap.counter_value(
                "gremlin_proxy_rule_index_lookups_total",
                &[("service", "web"), ("result", "miss")],
            ),
            Some(1)
        );
    }

    /// Concurrent `install` during a match storm must never expose a
    /// torn rule set: every snapshot a matcher sees is a full prefix
    /// of whole installed batches.
    #[test]
    fn install_during_match_storm_never_tears() {
        use std::sync::atomic::AtomicBool;

        let table = Arc::new(RuleTable::new());
        // Batch zero: a catch-all abort that must be visible in every
        // subsequent snapshot.
        table.install(vec![abort("a", "b")]).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let batch = 4usize;

        let matchers: Vec<_> = (0..4)
            .map(|_| {
                let table = Arc::clone(&table);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut seen = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        // The catch-all rule always wins: installs only
                        // append lower-priority rules.
                        let hit = table
                            .match_message("a", "b", MessageSide::Request, Some("test-1"))
                            .expect("catch-all rule must always match");
                        assert!(matches!(hit.action, crate::FaultAction::Abort { .. }));
                        // Snapshots contain only whole batches.
                        let rules = table.rules();
                        assert_eq!(
                            (rules.len() - 1) % batch,
                            0,
                            "torn snapshot of {} rules",
                            rules.len()
                        );
                        seen += 1;
                    }
                    seen
                })
            })
            .collect();

        for round in 0..50 {
            let rules: Vec<Rule> = (0..batch)
                .map(|i| match i % 3 {
                    0 => abort("a", "b").with_pattern(format!("storm-{round}-{i}-*").as_str()),
                    1 => Rule::delay("*", "b", Duration::from_micros(1))
                        .with_pattern(format!("storm-{round}-{i}-*").as_str()),
                    _ => Rule::delay("a", "b", Duration::from_micros(1))
                        .with_side(MessageSide::Response),
                })
                .collect();
            table.install(rules).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for matcher in matchers {
            assert!(matcher.join().unwrap() > 0);
        }
        assert_eq!(table.len(), 1 + 50 * batch);
    }
}
