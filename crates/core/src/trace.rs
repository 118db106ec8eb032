//! Flow reconstruction: assembling the end-to-end path of one request
//! ID from the observation logs.
//!
//! The paper leans on request-ID propagation (§4.1, citing Dapper and
//! Zipkin) to confine faults to flows; the same IDs let us rebuild
//! what actually happened to a request after a test — which hops it
//! took, where it was faulted, where time was spent. Recipe authors
//! use this when an assertion fails and they want the why.

use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use gremlin_store::{
    span_keys, spans_from_store, AppliedFault, Event, EventStore, Micros, Name, Pattern, Query,
    SpanKey, SpanRecord,
};

/// One caller→callee hop of a flow: a request observation paired with
/// the matching response (if one was observed).
#[derive(Debug, Clone, PartialEq)]
pub struct Hop {
    /// Calling service.
    pub src: String,
    /// Called service.
    pub dst: String,
    /// When the request was observed.
    pub requested_at: Micros,
    /// Method and URI of the request.
    pub call: String,
    /// Response status (`None` when no response was observed, `0`
    /// for TCP-level failures).
    pub status: Option<u16>,
    /// Caller-observed latency of the response.
    pub latency: Option<Duration>,
    /// Fault applied on this hop, if any.
    pub fault: Option<AppliedFault>,
}

impl Hop {
    /// Returns `true` when the hop ended in a failure (no response,
    /// TCP reset, or a 5xx).
    pub fn failed(&self) -> bool {
        match self.status {
            None | Some(0) => true,
            Some(status) => (500..600).contains(&status),
        }
    }
}

impl fmt::Display for Hop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {} {}", self.src, self.dst, self.call)?;
        match self.status {
            Some(0) => write!(f, " => connection reset")?,
            Some(status) => write!(f, " => {status}")?,
            None => write!(f, " => (no response observed)")?,
        }
        if let Some(latency) = self.latency {
            write!(f, " in {latency:?}")?;
        }
        if let Some(fault) = &self.fault {
            write!(f, " [gremlin: {fault}]")?;
        }
        Ok(())
    }
}

/// The reconstructed path of one request ID through the application.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowTrace {
    /// The flow's request ID.
    pub request_id: String,
    /// Hops in request-time order.
    pub hops: Vec<Hop>,
    /// Timestamp of the last observation (request *or* response) in
    /// the flow; duration fallback when responses are missing.
    pub last_observed_us: Option<Micros>,
}

impl FlowTrace {
    /// Rebuilds the flow for `request_id` from `store`.
    ///
    /// Requests are paired with responses per edge in order —
    /// retries of the same edge become separate hops, matching how
    /// the agent logged them.
    pub fn from_store(store: &EventStore, request_id: &str) -> FlowTrace {
        let events =
            store.query(&Query::new().with_id_pattern(Pattern::Exact(request_id.to_string())));
        FlowTrace::from_events(request_id, &events)
    }

    /// Rebuilds a flow from pre-fetched, time-sorted events.
    pub fn from_events(request_id: &str, events: &[Event]) -> FlowTrace {
        let mut hops: Vec<Hop> = Vec::new();
        // Pending request hops per edge awaiting their response, as
        // indices into `hops` (FIFO per edge: responses pair with the
        // oldest outstanding request on that edge).
        let mut pending: Vec<usize> = Vec::new();
        for event in events {
            match &event.kind {
                gremlin_store::EventKind::Request { method, uri } => {
                    hops.push(Hop {
                        src: event.src.to_string(),
                        dst: event.dst.to_string(),
                        requested_at: event.timestamp_us,
                        call: format!("{method} {uri}"),
                        status: None,
                        latency: None,
                        fault: event.fault.clone(),
                    });
                    pending.push(hops.len() - 1);
                }
                gremlin_store::EventKind::Response { status, .. } => {
                    let slot = pending.iter().position(|&index| {
                        hops[index].src == event.src && hops[index].dst == event.dst
                    });
                    match slot {
                        Some(position) => {
                            let index = pending.remove(position);
                            let hop = &mut hops[index];
                            hop.status = Some(*status);
                            hop.latency = event.observed_latency();
                            if hop.fault.is_none() {
                                hop.fault = event.fault.clone();
                            }
                        }
                        None => {
                            // A response with no recorded request
                            // (e.g. log loss): surface it as its own
                            // hop rather than dropping it.
                            hops.push(Hop {
                                src: event.src.to_string(),
                                dst: event.dst.to_string(),
                                requested_at: event.timestamp_us,
                                call: "(request not observed)".to_string(),
                                status: Some(*status),
                                latency: event.observed_latency(),
                                fault: event.fault.clone(),
                            });
                        }
                    }
                }
            }
        }
        hops.sort_by_key(|hop| hop.requested_at);
        FlowTrace {
            request_id: request_id.to_string(),
            hops,
            last_observed_us: events.iter().map(|event| event.timestamp_us).max(),
        }
    }

    /// Returns `true` when any hop failed.
    pub fn has_failures(&self) -> bool {
        self.hops.iter().any(Hop::failed)
    }

    /// Returns `true` when any hop was touched by Gremlin.
    pub fn was_faulted(&self) -> bool {
        self.hops.iter().any(|hop| hop.fault.is_some())
    }

    /// Number of hops on edge `(src, dst)` — e.g. retries of one
    /// call.
    pub fn attempts(&self, src: &str, dst: &str) -> usize {
        self.hops
            .iter()
            .filter(|hop| hop.src == src && hop.dst == dst)
            .count()
    }

    /// Total caller-observed time of the flow, from the first request
    /// to the end of the latest response.
    ///
    /// Hops whose response was never observed (e.g. the root request
    /// timed out before the agent could log one) contribute no
    /// latency, so the flow additionally falls back to the span
    /// between the first and the last *observed* event timestamps —
    /// the duration never undercounts what the log actually shows,
    /// but it still cannot account for time spent after the final
    /// observation.
    pub fn total_duration(&self) -> Duration {
        let Some(first) = self.hops.first() else {
            return Duration::ZERO;
        };
        let start = first.requested_at;
        let end = self
            .hops
            .iter()
            .map(|hop| hop.requested_at + hop.latency.map(|l| l.as_micros() as Micros).unwrap_or(0))
            .chain(self.last_observed_us)
            .max()
            .unwrap_or(start);
        Duration::from_micros(end.saturating_sub(start))
    }
}

impl fmt::Display for FlowTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "flow {} ({} hop(s), {:?} total)",
            self.request_id,
            self.hops.len(),
            self.total_duration()
        )?;
        for hop in &self.hops {
            writeln!(f, "  {hop}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Span trees
// ---------------------------------------------------------------------------

/// How a group of same-edge sibling calls relates in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// A single call on this edge.
    Single,
    /// Sequential re-attempts of one logical call: each starts only
    /// after the previous one ended (or was abandoned unanswered).
    Retry,
    /// Concurrent calls on the same edge (a fan-out to replicas or
    /// parallel work), overlapping in time.
    Parallel,
}

impl fmt::Display for CallKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CallKind::Single => write!(f, "single"),
            CallKind::Retry => write!(f, "retry"),
            CallKind::Parallel => write!(f, "parallel"),
        }
    }
}

/// Sibling spans of one parent that target the same `(src, dst)`
/// edge, with their temporal classification.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildGroup {
    /// Destination service of the group's calls.
    pub dst: Name,
    /// How the group's calls relate ([`CallKind::Retry`] vs
    /// [`CallKind::Parallel`]).
    pub kind: CallKind,
    /// Node indices of the group's spans, in start order.
    pub spans: Vec<usize>,
}

/// One node of a [`SpanTree`]: a span record plus its place in the
/// causal hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// The underlying span record.
    pub record: SpanRecord,
    /// Index of the parent node, if any.
    pub parent: Option<usize>,
    /// Indices of child nodes, in start order.
    pub children: Vec<usize>,
    /// `true` when the parent was inferred from timestamps and the
    /// call graph rather than read from span IDs (legacy events).
    pub inferred_parent: bool,
}

impl SpanNode {
    fn effective_end(&self) -> Micros {
        self.record.end_us().unwrap_or(self.record.start_us)
    }
}

/// Compact per-flow statistics, suitable for recipe reports.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// The flow's request ID.
    pub request_id: String,
    /// Number of spans in the flow.
    pub spans: usize,
    /// Depth of the deepest causal chain (a lone root is depth 1).
    pub depth: usize,
    /// End-to-end duration, first request to last observation.
    pub duration_us: Micros,
    /// Spans touched by an injected fault.
    pub faulted_spans: usize,
    /// Spans that failed (no response, reset, or 5xx).
    pub failed_spans: usize,
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} span(s), depth {}, {:?}",
            self.request_id,
            self.spans,
            self.depth,
            Duration::from_micros(self.duration_us)
        )?;
        if self.faulted_spans > 0 {
            write!(f, ", {} faulted", self.faulted_spans)?;
        }
        if self.failed_spans > 0 {
            write!(f, ", {} failed", self.failed_spans)?;
        }
        Ok(())
    }
}

/// Where [`link_parents`] attached a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Parent {
    /// Index of the parent span.
    index: usize,
    /// `true` when the parent came from timestamps and the call graph
    /// rather than from span IDs.
    inferred: bool,
}

/// The parent-linkage rule, for the spans of one flow in start order:
/// the one definition [`SpanTree::from_records`] and
/// [`TraceDigest::from_store`] share.
///
/// Explicit linkage first — the parent span ID the agent recorded,
/// when that span was itself observed. Otherwise the timestamp/graph
/// fallback: the latest earlier span whose destination is this span's
/// source and whose lifetime encloses this span's start (an open span —
/// no observed end — counts as enclosing).
fn link_parents(spans: &[SpanKey<'_>]) -> Vec<Option<Parent>> {
    let by_span: HashMap<&Name, usize> = spans
        .iter()
        .enumerate()
        .filter_map(|(index, span)| span.span_id.map(|id| (id, index)))
        .collect();
    let infer = |index: usize| {
        let child = &spans[index];
        (0..index)
            .filter(|&candidate| {
                let parent = &spans[candidate];
                parent.dst == child.src
                    && parent.start_us <= child.start_us
                    && parent.end_us().is_none_or(|end| end >= child.start_us)
            })
            .max_by_key(|&candidate| spans[candidate].start_us)
    };
    spans
        .iter()
        .enumerate()
        .map(|(index, span)| {
            let explicit = span
                .parent_id
                .and_then(|parent| by_span.get(parent).copied())
                .filter(|&parent| parent != index);
            match explicit {
                Some(parent) => Some(Parent {
                    index: parent,
                    inferred: false,
                }),
                None => infer(index).map(|parent| Parent {
                    index: parent,
                    inferred: true,
                }),
            }
        })
        .collect()
}

/// Depth of the deepest causal chain hanging off a parentless span (a
/// lone root is depth 1). Spans on or below a parent cycle — possible
/// when a corrupt log names span IDs circularly — hang off no root and
/// do not count.
fn causal_depth(spans: usize, parent_of: impl Fn(usize) -> Option<usize>) -> usize {
    const NO_ROOT: usize = usize::MAX;
    // 0 = not yet known.
    let mut depths = vec![0usize; spans];
    let mut chain: Vec<usize> = Vec::new();
    for start in 0..spans {
        // Climb to the nearest ancestor whose depth is known, or past
        // a root; a climb longer than the flow has gone round a cycle.
        chain.clear();
        let mut at = start;
        let mut depth = loop {
            if depths[at] != 0 {
                break depths[at];
            }
            if chain.len() == spans {
                break NO_ROOT;
            }
            chain.push(at);
            match parent_of(at) {
                Some(parent) => at = parent,
                None => break 0,
            }
        };
        for &span in chain.iter().rev() {
            depth = if depth == NO_ROOT { NO_ROOT } else { depth + 1 };
            depths[span] = depth;
        }
    }
    depths
        .into_iter()
        .filter(|&depth| depth != NO_ROOT)
        .max()
        .unwrap_or(0)
}

/// The causal tree of one request flow, assembled from span records.
///
/// Parent/child edges come from the `X-Gremlin-Parent` span IDs the
/// agents record. Legacy records without span IDs (and records whose
/// parent span was never observed) fall back to inference: a span is
/// attached to the latest span whose destination is the child's
/// source and whose lifetime encloses the child's start. Spans with
/// no plausible parent become roots — a flow can have several roots
/// when observations are incomplete.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTree {
    /// The flow's request ID.
    pub request_id: String,
    /// All nodes, in start order.
    pub nodes: Vec<SpanNode>,
    /// Indices of parentless nodes, in start order.
    pub roots: Vec<usize>,
}

impl SpanTree {
    /// Assembles the tree for `request_id` from `store`.
    pub fn from_store(store: &EventStore, request_id: &str) -> SpanTree {
        SpanTree::from_records(request_id, spans_from_store(store, request_id))
    }

    /// Assembles a tree from pre-assembled span records.
    pub fn from_records(request_id: &str, mut records: Vec<SpanRecord>) -> SpanTree {
        records.sort_by_key(|record| record.start_us);
        let keys: Vec<SpanKey<'_>> = records.iter().map(SpanRecord::key).collect();
        let parents = link_parents(&keys);
        let mut nodes: Vec<SpanNode> = records
            .into_iter()
            .map(|record| SpanNode {
                record,
                parent: None,
                children: Vec::new(),
                inferred_parent: false,
            })
            .collect();
        for (index, parent) in parents.into_iter().enumerate() {
            if let Some(Parent {
                index: parent,
                inferred,
            }) = parent
            {
                nodes[index].parent = Some(parent);
                nodes[index].inferred_parent = inferred;
                nodes[parent].children.push(index);
            }
        }

        let roots = (0..nodes.len())
            .filter(|&index| nodes[index].parent.is_none())
            .collect();
        SpanTree {
            request_id: request_id.to_string(),
            nodes,
            roots,
        }
    }

    /// Number of spans in the flow.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the flow has no spans.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Depth of the deepest causal chain (a lone root is depth 1).
    pub fn depth(&self) -> usize {
        causal_depth(self.nodes.len(), |index| self.nodes[index].parent)
    }

    /// End-to-end duration: first request to the last observation
    /// (response end, or request time for unanswered spans).
    pub fn total_duration_us(&self) -> Micros {
        let start = self.nodes.iter().map(|n| n.record.start_us).min();
        let end = self.nodes.iter().map(SpanNode::effective_end).max();
        match (start, end) {
            (Some(start), Some(end)) => end.saturating_sub(start),
            _ => 0,
        }
    }

    /// The chain of spans that bounded end-to-end completion time: at
    /// each level, the child that finished last (an unanswered child
    /// counts as last — the caller waited on it until giving up).
    /// Under an injected Delay, the faulted hop sits on this path.
    /// Returns node indices from the slowest root downwards.
    pub fn critical_path(&self) -> Vec<usize> {
        let slowest_root = self
            .roots
            .iter()
            .copied()
            .max_by_key(|&root| self.nodes[root].effective_end());
        let Some(mut current) = slowest_root else {
            return Vec::new();
        };
        let mut path = vec![current];
        loop {
            // An unanswered span has no observed end; rank it after
            // every answered sibling.
            let rank = |index: usize| match self.nodes[index].record.end_us() {
                Some(end) => (0u8, end),
                None => (1u8, self.nodes[index].record.start_us),
            };
            match self.nodes[current]
                .children
                .iter()
                .copied()
                .max_by_key(|&c| rank(c))
            {
                Some(next) => {
                    path.push(next);
                    current = next;
                }
                None => return path,
            }
        }
    }

    /// Groups the children of `index` by destination edge and
    /// classifies each group as retries (sequential) or a parallel
    /// fan-out (overlapping).
    pub fn child_groups(&self, index: usize) -> Vec<ChildGroup> {
        let mut groups: Vec<ChildGroup> = Vec::new();
        for &child in &self.nodes[index].children {
            let record = &self.nodes[child].record;
            match groups.iter_mut().find(|g| g.dst == record.dst) {
                Some(group) => group.spans.push(child),
                None => groups.push(ChildGroup {
                    dst: record.dst.clone(),
                    kind: CallKind::Single,
                    spans: vec![child],
                }),
            }
        }
        for group in &mut groups {
            group.spans.sort_by_key(|&i| self.nodes[i].record.start_us);
            if group.spans.len() < 2 {
                continue;
            }
            // Retries run back-to-back: each attempt starts at or
            // after the previous one's observed end (an unanswered
            // attempt was abandoned, so anything after it counts as
            // sequential). Any overlap makes the group parallel.
            let sequential =
                group
                    .spans
                    .windows(2)
                    .all(|pair| match self.nodes[pair[0]].record.end_us() {
                        Some(end) => self.nodes[pair[1]].record.start_us >= end,
                        None => true,
                    });
            group.kind = if sequential {
                CallKind::Retry
            } else {
                CallKind::Parallel
            };
        }
        groups
    }

    /// Compact statistics for this flow.
    pub fn summary(&self) -> TraceSummary {
        TraceSummary {
            request_id: self.request_id.clone(),
            spans: self.nodes.len(),
            depth: self.depth(),
            duration_us: self.total_duration_us(),
            faulted_spans: self
                .nodes
                .iter()
                .filter(|n| n.record.fault.is_some())
                .count(),
            failed_spans: self.nodes.iter().filter(|n| n.record.failed()).count(),
        }
    }

    /// Renders the tree as an ASCII waterfall: one line per span,
    /// indented by causal depth, with a proportional time bar
    /// (`=` observed lifetime, `-` open-ended), latency, status and
    /// any applied fault.
    pub fn waterfall(&self) -> String {
        const BAR: usize = 32;
        let mut out = format!(
            "trace {} ({} span(s), depth {}, {:?} total)\n",
            self.request_id,
            self.nodes.len(),
            self.depth(),
            Duration::from_micros(self.total_duration_us())
        );
        if self.nodes.is_empty() {
            return out;
        }
        let t0 = self
            .nodes
            .iter()
            .map(|n| n.record.start_us)
            .min()
            .unwrap_or(0);
        let total = self.total_duration_us().max(1);

        // Pre-order walk, tracking depth; collect labels first so the
        // bars line up in one column.
        let mut order: Vec<(usize, usize)> = Vec::new();
        let mut stack: Vec<(usize, usize)> =
            self.roots.iter().rev().map(|&root| (root, 0)).collect();
        while let Some((index, depth)) = stack.pop() {
            order.push((index, depth));
            for &child in self.nodes[index].children.iter().rev() {
                stack.push((child, depth + 1));
            }
        }
        let labels: Vec<String> = order
            .iter()
            .map(|&(index, depth)| {
                let record = &self.nodes[index].record;
                format!(
                    "{}{} -> {} {}",
                    "  ".repeat(depth),
                    record.src,
                    record.dst,
                    record.call
                )
            })
            .collect();
        let label_width = labels.iter().map(String::len).max().unwrap_or(0);

        for (&(index, _), label) in order.iter().zip(&labels) {
            let record = &self.nodes[index].record;
            let offset = ((record.start_us - t0) as u128 * BAR as u128 / total as u128) as usize;
            let offset = offset.min(BAR - 1);
            let mut bar = vec![b' '; BAR];
            match record.latency_us {
                Some(latency) => {
                    let len = ((latency as u128 * BAR as u128) / total as u128) as usize;
                    let len = len.clamp(1, BAR - offset);
                    bar[offset..offset + len].fill(b'=');
                }
                None => {
                    // No observed end: the span runs off the chart.
                    bar[offset..].fill(b'-');
                }
            }
            let bar = String::from_utf8(bar).expect("ascii bar");
            let timing = match record.latency_us {
                Some(latency) => format!("{:?}", Duration::from_micros(latency)),
                None => "...".to_string(),
            };
            let status = match record.status {
                Some(0) => "RST".to_string(),
                Some(status) => status.to_string(),
                None => "-".to_string(),
            };
            let mut line = format!("{label:<label_width$} |{bar}| {timing:>9} {status}");
            if let Some(fault) = &record.fault {
                line.push_str(&format!(" [gremlin: {fault}]"));
            }
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for SpanTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.waterfall())
    }
}

/// Per-experiment trace statistics, aggregated over every flow in an
/// event store. Attached to recipe reports.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceDigest {
    /// Number of distinct request flows observed.
    pub flows: usize,
    /// Total spans across all flows.
    pub spans: usize,
    /// Spans touched by an injected fault, across all flows.
    pub faulted_spans: usize,
    /// The flow with the longest end-to-end duration.
    pub slowest: Option<TraceSummary>,
    /// The flow with the deepest causal chain.
    pub deepest: Option<TraceSummary>,
}

impl TraceDigest {
    /// Builds the digest in one pass over the store's flows, under one
    /// consistent view of the log: each flow's spans are paired and
    /// linked as borrowed keys — the same pairing and parent linkage
    /// [`SpanTree`] uses — so no event, record or tree is copied to
    /// count them. Ties for `slowest` and `deepest` go to the lowest
    /// request ID.
    pub fn from_store(store: &EventStore) -> TraceDigest {
        let mut digest = TraceDigest {
            flows: 0,
            spans: 0,
            faulted_spans: 0,
            slowest: None,
            deepest: None,
        };
        store.for_each_flow(|request_id, events| {
            digest.add(flow_summary(request_id, &span_keys(events)));
        });
        digest
    }

    fn add(&mut self, summary: TraceSummary) {
        self.flows += 1;
        self.spans += summary.spans;
        self.faulted_spans += summary.faulted_spans;
        if self
            .slowest
            .as_ref()
            .is_none_or(|slowest| summary.duration_us > slowest.duration_us)
        {
            self.slowest = Some(summary.clone());
        }
        if self
            .deepest
            .as_ref()
            .is_none_or(|deepest| summary.depth > deepest.depth)
        {
            self.deepest = Some(summary);
        }
    }
}

/// The statistics [`SpanTree::summary`] reports, from the flow's spans
/// in start order.
fn flow_summary(request_id: &str, spans: &[SpanKey<'_>]) -> TraceSummary {
    let parents = link_parents(spans);
    let start = spans.iter().map(|span| span.start_us).min();
    let end = spans
        .iter()
        .map(|span| span.end_us().unwrap_or(span.start_us))
        .max();
    TraceSummary {
        request_id: request_id.to_string(),
        spans: spans.len(),
        depth: causal_depth(spans.len(), |index| {
            parents[index].map(|parent| parent.index)
        }),
        duration_us: match (start, end) {
            (Some(start), Some(end)) => end.saturating_sub(start),
            _ => 0,
        },
        faulted_spans: spans.iter().filter(|span| span.faulted).count(),
        failed_spans: spans.iter().filter(|span| span.failed()).count(),
    }
}

impl fmt::Display for TraceDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} flow(s), {} span(s), {} faulted",
            self.flows, self.spans, self.faulted_spans
        )?;
        if let Some(slowest) = &self.slowest {
            write!(f, "; slowest {slowest}")?;
        }
        if let Some(deepest) = &self.deepest {
            write!(f, "; deepest {deepest}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn store() -> Arc<EventStore> {
        EventStore::shared()
    }

    fn request(s: &Arc<EventStore>, src: &str, dst: &str, ts: Micros) {
        s.record_event(
            Event::request(src, dst, "GET", "/x")
                .with_request_id("test-1")
                .with_timestamp(ts),
        );
    }

    fn response(s: &Arc<EventStore>, src: &str, dst: &str, status: u16, ts: Micros, ms: u64) {
        let mut event =
            Event::response(src, dst, status, Duration::from_millis(ms)).with_request_id("test-1");
        event.timestamp_us = ts;
        s.record_event(event);
    }

    #[test]
    fn reconstructs_simple_chain() {
        let s = store();
        request(&s, "user", "web", 0);
        request(&s, "web", "db", 100);
        response(&s, "web", "db", 200, 200, 1);
        response(&s, "user", "web", 200, 300, 3);
        let trace = FlowTrace::from_store(&s, "test-1");
        assert_eq!(trace.hops.len(), 2);
        assert_eq!(trace.hops[0].src, "user");
        assert_eq!(trace.hops[0].status, Some(200));
        assert_eq!(trace.hops[1].dst, "db");
        assert!(!trace.has_failures());
        assert!(!trace.was_faulted());
        // First request at t=0; the user->web hop completes at
        // 0 + 3ms latency = 3ms.
        assert_eq!(trace.total_duration(), Duration::from_millis(3));
    }

    #[test]
    fn retries_become_separate_hops() {
        let s = store();
        for attempt in 0..3u64 {
            request(&s, "a", "b", attempt * 100);
            response(&s, "a", "b", 503, attempt * 100 + 50, 1);
        }
        let trace = FlowTrace::from_store(&s, "test-1");
        assert_eq!(trace.attempts("a", "b"), 3);
        assert!(trace.has_failures());
        assert!(trace.hops.iter().all(|h| h.status == Some(503)));
    }

    #[test]
    fn unanswered_request_has_no_status() {
        let s = store();
        request(&s, "a", "b", 0);
        let trace = FlowTrace::from_store(&s, "test-1");
        assert_eq!(trace.hops.len(), 1);
        assert_eq!(trace.hops[0].status, None);
        assert!(trace.has_failures());
    }

    #[test]
    fn faults_are_surfaced() {
        let s = store();
        request(&s, "a", "b", 0);
        let mut event = Event::response("a", "b", 0, Duration::from_millis(1))
            .with_request_id("test-1")
            .with_fault(AppliedFault::AbortReset);
        event.timestamp_us = 10;
        s.record_event(event);
        let trace = FlowTrace::from_store(&s, "test-1");
        assert!(trace.was_faulted());
        assert!(trace.hops[0].failed());
        let text = trace.to_string();
        assert!(text.contains("connection reset"));
        assert!(text.contains("gremlin: abort(reset)"));
    }

    #[test]
    fn orphan_response_is_kept() {
        let s = store();
        response(&s, "a", "b", 200, 5, 1);
        let trace = FlowTrace::from_store(&s, "test-1");
        assert_eq!(trace.hops.len(), 1);
        assert_eq!(trace.hops[0].call, "(request not observed)");
    }

    #[test]
    fn responses_pair_fifo_per_edge() {
        let s = store();
        request(&s, "a", "b", 0);
        request(&s, "a", "b", 10);
        response(&s, "a", "b", 500, 20, 1); // pairs with the first
        response(&s, "a", "b", 200, 30, 1); // pairs with the second
        let trace = FlowTrace::from_store(&s, "test-1");
        assert_eq!(trace.hops[0].status, Some(500));
        assert_eq!(trace.hops[1].status, Some(200));
    }

    #[test]
    fn empty_flow() {
        let s = store();
        let trace = FlowTrace::from_store(&s, "test-none");
        assert!(trace.hops.is_empty());
        assert!(!trace.has_failures());
        assert_eq!(trace.total_duration(), Duration::ZERO);
    }

    #[test]
    fn other_flows_are_excluded() {
        let s = store();
        request(&s, "a", "b", 0);
        s.record_event(
            Event::request("a", "b", "GET", "/other")
                .with_request_id("test-2")
                .with_timestamp(1),
        );
        let trace = FlowTrace::from_store(&s, "test-1");
        assert_eq!(trace.hops.len(), 1);
    }

    #[test]
    fn duration_falls_back_to_last_observation() {
        let s = store();
        // Root request never answered; a child completes, but a later
        // response observation (the child's response event at t=5000)
        // is the last thing the log shows.
        request(&s, "user", "web", 0);
        request(&s, "web", "db", 100);
        response(&s, "web", "db", 200, 5_000, 1);
        let trace = FlowTrace::from_store(&s, "test-1");
        // Latency-derived end would be 100us + 1ms = 1100us; the
        // fallback stretches to the last observed timestamp.
        assert_eq!(trace.total_duration(), Duration::from_micros(5_000));
    }

    // --- span trees --------------------------------------------------

    fn spanned_request(
        s: &Arc<EventStore>,
        src: &str,
        dst: &str,
        ts: Micros,
        span: &str,
        parent: Option<&str>,
    ) {
        let mut event = Event::request(src, dst, "GET", "/x")
            .with_request_id("test-1")
            .with_timestamp(ts)
            .with_span_id(span);
        if let Some(parent) = parent {
            event = event.with_parent_id(parent);
        }
        s.record_event(event);
    }

    fn spanned_response(
        s: &Arc<EventStore>,
        src: &str,
        dst: &str,
        status: u16,
        ts: Micros,
        ms: u64,
        span: &str,
    ) {
        let mut event = Event::response(src, dst, status, Duration::from_millis(ms))
            .with_request_id("test-1")
            .with_span_id(span);
        event.timestamp_us = ts;
        s.record_event(event);
    }

    #[test]
    fn span_tree_nests_by_parent_ids() {
        let s = store();
        spanned_request(&s, "user", "web", 0, "s1", None);
        spanned_request(&s, "web", "db", 100, "s2", Some("s1"));
        spanned_request(&s, "web", "cache", 150, "s3", Some("s1"));
        spanned_response(&s, "web", "cache", 200, 250, 0, "s3");
        spanned_response(&s, "web", "db", 200, 1_100, 1, "s2");
        spanned_response(&s, "user", "web", 200, 2_000, 2, "s1");
        let tree = SpanTree::from_store(&s, "test-1");
        assert_eq!(tree.len(), 3);
        assert_eq!(tree.roots.len(), 1);
        let root = &tree.nodes[tree.roots[0]];
        assert_eq!(root.record.dst.as_str(), "web");
        assert_eq!(root.children.len(), 2);
        assert!(!root.inferred_parent);
        assert_eq!(tree.depth(), 2);
        assert!(tree
            .nodes
            .iter()
            .filter(|n| n.parent.is_some())
            .all(|n| !n.inferred_parent));
    }

    #[test]
    fn span_tree_infers_parents_for_legacy_events() {
        // No span IDs anywhere: nesting must come from timestamps and
        // the call graph (web -> db starts inside user -> web).
        let s = store();
        request(&s, "user", "web", 0);
        request(&s, "web", "db", 100);
        response(&s, "web", "db", 200, 1_100, 1);
        response(&s, "user", "web", 200, 3_000, 3);
        let tree = SpanTree::from_store(&s, "test-1");
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.depth(), 2);
        let child = tree
            .nodes
            .iter()
            .find(|n| n.record.dst.as_str() == "db")
            .unwrap();
        assert!(child.inferred_parent);
        assert_eq!(tree.nodes[child.parent.unwrap()].record.dst.as_str(), "web");
    }

    #[test]
    fn retries_classified_as_sequential_same_edge() {
        let s = store();
        spanned_request(&s, "user", "web", 0, "root", None);
        // Three sequential attempts of web -> db under the root; the
        // first two fail, the third succeeds.
        spanned_request(&s, "web", "db", 100, "t1", Some("root"));
        spanned_response(&s, "web", "db", 503, 1_100, 1, "t1");
        spanned_request(&s, "web", "db", 2_000, "t2", Some("root"));
        spanned_response(&s, "web", "db", 503, 3_000, 1, "t2");
        spanned_request(&s, "web", "db", 4_000, "t3", Some("root"));
        spanned_response(&s, "web", "db", 200, 5_000, 1, "t3");
        spanned_response(&s, "user", "web", 200, 6_000, 6, "root");
        let tree = SpanTree::from_store(&s, "test-1");
        let groups = tree.child_groups(tree.roots[0]);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].kind, CallKind::Retry);
        assert_eq!(groups[0].spans.len(), 3);
    }

    #[test]
    fn fan_out_classified_as_parallel() {
        let s = store();
        spanned_request(&s, "user", "web", 0, "root", None);
        // Two overlapping calls on the same edge: a fan-out, not a
        // retry.
        spanned_request(&s, "web", "db", 100, "p1", Some("root"));
        spanned_request(&s, "web", "db", 200, "p2", Some("root"));
        spanned_response(&s, "web", "db", 200, 1_100, 1, "p1");
        spanned_response(&s, "web", "db", 200, 1_200, 1, "p2");
        spanned_response(&s, "user", "web", 200, 2_000, 2, "root");
        let tree = SpanTree::from_store(&s, "test-1");
        let groups = tree.child_groups(tree.roots[0]);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].kind, CallKind::Parallel);
    }

    #[test]
    fn critical_path_finds_delayed_hop() {
        let s = store();
        spanned_request(&s, "user", "web", 0, "s1", None);
        // Fast sibling.
        spanned_request(&s, "web", "cache", 100, "s2", Some("s1"));
        spanned_response(&s, "web", "cache", 200, 300, 0, "s2");
        // Slow sibling, delayed by Gremlin: it bounds the flow.
        s.record_event(
            Event::request("web", "db", "GET", "/x")
                .with_request_id("test-1")
                .with_timestamp(100)
                .with_span_id("s3")
                .with_parent_id("s1")
                .with_fault(AppliedFault::Delay { delay_us: 50_000 }),
        );
        spanned_response(&s, "web", "db", 200, 51_000, 50, "s3");
        spanned_response(&s, "user", "web", 200, 52_000, 52, "s1");
        let tree = SpanTree::from_store(&s, "test-1");
        let path = tree.critical_path();
        assert_eq!(path.len(), 2);
        assert_eq!(tree.nodes[path[0]].record.dst.as_str(), "web");
        assert_eq!(tree.nodes[path[1]].record.dst.as_str(), "db");
        assert!(tree.nodes[path[1]].record.fault.is_some());
    }

    #[test]
    fn critical_path_prefers_unanswered_child() {
        let s = store();
        spanned_request(&s, "user", "web", 0, "s1", None);
        spanned_request(&s, "web", "cache", 100, "s2", Some("s1"));
        spanned_response(&s, "web", "cache", 200, 300, 0, "s2");
        // db never answered: the caller waited on it.
        spanned_request(&s, "web", "db", 100, "s3", Some("s1"));
        let tree = SpanTree::from_store(&s, "test-1");
        let path = tree.critical_path();
        assert_eq!(tree.nodes[*path.last().unwrap()].record.dst.as_str(), "db");
    }

    #[test]
    fn interleaved_flows_sharing_an_edge_stay_separate() {
        let s = store();
        // Two concurrent flows crossing the same a -> b edge,
        // interleaved in time; each tree must only see its own spans.
        for (id, span, base) in [("flow-1", "x1", 0u64), ("flow-2", "x2", 5u64)] {
            s.record_event(
                Event::request("a", "b", "GET", "/x")
                    .with_request_id(id)
                    .with_timestamp(base)
                    .with_span_id(span),
            );
        }
        for (id, span, ts) in [("flow-2", "x2", 40u64), ("flow-1", "x1", 60u64)] {
            let mut event = Event::response("a", "b", 200, Duration::from_micros(30))
                .with_request_id(id)
                .with_span_id(span);
            event.timestamp_us = ts;
            s.record_event(event);
        }
        let one = SpanTree::from_store(&s, "flow-1");
        let two = SpanTree::from_store(&s, "flow-2");
        assert_eq!(one.len(), 1);
        assert_eq!(two.len(), 1);
        assert_eq!(one.nodes[0].record.span_id.as_deref(), Some("x1"));
        assert_eq!(two.nodes[0].record.span_id.as_deref(), Some("x2"));
        assert_eq!(one.nodes[0].record.status, Some(200));
    }

    #[test]
    fn missing_responses_leave_open_spans() {
        let s = store();
        spanned_request(&s, "user", "web", 0, "s1", None);
        spanned_request(&s, "web", "db", 100, "s2", Some("s1"));
        let tree = SpanTree::from_store(&s, "test-1");
        assert_eq!(tree.len(), 2);
        assert!(tree.nodes.iter().all(|n| n.record.failed()));
        assert_eq!(tree.depth(), 2);
        // The waterfall renders open spans without panicking.
        let art = tree.waterfall();
        assert!(art.contains("..."), "waterfall: {art}");
    }

    #[test]
    fn waterfall_renders_bars_and_faults() {
        let s = store();
        spanned_request(&s, "user", "web", 0, "s1", None);
        s.record_event(
            Event::request("web", "db", "GET", "/x")
                .with_request_id("test-1")
                .with_timestamp(100)
                .with_span_id("s2")
                .with_parent_id("s1")
                .with_fault(AppliedFault::Delay { delay_us: 10_000 }),
        );
        spanned_response(&s, "web", "db", 200, 11_000, 10, "s2");
        spanned_response(&s, "user", "web", 200, 12_000, 12, "s1");
        let tree = SpanTree::from_store(&s, "test-1");
        let art = tree.waterfall();
        assert!(art.contains("user -> web"), "waterfall: {art}");
        assert!(art.contains("  web -> db"), "indented child: {art}");
        assert!(art.contains('='), "bars: {art}");
        assert!(art.contains("[gremlin: delay"), "fault: {art}");
        assert!(art.contains("200"));
    }

    #[test]
    fn summary_and_digest_aggregate() {
        let s = store();
        spanned_request(&s, "user", "web", 0, "s1", None);
        spanned_request(&s, "web", "db", 100, "s2", Some("s1"));
        spanned_response(&s, "web", "db", 503, 1_100, 1, "s2");
        spanned_response(&s, "user", "web", 200, 3_000, 3, "s1");
        // A second, shallow flow.
        s.record_event(
            Event::request("user", "web", "GET", "/y")
                .with_request_id("test-2")
                .with_timestamp(0)
                .with_span_id("z1"),
        );
        let tree = SpanTree::from_store(&s, "test-1");
        let summary = tree.summary();
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.depth, 2);
        assert_eq!(summary.duration_us, 3_000);
        assert_eq!(summary.failed_spans, 1);

        let digest = TraceDigest::from_store(&s);
        assert_eq!(digest.flows, 2);
        assert_eq!(digest.spans, 3);
        assert_eq!(digest.slowest.as_ref().unwrap().request_id, "test-1");
        assert_eq!(digest.deepest.as_ref().unwrap().depth, 2);
        assert!(digest.to_string().contains("2 flow(s)"));
    }
}
