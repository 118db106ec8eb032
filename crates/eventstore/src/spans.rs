//! Span records: causally-linked observations of one request flow.
//!
//! Gremlin agents mint a span ID per intercepted call and propagate
//! `X-Gremlin-Span`/`X-Gremlin-Parent` headers (Dapper/Zipkin style,
//! paper §4.1). This module pairs the request/response [`Event`]s of
//! one request ID into [`SpanRecord`]s — one per intercepted call —
//! and converts them to and from an OTLP-style JSON document so
//! traces can be handed to standard tooling.
//!
//! Tree assembly and analysis (critical path, retry vs fan-out) live
//! in `gremlin-core::trace`; this layer only produces the flat,
//! serializable records both the collector and the analysis share.

use std::borrow::Borrow;
use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::event::{AppliedFault, Event, EventKind, Micros};
use crate::name::Name;
use crate::query::Query;
use crate::store::EventStore;

/// One intercepted call of a flow: the request observation paired
/// with its response (when one was observed), keyed by the span ID
/// the agent minted for the call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// The flow's request ID (the trace identifier).
    pub trace_id: String,
    /// Span ID minted by the agent; `None` for legacy events logged
    /// before span propagation existed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub span_id: Option<Name>,
    /// Span ID of the causally enclosing call, if known.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub parent_id: Option<Name>,
    /// Calling service.
    pub src: Name,
    /// Called service.
    pub dst: Name,
    /// Method and URI of the request, e.g. `GET /cart`.
    pub call: String,
    /// When the request was observed.
    pub start_us: Micros,
    /// Caller-observed latency; `None` when no response was observed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub latency_us: Option<Micros>,
    /// Response status (`0` = TCP-level failure); `None` when no
    /// response was observed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub status: Option<u16>,
    /// Fault the agent applied to this call, if any.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub fault: Option<AppliedFault>,
    /// Agent instance that observed the call.
    #[serde(default = "Name::empty", skip_serializing_if = "Name::is_empty")]
    pub agent: Name,
}

impl SpanRecord {
    /// The borrowed view of this record that parent linkage and flow
    /// statistics read.
    pub fn key(&self) -> SpanKey<'_> {
        SpanKey {
            span_id: self.span_id.as_ref(),
            parent_id: self.parent_id.as_ref(),
            src: &self.src,
            dst: &self.dst,
            start_us: self.start_us,
            latency_us: self.latency_us,
            status: self.status,
            faulted: self.fault.is_some(),
        }
    }

    /// When the response was observed (`start + latency`), if one was.
    pub fn end_us(&self) -> Option<Micros> {
        self.key().end_us()
    }

    /// Returns `true` when the call ended in a failure (no response,
    /// TCP reset, or a 5xx).
    pub fn failed(&self) -> bool {
        self.key().failed()
    }
}

/// What pairing, parent linkage and flow statistics read of a span,
/// borrowed from wherever the span lives: a [`SpanRecord`]
/// ([`SpanRecord::key`]) or the flow's events themselves
/// ([`span_keys`]). Because both assemble through this one view, a
/// statistic computed from borrowed keys is the statistic the
/// assembled records would give.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanKey<'a> {
    /// Span ID minted by the agent, if any.
    pub span_id: Option<&'a Name>,
    /// Span ID of the causally enclosing call, if known.
    pub parent_id: Option<&'a Name>,
    /// Calling service.
    pub src: &'a Name,
    /// Called service.
    pub dst: &'a Name,
    /// When the request was observed.
    pub start_us: Micros,
    /// Caller-observed latency; `None` when no response was observed.
    pub latency_us: Option<Micros>,
    /// Response status; `None` when no response was observed.
    pub status: Option<u16>,
    /// `true` when the agent applied a fault to the call.
    pub faulted: bool,
}

impl SpanKey<'_> {
    /// When the response was observed (`start + latency`), if one was.
    pub fn end_us(&self) -> Option<Micros> {
        self.latency_us.map(|latency| self.start_us + latency)
    }

    /// Returns `true` when the call ended in a failure (no response,
    /// TCP reset, or a 5xx).
    pub fn failed(&self) -> bool {
        match self.status {
            None | Some(0) => true,
            Some(status) => (500..600).contains(&status),
        }
    }
}

/// One intercepted call as the log shows it.
#[derive(Clone, Copy)]
struct PairedSpan<'a> {
    /// The observation that opened the span: its request, or — when
    /// the request was lost — the orphan response itself.
    first: &'a Event,
    /// The response that closed the span (`first` again for an orphan).
    response: Option<&'a Event>,
}

impl<'a> PairedSpan<'a> {
    fn fault(&self) -> Option<&'a AppliedFault> {
        let of_response = self.response.and_then(|response| response.fault.as_ref());
        self.first.fault.as_ref().or(of_response)
    }

    fn key(&self) -> SpanKey<'a> {
        let (status, latency_us) = match self.response.map(|response| &response.kind) {
            Some(EventKind::Response { status, latency_us }) => (Some(*status), Some(*latency_us)),
            _ => (None, None),
        };
        let of_response = self
            .response
            .and_then(|response| response.parent_id.as_ref());
        SpanKey {
            span_id: self.first.span_id.as_ref(),
            parent_id: self.first.parent_id.as_ref().or(of_response),
            src: &self.first.src,
            dst: &self.first.dst,
            start_us: self.first.timestamp_us,
            latency_us,
            status,
            faulted: self.fault().is_some(),
        }
    }

    fn record(&self, trace_id: &str) -> SpanRecord {
        let key = self.key();
        SpanRecord {
            trace_id: trace_id.to_string(),
            span_id: key.span_id.cloned(),
            parent_id: key.parent_id.cloned(),
            src: key.src.clone(),
            dst: key.dst.clone(),
            call: match &self.first.kind {
                EventKind::Request { method, uri } => format!("{method} {uri}"),
                EventKind::Response { .. } => "(request not observed)".to_string(),
            },
            start_us: key.start_us,
            latency_us: key.latency_us,
            status: key.status,
            fault: self.fault().cloned(),
            agent: self.first.agent.clone(),
        }
    }
}

/// Pairs the time-sorted events of one flow, in start order.
///
/// Events carrying a span ID pair by that ID (request opens the span,
/// response closes it). Legacy events without span IDs fall back to
/// the [`FlowTrace`]-era pairing: a response matches the oldest
/// outstanding request on the same `(src, dst)` edge. Orphan
/// responses — no span and no outstanding request — are kept as their
/// own spans rather than dropped.
///
/// [`FlowTrace`]: https://docs.rs/gremlin-core
fn pair_spans<E: Borrow<Event>>(events: &[E]) -> Vec<PairedSpan<'_>> {
    let mut spans: Vec<PairedSpan<'_>> = Vec::with_capacity(events.len() / 2 + 1);
    // Open spans by ID, as indices into `spans`.
    let mut open: HashMap<&Name, usize> = HashMap::new();
    // Open legacy (span-less) spans awaiting a response, FIFO per
    // edge, as indices into `spans`.
    let mut pending: Vec<usize> = Vec::new();
    for event in events.iter().map(Borrow::borrow) {
        if event.kind.is_request() {
            match &event.span_id {
                Some(span) => {
                    open.insert(span, spans.len());
                }
                None => pending.push(spans.len()),
            }
            spans.push(PairedSpan {
                first: event,
                response: None,
            });
            continue;
        }
        let slot = match &event.span_id {
            Some(span) => open.remove(span),
            None => pending
                .iter()
                .position(|&index| {
                    spans[index].first.src == event.src && spans[index].first.dst == event.dst
                })
                .map(|position| pending.remove(position)),
        };
        match slot {
            Some(index) => spans[index].response = Some(event),
            // A response with no recorded request (log loss): surface
            // it rather than dropping it.
            None => spans.push(PairedSpan {
                first: event,
                response: Some(event),
            }),
        }
    }
    spans.sort_by_key(|span| span.first.timestamp_us);
    spans
}

/// Pairs the time-sorted events of one request ID into span records,
/// in start order; see [`span_keys`] for the same spans without the
/// copies.
pub fn assemble_spans<E: Borrow<Event>>(request_id: &str, events: &[E]) -> Vec<SpanRecord> {
    pair_spans(events)
        .iter()
        .map(|span| span.record(request_id))
        .collect()
}

/// The spans [`assemble_spans`] would build from `events`, in the same
/// order, as keys borrowed from the events: no record, string or event
/// is copied.
pub fn span_keys<E: Borrow<Event>>(events: &[E]) -> Vec<SpanKey<'_>> {
    pair_spans(events).iter().map(PairedSpan::key).collect()
}

/// Reads the flow `request_id` from `store` and assembles its span
/// records.
pub fn spans_from_store(store: &EventStore, request_id: &str) -> Vec<SpanRecord> {
    store.read(&Query::new().with_request_id(request_id), |events| {
        assemble_spans(request_id, events)
    })
}

// ---------------------------------------------------------------------------
// OTLP-style JSON export
// ---------------------------------------------------------------------------

/// An OTLP-style trace document: `resourceSpans` → `scopeSpans` →
/// flat span list, the JSON shape the OpenTelemetry collector and
/// Jaeger accept. Field coverage is the subset Gremlin records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct OtlpTrace {
    /// One entry per exporting resource; Gremlin emits exactly one.
    pub resource_spans: Vec<OtlpResourceSpans>,
}

/// Spans grouped under one resource.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct OtlpResourceSpans {
    /// Attributes identifying the emitting resource.
    pub resource: OtlpResource,
    /// Instrumentation scopes under the resource.
    pub scope_spans: Vec<OtlpScopeSpans>,
}

/// The emitting resource, identified by attributes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OtlpResource {
    /// Resource attributes (`service.name` etc.).
    pub attributes: Vec<OtlpKeyValue>,
}

/// Spans emitted by one instrumentation scope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct OtlpScopeSpans {
    /// The instrumentation scope.
    pub scope: OtlpScope,
    /// The spans themselves.
    pub spans: Vec<OtlpSpan>,
}

/// An instrumentation scope (library) name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OtlpScope {
    /// Scope name, e.g. `gremlin-proxy`.
    pub name: String,
}

/// One exported span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct OtlpSpan {
    /// The trace (request) ID.
    pub trace_id: String,
    /// Span ID; empty for legacy records without one.
    #[serde(default)]
    pub span_id: String,
    /// Parent span ID; empty at the root or when unknown.
    #[serde(default, skip_serializing_if = "String::is_empty")]
    pub parent_span_id: String,
    /// Operation name (the `METHOD /uri` call).
    pub name: String,
    /// OTLP span kind; Gremlin agents observe outbound calls, so
    /// every span is `3` (CLIENT).
    pub kind: u32,
    /// Start time in nanoseconds since the UNIX epoch, as a string
    /// (OTLP JSON encodes 64-bit integers as strings).
    pub start_time_unix_nano: String,
    /// End time in nanoseconds; empty when no response was observed.
    #[serde(default, skip_serializing_if = "String::is_empty")]
    pub end_time_unix_nano: String,
    /// Gremlin-specific span attributes (`gremlin.src`, `gremlin.dst`,
    /// `http.status_code`, `gremlin.fault`, …).
    pub attributes: Vec<OtlpKeyValue>,
}

/// An OTLP attribute: a key with a typed value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OtlpKeyValue {
    /// Attribute key.
    pub key: String,
    /// Attribute value.
    pub value: OtlpValue,
}

/// An OTLP `AnyValue`; Gremlin only emits string values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct OtlpValue {
    /// The string payload.
    pub string_value: String,
}

fn attribute(key: &str, value: impl Into<String>) -> OtlpKeyValue {
    OtlpKeyValue {
        key: key.to_string(),
        value: OtlpValue {
            string_value: value.into(),
        },
    }
}

fn lookup<'a>(attributes: &'a [OtlpKeyValue], key: &str) -> Option<&'a str> {
    attributes
        .iter()
        .find(|kv| kv.key == key)
        .map(|kv| kv.value.string_value.as_str())
}

/// Renders span records as an OTLP-style trace document.
///
/// The document round-trips: [`import_otlp`] recovers the exact
/// records, including legacy spans without IDs and applied faults.
pub fn export_otlp(records: &[SpanRecord]) -> OtlpTrace {
    let spans = records
        .iter()
        .map(|record| {
            let mut attributes = vec![
                attribute("gremlin.src", record.src.as_str()),
                attribute("gremlin.dst", record.dst.as_str()),
            ];
            if !record.agent.is_empty() {
                attributes.push(attribute("gremlin.agent", record.agent.as_str()));
            }
            if let Some(status) = record.status {
                attributes.push(attribute("http.status_code", status.to_string()));
            }
            if let Some(fault) = &record.fault {
                // Serialized (not Display) so the importer can parse
                // the exact fault back.
                let json = serde_json::to_string(fault).unwrap_or_default();
                attributes.push(attribute("gremlin.fault", json));
            }
            OtlpSpan {
                trace_id: record.trace_id.clone(),
                span_id: record.span_id.as_deref().unwrap_or_default().to_string(),
                parent_span_id: record.parent_id.as_deref().unwrap_or_default().to_string(),
                name: record.call.clone(),
                kind: 3,
                start_time_unix_nano: (record.start_us * 1_000).to_string(),
                end_time_unix_nano: record
                    .end_us()
                    .map(|end| (end * 1_000).to_string())
                    .unwrap_or_default(),
                attributes,
            }
        })
        .collect();
    OtlpTrace {
        resource_spans: vec![OtlpResourceSpans {
            resource: OtlpResource {
                attributes: vec![attribute("service.name", "gremlin")],
            },
            scope_spans: vec![OtlpScopeSpans {
                scope: OtlpScope {
                    name: "gremlin-proxy".to_string(),
                },
                spans,
            }],
        }],
    }
}

/// Recovers span records from an OTLP-style trace document produced
/// by [`export_otlp`] (or compatible tooling).
pub fn import_otlp(trace: &OtlpTrace) -> Vec<SpanRecord> {
    let mut records = Vec::new();
    for resource in &trace.resource_spans {
        for scope in &resource.scope_spans {
            for span in &scope.spans {
                let start_us = span.start_time_unix_nano.parse::<u64>().unwrap_or_default() / 1_000;
                let end_us: Option<Micros> = span
                    .end_time_unix_nano
                    .parse::<u64>()
                    .ok()
                    .map(|nanos| nanos / 1_000);
                let fault = lookup(&span.attributes, "gremlin.fault")
                    .and_then(|json| serde_json::from_str(json).ok());
                records.push(SpanRecord {
                    trace_id: span.trace_id.clone(),
                    span_id: (!span.span_id.is_empty()).then(|| Name::from(span.span_id.as_str())),
                    parent_id: (!span.parent_span_id.is_empty())
                        .then(|| Name::from(span.parent_span_id.as_str())),
                    src: Name::from(lookup(&span.attributes, "gremlin.src").unwrap_or("")),
                    dst: Name::from(lookup(&span.attributes, "gremlin.dst").unwrap_or("")),
                    call: span.name.clone(),
                    start_us,
                    latency_us: end_us.map(|end| end.saturating_sub(start_us)),
                    status: lookup(&span.attributes, "http.status_code")
                        .and_then(|s| s.parse().ok()),
                    fault,
                    agent: Name::from(lookup(&span.attributes, "gremlin.agent").unwrap_or("")),
                });
            }
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spanned_request(
        src: &str,
        dst: &str,
        ts: Micros,
        span: &str,
        parent: Option<&str>,
    ) -> Event {
        let mut event = Event::request(src, dst, "GET", "/x")
            .with_request_id("test-1")
            .with_timestamp(ts)
            .with_span_id(span);
        if let Some(parent) = parent {
            event = event.with_parent_id(parent);
        }
        event
    }

    fn spanned_response(
        src: &str,
        dst: &str,
        status: u16,
        ts: Micros,
        ms: u64,
        span: &str,
    ) -> Event {
        Event::response(src, dst, status, Duration::from_millis(ms))
            .with_request_id("test-1")
            .with_timestamp(ts)
            .with_span_id(span)
    }

    #[test]
    fn spans_pair_by_id_not_edge_order() {
        // Two concurrent calls on the same edge; responses arrive in
        // the opposite order. Span IDs pair them correctly where the
        // legacy FIFO heuristic would cross them.
        let events = vec![
            spanned_request("a", "b", 0, "s1", None),
            spanned_request("a", "b", 10, "s2", None),
            spanned_response("a", "b", 500, 20, 1, "s2"),
            spanned_response("a", "b", 200, 30, 2, "s1"),
        ];
        let spans = assemble_spans("test-1", &events);
        assert_eq!(spans.len(), 2);
        let s1 = spans
            .iter()
            .find(|s| s.span_id.as_deref() == Some("s1"))
            .unwrap();
        let s2 = spans
            .iter()
            .find(|s| s.span_id.as_deref() == Some("s2"))
            .unwrap();
        assert_eq!(s1.status, Some(200));
        assert_eq!(s2.status, Some(500));
        assert!(s2.failed());
        assert!(!s1.failed());
    }

    #[test]
    fn legacy_events_pair_fifo_per_edge() {
        let events = vec![
            Event::request("a", "b", "GET", "/x")
                .with_request_id("test-1")
                .with_timestamp(0),
            Event::response("a", "b", 200, Duration::from_millis(1))
                .with_request_id("test-1")
                .with_timestamp(10),
        ];
        let spans = assemble_spans("test-1", &events);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].span_id, None);
        assert_eq!(spans[0].status, Some(200));
        assert_eq!(spans[0].latency_us, Some(1_000));
        assert_eq!(spans[0].end_us(), Some(1_000));
    }

    #[test]
    fn unanswered_and_orphan_records_kept() {
        let events = vec![
            spanned_request("a", "b", 0, "s1", None),
            // Orphan response: span never opened.
            spanned_response("b", "c", 200, 5, 1, "s9"),
        ];
        let spans = assemble_spans("test-1", &events);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].status, None);
        assert!(spans[0].failed());
        assert_eq!(spans[1].call, "(request not observed)");
    }

    #[test]
    fn parent_ids_survive_assembly() {
        let events = vec![
            spanned_request("user", "web", 0, "s1", None),
            spanned_request("web", "db", 10, "s2", Some("s1")),
            spanned_response("web", "db", 200, 20, 1, "s2"),
            spanned_response("user", "web", 200, 30, 3, "s1"),
        ];
        let spans = assemble_spans("test-1", &events);
        let child = spans.iter().find(|s| s.dst == "db").unwrap();
        assert_eq!(child.parent_id.as_deref(), Some("s1"));
    }

    #[test]
    fn from_store_filters_by_request_id() {
        let store = EventStore::new();
        store.record_event(spanned_request("a", "b", 0, "s1", None));
        store.record_event(
            Event::request("a", "b", "GET", "/other")
                .with_request_id("test-2")
                .with_timestamp(1),
        );
        let spans = spans_from_store(&store, "test-1");
        assert_eq!(spans.len(), 1);
    }

    #[test]
    fn otlp_round_trip_preserves_records() {
        let events = vec![
            spanned_request("user", "web", 100, "s1", None),
            {
                let mut e = spanned_request("web", "db", 110, "s2", Some("s1"));
                e.fault = Some(AppliedFault::Delay { delay_us: 50_000 });
                e.agent = Name::from("web-agent");
                e
            },
            spanned_response("web", "db", 200, 160, 50, "s2"),
            // Legacy span-less record and an unanswered request mix in.
            Event::request("web", "cache", "GET", "/k")
                .with_request_id("test-1")
                .with_timestamp(120),
        ];
        let spans = assemble_spans("test-1", &events);
        let exported = export_otlp(&spans);
        let json = serde_json::to_string_pretty(&exported).unwrap();
        assert!(json.contains("resourceSpans"));
        assert!(json.contains("startTimeUnixNano"));
        let parsed: OtlpTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, exported);
        let back = import_otlp(&parsed);
        assert_eq!(back, spans);
    }

    #[test]
    fn otlp_export_marks_client_kind_and_nanos() {
        let spans = assemble_spans(
            "test-1",
            &[
                spanned_request("a", "b", 7, "s1", None),
                spanned_response("a", "b", 503, 9, 2, "s1"),
            ],
        );
        let trace = export_otlp(&spans);
        let span = &trace.resource_spans[0].scope_spans[0].spans[0];
        assert_eq!(span.kind, 3);
        assert_eq!(span.start_time_unix_nano, "7000");
        assert_eq!(span.end_time_unix_nano, "2007000");
        assert_eq!(lookup(&span.attributes, "http.status_code"), Some("503"));
    }
}
