//! # gremlin-store
//!
//! The centralized observation store of the Gremlin resilience-testing
//! framework (Heorhiadi et al., ICDCS 2016).
//!
//! During a resilience test, Gremlin agents (see `gremlin-proxy`) log
//! every API call they proxy — request and response, timestamps,
//! request IDs, and any fault actions applied. The paper shipped these
//! logs through logstash into Elasticsearch; this crate replaces that
//! pipeline with an in-memory, indexed [`EventStore`] offering the
//! same query surface the Assertion Checker needs: filtered,
//! time-sorted retrieval of observations ([`Query`]).
//!
//! The crate also hosts the [`Pattern`] matcher used to select request
//! flows (`test-*` style IDs) by both the data-plane rule engine and
//! the query layer.
//!
//! # Examples
//!
//! ```
//! use gremlin_store::{Event, EventStore, Query, Pattern};
//! use std::time::Duration;
//!
//! let store = EventStore::new();
//! store.record_event(
//!     Event::request("serviceA", "serviceB", "GET", "/api")
//!         .with_request_id("test-1"),
//! );
//! store.record_event(
//!     Event::response("serviceA", "serviceB", 503, Duration::from_millis(3))
//!         .with_request_id("test-1"),
//! );
//!
//! let replies = store.query(
//!     &Query::replies("serviceA", "serviceB").with_id_pattern(Pattern::new("test-*")),
//! );
//! assert_eq!(replies.len(), 1);
//! assert_eq!(replies[0].status(), Some(503));
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod event;
pub mod health;
pub mod name;
pub mod ndjson;
pub mod pattern;
pub mod query;
pub mod spans;
pub mod store;

pub use baseline::{mad, median, wilson_upper, BaselineBuilder, EdgeBaseline, MAD_SIGMA};
pub use event::{now_micros, AppliedFault, Event, EventKind, Micros};
pub use health::{EdgeHealth, HealthMonitor, DEFAULT_HEALTH_WINDOW};
pub use name::Name;
pub use pattern::Pattern;
pub use query::{KindFilter, Query};
pub use spans::{
    assemble_spans, export_otlp, import_otlp, span_keys, spans_from_store, OtlpTrace, SpanKey,
    SpanRecord,
};
pub use store::{EventSink, EventStore};
