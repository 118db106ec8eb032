//! The log-collection pipeline between agents and the central store.
//!
//! The paper ships agent observations through logstash into
//! Elasticsearch (§6). In single-process deployments our agents write
//! straight into a shared [`EventStore`]; this module provides the
//! distributed equivalent: agents log through an [`HttpEventSink`]
//! that forwards observations (newline-delimited JSON, batched) to a
//! [`CollectorServer`] fronting the store.

use std::collections::VecDeque;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

use std::time::Instant;

use gremlin_http::{
    ConnInfo, HttpClient, HttpServer, Method, Reply, Request, Response, StatusCode, StreamingBody,
};
use gremlin_store::{
    ndjson, now_micros, Event, EventSink, EventStore, HealthMonitor, DEFAULT_HEALTH_WINDOW,
};
use gremlin_telemetry::{
    escape_label_value, Counter, Gauge, LatencyHistogram, MetricsRegistry, SeriesKind,
};

use crate::control::metrics_response;
use crate::error::ProxyError;
use crate::scraper::Scraper;

/// Schema version of the `GET /health` JSON document (and of
/// `gremlin watch --json` frames, which embed it).
///
/// * **1** — `window_us`, `clock_us`, `edges`, `checks`.
/// * **2** — adds `schema_version` itself and `scores` (per-edge
///   anomaly scores; empty when the monitor carries no
///   [`AnomalyScorer`](https://docs.rs/gremlin-core) baseline config).
///
/// Consumers should ignore unknown fields; a missing `schema_version`
/// means version 1.
pub const HEALTH_SCHEMA_VERSION: u32 = 2;

/// A live experiment monitor the collector can serve: the per-edge
/// health matrix on `GET /health` and the verdict-transition stream
/// on `GET /alerts`.
///
/// The plain [`HealthMonitor`] implements this with an empty check
/// list and no alerts; `gremlin-core`'s `LiveMonitor` (which layers
/// streaming assertions on top and sits *above* this crate in the
/// dependency order) implements it with both populated. The trait is
/// what lets the collector host either without the data plane
/// depending on the analysis layer.
pub trait MonitorSource: Send + Sync + std::fmt::Debug {
    /// Consumes newly recorded events (incremental — implementations
    /// use `EventStore::read_after`, never full-store scans).
    fn refresh(&self);

    /// The current monitor state as a JSON object:
    /// `{"schema_version":2,"window_us":..,"clock_us":..,"edges":[..],
    /// "checks":[..],"scores":[..]}` (see [`HEALTH_SCHEMA_VERSION`]).
    fn health_json(&self) -> String;

    /// Serialized monitor records (one JSON object per line entry,
    /// tagged with a `kind` field — `verdict` or `anomaly`) recorded
    /// at or after `cursor`, plus the next cursor.
    fn alert_lines_after(&self, cursor: u64) -> (Vec<String>, u64);
}

impl MonitorSource for HealthMonitor {
    fn refresh(&self) {
        self.poll_with(|_| ());
    }

    fn health_json(&self) -> String {
        let edges = self.snapshot();
        format!(
            "{{\"schema_version\":{HEALTH_SCHEMA_VERSION},\"window_us\":{},\"clock_us\":{},\"edges\":{},\"checks\":[],\"scores\":[]}}",
            self.window().as_micros(),
            self.clock_us(),
            serde_json::to_string(&edges).unwrap_or_else(|_| "[]".into()),
        )
    }

    fn alert_lines_after(&self, cursor: u64) -> (Vec<String>, u64) {
        (Vec::new(), cursor)
    }
}

/// Telemetry handles for the collector's ingest path.
#[derive(Debug)]
struct CollectorMetrics {
    batches: Arc<Counter>,
    events: Arc<Counter>,
    parse_errors: Arc<Counter>,
    dropped_events: Arc<Counter>,
    append_seconds: Arc<LatencyHistogram>,
    tail_subscribers: Arc<Gauge>,
    alert_subscribers: Arc<Gauge>,
    alerts_streamed: Arc<Counter>,
}

impl CollectorMetrics {
    fn new(registry: &MetricsRegistry) -> CollectorMetrics {
        CollectorMetrics {
            batches: registry.counter(
                "gremlin_collector_batches_total",
                "Observation batches received on POST /events.",
                &[],
            ),
            events: registry.counter(
                "gremlin_collector_events_total",
                "Observation events appended to the store.",
                &[],
            ),
            parse_errors: registry.counter(
                "gremlin_collector_parse_errors_total",
                "Batch lines rejected as malformed JSON.",
                &[],
            ),
            dropped_events: registry.counter(
                "gremlin_collector_dropped_events",
                "Well-formed events rejected at ingest (empty request ID).",
                &[],
            ),
            append_seconds: registry.histogram(
                "gremlin_collector_append_seconds",
                "Time to parse and append one observation batch.",
                &[],
            ),
            tail_subscribers: registry.gauge(
                "gremlin_collector_tail_subscribers",
                "Clients currently connected to GET /tail.",
                &[],
            ),
            alert_subscribers: registry.gauge(
                "gremlin_collector_alert_subscribers",
                "Clients currently connected to GET /alerts.",
                &[],
            ),
            alerts_streamed: registry.counter(
                "gremlin_collector_alerts_streamed_total",
                "Alert lines written to GET /alerts subscribers.",
                &[],
            ),
        }
    }
}

/// Decrements a subscriber gauge when a streaming connection ends.
struct SubscriberGuard(Arc<Gauge>);

impl Drop for SubscriberGuard {
    fn drop(&mut self) {
        self.0.dec();
    }
}

/// HTTP endpoint accepting observation batches into an
/// [`EventStore`].
///
/// Routes:
///
/// | Method | Path           | Effect                                    |
/// |--------|----------------|-------------------------------------------|
/// | POST   | `/events`      | append newline-delimited JSON events      |
/// | GET    | `/events`      | dump the store as newline-delimited JSON  |
/// | GET    | `/traces/<id>` | flow `<id>` as an OTLP-style JSON trace   |
/// | GET    | `/tail`        | chunked live stream of new events (NDJSON)|
/// | GET    | `/health`      | live edge health matrix + check verdicts  |
/// | GET    | `/alerts`      | chunked NDJSON stream of verdict alerts   |
/// | GET    | `/stats`       | ingest statistics JSON (see below)        |
/// | GET    | `/metrics`     | Prometheus text exposition                |
/// | DELETE | `/events`      | clear the store                           |
///
/// `GET /stats` returns
/// `{"events":N,"batches":B,"appended":A,"parse_errors":P,"dropped":D,
/// "tail_cursor":C,"tail_subscribers":S,"alert_subscribers":S}`: the
/// store size, cumulative ingest counters, the store's tail-cursor
/// position (so `gremlin watch` can show consumer lag), and the
/// number of currently connected streaming clients.
///
/// `GET /health` refreshes the in-process [`MonitorSource`] and
/// returns `{"schema_version":2,"window_us":..,"clock_us":..,
/// "edges":[..],"checks":[..],"scores":[..]}` — the per-(src,dst)
/// edge health matrix plus (when the monitor carries streaming
/// assertions) live check verdicts and (when it carries an anomaly
/// baseline) per-edge anomaly scores; see [`HEALTH_SCHEMA_VERSION`].
/// `GET /alerts` streams monitor records — verdict transitions
/// (`"kind":"verdict"`) and anomaly state changes (`"kind":"anomaly"`)
/// — as NDJSON with the same chunked machinery as `/tail`, replaying
/// the full record log first.
///
/// A batch containing malformed lines is answered with `400`; valid
/// lines from the same batch are still appended, and the rejected
/// count is reported in the response body and in
/// `gremlin_collector_parse_errors_total`. Well-formed events whose
/// request ID is the *empty string* can never be matched by flow
/// queries, so they are rejected at ingest and counted in
/// `gremlin_collector_dropped_events` (and `/stats` `dropped`)
/// instead of disappearing silently.
///
/// `GET /tail` answers with `Transfer-Encoding: chunked` and streams
/// every event recorded *after* the request arrived, one JSON object
/// per line (blank heartbeat lines keep the connection alive); add
/// `?from=<cursor>` to start at a store cursor instead — `0` replays
/// the store from the beginning first, `/stats`' `tail_cursor` or the
/// position an earlier tail reached resumes there; anything but an
/// integer is a `400`. The stream runs until the client disconnects or
/// the collector shuts down.
#[derive(Debug)]
pub struct CollectorServer {
    server: HttpServer,
    store: Arc<EventStore>,
    registry: Arc<MetricsRegistry>,
    monitor: Arc<dyn MonitorSource>,
    fleet: Option<Arc<Scraper>>,
}

impl CollectorServer {
    /// Starts a collector on `addr` writing into `store`, recording
    /// ingest telemetry into a private registry.
    ///
    /// # Errors
    ///
    /// Returns an error if the address cannot be bound.
    pub fn start(
        store: Arc<EventStore>,
        addr: impl ToSocketAddrs,
    ) -> Result<CollectorServer, ProxyError> {
        CollectorServer::start_with_telemetry(store, addr, MetricsRegistry::shared())
    }

    /// Starts a collector recording into a shared registry. The
    /// store's own telemetry (`gremlin_store_*`) is enabled on the
    /// same registry, and `/health` serves a plain edge health
    /// matrix (a [`HealthMonitor`] with no streaming assertions).
    ///
    /// # Errors
    ///
    /// Returns an error if the address cannot be bound.
    pub fn start_with_telemetry(
        store: Arc<EventStore>,
        addr: impl ToSocketAddrs,
        registry: Arc<MetricsRegistry>,
    ) -> Result<CollectorServer, ProxyError> {
        let monitor: Arc<dyn MonitorSource> = Arc::new(HealthMonitor::new(
            Arc::clone(&store),
            DEFAULT_HEALTH_WINDOW,
        ));
        CollectorServer::start_with_monitor(store, addr, registry, monitor)
    }

    /// Starts a collector serving `monitor` on `/health` and
    /// `/alerts` — pass `gremlin-core`'s `LiveMonitor` to run a full
    /// streaming assertion engine in-process with the collector.
    ///
    /// # Errors
    ///
    /// Returns an error if the address cannot be bound.
    pub fn start_with_monitor(
        store: Arc<EventStore>,
        addr: impl ToSocketAddrs,
        registry: Arc<MetricsRegistry>,
        monitor: Arc<dyn MonitorSource>,
    ) -> Result<CollectorServer, ProxyError> {
        CollectorServer::start_with_fleet(store, addr, registry, monitor, None)
    }

    /// Starts a collector that additionally serves the fleet
    /// time-series endpoints from `fleet`'s store: `GET /federate`
    /// (merged latest-point snapshot with per-target `up` and
    /// staleness) and `GET /series` (JSON range queries with phase
    /// annotations). Without a fleet scraper those endpoints answer
    /// `404`.
    ///
    /// # Errors
    ///
    /// Returns an error if the address cannot be bound.
    pub fn start_with_fleet(
        store: Arc<EventStore>,
        addr: impl ToSocketAddrs,
        registry: Arc<MetricsRegistry>,
        monitor: Arc<dyn MonitorSource>,
        fleet: Option<Arc<Scraper>>,
    ) -> Result<CollectorServer, ProxyError> {
        store.enable_telemetry(&registry);
        let metrics = Arc::new(CollectorMetrics::new(&registry));
        let handler_store = Arc::clone(&store);
        let handler_registry = Arc::clone(&registry);
        let handler_monitor = Arc::clone(&monitor);
        let handler_fleet = fleet.clone();
        let server = HttpServer::bind(addr, move |request: Request, _conn: &ConnInfo| {
            if *request.method() == Method::Get && request.path() == "/tail" {
                return tail_reply(&handler_store, &request, &metrics);
            }
            if *request.method() == Method::Get && request.path() == "/alerts" {
                return alerts_reply(&handler_monitor, &metrics);
            }
            Reply::Full(handle_collect(
                &handler_store,
                &handler_registry,
                &metrics,
                &handler_monitor,
                &handler_fleet,
                request,
            ))
        })?;
        Ok(CollectorServer {
            server,
            store,
            registry,
            monitor,
            fleet,
        })
    }

    /// The collector's listening address.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The store behind the collector.
    pub fn store(&self) -> &Arc<EventStore> {
        &self.store
    }

    /// The metrics registry the collector records into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The monitor served on `/health` and `/alerts`.
    pub fn monitor(&self) -> &Arc<dyn MonitorSource> {
        &self.monitor
    }

    /// The fleet scraper behind `/federate` and `/series`, when one
    /// was configured.
    pub fn fleet(&self) -> Option<&Arc<Scraper>> {
        self.fleet.as_ref()
    }

    /// Stops accepting connections and joins the accept thread. The
    /// port is released, so tests can rebind the same address to
    /// simulate a collector restart.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

fn handle_collect(
    store: &Arc<EventStore>,
    registry: &Arc<MetricsRegistry>,
    metrics: &CollectorMetrics,
    monitor: &Arc<dyn MonitorSource>,
    fleet: &Option<Arc<Scraper>>,
    request: Request,
) -> Response {
    match (request.method().clone(), request.path()) {
        (Method::Post, "/events") => {
            let started = Instant::now();
            metrics.batches.inc();
            // Lines are read as bytes: one that is not UTF-8 is a parse
            // error like any other, never repaired into an ID no flow
            // query will match.
            let body = request.body();
            let mut events = Vec::with_capacity(ndjson::capacity_hint(body));
            let mut parse_errors = 0usize;
            let mut first_error: Option<String> = None;
            for line in ndjson::lines(body) {
                // A batch comes from one agent: names a line shares
                // with the one before are shared, not allocated again.
                match ndjson::read_line_after(line, events.last()) {
                    // An empty request ID can never match a flow
                    // query — the event would sit in the store
                    // invisible to every trace. Reject it loudly
                    // (counted, surfaced on /stats) instead.
                    Ok(event) if event.request_id.as_deref() == Some("") => {
                        metrics.dropped_events.inc();
                    }
                    Ok(event) => events.push(event),
                    Err(err) => {
                        parse_errors += 1;
                        if first_error.is_none() {
                            first_error = Some(err.to_string());
                        }
                    }
                }
            }
            // One store append per batch: a single sequence
            // reservation and one lock acquisition per shard instead
            // of per event.
            let imported = events.len();
            store.record_batch(events);
            metrics.events.add(imported as u64);
            metrics.parse_errors.add(parse_errors as u64);
            metrics.append_seconds.record(started.elapsed());
            if parse_errors > 0 {
                let error = first_error.unwrap_or_default().replace('"', "'");
                Response::builder(StatusCode::BAD_REQUEST)
                    .header("Content-Type", "application/json")
                    .body(format!(
                        "{{\"imported\":{imported},\"parse_errors\":{parse_errors},\"error\":\"{error}\"}}"
                    ))
                    .build()
            } else {
                Response::builder(StatusCode::OK)
                    .body(format!("{{\"imported\":{imported}}}"))
                    .build()
            }
        }
        (Method::Get, "/events") => match store.export_json() {
            Ok(body) => Response::builder(StatusCode::OK)
                .header("Content-Type", "application/x-ndjson")
                .body(body)
                .build(),
            Err(err) => Response::builder(StatusCode::INTERNAL_SERVER_ERROR)
                .body(err.to_string())
                .build(),
        },
        (Method::Get, "/stats") => Response::builder(StatusCode::OK)
            .header("Content-Type", "application/json")
            .body(format!(
                "{{\"events\":{},\"batches\":{},\"appended\":{},\"parse_errors\":{},\"dropped\":{},\"tail_cursor\":{},\"tail_subscribers\":{},\"alert_subscribers\":{}}}",
                store.len(),
                metrics.batches.get(),
                metrics.events.get(),
                metrics.parse_errors.get(),
                metrics.dropped_events.get(),
                store.tail_cursor(),
                metrics.tail_subscribers.get(),
                metrics.alert_subscribers.get()
            ))
            .build(),
        (Method::Get, "/health") => {
            monitor.refresh();
            Response::builder(StatusCode::OK)
                .header("Content-Type", "application/json")
                .body(monitor.health_json())
                .build()
        }
        (Method::Get, "/metrics") => metrics_response(&registry.render_prometheus()),
        (Method::Get, "/federate") => match fleet {
            Some(scraper) => federate_response(scraper),
            None => Response::builder(StatusCode::NOT_FOUND)
                .body("no fleet scraper configured")
                .build(),
        },
        (Method::Get, "/series") => match fleet {
            Some(scraper) => series_response(scraper, request.query().unwrap_or("")),
            None => Response::builder(StatusCode::NOT_FOUND)
                .body("no fleet scraper configured")
                .build(),
        },
        (Method::Get, path) if path.starts_with("/traces/") => {
            trace_response(store, &path["/traces/".len()..])
        }
        (Method::Delete, "/events") => {
            store.clear();
            Response::builder(StatusCode::NO_CONTENT).build()
        }
        _ => Response::error(StatusCode::NOT_FOUND),
    }
}

/// `GET /traces/<id>`: the flow's span records as an OTLP-style JSON
/// trace document. Shared by the collector and the per-agent control
/// server.
pub(crate) fn trace_response(store: &EventStore, request_id: &str) -> Response {
    if request_id.is_empty() {
        return Response::builder(StatusCode::BAD_REQUEST)
            .body("missing request id")
            .build();
    }
    let spans = gremlin_store::spans_from_store(store, request_id);
    if spans.is_empty() {
        return Response::error(StatusCode::NOT_FOUND);
    }
    let trace = gremlin_store::export_otlp(&spans);
    match serde_json::to_string(&trace) {
        Ok(body) => Response::builder(StatusCode::OK)
            .header("Content-Type", "application/json")
            .body(body)
            .build(),
        Err(err) => Response::builder(StatusCode::INTERNAL_SERVER_ERROR)
            .body(err.to_string())
            .build(),
    }
}

/// `GET /federate`: the merged fleet snapshot in Prometheus text —
/// the latest stored point of every scraped series, each tagged with
/// an `instance` label naming its source target, plus synthetic
/// `up{instance=...}`, `gremlin_scrape_age_seconds{instance=...}` and
/// `gremlin_scrape_stale{instance=...}` series describing scrape
/// health. No `# HELP`/`# TYPE` headers are emitted; parsers
/// (including this workspace's) skip comments anyway.
fn federate_response(scraper: &Arc<Scraper>) -> Response {
    use std::fmt::Write as _;
    let now = now_micros();
    let mut out = String::new();
    for status in scraper.statuses() {
        let instance = escape_label_value(&status.target);
        let _ = writeln!(out, "up{{instance=\"{instance}\"}} {}", u8::from(status.up));
        if let Some(ok) = status.last_ok_us {
            let _ = writeln!(
                out,
                "gremlin_scrape_age_seconds{{instance=\"{instance}\"}} {}",
                now.saturating_sub(ok) as f64 / 1_000_000.0
            );
        }
        let _ = writeln!(
            out,
            "gremlin_scrape_stale{{instance=\"{instance}\"}} {}",
            u8::from(scraper.is_stale(&status, now))
        );
    }
    for (id, point) in scraper.store().latest_points() {
        let mut labels: Vec<String> = id
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
            .collect();
        labels.push(format!("instance=\"{}\"", escape_label_value(&id.target)));
        let _ = writeln!(out, "{}{{{}}} {}", id.name, labels.join(","), point.value);
    }
    metrics_response(&out)
}

/// Splits a raw query string into `(key, value)` pairs. Values are
/// taken verbatim (metric and target names in this workspace never
/// need percent-encoding).
fn query_params(query: &str) -> Vec<(&str, &str)> {
    query
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| pair.split_once('=').unwrap_or((pair, "")))
        .collect()
}

/// `GET /series?name=&target=&from=&to=&rate=`: a JSON range query
/// over the fleet time-series store.
///
/// With `name`, answers the matching series — raw points, or
/// per-second rates when `rate=true` (counters only; gauges pass
/// through) — plus every phase annotation inside the window. Without
/// `name`, answers an index document: stored series names, per-target
/// scrape health, and the windowed annotations.
fn series_response(scraper: &Arc<Scraper>, query: &str) -> Response {
    let params = query_params(query);
    let get = |key: &str| {
        params
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .filter(|v| !v.is_empty())
    };
    let from: u64 = match get("from").map(str::parse).transpose() {
        Ok(v) => v.unwrap_or(0),
        Err(_) => {
            return Response::builder(StatusCode::BAD_REQUEST)
                .body("from must be an integer microsecond timestamp")
                .build()
        }
    };
    let to: u64 = match get("to").map(str::parse).transpose() {
        Ok(v) => v.unwrap_or(u64::MAX),
        Err(_) => {
            return Response::builder(StatusCode::BAD_REQUEST)
                .body("to must be an integer microsecond timestamp")
                .build()
        }
    };
    let rate = matches!(get("rate"), Some("true") | Some("1"));
    let target = get("target");
    let store = scraper.store();

    let annotations: Vec<serde_json::Value> = store
        .annotations(from, to)
        .into_iter()
        .map(|a| {
            serde_json::json!({
                "at_us": a.at_us,
                "phase": a.phase,
                "detail": a.detail,
            })
        })
        .collect();

    let body = match get("name") {
        Some(name) => {
            let windows = if rate {
                store.query_rate(name, target, from, to)
            } else {
                store.query(name, target, from, to)
            };
            let series: Vec<serde_json::Value> = windows
                .into_iter()
                .map(|(id, points)| {
                    let labels: serde_json::Map<String, serde_json::Value> = id
                        .labels
                        .iter()
                        .map(|(k, v)| (k.clone(), serde_json::Value::from(v.as_str())))
                        .collect();
                    let points: Vec<serde_json::Value> = points
                        .iter()
                        .map(|p| serde_json::json!([p.at_us, p.value]))
                        .collect();
                    serde_json::json!({
                        "target": id.target,
                        "labels": labels,
                        "points": points,
                    })
                })
                .collect();
            serde_json::json!({
                "name": name,
                "kind": match SeriesKind::infer(name) {
                    SeriesKind::Counter => "counter",
                    SeriesKind::Gauge => "gauge",
                },
                "from": from,
                "to": to,
                "rate": rate,
                "series": series,
                "annotations": annotations,
            })
        }
        None => {
            let now = now_micros();
            let targets: Vec<serde_json::Value> = scraper
                .statuses()
                .iter()
                .map(|status| {
                    serde_json::json!({
                        "target": status.target,
                        "addr": status.addr,
                        "up": status.up,
                        "stale": scraper.is_stale(status, now),
                        "scrapes": status.scrapes,
                        "failures": status.failures,
                        "last_ok_us": status.last_ok_us,
                        "last_ingest_us": store.last_ingest_us(&status.target),
                    })
                })
                .collect();
            serde_json::json!({
                "names": store.series_names(),
                "targets": targets,
                "annotations": annotations,
            })
        }
    };
    Response::builder(StatusCode::OK)
        .header("Content-Type", "application/json")
        .body(body.to_string())
        .build()
}

/// `GET /tail`: a chunked NDJSON stream of events. The cursor is
/// pinned while handling the request, so nothing recorded after the
/// request arrived is missed; `?from=<cursor>` starts at that store
/// cursor instead (`from=0` replays history first, a cursor from
/// `/stats` or an earlier tail resumes there).
fn tail_reply(
    store: &Arc<EventStore>,
    request: &Request,
    metrics: &Arc<CollectorMetrics>,
) -> Reply {
    let from = query_params(request.query().unwrap_or(""))
        .into_iter()
        .find(|(key, _)| *key == "from")
        .map(|(_, value)| value.parse::<u64>());
    let mut cursor = match from {
        None => store.tail_cursor(),
        Some(Ok(cursor)) => cursor,
        Some(Err(_)) => {
            return Reply::Full(
                Response::builder(StatusCode::BAD_REQUEST)
                    .body("from must be an integer store cursor")
                    .build(),
            )
        }
    };
    let store = Arc::clone(store);
    metrics.tail_subscribers.inc();
    let guard = SubscriberGuard(Arc::clone(&metrics.tail_subscribers));
    let body = StreamingBody::new(StatusCode::OK, move |sink| {
        let _guard = guard;
        let mut idle_polls = 0u32;
        let mut lines = Vec::new();
        loop {
            // Encoded under the store's read locks, sent after them.
            lines.clear();
            let ((), next) = store.read_after(cursor, |events| {
                for event in events {
                    ndjson::write_line(event, &mut lines);
                }
            });
            cursor = next;
            if lines.is_empty() {
                thread::sleep(Duration::from_millis(25));
                idle_polls += 1;
                // Periodic blank heartbeat line: readers skip it, and
                // the write fails fast once the client is gone or the
                // server shuts down, unblocking this producer.
                if idle_polls.is_multiple_of(40) {
                    sink.send(b"\n")?;
                }
                continue;
            }
            idle_polls = 0;
            // One chunk per poll; readers split on lines, not chunks.
            sink.send(&lines)?;
        }
    })
    .header("Content-Type", "application/x-ndjson");
    Reply::Stream(body)
}

/// `GET /alerts`: a chunked NDJSON stream of monitor verdict
/// transitions. Unlike `/tail`, the stream starts at cursor 0 —
/// the alert log is small and the history (which checks already
/// flipped, and when) is exactly what a late subscriber needs.
fn alerts_reply(monitor: &Arc<dyn MonitorSource>, metrics: &Arc<CollectorMetrics>) -> Reply {
    let monitor = Arc::clone(monitor);
    metrics.alert_subscribers.inc();
    let guard = SubscriberGuard(Arc::clone(&metrics.alert_subscribers));
    let streamed = Arc::clone(&metrics.alerts_streamed);
    let body = StreamingBody::new(StatusCode::OK, move |sink| {
        let _guard = guard;
        let mut cursor = 0u64;
        let mut idle_polls = 0u32;
        loop {
            monitor.refresh();
            let (lines, next) = monitor.alert_lines_after(cursor);
            cursor = next;
            if lines.is_empty() {
                thread::sleep(Duration::from_millis(25));
                idle_polls += 1;
                if idle_polls.is_multiple_of(40) {
                    sink.send(b"\n")?;
                }
                continue;
            }
            idle_polls = 0;
            for line in &lines {
                let mut line = line.clone();
                line.push('\n');
                sink.send(line.as_bytes())?;
                streamed.inc();
            }
        }
    })
    .header("Content-Type", "application/x-ndjson");
    Reply::Stream(body)
}

/// An [`EventSink`] forwarding observations to a remote
/// [`CollectorServer`].
///
/// [`EventSink::record`] encodes the event straight into the body of
/// the next `POST /events`; a background thread posts a batch when it
/// is full (`batch_size` events — no request carries more), when
/// `linger` passes, on [`HttpEventSink::flush`] and on drop, so the
/// data path never waits on the collector. Dropping the sink posts
/// what it still holds.
#[derive(Debug)]
pub struct HttpEventSink {
    shared: Arc<SinkShared>,
    worker: Option<thread::JoinHandle<()>>,
}

/// What the recording threads and the worker share.
#[derive(Debug)]
struct SinkShared {
    state: Mutex<SinkState>,
    /// Wakes the worker: a batch became ready, a flush was requested,
    /// or the sink closed.
    work: Condvar,
    /// Wakes flushers: `flush_done` advanced.
    flushed: Condvar,
    batch_size: usize,
    dropped: AtomicU64,
}

#[derive(Debug, Default)]
struct SinkState {
    /// The batch `record` is encoding into.
    open: Batch,
    /// Full batches waiting for the worker, oldest first.
    ready: VecDeque<Batch>,
    /// Flush generations: a flusher takes the next `flush_requested`
    /// as its ticket and waits until `flush_done` reaches it.
    flush_requested: u64,
    flush_done: u64,
    /// Set when the sink is dropped; later records are discarded.
    closed: bool,
}

impl SinkShared {
    /// The lock, whatever happened to a thread that held it: every
    /// update leaves the state valid between two statements.
    fn state(&self) -> MutexGuard<'_, SinkState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Configuration for [`HttpEventSink`].
#[derive(Debug, Clone)]
pub struct SinkConfig {
    /// Ship a batch once it reaches this many events.
    pub batch_size: usize,
    /// Ship a partial batch after this long.
    pub linger: Duration,
}

impl Default for SinkConfig {
    fn default() -> Self {
        SinkConfig {
            batch_size: 128,
            linger: Duration::from_millis(50),
        }
    }
}

impl HttpEventSink {
    /// Creates a sink shipping to the collector at `addr` with
    /// default batching.
    pub fn new(addr: SocketAddr) -> HttpEventSink {
        HttpEventSink::with_config(addr, SinkConfig::default())
    }

    /// Creates a sink with explicit batching configuration.
    pub fn with_config(addr: SocketAddr, config: SinkConfig) -> HttpEventSink {
        let shared = Arc::new(SinkShared {
            state: Mutex::default(),
            work: Condvar::new(),
            flushed: Condvar::new(),
            batch_size: config.batch_size,
            dropped: AtomicU64::new(0),
        });
        let for_worker = Arc::clone(&shared);
        let worker = thread::Builder::new()
            .name("gremlin-event-sink".to_string())
            .spawn(move || run_sink_worker(&for_worker, addr, config.linger))
            .expect("failed to spawn event-sink thread");
        HttpEventSink {
            shared,
            worker: Some(worker),
        }
    }

    /// Blocks until everything recorded before the call has been
    /// posted — acknowledged by the collector or counted in
    /// [`HttpEventSink::dropped`] — and returns `true`; returns
    /// `false` if that took longer than ten seconds, in which case the
    /// worker is still at it.
    pub fn flush(&self) -> bool {
        self.flush_within(Duration::from_secs(10))
    }

    fn flush_within(&self, timeout: Duration) -> bool {
        let mut state = self.shared.state();
        state.flush_requested += 1;
        let ticket = state.flush_requested;
        self.shared.work.notify_one();
        let (_state, wait) = self
            .shared
            .flushed
            .wait_timeout_while(state, timeout, |state| state.flush_done < ticket)
            .unwrap_or_else(PoisonError::into_inner);
        !wait.timed_out()
    }

    /// Events dropped because the collector was unreachable.
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Stops accepting records and lets the worker post what is held
    /// and exit.
    fn close(&self) {
        self.shared.state().closed = true;
        self.shared.work.notify_one();
    }
}

/// The events a sink holds between two posts, already encoded.
#[derive(Debug, Default)]
struct Batch {
    /// The NDJSON body of the next `POST /events`.
    body: Vec<u8>,
    /// Events encoded into `body`.
    held: usize,
}

impl Batch {
    /// Takes the batch, leaving an empty one of the same capacity.
    fn take(&mut self) -> Batch {
        let empty = Batch {
            body: Vec::with_capacity(self.body.capacity()),
            held: 0,
        };
        std::mem::replace(self, empty)
    }
}

/// The sink's worker. Posts `ready` batches oldest first; with none
/// left, waits up to `linger` for more, and when a flush is waiting,
/// the sink closed or the wait ran out, posts the open batch too and
/// acknowledges the flush generation it saw before that post. Exits
/// once the sink is closed and empty.
fn run_sink_worker(shared: &SinkShared, addr: SocketAddr, linger: Duration) {
    let client = HttpClient::new();
    let mut state = shared.state();
    loop {
        if let Some(batch) = state.ready.pop_front() {
            drop(state);
            ship(&client, addr, batch, &shared.dropped);
            state = shared.state();
            continue;
        }
        if state.flush_requested == state.flush_done && !state.closed {
            let (woken, wait) = shared
                .work
                .wait_timeout(state, linger)
                .unwrap_or_else(PoisonError::into_inner);
            state = woken;
            if !wait.timed_out() || !state.ready.is_empty() {
                continue;
            }
        }
        // Nothing is ready, so whatever was recorded before this point
        // and not yet posted is in the open batch.
        let (flushing, closed) = (state.flush_requested, state.closed);
        if state.open.held > 0 {
            let batch = state.open.take();
            drop(state);
            ship(&client, addr, batch, &shared.dropped);
            state = shared.state();
        }
        if flushing > state.flush_done {
            state.flush_done = flushing;
            shared.flushed.notify_all();
        }
        if closed {
            return;
        }
    }
}

/// Posts the batch. Counts as dropped what the collector did not
/// import: on an error reply that says how many lines it kept
/// (`{"imported":N,…}`), the rest; without such a reply — connect
/// error, non-JSON body — all.
fn ship(client: &HttpClient, addr: SocketAddr, Batch { body, held }: Batch, dropped: &AtomicU64) {
    let request = Request::builder(Method::Post, "/events")
        .header("Content-Type", "application/x-ndjson")
        .body(body)
        .build();
    let imported = match client.send(addr, request) {
        Ok(response) if response.status().is_success() => return,
        Ok(response) => serde_json::from_slice::<serde_json::Value>(response.body())
            .ok()
            .and_then(|reply| reply["imported"].as_u64())
            .unwrap_or(0),
        Err(_) => 0,
    };
    dropped.fetch_add((held as u64).saturating_sub(imported), Ordering::Relaxed);
}

impl EventSink for HttpEventSink {
    fn record(&self, event: Event) {
        let mut state = self.shared.state();
        // The sink is shutting down; the event is deliberately dropped.
        if state.closed {
            return;
        }
        ndjson::write_line(&event, &mut state.open.body);
        state.open.held += 1;
        if state.open.held >= self.shared.batch_size {
            let full = state.open.take();
            state.ready.push_back(full);
            drop(state);
            self.shared.work.notify_one();
        }
    }
}

impl Drop for HttpEventSink {
    fn drop(&mut self) {
        self.close();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gremlin_store::{AppliedFault, Query};

    fn event(index: u64) -> Event {
        Event::request("a", "b", "GET", format!("/{index}"))
            .with_request_id(format!("test-{index}"))
            .with_timestamp(index)
    }

    #[test]
    fn collector_accepts_batches() {
        let store = EventStore::shared();
        let collector = CollectorServer::start(Arc::clone(&store), "127.0.0.1:0").unwrap();
        let client = HttpClient::new();
        let body = format!(
            "{}\n{}\n",
            serde_json::to_string(&event(1)).unwrap(),
            serde_json::to_string(&event(2)).unwrap()
        );
        let resp = client
            .send(
                collector.local_addr(),
                Request::builder(Method::Post, "/events").body(body).build(),
            )
            .unwrap();
        assert_eq!(resp.status(), StatusCode::OK);
        assert_eq!(resp.body_str(), "{\"imported\":2}");
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn collector_rejects_garbage() {
        let store = EventStore::shared();
        let collector = CollectorServer::start(store, "127.0.0.1:0").unwrap();
        let client = HttpClient::new();
        let resp = client
            .send(
                collector.local_addr(),
                Request::builder(Method::Post, "/events")
                    .body("junk")
                    .build(),
            )
            .unwrap();
        assert_eq!(resp.status(), StatusCode::BAD_REQUEST);
    }

    #[test]
    fn collector_exports_and_clears() {
        let store = EventStore::shared();
        store.record_event(event(7));
        let collector = CollectorServer::start(Arc::clone(&store), "127.0.0.1:0").unwrap();
        let client = HttpClient::new();

        let resp = client
            .send(collector.local_addr(), Request::get("/events"))
            .unwrap();
        assert!(resp.body_str().contains("test-7"));

        let resp = client
            .send(collector.local_addr(), Request::get("/stats"))
            .unwrap();
        assert!(
            resp.body_str().starts_with("{\"events\":1,"),
            "unexpected stats body: {}",
            resp.body_str()
        );

        let resp = client
            .send(
                collector.local_addr(),
                Request::builder(Method::Delete, "/events").build(),
            )
            .unwrap();
        assert_eq!(resp.status(), StatusCode::NO_CONTENT);
        assert!(store.is_empty());
    }

    #[test]
    fn collector_keeps_good_lines_from_mixed_batch() {
        let store = EventStore::shared();
        let collector = CollectorServer::start(Arc::clone(&store), "127.0.0.1:0").unwrap();
        let client = HttpClient::new();
        let body = format!(
            "{}\nnot json\n{}\n",
            serde_json::to_string(&event(1)).unwrap(),
            serde_json::to_string(&event(2)).unwrap()
        );
        let resp = client
            .send(
                collector.local_addr(),
                Request::builder(Method::Post, "/events").body(body).build(),
            )
            .unwrap();
        assert_eq!(resp.status(), StatusCode::BAD_REQUEST);
        assert!(resp.body_str().contains("\"imported\":2"));
        assert!(resp.body_str().contains("\"parse_errors\":1"));
        // Good lines were still appended.
        assert_eq!(store.len(), 2);

        // The failure is visible in /stats and /metrics.
        let stats = client
            .send(collector.local_addr(), Request::get("/stats"))
            .unwrap();
        assert!(stats.body_str().contains("\"parse_errors\":1"));
        let metrics = client
            .send(collector.local_addr(), Request::get("/metrics"))
            .unwrap();
        assert_eq!(metrics.status(), StatusCode::OK);
        let text = metrics.body_str();
        assert!(text.contains("gremlin_collector_parse_errors_total 1"));
        assert!(text.contains("gremlin_collector_events_total 2"));
        assert!(text.contains("gremlin_collector_batches_total 1"));
        assert!(text.contains("gremlin_store_events 2"));
    }

    #[test]
    fn empty_request_id_events_are_dropped_and_counted() {
        let store = EventStore::shared();
        let collector = CollectorServer::start(Arc::clone(&store), "127.0.0.1:0").unwrap();
        let client = HttpClient::new();
        let body = format!(
            "{}\n{}\n",
            serde_json::to_string(&event(1)).unwrap(),
            serde_json::to_string(&event(2).with_request_id("")).unwrap(),
        );
        let resp = client
            .send(
                collector.local_addr(),
                Request::builder(Method::Post, "/events").body(body).build(),
            )
            .unwrap();
        assert_eq!(resp.status(), StatusCode::OK);
        assert_eq!(resp.body_str(), "{\"imported\":1}");
        assert_eq!(store.len(), 1, "empty-id event must not be appended");

        let stats = client
            .send(collector.local_addr(), Request::get("/stats"))
            .unwrap();
        assert!(
            stats.body_str().contains("\"dropped\":1"),
            "stats: {}",
            stats.body_str()
        );
        let metrics = client
            .send(collector.local_addr(), Request::get("/metrics"))
            .unwrap();
        assert!(metrics
            .body_str()
            .contains("gremlin_collector_dropped_events 1"));
    }

    /// One `POST /events` written by hand on its own connection: the
    /// reply's status and body.
    fn post_raw(addr: SocketAddr, body: &[u8]) -> (StatusCode, String) {
        use std::io::Write;
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let head = format!(
            "POST /events HTTP/1.1\r\nHost: collector\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(body).unwrap();
        let reply = gremlin_http::codec::read_response(&mut std::io::BufReader::new(stream))
            .expect("the handler answered");
        (reply.status(), reply.body_str())
    }

    fn line(event: &Event) -> Vec<u8> {
        let mut out = Vec::new();
        ndjson::write_line(event, &mut out);
        out
    }

    /// A line that is not UTF-8 used to be repaired to U+FFFD, parse,
    /// and be stored under an ID no flow query matches.
    #[test]
    fn invalid_utf8_is_a_parse_error_not_a_repaired_id() {
        let store = EventStore::shared();
        let collector = CollectorServer::start(Arc::clone(&store), "127.0.0.1:0").unwrap();
        let mut body = line(&event(1));
        let mut bad = line(&event(2));
        let at = bad.windows(6).position(|w| w == b"test-2").unwrap();
        bad[at + 2] = 0xff;
        body.extend_from_slice(&bad);

        let (status, reply) = post_raw(collector.local_addr(), &body);
        assert_eq!(status, StatusCode::BAD_REQUEST);
        assert!(reply.contains("\"imported\":1"), "{reply}");
        assert!(reply.contains("\"parse_errors\":1"), "{reply}");
        assert!(reply.contains("\"error\":\""), "{reply}");
        let stored = store.snapshot();
        assert_eq!(stored.len(), 1);
        assert!(stored.iter().all(|event| {
            let id = event.request_id.as_deref().unwrap_or("");
            id == "test-1" && !id.contains('\u{fffd}')
        }));
    }

    /// Hostile writers on the collector port: whatever arrives, the
    /// handler answers, good lines are kept, and the counters say
    /// exactly what was posted.
    #[test]
    fn hostile_bodies_are_counted_and_never_take_the_handler_down() {
        let store = EventStore::shared();
        let collector = CollectorServer::start(Arc::clone(&store), "127.0.0.1:0").unwrap();
        let addr = collector.local_addr();
        let ok = |imported: usize| (StatusCode::OK, format!("{{\"imported\":{imported}}}"));
        let rejected = |imported: usize, errors: usize, (status, reply): (StatusCode, String)| {
            assert_eq!(status, StatusCode::BAD_REQUEST, "{reply}");
            let counts = format!("{{\"imported\":{imported},\"parse_errors\":{errors},");
            assert!(reply.starts_with(&counts), "{reply}");
        };

        // Nothing, and nothing but line ends.
        assert_eq!(post_raw(addr, b""), ok(0));
        assert_eq!(post_raw(addr, &[b'\n'; 4096]), ok(0));
        assert_eq!(post_raw(addr, b"\r\n \t\r\n\n"), ok(0));

        // CRLF line ends, an event with an empty request ID among them
        // (well-formed, dropped, counted), and a last line without `\n`.
        let mut body = Vec::new();
        for event in [event(1), event(2).with_request_id(""), event(3)] {
            body.extend_from_slice(line(&event).strip_suffix(b"\n").unwrap());
            body.extend_from_slice(b"\r\n");
        }
        body.extend_from_slice(line(&event(4)).strip_suffix(b"\n").unwrap());
        assert_eq!(post_raw(addr, &body), ok(3));

        // NUL bytes: a line of them, and one inside a string.
        let mut body = b"\0\0\0\n".to_vec();
        body.extend_from_slice(&line(&event(5)));
        let mut raw_nul = line(&event(6).with_agent("a-b"));
        let at = raw_nul.windows(3).position(|w| w == b"a-b").unwrap();
        raw_nul[at + 1] = 0;
        body.extend_from_slice(&raw_nul);
        rejected(1, 2, post_raw(addr, &body));

        // One 1 MiB line with no newline: of letters, then of brackets
        // (nesting far past any parser's depth limit).
        rejected(0, 1, post_raw(addr, &vec![b'x'; 1 << 20]));
        rejected(0, 1, post_raw(addr, &vec![b'['; 1 << 20]));

        // A valid batch cut mid-line, `Content-Length` covering the cut.
        let body: Vec<u8> = [event(7), event(8), event(9)]
            .iter()
            .flat_map(line)
            .collect();
        rejected(2, 1, post_raw(addr, &body[..body.len() - 40]));

        // The collector still answers, on a new connection, with
        // counters that add up to the above.
        let stats = HttpClient::new()
            .send(addr, Request::get("/stats"))
            .unwrap();
        let stats: serde_json::Value = serde_json::from_str(&stats.body_str()).unwrap();
        assert_eq!(stats["events"], 6, "{stats}");
        assert_eq!(stats["appended"], 6, "{stats}");
        assert_eq!(stats["parse_errors"], 5, "{stats}");
        assert_eq!(stats["dropped"], 1, "{stats}");
        assert_eq!(stats["batches"], 8, "{stats}");
        assert_eq!(store.len(), 6);
    }

    /// A stand-in collector: answers the `n`th `POST` it receives with
    /// `replies[n]` (status line and body), one connection each, and
    /// returns the request bodies.
    fn canned_collector(
        replies: Vec<(&'static str, &'static str)>,
    ) -> (SocketAddr, thread::JoinHandle<Vec<Vec<u8>>>) {
        use std::io::Write;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let mut bodies = Vec::new();
            for (status, body) in replies {
                let (mut stream, _) = listener.accept().unwrap();
                let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
                let request = gremlin_http::codec::read_request(&mut reader).unwrap();
                assert_eq!(request.path(), "/events");
                assert_eq!(
                    request.headers().get("content-type"),
                    Some("application/x-ndjson")
                );
                bodies.push(request.body().to_vec());
                let reply = format!(
                    "HTTP/1.1 {status}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                );
                stream.write_all(reply.as_bytes()).unwrap();
            }
            bodies
        });
        (addr, server)
    }

    /// On an error reply the sink counts as dropped what the collector
    /// did not keep, not the whole batch; a reply that does not say
    /// how much was kept loses the batch.
    #[test]
    fn sink_counts_as_dropped_only_what_was_not_imported() {
        let (addr, server) = canned_collector(vec![
            (
                "400 Bad Request",
                "{\"imported\":3,\"parse_errors\":2,\"error\":\"expected value\"}",
            ),
            ("200 OK", "{\"imported\":5}"),
            ("500 Internal Server Error", "out of memory"),
            ("400 Bad Request", "{\"imported\":9}"),
        ]);
        let sink = HttpEventSink::new(addr);
        let mut expected = 0;
        for (batch, lost) in [(0, 2), (1, 0), (2, 5), (3, 0)] {
            for index in 0..5 {
                sink.record(event(batch * 5 + index));
            }
            sink.flush();
            expected += lost;
            assert_eq!(sink.dropped(), expected, "after batch {batch}");
        }
        let bodies = server.join().unwrap();
        assert!(bodies.iter().all(|body| ndjson::lines(body).count() == 5));
    }

    /// The NDJSON a sink puts on the wire, byte for byte: the body the
    /// sink of the commit before the line codec posted for this burst
    /// (`serde_json::to_string` per event), captured then and kept in
    /// `tests/golden/`. Old sinks and new collectors, and the reverse,
    /// read each other.
    #[test]
    fn sink_puts_the_golden_burst_on_the_wire() {
        let golden: &[u8] = include_bytes!("../tests/golden/sink_burst.ndjson");
        let (addr, server) = canned_collector(vec![("200 OK", "{\"imported\":14}")]);
        let sink = HttpEventSink::new(addr);
        let burst = golden_burst();
        for event in &burst {
            sink.record(event.clone());
        }
        sink.flush();
        assert_eq!(sink.dropped(), 0);
        let bodies = server.join().unwrap();
        assert_eq!(
            bodies[0],
            golden,
            "sent: {}",
            String::from_utf8_lossy(&bodies[0])
        );
        // And a collector reads the golden bytes back into the burst.
        let store = EventStore::shared();
        let collector = CollectorServer::start(Arc::clone(&store), "127.0.0.1:0").unwrap();
        let (status, reply) = post_raw(collector.local_addr(), golden);
        assert_eq!(
            (status, reply.as_str()),
            (StatusCode::OK, "{\"imported\":14}")
        );
        let (stored, _) = store.events_after(0);
        assert_eq!(stored, burst);
    }

    /// What agents emit and what they might: paired calls with span
    /// IDs, every fault, a reset without a status, absent IDs and
    /// names, and strings that need escaping.
    fn golden_burst() -> Vec<Event> {
        let call = |index: u64| {
            let id = format!("test-{index:04}");
            let span = format!("{:016x}", 0x00aa_11bb_22cc_33ddu64 + index);
            let request = Event::request("web", "db", "GET", format!("/item/{index}?q=a b"))
                .with_request_id(id.as_str())
                .with_timestamp(1_700_000_000_000_000 + index * 1_000)
                .with_agent("agent-web-0")
                .with_span_id(span.as_str());
            let response = Event::response("web", "db", 200, Duration::from_micros(1_500 + index))
                .with_request_id(id.as_str())
                .with_timestamp(1_700_000_000_000_500 + index * 1_000)
                .with_agent("agent-web-0")
                .with_span_id(span.as_str())
                .with_parent_id("ffee00aa11bb22cc");
            [request, response]
        };
        let mut events: Vec<Event> = (0..4).flat_map(call).collect();
        let [request, response] = call(4);
        events.push(request.with_fault(AppliedFault::Delay { delay_us: 250_000 }));
        events.push(response.with_fault(AppliedFault::Abort { status: 503 }));
        let [request, _] = call(5);
        events.push(request.with_fault(AppliedFault::Modify));
        events.push(
            Event::response("web", "db", 0, Duration::ZERO)
                .with_request_id("test-0005")
                .with_timestamp(u64::MAX)
                .with_fault(AppliedFault::AbortReset),
        );
        events.push(Event::request("", "b", "POST", "/").with_timestamp(0));
        events.push(
            Event::request(
                "caf\u{e9}",
                "\u{65e5}\u{672c}-\u{1f600}",
                "GET",
                "/q?x=\"a\\b\"\n\t\u{1}\u{7f}",
            )
            .with_request_id("test-\"quoted\"")
            .with_timestamp(7)
            .with_agent("agent\r\n"),
        );
        events
    }

    #[test]
    fn traces_endpoint_serves_otlp_json() {
        let store = EventStore::shared();
        store.record_event(
            Event::request("a", "b", "GET", "/x")
                .with_request_id("test-9")
                .with_timestamp(5)
                .with_span_id("s1"),
        );
        let mut done = Event::response("a", "b", 200, Duration::from_millis(2))
            .with_request_id("test-9")
            .with_span_id("s1");
        done.timestamp_us = 2_005;
        store.record_event(done);
        let collector = CollectorServer::start(Arc::clone(&store), "127.0.0.1:0").unwrap();
        let client = HttpClient::new();

        let resp = client
            .send(collector.local_addr(), Request::get("/traces/test-9"))
            .unwrap();
        assert_eq!(resp.status(), StatusCode::OK);
        assert_eq!(resp.headers().get("content-type"), Some("application/json"));
        let trace: gremlin_store::OtlpTrace = serde_json::from_str(&resp.body_str()).unwrap();
        let spans = gremlin_store::import_otlp(&trace);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].span_id.as_deref(), Some("s1"));
        assert_eq!(spans[0].status, Some(200));

        let resp = client
            .send(collector.local_addr(), Request::get("/traces/unknown"))
            .unwrap();
        assert_eq!(resp.status(), StatusCode::NOT_FOUND);
        let resp = client
            .send(collector.local_addr(), Request::get("/traces/"))
            .unwrap();
        assert_eq!(resp.status(), StatusCode::BAD_REQUEST);
    }

    #[test]
    fn tail_streams_only_new_events() {
        let store = EventStore::shared();
        store.record_event(event(1)); // history: must be skipped
        let collector = CollectorServer::start(Arc::clone(&store), "127.0.0.1:0").unwrap();

        let stream = std::net::TcpStream::connect(collector.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        gremlin_http::codec::write_request(&mut writer, &Request::get("/tail")).unwrap();
        let mut reader = std::io::BufReader::new(stream);
        let head = gremlin_http::codec::read_response_head(&mut reader).unwrap();
        assert_eq!(head.status(), StatusCode::OK);
        assert!(head.headers().is_chunked());

        store.record_event(event(2));
        let mut chunks = gremlin_http::codec::ChunkReader::new(reader);
        let mut seen = String::new();
        while !seen.contains("test-2") {
            let chunk = chunks
                .next_chunk()
                .unwrap()
                .expect("stream ended before the event arrived");
            seen.push_str(&String::from_utf8_lossy(&chunk));
        }
        assert!(!seen.contains("test-1"), "tail must skip history: {seen}");
    }

    #[test]
    fn tail_from_zero_replays_history() {
        let store = EventStore::shared();
        store.record_event(event(1));
        let collector = CollectorServer::start(Arc::clone(&store), "127.0.0.1:0").unwrap();

        let stream = std::net::TcpStream::connect(collector.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        gremlin_http::codec::write_request(&mut writer, &Request::get("/tail?from=0")).unwrap();
        let mut reader = std::io::BufReader::new(stream);
        let _head = gremlin_http::codec::read_response_head(&mut reader).unwrap();
        let mut chunks = gremlin_http::codec::ChunkReader::new(reader);
        let mut seen = String::new();
        while !seen.contains("test-1") {
            let chunk = chunks.next_chunk().unwrap().expect("stream ended");
            seen.push_str(&String::from_utf8_lossy(&chunk));
        }
    }

    /// `gremlin tail --from N` sends `from=N`; anything but `from=0`
    /// used to be ignored and the stream started from *now*.
    #[test]
    fn tail_from_a_cursor_resumes_there() {
        let store = EventStore::shared();
        for index in 0..10 {
            store.record_event(event(index));
        }
        let collector = CollectorServer::start(Arc::clone(&store), "127.0.0.1:0").unwrap();

        let stream = std::net::TcpStream::connect(collector.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        gremlin_http::codec::write_request(&mut writer, &Request::get("/tail?from=4")).unwrap();
        let mut reader = std::io::BufReader::new(stream);
        let head = gremlin_http::codec::read_response_head(&mut reader).unwrap();
        assert_eq!(head.status(), StatusCode::OK);
        let mut chunks = gremlin_http::codec::ChunkReader::new(reader);
        let mut seen = Vec::new();
        let mut ids_after = |count: usize| {
            while ndjson::lines(&seen).count() < count || !seen.ends_with(b"\n") {
                let chunk = chunks.next_chunk().unwrap().expect("stream ended");
                seen.extend_from_slice(&chunk);
            }
            ndjson::lines(&seen)
                .map(|line| ndjson::read_line(line).unwrap().request_id.unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            ids_after(6),
            ["test-4", "test-5", "test-6", "test-7", "test-8", "test-9"]
        );
        // Then it follows.
        store.record_event(event(10));
        assert_eq!(ids_after(7).last().unwrap(), "test-10");

        // A cursor that is not a number is refused, not read as "now".
        for path in ["/tail?from=abc", "/tail?from=", "/tail?x=1&from=-1"] {
            let reply = HttpClient::new()
                .send(collector.local_addr(), Request::get(path))
                .unwrap();
            assert_eq!(reply.status(), StatusCode::BAD_REQUEST, "{path}");
        }
    }

    #[test]
    fn sink_ships_batches_to_collector() {
        let store = EventStore::shared();
        let collector = CollectorServer::start(Arc::clone(&store), "127.0.0.1:0").unwrap();
        let sink = HttpEventSink::new(collector.local_addr());
        for index in 0..10 {
            sink.record(event(index));
        }
        sink.flush();
        assert_eq!(store.len(), 10);
        assert_eq!(sink.dropped(), 0);
        let found = store.query(&Query::requests("a", "b"));
        assert_eq!(found.len(), 10);
    }

    #[test]
    fn sink_linger_ships_partial_batches() {
        let store = EventStore::shared();
        let collector = CollectorServer::start(Arc::clone(&store), "127.0.0.1:0").unwrap();
        let sink = HttpEventSink::with_config(
            collector.local_addr(),
            SinkConfig {
                batch_size: 1000,
                linger: Duration::from_millis(20),
            },
        );
        sink.record(event(1));
        thread::sleep(Duration::from_millis(150));
        assert_eq!(
            store.len(),
            1,
            "linger must flush without reaching batch size"
        );
        drop(sink);
    }

    #[test]
    fn sink_counts_drops_when_collector_unreachable() {
        let dead = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let sink = HttpEventSink::new(dead);
        sink.record(event(1));
        sink.flush();
        assert_eq!(sink.dropped(), 1);
    }

    #[test]
    fn drop_flushes_buffered_events() {
        let store = EventStore::shared();
        let collector = CollectorServer::start(Arc::clone(&store), "127.0.0.1:0").unwrap();
        {
            let sink = HttpEventSink::with_config(
                collector.local_addr(),
                SinkConfig {
                    batch_size: 1000,
                    linger: Duration::from_secs(10),
                },
            );
            sink.record(event(1));
            sink.record(event(2));
        } // drop flushes
        assert_eq!(store.len(), 2);
    }

    /// `flush` used to give up after its deadline without telling the
    /// caller. A collector that accepts and never answers: the flush
    /// reports the timeout, and once the connection is gone the batch
    /// is accounted for.
    #[test]
    fn flush_reports_a_timeout_and_the_batch_is_accounted_for() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (hang_up, hung_up) = std::sync::mpsc::channel::<()>();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let _ = hung_up.recv();
            drop(stream);
        });
        let sink = HttpEventSink::new(addr);
        sink.record(event(1));
        sink.record(event(2));
        let started = Instant::now();
        assert!(!sink.flush_within(Duration::from_millis(200)));
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(sink.dropped(), 0, "the post is still in flight");

        hang_up.send(()).unwrap();
        server.join().unwrap();
        // The worker finishes the post it was in, then acknowledges.
        assert!(sink.flush());
        assert_eq!(sink.dropped(), 2);
    }

    /// Eight recording threads against one sink, flushes in between:
    /// every event reaches the collector exactly once, each thread's in
    /// the order it recorded them, and no request carries more than
    /// `batch_size` events.
    #[test]
    fn concurrent_records_arrive_once_in_order_in_bounded_posts() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 2000;
        let posts: Arc<Mutex<Vec<Vec<u8>>>> = Arc::default();
        let received = Arc::clone(&posts);
        let collector = HttpServer::bind("127.0.0.1:0", move |request: Request, _: &ConnInfo| {
            let imported = ndjson::lines(request.body()).count();
            received.lock().unwrap().push(request.body().to_vec());
            Reply::Full(
                Response::builder(StatusCode::OK)
                    .body(format!("{{\"imported\":{imported}}}"))
                    .build(),
            )
        })
        .unwrap();
        let config = SinkConfig::default();
        let sink = HttpEventSink::with_config(collector.local_addr(), config.clone());
        thread::scope(|scope| {
            for thread_id in 0..THREADS {
                let sink = &sink;
                scope.spawn(move || {
                    for index in 0..PER_THREAD {
                        sink.record(event(thread_id * PER_THREAD + index));
                        if index % 257 == thread_id {
                            assert!(sink.flush());
                        }
                    }
                });
            }
        });
        assert!(sink.flush());
        assert_eq!(sink.dropped(), 0);

        let posts = posts.lock().unwrap();
        let mut next = [0u64; THREADS as usize];
        for body in posts.iter() {
            let lines: Vec<&[u8]> = ndjson::lines(body).collect();
            assert!(!lines.is_empty() && lines.len() <= config.batch_size);
            for line in lines {
                let index = ndjson::read_line(line).unwrap().timestamp_us;
                let thread_id = (index / PER_THREAD) as usize;
                assert_eq!(index % PER_THREAD, next[thread_id], "thread {thread_id}");
                next[thread_id] += 1;
            }
        }
        assert_eq!(next, [PER_THREAD; THREADS as usize]);
    }

    /// A record that arrives once the sink began shutting down is
    /// discarded: no panic, nothing posted, nothing counted.
    #[test]
    fn record_after_close_is_discarded() {
        let store = EventStore::shared();
        let collector = CollectorServer::start(Arc::clone(&store), "127.0.0.1:0").unwrap();
        let sink = HttpEventSink::new(collector.local_addr());
        sink.record(event(1));
        sink.close();
        sink.record(event(2));
        drop(sink);
        assert_eq!(store.len(), 1);
        assert_eq!(store.snapshot()[0].request_id.as_deref(), Some("test-1"));
    }

    #[test]
    fn health_endpoint_serves_edge_matrix() {
        let store = EventStore::shared();
        store.record_event(
            Event::request("web", "db", "GET", "/q")
                .with_request_id("test-1")
                .with_timestamp(1_000),
        );
        let mut reply =
            Event::response("web", "db", 200, Duration::from_millis(3)).with_request_id("test-1");
        reply.timestamp_us = 4_000;
        store.record_event(reply);

        let collector = CollectorServer::start(Arc::clone(&store), "127.0.0.1:0").unwrap();
        let client = HttpClient::new();
        let resp = client
            .send(collector.local_addr(), Request::get("/health"))
            .unwrap();
        assert_eq!(resp.status(), StatusCode::OK);
        assert_eq!(resp.headers().get("content-type"), Some("application/json"));
        let body: serde_json::Value = serde_json::from_str(&resp.body_str()).unwrap();
        let edges = body["edges"].as_array().expect("edges array");
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0]["src"], "web");
        assert_eq!(edges[0]["dst"], "db");
        assert_eq!(edges[0]["requests"], 1);
        assert_eq!(edges[0]["responses"], 1);
        // The default monitor carries no assertion engine and no
        // anomaly baseline.
        assert_eq!(body["checks"].as_array().map(Vec::len), Some(0));
        assert_eq!(body["scores"].as_array().map(Vec::len), Some(0));
        assert_eq!(body["schema_version"], u64::from(HEALTH_SCHEMA_VERSION));
    }

    /// A canned [`MonitorSource`] for exercising `/alerts` without
    /// pulling the full streaming engine into this crate's tests.
    #[derive(Debug, Default)]
    struct FakeMonitor {
        lines: std::sync::Mutex<Vec<String>>,
        refreshes: AtomicU64,
    }

    impl MonitorSource for FakeMonitor {
        fn refresh(&self) {
            self.refreshes.fetch_add(1, Ordering::Relaxed);
        }

        fn health_json(&self) -> String {
            "{\"window_us\":0,\"clock_us\":0,\"edges\":[],\"checks\":[]}".to_string()
        }

        fn alert_lines_after(&self, cursor: u64) -> (Vec<String>, u64) {
            let lines = self.lines.lock().unwrap();
            let start = cursor as usize;
            if start >= lines.len() {
                return (Vec::new(), cursor);
            }
            (lines[start..].to_vec(), lines.len() as u64)
        }
    }

    #[test]
    fn alerts_stream_replays_history_then_follows() {
        let store = EventStore::shared();
        let monitor = Arc::new(FakeMonitor::default());
        monitor
            .lines
            .lock()
            .unwrap()
            .push("{\"seq\":0,\"to\":\"failing\"}".to_string());
        let collector = CollectorServer::start_with_monitor(
            Arc::clone(&store),
            "127.0.0.1:0",
            MetricsRegistry::shared(),
            Arc::clone(&monitor) as Arc<dyn MonitorSource>,
        )
        .unwrap();

        let stream = std::net::TcpStream::connect(collector.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        gremlin_http::codec::write_request(&mut writer, &Request::get("/alerts")).unwrap();
        let mut reader = std::io::BufReader::new(stream);
        let head = gremlin_http::codec::read_response_head(&mut reader).unwrap();
        assert_eq!(head.status(), StatusCode::OK);
        assert!(head.headers().is_chunked());

        let mut chunks = gremlin_http::codec::ChunkReader::new(reader);
        let mut seen = String::new();
        // History (recorded before the subscriber connected) replays.
        while !seen.contains("\"seq\":0") {
            let chunk = chunks.next_chunk().unwrap().expect("stream ended");
            seen.push_str(&String::from_utf8_lossy(&chunk));
        }
        // While connected, the subscriber gauge is visible on /stats
        // and the stream keeps refreshing the monitor.
        let client = HttpClient::new();
        let stats = client
            .send(collector.local_addr(), Request::get("/stats"))
            .unwrap();
        assert!(
            stats.body_str().contains("\"alert_subscribers\":1"),
            "stats: {}",
            stats.body_str()
        );
        assert!(monitor.refreshes.load(Ordering::Relaxed) > 0);

        // New alerts arrive live.
        monitor
            .lines
            .lock()
            .unwrap()
            .push("{\"seq\":1,\"to\":\"violated\"}".to_string());
        while !seen.contains("\"seq\":1") {
            let chunk = chunks.next_chunk().unwrap().expect("stream ended");
            seen.push_str(&String::from_utf8_lossy(&chunk));
        }
        // The producer counts a line after writing it; give it the
        // moment between the two.
        let streamed = || {
            collector
                .registry()
                .snapshot()
                .counter_value("gremlin_collector_alerts_streamed_total", &[])
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        while streamed() != Some(2) && Instant::now() < deadline {
            thread::yield_now();
        }
        assert_eq!(streamed(), Some(2));
    }

    #[test]
    fn stats_reports_tail_cursor_and_subscriber_counts() {
        let store = EventStore::shared();
        store.record_event(event(1));
        store.record_event(event(2));
        let collector = CollectorServer::start(Arc::clone(&store), "127.0.0.1:0").unwrap();
        let client = HttpClient::new();
        let stats = client
            .send(collector.local_addr(), Request::get("/stats"))
            .unwrap();
        let body = stats.body_str();
        assert!(
            body.contains(&format!("\"tail_cursor\":{}", store.tail_cursor())),
            "stats: {body}"
        );
        assert!(body.contains("\"tail_subscribers\":0"), "stats: {body}");
        assert!(body.contains("\"alert_subscribers\":0"), "stats: {body}");
    }
}
