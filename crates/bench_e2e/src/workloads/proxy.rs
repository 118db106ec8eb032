//! `proxy_passthrough` and `proxy_faulted`: application calls crossing
//! one Gremlin agent.
//!
//! Topology: driver → `GremlinAgent` (`client → server`, tracing on,
//! sink = in-process `EventStore`) → benchmark-owned `HttpServer`, all
//! on loopback. The two workloads differ only in their inputs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gremlin_http::codec::{read_request, read_response, write_request, write_response};
use gremlin_http::{ConnInfo, HttpClient, HttpServer, Request, Response};
use gremlin_proxy::{AgentConfig, GremlinAgent, MessageSide, RuleTable};
use gremlin_store::{Event, EventSink, EventStore};
use gremlin_telemetry::LatencyHistogram;

use super::{probe_ns_per_item, probe_p50_us, LayerMetrics, Traced, Workload};
use crate::driver::{
    client_count, run_clients, ClientOutcome, EchoServer, RawClient, RoundOutcome,
};
use crate::gen::{class_counts, IdClass, ProxyInputs, CLIENT, SERVER};
use crate::spans::Recorder;
use crate::stats;

/// Events the agent logs per proxied call: the request observation and
/// the response observation (an aborted call logs its synthesized
/// response).
pub const EVENTS_PER_CALL: usize = 2;

struct Backend {
    /// The reply, cloned per request: `Response` shares its body
    /// between clones, so this copies headers only.
    reply: Response,
    /// Requests seen per [`IdClass`], `[Pass, Abort, Modify]`.
    hits: [AtomicU64; 3],
    recorder: Option<Arc<Recorder>>,
}

/// The agent's sink when tracing is set up: forwards to the store and,
/// while the recorder is enabled, times the call as the agent makes it.
struct TimedSink {
    store: Arc<EventStore>,
    recorder: Arc<Recorder>,
}

impl EventSink for TimedSink {
    fn record(&self, event: Event) {
        if !self.recorder.enabled() {
            return self.store.record_event(event);
        }
        let id = event.request_id.clone();
        let start = self.recorder.now_ns();
        self.store.record_event(event);
        self.recorder.record(
            &Arc::from(id.as_deref().unwrap_or("")),
            Some("driver.request"),
            "sink.record",
            start,
        );
    }
}

struct ProxyWorkload {
    seed: u64,
    inputs: ProxyInputs,
    clients: usize,
    connections: Vec<Mutex<RawClient>>,
    // Field order is drop order: the agent's connections go before the
    // backend they point at.
    agent: GremlinAgent,
    backend: HttpServer,
    backend_state: Arc<Backend>,
    store: Arc<EventStore>,
    recorder: Option<Arc<Recorder>>,
    rule_hits_seen: u64,
    /// Exact counters of the last round, for the traced report.
    last_round_rule_hits: u64,
    last_round_events: usize,
    last_round_ops: usize,
    clear_ms: Vec<f64>,
}

pub(super) fn set_up(
    inputs: ProxyInputs,
    seed: u64,
    recorder: Option<Arc<Recorder>>,
) -> Result<Box<dyn Workload>, String> {
    let backend_state = Arc::new(Backend {
        reply: Response::ok(inputs.backend_body.clone()),
        hits: Default::default(),
        recorder: recorder.clone(),
    });
    let handler_state = Arc::clone(&backend_state);
    let backend = HttpServer::bind("127.0.0.1:0", move |request: Request, _: &ConnInfo| {
        handle(&handler_state, &request)
    })
    .map_err(|err| format!("backend: {err}"))?;

    let store = Arc::new(EventStore::new());
    let sink: Arc<dyn EventSink> = match &recorder {
        Some(recorder) => Arc::new(TimedSink {
            store: Arc::clone(&store),
            recorder: Arc::clone(recorder),
        }),
        None => Arc::clone(&store) as Arc<dyn EventSink>,
    };
    let agent = GremlinAgent::start(
        AgentConfig::new(CLIENT)
            .route(SERVER, vec![backend.local_addr()])
            .seed(seed),
        sink,
    )
    .map_err(|err| format!("agent: {err}"))?;
    agent
        .install_rules(inputs.rules.clone())
        .map_err(|err| format!("install rules: {err}"))?;
    let proxy_addr = agent
        .route_addr(SERVER)
        .ok_or("agent has no route to the backend")?;

    let clients = client_count();
    let connections = (0..clients)
        .map(|_| RawClient::connect(proxy_addr).map(Mutex::new))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|err| format!("connect to agent: {err}"))?;

    Ok(Box::new(ProxyWorkload {
        seed,
        inputs,
        clients,
        connections,
        agent,
        backend,
        backend_state,
        store,
        recorder,
        rule_hits_seen: 0,
        last_round_rule_hits: 0,
        last_round_events: 0,
        last_round_ops: 0,
        clear_ms: Vec::new(),
    }))
}

fn handle(state: &Backend, request: &Request) -> Response {
    let id = request.request_id().unwrap_or("");
    let start = state
        .recorder
        .as_deref()
        .filter(|recorder| recorder.enabled())
        .map(|recorder| (recorder, recorder.now_ns()));
    if let Some(class) = IdClass::of_id(id) {
        state.hits[class as usize].fetch_add(1, Ordering::Relaxed);
    }
    let response = state.reply.clone();
    if let Some((recorder, start)) = start {
        recorder.record(
            &Arc::from(id),
            Some("driver.request"),
            "backend.handle",
            start,
        );
    }
    response
}

/// Latencies, in microseconds, of `sample` sent straight to `addr` by
/// `clients` connections in the same closed loop the rounds use. Empty
/// when `addr` cannot be reached.
fn closed_loop_us(
    addr: std::net::SocketAddr,
    sample: &[crate::gen::ProxyRequest],
    clients: usize,
) -> Vec<f64> {
    let round = run_clients(clients, |client| {
        let mut outcome = ClientOutcome::default();
        let Ok(mut connection) = RawClient::connect(addr) else {
            return outcome;
        };
        let mut body = Vec::new();
        for request in sample.iter().skip(client).step_by(clients) {
            let started = Instant::now();
            if connection.exchange(&request.bytes, &mut body).is_ok() {
                outcome
                    .latencies_ns
                    .push(started.elapsed().as_nanos() as u64);
            }
        }
        outcome
    });
    round
        .latencies_ns
        .iter()
        .map(|ns| *ns as f64 / 1_000.0)
        .collect()
}

impl ProxyWorkload {
    fn backend_hits(&self) -> [u64; 3] {
        [0, 1, 2].map(|class| self.backend_state.hits[class].load(Ordering::Relaxed))
    }
}

impl Workload for ProxyWorkload {
    fn clients(&self) -> usize {
        self.clients
    }

    fn round(&mut self, ops: usize) -> RoundOutcome {
        let cleared = Instant::now();
        self.store.clear();
        self.clear_ms
            .push(cleared.elapsed().as_secs_f64() * 1_000.0);
        let hits_before = self.backend_hits();

        let requests = &self.inputs.requests[..ops.min(self.inputs.requests.len())];
        let (inputs, connections, clients) = (&self.inputs, &self.connections, self.clients);
        let recorder = self
            .recorder
            .as_deref()
            .filter(|recorder| recorder.enabled());
        let mut round = run_clients(clients, |client| {
            let mut connection = connections[client]
                .lock()
                .expect("connection lock poisoned: a client thread panicked");
            let mut outcome = ClientOutcome::default();
            let mut body = Vec::with_capacity(inputs.backend_body.len());
            for request in requests.iter().skip(client).step_by(clients) {
                let span_start = recorder.map(Recorder::now_ns);
                let started = Instant::now();
                let result = connection.exchange(&request.bytes, &mut body);
                outcome
                    .latencies_ns
                    .push(started.elapsed().as_nanos() as u64);
                if let (Some(recorder), Some(start)) = (recorder, span_start) {
                    recorder.record(
                        &Arc::from(request.id.as_str()),
                        None,
                        "driver.request",
                        start,
                    );
                }
                let as_predicted = match (request.class, result) {
                    (IdClass::Pass, Ok(200)) => body == inputs.backend_body,
                    (IdClass::Modify, Ok(200)) => body == inputs.modified_body,
                    (IdClass::Abort, Ok(503)) => true,
                    _ => false,
                };
                if !as_predicted {
                    outcome.failed += 1;
                }
            }
            outcome
        });

        // What the round must have left behind, exactly.
        let sent = class_counts(requests);
        let hits_after = self.backend_hits();
        let reached: Vec<u64> = (0..3)
            .map(|class| hits_after[class] - hits_before[class])
            .collect();
        let expected_reached = [sent[0], 0, sent[2]];
        let rule_hits = self.agent.rule_hits() - self.rule_hits_seen;
        self.rule_hits_seen += rule_hits;
        let events = self.store.len();
        let mut deviations = 0u64;
        for class in 0..3 {
            deviations += reached[class].abs_diff(expected_reached[class]);
        }
        deviations += rule_hits.abs_diff(sent[1] + sent[2]);
        deviations += (events as u64).abs_diff((requests.len() * EVENTS_PER_CALL) as u64);
        round.failed = (round.failed + deviations as usize).min(round.attempted());
        self.last_round_rule_hits = rule_hits;
        self.last_round_events = events;
        self.last_round_ops = requests.len();
        round
    }

    fn layer_metrics(&mut self, traced: &Traced, out: &mut LayerMetrics) {
        let requests = &self.inputs.requests;
        let sample = &requests[..requests.len().min(4_000)];
        // bench.driver: the driver against a server with no Gremlin code.
        if let Ok(echo) = EchoServer::start() {
            let mut rtts = closed_loop_us(echo.addr(), sample, self.clients);
            out.set(
                "bench.driver.null_rtt_p50_us",
                stats::quantile(&mut rtts, 0.5),
            );
        }

        // httpwire.server: the driver straight at the backend — the floor
        // under the proxied latency, with the same clients as the rounds so
        // that both include the same queueing for the one core.
        let mut direct = closed_loop_us(self.backend.local_addr(), sample, self.clients);
        let direct_p50 = stats::quantile(&mut direct, 0.5);
        let direct_p99 = stats::quantile(&mut direct, 0.99);
        out.set("httpwire.server.direct_p50_us", direct_p50);
        out.set("httpwire.server.direct_p99_us", direct_p99);

        // httpwire.client: the pooled client the agent forwards with.
        let http = HttpClient::new();
        let backend_addr = self.backend.local_addr();
        let mut sends: Vec<f64> = sample
            .iter()
            .take(2_000)
            .filter_map(|request| {
                let forwarded = Request::builder(gremlin_http::Method::Get, "/")
                    .request_id(request.id.as_str())
                    .build();
                let started = Instant::now();
                http.send(backend_addr, forwarded).ok()?;
                Some(started.elapsed().as_nanos() as f64 / 1_000.0)
            })
            .collect();
        out.set(
            "httpwire.client.send_p50_us",
            stats::quantile(&mut sends, 0.5),
        );

        // httpwire.codec: parse and render the very messages of the run.
        let parsed: Vec<Request> = sample
            .iter()
            .filter_map(|request| read_request(&mut request.bytes.as_slice()).ok())
            .collect();
        out.set(
            "httpwire.codec.read_request_ns",
            probe_ns_per_item(sample.len(), || {
                for request in sample {
                    std::hint::black_box(read_request(&mut request.bytes.as_slice()).ok());
                }
            }),
        );
        let mut wire = Vec::with_capacity(8 * 1024);
        out.set(
            "httpwire.codec.write_request_ns",
            probe_ns_per_item(parsed.len(), || {
                for request in &parsed {
                    wire.clear();
                    let _ = write_request(&mut wire, std::hint::black_box(request));
                }
            }),
        );
        let response = self.backend_state.reply.clone();
        let mut response_wire = Vec::new();
        let _ = write_response(&mut response_wire, &response);
        out.set(
            "httpwire.codec.write_response_ns",
            probe_ns_per_item(sample.len(), || {
                for _ in sample {
                    wire.clear();
                    let _ = write_response(&mut wire, std::hint::black_box(&response));
                }
            }),
        );
        out.set(
            "httpwire.codec.read_response_ns",
            probe_ns_per_item(sample.len(), || {
                for _ in sample {
                    std::hint::black_box(read_response(&mut response_wire.as_slice()).ok());
                }
            }),
        );
        let (wire_bytes, exchanges) = self
            .connections
            .iter()
            .map(|connection| {
                connection
                    .lock()
                    .expect("connection lock poisoned: a client thread panicked")
                    .wire_counts()
            })
            .fold((0, 0), |sum, counts| (sum.0 + counts.0, sum.1 + counts.1));
        out.set(
            "httpwire.codec.bytes_per_op",
            wire_bytes as f64 / exchanges.max(1) as f64,
        );

        // proxy.table: a table of our own with the run's rules, matched
        // the way the agent matches (request side; response side unless
        // the request was aborted).
        let table = RuleTable::with_seed(self.seed);
        // `install` appends, so each timed install starts from an empty
        // table and the last one leaves exactly the run's rules behind.
        let mut installs: Vec<f64> = (0..20)
            .map(|_| {
                table.clear();
                let rules = self.inputs.rules.clone();
                let started = Instant::now();
                let _ = table.install(rules);
                started.elapsed().as_nanos() as f64 / 1_000.0
            })
            .collect();
        out.set(
            "proxy.table.install_us",
            stats::quantile(&mut installs, 0.5),
        );
        let (checks_before, hits_before, misses_before) =
            (table.checks(), table.hits(), table.index_misses());
        let match_started = Instant::now();
        for request in sample {
            let aborted = table
                .match_message(CLIENT, SERVER, MessageSide::Request, Some(&request.id))
                .is_some();
            if !aborted {
                std::hint::black_box(table.match_message(
                    CLIENT,
                    SERVER,
                    MessageSide::Response,
                    Some(&request.id),
                ));
            }
        }
        let match_elapsed = match_started.elapsed();
        let checks = table.checks() - checks_before;
        let hits = table.hits() - hits_before;
        out.set(
            "proxy.table.match_ns",
            match_elapsed.as_nanos() as f64 / checks.max(1) as f64,
        );
        out.set("proxy.table.checks", checks as f64);
        out.set("proxy.table.hits", hits as f64);
        out.set("proxy.table.hit_ratio", hits as f64 / checks.max(1) as f64);
        out.set(
            "proxy.table.index_miss_ratio",
            (table.index_misses() - misses_before) as f64 / checks.max(1) as f64,
        );

        // proxy.agent: what crossing the agent adds (Fig. 8's quantity),
        // and the root span's self time: agent + codecs + loopback.
        let mut through: Vec<f64> = traced
            .untraced_latencies_ns
            .iter()
            .map(|ns| *ns as f64 / 1_000.0)
            .collect();
        out.set(
            "proxy.agent.added_p50_us",
            stats::quantile(&mut through, 0.5) - direct_p50,
        );
        out.set(
            "proxy.agent.added_p99_us",
            stats::quantile(&mut through, 0.99) - direct_p99,
        );
        let mut root_self: Vec<f64> = traced
            .self_times
            .iter()
            .filter_map(|(shares, _)| {
                shares
                    .iter()
                    .find(|(name, _)| *name == "driver.request")
                    .map(|(_, ns)| *ns as f64 / 1_000.0)
            })
            .collect();
        out.set(
            "proxy.agent.self_p50_us",
            stats::quantile(&mut root_self, 0.5),
        );
        out.set("proxy.agent.rule_hits", self.last_round_rule_hits as f64);
        out.set(
            "proxy.agent.events_per_op",
            self.last_round_events as f64 / self.last_round_ops.max(1) as f64,
        );

        // eventstore.store, as the agent calls it.
        out.set("eventstore.store.record_ns", traced.mean_ns("sink.record"));
        out.set("eventstore.store.events", self.last_round_events as f64);
        out.set(
            "eventstore.store.clear_ms",
            stats::quantile(&mut self.clear_ms.clone(), 0.5),
        );

        // telemetry: the agent records three histograms per call and is
        // scraped through its registry.
        let histogram = LatencyHistogram::new();
        out.set(
            "telemetry.histogram.record_ns",
            probe_ns_per_item(100_000, || {
                for i in 0..100_000u64 {
                    histogram.record(Duration::from_nanos(std::hint::black_box(50_000 + i)));
                }
            }),
        );
        let registry = Arc::clone(self.agent.telemetry());
        out.set(
            "telemetry.registry.render_us",
            probe_p50_us(50, || {
                std::hint::black_box(registry.render_prometheus());
            }),
        );
    }
}
