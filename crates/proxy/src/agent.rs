//! The Gremlin agent: a fault-injecting Layer-7 sidecar proxy.
//!
//! A Gremlin agent fronts the *outbound* API calls of one
//! microservice (paper §4.1, §6). The microservice is configured to
//! send each dependency's traffic to a local listener owned by the
//! agent (`localhost:<port>` → list of remote instances); the agent
//! forwards the call, applies any matching fault-injection rules, and
//! logs an observation for every request and response it touches.

use std::io::{BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use gremlin_http::codec::{read_request, write_response};
use gremlin_http::{
    header_names, ClientConfig, ConnTracker, HttpClient, Request, Response, StatusCode, ThreadPool,
};
use gremlin_store::{now_micros, AppliedFault, Event, EventSink, Name};
use gremlin_telemetry::{Counter, Gauge, LatencyHistogram, MetricsRegistry};

use crate::error::ProxyError;
use crate::rules::{AbortKind, FaultAction, MessageSide, Rule};
use crate::table::RuleTable;

/// One outbound dependency mapping: calls for `dst` enter the agent on
/// a local listener and are forwarded to one of `upstreams`
/// (round-robin across instances).
#[derive(Debug, Clone)]
pub struct Route {
    /// Logical name of the destination service.
    pub dst: String,
    /// Addresses of the destination's instances.
    pub upstreams: Vec<SocketAddr>,
    /// Address to listen on; port 0 lets the OS pick.
    pub listen: SocketAddr,
}

impl Route {
    /// Creates a route listening on an ephemeral loopback port.
    pub fn new(dst: impl Into<String>, upstreams: Vec<SocketAddr>) -> Route {
        Route {
            dst: dst.into(),
            upstreams,
            listen: "127.0.0.1:0".parse().expect("loopback addr"),
        }
    }
}

/// Configuration for a [`GremlinAgent`].
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Logical name of the service this agent fronts (the `src` of
    /// every call it proxies).
    pub service: String,
    /// Instance name used in observation records; defaults to
    /// `agent-{service}`.
    pub name: String,
    /// Outbound dependency routes.
    pub routes: Vec<Route>,
    /// Worker threads shared by all routes.
    pub workers: usize,
    /// HTTP client configuration for upstream calls.
    pub client: ClientConfig,
    /// Seed for the probability RNG; `None` uses OS entropy.
    pub seed: Option<u64>,
    /// Metrics registry to record into; `None` creates a private one
    /// (still reachable via [`GremlinAgent::telemetry`]).
    pub telemetry: Option<Arc<MetricsRegistry>>,
    /// Whether the agent mints span IDs and propagates the
    /// `X-Gremlin-Span`/`X-Gremlin-Parent` tracing headers (on by
    /// default; benchmarks can switch it off to measure the
    /// propagation overhead).
    pub tracing: bool,
}

impl AgentConfig {
    /// Starts a configuration for the agent fronting `service`.
    pub fn new(service: impl Into<String>) -> AgentConfig {
        let service = service.into();
        AgentConfig {
            name: format!("agent-{service}"),
            service,
            routes: Vec::new(),
            workers: 16,
            client: ClientConfig::default(),
            seed: None,
            telemetry: None,
            tracing: true,
        }
    }

    /// Adds a route to `dst` served by `upstreams`, listening on an
    /// ephemeral port.
    pub fn route(mut self, dst: impl Into<String>, upstreams: Vec<SocketAddr>) -> AgentConfig {
        self.routes.push(Route::new(dst, upstreams));
        self
    }

    /// Adds a route to `dst` whose upstream instances are fetched
    /// dynamically from the service-registry endpoint at
    /// `registry` (§6: mappings "fetched dynamically from a service
    /// registry").
    ///
    /// # Errors
    ///
    /// Returns an error when the registry is unreachable, answers
    /// with a failure, or knows no instances of `dst`.
    pub fn route_discovered(
        self,
        dst: impl Into<String>,
        registry: SocketAddr,
    ) -> Result<AgentConfig, ProxyError> {
        let dst = dst.into();
        let upstreams = crate::discovery::fetch_instances(registry, &dst)?;
        if upstreams.is_empty() {
            return Err(ProxyError::UnknownDestination(dst));
        }
        Ok(self.route(dst, upstreams))
    }

    /// Overrides the agent instance name.
    pub fn name(mut self, name: impl Into<String>) -> AgentConfig {
        self.name = name.into();
        self
    }

    /// Sets the worker-thread count.
    pub fn workers(mut self, workers: usize) -> AgentConfig {
        self.workers = workers;
        self
    }

    /// Sets the upstream HTTP client configuration.
    pub fn client(mut self, client: ClientConfig) -> AgentConfig {
        self.client = client;
        self
    }

    /// Seeds the probability RNG for reproducible fault sampling.
    pub fn seed(mut self, seed: u64) -> AgentConfig {
        self.seed = Some(seed);
        self
    }

    /// Records the agent's metrics into a shared registry instead of
    /// a private one.
    pub fn telemetry(mut self, registry: &Arc<MetricsRegistry>) -> AgentConfig {
        self.telemetry = Some(Arc::clone(registry));
        self
    }

    /// Enables or disables causal-tracing header propagation.
    pub fn tracing(mut self, enabled: bool) -> AgentConfig {
        self.tracing = enabled;
        self
    }
}

struct RouteState {
    dst: Name,
    local_addr: SocketAddr,
    upstreams: Vec<SocketAddr>,
    next_upstream: AtomicUsize,
    // Pre-registered telemetry handles: the hot path records through
    // these Arcs without ever touching the registry lock.
    requests: Arc<Counter>,
    upstream_latency: Arc<LatencyHistogram>,
    upstream_errors: Arc<Counter>,
}

impl RouteState {
    fn new(
        dst: Name,
        local_addr: SocketAddr,
        upstreams: Vec<SocketAddr>,
        service: &str,
        registry: &MetricsRegistry,
    ) -> RouteState {
        let labels = &[("service", service), ("dst", dst.as_str())];
        RouteState {
            requests: registry.counter(
                "gremlin_proxy_requests_total",
                "Requests proxied by the agent, by destination.",
                labels,
            ),
            upstream_latency: registry.histogram(
                "gremlin_proxy_upstream_latency_seconds",
                "Latency of successful upstream calls (excludes injected request-side delays).",
                labels,
            ),
            upstream_errors: registry.counter(
                "gremlin_proxy_upstream_errors_total",
                "Upstream calls that failed (timeout or connection error).",
                labels,
            ),
            dst,
            local_addr,
            upstreams,
            next_upstream: AtomicUsize::new(0),
        }
    }
}

/// Agent-wide telemetry handles shared by every route.
struct AgentMetrics {
    faults_abort: Arc<Counter>,
    faults_abort_reset: Arc<Counter>,
    faults_delay: Arc<Counter>,
    faults_modify: Arc<Counter>,
    open_connections: Arc<Gauge>,
    rule_match: Arc<LatencyHistogram>,
}

impl AgentMetrics {
    fn new(service: &str, registry: &MetricsRegistry) -> AgentMetrics {
        let fault = |kind: &str| {
            registry.counter(
                "gremlin_proxy_faults_total",
                "Faults injected by the agent, by fault type.",
                &[("service", service), ("type", kind)],
            )
        };
        AgentMetrics {
            faults_abort: fault("abort"),
            faults_abort_reset: fault("abort_reset"),
            faults_delay: fault("delay"),
            faults_modify: fault("modify"),
            open_connections: registry.gauge(
                "gremlin_proxy_open_connections",
                "Proxy connections currently being served.",
                &[("service", service)],
            ),
            rule_match: registry.histogram(
                "gremlin_proxy_rule_match_seconds",
                "Time spent matching one message against the rule table.",
                &[("service", service)],
            ),
        }
    }

    fn count_fault(&self, fault: &AppliedFault) {
        match fault {
            AppliedFault::Abort { .. } => self.faults_abort.inc(),
            AppliedFault::AbortReset => self.faults_abort_reset.inc(),
            AppliedFault::Delay { .. } => self.faults_delay.inc(),
            AppliedFault::Modify => self.faults_modify.inc(),
        }
    }
}

struct Inner {
    service: Name,
    name: Name,
    table: RuleTable,
    sink: Arc<dyn EventSink>,
    client: HttpClient,
    shutdown: AtomicBool,
    tracker: ConnTracker,
    registry: Arc<MetricsRegistry>,
    metrics: AgentMetrics,
    tracing: bool,
}

/// A running Gremlin agent.
///
/// Dropping the agent stops its listeners and joins all threads.
///
/// # Examples
///
/// ```no_run
/// use std::sync::Arc;
/// use gremlin_proxy::{AgentConfig, GremlinAgent};
/// use gremlin_store::EventStore;
///
/// # fn main() -> Result<(), gremlin_proxy::ProxyError> {
/// let store = EventStore::shared();
/// let upstream = "127.0.0.1:9001".parse().unwrap();
/// let agent = GremlinAgent::start(
///     AgentConfig::new("serviceA").route("serviceB", vec![upstream]),
///     store.clone(),
/// )?;
/// // serviceA should now send serviceB traffic here:
/// let proxy_addr = agent.route_addr("serviceB").unwrap();
/// # let _ = proxy_addr;
/// # Ok(())
/// # }
/// ```
pub struct GremlinAgent {
    inner: Arc<Inner>,
    routes: Vec<Arc<RouteState>>,
    accept_threads: Vec<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for GremlinAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GremlinAgent")
            .field("service", &self.inner.service)
            .field("name", &self.inner.name)
            .field("routes", &self.routes.len())
            .finish()
    }
}

impl GremlinAgent {
    /// Binds every route listener and starts proxying.
    ///
    /// # Errors
    ///
    /// Returns an error if any listener fails to bind.
    pub fn start(
        config: AgentConfig,
        sink: Arc<dyn EventSink>,
    ) -> Result<GremlinAgent, ProxyError> {
        let table = match config.seed {
            Some(seed) => RuleTable::with_seed(seed),
            None => RuleTable::new(),
        };
        let registry = config
            .telemetry
            .clone()
            .unwrap_or_else(MetricsRegistry::shared);
        let metrics = AgentMetrics::new(&config.service, &registry);
        table.bind_telemetry(&registry, &config.service);
        let inner = Arc::new(Inner {
            service: Name::from(config.service.as_str()),
            name: Name::from(config.name.as_str()),
            table,
            sink,
            client: HttpClient::with_config(config.client.clone()),
            shutdown: AtomicBool::new(false),
            tracker: ConnTracker::new(),
            registry,
            metrics,
            tracing: config.tracing,
        });

        let pool = Arc::new(ThreadPool::new(config.workers.max(1), &config.name));
        let mut routes = Vec::new();
        let mut accept_threads = Vec::new();
        for route in &config.routes {
            let listener = TcpListener::bind(route.listen)?;
            let local_addr = listener.local_addr()?;
            let state = Arc::new(RouteState::new(
                Name::from(route.dst.as_str()),
                local_addr,
                route.upstreams.clone(),
                &config.service,
                &inner.registry,
            ));
            routes.push(Arc::clone(&state));

            let inner_for_thread = Arc::clone(&inner);
            let pool_for_thread = Arc::clone(&pool);
            let thread_name = format!("{}-{}", config.name, route.dst);
            let handle = thread::Builder::new()
                .name(thread_name)
                .spawn(move || {
                    // Blocking accept: zero CPU while idle. Shutdown
                    // wakes the thread with a throwaway connection to
                    // `local_addr` (see `shutdown_impl`), after which
                    // the flag check below exits the loop.
                    loop {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                if inner_for_thread.shutdown.load(Ordering::SeqCst) {
                                    break;
                                }
                                let inner = Arc::clone(&inner_for_thread);
                                let state = Arc::clone(&state);
                                pool_for_thread.execute(move || {
                                    let token = inner.tracker.register(&stream);
                                    inner.metrics.open_connections.inc();
                                    let _ = serve_proxy_connection(stream, &state, &inner);
                                    inner.metrics.open_connections.dec();
                                    inner.tracker.deregister(token);
                                });
                            }
                            Err(_) => {
                                if inner_for_thread.shutdown.load(Ordering::SeqCst) {
                                    break;
                                }
                                // Transient accept failure (e.g. EMFILE):
                                // back off briefly rather than spin.
                                thread::sleep(Duration::from_millis(10));
                            }
                        }
                    }
                    inner_for_thread.tracker.shutdown_all();
                })
                .map_err(ProxyError::Io)?;
            accept_threads.push(handle);
        }

        Ok(GremlinAgent {
            inner,
            routes,
            accept_threads,
        })
    }

    /// Logical name of the service this agent fronts.
    pub fn service(&self) -> &str {
        &self.inner.service
    }

    /// Instance name reported in observations.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Local address to which the fronted service should send traffic
    /// destined for `dst`.
    pub fn route_addr(&self, dst: &str) -> Option<SocketAddr> {
        self.routes
            .iter()
            .find(|r| r.dst == dst)
            .map(|r| r.local_addr)
    }

    /// Every `(dst, local_addr)` mapping the agent serves.
    pub fn routes(&self) -> Vec<(String, SocketAddr)> {
        self.routes
            .iter()
            .map(|r| (r.dst.to_string(), r.local_addr))
            .collect()
    }

    /// Installs fault-injection rules (Table 2 interface).
    ///
    /// # Errors
    ///
    /// Returns a validation error and installs nothing if any rule is
    /// malformed.
    pub fn install_rules(&self, rules: Vec<Rule>) -> Result<(), ProxyError> {
        self.inner.table.install(rules)
    }

    /// Removes every installed rule.
    pub fn clear_rules(&self) {
        self.inner.table.clear();
    }

    /// Snapshot of the installed rules.
    pub fn rules(&self) -> Vec<Rule> {
        self.inner.table.rules()
    }

    /// Total messages checked against the rule table.
    pub fn rule_checks(&self) -> u64 {
        self.inner.table.checks()
    }

    /// Total messages that matched a rule.
    pub fn rule_hits(&self) -> u64 {
        self.inner.table.hits()
    }

    /// Per-rule hit counts, parallel to [`GremlinAgent::rules`].
    pub fn rule_hit_counts(&self) -> Vec<u64> {
        self.inner.table.rule_hit_counts()
    }

    /// The metrics registry this agent records into (the one passed
    /// via [`AgentConfig::telemetry`], or a private one).
    pub fn telemetry(&self) -> &Arc<MetricsRegistry> {
        &self.inner.registry
    }

    /// Stops listeners and joins worker threads. Equivalent to
    /// dropping the agent, provided as an explicit synchronization
    /// point.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        if !self.inner.shutdown.swap(true, Ordering::SeqCst) {
            // Each accept thread is parked in a blocking `accept()`;
            // a throwaway loopback connection wakes it so it can see
            // the flag and exit.
            for route in &self.routes {
                let _ = TcpStream::connect_timeout(&route.local_addr, Duration::from_millis(200));
            }
        }
        self.inner.tracker.shutdown_all();
        for handle in self.accept_threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for GremlinAgent {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn serve_proxy_connection(
    stream: TcpStream,
    route: &RouteState,
    inner: &Inner,
) -> Result<(), ProxyError> {
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_nodelay(true)?;
    // One reader and one writer for the connection's whole lifetime:
    // the per-response `try_clone` (a dup(2) syscall) and BufWriter
    // allocation used to dominate small-message proxy overhead.
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let request = match read_request(&mut reader) {
            Ok(request) => request,
            Err(_) => return Ok(()),
        };
        let close_requested = request.headers().connection_close();
        match process_message(request, route, inner) {
            Some(response) => {
                let close = close_requested || response.headers().connection_close();
                write_response(&mut writer, &response)?;
                if close {
                    return Ok(());
                }
            }
            None => {
                // TCP-level abort (Error = -1): terminate abruptly,
                // returning no application-level response.
                let _ = writer.get_ref().shutdown(Shutdown::Both);
                return Ok(());
            }
        }
    }
}

/// Proxies one request, applying fault-injection rules. Returns
/// `None` when the connection must be reset instead of answered.
fn process_message(request: Request, route: &RouteState, inner: &Inner) -> Option<Response> {
    let started = Instant::now();
    route.requests.inc();
    // Interned once: every later use (three events, two header echoes)
    // is an `Arc` refcount bump instead of a fresh String.
    let request_id = request.request_id().map(Name::from);
    // Causal tracing: the incoming X-Gremlin-Span (stamped by the
    // calling service from the span its own agent minted) becomes
    // this call's parent; a fresh span ID identifies the call itself.
    let (span_id, parent_id) = if inner.tracing {
        let parent = request.span_id().map(Name::from);
        (Some(crate::rng::mint_span_id()), parent)
    } else {
        (None, None)
    };
    let src = inner.service.as_str();
    let dst = route.dst.as_str();

    let match_started = Instant::now();
    let request_rule =
        inner
            .table
            .match_message(src, dst, MessageSide::Request, request_id.as_deref());
    inner.metrics.rule_match.record(match_started.elapsed());

    // --- Log the request observation -------------------------------
    let mut request_event = Event::request(
        inner.service.clone(),
        route.dst.clone(),
        request.method().as_str(),
        request.target(),
    )
    .with_agent(inner.name.clone());
    request_event.request_id = request_id.clone();
    request_event.span_id = span_id.clone();
    request_event.parent_id = parent_id.clone();
    request_event.timestamp_us = now_micros();
    if let Some(rule) = &request_rule {
        request_event.fault = Some(applied_fault(&rule.action));
    }
    inner.sink.record(request_event);

    // --- Apply the request-side action -----------------------------
    let mut request = request;
    let mut request_side_fault: Option<AppliedFault> = None;
    if let Some(rule) = &request_rule {
        match &rule.action {
            FaultAction::Abort { abort } => {
                return finish_abort(
                    *abort,
                    started,
                    &request_id,
                    &span_id,
                    &parent_id,
                    route,
                    inner,
                );
            }
            FaultAction::Delay { interval } => {
                thread::sleep(*interval);
                request_side_fault = Some(AppliedFault::Delay {
                    delay_us: interval.as_micros() as u64,
                });
            }
            FaultAction::Modify {
                search,
                replace_bytes,
            } => {
                let rewritten = replace_bytes_in(request.body(), search, replace_bytes);
                request.set_body(rewritten);
                request_side_fault = Some(AppliedFault::Modify);
            }
        }
    }
    if let Some(fault) = &request_side_fault {
        inner.metrics.count_fault(fault);
    }

    // --- Forward upstream -------------------------------------------
    let upstream = pick_upstream(route);
    let mut forwarded = prepare_forwarded(request);
    if let Some(span) = &span_id {
        // The upstream (and any service behind it) sees this call's
        // span as the current span; the caller's span rides along as
        // the parent so the next hop's agent can record the edge.
        forwarded.set_span_id(span.as_str());
        match &parent_id {
            Some(parent) => forwarded.set_parent_id(parent.as_str()),
            None => {
                forwarded.headers_mut().remove(header_names::PARENT_ID);
            }
        }
    }
    let send_started = Instant::now();
    let result = match upstream {
        Some(addr) => inner.client.send(addr, forwarded),
        None => Err(gremlin_http::HttpError::Io(std::io::Error::other(
            "route has no upstream instances",
        ))),
    };

    let mut response = match result {
        Ok(response) => {
            route.upstream_latency.record(send_started.elapsed());
            response
        }
        Err(err) => {
            route.upstream_errors.inc();
            // Genuine upstream failure: surface it the way service
            // proxies do — 504 on timeout, 502 otherwise.
            let status = if err.is_timeout() {
                StatusCode::GATEWAY_TIMEOUT
            } else {
                StatusCode::BAD_GATEWAY
            };
            let mut event = Event::response(
                inner.service.clone(),
                route.dst.clone(),
                status.as_u16(),
                started.elapsed(),
            )
            .with_agent(inner.name.clone());
            event.request_id = request_id.clone();
            event.span_id = span_id.clone();
            event.parent_id = parent_id.clone();
            if let Some(fault) = &request_side_fault {
                event.fault = Some(fault.clone());
            }
            inner.sink.record(event);
            let mut resp = Response::error(status);
            if let Some(id) = &request_id {
                resp.headers_mut()
                    .insert(header_names::REQUEST_ID, id.clone());
            }
            if let Some(span) = &span_id {
                resp.headers_mut()
                    .insert(header_names::SPAN_ID, span.clone());
            }
            return Some(resp);
        }
    };

    // --- Apply the response-side action ----------------------------
    let match_started = Instant::now();
    let response_rule =
        inner
            .table
            .match_message(src, dst, MessageSide::Response, request_id.as_deref());
    inner.metrics.rule_match.record(match_started.elapsed());
    let mut response_side_fault: Option<AppliedFault> = None;
    if let Some(rule) = &response_rule {
        match &rule.action {
            FaultAction::Abort { abort } => {
                return finish_abort(
                    *abort,
                    started,
                    &request_id,
                    &span_id,
                    &parent_id,
                    route,
                    inner,
                );
            }
            FaultAction::Delay { interval } => {
                thread::sleep(*interval);
                response_side_fault = Some(AppliedFault::Delay {
                    delay_us: interval.as_micros() as u64,
                });
            }
            FaultAction::Modify {
                search,
                replace_bytes,
            } => {
                let rewritten = replace_bytes_in(response.body(), search, replace_bytes);
                response.set_body(rewritten);
                response_side_fault = Some(AppliedFault::Modify);
            }
        }
    }
    if let Some(fault) = &response_side_fault {
        inner.metrics.count_fault(fault);
    }

    // --- Log the response observation -------------------------------
    let mut event = Event::response(
        inner.service.clone(),
        route.dst.clone(),
        response.status().as_u16(),
        started.elapsed(),
    )
    .with_agent(inner.name.clone());
    event.request_id = request_id.clone();
    event.span_id = span_id.clone();
    event.parent_id = parent_id.clone();
    event.fault = response_side_fault.or(request_side_fault);
    if let Some(fault) = &event.fault {
        response
            .headers_mut()
            .insert(header_names::GREMLIN_ACTION, fault.to_string());
    }
    if let Some(span) = &span_id {
        response
            .headers_mut()
            .insert(header_names::SPAN_ID, span.clone());
    }
    inner.sink.record(event);
    Some(response)
}

/// Synthesizes the caller-visible outcome of an Abort action and logs
/// the response observation. Returns `None` for TCP resets.
fn finish_abort(
    abort: AbortKind,
    started: Instant,
    request_id: &Option<Name>,
    span_id: &Option<Name>,
    parent_id: &Option<Name>,
    route: &RouteState,
    inner: &Inner,
) -> Option<Response> {
    let (status_code, fault) = match abort {
        AbortKind::Status(code) => (code, AppliedFault::Abort { status: code }),
        AbortKind::Reset => (0, AppliedFault::AbortReset),
    };
    inner.metrics.count_fault(&fault);
    let mut event = Event::response(
        inner.service.clone(),
        route.dst.clone(),
        status_code,
        started.elapsed(),
    )
    .with_agent(inner.name.clone())
    .with_fault(fault.clone());
    event.request_id = request_id.clone();
    event.span_id = span_id.clone();
    event.parent_id = parent_id.clone();
    inner.sink.record(event);

    match abort {
        AbortKind::Status(code) => {
            let status = StatusCode::new(code).unwrap_or(StatusCode::SERVICE_UNAVAILABLE);
            let mut response = Response::error(status);
            response
                .headers_mut()
                .insert(header_names::GREMLIN_ACTION, fault.to_string());
            if let Some(id) = request_id {
                response
                    .headers_mut()
                    .insert(header_names::REQUEST_ID, id.clone());
            }
            if let Some(span) = span_id {
                response
                    .headers_mut()
                    .insert(header_names::SPAN_ID, span.clone());
            }
            Some(response)
        }
        AbortKind::Reset => None,
    }
}

fn pick_upstream(route: &RouteState) -> Option<SocketAddr> {
    if route.upstreams.is_empty() {
        return None;
    }
    let index = route.next_upstream.fetch_add(1, Ordering::Relaxed) % route.upstreams.len();
    Some(route.upstreams[index])
}

/// Turns the received request into the one to forward, stripping
/// hop-by-hop headers so the upstream client re-derives them.
fn prepare_forwarded(mut request: Request) -> Request {
    request.headers_mut().remove(header_names::HOST);
    request.headers_mut().remove(header_names::CONNECTION);
    request
}

/// Replaces every occurrence of `search` in `body` with `replace`.
fn replace_bytes_in(body: &[u8], search: &str, replace: &str) -> Vec<u8> {
    let search = search.as_bytes();
    if search.is_empty() {
        return body.to_vec();
    }
    let mut result = Vec::with_capacity(body.len());
    let mut i = 0;
    while i < body.len() {
        if body[i..].starts_with(search) {
            result.extend_from_slice(replace.as_bytes());
            i += search.len();
        } else {
            result.push(body[i]);
            i += 1;
        }
    }
    result
}

fn applied_fault(action: &FaultAction) -> AppliedFault {
    match action {
        FaultAction::Abort {
            abort: AbortKind::Status(code),
        } => AppliedFault::Abort { status: *code },
        FaultAction::Abort {
            abort: AbortKind::Reset,
        } => AppliedFault::AbortReset,
        FaultAction::Delay { interval } => AppliedFault::Delay {
            delay_us: interval.as_micros() as u64,
        },
        FaultAction::Modify { .. } => AppliedFault::Modify,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replace_bytes_basic() {
        assert_eq!(
            replace_bytes_in(b"key=value", "key", "badkey"),
            b"badkey=value"
        );
        assert_eq!(replace_bytes_in(b"aaa", "a", "b"), b"bbb");
        assert_eq!(replace_bytes_in(b"none", "x", "y"), b"none");
        assert_eq!(replace_bytes_in(b"", "x", "y"), b"");
        assert_eq!(replace_bytes_in(b"abc", "", "y"), b"abc");
        assert_eq!(replace_bytes_in(b"abab", "ab", ""), b"");
    }

    #[test]
    fn applied_fault_mapping() {
        assert_eq!(
            applied_fault(&FaultAction::Abort {
                abort: AbortKind::Status(503)
            }),
            AppliedFault::Abort { status: 503 }
        );
        assert_eq!(
            applied_fault(&FaultAction::Abort {
                abort: AbortKind::Reset
            }),
            AppliedFault::AbortReset
        );
        assert_eq!(
            applied_fault(&FaultAction::Delay {
                interval: Duration::from_millis(3)
            }),
            AppliedFault::Delay { delay_us: 3000 }
        );
        assert_eq!(
            applied_fault(&FaultAction::Modify {
                search: "a".into(),
                replace_bytes: "b".into()
            }),
            AppliedFault::Modify
        );
    }

    #[test]
    fn prepare_forwarded_strips_hop_headers() {
        let req = Request::builder(gremlin_http::Method::Get, "/x")
            .header("Host", "proxy")
            .header("Connection", "close")
            .header("X-Keep", "1")
            .build();
        let fwd = prepare_forwarded(req);
        assert!(!fwd.headers().contains("host"));
        assert!(!fwd.headers().contains("connection"));
        assert_eq!(fwd.headers().get("x-keep"), Some("1"));
    }

    fn test_route(upstreams: Vec<SocketAddr>) -> RouteState {
        RouteState::new(
            "b".into(),
            "127.0.0.1:1".parse().unwrap(),
            upstreams,
            "a",
            &MetricsRegistry::new(),
        )
    }

    #[test]
    fn route_round_robin() {
        let route = test_route(vec![
            "127.0.0.1:10".parse().unwrap(),
            "127.0.0.1:11".parse().unwrap(),
        ]);
        let a = pick_upstream(&route).unwrap();
        let b = pick_upstream(&route).unwrap();
        let c = pick_upstream(&route).unwrap();
        assert_ne!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn empty_route_has_no_upstream() {
        let route = test_route(vec![]);
        assert!(pick_upstream(&route).is_none());
    }
}
