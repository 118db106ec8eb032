//! Campaign execution: one wave loop over one or more operators.
//!
//! An **operator** runs wave slices on one host's slice of the agent
//! fleet, for the same logical application graph. The
//! [`CampaignDispatcher`] is the only campaign executor: it plans
//! **shards** with [`plan_shards`] (footprint-disjoint waves, widened
//! to the whole fleet's capacity, split round-robin across operators),
//! dispatches each wave's slices concurrently, appends the wave's
//! ledger entries, flushes the operators' faults at the wave boundary,
//! and merges the outcomes into one [`CampaignReport`]. How it reaches
//! an operator is an [`OperatorTransport`]:
//!
//! * [`LocalOperator`] — in process, over a [`TestContext`]. A
//!   single-host campaign ([`CampaignDispatcher::single_host`],
//!   `gremlin campaign --agents`) is a dispatch to exactly one of
//!   these; with one operator [`plan_shards`] degenerates to
//!   [`plan_waves`].
//! * [`HttpOperator`] — across the network (`gremlin campaign
//!   --operators`), to an [`OperatorServer`] (`gremlin operator
//!   serve`) fronting a [`LocalOperator`] on its own host.
//!
//! # Wave boundaries
//!
//! A wave's ledger entries are appended as soon as its verdicts are
//! final, before anything fallible. Then the coordinator calls
//! [`OperatorTransport::clear`] on every operator that ran a slice —
//! the control channel has no per-rule removal, so the whole fleet
//! slice is flushed. An operator whose flush fails may sit on leaked
//! faults: it receives no further slices, and its share re-shards to
//! the survivors. When no operator is left the campaign returns that
//! flush's own error — after the last wave too.
//!
//! # What the network hop adds
//!
//! Every wave POST carries an **idempotency token** stable across
//! retries, and an [`OperatorServer`] replays the recorded response of
//! a completed token instead of re-running the wave. The coordinator
//! retries a failed slice with bounded exponential backoff and, when
//! the budget runs out, declares the operator dead and re-shards its
//! recipes over the survivors. Those re-execute (at-least-once against
//! the *mesh*, which is safe: rule install and clear are idempotent and
//! every attempt is preceded by a fault flush), but the coordinator
//! accepts exactly one outcome per recipe and appends each wave's
//! ledger entries exactly once.

use std::collections::{BTreeSet, VecDeque};
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use gremlin_http::{
    ClientConfig, ConnInfo, HttpClient, HttpServer, Method, Request, Response, StatusCode,
};
use gremlin_store::{now_micros, EdgeBaseline};
use gremlin_telemetry::{MetricsRegistry, TimeSeriesStore};

use crate::campaign::{
    assemble_report, execute_wave, par_map, persist_merged_baselines, plan_waves, steer_priority,
    CampaignRecipe, CampaignReport, RecipeOutcome, DEFAULT_MAX_IN_FLIGHT,
};
use crate::error::CoreError;
use crate::graph::AppGraph;
use crate::ledger::{append_campaign_entries, CellKey, CoverageLedger, LedgerEntry};
use crate::recipe::TestContext;

/// Version of the coordinator–operator wire protocol. A coordinator
/// and an operator must agree exactly; both sides reject mismatches
/// up front rather than mis-merging reports later.
pub const DISPATCH_SCHEMA_VERSION: u32 = 1;

/// Completed-wave responses an operator keeps for idempotent retries.
const WAVE_CACHE_CAPACITY: usize = 256;

/// Default number of re-dispatch attempts after a failed slice
/// (beyond the initial attempt) before the operator is declared dead.
pub const DEFAULT_DISPATCH_RETRIES: usize = 2;

/// Default initial backoff before the first retry; doubles per
/// attempt, capped at [`MAX_DISPATCH_BACKOFF`].
pub const DEFAULT_DISPATCH_BACKOFF: Duration = Duration::from_millis(100);

/// Ceiling for the exponential retry backoff.
pub const MAX_DISPATCH_BACKOFF: Duration = Duration::from_secs(5);

/// One wave slice as POSTed to `POST /operator/wave`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WaveRequest {
    /// Protocol version ([`DISPATCH_SCHEMA_VERSION`]); the operator
    /// rejects anything else.
    pub schema_version: u32,
    /// Idempotency token, stable across retries of the same slice:
    /// an operator that already completed it replays the cached
    /// response instead of re-running the recipes.
    pub token: String,
    /// The footprint-disjoint recipes to run concurrently.
    pub recipes: Vec<CampaignRecipe>,
    /// Baselines seeding every monitored recipe's anomaly scorer
    /// (the coordinator's [`CampaignDispatcher::seed`] snapshot).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub seed_baselines: Vec<EdgeBaseline>,
}

/// An operator's answer to a wave: one outcome per posted recipe, in
/// request order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WaveResponse {
    /// The operator's name, for report attribution and logs.
    pub operator: String,
    /// Per-recipe outcomes, aligned with [`WaveRequest::recipes`].
    pub outcomes: Vec<RecipeOutcome>,
    /// `true` when this response was replayed from the idempotency
    /// cache instead of freshly executed.
    pub cached: bool,
}

/// Operator identity and counters returned by `GET /operator/status`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OperatorStatus {
    /// Protocol version the operator speaks.
    pub schema_version: u32,
    /// Operator name.
    pub name: String,
    /// Agents in this operator's fleet slice.
    pub agents: usize,
    /// Waves executed since start.
    pub waves_executed: u64,
    /// Wave retries answered from the idempotency cache.
    pub waves_cached: u64,
}

/// What only a network hop needs, in front of a [`LocalOperator`].
struct OperatorState {
    local: LocalOperator,
    /// Completed waves by token, oldest first, for idempotent retries;
    /// bounded by [`WAVE_CACHE_CAPACITY`].
    completed: Mutex<VecDeque<(String, WaveResponse)>>,
    /// Serializes wave execution: concurrent POSTs (a retry racing
    /// the original) run one at a time, and the loser then hits the
    /// idempotency cache.
    wave_lock: Mutex<()>,
    waves_executed: AtomicU64,
    waves_cached: AtomicU64,
}

impl OperatorState {
    fn status(&self) -> OperatorStatus {
        OperatorStatus {
            schema_version: DISPATCH_SCHEMA_VERSION,
            name: self.local.name.clone(),
            agents: self.local.ctx.orchestrator().agent_count(),
            waves_executed: self.waves_executed.load(Ordering::Relaxed),
            waves_cached: self.waves_cached.load(Ordering::Relaxed),
        }
    }

    fn cached(&self, token: &str) -> Option<WaveResponse> {
        let completed = self.completed.lock();
        let (_, done) = completed.iter().find(|(done, _)| done == token)?;
        self.waves_cached.fetch_add(1, Ordering::Relaxed);
        Some(WaveResponse {
            cached: true,
            ..done.clone()
        })
    }

    fn run_wave(&self, wave: &WaveRequest) -> WaveResponse {
        if let Some(replay) = self.cached(&wave.token) {
            return replay;
        }
        let _guard = self.wave_lock.lock();
        // A retry may have raced the original attempt to the lock;
        // whoever lost replays instead of re-executing.
        if let Some(replay) = self.cached(&wave.token) {
            return replay;
        }
        let LocalOperator { name, ctx, .. } = &self.local;
        let names: Vec<&str> = wave.recipes.iter().map(|r| r.name.as_str()).collect();
        ctx.annotate(
            "wave-begin",
            &format!("operator {name}: {}", names.join(", ")),
        );
        let response = self.local.execute(wave);
        // Defensive wave-boundary flush: a re-sharded or retried wave
        // must start against a fault-free fleet even if the
        // coordinator's `POST /operator/clear` never arrives.
        // Best-effort — the coordinator's own clear reports failure.
        let _ = ctx.clear_faults();
        ctx.annotate("wave-end", &format!("operator {name}"));
        self.waves_executed.fetch_add(1, Ordering::Relaxed);
        let mut completed = self.completed.lock();
        if completed.len() == WAVE_CACHE_CAPACITY {
            completed.pop_front();
        }
        completed.push_back((wave.token.clone(), response.clone()));
        response
    }
}

/// The worker half of a distributed campaign: an httpwire control
/// endpoint driving one host's agent-fleet slice.
///
/// Routes:
///
/// | Method | Path               | Effect                               |
/// |--------|--------------------|--------------------------------------|
/// | GET    | `/operator/status` | [`OperatorStatus`] JSON              |
/// | POST   | `/operator/wave`   | run a [`WaveRequest`], reply with a  |
/// |        |                    | [`WaveResponse`] (idempotent per     |
/// |        |                    | token)                               |
/// | POST   | `/operator/clear`  | flush all staged faults              |
///
/// Waves execute serially (one at a time per operator); a `POST` with
/// an already-completed token replays the recorded response without
/// touching the fleet.
pub struct OperatorServer {
    server: HttpServer,
    state: Arc<OperatorState>,
}

impl std::fmt::Debug for OperatorServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OperatorServer")
            .field("name", &self.state.local.name)
            .field("addr", &self.server.local_addr())
            .finish()
    }
}

impl OperatorServer {
    /// Binds the operator control endpoint on `addr` and starts
    /// serving waves over `ctx`. Monitored recipes record flight
    /// artifacts under `flight_root`, when one is given.
    ///
    /// # Errors
    ///
    /// [`CoreError::DispatchFailed`] when the address cannot be bound.
    pub fn start(
        name: impl Into<String>,
        ctx: TestContext,
        addr: impl ToSocketAddrs,
        flight_root: Option<PathBuf>,
    ) -> Result<OperatorServer, CoreError> {
        let state = Arc::new(OperatorState {
            local: LocalOperator::new(name, ctx, flight_root),
            completed: Mutex::default(),
            wave_lock: Mutex::new(()),
            waves_executed: AtomicU64::new(0),
            waves_cached: AtomicU64::new(0),
        });
        let handler_state = Arc::clone(&state);
        let server = HttpServer::bind(addr, move |request: Request, _conn: &ConnInfo| {
            handle_operator(&handler_state, &request)
        })
        .map_err(|err| CoreError::DispatchFailed(format!("bind operator endpoint: {err}")))?;
        Ok(OperatorServer { server, state })
    }

    /// The address the operator listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The operator's current identity and counters.
    pub fn status(&self) -> OperatorStatus {
        self.state.status()
    }

    /// Stops accepting waves and tears down the endpoint. In-flight
    /// connections are shut down, so a coordinator mid-POST observes
    /// a transport error — exactly what its retry path expects from a
    /// dying operator.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

fn handle_operator(state: &Arc<OperatorState>, request: &Request) -> Response {
    match (request.method().clone(), request.path()) {
        (Method::Get, "/operator/status") => json_response(StatusCode::OK, &state.status()),
        (Method::Post, "/operator/wave") => {
            let wave: WaveRequest = match serde_json::from_slice(request.body()) {
                Ok(wave) => wave,
                Err(err) => {
                    return Response::builder(StatusCode::BAD_REQUEST)
                        .body(format!("cannot decode wave: {err}"))
                        .build()
                }
            };
            if wave.schema_version != DISPATCH_SCHEMA_VERSION {
                return Response::builder(StatusCode::BAD_REQUEST)
                    .body(format!(
                        "dispatch schema {} unsupported (operator speaks {DISPATCH_SCHEMA_VERSION})",
                        wave.schema_version
                    ))
                    .build();
            }
            json_response(StatusCode::OK, &state.run_wave(&wave))
        }
        (Method::Post, "/operator/clear") => match state.local.clear() {
            Ok(()) => Response::builder(StatusCode::NO_CONTENT).build(),
            Err(err) => Response::builder(StatusCode::INTERNAL_SERVER_ERROR)
                .body(err.to_string())
                .build(),
        },
        _ => Response::error(StatusCode::NOT_FOUND),
    }
}

fn json_response<T: Serialize>(status: StatusCode, value: &T) -> Response {
    match serde_json::to_string(value) {
        Ok(body) => Response::builder(status)
            .header("Content-Type", "application/json")
            .body(body)
            .build(),
        Err(err) => Response::builder(StatusCode::INTERNAL_SERVER_ERROR)
            .body(err.to_string())
            .build(),
    }
}

/// How a coordinator reaches one operator: [`LocalOperator`] in
/// process, [`HttpOperator`] across the network; tests wrap either to
/// script failures.
pub trait OperatorTransport: Send + Sync {
    /// The operator's name, for logs and error messages.
    fn name(&self) -> String;

    /// Runs (or replays) one wave slice, blocking until every recipe
    /// in it finished.
    ///
    /// # Errors
    ///
    /// Transport failures and malformed responses; the dispatcher
    /// treats any error as "this attempt failed" and retries or
    /// re-shards.
    fn run_wave(&self, wave: &WaveRequest) -> Result<WaveResponse, CoreError>;

    /// Flushes all staged faults on the operator's fleet slice.
    ///
    /// # Errors
    ///
    /// Transport failures.
    fn clear(&self) -> Result<(), CoreError>;
}

/// The in-process operator: runs wave slices directly over a
/// [`TestContext`]. Monitored recipes record flight artifacts under
/// `flight_root`, when one is given. It adds no timeline annotations
/// of its own and leaves the wave-boundary flush to its caller — the
/// coordinator in a single-host campaign, the [`OperatorServer`] in
/// front of it on an operator host.
#[derive(Debug)]
pub struct LocalOperator {
    name: String,
    ctx: TestContext,
    flight_root: Option<PathBuf>,
}

impl LocalOperator {
    /// Creates an operator named `name` over `ctx`.
    pub fn new(
        name: impl Into<String>,
        ctx: TestContext,
        flight_root: Option<PathBuf>,
    ) -> LocalOperator {
        LocalOperator {
            name: name.into(),
            ctx,
            flight_root,
        }
    }

    fn execute(&self, wave: &WaveRequest) -> WaveResponse {
        WaveResponse {
            operator: self.name.clone(),
            outcomes: execute_wave(
                &self.ctx,
                &wave.recipes,
                &wave.seed_baselines,
                self.flight_root.as_deref(),
            ),
            cached: false,
        }
    }
}

impl OperatorTransport for LocalOperator {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn run_wave(&self, wave: &WaveRequest) -> Result<WaveResponse, CoreError> {
        Ok(self.execute(wave))
    }

    fn clear(&self) -> Result<(), CoreError> {
        self.ctx.clear_faults()
    }
}

/// [`OperatorTransport`] over the wire: a client for one
/// [`OperatorServer`].
#[derive(Debug)]
pub struct HttpOperator {
    name: String,
    addr: SocketAddr,
    client: HttpClient,
}

impl HttpOperator {
    /// Connects to the operator at `addr`, fetching its identity from
    /// `GET /operator/status` and checking protocol compatibility.
    ///
    /// The client's read timeout is sized for wave execution (an
    /// operator answers a wave POST only once every recipe in the
    /// slice finished its hold).
    ///
    /// # Errors
    ///
    /// [`CoreError::DispatchFailed`] when the operator is
    /// unreachable, unhealthy, or speaks a different
    /// [`DISPATCH_SCHEMA_VERSION`].
    pub fn connect(addr: SocketAddr) -> Result<HttpOperator, CoreError> {
        let client = HttpClient::with_config(ClientConfig {
            read_timeout: Some(Duration::from_secs(600)),
            write_timeout: Some(Duration::from_secs(60)),
            ..ClientConfig::default()
        });
        // Named by address until the operator says who it is.
        let mut operator = HttpOperator {
            name: addr.to_string(),
            addr,
            client,
        };
        let response = operator.send(Request::get("/operator/status"), "status")?;
        let status: OperatorStatus = serde_json::from_slice(response.body()).map_err(|err| {
            CoreError::DispatchFailed(format!("operator {addr} sent malformed status: {err}"))
        })?;
        if status.schema_version != DISPATCH_SCHEMA_VERSION {
            return Err(CoreError::DispatchFailed(format!(
                "operator {addr} speaks dispatch schema {}, coordinator speaks {}",
                status.schema_version, DISPATCH_SCHEMA_VERSION
            )));
        }
        operator.name = status.name;
        Ok(operator)
    }

    /// The operator endpoint's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sends `request`; a transport failure or a non-2xx answer to
    /// this `what` is a failed attempt.
    fn send(&self, request: Request, what: &str) -> Result<Response, CoreError> {
        let response = self.client.send(self.addr, request).map_err(|err| {
            CoreError::DispatchFailed(format!("operator {} ({}): {err}", self.name, self.addr))
        })?;
        if response.status().is_success() {
            Ok(response)
        } else {
            Err(CoreError::DispatchFailed(format!(
                "operator {} refused {what}: {} {}",
                self.name,
                response.status(),
                response.body_str()
            )))
        }
    }
}

impl OperatorTransport for HttpOperator {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn run_wave(&self, wave: &WaveRequest) -> Result<WaveResponse, CoreError> {
        let body = serde_json::to_string(wave)
            .map_err(|err| CoreError::DispatchFailed(format!("encode wave: {err}")))?;
        let request = Request::builder(Method::Post, "/operator/wave")
            .header("Content-Type", "application/json")
            .body(body)
            .build();
        let response = self.send(request, "wave")?;
        serde_json::from_slice(response.body()).map_err(|err| {
            CoreError::DispatchFailed(format!(
                "operator {} sent malformed wave response: {err}",
                self.name
            ))
        })
    }

    fn clear(&self) -> Result<(), CoreError> {
        self.send(Request::post("/operator/clear", ""), "clear")
            .map(drop)
    }
}

/// Plans shard assignments: packs `footprints` into footprint-disjoint
/// waves sized for the *whole* fleet (`operators * max_in_flight`),
/// then splits each wave round-robin into per-operator slices.
///
/// Returns, per wave, one slice of recipe indices per operator
/// (positionally: `shards[w][op]`; possibly empty). Every index
/// appears in exactly one slice of exactly one wave; two recipes in
/// the same wave have disjoint footprints even across operators
/// (inherited from [`plan_waves`]), so concurrent slices never fault
/// or observe each other's edges; and no slice exceeds
/// `max_in_flight`.
pub fn plan_shards(
    footprints: &[BTreeSet<(String, String)>],
    operators: usize,
    max_in_flight: usize,
) -> Vec<Vec<Vec<usize>>> {
    let operators = operators.max(1);
    let max_in_flight = max_in_flight.max(1);
    plan_waves(footprints, max_in_flight * operators)
        .into_iter()
        .map(|wave| reassign(&wave, operators, max_in_flight).0)
        .collect()
}

/// Re-shards pooled recipe indices (from dead operators) round-robin
/// across `survivors` slots, each slice capped at `max_in_flight`.
/// Returns the per-slot slices and whatever exceeded this round's
/// capacity (dispatched in a later round).
pub fn reassign(
    pool: &[usize],
    survivors: usize,
    max_in_flight: usize,
) -> (Vec<Vec<usize>>, Vec<usize>) {
    let survivors = survivors.max(1);
    let max_in_flight = max_in_flight.max(1);
    let capacity = survivors * max_in_flight;
    let (taken, leftover) = pool.split_at(pool.len().min(capacity));
    let mut slices: Vec<Vec<usize>> = vec![Vec::new(); survivors];
    for (position, &index) in taken.iter().enumerate() {
        slices[position % survivors].push(index);
    }
    (slices, leftover.to_vec())
}

/// The campaign executor: shards footprint-disjoint waves across its
/// [`OperatorTransport`]s, survives operator deaths, and merges the
/// partial results into one [`CampaignReport`] whose shape does not
/// depend on how many operators ran it.
///
/// # Examples
///
/// ```no_run
/// use gremlin_core::{
///     AppGraph, CampaignDispatcher, CampaignRecipe, HttpOperator, OperatorTransport, Scenario,
///     TestContext,
/// };
/// use gremlin_store::EventStore;
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let agents = Vec::new();
/// let graph = AppGraph::from_edges(vec![("web", "db"), ("web", "cache")]);
/// let recipes = vec![
///     CampaignRecipe::new("db-crash").scenario(Scenario::crash("db")),
///     CampaignRecipe::new("cache-crash").scenario(Scenario::crash("cache")),
/// ];
/// // One host: a single in-process operator over the local agents.
/// let ctx = TestContext::new(graph.clone(), agents, EventStore::shared());
/// let report = CampaignDispatcher::single_host(ctx, None).run(recipes.clone())?;
/// println!("{report}");
/// // The same campaign sharded over two `gremlin operator serve` hosts.
/// let operators: Vec<Arc<dyn OperatorTransport>> = vec![
///     Arc::new(HttpOperator::connect("10.0.0.1:7080".parse()?)?),
///     Arc::new(HttpOperator::connect("10.0.0.2:7080".parse()?)?),
/// ];
/// let merged = CampaignDispatcher::new(graph, operators).run(recipes)?;
/// # Ok(())
/// # }
/// ```
pub struct CampaignDispatcher {
    graph: AppGraph,
    operators: Vec<Arc<dyn OperatorTransport>>,
    max_in_flight: usize,
    flight_root: Option<PathBuf>,
    seed_baselines: Vec<EdgeBaseline>,
    steer_order: bool,
    retries: usize,
    backoff: Duration,
    timeline: Option<Arc<TimeSeriesStore>>,
    telemetry: Option<Arc<MetricsRegistry>>,
}

impl std::fmt::Debug for CampaignDispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignDispatcher")
            .field(
                "operators",
                &self
                    .operators
                    .iter()
                    .map(|op| op.name())
                    .collect::<Vec<_>>(),
            )
            .field("max_in_flight", &self.max_in_flight)
            .field("retries", &self.retries)
            .finish_non_exhaustive()
    }
}

impl CampaignDispatcher {
    /// Creates a dispatcher over `graph` and the given operators, with
    /// the default per-operator wave width, retry budget and backoff.
    pub fn new(graph: AppGraph, operators: Vec<Arc<dyn OperatorTransport>>) -> CampaignDispatcher {
        CampaignDispatcher {
            graph,
            operators,
            max_in_flight: DEFAULT_MAX_IN_FLIGHT,
            flight_root: None,
            seed_baselines: Vec::new(),
            steer_order: false,
            retries: DEFAULT_DISPATCH_RETRIES,
            backoff: DEFAULT_DISPATCH_BACKOFF,
            timeline: None,
            telemetry: None,
        }
    }

    /// Creates the single-host dispatcher: one in-process
    /// [`LocalOperator`] over `ctx`, with coordinator and operator
    /// sharing what one process shares — `ctx`'s graph, its timeline
    /// (wave annotations land between the recipes' own), its metrics
    /// registry (the ledger scan's `gremlin_ledger_*` counters) and
    /// `flight_root` (run directories, `campaigns.jsonl` and
    /// `baselines.json` side by side).
    pub fn single_host(ctx: TestContext, flight_root: Option<PathBuf>) -> CampaignDispatcher {
        let mut dispatcher = CampaignDispatcher::new(ctx.graph().clone(), Vec::new());
        dispatcher.timeline = ctx.timeline().cloned();
        dispatcher.telemetry = Some(Arc::clone(ctx.telemetry()));
        dispatcher.flight_root = flight_root.clone();
        dispatcher.operators = vec![Arc::new(LocalOperator::new("local", ctx, flight_root))];
        dispatcher
    }

    /// Builder-style: caps concurrently running recipes **per
    /// operator** (minimum 1; 1 on a single host reproduces strict
    /// serial execution). The planner packs waves up to
    /// `operators * max_in_flight` wide.
    pub fn max_in_flight(mut self, max_in_flight: usize) -> CampaignDispatcher {
        self.max_in_flight = max_in_flight.max(1);
        self
    }

    /// Builder-style: the coordinator-side flight root — the ledger
    /// (`campaigns.jsonl`) is appended here wave by wave, prior
    /// coverage is scanned from here, and the merged `baselines.json`
    /// is persisted here for the next campaign to
    /// [`seed`](CampaignDispatcher::seed) from.
    pub fn flight_root(mut self, root: impl Into<PathBuf>) -> CampaignDispatcher {
        self.flight_root = Some(root.into());
        self
    }

    /// Builder-style: seeds every monitored recipe's anomaly scorer
    /// with baselines from a prior run (typically
    /// [`load_baselines`](crate::flight::load_baselines) of the last
    /// campaign's flight root), shipped with every wave — seeded edges
    /// skip their warmup windows. A recipe whose spec carries its own
    /// `seed_baselines` keeps them.
    pub fn seed(mut self, baselines: Vec<EdgeBaseline>) -> CampaignDispatcher {
        self.seed_baselines = baselines;
        self
    }

    /// Builder-style: reorders the planned waves by coverage-ledger
    /// priority before executing. Waves containing a recipe that
    /// touches an **untested** cell run first, waves touching a
    /// **flaky** cell (ledger flakiness ≥
    /// [`STEER_FLAKY_THRESHOLD`](crate::campaign::STEER_FLAKY_THRESHOLD))
    /// next, all-stable waves last; ties keep the planner's order.
    /// Wave *membership* is untouched — only execution order moves —
    /// so footprint disjointness still holds. Without a readable
    /// ledger under the flight root every cell counts as untested and
    /// the order is unchanged.
    pub fn steer_order(mut self, steer: bool) -> CampaignDispatcher {
        self.steer_order = steer;
        self
    }

    /// Builder-style: re-dispatch attempts per slice after the first
    /// failure, before the operator is declared dead and its recipes
    /// re-shard to survivors.
    pub fn retries(mut self, retries: usize) -> CampaignDispatcher {
        self.retries = retries;
        self
    }

    /// Builder-style: initial retry backoff (doubles per attempt,
    /// capped at [`MAX_DISPATCH_BACKOFF`]).
    pub fn backoff(mut self, backoff: Duration) -> CampaignDispatcher {
        self.backoff = backoff;
        self
    }

    /// Builder-style: attaches a coordinator-side timeline; wave
    /// begin/end, re-shard and operator-death events are annotated
    /// onto it.
    pub fn timeline(mut self, timeline: Arc<TimeSeriesStore>) -> CampaignDispatcher {
        self.timeline = Some(timeline);
        self
    }

    fn annotate(&self, phase: &str, detail: &str) {
        if let Some(timeline) = &self.timeline {
            timeline.annotate(now_micros(), phase, detail);
        }
    }

    /// Executes the recipes across the operators: plans shards, drives
    /// each wave's slices concurrently, retries and re-shards around
    /// operator failures, appends each completed wave to the ledger,
    /// flushes the operators at every wave boundary, and merges
    /// everything into one [`CampaignReport`].
    ///
    /// # Errors
    ///
    /// Footprint computation failures (scenario translation) before
    /// anything runs; [`CoreError::DispatchFailed`] when no operator
    /// is configured or every operator died with recipes still
    /// pending; the wave-boundary flush's own error when it fails on
    /// the last live operator. Failures *inside* a recipe (inject
    /// errors, violated assertions) fail that recipe's report, not the
    /// campaign.
    pub fn run(&self, recipes: Vec<CampaignRecipe>) -> Result<CampaignReport, CoreError> {
        if self.operators.is_empty() {
            return Err(CoreError::DispatchFailed(
                "no operators configured".to_string(),
            ));
        }
        let footprints = recipes
            .iter()
            .map(|recipe| recipe.footprint(&self.graph))
            .collect::<Result<Vec<_>, CoreError>>()?;
        let mut shards = plan_shards(&footprints, self.operators.len(), self.max_in_flight);

        // Coverage delta: what the ledger under the flight root had
        // already covered before this campaign ran. Best-effort — an
        // unreadable root just means every cell this campaign touches
        // counts as newly covered.
        let ledger: Option<CoverageLedger> = self.flight_root.as_ref().and_then(|root| {
            match &self.telemetry {
                Some(registry) => CoverageLedger::scan_with_telemetry(root, registry),
                None => CoverageLedger::scan(root),
            }
            .ok()
        });
        let prior_covered: BTreeSet<CellKey> = ledger
            .as_ref()
            .map(CoverageLedger::covered_keys)
            .unwrap_or_default();
        if self.steer_order {
            let priorities: Vec<u8> = recipes
                .iter()
                .map(|recipe| steer_priority(recipe, ledger.as_ref(), &prior_covered))
                .collect();
            shards.sort_by_key(|wave| {
                wave.iter()
                    .flatten()
                    .map(|&index| priorities[index])
                    .min()
                    .unwrap_or(u8::MAX)
            });
        }
        let wave_names: Vec<Vec<String>> = shards
            .iter()
            .map(|wave| {
                wave.iter()
                    .flatten()
                    .map(|&index| recipes[index].name.clone())
                    .collect()
            })
            .collect();

        // Unique per campaign, so tokens never collide with an earlier
        // campaign's cached waves on a long-lived operator.
        let campaign_id = format!("{}-{}", now_micros(), std::process::id());
        let started = Instant::now();
        let mut alive: Vec<bool> = vec![true; self.operators.len()];
        let mut outcomes: Vec<Option<RecipeOutcome>> = recipes.iter().map(|_| None).collect();

        for (wave_index, wave) in shards.iter().enumerate() {
            self.annotate(
                "wave-begin",
                &format!(
                    "wave {}: {}",
                    wave_index + 1,
                    wave_names[wave_index].join(", ")
                ),
            );
            let ran = self.run_wave_resilient(
                wave,
                wave_index,
                &recipes,
                &campaign_id,
                &mut alive,
                &mut outcomes,
            )?;
            // The wave's verdicts are final (every run has finished and
            // resolved its monitor), so its ledger entries are appended
            // *now*, before the fallible wave-boundary flush: a campaign
            // that dies at a boundary keeps every completed wave, and
            // the ledger never sees a provisional outcome. Best-effort.
            // Entries whose flight dir is scanned directly are
            // deduplicated at read time, so dirless (unmonitored)
            // recipes land here without double-counting recorded ones.
            if let Some(root) = &self.flight_root {
                let entries: Vec<LedgerEntry> = wave
                    .iter()
                    .flatten()
                    .map(|&index| {
                        outcomes[index]
                            .as_ref()
                            .expect("wave completed")
                            .ledger_entry()
                    })
                    .collect();
                let _ = append_campaign_entries(root, &entries);
            }
            self.flush_wave_boundary(&ran, &mut alive)?;
            self.annotate("wave-end", &format!("wave {}", wave_index + 1));
        }
        let wall_clock = started.elapsed();

        let outcomes: Vec<RecipeOutcome> = outcomes
            .into_iter()
            .map(|outcome| outcome.expect("every recipe ran"))
            .collect();
        let report = assemble_report(
            outcomes,
            wave_names,
            self.steer_order,
            wall_clock,
            &self.seed_baselines,
            &prior_covered,
        );
        if let Some(root) = &self.flight_root {
            persist_merged_baselines(root, &report.baselines);
        }
        Ok(report)
    }

    /// Wave boundary (see the module docs): flushes every operator in
    /// `ran`; one whose flush fails is taken out of `alive`.
    ///
    /// # Errors
    ///
    /// The failed flush's own error, when it leaves no operator alive.
    fn flush_wave_boundary(
        &self,
        ran: &BTreeSet<usize>,
        alive: &mut [bool],
    ) -> Result<(), CoreError> {
        let mut failed = None;
        for &op_index in ran {
            let operator = &self.operators[op_index];
            if let Err(err) = operator.clear() {
                self.annotate("operator-dead", &format!("{}: {err}", operator.name()));
                alive[op_index] = false;
                failed = Some(err);
            }
        }
        match failed {
            Some(err) if !alive.contains(&true) => Err(err),
            _ => Ok(()),
        }
    }

    /// Drives one planned wave to completion: dispatches the live
    /// slices concurrently, marks failed operators dead, and
    /// re-shards their recipes over the survivors until every recipe
    /// in the wave has an outcome. Returns the live operators that
    /// completed a slice — the ones the wave boundary must flush.
    fn run_wave_resilient(
        &self,
        wave: &[Vec<usize>],
        wave_index: usize,
        recipes: &[CampaignRecipe],
        campaign_id: &str,
        alive: &mut [bool],
        outcomes: &mut [Option<RecipeOutcome>],
    ) -> Result<BTreeSet<usize>, CoreError> {
        // (operator index, recipe indices) ready to dispatch; recipes
        // stranded by dead operators wait in the pool.
        let mut assignments: Vec<(usize, Vec<usize>)> = Vec::new();
        let mut pool: Vec<usize> = Vec::new();
        let mut ran: BTreeSet<usize> = BTreeSet::new();
        for (op_index, slice) in wave.iter().enumerate() {
            if !alive[op_index] {
                pool.extend(slice);
            } else if !slice.is_empty() {
                assignments.push((op_index, slice.clone()));
            }
        }
        loop {
            if assignments.is_empty() {
                if pool.is_empty() {
                    return Ok(ran);
                }
                let survivors: Vec<usize> =
                    (0..self.operators.len()).filter(|&op| alive[op]).collect();
                if survivors.is_empty() {
                    return Err(CoreError::DispatchFailed(format!(
                        "every operator died; {} recipe(s) stranded in wave {}",
                        pool.len(),
                        wave_index + 1
                    )));
                }
                let (slices, leftover) = reassign(&pool, survivors.len(), self.max_in_flight);
                self.annotate(
                    "reshard",
                    &format!(
                        "wave {}: {} recipe(s) over {} survivor(s)",
                        wave_index + 1,
                        pool.len() - leftover.len(),
                        survivors.len()
                    ),
                );
                pool = leftover;
                assignments = survivors.into_iter().zip(slices).collect();
                assignments.retain(|(_, slice)| !slice.is_empty());
            }
            let results = par_map(&assignments, |(op_index, indices)| {
                self.dispatch_slice(*op_index, indices, recipes, wave_index, campaign_id)
            });
            for ((op_index, indices), result) in assignments.drain(..).zip(results) {
                match result {
                    Ok(slice_outcomes) => {
                        ran.insert(op_index);
                        for (index, outcome) in indices.into_iter().zip(slice_outcomes) {
                            outcomes[index] = Some(outcome);
                        }
                    }
                    Err(err) => {
                        self.annotate(
                            "operator-dead",
                            &format!("{}: {err}", self.operators[op_index].name()),
                        );
                        alive[op_index] = false;
                        ran.remove(&op_index);
                        pool.extend(indices);
                    }
                }
            }
        }
    }

    /// Dispatches one slice to one operator with bounded-backoff
    /// retries under one idempotency token; before every retry the
    /// operator's faults are flushed so a half-staged attempt cannot
    /// leak into the next one. An answer counts only when its outcomes
    /// line up, name by name, with the recipes posted — anything else
    /// would be merged under the wrong recipes.
    fn dispatch_slice(
        &self,
        op_index: usize,
        indices: &[usize],
        recipes: &[CampaignRecipe],
        wave_index: usize,
        campaign_id: &str,
    ) -> Result<Vec<RecipeOutcome>, CoreError> {
        let operator = &self.operators[op_index];
        let names: Vec<&str> = indices
            .iter()
            .map(|&index| recipes[index].name.as_str())
            .collect();
        let request = WaveRequest {
            schema_version: DISPATCH_SCHEMA_VERSION,
            token: format!("{campaign_id}:w{wave_index}:{}", names.join("+")),
            recipes: indices
                .iter()
                .map(|&index| recipes[index].clone())
                .collect(),
            seed_baselines: self.seed_baselines.clone(),
        };
        let mut backoff = self.backoff;
        let mut last_err = CoreError::DispatchFailed("no attempt made".to_string());
        for attempt in 0..=self.retries {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(MAX_DISPATCH_BACKOFF);
                // Idempotent retry precondition: flush whatever the
                // failed attempt may have half-staged. Best-effort —
                // if the operator is truly gone this fails too and the
                // wave POST below settles it.
                let _ = operator.clear();
            }
            match operator.run_wave(&request) {
                Ok(response) => {
                    let answered = response.outcomes.iter().map(|o| o.report.name.as_str());
                    if answered.eq(names.iter().copied()) {
                        return Ok(response.outcomes);
                    }
                    last_err = CoreError::DispatchFailed(format!(
                        "operator {} answered outcomes that do not line up with recipes [{}]",
                        operator.name(),
                        names.join(", ")
                    ));
                }
                Err(err) => last_err = err,
            }
        }
        Err(last_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::Scenario;
    use crate::testutil::fan_ctx;
    use std::sync::atomic::AtomicBool;

    fn fan_pairs() -> Vec<(&'static str, &'static str)> {
        vec![("c1", "s1"), ("c2", "s2"), ("c3", "s3"), ("c4", "s4")]
    }

    fn abort_recipes(
        pairs: &[(&'static str, &'static str)],
        hold: Duration,
    ) -> Vec<CampaignRecipe> {
        pairs
            .iter()
            .map(|(src, dst)| {
                CampaignRecipe::new(format!("{src}-{dst}"))
                    .scenario(Scenario::abort(*src, *dst, 503))
                    .hold(hold)
            })
            .collect()
    }

    /// A [`LocalOperator`] over its own full fleet, behind scripted
    /// transport failures.
    struct ScriptedOperator {
        inner: LocalOperator,
        /// The recipe names of every slice received, in order.
        slices: Mutex<Vec<Vec<String>>>,
        fail_first: usize,
        swap_first: bool,
        clear_fails: bool,
        dead: AtomicBool,
    }

    impl ScriptedOperator {
        fn new(name: &str, pairs: &[(&'static str, &'static str)]) -> ScriptedOperator {
            ScriptedOperator {
                inner: LocalOperator::new(name, fan_ctx(pairs).0, None),
                slices: Mutex::new(Vec::new()),
                fail_first: 0,
                swap_first: false,
                clear_fails: false,
                dead: AtomicBool::new(false),
            }
        }

        /// The first `failures` wave calls fail in transit.
        fn failing_first(mut self, failures: usize) -> ScriptedOperator {
            self.fail_first = failures;
            self
        }

        /// The first answer comes back with its first two outcomes
        /// swapped.
        fn swapping_first_answer(mut self) -> ScriptedOperator {
            self.swap_first = true;
            self
        }

        /// Every `clear()` fails while waves keep working.
        fn failing_clears(mut self) -> ScriptedOperator {
            self.clear_fails = true;
            self
        }

        fn kill(&self) {
            self.dead.store(true, Ordering::SeqCst);
        }

        fn calls(&self) -> usize {
            self.slices.lock().len()
        }

        fn down(&self, what: &str) -> CoreError {
            CoreError::DispatchFailed(format!("operator {} {what}", self.inner.name()))
        }
    }

    impl OperatorTransport for ScriptedOperator {
        fn name(&self) -> String {
            self.inner.name()
        }

        fn run_wave(&self, wave: &WaveRequest) -> Result<WaveResponse, CoreError> {
            let call = {
                let mut slices = self.slices.lock();
                slices.push(wave.recipes.iter().map(|r| r.name.clone()).collect());
                slices.len() - 1
            };
            if self.dead.load(Ordering::SeqCst) {
                return Err(self.down("is down"));
            }
            if call < self.fail_first {
                return Err(self.down("transient failure"));
            }
            let mut response = self.inner.run_wave(wave)?;
            if self.swap_first && call == 0 {
                response.outcomes.swap(0, 1);
            }
            Ok(response)
        }

        fn clear(&self) -> Result<(), CoreError> {
            if self.clear_fails || self.dead.load(Ordering::SeqCst) {
                return Err(self.down("cannot clear"));
            }
            self.inner.clear()
        }
    }

    #[test]
    fn shards_split_waves_round_robin() {
        let edges: Vec<BTreeSet<(String, String)>> = (0..4)
            .map(|i| {
                let mut set = BTreeSet::new();
                set.insert((format!("c{i}"), format!("s{i}")));
                set
            })
            .collect();
        // 4 disjoint footprints, 2 operators, width 2 -> one wave of
        // two 2-recipe slices.
        let shards = plan_shards(&edges, 2, 2);
        assert_eq!(shards, vec![vec![vec![0, 2], vec![1, 3]]]);
        // One operator degenerates to plain waves.
        let shards = plan_shards(&edges, 1, 2);
        assert_eq!(shards, vec![vec![vec![0, 1]], vec![vec![2, 3]]]);
    }

    #[test]
    fn reassign_caps_slices_and_keeps_leftover() {
        let pool = vec![7, 8, 9, 10, 11];
        let (slices, leftover) = reassign(&pool, 2, 2);
        assert_eq!(slices, vec![vec![7, 9], vec![8, 10]]);
        assert_eq!(leftover, vec![11]);
    }

    #[test]
    fn dispatcher_runs_disjoint_recipes_across_two_operators() {
        let pairs = fan_pairs();
        let graph = AppGraph::from_edges(pairs.clone());
        let operators: Vec<Arc<dyn OperatorTransport>> = vec![
            Arc::new(LocalOperator::new("op-a", fan_ctx(&pairs).0, None)),
            Arc::new(LocalOperator::new("op-b", fan_ctx(&pairs).0, None)),
        ];
        let report = CampaignDispatcher::new(graph, operators)
            .max_in_flight(2)
            .run(abort_recipes(&pairs, Duration::from_millis(40)))
            .unwrap();
        assert_eq!(report.recipes.len(), 4);
        assert!(report.passed(), "{report}");
        assert_eq!(report.waves.len(), 1, "{:?}", report.waves);
        assert_eq!(report.waves[0].len(), 4);
        // Reports stay aligned with campaign input order.
        assert_eq!(report.recipes[0].name, "c1-s1");
        assert_eq!(report.recipes[3].name, "c4-s4");
    }

    #[test]
    fn transient_operator_failure_is_retried() {
        let pairs = fan_pairs();
        let graph = AppGraph::from_edges(pairs.clone());
        let flaky = Arc::new(ScriptedOperator::new("flaky", &pairs).failing_first(1));
        let operators: Vec<Arc<dyn OperatorTransport>> = vec![Arc::clone(&flaky) as _];
        let report = CampaignDispatcher::new(graph, operators)
            .max_in_flight(4)
            .retries(2)
            .backoff(Duration::from_millis(1))
            .run(abort_recipes(&pairs, Duration::from_millis(10)))
            .unwrap();
        assert!(report.passed(), "{report}");
        assert!(flaky.calls() >= 2, "first attempt failed, retry succeeded");
    }

    #[test]
    fn dead_operator_waves_reshard_to_survivor() {
        let pairs = fan_pairs();
        let graph = AppGraph::from_edges(pairs.clone());
        let survivor = Arc::new(ScriptedOperator::new("survivor", &pairs));
        let doomed = Arc::new(ScriptedOperator::new("doomed", &pairs));
        doomed.kill();
        let operators: Vec<Arc<dyn OperatorTransport>> =
            vec![Arc::clone(&survivor) as _, Arc::clone(&doomed) as _];
        let report = CampaignDispatcher::new(graph, operators)
            .max_in_flight(2)
            .retries(0)
            .backoff(Duration::from_millis(1))
            .run(abort_recipes(&pairs, Duration::from_millis(10)))
            .unwrap();
        // Every recipe completed despite the dead operator, and the
        // survivor executed all of them.
        assert_eq!(report.recipes.len(), 4);
        assert!(report.passed(), "{report}");
        assert!(survivor.calls() >= 2);
    }

    #[test]
    fn campaign_fails_when_every_operator_dies() {
        let pairs = fan_pairs();
        let graph = AppGraph::from_edges(pairs.clone());
        let doomed = Arc::new(ScriptedOperator::new("doomed", &pairs));
        doomed.kill();
        let operators: Vec<Arc<dyn OperatorTransport>> = vec![Arc::clone(&doomed) as _];
        let err = CampaignDispatcher::new(graph, operators)
            .retries(0)
            .backoff(Duration::from_millis(1))
            .run(abort_recipes(&pairs, Duration::from_millis(10)))
            .unwrap_err();
        assert!(matches!(err, CoreError::DispatchFailed(_)), "{err}");
    }

    #[test]
    fn misaligned_outcomes_are_rejected_and_retried() {
        let pairs = fan_pairs();
        let graph = AppGraph::from_edges(pairs.clone());
        let shuffler = Arc::new(ScriptedOperator::new("shuffler", &pairs).swapping_first_answer());
        let operators: Vec<Arc<dyn OperatorTransport>> = vec![Arc::clone(&shuffler) as _];
        let recipes = abort_recipes(&pairs, Duration::from_millis(10));
        let names: Vec<String> = recipes.iter().map(|r| r.name.clone()).collect();
        let report = CampaignDispatcher::new(graph, operators)
            .max_in_flight(4)
            .retries(1)
            .backoff(Duration::from_millis(1))
            .run(recipes)
            .unwrap();
        // The swapped answer was refused, not merged under the wrong
        // recipes; the retry's answer lines up.
        assert_eq!(shuffler.calls(), 2);
        let reported: Vec<String> = report.recipes.iter().map(|r| r.name.clone()).collect();
        assert_eq!(reported, names);
    }

    #[test]
    fn operator_whose_boundary_clear_fails_gets_no_further_slice() {
        let pairs = fan_pairs();
        let graph = AppGraph::from_edges(pairs.clone());
        let survivor = Arc::new(ScriptedOperator::new("survivor", &pairs));
        let leaky = Arc::new(ScriptedOperator::new("leaky", &pairs).failing_clears());
        let operators: Vec<Arc<dyn OperatorTransport>> =
            vec![Arc::clone(&survivor) as _, Arc::clone(&leaky) as _];
        // Width 1 per operator -> two waves of two slices. The leaky
        // operator's flush fails at the first boundary, so its wave-2
        // slice re-shards to the survivor.
        let report = CampaignDispatcher::new(graph, operators)
            .max_in_flight(1)
            .retries(0)
            .backoff(Duration::from_millis(1))
            .run(abort_recipes(&pairs, Duration::from_millis(10)))
            .unwrap();
        assert_eq!(*leaky.slices.lock(), vec![vec!["c2-s2".to_string()]]);
        assert_eq!(
            *survivor.slices.lock(),
            vec![vec!["c1-s1"], vec!["c3-s3"], vec!["c4-s4"]]
        );
        let reported: Vec<&str> = report.recipes.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(reported, vec!["c1-s1", "c2-s2", "c3-s3", "c4-s4"]);
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn no_operators_is_an_error() {
        let err = CampaignDispatcher::new(AppGraph::from_edges(vec![("a", "b")]), Vec::new())
            .run(vec![CampaignRecipe::new("r")])
            .unwrap_err();
        assert!(matches!(err, CoreError::DispatchFailed(_)), "{err}");
    }

    #[test]
    fn wave_wire_types_round_trip() {
        let pairs = vec![("c1", "s1")];
        let (ctx, _) = fan_ctx(&pairs);
        let recipe = CampaignRecipe::new("rt")
            .scenario(Scenario::abort("c1", "s1", 503))
            .hold(Duration::from_millis(5));
        let outcome = crate::campaign::execute_recipe(&ctx, &recipe, &[], None);
        let response = WaveResponse {
            operator: "op-a".to_string(),
            outcomes: vec![outcome],
            cached: false,
        };
        let json = serde_json::to_string(&response).unwrap();
        let back: WaveResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(response, back);

        let request = WaveRequest {
            schema_version: DISPATCH_SCHEMA_VERSION,
            token: "c:w0:rt".to_string(),
            recipes: vec![recipe],
            seed_baselines: Vec::new(),
        };
        let json = serde_json::to_string(&request).unwrap();
        let back: WaveRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(request, back);
    }
}
