//! Distributed campaign execution: shard waves across operator hosts.
//!
//! A single [`CampaignRunner`](crate::campaign::CampaignRunner) is
//! bounded by one host's fan-out. This module distributes a campaign
//! across several **operator hosts**, each fronting its own slice of
//! the agent fleet for the same logical application graph:
//!
//! * [`OperatorServer`] — the worker half (`gremlin operator serve`):
//!   an httpwire control endpoint that accepts a wave of recipes,
//!   drives them over its local [`TestContext`] with the same
//!   [`execute_wave`] the single-host runner uses, and streams the
//!   full [`RecipeOutcome`]s back.
//! * [`CampaignDispatcher`] — the coordinator half
//!   (`gremlin campaign --operators ...`): plans **shards** with
//!   [`plan_shards`] (footprint-disjoint waves, widened to the whole
//!   fleet's capacity, split round-robin across operators), dispatches
//!   each wave's slices concurrently, retries transient failures with
//!   bounded exponential backoff, re-shards a dead operator's slices
//!   over the survivors, and merges the outcomes through the same
//!   aggregation path as the single-host runner — the merged
//!   [`CampaignReport`] is identical in shape and content.
//!
//! # Failure semantics
//!
//! Every wave POST carries an **idempotency token** stable across
//! retries. An operator caches the response of each completed token,
//! so a retry after a lost response replays the recorded outcomes
//! instead of re-running the wave — the coordinator observes
//! exactly-once wave results per operator. When an operator dies
//! mid-wave its recipes re-execute on a survivor (at-least-once
//! against the *mesh*, which is safe: rule install and clear are
//! idempotent and every attempt is preceded by a fault flush), but the
//! coordinator accepts exactly one outcome per recipe and appends each
//! wave's ledger entries exactly once, after the wave's verdicts are
//! final.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use gremlin_http::{
    ClientConfig, ConnInfo, HttpClient, HttpServer, Method, Request, Response, StatusCode,
};
use gremlin_store::{now_micros, EdgeBaseline};
use gremlin_telemetry::TimeSeriesStore;

use crate::campaign::{
    assemble_report, execute_wave, persist_merged_baselines, plan_waves, steer_priority,
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

/// Bounded FIFO cache of completed wave responses, keyed by token.
struct WaveCache {
    order: VecDeque<String>,
    map: HashMap<String, WaveResponse>,
}

impl WaveCache {
    fn new() -> WaveCache {
        WaveCache {
            order: VecDeque::new(),
            map: HashMap::new(),
        }
    }

    fn get(&self, token: &str) -> Option<&WaveResponse> {
        self.map.get(token)
    }

    fn insert(&mut self, token: String, response: WaveResponse) {
        if self.map.insert(token.clone(), response).is_none() {
            self.order.push_back(token);
            if self.order.len() > WAVE_CACHE_CAPACITY {
                if let Some(evicted) = self.order.pop_front() {
                    self.map.remove(&evicted);
                }
            }
        }
    }
}

struct OperatorState {
    name: String,
    ctx: TestContext,
    flight_root: Option<PathBuf>,
    completed: Mutex<WaveCache>,
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
            name: self.name.clone(),
            agents: self.ctx.orchestrator().agent_count(),
            waves_executed: self.waves_executed.load(Ordering::Relaxed),
            waves_cached: self.waves_cached.load(Ordering::Relaxed),
        }
    }

    fn cached(&self, token: &str) -> Option<WaveResponse> {
        let completed = self.completed.lock();
        completed.get(token).map(|done| {
            self.waves_cached.fetch_add(1, Ordering::Relaxed);
            let mut replay = done.clone();
            replay.cached = true;
            replay
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
        let names: Vec<&str> = wave.recipes.iter().map(|r| r.name.as_str()).collect();
        self.ctx.annotate(
            "wave-begin",
            &format!("operator {}: {}", self.name, names.join(", ")),
        );
        let outcomes = execute_wave(
            &self.ctx,
            &wave.recipes,
            &wave.seed_baselines,
            self.flight_root.as_deref(),
        );
        // Defensive wave-boundary flush: a re-sharded or retried wave
        // must start against a fault-free fleet even if the
        // coordinator never sends `POST /operator/clear`. Best-effort
        // — the coordinator also clears before every retry.
        let _ = self.ctx.clear_faults();
        self.ctx
            .annotate("wave-end", &format!("operator {}", self.name));
        self.waves_executed.fetch_add(1, Ordering::Relaxed);
        let response = WaveResponse {
            operator: self.name.clone(),
            outcomes,
            cached: false,
        };
        self.completed
            .lock()
            .insert(wave.token.clone(), response.clone());
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
            .field("name", &self.state.name)
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
            name: name.into(),
            ctx,
            flight_root,
            completed: Mutex::new(WaveCache::new()),
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
        (Method::Post, "/operator/clear") => match state.ctx.clear_faults() {
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

/// How a coordinator reaches one operator. [`HttpOperator`] is the
/// production transport; tests swap in in-process fakes.
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
        let response = client
            .send(addr, Request::get("/operator/status"))
            .map_err(|err| {
                CoreError::DispatchFailed(format!("operator {addr} unreachable: {err}"))
            })?;
        if !response.status().is_success() {
            return Err(CoreError::DispatchFailed(format!(
                "operator {addr} status {}: {}",
                response.status(),
                response.body_str()
            )));
        }
        let status: OperatorStatus = serde_json::from_slice(response.body()).map_err(|err| {
            CoreError::DispatchFailed(format!("operator {addr} sent malformed status: {err}"))
        })?;
        if status.schema_version != DISPATCH_SCHEMA_VERSION {
            return Err(CoreError::DispatchFailed(format!(
                "operator {addr} speaks dispatch schema {}, coordinator speaks {}",
                status.schema_version, DISPATCH_SCHEMA_VERSION
            )));
        }
        Ok(HttpOperator {
            name: status.name,
            addr,
            client,
        })
    }

    /// The operator endpoint's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
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
        let response = self.client.send(self.addr, request).map_err(|err| {
            CoreError::DispatchFailed(format!("operator {} ({}): {err}", self.name, self.addr))
        })?;
        if !response.status().is_success() {
            return Err(CoreError::DispatchFailed(format!(
                "operator {} refused wave: {} {}",
                self.name,
                response.status(),
                response.body_str()
            )));
        }
        serde_json::from_slice(response.body()).map_err(|err| {
            CoreError::DispatchFailed(format!(
                "operator {} sent malformed wave response: {err}",
                self.name
            ))
        })
    }

    fn clear(&self) -> Result<(), CoreError> {
        let request = Request::post("/operator/clear", "");
        let response = self.client.send(self.addr, request).map_err(|err| {
            CoreError::DispatchFailed(format!("operator {} ({}): {err}", self.name, self.addr))
        })?;
        if response.status().is_success() {
            Ok(())
        } else {
            Err(CoreError::DispatchFailed(format!(
                "operator {} refused clear: {} {}",
                self.name,
                response.status(),
                response.body_str()
            )))
        }
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
        .map(|wave| {
            let mut slices: Vec<Vec<usize>> = vec![Vec::new(); operators];
            for (position, index) in wave.into_iter().enumerate() {
                slices[position % operators].push(index);
            }
            slices
        })
        .collect()
}

/// Re-shards pooled recipe indices (from dead operators) round-robin
/// across `survivors` slots, each slice capped at `max_in_flight`.
/// Returns the per-slot slices and whatever exceeded this round's
/// capacity (dispatched in a later round).
pub(crate) fn reassign(
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

/// Result of dispatching one slice to one operator.
type SliceResult = Result<Vec<RecipeOutcome>, CoreError>;

/// The coordinator half of a distributed campaign: shards
/// footprint-disjoint waves across several [`OperatorTransport`]s,
/// survives operator deaths, and merges the partial results into one
/// [`CampaignReport`] with the same shape as a single-host run.
///
/// # Examples
///
/// ```no_run
/// use gremlin_core::dispatch::{CampaignDispatcher, HttpOperator, OperatorTransport};
/// use gremlin_core::{AppGraph, CampaignRecipe, Scenario};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = AppGraph::from_edges(vec![("web", "db"), ("web", "cache")]);
/// let operators: Vec<Arc<dyn OperatorTransport>> = vec![
///     Arc::new(HttpOperator::connect("10.0.0.1:7070".parse()?)?),
///     Arc::new(HttpOperator::connect("10.0.0.2:7070".parse()?)?),
/// ];
/// let report = CampaignDispatcher::new(graph, operators).run(vec![
///     CampaignRecipe::new("db-down").scenario(Scenario::crash("db")),
///     CampaignRecipe::new("cache-down").scenario(Scenario::crash("cache")),
/// ])?;
/// println!("{report}");
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
        }
    }

    /// Builder-style: caps concurrently running recipes **per
    /// operator** (minimum 1). The planner packs waves up to
    /// `operators * max_in_flight` wide.
    pub fn max_in_flight(mut self, max_in_flight: usize) -> CampaignDispatcher {
        self.max_in_flight = max_in_flight.max(1);
        self
    }

    /// Builder-style: the coordinator-side flight root — the ledger
    /// (`campaigns.jsonl`) is appended here wave by wave, prior
    /// coverage is scanned from here, and the merged `baselines.json`
    /// is persisted here.
    pub fn flight_root(mut self, root: impl Into<PathBuf>) -> CampaignDispatcher {
        self.flight_root = Some(root.into());
        self
    }

    /// Builder-style: baselines shipped with every wave to seed
    /// monitored recipes' anomaly scorers on the operators.
    pub fn seed(mut self, baselines: Vec<EdgeBaseline>) -> CampaignDispatcher {
        self.seed_baselines = baselines;
        self
    }

    /// Builder-style: reorders waves by coverage-ledger priority
    /// (untested, then flaky, then stable), exactly like
    /// [`CampaignRunner::steer_order`](crate::campaign::CampaignRunner::steer_order).
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
    /// begin/end and re-shard events are annotated onto it.
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
    /// and merges everything into one [`CampaignReport`].
    ///
    /// # Errors
    ///
    /// Footprint computation failures before anything runs;
    /// [`CoreError::DispatchFailed`] when no operator is configured or
    /// every operator died with recipes still pending. Failures
    /// *inside* a recipe fail that recipe's report, not the campaign.
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

        let ledger: Option<CoverageLedger> = self
            .flight_root
            .as_ref()
            .and_then(|root| CoverageLedger::scan(root).ok());
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
        let mut outcomes: Vec<Option<RecipeOutcome>> = Vec::new();
        outcomes.resize_with(recipes.len(), || None);

        for (wave_index, wave) in shards.iter().enumerate() {
            self.annotate(
                "wave-begin",
                &format!(
                    "wave {}: {}",
                    wave_index + 1,
                    wave_names[wave_index].join(", ")
                ),
            );
            self.run_wave_resilient(
                wave,
                wave_index,
                &recipes,
                &campaign_id,
                &mut alive,
                &mut outcomes,
            )?;
            // The wave's verdicts are final: append its ledger entries
            // now, before anything else can fail, mirroring the
            // single-host runner. Best-effort, deduplicated at read
            // time against directly scanned flight dirs.
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

    /// Drives one planned wave to completion: dispatches the live
    /// slices concurrently, marks failed operators dead, and
    /// re-shards their recipes over the survivors until every recipe
    /// in the wave has an outcome.
    fn run_wave_resilient(
        &self,
        wave: &[Vec<usize>],
        wave_index: usize,
        recipes: &[CampaignRecipe],
        campaign_id: &str,
        alive: &mut [bool],
        outcomes: &mut [Option<RecipeOutcome>],
    ) -> Result<(), CoreError> {
        // (operator index, recipe indices) ready to dispatch; recipes
        // stranded by dead operators wait in the pool.
        let mut assignments: Vec<(usize, Vec<usize>)> = Vec::new();
        let mut pool: Vec<usize> = Vec::new();
        for (op_index, slice) in wave.iter().enumerate() {
            if slice.is_empty() {
                continue;
            }
            if alive[op_index] {
                assignments.push((op_index, slice.clone()));
            } else {
                pool.extend(slice.iter().copied());
            }
        }

        while !assignments.is_empty() || !pool.is_empty() {
            if assignments.is_empty() {
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
                for (slot, slice) in slices.into_iter().enumerate() {
                    if !slice.is_empty() {
                        assignments.push((survivors[slot], slice));
                    }
                }
                continue;
            }

            let current = std::mem::take(&mut assignments);
            let slots: Vec<Mutex<Option<SliceResult>>> =
                current.iter().map(|_| Mutex::new(None)).collect();
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..current.len() {
                    scope.spawn(|| {
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        let (op_index, indices) = &current[slot];
                        *slots[slot].lock() = Some(self.dispatch_slice(
                            *op_index,
                            indices,
                            recipes,
                            wave_index,
                            campaign_id,
                        ));
                    });
                }
            });
            let results: Vec<SliceResult> = slots
                .into_iter()
                .map(|slot| slot.into_inner().expect("every slice dispatched"))
                .collect();
            for ((op_index, indices), result) in current.into_iter().zip(results) {
                match result {
                    Ok(slice_outcomes) => {
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
                        pool.extend(indices);
                    }
                }
            }
        }
        Ok(())
    }

    /// Dispatches one slice to one operator with bounded-backoff
    /// retries. The idempotency token is stable across attempts, so a
    /// retry after a lost response replays the operator's recorded
    /// outcomes; before every retry the operator's faults are flushed
    /// so a half-staged attempt cannot leak into the next one.
    fn dispatch_slice(
        &self,
        op_index: usize,
        indices: &[usize],
        recipes: &[CampaignRecipe],
        wave_index: usize,
        campaign_id: &str,
    ) -> SliceResult {
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
                Ok(response) if response.outcomes.len() == request.recipes.len() => {
                    return Ok(response.outcomes);
                }
                Ok(response) => {
                    last_err = CoreError::DispatchFailed(format!(
                        "operator {} answered {} outcome(s) for {} recipe(s)",
                        operator.name(),
                        response.outcomes.len(),
                        request.recipes.len()
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
    use gremlin_proxy::{AgentControl, ProxyError, Rule};
    use gremlin_store::EventStore;
    use std::sync::atomic::AtomicBool;

    /// In-memory agent recording installed rules.
    struct SinkAgent {
        service: String,
        rules: Mutex<Vec<Rule>>,
    }

    impl SinkAgent {
        fn new(service: &str) -> Arc<SinkAgent> {
            Arc::new(SinkAgent {
                service: service.to_string(),
                rules: Mutex::new(Vec::new()),
            })
        }
    }

    impl AgentControl for SinkAgent {
        fn service_name(&self) -> String {
            self.service.clone()
        }

        fn install_rules(&self, rules: &[Rule]) -> Result<(), ProxyError> {
            self.rules.lock().extend(rules.iter().cloned());
            Ok(())
        }

        fn clear_rules(&self) -> Result<(), ProxyError> {
            self.rules.lock().clear();
            Ok(())
        }

        fn list_rules(&self) -> Result<Vec<Rule>, ProxyError> {
            Ok(self.rules.lock().clone())
        }
    }

    fn fan_pairs() -> Vec<(&'static str, &'static str)> {
        vec![("c1", "s1"), ("c2", "s2"), ("c3", "s3"), ("c4", "s4")]
    }

    fn fleet_ctx(pairs: &[(&'static str, &'static str)]) -> TestContext {
        let graph = AppGraph::from_edges(pairs.to_vec());
        let agents: Vec<Arc<dyn AgentControl>> = pairs
            .iter()
            .map(|(src, _)| SinkAgent::new(src) as Arc<dyn AgentControl>)
            .collect();
        TestContext::new(graph, agents, EventStore::shared())
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

    /// In-process transport over a full [`TestContext`], with optional
    /// scripted failures.
    struct LocalOperator {
        name: String,
        ctx: TestContext,
        calls: AtomicUsize,
        fail_first: usize,
        dead: AtomicBool,
    }

    impl LocalOperator {
        fn new(name: &str, ctx: TestContext) -> LocalOperator {
            LocalOperator {
                name: name.to_string(),
                ctx,
                calls: AtomicUsize::new(0),
                fail_first: 0,
                dead: AtomicBool::new(false),
            }
        }

        fn failing_first(mut self, failures: usize) -> LocalOperator {
            self.fail_first = failures;
            self
        }

        fn kill(&self) {
            self.dead.store(true, Ordering::SeqCst);
        }
    }

    impl OperatorTransport for LocalOperator {
        fn name(&self) -> String {
            self.name.clone()
        }

        fn run_wave(&self, wave: &WaveRequest) -> Result<WaveResponse, CoreError> {
            let call = self.calls.fetch_add(1, Ordering::SeqCst);
            if self.dead.load(Ordering::SeqCst) {
                return Err(CoreError::DispatchFailed(format!(
                    "operator {} is down",
                    self.name
                )));
            }
            if call < self.fail_first {
                return Err(CoreError::DispatchFailed(format!(
                    "operator {} transient failure",
                    self.name
                )));
            }
            let outcomes = execute_wave(&self.ctx, &wave.recipes, &wave.seed_baselines, None);
            let _ = self.ctx.clear_faults();
            Ok(WaveResponse {
                operator: self.name.clone(),
                outcomes,
                cached: false,
            })
        }

        fn clear(&self) -> Result<(), CoreError> {
            if self.dead.load(Ordering::SeqCst) {
                return Err(CoreError::DispatchFailed(format!(
                    "operator {} is down",
                    self.name
                )));
            }
            self.ctx.clear_faults()
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
            Arc::new(LocalOperator::new("op-a", fleet_ctx(&pairs))),
            Arc::new(LocalOperator::new("op-b", fleet_ctx(&pairs))),
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
        let flaky = Arc::new(LocalOperator::new("flaky", fleet_ctx(&pairs)).failing_first(1));
        let operators: Vec<Arc<dyn OperatorTransport>> = vec![Arc::clone(&flaky) as _];
        let report = CampaignDispatcher::new(graph, operators)
            .max_in_flight(4)
            .retries(2)
            .backoff(Duration::from_millis(1))
            .run(abort_recipes(&pairs, Duration::from_millis(10)))
            .unwrap();
        assert!(report.passed(), "{report}");
        assert!(
            flaky.calls.load(Ordering::SeqCst) >= 2,
            "first attempt failed, retry succeeded"
        );
    }

    #[test]
    fn dead_operator_waves_reshard_to_survivor() {
        let pairs = fan_pairs();
        let graph = AppGraph::from_edges(pairs.clone());
        let survivor = Arc::new(LocalOperator::new("survivor", fleet_ctx(&pairs)));
        let doomed = Arc::new(LocalOperator::new("doomed", fleet_ctx(&pairs)));
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
        assert!(survivor.calls.load(Ordering::SeqCst) >= 2);
    }

    #[test]
    fn campaign_fails_when_every_operator_dies() {
        let pairs = fan_pairs();
        let graph = AppGraph::from_edges(pairs.clone());
        let doomed = Arc::new(LocalOperator::new("doomed", fleet_ctx(&pairs)));
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
    fn no_operators_is_an_error() {
        let err = CampaignDispatcher::new(AppGraph::from_edges(vec![("a", "b")]), Vec::new())
            .run(vec![CampaignRecipe::new("r")])
            .unwrap_err();
        assert!(matches!(err, CoreError::DispatchFailed(_)), "{err}");
    }

    #[test]
    fn wave_wire_types_round_trip() {
        let pairs = vec![("c1", "s1")];
        let ctx = fleet_ctx(&pairs);
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

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn footprint_strategy() -> impl Strategy<Value = BTreeSet<(String, String)>> {
            proptest::collection::btree_set(
                (0..4u8, 0..4u8).prop_map(|(s, d)| (format!("s{s}"), format!("d{d}"))),
                1..4,
            )
        }

        proptest! {
            #[test]
            fn shards_assign_every_recipe_exactly_once_and_stay_disjoint(
                footprints in proptest::collection::vec(footprint_strategy(), 1..12),
                operators in 1usize..5,
                max_in_flight in 1usize..4,
            ) {
                let shards = plan_shards(&footprints, operators, max_in_flight);
                let mut seen: Vec<usize> = shards
                    .iter()
                    .flatten()
                    .flatten()
                    .copied()
                    .collect();
                seen.sort_unstable();
                prop_assert_eq!(seen, (0..footprints.len()).collect::<Vec<_>>());
                for wave in &shards {
                    prop_assert_eq!(wave.len(), operators);
                    for slice in wave {
                        prop_assert!(slice.len() <= max_in_flight);
                    }
                    // Disjointness holds across the whole wave, even
                    // between recipes on different operators.
                    let flat: Vec<usize> = wave.iter().flatten().copied().collect();
                    for (i, &a) in flat.iter().enumerate() {
                        for &b in &flat[i + 1..] {
                            prop_assert!(
                                footprints[a].is_disjoint(&footprints[b]),
                                "wave co-schedules intersecting footprints {} and {}",
                                a, b,
                            );
                        }
                    }
                }
            }

            #[test]
            fn reassign_conserves_the_pool(
                pool in proptest::collection::vec(0usize..64, 0..16),
                survivors in 1usize..5,
                max_in_flight in 1usize..4,
            ) {
                let (slices, leftover) = reassign(&pool, survivors, max_in_flight);
                prop_assert_eq!(slices.len(), survivors);
                for slice in &slices {
                    prop_assert!(slice.len() <= max_in_flight);
                }
                let mut rebuilt: Vec<usize> =
                    slices.iter().flatten().copied().collect();
                rebuilt.extend(leftover.iter().copied());
                rebuilt.sort_unstable();
                let mut original = pool.clone();
                original.sort_unstable();
                prop_assert_eq!(rebuilt, original);
            }

            #[test]
            fn shards_survive_random_operator_failures(
                footprints in proptest::collection::vec(footprint_strategy(), 1..10),
                operators in 2usize..5,
                max_in_flight in 1usize..4,
                failures in proptest::collection::vec(any::<bool>(), 2..5),
            ) {
                // Simulate the dispatcher's pooling/re-sharding control
                // flow without executing recipes: every recipe must be
                // assigned exactly once as long as one operator lives.
                let shards = plan_shards(&footprints, operators, max_in_flight);
                let alive: Vec<bool> = (0..operators)
                    .map(|op| *failures.get(op).unwrap_or(&true))
                    .collect();
                prop_assume!(alive.iter().any(|&a| a));
                let mut executed: Vec<usize> = Vec::new();
                for wave in &shards {
                    let mut pool: Vec<usize> = Vec::new();
                    for (op, slice) in wave.iter().enumerate() {
                        if alive[op] {
                            executed.extend(slice.iter().copied());
                        } else {
                            pool.extend(slice.iter().copied());
                        }
                    }
                    let survivors = alive.iter().filter(|&&a| a).count();
                    while !pool.is_empty() {
                        let (slices, leftover) =
                            reassign(&pool, survivors, max_in_flight);
                        for slice in slices {
                            executed.extend(slice);
                        }
                        pool = leftover;
                    }
                }
                executed.sort_unstable();
                prop_assert_eq!(executed, (0..footprints.len()).collect::<Vec<_>>());
            }
        }
    }
}
