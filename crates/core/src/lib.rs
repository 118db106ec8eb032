//! # gremlin-core
//!
//! The control plane of the Gremlin resilience-testing framework
//! (Heorhiadi et al., *Gremlin: Systematic Resilience Testing of
//! Microservices*, ICDCS 2016).
//!
//! Gremlin takes an SDN-like approach: the operator describes a
//! high-level outage and a set of expectations; the control plane
//! translates them into network-level fault-injection rules, programs
//! the data-plane agents, and validates the expectations against the
//! observation logs the agents produce. The pieces map onto the
//! paper's §4.2 directly:
//!
//! * [`AppGraph`] — the logical application graph of caller/callee
//!   relationships;
//! * [`Scenario`] — high-level failure scenarios (crash, overload,
//!   hang, partition, …) with [`Scenario::to_rules`] as the **Recipe
//!   Translator**;
//! * [`FailureOrchestrator`] — programs every physical agent instance
//!   through the [`AgentControl`](gremlin_proxy::AgentControl)
//!   channel;
//! * [`AssertionChecker`] — Table 3's queries, base assertions,
//!   `Combine` chains and resiliency-pattern checks over the central
//!   [`EventStore`](gremlin_store::EventStore);
//! * [`TestContext`] / [`RecipeRun`] — the operator-facing recipe
//!   layer, with chained failures as ordinary control flow.
//!
//! # Examples
//!
//! The paper's Example 1 — overload `serviceB`, assert `serviceA`
//! bounds its retries — reads like this (given a running
//! [`Deployment`](https://docs.rs/gremlin-mesh)):
//!
//! ```no_run
//! use gremlin_core::{AppGraph, Scenario, TestContext};
//! use gremlin_store::{EventStore, Pattern};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let agents = Vec::new();
//! # let store = EventStore::shared();
//! let graph = AppGraph::from_edges(vec![("serviceA", "serviceB")]);
//! let ctx = TestContext::new(graph, agents, store);
//!
//! ctx.inject(&Scenario::overload("serviceB").with_pattern("test-*"))?;
//! // ... drive test traffic ...
//! let check = ctx
//!     .checker()
//!     .has_bounded_retries("serviceA", "serviceB", 5, &Pattern::new("test-*"));
//! println!("{check}");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod anomaly;
pub mod assertion;
pub mod autogen;
pub mod campaign;
pub mod chaos;
pub mod checker;
pub mod dispatch;
pub mod error;
pub mod flight;
pub mod graph;
pub mod ledger;
pub mod monitor;
pub mod orchestrator;
pub mod recipe;
pub mod scenarios;
#[cfg(test)]
mod testutil;
pub mod timeutil;
pub mod trace;

pub use anomaly::{drift_z, AnomalyAlert, AnomalyConfig, AnomalyScore, AnomalyScorer, EdgeState};
pub use assertion::{Assertion, Fold, Scope};
pub use campaign::{
    execute_recipe, plan_waves, CampaignRecipe, CampaignReport, CampaignSpec, RecipeOutcome,
    DEFAULT_MAX_IN_FLIGHT, STEER_FLAKY_THRESHOLD,
};
pub use checker::{
    at_most_requests, check_status, combine, num_requests, reply_latency, request_rate,
    AssertionChecker, Check, CombineStep, View,
};
pub use dispatch::{
    plan_shards, reassign, CampaignDispatcher, HttpOperator, LocalOperator, OperatorServer,
    OperatorStatus, OperatorTransport, WaveRequest, WaveResponse, DISPATCH_SCHEMA_VERSION,
};
pub use error::CoreError;
pub use flight::{
    load_baselines, FlightLog, FlightMeta, FlightRecorder, FlightSummary, MatrixSnapshot,
    TimeSeriesLine, FLIGHT_SCHEMA_VERSION,
};
pub use graph::AppGraph;
pub use ledger::{
    append_campaign_entries, cells_for_scenario, intensity_bucket, CellKey, CellObservation,
    CellStats, CoverageLedger, FaultKind, LedgerEntry, LedgerSummary, Regression, RegressionKind,
    RunOutcome, RunSummary, Steering, SteeringPlan, DEFAULT_DRIFT_Z, SERVICE_WILDCARD,
};
pub use monitor::{
    AlertEvent, LiveCheck, LiveMonitor, MonitorRecord, MonitorSpec, StreamingAssertion, Verdict,
};
pub use orchestrator::{FailureOrchestrator, OrchestrationStats};
pub use recipe::{RecipeReport, RecipeRun, TestContext};
pub use scenarios::{Scenario, ScenarioKind};
pub use timeutil::{format_duration, parse_duration};
pub use trace::{
    CallKind, ChildGroup, FlowTrace, Hop, SpanNode, SpanTree, TraceDigest, TraceSummary,
};

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
