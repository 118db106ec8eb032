//! Distributed-dispatch benchmark: the same footprint-disjoint
//! campaign on one host vs. sharded across two operator hosts behind
//! real httpwire control endpoints, exported as machine-readable JSON.
//!
//! Three measurements back `DESIGN.md`'s Distributed campaigns
//! section, and CI's `distributed-smoke` job gates on them:
//!
//! 1. **Shard speedup** — an 8-recipe campaign over pairwise disjoint
//!    fault edges, once on a single host (one in-process operator, the
//!    same dispatcher) with `max_in_flight = 2` and
//!    once sharded across 2 operators each running `max_in_flight = 2`
//!    (double the effective wave width). CI gates on the wall-clock
//!    speedup staying >= 1.5x.
//! 2. **Merge parity + determinism** — the merged distributed report
//!    must carry the same per-recipe verdicts and the same covered
//!    coverage cells as the single-host run, and a second distributed
//!    run must reproduce both exactly.
//! 3. **Failover** — one operator dies after its first wave; the
//!    campaign must still complete every recipe, with exactly one
//!    `campaigns.jsonl` entry per recipe.
//!
//! Run: `cargo run --release -p gremlin-bench --bin bench_dispatch`
//!
//! Output: `BENCH_dispatch.json` in the working directory (override
//! with `GREMLIN_BENCH_OUT`).

use std::collections::BTreeSet;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use gremlin_core::{
    AppGraph, CampaignDispatcher, CampaignRecipe, CampaignReport, CoverageLedger, HttpOperator,
    OperatorServer, OperatorTransport, Scenario, TestContext, WaveRequest, WaveResponse,
};
use gremlin_proxy::{AgentControl, ProxyError, Rule};
use gremlin_store::EventStore;

const RECIPES: usize = 8;
const OPERATORS: usize = 2;
const MAX_IN_FLIGHT: usize = 2;
const HOLD: Duration = Duration::from_millis(120);

/// An agent whose control channel costs a fixed latency per push.
struct SleepAgent {
    service: String,
    latency: Duration,
    rules: Mutex<Vec<Rule>>,
}

impl AgentControl for SleepAgent {
    fn service_name(&self) -> String {
        self.service.clone()
    }

    fn install_rules(&self, rules: &[Rule]) -> Result<(), ProxyError> {
        std::thread::sleep(self.latency);
        self.rules.lock().unwrap().extend(rules.iter().cloned());
        Ok(())
    }

    fn clear_rules(&self) -> Result<(), ProxyError> {
        self.rules.lock().unwrap().clear();
        Ok(())
    }

    fn list_rules(&self) -> Result<Vec<Rule>, ProxyError> {
        Ok(self.rules.lock().unwrap().clone())
    }
}

fn pairs() -> Vec<(String, String)> {
    (0..RECIPES)
        .map(|i| (format!("c{i}"), format!("s{i}")))
        .collect()
}

fn graph() -> AppGraph {
    AppGraph::from_edges(pairs())
}

fn fleet_ctx() -> TestContext {
    let agents: Vec<Arc<dyn AgentControl>> = pairs()
        .iter()
        .map(|(src, _)| {
            Arc::new(SleepAgent {
                service: src.clone(),
                latency: Duration::from_millis(2),
                rules: Mutex::new(Vec::new()),
            }) as Arc<dyn AgentControl>
        })
        .collect();
    TestContext::new(graph(), agents, EventStore::shared())
}

fn recipes() -> Vec<CampaignRecipe> {
    pairs()
        .iter()
        .map(|(src, dst)| {
            CampaignRecipe::new(format!("{src}-{dst}"))
                .scenario(Scenario::abort(src.clone(), dst.clone(), 503))
                .hold(HOLD)
        })
        .collect()
}

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "gremlin-bench-dispatch-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn covered_cells(root: &Path) -> BTreeSet<String> {
    CoverageLedger::scan(root)
        .map(|ledger| {
            ledger
                .covered_keys()
                .into_iter()
                .map(|key| format!("{key:?}"))
                .collect()
        })
        .unwrap_or_default()
}

fn verdicts(report: &CampaignReport) -> Vec<(String, bool)> {
    report
        .recipes
        .iter()
        .map(|recipe| (recipe.name.clone(), recipe.passed))
        .collect()
}

/// Runs the campaign sharded across two fresh HTTP operator hosts.
fn run_distributed(root: &Path) -> Result<CampaignReport, Box<dyn Error>> {
    let servers: Vec<OperatorServer> = (0..OPERATORS)
        .map(|i| OperatorServer::start(format!("op-{i}"), fleet_ctx(), "127.0.0.1:0", None))
        .collect::<Result<_, _>>()?;
    let operators: Vec<Arc<dyn OperatorTransport>> = servers
        .iter()
        .map(|server| {
            HttpOperator::connect(server.local_addr())
                .map(|op| Arc::new(op) as Arc<dyn OperatorTransport>)
        })
        .collect::<Result<_, _>>()?;
    let report = CampaignDispatcher::new(graph(), operators)
        .max_in_flight(MAX_IN_FLIGHT)
        .flight_root(root)
        .run(recipes())?;
    for server in servers {
        server.shutdown();
    }
    Ok(report)
}

/// Transport wrapper that kills its backing server after one wave.
struct KillableOperator {
    inner: HttpOperator,
    server: Mutex<Option<OperatorServer>>,
    calls: AtomicUsize,
}

impl OperatorTransport for KillableOperator {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn run_wave(&self, wave: &WaveRequest) -> Result<WaveResponse, gremlin_core::CoreError> {
        if self.calls.fetch_add(1, Ordering::SeqCst) >= 1 {
            if let Some(server) = self.server.lock().unwrap().take() {
                server.shutdown();
            }
        }
        self.inner.run_wave(wave)
    }

    fn clear(&self) -> Result<(), gremlin_core::CoreError> {
        self.inner.clear()
    }
}

fn main() -> Result<(), Box<dyn Error>> {
    // (1) Single-host reference run.
    let single_root = temp_root("single");
    let single = CampaignDispatcher::single_host(fleet_ctx(), Some(single_root.clone()))
        .max_in_flight(MAX_IN_FLIGHT)
        .run(recipes())?;
    assert!(single.passed(), "single-host campaign must pass:\n{single}");

    // (2) The same campaign sharded across two operator hosts, twice
    // (the second run checks determinism of the merge).
    let dist_root = temp_root("dist");
    let merged = run_distributed(&dist_root)?;
    assert!(merged.passed(), "distributed campaign must pass:\n{merged}");
    let rerun_root = temp_root("rerun");
    let rerun = run_distributed(&rerun_root)?;

    let speedup = single.wall_clock.as_secs_f64() / merged.wall_clock.as_secs_f64();
    let verdicts_match = verdicts(&single) == verdicts(&merged);
    let coverage_match = covered_cells(&single_root) == covered_cells(&dist_root);
    let deterministic = verdicts(&merged) == verdicts(&rerun)
        && covered_cells(&dist_root) == covered_cells(&rerun_root);
    println!(
        "dispatch ({RECIPES} disjoint recipes x {HOLD:?} hold): single-host {:?}, {OPERATORS} operators {:?} ({speedup:.1}x); verdicts match: {verdicts_match}, coverage match: {coverage_match}, deterministic: {deterministic}",
        single.wall_clock, merged.wall_clock,
    );

    // (3) Failover: one operator dies after its first wave.
    let failover_root = temp_root("failover");
    let survivor = OperatorServer::start("survivor", fleet_ctx(), "127.0.0.1:0", None)?;
    let doomed_server = OperatorServer::start("doomed", fleet_ctx(), "127.0.0.1:0", None)?;
    let doomed = KillableOperator {
        inner: HttpOperator::connect(doomed_server.local_addr())?,
        server: Mutex::new(Some(doomed_server)),
        calls: AtomicUsize::new(0),
    };
    let operators: Vec<Arc<dyn OperatorTransport>> = vec![
        Arc::new(HttpOperator::connect(survivor.local_addr())?),
        Arc::new(doomed),
    ];
    let failover = CampaignDispatcher::new(graph(), operators)
        .max_in_flight(MAX_IN_FLIGHT)
        .retries(1)
        .backoff(Duration::from_millis(5))
        .flight_root(&failover_root)
        .run(recipes())?;
    survivor.shutdown();
    let failover_complete = failover.recipes.len() == RECIPES && failover.passed();
    let mut entry_names: Vec<String> =
        std::fs::read_to_string(failover_root.join("campaigns.jsonl"))?
            .lines()
            .map(|line| {
                let entry: serde_json::Value = serde_json::from_str(line).unwrap();
                entry["recipe"].as_str().unwrap().to_string()
            })
            .collect();
    entry_names.sort();
    let mut expected: Vec<String> = recipes().iter().map(|r| r.name.clone()).collect();
    expected.sort();
    let failover_entries_unique = entry_names == expected;
    println!(
        "failover: campaign complete: {failover_complete}, ledger exactly-once: {failover_entries_unique}"
    );

    for root in [&single_root, &dist_root, &rerun_root, &failover_root] {
        let _ = std::fs::remove_dir_all(root);
    }

    let output = serde_json::json!({
        "benchmark": "distributed_dispatch",
        "dispatch": {
            "recipes": RECIPES,
            "operators": OPERATORS,
            "max_in_flight_per_operator": MAX_IN_FLIGHT,
            "hold_ms": HOLD.as_millis() as u64,
            "single_host_wall_ms": single.wall_clock.as_secs_f64() * 1e3,
            "distributed_wall_ms": merged.wall_clock.as_secs_f64() * 1e3,
            "speedup": speedup,
        },
        "parity": {
            "verdicts_match": verdicts_match,
            "coverage_match": coverage_match,
            "deterministic": deterministic,
        },
        "failover": {
            "campaign_complete": failover_complete,
            "ledger_exactly_once": failover_entries_unique,
        },
    });

    let path =
        std::env::var("GREMLIN_BENCH_OUT").unwrap_or_else(|_| "BENCH_dispatch.json".to_string());
    std::fs::write(&path, serde_json::to_string_pretty(&output)?)?;
    println!("wrote {path}");
    Ok(())
}
