//! End-to-end distributed campaign execution: two in-process
//! operator hosts behind real httpwire control endpoints, driven by a
//! [`CampaignDispatcher`] coordinator. The merged report must match a
//! single-host run of the same campaign — the same dispatcher over one
//! in-process `LocalOperator` — (same verdicts, same covered coverage
//! cells), and killing one operator mid-campaign must
//! re-shard its waves to the survivor without losing or duplicating a
//! single `campaigns.jsonl` entry.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use gremlin::core::{
    AppGraph, CampaignDispatcher, CampaignRecipe, CoverageLedger, HttpOperator, OperatorServer,
    OperatorTransport, Scenario, TestContext, WaveRequest, WaveResponse,
};
use gremlin::proxy::{AgentControl, ProxyError, Rule};
use gremlin::store::EventStore;

/// In-memory agent: accepts and records rules, never fails.
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

const PAIRS: [(&str, &str); 6] = [
    ("c1", "s1"),
    ("c2", "s2"),
    ("c3", "s3"),
    ("c4", "s4"),
    ("c5", "s5"),
    ("c6", "s6"),
];

fn graph() -> AppGraph {
    AppGraph::from_edges(PAIRS.to_vec())
}

/// A full fleet slice for one operator host: every client service has
/// an agent, so any recipe can land on any operator.
fn fleet_ctx() -> TestContext {
    let agents: Vec<Arc<dyn AgentControl>> = PAIRS
        .iter()
        .map(|(src, _)| SinkAgent::new(src) as Arc<dyn AgentControl>)
        .collect();
    TestContext::new(graph(), agents, EventStore::shared())
}

/// Six single-edge abort recipes with pairwise-disjoint footprints.
fn recipes() -> Vec<CampaignRecipe> {
    PAIRS
        .iter()
        .map(|(src, dst)| {
            CampaignRecipe::new(format!("{src}-{dst}"))
                .scenario(Scenario::abort(*src, *dst, 503))
                .hold(Duration::from_millis(20))
        })
        .collect()
}

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("gremlin-dist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn ledger_recipe_names(root: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(root.join("campaigns.jsonl")).unwrap();
    text.lines()
        .map(|line| {
            let entry: serde_json::Value = serde_json::from_str(line).unwrap();
            entry["recipe"].as_str().unwrap().to_string()
        })
        .collect()
}

#[test]
fn merged_distributed_report_matches_single_host_run() {
    // Single-host reference run: one in-process operator.
    let single_root = temp_root("single");
    let single = CampaignDispatcher::single_host(fleet_ctx(), Some(single_root.clone()))
        .max_in_flight(3)
        .run(recipes())
        .unwrap();

    // The same campaign over two operator hosts behind real HTTP
    // control endpoints.
    let dist_root = temp_root("merged");
    let alpha = OperatorServer::start("alpha", fleet_ctx(), "127.0.0.1:0", None).unwrap();
    let beta = OperatorServer::start("beta", fleet_ctx(), "127.0.0.1:0", None).unwrap();
    let operators: Vec<Arc<dyn OperatorTransport>> = vec![
        Arc::new(HttpOperator::connect(alpha.local_addr()).unwrap()),
        Arc::new(HttpOperator::connect(beta.local_addr()).unwrap()),
    ];
    let merged = CampaignDispatcher::new(graph(), operators)
        .max_in_flight(3)
        .flight_root(&dist_root)
        .run(recipes())
        .unwrap();

    // Same verdicts, recipe by recipe, and the same overall outcome.
    assert_eq!(single.recipes.len(), merged.recipes.len());
    for (lhs, rhs) in single.recipes.iter().zip(&merged.recipes) {
        assert_eq!(lhs.name, rhs.name);
        assert_eq!(lhs.passed, rhs.passed, "verdict diverged for {}", lhs.name);
        assert_eq!(lhs.injected, rhs.injected);
    }
    assert_eq!(single.passed(), merged.passed());
    assert!(merged.passed(), "{merged}");

    // Same covered coverage cells, scanned back from each ledger.
    let single_cells: BTreeSet<_> = CoverageLedger::scan(&single_root)
        .unwrap()
        .covered_keys()
        .into_iter()
        .collect();
    let merged_cells: BTreeSet<_> = CoverageLedger::scan(&dist_root)
        .unwrap()
        .covered_keys()
        .into_iter()
        .collect();
    assert_eq!(single_cells, merged_cells);
    assert_eq!(single.newly_covered, merged.newly_covered);

    // Both operators actually carried load.
    assert!(alpha.status().waves_executed > 0);
    assert!(beta.status().waves_executed > 0);
    alpha.shutdown();
    beta.shutdown();
    let _ = std::fs::remove_dir_all(&single_root);
    let _ = std::fs::remove_dir_all(&dist_root);
}

/// Transport wrapper that tears down its backing operator server
/// after a scripted number of waves — from the coordinator's point of
/// view the operator host dies mid-campaign.
struct KillableOperator {
    inner: HttpOperator,
    server: Mutex<Option<OperatorServer>>,
    kill_after: usize,
    calls: AtomicUsize,
}

impl OperatorTransport for KillableOperator {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn run_wave(&self, wave: &WaveRequest) -> Result<WaveResponse, gremlin::core::CoreError> {
        if self.calls.fetch_add(1, Ordering::SeqCst) >= self.kill_after {
            if let Some(server) = self.server.lock().unwrap().take() {
                server.shutdown();
            }
        }
        self.inner.run_wave(wave)
    }

    fn clear(&self) -> Result<(), gremlin::core::CoreError> {
        self.inner.clear()
    }
}

#[test]
fn killed_operator_reshards_to_survivor_without_duplicate_ledger_entries() {
    let root = temp_root("reshard");
    let survivor_server =
        OperatorServer::start("survivor", fleet_ctx(), "127.0.0.1:0", None).unwrap();
    let doomed_server = OperatorServer::start("doomed", fleet_ctx(), "127.0.0.1:0", None).unwrap();
    let doomed = KillableOperator {
        inner: HttpOperator::connect(doomed_server.local_addr()).unwrap(),
        server: Mutex::new(Some(doomed_server)),
        kill_after: 1,
        calls: AtomicUsize::new(0),
    };
    let operators: Vec<Arc<dyn OperatorTransport>> = vec![
        Arc::new(HttpOperator::connect(survivor_server.local_addr()).unwrap()),
        Arc::new(doomed),
    ];
    // Per-operator width 1 -> three 2-recipe waves; the doomed
    // operator completes its first slice, then dies on the second.
    let report = CampaignDispatcher::new(graph(), operators)
        .max_in_flight(1)
        .retries(1)
        .backoff(Duration::from_millis(5))
        .flight_root(&root)
        .run(recipes())
        .unwrap();

    // Every recipe completed exactly once despite the mid-campaign
    // death, and the campaign as a whole still passes.
    assert_eq!(report.recipes.len(), 6);
    assert!(report.passed(), "{report}");

    // The ledger holds exactly one entry per recipe — nothing lost,
    // nothing duplicated by the retry/re-shard machinery.
    let mut names = ledger_recipe_names(&root);
    names.sort();
    let mut expected: Vec<String> = PAIRS
        .iter()
        .map(|(src, dst)| format!("{src}-{dst}"))
        .collect();
    expected.sort();
    assert_eq!(names, expected);

    survivor_server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
