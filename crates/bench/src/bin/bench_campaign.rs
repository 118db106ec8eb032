//! Campaign-executor benchmark: concurrent rule fan-out, parallel
//! recipe scheduling, and warmup-free reruns via baseline reuse,
//! exported as machine-readable JSON.
//!
//! Three measurements back the numbers in `DESIGN.md`'s Campaign
//! execution section:
//!
//! 1. **Control-plane fan-out** — a crash scenario pushed to 8 agents
//!    whose control channel costs ~20ms per push, once serially
//!    (`with_max_fanout(1)`) and once with the default concurrent
//!    fan-out. The ratio is the orchestrator's fan-out speedup.
//! 2. **Campaign scheduling** — a 4-recipe campaign over pairwise
//!    disjoint fault edges, once with `max_in_flight = 1` (strict
//!    serial) and once with `max_in_flight = 4` (single wave). CI
//!    gates on the wall-clock speedup staying >= 2x.
//! 3. **Baseline reuse** — a monitored campaign run fresh (anomaly
//!    scorers pay their warmup windows) and again seeded from the
//!    first run's persisted `baselines.json`; the report counts the
//!    runs that skipped warmup and checks the verdicts still agree.
//!
//! Run: `cargo run --release -p gremlin-bench --bin bench_campaign`
//!
//! Output: `BENCH_campaign.json` in the working directory (override
//! with `GREMLIN_BENCH_OUT`); the synthetic event volume behind the
//! baseline-reuse measurement scales with `GREMLIN_BENCH_REQUESTS`
//! (default 2000).

use std::error::Error;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use gremlin_core::{
    AnomalyConfig, AppGraph, CampaignDispatcher, CampaignRecipe, FailureOrchestrator, MonitorSpec,
    Scenario, TestContext,
};
use gremlin_proxy::{AgentControl, ProxyError, Rule};
use gremlin_store::{Event, EventStore};

const FLEET: usize = 8;
const PUSH_LATENCY: Duration = Duration::from_millis(20);
const RECIPES: usize = 4;
const HOLD: Duration = Duration::from_millis(120);

/// An agent whose control channel costs a fixed latency per push —
/// the network round-trip the orchestrator's fan-out amortizes.
struct SleepAgent {
    service: String,
    latency: Duration,
    rules: Mutex<Vec<Rule>>,
}

impl SleepAgent {
    fn new(service: impl Into<String>, latency: Duration) -> Arc<SleepAgent> {
        Arc::new(SleepAgent {
            service: service.into(),
            latency,
            rules: Mutex::new(Vec::new()),
        })
    }
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

fn fleet(pairs: &[(String, String)], latency: Duration) -> Vec<Arc<dyn AgentControl>> {
    pairs
        .iter()
        .map(|(src, _)| SleepAgent::new(src.clone(), latency) as Arc<dyn AgentControl>)
        .collect()
}

/// (1) Fan-out: push one crash scenario to the whole fleet, serially
/// vs. concurrently.
fn measure_fanout() -> Result<serde_json::Value, Box<dyn Error>> {
    let pairs: Vec<(String, String)> = (0..FLEET)
        .map(|i| (format!("c{i}"), "hub".to_string()))
        .collect();
    let graph = AppGraph::from_edges(pairs.clone());
    let scenario = Scenario::crash("hub");

    let serial = FailureOrchestrator::new(fleet(&pairs, PUSH_LATENCY)).with_max_fanout(1);
    let serial_stats = serial.inject(&scenario, &graph)?;

    let parallel = FailureOrchestrator::new(fleet(&pairs, PUSH_LATENCY));
    let parallel_stats = parallel.inject(&scenario, &graph)?;

    let speedup = serial_stats.duration.as_secs_f64() / parallel_stats.duration.as_secs_f64();
    println!(
        "fan-out ({FLEET} agents x {PUSH_LATENCY:?}): serial {:?}, concurrent {:?} ({speedup:.1}x)",
        serial_stats.duration, parallel_stats.duration,
    );
    Ok(serde_json::json!({
        "agents": FLEET,
        "push_latency_ms": PUSH_LATENCY.as_millis() as u64,
        "serial_push_ms": serial_stats.duration.as_secs_f64() * 1e3,
        "concurrent_push_ms": parallel_stats.duration.as_secs_f64() * 1e3,
        "speedup": speedup,
    }))
}

fn campaign_recipes(pairs: &[(String, String)]) -> Vec<CampaignRecipe> {
    pairs
        .iter()
        .map(|(src, dst)| {
            CampaignRecipe::new(format!("{src}-{dst}"))
                .scenario(Scenario::abort(src.clone(), dst.clone(), 503))
                .hold(HOLD)
        })
        .collect()
}

/// (2) Scheduling: the same 4-recipe disjoint-edge campaign, serial
/// vs. one concurrent wave.
fn measure_campaign() -> Result<serde_json::Value, Box<dyn Error>> {
    let pairs: Vec<(String, String)> = (0..RECIPES)
        .map(|i| (format!("c{i}"), format!("s{i}")))
        .collect();
    let agent_latency = Duration::from_millis(2);

    let ctx = TestContext::new(
        AppGraph::from_edges(pairs.clone()),
        fleet(&pairs, agent_latency),
        EventStore::shared(),
    );
    let serial = CampaignDispatcher::single_host(ctx, None)
        .max_in_flight(1)
        .run(campaign_recipes(&pairs))?;
    assert!(serial.passed(), "serial campaign must pass:\n{serial}");

    let ctx = TestContext::new(
        AppGraph::from_edges(pairs.clone()),
        fleet(&pairs, agent_latency),
        EventStore::shared(),
    );
    let parallel = CampaignDispatcher::single_host(ctx, None)
        .max_in_flight(RECIPES)
        .run(campaign_recipes(&pairs))?;
    assert!(
        parallel.passed(),
        "parallel campaign must pass:\n{parallel}"
    );
    assert_eq!(parallel.waves.len(), 1, "disjoint recipes fit one wave");

    let speedup = serial.wall_clock.as_secs_f64() / parallel.wall_clock.as_secs_f64();
    println!(
        "campaign ({RECIPES} disjoint recipes x {HOLD:?} hold): serial {:?}, parallel {:?} ({speedup:.1}x)",
        serial.wall_clock, parallel.wall_clock,
    );
    Ok(serde_json::json!({
        "recipes": RECIPES,
        "hold_ms": HOLD.as_millis() as u64,
        "serial_wall_ms": serial.wall_clock.as_secs_f64() * 1e3,
        "parallel_wall_ms": parallel.wall_clock.as_secs_f64() * 1e3,
        "parallel_waves": parallel.waves.len(),
        "speedup": speedup,
    }))
}

/// Feeds a steady synthetic request/response stream for every edge so
/// the anomaly scorers have traffic to window.
fn feed_traffic(store: &Arc<EventStore>, pairs: &[(String, String)], events: usize) {
    let window_us = 10_000u64;
    let per_window = 5usize;
    let windows = (events / (pairs.len() * per_window)).max(8);
    for w in 0..windows as u64 {
        for (src, dst) in pairs {
            for i in 0..per_window as u64 {
                let ts = w * window_us + i * (window_us / per_window as u64);
                store.record_event(
                    Event::request(src.as_str(), dst.as_str(), "GET", "/x").with_timestamp(ts),
                );
                store.record_event(
                    Event::response(src.as_str(), dst.as_str(), 200, Duration::from_millis(2))
                        .with_timestamp(ts + 500),
                );
            }
        }
        std::thread::sleep(Duration::from_millis(3));
    }
}

/// (3) Baseline reuse: fresh monitored campaign, then the same
/// campaign seeded from the persisted baselines.
fn measure_baseline_reuse(events: usize) -> Result<serde_json::Value, Box<dyn Error>> {
    let pairs: Vec<(String, String)> = (0..2).map(|i| (format!("c{i}"), format!("s{i}"))).collect();
    let monitored = |pairs: &[(String, String)]| -> Vec<CampaignRecipe> {
        pairs
            .iter()
            .map(|(src, dst)| {
                CampaignRecipe::new(format!("{src}-{dst}"))
                    .scenario(Scenario::delay(
                        src.clone(),
                        dst.clone(),
                        Duration::from_millis(1),
                    ))
                    .monitor(
                        MonitorSpec::new(Duration::from_millis(10))
                            .anomaly(AnomalyConfig::default().warmup_windows(2)),
                    )
                    .hold(Duration::from_millis(80))
            })
            .collect()
    };
    let root = std::env::temp_dir().join(format!("gremlin-bench-campaign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // Fresh run: scorers pay the warmup while live traffic flows.
    let ctx = TestContext::new(
        AppGraph::from_edges(pairs.clone()),
        fleet(&pairs, Duration::from_millis(2)),
        EventStore::shared(),
    );
    let feeder = {
        let store = Arc::clone(ctx.store());
        let pairs = pairs.clone();
        std::thread::spawn(move || feed_traffic(&store, &pairs, events))
    };
    let fresh = CampaignDispatcher::single_host(ctx, Some(root.clone())).run(monitored(&pairs))?;
    feeder.join().expect("feeder thread");
    let persisted = gremlin_core::load_baselines(&root)?;
    assert!(!persisted.is_empty(), "fresh campaign must learn baselines");

    // Seeded run: same campaign, warmup skipped everywhere.
    let ctx = TestContext::new(
        AppGraph::from_edges(pairs.clone()),
        fleet(&pairs, Duration::from_millis(2)),
        EventStore::shared(),
    );
    let seeded = CampaignDispatcher::single_host(ctx, None)
        .seed(persisted.clone())
        .run(monitored(&pairs))?;
    let verdicts_match = fresh.passed() == seeded.passed();
    println!(
        "baseline reuse: {} baseline(s) persisted, {}/{} seeded run(s) skipped warmup, verdicts match: {verdicts_match}",
        persisted.len(),
        seeded.warmup_skipped,
        seeded.recipes.len(),
    );
    let _ = std::fs::remove_dir_all(&root);
    Ok(serde_json::json!({
        "persisted_baselines": persisted.len(),
        "monitored_runs": seeded.recipes.len(),
        "warmup_skipped_runs": seeded.warmup_skipped,
        "fresh_warmup_skipped_runs": fresh.warmup_skipped,
        "verdicts_match": verdicts_match,
    }))
}

fn main() -> Result<(), Box<dyn Error>> {
    let events: usize = std::env::var("GREMLIN_BENCH_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000);

    let fanout = measure_fanout()?;
    let campaign = measure_campaign()?;
    let baselines = measure_baseline_reuse(events)?;

    let output = serde_json::json!({
        "benchmark": "campaign_executor",
        "fanout": fanout,
        "campaign": campaign,
        "baseline_reuse": baselines,
    });

    let path =
        std::env::var("GREMLIN_BENCH_OUT").unwrap_or_else(|_| "BENCH_campaign.json".to_string());
    std::fs::write(&path, serde_json::to_string_pretty(&output)?)?;
    println!("wrote {path}");
    Ok(())
}
