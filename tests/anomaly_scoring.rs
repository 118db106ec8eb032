//! End-to-end adaptive anomaly detection: a fan-out mesh, a
//! fault-free warmup that learns per-edge baselines, and a Delay
//! injection that must flag *only* the faulted edge — with zero
//! fixed thresholds anywhere in the recipe.
//!
//! Topology (all calls through sidecar agents):
//!
//! ```text
//! user -> web -> db
//!             -> cache
//! ```
//!
//! The monitor carries an `anomaly:` config and a single
//! `AnomalousEdge(user -> web)` assertion. After the baselines are
//! learned, a 60ms Delay on `user -> web` must drive that edge to
//! `Anomalous` (violating the assertion and aborting the run early)
//! while the sibling edges `web -> db` and `web -> cache` — whose
//! latency never changed — stay `Nominal`. The whole run is flight-
//! recorded and replayed from disk at the end.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gremlin::core::{
    AnomalyConfig, AppGraph, EdgeState, FlightLog, LiveMonitor, MonitorSpec, RecipeRun, Scenario,
    StreamingAssertion, TestContext,
};
use gremlin::http::{HttpClient, Method, Request};
use gremlin::mesh::behaviors::{Aggregator, StaticResponder};
use gremlin::mesh::{Deployment, ResiliencePolicy, ServiceSpec};
use gremlin::proxy::{CollectorServer, MonitorSource, HEALTH_SCHEMA_VERSION};
use gremlin::telemetry::MetricsRegistry;

/// Paced request tick. Longer than the injected delay so the
/// request *rate* on every edge stays constant across the fault —
/// only latency deviates, which is exactly what the scorer must
/// isolate.
const TICK: Duration = Duration::from_millis(75);

#[test]
fn delay_flags_only_the_faulted_edge_and_replays_from_disk() {
    let deployment = Deployment::builder()
        .service(ServiceSpec::new("db", StaticResponder::ok("rows")))
        .service(ServiceSpec::new("cache", StaticResponder::ok("hit")))
        .service(
            ServiceSpec::new(
                "web",
                Aggregator::new(vec!["db".into(), "cache".into()], "/api"),
            )
            .dependency(
                "db",
                ResiliencePolicy::new().timeout(Duration::from_secs(5)),
            )
            .dependency(
                "cache",
                ResiliencePolicy::new().timeout(Duration::from_secs(5)),
            ),
        )
        .ingress("user", "web")
        .build()
        .expect("deployment starts");
    let graph = AppGraph::from_edges(vec![("user", "web"), ("web", "db"), ("web", "cache")]);
    let ctx = TestContext::new(graph, deployment.controls(), deployment.store().clone());

    // No latency/error/rate numbers anywhere: the only tuning is the
    // warmup length and the (defaulted) hysteresis counts.
    let spec = MonitorSpec::new(Duration::from_millis(500))
        .anomaly(AnomalyConfig::default().warmup_windows(4))
        .assert(StreamingAssertion::AnomalousEdge {
            src: "user".into(),
            dst: "web".into(),
        });

    // The collector hosts its own copy of the engine over the same
    // store so /health and /alerts carry scores and anomaly records.
    let live = Arc::new(LiveMonitor::new(deployment.store().clone(), spec.clone()));
    let collector = CollectorServer::start_with_monitor(
        deployment.store().clone(),
        "127.0.0.1:0",
        MetricsRegistry::shared(),
        Arc::clone(&live) as Arc<dyn MonitorSource>,
    )
    .unwrap();

    // Background /alerts subscriber collecting NDJSON lines live.
    let alert_lines: Arc<std::sync::Mutex<Vec<String>>> =
        Arc::new(std::sync::Mutex::new(Vec::new()));
    {
        let sink = Arc::clone(&alert_lines);
        let addr = collector.local_addr();
        std::thread::spawn(move || {
            let stream = std::net::TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            let mut writer = stream.try_clone().unwrap();
            gremlin::http::codec::write_request(&mut writer, &Request::get("/alerts")).unwrap();
            let mut reader = std::io::BufReader::new(stream);
            let _head = gremlin::http::codec::read_response_head(&mut reader).unwrap();
            let mut chunks = gremlin::http::codec::ChunkReader::new(reader);
            let mut pending = String::new();
            while let Ok(Some(chunk)) = chunks.next_chunk() {
                pending.push_str(&String::from_utf8_lossy(&chunk));
                while let Some(pos) = pending.find('\n') {
                    let line: String = pending.drain(..=pos).collect();
                    let line = line.trim();
                    if !line.is_empty() {
                        sink.lock().unwrap().push(line.to_string());
                    }
                }
            }
        });
    }

    // CI points GREMLIN_FLIGHT_ROOT at a workspace path so the
    // artifacts survive the test for `gremlin coverage` to scan;
    // unset, the recording lands in (and is cleaned from) the temp
    // dir as before.
    let (flight_root, ephemeral) = match std::env::var_os("GREMLIN_FLIGHT_ROOT") {
        Some(root) => (std::path::PathBuf::from(root), false),
        None => {
            let root =
                std::env::temp_dir().join(format!("gremlin-anomaly-e2e-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            (root, true)
        }
    };

    let mut run = RecipeRun::new("anomaly-delay", &ctx);
    run.start_monitor(spec);
    let flight_dir = run.start_flight_recorder(&flight_root).unwrap();

    let client = HttpClient::new();
    let entry = deployment.entry_addr("web").unwrap();
    let queries_before = ctx
        .telemetry()
        .snapshot()
        .histogram("gremlin_store_query_seconds", &[])
        .map(|h| h.count())
        .unwrap_or(0);

    // Absolute-tick pacing: request i goes out at start + i*TICK, so
    // the rate is immune to per-request latency (including the
    // injected delay later).
    let start = Instant::now();
    let mut tick = 0u32;
    let send_one = |tick: u32| {
        let target = start + TICK * tick;
        std::thread::sleep(target.saturating_duration_since(Instant::now()));
        let response = client
            .send(
                entry,
                Request::builder(Method::Get, "/api")
                    .request_id(format!("test-{tick}"))
                    .build(),
            )
            .unwrap();
        assert!(response.status().is_success(), "{}", response.status());
    };

    // Phase 1 — fault-free warmup: drive paced load until every edge
    // has a learned baseline (warmup_windows=4 windows of 500ms, so
    // roughly 2.5s; the loop is adaptive to absorb scheduler jitter).
    let warmed = loop {
        assert!(tick < 120, "baselines never learned after {tick} ticks");
        send_one(tick);
        tick += 1;
        run.poll_monitor();
        let scores = run.monitor().unwrap().anomaly_scores();
        let baselines = scores.iter().filter(|s| s.baseline.is_some()).count();
        if baselines >= 3 {
            break scores;
        }
    };
    for score in &warmed {
        assert_eq!(
            score.state,
            EdgeState::Nominal,
            "fault-free warmup must end Nominal: {score:?}"
        );
    }
    assert!(!run.abort_if_violated().unwrap(), "nothing staged yet");

    // Phase 2 — inject the Delay on the ingress edge only. 60ms is
    // far outside the learned latency dispersion but well under TICK,
    // so request rates stay flat everywhere.
    run.inject(&Scenario::delay("user", "web", Duration::from_millis(60)).with_pattern("test-*"))
        .unwrap();
    let mut aborted = false;
    let fault_budget = tick + 80; // ~6s of faulted traffic at most
    while tick < fault_budget {
        send_one(tick);
        tick += 1;
        if run.abort_if_violated().unwrap() {
            aborted = true;
            break;
        }
    }
    assert!(aborted, "AnomalousEdge never violated after {tick} ticks");

    // Early abort cleared every agent's rule table.
    for agent in deployment.controls() {
        assert!(
            agent.list_rules().unwrap().is_empty(),
            "rules must be cleared on early abort"
        );
    }

    // Only the faulted edge is anomalous; its siblings never left
    // Nominal even though every request traversed them too.
    let scores = run.monitor().unwrap().anomaly_scores();
    let state_of = |src: &str, dst: &str| {
        scores
            .iter()
            .find(|s| s.src == src && s.dst == dst)
            .unwrap_or_else(|| panic!("no score for {src} -> {dst}: {scores:?}"))
            .clone()
    };
    let flagged = state_of("user", "web");
    assert_eq!(flagged.state, EdgeState::Anomalous, "{flagged:?}");
    assert!(flagged.first_suspect_at_us.is_some());
    assert!(flagged.anomalous_at_us.is_some());
    assert!(flagged.latency_z > flagged.rate_z, "{flagged:?}");
    assert_eq!(state_of("web", "db").state, EdgeState::Nominal);
    assert_eq!(state_of("web", "cache").state, EdgeState::Nominal);

    // Streaming evaluation never rescanned the store.
    let queries_after = ctx
        .telemetry()
        .snapshot()
        .histogram("gremlin_store_query_seconds", &[])
        .map(|h| h.count())
        .unwrap_or(0);
    assert_eq!(
        queries_before, queries_after,
        "anomaly scoring must ride the tail read, not store queries"
    );

    // The collector's /health carries the versioned schema, the
    // learned baseline fields, and the per-edge states.
    let health = client
        .send(collector.local_addr(), Request::get("/health"))
        .unwrap();
    let body: serde_json::Value = serde_json::from_str(&health.body_str()).unwrap();
    assert_eq!(body["schema_version"], u64::from(HEALTH_SCHEMA_VERSION));
    let health_scores = body["scores"].as_array().expect("scores array");
    let health_score = |src: &str, dst: &str| {
        health_scores
            .iter()
            .find(|s| s["src"] == src && s["dst"] == dst)
            .unwrap_or_else(|| panic!("no /health score for {src} -> {dst}: {health_scores:?}"))
    };
    let flagged_json = health_score("user", "web");
    assert_eq!(flagged_json["state"], "anomalous", "{flagged_json}");
    let baseline = &flagged_json["baseline"];
    assert!(baseline["p50_us"].as_u64().unwrap() > 0, "{baseline}");
    assert!(baseline["rate_ewma"].as_f64().unwrap() > 0.0, "{baseline}");
    assert_eq!(health_score("web", "db")["state"], "nominal");
    assert_eq!(health_score("web", "cache")["state"], "nominal");

    // The /alerts stream interleaved anomaly records with verdicts.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let lines = alert_lines.lock().unwrap().clone();
        let saw_anomaly = lines
            .iter()
            .any(|l| l.contains("\"kind\":\"anomaly\"") && l.contains("\"to\":\"anomalous\""));
        let saw_verdict = lines.iter().any(|l| l.contains("\"kind\":\"verdict\""));
        if saw_anomaly && saw_verdict {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no anomaly record on /alerts; saw: {lines:#?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // The report ranks the anomalous edge and fails the run.
    let report = run.finish();
    assert!(!report.passed);
    assert_eq!(report.anomalies.len(), 1, "{:?}", report.anomalies);
    assert_eq!(report.anomalies[0].src, "user");
    assert_eq!(report.anomalies[0].dst, "web");
    let text = report.to_string();
    assert!(text.contains("anomaly: user -> web anomalous"), "{text}");
    assert!(report.to_markdown().contains("**Anomalous edges**"));
    assert_eq!(report.flight_dir.as_deref(), Some(flight_dir.as_path()));

    // Replay: the persisted directory reproduces the run's verdict
    // and anomaly timeline offline.
    let log = FlightLog::load(&flight_dir).unwrap();
    assert_eq!(log.meta.recipe, "anomaly-delay");
    assert!(
        log.records
            .iter()
            .any(|r| matches!(r, gremlin::core::MonitorRecord::Anomaly(a)
                if a.src == "user" && a.dst == "web" && a.to == EdgeState::Anomalous)),
        "persisted log must carry the Anomalous transition"
    );
    let timeline = log.render_timeline();
    assert!(timeline.contains("anomaly"), "{timeline}");
    assert!(timeline.contains("anomalous edges:"), "{timeline}");
    assert!(timeline.contains("user -> web: anomalous"), "{timeline}");
    assert!(timeline.contains("outcome: FAILED"), "{timeline}");
    let summary = log.report.expect("report.json written on finish");
    assert!(!summary.passed);
    assert_eq!(summary.anomalies.len(), 1);

    if ephemeral {
        let _ = std::fs::remove_dir_all(&flight_root);
    }
}
