//! End-to-end live monitoring: a mesh with an injected Delay, a
//! collector hosting the streaming assertion engine, and a recipe
//! that aborts early when the latency SLO is violated.
//!
//! Topology: `user -> web` through a sidecar agent. A 60ms Delay on
//! the edge pushes `web`'s reply latency far over the monitored
//! 20ms SLO; the `/alerts` stream must carry the `Failing` flip
//! while the recipe is still driving load, and the recipe's
//! early-abort must tear the fault rules down before the traffic
//! plan completes.

use std::sync::Arc;
use std::time::Duration;

use gremlin::core::{
    AppGraph, LiveMonitor, MonitorSpec, RecipeRun, Scenario, StreamingAssertion, TestContext,
    Verdict,
};
use gremlin::http::{HttpClient, Method, Request};
use gremlin::mesh::behaviors::StaticResponder;
use gremlin::mesh::{Deployment, ServiceSpec};
use gremlin::proxy::{CollectorServer, MonitorSource};
use gremlin::telemetry::MetricsRegistry;

#[test]
fn latency_slo_alerts_stream_and_recipe_aborts_early() {
    let deployment = Deployment::builder()
        .service(ServiceSpec::new("web", StaticResponder::ok("hi")))
        .ingress("user", "web")
        .build()
        .expect("deployment starts");
    let graph = AppGraph::from_edges(vec![("user", "web")]);
    let ctx = TestContext::new(graph, deployment.controls(), deployment.store().clone());

    // The collector hosts its own streaming engine over the same
    // store, so `/alerts` carries verdict transitions to operators.
    let spec = MonitorSpec::new(Duration::from_millis(50))
        .violate_after(2)
        .assert(StreamingAssertion::LatencySlo {
            service: "web".into(),
            quantile: 0.5,
            bound: Duration::from_millis(20),
        });
    let live = Arc::new(LiveMonitor::new(deployment.store().clone(), spec.clone()));
    let collector = CollectorServer::start_with_monitor(
        deployment.store().clone(),
        "127.0.0.1:0",
        MetricsRegistry::shared(),
        Arc::clone(&live) as Arc<dyn MonitorSource>,
    )
    .unwrap();

    // Subscribe to /alerts before any traffic; a background reader
    // collects the NDJSON lines as they stream.
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

    // The recipe attaches its own monitor (the `monitor:` stanza) and
    // stages the outage.
    let mut run = RecipeRun::new("latency-slo", &ctx);
    run.start_monitor(spec);
    run.inject(&Scenario::delay("user", "web", Duration::from_millis(60)).with_pattern("test-*"))
        .unwrap();

    // Drive load until the monitor trips; the plan allows up to 50
    // requests but the early-abort must cut it short.
    let client = HttpClient::new();
    let entry = deployment.entry_addr("web").unwrap();
    let queries_before = ctx
        .telemetry()
        .snapshot()
        .histogram("gremlin_store_query_seconds", &[])
        .map(|h| h.count())
        .unwrap_or(0);
    let mut sent = 0u32;
    let mut aborted = false;
    for i in 0..50u32 {
        let response = client
            .send(
                entry,
                Request::builder(Method::Get, "/ping")
                    .request_id(format!("test-{i}"))
                    .build(),
            )
            .unwrap();
        assert!(response.status().is_success(), "{}", response.status());
        sent += 1;
        if run.abort_if_violated().unwrap() {
            aborted = true;
            break;
        }
    }
    assert!(
        aborted,
        "monitor never reached Violated after {sent} requests"
    );
    assert!(sent < 50, "early abort must cut the traffic plan short");

    // Tear-down: every agent's rule table is empty again.
    for agent in deployment.controls() {
        assert!(
            agent.list_rules().unwrap().is_empty(),
            "rules must be cleared on early abort"
        );
    }

    // Streaming evaluation never rescanned the store: the query
    // histogram saw no new samples while the monitor ran.
    let queries_after = ctx
        .telemetry()
        .snapshot()
        .histogram("gremlin_store_query_seconds", &[])
        .map(|h| h.count())
        .unwrap_or(0);
    assert_eq!(
        queries_before, queries_after,
        "live monitoring must use the tail read, not store queries"
    );

    // The alert stream carried the Failing flip while the run was
    // still in flight (the reader thread collected it live).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let lines = alert_lines.lock().unwrap().clone();
        let failing = lines
            .iter()
            .any(|l| l.contains("\"to\":\"failing\"") && l.contains("LiveLatencySlo"));
        if failing {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no Failing alert on /alerts; saw: {lines:#?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // The report records the flip times and fails the run.
    let report = run.finish();
    assert!(!report.passed);
    assert_eq!(report.monitor.len(), 1);
    assert_eq!(report.monitor[0].verdict, Verdict::Violated);
    assert!(report.monitor[0].first_failing_at_us.is_some());
    assert!(report.monitor[0].violated_at_us.is_some());

    // The collector's /health matrix shows live traffic on the edge.
    let health = client
        .send(collector.local_addr(), Request::get("/health"))
        .unwrap();
    let body: serde_json::Value = serde_json::from_str(&health.body_str()).unwrap();
    let edges = body["edges"].as_array().expect("edges array");
    let edge = edges
        .iter()
        .find(|e| e["src"] == "user" && e["dst"] == "web")
        .expect("user->web edge in health matrix");
    assert!(edge["requests"].as_u64().unwrap() > 0);
    // The matrix's sliding window is the monitor's 50ms: once traffic
    // stops, the newest event is a reply stamped at least the injected
    // 60ms after its request, so no request is left inside the window
    // and the windowed rate is 0 by construction. What the matrix does
    // show of the live run is the delayed replies themselves.
    assert!(edge["responses"].as_u64().unwrap() > 0, "{edge}");
    assert!(edge["p50_us"].as_u64().unwrap() >= 50_000, "{edge}");
    let checks = body["checks"].as_array().expect("checks array");
    assert!(
        checks.iter().any(|c| c["name"]
            .as_str()
            .is_some_and(|n| n.contains("LiveLatencySlo"))),
        "{checks:?}"
    );
}
