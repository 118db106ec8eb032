//! End-to-end causal tracing: a three-deep call chain through live
//! Gremlin agents, with span propagation, retry disambiguation, and
//! critical-path fault attribution.
//!
//! Topology (all calls through sidecar agents):
//!
//! ```text
//! user -> web -> backend -> db     (backend retries db)
//!             -> cache             (fan-out to a second dependency)
//! ```
//!
//! Faults: Delay on web->backend, Disconnect on backend->db. The tree
//! must nest by the propagated `X-Gremlin-Span` headers, classify the
//! db attempts as retries, and put the Delay-faulted hop on the
//! critical path.

use std::time::Duration;

use gremlin::core::{AppGraph, CallKind, Scenario, SpanTree, TestContext};
use gremlin::http::{HttpClient, Method, Request};
use gremlin::mesh::behaviors::{Aggregator, StaticResponder};
use gremlin::mesh::resilience::{Backoff, RetryPolicy};
use gremlin::mesh::{Deployment, ResiliencePolicy, ServiceSpec};
use gremlin::store::{export_otlp, import_otlp, spans_from_store, AppliedFault, OtlpTrace};

#[test]
fn span_tree_reconstructs_deep_chain_with_retries_and_faults() {
    let deployment = Deployment::builder()
        .service(ServiceSpec::new("db", StaticResponder::ok("rows")))
        .service(ServiceSpec::new("cache", StaticResponder::ok("hit")))
        .service(
            ServiceSpec::new("backend", Aggregator::new(vec!["db".into()], "/q")).dependency(
                "db",
                ResiliencePolicy::new()
                    .timeout(Duration::from_secs(1))
                    .retry(RetryPolicy::new(4).with_backoff(Backoff::none())),
            ),
        )
        .service(
            ServiceSpec::new(
                "web",
                Aggregator::new(vec!["backend".into(), "cache".into()], "/api"),
            )
            .dependency(
                "backend",
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
    let graph = AppGraph::from_edges(vec![
        ("user", "web"),
        ("web", "backend"),
        ("web", "cache"),
        ("backend", "db"),
    ]);
    let ctx = TestContext::new(graph, deployment.controls(), deployment.store().clone());

    // Delay the backend hop and sever backend->db so the retry budget
    // is spent on the deepest edge.
    ctx.inject(
        &Scenario::delay("web", "backend", Duration::from_millis(60)).with_pattern("test-*"),
    )
    .unwrap();
    ctx.inject(&Scenario::disconnect("backend", "db").with_pattern("test-*"))
        .unwrap();

    let client = HttpClient::new();
    let response = client
        .send(
            deployment.entry_addr("web").unwrap(),
            Request::builder(Method::Get, "/api")
                .request_id("test-1")
                .build(),
        )
        .unwrap();
    // The aggregators tolerate the dead db, so the flow completes.
    assert!(response.status().is_success(), "{}", response.status());

    let store = deployment.store();
    let tree = SpanTree::from_store(store, "test-1");

    // Three causal levels: user->web, web->backend, backend->db.
    assert!(tree.depth() >= 3, "depth {} in:\n{tree}", tree.depth());

    let root = tree.roots[0];
    assert_eq!(tree.nodes[root].record.src.as_str(), "user");
    assert_eq!(tree.nodes[root].record.dst.as_str(), "web");

    // Every span below the root must nest via the propagated span
    // IDs, not the timestamp fallback.
    let web_backend = tree
        .nodes
        .iter()
        .position(|n| n.record.src.as_str() == "web" && n.record.dst.as_str() == "backend")
        .expect("web->backend span");
    assert_eq!(tree.nodes[web_backend].parent, Some(root));
    assert!(
        !tree.nodes[web_backend].inferred_parent,
        "explicit linkage expected"
    );

    let db_attempts: Vec<usize> = tree
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| n.record.src.as_str() == "backend" && n.record.dst.as_str() == "db")
        .map(|(i, _)| i)
        .collect();
    assert_eq!(db_attempts.len(), 4, "retry budget of 4 in:\n{tree}");
    let backend_span = tree.nodes[db_attempts[0]]
        .parent
        .expect("db attempts have a parent");
    assert_eq!(tree.nodes[backend_span].record.dst.as_str(), "backend");
    assert!(db_attempts.iter().all(|&i| !tree.nodes[i].inferred_parent));

    // The sibling db attempts are sequential retries, not a fan-out;
    // web's calls to backend and cache land in separate groups.
    let groups = tree.child_groups(backend_span);
    let db_group = groups
        .iter()
        .find(|g| g.dst.as_str() == "db")
        .expect("db child group");
    assert_eq!(db_group.kind, CallKind::Retry, "in:\n{tree}");
    assert_eq!(db_group.spans.len(), 4);
    let web_children = tree.child_groups(root);
    assert!(
        web_children.len() >= 2,
        "fan-out to backend and cache: {web_children:?}"
    );

    // The Delay-faulted hop sits on the critical path.
    let path = tree.critical_path();
    assert!(
        path.contains(&web_backend),
        "critical path misses the delayed hop"
    );
    assert!(
        matches!(
            tree.nodes[web_backend].record.fault,
            Some(AppliedFault::Delay { .. })
        ),
        "expected a Delay fault on web->backend: {:?}",
        tree.nodes[web_backend].record.fault
    );
    // And the delay is visible in the observed latency.
    assert!(
        tree.nodes[web_backend]
            .record
            .latency_us
            .is_some_and(|l| l >= 60_000),
        "delay not reflected in latency"
    );

    // The OTLP export round-trips to the same span records.
    let records = spans_from_store(store, "test-1");
    let json = serde_json::to_string(&export_otlp(&records)).unwrap();
    let parsed: OtlpTrace = serde_json::from_str(&json).unwrap();
    assert_eq!(import_otlp(&parsed), records);

    // The per-flow summary agrees with the tree.
    let summary = tree.summary();
    assert_eq!(summary.spans, tree.len());
    assert!(summary.faulted_spans >= 5, "delay + 4 resets: {summary}");
}

#[test]
fn tracing_can_be_disabled_per_agent() {
    use gremlin::proxy::{AgentConfig, GremlinAgent};
    use gremlin::store::EventStore;
    use std::sync::Arc;

    let backend = gremlin::http::HttpServer::bind(
        "127.0.0.1:0",
        |_req: Request, _conn: &gremlin::http::ConnInfo| gremlin::http::Response::ok("ok"),
    )
    .unwrap();
    let store = EventStore::shared();
    let agent = Arc::new(
        GremlinAgent::start(
            AgentConfig::new("web")
                .route("db", vec![backend.local_addr()])
                .tracing(false),
            store.clone(),
        )
        .unwrap(),
    );
    let client = HttpClient::new();
    let addr = agent.route_addr("db").unwrap();
    let response = client
        .send(
            addr,
            Request::builder(Method::Get, "/x")
                .request_id("t-1")
                .build(),
        )
        .unwrap();
    assert!(response.status().is_success());
    assert!(
        response.span_id().is_none(),
        "no span echo when tracing is off"
    );
    let events = store.query(
        &gremlin::store::Query::new().with_id_pattern(gremlin::store::Pattern::Exact("t-1".into())),
    );
    assert!(!events.is_empty());
    assert!(events
        .iter()
        .all(|e| e.span_id.is_none() && e.parent_id.is_none()));
}
