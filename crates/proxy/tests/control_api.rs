//! Tests of the REST control channel: ControlServer + ControlClient.

use std::sync::Arc;
use std::time::Duration;

use gremlin_http::{ConnInfo, HttpClient, HttpServer, Method, Request, Response, StatusCode};
use gremlin_proxy::{
    AbortKind, AgentConfig, AgentControl, ControlClient, ControlServer, GremlinAgent, Rule,
};
use gremlin_store::EventStore;

fn start_agent() -> (HttpServer, Arc<GremlinAgent>) {
    let backend = HttpServer::bind("127.0.0.1:0", |_req: Request, _conn: &ConnInfo| {
        Response::ok("ok")
    })
    .unwrap();
    let store = EventStore::shared();
    let agent = Arc::new(
        GremlinAgent::start(
            AgentConfig::new("serviceA").route("serviceB", vec![backend.local_addr()]),
            store,
        )
        .unwrap(),
    );
    (backend, agent)
}

#[test]
fn control_round_trip_over_http() {
    let (_backend, agent) = start_agent();
    let server = ControlServer::start(Arc::clone(&agent), "127.0.0.1:0").unwrap();
    let client = ControlClient::connect(server.local_addr()).unwrap();

    assert_eq!(client.service_name(), "serviceA");
    let health = client.health().unwrap();
    assert_eq!(health.service, "serviceA");
    assert_eq!(health.rules, 0);

    let rules = vec![
        Rule::abort("serviceA", "serviceB", AbortKind::Status(503)).with_pattern("test-*"),
        Rule::delay("serviceA", "serviceB", Duration::from_millis(100)).with_probability(0.75),
    ];
    client.install_rules(&rules).unwrap();
    assert_eq!(client.health().unwrap().rules, 2);

    let listed = client.list_rules().unwrap();
    assert_eq!(listed, rules);
    // The agent itself sees the same rules.
    assert_eq!(agent.rules(), rules);

    client.clear_rules().unwrap();
    assert!(client.list_rules().unwrap().is_empty());
}

#[test]
fn install_invalid_rule_is_rejected_with_400() {
    let (_backend, agent) = start_agent();
    let server = ControlServer::start(Arc::clone(&agent), "127.0.0.1:0").unwrap();
    let client = ControlClient::connect(server.local_addr()).unwrap();

    let bad =
        vec![Rule::abort("serviceA", "serviceB", AbortKind::Status(503)).with_probability(7.0)];
    let err = client.install_rules(&bad).unwrap_err();
    assert!(err.to_string().contains("400") || err.to_string().contains("probability"));
    assert!(agent.rules().is_empty());
}

#[test]
fn malformed_payload_is_rejected() {
    let (_backend, agent) = start_agent();
    let server = ControlServer::start(Arc::clone(&agent), "127.0.0.1:0").unwrap();
    let http = HttpClient::new();
    let resp = http
        .send(
            server.local_addr(),
            Request::builder(Method::Post, "/rules")
                .body("not json")
                .build(),
        )
        .unwrap();
    assert_eq!(resp.status(), StatusCode::BAD_REQUEST);
}

#[test]
fn single_rule_object_is_accepted() {
    let (_backend, agent) = start_agent();
    let server = ControlServer::start(Arc::clone(&agent), "127.0.0.1:0").unwrap();
    let http = HttpClient::new();
    let rule = Rule::abort("serviceA", "serviceB", AbortKind::Reset);
    let resp = http
        .send(
            server.local_addr(),
            Request::builder(Method::Post, "/rules")
                .body(serde_json::to_string(&rule).unwrap())
                .build(),
        )
        .unwrap();
    assert_eq!(resp.status(), StatusCode::NO_CONTENT);
    assert_eq!(agent.rules(), vec![rule]);
}

#[test]
fn stats_reflect_data_path_activity() {
    let (_backend, agent) = start_agent();
    let server = ControlServer::start(Arc::clone(&agent), "127.0.0.1:0").unwrap();
    let control = ControlClient::connect(server.local_addr()).unwrap();

    let before = control.stats().unwrap();
    assert_eq!(before.rule_checks, 0);
    assert_eq!(before.routes.len(), 1);
    assert_eq!(before.routes[0].0, "serviceB");

    // Drive one call through the data path.
    let data = HttpClient::new();
    let addr = agent.route_addr("serviceB").unwrap();
    data.send(addr, Request::get("/x")).unwrap();

    let after = control.stats().unwrap();
    assert_eq!(after.rule_checks, 2, "request + response side");
    assert_eq!(after.rule_hits, 0);
}

#[test]
fn unknown_path_is_404() {
    let (_backend, agent) = start_agent();
    let server = ControlServer::start(agent, "127.0.0.1:0").unwrap();
    let http = HttpClient::new();
    let resp = http
        .send(server.local_addr(), Request::get("/nope"))
        .unwrap();
    assert_eq!(resp.status(), StatusCode::NOT_FOUND);
}

#[test]
fn connect_to_dead_endpoint_fails() {
    let dead = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    assert!(ControlClient::connect(dead).is_err());
}

#[test]
fn control_server_with_store_serves_traces() {
    let backend = HttpServer::bind("127.0.0.1:0", |_req: Request, _conn: &ConnInfo| {
        Response::ok("ok")
    })
    .unwrap();
    let store = EventStore::shared();
    let agent = Arc::new(
        GremlinAgent::start(
            AgentConfig::new("serviceA").route("serviceB", vec![backend.local_addr()]),
            store.clone(),
        )
        .unwrap(),
    );
    let server = ControlServer::start_with_store(Arc::clone(&agent), store, "127.0.0.1:0").unwrap();

    // Drive one call with a request ID so the store has a flow.
    let data = HttpClient::new();
    let addr = agent.route_addr("serviceB").unwrap();
    data.send(
        addr,
        Request::builder(Method::Get, "/x")
            .request_id("trace-1")
            .build(),
    )
    .unwrap();

    let http = HttpClient::new();
    let resp = http
        .send(server.local_addr(), Request::get("/traces/trace-1"))
        .unwrap();
    assert_eq!(resp.status(), StatusCode::OK);
    let otlp: serde_json::Value = serde_json::from_slice(resp.body()).unwrap();
    let spans = &otlp["resourceSpans"][0]["scopeSpans"][0]["spans"];
    assert!(spans.as_array().map(|s| !s.is_empty()).unwrap_or(false));

    // Unknown flows 404; the base control routes still answer.
    let missing = http
        .send(server.local_addr(), Request::get("/traces/nope"))
        .unwrap();
    assert_eq!(missing.status(), StatusCode::NOT_FOUND);
    let health = http
        .send(server.local_addr(), Request::get("/health"))
        .unwrap();
    assert_eq!(health.status(), StatusCode::OK);
}

#[test]
fn rules_installed_over_http_take_effect_on_data_path() {
    let (_backend, agent) = start_agent();
    let server = ControlServer::start(Arc::clone(&agent), "127.0.0.1:0").unwrap();
    let control = ControlClient::connect(server.local_addr()).unwrap();
    control
        .install_rules(&[
            Rule::abort("serviceA", "serviceB", AbortKind::Status(503)).with_pattern("test-*")
        ])
        .unwrap();

    let data = HttpClient::new();
    let addr = agent.route_addr("serviceB").unwrap();
    let resp = data
        .send(
            addr,
            Request::builder(Method::Get, "/x")
                .request_id("test-1")
                .build(),
        )
        .unwrap();
    assert_eq!(resp.status(), StatusCode::SERVICE_UNAVAILABLE);
}
