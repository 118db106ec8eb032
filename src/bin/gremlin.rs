//! `gremlin` — the operator CLI for the Gremlin resilience-testing
//! framework.
//!
//! The paper's operators drive Gremlin from Python scripts; this
//! binary provides the equivalent command-line workflow against
//! running agents and exported observation logs:
//!
//! ```text
//! gremlin graph app.json [--dot]          inspect an application graph
//! gremlin translate app.json outage.json  scenario -> fault-injection rules
//! gremlin install app.json outage.json --agents 10.0.0.1:7070,10.0.0.2:7070
//! gremlin campaign app.json campaign.json --agents ...   run recipes in parallel waves
//! gremlin campaign app.json campaign.json --operators h1:7080,h2:7080   shard waves across operator hosts
//! gremlin operator serve app.json --agents ...   serve this host's fleet slice to a coordinator
//! gremlin rules <agent-addr>              list an agent's installed rules
//! gremlin clear --agents a,b,c            flush rules everywhere
//! gremlin health <agent-addr>             agent status
//! gremlin check events.ndjson --assert timeouts --service web --max-latency 1s
//! gremlin trace events.ndjson test-42     span tree + waterfall for one flow
//! gremlin trace events.ndjson test-42 --json   OTLP-style JSON export
//! gremlin tail <collector-addr>           live event stream from a collector
//! gremlin watch <collector-addr>          live per-edge health + check dashboard
//! gremlin replay <run-dir>                re-render a recorded run's timeline
//! gremlin replay --root <flight-root>     list every recorded run, one line each
//! gremlin coverage <flight-root>          cross-run coverage scorecard + regressions
//! gremlin metrics <addr,...>              scrape and summarize /metrics
//! ```
//!
//! Graph files are either the serialized [`AppGraph`] or the simpler
//! `{"edges": [["caller","callee"], ...]}`; scenario files are
//! serialized [`Scenario`] values (see `gremlin translate --help`).

use std::error::Error;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;

use gremlin::core::{
    parse_duration, AppGraph, Assertion, AssertionChecker, CampaignDispatcher, CampaignSpec,
    FailureOrchestrator, FlowTrace, HttpOperator, OperatorServer, OperatorTransport, Scenario,
    TestContext,
};
use gremlin::proxy::{AgentControl, ControlClient};
use gremlin::store::{EventStore, Pattern};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            if !output.is_empty() {
                println!("{output}");
            }
        }
        Err(err) => {
            eprintln!("error: {err}");
            eprintln!();
            eprintln!("{}", usage());
            std::process::exit(1);
        }
    }
}

fn usage() -> &'static str {
    "usage:\n  \
     gremlin graph <graph.json> [--dot]\n  \
     gremlin translate <graph.json> <scenario.json>\n  \
     gremlin install <graph.json> <scenario.json> --agents <addr,...>\n  \
     gremlin campaign <graph.json> <campaign.json> --agents <addr,...> [--max-in-flight <n>] [--serial] [--flight-root <dir>] [--seed <dir>] [--steer-order]\n  \
     gremlin campaign <graph.json> <campaign.json> --operators <addr,...> [--retries <n>] [--backoff <dur>] [campaign options]\n  \
     gremlin operator serve <graph.json> --agents <addr,...> [--listen <addr>] [--name <name>] [--flight-root <dir>]\n  \
     gremlin rules <agent-addr>\n  \
     gremlin clear --agents <addr,...>\n  \
     gremlin health <agent-addr>\n  \
     gremlin check <events.ndjson> --assert <timeouts|bounded-retries|circuit-breaker|request-count> [options]\n  \
     gremlin trace <events.ndjson> <request-id> [--json]\n  \
     gremlin tail <collector-addr> [--from <cursor>] [--limit <n>]\n  \
     gremlin watch <collector-addr> [--json] [--interval <dur>] [--count <n>] [--retries <n>]\n  \
     gremlin top <collector-addr> [--interval <dur>] [--count <n>] [--retries <n>]\n  \
     gremlin replay <run-dir> [--json]       re-render a flight-recorder directory\n  \
     gremlin replay --root <flight-root>     one line per recorded run: recipe, verdict, anomalies\n  \
     gremlin coverage <flight-root> [--graph <graph.json>] [--markdown] [--json] [--drift-z <z>]\n  \
     gremlin generate <graph.json> [--exclude svc]... [--pattern test-*]\n  \
     gremlin metrics <addr,...> [--raw]      scrape /metrics from agents or collectors"
}

fn run(args: &[String]) -> Result<String, Box<dyn Error>> {
    let command = args.first().map(String::as_str).unwrap_or("");
    match command {
        "graph" => cmd_graph(&args[1..]),
        "translate" => cmd_translate(&args[1..]),
        "install" => cmd_install(&args[1..]),
        "campaign" => cmd_campaign(&args[1..]),
        "operator" => cmd_operator(&args[1..]),
        "rules" => cmd_rules(&args[1..]),
        "clear" => cmd_clear(&args[1..]),
        "health" => cmd_health(&args[1..]),
        "check" => cmd_check(&args[1..]),
        "trace" => cmd_trace(&args[1..]),
        "tail" => cmd_tail(&args[1..]),
        "watch" => cmd_watch(&args[1..]),
        "top" => cmd_top(&args[1..]),
        "replay" => cmd_replay(&args[1..]),
        "coverage" => cmd_coverage(&args[1..]),
        "generate" => cmd_generate(&args[1..]),
        "metrics" => cmd_metrics(&args[1..]),
        "" | "help" | "--help" | "-h" => Ok(usage().to_string()),
        other => Err(format!("unknown command {other:?}").into()),
    }
}

// ---------------------------------------------------------------------------
// argument helpers
// ---------------------------------------------------------------------------

/// Returns the value following `--name` in `args`, if present.
fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn positional(args: &[String], index: usize) -> Result<&str, Box<dyn Error>> {
    // Positional = arguments before any --flag.
    let positionals: Vec<&String> = args.iter().take_while(|a| !a.starts_with("--")).collect();
    positionals
        .get(index)
        .map(|s| s.as_str())
        .ok_or_else(|| format!("missing argument #{}", index + 1).into())
}

/// Loads a graph file: either a serialized [`AppGraph`] or the
/// simpler `{"edges": [["a","b"], ...]}`.
fn load_graph(path: &str) -> Result<AppGraph, Box<dyn Error>> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read graph file {path:?}: {e}"))?;
    if let Ok(graph) = serde_json::from_str::<AppGraph>(&text) {
        return Ok(graph);
    }
    #[derive(serde::Deserialize)]
    struct SimpleGraph {
        edges: Vec<(String, String)>,
        #[serde(default)]
        services: Vec<String>,
    }
    let simple: SimpleGraph = serde_json::from_str(&text)
        .map_err(|e| format!("cannot parse graph file {path:?}: {e}"))?;
    let mut graph = AppGraph::from_edges(simple.edges);
    for service in simple.services {
        graph.add_service(service);
    }
    Ok(graph)
}

fn load_scenario(path: &str) -> Result<Scenario, Box<dyn Error>> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read scenario file {path:?}: {e}"))?;
    Ok(serde_json::from_str(&text)
        .map_err(|e| format!("cannot parse scenario file {path:?}: {e}"))?)
}

fn load_events(path: &str) -> Result<Arc<EventStore>, Box<dyn Error>> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read events file {path:?}: {e}"))?;
    let store = EventStore::shared();
    store
        .import_json(&text)
        .map_err(|e| format!("cannot parse events file {path:?}: {e}"))?;
    Ok(store)
}

fn connect_agents(spec: &str) -> Result<Vec<Arc<dyn AgentControl>>, Box<dyn Error>> {
    let mut agents: Vec<Arc<dyn AgentControl>> = Vec::new();
    for part in spec.split(',').filter(|s| !s.is_empty()) {
        let addr: SocketAddr = part
            .parse()
            .map_err(|e| format!("bad agent address {part:?}: {e}"))?;
        let client = ControlClient::connect(addr)
            .map_err(|e| format!("cannot connect to agent {addr}: {e}"))?;
        agents.push(Arc::new(client));
    }
    if agents.is_empty() {
        return Err("no agent addresses given".into());
    }
    Ok(agents)
}

// ---------------------------------------------------------------------------
// commands
// ---------------------------------------------------------------------------

fn cmd_graph(args: &[String]) -> Result<String, Box<dyn Error>> {
    let graph = load_graph(positional(args, 0)?)?;
    if has_flag(args, "--dot") {
        return Ok(graph.to_dot());
    }
    let mut out = format!("{graph}\n");
    for service in graph.services() {
        let deps = graph.dependencies(&service);
        if deps.is_empty() {
            out.push_str(&format!("  {service}\n"));
        } else {
            out.push_str(&format!("  {service} -> {}\n", deps.join(", ")));
        }
    }
    Ok(out.trim_end().to_string())
}

fn cmd_translate(args: &[String]) -> Result<String, Box<dyn Error>> {
    let graph = load_graph(positional(args, 0)?)?;
    let scenario = load_scenario(positional(args, 1)?)?;
    let rules = scenario.to_rules(&graph)?;
    let mut out = format!("# {scenario}\n");
    out.push_str(&serde_json::to_string_pretty(&rules)?);
    Ok(out)
}

fn cmd_install(args: &[String]) -> Result<String, Box<dyn Error>> {
    let graph = load_graph(positional(args, 0)?)?;
    let scenario = load_scenario(positional(args, 1)?)?;
    let agents =
        connect_agents(flag_value(args, "--agents").ok_or("missing --agents <addr,...>")?)?;
    let orchestrator = FailureOrchestrator::new(agents);
    let stats = orchestrator.inject(&scenario, &graph)?;
    Ok(format!(
        "staged: {scenario}\ninstalled {} rule(s) across {} agent(s) in {:?}",
        stats.installations,
        orchestrator.agent_count(),
        stats.duration
    ))
}

/// `gremlin campaign` — run a whole set of recipes, scheduling
/// footprint-disjoint recipes concurrently (see
/// `gremlin_core::dispatch`). `--serial` forces one recipe at a time;
/// `--seed <dir>` loads a prior run's `baselines.json` so anomaly
/// monitors skip their warmup; `--flight-root <dir>` records per-run
/// artifacts and the merged baselines for the next campaign.
///
/// `--agents <addr,...>` runs the campaign on this host, as one
/// in-process operator over those agents; `--operators <addr,...>`
/// shards it across `gremlin operator serve` hosts instead: each wave
/// splits into per-operator slices and a dead operator's recipes
/// re-shard to the survivors. Either way it is the same dispatcher and
/// the same report.
fn cmd_campaign(args: &[String]) -> Result<String, Box<dyn Error>> {
    let graph = load_graph(positional(args, 0)?)?;
    let spec_path = positional(args, 1)?;
    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("cannot read campaign file {spec_path:?}: {e}"))?;
    let spec: CampaignSpec = serde_json::from_str(&text)
        .map_err(|e| format!("cannot parse campaign file {spec_path:?}: {e}"))?;
    if spec.recipes.is_empty() {
        return Err(format!("campaign file {spec_path:?} has no recipes").into());
    }
    let flight_root = flag_value(args, "--flight-root").map(PathBuf::from);

    let mut dispatcher = if let Some(operator_spec) = flag_value(args, "--operators") {
        let mut operators: Vec<Arc<dyn OperatorTransport>> = Vec::new();
        for part in operator_spec.split(',').filter(|s| !s.is_empty()) {
            let addr: SocketAddr = part
                .parse()
                .map_err(|e| format!("bad operator address {part:?}: {e}"))?;
            operators.push(Arc::new(HttpOperator::connect(addr)?));
        }
        if operators.is_empty() {
            return Err("no operator addresses given".into());
        }
        let dispatcher = CampaignDispatcher::new(graph, operators);
        match flight_root {
            Some(root) => dispatcher.flight_root(root),
            None => dispatcher,
        }
    } else {
        let agents =
            connect_agents(flag_value(args, "--agents").ok_or("missing --agents <addr,...>")?)?;
        let ctx = TestContext::new(graph, agents, EventStore::shared());
        CampaignDispatcher::single_host(ctx, flight_root)
    };
    if has_flag(args, "--serial") {
        dispatcher = dispatcher.max_in_flight(1);
    } else if let Some(value) = flag_value(args, "--max-in-flight") {
        dispatcher = dispatcher.max_in_flight(value.parse::<usize>()?);
    } else if let Some(max_in_flight) = spec.max_in_flight {
        dispatcher = dispatcher.max_in_flight(max_in_flight);
    }
    if let Some(dir) = flag_value(args, "--seed") {
        let baselines = gremlin::core::load_baselines(dir)
            .map_err(|e| format!("cannot load baselines from {dir:?}: {e}"))?;
        if baselines.is_empty() {
            return Err(format!("no baselines.json under {dir:?} to seed from").into());
        }
        dispatcher = dispatcher.seed(baselines);
    }
    if has_flag(args, "--steer-order") {
        dispatcher = dispatcher.steer_order(true);
    }
    if let Some(retries) = flag_value(args, "--retries") {
        dispatcher = dispatcher.retries(retries.parse::<usize>()?);
    }
    if let Some(backoff) = flag_value(args, "--backoff") {
        dispatcher = dispatcher.backoff(parse_duration(backoff)?);
    }
    let report = dispatcher.run(spec.recipes)?;
    let output = report.to_string().trim_end().to_string();
    if report.passed() {
        Ok(output)
    } else {
        // Visible in scripts: failing campaigns exit non-zero.
        eprintln!("{output}");
        std::process::exit(2);
    }
}

/// `gremlin operator` — distributed-campaign worker commands.
fn cmd_operator(args: &[String]) -> Result<String, Box<dyn Error>> {
    match args.first().map(String::as_str) {
        Some("serve") => cmd_operator_serve(&args[1..]),
        _ => Err(
            "usage: gremlin operator serve <graph.json> --agents <addr,...> \
                  [--listen <addr>] [--name <name>] [--flight-root <dir>]"
                .into(),
        ),
    }
}

/// `gremlin operator serve` — turn this host into a wave worker: front
/// its slice of the agent fleet behind an operator control endpoint
/// and execute waves POSTed by a `gremlin campaign --operators`
/// coordinator, until killed.
fn cmd_operator_serve(args: &[String]) -> Result<String, Box<dyn Error>> {
    let graph = load_graph(positional(args, 0)?)?;
    let agents =
        connect_agents(flag_value(args, "--agents").ok_or("missing --agents <addr,...>")?)?;
    let ctx = TestContext::new(graph, agents, EventStore::shared());
    let listen = flag_value(args, "--listen").unwrap_or("0.0.0.0:7080");
    let name = match flag_value(args, "--name") {
        Some(name) => name.to_string(),
        None => {
            std::env::var("HOSTNAME").unwrap_or_else(|_| format!("operator-{}", std::process::id()))
        }
    };
    let flight_root = flag_value(args, "--flight-root").map(PathBuf::from);
    let server = OperatorServer::start(name, ctx, listen, flight_root)?;
    let status = server.status();
    println!(
        "operator {} serving on {} ({} agent(s)); ctrl-c to stop",
        status.name,
        server.local_addr(),
        status.agents
    );
    loop {
        // Waves are served by the endpoint's own threads; the main
        // thread just keeps the process alive.
        std::thread::park();
    }
}

fn cmd_rules(args: &[String]) -> Result<String, Box<dyn Error>> {
    let addr: SocketAddr = positional(args, 0)?.parse()?;
    let client = ControlClient::connect(addr)?;
    let rules = client.list_rules()?;
    if rules.is_empty() {
        return Ok(format!(
            "agent {addr} ({}): no rules",
            client.service_name()
        ));
    }
    let mut out = format!(
        "agent {addr} ({}): {} rule(s)\n",
        client.service_name(),
        rules.len()
    );
    for rule in rules {
        out.push_str(&format!("  {rule}\n"));
    }
    Ok(out.trim_end().to_string())
}

fn cmd_clear(args: &[String]) -> Result<String, Box<dyn Error>> {
    let agents =
        connect_agents(flag_value(args, "--agents").ok_or("missing --agents <addr,...>")?)?;
    let count = agents.len();
    let orchestrator = FailureOrchestrator::new(agents);
    orchestrator.clear()?;
    Ok(format!("cleared rules on {count} agent(s)"))
}

fn cmd_health(args: &[String]) -> Result<String, Box<dyn Error>> {
    let addr: SocketAddr = positional(args, 0)?.parse()?;
    let client = ControlClient::connect(addr)?;
    let health = client.health()?;
    Ok(format!(
        "agent {addr}: service={} name={} rules={}",
        health.service, health.name, health.rules
    ))
}

fn cmd_check(args: &[String]) -> Result<String, Box<dyn Error>> {
    let store = load_events(positional(args, 0)?)?;
    let checker = AssertionChecker::new(store);
    let pattern = Pattern::new(flag_value(args, "--pattern").unwrap_or("*"));
    let kind = flag_value(args, "--assert").ok_or("missing --assert <check>")?;
    let need = |flag: &str| {
        flag_value(args, flag)
            .map(str::to_string)
            .ok_or(format!("missing {flag}"))
    };
    let assertion = match kind {
        "timeouts" => Assertion::HasTimeouts {
            service: need("--service")?,
            max_latency: parse_duration(flag_value(args, "--max-latency").unwrap_or("1s"))?,
        },
        "bounded-retries" => Assertion::BoundedRetries {
            src: need("--src")?,
            dst: need("--dst")?,
            max_tries: flag_value(args, "--max-tries").unwrap_or("5").parse()?,
        },
        "circuit-breaker" => Assertion::CircuitBreaker {
            src: need("--src")?,
            dst: need("--dst")?,
            threshold: flag_value(args, "--threshold").unwrap_or("5").parse()?,
            tdelta: parse_duration(flag_value(args, "--window").unwrap_or("1min"))?,
            success_threshold: 1,
        },
        "request-count" => {
            let (src, dst) = (need("--src")?, need("--dst")?);
            let requests = checker.get_requests(&src, &dst, &pattern);
            return Ok(format!(
                "{} request(s) observed on {src} -> {dst} (pattern {pattern})",
                requests.len()
            ));
        }
        other => return Err(format!("unknown assertion {other:?}").into()),
    };
    let check = checker.check(&assertion, &pattern);
    let output = check.to_string();
    if check.passed {
        Ok(output)
    } else {
        // Visible in scripts: failing checks exit non-zero.
        eprintln!("{output}");
        std::process::exit(2);
    }
}

fn cmd_generate(args: &[String]) -> Result<String, Box<dyn Error>> {
    use gremlin::core::autogen::RecipeGenerator;
    let graph = load_graph(positional(args, 0)?)?;
    let mut generator = RecipeGenerator::new();
    // Collect every --exclude occurrence.
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        if arg == "--exclude" {
            if let Some(service) = iter.next() {
                generator = generator.exclude(service.clone());
            }
        }
    }
    if let Some(pattern) = flag_value(args, "--pattern") {
        generator = generator.pattern(pattern);
    }
    let tests = generator.generate(&graph);
    Ok(serde_json::to_string_pretty(&tests)?)
}

fn cmd_metrics(args: &[String]) -> Result<String, Box<dyn Error>> {
    use gremlin::http::{HttpClient, Request};

    // Targets come either as positional comma-separated addresses or
    // via --targets (mirrors `install --agents`).
    let spec = match flag_value(args, "--targets") {
        Some(value) => value.to_string(),
        None => args
            .iter()
            .take_while(|a| !a.starts_with("--"))
            .map(String::as_str)
            .collect::<Vec<_>>()
            .join(","),
    };
    let mut targets: Vec<SocketAddr> = Vec::new();
    for part in spec.split(',').filter(|s| !s.is_empty()) {
        targets.push(
            part.parse()
                .map_err(|e| format!("bad target address {part:?}: {e}"))?,
        );
    }
    if targets.is_empty() {
        return Err("no targets given (addresses or --targets <addr,...>)".into());
    }

    let raw = has_flag(args, "--raw");
    let client = HttpClient::new();
    let mut out = String::new();
    for addr in &targets {
        let response = client
            .send(*addr, Request::get("/metrics"))
            .map_err(|e| format!("cannot scrape {addr}: {e}"))?;
        if !response.status().is_success() {
            return Err(format!(
                "scrape of {addr} failed: HTTP {}",
                response.status().as_u16()
            )
            .into());
        }
        let text = response.body_str();
        if targets.len() > 1 {
            out.push_str(&format!("## {addr}\n"));
        }
        if raw {
            out.push_str(text.trim_end());
        } else {
            out.push_str(&summarize_exposition(&text));
        }
        out.push('\n');
    }
    Ok(out.trim_end().to_string())
}

/// Re-renders parsed labels as `{k=v,...}` for operator output.
fn display_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{{{}}}", pairs.join(","))
}

fn format_seconds(seconds: f64) -> String {
    if !seconds.is_finite() || seconds < 0.0 {
        return "?".to_string();
    }
    format!("{:?}", std::time::Duration::from_secs_f64(seconds))
}

/// Estimates the `p`-quantile from a cumulative `(le_seconds, count)`
/// ladder: the upper bound of the first bucket containing the rank.
fn ladder_quantile(buckets: &[(f64, f64)], count: f64, p: f64) -> String {
    if count <= 0.0 {
        return "-".to_string();
    }
    let rank = (p * count).ceil().max(1.0);
    for (le, cumulative) in buckets {
        if *cumulative >= rank {
            if le.is_finite() {
                return format!("<={}", format_seconds(*le));
            }
            // Rank only reached in the +Inf bucket: above the ladder.
            let top = buckets
                .iter()
                .rev()
                .find(|(l, _)| l.is_finite())
                .map(|(l, _)| *l)
                .unwrap_or(0.0);
            return format!(">{}", format_seconds(top));
        }
    }
    "-".to_string()
}

/// Condenses Prometheus exposition text into one line per series:
/// counters and gauges verbatim, histogram families folded into
/// `count= sum= p50 p90 p99` summaries estimated from the `le` ladder.
fn summarize_exposition(text: &str) -> String {
    use std::collections::{BTreeMap, BTreeSet};

    let samples = gremlin::telemetry::parse_prometheus(text);

    // Histogram families are recognised by their `_bucket{le=...}` series.
    let mut histogram_bases: BTreeSet<String> = BTreeSet::new();
    for sample in &samples {
        if let Some(base) = sample.name.strip_suffix("_bucket") {
            if sample.label("le").is_some() {
                histogram_bases.insert(base.to_string());
            }
        }
    }

    #[derive(Default)]
    struct Family {
        buckets: Vec<(f64, f64)>,
        sum: f64,
        count: f64,
    }
    let mut families: BTreeMap<(String, String), Family> = BTreeMap::new();
    let mut lines: Vec<String> = Vec::new();
    for sample in &samples {
        let (base, part) = if let Some(b) = sample.name.strip_suffix("_bucket") {
            (b, "bucket")
        } else if let Some(b) = sample.name.strip_suffix("_sum") {
            (b, "sum")
        } else if let Some(b) = sample.name.strip_suffix("_count") {
            (b, "count")
        } else {
            ("", "")
        };
        if !base.is_empty() && histogram_bases.contains(base) {
            let labels: Vec<(String, String)> = sample
                .labels
                .iter()
                .filter(|(k, _)| k != "le")
                .cloned()
                .collect();
            let family = families
                .entry((base.to_string(), display_labels(&labels)))
                .or_default();
            match part {
                "bucket" => {
                    let le = match sample.label("le") {
                        Some("+Inf") | None => f64::INFINITY,
                        Some(v) => v.parse().unwrap_or(f64::INFINITY),
                    };
                    family.buckets.push((le, sample.value));
                }
                "sum" => family.sum = sample.value,
                _ => family.count = sample.value,
            }
            continue;
        }
        lines.push(format!(
            "{}{} {}",
            sample.name,
            display_labels(&sample.labels),
            sample.value
        ));
    }
    for ((base, labels), family) in &mut families {
        family
            .buckets
            .sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        lines.push(format!(
            "{base}{labels} count={} sum={} p50{} p90{} p99{}",
            family.count as u64,
            format_seconds(family.sum),
            ladder_quantile(&family.buckets, family.count, 0.50),
            ladder_quantile(&family.buckets, family.count, 0.90),
            ladder_quantile(&family.buckets, family.count, 0.99),
        ));
    }
    lines.sort();
    lines.join("\n")
}

fn cmd_trace(args: &[String]) -> Result<String, Box<dyn Error>> {
    use gremlin::core::SpanTree;
    use gremlin::store::{export_otlp, spans_from_store};

    let store = load_events(positional(args, 0)?)?;
    let request_id = positional(args, 1)?;

    if has_flag(args, "--json") {
        let spans = spans_from_store(&store, request_id);
        if spans.is_empty() {
            return Err(format!("no observations for request id {request_id:?}").into());
        }
        return Ok(serde_json::to_string_pretty(&export_otlp(&spans))?);
    }

    let trace = FlowTrace::from_store(&store, request_id);
    if trace.hops.is_empty() {
        return Err(format!("no observations for request id {request_id:?}").into());
    }
    let mut out = trace.to_string().trim_end().to_string();
    let tree = SpanTree::from_store(&store, request_id);
    if !tree.is_empty() {
        out.push_str("\n\n");
        out.push_str(tree.waterfall().trim_end());
        out.push_str(&format!("\n{}", tree.summary()));
    }
    Ok(out)
}

fn cmd_tail(args: &[String]) -> Result<String, Box<dyn Error>> {
    use gremlin::http::codec::{read_response_head, write_request, ChunkReader};
    use gremlin::http::{Method, Request};
    use std::io::{BufReader, BufWriter};
    use std::net::TcpStream;

    let addr: SocketAddr = positional(args, 0)?.parse()?;
    let limit: Option<usize> = match flag_value(args, "--limit") {
        Some(value) => Some(value.parse()?),
        None => None,
    };
    let path = match flag_value(args, "--from") {
        Some(cursor) => format!("/tail?from={cursor}"),
        None => "/tail".to_string(),
    };

    let stream = TcpStream::connect(addr)?;
    write_request(
        &mut BufWriter::new(&stream),
        &Request::builder(Method::Get, path).build(),
    )?;
    let mut reader = BufReader::new(stream);
    let head = read_response_head(&mut reader)?;
    if !head.status().is_success() {
        return Err(format!("tail of {addr} failed: HTTP {}", head.status().as_u16()).into());
    }
    let mut chunks = ChunkReader::new(reader);
    let mut seen = 0usize;
    while let Some(chunk) = chunks.next_chunk()? {
        let text = String::from_utf8_lossy(&chunk);
        // Blank lines are keep-alive heartbeats, not events.
        for line in text.lines().filter(|line| !line.trim().is_empty()) {
            println!("{line}");
            seen += 1;
            if limit.is_some_and(|n| seen >= n) {
                return Ok(format!("tailed {seen} event(s)"));
            }
        }
    }
    Ok(format!("stream ended after {seen} event(s)"))
}

/// How often a live dashboard retries an unreachable collector before
/// giving up (bounded exponential backoff, 250ms doubling to 4s).
const DASHBOARD_RETRIES: u32 = 6;

/// One `GET path` against `addr`, no retries.
fn fetch_body(
    client: &gremlin::http::HttpClient,
    addr: SocketAddr,
    path: &str,
) -> Result<String, Box<dyn Error>> {
    use gremlin::http::Request;
    let response = client
        .send(addr, Request::get(path))
        .map_err(|e| format!("cannot reach collector {addr}: {e}"))?;
    if !response.status().is_success() {
        return Err(format!(
            "GET {path} on {addr} failed: HTTP {}",
            response.status().as_u16()
        )
        .into());
    }
    Ok(response.body_str().to_string())
}

/// `fetch_body` with reconnect semantics for live dashboards: on
/// failure, retries with bounded exponential backoff (250ms doubling
/// up to 4s) instead of tearing the dashboard down. A collector
/// restart mid-campaign costs a few blank frames, not the session.
/// Gives up (with the last error) after `retries` failed attempts.
fn fetch_reconnecting(
    client: &gremlin::http::HttpClient,
    addr: SocketAddr,
    path: &str,
    retries: u32,
) -> Result<String, Box<dyn Error>> {
    use std::time::Duration;
    let mut delay = Duration::from_millis(250);
    let mut attempt = 0u32;
    loop {
        match fetch_body(client, addr, path) {
            Ok(body) => return Ok(body),
            Err(err) => {
                attempt += 1;
                if attempt > retries {
                    return Err(err);
                }
                eprintln!("collector {addr} unreachable ({err}); retrying in {delay:?}");
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_secs(4));
            }
        }
    }
}

fn cmd_watch(args: &[String]) -> Result<String, Box<dyn Error>> {
    use gremlin::http::HttpClient;
    use std::io::Write;

    let addr: SocketAddr = positional(args, 0)?.parse()?;
    let client = HttpClient::new();
    let retries: u32 = match flag_value(args, "--retries") {
        Some(value) => value.parse()?,
        None => DASHBOARD_RETRIES,
    };

    if has_flag(args, "--json") {
        let value: serde_json::Value =
            serde_json::from_str(&fetch_body(&client, addr, "/health")?)?;
        return Ok(serde_json::to_string_pretty(&value)?);
    }

    let interval = parse_duration(flag_value(args, "--interval").unwrap_or("1s"))?;
    let count: Option<u64> = match flag_value(args, "--count") {
        Some(value) => Some(value.parse()?),
        None => None,
    };
    let mut frames = 0u64;
    loop {
        let health = fetch_reconnecting(&client, addr, "/health", retries)?;
        let stats = fetch_body(&client, addr, "/stats").ok();
        let frame = render_watch_frame(&addr.to_string(), &health, stats.as_deref())?;
        // Clear screen + cursor home, then redraw in place.
        print!("\x1b[2J\x1b[H{frame}");
        std::io::stdout().flush()?;
        frames += 1;
        if count.is_some_and(|n| frames >= n) {
            return Ok(format!("watched {frames} frame(s)"));
        }
        std::thread::sleep(interval);
    }
}

/// `gremlin replay <run-dir>` — re-renders the verdict/anomaly
/// timeline a flight-recorded recipe run persisted (see
/// `RecipeRun::start_flight_recorder`). `--json` emits a
/// machine-readable summary instead.
/// `gremlin top <collector>` — a live fleet view built from the
/// collector's `/federate` endpoint: one row per scraped target with
/// up/stale state, request and error rates, p99 upstream latency and
/// a request-rate sparkline, plus the current campaign phase from the
/// `/series` annotation index. Uses the same reconnect/backoff
/// behaviour as `gremlin watch`.
fn cmd_top(args: &[String]) -> Result<String, Box<dyn Error>> {
    use gremlin::http::HttpClient;
    use gremlin::store::now_micros;
    use gremlin::telemetry::TimeSeriesStore;
    use std::io::Write;

    let addr: SocketAddr = positional(args, 0)?.parse()?;
    let interval = parse_duration(flag_value(args, "--interval").unwrap_or("1s"))?;
    let count: Option<u64> = match flag_value(args, "--count") {
        Some(value) => Some(value.parse()?),
        None => None,
    };
    let retries: u32 = match flag_value(args, "--retries") {
        Some(value) => value.parse()?,
        None => DASHBOARD_RETRIES,
    };
    let client = HttpClient::new();
    let store = TimeSeriesStore::new();
    let mut frames = 0u64;
    loop {
        let body = fetch_reconnecting(&client, addr, "/federate", retries)?;
        let at_us = now_micros();
        ingest_federated(&store, at_us, &body);
        // Phase annotations live in the range-query index; a collector
        // without one (or mid-restart) just leaves the phase line out.
        let index: Option<serde_json::Value> = fetch_body(&client, addr, "/series")
            .ok()
            .and_then(|text| serde_json::from_str(&text).ok());
        let frame = render_top_frame(&addr.to_string(), &store, index.as_ref(), at_us);
        print!("\x1b[2J\x1b[H{frame}");
        std::io::stdout().flush()?;
        frames += 1;
        if count.is_some_and(|n| frames >= n) {
            return Ok(format!("monitored {frames} frame(s)"));
        }
        std::thread::sleep(interval);
    }
}

/// Feeds one `/federate` exposition into a client-side store, using
/// each sample's `instance` label as the series target (and dropping
/// it, so per-target series match what the agents themselves export).
/// Returns the number of points appended.
fn ingest_federated(store: &gremlin::telemetry::TimeSeriesStore, at_us: u64, text: &str) -> usize {
    use std::collections::BTreeMap;

    let mut groups: BTreeMap<String, Vec<gremlin::telemetry::PromSample>> = BTreeMap::new();
    for mut sample in gremlin::telemetry::parse_prometheus(text) {
        let target = match sample.labels.iter().position(|(k, _)| k == "instance") {
            Some(i) => sample.labels.remove(i).1,
            None => "fleet".to_string(),
        };
        groups.entry(target).or_default().push(sample);
    }
    groups
        .iter()
        .map(|(target, samples)| store.ingest_prom(target, at_us, samples))
        .sum()
}

/// Per-second rate of counter `name` on `target`, summed across label
/// sets and aligned by timestamp, ascending.
fn summed_rate(
    store: &gremlin::telemetry::TimeSeriesStore,
    name: &str,
    target: &str,
    from: u64,
    to: u64,
) -> Vec<(u64, f64)> {
    use std::collections::BTreeMap;

    let mut by_ts: BTreeMap<u64, f64> = BTreeMap::new();
    for (_, points) in store.query_rate(name, Some(target), from, to) {
        for point in points {
            *by_ts.entry(point.at_us).or_insert(0.0) += point.value;
        }
    }
    by_ts.into_iter().collect()
}

/// Renders values as a unicode sparkline of the last `width` points,
/// scaled to the window maximum.
fn sparkline(values: &[f64], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let skip = values.len().saturating_sub(width);
    let tail = &values[skip..];
    let max = tail.iter().copied().fold(0.0f64, f64::max);
    tail.iter()
        .map(|&v| {
            if max <= 0.0 {
                BARS[0]
            } else {
                BARS[(((v / max) * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// Renders one `gremlin top` frame from the locally accumulated
/// series, with the current phase pulled from the `/series` index.
fn render_top_frame(
    addr: &str,
    store: &gremlin::telemetry::TimeSeriesStore,
    index: Option<&serde_json::Value>,
    now_us: u64,
) -> String {
    let targets = store.targets();
    let mut out = format!(
        "gremlin top — collector {addr}: {} target(s), {} series\n",
        targets.len(),
        store.series_count()
    );
    if let Some(annotation) = index
        .and_then(|v| v.get("annotations"))
        .and_then(|a| a.as_array())
        .and_then(|a| a.last())
    {
        let phase = annotation
            .get("phase")
            .and_then(|p| p.as_str())
            .unwrap_or("?");
        let detail = annotation
            .get("detail")
            .and_then(|d| d.as_str())
            .unwrap_or("");
        out.push_str(&format!("phase: {phase} ({detail})\n"));
    }
    out.push_str(&format!(
        "{:<16} {:<6} {:>8} {:>8} {:>9}  trend\n",
        "TARGET", "UP", "REQ/S", "ERR/S", "P99"
    ));
    let from = now_us.saturating_sub(60_000_000);
    let fmt_rate = |rate: Option<f64>| match rate {
        Some(v) => format!("{v:.1}"),
        None => "-".to_string(),
    };
    for (target, _) in &targets {
        let stale = store
            .latest("gremlin_scrape_stale", target)
            .is_some_and(|p| p.value >= 1.0);
        // Color codes wrap the already-padded cell so the escape
        // bytes don't throw the column widths off.
        let up_cell = match store.latest("up", target) {
            _ if stale => format!("\x1b[33m{:<6}\x1b[0m", "stale"),
            Some(p) if p.value >= 1.0 => format!("\x1b[32m{:<6}\x1b[0m", "up"),
            Some(_) => format!("\x1b[31m{:<6}\x1b[0m", "DOWN"),
            None => format!("{:<6}", "-"),
        };
        let req = summed_rate(store, "gremlin_proxy_requests_total", target, from, now_us);
        let err = summed_rate(
            store,
            "gremlin_proxy_upstream_errors_total",
            target,
            from,
            now_us,
        );
        let p99 = store.histogram_quantile(
            "gremlin_proxy_upstream_latency_seconds",
            Some(target),
            from,
            now_us,
            0.99,
        );
        let trend: Vec<f64> = req.iter().map(|(_, v)| *v).collect();
        out.push_str(&format!(
            "{target:<16} {up_cell} {:>8} {:>8} {:>9}  {}\n",
            fmt_rate(req.last().map(|(_, v)| *v)),
            fmt_rate(err.last().map(|(_, v)| *v)),
            p99.map(format_seconds).unwrap_or_else(|| "-".to_string()),
            sparkline(&trend, 12),
        ));
    }
    out
}

fn cmd_replay(args: &[String]) -> Result<String, Box<dyn Error>> {
    use gremlin::core::FlightLog;

    if let Some(root) = flag_value(args, "--root") {
        return replay_root(root);
    }
    let dir = positional(args, 0)?;
    let log =
        FlightLog::load(dir).map_err(|e| format!("cannot load flight recording {dir:?}: {e}"))?;
    if has_flag(args, "--json") {
        return Ok(serde_json::to_string_pretty(&serde_json::json!({
            "schema_version": log.meta.schema_version,
            "recipe": log.meta.recipe,
            "started_at_us": log.meta.started_at_us,
            "window_us": log.meta.window_us,
            "records": log.records.len(),
            "snapshots": log.snapshots.len(),
            "timeseries": log.timeseries.len(),
            "report": log.report,
        }))?);
    }
    let mut out = log.render_timeline().trim_end().to_string();
    let metrics = log.render_metrics();
    if !metrics.is_empty() {
        out.push('\n');
        out.push_str(metrics.trim_end());
    }
    Ok(out)
}

/// `gremlin replay --root <flight-root>` — one line per recorded run,
/// newest last: outcome, recipe, scenario count, anomalous edges.
fn replay_root(root: &str) -> Result<String, Box<dyn Error>> {
    use gremlin::core::CoverageLedger;

    let ledger =
        CoverageLedger::scan(root).map_err(|e| format!("cannot scan flight root {root:?}: {e}"))?;
    if ledger.runs().is_empty() {
        return Ok(format!("no recorded runs under {root}"));
    }
    let mut out = format!("{} run(s) under {root}\n", ledger.runs_scanned());
    for run in ledger.runs() {
        // Manual Display impls ignore format widths, so pad the
        // rendered string instead.
        let outcome = run.outcome.to_string();
        out.push_str(&format!(
            "  [{outcome:>10}] {} — {} scenario(s)",
            run.recipe,
            run.scenarios.len(),
        ));
        if !run.anomalous_edges.is_empty() {
            out.push_str(&format!("; anomalous: {}", run.anomalous_edges.join(", ")));
        }
        if let Some(dir) = &run.flight_dir {
            out.push_str(&format!(" ({})", dir.display()));
        }
        out.push('\n');
    }
    Ok(out.trim_end().to_string())
}

fn cmd_coverage(args: &[String]) -> Result<String, Box<dyn Error>> {
    use gremlin::core::{CoverageLedger, DEFAULT_DRIFT_Z};

    let root = positional(args, 0)?;
    let drift_z = match flag_value(args, "--drift-z") {
        Some(raw) => raw
            .parse::<f64>()
            .map_err(|e| format!("bad --drift-z {raw:?}: {e}"))?,
        None => DEFAULT_DRIFT_Z,
    };
    let graph = match flag_value(args, "--graph") {
        Some(path) => Some(load_graph(path)?),
        None => None,
    };
    let ledger = CoverageLedger::scan_with(root, drift_z)
        .map_err(|e| format!("cannot scan flight root {root:?}: {e}"))?;
    if has_flag(args, "--json") {
        return Ok(serde_json::to_string_pretty(&ledger.summary())?);
    }
    if has_flag(args, "--markdown") {
        return Ok(ledger.to_markdown(graph.as_ref()).trim_end().to_string());
    }
    Ok(ledger.render(graph.as_ref(), true).trim_end().to_string())
}

/// Colors an anomaly state for terminal output (green nominal,
/// yellow suspect, red anomalous, dim warming).
fn paint_state(state: &str) -> String {
    let color = match state {
        "nominal" => "\x1b[32m",
        "suspect" => "\x1b[33m",
        "anomalous" => "\x1b[31m",
        _ => "\x1b[2m",
    };
    format!("{color}{state}\x1b[0m")
}

/// Renders one `gremlin watch` dashboard frame from the collector's
/// `/health` body (and, when available, `/stats`).
fn render_watch_frame(
    addr: &str,
    health: &str,
    stats: Option<&str>,
) -> Result<String, Box<dyn Error>> {
    use gremlin::core::format_duration;
    use std::time::Duration;

    let health: serde_json::Value =
        serde_json::from_str(health).map_err(|e| format!("bad /health body: {e}"))?;
    let window_us = health["window_us"].as_u64().unwrap_or(0);
    let clock_us = health["clock_us"].as_u64().unwrap_or(0);
    let mut out = format!(
        "gremlin watch — collector {addr} (window {}, clock {})\n\n",
        format_duration(Duration::from_micros(window_us)),
        format_duration(Duration::from_micros(clock_us)),
    );

    out.push_str(&format!(
        "{:<24} {:>9} {:>7} {:>10} {:>10} {:>8} {:>7} {:>7}  {}\n",
        "EDGE", "RATE", "ERR%", "P50", "P99", "REQS", "FAULTS", "SCORE", "STATE"
    ));
    let edges = health["edges"].as_array().cloned().unwrap_or_default();
    let scores = health["scores"].as_array().cloned().unwrap_or_default();
    if edges.is_empty() {
        out.push_str("  (no traffic observed yet)\n");
    }
    for edge in &edges {
        let src = edge["src"].as_str().unwrap_or("?");
        let dst = edge["dst"].as_str().unwrap_or("?");
        let rate = edge["rate_rps"].as_f64().unwrap_or(0.0);
        let err = edge["error_rate"].as_f64().unwrap_or(0.0) * 100.0;
        let p50 = Duration::from_micros(edge["p50_us"].as_u64().unwrap_or(0));
        let p99 = Duration::from_micros(edge["p99_us"].as_u64().unwrap_or(0));
        let requests = edge["requests"].as_u64().unwrap_or(0);
        let faults = edge["fault_hits"].as_u64().unwrap_or(0);
        // The anomaly score/state trail the numeric columns so the
        // ANSI color codes never skew the table alignment.
        let (score_txt, state_txt) = match scores
            .iter()
            .find(|score| score["src"] == src && score["dst"] == dst)
        {
            Some(score) => (
                format!("{:.1}", score["score"].as_f64().unwrap_or(0.0)),
                paint_state(score["state"].as_str().unwrap_or("?")),
            ),
            None => ("-".to_string(), "-".to_string()),
        };
        out.push_str(&format!(
            "{:<24} {:>8.1}/s {:>6.1}% {:>10} {:>10} {:>8} {:>7} {:>7}  {}\n",
            format!("{src} -> {dst}"),
            rate,
            err,
            format_duration(p50),
            format_duration(p99),
            requests,
            faults,
            score_txt,
            state_txt,
        ));
    }

    let checks = health["checks"].as_array().cloned().unwrap_or_default();
    if !checks.is_empty() {
        out.push_str("\nCHECKS\n");
        for check in &checks {
            let verdict = check["verdict"].as_str().unwrap_or("?").to_uppercase();
            let name = check["name"].as_str().unwrap_or("?");
            let detail = check["detail"].as_str().unwrap_or("");
            if detail.is_empty() {
                out.push_str(&format!("  [{verdict}] {name}\n"));
            } else {
                out.push_str(&format!("  [{verdict}] {name} — {detail}\n"));
            }
        }
    }

    if let Some(stats) = stats {
        if let Ok(stats) = serde_json::from_str::<serde_json::Value>(stats) {
            out.push_str(&format!(
                "\nevents={} tail_cursor={} tail_subscribers={} alert_subscribers={}\n",
                stats["events"].as_u64().unwrap_or(0),
                stats["tail_cursor"].as_u64().unwrap_or(0),
                stats["tail_subscribers"].as_u64().unwrap_or(0),
                stats["alert_subscribers"].as_u64().unwrap_or(0),
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("gremlin-cli-test-{}-{name}", std::process::id()));
        let mut file = std::fs::File::create(&path).unwrap();
        file.write_all(contents.as_bytes()).unwrap();
        path
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_and_unknown() {
        assert!(run(&args(&["help"])).unwrap().contains("usage"));
        assert!(run(&args(&["bogus"])).is_err());
        assert!(run(&args(&[])).unwrap().contains("usage"));
    }

    #[test]
    fn graph_simple_format() {
        let path = write_temp(
            "graph.json",
            r#"{"edges": [["web", "db"], ["web", "cache"]]}"#,
        );
        let out = run(&args(&["graph", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("web -> cache, db"), "{out}");
        let dot = run(&args(&["graph", path.to_str().unwrap(), "--dot"])).unwrap();
        assert!(dot.contains("\"web\" -> \"db\""));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn graph_round_trip_format() {
        let graph = AppGraph::from_edges(vec![("a", "b")]);
        let path = write_temp("graph-rt.json", &serde_json::to_string(&graph).unwrap());
        let out = run(&args(&["graph", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("a -> b"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn translate_scenario() {
        let graph_path = write_temp("tg.json", r#"{"edges": [["web", "db"]]}"#);
        let scenario = Scenario::overload("db").with_pattern("test-*");
        let scenario_path = write_temp("ts.json", &serde_json::to_string(&scenario).unwrap());
        let out = run(&args(&[
            "translate",
            graph_path.to_str().unwrap(),
            scenario_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("overload db"), "{out}");
        assert!(out.contains("\"src\": \"web\""), "{out}");
        let _ = std::fs::remove_file(graph_path);
        let _ = std::fs::remove_file(scenario_path);
    }

    #[test]
    fn check_and_trace_over_exported_log() {
        use gremlin::store::Event;
        use std::time::Duration;
        let store = EventStore::new();
        store.record_event(
            Event::request("user", "web", "GET", "/x")
                .with_request_id("test-9")
                .with_timestamp(0),
        );
        store.record_event(
            Event::response("user", "web", 200, Duration::from_millis(10))
                .with_request_id("test-9")
                .with_timestamp(100),
        );
        let path = write_temp("events.ndjson", &store.export_json().unwrap());

        let out = run(&args(&[
            "check",
            path.to_str().unwrap(),
            "--assert",
            "timeouts",
            "--service",
            "web",
            "--max-latency",
            "1s",
        ]))
        .unwrap();
        assert!(out.contains("[PASS]"), "{out}");

        let out = run(&args(&[
            "check",
            path.to_str().unwrap(),
            "--assert",
            "request-count",
            "--src",
            "user",
            "--dst",
            "web",
        ]))
        .unwrap();
        assert!(out.contains("1 request(s)"), "{out}");

        let out = run(&args(&["trace", path.to_str().unwrap(), "test-9"])).unwrap();
        assert!(out.contains("user -> web"), "{out}");
        assert!(out.contains("=> 200"), "{out}");

        assert!(run(&args(&["trace", path.to_str().unwrap(), "missing"])).is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn trace_renders_waterfall_and_exports_otlp_json() {
        use gremlin::store::{import_otlp, Event, OtlpTrace};
        use std::time::Duration;
        let store = EventStore::new();
        store.record_event(
            Event::request("user", "web", "GET", "/x")
                .with_request_id("test-7")
                .with_timestamp(0)
                .with_span_id("aaaaaaaaaaaaaaaa"),
        );
        store.record_event(
            Event::request("web", "db", "GET", "/q")
                .with_request_id("test-7")
                .with_timestamp(100)
                .with_span_id("bbbbbbbbbbbbbbbb")
                .with_parent_id("aaaaaaaaaaaaaaaa"),
        );
        store.record_event(
            Event::response("web", "db", 200, Duration::from_micros(400))
                .with_request_id("test-7")
                .with_timestamp(500)
                .with_span_id("bbbbbbbbbbbbbbbb")
                .with_parent_id("aaaaaaaaaaaaaaaa"),
        );
        store.record_event(
            Event::response("user", "web", 200, Duration::from_micros(900))
                .with_request_id("test-7")
                .with_timestamp(900)
                .with_span_id("aaaaaaaaaaaaaaaa"),
        );
        let path = write_temp("trace.ndjson", &store.export_json().unwrap());

        let out = run(&args(&["trace", path.to_str().unwrap(), "test-7"])).unwrap();
        assert!(out.contains("user -> web"), "{out}");
        assert!(out.contains("trace test-7 (2 span(s), depth 2"), "{out}");
        assert!(out.contains("  web -> db GET /q"), "indented child: {out}");
        assert!(out.contains('='), "time bars: {out}");

        // --json emits OTLP that round-trips through the importer.
        let json = run(&args(&[
            "trace",
            path.to_str().unwrap(),
            "test-7",
            "--json",
        ]))
        .unwrap();
        let otlp: OtlpTrace = serde_json::from_str(&json).unwrap();
        let records = import_otlp(&otlp);
        assert_eq!(records.len(), 2);
        assert!(records
            .iter()
            .any(|r| r.parent_id.as_deref() == Some("aaaaaaaaaaaaaaaa")));

        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn tail_streams_events_from_a_live_collector() {
        use gremlin::proxy::CollectorServer;
        use gremlin::store::Event;

        let store = EventStore::shared();
        let collector = CollectorServer::start(Arc::clone(&store), "127.0.0.1:0").unwrap();
        store.record_event(Event::request("user", "web", "GET", "/x").with_request_id("t-1"));
        store.record_event(Event::request("web", "db", "GET", "/q").with_request_id("t-2"));

        // --from 0 replays history; --limit bounds the otherwise
        // endless stream so the test terminates.
        let out = run(&args(&[
            "tail",
            &collector.local_addr().to_string(),
            "--from",
            "0",
            "--limit",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("tailed 2 event(s)"), "{out}");

        assert!(run(&args(&["tail", "not-an-addr"])).is_err());
    }

    #[test]
    fn watch_json_and_dashboard_against_live_collector() {
        use gremlin::proxy::CollectorServer;
        use gremlin::store::Event;
        use std::time::Duration;

        let store = EventStore::shared();
        let collector = CollectorServer::start(Arc::clone(&store), "127.0.0.1:0").unwrap();
        store.record_event(
            Event::request("web", "db", "GET", "/q")
                .with_request_id("t-1")
                .with_timestamp(1_000),
        );
        let mut reply =
            Event::response("web", "db", 200, Duration::from_millis(2)).with_request_id("t-1");
        reply.timestamp_us = 3_000;
        store.record_event(reply);
        let addr = collector.local_addr().to_string();

        let json = run(&args(&["watch", &addr, "--json"])).unwrap();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(value["schema_version"], 2);
        assert_eq!(value["edges"][0]["src"], "web");
        assert_eq!(value["edges"][0]["requests"], 1);
        assert_eq!(value["scores"].as_array().map(Vec::len), Some(0));

        // One dashboard frame, then exit.
        let out = run(&args(&[
            "watch",
            &addr,
            "--count",
            "1",
            "--interval",
            "1ms",
        ]))
        .unwrap();
        assert!(out.contains("watched 1 frame(s)"), "{out}");

        assert!(run(&args(&["watch", "not-an-addr"])).is_err());
    }

    #[test]
    fn watch_frame_renders_edges_checks_and_stats() {
        let health = r#"{
            "schema_version": 2,
            "window_us": 10000000,
            "clock_us": 12000000,
            "edges": [{
                "src": "web", "dst": "db",
                "requests": 124, "responses": 120, "errors": 6, "fault_hits": 3,
                "rate_rps": 12.4, "error_rate": 0.05,
                "p50_us": 3100, "p99_us": 9800, "last_seen_us": 12000000
            }],
            "checks": [{
                "name": "LiveLatencySlo(web, p99 <= 100ms)",
                "verdict": "failing",
                "detail": "p99 180ms over bound",
                "windows": 2,
                "first_failing_at_us": 10000000,
                "violated_at_us": null
            }],
            "scores": [{
                "src": "web", "dst": "db", "state": "suspect",
                "score": 6.2, "rate_z": 0.3, "error_z": 0.0, "latency_z": 6.2,
                "peak_score": 6.2, "windows": 4,
                "first_suspect_at_us": 11000000, "anomalous_at_us": null,
                "baseline": null
            }]
        }"#;
        let stats =
            r#"{"events":124,"tail_cursor":248,"tail_subscribers":1,"alert_subscribers":0}"#;
        let frame = render_watch_frame("127.0.0.1:9000", health, Some(stats)).unwrap();
        assert!(frame.contains("web -> db"), "{frame}");
        assert!(frame.contains("12.4/s"), "{frame}");
        assert!(frame.contains("5.0%"), "{frame}");
        assert!(frame.contains("SCORE"), "{frame}");
        assert!(frame.contains("6.2"), "{frame}");
        assert!(frame.contains("suspect"), "{frame}");
        assert!(frame.contains("[FAILING] LiveLatencySlo"), "{frame}");
        assert!(frame.contains("tail_subscribers=1"), "{frame}");

        // No traffic renders a placeholder instead of an empty table.
        // A version-1 body (no schema_version/scores) still renders:
        // edges without a score show placeholder columns.
        let empty = render_watch_frame(
            "127.0.0.1:9000",
            r#"{"window_us":0,"clock_us":0,"edges":[],"checks":[]}"#,
            None,
        )
        .unwrap();
        assert!(empty.contains("no traffic observed yet"), "{empty}");

        assert!(render_watch_frame("a", "not json", None).is_err());
    }

    #[test]
    fn watch_frame_scoreless_edges_render_placeholders() {
        let health = r#"{
            "schema_version": 2,
            "window_us": 1000000,
            "clock_us": 2000000,
            "edges": [{
                "src": "web", "dst": "cache",
                "requests": 10, "responses": 10, "errors": 0, "fault_hits": 0,
                "rate_rps": 10.0, "error_rate": 0.0,
                "p50_us": 900, "p99_us": 1600, "last_seen_us": 2000000
            }],
            "checks": [],
            "scores": []
        }"#;
        let frame = render_watch_frame("127.0.0.1:9000", health, None).unwrap();
        let edge_line = frame
            .lines()
            .find(|line| line.contains("web -> cache"))
            .unwrap();
        assert!(edge_line.trim_end().ends_with('-'), "{edge_line}");
    }

    #[test]
    fn replay_renders_a_recorded_timeline() {
        use gremlin::core::anomaly::{AnomalyAlert, EdgeState};
        use gremlin::core::{AlertEvent, FlightRecorder, FlightSummary, MonitorRecord, Verdict};

        let root = std::env::temp_dir().join(format!("gremlin-cli-replay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut recorder = FlightRecorder::create(&root, "cli replay", 5, 1_000_000).unwrap();
        recorder
            .append_records(&[
                MonitorRecord::Verdict(AlertEvent {
                    seq: 0,
                    at_us: 1_000_000,
                    check: "LiveAnomalousEdge(user -> web)".to_string(),
                    from: Verdict::Pending,
                    to: Verdict::Passing,
                    detail: "edge user -> web nominal".to_string(),
                }),
                MonitorRecord::Anomaly(AnomalyAlert {
                    seq: 1,
                    at_us: 2_000_000,
                    src: "user".to_string(),
                    dst: "web".to_string(),
                    from: EdgeState::Nominal,
                    to: EdgeState::Suspect,
                    score: 6.2,
                    detail: "latency z 6.2".to_string(),
                }),
            ])
            .unwrap();
        let dir = recorder
            .finish(&FlightSummary {
                name: "cli replay".to_string(),
                passed: true,
                injected: Vec::new(),
                checks: Vec::new(),
                monitor: Vec::new(),
                anomalies: Vec::new(),
                scenarios: vec![gremlin::core::Scenario::crash("web")],
            })
            .unwrap();

        let out = run(&args(&["replay", dir.to_str().unwrap()])).unwrap();
        assert!(
            out.contains("flight recording of recipe \"cli replay\""),
            "{out}"
        );
        assert!(out.contains("user -> web nominal -> suspect"), "{out}");
        assert!(out.contains("outcome: PASSED"), "{out}");

        let json = run(&args(&["replay", dir.to_str().unwrap(), "--json"])).unwrap();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(value["recipe"], "cli replay");
        assert_eq!(value["records"], 2);
        assert_eq!(value["report"]["passed"], true);

        assert!(run(&args(&["replay", "/nonexistent-flight-dir"])).is_err());

        // --root mode: one line per recorded run under the root.
        let listing = run(&args(&["replay", "--root", root.to_str().unwrap()])).unwrap();
        assert!(listing.contains("1 run(s) under"), "{listing}");
        assert!(listing.contains("cli replay — 1 scenario(s)"), "{listing}");
        assert!(listing.contains("pass"), "{listing}");

        // coverage over the same root: the crash scenario covers one
        // service-scoped cell.
        let scorecard = run(&args(&["coverage", root.to_str().unwrap()])).unwrap();
        assert!(scorecard.contains("1 run(s) scanned"), "{scorecard}");
        assert!(scorecard.contains("1 cell(s) covered"), "{scorecard}");
        let markdown = run(&args(&["coverage", root.to_str().unwrap(), "--markdown"])).unwrap();
        assert!(
            markdown.contains("# Resilience coverage scorecard"),
            "{markdown}"
        );
        let json = run(&args(&["coverage", root.to_str().unwrap(), "--json"])).unwrap();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(value["runs_scanned"], 1);
        assert!(run(&args(&[
            "coverage",
            root.to_str().unwrap(),
            "--drift-z",
            "nope"
        ]))
        .is_err());

        // An empty or missing root renders, it does not error.
        let empty = run(&args(&["replay", "--root", "/nonexistent-flight-root"])).unwrap();
        assert!(empty.contains("no recorded runs"), "{empty}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn install_against_live_agent() {
        use gremlin::proxy::{AgentConfig, ControlServer, GremlinAgent};
        let backend_addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let agent = Arc::new(
            GremlinAgent::start(
                AgentConfig::new("web").route("db", vec![backend_addr]),
                EventStore::shared(),
            )
            .unwrap(),
        );
        let control = ControlServer::start(Arc::clone(&agent), "127.0.0.1:0").unwrap();

        let graph_path = write_temp("ig.json", r#"{"edges": [["web", "db"]]}"#);
        let scenario = Scenario::disconnect("web", "db").with_pattern("test-*");
        let scenario_path = write_temp("is.json", &serde_json::to_string(&scenario).unwrap());

        let out = run(&args(&[
            "install",
            graph_path.to_str().unwrap(),
            scenario_path.to_str().unwrap(),
            "--agents",
            &control.local_addr().to_string(),
        ]))
        .unwrap();
        assert!(out.contains("installed 1 rule(s)"), "{out}");
        assert_eq!(agent.rules().len(), 1);

        let out = run(&args(&["rules", &control.local_addr().to_string()])).unwrap();
        assert!(out.contains("web -> db"), "{out}");

        let out = run(&args(&["health", &control.local_addr().to_string()])).unwrap();
        assert!(out.contains("service=web"), "{out}");

        let out = run(&args(&[
            "clear",
            "--agents",
            &control.local_addr().to_string(),
        ]))
        .unwrap();
        assert!(out.contains("cleared"), "{out}");
        assert!(agent.rules().is_empty());

        let _ = std::fs::remove_file(graph_path);
        let _ = std::fs::remove_file(scenario_path);
    }

    #[test]
    fn campaign_runs_recipes_against_a_live_agent() {
        use gremlin::core::CampaignRecipe;
        use gremlin::proxy::{AgentConfig, ControlServer, GremlinAgent};
        use std::time::Duration;

        let backend_addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let agent = Arc::new(
            GremlinAgent::start(
                AgentConfig::new("web").route("db", vec![backend_addr]),
                EventStore::shared(),
            )
            .unwrap(),
        );
        let control = ControlServer::start(Arc::clone(&agent), "127.0.0.1:0").unwrap();

        let graph_path = write_temp("cg.json", r#"{"edges": [["web", "db"]]}"#);
        // Both recipes fault the same edge, so they serialize into
        // two waves.
        let spec = CampaignSpec {
            max_in_flight: None,
            recipes: vec![
                CampaignRecipe::new("abort-db")
                    .scenario(Scenario::abort("web", "db", 503))
                    .hold(Duration::from_millis(20)),
                CampaignRecipe::new("slow-db")
                    .scenario(Scenario::delay("web", "db", Duration::from_millis(5)))
                    .hold(Duration::from_millis(20)),
            ],
        };
        let spec_path = write_temp("cc.json", &serde_json::to_string(&spec).unwrap());

        let out = run(&args(&[
            "campaign",
            graph_path.to_str().unwrap(),
            spec_path.to_str().unwrap(),
            "--agents",
            &control.local_addr().to_string(),
        ]))
        .unwrap();
        assert!(out.contains("campaign: 2 recipe(s) in 2 wave(s)"), "{out}");
        assert!(out.contains("[PASS] abort-db"), "{out}");
        assert!(out.contains("[PASS] slow-db"), "{out}");
        // The final wave boundary flushed the fleet.
        assert!(agent.rules().is_empty());

        // Missing --agents and empty campaigns error cleanly.
        assert!(run(&args(&[
            "campaign",
            graph_path.to_str().unwrap(),
            spec_path.to_str().unwrap(),
        ]))
        .is_err());
        let empty_path = write_temp("ce.json", r#"{"recipes":[]}"#);
        assert!(run(&args(&[
            "campaign",
            graph_path.to_str().unwrap(),
            empty_path.to_str().unwrap(),
            "--agents",
            &control.local_addr().to_string(),
        ]))
        .is_err());

        let _ = std::fs::remove_file(graph_path);
        let _ = std::fs::remove_file(spec_path);
        let _ = std::fs::remove_file(empty_path);
    }

    #[test]
    fn metrics_scrapes_a_live_agent() {
        use gremlin::proxy::{AgentConfig, ControlServer, GremlinAgent};
        let backend_addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let agent = Arc::new(
            GremlinAgent::start(
                AgentConfig::new("web").route("db", vec![backend_addr]),
                EventStore::shared(),
            )
            .unwrap(),
        );
        let control = ControlServer::start(Arc::clone(&agent), "127.0.0.1:0").unwrap();
        let addr = control.local_addr().to_string();

        let out = run(&args(&["metrics", &addr])).unwrap();
        assert!(
            out.contains("gremlin_proxy_requests_total{dst=db,service=web} 0"),
            "{out}"
        );
        // Histogram families collapse into one summary line.
        assert!(
            out.contains("gremlin_proxy_upstream_latency_seconds"),
            "{out}"
        );
        assert!(out.contains("count=0"), "{out}");
        assert!(!out.contains("_bucket"), "{out}");

        let raw = run(&args(&["metrics", &addr, "--raw"])).unwrap();
        assert!(
            raw.contains("# TYPE gremlin_proxy_requests_total counter"),
            "{raw}"
        );
        assert!(raw.contains("_bucket{"), "{raw}");

        // --targets spelling and multi-target headers.
        let multi = run(&args(&["metrics", "--targets", &format!("{addr},{addr}")])).unwrap();
        assert!(multi.contains(&format!("## {addr}")), "{multi}");

        assert!(run(&args(&["metrics"])).is_err());
        assert!(run(&args(&["metrics", "not-an-addr"])).is_err());
    }

    #[test]
    fn generate_emits_the_test_matrix() {
        let path = write_temp("gen.json", r#"{"edges": [["user", "web"], ["web", "db"]]}"#);
        let out = run(&args(&[
            "generate",
            path.to_str().unwrap(),
            "--exclude",
            "user",
            "--pattern",
            "probe-*",
        ]))
        .unwrap();
        let tests: Vec<gremlin::core::autogen::GeneratedTest> = serde_json::from_str(&out).unwrap();
        assert_eq!(tests.len(), 3, "one edge, three probes");
        assert!(tests
            .iter()
            .all(|t| t.scenario.pattern == gremlin::store::Pattern::new("probe-*")));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn watch_reconnects_after_a_collector_restart() {
        use gremlin::proxy::CollectorServer;
        use std::time::Duration;

        let store = EventStore::shared();
        let collector = CollectorServer::start(Arc::clone(&store), "127.0.0.1:0").unwrap();
        let addr = collector.local_addr();
        collector.shutdown();

        // Bring a collector back on the same port while watch is in
        // its backoff loop: the dashboard must ride out the gap
        // instead of exiting on the first refused connection.
        let restart_store = Arc::clone(&store);
        let restarter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            for _ in 0..40 {
                match CollectorServer::start(Arc::clone(&restart_store), addr) {
                    Ok(server) => return server,
                    Err(_) => std::thread::sleep(Duration::from_millis(25)),
                }
            }
            panic!("could not rebind collector on {addr}");
        });
        let out = run(&args(&[
            "watch",
            &addr.to_string(),
            "--count",
            "1",
            "--interval",
            "1ms",
        ]))
        .unwrap();
        assert!(out.contains("watched 1 frame(s)"), "{out}");
        restarter.join().unwrap().shutdown();

        // With the collector gone for good and zero retries, watch
        // fails fast instead of hanging.
        assert!(run(&args(&[
            "watch",
            &addr.to_string(),
            "--count",
            "1",
            "--retries",
            "0"
        ]))
        .is_err());
    }

    #[test]
    fn top_renders_a_live_fleet_dashboard() {
        use gremlin::http::{ConnInfo, HttpServer, Request, Response, StatusCode};
        use gremlin::proxy::{CollectorServer, Scraper};
        use gremlin::store::{HealthMonitor, DEFAULT_HEALTH_WINDOW};
        use gremlin::telemetry::{MetricsRegistry, TimeSeriesStore};

        // One fake agent serving real proxy-style metrics.
        let agent_registry = MetricsRegistry::shared();
        agent_registry
            .counter(
                "gremlin_proxy_requests_total",
                "requests",
                &[("service", "web"), ("dst", "db")],
            )
            .add(10);
        let registry = Arc::clone(&agent_registry);
        let agent = HttpServer::bind("127.0.0.1:0", move |_req: Request, _conn: &ConnInfo| {
            Response::builder(StatusCode::OK)
                .body(registry.render_prometheus())
                .build()
        })
        .unwrap();

        let scraper = Arc::new(Scraper::new(TimeSeriesStore::shared()));
        scraper.add_target("web", agent.local_addr().to_string());
        scraper.scrape_at(1_000_000);
        agent_registry
            .counter(
                "gremlin_proxy_requests_total",
                "requests",
                &[("service", "web"), ("dst", "db")],
            )
            .add(20);
        scraper.scrape_at(2_000_000);
        scraper.store().annotate(1_500_000, "install", "crash db");

        let store = EventStore::shared();
        let monitor = Arc::new(HealthMonitor::new(
            Arc::clone(&store),
            DEFAULT_HEALTH_WINDOW,
        ));
        let collector = CollectorServer::start_with_fleet(
            store,
            "127.0.0.1:0",
            MetricsRegistry::shared(),
            monitor,
            Some(Arc::clone(&scraper)),
        )
        .unwrap();

        let out = run(&args(&[
            "top",
            &collector.local_addr().to_string(),
            "--count",
            "1",
            "--interval",
            "1ms",
        ]))
        .unwrap();
        assert!(out.contains("monitored 1 frame(s)"), "{out}");

        // The renderer itself, against a hand-built store: rates,
        // up/stale columns and the phase line all show up.
        let local = TimeSeriesStore::new();
        let body = "up{instance=\"web\"} 1\n\
             gremlin_proxy_requests_total{instance=\"web\",service=\"web\"} 10\n\
             up{instance=\"db\"} 0\n\
             gremlin_scrape_stale{instance=\"db\"} 1\n";
        ingest_federated(&local, 1_000_000, body);
        let body2 = body.replace(
            "gremlin_proxy_requests_total{instance=\"web\",service=\"web\"} 10",
            "gremlin_proxy_requests_total{instance=\"web\",service=\"web\"} 40",
        );
        ingest_federated(&local, 2_000_000, &body2);
        let index = serde_json::json!({
            "annotations": [{"at_us": 1_500_000, "phase": "install", "detail": "crash db"}],
        });
        let frame = render_top_frame("collector:0", &local, Some(&index), 2_000_000);
        assert!(frame.contains("2 target(s)"), "{frame}");
        assert!(frame.contains("phase: install (crash db)"), "{frame}");
        assert!(frame.contains("up"), "{frame}");
        assert!(frame.contains("stale"), "{frame}");
        // 30 requests over 1s -> 30.0 req/s, and a sparkline cell.
        assert!(frame.contains("30.0"), "{frame}");
        assert!(frame.contains('█'), "{frame}");

        assert!(run(&args(&["top", "not-an-addr"])).is_err());
    }

    #[test]
    fn replay_renders_recorded_metric_history() {
        use gremlin::core::{FlightRecorder, FlightSummary};
        use gremlin::telemetry::TimeSeriesStore;

        let root = std::env::temp_dir().join(format!("gremlin-cli-tsrp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let timeline = TimeSeriesStore::new();
        timeline.append("local", "demo_requests_total", &[], 1_000_000, 5.0);
        timeline.append("local", "demo_requests_total", &[], 2_000_000, 45.0);
        timeline.annotate(1_500_000, "install", "overload db");

        let mut recorder = FlightRecorder::create(&root, "ts replay", 5, 1_000_000).unwrap();
        recorder.record_timeseries(&timeline).unwrap();
        let dir = recorder
            .finish(&FlightSummary {
                name: "ts replay".to_string(),
                passed: true,
                injected: Vec::new(),
                checks: Vec::new(),
                monitor: Vec::new(),
                anomalies: Vec::new(),
                scenarios: Vec::new(),
            })
            .unwrap();

        let out = run(&args(&["replay", dir.to_str().unwrap()])).unwrap();
        assert!(out.contains("metric history: 1 series"), "{out}");
        assert!(out.contains("install: overload db"), "{out}");
        assert!(out.contains("+40 over the run"), "{out}");

        let json = run(&args(&["replay", dir.to_str().unwrap(), "--json"])).unwrap();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(value["timeseries"], 3, "2 points + 1 annotation");

        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn bad_inputs_error_cleanly() {
        assert!(run(&args(&["graph", "/nonexistent.json"])).is_err());
        assert!(run(&args(&["install", "a", "b"])).is_err());
        assert!(run(&args(&["rules", "not-an-addr"])).is_err());
        let path = write_temp("empty.ndjson", "");
        assert!(run(&args(&["check", path.to_str().unwrap()])).is_err());
        assert!(run(&args(&[
            "check",
            path.to_str().unwrap(),
            "--assert",
            "nonsense"
        ]))
        .is_err());
        let _ = std::fs::remove_file(path);
    }
}
