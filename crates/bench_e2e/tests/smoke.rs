//! Runs the benchmark binary end to end in `--smoke` mode: one small
//! round per workload, untraced and traced, then `--compare` over the two
//! result sets it produced. Checks the result lines against the contract
//! and that the traced numbers separate the layers the way the README
//! says the workloads do.

use std::path::PathBuf;
use std::process::Command;

use serde_json::Value;

const WORKLOADS: [&str; 4] = [
    "proxy_passthrough",
    "proxy_faulted",
    "observe_pipeline",
    "recipe_verdict",
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("the crate sits two levels below the repository root")
        .to_path_buf()
}

/// Runs the binary from the repository root; returns its stdout.
fn bench(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_gremlin-bench-e2e"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("the benchmark binary starts");
    assert!(
        output.status.success(),
        "{args:?} exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("stdout is UTF-8")
}

fn last_line_json(stdout: &str) -> Value {
    serde_json::from_str(stdout.lines().last().expect("some output")).expect("last line is JSON")
}

fn contract() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    serde_json::from_str(&text).unwrap()
}

fn declared(contract: &Value, list: &str) -> Vec<(String, String)> {
    contract[list]
        .as_array()
        .unwrap()
        .iter()
        .map(|metric| {
            (
                metric["name"].as_str().unwrap().to_string(),
                metric["unit"].as_str().unwrap().to_string(),
            )
        })
        .collect()
}

/// Every result has exactly the contract's keys and every declared
/// metric, with its unit, and nothing failed.
fn check_results(set: &Value, metrics: &[(String, String)]) {
    for workload in WORKLOADS {
        let result = &set["results"][workload];
        let keys: Vec<&String> = result.as_object().unwrap().keys().collect();
        assert_eq!(
            keys,
            ["attempted", "correct", "failed", "metrics"],
            "{workload}"
        );
        assert_eq!(result["correct"], true, "{workload}");
        assert_eq!(result["failed"], 0, "{workload}");
        assert!(result["attempted"].as_u64().unwrap() >= 1, "{workload}");
        let reported = result["metrics"].as_object().unwrap();
        assert_eq!(reported.len(), metrics.len(), "{workload}");
        for (name, unit) in metrics {
            let metric = &reported[name.as_str()];
            assert!(metric["value"].is_number(), "{workload}: {name}");
            assert_eq!(metric["unit"], unit.as_str(), "{workload}: {name}");
        }
    }
}

fn value(set: &Value, workload: &str, metric: &str) -> f64 {
    set["results"][workload]["metrics"][metric]["value"]
        .as_f64()
        .unwrap_or_else(|| panic!("{workload} reports no {metric}"))
}

#[test]
fn smoke_runs_every_workload_and_the_layers_separate() {
    let contract = contract();

    // Untraced: every end-to-end metric, none of them zero.
    let untraced_out = bench(&["--smoke"]);
    let untraced = last_line_json(&untraced_out);
    let end_to_end = declared(&contract, "end_to_end");
    check_results(&untraced, &end_to_end);
    for workload in WORKLOADS {
        for (name, _) in &end_to_end {
            assert!(
                value(&untraced, workload, name) > 0.0,
                "{workload}: {name} is 0"
            );
        }
    }
    assert!(untraced_out.contains("loopback only"));

    // The run shape is the same whether a workload is started by the
    // all-workloads mode or on its own.
    let shape = |stdout: &str| -> Vec<String> {
        let lines = stdout.lines().filter(|line| line.contains("closed loop"));
        lines.map(str::to_string).collect()
    };
    let shapes = shape(&untraced_out);
    assert_eq!(shapes.len(), WORKLOADS.len());
    for (workload, in_all_mode) in WORKLOADS.iter().zip(&shapes) {
        let alone = bench(&["--smoke", "--workload", workload]);
        assert_eq!(
            shape(&alone),
            std::slice::from_ref(in_all_mode),
            "{workload}"
        );
    }

    // Traced: every per-layer metric by its declared name.
    let traced = last_line_json(&bench(&["--smoke", "--trace", "1"]));
    let per_layer = declared(&contract, "per_layer");
    check_results(&traced, &per_layer);

    // Each workload exercises the layers it is meant to…
    for (workload, exercised) in [
        (
            "proxy_passthrough",
            &[
                "bench.driver.null_rtt_p50_us",
                "httpwire.codec.read_request_ns",
                "httpwire.server.direct_p50_us",
                "httpwire.client.send_p50_us",
                "proxy.table.match_ns",
                "proxy.agent.self_p50_us",
                "eventstore.store.record_ns",
                "telemetry.histogram.record_ns",
                "bench.trace.spans",
            ][..],
        ),
        (
            "proxy_faulted",
            &[
                "proxy.table.hits",
                "proxy.table.install_us",
                "proxy.agent.rule_hits",
            ][..],
        ),
        (
            "observe_pipeline",
            &[
                "eventstore.event.to_json_ns",
                "eventstore.event.from_json_ns",
                "eventstore.store.record_batch_ns_per_event",
                "eventstore.store.events_after_us",
                "proxy.collector.sink_record_ns",
                "proxy.collector.sink_flush_us",
                "proxy.collector.ingest_batch_us",
                "core.monitor.events_per_poll",
            ][..],
        ),
        (
            "recipe_verdict",
            &[
                "core.scenarios.to_rules_us",
                "core.orchestrator.apply_rules_us",
                "core.orchestrator.pushes",
                "proxy.control.install_rtt_us",
                "core.checker.has_timeouts_us",
                "core.checker.has_bounded_retries_us",
                "core.checker.has_latency_slo_us",
                "core.checker.checks",
                "core.recipe.finish_us",
                "eventstore.store.query_edge_us",
            ][..],
        ),
    ] {
        for metric in exercised {
            assert!(
                value(&traced, workload, metric) > 0.0,
                "{workload}: {metric} is 0"
            );
        }
    }

    // …and leaves the others alone.
    assert_eq!(
        value(&traced, "proxy_passthrough", "proxy.agent.rule_hits"),
        0.0
    );
    assert_eq!(value(&traced, "proxy_passthrough", "proxy.table.hits"), 0.0);
    assert_eq!(
        value(&traced, "proxy_passthrough", "proxy.table.index_miss_ratio"),
        1.0
    );
    assert_eq!(
        value(&traced, "proxy_faulted", "proxy.table.index_miss_ratio"),
        0.0
    );
    assert_eq!(
        value(&traced, "proxy_passthrough", "proxy.agent.events_per_op"),
        2.0
    );
    assert_eq!(
        value(&traced, "proxy_faulted", "proxy.agent.events_per_op"),
        2.0
    );
    for (name, _) in &per_layer {
        let on = |workload: &str| value(&traced, workload, name);
        if name.starts_with("proxy.collector.") || name.starts_with("core.monitor.") {
            assert_eq!(on("proxy_passthrough"), 0.0, "{name} on proxy_passthrough");
            assert_eq!(on("proxy_faulted"), 0.0, "{name} on proxy_faulted");
            assert_eq!(on("recipe_verdict"), 0.0, "{name} on recipe_verdict");
        }
        if name.starts_with("proxy.agent.") || name.starts_with("httpwire.") {
            assert_eq!(on("observe_pipeline"), 0.0, "{name} on observe_pipeline");
            assert_eq!(on("recipe_verdict"), 0.0, "{name} on recipe_verdict");
        }
        if name.starts_with("core.checker.") || name.starts_with("core.orchestrator.") {
            assert_eq!(on("proxy_passthrough"), 0.0, "{name} on proxy_passthrough");
            assert_eq!(on("observe_pipeline"), 0.0, "{name} on observe_pipeline");
        }
    }
    // The seeded count of faulted calls: 45 checks per cycle, all cycles.
    let cycles = traced["results"]["recipe_verdict"]["attempted"]
        .as_u64()
        .unwrap()
        / 2;
    assert_eq!(
        value(&traced, "recipe_verdict", "core.checker.checks"),
        (45 * cycles) as f64
    );
    // Assertions are at least half of a cycle.
    let share = value(&traced, "recipe_verdict", "core.checker.cycle_share");
    assert!(share >= 0.5, "assertions are {share} of a recipe cycle");
    let sink_dropped = value(&traced, "observe_pipeline", "proxy.collector.sink_dropped");
    assert_eq!(sink_dropped, 0.0);

    // The spans were written, one JSON object per line.
    for workload in WORKLOADS {
        let path = repo_root().join(format!("crates/bench_e2e/results/{workload}.spans.jsonl"));
        let text = std::fs::read_to_string(&path).unwrap();
        let first: Value = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        let keys: Vec<&String> = first.as_object().unwrap().keys().collect();
        assert_eq!(
            keys,
            ["end_ns", "id", "name", "parent", "start_ns"],
            "{workload}"
        );
    }

    // `--compare` reads what the all-workloads mode printed.
    let dir = repo_root().join("crates/bench_e2e/results");
    let (a, b) = (dir.join("smoke_a.json"), dir.join("smoke_b.json"));
    std::fs::write(&a, untraced_out.lines().last().unwrap()).unwrap();
    std::fs::write(&b, untraced_out.lines().last().unwrap()).unwrap();
    let report = bench(&["--compare", a.to_str().unwrap(), b.to_str().unwrap()]);
    for workload in WORKLOADS {
        assert!(report.contains(workload), "{report}");
    }
    assert!(
        report.contains("inside bound") && !report.contains("OUTSIDE"),
        "{report}"
    );
}

#[test]
fn bad_invocations_fail_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--trace", "7"], &["--bogus"]] {
        let output = Command::new(env!("CARGO_BIN_EXE_gremlin-bench-e2e"))
            .args(args)
            .current_dir(repo_root())
            .output()
            .unwrap();
        assert!(!output.status.success(), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
