//! `bench_e2e`: the repository's benchmark.
//!
//! ```text
//! cargo run --release -p gremlin-bench-e2e -- \
//!     [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--smoke]
//! cargo run --release -p gremlin-bench-e2e -- --compare <a.json> <b.json>
//! ```
//!
//! With `--workload` it runs that workload in this process and prints
//! every metric by name with its unit, then one JSON object as the last
//! line of standard output. Without, it runs each workload in a process
//! of its own and ends with the four results as one JSON object — a
//! result set, which `--compare` reads. See `README.md` beside this
//! crate for what is measured and why.

mod compare;
mod contract;
mod driver;
mod gen;
mod runner;
mod spans;
mod stats;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use contract::Contract;
use runner::{RunConfig, RunResult};

const USAGE: &str = "usage: gremlin-bench-e2e [--workload <name>] [--seed <u64>] [--seconds <n>] \
[--trace <0|1>] [--smoke]\n       gremlin-bench-e2e --compare <a.json> <b.json>";

/// The command line, parsed.
#[derive(Debug, PartialEq)]
enum Invocation {
    /// Run one workload here, or all four in child processes.
    Run {
        workload: Option<String>,
        seed: u64,
        seconds: Option<f64>,
        trace: bool,
        smoke: bool,
    },
    /// Compare two result set files.
    Compare { a: String, b: String },
}

fn parse_args(args: &[String]) -> Result<Invocation, String> {
    let mut workload = None;
    let mut seed = gen::DEFAULT_SEED;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                seed = value("a whole number")?
                    .parse()
                    .map_err(|err| format!("--seed: {err}"))?;
            }
            "--seconds" => {
                let parsed: f64 = value("a number of seconds")?
                    .parse()
                    .map_err(|err| format!("--seconds: {err}"))?;
                if !(parsed > 0.0 && parsed <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--smoke" => smoke = true,
            "--compare" => {
                let a = value("two files")?.clone();
                let b = value("two files")?.clone();
                return Ok(Invocation::Compare { a, b });
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if let Some(name) = &workload {
        if !workloads::NAMES.contains(&name.as_str()) {
            return Err(format!(
                "unknown workload `{name}`; expected one of {:?}",
                workloads::NAMES
            ));
        }
    }
    Ok(Invocation::Run {
        workload,
        seed,
        seconds,
        trace,
        smoke,
    })
}

fn print_result(config: &RunConfig, result: &RunResult) {
    println!(
        "# bench_e2e {} — seed {}, {}",
        config.workload,
        config.seed,
        if config.trace {
            "traced run: per-layer metrics"
        } else {
            "untraced run: end-to-end metrics"
        }
    );
    for note in &result.notes {
        println!("#   {note}");
    }
    for metric in &result.metrics {
        println!("{:<44} {:>16.4} {}", metric.name, metric.value, metric.unit);
    }
    println!(
        "{:<44} {:>16} of {} ({})",
        "failed",
        result.failed,
        result.attempted,
        if result.correct() {
            "every result as the seed predicts"
        } else {
            "RESULTS DIFFER FROM THE SEED'S PREDICTION"
        }
    );
    println!("{}", result.to_json());
}

/// Runs every workload in a child process of its own and prints the
/// result set. Returns whether every child succeeded.
fn run_all(seed: u64, seconds: Option<f64>, trace: bool, smoke: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|err| format!("locating this program: {err}"))?;
    let mut results = serde_json::Map::new();
    let mut all_ok = true;
    for workload in workloads::NAMES {
        let mut command = Command::new(&exe);
        command
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stdout(Stdio::piped());
        if let Some(seconds) = seconds {
            command.args(["--seconds", &seconds.to_string()]);
        }
        if smoke {
            command.arg("--smoke");
        }
        // `output` waits for the child, so none outlives this process.
        let output = command
            .output()
            .map_err(|err| format!("starting the {workload} process: {err}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for line in lines {
            println!("{line}");
        }
        match serde_json::from_str::<serde_json::Value>(last) {
            Ok(result) if result["metrics"].is_object() => {
                all_ok &= output.status.success() && result["correct"] == true;
                results.insert(workload.to_string(), result);
            }
            _ => {
                println!("{last}");
                return Err(format!(
                    "the {workload} process printed no result ({})",
                    output.status
                ));
            }
        }
        println!();
    }
    println!(
        "{}",
        serde_json::json!({"seed": seed, "trace": trace, "results": results})
    );
    Ok(all_ok)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let contract = Contract::load()?;
    match parse_args(&args)? {
        Invocation::Compare { a, b } => {
            let read = |path: &str| {
                std::fs::read_to_string(path).map_err(|err| format!("reading {path}: {err}"))
            };
            let (rows, failed) = compare::compare(&read(&a)?, &read(&b)?, &contract)?;
            print!("{}", compare::render(&rows, failed));
            let outside = rows
                .iter()
                .any(|row| row.verdict == compare::Verdict::Outside);
            Ok(!outside && failed == 0)
        }
        Invocation::Run {
            workload: None,
            seed,
            seconds,
            trace,
            smoke,
        } => run_all(seed, seconds, trace, smoke),
        Invocation::Run {
            workload: Some(workload),
            seed,
            seconds,
            trace,
            smoke,
        } => {
            let config = RunConfig {
                workload,
                seed,
                seconds: seconds.unwrap_or(contract.run_seconds as f64),
                trace,
                smoke,
            };
            let result = runner::run(&config, &contract)?;
            print_result(&config, &result);
            Ok(result.correct())
        }
    }
}

fn main() -> ExitCode {
    // Before anything starts a thread: threads and child processes inherit
    // it, and the run shape (clients, store shards) follows the cores that
    // are left, so a workload runs the same in a child as on its own.
    driver::pin_to_one_core();
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bench_e2e: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_arguments_parse() {
        assert_eq!(
            parse_args(&args(
                "--workload proxy_faulted --seed 7 --seconds 10 --trace 1"
            )),
            Ok(Invocation::Run {
                workload: Some("proxy_faulted".to_string()),
                seed: 7,
                seconds: Some(10.0),
                trace: true,
                smoke: false,
            })
        );
        assert_eq!(
            parse_args(&[]),
            Ok(Invocation::Run {
                workload: None,
                seed: gen::DEFAULT_SEED,
                seconds: None,
                trace: false,
                smoke: false,
            })
        );
        assert_eq!(
            parse_args(&args("--compare a.json b.json")),
            Ok(Invocation::Compare {
                a: "a.json".to_string(),
                b: "b.json".to_string()
            })
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds -3",
            "--trace 2",
            "--trace",
            "--compare only-one",
            "--frobnicate",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "accepted `{bad}`");
        }
    }
}
