//! Runs every workload of `BENCHMARK.json` at smoke size, untraced and
//! traced, and checks that the result line is well formed, the run is
//! correct, and every metric `BENCHMARK.json` names is emitted.

use serde_json::Value;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Value, key: &str) -> Vec<String> {
    spec[key]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| m["name"].as_str().expect("metric name").to_string())
        .collect()
}

fn run(workload: &str, trace: u8) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("benchmark runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stderr}"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("result line is JSON")
}

#[test]
fn every_workload_emits_every_metric() {
    let spec = benchmark_json();
    let end_to_end = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");
    for w in spec["workloads"].as_array().expect("workloads") {
        let workload = w["name"].as_str().expect("workload name");
        for (trace, expected) in [(0u8, &end_to_end), (1, &per_layer)] {
            let result = run(workload, trace);
            assert_eq!(result["correct"].as_bool(), Some(true), "{workload}");
            assert_eq!(result["failed"].as_u64(), Some(0), "{workload}");
            assert!(result["attempted"].as_u64().unwrap_or(0) >= 1, "{workload}");
            let metrics = &result["metrics"];
            for name in expected {
                let value = metrics[name.as_str()]["value"].as_f64();
                assert!(
                    value.is_some(),
                    "{workload} trace {trace}: no metric {name}"
                );
            }
        }
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "long_lp", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "long_lp",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "long_lp",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("benchmark runs");
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
