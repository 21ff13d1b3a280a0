//! Runs every workload briefly, untraced and traced, and checks the output
//! contract: every metric printed with its unit, a final JSON line with no
//! failures, and a trace file with a span for every replayed layer call.

use serde::Value;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["serve_small", "serve_sweep", "tune_dense", "train"];

/// The span names the traced replay must record.
const LAYER_SPANS: [&str; 8] = [
    "engine.advise",
    "replay",
    "advisor.enumerate",
    "analyze.assess",
    "frontend.parse",
    "core.graph_build",
    "gnn.predict",
    "serve.serialize",
];

fn run(workload: &str, trace: bool, target: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_pgbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env("CARGO_TARGET_DIR", target)
        .output()
        .expect("run pgbench");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let (json, metric_lines) = lines.split_last().expect("pgbench prints a result");
    for line in metric_lines {
        let fields: Vec<&str> = line.split(' ').collect();
        assert_eq!(fields.len(), 4, "`workload metric value unit`: {line}");
        assert_eq!(fields[0], workload);
        assert!(fields[2].parse::<f64>().unwrap().is_finite(), "{line}");
    }
    let result: Value = serde_json::from_str(json).unwrap();
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{json}");
    assert!(
        matches!(result.get("failed"), Some(Value::Int(0) | Value::UInt(0))),
        "{json}"
    );
    let Some(Value::Object(metrics)) = result.get("metrics") else {
        panic!("no metrics object: {json}");
    };
    assert_eq!(metrics.len(), metric_lines.len());
    result
}

#[test]
fn every_workload_prints_its_metrics_and_traces_every_layer() {
    let target = env!("CARGO_TARGET_TMPDIR");
    for workload in WORKLOADS {
        run(workload, false, target);
        run(workload, true, target);
        let path = format!("{target}/pgbench/trace-{workload}-3.json");
        let trace: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let Some(Value::Array(spans)) = trace.get("spans") else {
            panic!("{path} has no spans");
        };
        for name in LAYER_SPANS {
            assert!(
                spans
                    .iter()
                    .any(|s| s.get("name") == Some(&Value::Str(name.into()))),
                "{path} has no {name} span"
            );
        }
    }
}
