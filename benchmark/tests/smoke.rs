//! Runs the built binary at 1/50 size on every workload, traced and
//! untraced, and holds its last line against `BENCHMARK.json`.

use msim_json::Value;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_msplayer-benchmark");

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    msim_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json")
}

fn names(doc: &Value, key: &str) -> BTreeSet<String> {
    doc.get(key)
        .and_then(Value::as_array)
        .expect("array")
        .iter()
        .map(|item| {
            item.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn keys(v: &Value) -> BTreeSet<String> {
    v.as_object().expect("object").keys().cloned().collect()
}

#[test]
fn smoke_runs_every_workload_traced_and_untraced_within_15_s() {
    let doc = benchmark_json();
    let started = Instant::now();
    for workload in names(&doc, "workloads") {
        for (trace, declared) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(BIN)
                .args(["run", "--workload", &workload, "--seed", "3", "--smoke"])
                .args(["--trace", trace])
                .output()
                .expect("run the benchmark binary");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} exited {:?}\n{stdout}\n{}",
                out.status.code(),
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("output");
            let line = msim_json::from_str(last).expect("last line is JSON");
            assert_eq!(
                keys(&line),
                ["attempted", "correct", "failed", "metrics"]
                    .map(String::from)
                    .into(),
                "{workload}: the driver's line has exactly four keys"
            );
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(line.get("failed").and_then(Value::as_u64), Some(0));
            assert!(line.get("attempted").and_then(Value::as_u64) >= Some(1));
            let metrics = line.get("metrics").expect("metrics");
            assert_eq!(
                keys(metrics),
                names(&doc, declared),
                "{workload} --trace {trace}: metric names match BENCHMARK.json"
            );
            for (name, m) in metrics.as_object().expect("object") {
                assert_eq!(keys(m), ["unit", "value"].map(String::from).into());
                assert!(
                    m.get("value").and_then(Value::as_f64).is_some(),
                    "{name} has a numeric value"
                );
            }
        }
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(15),
        "smoke took {elapsed:?}, budget 15 s"
    );
}

#[test]
fn a_failed_argument_prints_no_result_and_exits_non_zero() {
    for args in [
        &["run", "--workload", "no_such_workload", "--smoke"][..],
        &["run", "--smoke"][..],
        &["frobnicate"][..],
    ] {
        let out = Command::new(BIN).args(args).output().expect("run");
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("\"metrics\""),
            "{args:?} must not print a result"
        );
    }
}
