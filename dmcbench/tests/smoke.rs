//! Tiny-size runs of every workload through the built binary: each run
//! emits every metric `BENCHMARK.json` declares for its mode, with the
//! declared unit, and a deliberately wrong output is counted as failed.

use dmc_metrics::json::JsonValue;
use std::process::Command;

fn manifest() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    JsonValue::parse(&text).expect("BENCHMARK.json is JSON")
}

fn names(manifest: &JsonValue, key: &str) -> Vec<String> {
    manifest
        .get(key)
        .and_then(JsonValue::as_array)
        .expect("a declared list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect()
}

fn run(workload: &str, trace: bool, extra: &[&str]) -> (JsonValue, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dmcbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"])
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{workload}: {stdout}");
    let last = stdout.lines().last().expect("a result line").to_string();
    (
        JsonValue::parse(&last).expect("the last line is JSON"),
        stdout,
    )
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let manifest = manifest();
    for workload in names(&manifest, "workloads") {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let (result, stdout) = run(&workload, trace, &[]);
            assert_eq!(
                result.get("correct").and_then(JsonValue::as_bool),
                Some(true)
            );
            assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
            assert!(result.get("attempted").and_then(JsonValue::as_u64).unwrap() >= 1);
            let metrics = result.get("metrics").expect("metrics object");
            let mut emitted: Vec<&str> = metrics.keys();
            emitted.sort_unstable();
            let declared = manifest.get(key).and_then(JsonValue::as_array).unwrap();
            let mut want: Vec<&str> = declared
                .iter()
                .map(|m| m.get("name").and_then(JsonValue::as_str).unwrap())
                .collect();
            want.sort_unstable();
            assert_eq!(emitted, want, "{workload} {key}");
            for m in declared {
                let name = m.get("name").and_then(JsonValue::as_str).unwrap();
                let got = metrics.get(name).unwrap();
                assert_eq!(
                    got.get("unit").and_then(JsonValue::as_str),
                    m.get("unit").and_then(JsonValue::as_str),
                    "{workload} {name}"
                );
                let value = got.get("value").and_then(JsonValue::as_f64).unwrap();
                assert!(value.is_finite(), "{workload} {name}");
                if !trace {
                    assert!(value > 0.0, "{workload} {name} is {value}");
                }
                // The table above the result line names it with a sample count.
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.starts_with(name) && l.contains(" n=")),
                    "{workload} {name}"
                );
            }
        }
    }
}

#[test]
fn a_wrong_output_counts_as_failed() {
    for workload in names(&manifest(), "workloads") {
        let (result, stdout) = run(&workload, false, &["--inject-wrong"]);
        assert_eq!(
            result.get("correct").and_then(JsonValue::as_bool),
            Some(false),
            "{workload}"
        );
        assert!(result.get("failed").and_then(JsonValue::as_u64).unwrap() >= 1);
        let frac = stdout
            .lines()
            .find(|l| l.starts_with("fail_frac"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse::<f64>().ok())
            .expect("a fail_frac line");
        assert!(frac > 0.0, "{workload}: fail_frac {frac}");
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload weblog-imp --seed 1 --seconds 0 --trace 0",
        "--workload weblog-imp --seed 1 --trace 0",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dmcbench"))
            .args(args.split(' '))
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
