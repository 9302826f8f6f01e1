//! A one-second run of every workload, untraced and traced: each prints
//! every metric `BENCHMARK.json` declares, with its unit, and no request
//! or cell fails.

use serde::Value;
use std::process::Command;

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = serde_json::parse(&text).expect("BENCHMARK.json is JSON");
    let text_of = |m: &Value, key: &str| match m.field(key) {
        Ok(Value::Str(s)) => s.clone(),
        other => panic!("{key} of a {list} metric: {other:?}"),
    };
    doc.field(list)
        .ok()
        .and_then(Value::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| (text_of(m, "name"), text_of(m, "unit")))
        .collect()
}

#[test]
fn every_workload_prints_every_metric_and_fails_nothing() {
    for trace in ["0", "1"] {
        let metrics = declared(if trace == "0" {
            "end_to_end"
        } else {
            "per_layer"
        });
        for workload in ["sweep_cold", "serve_features", "serve_mixed"] {
            let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace])
                .output()
                .expect("the benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload}: {}\n{stdout}",
                String::from_utf8_lossy(&out.stderr)
            );
            for (name, unit) in &metrics {
                let printed = stdout.lines().any(|l| {
                    let f: Vec<&str> = l.split(' ').collect();
                    f.len() == 4 && f[0] == workload && f[1] == name && f[3] == unit
                });
                assert!(
                    printed,
                    "{workload} did not print {name} in {unit}:\n{stdout}"
                );
            }
            let last = stdout.lines().last().unwrap_or_default();
            assert!(
                last.starts_with(r#"{"correct":true,"#) && last.contains(r#""failed":0,"#),
                "{workload}: {last}"
            );
        }
    }
}
