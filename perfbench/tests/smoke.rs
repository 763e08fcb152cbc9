//! The smoke size of the benchmark command: every workload, untraced and
//! traced, with every correctness check, in seconds. Also checks that the
//! result lines carry exactly the metrics `BENCHMARK.json` declares.

use std::process::Command;

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn names(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array ends")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_owned())
        .collect()
}

/// Metric names in a result line, in order.
fn result_metrics(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
    let parts: Vec<&str> = metrics.split("{\"value\"").collect();
    // Each part but the last ends with the name of the metric that follows.
    parts[..parts.len() - 1]
        .iter()
        .map(|s| s.rsplit('"').nth(1).expect("quoted name").to_owned())
        .collect()
}

#[test]
fn smoke_size_runs_every_workload_and_check() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let end_to_end = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");
    let workloads = names(&spec, "workloads");
    assert_eq!(workloads, ["serve_uniform", "skew_durable", "paper_seq"]);

    let out = Command::new(env!("CARGO_BIN_EXE_rxview-perfbench"))
        .args([
            "--workload",
            "all",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--smoke",
        ])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        stdout.lines().last(),
        Some("{\"all_workloads_clean\": true}")
    );

    let results: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .collect();
    assert_eq!(results.len(), 2 * workloads.len(), "one result per run");
    for pair in results.chunks(2) {
        assert_eq!(result_metrics(pair[0]), end_to_end);
        assert_eq!(result_metrics(pair[1]), per_layer);
        assert!(
            !pair[0].contains("null"),
            "an end-to-end metric was not measured: {}",
            pair[0]
        );
    }
    for w in &workloads {
        assert!(
            stdout.contains(&format!("# {w}: tracing overhead = ")),
            "no tracing overhead for {w}"
        );
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        vec!["--workload", "nope"],
        vec!["--workload", "paper_seq", "--trace", "2"],
        vec!["--workload", "paper_seq", "--seconds", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_rxview-perfbench"))
            .args(&args)
            .output()
            .expect("benchmark runs");
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
