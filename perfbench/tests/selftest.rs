//! Self-tests of the benchmark at toy scale: the printed metrics match
//! `BENCHMARK.json` by name and unit, count metrics repeat exactly, the R-S
//! input clears its pair floor, and bad arguments exit 2. That a wrong
//! reference fails a run is a unit test of `src/run.rs`.

use std::process::Command;

use mapreduce::Json;

const WORKLOADS: [&str; 3] = ["dblp-self", "dblp-cite-rs", "ppjoin-1t"];

/// Run the benchmark binary from the repository root, as the benchmark
/// command does; returns the exit code and the JSON lines of its standard
/// output.
fn perfbench(args: &[&str]) -> (i32, Vec<Json>) {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let lines = stdout.lines().filter_map(|l| Json::parse(l).ok()).collect();
    (output.status.code().expect("exited"), lines)
}

fn toy(workload: &str, seed: &str, trace: &str) -> (i32, Vec<Json>) {
    perfbench(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0.2",
        "--trace",
        trace,
        "--size",
        "toy",
    ])
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// The `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// The `(name, unit, value)` triples of a result line's metrics.
fn printed(result: &Json) -> Vec<(String, String, f64)> {
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            (name.clone(), unit.to_string(), value)
        })
        .collect()
}

fn metric(result: &Json, name: &str) -> f64 {
    printed(result)
        .into_iter()
        .find(|(n, _, _)| n == name)
        .unwrap_or_else(|| panic!("{name} not printed"))
        .2
}

/// The workloads `BENCHMARK.json` gates.
fn gated() -> Vec<String> {
    benchmark_json()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workload list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let gated = gated();
    assert!(gated.iter().all(|w| WORKLOADS.contains(&w.as_str())));
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(list);
        for workload in WORKLOADS {
            let (code, lines) = toy(workload, "21", trace);
            assert_eq!(code, 0, "{workload} --trace {trace}");
            let result = lines.last().expect("a result line");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            let got: Vec<(String, String)> = printed(result)
                .into_iter()
                .map(|(n, u, _)| (n, u))
                .collect();
            assert_eq!(got, want, "{workload} --trace {trace}");
            // Gated end-to-end metrics are never 0.
            if trace == "0" && gated.iter().any(|w| w == workload) {
                for (name, _, value) in printed(result) {
                    assert!(value > 0.0, "{workload}: {name} is {value}");
                }
            }
        }
    }
}

#[test]
fn count_metrics_repeat_across_runs() {
    // (trace mode that prints it, metric)
    let counts = [
        ("0", "shuffle_mb"),
        ("1", "stage2.candidates"),
        ("1", "stage2.replication"),
        ("1", "stage3.joined_pairs"),
    ];
    for workload in ["dblp-self", "dblp-cite-rs"] {
        for trace in ["0", "1"] {
            let (_, first) = toy(workload, "22", trace);
            let (_, second) = toy(workload, "22", trace);
            let (first, second) = (first.last().unwrap(), second.last().unwrap());
            for (_, name) in counts.iter().filter(|(t, _)| *t == trace) {
                let value = metric(first, name);
                assert!(value > 0.0, "{workload}: {name} is 0");
                assert_eq!(value, metric(second, name), "{workload}: {name}");
            }
        }
    }
}

#[test]
fn the_rs_input_joins_above_its_floor() {
    let (code, lines) = toy("dblp-cite-rs", "24", "0");
    assert_eq!(code, 0);
    let summary = lines
        .iter()
        .find_map(|j| j.get("summary"))
        .expect("summary line");
    let pairs = summary
        .get("reference_pairs")
        .and_then(Json::as_u64)
        .unwrap();
    let floor = summary.get("pair_floor").and_then(Json::as_u64).unwrap();
    assert!(floor > 0 && pairs >= floor, "{pairs} pairs, floor {floor}");
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
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
        &["--workload", "dblp-self", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "dblp-self",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
    ] {
        let (code, lines) = perfbench(args);
        assert_eq!(code, 2, "{args:?}");
        assert!(lines.iter().all(|j| j.get("correct").is_none()), "{args:?}");
    }
}
