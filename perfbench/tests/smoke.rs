//! Smoke test at tiny scale: every workload, untraced and traced, prints
//! exactly the metrics `BENCHMARK.json` names with their units, and its
//! output checks pass.

use std::path::PathBuf;
use std::process::{Command, Output};

use gsampler_obs::json::Json;

const SCALE: &str = "0.05";
const SECONDS: &str = "0.6";

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository")
        .to_path_buf()
}

fn benchmark() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(repo_root())
        .env_remove("GSAMPLER_THREADS")
        .output()
        .expect("run perfbench")
}

/// Run one workload; returns (detail line, result line).
fn run(workload: &str, seed: &str, trace: &str) -> (Json, Json) {
    let out = perfbench(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        SECONDS,
        "--trace",
        trace,
        "--scale",
        SCALE,
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stderr}"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "{workload}: expected a detail and a result line"
    );
    let detail = Json::parse(lines[lines.len() - 2]).expect("detail line parses");
    let result = Json::parse(lines[lines.len() - 1]).expect("result line parses");
    (detail, result)
}

/// `(name, unit)` of each metric a BENCHMARK.json section declares.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark()
        .get(section)
        .and_then(Json::as_arr)
        .expect("section is a list")
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

fn workloads() -> Vec<String> {
    benchmark()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
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
fn every_metric_is_emitted_with_its_unit_and_checks_pass() {
    for workload in workloads() {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (detail, result) = run(&workload, "3", trace);
            let keys: Vec<&str> = match &result {
                Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
                _ => panic!("result is an object"),
            };
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{workload}: {detail:?}"
            );
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
                    >= 1.0
            );
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("metrics is an object")
            };
            let emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let v = m.get("value").and_then(Json::as_f64);
                    assert!(
                        v.is_some_and(f64::is_finite),
                        "{workload} {name}: value {v:?}"
                    );
                    (
                        name.clone(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                    )
                })
                .collect();
            assert_eq!(emitted, declared(section), "{workload} trace {trace}");

            let host = detail
                .get("perfbench")
                .and_then(|d| d.get("host"))
                .expect("host");
            assert!(host.get("nproc").and_then(Json::as_f64).is_some());
            assert!(host.get("threads").and_then(Json::as_f64).is_some());
            assert!(host
                .get("rustc")
                .and_then(Json::as_str)
                .is_some_and(|r| r.starts_with("rustc")));
            let Some(Json::Obj(kinds)) = detail.get("perfbench").and_then(|d| d.get("metrics"))
            else {
                panic!("detail metrics")
            };
            for (name, m) in kinds {
                let kind = m.get("kind").and_then(Json::as_str);
                assert!(
                    matches!(kind, Some("wall" | "modeled" | "count" | "ratio")),
                    "{name}: kind {kind:?}"
                );
            }
        }
    }
}

#[test]
fn fingerprints_repeat_for_the_same_seed() {
    for workload in workloads() {
        let fp = |seed: &str| {
            let (detail, _) = run(&workload, seed, "0");
            detail
                .get("perfbench")
                .and_then(|d| d.get("fingerprints"))
                .cloned()
                .expect("fingerprints")
        };
        assert_eq!(fp("5"), fp("5"), "{workload}");
        assert_ne!(fp("5"), fp("6"), "{workload}: the seed reaches the inputs");
    }
}

#[test]
fn bad_invocations_exit_nonzero_without_a_result() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let too_many = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "sage-pd",
            "--seconds",
            SECONDS,
            "--scale",
            SCALE,
        ])
        .current_dir(repo_root())
        .env("GSAMPLER_THREADS", (nproc + 1).to_string())
        .output()
        .expect("run perfbench");
    assert_eq!(too_many.status.code(), Some(2));
    assert!(too_many.stdout.is_empty());

    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "1"],
        &["--workload", "sage-pd", "--bogus", "1"],
    ] {
        let out = perfbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
