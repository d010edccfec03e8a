//! Runs the built benchmark in `--quick` mode so it cannot rot, and shows
//! that each correctness gate turns a wrong result into a non-zero exit.

use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_feather_benchmark");
const WORKLOADS: [&str; 4] = ["offline_b1", "offline_b8", "serve_light", "cold_start"];

/// Each test works in a directory of its own: traces and results are written
/// relative to the working directory.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn run(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .current_dir(dir)
        // The benchmark must ignore what is left in the environment: this
        // plan, which `Server::new` reads, would fail every replay.
        .env("FEATHER_FAULT_PLAN", "seed=1;replay.fail=1.0")
        .output()
        .expect("benchmark starts")
}

fn last_line(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout)
        .trim_end()
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

#[test]
fn quick_mode_runs_every_workload_traced_and_untraced() {
    let dir = scratch("quick");
    let output = run(&dir, &["--quick", "--out", "results.json"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "quick run failed:\n{stderr}");
    assert!(
        stderr.contains("FEATHER_FAULT_PLAN"),
        "the scrubbed variable is reported:\n{stderr}"
    );
    let results = std::fs::read_to_string(dir.join("results.json")).expect("results.json");
    assert!(results.contains("\"quick\": true"));
    assert!(results.contains("\"correct\": true"));
    for workload in WORKLOADS {
        assert!(
            results.contains(&format!("\"{workload}\"")),
            "{workload} missing"
        );
        let trace = dir.join(format!("target/feather_benchmark/trace_{workload}.json"));
        let trace = std::fs::read_to_string(trace).expect("trace file");
        assert!(trace.contains("\"spans\""));
    }
    assert!(results.contains("\"removed_env\": [\"FEATHER_FAULT_PLAN\"]"));
}

#[test]
fn a_perturbed_expected_tensor_fails_every_workload() {
    let dir = scratch("break_expected");
    for workload in WORKLOADS {
        let output = run(
            &dir,
            &[
                "--workload",
                workload,
                "--quick",
                "--selftest-break",
                "expected",
            ],
        );
        assert_eq!(output.status.code(), Some(1), "{workload} did not fail");
        let last = last_line(&output);
        assert!(last.contains("\"correct\":false"), "{workload}: {last}");
        assert!(!last.contains("\"failed\":0,"), "{workload}: {last}");
    }
}

#[test]
fn a_wrong_sim_cycles_constant_fails_the_run() {
    let dir = scratch("break_sim");
    for workload in ["offline_b1", "serve_light"] {
        let output = run(
            &dir,
            &[
                "--workload",
                workload,
                "--quick",
                "--selftest-break",
                "sim-cycles",
            ],
        );
        assert_eq!(output.status.code(), Some(1), "{workload} did not fail");
        assert!(last_line(&output).contains("\"correct\":false"));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("15396"), "{stderr}");
    }
}

#[test]
fn an_intact_run_passes_and_prints_the_contract_line() {
    let dir = scratch("intact");
    let output = run(
        &dir,
        &["--workload", "offline_b1", "--quick", "--trace", "0"],
    );
    assert!(output.status.success());
    let last = last_line(&output);
    for key in [
        "\"correct\":true",
        "\"attempted\":",
        "\"failed\":0",
        "\"setup_s\"",
        "\"sim_cycles\":{\"value\":15395",
    ] {
        assert!(last.contains(key), "{key} missing from {last}");
    }
}

#[test]
fn bad_arguments_exit_with_a_usage_error() {
    let dir = scratch("usage");
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "0"],
        &["--frobnicate"],
        &["compare", "only-one.json"],
    ] {
        let output = run(&dir, args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&output.stdout).is_empty());
    }
}
