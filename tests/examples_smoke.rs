//! Smoke coverage for the runnable examples in `examples/`.
//!
//! All examples are compiled by `cargo build --examples` (CI runs this
//! explicitly; `cargo test` also builds them because they are targets of the
//! `feather-suite` member). On top of the compile check, these tests execute
//! `quickstart` and the pipelined `resnet50_coswitching` example end-to-end
//! through Cargo and assert on their output.

use std::process::Command;

fn run_example(extra_args: &[&str], example: &str) -> (String, String, Option<i32>, bool) {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut args = vec!["run", "--quiet"];
    args.extend_from_slice(extra_args);
    args.extend_from_slice(&["--example", example]);
    let output = Command::new(cargo)
        .args(&args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn cargo run --example {example}: {e}"));
    (
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
        output.status.code(),
        output.status.success(),
    )
}

/// Runs `cargo run --example quickstart` in the workspace and checks output.
#[test]
fn quickstart_runs_end_to_end() {
    let (stdout, stderr, code, ok) = run_example(&[], "quickstart");
    assert!(
        ok,
        "quickstart exited with {code:?}\nstdout:\n{stdout}\nstderr:\n{stderr}",
    );
    assert!(
        stdout.contains("OK (matches reference convolution)"),
        "quickstart did not report the golden functional match\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
}

/// Runs the full-graph ResNet-50 example (in release mode — planning plus
/// the 72-node functional execution is too slow unoptimized) and checks that
/// the whole DAG, residual joins included, executed and verified.
#[test]
fn resnet50_graph_runs_the_full_dag_end_to_end() {
    let (stdout, stderr, code, ok) = run_example(&["--release"], "resnet50_graph");
    assert!(
        ok,
        "resnet50_graph exited with {code:?}\nstdout:\n{stdout}\nstderr:\n{stderr}",
    );
    assert!(
        stdout.contains("53 convs") && stdout.contains("16 residual adds"),
        "graph topology line missing\nstdout:\n{stdout}"
    );
    assert!(
        stdout.contains("residual joins: 16/16 performed"),
        "expected all 16 joins to execute\nstdout:\n{stdout}"
    );
    assert!(
        stdout.contains("replay profile: 246 ops"),
        "per-op replay profile missing\nstdout:\n{stdout}"
    );
    assert!(
        stdout.contains("output verified bit-identical to the sequential graph reference"),
        "verification line missing\nstdout:\n{stdout}"
    );
    assert!(
        stdout.contains("graph pipeline OK"),
        "pipeline summary missing\nstdout:\n{stdout}"
    );
}

/// Runs the serving example (in release mode — it executes ~128 scaled
/// ResNet-50 inferences) and checks that the concurrent requests were
/// coalesced into multi-batch runs and verified against solo runs.
#[test]
fn serve_resnet50_coalesces_and_verifies_concurrent_requests() {
    let (stdout, stderr, code, ok) = run_example(&["--release"], "serve_resnet50");
    assert!(
        ok,
        "serve_resnet50 exited with {code:?}\nstdout:\n{stdout}\nstderr:\n{stderr}",
    );
    assert!(
        stdout.contains("dynamic batching coalesced concurrent requests into multi-batch runs"),
        "coalescing line missing\nstdout:\n{stdout}"
    );
    assert!(
        stdout.contains("verified bit-identical to solo batch-1 runs"),
        "verification line missing\nstdout:\n{stdout}"
    );
    assert!(
        stdout.contains("serving OK"),
        "summary missing\nstdout:\n{stdout}"
    );
}

/// Runs the pipelined ResNet-50 example (in release mode — the co-search
/// planning phase is too slow unoptimized) and checks the pipeline summary.
#[test]
fn resnet50_coswitching_pipeline_runs_end_to_end() {
    let (stdout, stderr, code, ok) = run_example(&["--release"], "resnet50_coswitching");
    assert!(
        ok,
        "resnet50_coswitching exited with {code:?}\nstdout:\n{stdout}\nstderr:\n{stderr}",
    );
    assert!(
        stdout.contains("StaB swaps: 3"),
        "expected one StaB swap per layer boundary\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("pipeline OK"),
        "pipeline summary missing\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
}
