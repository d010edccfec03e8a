//! The repository's benchmark: four workloads from cold planning to serving, measured from outside through the crates' public functions.
//! See README.md beside this package for the metrics and how to read them.
//!
//! ```text
//! feather_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! feather_benchmark [--seed <n>] [--seconds <s>] [--runs <k>] [--quick] [--out <path>]
//! feather_benchmark compare <a.json> <b.json> [--bounds <BENCHMARK.json>]
//! ```

mod cold;
mod compare;
mod harness;
mod json;
mod layers;
mod metrics;
mod models;
mod offline;
mod schedule;
mod serving;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use harness::{BrokenGate, Ctx, Measured};
use json::Value;
use metrics::Metric;
use trace::Tracer;

/// The window `BENCHMARK.json` asks for; `--quick` shrinks it.
const DEFAULT_SECONDS: f64 = 18.0;
const QUICK_SECONDS: f64 = 1.0;
const OUT_DIR: &str = "target/feather_benchmark";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    setup_only: bool,
    runs: usize,
    out: Option<PathBuf>,
    broken: Option<BrokenGate>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        setup_only: false,
        runs: 1,
        out: None,
        broken: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.to_string()),
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed takes a u64")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_string());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--runs" => {
                parsed.runs = value()?.parse().map_err(|_| "--runs takes a count")?;
                if !(1..=100).contains(&parsed.runs) {
                    return Err("--runs must lie in 1..=100".to_string());
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--quick" => parsed.quick = true,
            // What the harness runs in a child process to time one set-up.
            "--setup-only" => parsed.setup_only = true,
            // For the tests that show each correctness gate bites.
            "--selftest-break" => {
                parsed.broken = Some(match value()? {
                    "expected" => BrokenGate::Expected,
                    "sim-cycles" => BrokenGate::SimCycles,
                    other => return Err(format!("unknown gate `{other}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }
}

/// Removes every `FEATHER_*` variable so the run measures the defaults, and
/// returns the names that were set.
fn scrub_environment() -> Vec<String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(name, _)| name.into_string().ok())
        .filter(|name| name.starts_with("FEATHER_"))
        .collect();
    for name in &set {
        std::env::remove_var(name);
    }
    set
}

fn run_workload(name: &str, ctx: &mut Ctx) -> Result<Measured, String> {
    match name {
        "offline_b1" => offline::run(ctx, false),
        "offline_b8" => offline::run(ctx, true),
        "serve_light" => serving::run(ctx),
        "cold_start" => cold::run(ctx),
        other => Err(format!(
            "unknown workload `{other}`; the workloads are {}",
            metrics::WORKLOADS.join(", ")
        )),
    }
}

fn set_up_once(name: &str, ctx: &mut Ctx) -> Result<f64, String> {
    match name {
        "offline_b1" => offline::set_up_once(ctx, false),
        "offline_b8" => offline::set_up_once(ctx, true),
        "serve_light" => serving::set_up_once(ctx, 0),
        "cold_start" => cold::set_up_once(ctx),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// One workload in this process: prints `workload metric value unit` per
/// metric and the result object as the last line.
fn single(name: &str, args: &Args) -> Result<bool, String> {
    let mut ctx = Ctx {
        workload: name.to_string(),
        seed: args.seed,
        seconds: args.seconds(),
        trace: args.trace,
        quick: args.quick,
        broken: args.broken,
        tracer: Tracer::new(false),
    };
    if args.setup_only {
        println!("{}", set_up_once(name, &mut ctx)?);
        return Ok(true);
    }
    let measured = run_workload(name, &mut ctx)?;
    let listed = if args.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let mut fields = Vec::new();
    for Metric {
        name: metric, unit, ..
    } in &listed
    {
        let value = match measured.metrics.get(metric) {
            Some(v) => *v,
            // A layer the workload does not exercise reads 0.
            None if args.trace => 0.0,
            None => return Err(format!("{name} did not measure `{metric}`")),
        };
        println!("{name} {metric} {} {unit}", Value::Num(value).render());
        fields.push((
            metric.clone(),
            Value::obj(vec![
                ("value", Value::Num(value)),
                ("unit", Value::str(*unit)),
            ]),
        ));
    }
    let mut correct = measured.gates.errors().is_empty();
    for error in measured.gates.errors() {
        eprintln!("FAILED {name}: {error}");
    }
    if args.trace {
        if let Err(e) = trace::check_nesting(ctx.tracer.spans()) {
            eprintln!("FAILED {name}: {e}");
            correct = false;
        }
        let path = Path::new(OUT_DIR).join(format!("trace_{name}.json"));
        write_file(&path, &ctx.tracer.to_json(name, args.seed).render())?;
    }
    let result = Value::obj(vec![
        ("correct", Value::Bool(correct)),
        (
            "attempted",
            Value::Num(measured.gates.attempted.max(1) as f64),
        ),
        ("failed", Value::Num(measured.gates.failed as f64)),
        ("metrics", Value::Obj(fields)),
    ]);
    println!("{}", result.render());
    Ok(correct)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload in a child process and returns its result object.
fn child(name: &str, args: &Args, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(args.quick.then_some("--quick"));
    let output = command
        .output()
        .map_err(|e| format!("{name}: cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (lines, last) = match stdout.trim_end().rsplit_once('\n') {
        Some((lines, last)) => (lines, last),
        None => ("", stdout.trim_end()),
    };
    println!("{lines}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return Err(format!("{name}: child exited with {}", output.status));
    }
    json::parse(last).map_err(|e| format!("{name}: result line: {e}"))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Every workload, each in its own process: `--runs` untraced passes, then
/// one traced pass, written to `results.json`.
fn all(args: &Args, removed_env: &[String]) -> Result<bool, String> {
    let mut workloads = Vec::new();
    let mut correct = true;
    for name in metrics::WORKLOADS {
        let mut runs = Vec::new();
        for _ in 0..args.runs {
            runs.push(child(name, args, false)?);
        }
        let traced = child(name, args, true)?;
        let flag = |v: &Value| v.get("correct").and_then(Value::as_bool) == Some(true);
        correct &= runs.iter().all(flag) && flag(&traced);
        let column = |key: &str| -> Value {
            Value::Arr(
                runs.iter()
                    .map(|r| r.get(key).cloned().unwrap_or(Value::Null))
                    .collect(),
            )
        };
        let value_of = |result: &Value, metric: &str| -> Value {
            result
                .get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .cloned()
                .unwrap_or(Value::Null)
        };
        let end_to_end = metrics::end_to_end()
            .into_iter()
            .map(|m| {
                let values = runs.iter().map(|r| value_of(r, &m.name)).collect();
                let entry = Value::obj(vec![
                    ("unit", Value::str(m.unit)),
                    ("better", Value::str(m.better.as_str())),
                    ("values", Value::Arr(values)),
                ]);
                (m.name, entry)
            })
            .collect();
        let per_layer = metrics::per_layer()
            .into_iter()
            .map(|m| {
                let entry = Value::obj(vec![
                    ("unit", Value::str(m.unit)),
                    ("better", Value::str(m.better.as_str())),
                    ("value", value_of(&traced, &m.name)),
                ]);
                (m.name, entry)
            })
            .collect();
        workloads.push((
            name.to_string(),
            Value::obj(vec![
                ("attempted", column("attempted")),
                ("failed", column("failed")),
                ("end_to_end", Value::Obj(end_to_end)),
                ("per_layer", Value::Obj(per_layer)),
            ]),
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let results = Value::obj(vec![
        ("schema", Value::Num(1.0)),
        ("quick", Value::Bool(args.quick)),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds())),
        ("runs", Value::Num(args.runs as f64)),
        ("nproc", Value::Num(nproc as f64)),
        (
            "git_commit",
            Value::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::str(command_line("rustc", &["-V"]))),
        (
            "removed_env",
            Value::Arr(removed_env.iter().map(Value::str).collect()),
        ),
        ("correct", Value::Bool(correct)),
        ("workloads", Value::Obj(workloads)),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join("results.json"));
    write_file(&path, &results.render_pretty())?;
    eprintln!("wrote {}", path.display());
    Ok(correct)
}

fn main() -> ExitCode {
    let removed_env = scrub_environment();
    if !removed_env.is_empty() {
        eprintln!("removed from the environment: {}", removed_env.join(", "));
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        compare::main(&args[1..])
    } else {
        parse_args(&args).and_then(|parsed| match &parsed.workload {
            Some(name) => single(name, &parsed),
            None => all(&parsed, &removed_env),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
