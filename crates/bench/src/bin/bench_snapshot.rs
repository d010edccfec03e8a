//! `bench-snapshot`: quick-mode wall-time snapshot of the executor benches,
//! emitted as machine-readable JSON so future PRs have a perf trajectory to
//! compare against.
//!
//! Runs the same scenarios as the `feather_functional`, `pipeline_resnet`
//! and `graph_resnet` Criterion benches (plus an explicit serial-vs-parallel
//! pair on a layer large enough to shard), but with a handful of iterations
//! so it doubles as a CI smoke test for the hot path.
//!
//! ```text
//! cargo run --release -p feather-bench --bin bench_snapshot [-- --pr N] [-- --out BENCH.json]
//! ```
//!
//! On top of the wall-time scenarios, two serving traffic generators
//! exercise the `feather-serve` front-end (replay-backed since PR 7 — the
//! scheduler compiles each (model, batch) into a `feather::Program` once and
//! replays it per request):
//!
//! - **Closed loop** — Poisson think times plus heavy-tail zero-think bursts
//!   from 16 client threads, swept across the dynamic batcher's
//!   `max_batch ∈ {1, 2, 4, 8}`: the throughput-vs-batch-size curve. Each
//!   point also records the program-cache counters proving that
//!   second-and-later requests do zero planning/compile work.
//! - **Open loop** — arrival-rate driven: requests are submitted on a
//!   Poisson schedule regardless of completions, swept across offered rates
//!   to find the saturation knee (where achieved throughput falls away from
//!   offered and latency blows up). Since PR 8 the sweep is a
//!   `workers × max_batch` grid (executor-pool sizes {1, 2, 4} crossed with
//!   batching off/on), so the snapshot shows what the pool and the batcher
//!   each buy.
//!
//! Since PR 9 the wall-time scenarios include the lane-vectorized batched
//! replay backend (`graph_resnet/program_replay_batched8`): the scaled
//! ResNet-50 program replayed over 8 distinct samples in one pass,
//! equality-asserted lane-by-lane against scalar replays before timing.
//!
//! Since PR 10 a **degraded-mode** pair runs the closed loop clean and then
//! under a fixed seeded `FaultPlan` (replay failures, worker panics, pickup
//! faults), recording throughput alongside the retry/panic/respawn counters
//! — the cost of fault tolerance when faults actually fire.
//!
//! `--pr N` stamps the snapshot and derives the default output path
//! `BENCH_N.json` (default: 10, the PR that added fault-tolerant serving —
//! pass the current PR number when committing a new snapshot).
//! Environment: `FEATHER_BENCH_ITERS` overrides the measured iteration count
//! (default 5; the median is reported) and scales the traffic generators'
//! request counts; `FEATHER_SERVE_WORKERS` sizes the closed-loop sweep's
//! executor pool (the open-loop grid pins its own);
//! `FEATHER_SERVE_BATCHED_REPLAY=1` routes the closed-loop sweep's
//! multi-request batches through the batched backend (how the committed
//! snapshot is generated).

use std::sync::Arc;
use std::time::{Duration, Instant};

use feather::{default_threads, FeatherConfig, GraphSession, LayerMapping, NetworkSession};
use feather_arch::graph::resnet50_graph_scaled;
use feather_arch::tensor::Tensor4;
use feather_arch::workload::ConvLayer;
use feather_serve::{FaultPlan, ServeConfig, Server};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One measured scenario: wall time plus the modeled counters that must stay
/// comparable across PRs (the model, unlike the wall clock, is deterministic).
struct Snapshot {
    name: &'static str,
    wall_ms: f64,
    cycles: u64,
    dram_bytes: u64,
}

fn median_ms(iters: usize, mut run: impl FnMut()) -> f64 {
    run(); // warm-up (route caches, allocator)
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
    samples[samples.len() / 2]
}

fn functional_conv(iters: usize) -> Snapshot {
    // Identical shape to the `feather_functional` Criterion bench.
    let layer = ConvLayer::new(1, 8, 8, 8, 8, 3, 3).with_padding(1);
    let iacts = Tensor4::random([1, 8, 8, 8], 1);
    let weights = vec![Tensor4::random([8, 8, 3, 3], 2)];
    let cfg = FeatherConfig::new(4, 8);
    let mapping = LayerMapping::weight_stationary(&layer, &cfg, "HWC_C8", "MPQ_Q8");
    let session = NetworkSession::from_mappings(cfg, vec![(layer, mapping)])
        .expect("bench layer maps onto FEATHER");
    let run = session.run(&iacts, &weights).expect("bench conv executes");
    Snapshot {
        name: "feather_functional/conv_8x8x8_3x3_on_4x8",
        wall_ms: median_ms(iters, || {
            session.run(&iacts, &weights).expect("bench conv executes");
        }),
        cycles: run.report.total_cycles(),
        dram_bytes: run.report.dram_bytes(),
    }
}

fn pipeline_bottleneck(iters: usize) -> Snapshot {
    // Identical chain to the `pipeline_resnet` Criterion bench.
    let layers = vec![
        ConvLayer::new(1, 4, 16, 7, 7, 1, 1).with_name("bneck_1x1a"),
        ConvLayer::new(1, 4, 4, 7, 7, 3, 3)
            .with_padding(1)
            .with_name("bneck_3x3"),
        ConvLayer::new(1, 16, 4, 7, 7, 1, 1).with_name("bneck_1x1b"),
    ];
    let session = NetworkSession::weight_stationary(
        FeatherConfig::new(8, 16),
        &layers,
        &["HWC_C16", "HWC_C4W4", "HWC_C4W4"],
        "MPQ_Q16",
    )
    .expect("bottleneck chain maps onto FEATHER");
    let iacts = Tensor4::random([1, 16, 7, 7], 7);
    let weights: Vec<Tensor4<i8>> = layers
        .iter()
        .enumerate()
        .map(|(i, l)| Tensor4::random([l.m, l.c, l.r, l.s], 8 + i as u64))
        .collect();
    let run = session.run(&iacts, &weights).expect("pipeline executes");
    Snapshot {
        name: "pipeline_resnet/network_session",
        wall_ms: median_ms(iters, || {
            session.run(&iacts, &weights).expect("pipeline executes");
        }),
        cycles: run.report.total_cycles(),
        dram_bytes: run.report.dram_bytes(),
    }
}

/// Batch size the lane-vectorized replay scenario runs at; per-sample cost
/// is `wall_ms / REPLAY_LANES` and is what the README's batched-replay
/// speedup quotes.
const REPLAY_LANES: usize = 8;

fn graph_resnet(iters: usize) -> (Snapshot, Snapshot, Snapshot) {
    // Identical graph to the `graph_resnet` Criterion bench. Planning
    // (`GraphSession::auto`) and compilation (`compile()`) both happen here,
    // outside the measured loops, so the scenarios isolate execution cost.
    let graph = resnet50_graph_scaled(16, 16);
    let session = GraphSession::auto(FeatherConfig::new(8, 16), &graph)
        .expect("scaled resnet50 graph compiles");
    let [_, ch, h, w] = graph.tensor_shape(graph.input());
    let iacts = Tensor4::random([1, ch, h, w], 7);
    let weights = graph.random_weights(8);
    let run = session.run(&iacts, &weights).expect("graph executes");

    let compile_start = Instant::now();
    let program = session.compile().expect("graph compiles to a program");
    let compile_ms = compile_start.elapsed().as_secs_f64() * 1e3;
    let replay = feather::ProgramSession::new(program);
    let replayed = replay.run(&iacts, &weights).expect("program replays");
    // The replay contract: bit-identical outputs, cycles, DRAM and stats.
    assert_eq!(replayed.oacts, run.oacts, "replay outputs diverged");
    assert_eq!(replayed.report, run.report, "replay report diverged");
    println!(
        "graph_resnet compile: {compile_ms:.1} ms once, {} ops, {} route fires",
        replay.program().num_ops(),
        replay.program().route_fires()
    );

    // Batched lane-vectorized replay: the same program executed once across
    // `REPLAY_LANES` distinct samples, each op dispatched a single time over
    // all lane stripes. Checked here against per-sample scalar replays — the
    // backend's contract is bit-identical outputs AND reports per lane — so
    // the snapshot's speedup number is backed by an equality proof, not
    // trust. Cycles/DRAM below are totals across the batch (each lane's
    // modeled counters equal the scalar replay's; the schedule is
    // data-independent).
    let samples: Vec<Tensor4<i8>> = (0..REPLAY_LANES)
        .map(|i| Tensor4::random([1, ch, h, w], 7 + i as u64))
        .collect();
    let mut scratch = feather::ReplayScratch::new();
    let batched = replay
        .run_batched_with_scratch(&mut scratch, &samples, &weights)
        .expect("batched replay executes");
    for (lane, (b, sample)) in batched.iter().zip(&samples).enumerate() {
        let solo = replay.run(sample, &weights).expect("solo replay executes");
        assert_eq!(b.oacts, solo.oacts, "batched lane {lane} outputs diverged");
        assert_eq!(b.report, solo.report, "batched lane {lane} report diverged");
    }
    let batched_cycles: u64 = batched.iter().map(|r| r.report.total_cycles()).sum();
    let batched_dram: u64 = batched.iter().map(|r| r.report.dram_bytes()).sum();

    (
        Snapshot {
            name: "graph_resnet/graph_session",
            wall_ms: median_ms(iters, || {
                session.run(&iacts, &weights).expect("graph executes");
            }),
            cycles: run.report.total_cycles(),
            dram_bytes: run.report.dram_bytes(),
        },
        Snapshot {
            name: "graph_resnet/program_replay",
            wall_ms: median_ms(iters, || {
                replay.run(&iacts, &weights).expect("program replays");
            }),
            cycles: replayed.report.total_cycles(),
            dram_bytes: replayed.report.dram_bytes(),
        },
        Snapshot {
            name: "graph_resnet/program_replay_batched8",
            wall_ms: median_ms(iters, || {
                replay
                    .run_batched_with_scratch(&mut scratch, &samples, &weights)
                    .expect("batched replay executes");
            }),
            cycles: batched_cycles,
            dram_bytes: batched_dram,
        },
    )
}

/// Serial vs sharded on a layer with enough weight-tile/batch units to
/// occupy several workers — the explicit measurement behind the
/// "compiled → parallel" speedup quoted in the README.
fn parallel_pair(iters: usize) -> (Snapshot, Snapshot) {
    let layer = ConvLayer::new(2, 16, 16, 14, 14, 3, 3)
        .with_padding(1)
        .with_name("shardable");
    let cfg = FeatherConfig::new(8, 16);
    let mapping = LayerMapping::weight_stationary(&layer, &cfg, "HWC_C16", "MPQ_Q16");
    let iacts = Tensor4::random([2, 16, 14, 14], 5);
    let weights = vec![Tensor4::random([16, 16, 3, 3], 6)];
    let build = |threads: usize| {
        NetworkSession::from_mappings(cfg, vec![(layer.clone(), mapping.clone())])
            .expect("shardable layer maps onto FEATHER")
            .with_threads(threads)
    };
    let serial = build(1);
    let golden = serial.run(&iacts, &weights).expect("serial run");
    let cycles = golden.report.total_cycles();
    let dram_bytes = golden.report.dram_bytes();
    let serial_wall = median_ms(iters, || {
        serial.run(&iacts, &weights).expect("serial run");
    });
    // Worker count follows the host (FEATHER_THREADS / available
    // parallelism). On a single-thread host `effective_workers` resolves the
    // sharded build to the very same serial path, so measuring it separately
    // would only report scheduler noise as a phantom delta (BENCH_7's 4.01
    // vs 3.90 ms). Reuse the serial measurement in that case; the sharded
    // code path stays covered by `tests/parallel_equivalence.rs`, which pins
    // explicit worker counts.
    let sharded_wall = if default_threads() <= 1 {
        serial_wall
    } else {
        let parallel = build(default_threads());
        let check = parallel.run(&iacts, &weights).expect("parallel run");
        assert_eq!(golden.oacts, check.oacts, "parallel run diverged");
        assert_eq!(golden.report, check.report, "parallel report diverged");
        median_ms(iters, || {
            parallel.run(&iacts, &weights).expect("parallel run");
        })
    };
    (
        Snapshot {
            name: "conv_16x16x14x14_n2/serial",
            wall_ms: serial_wall,
            cycles,
            dram_bytes,
        },
        Snapshot {
            name: "conv_16x16x14x14_n2/sharded",
            wall_ms: sharded_wall,
            cycles,
            dram_bytes,
        },
    )
}

/// One point of the throughput-vs-batch-size curve.
struct ServingPoint {
    max_batch: usize,
    /// Executor pool size the point ran with (`FEATHER_SERVE_WORKERS`).
    workers: usize,
    requests: u64,
    throughput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    executed_batches: u64,
    mean_batch: f64,
    rejected: u64,
    /// Requests served by replaying an already-compiled program.
    program_hits: u64,
    /// Batch sizes that forced a compile (at most one per distinct size).
    program_misses: u64,
    artifact_hits: u64,
    artifact_misses: u64,
    /// Whether the point ran with the lane-vectorized batched replay backend
    /// enabled (`FEATHER_SERVE_BATCHED_REPLAY`).
    batched_replay: bool,
    /// Batches that actually took the batched backend (≥ 2 coalesced
    /// requests with the knob on).
    batched_replays: u64,
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[idx]
}

/// Closed-loop traffic generator against the serving front-end: 16 client
/// threads, exponential (Poisson-process) think times with occasional
/// zero-think bursts (a heavy-tail arrival pattern), swept across the
/// dynamic batcher's `max_batch`. Clients block on their tickets, so the
/// loop saturates the single scheduler and the curve isolates what batching
/// buys: larger `max_batch` amortizes per-run staging and per-segment cache
/// traffic across more requests.
fn serving_sweep(iters: usize) -> Vec<ServingPoint> {
    const CLIENTS: usize = 16;
    const DISTINCT_IMAGES: usize = 8;
    const THINK_MEAN_MS: f64 = 0.5;
    // ITERS=1 (the CI smoke setting) keeps the sweep to 64 requests/point.
    let requests_per_client = 4 * iters.min(8);

    let graph = resnet50_graph_scaled(16, 16);
    let config = FeatherConfig::new(8, 16);
    let weights = graph.random_weights(8);
    let [_, c, h, w] = graph.tensor_shape(graph.input());
    let images: Vec<Tensor4<i8>> = (0..DISTINCT_IMAGES)
        .map(|i| Tensor4::random([1, c, h, w], 90 + i as u64))
        .collect();

    [1usize, 2, 4, 8]
        .iter()
        .map(|&max_batch| {
            // `..from_env()` picks up FEATHER_SERVE_WORKERS (and
            // ready_depth / FEATHER_SERVE_BATCHED_REPLAY), so the CI smoke
            // can exercise the executor pool and the batched replay backend
            // without a separate sweep; the committed snapshot runs with the
            // default single worker and `FEATHER_SERVE_BATCHED_REPLAY=1`, so
            // its multi-request batches go through the lane-vectorized
            // backend.
            let cfg = ServeConfig {
                max_batch,
                queue_depth: 256,
                batch_window: Duration::from_micros(800),
                default_deadline: None,
                ..ServeConfig::from_env()
            };
            let workers = cfg.workers.max(1);
            let batched_replay = cfg.batched_replay;
            let server = Arc::new(Server::new(cfg));
            server
                .register_model("resnet50", config, &graph, weights.clone())
                .expect("serving model registers");

            let start = Instant::now();
            let mut latencies_ms: Vec<f64> = Vec::new();
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..CLIENTS)
                    .map(|client| {
                        let server = server.clone();
                        let images = &images;
                        scope.spawn(move || {
                            let mut rng =
                                ChaCha8Rng::seed_from_u64((max_batch * 1000 + client) as u64);
                            let mut lat = Vec::with_capacity(requests_per_client);
                            for _ in 0..requests_per_client {
                                // 1-in-8 requests arrive in a zero-think
                                // burst; the rest follow exponential
                                // (Poisson) think times.
                                if rng.gen_range(0..8usize) != 0 {
                                    let u: f64 = rng.gen_range(1e-12..1.0);
                                    let think_ms = -THINK_MEAN_MS * u.ln();
                                    std::thread::sleep(Duration::from_secs_f64(think_ms / 1e3));
                                }
                                let img = rng.gen_range(0..images.len());
                                let response = server
                                    .submit(
                                        &format!("client-{client}"),
                                        "resnet50",
                                        images[img].clone(),
                                    )
                                    .expect("queue depth admits the closed loop")
                                    .wait()
                                    .expect("request completes");
                                lat.push(response.latency_us as f64 / 1e3);
                            }
                            lat
                        })
                    })
                    .collect();
                for handle in handles {
                    latencies_ms.extend(handle.join().expect("client thread"));
                }
            });
            let wall = start.elapsed().as_secs_f64();

            let stats = server.stats();
            let programs = server
                .program_cache_stats("resnet50")
                .expect("model is registered");
            latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
            let requests = latencies_ms.len() as u64;
            assert_eq!(stats.completed, requests, "every request must complete");
            // The replay contract for serving: each distinct batch size
            // compiles at most once; every other executed batch replays a
            // cached program with zero planning/compile work.
            assert!(
                programs.misses <= max_batch as u64,
                "at most one compile per distinct batch size"
            );
            assert_eq!(
                programs.hits + programs.misses,
                stats.executed_batches(),
                "every executed batch either replayed or compiled-once"
            );
            // With the knob on, every multi-request batch must have taken
            // the lane-vectorized backend — the counter is the proof the
            // sweep actually measured it.
            let multi_request_batches: u64 = stats
                .batches
                .iter()
                .filter(|(size, _)| **size >= 2)
                .map(|(_, count)| count)
                .sum();
            if batched_replay {
                assert_eq!(
                    stats.batched_replays, multi_request_batches,
                    "batched backend must serve every multi-request batch"
                );
            } else {
                assert_eq!(stats.batched_replays, 0, "batched backend is off");
            }
            ServingPoint {
                max_batch,
                workers,
                requests,
                throughput_rps: requests as f64 / wall,
                p50_ms: percentile(&latencies_ms, 0.50),
                p99_ms: percentile(&latencies_ms, 0.99),
                executed_batches: stats.executed_batches(),
                mean_batch: stats.mean_batch(),
                rejected: stats.rejected,
                program_hits: programs.hits,
                program_misses: programs.misses,
                artifact_hits: programs.artifact_hits,
                artifact_misses: programs.artifact_misses,
                batched_replay,
                batched_replays: stats.batched_replays,
            }
        })
        .collect()
}

/// One row of the degraded-mode scenario: the closed loop run either clean
/// or under a fixed fault plan.
struct DegradedPoint {
    fault_plan: &'static str,
    requests: u64,
    completed: u64,
    failed: u64,
    shed: u64,
    retries: u64,
    worker_panics: u64,
    respawns: u64,
    breaker_opens: u64,
    throughput_rps: f64,
    p99_ms: f64,
}

/// Degraded-mode pair: the same closed-loop traffic run with no fault plan
/// and with a fixed seeded one (deterministic injection points, so the row
/// is comparable across PRs). The clean row is the control; the faulty row
/// shows what retries, worker respawns and breaker trips cost when ~25% of
/// batch executions misbehave (faults are drawn once per batch pickup and
/// once per batch replay, not per request). Conservation is asserted on
/// both rows.
fn degraded_sweep(iters: usize) -> Vec<DegradedPoint> {
    const CLIENTS: usize = 8;
    const DISTINCT_IMAGES: usize = 4;
    const FAULTY: &str = "seed=42;replay.fail=0.15;replay.panic=0.05;pickup.fail=0.05";
    let requests_per_client = 8 * iters.min(4);

    let graph = resnet50_graph_scaled(16, 16);
    let config = FeatherConfig::new(8, 16);
    let weights = graph.random_weights(8);
    let [_, c, h, w] = graph.tensor_shape(graph.input());
    let images: Vec<Tensor4<i8>> = (0..DISTINCT_IMAGES)
        .map(|i| Tensor4::random([1, c, h, w], 290 + i as u64))
        .collect();

    ["", FAULTY]
        .iter()
        .map(|&plan_str| {
            let cfg = ServeConfig {
                max_batch: 4,
                queue_depth: 256,
                batch_window: Duration::from_micros(800),
                default_deadline: None,
                max_retries: 2,
                retry_backoff: Duration::from_micros(200),
                ..ServeConfig::from_env()
            };
            let server = Arc::new(Server::with_fault_plan(cfg, FaultPlan::parse(plan_str)));
            server
                .register_model("resnet50", config, &graph, weights.clone())
                .expect("serving model registers");

            let start = Instant::now();
            let mut latencies_ms: Vec<f64> = Vec::new();
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..CLIENTS)
                    .map(|client| {
                        let server = server.clone();
                        let images = &images;
                        scope.spawn(move || {
                            let mut lat = Vec::with_capacity(requests_per_client);
                            for i in 0..requests_per_client {
                                let ticket = server.submit(
                                    &format!("client-{client}"),
                                    "resnet50",
                                    images[(client + i) % images.len()].clone(),
                                );
                                match ticket {
                                    Ok(t) => match t.wait() {
                                        Ok(response) => lat.push(response.latency_us as f64 / 1e3),
                                        // Retry budget exhausted under the
                                        // injected fault rates.
                                        Err(feather_serve::ServeError::Failed(_)) => {}
                                        Err(e) => panic!("unexpected outcome: {e}"),
                                    },
                                    // The breaker may trip while faults burst.
                                    Err(feather_serve::ServeError::Unavailable { .. }) => {}
                                    Err(e) => panic!("unexpected submit error: {e}"),
                                }
                            }
                            lat
                        })
                    })
                    .collect();
                for handle in handles {
                    latencies_ms.extend(handle.join().expect("client thread"));
                }
            });
            let wall = start.elapsed().as_secs_f64();

            let stats = server.stats();
            assert_eq!(
                stats.submitted,
                stats.accounted(),
                "degraded-mode conservation violated: {stats:?}"
            );
            if plan_str.is_empty() {
                assert_eq!(stats.failed + stats.shed + stats.worker_panics, 0);
                assert_eq!(stats.completed, (CLIENTS * requests_per_client) as u64);
            }
            latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
            DegradedPoint {
                fault_plan: if plan_str.is_empty() {
                    "none"
                } else {
                    plan_str
                },
                requests: (CLIENTS * requests_per_client) as u64,
                completed: stats.completed,
                failed: stats.failed,
                shed: stats.shed,
                retries: stats.retries,
                worker_panics: stats.worker_panics,
                respawns: stats.respawns,
                breaker_opens: stats.breaker_opens,
                throughput_rps: latencies_ms.len() as f64 / wall,
                p99_ms: percentile(&latencies_ms, 0.99),
            }
        })
        .collect()
}

/// One point of the offered-rate-vs-achieved-throughput surface.
struct OpenLoopPoint {
    workers: usize,
    max_batch: usize,
    offered_rps: f64,
    achieved_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    completed: u64,
    rejected: u64,
    mean_batch: f64,
    max_concurrent: u64,
}

/// Open-loop (arrival-rate driven) traffic generator: requests are submitted
/// on a Poisson schedule that does NOT wait for completions, so unlike the
/// closed loop the offered load keeps pressing when the server falls behind.
/// Swept across offered rates, the curve exposes the saturation knee: below
/// it achieved ≈ offered and latency is flat; past it the queue (bounded at
/// `queue_depth` per tenant) fills, latency blows up and admission control
/// sheds load.
///
/// Since PR 8 the sweep is a `workers × max_batch` grid over the same rate
/// schedule: `workers ∈ {1, 2, 4}` executor-pool sizes crossed with the
/// batcher fully off (`max_batch = 1`) and fully on (`max_batch = 8`). The
/// `workers = 1, max_batch = 8` rows reproduce the BENCH_7 configuration
/// for cross-PR comparison; on a multi-core host the other rows show the
/// saturation knee moving right as the pool widens.
fn open_loop_sweep(iters: usize) -> Vec<OpenLoopPoint> {
    const RATES_RPS: [f64; 5] = [100.0, 200.0, 400.0, 800.0, 1600.0];
    const WORKERS: [usize; 3] = [1, 2, 4];
    const MAX_BATCH: [usize; 2] = [1, 8];
    const DISTINCT_IMAGES: usize = 8;

    let graph = resnet50_graph_scaled(16, 16);
    let config = FeatherConfig::new(8, 16);
    let weights = graph.random_weights(8);
    let [_, c, h, w] = graph.tensor_shape(graph.input());
    let images: Vec<Tensor4<i8>> = (0..DISTINCT_IMAGES)
        .map(|i| Tensor4::random([1, c, h, w], 190 + i as u64))
        .collect();

    let mut points = Vec::new();
    for &workers in &WORKERS {
        for &max_batch in &MAX_BATCH {
            for &rate in &RATES_RPS {
                // ~0.4 s of offered load per point (ITERS=1); more
                // iterations lengthen the window up to 2x for steadier
                // estimates.
                let requests = ((rate * 0.4) as usize).clamp(40, 640) * iters.clamp(1, 2);
                let server = Server::new(ServeConfig {
                    max_batch,
                    queue_depth: 256,
                    batch_window: Duration::from_micros(800),
                    default_deadline: None,
                    workers,
                    ..ServeConfig::default()
                });
                server
                    .register_model("resnet50", config, &graph, weights.clone())
                    .expect("serving model registers");

                let mut rng = ChaCha8Rng::seed_from_u64(rate as u64);
                let start = Instant::now();
                let mut next_arrival = Duration::ZERO;
                let mut tickets = Vec::with_capacity(requests);
                let mut rejected: u64 = 0;
                for _ in 0..requests {
                    // Exponential inter-arrival times make the schedule a
                    // Poisson process; the schedule is absolute, so a slow
                    // server cannot push arrivals back (that is the open
                    // loop).
                    let u: f64 = rng.gen_range(1e-12..1.0);
                    next_arrival += Duration::from_secs_f64(-u.ln() / rate);
                    if let Some(sleep) = next_arrival.checked_sub(start.elapsed()) {
                        std::thread::sleep(sleep);
                    }
                    let img = rng.gen_range(0..images.len());
                    match server.submit("open-loop", "resnet50", images[img].clone()) {
                        Ok(ticket) => tickets.push(ticket),
                        Err(_) => rejected += 1, // admission control shed it
                    }
                }
                // Drain: every admitted request still resolves.
                let mut latencies_ms: Vec<f64> = tickets
                    .into_iter()
                    .map(|t| t.wait().expect("admitted request completes").latency_us as f64 / 1e3)
                    .collect();
                let wall = start.elapsed().as_secs_f64();
                let stats = server.stats();
                latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
                points.push(OpenLoopPoint {
                    workers,
                    max_batch,
                    offered_rps: rate,
                    achieved_rps: latencies_ms.len() as f64 / wall,
                    p50_ms: percentile(&latencies_ms, 0.50),
                    p99_ms: percentile(&latencies_ms, 0.99),
                    completed: stats.completed,
                    rejected,
                    mean_batch: stats.mean_batch(),
                    max_concurrent: stats.max_concurrent_batches,
                });
            }
        }
    }
    points
}

fn main() {
    let mut pr: u32 = 10;
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = Some(args.next().expect("--out takes a path")),
            "--pr" => {
                pr = args
                    .next()
                    .expect("--pr takes a number")
                    .parse()
                    .expect("--pr takes a number")
            }
            other => panic!("unknown argument `{other}` (supported: --pr <n>, --out <path>)"),
        }
    }
    let out_path = out_path.unwrap_or_else(|| format!("BENCH_{pr}.json"));
    let iters: usize = std::env::var("FEATHER_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(5);

    let mut snapshots = vec![functional_conv(iters), pipeline_bottleneck(iters)];
    let (interpreted, replay, batched) = graph_resnet(iters);
    let replay_speedup = interpreted.wall_ms / replay.wall_ms.max(1e-9);
    let batched_per_sample_ms = batched.wall_ms / REPLAY_LANES as f64;
    let batched_speedup = replay.wall_ms / batched_per_sample_ms.max(1e-9);
    snapshots.push(interpreted);
    snapshots.push(replay);
    snapshots.push(batched);
    let (serial, parallel) = parallel_pair(iters);
    let shard_speedup = serial.wall_ms / parallel.wall_ms.max(1e-9);
    snapshots.push(serial);
    snapshots.push(parallel);
    let serving = serving_sweep(iters);
    let open_loop = open_loop_sweep(iters);
    let degraded = degraded_sweep(iters);

    // Hand-rolled JSON: the vendored serde shim's derives are no-ops (see
    // ROADMAP "Registry re-vendoring"), and the format is four flat fields.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"pr\": {pr},\n"));
    json.push_str(&format!("  \"iters\": {iters},\n"));
    json.push_str(&format!("  \"host_threads\": {},\n", default_threads()));
    json.push_str("  \"scenarios\": [\n");
    for (i, s) in snapshots.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"wall_ms\": {:.3}, \"cycles\": {}, \"dram_bytes\": {}}}{}\n",
            s.name,
            s.wall_ms,
            s.cycles,
            s.dram_bytes,
            if i + 1 < snapshots.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"serving\": [\n");
    for (i, p) in serving.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"max_batch\": {}, \"workers\": {}, \"requests\": {}, \
             \"throughput_rps\": {:.1}, \
             \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"executed_batches\": {}, \
             \"mean_batch\": {:.2}, \"rejected\": {}, \"program_hits\": {}, \
             \"program_misses\": {}, \"artifact_hits\": {}, \"artifact_misses\": {}, \
             \"batched_replay\": {}, \"batched_replays\": {}}}{}\n",
            p.max_batch,
            p.workers,
            p.requests,
            p.throughput_rps,
            p.p50_ms,
            p.p99_ms,
            p.executed_batches,
            p.mean_batch,
            p.rejected,
            p.program_hits,
            p.program_misses,
            p.artifact_hits,
            p.artifact_misses,
            p.batched_replay,
            p.batched_replays,
            if i + 1 < serving.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"serving_open_loop\": [\n");
    for (i, p) in open_loop.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workers\": {}, \"max_batch\": {}, \"offered_rps\": {:.0}, \
             \"achieved_rps\": {:.1}, \"p50_ms\": {:.3}, \
             \"p99_ms\": {:.3}, \"completed\": {}, \"rejected\": {}, \
             \"mean_batch\": {:.2}, \"max_concurrent_batches\": {}}}{}\n",
            p.workers,
            p.max_batch,
            p.offered_rps,
            p.achieved_rps,
            p.p50_ms,
            p.p99_ms,
            p.completed,
            p.rejected,
            p.mean_batch,
            p.max_concurrent,
            if i + 1 < open_loop.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"serving_degraded\": [\n");
    for (i, p) in degraded.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"fault_plan\": \"{}\", \"requests\": {}, \"completed\": {}, \
             \"failed\": {}, \"shed\": {}, \"retries\": {}, \"worker_panics\": {}, \
             \"respawns\": {}, \"breaker_opens\": {}, \"throughput_rps\": {:.1}, \
             \"p99_ms\": {:.3}}}{}\n",
            p.fault_plan,
            p.requests,
            p.completed,
            p.failed,
            p.shed,
            p.retries,
            p.worker_panics,
            p.respawns,
            p.breaker_opens,
            p.throughput_rps,
            p.p99_ms,
            if i + 1 < degraded.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("snapshot file is writable");

    for s in &snapshots {
        println!(
            "{:<45} {:>10.3} ms   {:>12} cycles   {:>10} DRAM B",
            s.name, s.wall_ms, s.cycles, s.dram_bytes
        );
    }
    println!("interpreted → replay speedup: {replay_speedup:.2}x");
    println!(
        "scalar replay → batched replay per-sample speedup at batch-{REPLAY_LANES}: \
         {batched_speedup:.2}x ({batched_per_sample_ms:.3} ms/sample)"
    );
    println!(
        "serial → sharded speedup: {shard_speedup:.2}x ({} workers on {} host threads)",
        default_threads(),
        default_threads()
    );
    println!(
        "\n{:<10} {:>9} {:>12} {:>10} {:>10} {:>9} {:>11} {:>11} {:>9}",
        "max_batch",
        "requests",
        "rps",
        "p50 ms",
        "p99 ms",
        "batches",
        "mean batch",
        "compiles",
        "batched"
    );
    for p in &serving {
        println!(
            "{:<10} {:>9} {:>12.1} {:>10.3} {:>10.3} {:>9} {:>11.2} {:>11} {:>9}",
            p.max_batch,
            p.requests,
            p.throughput_rps,
            p.p50_ms,
            p.p99_ms,
            p.executed_batches,
            p.mean_batch,
            p.program_misses,
            p.batched_replays,
        );
    }
    println!(
        "\n{:>7} {:>9} {:<12} {:>12} {:>10} {:>10} {:>10} {:>9} {:>11}",
        "workers",
        "max_batch",
        "offered rps",
        "achieved",
        "p50 ms",
        "p99 ms",
        "completed",
        "shed",
        "mean batch"
    );
    for p in &open_loop {
        println!(
            "{:>7} {:>9} {:<12.0} {:>12.1} {:>10.3} {:>10.3} {:>10} {:>9} {:>11.2}",
            p.workers,
            p.max_batch,
            p.offered_rps,
            p.achieved_rps,
            p.p50_ms,
            p.p99_ms,
            p.completed,
            p.rejected,
            p.mean_batch,
        );
    }
    println!(
        "\n{:<45} {:>9} {:>10} {:>7} {:>5} {:>8} {:>7} {:>9} {:>11} {:>9}",
        "fault_plan",
        "requests",
        "completed",
        "failed",
        "shed",
        "retries",
        "panics",
        "respawns",
        "rps",
        "p99 ms"
    );
    for p in &degraded {
        println!(
            "{:<45} {:>9} {:>10} {:>7} {:>5} {:>8} {:>7} {:>9} {:>11.1} {:>9.3}",
            p.fault_plan,
            p.requests,
            p.completed,
            p.failed,
            p.shed,
            p.retries,
            p.worker_panics,
            p.respawns,
            p.throughput_rps,
            p.p99_ms,
        );
    }
    println!("wrote {out_path}");
}
