//! Concurrency stress for the serving front-end: many client threads drive
//! one `Server` hosting several small models at once, so the per-model
//! programs, the per-tenant admission queues, and the executor pool all see
//! real contention. Every
//! response must be bit-identical to a solo (batch-1) run of the same input
//! — the scheduler is free to coalesce requests however the timing falls
//! and to spread batches across however many workers are configured, and
//! that freedom must be invisible in the results. A poisoned lock anywhere
//! panics a server thread or a client, so the tests double as a
//! no-poisoned-locks check.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use feather::{FeatherConfig, GraphSession};
use feather_arch::graph::{Graph, NodeId};
use feather_arch::tensor::Tensor4;
use feather_arch::workload::{ConvLayer, GemmLayer};
use feather_serve::{FaultPlan, FaultSite, ServeConfig, ServeError, Server, Ticket};
use proptest::prelude::*;

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 12;
const INPUTS_PER_MODEL: usize = 4;

/// conv → (identity ‖ proj) → add → conv: a residual join in miniature.
fn residual_model() -> Graph {
    let mut g = Graph::new("residual", [1, 4, 6, 6]);
    let stem = g
        .conv(
            g.input(),
            ConvLayer::new(1, 4, 4, 6, 6, 3, 3)
                .with_padding(1)
                .with_name("stem"),
        )
        .unwrap();
    let main = g
        .conv(stem, ConvLayer::new(1, 8, 4, 6, 6, 1, 1).with_name("main"))
        .unwrap();
    let proj = g
        .conv(stem, ConvLayer::new(1, 8, 4, 6, 6, 1, 1).with_name("proj"))
        .unwrap();
    let join = g.add(main, proj, "add").unwrap();
    g.conv(join, ConvLayer::new(1, 4, 8, 6, 6, 1, 1).with_name("head"))
        .unwrap();
    g
}

/// A plain two-conv chain at a different input shape.
fn chain_model() -> Graph {
    let mut g = Graph::new("chain", [1, 2, 8, 8]);
    let stem = g
        .conv(
            g.input(),
            ConvLayer::new(1, 4, 2, 8, 8, 3, 3)
                .with_padding(1)
                .with_name("stem"),
        )
        .unwrap();
    g.conv(stem, ConvLayer::new(1, 2, 4, 8, 8, 1, 1).with_name("head"))
        .unwrap();
    g
}

/// conv → global-average-pool lowering → FC GEMM: the classifier-tail shape.
fn classifier_model() -> Graph {
    let mut g = Graph::new("classifier", [1, 2, 8, 8]);
    let stem = g
        .conv(
            g.input(),
            ConvLayer::new(1, 8, 2, 8, 8, 3, 3)
                .with_padding(1)
                .with_name("stem"),
        )
        .unwrap();
    let pooled = g.avgpool_as_conv(stem, 8, 1, 0, "gap").unwrap();
    g.gemm(pooled, GemmLayer::new(1, 8, 6).with_name("fc"))
        .unwrap();
    g
}

struct ModelFixture {
    name: &'static str,
    weights: BTreeMap<NodeId, Tensor4<i8>>,
    inputs: Vec<Tensor4<i8>>,
    goldens: Vec<Tensor4<i32>>,
    /// `Program::cost()` totals: what every request to this model is charged.
    cycles: u64,
    dram_bytes: u64,
    graph: Graph,
}

fn fixture(name: &'static str, graph: Graph, seed: u64) -> ModelFixture {
    let config = FeatherConfig::new(4, 8);
    let weights = graph.random_weights(seed);
    let solo = GraphSession::auto(config, &graph).unwrap();
    let [_, c, h, w] = graph.tensor_shape(graph.input());
    let inputs: Vec<Tensor4<i8>> = (0..INPUTS_PER_MODEL)
        .map(|i| Tensor4::random([1, c, h, w], seed * 100 + i as u64))
        .collect();
    let goldens = inputs
        .iter()
        .map(|iacts| solo.run(iacts, &weights).unwrap().oacts)
        .collect();
    let program = solo.compile().unwrap();
    ModelFixture {
        name,
        weights,
        inputs,
        goldens,
        cycles: program.cost().total_cycles(),
        dram_bytes: program.cost().dram_bytes(),
        graph,
    }
}

/// The mixed-model bit-exactness stress, parameterized over the executor
/// pool size: the same client schedule must produce the same (solo-golden)
/// results whether one worker serializes every batch or four race.
fn mixed_model_traffic(workers: usize) {
    let fixtures: Arc<Vec<ModelFixture>> = Arc::new(vec![
        fixture("residual", residual_model(), 7),
        fixture("chain", chain_model(), 11),
        fixture("classifier", classifier_model(), 13),
    ]);

    let server = Arc::new(Server::new(ServeConfig {
        max_batch: 4,
        queue_depth: 64,
        workers,
        ..ServeConfig::default()
    }));
    for f in fixtures.iter() {
        server
            .register_model(
                f.name,
                FeatherConfig::new(4, 8),
                &f.graph,
                f.weights.clone(),
            )
            .unwrap();
    }

    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let server = server.clone();
            let fixtures = fixtures.clone();
            scope.spawn(move || {
                for i in 0..REQUESTS_PER_CLIENT {
                    // Deterministic mixed-model schedule: clients interleave
                    // models and inputs differently so same-model bursts and
                    // cross-model interleavings both occur.
                    let f = &fixtures[(client + i) % fixtures.len()];
                    let input = (client * REQUESTS_PER_CLIENT + i) % f.inputs.len();
                    let ticket = server
                        .submit(
                            &format!("tenant-{}", client % 3),
                            f.name,
                            f.inputs[input].clone(),
                        )
                        .unwrap();
                    let response = ticket.wait().unwrap();
                    assert_eq!(
                        response.oacts, f.goldens[input],
                        "client {client} request {i} ({}) diverged from the solo run",
                        f.name
                    );
                    assert!(response.batch_size >= 1);
                    assert!(response.worker < workers);
                    assert_eq!(response.cycles, f.cycles);
                    assert_eq!(response.dram_bytes, f.dram_bytes);
                }
            });
        }
    });

    let stats = server.stats();
    let total = (CLIENTS * REQUESTS_PER_CLIENT) as u64;
    assert_eq!(stats.completed, total);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.timed_out, 0);
    assert_eq!(stats.cancelled, 0);
    assert!(stats.executed_batches() >= 1);
    assert_eq!(
        stats
            .batches
            .iter()
            .map(|(k, n)| *k as u64 * n)
            .sum::<u64>(),
        total,
        "the batch histogram must account for every completed request"
    );
    assert_eq!(
        stats.worker_batches.values().sum::<u64>(),
        stats.executed_batches(),
        "per-worker batch counts must account for every executed batch"
    );
    assert!(stats.worker_batches.keys().all(|w| *w < workers));
    assert!(
        stats.max_concurrent_batches <= workers as u64,
        "concurrency watermark {} exceeds the {workers}-worker pool",
        stats.max_concurrent_batches
    );
    // Exact chargeback: each request is charged its model's solo cost, so a
    // tenant's totals follow from the client schedule alone.
    let mut charged: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for client in 0..CLIENTS {
        for i in 0..REQUESTS_PER_CLIENT {
            let f = &fixtures[(client + i) % fixtures.len()];
            let (completed, cycles, dram_bytes) =
                charged.entry(format!("tenant-{}", client % 3)).or_default();
            *completed += 1;
            *cycles += f.cycles;
            *dram_bytes += f.dram_bytes;
        }
    }
    assert_eq!(stats.tenants.len(), 3);
    for (tenant, t) in &stats.tenants {
        assert_eq!((t.completed, t.cycles, t.dram_bytes), charged[tenant]);
        assert!(t.mean_latency_us() > 0.0);
    }
}

#[test]
fn concurrent_mixed_model_traffic_is_bit_identical_to_solo_runs() {
    mixed_model_traffic(1);
}

#[test]
fn concurrent_mixed_model_traffic_with_two_workers() {
    mixed_model_traffic(2);
}

#[test]
fn concurrent_mixed_model_traffic_with_four_workers() {
    mixed_model_traffic(4);
}

#[test]
fn contended_admission_never_loses_or_duplicates_requests() {
    let f = fixture("chain", chain_model(), 23);
    let server = Arc::new(Server::new(ServeConfig {
        max_batch: 2,
        queue_depth: 4,
        workers: 2,
        ..ServeConfig::default()
    }));
    server
        .register_model(
            f.name,
            FeatherConfig::new(4, 8),
            &f.graph,
            f.weights.clone(),
        )
        .unwrap();

    // Fire-and-wait from many threads against a tiny queue: every submit
    // either yields a bit-identical response or a clean QueueFull — nothing
    // hangs, nothing poisons.
    let mut accepted = 0u64;
    let mut bounced = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let server = server.clone();
                let f = &f;
                scope.spawn(move || {
                    let mut ok = 0u64;
                    let mut full = 0u64;
                    for i in 0..REQUESTS_PER_CLIENT {
                        let input = (client + i) % f.inputs.len();
                        match server.submit("t", f.name, f.inputs[input].clone()) {
                            Ok(ticket) => {
                                assert_eq!(ticket.wait().unwrap().oacts, f.goldens[input]);
                                ok += 1;
                            }
                            Err(ServeError::QueueFull { depth }) => {
                                assert_eq!(depth, 4);
                                full += 1;
                            }
                            Err(e) => panic!("unexpected submit error: {e}"),
                        }
                    }
                    (ok, full)
                })
            })
            .collect();
        for handle in handles {
            let (ok, full) = handle.join().unwrap();
            accepted += ok;
            bounced += full;
        }
    });

    assert_eq!(accepted + bounced, (CLIENTS * REQUESTS_PER_CLIENT) as u64);
    let stats = server.stats();
    assert_eq!(stats.completed, accepted);
    assert_eq!(stats.rejected, bounced);
    assert_eq!(
        stats
            .batches
            .iter()
            .map(|(k, n)| *k as u64 * n)
            .sum::<u64>(),
        accepted
    );
}

#[test]
fn cancellation_mid_queue_conserves_every_request() {
    let f = Arc::new(fixture("chain", chain_model(), 29));
    let server = Arc::new(Server::new(ServeConfig {
        max_batch: 8,
        queue_depth: 256,
        workers: 2,
        ..ServeConfig::default()
    }));
    server
        .register_model(
            f.name,
            FeatherConfig::new(4, 8),
            &f.graph,
            f.weights.clone(),
        )
        .unwrap();

    const ROUNDS: usize = 8;
    const CANCEL_CLIENTS: usize = 6;
    let mut kept_total = 0u64;
    let mut cancel_ok = 0u64;
    let mut cancel_cancelled = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CANCEL_CLIENTS)
            .map(|client| {
                let server = server.clone();
                let f = f.clone();
                scope.spawn(move || {
                    let mut kept = 0u64;
                    let mut ok = 0u64;
                    let mut cancelled = 0u64;
                    for i in 0..ROUNDS {
                        let input = (client + i) % f.inputs.len();
                        // One request to keep, one to cancel explicitly, one
                        // to abandon by dropping its ticket.
                        let keep = server
                            .submit("keeper", f.name, f.inputs[input].clone())
                            .unwrap();
                        let explicit = server
                            .submit("fickle", f.name, f.inputs[input].clone())
                            .unwrap();
                        let abandoned = server
                            .submit("fickle", f.name, f.inputs[input].clone())
                            .unwrap();
                        explicit.cancel();
                        drop(abandoned);
                        assert_eq!(keep.wait().unwrap().oacts, f.goldens[input]);
                        kept += 1;
                        // Cancellation is best-effort: a request already
                        // past the executor gate completes normally, but it
                        // must be exactly one of the two outcomes.
                        match explicit.wait() {
                            Ok(response) => {
                                assert_eq!(response.oacts, f.goldens[input]);
                                ok += 1;
                            }
                            Err(ServeError::Cancelled) => cancelled += 1,
                            Err(e) => panic!("unexpected cancel outcome: {e}"),
                        }
                    }
                    (kept, ok, cancelled)
                })
            })
            .collect();
        for handle in handles {
            let (kept, ok, cancelled) = handle.join().unwrap();
            kept_total += kept;
            cancel_ok += ok;
            cancel_cancelled += cancelled;
        }
    });

    let mut server = Arc::into_inner(server).expect("all clients joined");
    server.shutdown();
    let stats = server.stats();
    let submitted = (CANCEL_CLIENTS * ROUNDS * 3) as u64;
    assert_eq!(kept_total, (CANCEL_CLIENTS * ROUNDS) as u64);
    // Conservation: every admitted request resolved exactly once, as a
    // completion or a cancellation — nothing lost, nothing double-counted.
    assert_eq!(stats.completed + stats.cancelled, submitted);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.timed_out, 0);
    // The fickle tenant's two requests per round each resolved exactly once.
    let fickle = &stats.tenants["fickle"];
    assert_eq!(
        fickle.completed + fickle.cancelled,
        (CANCEL_CLIENTS * ROUNDS * 2) as u64
    );
    assert!(fickle.completed >= cancel_ok);
    assert!(fickle.cancelled >= cancel_cancelled);
    // Six clients share two workers, so a cancel fired microseconds after
    // submit finds its request still queued essentially always — the
    // pruning path really ran.
    assert!(
        stats.cancelled > 0,
        "no cancellation was ever pruned mid-queue"
    );
    assert_eq!(stats.tenants["fickle"].cancelled, stats.cancelled);
    assert_eq!(stats.tenants["keeper"].completed, kept_total);
    // The batch histogram counts only executed requests: cancelled ones
    // never reached a worker.
    assert_eq!(
        stats
            .batches
            .iter()
            .map(|(k, n)| *k as u64 * n)
            .sum::<u64>(),
        stats.completed
    );
}

#[test]
fn weighted_fair_scheduling_bounds_light_tenant_service_delay() {
    let light_model = Arc::new(fixture("chain", chain_model(), 31));
    let flood_model = Arc::new(fixture("residual", residual_model(), 37));
    let server = Arc::new(Server::new(ServeConfig {
        max_batch: 4,
        queue_depth: 32,
        workers: 1,
        ..ServeConfig::default()
    }));
    for f in [&light_model, &flood_model] {
        server
            .register_model(
                f.name,
                FeatherConfig::new(4, 8),
                &f.graph,
                f.weights.clone(),
            )
            .unwrap();
    }
    server.set_tenant_weight("light", 4);
    server.set_tenant_weight("flood", 1);

    // The flooder keeps a deep backlog of its own model outstanding for the
    // whole run; the light tenant submits sparse single requests. On a solo
    // (idle) server a light request costs exactly one formed batch; under
    // the flood, deficit round-robin must keep its service delay within the
    // pipeline slack (executing + ready + one fairness round + its own
    // batch) instead of the flood's whole backlog (~16 batches here under
    // FIFO).
    const LIGHT_REQUESTS: usize = 25;
    const FLOOD_OUTSTANDING: usize = 24;
    let done = AtomicBool::new(false);
    let mut batch_deltas = Vec::with_capacity(LIGHT_REQUESTS);
    std::thread::scope(|scope| {
        let flooder = {
            let server = server.clone();
            let f = flood_model.clone();
            let done = &done;
            scope.spawn(move || {
                let mut outstanding: Vec<Ticket> = Vec::new();
                let mut i = 0usize;
                while !done.load(Ordering::Acquire) {
                    if outstanding.len() >= FLOOD_OUTSTANDING {
                        outstanding.remove(0).wait().unwrap();
                    }
                    let input = i % f.inputs.len();
                    match server.submit("flood", f.name, f.inputs[input].clone()) {
                        Ok(ticket) => outstanding.push(ticket),
                        Err(ServeError::QueueFull { .. }) => {
                            outstanding.remove(0).wait().unwrap();
                        }
                        Err(e) => panic!("flooder hit {e}"),
                    }
                    i += 1;
                }
                for ticket in outstanding {
                    ticket.wait().unwrap();
                }
            })
        };

        // Give the flood time to build its backlog before measuring.
        std::thread::sleep(Duration::from_millis(20));
        for i in 0..LIGHT_REQUESTS {
            let input = i % light_model.inputs.len();
            let before = server.stats().executed_batches();
            let response = server
                .submit("light", light_model.name, light_model.inputs[input].clone())
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(response.oacts, light_model.goldens[input]);
            let after = server.stats().executed_batches();
            batch_deltas.push(after - before);
            std::thread::sleep(Duration::from_millis(2));
        }
        done.store(true, Ordering::Release);
        flooder.join().unwrap();
    });

    // Tail bound in formed-batch counts, with slack for the light thread
    // being descheduled around its stats snapshots: the bulk of requests
    // must be served within the pipeline slack, and even the worst case
    // must stay far below the FIFO backlog.
    batch_deltas.sort_unstable();
    let p90 = batch_deltas[(batch_deltas.len() * 9 / 10).min(batch_deltas.len() - 1)];
    let worst = *batch_deltas.last().unwrap();
    assert!(
        p90 <= 6,
        "light tenant's 90th-percentile service delay is {p90} formed batches \
         ({batch_deltas:?}) — the flood is starving it"
    );
    assert!(
        worst <= 16,
        "light tenant's worst service delay is {worst} formed batches \
         ({batch_deltas:?}) — no better than FIFO behind the flood's backlog"
    );

    let stats = server.stats();
    assert_eq!(stats.tenants["light"].completed, LIGHT_REQUESTS as u64);
    assert!(stats.tenants["flood"].completed > 0);
    assert_eq!(stats.timed_out, 0);
    assert_eq!(stats.cancelled, 0);
}

// ---------------------------------------------------------------- chaos
//
// The fault-injection suite (all names start with `chaos_` so CI can run it
// standalone): a seeded `FaultPlan` makes replays fail and panic and workers
// fail or panic as they pick up a batch, deterministically per seed. Under any
// plan the server must neither deadlock nor lose a request: every admitted
// request resolves exactly once (the conservation invariant), every
// `Ok` response is bit-identical to the solo golden, and the pool keeps
// serving after every panic.

/// One chaos round: concurrent mixed-model traffic under a seeded fault
/// plan. Returns nothing — panics (in a client or via a conservation
/// violation) are the failure mode.
fn chaos_round(seed: u64, workers: usize) {
    let fixtures: Arc<Vec<ModelFixture>> = Arc::new(vec![
        fixture("residual", residual_model(), 7),
        fixture("chain", chain_model(), 11),
        fixture("classifier", classifier_model(), 13),
    ]);
    let plan = FaultPlan::seeded(seed)
        .with_fail(FaultSite::ReplayEntry, 0.08)
        .with_panic(FaultSite::ReplayEntry, 0.04)
        .with_fail(FaultSite::WorkerPickup, 0.03)
        .with_panic(FaultSite::WorkerPickup, 0.02);
    let server = Arc::new(Server::with_fault_plan(
        ServeConfig {
            max_batch: 4,
            queue_depth: 64,
            workers,
            max_retries: 2,
            retry_backoff: Duration::from_micros(50),
            breaker_threshold: 4,
            breaker_cooldown: Duration::from_millis(10),
            ..ServeConfig::default()
        },
        Some(plan),
    ));
    for f in fixtures.iter() {
        server
            .register_model(
                f.name,
                FeatherConfig::new(4, 8),
                &f.graph,
                f.weights.clone(),
            )
            .unwrap();
    }

    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let server = server.clone();
            let fixtures = fixtures.clone();
            scope.spawn(move || {
                for i in 0..REQUESTS_PER_CLIENT {
                    let f = &fixtures[(client + i) % fixtures.len()];
                    let input = (client * REQUESTS_PER_CLIENT + i) % f.inputs.len();
                    match server.submit(
                        &format!("tenant-{}", client % 3),
                        f.name,
                        f.inputs[input].clone(),
                    ) {
                        Ok(ticket) => match ticket.wait() {
                            // Success under injection must still be exact:
                            // retries and worker respawns may not perturb a
                            // single bit of the response.
                            Ok(response) => assert_eq!(
                                response.oacts, f.goldens[input],
                                "client {client} request {i} ({}) diverged under faults",
                                f.name
                            ),
                            Err(ServeError::Failed(_)) => {}
                            Err(e) => panic!("unexpected terminal outcome: {e}"),
                        },
                        // An open breaker fast-fails at submit; a backlog
                        // swollen by retries can bounce at admission.
                        Err(ServeError::Unavailable { .. }) => {}
                        Err(ServeError::QueueFull { .. }) => {}
                        Err(e) => panic!("unexpected submit error: {e}"),
                    }
                }
            });
        }
    });

    let mut server = Arc::into_inner(server).expect("all clients joined");
    server.shutdown();
    let stats = server.stats();
    assert_eq!(
        stats.submitted,
        stats.accounted(),
        "conservation violated under seed {seed} ({workers} workers): {stats:?}"
    );
    assert_eq!(stats.timed_out, 0, "no request carried a deadline");
    assert_eq!(stats.cancelled, 0, "no request was cancelled");
    assert_eq!(
        stats.respawns, stats.worker_panics,
        "every caught panic must respawn exactly one worker"
    );
    assert!(
        stats.completed > 0,
        "seed {seed}: the server completed nothing at these fault rates"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random fault-plan seeds across pool sizes.
    /// Deterministic per case (the vendored proptest derives its stream from
    /// the test name), so a failing seed reproduces exactly.
    #[test]
    fn chaos_random_fault_plans_conserve_requests(
        seed in 0u64..1_000_000,
        worker_sel in 0usize..3,
    ) {
        chaos_round(seed, [1usize, 2, 4][worker_sel]);
    }
}

#[test]
fn chaos_every_pickup_panicking_still_terminates() {
    // Pathological plan: every worker pickup panics. Each attempt kills a
    // worker, the batch retries once, then fails — bounded respawns, no
    // deadlock, full conservation. This is the worst case the supervisor
    // must survive.
    let f = fixture("chain", chain_model(), 41);
    let plan = FaultPlan::seeded(9).with_panic(FaultSite::WorkerPickup, 1.0);
    let mut server = Server::with_fault_plan(
        ServeConfig {
            max_batch: 2,
            queue_depth: 16,
            workers: 2,
            max_retries: 1,
            retry_backoff: Duration::from_micros(50),
            ..ServeConfig::default()
        },
        Some(plan),
    );
    server
        .register_model(
            f.name,
            FeatherConfig::new(4, 8),
            &f.graph,
            f.weights.clone(),
        )
        .unwrap();

    let tickets: Vec<Ticket> = (0..8)
        .map(|i| {
            server
                .submit("t", f.name, f.inputs[i % f.inputs.len()].clone())
                .unwrap()
        })
        .collect();
    for ticket in tickets {
        assert!(
            matches!(ticket.wait(), Err(ServeError::Failed(_))),
            "with every pickup panicking, requests must fail cleanly"
        );
    }
    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.submitted, 8);
    assert_eq!(stats.failed, 8);
    assert_eq!(stats.submitted, stats.accounted());
    assert!(stats.worker_panics >= 1);
    assert_eq!(stats.respawns, stats.worker_panics);
}

#[test]
fn chaos_empty_plan_is_inert_and_parses_from_env_format() {
    // The env format parses; inert strings collapse to no plan at all, so
    // the hot path's injection check stays a single null test.
    assert!(FaultPlan::parse("").is_none());
    assert!(FaultPlan::parse("seed=5").is_none());
    let plan = FaultPlan::parse("seed=5;replay.fail=0.25;pickup.panic_first=1").unwrap();
    assert!(!plan.is_empty());

    // A server built with no plan behaves exactly like `Server::new`.
    let f = fixture("chain", chain_model(), 43);
    let mut server = Server::with_fault_plan(ServeConfig::default(), None);
    server
        .register_model(
            f.name,
            FeatherConfig::new(4, 8),
            &f.graph,
            f.weights.clone(),
        )
        .unwrap();
    let response = server
        .submit("t", f.name, f.inputs[0].clone())
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(response.oacts, f.goldens[0]);
    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.submitted, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(
        stats.retries + stats.failed + stats.worker_panics + stats.shed,
        0
    );
}
