//! Concurrency stress for the two things callers of one session contend on.
//!
//! A [`NetworkSession`] shared by many threads compiles its chain on every
//! run through one compiled-route cache, and the hit/miss counters must stay
//! exactly consistent — no lost updates, and no compile work beyond what the
//! `misses` counter admits to.
//!
//! A [`GraphSession`] shared by many threads reaches its route cache only
//! while it lowers itself to a program, which it does once: threads racing
//! the first `run` contend on the program cell, and afterwards the counters
//! must read exactly as after a solo session's one compile.

use std::collections::BTreeMap;
use std::sync::Barrier;

use feather::{FeatherConfig, GraphSession, NetworkSession};
use feather_arch::graph::{Graph, NodeId};
use feather_arch::tensor::Tensor4;
use feather_arch::workload::ConvLayer;

const THREADS: usize = 4;
const RUNS_PER_THREAD: usize = 6;

/// conv → (main ‖ proj) → add → conv: several distinct route shapes.
fn residual_graph() -> Graph {
    let mut g = Graph::new("route-stress", [1, 4, 6, 6]);
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

fn fixture() -> (Graph, BTreeMap<NodeId, Tensor4<i8>>, Tensor4<i8>) {
    let g = residual_graph();
    let weights = g.random_weights(17);
    let iacts = Tensor4::random([1, 4, 6, 6], 18);
    (g, weights, iacts)
}

#[test]
fn warm_cache_counters_are_exact_under_contention() {
    // The graph's main path as a chain: stem → main → head.
    let layers = [
        ConvLayer::new(1, 4, 4, 6, 6, 3, 3)
            .with_padding(1)
            .with_name("stem"),
        ConvLayer::new(1, 8, 4, 6, 6, 1, 1).with_name("main"),
        ConvLayer::new(1, 4, 8, 6, 6, 1, 1).with_name("head"),
    ];
    let session = NetworkSession::weight_stationary(
        FeatherConfig::new(4, 8),
        &layers,
        &["HWC_C4", "HWC_C4", "HWC_C8"],
        "MPQ_Q6",
    )
    .unwrap();
    let weights = [
        Tensor4::random([4, 4, 3, 3], 17),
        Tensor4::random([8, 4, 1, 1], 18),
        Tensor4::random([4, 8, 1, 1], 19),
    ];
    let iacts = Tensor4::random([1, 4, 6, 6], 20);
    let golden = session.run(&iacts, &weights).unwrap().oacts;

    // Warm: the first run populates the shared map; a second run measures
    // how many shared-map lookups one run's compile performs once warm (the
    // span memo lives for a single layer span, so every compile touches the
    // shared map a deterministic number of times).
    let after_warm = session.route_cache_stats();
    let lookups_per_run = {
        session.run(&iacts, &weights).unwrap();
        let s = session.route_cache_stats();
        assert_eq!(s.misses, after_warm.misses, "warm runs must not compile");
        s.hits - after_warm.hits
    };
    assert!(lookups_per_run > 0, "runs must consult the shared cache");
    let before = session.route_cache_stats();

    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..RUNS_PER_THREAD {
                    let run = session.run(&iacts, &weights).unwrap();
                    assert_eq!(run.oacts, golden, "contended run diverged");
                }
            });
        }
    });

    // Every shared lookup from every thread must be accounted for exactly:
    // every hit counted, zero compiles, stable occupancy. A lost update or a
    // sneaked-in recompile shows up here.
    let after = session.route_cache_stats();
    assert_eq!(
        after.hits - before.hits,
        (THREADS * RUNS_PER_THREAD) as u64 * lookups_per_run,
        "hit counter lost updates under contention"
    );
    assert_eq!(
        after.misses, before.misses,
        "warm cache must never recompile"
    );
    assert_eq!(after.entries, before.entries);
}

#[test]
fn cold_cache_races_stay_consistent() {
    let (g, weights, iacts) = fixture();
    // What one compile, and nothing else, leaves in a session's route cache.
    let solo = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
    let golden = solo.run(&iacts, &weights).unwrap().oacts;
    let one_compile = solo.route_cache_stats();
    assert!(one_compile.misses > 0 && one_compile.hits > 0);

    // A fresh session: every thread's first `run` finds the program cell
    // empty at the same moment.
    let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
    let start = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                start.wait();
                for _ in 0..RUNS_PER_THREAD {
                    let run = session.run(&iacts, &weights).unwrap();
                    assert_eq!(run.oacts, golden, "cold-race run diverged");
                }
            });
        }
    });

    // Exactly one thread compiled and the rest waited for its program: a
    // second compile would show as extra hits, a torn one as extra misses.
    assert_eq!(session.route_cache_stats(), one_compile);
    assert_eq!(
        session.compile().unwrap().fingerprint(),
        session.fingerprint()
    );
    assert_eq!(session.route_cache_stats(), one_compile);
}
