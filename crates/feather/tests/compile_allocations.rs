//! Both tile loops — the compiler's counting record pass over a graph, and
//! the accounted loop a chain runs with real data — resolve a BIRRD pass's
//! route from a span memo without building a request, so how often they
//! allocate is a property of the layers and their distinct routes, not of
//! how many row fires they make. This test compiles the residual test graph,
//! and runs its main-path chain warm, at 6×6 and at 12×12 inputs (4× the
//! BIRRD passes) under a counting allocator and bounds the difference. Before
//! the span memo every pass refilled a `BTreeMap` (one node freed, one
//! allocated), and the larger input cost thousands of allocations more.
//!
//! The bound is a release-build property: with `debug_assertions` every memo
//! hit rebuilds its request to check the entry it found, which is that same
//! allocation per pass — there the test checks the oracle is on instead.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use feather::{FeatherConfig, GraphSession, NetworkSession};
use feather_arch::graph::Graph;
use feather_arch::tensor::Tensor4;
use feather_arch::workload::ConvLayer;

thread_local! {
    /// Allocations made by this thread (tests run on threads of their own).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every request unchanged to the system allocator; the
// counter is a const-initialised thread-local `Cell`, so touching it never
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn conv3(hw: usize, m: usize, c: usize, name: &str) -> ConvLayer {
    ConvLayer::new(1, m, c, hw, hw, 3, 3)
        .with_padding(1)
        .with_name(name)
}

fn conv1(hw: usize, m: usize, c: usize, name: &str) -> ConvLayer {
    ConvLayer::new(1, m, c, hw, hw, 1, 1).with_name(name)
}

/// stem → (1×1 main ‖ 1×1 projection) → add → 3×3 main ‖ identity → add →
/// head on `hw × hw` inputs: six layers, two joins.
fn residual_graph(hw: usize) -> Graph {
    let mut g = Graph::new("residual", [1, 4, hw, hw]);
    let stem = g.conv(g.input(), conv3(hw, 4, 4, "stem")).unwrap();
    let main = g.conv(stem, conv1(hw, 8, 4, "b0_main")).unwrap();
    let proj = g.conv(stem, conv1(hw, 8, 4, "b0_proj")).unwrap();
    let j0 = g.add(main, proj, "b0_add").unwrap();
    let main1 = g.conv(j0, conv3(hw, 8, 8, "b1_main")).unwrap();
    let j1 = g.add(main1, j0, "b1_add").unwrap();
    g.conv(j1, conv1(hw, 4, 8, "head")).unwrap();
    g
}

/// `(allocations, BIRRD passes)` of compiling the residual graph at
/// `hw × hw` on a session that has never run: the whole record pass.
fn compile_allocations_at(hw: usize) -> (u64, u64) {
    let g = residual_graph(hw);
    let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
    let (program, allocations) = allocations_of(|| session.compile());
    (allocations, program.unwrap().route_fires() as u64)
}

/// `(allocations, BIRRD passes)` of a warm accounted run of the graph's
/// main path — stem → b0_main → b1_main → head — as one chain.
fn chain_run_allocations_at(hw: usize) -> (u64, u64) {
    let layers = [
        conv3(hw, 4, 4, "stem"),
        conv1(hw, 8, 4, "b0_main"),
        conv3(hw, 8, 8, "b1_main"),
        conv1(hw, 4, 8, "head"),
    ];
    let last_oact = format!("MPQ_Q{}", hw.min(8));
    let session = NetworkSession::weight_stationary(
        FeatherConfig::new(4, 8),
        &layers,
        &["HWC_C4", "HWC_C4", "HWC_C8", "HWC_C8"],
        &last_oact,
    )
    .unwrap();
    let weights = [
        Tensor4::random([4, 4, 3, 3], 2),
        Tensor4::random([8, 4, 1, 1], 3),
        Tensor4::random([8, 8, 3, 3], 4),
        Tensor4::random([4, 8, 1, 1], 5),
    ];
    let iacts = Tensor4::random([1, 4, hw, hw], 1);
    // The first run routes and compiles the chain's distinct requests.
    session.run(&iacts, &weights).unwrap();
    let (run, allocations) = allocations_of(|| session.run(&iacts, &weights));
    let report = run.unwrap().report;
    let passes = report.layers.iter().map(|l| l.report.birrd_passes);
    (allocations, passes.sum())
}

#[test]
fn the_accounted_loop_does_not_allocate_per_birrd_pass() {
    // (what, its layers, at 6×6, at 12×12)
    let legs = [
        (
            "compile",
            6,
            compile_allocations_at(6),
            compile_allocations_at(12),
        ),
        (
            "warm chain run",
            4,
            chain_run_allocations_at(6),
            chain_run_allocations_at(12),
        ),
    ];
    for (what, layers, (small, passes_small), (large, passes_large)) in legs {
        let added_passes = passes_large - passes_small;
        assert!(
            added_passes > 2_000,
            "{what}: {passes_small} -> {passes_large} passes"
        );
        let added = large.abs_diff(small);
        if cfg!(debug_assertions) {
            assert!(
                added >= added_passes,
                "{what}: {small} -> {large} allocations; is the memo's debug oracle off?"
            );
            continue;
        }
        // What still grows with the input is per layer, not per pass: the
        // StaB lines and a recorded stream doubling its capacity twice more
        // — 6 per layer for the compile and 2 for the chain run today. (An
        // address plan that allocated per row and column, as `Layout::plan4`
        // once did, added ~40 and ~80.)
        let per_layer = 16;
        assert!(
            added < per_layer * layers,
            "{what}: {small} -> {large} allocations for {added_passes} more passes"
        );
    }
}
