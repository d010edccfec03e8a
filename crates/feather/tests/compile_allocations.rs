//! The accounted tile loop — the interpreter's and the compiler's record
//! pass — resolves a BIRRD pass's route from its span memo without building
//! a request, so how often it allocates is a property of the graph's layers
//! and their distinct routes, not of how many row fires they make. This test
//! runs the residual test graph at 6×6 and at 12×12 inputs (4× the BIRRD
//! passes) under a counting allocator and bounds the difference. Before the
//! span memo every pass refilled a `BTreeMap` (one node freed, one
//! allocated), and the larger input cost thousands of allocations more.
//!
//! The bound is a release-build property: with `debug_assertions` every memo
//! hit rebuilds its request to check the entry it found, which is that same
//! allocation per pass — there the test checks the oracle is on instead.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use feather::{FeatherConfig, GraphSession};
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

const LAYERS: u64 = 6;

/// stem → (1×1 main ‖ 1×1 projection) → add → 3×3 main ‖ identity → add →
/// head on `hw × hw` inputs: six layers, two joins.
fn residual_graph(hw: usize) -> Graph {
    let mut g = Graph::new("residual", [1, 4, hw, hw]);
    let conv3 = |m, c, name: &str| {
        ConvLayer::new(1, m, c, hw, hw, 3, 3)
            .with_padding(1)
            .with_name(name)
    };
    let conv1 = |m, c, name: &str| ConvLayer::new(1, m, c, hw, hw, 1, 1).with_name(name);
    let stem = g.conv(g.input(), conv3(4, 4, "stem")).unwrap();
    let main = g.conv(stem, conv1(8, 4, "b0_main")).unwrap();
    let proj = g.conv(stem, conv1(8, 4, "b0_proj")).unwrap();
    let j0 = g.add(main, proj, "b0_add").unwrap();
    let main1 = g.conv(j0, conv3(8, 8, "b1_main")).unwrap();
    let j1 = g.add(main1, j0, "b1_add").unwrap();
    g.conv(j1, conv1(4, 8, "head")).unwrap();
    g
}

/// `(compile, warm run, BIRRD passes)` of the residual graph at `hw × hw`,
/// on one worker so every allocation lands on this thread's counter.
fn allocations_at(hw: usize) -> (u64, u64, usize) {
    let g = residual_graph(hw);
    let session = GraphSession::auto(FeatherConfig::new(4, 8), &g)
        .unwrap()
        .with_threads(1);
    let weights = g.random_weights(2);
    let iacts = Tensor4::random([1, 4, hw, hw], 1);
    // The first run routes and compiles the graph's distinct requests.
    session.run(&iacts, &weights).unwrap();
    let (run, run_allocations) = allocations_of(|| session.run(&iacts, &weights));
    run.unwrap();
    let (program, compile_allocations) = allocations_of(|| session.compile());
    let passes = program.unwrap().route_fires();
    (compile_allocations, run_allocations, passes)
}

#[test]
fn the_accounted_loop_does_not_allocate_per_birrd_pass() {
    let (compile_small, run_small, passes_small) = allocations_at(6);
    let (compile_large, run_large, passes_large) = allocations_at(12);
    let added_passes = (passes_large - passes_small) as u64;
    assert!(
        added_passes > 3_000,
        "{passes_small} -> {passes_large} passes"
    );
    let added = [
        ("compile", compile_small, compile_large),
        ("warm run", run_small, run_large),
    ];
    for (what, small, large) in added {
        let added = large.abs_diff(small);
        if cfg!(debug_assertions) {
            assert!(
                added >= added_passes,
                "{what}: {small} -> {large} allocations; is the memo's debug oracle off?"
            );
            continue;
        }
        // What still grows with the input is per layer, not per pass: the
        // address-plan tables (one entry per row and column), the StaB lines
        // and a recorded stream doubling its capacity twice more — 47 per
        // layer for the compile and 84 for the run today.
        let per_layer = 128;
        assert!(
            added < per_layer * LAYERS,
            "{what}: {small} -> {large} allocations for {added_passes} more passes"
        );
    }
}
