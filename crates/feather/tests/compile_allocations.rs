//! The compiler's counting record pass resolves a BIRRD pass's route from a
//! span memo without building a request, so how often it allocates is a
//! property of the layers and their distinct routes, not of how many row
//! fires they make. This test compiles the residual test graph at 6×6 and at
//! 12×12 inputs (4× the BIRRD passes) under a counting allocator and bounds
//! the difference. Before the span memo every pass refilled a `BTreeMap`
//! (one node freed, one allocated), and the larger input cost thousands of
//! allocations more. Replay, the one executor, is bounded by
//! `replay_allocations`.
//!
//! The bound is a release-build property: with `debug_assertions` every memo
//! hit rebuilds its request to check the entry it found, which is that same
//! allocation per pass — there the test checks the oracle is on instead.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use feather::{FeatherConfig, GraphSession};
use feather_arch::graph::Graph;
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

#[test]
fn the_accounted_loop_does_not_allocate_per_birrd_pass() {
    let (layers, (small, passes_small), (large, passes_large)) =
        (6, compile_allocations_at(6), compile_allocations_at(12));
    let added_passes = passes_large - passes_small;
    assert!(
        added_passes > 2_000,
        "{passes_small} -> {passes_large} passes"
    );
    let added = large.abs_diff(small);
    if cfg!(debug_assertions) {
        assert!(
            added >= added_passes,
            "{small} -> {large} allocations; is the memo's debug oracle off?"
        );
        return;
    }
    // What still grows with the input is per layer, not per pass: the StaB
    // lines and a recorded stream doubling its capacity twice more — 6 per
    // layer today. (An address plan that allocated per row and column, as
    // `Layout::plan4` once did, added ~40.)
    let per_layer = 16;
    assert!(
        added < per_layer * layers,
        "{small} -> {large} allocations for {added_passes} more passes"
    );
}
