//! Replay is pure data movement over preallocated buffers: with a reused
//! [`feather::ReplayScratch`] — StaB halves, accumulators and the lane
//! stripes every boundary tensor lives in — a replay allocates only what it
//! hands back: the result list, and per sample its output tensor and its
//! report's join list (the segment list is [`feather::Program::cost`]'s,
//! shared). That is a constant of the program, not of the data. These tests
//! pin it exactly for the residual test graph with a counting allocator, at
//! one lane and at eight.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use feather::{FeatherConfig, GraphSession, ProgramSession, ReplayScratch};
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

/// stem → (1×1 main ‖ 1×1 projection) → add → 3×3 main ‖ identity → add →
/// head: five segments of one layer each and two joins.
fn residual_graph() -> Graph {
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
        .conv(
            stem,
            ConvLayer::new(1, 8, 4, 6, 6, 1, 1).with_name("b0_main"),
        )
        .unwrap();
    let proj = g
        .conv(
            stem,
            ConvLayer::new(1, 8, 4, 6, 6, 1, 1).with_name("b0_proj"),
        )
        .unwrap();
    let j0 = g.add(main, proj, "b0_add").unwrap();
    let main1 = g
        .conv(
            j0,
            ConvLayer::new(1, 8, 8, 6, 6, 3, 3)
                .with_padding(1)
                .with_name("b1_main"),
        )
        .unwrap();
    let j1 = g.add(main1, j0, "b1_add").unwrap();
    g.conv(j1, ConvLayer::new(1, 4, 8, 6, 6, 1, 1).with_name("head"))
        .unwrap();
    g
}

/// What a steady-state replay of `samples` samples through a warm scratch
/// allocates: the result list, and per sample its output tensor, its join
/// list and the names in it.
fn handed_back(replay: &ProgramSession, samples: usize) -> u64 {
    let joins = replay.program().cost().joins.len() as u64;
    1 + samples as u64 * (1 + 1 + joins)
}

#[test]
fn scalar_replay_allocates_a_small_constant_per_run() {
    let g = residual_graph();
    let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
    let replay = ProgramSession::new(session.compile().unwrap());
    let weights = g.random_weights(2);
    let mut scratch = ReplayScratch::new();
    // The first run grows the scratch; steady state starts with the second.
    replay
        .run_with_scratch(&mut scratch, &Tensor4::random([1, 4, 6, 6], 1), &weights)
        .unwrap();

    let counts: Vec<u64> = (0..4u64)
        .map(|seed| {
            let iacts = Tensor4::random([1, 4, 6, 6], 10 + seed);
            let (run, count) =
                allocations_of(|| replay.run_with_scratch(&mut scratch, &iacts, &weights));
            run.unwrap();
            count
        })
        .collect();
    // Independent of the data...
    assert!(counts.iter().all(|&c| c == counts[0]), "{counts:?}");
    // ...and only what the caller keeps: 5 — the result list, the output,
    // the join list and its two names. It read 44 while every run cloned
    // the whole report and every boundary was a fresh tensor; the accounted
    // replay before that made 153 here and 984 on the benchmark's Model A
    // (19 now: its 16 joins' names make the difference).
    assert_eq!(counts[0], handed_back(&replay, 1), "allocations per replay");
    assert_eq!(counts[0], 5);
}

/// Eight-lane groups — one full, and a full one followed by a padded one —
/// allocate nothing per group either: their boundary stripes come from the
/// scratch's free list, eight lanes wide.
#[test]
fn eight_lane_replay_allocates_only_outputs_and_join_lists() {
    let g = residual_graph();
    let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
    let replay = ProgramSession::new(session.compile().unwrap());
    let weights = g.random_weights(3);
    let samples: Vec<Tensor4<i8>> = (0..9u64)
        .map(|seed| Tensor4::random([1, 4, 6, 6], 30 + seed))
        .collect();
    let mut scratch = ReplayScratch::new();
    for batch in [8usize, 9] {
        // Warm-up at this batch size (a padded group reuses the same
        // stripes), then steady state.
        let batch = &samples[..batch];
        replay
            .run_batched_with_scratch(&mut scratch, batch, &weights)
            .unwrap();
        for round in 0..3 {
            let (runs, count) =
                allocations_of(|| replay.run_batched_with_scratch(&mut scratch, batch, &weights));
            assert_eq!(runs.unwrap().len(), batch.len());
            assert_eq!(
                count,
                handed_back(&replay, batch.len()),
                "{} samples, round {round}",
                batch.len()
            );
        }
    }
}
