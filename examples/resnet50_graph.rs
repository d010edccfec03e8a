//! Full ResNet-50 as a tensor DAG through the pipelined StaB, end to end:
//!
//! 1. **Model** — `feather_arch::graph::resnet50_graph()` builds the *real*
//!    topology: all 53 convolutions, both pooling layers as their convolution
//!    lowerings, the FC GEMM, and the 16 residual shortcut adds the flat
//!    layer list silently drops.
//! 2. **Plan** — `layoutloop::plan_graph` co-searches (dataflow, layout) per
//!    segment, computing missing co-search tables in parallel across branches
//!    and layers, memoized in memory through `CoSearchCache` so repeated
//!    layer shapes share one table.
//! 3. **Execute** — `feather::GraphSession` schedules the DAG: every linear
//!    segment pipelines through the ping/pong StaB, shortcut tensors park in
//!    the scratch region, and each join performs the saturating quantized
//!    residual add before the result is staged in the consumer's layout. The
//!    first `run` lowers that schedule to a flat `feather::Program` (the one
//!    accounted pass over the graph) and replays it; every later run is a
//!    replay alone.
//! 4. **Verify** — the output is checked bit-for-bit against the naive
//!    sequential reference (`run_graph_reference`).
//!
//! Channels and spatial extents are scaled down (÷8) by default so the
//! *functional* simulation finishes in seconds; the graph topology is
//! untouched. `FEATHER_FULL=1` runs the true-size network (minutes to hours).
//!
//! ```text
//! cargo run --release -p feather-suite --example resnet50_graph
//! ```

use feather::graph_session::run_graph_reference;
use feather::{FeatherConfig, GraphSession};
use feather_arch::graph::{resnet50_graph, resnet50_graph_scaled};
use feather_arch::tensor::Tensor4;
use layoutloop::arch::ArchSpec;
use layoutloop::cache::CoSearchCache;
use layoutloop::graphplan::plan_graph;
use layoutloop::mapper::MapperConfig;

fn main() {
    let full = std::env::var("FEATHER_FULL")
        .map(|v| v == "1")
        .unwrap_or(false);
    let graph = if full {
        resnet50_graph()
    } else {
        resnet50_graph_scaled(8, 8)
    };
    println!(
        "graph `{}`: {} nodes = {} convs + {} pool-as-conv + {} gemm + {} residual adds, {} segments",
        graph.name,
        graph.len(),
        graph.conv_node_count(),
        graph.pool_node_count(),
        graph.gemm_node_count(),
        graph.add_node_count(),
        graph.segments().len(),
    );

    // ---- 1. Plan: per-segment co-search over the DAG --------------------
    let arch = ArchSpec::feather_like(16, 16);
    let mapper = MapperConfig::fast();
    let mut cache = CoSearchCache::new();
    let t0 = std::time::Instant::now();
    let plan = plan_graph(&arch, &graph, &mapper, 0, &mut cache).expect("graph plans");
    let plan_wall = t0.elapsed();
    println!(
        "plan: {} nodes in {:.2?} — {} fresh co-search tables, {} served from cache, \
         modeled total {} cycles",
        plan.per_node.len(),
        plan_wall,
        plan.cache_misses,
        plan.cache_hits,
        plan.total_cycles(),
    );

    // ---- 2. Execute: the whole DAG through the pipelined StaB -----------
    let config = FeatherConfig::paper_16x16();
    let session =
        GraphSession::from_schedules(config, &graph, &plan.schedules()).expect("graph compiles");
    let [_, c, h, w] = graph.tensor_shape(graph.input());
    let iacts = Tensor4::random([1, c, h, w], 42);
    let weights = graph.random_weights(43);
    let t1 = std::time::Instant::now();
    let run = session.run(&iacts, &weights).expect("graph executes");
    let exec_wall = t1.elapsed();

    let report = &run.report;
    println!(
        "\nexecuted {} layers across {} segments in {:.2?}: {} MACs, {} cycles, {} StaB swaps",
        report.layers().count(),
        report.segments.len(),
        exec_wall,
        report.total_macs(),
        report.total_cycles(),
        report.stab_swaps(),
    );
    println!(
        "residual joins: {}/16 performed, {} elements added, {} saturated at the INT8 boundary",
        report.joins.len(),
        report.joins.iter().map(|j| j.elements).sum::<u64>(),
        report.saturated_join_elements(),
    );
    println!(
        "shortcut scratch region: {} B parked + {} B fetched, peak occupancy {} B",
        report.scratch.element_writes, report.scratch.element_reads, report.scratch_peak_elems,
    );

    // The five busiest layers, as a spot check.
    let mut layers: Vec<_> = report.layers().collect();
    layers.sort_by_key(|l| std::cmp::Reverse(l.report.macs));
    println!(
        "\n{:<38} {:>10} {:>12} {:>12}",
        "busiest layers", "cycles", "MACs", "DRAM bytes"
    );
    for l in layers.iter().take(5) {
        println!(
            "{:<38} {:>10} {:>12} {:>12}",
            l.name,
            l.report.cycles,
            l.report.macs,
            l.report.dram_bytes(),
        );
    }

    // ---- 3. Verify against the sequential reference ---------------------
    let (shift, zero) = session.quantization();
    let golden =
        run_graph_reference(&graph, &iacts, &weights, shift, zero).expect("reference executes");
    assert_eq!(
        run.oacts, golden,
        "graph output diverged from the reference"
    );
    println!(
        "\nall {} convolutions and all {} shortcut adds executed — output verified \
         bit-identical to the sequential graph reference",
        graph.conv_node_count(),
        graph.add_node_count(),
    );

    // ---- 4. DRAM savings vs layer-at-a-time ------------------------------
    println!(
        "activation DRAM traffic: pipelined {} B vs layer-at-a-time {} B ({:.0}% saved)",
        report.dram_activation_bytes(),
        report.layer_at_a_time_activation_bytes(),
        report.dram_activation_savings() * 100.0,
    );
    assert!(report.dram_activation_bytes() < report.layer_at_a_time_activation_bytes());

    // ---- 5. The program behind the run, and a warm replay ----------------
    // Step 2's run compiled the session's program before replaying it; this
    // hands out the same program.
    let program = session.compile().expect("graph lowers to a program");
    let replay = feather::ProgramSession::new(program);
    let t2 = std::time::Instant::now();
    let replayed = replay.run(&iacts, &weights).expect("program replays");
    let replay_wall = t2.elapsed();
    assert_eq!(replayed.oacts, golden, "replay diverged from the reference");
    assert_eq!(replayed.report, run.report, "replay report diverged");
    println!(
        "compiled program: {} ops, {} route fires; first run (compile + replay) {:.2?}, \
         warm replay {:.2?}, bit-identical",
        replay.program().num_ops(),
        replay.program().route_fires(),
        exec_wall,
        replay_wall,
    );

    // ---- 6. Where a warm replay's time goes ------------------------------
    // One stopwatch per op of the same replay loop, next to what the cost
    // model charges each layer: the op-family split, the time outside the op
    // loop (scratch, input striping, outputs, reports), the same split for
    // eight samples in one lane-striped group, and the layers whose wall time
    // per useful MAC is highest.
    let mut scratch = feather::ReplayScratch::new();
    let sample = std::slice::from_ref(&iacts);
    let (profiled, profile) = replay
        .run_profiled(&mut scratch, sample, &weights)
        .expect("program replays under the profiler");
    assert_eq!(profiled[0].oacts, golden, "profiled replay diverged");
    assert_eq!(profile.rows.len(), replay.program().num_ops());
    print_profile("replay profile", &profile);
    let eight = vec![iacts.clone(); 8];
    // The first eight-lane call grows the scratch to eight lanes.
    replay
        .run_batched_with_scratch(&mut scratch, &eight, &weights)
        .expect("program replays eight lanes");
    let (lanes, profile8) = replay
        .run_profiled(&mut scratch, &eight, &weights)
        .expect("program replays eight lanes under the profiler");
    assert!(
        lanes.iter().all(|run| run.oacts == golden),
        "a lane diverged"
    );
    print_profile("eight-sample replay profile", &profile8);
    let mut fires: Vec<_> = profile
        .rows
        .iter()
        .filter(|r| r.family == feather::OpFamily::Fire && r.macs > 0)
        .collect();
    fires.sort_by(|a, b| (b.wall_ns * a.macs).cmp(&(a.wall_ns * b.macs)));
    println!(
        "{:<38} {:>9} {:>10} {:>8} {:>10} {:>9}",
        "costliest Fire per MAC", "wall ns", "MACs", "ns/MAC", "row fires", "cycles"
    );
    for row in fires.iter().take(3) {
        println!(
            "{:<38} {:>9} {:>10} {:>8.2} {:>10} {:>9}",
            row.layer,
            row.wall_ns,
            row.macs,
            row.wall_ns as f64 / row.macs as f64,
            row.passes,
            row.cycles,
        );
    }
    println!("graph pipeline OK");
}

/// One line: op count, wall time in and outside the op loop, and the share
/// of each op family.
fn print_profile(title: &str, profile: &feather::ReplayProfile) {
    let total: u64 = profile.rows.iter().map(|r| r.wall_ns).sum();
    print!(
        "{title}: {} ops, {:.1} us —",
        profile.rows.len(),
        total as f64 / 1e3
    );
    for (family, ns) in profile.by_family() {
        print!(" {family:?} {:.1}%", 100.0 * ns as f64 / total as f64);
    }
    println!(
        "; outside the op loop {:.1} us",
        profile.outside_ns as f64 / 1e3
    );
}
