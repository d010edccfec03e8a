//! The graph compiler's contract: a planned DAG lowers to one flat
//! [`feather::Program`], and replaying it — through [`feather::ProgramSession`]
//! or through the [`feather::GraphSession`] that compiled it, which is the
//! same replay — produces the output of the naive reference executor
//! ([`run_graph_reference`], which shares no NEST or BIRRD code with the
//! compiler) and one and the same [`GraphRun`] report: cycles, DRAM traffic,
//! scratch accounting and join saturation counts.
//!
//! Replay computes none of that report: it returns [`feather::Program::cost`]'s
//! segment list, counted once at compile time and shared by every run, with
//! a join list of its own carrying the run's join saturation. The
//! cost-oracle tests below pin that constant on awkward shapes, on every kind
//! of input, and on the two benchmark models without
//! running a MAC; that each compiled layer's cost is what the accounted
//! simulator counts over real data is pinned inside the `feather` crate
//! (`compiled_layer_costs_equal_accounted_real_data_runs`).
//! `FEATHER_FULL=1` (the weekly CI job) adds a model 4096× Model A's size.
//!
//! [`GraphRun`]: feather::GraphRun

use std::collections::BTreeMap;
use std::sync::Arc;

use feather::graph_session::run_graph_reference;
use feather::{FeatherConfig, GraphReport, GraphSession, ProgramSession};
use feather_arch::graph::{resnet50_graph_scaled, Graph, NodeId};
use feather_arch::tensor::Tensor4;
use feather_arch::workload::ConvLayer;
use layoutloop::{plan_graph, ArchSpec, CoSearchCache, MapperConfig};
use proptest::prelude::*;

/// `FEATHER_FULL=1` asks for the slow, full-size variants.
fn full() -> bool {
    std::env::var("FEATHER_FULL").is_ok_and(|v| v == "1")
}

/// A report with the one data-dependent count — join saturation — zeroed.
fn accounting(report: &GraphReport) -> GraphReport {
    let mut report = report.clone();
    report.joins.iter_mut().for_each(|j| j.saturated = 0);
    report
}

/// The reference executor's output for `session`'s graph, sample by sample
/// (the reference runs the graph at its authored batch of one).
fn reference_outputs(
    session: &GraphSession,
    iacts: &Tensor4<i8>,
    weights: &BTreeMap<NodeId, Tensor4<i8>>,
) -> Vec<Tensor4<i32>> {
    let (shift, zero) = session.quantization();
    let [n, c, h, w] = iacts.shape();
    (0..n)
        .map(|i| {
            let sample = Tensor4::from_fn([1, c, h, w], |_, cc, hh, ww| iacts.get(i, cc, hh, ww));
            run_graph_reference(session.graph(), &sample, weights, shift, zero).unwrap()
        })
        .collect()
}

/// Splits a batched output into its samples.
fn samples_of(oacts: &Tensor4<i32>) -> Vec<Tensor4<i32>> {
    let [n, m, p, q] = oacts.shape();
    (0..n)
        .map(|i| Tensor4::from_fn([1, m, p, q], |_, mm, pp, qq| oacts.get(i, mm, pp, qq)))
        .collect()
}

/// A residual DAG on the executor's awkward shapes: channel counts that do
/// not tile the array (ragged `C`/`M` tails), an optional stride-2 stem, an
/// optional depthwise layer, padded 3×3 kernels and one residual join with
/// an identity or projected shortcut.
fn build_ragged_dag(
    c_in: usize,
    c_mid: usize,
    c_out: usize,
    hw: usize,
    stride2: bool,
    depthwise: bool,
    identity: bool,
) -> Graph {
    let mut g = Graph::new("ragged_dag", [1, c_in, hw, hw]);
    let stride = if stride2 { 2 } else { 1 };
    let mut cur = g
        .conv(
            g.input(),
            ConvLayer::new(1, c_mid, c_in, hw, hw, 3, 3)
                .with_stride(stride)
                .with_padding(1)
                .with_name("stem"),
        )
        .unwrap();
    let hw = (hw + 2 - 3) / stride + 1;
    if depthwise {
        cur = g
            .conv(
                cur,
                ConvLayer::new(1, c_mid, c_mid, hw, hw, 3, 3)
                    .with_padding(1)
                    .depthwise()
                    .with_name("dw"),
            )
            .unwrap();
    }
    let block_input = cur;
    cur = g
        .conv(
            cur,
            ConvLayer::new(1, c_mid, c_mid, hw, hw, 3, 3)
                .with_padding(1)
                .with_name("main"),
        )
        .unwrap();
    let shortcut = if identity {
        block_input
    } else {
        g.conv(
            block_input,
            ConvLayer::new(1, c_mid, c_mid, hw, hw, 1, 1).with_name("proj"),
        )
        .unwrap()
    };
    cur = g.add(cur, shortcut, "add").unwrap();
    g.conv(
        cur,
        ConvLayer::new(1, c_out, c_mid, hw, hw, 1, 1).with_name("head"),
    )
    .unwrap();
    g
}

/// `weights` with every element replaced by `value`.
fn constant_weights(
    weights: &BTreeMap<NodeId, Tensor4<i8>>,
    value: i8,
) -> BTreeMap<NodeId, Tensor4<i8>> {
    weights
        .iter()
        .map(|(id, w)| (*id, Tensor4::from_fn(w.shape(), |_, _, _, _| value)))
        .collect()
}

/// Builds a random residual DAG: trunk conv, `blocks` residual blocks (1–2
/// conv main path plus identity or 1×1-projection shortcut joined by an add),
/// head conv. Mirrors the generator in `graph_equivalence.rs`.
fn build_dag(
    batch: usize,
    c0: usize,
    hw: usize,
    blocks: &[(usize, usize, bool)], // (main_depth, kernel, identity_shortcut)
    head_kernel: usize,
) -> Graph {
    let mut g = Graph::new("random_dag", [batch, c0, hw, hw]);
    let mut cur = g
        .conv(
            g.input(),
            ConvLayer::new(batch, c0, c0, hw, hw, 3, 3)
                .with_padding(1)
                .with_name("trunk"),
        )
        .unwrap();
    for (bi, &(depth, k, identity)) in blocks.iter().enumerate() {
        let block_input = cur;
        for d in 0..depth {
            cur = g
                .conv(
                    cur,
                    ConvLayer::new(batch, c0, c0, hw, hw, k, k)
                        .with_padding(k / 2)
                        .with_name(format!("b{bi}_main{d}")),
                )
                .unwrap();
        }
        let shortcut = if identity {
            block_input
        } else {
            g.conv(
                block_input,
                ConvLayer::new(batch, c0, c0, hw, hw, 1, 1).with_name(format!("b{bi}_proj")),
            )
            .unwrap()
        };
        cur = g.add(cur, shortcut, format!("b{bi}_add")).unwrap();
    }
    g.conv(
        cur,
        ConvLayer::new(batch, c0, c0, hw, hw, head_kernel, head_kernel)
            .with_padding(head_kernel / 2)
            .with_name("head"),
    )
    .unwrap();
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Replay == the reference executor for random residual DAGs, across
    /// authored batch sizes; the session's own `run` and a `ProgramSession`
    /// agree on the complete `GraphRun`.
    #[test]
    fn program_session_replay_equals_session_run_on_random_dags(
        batch in 1usize..3,
        c0 in 1usize..5,
        hw in 4usize..7,
        n_blocks in 1usize..4,
        depths in proptest::collection::vec(1usize..3, 3),
        kernels in proptest::collection::vec(0usize..2, 3),
        identities in proptest::collection::vec(0usize..2, 3),
        head_kernel in 0usize..2,
        seed in 0u64..100,
    ) {
        let blocks: Vec<(usize, usize, bool)> = (0..n_blocks)
            .map(|i| (depths[i], if kernels[i] == 0 { 1 } else { 3 }, identities[i] == 0))
            .collect();
        let g = build_dag(batch, c0, hw, &blocks, if head_kernel == 0 { 1 } else { 3 });

        let session = GraphSession::auto(FeatherConfig::new(4, 4), &g).unwrap();
        let iacts = Tensor4::random([batch, c0, hw, hw], seed);
        let weights = g.random_weights(seed + 1000);
        let run = session.run(&iacts, &weights).unwrap();
        let (shift, zero) = session.quantization();
        let golden = run_graph_reference(&g, &iacts, &weights, shift, zero).unwrap();
        prop_assert_eq!(&run.oacts, &golden);

        let program = session.compile().unwrap();
        prop_assert!(program.num_ops() > 0);
        prop_assert!(program.route_fires() > 0);
        prop_assert_eq!(program.batch(), batch);

        // The session's run is this replay: identical outputs AND report.
        let replay = ProgramSession::new(program);
        let replayed = replay.run(&iacts, &weights).unwrap();
        prop_assert_eq!(&replayed.oacts, &run.oacts);
        prop_assert_eq!(&replayed.report, &run.report);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Batched lane-vectorized replay == N solo scalar replays — outputs AND
    /// the full `GraphRun` report (cycles, DRAM traffic, scratch accounting,
    /// join saturation) — and the reference executor's outputs, for batches
    /// of 1, 2, 4, 8, 9 (a padded eight-lane group after a full one) and 16
    /// (two full groups) samples on random residual DAGs, and for every
    /// sample as a batch of one (what serving runs for a lone request).
    #[test]
    fn run_batched_equals_solo_replays(
        c0 in 1usize..4,
        hw in 4usize..6,
        depth in 1usize..3,
        kernel in 0usize..2,
        identity in 0usize..2,
        seed in 0u64..100,
    ) {
        let blocks = [(depth, if kernel == 0 { 1 } else { 3 }, identity == 0)];
        let g = build_dag(1, c0, hw, &blocks, 1);
        let session = GraphSession::auto(FeatherConfig::new(4, 4), &g).unwrap();
        let weights = g.random_weights(seed + 2000);
        let replay = ProgramSession::new(session.compile().unwrap());

        let samples: Vec<Tensor4<i8>> = (0..16)
            .map(|i| Tensor4::random([1, c0, hw, hw], seed + i))
            .collect();
        let solos: Vec<_> = samples
            .iter()
            .map(|s| replay.run(s, &weights).unwrap())
            .collect();
        let (shift, zero) = session.quantization();
        for (i, (sample, solo)) in samples.iter().zip(&solos).enumerate() {
            let golden = run_graph_reference(&g, sample, &weights, shift, zero).unwrap();
            prop_assert_eq!(&solo.oacts, &golden, "sample {} solo vs reference", i);
        }

        for lanes in [1usize, 2, 4, 8, 9, 16] {
            let batched = replay.run_batched(&samples[..lanes], &weights).unwrap();
            prop_assert_eq!(batched.len(), lanes);
            for (lane, (b, solo)) in batched.iter().zip(&solos).enumerate() {
                prop_assert_eq!(&b.oacts, &solo.oacts, "lane {} of {} outputs", lane, lanes);
                prop_assert_eq!(&b.report, &solo.report, "lane {} of {} report", lane, lanes);
            }
        }
        for (i, (sample, solo)) in samples.iter().zip(&solos).enumerate() {
            let alone = replay.run_batched(std::slice::from_ref(sample), &weights).unwrap();
            prop_assert_eq!(alone.len(), 1);
            prop_assert_eq!(&alone[0].oacts, &solo.oacts, "sample {} alone, outputs", i);
            prop_assert_eq!(&alone[0].report, &solo.report, "sample {} alone, report", i);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The lowered `Fire` on the geometry no model has: kernels that are not
    /// square (so each Phase-1 loop order meets the other's shape: tall 1-wide
    /// windows, wide 1-tall ones), strides longer than the kernel, padding
    /// wide enough that whole output rows and columns have no valid tap,
    /// `C` and `M` ragged against the array, depthwise — alone and feeding a
    /// second convolution, at one lane and at 2, 3, 8, 9 and 16 (a padded
    /// eight-lane group after a full one, and two full groups). Every replay
    /// equals the reference executor bit for bit, and a batch equals its solo
    /// replays, report included.
    #[test]
    fn lowered_fire_equals_the_reference_on_awkward_geometry(
        channels in proptest::collection::vec(1usize..=20, 3),
        hw in proptest::collection::vec(1usize..=6, 2),
        kernel in proptest::collection::vec(0usize..4, 2),
        stride in 1usize..=3,
        padding in 0usize..=5,
        depthwise in 0usize..2,
        two_layers in 0usize..2,
        lanes in 0usize..6,
        seed in 0u64..1000,
    ) {
        let (r, s) = ([1, 2, 3, 5][kernel[0]], [1, 2, 3, 5][kernel[1]]);
        let (c, h, w) = (channels[0], hw[0], hw[1]);
        let first = ConvLayer::new(1, channels[1], c, h, w, r, s)
            .with_stride(stride)
            .with_padding(padding % (r.max(s) + 1))
            .with_name("first");
        let first = if depthwise == 1 {
            ConvLayer { m: c, ..first }.depthwise()
        } else {
            first
        };
        prop_assume!(first.validate().is_ok());
        let mut g = Graph::new("awkward", [1, c, h, w]);
        let (m, p, q) = (first.m, first.output_height(), first.output_width());
        let mid = g.conv(g.input(), first).unwrap();
        if two_layers == 1 {
            // The transposed kernel, under a halo as wide as the kernel.
            let second = ConvLayer::new(1, channels[2], m, p, q, s, r)
                .with_padding(r.max(s))
                .with_name("second");
            g.conv(mid, second).unwrap();
        }

        let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        let replay = ProgramSession::new(session.compile().unwrap());
        let weights = g.random_weights(seed);
        let lanes = [1, 2, 3, 8, 9, 16][lanes];
        let samples: Vec<Tensor4<i8>> = (0..lanes as u64)
            .map(|i| Tensor4::random([1, c, h, w], seed + 1 + i))
            .collect();
        let (shift, zero) = session.quantization();

        let batched = replay.run_batched(&samples, &weights).unwrap();
        prop_assert_eq!(batched.len(), lanes);
        for (lane, sample) in samples.iter().enumerate() {
            let golden = run_graph_reference(&g, sample, &weights, shift, zero).unwrap();
            let solo = replay.run(sample, &weights).unwrap();
            prop_assert_eq!(&solo.oacts, &golden, "solo replay of sample {}", lane);
            prop_assert_eq!(&batched[lane].oacts, &golden, "lane {} of {}", lane, lanes);
            prop_assert_eq!(&batched[lane].report, &solo.report, "lane {} report", lane);
        }
        let run = session.run(&samples[0], &weights).unwrap();
        prop_assert_eq!(&run.oacts, &batched[0].oacts);
        prop_assert_eq!(&run.report, &batched[0].report);
    }
}

/// Every run of a batch — a lone sample, a full eight-lane group, a padded
/// group after a full one, and the session's own `run` — shares
/// `Program::cost()`'s segment list (the very allocation, not a copy) and
/// equals the cost apart from join saturation, which is the run's own.
#[test]
fn every_run_shares_the_program_report() {
    let g = build_dag(1, 3, 5, &[(2, 3, true), (1, 1, false)], 1);
    // No quantization shift, so joins saturate.
    let session = GraphSession::auto(FeatherConfig::new(4, 4), &g)
        .unwrap()
        .with_quantization(0, 0);
    let weights = g.random_weights(5);
    let replay = ProgramSession::new(session.compile().unwrap());
    let cost = replay.program().cost();
    assert_eq!(cost.joins.len(), 2);
    // Zero samples (nothing saturates) next to random ones.
    let samples: Vec<Tensor4<i8>> = (0..9u64)
        .map(|i| match i % 3 {
            0 => Tensor4::zeros([1, 3, 5, 5]),
            _ => Tensor4::random([1, 3, 5, 5], 40 + i),
        })
        .collect();
    let mut runs = vec![session.run(&samples[0], &weights).unwrap()];
    for lanes in [1usize, 8, 9] {
        runs.extend(replay.run_batched(&samples[..lanes], &weights).unwrap());
    }
    for (i, run) in runs.iter().enumerate() {
        assert!(
            Arc::ptr_eq(&run.report.segments, &cost.segments),
            "run {i} copied the segment list"
        );
        assert_eq!(&accounting(&run.report), cost, "run {i}");
    }
    let saturated: Vec<u64> = runs
        .iter()
        .map(|run| run.report.saturated_join_elements())
        .collect();
    assert!(saturated.iter().any(|&s| s > 0), "{saturated:?}");
    assert!(
        saturated.iter().any(|&s| s != saturated[0]),
        "{saturated:?}"
    );
}

/// The full ResNet-50 topology — 53 convs, 16 residual joins, pools and FC —
/// lowers to one program whose replay reproduces the reference executor's
/// output, with one report however it is run.
#[test]
fn scaled_resnet50_program_replays_end_to_end() {
    let g = resnet50_graph_scaled(16, 16);
    assert_eq!(g.conv_node_count(), 53);
    assert_eq!(g.add_node_count(), 16);

    let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
    let [_, c, h, w] = g.tensor_shape(g.input());
    let iacts = Tensor4::random([1, c, h, w], 7);
    let weights = g.random_weights(8);
    let run = session.run(&iacts, &weights).unwrap();
    assert_eq!(
        samples_of(&run.oacts),
        reference_outputs(&session, &iacts, &weights)
    );

    let replay = ProgramSession::new(session.compile().unwrap());
    let replayed = replay.run(&iacts, &weights).unwrap();
    assert_eq!(replayed.oacts, run.oacts);
    assert_eq!(replayed.report, run.report);

    // A second replay of the same program is a pure re-execution: same bits,
    // same statistics, no accumulated state.
    let again = replay.run(&iacts, &weights).unwrap();
    assert_eq!(again.oacts, run.oacts);
    assert_eq!(again.report, run.report);

    // The program really covers the whole network.
    assert_eq!(replayed.report.joins.len(), 16);
    assert_eq!(replayed.report.layers().count(), 56);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `Program::cost()` is every run's report with join saturation masked —
    /// on ragged, strided, depthwise residual DAGs, for the batch-1 program
    /// and for the modelled batch-`N` programs of `with_batch(N)` — and is
    /// what every replay entry point returns for zero,
    /// all-`i8::MIN` and all-`i8::MAX` inputs and weights alike, next to the
    /// reference executor's output.
    #[test]
    fn cost_oracle_equals_every_runs_report(
        c_in in 1usize..7,
        c_mid in 1usize..7,
        c_out in 1usize..7,
        hw in 4usize..8,
        stride2 in 0usize..2,
        depthwise in 0usize..2,
        identity in 0usize..2,
        batch in 1usize..4,
        seed in 0u64..100,
    ) {
        let g = build_ragged_dag(c_in, c_mid, c_out, hw, stride2 == 1, depthwise == 1, identity == 1);
        let solo = GraphSession::auto(FeatherConfig::new(4, 4), &g).unwrap();
        let session = solo.with_batch(batch).unwrap();
        let program = session.compile().unwrap();
        let cost = program.cost().clone();
        prop_assert!(cost.total_cycles() > 0);
        prop_assert!(cost.joins.iter().all(|j| j.saturated == 0));

        let random = g.random_weights(seed + 3000);
        let replay = ProgramSession::new(program);
        let cases: [(i8, BTreeMap<NodeId, Tensor4<i8>>); 4] = [
            (0, constant_weights(&random, 0)),
            (i8::MIN, constant_weights(&random, i8::MIN)),
            (i8::MAX, constant_weights(&random, i8::MAX)),
            (1, random),
        ];
        for (fill, weights) in &cases {
            let iacts = if *fill == 1 {
                Tensor4::random([batch, c_in, hw, hw], seed)
            } else {
                Tensor4::from_fn([batch, c_in, hw, hw], |_, _, _, _| *fill)
            };
            let run = session.run(&iacts, weights).unwrap();
            prop_assert_eq!(&accounting(&run.report), &cost, "session run, fill {}", fill);
            let golden = reference_outputs(&session, &iacts, weights);
            prop_assert_eq!(&samples_of(&run.oacts), &golden, "fill {}", fill);
            let replayed = replay.run(&iacts, weights).unwrap();
            prop_assert_eq!(&replayed.oacts, &run.oacts, "fill {}", fill);
            prop_assert_eq!(&replayed.report, &run.report, "fill {}", fill);
        }

        // The lane-batched path of the batch-1 program returns the batch-1
        // cost per lane.
        let solo_replay = ProgramSession::new(solo.compile().unwrap());
        let samples: Vec<Tensor4<i8>> = (0..batch as u64)
            .map(|i| Tensor4::random([1, c_in, hw, hw], seed + i))
            .collect();
        for run in solo_replay.run_batched(&samples, &cases[3].1).unwrap() {
            prop_assert_eq!(&accounting(&run.report), solo_replay.program().cost());
        }
    }
}

/// Cycles, DRAM bytes and energy of one run, as the benchmark gates them —
/// energy as the bits of its pJ total, since the benchmark's zero bound on
/// it is exact and `f64` sums depend on their order.
fn totals(report: &GraphReport) -> (u64, u64, u64) {
    (
        report.total_cycles(),
        report.dram_bytes(),
        report.total_energy_pj().to_bits(),
    )
}

/// The benchmark's Model A — `resnet50_graph_scaled(16, 16)` on 8×16 through
/// `GraphSession::auto` — costs exactly what `BENCHMARK.json` gates with a
/// zero bound, known from the compile alone.
#[test]
fn model_a_cost_is_pinned_without_running_a_mac() {
    let g = resnet50_graph_scaled(16, 16);
    let session = GraphSession::auto(FeatherConfig::new(8, 16), &g).unwrap();
    let cost = totals(session.compile().unwrap().cost());
    // 13 099 957.52 pJ.
    assert_eq!(cost, (15_395, 100_758, 0x4168_fc76_b0a3_d70a));
}

/// The benchmark's Model B — `resnet50_graph_scaled(8, 8)` on 16×16, planned
/// by `plan_graph` (seed 0, fresh cache) — likewise.
#[test]
fn model_b_cost_is_pinned_without_running_a_mac() {
    let g = resnet50_graph_scaled(8, 8);
    let plan = plan_graph(
        &ArchSpec::feather_like(16, 16),
        &g,
        &MapperConfig::fast(),
        0,
        &mut CoSearchCache::new(),
    )
    .unwrap();
    let session =
        GraphSession::from_schedules(FeatherConfig::new(16, 16), &g, &plan.schedules()).unwrap();
    let cost = totals(session.compile().unwrap().cost());
    // 53 169 062.400 000 006 pJ.
    assert_eq!(cost, (73_969, 401_989, 0x4189_5a5d_3333_3334));
}

/// The program a session's first run compiled, as the `compile()` after it
/// hands it out: `(distinct routes, BIRRD passes it replays)`.
fn route_traffic(session: GraphSession, g: &Graph) -> (usize, usize) {
    let iacts = Tensor4::random(g.tensor_shape(g.input()), 1);
    session.run(&iacts, &g.random_weights(2)).unwrap();
    let program = session.compile().unwrap();
    (program.distinct_routes(), program.route_fires())
}

/// How many routes a model compiles is a property of the model, not of the
/// host or of how often it runs: the first `run` compiles the graph in one
/// counting pass whose program route memo routes each distinct
/// `(c_cols, request)` once, into one slot of the program's route table, and
/// the `compile()` after it hands out the program the run made. A memo that
/// routed a pattern twice or merged two, or a second pass over the graph,
/// moves these.
#[test]
fn models_a_and_b_route_cache_traffic_is_pinned() {
    let a = resnet50_graph_scaled(16, 16);
    let session = GraphSession::auto(FeatherConfig::new(8, 16), &a).unwrap();
    assert_eq!(route_traffic(session, &a), (160, 6_548));

    let b = resnet50_graph_scaled(8, 8);
    let plan = plan_graph(
        &ArchSpec::feather_like(16, 16),
        &b,
        &MapperConfig::fast(),
        0,
        &mut CoSearchCache::new(),
    )
    .unwrap();
    let session =
        GraphSession::from_schedules(FeatherConfig::new(16, 16), &b, &plan.schedules()).unwrap();
    assert_eq!(route_traffic(session, &b), (112, 52_312));
}

/// The weekly full-size check (`FEATHER_FULL=1`): at ÷2 — 4096× Model A's
/// MACs, ~7 s in release — the `u32` slot and cell tables and the lane-striped flat
/// index carry real magnitudes, and scalar and batched replay must still
/// agree with the reference executor and with the cost.
#[test]
fn full_size_program_costs_and_replays_like_the_interpreter() {
    if !full() {
        return;
    }
    let g = resnet50_graph_scaled(2, 2);
    let session = GraphSession::auto(FeatherConfig::new(8, 16), &g).unwrap();
    let [_, c, h, w] = g.tensor_shape(g.input());
    let samples: Vec<Tensor4<i8>> = (0..2)
        .map(|i| Tensor4::random([1, c, h, w], 70 + i))
        .collect();
    let weights = g.random_weights(8);
    let program = session.compile().unwrap();
    let replay = ProgramSession::new(program.clone());
    let batched = replay.run_batched(&samples, &weights).unwrap();
    for (sample, lane) in samples.iter().zip(&batched) {
        let golden = reference_outputs(&session, sample, &weights);
        let replayed = replay.run(sample, &weights).unwrap();
        assert_eq!(samples_of(&replayed.oacts), golden);
        assert_eq!(&accounting(&replayed.report), program.cost());
        assert_eq!(samples_of(&lane.oacts), golden);
        assert_eq!(lane.report, replayed.report);
    }
}
