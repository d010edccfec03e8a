//! The DAG executor's contract: running a whole tensor graph — branches,
//! parked shortcuts and residual joins included — through
//! [`feather::GraphSession`] is *bit-identical* to the naive sequential
//! reference that materializes every tensor with the golden kernels and
//! applies explicit saturating adds ([`run_graph_reference`]).

use std::collections::BTreeMap;

use feather::graph_session::run_graph_reference;
use feather::{FeatherConfig, GraphSession};
use feather_arch::graph::{resnet50_graph_scaled, Graph, NodeId};
use feather_arch::tensor::Tensor4;
use feather_arch::workload::ConvLayer;
use proptest::prelude::*;

/// Builds a random DAG: a trunk conv, then `blocks` residual blocks (each a
/// 1–2 conv main path plus an identity or 1×1-projection shortcut joined by
/// an add), then a head conv. Channel counts stay equal across each block so
/// the join shapes match, mirroring how real residual networks are built.
fn build_dag(
    c0: usize,
    hw: usize,
    blocks: &[(usize, usize, bool)], // (main_depth, kernel, identity_shortcut)
    head_kernel: usize,
) -> Graph {
    let mut g = Graph::new("random_dag", [1, c0, hw, hw]);
    let mut cur = g
        .conv(
            g.input(),
            ConvLayer::new(1, c0, c0, hw, hw, 3, 3)
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
                    ConvLayer::new(1, c0, c0, hw, hw, k, k)
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
                ConvLayer::new(1, c0, c0, hw, hw, 1, 1).with_name(format!("b{bi}_proj")),
            )
            .unwrap()
        };
        cur = g.add(cur, shortcut, format!("b{bi}_add")).unwrap();
    }
    g.conv(
        cur,
        ConvLayer::new(1, c0, c0, hw, hw, head_kernel, head_kernel)
            .with_padding(head_kernel / 2)
            .with_name("head"),
    )
    .unwrap();
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn graph_session_equals_naive_reference_for_random_dags(
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
        let g = build_dag(c0, hw, &blocks, if head_kernel == 0 { 1 } else { 3 });
        prop_assert_eq!(g.add_node_count(), n_blocks);

        let session = GraphSession::auto(FeatherConfig::new(4, 4), &g).unwrap();
        let iacts = Tensor4::random([1, c0, hw, hw], seed);
        let weights = g.random_weights(seed + 1000);

        let run = session.run(&iacts, &weights).unwrap();
        let (shift, zero) = session.quantization();
        let golden = run_graph_reference(&g, &iacts, &weights, shift, zero).unwrap();
        prop_assert_eq!(&run.oacts, &golden);

        // Structural invariants: one join report per add, every shortcut
        // crossed the scratch region, graph-level DRAM accounting only pays
        // the true input/output.
        prop_assert_eq!(run.report.joins.len(), n_blocks);
        prop_assert!(run.report.scratch.element_writes > 0);
        prop_assert!(
            run.report.dram_activation_bytes() <= run.report.layer_at_a_time_activation_bytes()
        );
    }
}

/// A deterministic join that must clamp: both branches produce 100s, so the
/// residual add saturates every element at +127 (the INT8 boundary the
/// quantization module hands the joiner).
#[test]
fn residual_add_saturates_at_the_quantization_boundary() {
    let mut g = Graph::new("saturating", [1, 1, 2, 2]);
    let a = g
        .conv(
            g.input(),
            ConvLayer::new(1, 1, 1, 2, 2, 1, 1).with_name("a"),
        )
        .unwrap();
    let b = g
        .conv(a, ConvLayer::new(1, 1, 1, 2, 2, 1, 1).with_name("b"))
        .unwrap();
    g.add(a, b, "sat_add").unwrap();

    // Identity weights and no quantization shift: both join operands are 100.
    let session = GraphSession::auto(FeatherConfig::new(4, 4), &g)
        .unwrap()
        .with_quantization(0, 0);
    let iacts = Tensor4::from_fn([1, 1, 2, 2], |_, _, _, _| 100i8);
    let weights: BTreeMap<NodeId, Tensor4<i8>> = g
        .random_weights(0)
        .into_keys()
        .map(|id| (id, Tensor4::from_fn([1, 1, 1, 1], |_, _, _, _| 1i8)))
        .collect();

    let run = session.run(&iacts, &weights).unwrap();
    assert!(run.oacts.as_slice().iter().all(|&v| v == 127), "{run:?}");
    assert_eq!(run.report.joins.len(), 1);
    assert_eq!(run.report.joins[0].elements, 4);
    assert_eq!(run.report.joins[0].saturated, 4);
    assert_eq!(run.report.saturated_join_elements(), 4);
    let golden = run_graph_reference(&g, &iacts, &weights, 0, 0).unwrap();
    assert_eq!(run.oacts, golden);
}

/// Negative saturation clamps at -128 symmetrically.
#[test]
fn residual_add_saturates_negative_boundary() {
    let mut g = Graph::new("saturating_neg", [1, 1, 2, 2]);
    let a = g
        .conv(
            g.input(),
            ConvLayer::new(1, 1, 1, 2, 2, 1, 1).with_name("a"),
        )
        .unwrap();
    let b = g
        .conv(a, ConvLayer::new(1, 1, 1, 2, 2, 1, 1).with_name("b"))
        .unwrap();
    g.add(a, b, "sat_add").unwrap();
    let session = GraphSession::auto(FeatherConfig::new(4, 4), &g)
        .unwrap()
        .with_quantization(0, 0);
    let iacts = Tensor4::from_fn([1, 1, 2, 2], |_, _, _, _| -100i8);
    let weights: BTreeMap<NodeId, Tensor4<i8>> = g
        .random_weights(0)
        .into_keys()
        .map(|id| (id, Tensor4::from_fn([1, 1, 1, 1], |_, _, _, _| 1i8)))
        .collect();
    let run = session.run(&iacts, &weights).unwrap();
    assert!(run.oacts.as_slice().iter().all(|&v| v == -128));
    assert_eq!(run.report.joins[0].saturated, 4);
}

/// The full ResNet-50 *topology* — all 53 convs, all 16 shortcut adds, both
/// pool lowerings, the FC — executes through the DAG session and matches the
/// naive reference bit-for-bit (channels/spatial scaled down so the
/// functional simulation stays test-suite fast; the example runs it bigger).
#[test]
fn scaled_resnet50_graph_executes_end_to_end() {
    let g = resnet50_graph_scaled(32, 16);
    assert_eq!(g.conv_node_count(), 53);
    assert_eq!(g.add_node_count(), 16);

    let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
    let iacts = Tensor4::random([1, 3, 14, 14], 7);
    let weights = g.random_weights(8);
    let run = session.run(&iacts, &weights).unwrap();

    let (shift, zero) = session.quantization();
    let golden = run_graph_reference(&g, &iacts, &weights, shift, zero).unwrap();
    assert_eq!(run.oacts, golden);

    let report = &run.report;
    assert_eq!(report.joins.len(), 16);
    assert_eq!(report.segments.len(), 22);
    // 53 convs + 2 pools + 1 fc executed.
    assert_eq!(report.layers().count(), 56);
    // Residual parking really happened, and the pipeline saved DRAM traffic.
    assert!(report.scratch.element_writes > 0);
    assert!(report.scratch_peak_elems > 0);
    assert!(report.dram_activation_bytes() < report.layer_at_a_time_activation_bytes());
    assert!(
        report.dram_activation_savings() > 0.5,
        "{}",
        report.dram_activation_savings()
    );
}
