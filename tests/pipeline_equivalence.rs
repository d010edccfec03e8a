//! The pipeline's contract: running a chain of layers back-to-back through
//! the ping/pong StaB (a one-segment [`feather::GraphSession::chain`]) is
//! *bit-identical* to running the same layers one at a time through the
//! reference convolution with explicit quantization steps between them —
//! while swapping the StaB once per layer and never moving intermediate
//! activations through DRAM. The chains mix in iAct layouts (`HWC_C2W2`,
//! `HWC_W4`) that no planned graph picks.

use feather::{FeatherConfig, GraphReport, GraphSession};
use feather_arch::tensor::{conv2d_reference, quantize_to_i8, Tensor4};
use feather_arch::workload::ConvLayer;
use proptest::prelude::*;

/// Builds a chainable layer stack from per-layer output channel counts and
/// kernel sizes (stride 1, `k/2` padding keeps the spatial extents).
fn build_chain(c0: usize, hw: usize, specs: &[(usize, usize)]) -> Vec<ConvLayer> {
    let mut layers = Vec::new();
    let mut c = c0;
    for (i, &(m, k)) in specs.iter().enumerate() {
        layers.push(
            ConvLayer::new(1, m, c, hw, hw, k, k)
                .with_padding(k / 2)
                .with_name(format!("chain_l{i}")),
        );
        c = m;
    }
    layers
}

/// The chain through the reference convolution, quantized between layers
/// as `session` quantizes: the last layer's accumulators.
fn reference(
    session: &GraphSession,
    layers: &[ConvLayer],
    iacts: &Tensor4<i8>,
    weights: &[Tensor4<i8>],
) -> Tensor4<i32> {
    let (shift, zero) = session.quantization();
    let mut acc = conv2d_reference(&layers[0], iacts, &weights[0]).unwrap();
    for (layer, w) in layers.iter().zip(weights).skip(1) {
        acc = conv2d_reference(layer, &quantize_to_i8(&acc, shift, zero), w).unwrap();
    }
    acc
}

/// Runs chain `session` with one weight tensor per layer, in order: the
/// outputs and the report of the run, which has one segment.
fn run(
    session: &GraphSession,
    iacts: &Tensor4<i8>,
    weights: &[Tensor4<i8>],
) -> (Tensor4<i32>, GraphReport) {
    let nodes = session.graph().nodes().iter().map(|node| node.id);
    let run = session
        .run(iacts, &nodes.zip(weights.iter().cloned()).collect())
        .unwrap();
    assert_eq!(run.report.segments.len(), 1, "a chain is one segment");
    (run.oacts, run.report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pipeline_equals_sequential_for_random_chains(
        len in 2usize..5,
        c0 in 1usize..6,
        hw in 4usize..7,
        m_picks in proptest::collection::vec(1usize..6, 4),
        k_picks in proptest::collection::vec(0usize..2, 4),
        layout_picks in proptest::collection::vec(0usize..3, 4),
        seed in 0u64..50,
    ) {
        // Chain of `len` layers; `k_picks` selects the kernel: 0 → 1×1, 1 → 3×3.
        let specs: Vec<(usize, usize)> = (0..len)
            .map(|i| (m_picks[i], if k_picks[i] == 0 { 1 } else { 3 }))
            .collect();
        let layers = build_chain(c0, hw, &specs);
        let layouts = ["HWC_C4", "HWC_C2W2", "HWC_W4"];
        let iact_layouts: Vec<&str> = (0..layers.len())
            .map(|i| layouts[layout_picks[i % layout_picks.len()] % layouts.len()])
            .collect();
        let cfg = FeatherConfig::new(4, 4);
        let session =
            GraphSession::weight_stationary_chain(cfg, &layers, &iact_layouts, "MPQ_Q4").unwrap();

        let iacts = Tensor4::random([1, c0, hw, hw], seed);
        let weights: Vec<Tensor4<i8>> = layers
            .iter()
            .enumerate()
            .map(|(i, l)| Tensor4::random([l.m, l.c, l.r, l.s], seed + 100 + i as u64))
            .collect();

        let (oacts, report) = run(&session, &iacts, &weights);
        prop_assert_eq!(oacts, reference(&session, &layers, &iacts, &weights));
        prop_assert_eq!(report.stab_swaps(), layers.len() as u64);
    }
}

/// The three-layer chain: its session, layers, input and weights.
fn three_layer_session() -> (GraphSession, Vec<ConvLayer>, Tensor4<i8>, Vec<Tensor4<i8>>) {
    let layers = build_chain(4, 6, &[(8, 3), (4, 1), (4, 3)]);
    let cfg = FeatherConfig::new(4, 8);
    let iact_layouts = ["HWC_C4", "HWC_C8", "HWC_C4"];
    let session =
        GraphSession::weight_stationary_chain(cfg, &layers, &iact_layouts, "MPQ_Q8").unwrap();
    let iacts = Tensor4::random([1, 4, 6, 6], 9);
    let weights = vec![
        Tensor4::random([8, 4, 3, 3], 10),
        Tensor4::random([4, 8, 1, 1], 11),
        Tensor4::random([4, 4, 3, 3], 12),
    ];
    (session, layers, iacts, weights)
}

#[test]
fn stab_swaps_once_per_layer_boundary() {
    let (session, _, iacts, weights) = three_layer_session();
    let (_, report) = run(&session, &iacts, &weights);
    // Each of the three layers ends at a boundary swap that publishes its
    // oActs to the active side.
    assert_eq!(report.stab_swaps(), 3);
    assert_eq!(report.layers().count(), 3);
}

#[test]
fn pipelined_dram_iact_traffic_beats_layer_at_a_time() {
    let (session, layers, iacts, weights) = three_layer_session();
    let (_, report) = run(&session, &iacts, &weights);
    // Only the first layer stages iActs from DRAM...
    let pipelined_iact_bytes: u64 = report.layers().map(|l| l.report.dram_iact_bytes).sum();
    let layer_at_a_time_iact_bytes: u64 = layers
        .iter()
        .map(|layer| {
            layer.operand_bytes(
                feather_arch::dims::Operand::IActs,
                feather_arch::DataType::Int8,
            )
        })
        .sum();
    assert!(
        pipelined_iact_bytes < layer_at_a_time_iact_bytes,
        "{pipelined_iact_bytes} vs {layer_at_a_time_iact_bytes}"
    );
    // ... and the aggregate activation traffic is strictly lower too.
    assert!(report.dram_activation_bytes() < report.layer_at_a_time_activation_bytes());
    assert!(report.dram_activation_savings() > 0.0);
}

#[test]
fn pipeline_output_matches_sequential_on_the_three_layer_chain() {
    let (session, layers, iacts, weights) = three_layer_session();
    let (oacts, _) = run(&session, &iacts, &weights);
    assert_eq!(oacts, reference(&session, &layers, &iacts, &weights));
}
