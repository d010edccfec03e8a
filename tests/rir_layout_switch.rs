//! Integration test for the Fig. 11 scenario: FEATHER executes a convolution
//! reading channel-last iActs and, purely as a side effect of BIRRD reduction
//! (RIR), leaves the oActs in a row-major layout for the next layer — with no
//! bank conflicts and no extra reordering passes — then the next layer
//! consumes them directly.

use feather::{Feather, FeatherConfig, LayerMapping};
use feather_arch::tensor::{conv2d_reference, quantize_to_i8, Tensor4};
use feather_arch::workload::ConvLayer;

#[test]
fn two_layer_pipeline_switches_layout_for_free() {
    let cfg = FeatherConfig::new(4, 4);
    let mut acc = Feather::new(cfg);

    // Layer 1: channel-last iActs in, row-major oActs out.
    let layer1 = ConvLayer::new(1, 4, 4, 6, 6, 3, 3)
        .with_padding(1)
        .with_name("l1");
    let iacts1 = Tensor4::random([1, 4, 6, 6], 100);
    let weights1 = Tensor4::random([4, 4, 3, 3], 101);
    // Layer 2 runs a channel-parallel mapping, so layer 1 is told (by the
    // co-search, conceptually) to emit its oActs channel-packed: `PQM_M4`
    // packs the four output channels of one pixel into one line — exactly the
    // layout layer 2's dataflow wants to read. That per-layer oAct-layout
    // choice is the co-switching the paper describes, and RIR performs it
    // inside the reduction at no cost.
    let mapping1 = LayerMapping::weight_stationary(&layer1, &cfg, "HWC_C4", "PQM_M4").unwrap();
    let run1 = acc
        .execute_conv(&layer1, &mapping1, &iacts1, &weights1)
        .unwrap();
    let golden1 = conv2d_reference(&layer1, &iacts1, &weights1).unwrap();
    assert_eq!(run1.oacts, golden1);
    assert_eq!(
        run1.report.stall_cycles, 0,
        "RIR must not introduce conflicts"
    );

    // Quantize layer 1's outputs back to INT8 — they become layer 2's iActs.
    let q1 = quantize_to_i8(&run1.oacts, 6, 0);
    let iacts2_data: Vec<i8> = (0..4)
        .flat_map(|m| (0..6).flat_map(move |p| (0..6).map(move |q| (m, p, q))))
        .map(|(m, p, q)| q1.get(0, m, p, q))
        .collect();
    let iacts2 = Tensor4::from_vec([1, 4, 6, 6], iacts2_data).unwrap();

    // Layer 2 reads the activations in the layout layer 1 produced. Layer 1
    // wrote them channel-packed (`PQM_M4`); viewed through layer 2's input
    // vocabulary (C, H, W) that is the channel-last `HWC_C4` layout, which is
    // concordant with its channel-parallel mapping — no conflicts.
    let layer2 = ConvLayer::new(1, 4, 4, 6, 6, 1, 1).with_name("l2");
    let weights2 = Tensor4::random([4, 4, 1, 1], 102);
    let mapping2 = LayerMapping::weight_stationary(&layer2, &cfg, "HWC_C4", "MPQ_Q4").unwrap();
    let run2 = acc
        .execute_conv(&layer2, &mapping2, &iacts2, &weights2)
        .unwrap();
    let golden2 = conv2d_reference(&layer2, &iacts2, &weights2).unwrap();
    assert_eq!(run2.oacts, golden2);
    assert_eq!(run2.report.stall_cycles, 0);
}

#[test]
fn rar_style_extra_pass_never_needed() {
    // Across several oAct layouts, the number of BIRRD passes equals the
    // number of row fires that produced live outputs — no serialized extra
    // passes means the reordering really is hidden inside reduction.
    let cfg = FeatherConfig::new(4, 4);
    let layer = ConvLayer::new(1, 4, 4, 5, 5, 3, 3).with_padding(1);
    let iacts = Tensor4::random([1, 4, 5, 5], 7);
    let weights = Tensor4::random([4, 4, 3, 3], 8);
    for oact_layout in ["MPQ_Q4", "MPQ_M4", "PQM_M4", "MPQ_P2Q2"] {
        let mapping = LayerMapping::weight_stationary(&layer, &cfg, "HWC_C4", oact_layout).unwrap();
        let mut acc = Feather::new(cfg);
        let run = acc
            .execute_conv(&layer, &mapping, &iacts, &weights)
            .unwrap();
        assert_eq!(
            run.oacts,
            conv2d_reference(&layer, &iacts, &weights).unwrap(),
            "layout {oact_layout}"
        );
        // One pass per (row fire with live outputs): fires = M tiles... every
        // fire carries exactly one output group here (q_cols = 1).
        assert_eq!(
            run.report.birrd_passes,
            4 * 5 * 5,
            "unexpected extra BIRRD passes for {oact_layout}"
        );
    }
}
