//! Fig. 11: the RIR walk-through — FEATHER executes a small convolution with
//! channel-last iActs and writes the oActs back in row-major order during
//! reduction, with zero bank conflicts. The binary prints the functional
//! check, the write-trace shape and the stall counters.

use feather::{Feather, FeatherConfig, LayerMapping};
use feather_arch::tensor::{conv2d_reference, Tensor4};
use feather_arch::workload::ConvLayer;
use feather_bench::print_table;

fn main() {
    // A layer shaped like the Fig. 11 example: 4 input channels, 4 kernels,
    // 2x2 weights per channel (R=S=2).
    let layer = ConvLayer::new(1, 4, 4, 5, 5, 2, 2).with_name("fig11_layer");
    let iacts = Tensor4::random([1, 4, 5, 5], 42);
    let weights = Tensor4::random([4, 4, 2, 2], 43);
    let cfg = FeatherConfig::new(4, 4);

    // Channel-last (HWC_C4) in, row-major (MPQ_Q4) out — the Fig. 11 switch.
    let mapping = LayerMapping::weight_stationary(&layer, &cfg, "HWC_C4", "MPQ_Q4").unwrap();
    let mut acc = Feather::new(cfg);
    let run = acc
        .execute_conv(&layer, &mapping, &iacts, &weights)
        .unwrap();
    let golden = conv2d_reference(&layer, &iacts, &weights).unwrap();

    let rows = vec![
        vec![
            "functional match".to_string(),
            format!("{}", run.oacts == golden),
        ],
        vec!["iAct layout".to_string(), mapping.iact_layout.to_string()],
        vec![
            "oAct layout (next layer)".to_string(),
            mapping.oact_layout.to_string(),
        ],
        vec!["cycles".to_string(), run.report.cycles.to_string()],
        vec![
            "bank-conflict stalls".to_string(),
            run.report.stall_cycles.to_string(),
        ],
        vec![
            "BIRRD passes".to_string(),
            run.report.birrd_passes.to_string(),
        ],
        vec![
            "BIRRD adder activations".to_string(),
            run.report.birrd_adds.to_string(),
        ],
        vec![
            "StaB line writes (oActs)".to_string(),
            run.report.oact_stats.line_writes.to_string(),
        ],
        vec![
            "utilization".to_string(),
            format!("{:.1}%", run.report.utilization * 100.0),
        ],
    ];
    print_table(
        "Fig. 11 — RIR layout switch (channel-last -> row-major) during reduction",
        &["quantity", "value"],
        &rows,
    );
    assert_eq!(run.oacts, golden, "functional mismatch");
    assert_eq!(
        run.report.stall_cycles, 0,
        "RIR must not introduce bank conflicts"
    );
}
