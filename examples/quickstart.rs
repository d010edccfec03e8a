//! Quickstart: run one convolution layer on the FEATHER functional simulator
//! with a per-layer layout switch (RIR), check it against the golden kernel,
//! and print the performance report.
//!
//! ```text
//! cargo run -p feather-bench --example quickstart
//! ```

use feather::{Feather, FeatherConfig, LayerMapping};
use feather_arch::tensor::{conv2d_reference, Tensor4};
use feather_arch::workload::ConvLayer;

fn main() {
    // A small convolution: 16 kernels over 16 channels of a 12x12 image.
    let layer = ConvLayer::new(1, 16, 16, 12, 12, 3, 3)
        .with_padding(1)
        .with_name("quickstart_conv");
    let iacts = Tensor4::random([1, 16, 12, 12], 7);
    let weights = Tensor4::random([16, 16, 3, 3], 8);

    // An 8x16 FEATHER: 8 PE rows, 16 PE columns (16-input BIRRD, 16 StaB banks).
    let config = FeatherConfig::new(8, 16);
    let mut accelerator = Feather::new(config);

    // iActs arrive channel-last; the next layer wants row-major outputs.
    // RIR performs that layout switch during reduction, for free.
    let mapping = LayerMapping::weight_stationary(&layer, &config, "HWC_C16", "MPQ_Q16")
        .expect("built-in layout strings parse");
    let run = accelerator
        .execute_conv(&layer, &mapping, &iacts, &weights)
        .expect("layer executes");

    let golden = conv2d_reference(&layer, &iacts, &weights).expect("reference conv");
    assert_eq!(run.oacts, golden, "FEATHER output must match the reference");

    println!("layer              : {layer}");
    println!("functional check   : OK (matches reference convolution)");
    println!("cycles             : {}", run.report.cycles);
    println!("bank-conflict stalls: {}", run.report.stall_cycles);
    println!("MACs               : {}", run.report.macs);
    println!("MACs/cycle         : {:.2}", run.report.macs_per_cycle());
    println!(
        "utilization        : {:.1}%",
        run.report.utilization * 100.0
    );
    println!("BIRRD passes       : {}", run.report.birrd_passes);
    println!(
        "energy             : {:.1} nJ",
        run.report.energy.total_pj() / 1e3
    );
    println!("energy per MAC     : {:.2} pJ", run.report.pj_per_mac());
}
