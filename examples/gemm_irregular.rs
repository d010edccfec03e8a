//! Irregular GEMM on FEATHER vs a rigid systolic array (the Fig. 10 story),
//! plus a functional GEMM run through NEST + BIRRD.
//!
//! ```text
//! cargo run -p feather-bench --example gemm_irregular
//! ```

use feather::{Feather, FeatherConfig, LayerMapping};
use feather_arch::tensor::{gemm_reference, Tensor4};
use feather_arch::workload::GemmLayer;
use feather_baselines::systolic::SystolicArray;
use layoutloop::arch::ArchSpec;
use layoutloop::cosearch::co_search;

fn main() {
    // Functional check: a skewed GEMM executed on a 4x8 FEATHER.
    let gemm = GemmLayer::new(8, 8, 5).with_name("skewed_gemm");
    let a = Tensor4::random([1, 1, 8, 8], 21);
    let b = Tensor4::random([1, 1, 8, 5], 22);
    let cfg = FeatherConfig::new(4, 8);
    let mapping = LayerMapping::weight_stationary(&gemm.as_conv(), &cfg, "HWC_C8", "MPQ_Q8")
        .expect("built-in layout strings parse");
    let mut acc = Feather::new(cfg);
    let run = acc
        .execute_gemm(&gemm, &a, &b, &mapping)
        .expect("gemm runs");
    let golden = gemm_reference(&gemm, &a, &b).expect("reference gemm");
    for m in 0..gemm.m {
        for n in 0..gemm.n {
            assert_eq!(run.oacts.get(0, m, 0, n), golden.get(0, 0, m, n));
        }
    }
    println!(
        "functional GEMM check: OK ({} cycles, {:.1}% utilization)\n",
        run.report.cycles,
        run.report.utilization * 100.0
    );

    // Utilization on the Fig. 10 workload shapes: FEATHER vs systolic array.
    let sa = SystolicArray::new(4, 4);
    let feather_arch = ArchSpec::feather_like(4, 4);
    println!(
        "{:<16} {:>16} {:>10}",
        "workload", "systolic util", "FEATHER util"
    );
    for (label, g) in [
        ("A (8,8,4)", GemmLayer::new(8, 8, 4)),
        ("B (6,2,8)", GemmLayer::new(6, 2, 8)),
        ("C (5,12,3)", GemmLayer::new(5, 12, 3)),
        ("D (4,16,1)", GemmLayer::new(4, 16, 1)),
    ] {
        let sa_util = sa.steady_utilization(&g);
        let f = co_search(&feather_arch, &g.as_conv(), 0).expect("co-search");
        println!(
            "{:<16} {:>15.0}% {:>9.0}%",
            label,
            sa_util * 100.0,
            f.evaluation.utilization * 100.0
        );
    }
}
