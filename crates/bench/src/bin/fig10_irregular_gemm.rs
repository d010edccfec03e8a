//! Fig. 10: FEATHER vs a rigid weight-stationary systolic array on regular and
//! irregular GEMM shapes (workloads A–D). FEATHER's BIRRD enables cross-column
//! reductions and per-column mappings, keeping utilization high on skewed
//! shapes; pass `--no-cross-column-reduction` to ablate that capability.

use feather_arch::dataflow::{ArrayShape, Dataflow};
use feather_arch::workload::{ConvLayer, GemmLayer};
use feather_baselines::systolic::SystolicArray;
use feather_bench::print_table;
use layoutloop::arch::ArchSpec;
use layoutloop::cosearch::co_search;

fn feather_utilization(layer: &ConvLayer, ablate: bool) -> f64 {
    let arch = ArchSpec::feather_like(4, 4);
    if ablate {
        // Without cross-column (BIRRD) reduction, FEATHER degenerates to the
        // systolic mapping: reduction must stay within one PE column.
        let df = Dataflow::weight_stationary(ArrayShape::new(4, 4), layer);
        return df.spatial_utilization();
    }
    co_search(&arch, layer, 0)
        .map(|r| r.evaluation.utilization)
        .unwrap_or(0.0)
}

fn main() {
    let ablate = std::env::args().any(|a| a == "--no-cross-column-reduction");
    let sa = SystolicArray::new(4, 4);

    // Workload shapes following Fig. 10: A regular, B/C/D skewed.
    let workloads = vec![
        (
            "A (M8 K8 N4)",
            GemmLayer::new(8, 8, 4).with_name("workload_a"),
        ),
        (
            "B (M6 K2 N8)",
            GemmLayer::new(6, 2, 8).with_name("workload_b"),
        ),
        (
            "C (M5 K12 N3)",
            GemmLayer::new(5, 12, 3).with_name("workload_c"),
        ),
        (
            "D (M4 K16 N1)",
            GemmLayer::new(4, 16, 1).with_name("workload_d"),
        ),
    ];

    let mut rows = Vec::new();
    for (label, gemm) in workloads {
        // Steady-state utilization (the paper's Fig. 10 percentages) and
        // whole-run utilization (including fill/drain and ragged tiles, which
        // the rigid array cannot hide on skewed shapes).
        let sa_steady = sa.steady_utilization(&gemm);
        let sa_run = sa.run_gemm(&gemm).utilization;
        let feather_util = feather_utilization(&gemm.as_conv(), ablate);
        rows.push(vec![
            label.to_string(),
            format!("{:.0}%", sa_steady * 100.0),
            format!("{:.0}%", sa_run * 100.0),
            format!("{:.0}%", feather_util * 100.0),
            format!("{:.2}x", feather_util / sa_run.max(1e-9)),
        ]);
    }
    let title = if ablate {
        "Fig. 10 — irregular GEMM utilization (ablation: no cross-column reduction)"
    } else {
        "Fig. 10 — irregular GEMM utilization, 4x4 arrays"
    };
    print_table(
        title,
        &["workload", "SA steady", "SA whole-run", "FEATHER", "gain"],
        &rows,
    );
}
