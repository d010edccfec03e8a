//! Fig. 4: memory efficiency and compute utilization of the eight
//! (workload, dataflow, layout) mappings M1–M8 on a 4×4 weight-stationary
//! array with dual-port buffers.

use feather_arch::dataflow::{ArrayShape, Dataflow};
use feather_arch::layout::Layout;
use feather_arch::workload::ConvLayer;
use feather_bench::print_table;
use feather_memsim::{Banking, BufferSpec, ConflictModel};
use layoutloop::access::analyze_iact_reads;

fn main() {
    let shape = ArrayShape::new(4, 4);
    let conflict = ConflictModel::new(
        BufferSpec::new(1 << 16, 8, 1, Banking::VerticalBlocked).with_ports(2, 2),
    );

    let layer1 = ConvLayer::new(1, 64, 3, 224, 224, 7, 7)
        .with_stride(2)
        .with_padding(3)
        .with_name("ResNet-50 layer 1");
    let layer47 = ConvLayer::new(1, 512, 2048, 7, 7, 3, 3)
        .with_padding(1)
        .with_name("ResNet-50 layer 47");

    let channel_last_l1: Layout = "HWC_W2C3".parse().unwrap();
    let row_major: Layout = "HCW_W8".parse().unwrap();
    let channel_last_l47: Layout = "HWC_C8".parse().unwrap();

    // (id, workload, dataflow, layout) — matching the M1..M8 grid of Fig. 4.
    let d1_l1 = Dataflow::channel_parallel(shape, &layer1, 4);
    let d2_l1 = Dataflow::sliding_window_parallel(shape, &layer1, 4);
    let d1_l47 = Dataflow::channel_parallel(shape, &layer47, 4);
    let d2_l47 = Dataflow::sliding_window_parallel(shape, &layer47, 4);
    let cases: Vec<(&str, &ConvLayer, &Dataflow, &Layout)> = vec![
        ("M1", &layer1, &d1_l1, &channel_last_l1),
        ("M2", &layer1, &d2_l1, &channel_last_l1),
        ("M3", &layer1, &d1_l1, &row_major),
        ("M4", &layer1, &d2_l1, &row_major),
        ("M5", &layer47, &d1_l47, &channel_last_l47),
        ("M6", &layer47, &d2_l47, &channel_last_l47),
        ("M7", &layer47, &d1_l47, &row_major),
        ("M8", &layer47, &d2_l47, &row_major),
    ];

    let mut rows = Vec::new();
    for (id, workload, dataflow, layout) in cases {
        let a = analyze_iact_reads(workload, dataflow, layout, &conflict, 8, 0)
            .expect("Fig. 4's dataflows are valid and its buffer has one bank");
        let theoretical = dataflow.spatial_utilization();
        let practical = theoretical / a.read_slowdown;
        rows.push(vec![
            id.to_string(),
            workload.name.clone(),
            dataflow.name.clone(),
            layout.to_string(),
            format!("{:.1}", a.avg_lines_per_cycle),
            format!("{:.2}", 1.0 / a.read_slowdown),
            format!("{:.0}%", theoretical * 100.0),
            format!("{:.0}%", practical * 100.0),
        ]);
    }
    print_table(
        "Fig. 4 — (workload, dataflow, layout) interaction on a 4x4 array",
        &[
            "map",
            "workload",
            "dataflow",
            "layout",
            "lines/cycle",
            "slowdown",
            "theoretical util.",
            "practical util.",
        ],
        &rows,
    );
}
