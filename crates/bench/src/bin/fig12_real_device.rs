//! Fig. 12: per-layer normalized throughput (MACs per PE per cycle) of
//! FEATHER vs Gemmini-like, Xilinx-DPU-like and Edge-TPU-like engines over
//! ResNet-50, plus the geometric-mean speedups the paper quotes
//! (3.91× / 2.65× / 4.56×). Set `FEATHER_FULL=1` for all 53 layers.

use feather_arch::models::resnet50;
use feather_baselines::devices::{device_suite, geomean_speedup, normalized_throughput_per_pe};
use feather_bench::{layer_subset, print_table};

fn main() {
    let net = resnet50();
    let layers = layer_subset(&net, 3);
    let devices = device_suite();

    let mut per_device: Vec<Vec<_>> = Vec::new();
    for arch in &devices {
        let results: Vec<_> = layers
            .iter()
            .map(|l| normalized_throughput_per_pe(arch, l, 0).expect("co-search succeeds"))
            .collect();
        per_device.push(results);
    }

    let mut rows = Vec::new();
    for (i, layer) in layers.iter().enumerate() {
        let mut row = vec![layer.name.clone()];
        for results in &per_device {
            row.push(format!("{:.3}", results[i].throughput_per_pe));
        }
        rows.push(row);
    }
    let header: Vec<&str> = std::iter::once("layer")
        .chain(devices.iter().map(|d| d.name.as_str()))
        .collect();
    print_table(
        &format!(
            "Fig. 12 — normalized throughput/PE over ResNet-50 ({} layers)",
            layers.len()
        ),
        &header,
        &rows,
    );

    let feather = &per_device[0];
    let mut summary = Vec::new();
    for (i, arch) in devices.iter().enumerate().skip(1) {
        summary.push(vec![
            format!("FEATHER vs {}", arch.name),
            format!("{:.2}x", geomean_speedup(feather, &per_device[i])),
        ]);
    }
    print_table("Fig. 12 — geomean speedups", &["pair", "speedup"], &summary);
}
