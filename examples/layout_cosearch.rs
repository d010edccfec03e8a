//! Explore the (dataflow, layout) space for a single layer: evaluate every
//! layout candidate with the best dataflow found under it and print the EDP
//! landscape, demonstrating why layout must be part of the search (§II-C,
//! insight 3).
//!
//! ```text
//! cargo run -p feather-bench --example layout_cosearch
//! ```

use feather_arch::layout::Layout;
use feather_arch::workload::ConvLayer;
use layoutloop::arch::ArchSpec;
use layoutloop::cosearch::co_search_with;
use layoutloop::mapper::MapperConfig;

fn main() {
    // ResNet-50's first layer: tiny channel count, large spatial extent — the
    // classic case where the "obvious" channel-packed layout is a poor fit.
    let layer = ConvLayer::new(1, 64, 3, 224, 224, 7, 7)
        .with_stride(2)
        .with_padding(3)
        .with_name("resnet50_conv1")
        .into();

    println!(
        "{:<14} {:>12} {:>12} {:>10} {:>14}",
        "layout", "cycles", "pJ/MAC", "util", "EDP (norm.)"
    );
    let mut results = Vec::new();
    for layout in Layout::conv_candidates() {
        let mut arch = ArchSpec::feather_like(16, 16);
        arch.layouts = vec![layout.clone()];
        let r = co_search_with(&arch, &layer, None, &MapperConfig::fast(), 0).expect("co-search");
        results.push((layout, r));
    }
    let best_edp = results
        .iter()
        .map(|(_, r)| r.evaluation.edp)
        .fold(f64::INFINITY, f64::min);
    results.sort_by(|a, b| a.1.evaluation.edp.total_cmp(&b.1.evaluation.edp));
    for (layout, r) in &results {
        println!(
            "{:<14} {:>12} {:>12.2} {:>9.0}% {:>14.2}",
            layout.to_string(),
            r.evaluation.cycles,
            r.evaluation.pj_per_mac(layer.macs()),
            r.evaluation.utilization * 100.0,
            r.evaluation.edp / best_edp
        );
    }
    println!(
        "\nbest layout for this layer: {} (dataflow: {})",
        results[0].0, results[0].1.dataflow.name
    );
}
