//! Fig. 2: the theory-practice gap. For representative ResNet-50 and
//! MobileNet-V3 layers on a 16×16 array we report:
//!   (a) a fixed output-stationary dataflow with a fixed layout,
//!   (b) the best dataflow found while *ignoring* layout (theory),
//!   (c) that same dataflow evaluated under every candidate layout
//!       (practice: min..max range, showing the gap),
//!   (d) FEATHER's (dataflow, layout) co-switching.
//!
//! An evaluation or co-search that fails ends the run with its error.

use feather_arch::dataflow::Dataflow;
use feather_arch::layout::Layout;
use feather_arch::models::{mobilenet_v3, resnet50};
use feather_arch::workload::ConvLayer;
use feather_arch::ArchError;
use feather_bench::print_table;
use layoutloop::arch::ArchSpec;
use layoutloop::cosearch::co_search;
use layoutloop::evaluate::evaluate;
use layoutloop::mapper::{search_dataflows, MapperConfig};

fn pick_layers(net: &feather_arch::models::Network, ids: &[usize]) -> Vec<ConvLayer> {
    ids.iter()
        .filter_map(|&i| net.layers.get(i).cloned())
        .collect()
}

fn main() -> Result<(), ArchError> {
    let arch = ArchSpec::feather_like(16, 16);
    let layouts = Layout::conv_candidates();
    let mapper = MapperConfig::default();

    for (net, ids) in [
        (resnet50(), vec![0usize, 14, 41]),
        (mobilenet_v3(), vec![7usize, 25, 40]),
    ] {
        let mut rows = Vec::new();
        for layer in pick_layers(&net, &ids) {
            // (a) Fixed dataflow + fixed layout.
            let fixed_df = Dataflow::output_stationary(arch.shape, &layer);
            let fixed_layout: Layout = "HWC_C32".parse().unwrap();
            let fixed = evaluate(&arch, &layer, &fixed_df, &fixed_layout, None, 0)?.cycles;

            // (b) Best dataflow ignoring layout: pick the candidate with the
            // lowest *ideal* cycles (pure compute-utilization view).
            let candidates = search_dataflows(&arch, &layer, &mapper);
            let theory_df = candidates
                .iter()
                .min_by_key(|df| df.ideal_compute_cycles(&layer))
                .expect("candidates exist")
                .clone();
            let theory_cycles = theory_df.ideal_compute_cycles(&layer);

            // (c) That dataflow under every layout (practice range).
            let mut practice = layouts
                .iter()
                .map(|l| evaluate(&arch, &layer, &theory_df, l, None, 0).map(|e| e.cycles))
                .collect::<Result<Vec<u64>, _>>()?;
            practice.sort_unstable();
            let best_practice = *practice.first().unwrap_or(&theory_cycles);
            let worst_practice = *practice.last().unwrap_or(&theory_cycles);

            // (d) FEATHER: full (dataflow, layout) co-search.
            let feather = co_search(&arch, &layer, 0)?;

            rows.push(vec![
                layer.name.clone(),
                format!("{fixed}"),
                format!("{theory_cycles}"),
                format!("{best_practice}..{worst_practice}"),
                format!(
                    "{:.0}x",
                    worst_practice as f64 / theory_cycles.max(1) as f64
                ),
                format!("{}", feather.evaluation.cycles),
            ]);
        }
        print_table(
            &format!("Fig. 2 — theory vs practice latency gap ({})", net.name),
            &[
                "layer",
                "fixed df+layout (cycles)",
                "best df, theory",
                "best df under layouts (practice)",
                "gap",
                "FEATHER co-switch",
            ],
            &rows,
        );
    }
    Ok(())
}
