//! Fig. 13: normalized latency and energy (pJ/MAC) of every design on BERT,
//! ResNet-50 and MobileNet-V3 via Layoutloop, with utilization, bank-conflict
//! stall and off-chip-reorder cost breakdowns. Results are normalized to
//! FEATHER (= 1.0), lower is better. Set `FEATHER_FULL=1` for all layers.

use feather_arch::models::{bert_base, mobilenet_v3, resnet50, Network};
use feather_arch::ArchError;
use feather_baselines::suite::{fig13_bert_suite, fig13_suite};
use feather_bench::{layer_subset, print_table};
use layoutloop::cosearch::{plan_network, summarize};
use layoutloop::mapper::MapperConfig;
use layoutloop::CoSearchCache;

fn main() -> Result<(), ArchError> {
    let mapper = MapperConfig::fast();
    let ablate_rir = std::env::args().any(|a| a == "--ablate-rir");
    // One memo for every design and network: a table is keyed by the whole
    // design spec, so a shape repeated within or across networks is searched
    // once per design.
    let mut cache = CoSearchCache::new();

    for (net, stride, suite) in [
        (bert_base(), 30, fig13_bert_suite(16, 16)),
        (resnet50(), 4, fig13_suite(16, 16)),
        (mobilenet_v3(), 4, fig13_suite(16, 16)),
    ] {
        let layers = Network::new(net.name.clone(), layer_subset(&net, stride));
        let mut rows = Vec::new();
        let mut all = Vec::new();
        for entry in &suite {
            let mut arch = entry.arch.clone();
            if ablate_rir && entry.label == "FEATHER" {
                // Ablation: FEATHER forced to reorder after reduction instead
                // of inside it (exposes the hidden latency RIR removes).
                arch.reorder = layoutloop::arch::ReorderCapability::Transpose;
                arch.name = "FEATHER (RAR ablation)".to_string();
            }
            // A layer with no valid pair fails the figure, naming it.
            let plan = plan_network(&arch, &layers, &mapper, 0, &mut cache)?;
            all.push((entry, summarize(&layers, &plan.per_layer)));
        }
        let feather = all
            .iter()
            .find(|(e, _)| e.label == "FEATHER")
            .map(|(_, t)| *t)
            .expect("suite contains FEATHER");
        for (entry, t) in &all {
            rows.push(vec![
                entry.label.clone(),
                entry.layout_note.clone(),
                format!(
                    "{:.2}x",
                    t.total_cycles as f64 / feather.total_cycles.max(1) as f64
                ),
                format!("{:.2}x", t.pj_per_mac / feather.pj_per_mac.max(1e-12)),
                format!("{:.0}%", t.avg_utilization * 100.0),
                format!(
                    "{:.1}%",
                    100.0 * t.total_stall_cycles as f64 / t.total_cycles.max(1) as f64
                ),
                format!(
                    "{:.1}%",
                    100.0 * t.total_reorder_cycles as f64 / t.total_cycles.max(1) as f64
                ),
            ]);
        }
        print_table(
            &format!("Fig. 13 — {} ({} layers)", net.name, layers.len()),
            &[
                "design",
                "layout/reorder",
                "norm. latency",
                "norm. pJ/MAC",
                "utilization",
                "stall",
                "reorder",
            ],
            &rows,
        );
    }
    Ok(())
}
