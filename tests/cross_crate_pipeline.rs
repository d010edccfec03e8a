//! Cross-crate integration: the analytic Layoutloop model and the functional
//! FEATHER simulator must agree on the qualitative behaviour of the same
//! (layer, dataflow, layout) choices, and the full evaluation pipeline
//! (models → mapper → evaluator → summaries) must hold its invariants.

use feather_arch::models::{bert_base, mobilenet_v3, resnet50, Network};
use feather_arch::workload::ConvLayer;
use feather_baselines::suite::{fig13_bert_suite, fig13_suite};
use layoutloop::arch::ArchSpec;
use layoutloop::cosearch::{co_search_with, plan_network, summarize, CoSearchResult};
use layoutloop::mapper::MapperConfig;
use layoutloop::CoSearchCache;

#[test]
fn feather_never_loses_to_fixed_layout_designs_on_edp() {
    // On a mix of ResNet-50-shaped layers, FEATHER's co-searched EDP is at
    // least as good as every fixed-layout design in the Fig. 13 suite.
    let layers = [
        ConvLayer::new(1, 64, 3, 112, 112, 7, 7)
            .with_stride(2)
            .with_padding(3),
        ConvLayer::new(1, 128, 256, 14, 14, 3, 3).with_padding(1),
        ConvLayer::new(1, 512, 2048, 7, 7, 1, 1),
    ];
    let mapper = MapperConfig::fast();
    for layer in layers {
        let feather =
            co_search_with(&ArchSpec::feather_like(16, 16), &layer, None, &mapper, 0).unwrap();
        for entry in fig13_suite(16, 16) {
            if entry.label == "FEATHER" {
                continue;
            }
            if let Ok(base) = co_search_with(&entry.arch, &layer, None, &mapper, 0) {
                assert!(
                    feather.evaluation.edp <= base.evaluation.edp * 1.05,
                    "{} beats FEATHER on {layer}: {} vs {}",
                    entry.arch.name,
                    base.evaluation.edp,
                    feather.evaluation.edp
                );
            }
        }
    }
}

#[test]
fn network_level_summaries_are_consistent() {
    // Small subsets of two real networks, full chain through the co-search.
    for net in [resnet50(), mobilenet_v3()] {
        let subset = feather_arch::models::Network::new(
            format!("{}_subset", net.name),
            net.layers.iter().step_by(12).cloned().collect(),
        );
        let arch = ArchSpec::feather_like(16, 16);
        let plan = plan_network(
            &arch,
            &subset,
            &MapperConfig::fast(),
            0,
            &mut CoSearchCache::new(),
        );
        let results = plan.unwrap().per_layer;
        assert_eq!(results.len(), subset.len());
        let summary = summarize(&subset, &results);
        assert!(summary.total_cycles > 0);
        assert!(summary.pj_per_mac > 0.0);
        assert!(
            summary.avg_utilization > 0.3,
            "FEATHER utilization too low: {summary:?}"
        );
        // RIR: layout switching must never show up as reorder latency.
        assert_eq!(summary.total_reorder_cycles, 0);
        // Concordant layouts: no conflict stalls either.
        assert_eq!(summary.total_stall_cycles, 0);
    }
}

#[test]
fn fixed_dataflow_designs_report_lower_utilization_on_shallow_layers() {
    // The qualitative Fig. 12/13 driver: on the C=3 stem layer, fixed
    // C-parallel designs cannot fill their arrays while FEATHER can.
    let stem = ConvLayer::new(1, 64, 3, 224, 224, 7, 7)
        .with_stride(2)
        .with_padding(3);
    let mapper = MapperConfig::fast();
    let feather = co_search_with(&ArchSpec::feather_like(16, 16), &stem, None, &mapper, 0).unwrap();
    let nvdla = co_search_with(&ArchSpec::nvdla_like(16, 16), &stem, None, &mapper, 0).unwrap();
    assert!(feather.evaluation.utilization > 0.8);
    assert!(nvdla.evaluation.utilization < 0.3);
    assert!(nvdla.evaluation.cycles > feather.evaluation.cycles * 2);
}

/// `plan_network` is the one planner of a flat network, and Fig. 13 plans
/// every design through one shared cache. Its reference is the plain chain:
/// each layer co-searched on its own by `co_search_with`, with the layout
/// the previous layer chose as its predecessor. On small subsets of the
/// three Fig. 13 networks, for every design of both suites, the memoized
/// plan must return exactly that chain, layer for layer, and `summarize`
/// must total it field by field.
#[test]
fn plan_network_with_a_shared_cache_equals_the_chained_co_search() {
    let mapper = MapperConfig::fast();
    let subset = |net: Network, stride: usize| {
        let layers = net.layers.iter().step_by(stride).take(4).cloned();
        Network::new(format!("{}_subset", net.name), layers.collect())
    };
    let mut cache = CoSearchCache::new();
    for (net, suite) in [
        (subset(bert_base(), 30), fig13_bert_suite(16, 16)),
        (subset(resnet50(), 13), fig13_suite(16, 16)),
        (subset(mobilenet_v3(), 11), fig13_suite(16, 16)),
    ] {
        assert!(net.len() >= 2, "{} is not a chain", net.name);
        for entry in &suite {
            let arch = &entry.arch;
            let mut prev = None;
            let chained: Vec<CoSearchResult> = net
                .iter()
                .map(|layer| {
                    let result = co_search_with(arch, layer, prev.as_ref(), &mapper, 0).unwrap();
                    prev = Some(result.layout.clone());
                    result
                })
                .collect();
            let plan = plan_network(arch, &net, &mapper, 0, &mut cache).unwrap();
            assert_eq!(plan.per_layer, chained, "{} on {}", arch.name, net.name);

            let summary = summarize(&net, &plan.per_layer);
            let evals = || chained.iter().map(|r| &r.evaluation);
            let macs: u64 = net.iter().map(|l| l.macs()).sum();
            let energy: f64 = evals().map(|e| e.energy.total_pj()).sum();
            let weighted: f64 = evals()
                .zip(net.iter())
                .map(|(e, l)| e.utilization * l.macs() as f64)
                .sum();
            assert_eq!(summary.total_cycles, evals().map(|e| e.cycles).sum::<u64>());
            assert_eq!(summary.total_energy_pj, energy);
            assert_eq!(summary.pj_per_mac, energy / macs as f64);
            assert_eq!(summary.avg_utilization, weighted / macs as f64);
            assert_eq!(
                summary.total_stall_cycles,
                evals().map(|e| e.stall_cycles).sum::<u64>()
            );
            assert_eq!(
                summary.total_reorder_cycles,
                evals().map(|e| e.reorder_cycles).sum::<u64>()
            );
        }
    }
}
