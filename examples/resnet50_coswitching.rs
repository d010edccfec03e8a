//! Per-layer (dataflow, layout) co-switching over ResNet-50, end to end:
//!
//! 1. **Plan** — `layoutloop::plan_network` runs the memoized co-search for
//!    FEATHER and for a fixed-layout SIGMA-like design over a subset of
//!    ResNet-50, chaining each layer's chosen layout into the next layer's
//!    predecessor constraint and reporting how many searches the
//!    per-(layer-shape, arch) cache absorbed.
//! 2. **Execute** — a `feather::NetworkSession` compiles a (scaled-down)
//!    ResNet-50 bottleneck chain and replays it back-to-back through the
//!    ping/pong StaB: layer `i`'s oActs are BIRRD-reduced straight into layer
//!    `i+1`'s preferred layout in the shadow half (RIR), so the intermediate
//!    activations never touch DRAM.
//!
//! ```text
//! cargo run --release -p feather-suite --example resnet50_coswitching
//! ```

use feather::{FeatherConfig, NetworkSession};
use feather_arch::models::resnet50;
use feather_arch::tensor::Tensor4;
use feather_arch::workload::ConvLayer;
use layoutloop::arch::ArchSpec;
use layoutloop::cache::CoSearchCache;
use layoutloop::cosearch::plan_network;
use layoutloop::mapper::MapperConfig;

fn main() {
    let net = resnet50();

    // ---- 1. Plan: memoized per-layer co-search -------------------------
    // Every 6th layer keeps the example fast; use the fig13 binary for sweeps.
    let subset = feather_arch::models::Network::new(
        "resnet50_subset",
        net.layers.iter().step_by(6).cloned().collect(),
    );
    let feather_arch_spec = ArchSpec::feather_like(16, 16);
    let sigma = ArchSpec::sigma_like_fixed_layout(16, 16, "HWC_C32");
    let mapper = MapperConfig::fast();
    let mut cache = CoSearchCache::new();

    let feather_plan =
        plan_network(&feather_arch_spec, &subset, &mapper, 0, &mut cache).expect("feather plan");
    let sigma_plan = plan_network(&sigma, &subset, &mapper, 0, &mut cache).expect("sigma plan");

    println!(
        "{:<28} {:>14} {:>14} {:>10} | {:>12} {:>10}",
        "layer", "FEATHER layout", "FEATHER cycles", "util", "SIGMA cycles", "util"
    );
    let mut feather_total = 0u64;
    let mut sigma_total = 0u64;
    for (f, s) in feather_plan.per_layer.iter().zip(&sigma_plan.per_layer) {
        println!(
            "{:<28} {:>14} {:>14} {:>9.0}% | {:>12} {:>9.0}%",
            f.evaluation.layer,
            f.layout.to_string(),
            f.evaluation.cycles,
            f.evaluation.utilization * 100.0,
            s.evaluation.cycles,
            s.evaluation.utilization * 100.0,
        );
        feather_total += f.evaluation.cycles;
        sigma_total += s.evaluation.cycles;
    }
    println!(
        "\ntotal cycles: FEATHER {feather_total}, SIGMA-fixed-layout {sigma_total} ({:.2}x)",
        sigma_total as f64 / feather_total.max(1) as f64
    );
    println!(
        "co-search cache: {} unique searches, {} served from cache",
        feather_plan.cache_misses + sigma_plan.cache_misses,
        feather_plan.cache_hits + sigma_plan.cache_hits,
    );

    // ---- 2. Execute: pipelined bottleneck chain through the StaB -------
    // Take the first stride-1 bottleneck main path (1x1 reduce → 3x3 → 1x1
    // expand) from the real network graph — its segments respect the branch
    // points the flat layer list cannot see — and scale channels/spatial
    // down so the functional simulation stays fast.
    let graph = feather_arch::graph::resnet50_graph();
    let segments = graph.segments();
    let chain: Vec<ConvLayer> = segments
        .iter()
        .map(|seg| {
            seg.nodes
                .iter()
                .map(|&id| graph.node(id).execution_conv().expect("conv-like"))
                .collect::<Vec<_>>()
        })
        .find(|layers| layers.len() >= 3 && layers.iter().take(3).all(|l| l.stride == 1))
        .expect("resnet50 has a stride-1 bottleneck main path");
    let scaled: Vec<ConvLayer> = chain
        .iter()
        .take(3)
        .map(|l| {
            ConvLayer::new(
                1,
                (l.m / 16).max(1),
                (l.c / 16).max(1),
                l.h.min(14),
                l.w.min(14),
                l.r,
                l.s,
            )
            .with_padding(l.padding)
            .with_name(format!("{}_scaled", l.name))
        })
        .collect();

    let cfg = FeatherConfig::new(16, 16);
    let iact_layouts: Vec<String> = scaled
        .iter()
        .map(|l| format!("HWC_C{}", l.c.min(16)))
        .collect();
    let layout_refs: Vec<&str> = iact_layouts.iter().map(String::as_str).collect();
    let session = NetworkSession::weight_stationary(cfg, &scaled, &layout_refs, "MPQ_Q16")
        .expect("bottleneck chain maps onto FEATHER");

    let iacts = Tensor4::random([1, scaled[0].c, scaled[0].h, scaled[0].w], 42);
    let weights: Vec<Tensor4<i8>> = scaled
        .iter()
        .enumerate()
        .map(|(i, l)| Tensor4::random([l.m, l.c, l.r, l.s], 43 + i as u64))
        .collect();
    let run = session.run(&iacts, &weights).expect("pipeline executes");

    println!("\npipelined bottleneck chain ({} layers):", scaled.len());
    println!(
        "{:<34} {:>10} {:>8} {:>12} {:>12}",
        "layer", "cycles", "stalls", "MACs", "DRAM bytes"
    );
    for l in &run.report.layers {
        println!(
            "{:<34} {:>10} {:>8} {:>12} {:>12}",
            l.name,
            l.report.cycles,
            l.report.stall_cycles,
            l.report.macs,
            l.report.dram_bytes(),
        );
    }
    let report = &run.report;
    println!(
        "\nStaB swaps: {} (one per layer; the last swap publishes the outputs)",
        report.stab_swaps
    );
    println!(
        "activation DRAM traffic: pipelined {} B vs layer-at-a-time {} B ({:.0}% saved)",
        report.dram_activation_bytes(),
        report.layer_at_a_time_activation_bytes(),
        report.dram_activation_savings() * 100.0,
    );
    assert!(report.dram_activation_bytes() < report.layer_at_a_time_activation_bytes());
    println!(
        "pipeline OK (outputs verified bit-identical to the reference convolutions in the suite)"
    );
}
