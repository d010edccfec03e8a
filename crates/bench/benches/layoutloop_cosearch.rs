//! Criterion bench: Layoutloop evaluation and (dataflow, layout) co-search
//! throughput on a representative ResNet-50 layer, plus the memoized
//! whole-network planner (`plan_network`) with its cache-hit rate and the
//! cold whole-graph plan (`plan_graph`) the benchmark's `cold_start` pays.

use criterion::{criterion_group, criterion_main, Criterion};
use feather_arch::dataflow::Dataflow;
use feather_arch::workload::{ConvLayer, Workload};
use layoutloop::arch::ArchSpec;
use layoutloop::cache::CoSearchCache;
use layoutloop::cosearch::{co_search_with, plan_network};
use layoutloop::evaluate::evaluate;
use layoutloop::graphplan::plan_graph;
use layoutloop::mapper::MapperConfig;

fn layer() -> Workload {
    ConvLayer::new(1, 128, 256, 14, 14, 3, 3)
        .with_padding(1)
        .with_name("resnet50_mid")
        .into()
}

fn bench_evaluate(c: &mut Criterion) {
    let arch = ArchSpec::feather_like(16, 16);
    let w = layer();
    let df = Dataflow::weight_stationary(arch.shape, &w);
    let layout = "HWC_C32".parse().unwrap();
    c.bench_function("layoutloop_evaluate_one_pair", |b| {
        b.iter(|| evaluate(&arch, &w, &df, &layout, None, 0).unwrap())
    });
}

fn bench_cosearch(c: &mut Criterion) {
    let mut group = c.benchmark_group("cosearch");
    group.sample_size(10);
    let w = layer();
    for arch in [ArchSpec::feather_like(16, 16), ArchSpec::nvdla_like(16, 16)] {
        group.bench_function(arch.name.clone(), |b| {
            b.iter(|| co_search_with(&arch, &w, None, &MapperConfig::fast(), 0).unwrap())
        });
    }
    group.finish();
}

fn bench_plan_network_memoized(c: &mut Criterion) {
    // A ResNet-50 subset with heavy shape repetition: the cold plan pays the
    // unique searches, the warm plan is pure cache lookups. The hit counts
    // are printed so the memoization payoff is visible next to the timings.
    // With FEATHER_CACHE_DIR set, the cache is loaded from (and persisted
    // back to) disk, so repeated bench runs start warm across processes.
    let net = feather_arch::models::resnet50();
    let subset = feather_arch::models::Network::new(
        "resnet50_subset",
        net.layers.iter().step_by(6).cloned().collect(),
    );
    let arch = ArchSpec::feather_like(16, 16);
    let mapper = MapperConfig::fast();

    let mut reporting_cache = CoSearchCache::load_persistent();
    println!(
        "co-search cache: {} tables preloaded from FEATHER_CACHE_DIR",
        reporting_cache.table_count()
    );
    let cold = plan_network(&arch, &subset, &mapper, 0, &mut reporting_cache).unwrap();
    let warm = plan_network(&arch, &subset, &mapper, 0, &mut reporting_cache).unwrap();
    println!(
        "plan_network({}): cold {} misses / {} hits, warm {} misses / {} hits",
        subset.name, cold.cache_misses, cold.cache_hits, warm.cache_misses, warm.cache_hits
    );
    if let Err(e) = reporting_cache.save_persistent() {
        println!("cache persist failed (non-fatal): {e}");
    }

    let mut group = c.benchmark_group("plan_network");
    group.sample_size(10);
    group.bench_function("cold_cache", |b| {
        b.iter(|| {
            let mut cache = CoSearchCache::new();
            plan_network(&arch, &subset, &mapper, 0, &mut cache).unwrap()
        })
    });
    group.bench_function("warm_cache", |b| {
        b.iter(|| plan_network(&arch, &subset, &mapper, 0, &mut reporting_cache).unwrap())
    });
    group.finish();
}

fn bench_plan_graph_cold(c: &mut Criterion) {
    // Model B of the repo benchmark (`cold_start`): every table is a miss, so
    // this is the planner's share of a new model's time to first result.
    let graph = feather_arch::graph::resnet50_graph_scaled(8, 8);
    let arch = ArchSpec::feather_like(16, 16);
    let mapper = MapperConfig::fast();
    let mut group = c.benchmark_group("plan_graph");
    group.sample_size(10);
    group.bench_function("model_b_cold", |b| {
        b.iter(|| {
            let mut cache = CoSearchCache::new();
            plan_graph(&arch, &graph, &mapper, 0, &mut cache).unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_evaluate,
    bench_cosearch,
    bench_plan_network_memoized,
    bench_plan_graph_cold
);
criterion_main!(benches);
