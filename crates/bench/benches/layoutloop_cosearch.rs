//! Criterion bench: Layoutloop evaluation and (dataflow, layout) co-search
//! throughput on a representative ResNet-50 layer, plus the memoized
//! whole-network planner (`plan_network`) with its cache-hit rate and the
//! cold whole-graph plan (`plan_graph`) the benchmark's `cold_start` pays.

use criterion::{criterion_group, criterion_main, Criterion};
use feather_arch::dataflow::Dataflow;
use feather_arch::workload::{ConvLayer, Workload};
use layoutloop::arch::ArchSpec;
use layoutloop::cache::CoSearchCache;
use layoutloop::cosearch::{co_search_with, plan_network, plan_network_with, PlanParallelism};
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

fn bench_plan_parallelism(c: &mut Criterion) {
    // Layer-parallel table computation vs the sequential baseline, on a
    // denser ResNet-50 subset (more distinct shapes → more overlap to win).
    // Both strategies produce the identical plan — tables are
    // predecessor-independent — so this is a pure throughput comparison.
    let net = feather_arch::models::resnet50();
    let subset = feather_arch::models::Network::new(
        "resnet50_dense_subset",
        net.layers.iter().step_by(3).cloned().collect(),
    );
    let arch = ArchSpec::feather_like(16, 16);
    let mapper = MapperConfig::fast();

    let time_with = |parallelism: PlanParallelism| {
        let mut cache = CoSearchCache::new();
        let start = std::time::Instant::now();
        let plan = plan_network_with(&arch, &subset, &mapper, 0, &mut cache, parallelism).unwrap();
        (start.elapsed(), plan)
    };
    let (t_seq, plan_seq) = time_with(PlanParallelism::Sequential);
    let (t_par, plan_par) = time_with(PlanParallelism::Scoped);
    assert_eq!(plan_seq.per_layer, plan_par.per_layer);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "plan_network({}, {} layers, {} distinct shapes): sequential {t_seq:.2?} vs \
         scoped-threads {t_par:.2?} — {:.2}x speedup on {cores} core(s); identical plans",
        subset.name,
        subset.len(),
        plan_seq.cache_misses,
        t_seq.as_secs_f64() / t_par.as_secs_f64().max(1e-9),
    );

    let mut group = c.benchmark_group("plan_network_parallelism");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| time_with(PlanParallelism::Sequential).1)
    });
    group.bench_function("scoped_threads", |b| {
        b.iter(|| time_with(PlanParallelism::Scoped).1)
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_evaluate,
    bench_cosearch,
    bench_plan_network_memoized,
    bench_plan_graph_cold,
    bench_plan_parallelism
);
criterion_main!(benches);
