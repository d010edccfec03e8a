//! Criterion bench: functional-simulation throughput of the FEATHER
//! accelerator (NEST + BIRRD + StaB with RIR) on a small convolution, and
//! the layer size from which sharding that loop across threads pays.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use feather::{default_threads, Feather, FeatherConfig, LayerMapping, NetworkSession};
use feather_arch::tensor::Tensor4;
use feather_arch::workload::ConvLayer;

fn bench_conv(c: &mut Criterion) {
    let layer = ConvLayer::new(1, 8, 8, 8, 8, 3, 3).with_padding(1);
    let iacts = Tensor4::random([1, 8, 8, 8], 1);
    let weights = Tensor4::random([8, 8, 3, 3], 2);
    let cfg = FeatherConfig::new(4, 8);
    let mapping = LayerMapping::weight_stationary(&layer, &cfg, "HWC_C8", "MPQ_Q8");
    let mut group = c.benchmark_group("feather_functional");
    group.sample_size(10);
    group.bench_function("conv_8x8x8_3x3_on_4x8", |b| {
        b.iter(|| {
            let mut acc = Feather::new(cfg);
            acc.execute_conv(&layer, &mapping, &iacts, &weights)
                .unwrap()
        })
    });
    group.finish();
}

/// The measurement behind `AUTO_PARALLEL_MIN_MACS` (`feather::core`): one
/// 3×3 padded conv on 16×16 — 32 output channels, so two weight tiles and a
/// work unit for each of two workers — at the smallest square input whose
/// reference-kernel MACs reach each power of two from 2^14 to 2^22. `serial`
/// is `with_threads(1)`, `sharded` requests `default_threads()` workers
/// explicitly (which overrides the threshold) and `auto` is the default,
/// which follows one or the other. The constant belongs at the smallest size
/// from which `sharded` is no slower than `serial` on the host at hand.
fn bench_sharding_crossover(c: &mut Criterion) {
    let cfg = FeatherConfig::new(16, 16);
    let mut group = c.benchmark_group("sharding_crossover");
    group.sample_size(10);
    for log2 in 14..=22u32 {
        let hw = (1usize..)
            .find(|hw| 32 * 16 * 9 * hw * hw >= 1 << log2)
            .expect("some input is large enough");
        let layer = [ConvLayer::new(1, 32, 16, hw, hw, 3, 3).with_padding(1)];
        let session = || {
            NetworkSession::weight_stationary(cfg, &layer, &["HWC_C16"], "MPQ_Q16")
                .expect("a one-layer chain is valid")
        };
        let iacts = Tensor4::random([1, 16, hw, hw], 1);
        let weights = [Tensor4::random([32, 16, 3, 3], 2)];
        for (name, session) in [
            ("serial", session().with_threads(1)),
            ("sharded", session().with_threads(default_threads())),
            ("auto", session()),
        ] {
            group.bench_function(BenchmarkId::new(name, format!("2^{log2}")), |b| {
                b.iter(|| session.run(&iacts, &weights).unwrap())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_conv, bench_sharding_crossover);
criterion_main!(benches);
