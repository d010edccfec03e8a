//! Criterion bench: functional-simulation throughput of the FEATHER
//! accelerator (NEST + BIRRD + StaB with RIR) on a small convolution.

use criterion::{criterion_group, criterion_main, Criterion};
use feather::{Feather, FeatherConfig, LayerMapping};
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

criterion_group!(benches, bench_conv);
criterion_main!(benches);
