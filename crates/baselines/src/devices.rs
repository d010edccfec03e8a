//! The real-device comparison suite of Fig. 12: FEATHER vs Gemmini-like,
//! Xilinx-DPU-like and Edge-TPU-like engines on per-layer ResNet-50
//! throughput, normalized by PE count and clock (as the paper does, so
//! absolute MHz drops out of the comparison).

use feather_arch::workload::ConvLayer;
use layoutloop::arch::ArchSpec;
use layoutloop::cosearch::co_search_with;
use layoutloop::mapper::MapperConfig;
use serde::{Deserialize, Serialize};

/// Per-layer result for one device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceResult {
    /// Device name.
    pub device: String,
    /// Layer name.
    pub layer: String,
    /// Latency in cycles.
    pub cycles: u64,
    /// Normalized throughput: MACs per PE per cycle.
    pub throughput_per_pe: f64,
}

/// The four devices of Fig. 12. FEATHER first, then the baselines.
pub fn device_suite() -> Vec<ArchSpec> {
    vec![
        ArchSpec::feather_like(16, 16),
        ArchSpec::gemmini_like(),
        ArchSpec::xilinx_dpu_like(),
        ArchSpec::edge_tpu_like(),
    ]
}

/// Evaluates one layer on one device and returns the normalized throughput
/// (MACs per PE per cycle), the paper's Fig. 12 metric.
///
/// # Errors
/// Propagates co-search failures (malformed workloads).
pub fn normalized_throughput_per_pe(
    arch: &ArchSpec,
    layer: &ConvLayer,
    seed: u64,
) -> Result<DeviceResult, feather_arch::ArchError> {
    let result = co_search_with(arch, layer, None, &MapperConfig::fast(), seed)?;
    let cycles = result.evaluation.cycles.max(1);
    let throughput = layer.macs() as f64 / cycles as f64 / arch.shape.pes() as f64;
    Ok(DeviceResult {
        device: arch.name.clone(),
        layer: layer.name.clone(),
        cycles,
        throughput_per_pe: throughput,
    })
}

/// Geometric-mean speedup of `a` over `b` across paired per-layer results.
pub fn geomean_speedup(a: &[DeviceResult], b: &[DeviceResult]) -> f64 {
    assert_eq!(a.len(), b.len(), "result lists must be paired per layer");
    if a.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = a
        .iter()
        .zip(b.iter())
        .map(|(x, y)| (x.throughput_per_pe / y.throughput_per_pe.max(1e-12)).ln())
        .sum();
    (log_sum / a.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use feather_arch::models::resnet50;

    #[test]
    fn suite_has_four_devices() {
        let suite = device_suite();
        assert_eq!(suite.len(), 4);
        assert!(suite[0].name.starts_with("FEATHER"));
    }

    #[test]
    fn feather_beats_gemmini_on_low_channel_layer() {
        // ResNet-50 layer 1 (C=3) starves a fixed C-parallel systolic design.
        let layer = ConvLayer::new(1, 64, 3, 224, 224, 7, 7)
            .with_stride(2)
            .with_padding(3)
            .with_name("resnet50_conv1");
        let feather =
            normalized_throughput_per_pe(&ArchSpec::feather_like(16, 16), &layer, 0).unwrap();
        let gemmini = normalized_throughput_per_pe(&ArchSpec::gemmini_like(), &layer, 0).unwrap();
        assert!(
            feather.throughput_per_pe > gemmini.throughput_per_pe * 2.0,
            "feather {} vs gemmini {}",
            feather.throughput_per_pe,
            gemmini.throughput_per_pe
        );
    }

    #[test]
    fn throughput_per_pe_is_at_most_one() {
        let layer = ConvLayer::new(1, 256, 256, 14, 14, 3, 3)
            .with_padding(1)
            .with_name("deep");
        for arch in device_suite() {
            let r = normalized_throughput_per_pe(&arch, &layer, 0).unwrap();
            assert!(
                r.throughput_per_pe <= 1.0 + 1e-9,
                "{}: {}",
                r.device,
                r.throughput_per_pe
            );
            assert!(r.throughput_per_pe > 0.0);
        }
    }

    #[test]
    fn geomean_speedup_over_a_few_resnet_layers() {
        // Keep the test fast: first 6 conv layers only.
        let net = resnet50();
        let layers: Vec<ConvLayer> = net.layers.iter().take(6).cloned().collect();
        let feather_arch = ArchSpec::feather_like(16, 16);
        let gemmini_arch = ArchSpec::gemmini_like();
        let f: Vec<DeviceResult> = layers
            .iter()
            .map(|l| normalized_throughput_per_pe(&feather_arch, l, 0).unwrap())
            .collect();
        let g: Vec<DeviceResult> = layers
            .iter()
            .map(|l| normalized_throughput_per_pe(&gemmini_arch, l, 0).unwrap())
            .collect();
        let speedup = geomean_speedup(&f, &g);
        assert!(
            speedup >= 1.0,
            "FEATHER should not lose on geomean, got {speedup}"
        );
    }

    #[test]
    #[should_panic(expected = "paired per layer")]
    fn geomean_requires_paired_lists() {
        let a = vec![];
        let b = vec![DeviceResult {
            device: "x".into(),
            layer: "y".into(),
            cycles: 1,
            throughput_per_pe: 1.0,
        }];
        geomean_speedup(&a, &b);
    }
}
