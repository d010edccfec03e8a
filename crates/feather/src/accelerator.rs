//! The FEATHER accelerator: controller + NEST + BIRRD + StaB, with RIR.

use feather_arch::tensor::Tensor4;
use feather_arch::workload::{ConvLayer, GemmLayer};
use feather_arch::ArchError;

use crate::config::FeatherConfig;
use crate::mapping::LayerMapping;
use crate::report::LayerRun;
use crate::session::NetworkSession;

/// A FEATHER accelerator instance.
///
/// See the [crate-level documentation](crate) for a usage example.
#[derive(Debug, Clone)]
pub struct Feather {
    config: FeatherConfig,
    /// Compiled BIRRD route programs, persisted across `execute_*` calls —
    /// successive layers on one accelerator replay the same reduce-reorder
    /// patterns.
    route_cache: std::sync::Arc<crate::core::RouteCache>,
}

impl Feather {
    /// Creates an accelerator with the given hardware configuration and the
    /// default TSMC-28 energy model.
    pub fn new(config: FeatherConfig) -> Self {
        Feather {
            config,
            route_cache: std::sync::Arc::new(crate::core::RouteCache::new()),
        }
    }

    /// The hardware configuration.
    pub fn config(&self) -> FeatherConfig {
        self.config
    }

    /// Executes one convolution layer functionally under the given mapping.
    ///
    /// Input activations are assumed to sit in the active StaB half in
    /// `mapping.iact_layout`; output activations are written to the other half
    /// in `mapping.oact_layout` during BIRRD reduction (RIR).
    ///
    /// This is a one-layer [`NetworkSession`], compiled and replayed like any
    /// chain, with the single layer paying both the iAct staging and the oAct
    /// drain DRAM traffic.
    ///
    /// # Errors
    /// Returns an error if the mapping is invalid for the layer/hardware, the
    /// operand shapes are wrong, or BIRRD cannot route a required
    /// reduction-reorder pattern.
    pub fn execute_conv(
        &mut self,
        layer: &ConvLayer,
        mapping: &LayerMapping,
        iacts: &Tensor4<i8>,
        weights: &Tensor4<i8>,
    ) -> Result<LayerRun, ArchError> {
        let mut session =
            NetworkSession::from_mappings(self.config, vec![(layer.clone(), mapping.clone())])?;
        session.share_route_cache(self.route_cache.clone());
        let run = session.run(iacts, std::slice::from_ref(weights))?;
        let report = run
            .report
            .layers
            .into_iter()
            .next()
            .expect("one-layer session produces one report")
            .report;
        Ok(LayerRun {
            oacts: run.oacts,
            report,
        })
    }

    /// Executes a GEMM by lowering it to a 1×1 convolution (`C = K`,
    /// `Q = N`): `A` provides the weights, `B` provides the activations.
    ///
    /// # Errors
    /// Same failure modes as [`Feather::execute_conv`].
    pub fn execute_gemm(
        &mut self,
        layer: &GemmLayer,
        a: &Tensor4<i8>,
        b: &Tensor4<i8>,
        mapping: &LayerMapping,
    ) -> Result<LayerRun, ArchError> {
        layer.validate()?;
        if a.shape() != [1, 1, layer.m, layer.k] {
            return Err(ArchError::ShapeMismatch(format!(
                "A shape {:?}, expected {:?}",
                a.shape(),
                [1, 1, layer.m, layer.k]
            )));
        }
        if b.shape() != [1, 1, layer.k, layer.n] {
            return Err(ArchError::ShapeMismatch(format!(
                "B shape {:?}, expected {:?}",
                b.shape(),
                [1, 1, layer.k, layer.n]
            )));
        }
        let conv = layer.as_conv();
        // iActs (1, K, 1, N) from B; weights (M, K, 1, 1) from A.
        let iacts = Tensor4::from_fn([1, layer.k, 1, layer.n], |_, k, _, n| b.get(0, 0, k, n));
        let weights = Tensor4::from_fn([layer.m, layer.k, 1, 1], |m, k, _, _| a.get(0, 0, m, k));
        self.execute_conv(&conv, mapping, &iacts, &weights)
    }
}

/// Checks the weight tensor shape against the layer description.
pub(crate) fn check_weight_shape(
    layer: &ConvLayer,
    weights: &Tensor4<i8>,
) -> Result<(), ArchError> {
    let expected = if layer.is_depthwise() {
        [layer.c, 1, layer.r, layer.s]
    } else {
        [layer.m, layer.c, layer.r, layer.s]
    };
    if weights.shape() != expected {
        return Err(ArchError::ShapeMismatch(format!(
            "weights shape {:?}, expected {:?}",
            weights.shape(),
            expected
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use feather_arch::tensor::{conv2d_reference, gemm_reference};

    fn check_conv(layer: ConvLayer, cfg: FeatherConfig, iact_layout: &str, oact_layout: &str) {
        let iacts = Tensor4::random([layer.n, layer.c, layer.h, layer.w], 11);
        let wshape = if layer.is_depthwise() {
            [layer.c, 1, layer.r, layer.s]
        } else {
            [layer.m, layer.c, layer.r, layer.s]
        };
        let weights = Tensor4::random(wshape, 12);
        let golden = conv2d_reference(&layer, &iacts, &weights).unwrap();
        let mapping =
            LayerMapping::weight_stationary(&layer, &cfg, iact_layout, oact_layout).unwrap();
        let mut acc = Feather::new(cfg);
        let run = acc
            .execute_conv(&layer, &mapping, &iacts, &weights)
            .unwrap();
        assert_eq!(run.oacts, golden, "functional mismatch for {layer}");
        assert!(run.report.cycles > 0);
        assert!(run.report.macs > 0);
    }

    #[test]
    fn conv_matches_reference_4x4() {
        check_conv(
            ConvLayer::new(1, 8, 8, 6, 6, 3, 3).with_padding(1),
            FeatherConfig::new(4, 4),
            "HWC_C4",
            "MPQ_Q4",
        );
    }

    #[test]
    fn conv_matches_reference_with_stride() {
        check_conv(
            ConvLayer::new(1, 4, 8, 8, 8, 3, 3)
                .with_stride(2)
                .with_padding(1),
            FeatherConfig::new(4, 8),
            "HWC_C8",
            "MPQ_Q8",
        );
    }

    #[test]
    fn conv_matches_reference_channel_tiling() {
        // C = 16 > 8 columns: two channel tiles accumulate in the output buffer.
        check_conv(
            ConvLayer::new(1, 4, 16, 5, 5, 3, 3).with_padding(1),
            FeatherConfig::new(4, 8),
            "HWC_C8",
            "MPQ_Q8",
        );
    }

    #[test]
    fn conv_matches_reference_small_channels_q_parallel() {
        // C = 2 < columns: the remaining columns carry Q parallelism, and the
        // per-fire outputs scatter to multiple banks (RIR reordering).
        check_conv(
            ConvLayer::new(1, 8, 2, 6, 6, 3, 3).with_padding(1),
            FeatherConfig::new(4, 8),
            "HWC_C2",
            "MPQ_Q8",
        );
    }

    #[test]
    fn conv_matches_reference_1x1_kernel() {
        check_conv(
            ConvLayer::new(1, 8, 8, 4, 4, 1, 1),
            FeatherConfig::new(4, 4),
            "HWC_C4",
            "MPQ_Q4",
        );
    }

    #[test]
    fn conv_matches_reference_multi_batch() {
        // N = 3: the tile loop reuses the staged weights across the batch.
        check_conv(
            ConvLayer::new(3, 4, 4, 5, 5, 3, 3).with_padding(1),
            FeatherConfig::new(4, 4),
            "HWC_C4",
            "MPQ_Q4",
        );
    }

    #[test]
    fn depthwise_conv_matches_reference() {
        check_conv(
            ConvLayer::new(1, 8, 8, 6, 6, 3, 3)
                .with_padding(1)
                .depthwise(),
            FeatherConfig::new(4, 4),
            "HWC_C4",
            "MPQ_Q4",
        );
    }

    #[test]
    fn layout_switch_is_free_of_conflicts() {
        // Channel-last iActs, row-major oActs (the Fig. 11 switch): no read
        // conflicts and no serialized BIRRD passes.
        let layer = ConvLayer::new(1, 4, 4, 6, 6, 3, 3).with_padding(1);
        let cfg = FeatherConfig::new(4, 4);
        let iacts = Tensor4::random([1, 4, 6, 6], 3);
        let weights = Tensor4::random([4, 4, 3, 3], 4);
        let mapping = LayerMapping::weight_stationary(&layer, &cfg, "HWC_C4", "MPQ_Q4").unwrap();
        let mut acc = Feather::new(cfg);
        let run = acc
            .execute_conv(&layer, &mapping, &iacts, &weights)
            .unwrap();
        assert_eq!(run.report.stall_cycles, 0);
        assert_eq!(
            run.oacts,
            conv2d_reference(&layer, &iacts, &weights).unwrap()
        );
    }

    #[test]
    fn gemm_matches_reference() {
        let layer = GemmLayer::new(8, 8, 4);
        let a = Tensor4::random([1, 1, 8, 8], 5);
        let b = Tensor4::random([1, 1, 8, 4], 6);
        let golden = gemm_reference(&layer, &a, &b).unwrap();
        let cfg = FeatherConfig::new(8, 8);
        let conv = layer.as_conv();
        let mapping = LayerMapping::weight_stationary(&conv, &cfg, "HWC_C8", "MPQ_Q8").unwrap();
        let mut acc = Feather::new(cfg);
        let run = acc.execute_gemm(&layer, &a, &b, &mapping).unwrap();
        for m in 0..8 {
            for n in 0..4 {
                assert_eq!(run.oacts.get(0, m, 0, n), golden.get(0, 0, m, n));
            }
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let layer = ConvLayer::new(1, 4, 4, 6, 6, 3, 3).with_padding(1);
        let cfg = FeatherConfig::new(4, 4);
        let mapping = LayerMapping::weight_stationary(&layer, &cfg, "HWC_C4", "MPQ_Q4").unwrap();
        let mut acc = Feather::new(cfg);
        let bad_iacts = Tensor4::random([1, 5, 6, 6], 0);
        let weights = Tensor4::random([4, 4, 3, 3], 0);
        assert!(acc
            .execute_conv(&layer, &mapping, &bad_iacts, &weights)
            .is_err());
    }

    #[test]
    fn utilization_reported_in_unit_range() {
        let layer = ConvLayer::new(1, 8, 8, 6, 6, 3, 3).with_padding(1);
        let cfg = FeatherConfig::new(4, 4);
        let iacts = Tensor4::random([1, 8, 6, 6], 3);
        let weights = Tensor4::random([8, 8, 3, 3], 4);
        let mapping = LayerMapping::weight_stationary(&layer, &cfg, "HWC_C4", "MPQ_Q4").unwrap();
        let mut acc = Feather::new(cfg);
        let run = acc
            .execute_conv(&layer, &mapping, &iacts, &weights)
            .unwrap();
        assert!(run.report.utilization > 0.0 && run.report.utilization <= 1.0);
        assert!(run.report.energy.total_pj() > 0.0);
        assert!(run.report.birrd_passes > 0);
        // The single-layer path pays the full DRAM round trip.
        assert!(run.report.dram_iact_bytes > 0);
        assert!(run.report.dram_weight_bytes > 0);
        assert!(run.report.dram_oact_bytes > 0);
    }
}
