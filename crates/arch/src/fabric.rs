//! The FEATHER fabric and how a layer maps onto it: the one description that
//! both the co-search planner and the functional simulator read.
//!
//! [`FeatherConfig`] is the array (`AH` × `AW` PEs, an `AW`-wide BIRRD and
//! `AW` StaB banks); [`LayerMapping`] is what the controller runs a layer
//! with — `M` across rows, `C` and `Q` across columns, and the iAct/oAct
//! layouts on either side of reorder-in-reduction.

use serde::{Deserialize, Serialize};

use crate::dataflow::{ArrayShape, Dataflow, ParallelDim};
use crate::dims::Dim;
use crate::layout::Layout;
use crate::workload::ConvLayer;
use crate::ArchError;

/// Hardware parameters of one FEATHER instance (Fig. 7 / Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatherConfig {
    /// Number of PE rows (`AH`).
    pub rows: usize,
    /// Number of PE columns (`AW`) — also the BIRRD width and the number of
    /// StaB banks. Must be a power of two of at least 2
    /// ([`FeatherConfig::validate`]).
    pub cols: usize,
}

impl FeatherConfig {
    /// Creates a `rows`×`cols` configuration. A layer's StaB halves are
    /// sized to its tensors, so the array shape is the whole configuration.
    ///
    /// # Panics
    /// Panics if `cols` is not a power of two of at least 2 (BIRRD
    /// requirement) or `rows` is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        let config = FeatherConfig { rows, cols };
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        config
    }

    /// Checks the array shape: both dimensions non-zero and a power-of-two
    /// width of at least 2 (BIRRD requirement: a one-column fabric has no
    /// switch, and every compile on it would fail). Sessions check it before
    /// planning, since the fields are public.
    ///
    /// # Errors
    /// [`ArchError::InvalidDataflow`] naming the violated constraint.
    pub fn validate(&self) -> Result<(), ArchError> {
        let (rows, cols) = (self.rows, self.cols);
        if rows == 0 || cols == 0 {
            return Err(ArchError::InvalidDataflow(format!(
                "array dimensions must be non-zero, got {rows}x{cols}"
            )));
        }
        if !cols.is_power_of_two() || cols < 2 {
            return Err(ArchError::InvalidDataflow(format!(
                "AW (columns / BIRRD width) must be a power of two >= 2, got {cols}"
            )));
        }
        Ok(())
    }

    /// Total number of PEs.
    pub fn num_pes(&self) -> usize {
        self.rows * self.cols
    }

    /// The 16×16 configuration used for most of the paper's evaluation.
    pub fn paper_16x16() -> Self {
        FeatherConfig::new(16, 16)
    }
}

/// The mapping of one layer onto FEATHER: output channels across PE rows,
/// input channels (and optionally output pixels) across PE columns, with the
/// iAct layout the data currently sits in and the oAct layout RIR must produce
/// for the next layer.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LayerMapping {
    /// Output channels mapped across PE rows.
    pub m_rows: usize,
    /// Input channels mapped across adjacent PE columns (the BIRRD reduction
    /// group size).
    pub c_cols: usize,
    /// Output-width positions mapped across column groups.
    pub q_cols: usize,
    /// Layout of the input activations in the StaB half being read.
    pub iact_layout: Layout,
    /// Layout the output activations are written back in (next layer's iActs).
    pub oact_layout: Layout,
}

impl LayerMapping {
    /// Builds the weight-stationary mapping used throughout the paper's
    /// walk-throughs (Fig. 9 / Fig. 11): `M` across rows, `C` across adjacent
    /// columns, remaining columns used for `Q` parallelism.
    ///
    /// # Errors
    /// Returns [`ArchError::ParseLayout`] if a layout string does not parse.
    pub fn weight_stationary(
        layer: &ConvLayer,
        config: &FeatherConfig,
        iact_layout: &str,
        oact_layout: &str,
    ) -> Result<Self, ArchError> {
        Ok(Self::weight_stationary_layouts(
            layer,
            config,
            iact_layout.parse()?,
            oact_layout.parse()?,
        ))
    }

    /// [`LayerMapping::weight_stationary`] with already-parsed layouts (the
    /// form the pipeline session uses for its derived boundary layouts).
    pub fn weight_stationary_layouts(
        layer: &ConvLayer,
        config: &FeatherConfig,
        iact_layout: Layout,
        oact_layout: Layout,
    ) -> Self {
        let m_rows = layer.m.min(config.rows).max(1);
        let c_cols = layer.c.min(config.cols).max(1);
        let q_cols = layer.output_width().min(config.cols / c_cols).max(1);
        LayerMapping {
            m_rows,
            c_cols,
            q_cols,
            iact_layout,
            oact_layout,
        }
    }

    /// Projects a co-searched [`Dataflow`] (e.g. from
    /// `layoutloop::plan_graph`) onto FEATHER's controller vocabulary: the
    /// `M` factor parallelized across rows and the `C`/`Q` factors
    /// parallelized across columns. Dimensions the controller does not
    /// parallelize (`P`, `R`, `S`) stay temporal; factors are clamped to the
    /// array and the layer.
    ///
    /// # Errors
    /// Returns [`ArchError::InvalidDataflow`] if the projected factors do not
    /// form a valid mapping for this layer/hardware.
    pub fn from_dataflow(
        layer: &ConvLayer,
        config: &FeatherConfig,
        dataflow: &Dataflow,
        iact_layout: Layout,
        oact_layout: Layout,
    ) -> Result<Self, ArchError> {
        let factor_of = |dims: &[ParallelDim], d: Dim| {
            dims.iter()
                .filter(|p| p.dim == d)
                .map(|p| p.factor)
                .product::<usize>()
                .max(1)
        };
        let m_rows = factor_of(&dataflow.row_parallel, Dim::M)
            .min(config.rows)
            .min(layer.m)
            .max(1);
        let c_cols = factor_of(&dataflow.col_parallel, Dim::C)
            .min(config.cols)
            .min(layer.c)
            .max(1);
        let q_cols = factor_of(&dataflow.col_parallel, Dim::Q)
            .min(config.cols / c_cols)
            .min(layer.output_width())
            .max(1);
        let mapping = LayerMapping {
            m_rows,
            c_cols,
            q_cols,
            iact_layout,
            oact_layout,
        };
        mapping.validate(layer, config)?;
        Ok(mapping)
    }

    /// Validates the mapping against a layer and hardware configuration.
    ///
    /// # Errors
    /// Returns [`ArchError::InvalidDataflow`] if factors are zero, exceed the
    /// array, or either layout's line is wider than the number of StaB banks
    /// (one element per bank, §III-C).
    pub fn validate(&self, layer: &ConvLayer, config: &FeatherConfig) -> Result<(), ArchError> {
        if self.m_rows == 0 || self.c_cols == 0 || self.q_cols == 0 {
            return Err(ArchError::InvalidDataflow(
                "mapping factors must be non-zero".to_string(),
            ));
        }
        if self.m_rows > config.rows {
            return Err(ArchError::InvalidDataflow(format!(
                "m_rows {} exceeds array rows {}",
                self.m_rows, config.rows
            )));
        }
        if self.c_cols * self.q_cols > config.cols {
            return Err(ArchError::InvalidDataflow(format!(
                "c_cols*q_cols = {} exceeds array columns {}",
                self.c_cols * self.q_cols,
                config.cols
            )));
        }
        if self.c_cols > layer.c || self.m_rows > layer.m {
            return Err(ArchError::InvalidDataflow(
                "spatial factors exceed workload dimensions".to_string(),
            ));
        }
        for (side, layout) in [("iAct", &self.iact_layout), ("oAct", &self.oact_layout)] {
            if layout.line_size() > config.cols {
                return Err(ArchError::InvalidDataflow(format!(
                    "{side} layout line size {} exceeds the {} StaB banks",
                    layout.line_size(),
                    config.cols
                )));
            }
        }
        Ok(())
    }

    /// The equivalent [`Dataflow`] description (for reporting and for feeding
    /// the analytic models): `M` over `m_rows` PE rows, `C` and `Q` over
    /// `c_cols · q_cols` columns of the array.
    pub fn as_dataflow(&self, config: &FeatherConfig) -> Dataflow {
        Dataflow::new(
            format!("feather-M{}xC{}xQ{}", self.m_rows, self.c_cols, self.q_cols),
            ArrayShape::new(config.rows, config.cols),
            vec![ParallelDim::new(Dim::M, self.m_rows)],
            vec![
                ParallelDim::new(Dim::C, self.c_cols),
                ParallelDim::new(Dim::Q, self.q_cols),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config() {
        let c = FeatherConfig::paper_16x16();
        assert_eq!(c.num_pes(), 256);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_cols_rejected() {
        FeatherConfig::new(4, 6);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_rejected() {
        FeatherConfig::new(0, 4);
    }

    #[test]
    fn validate_names_each_bad_shape() {
        assert_eq!(FeatherConfig::new(4, 8).validate(), Ok(()));
        for (rows, cols, what) in [
            (0, 8, "non-zero"),
            (4, 0, "non-zero"),
            (4, 12, "power of two"),
            (4, 1, "power of two >= 2"),
        ] {
            let err = FeatherConfig { rows, cols }.validate().unwrap_err();
            assert!(matches!(err, ArchError::InvalidDataflow(_)), "{err}");
            assert!(err.to_string().contains(what), "{rows}x{cols}: {err}");
        }
    }

    fn layer() -> ConvLayer {
        ConvLayer::new(1, 8, 8, 6, 6, 3, 3).with_padding(1)
    }

    #[test]
    fn weight_stationary_mapping_fits() {
        let cfg = FeatherConfig::new(4, 4);
        let m = LayerMapping::weight_stationary(&layer(), &cfg, "HWC_C4", "MPQ_Q4").unwrap();
        m.validate(&layer(), &cfg).unwrap();
        assert_eq!(m.m_rows, 4);
        assert_eq!(m.c_cols, 4);
        assert_eq!(m.q_cols, 1);
    }

    #[test]
    fn unparsable_layout_is_a_parse_error() {
        let cfg = FeatherConfig::new(4, 4);
        for (iact, oact) in [("HWC_C", "MPQ_Q4"), ("HWC_C4", "MPQ")] {
            let err = LayerMapping::weight_stationary(&layer(), &cfg, iact, oact).unwrap_err();
            assert!(matches!(err, ArchError::ParseLayout { .. }), "{err}");
        }
    }

    #[test]
    fn small_channel_layer_uses_q_parallelism() {
        let l = ConvLayer::new(1, 8, 2, 6, 6, 3, 3).with_padding(1);
        let cfg = FeatherConfig::new(4, 8);
        let m = LayerMapping::weight_stationary(&l, &cfg, "HWC_C2", "MPQ_Q8").unwrap();
        assert_eq!(m.c_cols, 2);
        assert_eq!(m.q_cols, 4);
        m.validate(&l, &cfg).unwrap();
    }

    #[test]
    fn validation_catches_oversized_factors() {
        let cfg = FeatherConfig::new(4, 4);
        let mut m = LayerMapping::weight_stationary(&layer(), &cfg, "HWC_C4", "MPQ_Q4").unwrap();
        m.c_cols = 8;
        assert!(m.validate(&layer(), &cfg).is_err());
        let mut m2 = LayerMapping::weight_stationary(&layer(), &cfg, "HWC_C4", "MPQ_Q4").unwrap();
        m2.oact_layout = "MPQ_Q8".parse().unwrap();
        assert!(m2.validate(&layer(), &cfg).is_err());
        // The StaB has `AW` one-element banks (§III-C): an eight-wide iAct
        // line does not fit four columns, though the layer has the channels.
        let m3 = LayerMapping::weight_stationary(&layer(), &cfg, "HWC_C8", "MPQ_Q4").unwrap();
        let err = m3.validate(&layer(), &cfg).unwrap_err();
        assert!(matches!(err, ArchError::InvalidDataflow(_)), "{err}");
        assert!(err.to_string().contains("iAct layout line size 8"), "{err}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(512))]

        /// Every mapping the controller can run — `m_rows ≤ min(rows, M)`,
        /// `c_cols ≤ min(cols, C)`, `q_cols ≤ min(cols / c_cols, Q)` — is a
        /// valid [`Dataflow`] and projects back onto itself.
        #[test]
        fn from_dataflow_roundtrips_every_valid_mapping(
            dims in proptest::collection::vec(1usize..=40, 3),
            kernel in 1usize..=3,
            shape in proptest::collection::vec(0usize..5, 2),
            picks in proptest::collection::vec(0usize..1000, 3),
        ) {
            let l = ConvLayer::new(1, dims[0], dims[1], dims[2], dims[2], kernel, kernel)
                .with_padding(kernel / 2);
            let cfg = FeatherConfig::new(1 + 3 * shape[0], 2 << shape[1]);
            let q = l.output_width();
            let m_rows = 1 + picks[0] % cfg.rows.min(l.m);
            let c_cols = 1 + picks[1] % cfg.cols.min(l.c);
            let q_cols = 1 + picks[2] % (cfg.cols / c_cols).min(q);
            let iact_layout: Layout = format!("HWC_C{}", l.c.min(cfg.cols)).parse().unwrap();
            let oact_layout: Layout = format!("MPQ_Q{}", q.min(cfg.cols)).parse().unwrap();
            let m = LayerMapping {
                m_rows,
                c_cols,
                q_cols,
                iact_layout: iact_layout.clone(),
                oact_layout: oact_layout.clone(),
            };
            let df = m.as_dataflow(&cfg);
            proptest::prop_assert_eq!(df.validate(), Ok(()));
            let projected = LayerMapping::from_dataflow(&l, &cfg, &df, iact_layout, oact_layout);
            proptest::prop_assert_eq!(projected, Ok(m));
        }
    }

    #[test]
    fn from_dataflow_clamps_foreign_parallelism() {
        // A dataflow parallelizing P across columns projects to a plain
        // M-rows mapping with unit column factors.
        let cfg = FeatherConfig::new(4, 4);
        let l = layer();
        let df = Dataflow::new(
            "p-parallel",
            ArrayShape::new(4, 4),
            vec![ParallelDim::new(Dim::M, 4)],
            vec![ParallelDim::new(Dim::P, 4)],
        );
        let m = LayerMapping::from_dataflow(
            &l,
            &cfg,
            &df,
            "HWC_C4".parse().unwrap(),
            "MPQ_Q4".parse().unwrap(),
        )
        .unwrap();
        assert_eq!(m.m_rows, 4);
        assert_eq!(m.c_cols, 1);
        assert_eq!(m.q_cols, 1);
    }

    #[test]
    fn as_dataflow_is_valid() {
        let cfg = FeatherConfig::new(4, 4);
        let l = layer();
        let m = LayerMapping::weight_stationary(&l, &cfg, "HWC_C4", "MPQ_Q4").unwrap();
        let df = m.as_dataflow(&cfg);
        df.validate().unwrap();
        assert_eq!(df.spatial_reduction_size(), 4);
        // M and C unrolled four ways, Q one way: the rest is iterated.
        let nest: Vec<_> = df.temporal(&l).collect();
        let expected = [
            (Dim::M, 2),
            (Dim::C, 2),
            (Dim::P, 6),
            (Dim::Q, 6),
            (Dim::R, 3),
            (Dim::S, 3),
        ];
        assert_eq!(nest, expected);
    }
}
