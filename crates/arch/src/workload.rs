//! Convolution and GEMM workload descriptions.
//!
//! A [`ConvLayer`] carries the seven convolution dimensions of Fig. 1 plus
//! stride/padding/grouping, and the derived quantities (output sizes, MAC
//! counts, per-operand footprints) that the cost models and simulators
//! consume: it is the one layer type of the planner and the machine. A
//! [`GemmLayer`] carries the `(M, K, N)` triple used for the BERT evaluation
//! and the irregular-GEMM study (Fig. 10), and reaches both as a 1×1
//! convolution: [`GemmLayer::as_conv`] streams `B`,
//! [`GemmLayer::as_activation_conv`] streams `A`.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::dims::{DataType, Dim, Operand};
use crate::error::ArchError;

/// Kind of convolution layer, affecting how channels map onto the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConvKind {
    /// Standard (dense) convolution.
    Standard,
    /// Depthwise convolution: each input channel convolved with its own filter
    /// (`groups == C`, `M == C`).
    Depthwise,
    /// Pointwise (1×1) convolution.
    Pointwise,
}

/// A single convolution layer.
///
/// # Example
/// ```
/// use feather_arch::workload::ConvLayer;
/// let l = ConvLayer::new(1, 64, 3, 224, 224, 7, 7).with_stride(2).with_padding(3);
/// assert_eq!(l.output_height(), 112);
/// assert_eq!(l.output_width(), 112);
/// assert_eq!(l.macs(), 1 * 64 * 3 * 112 * 112 * 7 * 7);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvLayer {
    /// Optional human-readable name (e.g. `"resnet50_conv1"`).
    pub name: String,
    /// Batch size.
    pub n: usize,
    /// Number of output channels (kernels).
    pub m: usize,
    /// Number of input channels.
    pub c: usize,
    /// Input activation height.
    pub h: usize,
    /// Input activation width.
    pub w: usize,
    /// Kernel height.
    pub r: usize,
    /// Kernel width.
    pub s: usize,
    /// Convolution stride (same in both spatial dimensions).
    pub stride: usize,
    /// Zero padding (same on all four sides).
    pub padding: usize,
    /// Kind of convolution (standard / depthwise / pointwise).
    pub kind: ConvKind,
}

impl ConvLayer {
    /// Creates a standard convolution with stride 1 and no padding.
    pub fn new(n: usize, m: usize, c: usize, h: usize, w: usize, r: usize, s: usize) -> Self {
        ConvLayer {
            name: String::new(),
            n,
            m,
            c,
            h,
            w,
            r,
            s,
            stride: 1,
            padding: 0,
            kind: if r == 1 && s == 1 {
                ConvKind::Pointwise
            } else {
                ConvKind::Standard
            },
        }
    }

    /// Sets the layer name (builder style).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the stride (builder style).
    pub fn with_stride(mut self, stride: usize) -> Self {
        self.stride = stride;
        self
    }

    /// Sets the padding (builder style).
    pub fn with_padding(mut self, padding: usize) -> Self {
        self.padding = padding;
        self
    }

    /// Marks this layer as a depthwise convolution (`M == C`, one filter per channel).
    pub fn depthwise(mut self) -> Self {
        self.kind = ConvKind::Depthwise;
        self
    }

    /// Validates that all dimensions are non-zero and the output is non-empty.
    ///
    /// # Errors
    /// Returns [`ArchError::InvalidWorkload`] if any dimension is zero, the
    /// stride is zero, or the padded input is smaller than the kernel.
    pub fn validate(&self) -> Result<(), ArchError> {
        let fields = [
            ("N", self.n),
            ("M", self.m),
            ("C", self.c),
            ("H", self.h),
            ("W", self.w),
            ("R", self.r),
            ("S", self.s),
            ("stride", self.stride),
        ];
        for (name, v) in fields {
            if v == 0 {
                return Err(ArchError::InvalidWorkload(format!(
                    "dimension {name} of layer `{}` is zero",
                    self.name
                )));
            }
        }
        if self.h + 2 * self.padding < self.r || self.w + 2 * self.padding < self.s {
            return Err(ArchError::InvalidWorkload(format!(
                "padded input ({}x{}) smaller than kernel ({}x{}) in layer `{}`",
                self.h + 2 * self.padding,
                self.w + 2 * self.padding,
                self.r,
                self.s,
                self.name
            )));
        }
        if self.kind == ConvKind::Depthwise && self.m != self.c {
            return Err(ArchError::InvalidWorkload(format!(
                "depthwise layer `{}` must have M == C (got M={}, C={})",
                self.name, self.m, self.c
            )));
        }
        Ok(())
    }

    /// Output activation height `P`.
    pub fn output_height(&self) -> usize {
        (self.h + 2 * self.padding - self.r) / self.stride + 1
    }

    /// Output activation width `Q`.
    pub fn output_width(&self) -> usize {
        (self.w + 2 * self.padding - self.s) / self.stride + 1
    }

    /// Size of a dimension by name (input dims `H`/`W` are the raw input sizes;
    /// `P`/`Q` are the derived output sizes).
    pub fn dim(&self, dim: Dim) -> usize {
        match dim {
            Dim::N => self.n,
            Dim::M => self.m,
            Dim::C => self.c,
            Dim::P => self.output_height(),
            Dim::Q => self.output_width(),
            Dim::R => self.r,
            Dim::S => self.s,
            Dim::H => self.h,
            Dim::W => self.w,
        }
    }

    /// All dimension sizes as a map (useful for mappers iterating over dims).
    pub fn dim_sizes(&self) -> BTreeMap<Dim, usize> {
        Dim::ALL.iter().map(|&d| (d, self.dim(d))).collect()
    }

    /// Total number of multiply-accumulate operations.
    pub fn macs(&self) -> u64 {
        let channel_macs = match self.kind {
            ConvKind::Depthwise => self.c as u64,
            _ => self.c as u64 * self.m as u64,
        };
        self.n as u64
            * channel_macs
            * self.output_height() as u64
            * self.output_width() as u64
            * self.r as u64
            * self.s as u64
    }

    /// Number of elements in one operand tensor.
    pub fn operand_elems(&self, operand: Operand) -> u64 {
        match operand {
            Operand::IActs => (self.n * self.c * self.h * self.w) as u64,
            Operand::Weights => match self.kind {
                ConvKind::Depthwise => (self.c * self.r * self.s) as u64,
                _ => (self.m * self.c * self.r * self.s) as u64,
            },
            Operand::OActs => (self.n * self.m * self.output_height() * self.output_width()) as u64,
        }
    }

    /// Footprint of one operand tensor in bytes for the given precision.
    pub fn operand_bytes(&self, operand: Operand, dtype: DataType) -> u64 {
        self.operand_elems(operand) * dtype.bytes() as u64
    }

    /// Returns `true` if this is a depthwise layer.
    pub fn is_depthwise(&self) -> bool {
        self.kind == ConvKind::Depthwise
    }

    /// iAct tensor extents as a dimension map: `(N, C, H, W)`.
    pub fn iact_dim_sizes(&self) -> BTreeMap<Dim, usize> {
        [
            (Dim::N, self.n),
            (Dim::C, self.c),
            (Dim::H, self.h),
            (Dim::W, self.w),
        ]
        .into_iter()
        .collect()
    }

    /// oAct tensor extents as a dimension map: `(N, M, P, Q)`.
    pub fn oact_dim_sizes(&self) -> BTreeMap<Dim, usize> {
        [
            (Dim::N, self.n),
            (Dim::M, self.m),
            (Dim::P, self.output_height()),
            (Dim::Q, self.output_width()),
        ]
        .into_iter()
        .collect()
    }

    /// Returns `true` if this layer's output tensor is exactly the input
    /// tensor of `next`: same batch, output channels match input channels, and
    /// the output spatial extents match the next input extents. Consecutive
    /// layers satisfying this can execute back-to-back on FEATHER's ping/pong
    /// StaB without any off-chip round trip.
    pub fn chains_into(&self, next: &ConvLayer) -> bool {
        self.n == next.n
            && self.m == next.c
            && self.output_height() == next.h
            && self.output_width() == next.w
    }

    /// Returns a copy of the layer with the batch size replaced.
    pub fn with_batch(mut self, n: usize) -> Self {
        self.n = n;
        self
    }
}

impl fmt::Display for ConvLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[N{} M{} C{} H{} W{} R{} S{} s{} p{}]",
            if self.name.is_empty() {
                "conv"
            } else {
                &self.name
            },
            self.n,
            self.m,
            self.c,
            self.h,
            self.w,
            self.r,
            self.s,
            self.stride,
            self.padding
        )
    }
}

/// A GEMM workload `O[M][N] = Σ_K A[M][K] · B[K][N]`.
///
/// The paper maps GEMM onto the convolution vocabulary by treating `K` as the
/// reduction dimension `C` and `N` as the output-width dimension `Q`.
///
/// # Example
/// ```
/// use feather_arch::workload::GemmLayer;
/// let g = GemmLayer::new(8, 8, 4);
/// assert_eq!(g.macs(), 8 * 8 * 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GemmLayer {
    /// Optional human-readable name.
    pub name: String,
    /// Rows of the output (and of `A`).
    pub m: usize,
    /// Contraction dimension.
    pub k: usize,
    /// Columns of the output (and of `B`).
    pub n: usize,
}

impl GemmLayer {
    /// Creates a GEMM workload.
    pub fn new(m: usize, k: usize, n: usize) -> Self {
        GemmLayer {
            name: String::new(),
            m,
            k,
            n,
        }
    }

    /// Sets the layer name (builder style).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Validates that all dimensions are non-zero.
    ///
    /// # Errors
    /// Returns [`ArchError::InvalidWorkload`] if any of `M`, `K`, `N` is zero.
    pub fn validate(&self) -> Result<(), ArchError> {
        for (name, v) in [("M", self.m), ("K", self.k), ("N", self.n)] {
            if v == 0 {
                return Err(ArchError::InvalidWorkload(format!(
                    "GEMM dimension {name} of `{}` is zero",
                    self.name
                )));
            }
        }
        Ok(())
    }

    /// Total number of multiply-accumulate operations.
    pub fn macs(&self) -> u64 {
        self.m as u64 * self.k as u64 * self.n as u64
    }

    /// Lowers the GEMM into the 1×1 convolution that *streams `B`*: `M` on
    /// the output channels, `K` the input-channel reduction (`C = K`), and the
    /// `N` columns of `B` along the output width (`W = Q = N`), with `A` as
    /// the stationary `[M, K, 1, 1]` filters. This is how a GEMM of a flat
    /// network ([`crate::models`]: the FC layers of Fig. 13's CNNs and every
    /// BERT GEMM) reaches the planner, and how `Feather::execute_gemm` runs
    /// one. The layer keeps the GEMM's name.
    pub fn as_conv(&self) -> ConvLayer {
        ConvLayer::new(1, self.m, self.k, 1, self.n, 1, 1).with_name(self.name.clone())
    }

    /// Lowers the GEMM into the 1×1 convolution that *streams `A`*: the rows
    /// of `A` (`M × K`) become output-width positions (`W = M`), `K` becomes
    /// the input-channel reduction, and `Bᵀ` provides the stationary filters
    /// (an `[N, K, 1, 1]` weight tensor). Unlike [`GemmLayer::as_conv`]
    /// (which streams `B`), this form lets a GEMM node in a model graph chain
    /// from its producer's activations through the StaB like any convolution:
    /// a `(1, K, 1, M)` activation tensor in, a `(1, N, 1, M)` tensor out.
    /// It is the graph's orientation
    /// ([`Node::execution_conv`](crate::graph::Node::execution_conv)), so a
    /// network's FC layer is priced streaming `B` in its flat form and
    /// streaming `A` in its graph.
    pub fn as_activation_conv(&self) -> ConvLayer {
        ConvLayer::new(1, self.n, self.k, 1, self.m, 1, 1).with_name(if self.name.is_empty() {
            "gemm_as_activation_conv".to_string()
        } else {
            self.name.clone()
        })
    }
}

impl fmt::Display for GemmLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[M{} K{} N{}]",
            if self.name.is_empty() {
                "gemm"
            } else {
                &self.name
            },
            self.m,
            self.k,
            self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet_layer1_output_dims() {
        let l = ConvLayer::new(1, 64, 3, 224, 224, 7, 7)
            .with_stride(2)
            .with_padding(3);
        assert_eq!(l.output_height(), 112);
        assert_eq!(l.output_width(), 112);
        l.validate().unwrap();
    }

    #[test]
    fn resnet_layer47_like_dims() {
        // ResNet-50 layer 47 per Fig. 4: C=2048, H=W=7, R=S=3 (projection-style shape),
        // stride 1, padding 1.
        let l = ConvLayer::new(1, 512, 2048, 7, 7, 3, 3).with_padding(1);
        assert_eq!(l.output_height(), 7);
        assert_eq!(l.output_width(), 7);
    }

    #[test]
    fn mac_count_depthwise_vs_standard() {
        let std = ConvLayer::new(1, 32, 32, 16, 16, 3, 3).with_padding(1);
        let dw = ConvLayer::new(1, 32, 32, 16, 16, 3, 3)
            .with_padding(1)
            .depthwise();
        assert_eq!(std.macs(), dw.macs() * 32);
    }

    #[test]
    fn zero_dim_rejected() {
        let l = ConvLayer::new(1, 0, 3, 8, 8, 3, 3);
        assert!(l.validate().is_err());
        let g = GemmLayer::new(4, 0, 4);
        assert!(g.validate().is_err());
    }

    #[test]
    fn kernel_larger_than_input_rejected() {
        let l = ConvLayer::new(1, 8, 8, 2, 2, 5, 5);
        assert!(l.validate().is_err());
        // ... but fine with padding.
        let l = ConvLayer::new(1, 8, 8, 2, 2, 5, 5).with_padding(2);
        l.validate().unwrap();
    }

    #[test]
    fn depthwise_requires_matching_channels() {
        let bad = ConvLayer::new(1, 16, 32, 8, 8, 3, 3).depthwise();
        assert!(bad.validate().is_err());
        let good = ConvLayer::new(1, 32, 32, 8, 8, 3, 3).depthwise();
        good.validate().unwrap();
    }

    #[test]
    fn chains_into_checks_shape_compatibility() {
        let l1 = ConvLayer::new(1, 64, 3, 56, 56, 3, 3).with_padding(1);
        let l2 = ConvLayer::new(1, 128, 64, 56, 56, 1, 1);
        assert!(l1.chains_into(&l2));
        // Channel mismatch.
        assert!(!l2.chains_into(&l1));
        // Spatial mismatch (stride halves the map).
        let strided = ConvLayer::new(1, 64, 3, 56, 56, 3, 3)
            .with_stride(2)
            .with_padding(1);
        assert!(!strided.chains_into(&l2));
        let down = ConvLayer::new(1, 128, 64, 28, 28, 1, 1);
        assert!(strided.chains_into(&down));
        // Batch mismatch.
        assert!(!l1.chains_into(&l2.clone().with_batch(2)));
    }

    #[test]
    fn operand_dim_size_maps() {
        let l = ConvLayer::new(2, 16, 8, 10, 10, 3, 3).with_padding(1);
        let i = l.iact_dim_sizes();
        assert_eq!(i[&Dim::N], 2);
        assert_eq!(i[&Dim::C], 8);
        let o = l.oact_dim_sizes();
        assert_eq!(o[&Dim::M], 16);
        assert_eq!(o[&Dim::P], 10);
    }

    #[test]
    fn operand_footprints() {
        let l = ConvLayer::new(2, 16, 8, 10, 10, 3, 3).with_padding(1);
        assert_eq!(l.operand_elems(Operand::IActs), 2 * 8 * 10 * 10);
        assert_eq!(l.operand_elems(Operand::Weights), 16 * 8 * 3 * 3);
        assert_eq!(l.operand_elems(Operand::OActs), 2 * 16 * 10 * 10);
        assert_eq!(
            l.operand_bytes(Operand::OActs, DataType::Int32),
            2 * 16 * 10 * 10 * 4
        );
    }

    #[test]
    fn gemm_as_conv_preserves_macs() {
        let g = GemmLayer::new(64, 256, 128).with_name("fc");
        let c = g.as_conv();
        assert_eq!(g.macs(), c.macs());
        assert_eq!(
            (c.n, c.m, c.c, c.h, c.w, c.r, c.s),
            (1, 64, 256, 1, 128, 1, 1)
        );
        assert_eq!((c.stride, c.padding, c.kind), (1, 0, ConvKind::Pointwise));
        assert_eq!(c.name, "fc");
        // `K` is the reduction `C`, `N` the output width `Q`.
        assert_eq!((c.dim(Dim::C), c.dim(Dim::Q), c.dim(Dim::P)), (256, 128, 1));
    }

    #[test]
    fn gemm_as_activation_conv_streams_a_rows() {
        let g = GemmLayer::new(64, 256, 128).with_name("fc");
        let c = g.as_activation_conv();
        assert_eq!(g.macs(), c.macs());
        assert_eq!((c.n, c.m, c.c, c.h, c.w), (1, 128, 256, 1, 64));
        assert_eq!(c.name, "fc");
        // The activation tensor is (1, K, 1, M); the output (1, N, 1, M).
        assert_eq!(c.output_width(), 64);
        assert_eq!(c.output_height(), 1);
    }

    #[test]
    fn dim_sizes_map_complete() {
        let l = ConvLayer::new(1, 4, 8, 16, 16, 3, 3).with_padding(1);
        let sizes = l.dim_sizes();
        assert_eq!(sizes.len(), Dim::ALL.len());
        assert_eq!(sizes[&Dim::C], 8);
        assert_eq!(sizes[&Dim::P], 16);
    }

    #[test]
    fn display_nonempty() {
        let l = ConvLayer::new(1, 4, 8, 16, 16, 3, 3).with_name("x");
        assert!(l.to_string().contains("x["));
        let g = GemmLayer::new(1, 2, 3);
        assert!(g.to_string().contains("gemm"));
    }
}
