//! Dataflow (mapping) descriptions: the paper's "TOPS" space.
//!
//! Following §II-A, a dataflow is described by four kinds of loop-nest
//! transformations:
//!
//! * **T**iling — temporal tile sizes per dimension,
//! * **O**rdering — the order of the temporal loops (stationarity),
//! * **P**arallelism — which dimensions are unrolled spatially and by how much,
//! * **S**hape — how the physical PE array is virtually grouped into rows and
//!   columns.
//!
//! A [`Dataflow`] models Parallelism and Shape: its spatial factors over the
//! PE rows and columns, and the array shape. Tiling and Ordering are not
//! searched: every dataflow runs the canonical remainder nest
//! ([`Dataflow::temporal`]), which is what the cost model's access sampler
//! walks. The functional simulator does not read a `Dataflow`; it runs the
//! `feather::LayerMapping` a planned dataflow is projected onto.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::dims::{Dim, Operand};
use crate::error::ArchError;
use crate::workload::Workload;

/// One spatially-unrolled dimension with its unrolling factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParallelDim {
    /// The dimension being unrolled across PEs.
    pub dim: Dim,
    /// Number of PEs the dimension is spread across.
    pub factor: usize,
}

impl ParallelDim {
    /// Creates a new spatial unrolling.
    pub fn new(dim: Dim, factor: usize) -> Self {
        ParallelDim { dim, factor }
    }
}

impl fmt::Display for ParallelDim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.dim, self.factor)
    }
}

/// The virtual grouping of the physical PE array (the "S" in TOPS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ArrayShape {
    /// Number of PE rows (`AH` in the paper).
    pub rows: usize,
    /// Number of PE columns (`AW` in the paper; BIRRD has `AW` inputs).
    pub cols: usize,
}

impl ArrayShape {
    /// Creates an array shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        ArrayShape { rows, cols }
    }

    /// Total number of PEs.
    pub fn pes(&self) -> usize {
        self.rows * self.cols
    }
}

impl fmt::Display for ArrayShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

/// A dataflow: spatial unrollings over rows and columns and the virtual array
/// shape. Its temporal loop nest follows from them ([`Dataflow::temporal`]).
///
/// # Example
/// ```
/// use feather_arch::dataflow::{Dataflow, ArrayShape};
/// use feather_arch::dims::Dim;
/// use feather_arch::workload::ConvLayer;
///
/// let layer = ConvLayer::new(1, 64, 64, 56, 56, 3, 3).with_padding(1);
/// let df = Dataflow::weight_stationary(ArrayShape::new(16, 16), &layer.into());
/// assert!(df.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Dataflow {
    /// Optional human-readable name (e.g. `"weight-stationary-MC"`).
    pub name: String,
    /// Dimensions unrolled across PE *rows* (their factors multiply to ≤ rows).
    pub row_parallel: Vec<ParallelDim>,
    /// Dimensions unrolled across PE *columns* (their factors multiply to ≤ cols).
    pub col_parallel: Vec<ParallelDim>,
    /// Virtual grouping of the PE array.
    pub shape: ArrayShape,
}

impl Dataflow {
    /// Creates a dataflow from its raw parts.
    pub fn new(
        name: impl Into<String>,
        shape: ArrayShape,
        row_parallel: Vec<ParallelDim>,
        col_parallel: Vec<ParallelDim>,
    ) -> Self {
        Dataflow {
            name: name.into(),
            row_parallel,
            col_parallel,
            shape,
        }
    }

    /// Product of all row-parallel factors.
    pub fn row_spatial_size(&self) -> usize {
        self.row_parallel
            .iter()
            .map(|p| p.factor)
            .product::<usize>()
            .max(1)
    }

    /// Product of all column-parallel factors.
    pub fn col_spatial_size(&self) -> usize {
        self.col_parallel
            .iter()
            .map(|p| p.factor)
            .product::<usize>()
            .max(1)
    }

    /// Number of PEs that receive distinct work (`≤ shape.pes()`).
    pub fn mapped_pes(&self) -> usize {
        self.row_spatial_size() * self.col_spatial_size()
    }

    /// Fraction of the array that receives work (the paper's "theoretical
    /// compute utilization" before any bank-conflict slowdown).
    pub fn spatial_utilization(&self) -> f64 {
        self.mapped_pes() as f64 / self.shape.pes() as f64
    }

    /// Total spatial factor applied to one dimension (rows × cols contributions).
    pub fn spatial_factor(&self, dim: Dim) -> usize {
        let row: usize = self
            .row_parallel
            .iter()
            .filter(|p| p.dim == dim)
            .map(|p| p.factor)
            .product();
        let col: usize = self
            .col_parallel
            .iter()
            .filter(|p| p.dim == dim)
            .map(|p| p.factor)
            .product();
        row.max(1) * col.max(1)
    }

    /// All spatially-unrolled dimensions with their combined factors.
    pub fn spatial_factors(&self) -> BTreeMap<Dim, usize> {
        let mut out = BTreeMap::new();
        for p in self.row_parallel.iter().chain(self.col_parallel.iter()) {
            *out.entry(p.dim).or_insert(1) *= p.factor;
        }
        out
    }

    /// The temporal loop nest every PE runs, outermost first: each of `N`,
    /// `M`, `C`, `P`, `Q`, `R`, `S` in that order, iterated `⌈size / spatial
    /// factor⌉` times, leaving out the dims iterated once. This canonical
    /// remainder is the one nest of every dataflow.
    pub fn temporal<'a>(
        &'a self,
        workload: &'a Workload,
    ) -> impl Iterator<Item = (Dim, usize)> + 'a {
        const ORDER: [Dim; 7] = [Dim::N, Dim::M, Dim::C, Dim::P, Dim::Q, Dim::R, Dim::S];
        ORDER.into_iter().filter_map(move |dim| {
            let extent = workload.dim(dim).div_ceil(self.spatial_factor(dim));
            (extent > 1).then_some((dim, extent))
        })
    }

    /// Size of the spatial reduction group: the number of partial sums that
    /// must be combined across PEs to form one output. This is the product of
    /// the factors of *reduction* dimensions (`C`, `R`, `S`) that are spatially
    /// unrolled. BIRRD must support reduction groups of exactly this size.
    pub fn spatial_reduction_size(&self) -> usize {
        self.spatial_factors()
            .iter()
            .filter(|(d, _)| d.is_reduction())
            .map(|(_, f)| *f)
            .product::<usize>()
            .max(1)
    }

    /// The set of dimensions whose concurrent values differ across the
    /// spatially-parallel lanes that read `operand`. Bank-conflict analysis
    /// uses this to know which coordinates are requested in the same cycle.
    pub fn concurrent_dims(&self, operand: Operand) -> Vec<ParallelDim> {
        self.spatial_factors()
            .into_iter()
            .filter(|(d, _)| operand.uses(*d))
            .map(|(d, f)| ParallelDim::new(d, f))
            .collect()
    }

    /// Number of distinct `operand` elements requested concurrently per cycle.
    pub fn concurrent_accesses(&self, operand: Operand) -> usize {
        self.concurrent_dims(operand)
            .iter()
            .map(|p| p.factor)
            .product::<usize>()
            .max(1)
    }

    /// Validates the spatial factors against the array shape.
    ///
    /// # Errors
    /// Returns [`ArchError::InvalidDataflow`] if the array shape or any
    /// spatial factor is zero, or if the factors exceed the array rows or
    /// columns.
    pub fn validate(&self) -> Result<(), ArchError> {
        if self.shape.rows == 0 || self.shape.cols == 0 {
            return Err(ArchError::InvalidDataflow(
                "array shape must be non-zero".to_string(),
            ));
        }
        for p in self.row_parallel.iter().chain(self.col_parallel.iter()) {
            if p.factor == 0 {
                return Err(ArchError::InvalidDataflow(format!(
                    "spatial factor for {} is zero",
                    p.dim
                )));
            }
        }
        if self.row_spatial_size() > self.shape.rows {
            return Err(ArchError::InvalidDataflow(format!(
                "row-parallel factors ({}) exceed array rows ({})",
                self.row_spatial_size(),
                self.shape.rows
            )));
        }
        if self.col_spatial_size() > self.shape.cols {
            return Err(ArchError::InvalidDataflow(format!(
                "column-parallel factors ({}) exceed array columns ({})",
                self.col_spatial_size(),
                self.shape.cols
            )));
        }
        Ok(())
    }

    /// Steady-state cycles for a weight-stationary NEST-style execution of the
    /// workload under this dataflow, ignoring memory stalls: total MACs divided
    /// by the number of mapped PEs (each PE does one MAC per cycle).
    pub fn ideal_compute_cycles(&self, workload: &Workload) -> u64 {
        let macs = workload.macs();
        macs.div_ceil(self.mapped_pes() as u64)
    }

    // ------------------------------------------------------------------
    // Canonical dataflow constructors used across the evaluation.
    // ------------------------------------------------------------------

    /// Weight-stationary dataflow: output channels `M` across rows, input
    /// channels `C` across columns (the NVDLA/Gemmini-style default and the
    /// dataflow of the Fig. 9 walk-through).
    pub fn weight_stationary(shape: ArrayShape, workload: &Workload) -> Self {
        let m = workload.dim(Dim::M).min(shape.rows).max(1);
        let c = workload.dim(Dim::C).min(shape.cols).max(1);
        Dataflow::new(
            "weight-stationary-M_rows-C_cols",
            shape,
            vec![ParallelDim::new(Dim::M, m)],
            vec![ParallelDim::new(Dim::C, c)],
        )
    }

    /// Output-stationary dataflow: output pixels `P`/`Q` across the array,
    /// reduction dims iterated temporally (the fixed dataflow of Fig. 2's blue
    /// bars).
    pub fn output_stationary(shape: ArrayShape, workload: &Workload) -> Self {
        let p = workload.dim(Dim::P).min(shape.rows).max(1);
        let q = workload.dim(Dim::Q).min(shape.cols).max(1);
        Dataflow::new(
            "output-stationary-P_rows-Q_cols",
            shape,
            vec![ParallelDim::new(Dim::P, p)],
            vec![ParallelDim::new(Dim::Q, q)],
        )
    }

    /// Input-channel-parallel dataflow (Fig. 4 "D1"): `C` across columns with
    /// a given parallelism, kernels `M` across rows.
    pub fn channel_parallel(shape: ArrayShape, workload: &Workload, c_par: usize) -> Self {
        let c = c_par.min(shape.cols).min(workload.dim(Dim::C)).max(1);
        let m = workload.dim(Dim::M).min(shape.rows).max(1);
        Dataflow::new(
            format!("channel-parallel-C{c}"),
            shape,
            vec![ParallelDim::new(Dim::M, m)],
            vec![ParallelDim::new(Dim::C, c)],
        )
    }

    /// Sliding-window-parallel dataflow (Fig. 4 "D2"): output width `Q` across
    /// columns (consecutive sliding windows computed concurrently).
    pub fn sliding_window_parallel(shape: ArrayShape, workload: &Workload, q_par: usize) -> Self {
        let q = q_par.min(shape.cols).max(1);
        let m = workload.dim(Dim::M).min(shape.rows).max(1);
        Dataflow::new(
            format!("sliding-window-parallel-Q{q}"),
            shape,
            vec![ParallelDim::new(Dim::M, m)],
            vec![ParallelDim::new(Dim::Q, q)],
        )
    }
}

impl fmt::Display for Dataflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<String> = self.row_parallel.iter().map(|p| p.to_string()).collect();
        let cols: Vec<String> = self.col_parallel.iter().map(|p| p.to_string()).collect();
        write!(
            f,
            "{} [{} | rows: {} | cols: {}]",
            if self.name.is_empty() {
                "dataflow"
            } else {
                &self.name
            },
            self.shape,
            rows.join(","),
            cols.join(","),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{ConvLayer, GemmLayer};

    fn layer() -> Workload {
        ConvLayer::new(1, 64, 64, 56, 56, 3, 3)
            .with_padding(1)
            .into()
    }

    #[test]
    fn weight_stationary_fills_array() {
        let df = Dataflow::weight_stationary(ArrayShape::new(16, 16), &layer());
        assert_eq!(df.mapped_pes(), 256);
        assert!((df.spatial_utilization() - 1.0).abs() < 1e-9);
        df.validate().unwrap();
    }

    #[test]
    fn small_channel_count_underutilizes() {
        // ResNet-50 layer 1 has only C=3, so C-across-columns maps poorly.
        let l1: Workload = ConvLayer::new(1, 64, 3, 224, 224, 7, 7)
            .with_stride(2)
            .with_padding(3)
            .into();
        let df = Dataflow::weight_stationary(ArrayShape::new(16, 16), &l1);
        assert_eq!(df.col_spatial_size(), 3);
        assert!(df.spatial_utilization() < 0.25);
    }

    #[test]
    fn spatial_reduction_size_counts_reduction_dims_only() {
        let df = Dataflow::weight_stationary(ArrayShape::new(4, 4), &layer());
        // C is spatial → contributes to the reduction group; M does not.
        assert_eq!(df.spatial_reduction_size(), 4);
        let os = Dataflow::output_stationary(ArrayShape::new(4, 4), &layer());
        assert_eq!(os.spatial_reduction_size(), 1);
    }

    #[test]
    fn concurrent_accesses_match_parallelism() {
        let w = layer();
        let df = Dataflow::channel_parallel(ArrayShape::new(4, 4), &w, 4);
        // iActs are indexed by C but not by M: 4 concurrent iActs.
        assert_eq!(df.concurrent_accesses(Operand::IActs), 4);
        // Weights are indexed by both M and C: 16 concurrent weights.
        assert_eq!(df.concurrent_accesses(Operand::Weights), 16);
        // oActs are indexed by M only.
        assert_eq!(df.concurrent_accesses(Operand::OActs), 4);
    }

    #[test]
    fn validation_rejects_oversized_factors() {
        let w = layer();
        let mut df = Dataflow::weight_stationary(ArrayShape::new(4, 4), &w);
        df.row_parallel = vec![ParallelDim::new(Dim::M, 8)];
        assert!(df.validate().is_err());
    }

    #[test]
    fn validation_rejects_zero_factor() {
        let w = layer();
        let mut df = Dataflow::weight_stationary(ArrayShape::new(4, 4), &w);
        df.col_parallel = vec![ParallelDim::new(Dim::C, 0)];
        assert!(df.validate().is_err());
    }

    #[test]
    fn ideal_cycles_divide_macs_by_pes() {
        let w = layer();
        let df = Dataflow::weight_stationary(ArrayShape::new(16, 16), &w);
        assert_eq!(df.ideal_compute_cycles(&w), w.macs().div_ceil(256));
    }

    #[test]
    fn loop_nest_queries() {
        // M and C unrolled 16 ways; P and Q are 56 after padding. Every dim
        // left over is iterated ⌈size / factor⌉ times, N first; N (1) is not
        // a loop.
        let w = layer();
        let df = Dataflow::weight_stationary(ArrayShape::new(16, 16), &w);
        let nest: Vec<_> = df.temporal(&w).collect();
        let expected = [
            (Dim::M, 4),
            (Dim::C, 4),
            (Dim::P, 56),
            (Dim::Q, 56),
            (Dim::R, 3),
            (Dim::S, 3),
        ];
        assert_eq!(nest, expected);
        // A factor that does not divide its dim pads the last iteration.
        let os = Dataflow::output_stationary(ArrayShape::new(5, 16), &w);
        assert_eq!(os.temporal(&w).nth(2), Some((Dim::P, 12)));
    }

    #[test]
    fn gemm_dataflows_validate() {
        let g: Workload = GemmLayer::new(128, 768, 64).into();
        for df in [
            Dataflow::weight_stationary(ArrayShape::new(16, 16), &g),
            Dataflow::output_stationary(ArrayShape::new(16, 16), &g),
        ] {
            df.validate().unwrap();
        }
    }

    #[test]
    fn display_contains_shape() {
        let df = Dataflow::weight_stationary(ArrayShape::new(8, 8), &layer());
        assert!(df.to_string().contains("8x8"));
    }
}
