//! Dataflow candidate generation ("the mapper").
//!
//! Timeloop's mapper enumerates loop-nest transformations; Layoutloop keeps
//! the same role but only needs the subset of the space that distinguishes the
//! paper's designs: which dimensions are parallelized across the PE rows and
//! columns and with which factors, under each architecture's flexibility
//! constraints (fixed dataflow, TOP, TOPS, ...).

use feather_arch::dataflow::{ArrayShape, Dataflow, LoopNest, ParallelDim};
use feather_arch::dims::Dim;
use feather_arch::workload::Workload;
use serde::{Deserialize, Serialize};

use crate::arch::{ArchSpec, DataflowPolicy, FixedDataflow};

/// Mapper tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MapperConfig {
    /// Also consider mappings that split one array axis between two dimensions
    /// (virtual shape grouping — only meaningful for shape-flexible designs).
    pub include_pairs: bool,
    /// Hard cap on the number of candidates returned.
    pub max_candidates: usize,
}

impl Default for MapperConfig {
    fn default() -> Self {
        MapperConfig {
            include_pairs: true,
            max_candidates: 128,
        }
    }
}

impl MapperConfig {
    /// A cheaper configuration for large sweeps (single-dimension parallelism only).
    pub fn fast() -> Self {
        MapperConfig {
            include_pairs: false,
            max_candidates: 48,
        }
    }
}

/// Largest factor of `dim_size` that fits in `capacity` (the mapped extent of
/// a dimension on one array axis). Favors exact divisors of the dimension so
/// tiles are not padded, but falls back to the capacity itself.
fn fit_factor(dim_size: usize, capacity: usize) -> usize {
    if dim_size == 0 || capacity == 0 {
        return 1;
    }
    if dim_size <= capacity {
        return dim_size;
    }
    // Prefer an exact divisor of dim_size within capacity (no padded lanes);
    // fall back to the full capacity (padded last lane) when none exists.
    for f in (2..=capacity).rev() {
        if dim_size % f == 0 {
            return f;
        }
    }
    capacity
}

/// One axis assignment: dims with their factors, multiplying to ≤ capacity.
fn axis_assignments(
    workload: &Workload,
    capacity: usize,
    dims: &[Dim],
    include_pairs: bool,
) -> Vec<Vec<ParallelDim>> {
    let mut out: Vec<Vec<ParallelDim>> = Vec::new();
    for &d in dims {
        let f = fit_factor(workload.dim(d), capacity);
        if f >= 1 {
            out.push(vec![ParallelDim::new(d, f)]);
        }
    }
    if include_pairs {
        for &d1 in dims {
            for &d2 in dims {
                if d1 >= d2 {
                    continue;
                }
                let f1 = fit_factor(workload.dim(d1), capacity);
                if f1 == 0 || f1 >= capacity {
                    continue;
                }
                let f2 = fit_factor(workload.dim(d2), capacity / f1.max(1));
                if f1 > 1 && f2 > 1 {
                    out.push(vec![ParallelDim::new(d1, f1), ParallelDim::new(d2, f2)]);
                }
            }
        }
    }
    out
}

/// Builds the temporal remainder loop nest for a chosen spatial assignment
/// of `rows` and `cols`.
fn remainder_nest(workload: &Workload, rows: &[ParallelDim], cols: &[ParallelDim]) -> LoopNest {
    let spatial_of = |d: Dim| -> usize {
        rows.iter()
            .chain(cols)
            .filter(|p| p.dim == d)
            .map(|p| p.factor)
            .product::<usize>()
            .max(1)
    };
    let order = [Dim::N, Dim::M, Dim::C, Dim::P, Dim::Q, Dim::R, Dim::S];
    LoopNest::new(order.into_iter().filter_map(|d| {
        let extent = workload.dim(d).div_ceil(spatial_of(d));
        (extent > 1).then_some((d, extent))
    }))
}

/// Generates the dataflow candidates the given architecture may run on the
/// given workload. Every candidate is valid: it fits the workload
/// ([`Dataflow::validate`]) on the architecture's array shape, so a design
/// whose one dataflow does not fit the workload has none.
pub fn search_dataflows(
    arch: &ArchSpec,
    workload: &Workload,
    config: &MapperConfig,
) -> Vec<Dataflow> {
    let mut candidates = match &arch.dataflow_policy {
        DataflowPolicy::Fixed(kind) => vec![fixed_dataflow(*kind, arch.shape, workload)],
        DataflowPolicy::Flexible if !arch.flexibility.parallelism => {
            // A design that cannot re-choose its parallel dims at run time
            // only runs its canonical weight-stationary mapping.
            vec![Dataflow::weight_stationary(arch.shape, workload)]
        }
        DataflowPolicy::Flexible => return flexible_dataflows(arch, workload, config),
    };
    candidates.retain(|df| df.validate(workload).is_ok());
    candidates
}

/// The single dataflow of a fixed-dataflow design.
pub fn fixed_dataflow(kind: FixedDataflow, shape: ArrayShape, workload: &Workload) -> Dataflow {
    match kind {
        FixedDataflow::WeightStationaryMC => Dataflow::weight_stationary(shape, workload),
        FixedDataflow::OutputStationaryPQ => Dataflow::output_stationary(shape, workload),
        FixedDataflow::RowStationary => row_stationary_folded(shape, workload),
        FixedDataflow::DpuFixed => dpu_dataflow(shape, workload),
    }
}

/// Eyeriss-style row-stationary mapping with filter folding: kernel rows `R`
/// map across PE rows and, when `R` is smaller than the array (1×1 layers,
/// GEMMs), multiple output channels fold onto the remaining rows — mirroring
/// how Eyeriss packs several filters per PE to keep the array busy. Output
/// rows `P` map across columns.
fn row_stationary_folded(shape: ArrayShape, workload: &Workload) -> Dataflow {
    let r = fit_factor(workload.dim(Dim::R), shape.rows);
    let m = fit_factor(workload.dim(Dim::M), shape.rows / r.max(1));
    let p = fit_factor(workload.dim(Dim::P), shape.cols);
    let q = fit_factor(workload.dim(Dim::Q), shape.cols / p.max(1));
    let row_parallel = if m > 1 {
        vec![ParallelDim::new(Dim::R, r), ParallelDim::new(Dim::M, m)]
    } else {
        vec![ParallelDim::new(Dim::R, r)]
    };
    let col_parallel = if q > 1 {
        vec![ParallelDim::new(Dim::P, p), ParallelDim::new(Dim::Q, q)]
    } else {
        vec![ParallelDim::new(Dim::P, p)]
    };
    let temporal = remainder_nest(workload, &row_parallel, &col_parallel);
    Dataflow::new(
        "row-stationary-RM_rows-P_cols",
        shape,
        row_parallel,
        col_parallel,
        temporal,
    )
}

/// Xilinx-DPU-style fixed parallelism: M across rows, C and output pixels
/// across columns (conceptually (12, 12, 8) for the B1152 configuration).
fn dpu_dataflow(shape: ArrayShape, workload: &Workload) -> Dataflow {
    let m = fit_factor(workload.dim(Dim::M), shape.rows);
    let c = fit_factor(workload.dim(Dim::C), 12.min(shape.cols));
    let q = fit_factor(workload.dim(Dim::Q), shape.cols / c.max(1));
    let rows = vec![ParallelDim::new(Dim::M, m)];
    let cols = vec![ParallelDim::new(Dim::C, c), ParallelDim::new(Dim::Q, q)];
    let temporal = remainder_nest(workload, &rows, &cols);
    Dataflow::new("dpu-fixed-M_rows-CQ_cols", shape, rows, cols, temporal)
}

/// The candidates of a design that re-chooses its parallel dims per layer:
/// every pair of a row and a column assignment that splits no dim across
/// both axes and passes [`Dataflow::validate`], up to the configured cap.
/// Each axis assignment is a distinct set of dims, so no two candidates
/// share a spatial structure.
fn flexible_dataflows(
    arch: &ArchSpec,
    workload: &Workload,
    config: &MapperConfig,
) -> Vec<Dataflow> {
    let shape = arch.shape;
    let dims: &[Dim] = &[Dim::M, Dim::C, Dim::P, Dim::Q, Dim::R, Dim::S];
    let include_pairs = config.include_pairs && arch.flexibility.shape;

    // Each assignment with its part of a candidate's name, joined once.
    let labeled = |capacity: usize| {
        axis_assignments(workload, capacity, dims, include_pairs)
            .into_iter()
            .map(|option| {
                let label: Vec<String> = option.iter().map(|p| p.to_string()).collect();
                (option, label.join("x"))
            })
            .collect::<Vec<_>>()
    };
    let row_options = labeled(shape.rows);
    let col_options = labeled(shape.cols);

    let mut candidates = Vec::new();
    for (rows, row_label) in &row_options {
        for (cols, col_label) in &col_options {
            // A dimension should not be split across both axes in this simple
            // mapper (the evaluator would treat the two factors as independent
            // and over-count coverage).
            if rows.iter().any(|r| cols.iter().any(|c| c.dim == r.dim)) {
                continue;
            }
            let temporal = remainder_nest(workload, rows, cols);
            let mut df = Dataflow::new(String::new(), shape, rows.clone(), cols.clone(), temporal);
            if df.validate(workload).is_ok() {
                df.name = ["flex-", row_label, "-rows_", col_label, "-cols"].concat();
                candidates.push(df);
            }
            if candidates.len() >= config.max_candidates {
                return candidates;
            }
        }
    }
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use feather_arch::workload::{ConvLayer, GemmLayer};

    fn layer() -> Workload {
        ConvLayer::new(1, 128, 256, 14, 14, 3, 3)
            .with_padding(1)
            .into()
    }

    #[test]
    fn fit_factor_prefers_divisors() {
        assert_eq!(fit_factor(64, 16), 16);
        assert_eq!(fit_factor(3, 16), 3);
        assert_eq!(fit_factor(48, 16), 16);
        assert_eq!(fit_factor(28, 16), 14); // 14 divides 28, 16 does not
        assert_eq!(fit_factor(7, 4), 4); // no divisor in range: fall back
        assert_eq!(fit_factor(0, 4), 1);
    }

    #[test]
    fn fixed_policy_yields_one_candidate() {
        let arch = ArchSpec::nvdla_like(16, 16);
        let c = search_dataflows(&arch, &layer(), &MapperConfig::default());
        assert_eq!(c.len(), 1);
        assert!(c[0].name.contains("weight-stationary"));
    }

    #[test]
    fn flexible_policy_yields_many_valid_candidates() {
        let arch = ArchSpec::feather_like(16, 16);
        let w = layer();
        let c = search_dataflows(&arch, &w, &MapperConfig::default());
        assert!(c.len() > 10, "only {} candidates", c.len());
        for df in &c {
            df.validate(&w).unwrap();
            assert_eq!(df.shape, arch.shape);
        }
    }

    #[test]
    fn fast_config_produces_fewer_candidates() {
        let arch = ArchSpec::feather_like(16, 16);
        let w = layer();
        let full = search_dataflows(&arch, &w, &MapperConfig::default());
        let fast = search_dataflows(&arch, &w, &MapperConfig::fast());
        assert!(fast.len() <= full.len());
    }

    #[test]
    fn no_dimension_split_across_axes() {
        let arch = ArchSpec::feather_like(16, 16);
        let w = layer();
        for df in search_dataflows(&arch, &w, &MapperConfig::default()) {
            for r in &df.row_parallel {
                assert!(!df.col_parallel.iter().any(|c| c.dim == r.dim));
            }
        }
    }

    #[test]
    fn dpu_dataflow_uses_channel_and_pixel_parallelism() {
        let arch = ArchSpec::xilinx_dpu_like();
        let w = layer();
        let c = search_dataflows(&arch, &w, &MapperConfig::default());
        assert_eq!(c.len(), 1);
        let dims: Vec<Dim> = c[0].col_parallel.iter().map(|p| p.dim).collect();
        assert!(dims.contains(&Dim::C));
        assert!(dims.contains(&Dim::Q));
        c[0].validate(&w).unwrap();
    }

    #[test]
    fn gemm_candidates_are_valid() {
        let arch = ArchSpec::feather_like(16, 16);
        let g: Workload = GemmLayer::new(512, 768, 768).with_name("bert_gemm").into();
        let c = search_dataflows(&arch, &g, &MapperConfig::default());
        assert!(!c.is_empty());
        for df in &c {
            df.validate(&g).unwrap();
        }
    }

    #[test]
    fn candidates_are_deduplicated() {
        let arch = ArchSpec::feather_like(16, 16);
        let w = layer();
        let c = search_dataflows(&arch, &w, &MapperConfig::default());
        let mut keys = std::collections::BTreeSet::new();
        for df in &c {
            let key = format!("{:?}|{:?}", df.row_parallel, df.col_parallel);
            assert!(keys.insert(key), "duplicate spatial mapping in candidates");
        }
    }
}
