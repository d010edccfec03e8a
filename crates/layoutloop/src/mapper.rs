//! Dataflow candidate generation ("the mapper").
//!
//! Timeloop's mapper enumerates loop-nest transformations; Layoutloop keeps
//! the same role but only needs the subset of the space that distinguishes the
//! paper's designs: which dimensions are parallelized across the PE rows and
//! columns and with which factors, under each architecture's
//! [`DataflowPolicy`] (one fixed dataflow, or a per-layer choice of parallel
//! dims with or without splitting an array axis between two of them). Tiling
//! and ordering are not searched: every candidate runs its canonical
//! remainder nest ([`Dataflow::temporal`]).

use feather_arch::dataflow::{ArrayShape, Dataflow, ParallelDim};
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
    /// Hard cap on the number of candidates offered to a flexible design (a
    /// fixed design has one).
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
    let mut out: Vec<Vec<ParallelDim>> = dims
        .iter()
        .map(|&d| vec![ParallelDim::new(d, fit_factor(workload.dim(d), capacity))])
        .collect();
    if include_pairs {
        for &d1 in dims {
            for &d2 in dims {
                if d1 >= d2 {
                    continue;
                }
                let f1 = fit_factor(workload.dim(d1), capacity);
                if f1 >= capacity {
                    continue;
                }
                let f2 = fit_factor(workload.dim(d2), capacity / f1);
                if f1 > 1 && f2 > 1 {
                    out.push(vec![ParallelDim::new(d1, f1), ParallelDim::new(d2, f2)]);
                }
            }
        }
    }
    out
}

/// Generates the dataflow candidates the given architecture may run on the
/// given workload. Every candidate is valid by construction: its factors are
/// at least 1 and multiply to at most the axis they unroll over, so
/// [`Dataflow::validate`] accepts it on any array with no zero axis.
pub fn search_dataflows(
    arch: &ArchSpec,
    workload: &Workload,
    config: &MapperConfig,
) -> Vec<Dataflow> {
    match arch.dataflow_policy {
        DataflowPolicy::Fixed(kind) => vec![fixed_dataflow(kind, arch.shape, workload)],
        DataflowPolicy::Flexible { shape: regroup } => {
            flexible_dataflows(arch.shape, regroup, workload, config)
        }
    }
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
    Dataflow::new(
        "row-stationary-RM_rows-P_cols",
        shape,
        row_parallel,
        col_parallel,
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
    Dataflow::new("dpu-fixed-M_rows-CQ_cols", shape, rows, cols)
}

/// The candidates of a design that re-chooses its parallel dims per layer:
/// every pair of a row and a column assignment that splits no dim across
/// both axes, up to the configured cap; an axis is split between two dims
/// only if the design may `regroup` its array. Each axis assignment is a
/// distinct set of dims, so no two candidates share a spatial structure.
fn flexible_dataflows(
    shape: ArrayShape,
    regroup: bool,
    workload: &Workload,
    config: &MapperConfig,
) -> Vec<Dataflow> {
    let dims: &[Dim] = &[Dim::M, Dim::C, Dim::P, Dim::Q, Dim::R, Dim::S];
    let include_pairs = config.include_pairs && regroup;

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

    row_options
        .iter()
        .flat_map(|(rows, row_label)| {
            col_options
                .iter()
                // A dimension is not split across both axes in this simple
                // mapper.
                .filter(|(cols, _)| !rows.iter().any(|r| cols.iter().any(|c| c.dim == r.dim)))
                .map(move |(cols, col_label)| {
                    let name = ["flex-", row_label, "-rows_", col_label, "-cols"].concat();
                    Dataflow::new(name, shape, rows.clone(), cols.clone())
                })
        })
        .take(config.max_candidates)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use feather_arch::workload::{ConvLayer, GemmLayer};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

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
            df.validate().unwrap();
            assert_eq!(df.shape, arch.shape);
        }
    }

    #[test]
    fn every_preset_candidate_is_valid_by_construction() {
        // The mapper filters nothing: every Fig. 13 design and every Fig. 12
        // device, at 16×16 and 8×8, on random conv and GEMM layers, offers
        // only dataflows `validate` accepts, on its own array, within the cap.
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let mut layers: Vec<Workload> = Vec::new();
        while layers.len() < 48 {
            let layer: Workload = if layers.len() % 3 == 2 {
                let [m, k, n] = [0; 3].map(|_| rng.gen_range(1..1024));
                GemmLayer::new(m, k, n).into()
            } else {
                let (r, s) = [(1, 1), (3, 3), (7, 7), (3, 1)][rng.gen_range(0..4usize)];
                let [m, c] = [0; 2].map(|_| rng.gen_range(1..512));
                let [h, w] = [0; 2].map(|_| rng.gen_range(1..64));
                ConvLayer::new(rng.gen_range(1..3), m, c, h, w, r, s)
                    .with_stride(rng.gen_range(1..3))
                    .with_padding(rng.gen_range(0..=r / 2))
                    .into()
            };
            if layer.validate().is_ok() {
                layers.push(layer);
            }
        }
        for n in [16, 8] {
            let mut presets = vec![
                ArchSpec::nvdla_like(n, n),
                ArchSpec::eyeriss_like(n, n),
                ArchSpec::sigma_like_fixed_layout(n, n, "HWC_C32"),
                ArchSpec::sigma_like_fixed_layout(n, n, "HWC_C4W8"),
                ArchSpec::sigma_like_offchip_reorder(n, n),
                ArchSpec::medusa_like(n, n),
                ArchSpec::mtia_like(n, n),
                ArchSpec::tpu_like(n, n),
                ArchSpec::feather_like(n, n),
            ];
            for mut device in [
                ArchSpec::gemmini_like(),
                ArchSpec::xilinx_dpu_like(),
                ArchSpec::edge_tpu_like(),
            ] {
                device.shape = ArrayShape::new(n, n);
                presets.push(device);
            }
            for arch in &presets {
                for config in [MapperConfig::default(), MapperConfig::fast()] {
                    for w in &layers {
                        let c = search_dataflows(arch, w, &config);
                        assert!(!c.is_empty() && c.len() <= config.max_candidates);
                        for df in &c {
                            assert_eq!(df.validate(), Ok(()), "{} on {}: {df}", arch.name, n);
                            assert_eq!(df.shape, arch.shape);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn max_candidates_caps_the_list() {
        let arch = ArchSpec::feather_like(16, 16);
        let w = layer();
        let all = search_dataflows(&arch, &w, &MapperConfig::default());
        for cap in [0, 1] {
            let config = MapperConfig {
                max_candidates: cap,
                ..MapperConfig::default()
            };
            assert_eq!(search_dataflows(&arch, &w, &config), all[..cap]);
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
        c[0].validate().unwrap();
    }

    #[test]
    fn gemm_candidates_are_valid() {
        let arch = ArchSpec::feather_like(16, 16);
        let g: Workload = GemmLayer::new(512, 768, 768).with_name("bert_gemm").into();
        let c = search_dataflows(&arch, &g, &MapperConfig::default());
        assert!(!c.is_empty());
        for df in &c {
            df.validate().unwrap();
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
