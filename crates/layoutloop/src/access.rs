//! Per-cycle access-pattern analysis: which input-activation elements a
//! dataflow requests concurrently, which buffer lines they live in under a
//! given layout, and the resulting bank-conflict slowdown.
//!
//! This is the machinery behind the tables of Fig. 4 and the slowdown bars of
//! Fig. 13: for a (workload, dataflow, layout) triple we reconstruct concrete
//! coordinate sets for a sample of execution cycles and ask the
//! [`ConflictModel`] how many cycles the reads actually take.
//!
//! The analysis has two halves, so a co-search over `D` dataflows and `L`
//! layouts does each once instead of `D × L` times:
//!
//! * **dataflow only** — a read signature (the spatial factors and the
//!   sampled temporal base points, drawn from the seed, on the dims that index
//!   iActs) and its expansion into sampled reads (the values each of `n`, `c`,
//!   `h` and `w` takes across the lanes in each sampled cycle); dataflows that
//!   differ only where the buffer cannot see it (how they place `M`) share a
//!   signature;
//! * **layout only** — each iAct value's line digit, from the `coordinate →
//!   line` tables of [`Layout::plan4`], built per (workload, layout).
//!
//! Joining the two counts each cycle's distinct lines per dimension rather
//! than per lane, and never builds the lines. The count decides the conflict
//! of a buffer of one bank or of horizontal banks, and
//! [`analyze_iact_reads`] refuses any other (several vertical banks, where
//! only the lines themselves would tell). Nothing here depends on the layout
//! the previous layer left behind.

use feather_arch::dataflow::Dataflow;
use feather_arch::dims::Dim;
use feather_arch::layout::Layout;
use feather_arch::workload::Workload;
use feather_arch::ArchError;
use feather_memsim::ConflictModel;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Summary of the iAct read behaviour of a (workload, dataflow, layout) triple.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccessAnalysis {
    /// Average bank-conflict slowdown across the sampled cycles (≥ 1.0).
    pub read_slowdown: f64,
    /// Average number of distinct buffer lines read per cycle.
    pub avg_lines_per_cycle: f64,
    /// Number of distinct iAct elements requested per cycle.
    pub concurrent_reads: usize,
}

impl AccessAnalysis {
    /// Returns `true` when no sampled cycle suffered a bank conflict.
    pub fn is_concordant(&self) -> bool {
        self.read_slowdown <= 1.0 + 1e-9
    }

    /// The least analysis any layout can give `dataflow`'s reads, without
    /// sampling them: no conflict (`read_slowdown` 1.0) and one line per
    /// cycle (`avg_lines_per_cycle` 1.0), since every sampled cycle reads
    /// at least one element; `concurrent_reads` is the lane count, which no
    /// layout changes. [`SampledReads::analyze`] never goes below it in
    /// either field.
    pub(crate) fn floor(dataflow: &Dataflow) -> Self {
        AccessAnalysis {
            read_slowdown: 1.0,
            avg_lines_per_cycle: 1.0,
            concurrent_reads: iact_spatial(dataflow).iter().product(),
        }
    }
}

/// Per-[`Dim`] values (offsets or base coordinates), indexed by `dim as usize`.
type PerDim = [usize; Dim::ALL.len()];

/// The dims that index the input activations: `N`, `C`, and `P`/`Q`/`R`/`S`
/// through the sliding window. Dims like `M` broadcast the same iAct to many
/// PEs and therefore neither multiply the distinct requests nor move them.
fn indexes_iacts(dim: Dim) -> bool {
    matches!(dim, Dim::N | Dim::C | Dim::P | Dim::Q | Dim::R | Dim::S)
}

/// The spatial factor of every iAct-indexing dim of `dataflow` (1 elsewhere).
fn iact_spatial(dataflow: &Dataflow) -> PerDim {
    let mut spatial = [1; Dim::ALL.len()];
    for p in dataflow.row_parallel.iter().chain(&dataflow.col_parallel) {
        if indexes_iacts(p.dim) {
            spatial[p.dim as usize] *= p.factor;
        }
    }
    spatial
}

/// What the buffer sees of a dataflow's sampled cycles: its spatial factors
/// on the dims that index iActs, and every sampled cycle's base point on
/// them. Two dataflows with equal signatures request the same elements in
/// every sampled cycle of a workload, so one analysis per layout serves both.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct ReadSignature {
    /// The spatial factor of every iAct-indexing dim (1 elsewhere).
    spatial: PerDim,
    /// Per sampled cycle, the base coordinate on those dims (0 elsewhere).
    bases: Vec<PerDim>,
}

impl ReadSignature {
    /// Samples up to `max_samples` (at least four) execution cycles of
    /// `dataflow` on `workload`, deterministically from `seed`.
    pub(crate) fn new(
        workload: &Workload,
        dataflow: &Dataflow,
        max_samples: usize,
        seed: u64,
    ) -> Self {
        let spatial = iact_spatial(dataflow);
        let loops: Vec<(Dim, usize)> = dataflow.temporal(workload).collect();
        let innermost = loops.last().map(|&(dim, _)| dim);

        // Temporal base points: the per-dimension block index times the spatial
        // factor gives the starting coordinate of the tile processed that cycle.
        // We sample the first few steps of the innermost loop plus random
        // points, which covers both the "corner" behaviour (cycle 0..3 tables of
        // Fig. 4) and the steady state. Every loop draws, iAct-indexing or not,
        // so the signature keeps the draws of the full loop nest.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let bases = (0..max_samples.max(4))
            .map(|k| {
                let mut base: PerDim = [0; Dim::ALL.len()];
                for &(dim, extent) in &loops {
                    // Every loop of the nest runs more than once.
                    let step = if k < 4 {
                        if Some(dim) == innermost {
                            k.min(extent - 1)
                        } else {
                            0
                        }
                    } else {
                        rng.gen_range(0..extent)
                    };
                    if indexes_iacts(dim) {
                        base[dim as usize] = step * spatial[dim as usize];
                    }
                }
                base
            })
            .collect();
        ReadSignature { spatial, bases }
    }
}

/// The layout-independent half of the analysis: per sampled cycle, the
/// values each iAct dim `[n, c, h, w]` takes across the lanes. A lane's `n`
/// depends only on its `N` offset, `c` on `C`, `h` on `P` and `R`, and `w`
/// on `Q` and `S`, so a cycle reads the Cartesian product of its four value
/// sets.
#[derive(Debug, Clone)]
pub(crate) struct SampledReads {
    /// Every cycle's four value sets, cycle by cycle in `[n, c, h, w]`
    /// order, each as ascending runs `lo..=hi` of consecutive values with a
    /// gap between any two runs.
    runs: Vec<(usize, usize)>,
    /// `ends[4 * cycle + d]` is where set `d` of `cycle` ends in `runs`; it
    /// starts where the set before it ends.
    ends: Vec<usize>,
    /// Lanes per cycle: the product of the spatial factors.
    lanes: usize,
}

impl SampledReads {
    /// Expands `signature` into the values it reads on `workload`.
    pub(crate) fn new(workload: &Workload, signature: &ReadSignature) -> Self {
        let (stride, padding) = match workload.as_conv_layer() {
            Some(c) => (c.stride, c.padding),
            None => (1, 0),
        };
        let spatial = |dim: Dim| signature.spatial[dim as usize];
        // Per iAct dim, the distinct offsets its lanes add to a cycle's
        // start, ascending: `h` is `p * stride + r` past the start for lane
        // offsets `p` of `P` and `r` of `R`, and `w` likewise.
        let window = |out: Dim, kernel: Dim| {
            let mut hit = vec![false; spatial(out).saturating_sub(1) * stride + spatial(kernel)];
            for o in 0..spatial(out) {
                hit[o * stride..o * stride + spatial(kernel)].fill(true);
            }
            (0..hit.len()).filter(|&i| hit[i]).collect::<Vec<_>>()
        };
        let offsets = [
            (0..spatial(Dim::N)).collect(),
            (0..spatial(Dim::C)).collect(),
            window(Dim::P, Dim::R),
            window(Dim::Q, Dim::S),
        ];
        let pads = [0, 0, padding, padding];
        let last = Dim::IACT_DIMS.map(|dim| workload.dim(dim).saturating_sub(1));
        let mut runs: Vec<(usize, usize)> = Vec::new();
        let mut ends = Vec::with_capacity(4 * signature.bases.len());
        for base in &signature.bases {
            let at = |dim: Dim| base[dim as usize];
            let starts = [
                at(Dim::N),
                at(Dim::C),
                at(Dim::P) * stride + at(Dim::R),
                at(Dim::Q) * stride + at(Dim::S),
            ];
            for d in 0..4 {
                // Clamping keeps the values ascending: each one repeats or
                // extends the set's last run, or starts a new one.
                let first = runs.len();
                for &offset in &offsets[d] {
                    let value = (starts[d] + offset).saturating_sub(pads[d]).min(last[d]);
                    match runs[first..].last_mut() {
                        Some((_, hi)) if value <= *hi + 1 => *hi = value,
                        _ => runs.push((value, value)),
                    }
                }
                ends.push(runs.len());
            }
        }
        SampledReads {
            runs,
            ends,
            lanes: signature.spatial.iter().product(),
        }
    }

    /// Joins the sampled reads with a layout's [`iact_plan`]: per sampled
    /// cycle, how many distinct lines the lanes touch and what `conflicts`
    /// makes of them. `conflicts` must be decided by the count
    /// ([`uncounted`] is `None`), as every validated architecture's is.
    ///
    /// Lines are counted per dim, not per lane. This rests on
    /// [`Layout::plan4`]'s line being mixed-radix: the sum of one digit per
    /// dim times a fixed weight, each digit below its radix. Two coordinates
    /// then share a line exactly when they share every dim's digit, so a
    /// cycle's distinct lines number the product of its dims' distinct
    /// digits, and a run of consecutive values has as many as its last
    /// value's digit minus its first's, plus one.
    pub(crate) fn analyze(&self, plan: &IactPlan, conflicts: &ConflictModel) -> AccessAnalysis {
        let mut total_slowdown = 0.0;
        let mut total_lines = 0.0;
        let mut start = 0;
        for ends in self.ends.chunks_exact(4) {
            let count: usize = (0..4)
                .map(|d| {
                    let set = &self.runs[start..ends[d]];
                    start = ends[d];
                    plan.distinct_digits(d, set)
                })
                .product();
            let assessment = conflicts
                .assess_read_count(count)
                .expect("the line count decides the conflicts of a validated buffer");
            total_slowdown += assessment.slowdown;
            total_lines += assessment.lines_touched as f64;
        }
        let sampled_cycles = (self.ends.len() / 4) as f64;
        AccessAnalysis {
            read_slowdown: total_slowdown / sampled_cycles,
            avg_lines_per_cycle: total_lines / sampled_cycles,
            concurrent_reads: self.lanes,
        }
    }
}

/// The layout-dependent half of the analysis ([`iact_plan`]): per dim of a
/// workload's `[n, c, h, w]` iAct extents, each value's line digit under a
/// layout — how many distinct line summands of [`Layout::plan4`] the dim's
/// smaller values add. A summand never decreases as its value grows, so
/// consecutive values' digits step by 0 or 1.
#[derive(Debug, Clone)]
pub(crate) struct IactPlan {
    digits: [Vec<usize>; 4],
}

impl IactPlan {
    /// How many distinct line digits the values of `runs` have in dim `d`.
    fn distinct_digits(&self, d: usize, runs: &[(usize, usize)]) -> usize {
        let digits = &self.digits[d];
        let mut count = 0;
        let mut prev = None;
        for &(lo, hi) in runs {
            count += digits[hi] - digits[lo] + 1;
            // The run's first digit is the previous run's last one.
            if prev == Some(digits[lo]) {
                count -= 1;
            }
            prev = Some(digits[hi]);
        }
        count
    }
}

/// The layout-dependent half of the analysis: `layout` precompiled over the
/// `[n, c, h, w]` extents of `workload`'s iAct tensor.
pub(crate) fn iact_plan(workload: &Workload, layout: &Layout) -> IactPlan {
    let extents = Dim::IACT_DIMS.map(|dim| workload.dim(dim));
    let plan = layout.plan4(std::array::from_fn(|d| (Dim::IACT_DIMS[d], extents[d])));
    let digits = std::array::from_fn(|d| {
        let line = |value: usize| plan.summand(d, value).line;
        let mut digit = 0;
        (0..extents[d].max(1))
            .map(|value| {
                if value > 0 && line(value) != line(value - 1) {
                    digit += 1;
                }
                digit
            })
            .collect()
    });
    IactPlan { digits }
}

/// Why a cycle's count of distinct lines cannot decide `conflicts`, if it
/// cannot: several vertical banks, where the fullest bank depends on which
/// lines are read. One bank, or horizontal banks, are decided by the count.
pub(crate) fn uncounted(conflicts: &ConflictModel) -> Option<String> {
    let banks = conflicts.spec().num_banks;
    conflicts.assess_read_count(0).is_none().then(|| {
        format!("{banks} vertical banks, whose conflicts a cycle's line count cannot decide")
    })
}

/// Analyzes the iAct read pattern of a (workload, dataflow, layout) triple
/// against a conflict model, sampling up to `max_samples` execution cycles
/// (deterministically, from `seed`).
///
/// # Errors
/// Returns [`ArchError::InvalidDataflow`] if the dataflow is malformed, or if
/// the buffer has several vertical banks, whose conflicts the count of a
/// cycle's distinct lines cannot decide.
pub fn analyze_iact_reads(
    workload: &Workload,
    dataflow: &Dataflow,
    layout: &Layout,
    conflicts: &ConflictModel,
    max_samples: usize,
    seed: u64,
) -> Result<AccessAnalysis, ArchError> {
    dataflow.validate()?;
    if let Some(problem) = uncounted(conflicts) {
        return Err(ArchError::InvalidDataflow(format!("buffer has {problem}")));
    }
    let signature = ReadSignature::new(workload, dataflow, max_samples, seed);
    let reads = SampledReads::new(workload, &signature);
    Ok(reads.analyze(&iact_plan(workload, layout), conflicts))
}

#[cfg(test)]
mod oracle {
    use std::collections::BTreeMap;

    use super::*;

    /// The iAct coordinate a given lane touches for a given temporal base point.
    fn iact_coord(
        workload: &Workload,
        base: &BTreeMap<Dim, usize>,
        lane: &BTreeMap<Dim, usize>,
        stride: usize,
        padding: usize,
    ) -> BTreeMap<Dim, usize> {
        let get = |dim: Dim| -> usize {
            base.get(&dim).copied().unwrap_or(0) + lane.get(&dim).copied().unwrap_or(0)
        };
        let c = get(Dim::C).min(workload.dim(Dim::C).saturating_sub(1));
        let n = get(Dim::N).min(workload.dim(Dim::N).saturating_sub(1));
        let p = get(Dim::P);
        let q = get(Dim::Q);
        let r = get(Dim::R);
        let s = get(Dim::S);
        let h_raw = p * stride + r;
        let w_raw = q * stride + s;
        let h = h_raw
            .saturating_sub(padding)
            .min(workload.dim(Dim::H).saturating_sub(1));
        let w = w_raw
            .saturating_sub(padding)
            .min(workload.dim(Dim::W).saturating_sub(1));
        [(Dim::N, n), (Dim::C, c), (Dim::H, h), (Dim::W, w)]
            .into_iter()
            .collect()
    }

    /// Enumerates all spatial-lane offset combinations for the dims that index the
    /// input activations (`N`, `C`, and `P`/`Q`/`R`/`S` through the sliding
    /// window). Dims like `M` broadcast the same iAct to many PEs and therefore do
    /// not multiply the number of distinct requests.
    fn iact_lanes(dataflow: &Dataflow) -> Vec<BTreeMap<Dim, usize>> {
        let relevant: Vec<(Dim, usize)> = dataflow
            .spatial_factors()
            .into_iter()
            .filter(|(d, _)| matches!(d, Dim::N | Dim::C | Dim::P | Dim::Q | Dim::R | Dim::S))
            .collect();
        let mut lanes: Vec<BTreeMap<Dim, usize>> = vec![BTreeMap::new()];
        for (dim, factor) in relevant {
            let mut next = Vec::with_capacity(lanes.len() * factor);
            for lane in &lanes {
                for off in 0..factor {
                    let mut l = lane.clone();
                    l.insert(dim, off);
                    next.push(l);
                }
            }
            lanes = next;
        }
        lanes
    }

    /// Dimension extents of the iAct tensor (what the layout maps over).
    fn iact_dim_sizes(workload: &Workload) -> BTreeMap<Dim, usize> {
        [
            (Dim::N, workload.dim(Dim::N)),
            (Dim::C, workload.dim(Dim::C)),
            (Dim::H, workload.dim(Dim::H)),
            (Dim::W, workload.dim(Dim::W)),
        ]
        .into_iter()
        .collect()
    }

    /// The map-based analysis [`super::analyze_iact_reads`] replaced, kept as the
    /// reference the equivalence proptest compares against.
    pub fn analyze_iact_reads(
        workload: &Workload,
        dataflow: &Dataflow,
        layout: &Layout,
        conflicts: &ConflictModel,
        max_samples: usize,
        seed: u64,
    ) -> AccessAnalysis {
        let (stride, padding) = match workload.as_conv_layer() {
            Some(c) => (c.stride, c.padding),
            None => (1, 0),
        };
        let dim_sizes = iact_dim_sizes(workload);
        let lanes = iact_lanes(dataflow);
        let spatial = dataflow.spatial_factors();

        // Temporal base points: the per-dimension block index times the spatial
        // factor gives the starting coordinate of the tile processed that cycle.
        // We sample the first few steps of every temporal dimension plus random
        // points, which covers both the "corner" behaviour (cycle 0..3 tables of
        // Fig. 4) and the steady state.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut samples: Vec<BTreeMap<Dim, usize>> = Vec::new();
        let temporal_dims: Vec<(Dim, usize)> = dataflow.temporal(workload).collect();
        let base_for = |steps: &mut dyn FnMut(Dim, usize) -> usize| -> BTreeMap<Dim, usize> {
            let mut base = BTreeMap::new();
            for &(dim, extent) in &temporal_dims {
                let step = steps(dim, extent);
                let spatial_f = spatial.get(&dim).copied().unwrap_or(1);
                base.insert(dim, step * spatial_f);
            }
            base
        };
        // First four deterministic steps of the innermost loops.
        for k in 0..4usize {
            samples.push(base_for(&mut |dim, extent| {
                if Some(dim) == temporal_dims.last().map(|&(d, _)| d) {
                    k.min(extent.saturating_sub(1))
                } else {
                    0
                }
            }));
        }
        while samples.len() < max_samples.max(4) {
            let sample = base_for(&mut |_, extent| {
                if extent <= 1 {
                    0
                } else {
                    rng.gen_range(0..extent)
                }
            });
            samples.push(sample);
        }

        let mut total_slowdown = 0.0;
        let mut total_lines = 0.0;
        for base in &samples {
            let coords: Vec<BTreeMap<Dim, usize>> = lanes
                .iter()
                .map(|lane| iact_coord(workload, base, lane, stride, padding))
                .collect();
            let lines = layout.lines_touched(coords.iter(), &dim_sizes);
            let assessment = conflicts.assess_reads(lines.iter().copied());
            total_slowdown += assessment.slowdown;
            total_lines += assessment.lines_touched as f64;
        }
        let n = samples.len() as f64;
        AccessAnalysis {
            read_slowdown: total_slowdown / n,
            avg_lines_per_cycle: total_lines / n,
            concurrent_reads: lanes.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchSpec;
    use crate::mapper::{search_dataflows, MapperConfig};
    use feather_arch::dataflow::ArrayShape;
    use feather_arch::workload::{ConvLayer, GemmLayer};
    use feather_memsim::{Banking, BufferSpec};
    use proptest::prelude::*;

    /// Every mapper candidate × every conv and GEMM layout candidate, new
    /// analysis against the map-based oracle, `==` on the f64s. The picks
    /// choose the array shape, the mapper and `max_samples`.
    fn assert_matches_oracle(
        w: &Workload,
        (shape_pick, mapper_pick, samples_pick): (usize, usize, usize),
        (banking_pick, ports): (usize, usize),
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let (rows, cols) = [(4, 4), (4, 8), (16, 16)][shape_pick];
        let arch = ArchSpec::feather_like(rows, cols);
        let mapper = [MapperConfig::fast(), MapperConfig::default()][mapper_pick];
        let max_samples = [1, 4, 16][samples_pick];
        // Both bankings the line count decides: one bank, horizontal banks.
        let (banks, banking) =
            [(1, Banking::VerticalBlocked), (4, Banking::Horizontal)][banking_pick];
        let drawn = BufferSpec::new(4096, 8, banks, banking).with_ports(ports, ports);
        let models = [arch.conflict_model(), ConflictModel::new(drawn)];
        let mut layouts = Layout::conv_candidates();
        layouts.extend(Layout::gemm_candidates());
        for df in search_dataflows(&arch, w, &mapper) {
            for layout in &layouts {
                for cm in &models {
                    prop_assert_eq!(
                        analyze_iact_reads(w, &df, layout, cm, max_samples, seed).unwrap(),
                        oracle::analyze_iact_reads(w, &df, layout, cm, max_samples, seed),
                        "{} under {}",
                        df,
                        layout
                    );
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn conv_analysis_equals_map_based_oracle(
            m in 1usize..40,
            c in 1usize..40,
            h in 1usize..20,
            w in 1usize..20,
            kernel_pick in 0usize..4,
            stride in 1usize..3,
            padding in 0usize..4,
            shape_pick in 0usize..3,
            mapper_pick in 0usize..2,
            samples_pick in 0usize..3,
            banking_pick in 0usize..2,
            ports in 1usize..=3,
            seed in 0u64..1000,
        ) {
            let k = [1, 3, 5, 7][kernel_pick];
            prop_assume!(h + 2 * padding >= k && w + 2 * padding >= k);
            let layer: Workload = ConvLayer::new(1, m, c, h, w, k, k)
                .with_stride(stride)
                .with_padding(padding)
                .into();
            let picks = (shape_pick, mapper_pick, samples_pick);
            assert_matches_oracle(&layer, picks, (banking_pick, ports), seed)?;
        }

        #[test]
        fn gemm_analysis_equals_map_based_oracle(
            m in 1usize..70,
            k in 1usize..70,
            n in 1usize..70,
            shape_pick in 0usize..3,
            mapper_pick in 0usize..2,
            samples_pick in 0usize..3,
            banking_pick in 0usize..2,
            ports in 1usize..=3,
            seed in 0u64..1000,
        ) {
            let gemm: Workload = GemmLayer::new(m, k, n).into();
            let picks = (shape_pick, mapper_pick, samples_pick);
            assert_matches_oracle(&gemm, picks, (banking_pick, ports), seed)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The precondition of [`SampledReads::analyze`]: under every
        /// candidate layout, the product of per-dim value sets touches as
        /// many distinct lines as the product of the dims' distinct line
        /// summands — the line is mixed-radix — and a summand never
        /// decreases as its value grows.
        #[test]
        fn plan_lines_are_mixed_radix(
            n in 1usize..4,
            c in 1usize..70,
            h in 1usize..40,
            w in 1usize..40,
            n_set in collection::btree_set(0usize..4, 1..4),
            c_set in collection::btree_set(0usize..70, 1..12),
            h_set in collection::btree_set(0usize..40, 1..10),
            w_set in collection::btree_set(0usize..40, 1..10),
        ) {
            use std::collections::BTreeSet;
            let extents = [n, c, h, w];
            // A value past its extent clamps to the last, as the reads do.
            let sets: Vec<Vec<usize>> = [n_set, c_set, h_set, w_set]
                .iter()
                .zip(extents)
                .map(|(set, extent)| {
                    let clamped: BTreeSet<usize> = set.iter().map(|&v| v.min(extent - 1)).collect();
                    clamped.into_iter().collect()
                })
                .collect();
            let mut layouts = Layout::conv_candidates();
            layouts.extend(Layout::gemm_candidates());
            for layout in &layouts {
                let plan = layout.plan4(std::array::from_fn(|d| (Dim::IACT_DIMS[d], extents[d])));
                let mut lines = BTreeSet::new();
                for &a in &sets[0] {
                    for &b in &sets[1] {
                        for &c in &sets[2] {
                            for &d in &sets[3] {
                                lines.insert(plan.location([a, b, c, d]).line);
                            }
                        }
                    }
                }
                let digits: usize = (0..4)
                    .map(|d| {
                        let summands: BTreeSet<usize> =
                            sets[d].iter().map(|&v| plan.summand(d, v).line).collect();
                        summands.len()
                    })
                    .product();
                prop_assert_eq!(lines.len(), digits, "{}", layout);
                for (d, &extent) in extents.iter().enumerate() {
                    let summands: Vec<usize> =
                        (0..extent).map(|v| plan.summand(d, v).line).collect();
                    prop_assert!(summands.windows(2).all(|p| p[0] <= p[1]), "{} dim {}", layout, d);
                }
            }
        }
    }

    #[test]
    fn feather_counts_lines_without_building_them() {
        // One bank: the count of FEATHER's distinct lines decides their
        // conflicts, and `SampledReads::analyze` never builds the lines.
        let model = ArchSpec::feather_like(16, 16).conflict_model();
        assert_eq!(model.spec().num_banks, 1);
        assert!(uncounted(&model).is_none());
    }

    #[test]
    fn malformed_inputs_are_errors() {
        // A zero spatial factor on C is refused, as `evaluate` refuses it,
        // rather than analysed as zero lanes; so is a buffer whose conflicts
        // the line count cannot decide.
        let w = layer47();
        let df = Dataflow::channel_parallel(ArrayShape::new(4, 4), &w, 4);
        let mut zero_c = df.clone();
        for p in zero_c
            .row_parallel
            .iter_mut()
            .chain(&mut zero_c.col_parallel)
        {
            if p.dim == Dim::C {
                p.factor = 0;
            }
        }
        let banked = |banking| ConflictModel::new(BufferSpec::new(4096, 8, 4, banking));
        let cases = [
            (&zero_c, conflict_model(), "spatial factor for C is zero"),
            (&df, banked(Banking::VerticalBlocked), "4 vertical banks"),
            (
                &df,
                banked(Banking::VerticalInterleaved),
                "4 vertical banks",
            ),
        ];
        let layout: Layout = "HWC_C8".parse().unwrap();
        for (df, cm, problem) in cases {
            match analyze_iact_reads(&w, df, &layout, &cm, 8, 0) {
                Err(ArchError::InvalidDataflow(msg)) => assert!(msg.contains(problem), "{msg}"),
                other => panic!("{problem}: {other:?}"),
            }
        }
    }

    fn conflict_model() -> ConflictModel {
        // Single bank with dual ports: any access of more than two lines stalls.
        ConflictModel::new(BufferSpec::new(4096, 8, 1, Banking::VerticalBlocked).with_ports(2, 2))
    }

    fn layer47() -> Workload {
        ConvLayer::new(1, 512, 2048, 7, 7, 3, 3)
            .with_padding(1)
            .into()
    }

    #[test]
    fn channel_parallel_on_row_major_conflicts() {
        // Fig. 4-M7: channel-parallel dataflow + row-major layout → 4 lines
        // per cycle → 0.5 practical utilization (2× slowdown).
        let w = layer47();
        let df = Dataflow::channel_parallel(ArrayShape::new(4, 4), &w, 4);
        let layout: Layout = "HCW_W8".parse().unwrap();
        let a = analyze_iact_reads(&w, &df, &layout, &conflict_model(), 8, 0).unwrap();
        assert!(a.read_slowdown >= 1.9, "expected ~2x slowdown, got {a:?}");
        assert!(!a.is_concordant());
    }

    #[test]
    fn channel_parallel_on_channel_last_is_concordant() {
        // Fig. 4-M5/M8 direction: channel-last supplies C0:3 from one line.
        let w = layer47();
        let df = Dataflow::channel_parallel(ArrayShape::new(4, 4), &w, 4);
        let layout: Layout = "HWC_C8".parse().unwrap();
        let a = analyze_iact_reads(&w, &df, &layout, &conflict_model(), 8, 0).unwrap();
        assert!(a.is_concordant(), "{a:?}");
        assert!(a.avg_lines_per_cycle <= 1.5);
    }

    #[test]
    fn sliding_window_parallel_prefers_row_major() {
        let w: Workload = ConvLayer::new(1, 64, 3, 224, 224, 7, 7)
            .with_stride(2)
            .with_padding(3)
            .into();
        let df = Dataflow::sliding_window_parallel(ArrayShape::new(4, 4), &w, 4);
        let row_major: Layout = "HCW_W8".parse().unwrap();
        let channel_last: Layout = "HWC_W2C3".parse().unwrap();
        let cm = conflict_model();
        let rm = analyze_iact_reads(&w, &df, &row_major, &cm, 8, 0).unwrap();
        let cl = analyze_iact_reads(&w, &df, &channel_last, &cm, 8, 0).unwrap();
        assert!(rm.read_slowdown < cl.read_slowdown, "rm {rm:?} cl {cl:?}");
    }

    #[test]
    fn lane_count_matches_concurrent_accesses() {
        let w = layer47();
        let df = Dataflow::weight_stationary(ArrayShape::new(16, 16), &w);
        let layout: Layout = "HWC_C32".parse().unwrap();
        let a = analyze_iact_reads(&w, &df, &layout, &conflict_model(), 4, 0).unwrap();
        assert_eq!(
            a.concurrent_reads,
            df.concurrent_accesses(feather_arch::dims::Operand::IActs)
        );
    }

    #[test]
    fn analysis_is_deterministic_for_a_seed() {
        let w = layer47();
        let df = Dataflow::channel_parallel(ArrayShape::new(8, 8), &w, 8);
        let layout: Layout = "HWC_C4W8".parse().unwrap();
        let cm = conflict_model();
        let a = analyze_iact_reads(&w, &df, &layout, &cm, 16, 7).unwrap();
        let b = analyze_iact_reads(&w, &df, &layout, &cm, 16, 7).unwrap();
        assert_eq!(a, b);
    }
}
