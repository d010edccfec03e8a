//! The Layoutloop cost model: latency, energy and utilization of one layer
//! executed with a given (dataflow, layout) pair on a given architecture.

use feather_arch::dataflow::Dataflow;
use feather_arch::dims::Operand;
use feather_arch::energy::EnergyBreakdown;
use feather_arch::layout::Layout;
use feather_arch::workload::ConvLayer;
use feather_arch::ArchError;
use serde::{Deserialize, Serialize};

use crate::access::{analyze_iact_reads, AccessAnalysis};
use crate::arch::{ArchSpec, DistributionStyle, ReductionStyle, ReorderCapability};

/// Number of execution cycles sampled by the access analyzer.
pub(crate) const ACCESS_SAMPLES: usize = 16;

/// Result of evaluating one layer under one (dataflow, layout) pair: numbers
/// only. What was evaluated is named by the caller, or by the
/// [`crate::cosearch::CoSearchResult`] that holds the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// Total latency in cycles (compute + stalls + exposed reorder, bounded
    /// below by the DRAM streaming time).
    pub cycles: u64,
    /// Ideal compute cycles (MACs / mapped PEs), before any stall.
    pub ideal_cycles: u64,
    /// Average bank-conflict slowdown (≥ 1).
    pub conflict_slowdown: f64,
    /// Cycles lost to bank conflicts.
    pub stall_cycles: u64,
    /// Cycles of layout-reordering work exposed on the critical path
    /// (off-chip reorder not hidden behind compute, or RAR passes).
    pub reorder_cycles: u64,
    /// Theoretical (mapping) utilization of the PE array.
    pub spatial_utilization: f64,
    /// Practical utilization after conflict slowdown.
    pub utilization: f64,
    /// Average buffer lines read per cycle for iActs.
    pub lines_per_cycle: f64,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Extra energy spent purely on layout reordering (already included in
    /// `energy`), reported separately for the Fig. 13 cost split.
    pub reorder_energy_pj: f64,
    /// Energy-delay product (total pJ × cycles) — the co-search objective.
    pub edp: f64,
}

impl Evaluation {
    /// Energy per MAC in pJ.
    pub fn pj_per_mac(&self, macs: u64) -> f64 {
        self.energy.pj_per_mac(macs)
    }
}

/// Evaluates one layer on an architecture with an explicit dataflow and
/// layout. `prev_layout` is the layout the previous layer left the activations
/// in: if it differs from `layout`, the architecture's reordering capability
/// determines the cost of the conversion.
///
/// # Errors
/// Returns [`ArchError::InvalidDataflow`] if the architecture is malformed or
/// the dataflow is malformed or does not fit the architecture's array.
pub fn evaluate(
    arch: &ArchSpec,
    workload: &ConvLayer,
    dataflow: &Dataflow,
    layout: &Layout,
    prev_layout: Option<&Layout>,
    seed: u64,
) -> Result<Evaluation, ArchError> {
    arch.validate()?;
    if dataflow.shape != arch.shape {
        return Err(ArchError::InvalidDataflow(format!(
            "dataflow shape {} does not match architecture shape {}",
            dataflow.shape, arch.shape
        )));
    }
    let analysis = analyze_iact_reads(
        workload,
        dataflow,
        layout,
        &arch.conflict_model(),
        ACCESS_SAMPLES,
        seed,
    )?;
    let needs_reorder = prev_layout.map(|p| p != layout).unwrap_or(false);
    Ok(DataflowCost::new(arch, workload, dataflow).price_for(&analysis, needs_reorder))
}

/// The dataflow-only terms of a pricing, computed once per dataflow and
/// combined with each of its [`AccessAnalysis`]es by [`DataflowCost::price`]:
/// ideal cycles, operand bytes, compute / NoC / register energy and spatial
/// utilization.
pub(crate) struct DataflowCost<'a> {
    arch: &'a ArchSpec,
    ideal_cycles: u64,
    iact_bytes: u64,
    weight_bytes: u64,
    oact_bytes: u64,
    compute_pj: f64,
    noc_pj: f64,
    register_pj: f64,
    spatial_utilization: f64,
}

impl<'a> DataflowCost<'a> {
    /// The terms of `dataflow` on `workload` that no layout changes.
    pub(crate) fn new(arch: &'a ArchSpec, workload: &ConvLayer, dataflow: &Dataflow) -> Self {
        let macs = workload.macs();
        let dtype_bytes = arch.dtype.bytes() as u64;
        let iact_bytes = workload.operand_elems(Operand::IActs) * dtype_bytes;
        let weight_bytes = workload.operand_elems(Operand::Weights) * dtype_bytes;
        let oact_bytes = workload.operand_elems(Operand::OActs) * dtype_bytes;
        // Distribution + reduction NoC traffic.
        let dist_factor = match arch.distribution {
            DistributionStyle::PointToPoint => 0.5,
            DistributionStyle::Systolic => 0.8,
            DistributionStyle::Broadcast => 1.0,
            DistributionStyle::Benes => 1.6,
        };
        let red_factor = match arch.reduction {
            ReductionStyle::Linear => 0.8,
            ReductionStyle::Tree => 1.0,
            ReductionStyle::Birrd => 1.2,
            ReductionStyle::FlexibleTree => 1.8,
        };
        DataflowCost {
            arch,
            ideal_cycles: dataflow.ideal_compute_cycles(workload),
            iact_bytes,
            weight_bytes,
            oact_bytes,
            compute_pj: macs as f64 * arch.energy.mac_pj(arch.dtype),
            noc_pj: arch.energy.noc_pj(iact_bytes + weight_bytes) * dist_factor
                + arch.energy.noc_pj(oact_bytes * 4) * red_factor,
            // Local register traffic: one operand pair read per MAC, scaled by
            // how often the dataflow style bounces operands through per-PE
            // storage.
            register_pj: macs as f64
                * 2.0
                * arch.energy.register_pj_per_byte
                * arch.local_buffer_overhead,
            spatial_utilization: dataflow.spatial_utilization(),
        }
    }

    /// The pricing half of [`evaluate`]: every number of the [`Evaluation`]
    /// from one [`AccessAnalysis`], as `[stay, switch]`. The predecessor
    /// layout enters only through whether it differs (*switch*) or not
    /// (*stay*), so a co-search prices both from the same analysis; under
    /// RIR the reorder changes no term, and *switch* is *stay*.
    ///
    /// Neither `edp` falls as the analysis's `read_slowdown` or
    /// `avg_lines_per_cycle` grows: stall cycles, iAct SRAM bytes and
    /// leakage rise with them, and an off-chip reorder's exposure keeps the
    /// latency at `max(compute, transfer)`. So pricing
    /// [`AccessAnalysis::floor`] bounds every layout's pricing from below —
    /// the branch and bound of [`crate::cosearch::co_search_table`].
    pub(crate) fn price(&self, analysis: &AccessAnalysis) -> [Evaluation; 2] {
        let stay = self.price_for(analysis, false);
        let switch = if self.arch.reorder == ReorderCapability::Rir {
            stay
        } else {
            self.price_for(analysis, true)
        };
        [stay, switch]
    }

    /// One pricing: *switch* when `needs_reorder`, *stay* otherwise.
    fn price_for(&self, analysis: &AccessAnalysis, needs_reorder: bool) -> Evaluation {
        let arch = self.arch;
        let ideal_cycles = self.ideal_cycles;

        // Designs with per-PE buffering (systolic FIFOs, Eyeriss scratchpads) are
        // bandwidth-limited: stalls only appear when the aggregate line bandwidth
        // cannot keep up with the distinct elements consumed per cycle. Designs
        // that feed PEs directly from the buffer (SIGMA, FEATHER, NVDLA-style
        // broadcast) are concurrency-limited and pay the per-cycle bank-conflict
        // slowdown of §V-B.
        let buffer = &arch.activation_buffer;
        let total_read_ports = (buffer.read_ports * buffer.num_banks).max(1);
        let slowdown = if arch.is_buffered_distribution() {
            let lines_needed_per_cycle =
                analysis.concurrent_reads as f64 / buffer.line_size.max(1) as f64;
            (lines_needed_per_cycle / total_read_ports as f64).max(1.0)
        } else {
            analysis.read_slowdown
        };
        let stall_cycles = ((slowdown - 1.0) * ideal_cycles as f64).round() as u64;

        // --- Layout reordering cost -------------------------------------------------
        let oact_bytes = self.oact_bytes;
        let line_size = arch.activation_buffer.line_size.max(1) as u64;
        let compute_cycles = ideal_cycles + stall_cycles;
        // A reorder through DRAM: the oActs are written back and re-read in
        // the new layout at `bandwidth`, hidden behind compute where it can be.
        let off_chip = |bandwidth: f64| {
            let extra_bytes = 2 * oact_bytes;
            let transfer_cycles = (extra_bytes as f64 / bandwidth).ceil() as u64;
            let exposed = transfer_cycles.saturating_sub(compute_cycles);
            (exposed, extra_bytes, 0.0, arch.energy.dram_pj(extra_bytes))
        };
        // The reorder's exposed cycles, its DRAM bytes, and its energy on
        // chip (SRAM) and off chip (DRAM).
        let (reorder_cycles, reorder_dram_bytes, reorder_sram_pj, reorder_dram_pj) =
            match arch.reorder {
                _ if !needs_reorder => (0, 0, 0.0, 0.0),
                ReorderCapability::Rir => (0, 0, 0.0, 0.0),
                ReorderCapability::OffChip {
                    bandwidth_bytes_per_cycle,
                } => off_chip(bandwidth_bytes_per_cycle),
                ReorderCapability::Transpose | ReorderCapability::TransposeRowReorder => {
                    // Reorder-after-reduction: the oActs make one extra round trip
                    // through the on-chip buffer via the reorder unit, on the
                    // critical path (Fig. 6b).
                    let extra_bytes = 2 * oact_bytes;
                    let rar_cycles = (oact_bytes / line_size.max(1)).max(1) * 2;
                    (rar_cycles, 0, arch.energy.sram_pj(extra_bytes), 0.0)
                }
                // These designs cannot produce a different layout on chip; the
                // only way out is through DRAM at the baseline bandwidth.
                ReorderCapability::LineRotation | ReorderCapability::None => {
                    off_chip(arch.dram_bandwidth_bytes_per_cycle)
                }
            };

        // --- Energy ------------------------------------------------------------------
        let (iact_bytes, weight_bytes) = (self.iact_bytes, self.weight_bytes);
        // iAct SRAM traffic. For directly-fed designs this is the lines actually
        // read per cycle times the cycles spent reading (this is where discordant
        // layouts pay: they read more lines to deliver the same data). Buffered
        // (systolic/scratchpad) designs fetch each element roughly once from the
        // global buffer and reuse it locally.
        let iact_sram_bytes = if arch.is_buffered_distribution() {
            iact_bytes * 2
        } else {
            (analysis.avg_lines_per_cycle * ideal_cycles as f64 * line_size as f64) as u64
        };
        // Weights stream through once per layer; oActs are written once.
        let sram_bytes = iact_sram_bytes + weight_bytes + oact_bytes;
        let sram_pj = arch.energy.sram_pj(sram_bytes);
        let dram_bytes = iact_bytes + weight_bytes + oact_bytes + reorder_dram_bytes;
        let dram_pj = arch.energy.dram_pj(dram_bytes - reorder_dram_bytes);

        let total_cycles_pre_leak = {
            // Memory-bound check: streaming the tile operands cannot go faster
            // than DRAM allows.
            let dram_cycles =
                (dram_bytes as f64 / arch.dram_bandwidth_bytes_per_cycle).ceil() as u64;
            (compute_cycles + reorder_cycles).max(dram_cycles)
        };
        let leakage_pj = arch.shape.pes() as f64
            * total_cycles_pre_leak as f64
            * arch.energy.leakage_pj_per_pe_cycle;

        let energy = EnergyBreakdown {
            compute_pj: self.compute_pj,
            register_pj: self.register_pj,
            sram_pj: sram_pj + reorder_sram_pj,
            dram_pj: dram_pj + reorder_dram_pj,
            noc_pj: self.noc_pj,
            leakage_pj,
        };

        let spatial_utilization = self.spatial_utilization;
        let utilization = (spatial_utilization / slowdown).min(1.0);
        let cycles = total_cycles_pre_leak;
        let edp = energy.total_pj() * cycles as f64;

        Evaluation {
            cycles,
            ideal_cycles,
            conflict_slowdown: slowdown,
            stall_cycles,
            reorder_cycles,
            spatial_utilization,
            utilization,
            lines_per_cycle: analysis.avg_lines_per_cycle,
            energy,
            reorder_energy_pj: reorder_sram_pj + reorder_dram_pj,
            edp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> ConvLayer {
        ConvLayer::new(1, 128, 256, 14, 14, 3, 3)
            .with_padding(1)
            .with_name("test_layer")
    }

    #[test]
    fn concordant_pair_has_no_stall() {
        let arch = ArchSpec::feather_like(16, 16);
        let w = layer();
        let df = Dataflow::weight_stationary(arch.shape, &w);
        let layout: Layout = "HWC_C32".parse().unwrap();
        let e = evaluate(&arch, &w, &df, &layout, None, 0).unwrap();
        assert!(e.conflict_slowdown <= 1.01, "{e:?}");
        assert_eq!(e.stall_cycles, 0);
        assert!(e.utilization > 0.9);
        assert!(e.cycles >= e.ideal_cycles);
    }

    #[test]
    fn discordant_pair_is_slower_and_less_efficient() {
        let arch = ArchSpec::sigma_like_fixed_layout(16, 16, "HCW_W32");
        let w = layer();
        let df = Dataflow::weight_stationary(arch.shape, &w);
        let good: Layout = "HWC_C32".parse().unwrap();
        let bad: Layout = "HCW_W32".parse().unwrap();
        let e_good = evaluate(&arch, &w, &df, &good, None, 0).unwrap();
        let e_bad = evaluate(&arch, &w, &df, &bad, None, 0).unwrap();
        assert!(
            e_bad.cycles > e_good.cycles,
            "good {e_good:?} bad {e_bad:?}"
        );
        assert!(e_bad.energy.total_pj() > e_good.energy.total_pj());
        assert!(e_bad.utilization < e_good.utilization);
    }

    #[test]
    fn rir_reorders_for_free_offchip_pays() {
        let w = layer();
        let from: Layout = "HWC_C32".parse().unwrap();
        let to: Layout = "HWC_C4W8".parse().unwrap();

        let feather = ArchSpec::feather_like(16, 16);
        let df = Dataflow::weight_stationary(feather.shape, &w);
        let e_feather = evaluate(&feather, &w, &df, &to, Some(&from), 0).unwrap();
        assert_eq!(e_feather.reorder_cycles, 0);
        assert_eq!(e_feather.reorder_energy_pj, 0.0);

        let sigma = ArchSpec::sigma_like_offchip_reorder(16, 16);
        let e_sigma = evaluate(&sigma, &w, &df, &to, Some(&from), 0).unwrap();
        assert!(e_sigma.reorder_energy_pj > 0.0);

        let mtia = ArchSpec::mtia_like(16, 16);
        let e_mtia = evaluate(&mtia, &w, &df, &to, Some(&from), 0).unwrap();
        assert!(e_mtia.reorder_cycles > 0);
    }

    #[test]
    fn no_reorder_cost_when_layout_unchanged() {
        let sigma = ArchSpec::sigma_like_offchip_reorder(16, 16);
        let w = layer();
        let df = Dataflow::weight_stationary(sigma.shape, &w);
        let l: Layout = "HWC_C32".parse().unwrap();
        let e = evaluate(&sigma, &w, &df, &l, Some(&l), 0).unwrap();
        assert_eq!(e.reorder_cycles, 0);
        assert_eq!(e.reorder_energy_pj, 0.0);
    }

    #[test]
    fn mismatched_shape_rejected() {
        let arch = ArchSpec::feather_like(16, 16);
        let w = layer();
        let df = Dataflow::weight_stationary(feather_arch::dataflow::ArrayShape::new(8, 8), &w);
        let l: Layout = "HWC_C32".parse().unwrap();
        assert!(evaluate(&arch, &w, &df, &l, None, 0).is_err());
    }

    #[test]
    fn edp_is_product_of_energy_and_cycles() {
        let arch = ArchSpec::feather_like(16, 16);
        let w = layer();
        let df = Dataflow::weight_stationary(arch.shape, &w);
        let l: Layout = "HWC_C32".parse().unwrap();
        let e = evaluate(&arch, &w, &df, &l, None, 0).unwrap();
        assert!((e.edp - e.energy.total_pj() * e.cycles as f64).abs() < 1e-6);
    }
}
