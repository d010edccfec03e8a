//! Results of running a layer, a pipelined chain or a whole graph on the
//! functional simulator: per-layer [`RunReport`]s, one pipelined segment's
//! [`NetworkReport`], and the [`GraphReport`] every run returns.

use std::sync::Arc;

use feather_arch::energy::EnergyBreakdown;
use feather_arch::tensor::Tensor4;
use feather_memsim::AccessStats;
use serde::{Deserialize, Serialize};

/// Performance/energy accounting for one layer execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Total cycles, including pipeline fill/drain and any stalls.
    pub cycles: u64,
    /// Cycles lost to StaB bank conflicts (zero when the mapping is concordant).
    pub stall_cycles: u64,
    /// Useful multiply-accumulates performed.
    pub macs: u64,
    /// Number of BIRRD passes (row fires).
    pub birrd_passes: u64,
    /// Number of adder activations inside BIRRD.
    pub birrd_adds: u64,
    /// StaB read-side access statistics.
    pub iact_stats: AccessStats,
    /// StaB write-side access statistics.
    pub oact_stats: AccessStats,
    /// DRAM traffic for input activations. In a pipelined run only the first
    /// layer stages its iActs from DRAM; later layers read them from the StaB
    /// half the previous layer filled, so this is zero for them.
    pub dram_iact_bytes: u64,
    /// DRAM traffic for weights (streamed once per layer).
    pub dram_weight_bytes: u64,
    /// DRAM traffic for output activations. In a pipelined run intermediate
    /// oActs stay on chip; only the last layer writes back.
    pub dram_oact_bytes: u64,
    /// Steady-state compute utilization (useful MACs / PE·cycles).
    pub utilization: f64,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
}

impl RunReport {
    /// Energy per MAC in pJ.
    pub fn pj_per_mac(&self) -> f64 {
        self.energy.pj_per_mac(self.macs)
    }

    /// Throughput in MACs per cycle.
    pub fn macs_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.macs as f64 / self.cycles as f64
        }
    }

    /// Total DRAM traffic of this layer (operands + results).
    pub fn dram_bytes(&self) -> u64 {
        self.dram_iact_bytes + self.dram_weight_bytes + self.dram_oact_bytes
    }

    /// DRAM traffic spent on activations only (iActs staged + oActs drained).
    pub fn dram_activation_bytes(&self) -> u64 {
        self.dram_iact_bytes + self.dram_oact_bytes
    }
}

/// The output tensor plus the run report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerRun {
    /// Output activations (INT32 accumulators, pre-quantization), in
    /// `(N, M, P, Q)` order.
    pub oacts: Tensor4<i32>,
    /// Performance/energy report.
    pub report: RunReport,
}

/// One layer's entry in a [`NetworkReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerSummary {
    /// Layer name.
    pub name: String,
    /// The layer's run report, with *pipelined* DRAM accounting (intermediate
    /// activations never touch DRAM).
    pub report: RunReport,
    /// The activation DRAM bytes this layer would have paid if executed
    /// layer-at-a-time (stage iActs from DRAM, drain oActs back) — the
    /// baseline the pipeline's savings are measured against.
    pub standalone_activation_dram_bytes: u64,
}

/// Aggregate accounting for one pipelined chain of layers — a segment of a
/// [`GraphReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkReport {
    /// Per-layer entries, in execution order.
    pub layers: Vec<LayerSummary>,
    /// Number of StaB ping/pong swaps performed: one per executed layer —
    /// every layer (including the last) ends with the boundary swap that
    /// publishes its oActs to the active side, so this equals the layer
    /// count.
    pub stab_swaps: u64,
}

impl NetworkReport {
    /// Total cycles across all layers.
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.report.cycles).sum()
    }

    /// Total useful MACs across all layers.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.report.macs).sum()
    }

    /// Total cycles lost to bank conflicts.
    pub fn total_stall_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.report.stall_cycles).sum()
    }

    /// Total energy in pJ.
    pub fn total_energy_pj(&self) -> f64 {
        self.layers.iter().map(|l| l.report.energy.total_pj()).sum()
    }

    /// Total DRAM traffic of the pipelined execution.
    pub fn dram_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.report.dram_bytes()).sum()
    }

    /// Activation DRAM traffic of the pipelined execution: the first layer's
    /// iAct staging plus the last layer's oAct drain.
    pub fn dram_activation_bytes(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.report.dram_activation_bytes())
            .sum()
    }

    /// Activation DRAM traffic a layer-at-a-time execution of the same
    /// network would pay (every layer stages and drains through DRAM).
    pub fn layer_at_a_time_activation_bytes(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.standalone_activation_dram_bytes)
            .sum()
    }

    /// Fraction of activation DRAM traffic the pipeline eliminated relative
    /// to layer-at-a-time execution (0 for a single-layer session).
    pub fn dram_activation_savings(&self) -> f64 {
        let baseline = self.layer_at_a_time_activation_bytes();
        if baseline == 0 {
            return 0.0;
        }
        1.0 - self.dram_activation_bytes() as f64 / baseline as f64
    }

    /// MAC-per-PE-cycle utilization over the whole run.
    pub fn utilization(&self, num_pes: usize) -> f64 {
        let denom = self.total_cycles().max(1) as f64 * num_pes.max(1) as f64;
        (self.total_macs() as f64 / denom).min(1.0)
    }
}

/// One linear segment's entry in a [`GraphReport`]: the pipelined
/// [`NetworkReport`] of its layers, with graph-level DRAM accounting (an
/// intermediate segment's boundary tensors stay on chip — in the StaB
/// ping/pong handoff or the shortcut scratch region — so only the graph's
/// true input/output segments carry activation DRAM traffic).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentSummary {
    /// Names of the nodes executed, in order.
    pub nodes: Vec<String>,
    /// The segment's pipelined execution report.
    pub report: NetworkReport,
    /// `true` when the segment's input was fetched from the shortcut scratch
    /// region rather than handed over in the StaB (projection branches).
    pub input_from_scratch: bool,
}

/// One residual join's entry in a [`GraphReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JoinSummary {
    /// The add node's name.
    pub name: String,
    /// Elements joined.
    pub elements: u64,
    /// Elements that saturated at the INT8 boundary.
    pub saturated: u64,
}

/// Aggregate accounting for a whole-graph execution
/// ([`GraphSession`](crate::graph_session::GraphSession)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphReport {
    /// Per-segment entries, in execution order. Nothing in them depends on
    /// the data, so every run of a program shares one list with
    /// [`Program::cost`](crate::Program::cost): a run's report holds a
    /// reference to it, not a copy.
    pub segments: Arc<[SegmentSummary]>,
    /// Per-join entries, in execution order.
    pub joins: Vec<JoinSummary>,
    /// Traffic of the shortcut scratch region (element counts are bytes for
    /// the INT8 tensors parked there).
    pub scratch: AccessStats,
    /// High-water mark of the scratch region in elements — the capacity a
    /// real shortcut SRAM would need.
    pub scratch_peak_elems: u64,
}

impl GraphReport {
    /// Iterates over every executed layer's summary, across all segments.
    pub fn layers(&self) -> impl Iterator<Item = &LayerSummary> {
        self.segments.iter().flat_map(|s| s.report.layers.iter())
    }

    /// Total cycles across all segments.
    pub fn total_cycles(&self) -> u64 {
        self.segments.iter().map(|s| s.report.total_cycles()).sum()
    }

    /// Total useful MACs across all segments.
    pub fn total_macs(&self) -> u64 {
        self.segments.iter().map(|s| s.report.total_macs()).sum()
    }

    /// Total StaB ping/pong swaps (one per executed layer).
    pub fn stab_swaps(&self) -> u64 {
        self.segments.iter().map(|s| s.report.stab_swaps).sum()
    }

    /// Total energy in pJ.
    pub fn total_energy_pj(&self) -> f64 {
        self.segments
            .iter()
            .map(|s| s.report.total_energy_pj())
            .sum()
    }

    /// Total DRAM traffic of the graph execution.
    pub fn dram_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.report.dram_bytes()).sum()
    }

    /// Activation DRAM traffic: only the graph input staging and the graph
    /// output drain (every other boundary stayed on chip).
    pub fn dram_activation_bytes(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| s.report.dram_activation_bytes())
            .sum()
    }

    /// Activation DRAM traffic a layer-at-a-time execution would pay (every
    /// layer staging its iActs from DRAM and draining its oActs back).
    pub fn layer_at_a_time_activation_bytes(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| s.report.layer_at_a_time_activation_bytes())
            .sum()
    }

    /// Fraction of activation DRAM traffic eliminated relative to
    /// layer-at-a-time execution.
    pub fn dram_activation_savings(&self) -> f64 {
        let baseline = self.layer_at_a_time_activation_bytes();
        if baseline == 0 {
            return 0.0;
        }
        1.0 - self.dram_activation_bytes() as f64 / baseline as f64
    }

    /// Bytes moved through the shortcut scratch region (INT8 parks + fetches).
    pub fn shortcut_bytes(&self) -> u64 {
        self.scratch.element_writes + self.scratch.element_reads
    }

    /// Total residual-add elements that saturated at the INT8 boundary.
    pub fn saturated_join_elements(&self) -> u64 {
        self.joins.iter().map(|j| j.saturated).sum()
    }

    /// MAC-per-PE-cycle utilization over the whole run.
    pub fn utilization(&self, num_pes: usize) -> f64 {
        let denom = self.total_cycles().max(1) as f64 * num_pes.max(1) as f64;
        (self.total_macs() as f64 / denom).min(1.0)
    }
}

/// The graph output tensor plus the aggregate report of a DAG execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphRun {
    /// The output node's activations: INT32 accumulators (pre-quantization)
    /// when the graph ends in a conv-like node, or the widened INT8 join
    /// result when it ends in a residual add.
    pub oacts: Tensor4<i32>,
    /// Aggregate per-segment + per-join accounting.
    pub report: GraphReport,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycles: u64, macs: u64) -> RunReport {
        RunReport {
            cycles,
            stall_cycles: 0,
            macs,
            birrd_passes: 10,
            birrd_adds: 30,
            iact_stats: AccessStats::default(),
            oact_stats: AccessStats::default(),
            dram_iact_bytes: 0,
            dram_weight_bytes: 0,
            dram_oact_bytes: 0,
            utilization: 1.0,
            energy: EnergyBreakdown {
                compute_pj: 200.0,
                ..Default::default()
            },
        }
    }

    #[test]
    fn derived_metrics() {
        let report = report(100, 400);
        assert!((report.macs_per_cycle() - 4.0).abs() < 1e-12);
        assert!((report.pj_per_mac() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_guard() {
        let mut r = report(0, 0);
        r.utilization = 0.0;
        r.energy = EnergyBreakdown::default();
        assert_eq!(r.macs_per_cycle(), 0.0);
        assert_eq!(r.pj_per_mac(), 0.0);
    }

    #[test]
    fn network_report_aggregates_and_savings() {
        let mut first = report(100, 400);
        first.dram_iact_bytes = 1000;
        first.dram_weight_bytes = 64;
        let mut last = report(50, 200);
        last.dram_oact_bytes = 500;
        last.dram_weight_bytes = 32;
        let net = NetworkReport {
            layers: vec![
                LayerSummary {
                    name: "l0".into(),
                    report: first,
                    standalone_activation_dram_bytes: 1000 + 800,
                },
                LayerSummary {
                    name: "l1".into(),
                    report: last,
                    standalone_activation_dram_bytes: 800 + 500,
                },
            ],
            stab_swaps: 2,
        };
        assert_eq!(net.total_cycles(), 150);
        assert_eq!(net.total_macs(), 600);
        assert_eq!(net.dram_bytes(), 1000 + 64 + 500 + 32);
        assert_eq!(net.dram_activation_bytes(), 1500);
        assert_eq!(net.layer_at_a_time_activation_bytes(), 3100);
        assert!(net.dram_activation_bytes() < net.layer_at_a_time_activation_bytes());
        let savings = net.dram_activation_savings();
        assert!(savings > 0.5 && savings < 0.52, "{savings}");
        assert!((net.utilization(4) - 1.0).abs() < 1e-12);
    }
}
