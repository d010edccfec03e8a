//! Architecture specifications consumed by the Layoutloop evaluator.
//!
//! An [`ArchSpec`] captures exactly the knobs that matter for the paper's
//! comparison (Tab. IV): array size and datatype, the physical organization of
//! the on-chip activation buffer, which dataflows it runs (the parallelism
//! and shape of §II-A's TOPS), which on-chip reordering pattern the design supports
//! (§II-D/E), and how the reduction/distribution networks are built (for the
//! NoC energy model).

use feather_arch::dataflow::ArrayShape;
use feather_arch::dims::DataType;
use feather_arch::energy::EnergyModel;
use feather_arch::layout::Layout;
use feather_arch::ArchError;
use feather_memsim::{Banking, BufferSpec};
use serde::{Deserialize, Serialize};

use crate::access::uncounted;

/// On-chip data-reordering support (§II-D, Tab. III).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ReorderCapability {
    /// No reordering: one layout for the whole network.
    None,
    /// Off-chip reordering: oActs travel to DRAM, the CPU reorders them and
    /// they come back in the next layer's layout. The field is the available
    /// off-chip bandwidth in bytes per accelerator cycle (128 GB/s at 1 GHz ≈
    /// 128 B/cycle in the paper's SIGMA + HBM configuration).
    OffChip {
        /// Off-chip bandwidth in bytes per cycle.
        bandwidth_bytes_per_cycle: f64,
    },
    /// Medusa-style line rotation: a conflicted line can be served from a
    /// neighbouring bank's spare port, so up to three lines per bank can be
    /// read concurrently — but word-granularity layout changes are impossible.
    LineRotation,
    /// MTIA-style transpose unit (reorder-after-reduction).
    Transpose,
    /// TPUv4-style transpose + row reorder (reorder-after-reduction).
    TransposeRowReorder,
    /// FEATHER's reorder-in-reduction: arbitrary per-layer layout switching at
    /// zero latency cost.
    Rir,
}

impl ReorderCapability {
    /// Effective number of lines one bank can serve per cycle, given its
    /// nominal port count (line rotation borrows a neighbouring bank's port).
    pub fn effective_read_ports(&self, nominal: usize) -> usize {
        match self {
            ReorderCapability::LineRotation => nominal + 1,
            _ => nominal,
        }
    }
}

/// How the design reduces partial sums (for latency/energy of reduction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReductionStyle {
    /// Temporal/linear reduction along a systolic dimension (Gemmini, DPU).
    Linear,
    /// Logarithmic adder tree shared per column (NVDLA-like).
    Tree,
    /// Fully-flexible forward adder network spread over 1-D PEs (SIGMA's FAN,
    /// MAERI's ART).
    FlexibleTree,
    /// FEATHER's standalone BIRRD (one instance shared by all rows).
    Birrd,
}

/// How operands are distributed from the buffer to the PEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DistributionStyle {
    /// Systolic store-and-forward links.
    Systolic,
    /// Broadcast buses.
    Broadcast,
    /// Benes / crossbar unicast-multicast network (SIGMA).
    Benes,
    /// Simple point-to-point wires (FEATHER: the layout already matches the
    /// dataflow, so no redistribution is needed — §III-B.4).
    PointToPoint,
}

/// Which dataflow(s) the design can run — the one decision the mapper reads
/// of the paper's TOPS flexibility (§II-A, Tab. IV). Tiling and ordering are
/// not searched (every dataflow runs the canonical remainder nest), so a
/// design differs only in whether it re-chooses its parallel dims per layer
/// and, if so, whether it may also regroup the array.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DataflowPolicy {
    /// A single fixed dataflow family: no run-time choice of parallel dims
    /// (NVDLA, Gemmini, Eyeriss, Xilinx DPU, Edge TPU, TPU-like).
    Fixed(FixedDataflow),
    /// Free choice of parallel dims per layer (SIGMA, MTIA, FEATHER).
    Flexible {
        /// Whether one array axis may be split between two dims (the
        /// virtual shape grouping, the "S" of TOPS).
        shape: bool,
    },
}

/// The fixed dataflows used by the paper's fixed-dataflow baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FixedDataflow {
    /// Weight-stationary with M over rows and C over columns (NVDLA, Gemmini).
    WeightStationaryMC,
    /// Output-stationary with P over rows and Q over columns.
    OutputStationaryPQ,
    /// Row-stationary (Eyeriss): R over rows, P over columns.
    RowStationary,
    /// Xilinx DPU: fixed (M, C, HW) parallelism of (12, 12, 8) scaled to the
    /// array; modeled as M over rows, C over columns with a pixel-parallel
    /// factor folded in.
    DpuFixed,
}

/// A complete architecture description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArchSpec {
    /// Human-readable name (used in result tables).
    pub name: String,
    /// Physical PE array shape.
    pub shape: ArrayShape,
    /// Operand datatype.
    pub dtype: DataType,
    /// Physical organization of the on-chip activation buffer.
    pub activation_buffer: BufferSpec,
    /// Dataflow policy (fixed vs flexible).
    pub dataflow_policy: DataflowPolicy,
    /// The iAct layouts a layer may pick; one entry is a layout fixed for
    /// the whole network. When a layer's choice differs from the layout the
    /// previous layer left behind, the co-search prices the switch with the
    /// design's [`ReorderCapability`] (free under RIR, an extra on-chip pass
    /// for a transpose unit, a DRAM round trip without on-chip reordering),
    /// and the chaining pass picks, layer by layer, the layout with the
    /// lowest EDP under that price.
    pub layouts: Vec<Layout>,
    /// On-chip reordering capability.
    pub reorder: ReorderCapability,
    /// Reduction network style.
    pub reduction: ReductionStyle,
    /// Distribution network style.
    pub distribution: DistributionStyle,
    /// Off-chip bandwidth in bytes per cycle (tile streaming).
    pub dram_bandwidth_bytes_per_cycle: f64,
    /// Multiplier on per-MAC local storage energy, capturing how many times an
    /// operand is touched in per-PE registers/scratchpads and forwarded
    /// between PEs for a given dataflow style (row-stationary designs move
    /// data between neighbours many times; FEATHER touches it once).
    pub local_buffer_overhead: f64,
    /// Energy constants.
    pub energy: EnergyModel,
}

impl ArchSpec {
    fn default_buffer(line_size: usize) -> BufferSpec {
        // 128 KiB activation buffer exposed as one logical dual-port bank of
        // `line_size`-wide lines: this is the paper's Fig. 4 model ("TSMC
        // offers SRAM with at most two ports, such that a concurrent read for
        // more than two lines leads to slowdown").
        let num_lines = (128 * 1024) / line_size.max(1);
        BufferSpec::new(num_lines, line_size, 1, Banking::VerticalBlocked).with_ports(2, 2)
    }

    /// Designs whose distribution network buffers operands next to the PEs
    /// (systolic FIFOs, Eyeriss scratchpads) are *bandwidth*-limited rather
    /// than *concurrency*-limited: the per-PE storage decouples the buffer
    /// read timing from the compute timing, so only the aggregate line
    /// bandwidth matters for stalls.
    pub fn is_buffered_distribution(&self) -> bool {
        matches!(self.distribution, DistributionStyle::Systolic)
    }

    /// FEATHER: TOPS-flexible dataflow, arbitrary per-layer layouts via RIR,
    /// BIRRD reduction, point-to-point distribution.
    pub fn feather_like(rows: usize, cols: usize) -> Self {
        ArchSpec {
            name: format!("FEATHER-{}x{}", rows, cols),
            shape: ArrayShape::new(rows, cols),
            dtype: DataType::Int8,
            activation_buffer: Self::default_buffer(32),
            dataflow_policy: DataflowPolicy::Flexible { shape: true },
            layouts: Layout::conv_candidates(),
            reorder: ReorderCapability::Rir,
            reduction: ReductionStyle::Birrd,
            distribution: DistributionStyle::PointToPoint,
            dram_bandwidth_bytes_per_cycle: 32.0,
            local_buffer_overhead: 1.0,
            energy: EnergyModel::tsmc28(),
        }
    }

    /// NVDLA-like: fixed weight-stationary dataflow, fixed `HWC_C32` layout,
    /// no reordering, adder-tree reduction.
    pub fn nvdla_like(rows: usize, cols: usize) -> Self {
        ArchSpec {
            name: format!("NVDLA-like-{}x{}", rows, cols),
            shape: ArrayShape::new(rows, cols),
            dtype: DataType::Int8,
            activation_buffer: Self::default_buffer(32),
            dataflow_policy: DataflowPolicy::Fixed(FixedDataflow::WeightStationaryMC),
            layouts: vec!["HWC_C32".parse().expect("valid layout")],
            reorder: ReorderCapability::None,
            reduction: ReductionStyle::Tree,
            distribution: DistributionStyle::Broadcast,
            dram_bandwidth_bytes_per_cycle: 32.0,
            local_buffer_overhead: 1.5,
            energy: EnergyModel::tsmc28(),
        }
    }

    /// Eyeriss-like: row-stationary dataflow with filter folding, fixed
    /// layout, no reordering.
    pub fn eyeriss_like(rows: usize, cols: usize) -> Self {
        ArchSpec {
            name: format!("Eyeriss-like-{}x{}", rows, cols),
            shape: ArrayShape::new(rows, cols),
            dtype: DataType::Int8,
            activation_buffer: Self::default_buffer(32),
            dataflow_policy: DataflowPolicy::Fixed(FixedDataflow::RowStationary),
            layouts: vec!["HWC_C32".parse().expect("valid layout")],
            reorder: ReorderCapability::None,
            reduction: ReductionStyle::Linear,
            distribution: DistributionStyle::Systolic,
            dram_bandwidth_bytes_per_cycle: 32.0,
            local_buffer_overhead: 6.0,
            energy: EnergyModel::tsmc28(),
        }
    }

    /// SIGMA-like with a *fixed* layout (the paper evaluates `HWC_C32` and
    /// `HWC_C4W8`): fully-flexible dataflow but no reordering.
    pub fn sigma_like_fixed_layout(rows: usize, cols: usize, layout: &str) -> Self {
        ArchSpec {
            name: format!("SIGMA-like-{}", layout),
            shape: ArrayShape::new(rows, cols),
            dtype: DataType::Int8,
            activation_buffer: Self::default_buffer(32),
            dataflow_policy: DataflowPolicy::Flexible { shape: true },
            layouts: vec![layout.parse().expect("valid layout")],
            reorder: ReorderCapability::None,
            reduction: ReductionStyle::FlexibleTree,
            distribution: DistributionStyle::Benes,
            dram_bandwidth_bytes_per_cycle: 32.0,
            local_buffer_overhead: 1.2,
            energy: EnergyModel::tsmc28(),
        }
    }

    /// SIGMA-like with off-chip reordering over HBM (128 B/cycle).
    pub fn sigma_like_offchip_reorder(rows: usize, cols: usize) -> Self {
        let mut spec = Self::sigma_like_fixed_layout(rows, cols, "HWC_C32");
        spec.name = "SIGMA-like-offchip-reorder".to_string();
        spec.layouts = Layout::conv_candidates();
        spec.reorder = ReorderCapability::OffChip {
            bandwidth_bytes_per_cycle: 128.0,
        };
        spec
    }

    /// Medusa-like: SIGMA plus on-chip line rotation.
    pub fn medusa_like(rows: usize, cols: usize) -> Self {
        let mut spec = Self::sigma_like_fixed_layout(rows, cols, "HWC_C32");
        spec.name = "Medusa-like".to_string();
        spec.reorder = ReorderCapability::LineRotation;
        spec
    }

    /// MTIA-like: SIGMA plus an on-chip transpose (memory layout) unit.
    pub fn mtia_like(rows: usize, cols: usize) -> Self {
        let mut spec = Self::sigma_like_fixed_layout(rows, cols, "HWC_C32");
        spec.name = "MTIA-like".to_string();
        spec.dataflow_policy = DataflowPolicy::Flexible { shape: false };
        spec.layouts = transpose_reachable_layouts();
        spec.reorder = ReorderCapability::Transpose;
        spec
    }

    /// TPU-like: MTIA plus row reordering, on a fixed weight-stationary
    /// dataflow (Tab. IV gives it tiling and ordering flexibility only, and
    /// no parallelism choice).
    pub fn tpu_like(rows: usize, cols: usize) -> Self {
        let mut spec = Self::mtia_like(rows, cols);
        spec.name = "TPU-like".to_string();
        spec.dataflow_policy = DataflowPolicy::Fixed(FixedDataflow::WeightStationaryMC);
        spec.reorder = ReorderCapability::TransposeRowReorder;
        spec
    }

    /// Gemmini-like (for the real-device comparison of Fig. 12): 16×16
    /// weight-stationary systolic array, fixed layout, no reordering.
    pub fn gemmini_like() -> Self {
        let mut spec = Self::nvdla_like(16, 16);
        spec.name = "Gemmini-like".to_string();
        spec.reduction = ReductionStyle::Linear;
        spec.distribution = DistributionStyle::Systolic;
        spec
    }

    /// Xilinx-DPU-like (Fig. 12): 1152 MACs with fixed (M, C, pixel)
    /// parallelism of (12, 12, 8), modeled on a 12×96 grid.
    pub fn xilinx_dpu_like() -> Self {
        ArchSpec {
            name: "XilinxDPU-like".to_string(),
            shape: ArrayShape::new(12, 96),
            dtype: DataType::Int8,
            activation_buffer: Self::default_buffer(32),
            dataflow_policy: DataflowPolicy::Fixed(FixedDataflow::DpuFixed),
            layouts: vec!["HWC_C32".parse().expect("valid layout")],
            reorder: ReorderCapability::None,
            reduction: ReductionStyle::Tree,
            distribution: DistributionStyle::Broadcast,
            dram_bandwidth_bytes_per_cycle: 32.0,
            local_buffer_overhead: 2.0,
            energy: EnergyModel::tsmc28(),
        }
    }

    /// Edge-TPU-like (Fig. 12): 32×32 weight-stationary systolic array.
    pub fn edge_tpu_like() -> Self {
        let mut spec = Self::nvdla_like(32, 32);
        spec.name = "EdgeTPU-like".to_string();
        spec.reduction = ReductionStyle::Linear;
        spec.distribution = DistributionStyle::Systolic;
        spec
    }

    /// Rejects a spec the cost model cannot price: a zero buffer or array
    /// dimension or a DRAM bandwidth not positive and finite (it divides by
    /// these), or an activation buffer of several vertical banks, whose
    /// conflicts the count of a cycle's distinct lines cannot decide.
    pub(crate) fn validate(&self) -> Result<(), ArchError> {
        let buffer = &self.activation_buffer;
        let zero = [
            ("activation_buffer.num_lines", buffer.num_lines),
            ("activation_buffer.num_banks", buffer.num_banks),
            ("activation_buffer.line_size", buffer.line_size),
            ("activation_buffer.read_ports", buffer.read_ports),
            ("shape.rows", self.shape.rows),
            ("shape.cols", self.shape.cols),
        ]
        .into_iter()
        .find(|&(_, n)| n == 0);
        let bandwidth = self.dram_bandwidth_bytes_per_cycle;
        let problem = if let Some((field, _)) = zero {
            format!("{field} is zero")
        } else if let Some(problem) = uncounted(&self.conflict_model()) {
            format!("activation_buffer has {problem}")
        } else if bandwidth.is_finite() && bandwidth > 0.0 {
            return Ok(());
        } else {
            format!("dram_bandwidth_bytes_per_cycle is {bandwidth}")
        };
        Err(ArchError::InvalidDataflow(format!(
            "architecture `{}`: {problem}",
            self.name
        )))
    }

    /// The conflict model for the activation buffer, accounting for reorder
    /// hardware that effectively adds ports (line rotation).
    pub fn conflict_model(&self) -> feather_memsim::ConflictModel {
        let mut buf = self.activation_buffer;
        buf.read_ports = self.reorder.effective_read_ports(buf.read_ports);
        feather_memsim::ConflictModel::new(buf)
    }
}

/// Layouts reachable from `HWC_C32` via a transpose-style reorder unit: the
/// channel-last layout itself plus its "transposed" counterparts that swap
/// which single dimension is flattened into a line.
pub fn transpose_reachable_layouts() -> Vec<Layout> {
    vec![
        "HWC_C32".parse().expect("valid layout"),
        "HWC_W32".parse().expect("valid layout"),
        "HWC_H32".parse().expect("valid layout"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_capabilities() {
        let feather = ArchSpec::feather_like(16, 16);
        assert_eq!(feather.reorder, ReorderCapability::Rir);
        let flexible = DataflowPolicy::Flexible { shape: true };
        assert_eq!(feather.dataflow_policy, flexible);

        let nvdla = ArchSpec::nvdla_like(16, 16);
        assert_eq!(nvdla.reorder, ReorderCapability::None);
        assert_eq!(nvdla.layouts.len(), 1);

        let medusa = ArchSpec::medusa_like(16, 16);
        assert_eq!(medusa.reorder.effective_read_ports(2), 3);

        // MTIA re-chooses its parallel dims but cannot regroup the array;
        // TPU-like runs the one weight-stationary dataflow.
        let mtia = ArchSpec::mtia_like(16, 16);
        assert_eq!(
            mtia.dataflow_policy,
            DataflowPolicy::Flexible { shape: false }
        );
        let tpu = ArchSpec::tpu_like(16, 16);
        let ws = DataflowPolicy::Fixed(FixedDataflow::WeightStationaryMC);
        assert_eq!(tpu.dataflow_policy, ws);
    }

    #[test]
    fn layout_policy_candidates() {
        let feather = ArchSpec::feather_like(16, 16);
        assert_eq!(feather.layouts.len(), 7);
        let nvdla = ArchSpec::nvdla_like(16, 16);
        assert_eq!(nvdla.layouts.len(), 1);
        let mtia = ArchSpec::mtia_like(16, 16);
        assert_eq!(mtia.layouts.len(), 3);
    }

    #[test]
    fn conflict_model_reflects_line_rotation() {
        let medusa = ArchSpec::medusa_like(16, 16);
        let sigma = ArchSpec::sigma_like_fixed_layout(16, 16, "HWC_C32");
        // Reading three lines from one bank: Medusa's line rotation hides it,
        // plain SIGMA stalls.
        let lines = [0usize, 32, 64];
        assert!(medusa.conflict_model().read_slowdown(lines.iter().copied()) <= 1.0);
        assert!(sigma.conflict_model().read_slowdown(lines.iter().copied()) > 1.0);
    }

    #[test]
    fn dpu_shape_matches_1152_macs() {
        let dpu = ArchSpec::xilinx_dpu_like();
        assert_eq!(dpu.shape.pes(), 1152);
    }
}
