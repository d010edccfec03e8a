//! Network-level pipeline execution: back-to-back layers through the
//! ping/pong StaB.
//!
//! FEATHER's headline capability (§III-C, §V of the paper) is *low-cost
//! on-chip dataflow switching*: while layer `i` reads its iActs from the
//! active StaB half, BIRRD reduces its oActs into the shadow half **already
//! arranged in layer `i + 1`'s preferred iAct layout** (Reorder-in-Reduction).
//! A ping/pong swap at the layer boundary then makes those outputs the next
//! layer's inputs — no DRAM round trip, no reorder pass, no re-staging.
//!
//! [`NetworkSession`] is that executor: it takes an ordered chain of
//! convolution layers with per-layer mappings, stages the first layer's iActs
//! once, runs every layer through the tile loop, quantizes accumulators at
//! each boundary (the architecturally-free quantization module of §III-C.4)
//! and swaps the StaB halves. The result carries per-layer [`RunReport`]s
//! with *pipelined* DRAM accounting plus network totals.
//!
//! A chain is a graph with one segment, and it executes like one:
//! [`NetworkSession::run`] compiles the chain into a [`crate::Program`] — the
//! record pass counts every cycle, access and conflict without touching a
//! value — and replays it over the real operands.
//!
//! # Example
//!
//! ```
//! use feather::{FeatherConfig, NetworkSession};
//! use feather_arch::tensor::Tensor4;
//! use feather_arch::workload::ConvLayer;
//!
//! // Two chained layers: 4→4 channels at 6×6, then a 1×1 on the result.
//! let l1 = ConvLayer::new(1, 4, 4, 6, 6, 3, 3).with_padding(1).with_name("l1");
//! let l2 = ConvLayer::new(1, 4, 4, 6, 6, 1, 1).with_name("l2");
//! let cfg = FeatherConfig::new(4, 4);
//! let session = NetworkSession::weight_stationary(
//!     cfg,
//!     &[l1.clone(), l2.clone()],
//!     &["HWC_C4", "HWC_C4"],
//!     "MPQ_Q4",
//! )
//! .unwrap();
//!
//! let iacts = Tensor4::random([1, 4, 6, 6], 1);
//! let weights = [Tensor4::random([4, 4, 3, 3], 2), Tensor4::random([4, 4, 1, 1], 3)];
//! let run = session.run(&iacts, &weights).unwrap();
//!
//! // One swap per layer (the last one publishes the outputs), and the
//! // intermediate activations never touched DRAM.
//! assert_eq!(run.report.stab_swaps, 2);
//! assert!(run.report.dram_activation_bytes() < run.report.layer_at_a_time_activation_bytes());
//! ```

use std::sync::Arc;

use feather_arch::dataflow::Dataflow;
use feather_arch::dims::Operand;
use feather_arch::energy::{EnergyBreakdown, EnergyModel};
use feather_arch::layout::Layout;
use feather_arch::tensor::Tensor4;
use feather_arch::workload::ConvLayer;
use feather_arch::{ArchError, DataType};
use feather_memsim::{AccessStats, Banking, BufferSpec};

use crate::accelerator::check_weight_shape;
use crate::config::FeatherConfig;
use crate::core::{CoreRun, RouteCache, RouteCacheStats};
use crate::graph_session::GraphSession;
use crate::mapping::LayerMapping;
use crate::report::{LayerSummary, NetworkRun, RunReport};

/// Default power-of-two quantization shift applied to the INT32 accumulators
/// at every layer boundary before they become the next layer's INT8 iActs.
pub const DEFAULT_QUANT_SHIFT: u32 = 6;

/// A network-level pipeline executor over FEATHER's ping/pong StaB.
///
/// See the [module documentation](self) for the architectural story and an
/// end-to-end example.
#[derive(Debug, Clone)]
pub struct NetworkSession {
    config: FeatherConfig,
    steps: Vec<(ConvLayer, LayerMapping)>,
    quant_shift: u32,
    quant_zero: i8,
    /// Compiled BIRRD route programs, shared across this session's layers,
    /// runs, calling threads — and sibling sessions of a graph.
    route_cache: Arc<RouteCache>,
}

impl NetworkSession {
    /// Creates a session from fully-resolved per-layer mappings.
    ///
    /// # Errors
    /// Returns an error if the chain is empty, a layer or mapping is invalid,
    /// consecutive layers do not chain shape-wise
    /// ([`ConvLayer::chains_into`]), or a layer's oAct layout is not the
    /// producer-side view of the next layer's iAct layout (the RIR boundary
    /// contract, [`Layout::as_producer_oact_layout`]).
    pub fn from_mappings(
        config: FeatherConfig,
        steps: Vec<(ConvLayer, LayerMapping)>,
    ) -> Result<Self, ArchError> {
        if steps.is_empty() {
            return Err(ArchError::InvalidWorkload(
                "a pipeline session needs at least one layer".to_string(),
            ));
        }
        for (layer, mapping) in &steps {
            layer.validate()?;
            mapping.validate(layer, &config)?;
        }
        for (i, pair) in steps.windows(2).enumerate() {
            let (layer, mapping) = &pair[0];
            let (next_layer, next_mapping) = &pair[1];
            if !layer.chains_into(next_layer) {
                return Err(ArchError::InvalidWorkload(format!(
                    "pipeline boundary {i}: `{layer}` does not chain into `{next_layer}` \
                     (output shape must equal the next input shape)"
                )));
            }
            let required = next_mapping.iact_layout.as_producer_oact_layout();
            if mapping.oact_layout != required {
                return Err(ArchError::InvalidDataflow(format!(
                    "pipeline boundary {i}: layer `{layer}` writes oActs as {} but the next \
                     layer reads {} — RIR must target {required}",
                    mapping.oact_layout, next_mapping.iact_layout
                )));
            }
        }
        Ok(NetworkSession {
            config,
            steps,
            quant_shift: DEFAULT_QUANT_SHIFT,
            quant_zero: 0,
            route_cache: Arc::new(RouteCache::new()),
        })
    }

    /// Convenience constructor: builds the paper's weight-stationary mapping
    /// for every layer, with the given per-layer iAct layouts. Each layer's
    /// oAct layout is derived from the *next* layer's iAct layout (the RIR
    /// boundary contract); the last layer uses `last_oact_layout`.
    ///
    /// # Errors
    /// Same as [`NetworkSession::from_mappings`], plus a shape error if the
    /// layout slice length does not match the layer count and
    /// [`ArchError::ParseLayout`] if a layout string does not parse.
    pub fn weight_stationary(
        config: FeatherConfig,
        layers: &[ConvLayer],
        iact_layouts: &[&str],
        last_oact_layout: &str,
    ) -> Result<Self, ArchError> {
        if layers.len() != iact_layouts.len() {
            return Err(ArchError::ShapeMismatch(format!(
                "{} layers but {} iAct layouts",
                layers.len(),
                iact_layouts.len()
            )));
        }
        let parsed = iact_layouts
            .iter()
            .map(|s| s.parse())
            .collect::<Result<Vec<Layout>, _>>()?;
        let last_oact_layout: Layout = last_oact_layout.parse()?;
        let steps = layers
            .iter()
            .zip(parsed.iter().enumerate())
            .map(|(layer, (i, iact_layout))| {
                let oact_layout = match parsed.get(i + 1) {
                    Some(next) => next.as_producer_oact_layout(),
                    None => last_oact_layout.clone(),
                };
                let mapping = LayerMapping::weight_stationary_layouts(
                    layer,
                    &config,
                    iact_layout.clone(),
                    oact_layout,
                );
                (layer.clone(), mapping)
            })
            .collect();
        NetworkSession::from_mappings(config, steps)
    }

    /// Builds a session from a co-searched `(dataflow, iAct layout)` schedule,
    /// e.g. the per-layer result of
    /// `layoutloop::cosearch::plan_network`. oAct layouts are derived from the
    /// successor's iAct layout as in [`NetworkSession::weight_stationary`].
    ///
    /// # Errors
    /// Same as [`NetworkSession::from_mappings`], plus a shape error on a
    /// schedule length mismatch and a dataflow error if a scheduled dataflow
    /// cannot be projected onto FEATHER's `M`-rows × `C·Q`-columns controller.
    pub fn from_schedule(
        config: FeatherConfig,
        layers: &[ConvLayer],
        schedule: &[(Dataflow, Layout)],
        last_oact_layout: Layout,
    ) -> Result<Self, ArchError> {
        if layers.len() != schedule.len() {
            return Err(ArchError::ShapeMismatch(format!(
                "{} layers but {} schedule entries",
                layers.len(),
                schedule.len()
            )));
        }
        let steps = layers
            .iter()
            .enumerate()
            .map(|(i, layer)| {
                let (dataflow, iact_layout) = &schedule[i];
                let oact_layout = match schedule.get(i + 1) {
                    Some((_, next)) => next.as_producer_oact_layout(),
                    None => last_oact_layout.clone(),
                };
                let mapping = LayerMapping::from_dataflow(
                    layer,
                    &config,
                    dataflow,
                    iact_layout.clone(),
                    oact_layout,
                )?;
                Ok((layer.clone(), mapping))
            })
            .collect::<Result<Vec<_>, ArchError>>()?;
        NetworkSession::from_mappings(config, steps)
    }

    /// Overrides the boundary quantization parameters (builder style).
    pub fn with_quantization(mut self, shift: u32, zero_point: i8) -> Self {
        self.quant_shift = shift;
        self.quant_zero = zero_point;
        self
    }

    /// The boundary quantization parameters `(shift, zero_point)` — needed to
    /// reproduce the pipeline with sequential per-layer calls.
    pub fn quantization(&self) -> (u32, i8) {
        (self.quant_shift, self.quant_zero)
    }

    /// Returns a copy of the session with every layer's batch size replaced:
    /// the same staged weights serve all `n` samples of each tile.
    ///
    /// # Errors
    /// Propagates chain re-validation errors (none in practice — batching
    /// preserves chainability).
    pub fn with_batch(&self, n: usize) -> Result<Self, ArchError> {
        let steps = self
            .steps
            .iter()
            .map(|(layer, mapping)| (layer.clone().with_batch(n), mapping.clone()))
            .collect();
        let mut session = NetworkSession::from_mappings(self.config, steps)?;
        session.quant_shift = self.quant_shift;
        session.quant_zero = self.quant_zero;
        session.route_cache = self.route_cache.clone();
        Ok(session)
    }

    /// Makes this session resolve BIRRD routes through `cache` — how a graph
    /// session shares one compiled-route memo across all its segments.
    pub(crate) fn share_route_cache(&mut self, cache: Arc<RouteCache>) {
        self.route_cache = cache;
    }

    /// The session's shared compiled-route cache — the program compiler
    /// resolves (and warms) routes through it during the collect pass.
    pub(crate) fn route_cache(&self) -> &Arc<RouteCache> {
        &self.route_cache
    }

    /// Counters of the session's shared compiled-route cache (hits, misses,
    /// resident programs). Batched copies made with
    /// [`NetworkSession::with_batch`] share the same cache, so their traffic
    /// shows up here too.
    pub fn route_cache_stats(&self) -> RouteCacheStats {
        self.route_cache.stats()
    }

    /// The resolved `(layer, mapping)` chain, in execution order.
    pub fn steps(&self) -> &[(ConvLayer, LayerMapping)] {
        &self.steps
    }

    /// The hardware configuration.
    pub fn config(&self) -> FeatherConfig {
        self.config
    }

    /// Executes the whole chain back-to-back: stages `iacts` once into the
    /// active StaB half, then for each layer reads from the active half,
    /// BIRRD-reduces into the shadow half in the next layer's layout, and
    /// swaps at the boundary. `weights` holds one tensor per layer. The chain
    /// compiles as a one-segment [`GraphSession`] and its program replays;
    /// the report is the program's cost.
    ///
    /// # Errors
    /// Returns an error on operand shape mismatches or if BIRRD cannot route
    /// a required reduction-reorder pattern.
    pub fn run(
        &self,
        iacts: &Tensor4<i8>,
        weights: &[Tensor4<i8>],
    ) -> Result<NetworkRun, ArchError> {
        if weights.len() != self.steps.len() {
            return Err(ArchError::ShapeMismatch(format!(
                "{} weight tensors for {} layers",
                weights.len(),
                self.steps.len()
            )));
        }
        let (first_layer, _) = &self.steps[0];
        let expected = [first_layer.n, first_layer.c, first_layer.h, first_layer.w];
        if iacts.shape() != expected {
            return Err(ArchError::ShapeMismatch(format!(
                "iacts shape {:?}, expected {:?}",
                iacts.shape(),
                expected
            )));
        }
        for ((layer, _), w) in self.steps.iter().zip(weights) {
            check_weight_shape(layer, w)?;
        }
        let chain = GraphSession::from_chain(self.clone())?;
        let nodes = chain.graph().nodes().iter().map(|node| node.id);
        let run = chain.run(iacts, &nodes.zip(weights.iter().cloned()).collect())?;
        let segment = run.report.segments.into_iter().next();
        Ok(NetworkRun {
            oacts: run.oacts,
            report: segment.expect("a chain is one segment").report,
        })
    }
}

/// Buffer discipline of the active StaB half while a layer reads its iActs:
/// for read-conflict purposes the StaB behaves like one dual-ported logical
/// bank — reading more than two distinct lines in a cycle stalls. Shared by
/// the graph compiler's record pass and the accounted test loop.
pub(crate) fn iact_spec(layer: &ConvLayer, mapping: &LayerMapping) -> BufferSpec {
    let lines = mapping
        .iact_layout
        .total_lines(&layer.iact_dim_sizes())
        .max(1);
    BufferSpec::new(
        lines,
        mapping.iact_layout.line_size(),
        1,
        Banking::VerticalBlocked,
    )
    .with_ports(2, 2)
}

/// Buffer discipline of the shadow StaB half while a layer writes its oActs:
/// `AW` horizontal banks, one element column each (§III-C).
pub(crate) fn oact_spec(layer: &ConvLayer, mapping: &LayerMapping) -> BufferSpec {
    let lines = mapping
        .oact_layout
        .total_lines(&layer.oact_dim_sizes())
        .max(1);
    BufferSpec::new(
        lines,
        mapping.oact_layout.line_size(),
        mapping.oact_layout.line_size(),
        Banking::Horizontal,
    )
    .with_ports(2, 2)
}

/// Assembles one layer's report from the core counters and the per-layer
/// buffer statistics, with pipelined DRAM accounting: only the first layer
/// stages iActs from DRAM, only the last drains oActs back. Used by the
/// compiled program's cost assembly.
#[allow(clippy::too_many_arguments)]
pub(crate) fn layer_summary(
    config: &FeatherConfig,
    energy_model: &EnergyModel,
    layer: &ConvLayer,
    core: &CoreRun,
    iact_stats: AccessStats,
    oact_stats: AccessStats,
    is_first: bool,
    is_last: bool,
) -> LayerSummary {
    let dtype = DataType::Int8;
    let staged_iact_bytes = layer.operand_bytes(Operand::IActs, dtype);
    let drained_oact_bytes = layer.operand_bytes(Operand::OActs, dtype);
    let dram_iact_bytes = if is_first { staged_iact_bytes } else { 0 };
    let dram_weight_bytes = layer.operand_bytes(Operand::Weights, dtype);
    let dram_oact_bytes = if is_last { drained_oact_bytes } else { 0 };
    let dram_bytes = dram_iact_bytes + dram_weight_bytes + dram_oact_bytes;

    let stall_cycles = iact_stats.conflict_stall_cycles;
    let cycles = core.cycles + stall_cycles;
    let macs = core.macs;
    let cols = config.cols;

    let energy = EnergyBreakdown {
        compute_pj: macs as f64 * energy_model.mac_pj(dtype),
        register_pj: macs as f64 * 2.0 * energy_model.register_pj_per_byte,
        sram_pj: energy_model.sram_pj(iact_stats.element_reads + oact_stats.element_writes),
        dram_pj: energy_model.dram_pj(dram_bytes),
        noc_pj: (core.birrd_adds + core.birrd_passes * cols as u64) as f64
            * energy_model.reduction_switch_pj,
        leakage_pj: config.num_pes() as f64 * cycles as f64 * energy_model.leakage_pj_per_pe_cycle,
    };
    let utilization = macs as f64 / (cycles.max(1) as f64 * config.num_pes() as f64).max(1.0);

    LayerSummary {
        name: layer.name.clone(),
        report: RunReport {
            cycles,
            stall_cycles,
            macs,
            birrd_passes: core.birrd_passes,
            birrd_adds: core.birrd_adds,
            iact_stats,
            oact_stats,
            dram_iact_bytes,
            dram_weight_bytes,
            dram_oact_bytes,
            utilization: utilization.min(1.0),
            energy,
        },
        standalone_activation_dram_bytes: staged_iact_bytes + drained_oact_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feather_arch::tensor::{conv2d_reference, quantize_to_i8};

    /// A 3-layer chain with a layout switch at every boundary.
    fn chain() -> (Vec<ConvLayer>, Vec<&'static str>, &'static str) {
        let layers = vec![
            ConvLayer::new(1, 4, 4, 6, 6, 3, 3)
                .with_padding(1)
                .with_name("c0"),
            ConvLayer::new(1, 8, 4, 6, 6, 1, 1).with_name("c1"),
            ConvLayer::new(1, 4, 8, 6, 6, 3, 3)
                .with_padding(1)
                .with_name("c2"),
        ];
        (layers, vec!["HWC_C4", "HWC_C4", "HWC_C4W2"], "MPQ_Q4")
    }

    fn chain_weights() -> Vec<Tensor4<i8>> {
        vec![
            Tensor4::random([4, 4, 3, 3], 21),
            Tensor4::random([8, 4, 1, 1], 22),
            Tensor4::random([4, 8, 3, 3], 23),
        ]
    }

    fn session() -> NetworkSession {
        let (layers, iact_layouts, last) = chain();
        NetworkSession::weight_stationary(FeatherConfig::new(4, 8), &layers, &iact_layouts, last)
            .unwrap()
    }

    /// The chain through the reference convolution, quantized between
    /// layers: the last layer's accumulators.
    fn reference(s: &NetworkSession, iacts: &Tensor4<i8>, weights: &[Tensor4<i8>]) -> Tensor4<i32> {
        let (shift, zero) = s.quantization();
        let mut acc = conv2d_reference(&s.steps()[0].0, iacts, &weights[0]).unwrap();
        for ((layer, _), w) in s.steps().iter().zip(weights).skip(1) {
            acc = conv2d_reference(layer, &quantize_to_i8(&acc, shift, zero), w).unwrap();
        }
        acc
    }

    #[test]
    fn pipeline_matches_sequential_execution_bit_exactly() {
        let s = session();
        let iacts = Tensor4::random([1, 4, 6, 6], 20);
        let weights = chain_weights();
        let run = s.run(&iacts, &weights).unwrap();
        assert_eq!(run.oacts, reference(&s, &iacts, &weights));
    }

    #[test]
    fn swap_count_equals_layer_count() {
        let s = session();
        let run = s
            .run(&Tensor4::random([1, 4, 6, 6], 20), &chain_weights())
            .unwrap();
        assert_eq!(run.report.stab_swaps, 3);
        assert_eq!(run.report.layers.len(), 3);
    }

    #[test]
    fn pipelined_dram_activation_traffic_is_strictly_lower() {
        let s = session();
        let run = s
            .run(&Tensor4::random([1, 4, 6, 6], 20), &chain_weights())
            .unwrap();
        let report = &run.report;
        assert!(report.dram_activation_bytes() < report.layer_at_a_time_activation_bytes());
        // Intermediate layers pay no activation DRAM traffic at all.
        assert_eq!(report.layers[1].report.dram_iact_bytes, 0);
        assert_eq!(report.layers[1].report.dram_oact_bytes, 0);
        assert_eq!(report.layers[0].report.dram_oact_bytes, 0);
        assert_eq!(report.layers[2].report.dram_iact_bytes, 0);
        assert!(report.dram_activation_savings() > 0.0);
    }

    #[test]
    fn batched_run_reuses_staged_weights() {
        let s = session();
        let weights = chain_weights();
        let batched_iacts = Tensor4::random([2, 4, 6, 6], 30);
        let batched = s.with_batch(2).unwrap();
        let run2 = batched.run(&batched_iacts, &weights).unwrap();

        // Per-sample equivalence against two single-batch runs.
        for sample in 0..2 {
            let single_iacts = Tensor4::from_fn([1, 4, 6, 6], |_, c, h, w| {
                batched_iacts.get(sample, c, h, w)
            });
            let run1 = s.run(&single_iacts, &weights).unwrap();
            let [_, m, p, q] = run1.oacts.shape();
            for mm in 0..m {
                for pp in 0..p {
                    for qq in 0..q {
                        assert_eq!(
                            run2.oacts.get(sample, mm, pp, qq),
                            run1.oacts.get(0, mm, pp, qq),
                            "sample {sample} diverged at ({mm},{pp},{qq})"
                        );
                    }
                }
            }
        }

        // Weights are staged once per tile and reused across the batch, so
        // doubling the batch must cost less than double the cycles.
        let single_iacts =
            Tensor4::from_fn([1, 4, 6, 6], |_, c, h, w| batched_iacts.get(0, c, h, w));
        let run1 = s.run(&single_iacts, &weights).unwrap();
        assert!(run2.report.total_cycles() < 2 * run1.report.total_cycles());
        assert_eq!(run2.report.total_macs(), 2 * run1.report.total_macs());
    }

    #[test]
    fn boundary_layout_contract_enforced() {
        let (layers, _, _) = chain();
        let cfg = FeatherConfig::new(4, 8);
        let mut steps: Vec<(ConvLayer, LayerMapping)> = layers
            .iter()
            .map(|l| {
                (
                    l.clone(),
                    LayerMapping::weight_stationary(l, &cfg, "HWC_C4", "PQM_M4").unwrap(),
                )
            })
            .collect();
        // Break the boundary: layer 0's oAct layout no longer matches what
        // layer 1 wants to read.
        steps[0].1.oact_layout = "MPQ_Q4".parse().unwrap();
        let err = NetworkSession::from_mappings(cfg, steps).unwrap_err();
        assert!(err.to_string().contains("RIR must target"), "{err}");
    }

    #[test]
    fn non_chaining_layers_rejected() {
        let cfg = FeatherConfig::new(4, 4);
        let l0 = ConvLayer::new(1, 4, 4, 6, 6, 3, 3).with_padding(1);
        let l1 = ConvLayer::new(1, 4, 8, 6, 6, 1, 1); // 8 != 4 output channels
        let err =
            NetworkSession::weight_stationary(cfg, &[l0, l1], &["HWC_C4", "HWC_C4"], "MPQ_Q4")
                .unwrap_err();
        assert!(err.to_string().contains("does not chain"), "{err}");
    }

    #[test]
    fn unparsable_layouts_are_errors_not_panics() {
        let (layers, _, _) = chain();
        let cfg = FeatherConfig::new(4, 8);
        let cases = [
            (["HWC_X4", "HWC_C4", "HWC_C4"], "MPQ_Q4"),
            (["HWC_C4", "HWC_C4", "HWC_C4"], "HWC_X4"),
        ];
        for (iact_layouts, last) in cases {
            let err =
                NetworkSession::weight_stationary(cfg, &layers, &iact_layouts, last).unwrap_err();
            assert!(matches!(err, ArchError::ParseLayout { .. }), "{err}");
        }
    }

    #[test]
    fn empty_session_rejected() {
        assert!(NetworkSession::from_mappings(FeatherConfig::new(4, 4), vec![]).is_err());
    }

    #[test]
    fn per_layer_reports_are_plausible() {
        let s = session();
        let run = s
            .run(&Tensor4::random([1, 4, 6, 6], 20), &chain_weights())
            .unwrap();
        for layer in &run.report.layers {
            assert!(layer.report.cycles > 0, "{}", layer.name);
            assert!(layer.report.macs > 0);
            assert!(layer.report.utilization > 0.0 && layer.report.utilization <= 1.0);
            assert!(layer.report.energy.total_pj() > 0.0);
            assert!(layer.report.dram_weight_bytes > 0);
        }
        let pes = s.config().num_pes();
        let u = run.report.utilization(pes);
        assert!(u > 0.0 && u <= 1.0);
    }

    #[test]
    fn from_schedule_builds_runnable_session() {
        use feather_arch::dataflow::{ArrayShape, Dataflow};

        let (layers, _, _) = chain();
        let cfg = FeatherConfig::new(4, 8);
        let schedule: Vec<(Dataflow, Layout)> = layers
            .iter()
            .map(|l| {
                (
                    Dataflow::weight_stationary(ArrayShape::new(4, 8), &l.clone().into()),
                    "HWC_C4".parse().unwrap(),
                )
            })
            .collect();
        let s = NetworkSession::from_schedule(cfg, &layers, &schedule, "MPQ_Q4".parse().unwrap())
            .unwrap();
        let iacts = Tensor4::random([1, 4, 6, 6], 20);
        let run = s.run(&iacts, &chain_weights()).unwrap();
        assert_eq!(run.oacts, reference(&s, &iacts, &chain_weights()));
    }
}
