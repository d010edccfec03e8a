//! Network-level pipelining: back-to-back layers through the ping/pong
//! StaB.
//!
//! FEATHER's headline capability (§III-C, §V of the paper) is *low-cost
//! on-chip dataflow switching*: while layer `i` reads its iActs from the
//! active StaB half, BIRRD reduces its oActs into the shadow half **already
//! arranged in layer `i + 1`'s preferred iAct layout** (Reorder-in-Reduction).
//! A ping/pong swap at the layer boundary then makes those outputs the next
//! layer's inputs — no DRAM round trip, no reorder pass, no re-staging.
//!
//! A chain of convolution layers with per-layer mappings is a graph of one
//! segment: [`GraphSession::chain`] (resolved mappings) and
//! [`GraphSession::weight_stationary_chain`] (per-layer iAct layouts) build
//! one, every segment of a planned graph is one, and all of them obey the
//! same contract: consecutive layers chain shape-wise, and each layer's oAct
//! layout is the producer-side view of the next layer's iAct layout. A run
//! stages the first layer's iActs once, runs every layer through its
//! compiled tile loop, quantizes accumulators at each boundary (the
//! architecturally-free quantization module of §III-C.4) and swaps the StaB
//! halves; each layer's [`RunReport`] carries *pipelined* DRAM accounting.
//!
//! # Example
//!
//! ```
//! use feather::{FeatherConfig, GraphSession};
//! use feather_arch::tensor::Tensor4;
//! use feather_arch::workload::ConvLayer;
//!
//! // Two chained layers: 4→4 channels at 6×6, then a 1×1 on the result.
//! let l1 = ConvLayer::new(1, 4, 4, 6, 6, 3, 3).with_padding(1).with_name("l1");
//! let l2 = ConvLayer::new(1, 4, 4, 6, 6, 1, 1).with_name("l2");
//! let cfg = FeatherConfig::new(4, 4);
//! let session =
//!     GraphSession::weight_stationary_chain(cfg, &[l1, l2], &["HWC_C4", "HWC_C4"], "MPQ_Q4")
//!         .unwrap();
//!
//! let iacts = Tensor4::random([1, 4, 6, 6], 1);
//! let weights = [Tensor4::random([4, 4, 3, 3], 2), Tensor4::random([4, 4, 1, 1], 3)];
//! let nodes = session.graph().nodes().iter().map(|node| node.id);
//! let run = session.run(&iacts, &nodes.zip(weights).collect()).unwrap();
//!
//! // One swap per layer (the last one publishes the outputs), and the
//! // intermediate activations never touched DRAM.
//! assert_eq!(run.report.stab_swaps(), 2);
//! assert!(run.report.dram_activation_bytes() < run.report.layer_at_a_time_activation_bytes());
//! ```

use feather_arch::dims::Operand;
use feather_arch::energy::{EnergyBreakdown, EnergyModel};
use feather_arch::fabric::{FeatherConfig, LayerMapping};
use feather_arch::workload::ConvLayer;
use feather_arch::{ArchError, DataType};
use feather_memsim::{AccessStats, Banking, BufferSpec};

use crate::core::CoreRun;
use crate::report::{LayerSummary, RunReport};
#[cfg(doc)]
use crate::GraphSession;
#[cfg(doc)]
use feather_arch::layout::Layout;

/// Default power-of-two quantization shift applied to the INT32 accumulators
/// at every layer boundary before they become the next layer's INT8 iActs.
pub const DEFAULT_QUANT_SHIFT: u32 = 6;

/// Checks that `steps` form a pipelined chain on `config`: a valid array
/// shape ([`FeatherConfig::validate`]), at least one layer, every layer and
/// its mapping valid, consecutive layers chaining shape-wise
/// ([`ConvLayer::chains_into`]), and each layer's oAct layout the
/// producer-side view of the next layer's iAct layout (the RIR boundary
/// contract, [`Layout::as_producer_oact_layout`]). Together the last two
/// give a layer's oAct half and the next layer's iAct half the same line
/// geometry, which the record pass relies on at every ping/pong swap.
pub(crate) fn validate_chain(
    config: &FeatherConfig,
    steps: &[(ConvLayer, LayerMapping)],
) -> Result<(), ArchError> {
    config.validate()?;
    if steps.is_empty() {
        return Err(ArchError::InvalidWorkload(
            "a pipeline session needs at least one layer".to_string(),
        ));
    }
    for (layer, mapping) in steps {
        layer.validate()?;
        mapping.validate(layer, config)?;
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
    Ok(())
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

/// The one record of what a compiled layer costs: its report, assembled from
/// the record pass's core counters and StaB statistics, with the layer's
/// DRAM traffic decided by three facts of the graph — whether it stages its
/// iActs from DRAM (`stages_iacts`: the first layer of the segment that reads
/// the graph input), drains its oActs to DRAM (`drains_oacts`: the last layer
/// of the segment that produces the graph output) and streams weights
/// (`streams_weights`: any layer but a pooling lowering, whose window
/// constants are synthesized).
#[allow(clippy::too_many_arguments)]
pub(crate) fn layer_summary(
    config: &FeatherConfig,
    energy_model: &EnergyModel,
    layer: &ConvLayer,
    core: &CoreRun,
    iact_stats: AccessStats,
    oact_stats: AccessStats,
    stages_iacts: bool,
    drains_oacts: bool,
    streams_weights: bool,
) -> LayerSummary {
    let dtype = DataType::Int8;
    let staged_iact_bytes = layer.operand_bytes(Operand::IActs, dtype);
    let drained_oact_bytes = layer.operand_bytes(Operand::OActs, dtype);
    let weight_bytes = layer.operand_bytes(Operand::Weights, dtype);
    let dram_iact_bytes = if stages_iacts { staged_iact_bytes } else { 0 };
    let dram_weight_bytes = if streams_weights { weight_bytes } else { 0 };
    let dram_oact_bytes = if drains_oacts { drained_oact_bytes } else { 0 };
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
    use crate::report::GraphReport;
    use crate::GraphSession;
    use feather_arch::graph::{resnet50_graph_scaled, Graph};
    use feather_arch::tensor::{conv2d_reference, quantize_to_i8, Tensor4};

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

    fn session() -> GraphSession {
        let (layers, iact_layouts, last) = chain();
        let cfg = FeatherConfig::new(4, 8);
        GraphSession::weight_stationary_chain(cfg, &layers, &iact_layouts, last).unwrap()
    }

    /// Runs chain `s` with one weight tensor per layer, in order: the
    /// outputs and the report of the run, which has one segment.
    fn run(
        s: &GraphSession,
        iacts: &Tensor4<i8>,
        weights: &[Tensor4<i8>],
    ) -> (Tensor4<i32>, GraphReport) {
        let nodes = s.graph().nodes().iter().map(|node| node.id);
        let run = s
            .run(iacts, &nodes.zip(weights.iter().cloned()).collect())
            .unwrap();
        assert_eq!(run.report.segments.len(), 1, "a chain is one segment");
        (run.oacts, run.report)
    }

    /// The chain through the reference convolution, quantized between
    /// layers: the last layer's accumulators.
    fn reference(s: &GraphSession, iacts: &Tensor4<i8>, weights: &[Tensor4<i8>]) -> Tensor4<i32> {
        let (shift, zero) = s.quantization();
        let nodes = s.graph().nodes();
        let layers: Vec<ConvLayer> = nodes.iter().filter_map(|n| n.execution_conv()).collect();
        let mut acc = conv2d_reference(&layers[0], iacts, &weights[0]).unwrap();
        for (layer, w) in layers.iter().zip(weights).skip(1) {
            acc = conv2d_reference(layer, &quantize_to_i8(&acc, shift, zero), w).unwrap();
        }
        acc
    }

    #[test]
    fn pipeline_matches_sequential_execution_bit_exactly() {
        let s = session();
        let iacts = Tensor4::random([1, 4, 6, 6], 20);
        let weights = chain_weights();
        let (oacts, _) = run(&s, &iacts, &weights);
        assert_eq!(oacts, reference(&s, &iacts, &weights));
    }

    #[test]
    fn swap_count_equals_layer_count() {
        let (_, report) = run(
            &session(),
            &Tensor4::random([1, 4, 6, 6], 20),
            &chain_weights(),
        );
        assert_eq!(report.stab_swaps(), 3);
        assert_eq!(report.layers().count(), 3);
    }

    #[test]
    fn pipelined_dram_activation_traffic_is_strictly_lower() {
        let (_, report) = run(
            &session(),
            &Tensor4::random([1, 4, 6, 6], 20),
            &chain_weights(),
        );
        assert!(report.dram_activation_bytes() < report.layer_at_a_time_activation_bytes());
        // Intermediate layers pay no activation DRAM traffic at all.
        let layers = &report.segments[0].layers;
        assert_eq!(layers[1].report.dram_iact_bytes, 0);
        assert_eq!(layers[1].report.dram_oact_bytes, 0);
        assert_eq!(layers[0].report.dram_oact_bytes, 0);
        assert_eq!(layers[2].report.dram_iact_bytes, 0);
        assert!(report.dram_activation_savings() > 0.0);
    }

    #[test]
    fn batched_run_reuses_staged_weights() {
        let s = session();
        let weights = chain_weights();
        let batched_iacts = Tensor4::random([2, 4, 6, 6], 30);
        let batched = s.with_batch(2).unwrap();
        let (oacts2, report2) = run(&batched, &batched_iacts, &weights);

        // Per-sample equivalence against two single-batch runs.
        for sample in 0..2 {
            let single_iacts = Tensor4::from_fn([1, 4, 6, 6], |_, c, h, w| {
                batched_iacts.get(sample, c, h, w)
            });
            let (oacts1, _) = run(&s, &single_iacts, &weights);
            let [_, m, p, q] = oacts1.shape();
            for mm in 0..m {
                for pp in 0..p {
                    for qq in 0..q {
                        assert_eq!(
                            oacts2.get(sample, mm, pp, qq),
                            oacts1.get(0, mm, pp, qq),
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
        let (_, report1) = run(&s, &single_iacts, &weights);
        assert!(report2.total_cycles() < 2 * report1.total_cycles());
        assert_eq!(report2.total_macs(), 2 * report1.total_macs());
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
        let err = GraphSession::chain(cfg, steps).unwrap_err();
        assert!(err.to_string().contains("RIR must target"), "{err}");
    }

    /// The golden dump's residual graph (`tests/program_dump_golden.rs`):
    /// its `pre_head → head` tail is a two-layer segment.
    fn golden_residual() -> Graph {
        let conv = |m, c, k, name| {
            ConvLayer::new(1, m, c, 6, 6, k, k)
                .with_padding(k / 2)
                .with_name(name)
        };
        let mut g = Graph::new("golden_residual", [1, 4, 6, 6]);
        let stem = g.conv(g.input(), conv(4, 4, 3, "stem")).unwrap();
        let main = g.conv(stem, conv(8, 4, 1, "b0_main")).unwrap();
        let proj = g.conv(stem, conv(8, 4, 1, "b0_proj")).unwrap();
        let joined = g.add(main, proj, "b0_add").unwrap();
        let tail = g.conv(joined, conv(8, 8, 3, "pre_head")).unwrap();
        g.conv(tail, conv(4, 8, 1, "head")).unwrap();
        g
    }

    /// At a pipelined boundary the ping/pong swap hands layer `i`'s oAct
    /// half to layer `i + 1` as its iAct half, so the record pass, which
    /// resets one ledger per half to each layer's own spec, relies on both
    /// specs describing the same lines. [`validate_chain`] is what
    /// guarantees it: `chains_into` makes the producer's oAct extents the
    /// consumer's iAct extents, and the RIR layout contract makes the oAct
    /// layout the producer-side view of the next iAct layout.
    #[test]
    fn pipelined_boundaries_hand_over_the_same_stab_geometry() {
        let models = [
            (FeatherConfig::new(8, 16), resnet50_graph_scaled(16, 16)),
            (FeatherConfig::new(16, 16), resnet50_graph_scaled(8, 8)),
            (FeatherConfig::new(4, 8), golden_residual()),
        ];
        for (config, graph) in models {
            let session = GraphSession::auto(config, &graph).unwrap();
            let mut boundaries = 0;
            for seg in &session.segments {
                for pair in seg.steps.windows(2) {
                    let ((layer, mapping), (next, next_mapping)) = (&pair[0], &pair[1]);
                    let out = oact_spec(layer, mapping);
                    let next_in = iact_spec(next, next_mapping);
                    assert_eq!(
                        (out.num_lines, out.line_size),
                        (next_in.num_lines, next_in.line_size),
                        "{}: `{layer}` hands {} to `{next}` reading {}",
                        graph.name,
                        mapping.oact_layout,
                        next_mapping.iact_layout
                    );
                    boundaries += 1;
                }
            }
            assert!(boundaries > 0, "{} has no pipelined boundary", graph.name);
        }
    }

    #[test]
    fn non_chaining_layers_rejected() {
        let cfg = FeatherConfig::new(4, 4);
        let l0 = ConvLayer::new(1, 4, 4, 6, 6, 3, 3).with_padding(1);
        let l1 = ConvLayer::new(1, 4, 8, 6, 6, 1, 1); // 8 != 4 output channels
        let err =
            GraphSession::weight_stationary_chain(cfg, &[l0, l1], &["HWC_C4", "HWC_C4"], "MPQ_Q4")
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
            let err = GraphSession::weight_stationary_chain(cfg, &layers, &iact_layouts, last)
                .unwrap_err();
            assert!(matches!(err, ArchError::ParseLayout { .. }), "{err}");
        }
    }

    #[test]
    fn empty_session_rejected() {
        let err = GraphSession::chain(FeatherConfig::new(4, 4), vec![]).unwrap_err();
        assert!(err.to_string().contains("at least one layer"), "{err}");
    }

    #[test]
    fn per_layer_reports_are_plausible() {
        let s = session();
        let (_, report) = run(&s, &Tensor4::random([1, 4, 6, 6], 20), &chain_weights());
        for layer in report.layers() {
            assert!(layer.report.cycles > 0, "{}", layer.name);
            assert!(layer.report.macs > 0);
            assert!(layer.report.utilization > 0.0 && layer.report.utilization <= 1.0);
            assert!(layer.report.energy.total_pj() > 0.0);
            assert!(layer.report.dram_weight_bytes > 0);
        }
        let pes = s.config().num_pes();
        let u = report.utilization(pes);
        assert!(u > 0.0 && u <= 1.0);
    }

    /// A co-searched `(dataflow, iAct layout)` schedule per layer — the
    /// shape `layoutloop`'s planner produces — over the chain's linear graph
    /// plans one runnable segment.
    #[test]
    fn from_schedule_builds_runnable_session() {
        use feather_arch::dataflow::{ArrayShape, Dataflow};
        let (layers, _, _) = chain();
        let graph = Graph::linear("chain", &layers).unwrap();
        let schedules = graph
            .nodes()
            .iter()
            .zip(&layers)
            .map(|(node, l)| {
                let dataflow =
                    Dataflow::weight_stationary(ArrayShape::new(4, 8), &l.clone().into());
                (node.id, (dataflow, "HWC_C4".parse().unwrap()))
            })
            .collect();
        let s = GraphSession::from_schedules(FeatherConfig::new(4, 8), &graph, &schedules).unwrap();
        assert_eq!(s.segment_count(), 1);
        let iacts = Tensor4::random([1, 4, 6, 6], 20);
        let (oacts, _) = run(&s, &iacts, &chain_weights());
        assert_eq!(oacts, reference(&s, &iacts, &chain_weights()));
    }
}
