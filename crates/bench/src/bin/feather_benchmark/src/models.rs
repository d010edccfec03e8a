//! The two models every workload runs, their seeded inputs, the oracle the
//! outputs are checked against, and the simulated totals that must repeat.

use std::collections::BTreeMap;

use feather::graph_session::run_graph_reference;
use feather::{FeatherConfig, GraphReport, GraphSession, ProgramSession};
use feather_arch::graph::{resnet50_graph_scaled, Graph, NodeId};
use feather_arch::tensor::Tensor4;
use layoutloop::{plan_graph, ArchSpec, CoSearchCache, GraphPlan, MapperConfig};

use crate::schedule::SplitMix64;
use crate::trace::{SpanId, Tracer};

/// Distinct input images per run; serving picks among them per request.
pub const IMAGES: usize = 8;

/// Model A's simulated totals per sample, unchanged since BENCH_5.
pub const MODEL_A_CYCLES: u64 = 15_395;
pub const MODEL_A_DRAM_BYTES: u64 = 100_758;

pub type Weights = BTreeMap<NodeId, Tensor4<i8>>;

/// Model A: ResNet-50 at ÷16 channels and spatial extent.
pub fn graph_a() -> Graph {
    resnet50_graph_scaled(16, 16)
}

pub fn config_a() -> FeatherConfig {
    FeatherConfig::new(8, 16)
}

/// Model B: ResNet-50 at ÷8, on the paper's 16×16 array.
pub fn graph_b() -> Graph {
    resnet50_graph_scaled(8, 8)
}

pub fn config_b() -> FeatherConfig {
    FeatherConfig::new(16, 16)
}

/// The simulated totals of one sample, compared exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTotals {
    pub cycles: u64,
    pub dram_bytes: u64,
    pub energy_pj: f64,
}

impl SimTotals {
    pub fn of(report: &GraphReport) -> Self {
        SimTotals {
            cycles: report.total_cycles(),
            dram_bytes: report.dram_bytes(),
            energy_pj: report.total_energy_pj(),
        }
    }
}

/// Seeded weights and images for a graph. Seeds are drawn below 2^48 so the
/// per-node offsets `random_weights` adds cannot overflow.
pub struct Inputs {
    pub weights: Weights,
    pub images: Vec<Tensor4<i8>>,
}

impl Inputs {
    pub fn generate(graph: &Graph, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let weights = graph.random_weights(rng.next_u64() >> 16);
        let [_, c, h, w] = graph.tensor_shape(graph.input());
        let images = (0..IMAGES)
            .map(|_| Tensor4::random([1, c, h, w], rng.next_u64() >> 16))
            .collect();
        Inputs { weights, images }
    }
}

/// Expected outputs from the naive reference kernels — never from a path
/// under test. `break_first` perturbs the first expected tensor, which the
/// gate-bite tests use to show a wrong output fails the run.
pub fn reference_outputs(
    tracer: &mut Tracer,
    graph: &Graph,
    inputs: &Inputs,
    quantization: (u32, i8),
    break_first: bool,
) -> Result<Vec<Tensor4<i32>>, String> {
    let mut expected = Vec::with_capacity(inputs.images.len());
    for (i, image) in inputs.images.iter().enumerate() {
        let out = tracer
            .within("arch.reference", None, i as u64, || {
                run_graph_reference(
                    graph,
                    image,
                    &inputs.weights,
                    quantization.0,
                    quantization.1,
                )
            })
            .map_err(|e| format!("reference run failed: {e}"))?;
        expected.push(out);
    }
    if break_first {
        let value = expected[0].get(0, 0, 0, 0);
        expected[0].set(0, 0, 0, 0, value.wrapping_add(1));
    }
    Ok(expected)
}

/// Model A compiled for replay, with its first replay already done.
pub struct CompiledA {
    pub graph: Graph,
    pub inputs: Inputs,
    pub quantization: (u32, i8),
    pub session: ProgramSession,
    pub first_totals: SimTotals,
}

/// Builds Model A from nothing to a warm `ProgramSession`: what a caller of
/// the offline path pays before the first steady-state sample.
pub fn compile_a(
    tracer: &mut Tracer,
    parent: SpanId,
    id: u64,
    seed: u64,
) -> Result<CompiledA, String> {
    let graph = tracer.within("arch.graph_build", parent, id, graph_a);
    let inputs = Inputs::generate(&graph, seed);
    let planned = tracer
        .within("feather.graph_session.build", parent, id, || {
            GraphSession::auto(config_a(), &graph)
        })
        .map_err(|e| format!("model A does not plan: {e}"))?;
    let program = tracer
        .within("feather.program.compile", parent, id, || planned.compile())
        .map_err(|e| format!("model A does not compile: {e}"))?;
    let session = ProgramSession::new(program);
    let first = tracer
        .within("feather.program.first_replay", parent, id, || {
            session.run(&inputs.images[0], &inputs.weights)
        })
        .map_err(|e| format!("model A first replay failed: {e}"))?;
    Ok(CompiledA {
        quantization: planned.quantization(),
        first_totals: SimTotals::of(&first.report),
        graph,
        inputs,
        session,
    })
}

/// Plans Model B with a fresh co-search cache. The planner's own seed stays
/// 0: the plan it picks is part of the model's definition.
pub fn plan_b(graph: &Graph) -> Result<GraphPlan, String> {
    plan_graph(
        &ArchSpec::feather_like(16, 16),
        graph,
        &MapperConfig::fast(),
        0,
        &mut CoSearchCache::new(),
    )
    .map_err(|e| format!("model B does not plan: {e}"))
}
