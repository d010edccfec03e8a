//! Criterion bench: whole-graph execution of the (scaled) ResNet-50 DAG —
//! residual branches, scratch parking and joins included — against the
//! layer-at-a-time baseline that stages and drains every layer through DRAM.
//! The printed preamble compares the two executions' modeled DRAM traffic;
//! criterion then measures their wall time. For the benchmark's Model A and,
//! in a group of its own, its planned Model B: `compile` times the one
//! accounted pass a graph gets (the compiler's record pass, on a fresh
//! session per iteration), `first_run` that pass plus the first replay, and
//! `graph_session` / `program_replay` a warm replay, through the session and
//! through a `ProgramSession`.

use criterion::{criterion_group, criterion_main, Criterion};
use feather::graph_session::run_graph_reference;
use feather::{FeatherConfig, GraphSession, ProgramSession};
use feather_arch::graph::{resnet50_graph_scaled, Graph};
use feather_arch::tensor::Tensor4;
use layoutloop::{plan_graph, ArchSpec, CoSearchCache, MapperConfig};

/// The rows every model gets. `fresh` builds a session that has never
/// compiled (a compiled session's `compile()` is a handle clone), so the
/// `compile` and `first_run` rows include building it and start from a cold
/// route cache — what a cold start pays.
fn bench_execution_paths(
    c: &mut Criterion,
    group: &str,
    fresh: impl Fn() -> GraphSession,
    graph: &Graph,
) {
    let [_, ch, h, w] = graph.tensor_shape(graph.input());
    let iacts = Tensor4::random([1, ch, h, w], 7);
    let weights = graph.random_weights(8);
    let session = fresh();
    let replay = ProgramSession::new(session.compile().expect("graph lowers to a program"));

    // Both are replays of the session's one program, checked against the
    // reference executor; the bench then measures what each call costs.
    let (shift, zero) = session.quantization();
    let golden = run_graph_reference(graph, &iacts, &weights, shift, zero).expect("reference runs");
    let run = session.run(&iacts, &weights).expect("graph executes");
    let replayed = replay.run(&iacts, &weights).expect("program replays");
    assert_eq!(run.oacts, golden);
    assert_eq!(replayed.oacts, golden);
    assert_eq!(replayed.report, run.report);

    let mut group = c.benchmark_group(group);
    group.sample_size(10);
    // Replay through the session: a handle clone and a `ProgramSession::run`.
    group.bench_function("graph_session", |b| {
        b.iter(|| session.run(&iacts, &weights).unwrap())
    });
    group.bench_function("compile", |b| b.iter(|| fresh().compile().unwrap()));
    group.bench_function("first_run", |b| {
        b.iter(|| fresh().run(&iacts, &weights).unwrap())
    });
    group.bench_function("program_replay", |b| {
        b.iter(|| replay.run(&iacts, &weights).unwrap())
    });
    group.finish();
}

fn bench_graph_resnet(c: &mut Criterion) {
    // Channels/16, spatial/16 keeps one full-graph iteration in the
    // millisecond range while preserving all 53 convs and 16 joins.
    let graph = resnet50_graph_scaled(16, 16);
    let model_a = || {
        GraphSession::auto(FeatherConfig::new(8, 16), &graph)
            .expect("scaled resnet50 graph compiles")
    };
    let session = model_a();
    let [_, ch, h, w] = graph.tensor_shape(graph.input());
    let iacts = Tensor4::random([1, ch, h, w], 7);
    let weights = graph.random_weights(8);

    // DRAM traffic comparison (identical on every iteration — print once).
    let run = session.run(&iacts, &weights).expect("graph executes");
    println!(
        "graph_resnet DRAM activation traffic: pipelined {} B vs layer-at-a-time {} B \
         ({:.0}% saved); shortcut scratch {} B, {} joins",
        run.report.dram_activation_bytes(),
        run.report.layer_at_a_time_activation_bytes(),
        run.report.dram_activation_savings() * 100.0,
        run.report.shortcut_bytes(),
        run.report.joins.len(),
    );
    assert!(run.report.dram_activation_bytes() < run.report.layer_at_a_time_activation_bytes());

    bench_execution_paths(c, "graph_resnet", model_a, &graph);
    let mut group = c.benchmark_group("graph_resnet");
    group.sample_size(10);
    group.bench_function("layer_at_a_time", |b| {
        b.iter(|| session.run_layer_at_a_time(&iacts, &weights).unwrap())
    });
    group.finish();

    // The benchmark's Model B: channels/8, spatial/8 on 16×16, mapped by
    // the Layoutloop graph planner (the `cold_start` workload's model).
    let graph = resnet50_graph_scaled(8, 8);
    let plan = plan_graph(
        &ArchSpec::feather_like(16, 16),
        &graph,
        &MapperConfig::fast(),
        0,
        &mut CoSearchCache::new(),
    )
    .expect("model B plans");
    let model_b = || {
        GraphSession::from_schedules(FeatherConfig::new(16, 16), &graph, &plan.schedules())
            .expect("the planned graph compiles")
    };
    bench_execution_paths(c, "graph_resnet_model_b", model_b, &graph);
}

criterion_group!(benches, bench_graph_resnet);
criterion_main!(benches);
