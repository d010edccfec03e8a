//! Criterion bench: whole-graph execution of the (scaled) ResNet-50 DAG —
//! residual branches, scratch parking and joins included — against the
//! layer-at-a-time baseline that stages and drains every layer through DRAM.
//! The printed preamble compares the two executions' modeled DRAM traffic;
//! criterion then measures their wall time. The `graph_session_serial` and
//! `compile` rows time the accounted tile loop on one worker — as the
//! interpreter and as the compiler's record pass — for the benchmark's
//! Model A and, in a group of its own, its planned Model B.

use criterion::{criterion_group, criterion_main, Criterion};
use feather::{FeatherConfig, GraphSession, ProgramSession};
use feather_arch::graph::{resnet50_graph_scaled, Graph};
use feather_arch::tensor::Tensor4;
use layoutloop::{plan_graph, ArchSpec, CoSearchCache, MapperConfig};

/// The rows every model gets: interpreted (default threads and one worker),
/// compile, and one scalar replay of the compiled program.
fn bench_execution_paths(c: &mut Criterion, group: &str, session: &GraphSession, graph: &Graph) {
    let [_, ch, h, w] = graph.tensor_shape(graph.input());
    let iacts = Tensor4::random([1, ch, h, w], 7);
    let weights = graph.random_weights(8);
    let serial = session.clone().with_threads(1);
    let replay = ProgramSession::new(session.compile().expect("graph lowers to a program"));

    // The compiled replay is bit-identical to the interpreted run; the bench
    // then measures how much faster it dispatches.
    let run = session.run(&iacts, &weights).expect("graph executes");
    let replayed = replay.run(&iacts, &weights).expect("program replays");
    assert_eq!(replayed.oacts, run.oacts);
    assert_eq!(replayed.report, run.report);

    let mut group = c.benchmark_group(group);
    group.sample_size(10);
    group.bench_function("graph_session", |b| {
        b.iter(|| session.run(&iacts, &weights).unwrap())
    });
    group.bench_function("graph_session_serial", |b| {
        b.iter(|| serial.run(&iacts, &weights).unwrap())
    });
    group.bench_function("compile", |b| b.iter(|| session.compile().unwrap()));
    group.bench_function("program_replay", |b| {
        b.iter(|| replay.run(&iacts, &weights).unwrap())
    });
    group.finish();
}

fn bench_graph_resnet(c: &mut Criterion) {
    // Channels/16, spatial/16 keeps one full-graph iteration in the
    // millisecond range while preserving all 53 convs and 16 joins.
    // Planning (`GraphSession::auto`) and ahead-of-time compilation
    // (`compile()`) happen here, outside every measured loop, so the
    // scenarios isolate execution cost from one-time setup.
    let graph = resnet50_graph_scaled(16, 16);
    let session = GraphSession::auto(FeatherConfig::new(8, 16), &graph)
        .expect("scaled resnet50 graph compiles");
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

    bench_execution_paths(c, "graph_resnet", &session, &graph);
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
    let session =
        GraphSession::from_schedules(FeatherConfig::new(16, 16), &graph, &plan.schedules())
            .expect("the planned graph compiles");
    bench_execution_paths(c, "graph_resnet_model_b", &session, &graph);
}

criterion_group!(benches, bench_graph_resnet);
criterion_main!(benches);
