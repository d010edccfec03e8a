//! `cold_start`: Model B from a new graph to a first verified result, over
//! and over. Planner, BIRRD routing and the compiler do almost all the work
//! and steady-state replay almost none — the mirror image of `offline_b1`.

use std::time::Instant;

use feather::{GraphReport, GraphSession, ProgramSession};
use feather_arch::tensor::Tensor4;

use crate::harness::{
    overhead_pct, since, BrokenGate, Ctx, Gates, Measured, Window, QUIET_PERCENTILE,
};
use crate::layers;
use crate::models::{config_b, graph_b, plan_b, reference_outputs, Inputs, SimTotals};

/// What one iteration leaves behind for the per-layer numbers.
struct Iteration {
    report: GraphReport,
    plan_cycles: u64,
    tables_computed: u64,
    table_hits: u64,
    ops: usize,
    route_fires: usize,
}

/// What the oracle was computed from, and its answer.
struct Oracle {
    quantization: (u32, i8),
    expected: Tensor4<i32>,
}

/// Graph → plan (fresh cache) → session → interpreted run → compile → first
/// replay, both outputs checked against the oracle.
fn iterate(
    ctx: &mut Ctx,
    gates: &mut Gates,
    id: u64,
    inputs: &Inputs,
    oracle: &Oracle,
) -> Result<Iteration, String> {
    let t = &mut ctx.tracer;
    let root = t.open("cold.iteration", None, id);
    let graph = t.within("arch.graph_build", root, id, graph_b);
    let plan = t.within("layoutloop.plan_graph", root, id, || plan_b(&graph))?;
    let planned = t
        .within("feather.graph_session.build", root, id, || {
            GraphSession::from_schedules(config_b(), &graph, &plan.schedules())
        })
        .map_err(|e| format!("model B does not build: {e}"))?;
    let interpreted = t
        .within("feather.graph_session.run", root, id, || {
            planned.run(&inputs.images[0], &inputs.weights)
        })
        .map_err(|e| format!("interpreted run {id} failed: {e}"))?;
    let program = t
        .within("feather.program.compile", root, id, || planned.compile())
        .map_err(|e| format!("model B does not compile: {e}"))?;
    let session = ProgramSession::new(program);
    let replayed = t
        .within("feather.program.first_replay", root, id, || {
            session.run(&inputs.images[0], &inputs.weights)
        })
        .map_err(|e| format!("first replay {id} failed: {e}"))?;
    let ok = t.within("cold.verify", root, id, || {
        let same_quantization = planned.quantization() == oracle.quantization;
        if !same_quantization {
            gates.error(format!(
                "iteration {id}: the oracle assumed another quantization"
            ));
        }
        same_quantization
            & gates.output_matches("interpreted run", id, &interpreted.oacts, &oracle.expected)
            & gates.output_matches("first replay", id, &replayed.oacts, &oracle.expected)
            & gates.sim_repeats("interpreted run", id, SimTotals::of(&interpreted.report))
            & gates.sim_repeats("first replay", id, SimTotals::of(&replayed.report))
    });
    t.close(root);
    gates.operation(ok);
    Ok(Iteration {
        report: replayed.report,
        plan_cycles: plan.total_cycles(),
        tables_computed: plan.cache_misses,
        table_hits: plan.cache_hits,
        ops: session.program().num_ops(),
        route_fires: session.program().route_fires(),
    })
}

/// Set-up is the inputs plus one whole untimed iteration, so that the window
/// opens on a warm allocator.
fn set_up(ctx: &mut Ctx, gates: &mut Gates, rep: u64, oracle: &Oracle) -> Result<f64, String> {
    let start = Instant::now();
    let inputs = Inputs::generate(&graph_b(), ctx.seed);
    let mut warm_gates = Gates::default();
    iterate(ctx, &mut warm_gates, rep, &inputs, oracle)?;
    for error in warm_gates.errors() {
        gates.error(format!("set-up {rep}: {error}"));
    }
    Ok(since(start))
}

/// The inputs and the oracle's answer for them.
fn fixture(ctx: &mut Ctx) -> Result<(Inputs, Oracle), String> {
    // The oracle needs the session's quantization, which the defaults fix
    // (every iteration checks its own session agrees); it is computed once,
    // outside set-up.
    let graph = graph_b();
    let inputs = Inputs::generate(&graph, ctx.seed);
    let quantization = GraphSession::auto(config_b(), &graph)
        .map_err(|e| format!("model B does not build: {e}"))?
        .quantization();
    let one_image = Inputs {
        weights: inputs.weights.clone(),
        images: inputs.images[..1].to_vec(),
    };
    let expected = reference_outputs(
        &mut ctx.tracer,
        &graph,
        &one_image,
        quantization,
        ctx.broken == Some(BrokenGate::Expected),
    )?
    .remove(0);
    Ok((
        inputs,
        Oracle {
            quantization,
            expected,
        },
    ))
}

/// What `--setup-only` times. The oracle is computed first, outside it.
pub fn set_up_once(ctx: &mut Ctx) -> Result<f64, String> {
    let (_, oracle) = fixture(ctx)?;
    let mut gates = Gates::default();
    let seconds = set_up(ctx, &mut gates, 0, &oracle)?;
    match gates.errors().first() {
        Some(error) => Err(error.clone()),
        None => Ok(seconds),
    }
}

pub fn run(ctx: &mut Ctx) -> Result<Measured, String> {
    let mut gates = Gates::default();
    ctx.tracer.set_on(ctx.trace);
    let (inputs, oracle) = fixture(ctx)?;

    // Set-ups run untraced and outside the gates' operation count.
    let mut setup_s = Vec::new();
    let mut windows = [Window::default(), Window::default()];
    let mut id = 0u64;
    let mut last = None;
    for (rep, part) in ctx.parts().into_iter().enumerate() {
        setup_s.push(ctx.timed_set_up(|ctx| {
            ctx.tracer.set_on(false);
            set_up(ctx, &mut gates, rep as u64, &oracle)
        })?);
        ctx.tracer.set_on(part.traced);
        let window = &mut windows[usize::from(part.traced)];
        let start = Instant::now();
        window.begin_part(start);
        while since(start) < part.seconds {
            let t0 = Instant::now();
            let iteration = iterate(ctx, &mut gates, id, &inputs, &oracle)?;
            window.push(since(t0) * 1e3);
            last = Some(iteration);
            id += 1;
        }
    }
    let last = last.ok_or("window too short for one cold iteration")?;
    if ctx.sets_up_after() {
        let rep = setup_s.len() as u64;
        setup_s.push(ctx.timed_set_up(|ctx| {
            ctx.tracer.set_on(false);
            set_up(ctx, &mut gates, rep, &oracle)
        })?);
    }

    let mut m = Measured::new(gates);
    m.set_common(&setup_s)?;
    let untraced = &windows[0];
    m.set("throughput_sps", untraced.quiet_throughput(1));
    m.set("latency_ms", untraced.p(QUIET_PERCENTILE));
    if !ctx.trace {
        return Ok(m);
    }

    let traced = &windows[1];
    let sim = m.gates.sim().expect("set_common checked it");
    let t = &ctx.tracer;
    let plan_ms = t.p50_ms("layoutloop.plan_graph");
    let run_ms = t.p50_ms("feather.graph_session.run");
    m.set("arch.graph_build_ms_p50", t.p50_ms("arch.graph_build"));
    m.set("arch.reference_ms_p50", t.p50_ms("arch.reference"));
    m.set("layoutloop.plan_ms_p50", plan_ms);
    m.set("layoutloop.tables_computed", last.tables_computed as f64);
    m.set("layoutloop.table_hits", last.table_hits as f64);
    m.set(
        "layoutloop.ms_per_table",
        plan_ms / last.tables_computed.max(1) as f64,
    );
    m.set("layoutloop.plan_cycles", last.plan_cycles as f64);
    m.set(
        "layoutloop.predicted_over_simulated_cycles",
        last.plan_cycles as f64 / sim.cycles as f64,
    );
    m.set(
        "feather.graph_session.build_ms_p50",
        t.p50_ms("feather.graph_session.build"),
    );
    m.set("feather.graph_session.run_ms_p50", run_ms);
    m.set(
        "feather.graph_session.run_ns_per_sim_cycle",
        run_ms * 1e6 / sim.cycles as f64,
    );
    m.set(
        "feather.program.compile_ms_p50",
        t.p50_ms("feather.program.compile"),
    );
    m.set(
        "feather.program.first_replay_ms_p50",
        t.p50_ms("feather.program.first_replay"),
    );
    m.set("feather.program.ops", last.ops as f64);
    m.set("feather.program.route_fires", last.route_fires as f64);
    layers::sim_counters(&mut m, &last.report, config_b().num_pes());
    ctx.tracer.set_on(true);
    layers::probes(&mut m, &mut ctx.tracer, ctx.seed)?;
    m.set(
        "trace.overhead_pct",
        overhead_pct(untraced.p(QUIET_PERCENTILE), traced.p(QUIET_PERCENTILE)),
    );
    Ok(m)
}
