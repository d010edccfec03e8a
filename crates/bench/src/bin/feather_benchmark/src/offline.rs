//! `offline_b1` and `offline_b8`: Model A compiled once and replayed in a
//! closed loop — one sample per `run` call, or eight per `run_batched` call.
//! Replay does all the work; serving and planning do none.

use std::time::Instant;

use crate::harness::{
    overhead_pct, since, BrokenGate, Ctx, Gates, Measured, Window, QUIET_PERCENTILE,
};
use crate::layers;
use crate::models::{compile_a, config_a, reference_outputs, CompiledA, SimTotals, IMAGES};
use crate::stats;

/// Scalar replays timed beside the batched window for `batch_speedup`.
const SCALAR_BASELINE_CALLS: usize = 100;

/// From nothing to a session that has replayed once on the measured path.
fn set_up(ctx: &mut Ctx, rep: u64, batched: bool) -> Result<(f64, CompiledA), String> {
    let start = Instant::now();
    let root = ctx.tracer.open("setup", None, rep);
    let built = compile_a(&mut ctx.tracer, root, rep, ctx.seed)?;
    if batched {
        // The lane-striped path sizes its buffers on first use.
        built
            .session
            .run_batched(&built.inputs.images, &built.inputs.weights)
            .map_err(|e| format!("first batched replay failed: {e}"))?;
    }
    ctx.tracer.close(root);
    Ok((since(start), built))
}

/// What `--setup-only` times.
pub fn set_up_once(ctx: &mut Ctx, batched: bool) -> Result<f64, String> {
    Ok(set_up(ctx, 0, batched)?.0)
}

pub fn run(ctx: &mut Ctx, batched: bool) -> Result<Measured, String> {
    let mut gates = Gates::default();
    ctx.tracer.set_on(ctx.trace);
    let model = set_up(ctx, 0, batched)?.1;
    let mut setup_s = Vec::new();
    let expected = reference_outputs(
        &mut ctx.tracer,
        &model.graph,
        &model.inputs,
        model.quantization,
        ctx.broken == Some(BrokenGate::Expected),
    )?;
    gates.sim_repeats("first replay", 0, model.first_totals);
    let (images, weights) = (&model.inputs.images, &model.inputs.weights);
    let (per_call, span_name) = if batched {
        (IMAGES as u64, "feather.program.run_batched")
    } else {
        (1, "feather.program.run")
    };

    // windows[0] pools the untraced parts, windows[1] the traced ones.
    let mut windows = [Window::default(), Window::default()];
    let mut call = 0u64;
    for (rep, part) in ctx.parts().into_iter().enumerate() {
        let rep = rep as u64 + 1;
        setup_s.push(ctx.timed_set_up(|ctx| Ok(set_up(ctx, rep, batched)?.0))?);
        ctx.tracer.set_on(part.traced);
        let window = &mut windows[usize::from(part.traced)];
        let start = Instant::now();
        window.begin_part(start);
        while since(start) < part.seconds {
            // A scalar call replays one image; a batched call all of them.
            let first = if batched { 0 } else { call as usize % IMAGES };
            let t0 = Instant::now();
            let span = ctx.tracer.open(span_name, None, call);
            let runs = if batched {
                model.session.run_batched(images, weights)
            } else {
                model
                    .session
                    .run(&images[first], weights)
                    .map(|run| vec![run])
            };
            ctx.tracer.close(span);
            let ms = since(t0) * 1e3;
            let runs = runs.map_err(|e| format!("replay {call} failed: {e}"))?;
            if runs.len() as u64 != per_call {
                return Err(format!("replay {call} returned {} samples", runs.len()));
            }
            for (lane, run) in runs.iter().enumerate() {
                let ok = gates.output_matches("replay", call, &run.oacts, &expected[first + lane])
                    & gates.sim_repeats("replay", call, SimTotals::of(&run.report));
                gates.operation(ok);
            }
            window.push(ms);
            call += 1;
        }
    }
    gates.model_a_constants(ctx.expected_model_a_cycles());
    if ctx.sets_up_after() {
        let rep = setup_s.len() as u64 + 1;
        setup_s.push(ctx.timed_set_up(|ctx| Ok(set_up(ctx, rep, batched)?.0))?);
    }
    ctx.tracer.set_on(ctx.trace);

    let mut m = Measured::new(gates);
    m.set_common(&setup_s)?;
    let untraced = &windows[0];
    m.set("throughput_sps", untraced.quiet_throughput(per_call));
    m.set("latency_ms", untraced.p(QUIET_PERCENTILE));
    if !ctx.trace {
        return Ok(m);
    }

    let traced = &windows[1];
    let sim = m.gates.sim().expect("set_common checked it");
    let program = model.session.program();
    if batched {
        let scalar: Vec<f64> = (0..SCALAR_BASELINE_CALLS)
            .map(|i| {
                let t0 = Instant::now();
                let run = model.session.run(&images[i % IMAGES], weights);
                let ms = since(t0) * 1e3;
                run.map(|_| ms)
                    .map_err(|e| format!("baseline replay failed: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let per_sample = traced.p(50.0) / IMAGES as f64;
        m.set("feather.program.batched_ms_p50", traced.p(50.0));
        m.set("feather.program.batched_ms_p95", traced.tail(95.0));
        m.set("feather.program.batched_ms_per_sample", per_sample);
        m.set(
            "feather.program.batch_speedup",
            stats::percentile_of(&scalar, 50.0) / per_sample,
        );
    } else {
        m.set("feather.program.replay_ms_p50", traced.p(50.0));
        m.set("feather.program.replay_ms_p95", traced.tail(95.0));
        m.set(
            "feather.program.replay_us_per_op",
            traced.p(50.0) * 1e3 / program.num_ops() as f64,
        );
        m.set(
            "feather.program.replay_ns_per_sim_cycle",
            traced.p(50.0) * 1e6 / sim.cycles as f64,
        );
    }
    setup_layer_metrics(&mut m, ctx, program.num_ops(), program.route_fires());
    let report = model
        .session
        .run(&images[0], weights)
        .map_err(|e| format!("report replay failed: {e}"))?
        .report;
    layers::sim_counters(&mut m, &report, config_a().num_pes());
    layers::probes(&mut m, &mut ctx.tracer, ctx.seed)?;
    m.set(
        "trace.overhead_pct",
        overhead_pct(untraced.p(QUIET_PERCENTILE), traced.p(QUIET_PERCENTILE)),
    );
    Ok(m)
}

/// Per-layer set-up numbers every Model A workload records the same way.
pub fn setup_layer_metrics(m: &mut Measured, ctx: &Ctx, ops: usize, route_fires: usize) {
    let t = &ctx.tracer;
    m.set("arch.graph_build_ms_p50", t.p50_ms("arch.graph_build"));
    m.set("arch.reference_ms_p50", t.p50_ms("arch.reference"));
    m.set(
        "feather.graph_session.build_ms_p50",
        t.p50_ms("feather.graph_session.build"),
    );
    m.set(
        "feather.program.compile_ms_p50",
        t.p50_ms("feather.program.compile"),
    );
    m.set(
        "feather.program.first_replay_ms_p50",
        t.p50_ms("feather.program.first_replay"),
    );
    m.set("feather.program.ops", ops as f64);
    m.set("feather.program.route_fires", route_fires as f64);
}
