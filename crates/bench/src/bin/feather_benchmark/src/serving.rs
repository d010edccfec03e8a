//! `serve_light`: Model A behind `Server::new(ServeConfig::default())`,
//! driven open-loop on a Poisson schedule by one generator thread. Every
//! request is timed from when it was **due**, so a stall is charged to the
//! requests it delayed. A traced run then climbs a ladder of rates on the
//! same warm server, up to an overload rung: where the knee is and what the
//! batcher does past it are per-layer numbers (on this host they do not
//! repeat well enough to gate on: see README.md).

use std::sync::mpsc;
use std::time::{Duration, Instant};

use feather_arch::tensor::Tensor4;
use feather_serve::{Response, ServeConfig, ServeError, Server, ServerStats, Ticket};

use crate::harness::{
    overhead_pct, since, BrokenGate, Ctx, Gates, Measured, Part, QUIET_PERCENTILE,
};
use crate::layers;
use crate::models::{compile_a, config_a, graph_a, reference_outputs, Inputs, IMAGES};
use crate::offline::setup_layer_metrics;
use crate::schedule::{poisson, Arrival};
use crate::stats;
use crate::trace::Tracer;

const MODEL: &str = "resnet50";
const TENANTS: [&str; 4] = ["t0", "t1", "t2", "t3"];
const MAX_BATCH_WARMED: usize = 8;
const WARM_ATTEMPTS: usize = 20;

/// A request is in limit when it completed correctly within this long of its
/// due time.
pub const SLO_MS: f64 = 50.0;
/// A rung passes when this share of the requests sent were in limit …
pub const SLO_SHARE: f64 = 0.95;
/// … and the backlog drained within this long of the last due time.
pub const DRAIN_LIMIT_MS: f64 = 250.0;

pub const LIGHT_RATE: f64 = 100.0;
pub const LADDER_RATES: [f64; 6] = [200.0, 300.0, 400.0, 600.0, 800.0, 1200.0];
pub const OVERLOAD_RATE: f64 = 2000.0;
/// The share of the ladder spent on the overload rung; the six rates below
/// it share the rest equally.
const OVERLOAD_SHARE: f64 = 1.0 / 3.0;
/// Bare replays timed in the same process for `serve.overhead_ms_p50`.
const BARE_REPLAYS: usize = 200;

/// How one request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum End {
    Served {
        latency_us: u64,
        queue_us: u64,
        batch_size: usize,
        correct: bool,
    },
    /// Turned away at admission (queue full, shed, breaker open): the caller
    /// knows at once. Expected under overload; a miss, not a failure.
    Refused,
    /// Anything else: an error after admission, or a lost ticket.
    Failed(String),
}

#[derive(Debug, Clone)]
pub struct Outcome {
    pub index: u64,
    pub due: Instant,
    pub submit_start: Instant,
    pub submit_end: Instant,
    pub end: End,
}

/// Latency from the due time: how late the generator was plus what the
/// server measured from submission to resolution.
pub fn due_latency_ms(late_ms: f64, latency_us: u64) -> f64 {
    late_ms + latency_us as f64 / 1e3
}

impl Outcome {
    pub fn late_ms(&self) -> f64 {
        self.submit_start
            .saturating_duration_since(self.due)
            .as_secs_f64()
            * 1e3
    }

    /// Due-time latency of a correctly served request.
    pub fn served_ms(&self) -> Option<f64> {
        match self.end {
            End::Served {
                latency_us,
                correct: true,
                ..
            } => Some(due_latency_ms(self.late_ms(), latency_us)),
            _ => None,
        }
    }
}

/// Sends `schedule` to the server at its due times and collects every
/// outcome. Returns once every request has resolved: the backlog is drained.
fn drive(
    server: &Server,
    images: &[Tensor4<i8>],
    expected: &[Tensor4<i32>],
    schedule: &[Arrival],
    first_index: u64,
) -> (Instant, Vec<Outcome>) {
    type Sent = (u64, usize, Instant, Instant, Instant, Ticket);
    let (tx, rx) = mpsc::channel::<Sent>();
    std::thread::scope(|scope| {
        // Tickets resolve in roughly submission order on one executor, so one
        // collector waiting on them in turn keeps up; the latency it reports
        // is the server's own, not when the collector got round to it.
        let collector = scope.spawn(move || {
            rx.into_iter()
                .map(
                    |(index, image, due, submit_start, submit_end, ticket)| Outcome {
                        index,
                        due,
                        submit_start,
                        submit_end,
                        end: match ticket.wait() {
                            Ok(response) => served(&response, &expected[image]),
                            Err(e) => End::Failed(e.to_string()),
                        },
                    },
                )
                .collect::<Vec<_>>()
        });
        // A refusal is known at once; the generator keeps it, so that past
        // saturation the collector wakes for admitted requests only.
        let mut refused = Vec::new();
        let origin = Instant::now();
        for (i, arrival) in schedule.iter().enumerate() {
            let index = first_index + i as u64;
            let due = origin + Duration::from_secs_f64(arrival.due_s);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let tenant = TENANTS[index as usize % TENANTS.len()];
            let submit_start = Instant::now();
            let sent = server.submit(tenant, MODEL, images[arrival.image].clone());
            let submit_end = Instant::now();
            match sent {
                Ok(ticket) => tx
                    .send((index, arrival.image, due, submit_start, submit_end, ticket))
                    .expect("collector outlives the generator"),
                Err(e) => refused.push(Outcome {
                    index,
                    due,
                    submit_start,
                    submit_end,
                    end: match e {
                        ServeError::QueueFull { .. }
                        | ServeError::Overloaded
                        | ServeError::Unavailable { .. } => End::Refused,
                        other => End::Failed(other.to_string()),
                    },
                }),
            }
        }
        drop(tx);
        let mut outcomes = collector.join().expect("collector does not panic");
        outcomes.extend(refused);
        outcomes.sort_by_key(|o| o.index);
        (origin, outcomes)
    })
}

fn served(response: &Response, expected: &Tensor4<i32>) -> End {
    End::Served {
        latency_us: response.latency_us,
        queue_us: response.queue_us,
        batch_size: response.batch_size,
        correct: &response.oacts == expected,
    }
}

/// One rate's results, computed from its outcomes alone.
#[derive(Debug, Clone, Default)]
pub struct Rung {
    pub rate: f64,
    pub sent: u64,
    pub served_correct: u64,
    pub in_slo: u64,
    pub refused: u64,
    /// Due-time latencies of the correctly served requests.
    pub latencies_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub queue_ms: Vec<f64>,
    pub service_ms: Vec<f64>,
    /// From the window's start to the last resolution.
    pub wall_s: f64,
    /// Last resolution minus last due time.
    pub drain_ms: f64,
    /// Executor time: each batch's service time counted once.
    pub busy_s: f64,
    pub batches: u64,
    pub full_batches: u64,
    pub batched_requests: u64,
}

impl Rung {
    pub fn from_outcomes(rate: f64, origin: Instant, outcomes: &[Outcome]) -> Rung {
        let mut rung = Rung {
            rate,
            ..Rung::default()
        };
        let Some(last) = outcomes.last() else {
            return rung;
        };
        let mut last_resolution = last.due;
        for o in outcomes {
            rung.sent += 1;
            rung.late_ms.push(o.late_ms());
            rung.submit_us
                .push(o.submit_end.duration_since(o.submit_start).as_secs_f64() * 1e6);
            match &o.end {
                End::Served {
                    latency_us,
                    queue_us,
                    batch_size,
                    ..
                } => {
                    let service_us = latency_us.saturating_sub(*queue_us);
                    rung.queue_ms.push(*queue_us as f64 / 1e3);
                    rung.service_ms.push(service_us as f64 / 1e3);
                    rung.busy_s += service_us as f64 / 1e6 / (*batch_size).max(1) as f64;
                    last_resolution =
                        last_resolution.max(o.submit_start + Duration::from_micros(*latency_us));
                    if let Some(ms) = o.served_ms() {
                        rung.served_correct += 1;
                        rung.latencies_ms.push(ms);
                        if ms <= SLO_MS {
                            rung.in_slo += 1;
                        }
                    }
                }
                End::Refused => rung.refused += 1,
                // Failures are the gates' to count; here they are misses.
                End::Failed(_) => {}
            }
        }
        rung.wall_s = last_resolution.duration_since(origin).as_secs_f64();
        rung.drain_ms = last_resolution.duration_since(last.due).as_secs_f64() * 1e3;
        rung
    }

    /// Pools another stretch at the same rate into this one.
    fn absorb(&mut self, other: Rung) {
        self.rate = other.rate;
        self.sent += other.sent;
        self.served_correct += other.served_correct;
        self.in_slo += other.in_slo;
        self.refused += other.refused;
        self.latencies_ms.extend(other.latencies_ms);
        self.late_ms.extend(other.late_ms);
        self.submit_us.extend(other.submit_us);
        self.queue_ms.extend(other.queue_ms);
        self.service_ms.extend(other.service_ms);
        self.wall_s += other.wall_s;
        self.drain_ms = self.drain_ms.max(other.drain_ms);
        self.busy_s += other.busy_s;
        self.batches += other.batches;
        self.full_batches += other.full_batches;
        self.batched_requests += other.batched_requests;
    }

    /// Batch counts come from the server's histogram across the rung.
    fn with_batches(mut self, before: &ServerStats, after: &ServerStats) -> Rung {
        for (&size, &count) in &after.batches {
            let count = count - before.batches.get(&size).copied().unwrap_or(0);
            self.batches += count;
            self.batched_requests += count * size as u64;
            if size >= MAX_BATCH_WARMED {
                self.full_batches += count;
            }
        }
        self
    }

    pub fn in_slo_share(&self) -> f64 {
        self.in_slo as f64 / self.sent.max(1) as f64
    }

    pub fn passes(&self) -> bool {
        self.sent > 0 && self.in_slo_share() >= SLO_SHARE && self.drain_ms <= DRAIN_LIMIT_MS
    }

    pub fn mean_batch(&self) -> f64 {
        self.batched_requests as f64 / self.batches.max(1) as f64
    }

    /// Executor time as a share of the rung's wall time.
    pub fn busy_share(&self) -> f64 {
        self.busy_s / self.wall_s.max(f64::MIN_POSITIVE)
    }

    pub fn goodput(&self) -> f64 {
        self.served_correct as f64 / self.wall_s.max(f64::MIN_POSITIVE)
    }

    pub fn p(&self, p: f64) -> f64 {
        stats::percentile_of(&self.latencies_ms, p)
    }
}

/// The highest rate whose rung passed. A stall that fails a low rung does
/// not hide a higher rung that passed; 0 when none did.
pub fn knee(rungs: &[Rung]) -> f64 {
    rungs
        .iter()
        .filter(|r| r.passes())
        .map(|r| r.rate)
        .fold(0.0, f64::max)
}

/// Rebuilds each request's stages as spans from what its `Response` reported.
fn record_spans(tracer: &mut Tracer, outcomes: &[Outcome]) {
    if !tracer.is_on() {
        return;
    }
    for o in outcomes {
        let served = match o.end {
            End::Served {
                latency_us,
                queue_us,
                ..
            } => Some((
                o.submit_start + Duration::from_micros(queue_us.min(latency_us)),
                o.submit_start + Duration::from_micros(latency_us),
            )),
            _ => None,
        };
        // A generator pre-empted inside `submit` can see it return after the
        // request resolved; the request then ends with the call.
        let end = served.map_or(o.submit_end, |(_, resolved)| resolved.max(o.submit_end));
        let request = tracer.record("serve.request", None, o.index, o.due, end);
        tracer.record("gen.late", request, o.index, o.due, o.submit_start);
        tracer.record(
            "serve.submit",
            request,
            o.index,
            o.submit_start,
            o.submit_end,
        );
        if let Some((launched, resolved)) = served {
            tracer.record("serve.queue", request, o.index, o.submit_start, launched);
            tracer.record("serve.service", request, o.index, launched, resolved);
        }
    }
}

/// Submits `size` requests at once until a batch of exactly that size has
/// executed, for every size the batcher can form, so that no first-seen
/// batch size compiles inside a measured window.
fn warm_up(server: &Server, images: &[Tensor4<i8>]) -> Result<Vec<usize>, String> {
    let mut unvisited = Vec::new();
    for size in 1..=MAX_BATCH_WARMED {
        let mut seen = false;
        for _ in 0..WARM_ATTEMPTS {
            let tickets: Vec<Ticket> = (0..size)
                .map(|i| {
                    server
                        .submit(
                            TENANTS[i % TENANTS.len()],
                            MODEL,
                            images[i % IMAGES].clone(),
                        )
                        .map_err(|e| format!("warm-up submit refused: {e}"))
                })
                .collect::<Result<_, _>>()?;
            for ticket in tickets {
                let response = ticket.wait().map_err(|e| format!("warm-up request: {e}"))?;
                seen |= response.batch_size == size;
            }
            if seen {
                break;
            }
        }
        if !seen {
            unvisited.push(size);
        }
    }
    Ok(unvisited)
}

/// Everything between nothing and a warm server.
fn start_server(ctx: &mut Ctx, rep: u64) -> Result<Server, String> {
    let t = &mut ctx.tracer;
    let root = t.open("setup", None, rep);
    let graph = t.within("arch.graph_build", root, rep, graph_a);
    let inputs = Inputs::generate(&graph, ctx.seed);
    let server = Server::new(ServeConfig::default());
    t.within("serve.register", root, rep, || {
        server.register_model(MODEL, config_a(), &graph, inputs.weights.clone())
    })
    .map_err(|e| format!("model A does not register: {e}"))?;
    let unvisited = t.within("serve.warmup", root, rep, || {
        warm_up(&server, &inputs.images)
    })?;
    t.close(root);
    if !unvisited.is_empty() {
        eprintln!("warning: warm-up never formed batch sizes {unvisited:?}");
    }
    Ok(server)
}

/// One open-loop stretch at one rate.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Step {
    rate: f64,
    seconds: f64,
    traced: bool,
    /// Part of the load ladder that a traced run climbs after its window.
    ladder: bool,
}

/// The stretches of a run: [`LIGHT_RATE`] for each part of the window, and in
/// a traced run the ladder after them, as long as the window again: two
/// thirds shared by the six rates below saturation, the rest on the overload
/// rung.
fn plan(parts: &[Part], trace: bool) -> Vec<Step> {
    let mut steps: Vec<Step> = parts
        .iter()
        .map(|part| Step {
            rate: LIGHT_RATE,
            seconds: part.seconds,
            traced: part.traced,
            ladder: false,
        })
        .collect();
    if trace {
        let seconds: f64 = parts.iter().map(|p| p.seconds).sum();
        let rung = seconds * (1.0 - OVERLOAD_SHARE) / LADDER_RATES.len() as f64;
        let step = |rate, seconds| Step {
            rate,
            seconds,
            traced: true,
            ladder: true,
        };
        steps.extend(LADDER_RATES.iter().map(|&rate| step(rate, rung)));
        steps.push(step(OVERLOAD_RATE, seconds * OVERLOAD_SHARE));
    }
    steps
}

/// What `--setup-only` times: a server from nothing to warm, then dropped.
pub fn set_up_once(ctx: &mut Ctx, rep: u64) -> Result<f64, String> {
    let start = Instant::now();
    let server = start_server(ctx, rep)?;
    let seconds = since(start);
    drop(server);
    Ok(seconds)
}

pub fn run(ctx: &mut Ctx) -> Result<Measured, String> {
    let mut gates = Gates::default();
    ctx.tracer.set_on(ctx.trace);
    let parts = ctx.parts();
    let server = start_server(ctx, 0)?;
    let mut setup_s = Vec::new();

    // The oracle and the bare-replay baseline come from a session of the
    // benchmark's own, outside set-up time and outside the server.
    let bare = compile_a(&mut ctx.tracer, None, 0, ctx.seed)?;
    let expected = reference_outputs(
        &mut ctx.tracer,
        &bare.graph,
        &bare.inputs,
        bare.quantization,
        ctx.broken == Some(BrokenGate::Expected),
    )?;
    gates.sim_repeats("bare replay", 0, bare.first_totals);
    gates.model_a_constants(ctx.expected_model_a_cycles());
    let images = &bare.inputs.images;

    let before_all = server.stats();
    // light[0] pools the untraced parts of the window, light[1] the traced
    // ones; `ladder` holds the rungs a traced run climbs afterwards.
    let mut light = [Rung::default(), Rung::default()];
    let mut ladder: Vec<Rung> = Vec::new();
    let mut index = 0u64;
    for (step_no, step) in plan(&parts, ctx.trace).into_iter().enumerate() {
        // Set-ups are spread over the run: before each part of the window,
        // while the measured server idles.
        if step_no < parts.len() {
            let rep = step_no as u64 + 1;
            setup_s.push(ctx.timed_set_up(|ctx| set_up_once(ctx, rep))?);
        }
        ctx.tracer.set_on(step.traced);
        let seed = ctx.seed ^ ((step_no as u64 + 1) << 32);
        let schedule = poisson(seed, step.rate, step.seconds, IMAGES);
        let before = server.stats();
        let (origin, outcomes) = drive(&server, images, &expected, &schedule, index);
        let after = server.stats();
        index += outcomes.len() as u64;
        for o in &outcomes {
            match &o.end {
                End::Served { correct, .. } => {
                    if !correct {
                        gates.error(format!(
                            "request {}: output differs from the reference",
                            o.index
                        ));
                    }
                    gates.operation(*correct);
                }
                End::Refused => gates.operation(true),
                End::Failed(why) => {
                    gates.error(format!("request {}: {why}", o.index));
                    gates.operation(false);
                }
            }
        }
        record_spans(&mut ctx.tracer, &outcomes);
        let rung = Rung::from_outcomes(step.rate, origin, &outcomes).with_batches(&before, &after);
        if step.ladder {
            ladder.push(rung);
        } else {
            light[usize::from(step.traced)].absorb(rung);
        }
    }
    let stats = server.stats();
    if stats.submitted != stats.accounted() {
        gates.error(format!(
            "server lost requests: {} submitted, {} accounted for",
            stats.submitted,
            stats.accounted()
        ));
    }
    let sent: u64 = light.iter().chain(&ladder).map(|r| r.sent).sum();
    if stats.submitted - before_all.submitted != sent {
        gates.error(format!(
            "generator sent {sent} requests, server counted {}",
            stats.submitted - before_all.submitted
        ));
    }
    drop(server);
    if ctx.sets_up_after() {
        let rep = setup_s.len() as u64 + 1;
        setup_s.push(ctx.timed_set_up(|ctx| set_up_once(ctx, rep))?);
    }
    ctx.tracer.set_on(ctx.trace);

    let mut m = Measured::new(gates);
    m.set_common(&setup_s)?;
    // The quiet percentile (see `harness::QUIET_PERCENTILE`) is a request that
    // found the server idle and the host fast: submit, wake-up, batch window,
    // one replay, resolution — the serving overhead this workload isolates.
    // The median sits between that and the requests whose worker had just
    // woken (5.3 ms of service against 3.0) and moved 4.6–6.7 ms on a calm host.
    let [untraced, traced] = &light;
    m.set("throughput_sps", untraced.goodput());
    m.set("latency_ms", untraced.p(QUIET_PERCENTILE));
    if !ctx.trace {
        return Ok(m);
    }

    let bare_ms: Vec<f64> = (0..BARE_REPLAYS)
        .map(|i| {
            let t0 = Instant::now();
            let run = bare.session.run(&images[i % IMAGES], &bare.inputs.weights);
            let ms = since(t0) * 1e3;
            run.map(|_| ms)
                .map_err(|e| format!("bare replay failed: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let bare_p50 = stats::percentile_of(&bare_ms, 50.0);
    m.set("feather.program.replay_ms_p50", bare_p50);
    m.set(
        "feather.program.replay_ms_p95",
        stats::tail_percentile_of(&bare_ms, 95.0),
    );
    m.set(
        "serve.submit_us_p50",
        stats::percentile_of(&traced.submit_us, 50.0),
    );
    m.set(
        "serve.queue_ms_p50",
        stats::percentile_of(&traced.queue_ms, 50.0),
    );
    m.set(
        "serve.queue_ms_p95",
        stats::tail_percentile_of(&traced.queue_ms, 95.0),
    );
    m.set(
        "serve.service_ms_p50",
        stats::percentile_of(&traced.service_ms, 50.0),
    );
    m.set("serve.overhead_ms_p50", traced.p(50.0) - bare_p50);
    m.set(
        "serve.overhead_ms_quiet",
        traced.p(QUIET_PERCENTILE) - stats::percentile_of(&bare_ms, QUIET_PERCENTILE),
    );
    m.set(
        "serve.request_ms_p95",
        stats::tail_percentile_of(&traced.latencies_ms, 95.0),
    );
    m.set("serve.mean_batch", traced.mean_batch());
    m.set(
        "serve.full_batch_share",
        traced.full_batches as f64 / traced.batches.max(1) as f64,
    );
    m.set("serve.batches_executed", traced.batches as f64);
    m.set("serve.exec_busy_share", traced.busy_share());
    m.set(
        "serve.refused_share",
        traced.refused as f64 / traced.sent.max(1) as f64,
    );
    m.set(
        "serve.rejected",
        (stats.rejected - before_all.rejected) as f64,
    );
    m.set("serve.shed", (stats.shed - before_all.shed) as f64);
    m.set(
        "serve.timed_out",
        (stats.timed_out - before_all.timed_out) as f64,
    );
    m.set("serve.failed", (stats.failed - before_all.failed) as f64);
    m.set("serve.retries", (stats.retries - before_all.retries) as f64);
    m.set("serve.register_ms", ctx.tracer.p50_ms("serve.register"));
    m.set("serve.warmup_ms", ctx.tracer.p50_ms("serve.warmup"));

    let (overload, rungs) = ladder.split_last().expect("a traced run climbs the ladder");
    m.set("serve.max_rate_in_slo_rps", knee(rungs));
    m.set("serve.overload_goodput_rps", overload.goodput());
    m.set("serve.overload_mean_batch", overload.mean_batch());
    m.set("serve.overload_busy_share", overload.busy_share());
    m.set(
        "serve.overload_refused_share",
        overload.refused as f64 / overload.sent.max(1) as f64,
    );
    for rung in &ladder {
        let rate = rung.rate as u64;
        m.set(
            format!("serve.rung_in_slo_share_r{rate}"),
            rung.in_slo_share(),
        );
        m.set(format!("serve.rung_p50_ms_r{rate}"), rung.p(50.0));
        m.set(format!("serve.rung_mean_batch_r{rate}"), rung.mean_batch());
    }
    let late: Vec<f64> = std::iter::once(traced)
        .chain(&ladder)
        .flat_map(|r| r.late_ms.iter().copied())
        .collect();
    m.set("gen.late_ms_p50", stats::percentile_of(&late, 50.0));
    m.set("gen.late_ms_max", late.iter().copied().fold(0.0, f64::max));
    let program = bare.session.program();
    setup_layer_metrics(&mut m, ctx, program.num_ops(), program.route_fires());
    let report = bare
        .session
        .run(&images[0], &bare.inputs.weights)
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A rung of `sent` requests of which `in_slo` met the limit.
    fn rung(rate: f64, sent: u64, in_slo: u64, drain_ms: f64) -> Rung {
        Rung {
            rate,
            sent,
            in_slo,
            drain_ms,
            ..Rung::default()
        }
    }

    #[test]
    fn due_time_latency_is_lateness_plus_server_latency() {
        assert_eq!(due_latency_ms(0.0, 6_400), 6.4);
        assert_eq!(due_latency_ms(181.0, 6_400), 187.4);
        let due = Instant::now();
        let outcome = |end| Outcome {
            index: 0,
            due,
            submit_start: due + Duration::from_millis(2),
            submit_end: due + Duration::from_millis(3),
            end,
        };
        let served = |correct| End::Served {
            latency_us: 5_000,
            queue_us: 1_000,
            batch_size: 2,
            correct,
        };
        assert_eq!(outcome(served(true)).served_ms(), Some(7.0));
        // Wrong, refused and failed requests have no latency: they are misses.
        assert_eq!(outcome(served(false)).served_ms(), None);
        assert_eq!(outcome(End::Refused).served_ms(), None);
        assert_eq!(outcome(End::Failed("x".to_string())).served_ms(), None);
    }

    #[test]
    fn a_rung_passes_on_share_sent_and_on_drain() {
        assert!(rung(300.0, 1000, 950, 100.0).passes());
        assert!(!rung(300.0, 1000, 949, 100.0).passes());
        assert!(!rung(300.0, 1000, 1000, 251.0).passes());
        assert!(!rung(300.0, 0, 0, 0.0).passes());
    }

    #[test]
    fn the_knee_is_the_highest_passing_rung() {
        let ladder = vec![
            rung(200.0, 700, 700, 10.0),
            rung(300.0, 1050, 1040, 20.0),
            rung(400.0, 1400, 900, 300.0),
            rung(600.0, 2100, 100, 600.0),
        ];
        assert_eq!(knee(&ladder), 300.0);
        // A host stall that fails a low rung does not hide a higher pass.
        let stalled = vec![
            rung(200.0, 700, 600, 10.0),
            rung(300.0, 1050, 1040, 20.0),
            rung(400.0, 1400, 900, 300.0),
        ];
        assert_eq!(knee(&stalled), 300.0);
        assert_eq!(knee(&[rung(200.0, 700, 0, 900.0)]), 0.0);
        assert_eq!(knee(&[]), 0.0);
    }

    #[test]
    fn rung_statistics_come_from_outcomes_alone() {
        let origin = Instant::now();
        let at = |ms: u64| origin + Duration::from_millis(ms);
        let outcome = |index: u64, due_ms: u64, end| Outcome {
            index,
            due: at(due_ms),
            submit_start: at(due_ms + 1),
            submit_end: at(due_ms + 1),
            end,
        };
        let served = |latency_us, queue_us, batch_size, correct| End::Served {
            latency_us,
            queue_us,
            batch_size,
            correct,
        };
        let outcomes = vec![
            // Two requests share one batch of 8 ms service.
            outcome(0, 10, served(10_000, 2_000, 2, true)),
            outcome(1, 11, served(9_000, 1_000, 2, true)),
            // Served, but 60 ms after it was due: beyond the limit.
            outcome(2, 20, served(59_000, 55_000, 1, true)),
            outcome(3, 30, End::Refused),
            outcome(4, 40, served(5_000, 0, 1, false)),
            outcome(5, 50, End::Failed("lost".to_string())),
        ];
        let r = Rung::from_outcomes(100.0, origin, &outcomes);
        assert_eq!(
            (r.sent, r.served_correct, r.in_slo, r.refused),
            (6, 3, 2, 1)
        );
        assert_eq!(r.latencies_ms, vec![11.0, 10.0, 60.0]);
        // Last resolution: request 2 at 20 + 1 + 59 = 80 ms; last due at 50.
        assert!((r.drain_ms - 30.0).abs() < 1e-9 && (r.wall_s - 0.080).abs() < 1e-9);
        // 8 ms once for the shared batch, then 4 ms and 5 ms.
        assert!((r.busy_s - 0.017).abs() < 1e-9);
        assert!(!r.passes());
    }

    #[test]
    fn a_traced_run_climbs_the_ladder_after_its_window() {
        let part = |traced| Part {
            seconds: 3.0,
            traced,
        };
        let untraced = plan(&[part(false); 6], false);
        assert_eq!(untraced.len(), 6);
        assert!(untraced
            .iter()
            .all(|s| s.rate == LIGHT_RATE && s.seconds == 3.0 && !s.ladder));

        let halves = [
            part(false),
            part(false),
            part(false),
            part(true),
            part(true),
            part(true),
        ];
        let traced = plan(&halves, true);
        assert_eq!(traced.len(), 6 + 7);
        assert!(
            traced[..6].iter().all(|s| !s.ladder)
                && traced[6..].iter().all(|s| s.ladder && s.traced)
        );
        let ladder = &traced[6..];
        assert!((ladder.iter().map(|s| s.seconds).sum::<f64>() - 18.0).abs() < 1e-9);
        assert!((ladder[0].seconds - 2.0).abs() < 1e-9 && ladder[0].rate == 200.0);
        assert!((ladder[6].seconds - 6.0).abs() < 1e-9 && ladder[6].rate == OVERLOAD_RATE);
    }

    #[test]
    fn pooled_stretches_add_up() {
        let mut a = rung(100.0, 300, 299, 4.0);
        a.wall_s = 3.0;
        let mut b = rung(100.0, 300, 290, 9.0);
        b.wall_s = 3.1;
        a.absorb(b);
        assert_eq!(
            (a.rate, a.sent, a.in_slo, a.drain_ms),
            (100.0, 600, 589, 9.0)
        );
        assert!((a.wall_s - 6.1).abs() < 1e-9);
    }
}
