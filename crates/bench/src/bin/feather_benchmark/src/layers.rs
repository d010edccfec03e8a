//! Per-layer numbers that do not come from a workload's own spans: the exact
//! simulated counters of a `GraphReport`, and timed probes of the `birrd`,
//! `nest` and `memsim` primitives that replay is made of.

use std::hint::black_box;
use std::time::Instant;

use feather::GraphReport;
use feather_birrd::{Birrd, CompiledRoute, ReductionRequest};
use feather_memsim::conflict::ConflictModel;
use feather_memsim::{Banking, BufferSpec};
use feather_nest::array::NestArray;

use crate::harness::Measured;
use crate::schedule::SplitMix64;
use crate::stats;
use crate::trace::Tracer;

/// Exact per-layer counters of one simulated sample. They move only when the
/// modelled design or its schedule changes.
pub fn sim_counters(m: &mut Measured, report: &GraphReport, num_pes: usize) {
    let (mut passes, mut adds) = (0u64, 0u64);
    let (mut reads, mut writes, mut stalls) = (0u64, 0u64, 0u64);
    for layer in report.layers() {
        let r = &layer.report;
        passes += r.birrd_passes;
        adds += r.birrd_adds;
        for buffer in [&r.iact_stats, &r.oact_stats] {
            reads += buffer.line_reads;
            writes += buffer.line_writes;
            stalls += buffer.conflict_stall_cycles;
        }
    }
    m.set("birrd.sim_passes", passes as f64);
    m.set("birrd.sim_adds", adds as f64);
    m.set("nest.sim_macs", report.total_macs() as f64);
    m.set("nest.sim_utilization", report.utilization(num_pes));
    m.set(
        "memsim.sim_line_reads",
        (reads + report.scratch.line_reads) as f64,
    );
    m.set(
        "memsim.sim_line_writes",
        (writes + report.scratch.line_writes) as f64,
    );
    m.set(
        "memsim.sim_conflict_stall_cycles",
        (stalls + report.scratch.conflict_stall_cycles) as f64,
    );
    m.set(
        "memsim.sim_scratch_peak_elems",
        report.scratch_peak_elems as f64,
    );
}

const WIDTH: usize = 16;
const ROUTE_REQUESTS: usize = 48;
/// Timed samples per probe and calls per sample: single calls take tens of
/// nanoseconds, below what one clock read resolves.
const SAMPLES: usize = 40;
const CALLS: usize = 500;

/// Nanoseconds per call, median over [`SAMPLES`] batches of [`CALLS`].
fn ns_per_call(mut call: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..CALLS {
                call();
            }
            start.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .collect();
    stats::percentile_of(&samples, 50.0)
}

/// A seeded reduce-and-reorder request: the 16 inputs in shuffled order, cut
/// into equal groups of 1, 2 or 4, each sent to a distinct random port.
fn random_request(rng: &mut SplitMix64) -> Vec<(Vec<usize>, usize)> {
    let mut shuffled = |n: usize| {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, rng.below(i + 1));
        }
        v
    };
    let inputs = shuffled(WIDTH);
    let ports = shuffled(WIDTH);
    let size = [1, 2, 4][ports[0] % 3];
    inputs
        .chunks(size)
        .zip(ports)
        .map(|(members, port)| (members.to_vec(), port))
        .collect()
}

/// Times the primitives on seeded inputs. Runs in every traced run: the
/// probes are independent of the workload, so they read the same everywhere.
pub fn probes(m: &mut Measured, tracer: &mut Tracer, seed: u64) -> Result<(), String> {
    let mut rng = SplitMix64::new(seed ^ 0xb1dd);
    let birrd = Birrd::new(WIDTH).map_err(|e| format!("birrd: {e}"))?;
    let mut routed = Vec::new();
    let mut failures = 0usize;
    for i in 0..ROUTE_REQUESTS {
        let request = ReductionRequest::from_groups(WIDTH, &random_request(&mut rng))
            .map_err(|e| format!("probe request: {e}"))?;
        match tracer.within("birrd.route", None, i as u64, || birrd.route(&request)) {
            Ok(config) => routed.push(config),
            Err(_) => failures += 1,
        }
    }
    let compiled: Vec<CompiledRoute> = routed
        .iter()
        .enumerate()
        .map(|(i, config)| {
            tracer
                .within("birrd.compile", None, i as u64, || {
                    CompiledRoute::compile(birrd.topology(), config)
                })
                .map_err(|e| format!("probe route does not compile: {e}"))
        })
        .collect::<Result<_, _>>()?;
    if compiled.is_empty() {
        return Err("no probe request routed".to_string());
    }
    m.set("birrd.route_us_p50", tracer.p50_ms("birrd.route") * 1e3);
    m.set(
        "birrd.route_fail_share",
        failures as f64 / ROUTE_REQUESTS as f64,
    );
    m.set("birrd.compile_us_p50", tracer.p50_ms("birrd.compile") * 1e3);

    for lanes in [1usize, 8] {
        let inputs: Vec<i64> = (0..WIDTH * lanes).map(|i| i as i64 - 7).collect();
        let present = [true; WIDTH];
        let mut outputs = vec![0i64; WIDTH * lanes];
        let mut out_present = [false; WIDTH];
        let mut next = 0;
        let ns = ns_per_call(|| {
            let route = &compiled[next % compiled.len()];
            next += 1;
            route
                .run_batched(
                    black_box(&inputs),
                    &present,
                    lanes,
                    &mut outputs,
                    &mut out_present,
                )
                .expect("probe stripes match the route width");
            black_box(&mut outputs);
        });
        m.set(format!("birrd.run_ns_p50_l{lanes}"), ns);
    }

    let (rows, cols) = (8usize, 16usize);
    for lanes in [1usize, 8] {
        let mut array = NestArray::with_lanes(rows, cols, lanes);
        for row in 0..rows {
            for col in 0..cols {
                array.load_weights(row, col, &[3, -2, 5, 1]);
            }
        }
        array.swap_all_weights();
        let iacts: Vec<i8> = (0..lanes).map(|l| l as i8 - 3).collect();
        let mapped = vec![true; cols];
        let mut bus = vec![0i32; cols * lanes];
        let mut row = 0;
        // One call = one row: a MAC on each of its PEs, then the row fires.
        let ns = ns_per_call(|| {
            for col in 0..cols {
                array.mac_stripe(row, col, black_box(&iacts), col % 4);
            }
            array.fire_row_stripe(row, &mapped, &mut bus);
            black_box(&mut bus);
            row = (row + 1) % rows;
        });
        m.set(format!("nest.fire_ns_p50_l{lanes}"), ns);
    }

    let model = ConflictModel::new(BufferSpec::new(4096, cols, cols, Banking::Horizontal));
    let patterns: Vec<Vec<usize>> = (0..64)
        .map(|_| (0..cols).map(|_| rng.below(4096)).collect())
        .collect();
    let mut next = 0;
    let ns = ns_per_call(|| {
        let lines = &patterns[next % patterns.len()];
        next += 1;
        black_box(model.assess_reads(black_box(lines).iter().copied()));
    });
    m.set("memsim.assess_reads_ns_p50", ns);
    Ok(())
}
