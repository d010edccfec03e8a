//! What every workload shares: its run context, the correctness gates, the
//! measured windows and the result it hands back.

use std::collections::BTreeMap;
use std::time::Instant;

use feather_arch::tensor::Tensor4;

use crate::models::{SimTotals, MODEL_A_CYCLES, MODEL_A_DRAM_BYTES};
use crate::stats;
use crate::trace::Tracer;

/// Parts an untraced window is cut into. `setup_s` is read before each part
/// and after the last: seven times, seconds apart, across the whole run.
const PARTS: usize = 6;

/// The host runs at two speeds some 1.8× apart and switches between them
/// every few seconds; the share of a run spent at the slow one varies from
/// nothing to nearly all of it, and a median flips with it (per-call medians
/// of ten `offline_b1` runs spread 25–56 % of their median, their 10th
/// percentiles 7–12 %, their 2nd percentiles 3–5 %). Noise only ever adds
/// time, so wherever the system is busy throughout a closed loop, timings are
/// read at a low percentile: it stays on the fast speed while a fiftieth of
/// the window was spent there, and with thousands of calls in a window it is
/// still the sixtieth-fastest call or so, not a lucky one.
pub const QUIET_PERCENTILE: f64 = 2.0;

/// A gate the bite tests break on purpose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrokenGate {
    /// Perturb one element of the first expected tensor.
    Expected,
    /// Compare Model A's cycles against a wrong constant.
    SimCycles,
}

pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// Length of the whole measured window in seconds.
    pub seconds: f64,
    /// `--trace 1`: half the window untraced, half traced, per-layer output.
    pub trace: bool,
    /// `--quick`: a smoke run that sets up once.
    pub quick: bool,
    pub broken: Option<BrokenGate>,
    pub tracer: Tracer,
}

/// One stretch of the measured window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Part {
    pub seconds: f64,
    pub traced: bool,
}

impl Ctx {
    /// The window as equal parts. An untraced run measures all of them
    /// untraced; a traced run traces the second half, so tracing overhead is
    /// measured in-process. `--quick` has one part per half.
    pub fn parts(&self) -> Vec<Part> {
        let count = if self.quick {
            1 + usize::from(self.trace)
        } else {
            PARTS
        };
        (0..count)
            .map(|i| Part {
                seconds: self.seconds / count as f64,
                traced: self.trace && i >= count / 2,
            })
            .collect()
    }

    /// Whether to set up once more after the last part (not under `--quick`).
    pub fn sets_up_after(&self) -> bool {
        !self.quick
    }

    /// One timed set-up. An untraced run takes it in a fresh child process
    /// (`--setup-only`): that is what a user pays from process start, and it
    /// leaves this process's memory high-water mark alone. A traced run,
    /// which reports neither, sets up `in_process` so the spans are recorded.
    pub fn timed_set_up(
        &mut self,
        in_process: impl FnOnce(&mut Ctx) -> Result<f64, String>,
    ) -> Result<f64, String> {
        if self.trace {
            self.tracer.set_on(true);
            return in_process(self);
        }
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let output = std::process::Command::new(exe)
            .args([
                "--workload",
                &self.workload,
                "--seed",
                &self.seed.to_string(),
            ])
            .arg("--setup-only")
            .output()
            .map_err(|e| format!("set-up child does not start: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        match stdout.trim().parse::<f64>() {
            Ok(seconds) if output.status.success() => Ok(seconds),
            _ => Err(format!(
                "set-up child failed ({}): {}",
                output.status,
                String::from_utf8_lossy(&output.stderr).trim()
            )),
        }
    }

    pub fn expected_model_a_cycles(&self) -> u64 {
        if self.broken == Some(BrokenGate::SimCycles) {
            MODEL_A_CYCLES + 1
        } else {
            MODEL_A_CYCLES
        }
    }
}

/// Counts operations and collects every way a run can be wrong. A run with
/// any error exits non-zero.
#[derive(Default)]
pub struct Gates {
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
    sim: Option<SimTotals>,
}

/// Errors kept verbatim; the rest are only counted.
const ERRORS_KEPT: usize = 8;

impl Gates {
    pub fn error(&mut self, message: String) {
        if self.errors.len() < ERRORS_KEPT {
            self.errors.push(message);
        } else if self.errors.len() == ERRORS_KEPT {
            self.errors.push("further errors not listed".to_string());
        }
    }

    /// One operation finished; `ok` is whether its output was right.
    pub fn operation(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Compares an output with the oracle's.
    pub fn output_matches(
        &mut self,
        what: &str,
        index: u64,
        got: &Tensor4<i32>,
        expected: &Tensor4<i32>,
    ) -> bool {
        let ok = got == expected;
        if !ok {
            self.error(format!("{what} {index}: output differs from the reference"));
        }
        ok
    }

    /// Simulated totals must be bit-identical across every sample, lane and
    /// iteration of a run.
    pub fn sim_repeats(&mut self, what: &str, index: u64, totals: SimTotals) -> bool {
        match self.sim {
            None => {
                self.sim = Some(totals);
                true
            }
            Some(first) if first == totals => true,
            Some(first) => {
                self.error(format!(
                    "{what} {index}: simulated totals {totals:?} differ from the first {first:?}"
                ));
                false
            }
        }
    }

    /// Model A's totals are pinned to the constants every BENCH file recorded.
    pub fn model_a_constants(&mut self, expected_cycles: u64) {
        if let Some(sim) = self.sim {
            if sim.cycles != expected_cycles || sim.dram_bytes != MODEL_A_DRAM_BYTES {
                self.error(format!(
                    "model A simulated {} cycles / {} DRAM bytes, expected {} / {}",
                    sim.cycles, sim.dram_bytes, expected_cycles, MODEL_A_DRAM_BYTES
                ));
            }
        }
    }

    pub fn sim(&self) -> Option<SimTotals> {
        self.sim
    }

    pub fn errors(&self) -> &[String] {
        &self.errors
    }
}

/// What a workload hands back: the gates and every metric it measured, by
/// the names in `metrics.rs`.
pub struct Measured {
    pub gates: Gates,
    pub metrics: BTreeMap<String, f64>,
}

impl Measured {
    pub fn new(gates: Gates) -> Self {
        Measured {
            gates,
            metrics: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// The simulated totals and memory high-water mark every workload reports.
    pub fn set_common(&mut self, setup_s: &[f64]) -> Result<(), String> {
        let sim = self
            .gates
            .sim()
            .ok_or("no simulated totals were recorded")?;
        // The quietest of the set-ups spread over the run: see
        // `QUIET_PERCENTILE`.
        self.set(
            "setup_s",
            setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        );
        self.set("sim_cycles", sim.cycles as f64);
        self.set("sim_dram_bytes", sim.dram_bytes as f64);
        self.set("sim_energy_nj", sim.energy_pj / 1e3);
        self.set("peak_rss_mb", peak_rss_mb()?);
        Ok(())
    }
}

/// Latency samples of one segment, in milliseconds, with its wall time.
#[derive(Default)]
pub struct Window {
    pub latencies_ms: Vec<f64>,
    /// Seconds from the end of the previous call (or the part's start) to the
    /// end of each call.
    intervals_s: Vec<f64>,
    last_end: Option<Instant>,
}

impl Window {
    /// A part begins: the first interval runs from here.
    pub fn begin_part(&mut self, start: Instant) {
        self.last_end = Some(start);
    }

    /// A call that took `latency_ms` has just been verified.
    pub fn push(&mut self, latency_ms: f64) {
        let now = Instant::now();
        self.latencies_ms.push(latency_ms);
        let interval_s = match self.last_end.replace(now) {
            Some(previous) => now.duration_since(previous).as_secs_f64(),
            None => latency_ms / 1e3,
        };
        self.intervals_s.push(interval_s);
    }

    pub fn p(&self, p: f64) -> f64 {
        stats::percentile_of(&self.latencies_ms, p)
    }

    pub fn tail(&self, p: f64) -> f64 {
        stats::tail_percentile_of(&self.latencies_ms, p)
    }

    /// Samples per second at the quiet call-to-call interval: `per_call`
    /// samples every [`QUIET_PERCENTILE`]th-percentile interval between the
    /// ends of consecutive calls, so checking an output counts as part of
    /// producing it.
    pub fn quiet_throughput(&self, per_call: u64) -> f64 {
        per_call as f64
            / stats::percentile_of(&self.intervals_s, QUIET_PERCENTILE).max(f64::MIN_POSITIVE)
    }
}

/// Tracing overhead: how much slower the traced half's median is, in percent.
pub fn overhead_pct(untraced_p50: f64, traced_p50: f64) -> f64 {
    if untraced_p50 <= 0.0 {
        return 0.0;
    }
    (traced_p50 - untraced_p50) / untraced_p50 * 100.0
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

/// Seconds since `start`.
pub fn since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: SimTotals = SimTotals {
        cycles: MODEL_A_CYCLES,
        dram_bytes: MODEL_A_DRAM_BYTES,
        energy_pj: 1.5,
    };

    #[test]
    fn outputs_are_compared_with_the_oracle() {
        let expected = Tensor4::from_fn([1, 2, 1, 1], |_, c, _, _| c as i32);
        let mut wrong = expected.clone();
        wrong.set(0, 1, 0, 0, 7);
        let mut gates = Gates::default();
        assert!(gates.output_matches("replay", 0, &expected.clone(), &expected));
        assert!(gates.errors().is_empty());
        assert!(!gates.output_matches("replay", 1, &wrong, &expected));
        assert_eq!(gates.errors().len(), 1);
    }

    #[test]
    fn simulated_totals_must_repeat_bit_for_bit() {
        let mut gates = Gates::default();
        assert!(gates.sim_repeats("replay", 0, A));
        assert!(gates.sim_repeats("replay", 1, A));
        let drifted = SimTotals {
            energy_pj: 1.5000000001,
            ..A
        };
        assert!(!gates.sim_repeats("replay", 2, drifted));
        assert!(gates.errors()[0].contains("replay 2"));
        assert_eq!(gates.sim(), Some(A));
    }

    #[test]
    fn model_a_is_pinned_to_its_constants() {
        let mut gates = Gates::default();
        gates.sim_repeats("replay", 0, A);
        gates.model_a_constants(MODEL_A_CYCLES);
        assert!(gates.errors().is_empty());
        gates.model_a_constants(MODEL_A_CYCLES + 1);
        assert_eq!(gates.errors().len(), 1);

        let mut gates = Gates::default();
        gates.sim_repeats("replay", 0, SimTotals { dram_bytes: 1, ..A });
        gates.model_a_constants(MODEL_A_CYCLES);
        assert_eq!(gates.errors().len(), 1);
    }

    #[test]
    fn operations_are_counted_and_errors_capped() {
        let mut gates = Gates::default();
        for i in 0..20 {
            gates.operation(i % 2 == 0);
            gates.error(format!("error {i}"));
        }
        assert_eq!((gates.attempted, gates.failed), (20, 10));
        assert_eq!(gates.errors().len(), ERRORS_KEPT + 1);
    }

    #[test]
    fn quiet_throughput_reads_the_fast_intervals() {
        // 100 calls of 8 samples: a fifth end 5 ms after the one before, the
        // rest 10 ms.
        let mut window = Window::default();
        for i in 0..100 {
            window
                .intervals_s
                .push(if i % 5 == 0 { 0.005 } else { 0.010 });
        }
        assert!((window.quiet_throughput(8) - 1600.0).abs() < 1e-6);
    }

    #[test]
    fn intervals_restart_with_each_part() {
        let mut window = Window::default();
        window.begin_part(Instant::now());
        std::thread::sleep(std::time::Duration::from_millis(2));
        window.push(1.0);
        window.push(1.0);
        assert_eq!(window.latencies_ms, vec![1.0, 1.0]);
        // The first interval runs from the part's start, the second from the
        // first call's end.
        assert!(window.intervals_s[0] >= 0.002 && window.intervals_s[1] < 0.002);
    }

    fn ctx(trace: bool, quick: bool) -> Ctx {
        Ctx {
            workload: "offline_b1".to_string(),
            seed: 1,
            seconds: 18.0,
            trace,
            quick,
            broken: None,
            tracer: Tracer::new(false),
        }
    }

    #[test]
    fn a_window_is_cut_into_parts_and_a_traced_run_traces_the_second_half() {
        let untraced = ctx(false, false).parts();
        assert_eq!(untraced.len(), PARTS);
        assert!(untraced.iter().all(|p| !p.traced && p.seconds == 3.0));
        let traced = ctx(true, false).parts();
        assert_eq!(traced.iter().map(|p| p.seconds).sum::<f64>(), 18.0);
        assert_eq!(traced.iter().filter(|p| p.traced).count(), PARTS / 2);
        assert!(!traced[0].traced && traced[PARTS - 1].traced);
        assert!(ctx(false, false).sets_up_after());

        assert_eq!(ctx(false, true).parts().len(), 1);
        let quick = ctx(true, true).parts();
        assert_eq!((quick[0].traced, quick[1].traced), (false, true));
        assert!(!ctx(true, true).sets_up_after());
        assert!((overhead_pct(10.0, 10.3) - 3.0).abs() < 1e-9);
    }
}
