//! Every metric the benchmark prints, by name, with unit and direction.
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.

use crate::serving::{LADDER_RATES, OVERLOAD_RATE};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

pub const WORKLOADS: [&str; 4] = ["offline_b1", "offline_b8", "serve_light", "cold_start"];

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload prints every one of them.
pub const END_TO_END: [(&str, &str, Better); 7] = [
    ("setup_s", "s", Lower),
    ("throughput_sps", "1/s", Higher),
    ("latency_ms", "ms", Lower),
    ("sim_cycles", "cycles", Lower),
    ("sim_dram_bytes", "B", Lower),
    ("sim_energy_nj", "nJ", Lower),
    ("peak_rss_mb", "MiB", Lower),
];

const PER_LAYER_FIXED: [(&str, &str, Better); 66] = [
    ("arch.graph_build_ms_p50", "ms", Lower),
    ("arch.reference_ms_p50", "ms", Lower),
    ("layoutloop.plan_ms_p50", "ms", Lower),
    ("layoutloop.tables_computed", "count", Lower),
    ("layoutloop.table_hits", "count", Higher),
    ("layoutloop.ms_per_table", "ms", Lower),
    ("layoutloop.plan_cycles", "cycles", Lower),
    (
        "layoutloop.predicted_over_simulated_cycles",
        "ratio",
        Higher,
    ),
    ("feather.graph_session.build_ms_p50", "ms", Lower),
    ("feather.graph_session.run_ms_p50", "ms", Lower),
    (
        "feather.graph_session.run_ns_per_sim_cycle",
        "ns/cycle",
        Lower,
    ),
    ("feather.program.compile_ms_p50", "ms", Lower),
    ("feather.program.ops", "count", Lower),
    ("feather.program.route_fires", "count", Lower),
    ("feather.program.first_replay_ms_p50", "ms", Lower),
    ("feather.program.replay_ms_p50", "ms", Lower),
    ("feather.program.replay_ms_p95", "ms", Lower),
    ("feather.program.replay_us_per_op", "us/op", Lower),
    ("feather.program.replay_ns_per_sim_cycle", "ns/cycle", Lower),
    ("feather.program.batched_ms_p50", "ms", Lower),
    ("feather.program.batched_ms_p95", "ms", Lower),
    ("feather.program.batched_ms_per_sample", "ms", Lower),
    ("feather.program.batch_speedup", "ratio", Higher),
    ("birrd.route_us_p50", "us", Lower),
    ("birrd.route_fail_share", "share", Lower),
    ("birrd.compile_us_p50", "us", Lower),
    ("birrd.run_ns_p50_l1", "ns", Lower),
    ("birrd.run_ns_p50_l8", "ns", Lower),
    ("birrd.sim_passes", "count", Lower),
    ("birrd.sim_adds", "count", Lower),
    ("nest.fire_ns_p50_l1", "ns", Lower),
    ("nest.fire_ns_p50_l8", "ns", Lower),
    ("nest.sim_macs", "count", Lower),
    ("nest.sim_utilization", "share", Higher),
    ("memsim.assess_reads_ns_p50", "ns", Lower),
    ("memsim.sim_line_reads", "count", Lower),
    ("memsim.sim_line_writes", "count", Lower),
    ("memsim.sim_conflict_stall_cycles", "cycles", Lower),
    ("memsim.sim_scratch_peak_elems", "count", Lower),
    ("serve.submit_us_p50", "us", Lower),
    ("serve.queue_ms_p50", "ms", Lower),
    ("serve.queue_ms_p95", "ms", Lower),
    ("serve.service_ms_p50", "ms", Lower),
    ("serve.overhead_ms_p50", "ms", Lower),
    ("serve.overhead_ms_quiet", "ms", Lower),
    ("serve.request_ms_p95", "ms", Lower),
    ("serve.mean_batch", "count", Higher),
    ("serve.full_batch_share", "share", Higher),
    ("serve.batches_executed", "count", Lower),
    ("serve.exec_busy_share", "share", Lower),
    ("serve.max_rate_in_slo_rps", "1/s", Higher),
    ("serve.overload_goodput_rps", "1/s", Higher),
    ("serve.overload_mean_batch", "count", Higher),
    ("serve.overload_busy_share", "share", Lower),
    ("serve.overload_refused_share", "share", Lower),
    ("serve.refused_share", "share", Lower),
    ("serve.rejected", "count", Lower),
    ("serve.shed", "count", Lower),
    ("serve.timed_out", "count", Lower),
    ("serve.failed", "count", Lower),
    ("serve.retries", "count", Lower),
    ("serve.register_ms", "ms", Lower),
    ("serve.warmup_ms", "ms", Lower),
    ("gen.late_ms_p50", "ms", Lower),
    ("gen.late_ms_max", "ms", Lower),
    ("trace.overhead_pct", "%", Lower),
];

fn metric(&(name, unit, better): &(&str, &'static str, Better)) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
    }
}

pub fn end_to_end() -> Vec<Metric> {
    END_TO_END.iter().map(metric).collect()
}

/// Per-layer metrics: the fixed list plus three per ladder rate. A workload
/// that does not exercise a layer prints 0 for it.
pub fn per_layer() -> Vec<Metric> {
    let mut all: Vec<Metric> = PER_LAYER_FIXED.iter().map(metric).collect();
    for rate in LADDER_RATES.iter().chain([&OVERLOAD_RATE]) {
        let rate = *rate as u64;
        for (stem, unit, better) in [
            ("serve.rung_in_slo_share_r", "share", Higher),
            ("serve.rung_p50_ms_r", "ms", Lower),
            ("serve.rung_mean_batch_r", "count", Higher),
        ] {
            all.push(metric(&(&format!("{stem}{rate}"), unit, better)));
        }
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn listed(section: &Value) -> Vec<(String, String, String)> {
        let field = |entry: &Value, key: &str| {
            entry
                .get(key)
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string()
        };
        section
            .as_arr()
            .expect("a list")
            .iter()
            .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
            .collect()
    }

    fn ours(metrics: Vec<Metric>) -> Vec<(String, String, String)> {
        metrics
            .into_iter()
            .map(|m| (m.name, m.unit.to_string(), m.better.as_str().to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_harness_prints() {
        let file = benchmark_json();
        assert_eq!(listed(file.get("end_to_end").unwrap()), ours(end_to_end()));
        assert_eq!(listed(file.get("per_layer").unwrap()), ours(per_layer()));
        let workloads: Vec<&str> = file
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(
            file.get("run_seconds").and_then(Value::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<Metric> = end_to_end().into_iter().chain(per_layer()).collect();
        assert!(per_layer().len() <= 128 && end_to_end().len() <= 16);
        let mut names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
        for m in &all {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(end_to_end()
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
