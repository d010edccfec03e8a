//! Serving-side accounting: per-tenant aggregates in the style of the
//! executor's `GraphReport` totals (latency, modeled cycles, DRAM bytes)
//! plus the server-wide batch-size histogram the batching knobs are tuned
//! against.

use std::collections::BTreeMap;

/// Aggregates for one tenant (the `tenant` string passed to `submit`).
///
/// `cycles` and `dram_bytes` sum what each completed request was charged —
/// its model's exact solo-inference cost (`Program::cost()` totals),
/// whatever it was batched with — so a tenant's totals are
/// `Σ completed(model) × cost(model)`: the serving analogue of a
/// `GraphReport`'s `total_cycles()`/`dram_bytes()` rollup, attributable
/// per tenant for chargeback.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests bounced by admission control (queue full).
    pub rejected: u64,
    /// Requests dropped because their deadline expired in the queue.
    pub timed_out: u64,
    /// Requests cancelled (ticket dropped or `Ticket::cancel`) before an
    /// executor picked them up.
    pub cancelled: u64,
    /// Requests that reached the executor but failed (after exhausting any
    /// retry budget).
    pub failed: u64,
    /// Requests shed at admission during overload brownout (deadline already
    /// infeasible given the backlog) or fast-failed by an open circuit
    /// breaker.
    pub shed: u64,
    /// Total end-to-end latency (submit → response) across completed
    /// requests, in microseconds.
    pub latency_us: u64,
    /// Worst completed-request latency, in microseconds.
    pub max_latency_us: u64,
    /// Modeled accelerator cycles attributed to this tenant.
    pub cycles: u64,
    /// Modeled DRAM traffic attributed to this tenant, in bytes.
    pub dram_bytes: u64,
}

impl TenantStats {
    /// Mean end-to-end latency over completed requests, in microseconds.
    pub fn mean_latency_us(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.latency_us as f64 / self.completed as f64
        }
    }

    /// Folds another aggregate into this one (sums, except the latency
    /// high-water mark which takes the max).
    pub fn merge(&mut self, other: &TenantStats) {
        self.completed += other.completed;
        self.rejected += other.rejected;
        self.timed_out += other.timed_out;
        self.cancelled += other.cancelled;
        self.failed += other.failed;
        self.shed += other.shed;
        self.latency_us += other.latency_us;
        self.max_latency_us = self.max_latency_us.max(other.max_latency_us);
        self.cycles += other.cycles;
        self.dram_bytes += other.dram_bytes;
    }
}

/// A snapshot of the whole server's counters.
///
/// With an executor pool, each worker keeps its own shard of these counters
/// on its private lock; [`Server::stats`](crate::Server::stats) merges the
/// shards (via [`ServerStats::merge`]) into the snapshot you see here, so
/// the hot path never contends on one global stats mutex.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Per-tenant aggregates, keyed by tenant name.
    pub tenants: BTreeMap<String, TenantStats>,
    /// Histogram of executed batch sizes: `batches[k]` batches ran with
    /// exactly `k` coalesced requests.
    pub batches: BTreeMap<usize, u64>,
    /// Batches executed per pool worker, keyed by worker index — shows how
    /// evenly work spread across the pool (whichever worker is idle forms
    /// and runs the next batch).
    pub worker_batches: BTreeMap<usize, u64>,
    /// Requests accepted past validation and breaker checks. Every
    /// submitted request resolves exactly one way, so at quiescence
    /// `submitted == completed + rejected + timed_out + cancelled + failed
    /// + shed` — the conservation invariant the chaos suite asserts.
    pub submitted: u64,
    /// Requests completed successfully, across all tenants.
    pub completed: u64,
    /// Requests bounced by admission control, across all tenants.
    pub rejected: u64,
    /// Requests dropped on deadline expiry, across all tenants.
    pub timed_out: u64,
    /// Requests cancelled before execution, across all tenants.
    pub cancelled: u64,
    /// Requests that failed after exhausting their retry budget.
    pub failed: u64,
    /// Requests shed by brownout admission or an open circuit breaker.
    pub shed: u64,
    /// Batch re-executions triggered by the retry path (each counts the
    /// requests re-enqueued, not the batches).
    pub retries: u64,
    /// Replay panics caught by worker supervision (injected or real).
    pub worker_panics: u64,
    /// Replacement workers spawned after a panic took one down.
    pub respawns: u64,
    /// Times a per-model circuit breaker transitioned closed/half-open →
    /// open.
    pub breaker_opens: u64,
    /// High-water mark of batches executing simultaneously across the pool.
    /// `>= 2` proves real overlap; always `<=` the configured worker count.
    pub max_concurrent_batches: u64,
}

impl ServerStats {
    /// Number of batches the executor pool replayed: one
    /// `ProgramSession::run_batched_with_scratch` call each, whatever its
    /// size.
    pub fn executed_batches(&self) -> u64 {
        self.batches.values().sum()
    }

    /// Folds another shard of counters into this one: sums everywhere,
    /// except per-tenant latency high-water marks (max) and the concurrency
    /// watermark (max).
    pub fn merge(&mut self, other: &ServerStats) {
        for (tenant, stats) in &other.tenants {
            self.tenants.entry(tenant.clone()).or_default().merge(stats);
        }
        for (size, count) in &other.batches {
            *self.batches.entry(*size).or_insert(0) += count;
        }
        for (worker, count) in &other.worker_batches {
            *self.worker_batches.entry(*worker).or_insert(0) += count;
        }
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.rejected += other.rejected;
        self.timed_out += other.timed_out;
        self.cancelled += other.cancelled;
        self.failed += other.failed;
        self.shed += other.shed;
        self.retries += other.retries;
        self.worker_panics += other.worker_panics;
        self.respawns += other.respawns;
        self.breaker_opens += other.breaker_opens;
        self.max_concurrent_batches = self
            .max_concurrent_batches
            .max(other.max_concurrent_batches);
    }

    /// Sum of all terminal outcomes — the right-hand side of the
    /// conservation invariant. At quiescence (no requests in flight) this
    /// equals [`ServerStats::submitted`].
    pub fn accounted(&self) -> u64 {
        self.completed + self.rejected + self.timed_out + self.cancelled + self.failed + self.shed
    }

    /// Mean coalesced batch size over all executed batches.
    pub fn mean_batch(&self) -> f64 {
        let batches = self.executed_batches();
        if batches == 0 {
            0.0
        } else {
            let requests: u64 = self.batches.iter().map(|(k, n)| *k as u64 * n).sum();
            requests as f64 / batches as f64
        }
    }

    /// The largest batch the scheduler actually coalesced.
    pub fn max_batch_executed(&self) -> usize {
        self.batches.keys().max().copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_rollups() {
        let mut stats = ServerStats::default();
        assert_eq!(stats.executed_batches(), 0);
        assert_eq!(stats.mean_batch(), 0.0);
        assert_eq!(stats.max_batch_executed(), 0);
        stats.batches.insert(1, 2);
        stats.batches.insert(4, 3);
        assert_eq!(stats.executed_batches(), 5);
        assert_eq!(stats.mean_batch(), 14.0 / 5.0);
        assert_eq!(stats.max_batch_executed(), 4);
    }

    #[test]
    fn tenant_mean_latency() {
        let mut t = TenantStats::default();
        assert_eq!(t.mean_latency_us(), 0.0);
        t.completed = 4;
        t.latency_us = 1000;
        assert_eq!(t.mean_latency_us(), 250.0);
    }

    #[test]
    fn merge_sums_counters_and_maxes_watermarks() {
        let mut a = ServerStats {
            submitted: 4,
            completed: 3,
            rejected: 1,
            retries: 2,
            worker_panics: 1,
            respawns: 1,
            max_concurrent_batches: 2,
            ..ServerStats::default()
        };
        a.batches.insert(2, 1);
        a.worker_batches.insert(0, 1);
        a.tenants.insert(
            "t".into(),
            TenantStats {
                completed: 3,
                latency_us: 300,
                max_latency_us: 200,
                ..TenantStats::default()
            },
        );

        let mut b = ServerStats {
            submitted: 9,
            completed: 2,
            cancelled: 4,
            timed_out: 1,
            failed: 1,
            shed: 1,
            breaker_opens: 1,
            max_concurrent_batches: 1,
            ..ServerStats::default()
        };
        b.batches.insert(2, 2);
        b.batches.insert(4, 1);
        b.worker_batches.insert(1, 3);
        b.tenants.insert(
            "t".into(),
            TenantStats {
                completed: 2,
                cancelled: 4,
                timed_out: 1,
                latency_us: 100,
                max_latency_us: 90,
                ..TenantStats::default()
            },
        );

        a.merge(&b);
        assert_eq!(a.submitted, 13);
        assert_eq!(a.completed, 5);
        assert_eq!(a.rejected, 1);
        assert_eq!(a.timed_out, 1);
        assert_eq!(a.cancelled, 4);
        assert_eq!(a.failed, 1);
        assert_eq!(a.shed, 1);
        assert_eq!(a.retries, 2);
        assert_eq!(a.worker_panics, 1);
        assert_eq!(a.respawns, 1);
        assert_eq!(a.breaker_opens, 1);
        assert_eq!(a.accounted(), 5 + 1 + 1 + 4 + 1 + 1);
        assert_eq!(a.accounted(), a.submitted);
        assert_eq!(a.max_concurrent_batches, 2);
        assert_eq!(a.batches[&2], 3);
        assert_eq!(a.batches[&4], 1);
        assert_eq!(a.executed_batches(), 4);
        assert_eq!(a.worker_batches[&0], 1);
        assert_eq!(a.worker_batches[&1], 3);
        let t = &a.tenants["t"];
        assert_eq!(t.completed, 5);
        assert_eq!(t.cancelled, 4);
        assert_eq!(t.latency_us, 400);
        assert_eq!(t.max_latency_us, 200);
    }
}
