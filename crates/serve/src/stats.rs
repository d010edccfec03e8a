//! Serving-side accounting: per-tenant aggregates in the style of the
//! executor's `GraphReport` totals (latency, modeled cycles, DRAM bytes)
//! plus the server-wide batch-size histogram the batching knobs are tuned
//! against.

use std::collections::BTreeMap;

use crate::error::ServeError;
use crate::server::Response;

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
}

/// A snapshot of the whole server's counters.
///
/// Every counter lives in the scheduler state under the queue lock, and a
/// batch books its end there in the same lock section that settles its
/// members; [`Server::stats`](crate::Server::stats) clones them.
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
    /// Worker panics, at pickup or in a replay (injected or real).
    pub worker_panics: u64,
    /// Replacement workers spawned after a panic took one down.
    pub respawns: u64,
    /// Times a per-model circuit breaker transitioned closed/half-open →
    /// open.
    pub breaker_opens: u64,
    /// High-water mark of launched batches not yet ended (a batch is
    /// launched when its leader forms it, and ends when its replay succeeds
    /// or fails). `>= 2` proves real overlap; always `<=` the configured
    /// worker count.
    pub max_concurrent_batches: u64,
}

impl ServerStats {
    /// Number of batches the executor pool replayed successfully: one
    /// `ProgramSession::run_batched_with_scratch` call each, whatever its
    /// size.
    pub fn executed_batches(&self) -> u64 {
        self.batches.values().sum()
    }

    /// Sum of all terminal outcomes — the right-hand side of the
    /// conservation invariant. At quiescence (no requests in flight) this
    /// equals [`ServerStats::submitted`].
    pub fn accounted(&self) -> u64 {
        self.completed + self.rejected + self.timed_out + self.cancelled + self.failed + self.shed
    }

    /// Books one submitted request's terminal outcome, globally and for
    /// `tenant`: the only writer of the six terminal counters and of a
    /// completed request's latency, cycles and DRAM bytes. Every submitted
    /// request ends in exactly one call, so `accounted()` meets `submitted`.
    pub(crate) fn settle(&mut self, tenant: &str, outcome: Result<&Response, &ServeError>) {
        let stats = self.tenants.entry(tenant.to_string()).or_default();
        let (total, own) = match outcome {
            Ok(response) => {
                stats.latency_us += response.latency_us;
                stats.max_latency_us = stats.max_latency_us.max(response.latency_us);
                stats.cycles += response.cycles;
                stats.dram_bytes += response.dram_bytes;
                (&mut self.completed, &mut stats.completed)
            }
            Err(ServeError::QueueFull { .. }) => (&mut self.rejected, &mut stats.rejected),
            Err(ServeError::Timeout) => (&mut self.timed_out, &mut stats.timed_out),
            Err(ServeError::Cancelled) => (&mut self.cancelled, &mut stats.cancelled),
            Err(ServeError::Failed(_) | ServeError::Exec(_)) => {
                (&mut self.failed, &mut stats.failed)
            }
            Err(ServeError::Unavailable { .. } | ServeError::Overloaded) => {
                (&mut self.shed, &mut stats.shed)
            }
            // Refused before admission: never submitted, so nothing to settle.
            Err(ServeError::Shutdown | ServeError::UnknownModel(_) | ServeError::BadInput(_)) => {
                return
            }
        };
        *total += 1;
        *own += 1;
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
    use feather_arch::tensor::Tensor4;
    use feather_arch::ArchError;

    #[test]
    fn settle_books_each_outcome_into_its_one_counter() {
        let response = Response {
            oacts: Tensor4::zeros([1, 1, 1, 1]),
            batch_size: 1,
            worker: 0,
            queue_us: 5,
            latency_us: 40,
            cycles: 7,
            dram_bytes: 9,
        };
        let mut stats = ServerStats::default();
        stats.settle("t", Ok(&response));
        let slower = Response {
            latency_us: 60,
            ..response.clone()
        };
        stats.settle("t", Ok(&slower));
        for error in [
            ServeError::QueueFull { depth: 1 },
            ServeError::Timeout,
            ServeError::Cancelled,
            ServeError::Failed("budget spent".into()),
            ServeError::Exec(ArchError::InvalidDataflow("no route".into())),
            ServeError::Unavailable { model: "m".into() },
            ServeError::Overloaded,
        ] {
            stats.settle("t", Err(&error));
        }
        // Refusals before admission are never submitted, so never settled.
        for error in [
            ServeError::Shutdown,
            ServeError::UnknownModel("m".into()),
            ServeError::BadInput("shape".into()),
        ] {
            stats.settle("t", Err(&error));
        }

        let t = &stats.tenants["t"];
        let global = (
            stats.completed,
            stats.rejected,
            stats.timed_out,
            stats.cancelled,
            stats.failed,
            stats.shed,
        );
        let own = (
            t.completed,
            t.rejected,
            t.timed_out,
            t.cancelled,
            t.failed,
            t.shed,
        );
        assert_eq!(global, (2, 1, 1, 1, 2, 2));
        assert_eq!(own, global);
        assert_eq!(stats.accounted(), 9);
        assert_eq!(t.latency_us, 100);
        assert_eq!(t.max_latency_us, 60);
        assert_eq!(t.cycles, 14);
        assert_eq!(t.dram_bytes, 18);
    }

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
}
