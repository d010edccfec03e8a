//! `feather-serve`: a batched inference serving front-end over the FEATHER
//! functional simulator.
//!
//! The executor crates answer "how fast is one batch"; this crate answers
//! "what happens when many tenants submit single-sample requests
//! concurrently". It provides:
//!
//! - **Weighted-fair admission** — each tenant gets its own bounded queue
//!   ([`ServeConfig::queue_depth`]); submissions beyond a tenant's bound are
//!   rejected with [`ServeError::QueueFull`] without touching anyone else's
//!   capacity. Smooth weighted round-robin over the backlogged tenants
//!   picks the tenant each request of a batch is taken from
//!   ([`Server::set_tenant_weight`], default 1): tenants that stay
//!   backlogged are each served within one batch of their weighted share.
//!   The models (program, breaker, last batch size), queues, weights,
//!   overload state, request ids and every counter are one struct under one
//!   lock, and admission, forming and a batch's end are methods on it at a
//!   given `now`, tested on virtual time. A request's id is its admission
//!   sequence number.
//! - **Dynamic batching on an executor pool** — [`ServeConfig::workers`]
//!   executor workers take turns as leader: an idle worker takes the lead,
//!   coalesces concurrent same-model requests (up to
//!   [`ServeConfig::max_batch`]) into a batch, hands the lead on and replays
//!   the batch it formed, so different batches replay concurrently. Forming
//!   is work-conserving: an idle worker never waits out a fixed window — a
//!   batch is held only for the returns the model's last batch predicts,
//!   and never past one batch time after its lead request arrived. A batch
//!   is one replay of the model's program with one request per lane, each
//!   lane bit-identical to a solo run, so neither coalescing nor the worker
//!   that ran a request is observable in the results.
//! - **Cancellation** — dropping a [`Ticket`] (or calling
//!   [`Ticket::cancel`]) flags the request; batch forming prunes flagged
//!   or deadline-expired requests into
//!   [`ServeError::Cancelled`]/[`ServeError::Timeout`] before they ever
//!   run. Best effort: a launched batch completes.
//! - **One compiled program per model** — [`Server::register_model`]
//!   compiles the model's planned [`feather::GraphSession`] into a flat
//!   [`feather::Program`] (a model that does not compile is refused there,
//!   and so is a name already registered); every batch, whatever its size, lane-stripes that one resident
//!   [`feather::ProgramSession`] with zero planning, compiling or per-layer
//!   dispatch work, and each worker reuses one [`feather::ReplayScratch`] so
//!   steady-state replay allocates no buffer memory either.
//! - **Per-tenant accounting** — [`ServerStats`]/[`TenantStats`] aggregate
//!   latency plus the modeled cycles and DRAM bytes each request is charged:
//!   its program's exact [`cost`](feather::Program::cost) totals — a solo
//!   inference on FEATHER, whatever it was co-scheduled with. Every counter
//!   lives in the scheduler state, where a batch's end books its completions
//!   in the same lock section as its replay time, and [`Server::stats`]
//!   clones them; `max_concurrent_batches`, the high-water mark of launched
//!   batches not yet ended, is the observable proof of executor overlap.
//! - **Fault tolerance** — workers replay under `catch_unwind` and are
//!   respawned if a batch panics; failed batch members are retried with
//!   exponential backoff up to [`ServeConfig::max_retries`] (retry results
//!   stay bit-identical to first-attempt runs); a per-model circuit
//!   breaker fast-fails requests as [`ServeError::Unavailable`] while a
//!   model keeps failing (a request refused at admission never uses up its
//!   half-open probe); and overload brownout shrinks the
//!   effective batch bound and sheds infeasible-deadline requests as
//!   [`ServeError::Overloaded`]. A deterministic, seeded [`FaultPlan`]
//!   (env `FEATHER_FAULT_PLAN`) injects failures and panics at fixed
//!   sites so every one of these paths is testable on demand; with no
//!   plan the injection sites compile down to a null check.
//!
//! There is no async runtime in this workspace (the vendored shims are
//! trait-surface only), so the concurrency is hand-rolled std: worker
//! threads sharing a lead lock, and condvar-backed [`Ticket`]s that block
//! ([`Ticket::wait`]).
//!
//! # Example
//!
//! ```
//! use feather::FeatherConfig;
//! use feather_arch::graph::Graph;
//! use feather_arch::tensor::Tensor4;
//! use feather_arch::workload::ConvLayer;
//! use feather_serve::{ServeConfig, Server};
//!
//! let mut g = Graph::new("toy", [1, 2, 4, 4]);
//! g.conv(
//!     g.input(),
//!     ConvLayer::new(1, 2, 2, 4, 4, 3, 3).with_padding(1).with_name("only"),
//! )
//! .unwrap();
//! let weights = g.random_weights(1);
//!
//! let server = Server::new(ServeConfig::default());
//! server.register_model("toy", FeatherConfig::new(4, 8), &g, weights).unwrap();
//! let ticket = server
//!     .submit("tenant-a", "toy", Tensor4::random([1, 2, 4, 4], 2))
//!     .unwrap();
//! let response = ticket.wait().unwrap();
//! assert_eq!(response.oacts.shape(), [1, 2, 4, 4]);
//! ```

#![warn(missing_docs)]

mod breaker;
pub mod error;
pub mod fault;
pub mod server;
pub mod stats;
mod sync;
pub mod ticket;

pub use error::ServeError;
pub use fault::{FaultAction, FaultPlan, FaultSite};
pub use server::{Response, ServeConfig, Server};
pub use stats::{ServerStats, TenantStats};
pub use ticket::Ticket;
