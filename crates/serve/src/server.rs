//! The serving core: weighted-fair admission and a pool of executor workers
//! that form their own batches.
//!
//! There is one kind of server thread: the **executor worker**
//! ([`ServeConfig::workers`] of them), scheduled leader/follower. An idle
//! worker takes the lead lock and forms the next batch: it runs a
//! deficit-round-robin pass over the backlogged tenants (each earns its
//! configured weight per batch formed, pays one unit per admitted request),
//! picks the richest tenant's oldest request to choose the model, and fills
//! the batch with same-model requests (up to [`ServeConfig::max_batch`],
//! across tenants in deficit order). It then releases the lead to the next
//! idle worker and replays the batch it formed, so different models, or
//! different batches of one model, can be in flight at once. Forming is
//! **work-conserving**: the batch launches at once unless fewer requests wait
//! than the model's last batch answered — then the leader holds for those
//! returns, never past one batch time after the lead request arrived (or the
//! [`ServeConfig::batch_window`] floor, zero by default). A batch is one
//! replay of the model's program, one request per lane, and each lane is
//! bit-identical to a solo run, so a tenant can observe neither coalescing
//! nor which worker ran its request.
//!
//! Admission is bounded **per tenant** ([`ServeConfig::queue_depth`]), so a
//! flooding tenant exhausts only its own quota. Requests leave the queue
//! early in two ways: a deadline expiring into [`ServeError::Timeout`], or
//! cancellation ([`crate::Ticket::cancel`], or simply dropping the ticket)
//! into [`ServeError::Cancelled`] — both are pruned while a batch is formed
//! or at the executor boundary, never run, and are counted in
//! [`ServerStats`].
//!
//! A model has **one** compiled program: [`Server::register_model`] compiles
//! the planned batch-1 [`GraphSession`] into a [`feather::Program`], and
//! every batch, of one request or of [`ServeConfig::max_batch`],
//! lane-stripes that same [`ProgramSession`] with zero planning, hashing,
//! compiling or per-layer dispatch work. A request is charged the
//! program's [`cost`](feather::Program::cost): a solo inference on FEATHER,
//! whatever it was co-scheduled with. Each worker additionally keeps one
//! [`ReplayScratch`] for everything it serves, so steady-state replay
//! allocates no buffer memory either.
//!
//! The server is **fault tolerant**. Replays run under `catch_unwind`: a
//! panicking worker resolves only its own batch (retrying members with
//! budget left, failing the rest as [`ServeError::Failed`]) and spawns its
//! own replacement. Failed batch members are re-enqueued at their tenant's
//! queue head with exponential backoff up to [`ServeConfig::max_retries`] —
//! replay determinism makes the retried response bit-identical. Each model
//! carries a [`CircuitBreaker`]: sustained consecutive failures open it and
//! requests fast-fail as [`ServeError::Unavailable`] until a half-open probe
//! succeeds. Under overload (queue occupancy or deadline-miss rate past
//! [`ServeConfig::brownout_pct`]) the leader halves the effective batch size
//! and admission sheds requests whose deadlines are already infeasible
//! ([`ServeError::Overloaded`]) instead of letting them time out in the
//! queue. All of it is exercised deterministically by the seeded
//! [`FaultPlan`] injection plane (`FEATHER_FAULT_PLAN`).

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use feather::{FeatherConfig, GraphSession, ProgramSession, ReplayScratch};
use feather_arch::graph::{Graph, NodeId};
use feather_arch::tensor::Tensor4;

use crate::breaker::CircuitBreaker;
use crate::error::ServeError;
use crate::fault::{FaultAction, FaultPlan, FaultSite};
use crate::stats::ServerStats;
use crate::sync::{lock_recover, read_recover, write_recover};
use crate::ticket::{Promise, Ticket};

/// Scheduling and admission knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Most requests coalesced into one executor run. `1` disables batching.
    pub max_batch: usize,
    /// Per-tenant admission bound: a tenant with this many queued requests
    /// gets further submissions rejected with [`ServeError::QueueFull`].
    /// Other tenants' queues are unaffected.
    pub queue_depth: usize,
    /// A floor on how long a non-full batch is held open for more
    /// same-model requests, counted from its lead request's arrival. Zero
    /// (the default) leaves the decision to the work-conserving rule:
    /// launch at once, unless fewer requests wait than the model's last
    /// batch answered — then hold for them, up to one batch time.
    pub batch_window: Duration,
    /// Deadline applied to every request without an explicit one: requests
    /// still queued past it are dropped with [`ServeError::Timeout`].
    /// `None` means requests wait indefinitely.
    pub default_deadline: Option<Duration>,
    /// Executor pool size: how many formed batches can execute
    /// concurrently. `1` reproduces the old single-scheduler behavior.
    pub workers: usize,
    /// How many times a failed request (transient executor error, injected
    /// fault, or worker panic) is re-enqueued before resolving as
    /// [`ServeError::Failed`]. Retried responses are bit-identical to what
    /// the first attempt would have returned. `0` disables retries.
    pub max_retries: u32,
    /// Backoff before a request's first retry; attempt `n` waits
    /// `retry_backoff * 2^(n-1)`.
    pub retry_backoff: Duration,
    /// Consecutive batch-execution failures that open a model's circuit
    /// breaker (requests then fast-fail as [`ServeError::Unavailable`]).
    /// `0` disables the breakers.
    pub breaker_threshold: u32,
    /// How long an open breaker rejects before admitting a half-open probe.
    pub breaker_cooldown: Duration,
    /// Overload threshold as a percentage of `queue_depth`: when any
    /// tenant's queue occupancy reaches it (or the deadline-miss rate
    /// sustains ≥ 1 per formed batch), the server enters brownout — the
    /// effective `max_batch` halves (smaller batches drain the head of the
    /// queue sooner) and admission sheds requests whose deadlines are
    /// already infeasible given the backlog ([`ServeError::Overloaded`]).
    /// `> 100` disables brownout.
    pub brownout_pct: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            queue_depth: 64,
            batch_window: Duration::ZERO,
            default_deadline: None,
            workers: 1,
            max_retries: 2,
            retry_backoff: Duration::from_micros(100),
            breaker_threshold: 8,
            breaker_cooldown: Duration::from_millis(250),
            brownout_pct: 90,
        }
    }
}

/// One resolved inference response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The model's INT32 output accumulators for this request's sample —
    /// bit-identical to a solo (batch-1) run of the same input.
    pub oacts: Tensor4<i32>,
    /// How many requests shared the executor run that produced this.
    pub batch_size: usize,
    /// Index of the pool worker that executed the batch.
    pub worker: usize,
    /// Time spent queued before the batch launched, in microseconds.
    pub queue_us: u64,
    /// End-to-end latency (submit → response), in microseconds.
    pub latency_us: u64,
    /// Modeled accelerator cycles charged to this request: the exact
    /// [`feather::Program::cost`] total of the model's program — what a solo
    /// inference costs, whatever the request was batched with.
    pub cycles: u64,
    /// Modeled DRAM bytes charged to this request, on the same terms.
    pub dram_bytes: u64,
}

/// A registered model: its weights plus its compiled program.
struct Model {
    weights: BTreeMap<NodeId, Tensor4<i8>>,
    input_shape: [usize; 4],
    /// The program the planned batch-1 session compiled at registration,
    /// which every batch replays.
    program: ProgramSession,
    /// Trips after [`ServeConfig::breaker_threshold`] consecutive failed
    /// batch executions; open, this model's submits fast-fail.
    breaker: CircuitBreaker,
    /// Size of this model's last resolved batch, stored by the worker before
    /// it answers the batch: how many returns the next leader expects when
    /// the model's clients run a closed loop (see [`Forming::hold`]).
    last_batch: AtomicUsize,
}

/// One queued request.
struct Request {
    /// Admission sequence number — orders requests within a formed batch.
    id: u64,
    tenant: String,
    model: String,
    iacts: Tensor4<i8>,
    enqueued: Instant,
    deadline: Option<Instant>,
    promise: Arc<Promise>,
    /// Failed executions so far; bounded by [`ServeConfig::max_retries`].
    attempts: u32,
    /// Retry backoff: the request stays queued until this instant passes.
    not_before: Option<Instant>,
}

impl Request {
    /// A request the scheduler must drop instead of running: its ticket was
    /// cancelled (or abandoned), or its deadline has passed.
    fn dead_at(&self, now: Instant) -> bool {
        self.promise.is_cancelled() || self.deadline.is_some_and(|d| d <= now)
    }

    /// Whether a batch may take this request at `now` (its retry backoff,
    /// if any, has elapsed).
    fn eligible_at(&self, now: Instant) -> bool {
        self.not_before.map_or(true, |t| t <= now)
    }
}

/// One tenant's pending requests plus its deficit-round-robin balance.
#[derive(Default)]
struct TenantQueue {
    requests: VecDeque<Request>,
    /// Deficit counter: earns the tenant's weight per batch formed while
    /// backlogged, pays one per request admitted into a batch. Forgiven
    /// (entry dropped) when the tenant's queue drains — idle tenants don't
    /// bank credit.
    deficit: i64,
}

/// The per-tenant admission queues plus the open/closed flag, under one lock.
struct QueueState {
    tenants: BTreeMap<String, TenantQueue>,
    open: bool,
}

impl QueueState {
    fn backlogged(&self) -> bool {
        self.tenants.values().any(|tq| !tq.requests.is_empty())
    }
}

/// A formed batch: same-model requests in admission order.
struct Batch {
    model: String,
    requests: Vec<Request>,
}

/// State shared between the front-end handles and the workers.
struct Inner {
    cfg: ServeConfig,
    models: RwLock<BTreeMap<String, Arc<Model>>>,
    queue: Mutex<QueueState>,
    /// Signaled on every admission, every re-enqueued retry and on
    /// shutdown; only the leader waits on it.
    arrived: Condvar,
    /// Per-tenant weights for the deficit round-robin (default 1).
    weights: RwLock<BTreeMap<String, u64>>,
    /// Held by the worker forming a batch (the leader); idle workers queue
    /// on it. Taken through `lock_recover`, so a panic while forming
    /// poisons nothing the next leader needs.
    lead: Mutex<()>,
    /// Admission-side counters: rejects plus timeouts and cancellations
    /// pruned before execution. Executor-side counters live in `worker_stats`.
    stats: Mutex<ServerStats>,
    /// One counter shard per executor worker — the hot path never contends
    /// on a global stats lock.
    worker_stats: Vec<Mutex<ServerStats>>,
    /// Batches currently inside a `ProgramSession` run, and the high-water
    /// mark thereof — the observable proof of executor overlap.
    executing: AtomicU64,
    max_executing: AtomicU64,
    next_id: AtomicU64,
    /// The seeded fault-injection plan, if any. `None` (the production
    /// default) keeps the hot path to a single null check per site.
    fault: Option<FaultPlan>,
    /// Whether the last batch was formed in overload brownout.
    brownout: AtomicBool,
    /// The batch size the last leader formed to: `max_batch` normally,
    /// halved under brownout. Read by admission for its shed estimate.
    effective_max_batch: AtomicU64,
    /// EWMA of batch replay time in microseconds (admission's service-rate
    /// estimate for the brownout infeasibility check, and the hold's one
    /// batch time).
    batch_ewma_us: AtomicU64,
    /// EWMA of queue timeouts per formed batch, in 1/256ths (the
    /// deadline-miss-rate brownout trigger).
    miss_ewma: AtomicU64,
    /// Join handles of every worker thread, replacements included; drained
    /// by [`Server::shutdown`].
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// The inference server. See the [module docs](self) for the scheduling
/// model; see [`ServeConfig`] for the knobs.
///
/// Dropping the server shuts it down gracefully: admission closes, the
/// workers drain every queued request, then all threads join.
pub struct Server {
    inner: Arc<Inner>,
}

impl Server {
    /// Starts a server and its executor pool.
    /// Models bring their own accelerator configuration at
    /// [`Server::register_model`] time. Reads `FEATHER_FAULT_PLAN` for a
    /// fault-injection plan (none in production).
    pub fn new(cfg: ServeConfig) -> Self {
        Server::with_fault_plan(cfg, FaultPlan::from_env())
    }

    /// [`Server::new`] with an explicit [`FaultPlan`] instead of the
    /// environment's — how tests inject faults without mutating the
    /// process-global environment.
    pub fn with_fault_plan(cfg: ServeConfig, fault: Option<FaultPlan>) -> Self {
        let cfg = ServeConfig {
            max_batch: cfg.max_batch.max(1),
            queue_depth: cfg.queue_depth.max(1),
            workers: cfg.workers.max(1),
            ..cfg
        };
        let inner = Arc::new(Inner {
            cfg,
            models: RwLock::new(BTreeMap::new()),
            queue: Mutex::new(QueueState {
                tenants: BTreeMap::new(),
                open: true,
            }),
            arrived: Condvar::new(),
            weights: RwLock::new(BTreeMap::new()),
            lead: Mutex::new(()),
            stats: Mutex::new(ServerStats::default()),
            worker_stats: (0..cfg.workers)
                .map(|_| Mutex::new(ServerStats::default()))
                .collect(),
            executing: AtomicU64::new(0),
            max_executing: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            fault,
            brownout: AtomicBool::new(false),
            effective_max_batch: AtomicU64::new(cfg.max_batch as u64),
            batch_ewma_us: AtomicU64::new(0),
            miss_ewma: AtomicU64::new(0),
            workers: Mutex::new(Vec::new()),
        });
        for worker in 0..cfg.workers {
            spawn_worker(&inner, worker);
        }
        Server { inner }
    }

    /// Registers a model under `name`: plans a batch-1 [`GraphSession`] for
    /// `graph` on `accelerator`, compiles it to the one program every batch
    /// replays and keeps `weights` resident. The graph must be authored at
    /// batch 1 (requests are single-sample; the scheduler batches them).
    ///
    /// # Errors
    /// [`ServeError::BadInput`] if the graph's batch extent is not 1, or a
    /// wrapped [`ServeError::Exec`] if the graph does not compile.
    pub fn register_model(
        &self,
        name: impl Into<String>,
        accelerator: FeatherConfig,
        graph: &Graph,
        weights: BTreeMap<NodeId, Tensor4<i8>>,
    ) -> Result<(), ServeError> {
        let name = name.into();
        let input_shape = graph.tensor_shape(graph.input());
        if input_shape[0] != 1 {
            return Err(ServeError::BadInput(format!(
                "model `{name}` is authored at batch {} — register batch-1 graphs and let \
                 the scheduler coalesce requests",
                input_shape[0]
            )));
        }
        let program = ProgramSession::new(GraphSession::auto(accelerator, graph)?.compile()?);
        let model = Arc::new(Model {
            weights,
            input_shape,
            program,
            breaker: CircuitBreaker::new(
                self.inner.cfg.breaker_threshold,
                self.inner.cfg.breaker_cooldown,
            ),
            last_batch: AtomicUsize::new(0),
        });
        write_recover(&self.inner.models).insert(name, model);
        Ok(())
    }

    /// Sets `tenant`'s weight for the deficit-round-robin admission pass
    /// (clamped to at least 1; every tenant defaults to 1). A tenant with
    /// weight `w` earns `w` credits per batch formed while backlogged and
    /// pays one per admitted request, so sustained-contention batch shares
    /// are proportional to weights.
    pub fn set_tenant_weight(&self, tenant: impl Into<String>, weight: u64) {
        write_recover(&self.inner.weights).insert(tenant.into(), weight.max(1));
    }

    /// Submits a single-sample request for `model` on behalf of `tenant`,
    /// using the configured default deadline. Returns a [`Ticket`] to wait
    /// on (or `await`); dropping the ticket cancels the request.
    ///
    /// # Errors
    /// [`ServeError::UnknownModel`], [`ServeError::BadInput`] on a shape
    /// mismatch, [`ServeError::QueueFull`] when the tenant's queue is at
    /// capacity, or [`ServeError::Shutdown`].
    pub fn submit(
        &self,
        tenant: &str,
        model: &str,
        iacts: Tensor4<i8>,
    ) -> Result<Ticket, ServeError> {
        self.submit_with_deadline(tenant, model, iacts, self.inner.cfg.default_deadline)
    }

    /// [`Server::submit`] with an explicit per-request deadline (`None`
    /// waits indefinitely).
    ///
    /// # Errors
    /// Same as [`Server::submit`], plus [`ServeError::Unavailable`] when the
    /// model's circuit breaker is open and [`ServeError::Overloaded`] when
    /// brownout sheds an infeasible deadline at admission.
    pub fn submit_with_deadline(
        &self,
        tenant: &str,
        model: &str,
        iacts: Tensor4<i8>,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        let registered = read_recover(&self.inner.models)
            .get(model)
            .cloned()
            .ok_or_else(|| ServeError::UnknownModel(model.to_string()))?;
        if iacts.shape() != registered.input_shape {
            return Err(ServeError::BadInput(format!(
                "model `{model}` expects input {:?}, got {:?}",
                registered.input_shape,
                iacts.shape()
            )));
        }

        let enqueued = Instant::now();
        if !registered.breaker.admit(enqueued) {
            let mut stats = lock_recover(&self.inner.stats);
            stats.submitted += 1;
            stats.shed += 1;
            stats.tenants.entry(tenant.to_string()).or_default().shed += 1;
            return Err(ServeError::Unavailable {
                model: model.to_string(),
            });
        }
        let promise = Promise::new();
        let ticket = Ticket::new(
            promise.clone(),
            self.inner.next_id.fetch_add(1, Ordering::Relaxed),
        );
        {
            let mut queue = lock_recover(&self.inner.queue);
            if !queue.open {
                return Err(ServeError::Shutdown);
            }
            lock_recover(&self.inner.stats).submitted += 1;
            // Brownout shedding: with the server in overload, a request
            // whose deadline cannot outlast the backlog ahead of it would
            // only time out in the queue — resolve that at admission, where
            // the client can still react.
            if self.inner.brownout.load(Ordering::Relaxed) {
                if let Some(d) = deadline {
                    let queued: usize = queue.tenants.values().map(|tq| tq.requests.len()).sum();
                    let eff = self
                        .inner
                        .effective_max_batch
                        .load(Ordering::Relaxed)
                        .max(1);
                    let ewma = self.inner.batch_ewma_us.load(Ordering::Relaxed);
                    let wait_us = (queued as u64 / eff + 1).saturating_mul(ewma);
                    if d < Duration::from_micros(wait_us) {
                        let mut stats = lock_recover(&self.inner.stats);
                        stats.shed += 1;
                        stats.tenants.entry(tenant.to_string()).or_default().shed += 1;
                        return Err(ServeError::Overloaded);
                    }
                }
            }
            let tq = queue.tenants.entry(tenant.to_string()).or_default();
            if tq.requests.len() >= self.inner.cfg.queue_depth {
                // Cancelled or expired requests still parked in the queue
                // should not hold capacity against live ones: prune, then
                // re-check before bouncing.
                let dead = take_dead(tq, enqueued);
                resolve_dead(&self.inner, dead);
                let tq = queue
                    .tenants
                    .get_mut(tenant)
                    .expect("tenant entry just touched");
                if tq.requests.len() >= self.inner.cfg.queue_depth {
                    let mut stats = lock_recover(&self.inner.stats);
                    stats.rejected += 1;
                    stats
                        .tenants
                        .entry(tenant.to_string())
                        .or_default()
                        .rejected += 1;
                    return Err(ServeError::QueueFull {
                        depth: self.inner.cfg.queue_depth,
                    });
                }
            }
            let tq = queue
                .tenants
                .get_mut(tenant)
                .expect("tenant entry just touched");
            tq.requests.push_back(Request {
                id: ticket.id(),
                tenant: tenant.to_string(),
                model: model.to_string(),
                iacts,
                enqueued,
                deadline: deadline.map(|d| enqueued + d),
                promise,
                attempts: 0,
                not_before: None,
            });
        }
        self.inner.arrived.notify_all();
        Ok(ticket)
    }

    /// A snapshot of the server's counters: the admission-side shard merged
    /// with every executor worker's shard, plus the concurrency watermark.
    pub fn stats(&self) -> ServerStats {
        let mut stats = lock_recover(&self.inner.stats).clone();
        for shard in &self.inner.worker_stats {
            stats.merge(&lock_recover(shard));
        }
        stats.max_concurrent_batches = stats
            .max_concurrent_batches
            .max(self.inner.max_executing.load(Ordering::Acquire));
        stats
    }

    /// Whether `model`'s circuit breaker is currently rejecting traffic.
    /// `None` for unregistered models.
    pub fn breaker_open(&self, model: &str) -> Option<bool> {
        read_recover(&self.inner.models)
            .get(model)
            .map(|m| m.breaker.is_open())
    }

    /// The scheduling configuration the server runs with.
    pub fn config(&self) -> ServeConfig {
        self.inner.cfg
    }

    /// Closes admission, lets the executor pool drain every queued request,
    /// and joins it. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        lock_recover(&self.inner.queue).open = false;
        self.inner.arrived.notify_all();
        // Each worker exits once it leads over a closed, empty queue. A
        // dying worker registers its replacement before it exits, so
        // draining until empty joins replacements of replacements too.
        loop {
            let workers: Vec<JoinHandle<()>> =
                lock_recover(&self.inner.workers).drain(..).collect();
            if workers.is_empty() {
                break;
            }
            for handle in workers {
                // A worker that died to an injected panic was replaced; its
                // own join result is the panic payload, not an error.
                let _ = handle.join();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How long the leader sleeps between checks while nothing is schedulable —
/// a backstop for missed wakeups and running-out retry backoffs, not the
/// signaling path.
const IDLE_POLL: Duration = Duration::from_millis(5);

/// Removes `tq`'s cancelled/expired requests (front to back, preserving the
/// order of survivors) and returns them for resolution.
fn take_dead(tq: &mut TenantQueue, now: Instant) -> Vec<Request> {
    let mut dead = Vec::new();
    let mut kept = VecDeque::with_capacity(tq.requests.len());
    while let Some(request) = tq.requests.pop_front() {
        if request.dead_at(now) {
            dead.push(request);
        } else {
            kept.push_back(request);
        }
    }
    tq.requests = kept;
    dead
}

/// Fulfils pruned requests and books them into the admission-side stats:
/// cancellation wins over expiry when both apply. Returns how many resolved
/// as timeouts (the deadline-miss-rate signal).
fn resolve_dead(inner: &Inner, dead: Vec<Request>) -> usize {
    if dead.is_empty() {
        return 0;
    }
    let mut timeouts = 0;
    let mut stats = lock_recover(&inner.stats);
    for request in dead {
        let tenant = stats.tenants.entry(request.tenant.clone()).or_default();
        if request.promise.is_cancelled() {
            tenant.cancelled += 1;
            stats.cancelled += 1;
            request.promise.fulfill(Err(ServeError::Cancelled));
        } else {
            tenant.timed_out += 1;
            stats.timed_out += 1;
            timeouts += 1;
            request.promise.fulfill(Err(ServeError::Timeout));
        }
    }
    timeouts
}

/// Prunes every tenant's dead requests under the queue lock; returns the
/// number resolved as timeouts.
fn prune_queues(inner: &Inner, queue: &mut QueueState) -> usize {
    let now = Instant::now();
    let mut dead = Vec::new();
    for tq in queue.tenants.values_mut() {
        dead.extend(take_dead(tq, now));
    }
    resolve_dead(inner, dead)
}

/// One injection decision at `site`; `None` whenever no plan is loaded.
fn roll_fault(inner: &Inner, site: FaultSite) -> Option<FaultAction> {
    inner.fault.as_ref()?.roll(site)
}

/// Spawns executor `worker` and registers its handle for shutdown to join.
fn spawn_worker(inner: &Arc<Inner>, worker: usize) {
    let cloned = inner.clone();
    let handle = std::thread::Builder::new()
        .name(format!("feather-serve-worker-{worker}"))
        .spawn(move || run_worker(&cloned, worker))
        .expect("worker thread spawns");
    lock_recover(&inner.workers).push(handle);
}

/// Spawns a replacement for dead `worker` (same index, so it inherits the
/// stats shard). The dying worker calls it itself, after it re-enqueued
/// its batch's retries: the replacement drains them, even after admission
/// closed.
fn spawn_replacement(inner: &Arc<Inner>, worker: usize) {
    lock_recover(&inner.stats).respawns += 1;
    spawn_worker(inner, worker);
}

/// Guards an executor worker's thread: dropped during an unwinding panic
/// (an injected pickup panic, or any unexpected one), it spawns the
/// worker's replacement. Disarmed on clean exit.
struct WorkerSentinel {
    inner: Arc<Inner>,
    worker: usize,
    armed: bool,
}

impl Drop for WorkerSentinel {
    fn drop(&mut self) {
        if self.armed && std::thread::panicking() {
            spawn_replacement(&self.inner, self.worker);
        }
    }
}

/// Resolves the members of a failed batch execution: cancelled/expired
/// members resolve as usual, members with retry budget left are re-enqueued
/// at their tenant's queue head with exponential backoff, the rest fail as
/// [`ServeError::Failed`]. Only a worker calls this, and it (or its
/// replacement) forms again afterwards, so a re-enqueued retry is always
/// drained — shutdown included.
fn retry_or_fail(inner: &Inner, worker: usize, requests: Vec<Request>, reason: &str) {
    if requests.is_empty() {
        return;
    }
    let now = Instant::now();
    let mut requeue = Vec::new();
    let fail = |stats: &mut ServerStats, request: Request| {
        if request.promise.is_cancelled() {
            stats.cancelled += 1;
            stats
                .tenants
                .entry(request.tenant.clone())
                .or_default()
                .cancelled += 1;
            request.promise.fulfill(Err(ServeError::Cancelled));
        } else if request.deadline.is_some_and(|d| d <= now) {
            stats.timed_out += 1;
            stats
                .tenants
                .entry(request.tenant.clone())
                .or_default()
                .timed_out += 1;
            request.promise.fulfill(Err(ServeError::Timeout));
        } else {
            stats.failed += 1;
            stats
                .tenants
                .entry(request.tenant.clone())
                .or_default()
                .failed += 1;
            request.promise.fulfill(Err(ServeError::Failed(format!(
                "{reason} (attempt {} of {})",
                request.attempts + 1,
                inner.cfg.max_retries + 1
            ))));
        }
    };
    {
        let mut stats = lock_recover(&inner.worker_stats[worker]);
        for mut request in requests {
            if !request.dead_at(now) && request.attempts < inner.cfg.max_retries {
                request.attempts += 1;
                // Exponential backoff: attempt n waits backoff * 2^(n-1).
                let exp = (request.attempts - 1).min(16);
                request.not_before = Some(now + inner.cfg.retry_backoff * (1u32 << exp));
                stats.retries += 1;
                requeue.push(request);
            } else {
                fail(&mut stats, request);
            }
        }
    }
    if requeue.is_empty() {
        return;
    }
    {
        let mut queue = lock_recover(&inner.queue);
        // Queue-head re-enqueue: retries go back out ahead of newer
        // arrivals from the same tenant.
        for request in requeue {
            queue
                .tenants
                .entry(request.tenant.clone())
                .or_default()
                .requests
                .push_front(request);
        }
    }
    inner.arrived.notify_all();
}

/// The tenant with the largest deficit among those `eligible` selects; ties
/// break toward the lexicographically first name, so selection is
/// deterministic.
fn richest_tenant<F>(queue: &QueueState, eligible: F) -> Option<String>
where
    F: Fn(&TenantQueue) -> bool,
{
    queue
        .tenants
        .iter()
        .filter(|(_, tq)| eligible(tq))
        .max_by(|(a_name, a), (b_name, b)| a.deficit.cmp(&b.deficit).then(b_name.cmp(a_name)))
        .map(|(name, _)| name.clone())
}

/// What the leader does next with the batch it is forming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hold {
    /// Run the batch now.
    Launch,
    /// Keep it open for same-model arrivals until this instant.
    Until(Instant),
}

/// A batch being formed: when its lead request became schedulable, the
/// configured floor, and the (brownout-adjusted) size that launches it at
/// once.
struct Forming {
    start: Instant,
    floor: Duration,
    max_batch: usize,
}

impl Forming {
    /// The work-conserving hold rule, a pure function of the leader's view
    /// at `now` — it reads no clock, takes no lock and spawns no thread. The
    /// leader is an idle worker, so there is no busy executor to wait for:
    ///
    /// 1. `max_batch` requests wait → launch;
    /// 2. the floor has not elapsed since `start` → hold until it does;
    /// 3. fewer requests wait than `expected` (the model's last batch size:
    ///    in a closed loop, the returns that batch's answers will send) →
    ///    hold for them, but never past one `batch_time` after `start`. A
    ///    `batch_time` of zero (no batch has run) holds nothing;
    /// 4. otherwise → launch.
    ///
    /// `start` is the lead request's arrival (or the end of its retry
    /// backoff), not the moment a worker came free: a lead that waited out
    /// a busy pool has already waited, and counting its hold from the
    /// pickup would stack one more batch time on that wait.
    fn hold(&self, now: Instant, waiting: usize, expected: usize, batch_time: Duration) -> Hold {
        if waiting >= self.max_batch {
            return Hold::Launch;
        }
        let floor_end = self.start + self.floor;
        if now < floor_end {
            return Hold::Until(floor_end);
        }
        let returns_end = self.start + batch_time;
        if waiting < expected && now < returns_end {
            Hold::Until(returns_end)
        } else {
            Hold::Launch
        }
    }
}

/// Forms the next batch; the caller is an idle worker holding the lead
/// lock. Blocks until a batch is formed, or returns `None` once admission
/// is closed *and* the queues are empty (shutdown still serves everything
/// already admitted). One deficit-round-robin pass picks the leading tenant
/// (whose oldest request chooses the model); [`Forming::hold`] then decides
/// how long the batch stays open for same-model arrivals, and extraction
/// fills it across tenants in deficit order. Dead requests are pruned (and
/// resolved) along the way, so an empty batch is possible when every
/// candidate was cancelled or expired.
///
/// Forming only when an executor is free is what keeps batches full under
/// load: requests accumulate in the admission queues while every worker
/// runs, so each batch is formed from the fullest backlog, with fairness
/// and cancellation decided as late as possible. Forming eagerly ahead of
/// execution locked undersized batches in (measured: mean batch 3.9
/// instead of 8 on the closed-loop sweep, a 27% throughput loss).
fn form_batch(inner: &Arc<Inner>) -> Option<Batch> {
    let mut timeouts = 0usize;
    let mut queue = lock_recover(&inner.queue);
    // Wait for schedulable work: a request whose retry backoff (if any) has
    // elapsed. Ineligible retries still count as backlog — shutdown must
    // not abandon them — but only an eligible request starts a batch.
    loop {
        timeouts += prune_queues(inner, &mut queue);
        let now = Instant::now();
        if queue
            .tenants
            .values()
            .any(|tq| tq.requests.iter().any(|r| r.eligible_at(now)))
        {
            break;
        }
        if !queue.open && !queue.backlogged() {
            record_miss_ewma(inner, timeouts);
            return None;
        }
        let (guard, _) = inner
            .arrived
            .wait_timeout(queue, IDLE_POLL)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        queue = guard;
    }

    // Brownout decision, taken once per batch from the freshest backlog
    // view: occupancy of the fullest tenant queue (admission bounds are
    // per-tenant) or a sustained deadline-miss rate trips it; either way
    // the effective batch halves so the queue head drains sooner.
    let occupancy_pct = queue
        .tenants
        .values()
        .map(|tq| tq.requests.len() * 100 / inner.cfg.queue_depth.max(1))
        .max()
        .unwrap_or(0);
    let miss_rate = inner.miss_ewma.load(Ordering::Relaxed);
    let brownout = occupancy_pct >= inner.cfg.brownout_pct || miss_rate >= 256;
    inner.brownout.store(brownout, Ordering::Relaxed);
    let max_batch = if brownout {
        (inner.cfg.max_batch / 2).max(1)
    } else {
        inner.cfg.max_batch
    };
    inner
        .effective_max_batch
        .store(max_batch as u64, Ordering::Relaxed);

    // The DRR round: every backlogged tenant earns its weight; the richest
    // (among those with an eligible request) leads, and its oldest eligible
    // request picks the model this batch serves.
    {
        let weights = read_recover(&inner.weights);
        for (name, tq) in queue.tenants.iter_mut() {
            if !tq.requests.is_empty() {
                tq.deficit += *weights.get(name).unwrap_or(&1) as i64;
            }
        }
    }
    let now = Instant::now();
    let lead = richest_tenant(&queue, |tq| tq.requests.iter().any(|r| r.eligible_at(now)))
        .expect("an eligible request broke the wait");
    let lead = queue.tenants[&lead]
        .requests
        .iter()
        .find(|r| r.eligible_at(now))
        .expect("lead tenant had an eligible request");
    let (model, start) = (lead.model.clone(), lead.not_before.unwrap_or(lead.enqueued));

    // Hold the batch open only as long as `Forming::hold` says (shutdown
    // launches immediately — latency no longer matters, drain fast): at once
    // unless the model's last batch predicts more returns than wait.
    // Measured on closed-loop Model A (req/s, medians of ten 5 s rounds, a
    // fixed 500 µs window → this rule): 1 client 1049 → 3722, 2: 1246 →
    // 1865, 4: 2148 → 3313, 8: 6177 → 6231 at mean batch 8.0 on both — a
    // plain zero window breaks that loop up (mean batch 6.0, 4288 req/s),
    // which is what the expectation hold is for.
    let forming = Forming {
        start,
        floor: inner.cfg.batch_window,
        max_batch,
    };
    let served = read_recover(&inner.models)
        .get(&model)
        .cloned()
        .expect("submit validated the model; models are never unregistered");
    while queue.open {
        timeouts += prune_queues(inner, &mut queue);
        let now = Instant::now();
        let waiting: usize = queue
            .tenants
            .values()
            .map(|tq| {
                tq.requests
                    .iter()
                    .filter(|r| r.model == model && r.eligible_at(now))
                    .count()
            })
            .sum();
        let hold = forming.hold(
            now,
            waiting,
            served.last_batch.load(Ordering::Relaxed),
            Duration::from_micros(inner.batch_ewma_us.load(Ordering::Relaxed)),
        );
        let Hold::Until(end) = hold else { break };
        let (guard, _) = inner
            .arrived
            .wait_timeout(queue, end - now)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        queue = guard;
    }
    timeouts += prune_queues(inner, &mut queue);

    // Extraction: repeatedly take the oldest eligible same-model request of
    // the richest tenant still holding one; each admitted request pays one
    // credit. Other models' requests keep their queue positions.
    let now = Instant::now();
    let candidate = |r: &Request| r.model == model && r.eligible_at(now);
    let mut batch = Vec::new();
    while batch.len() < max_batch {
        let Some(tenant) = richest_tenant(&queue, |tq| tq.requests.iter().any(&candidate)) else {
            break;
        };
        let tq = queue.tenants.get_mut(&tenant).expect("tenant selected");
        let pos = tq
            .requests
            .iter()
            .position(&candidate)
            .expect("tenant had a candidate");
        let request = tq.requests.remove(pos).expect("position in bounds");
        tq.deficit -= 1;
        batch.push(request);
    }

    // Drained tenants leave the round: credit (or debt) does not bank
    // across idle periods. Debt is floored at one batch's worth — a tenant
    // that served alone (paying more than it earned, with nobody competing)
    // must not carry that artificial debt into a later contended phase.
    queue.tenants.retain(|_, tq| !tq.requests.is_empty());
    let debt_floor = -(inner.cfg.max_batch as i64);
    for tq in queue.tenants.values_mut() {
        tq.deficit = tq.deficit.max(debt_floor);
    }

    // Admission order within the batch, so coalescing stays deterministic.
    batch.sort_by_key(|r| r.id);
    record_miss_ewma(inner, timeouts);
    Some(Batch {
        model,
        requests: batch,
    })
}

/// Folds one formed batch's queue-timeout count into the deadline-miss
/// EWMA (fixed-point 1/256ths, quarter-weight): sustained ≥ 1 miss per
/// batch converges to ≥ 256 and trips brownout.
fn record_miss_ewma(inner: &Inner, timeouts: usize) {
    let old = inner.miss_ewma.load(Ordering::Relaxed);
    let sample = (timeouts as u64).saturating_mul(256);
    inner
        .miss_ewma
        .store(old - old / 4 + sample / 4, Ordering::Relaxed);
}

/// One executor worker, leader/follower: take the lead lock, form a batch,
/// hand the lead on, replay the batch — until admission is closed and the
/// queues run dry. The worker keeps one [`ReplayScratch`] — it serves any
/// program at one lane or eight — so its steady state allocates no buffer
/// memory.
fn run_worker(inner: &Arc<Inner>, worker: usize) {
    let mut sentinel = WorkerSentinel {
        inner: inner.clone(),
        worker,
        armed: true,
    };
    let mut scratch = ReplayScratch::new();
    loop {
        let formed = {
            let _lead = lock_recover(&inner.lead);
            form_batch(inner)
        };
        let Some(batch) = formed else {
            sentinel.armed = false;
            return;
        };
        if batch.requests.is_empty() {
            continue;
        }
        // Injected pickup faults. Both resolve the batch's members first
        // (retry or fail — never strand a ticket); the panic then unwinds
        // the worker thread and the sentinel spawns its replacement.
        if let Some(action) = roll_fault(inner, FaultSite::WorkerPickup) {
            let panics = action == FaultAction::Panic;
            if panics {
                lock_recover(&inner.worker_stats[worker]).worker_panics += 1;
            }
            retry_or_fail(
                inner,
                worker,
                batch.requests,
                "injected: worker pickup fault",
            );
            if panics {
                panic!("injected fault: worker pickup");
            }
            continue;
        }
        match execute_batch(inner, worker, batch, &mut scratch) {
            BatchOutcome::Done => {}
            BatchOutcome::WorkerDied => {
                // The replay panicked (caught, batch resolved). Retire this
                // worker thread — its scratch state dies with it — and
                // spawn a replacement.
                sentinel.armed = false;
                spawn_replacement(inner, worker);
                return;
            }
        }
    }
}

/// How [`execute_batch`] ended: normally, or with a caught replay panic
/// that retires the worker thread.
enum BatchOutcome {
    Done,
    WorkerDied,
}

/// Runs one formed batch on `worker` and resolves every member's promise.
/// Requests cancelled or expired since formation are resolved here without
/// executing — the final gate that keeps dead requests out of the
/// accelerator. The replay itself runs under `catch_unwind`: a panic
/// resolves only this batch (retry or fail per member), feeds the model's
/// breaker, and retires the worker for respawn.
fn execute_batch(
    inner: &Arc<Inner>,
    worker: usize,
    batch: Batch,
    scratch: &mut ReplayScratch,
) -> BatchOutcome {
    let launched = Instant::now();
    let (dead, live): (Vec<Request>, Vec<Request>) = batch
        .requests
        .into_iter()
        .partition(|request| request.dead_at(launched));
    resolve_dead(inner, dead);
    if live.is_empty() {
        return BatchOutcome::Done;
    }

    let size = live.len();
    let model = read_recover(&inner.models)
        .get(&batch.model)
        .cloned()
        .expect("submit validated the model; models are never unregistered");

    // One failed execution = one breaker strike for the model, whatever
    // the members' retry budgets decide individually.
    let strike = |reason: &str, live: Vec<Request>| {
        if model.breaker.record_failure(Instant::now()) {
            lock_recover(&inner.worker_stats[worker]).breaker_opens += 1;
        }
        retry_or_fail(inner, worker, live, reason);
    };

    let executing = inner.executing.fetch_add(1, Ordering::SeqCst) + 1;
    inner.max_executing.fetch_max(executing, Ordering::SeqCst);
    let replay_start = Instant::now();
    // One replay of the model's program, request `i` riding lane `i`, under
    // a supervision boundary: an injected (or real) panic inside the replay
    // must fail only this batch, not the server.
    let runs = catch_unwind(AssertUnwindSafe(|| {
        if let Some(action) = roll_fault(inner, FaultSite::ReplayEntry) {
            match action {
                FaultAction::Panic => panic!("injected fault: replay entry"),
                FaultAction::Fail => {
                    return Err(ServeError::Failed("injected: replay failure".into()))
                }
            }
        }
        let inputs: Vec<Tensor4<i8>> = live.iter().map(|r| r.iacts.clone()).collect();
        model
            .program
            .run_batched_with_scratch(scratch, &inputs, &model.weights)
            .map_err(ServeError::Exec)
    }));
    inner.executing.fetch_sub(1, Ordering::SeqCst);
    // Feed the service-rate estimate (quarter-weight EWMA).
    let elapsed_us = replay_start.elapsed().as_micros() as u64;
    let old = inner.batch_ewma_us.load(Ordering::Relaxed);
    let ewma = if old == 0 {
        elapsed_us
    } else {
        old - old / 4 + elapsed_us / 4
    };
    inner.batch_ewma_us.store(ewma, Ordering::Relaxed);

    let runs = match runs {
        Ok(Ok(runs)) => runs,
        Ok(Err(err)) => {
            strike(&err.to_string(), live);
            return BatchOutcome::Done;
        }
        Err(_panic) => {
            lock_recover(&inner.worker_stats[worker]).worker_panics += 1;
            strike("replay panicked", live);
            return BatchOutcome::WorkerDied;
        }
    };
    model.breaker.record_success();
    // Before any member is answered: their returns find it already set.
    model.last_batch.store(size, Ordering::Relaxed);

    // Every member is charged the program's constant: a solo inference.
    let cost = model.program.program().cost();
    let (cycles, dram_bytes) = (cost.total_cycles(), cost.dram_bytes());
    let mut stats = lock_recover(&inner.worker_stats[worker]);
    *stats.batches.entry(size).or_insert(0) += 1;
    *stats.worker_batches.entry(worker).or_insert(0) += 1;
    for (request, run) in live.into_iter().zip(runs) {
        let latency_us = request.enqueued.elapsed().as_micros() as u64;
        let response = Response {
            oacts: run.oacts,
            batch_size: size,
            worker,
            queue_us: launched.duration_since(request.enqueued).as_micros() as u64,
            latency_us,
            cycles,
            dram_bytes,
        };
        let tenant = stats.tenants.entry(request.tenant.clone()).or_default();
        tenant.completed += 1;
        tenant.latency_us += latency_us;
        tenant.max_latency_us = tenant.max_latency_us.max(latency_us);
        tenant.cycles += response.cycles;
        tenant.dram_bytes += response.dram_bytes;
        stats.completed += 1;
        request.promise.fulfill(Ok(response));
    }
    BatchOutcome::Done
}

#[cfg(test)]
mod tests {
    use super::*;
    use feather_arch::workload::ConvLayer;

    /// conv → conv, authored at batch 1 on a 4×8 fabric.
    fn tiny_graph(name: &str) -> Graph {
        let mut g = Graph::new(name, [1, 2, 4, 4]);
        let stem = g
            .conv(
                g.input(),
                ConvLayer::new(1, 4, 2, 4, 4, 3, 3)
                    .with_padding(1)
                    .with_name("stem"),
            )
            .unwrap();
        g.conv(stem, ConvLayer::new(1, 2, 4, 4, 4, 1, 1).with_name("head"))
            .unwrap();
        g
    }

    fn config() -> FeatherConfig {
        FeatherConfig::new(4, 8)
    }

    #[test]
    fn batched_responses_are_bit_identical_to_solo_runs() {
        let g = tiny_graph("m");
        let weights = g.random_weights(3);
        let solo = GraphSession::auto(config(), &g).unwrap();
        let inputs: Vec<Tensor4<i8>> = (0..4)
            .map(|i| Tensor4::random([1, 2, 4, 4], 40 + i))
            .collect();
        let goldens: Vec<Tensor4<i32>> = inputs
            .iter()
            .map(|iacts| solo.run(iacts, &weights).unwrap().oacts)
            .collect();

        let server = Server::new(ServeConfig {
            max_batch: 4,
            batch_window: Duration::from_secs(2),
            ..ServeConfig::default()
        });
        server.register_model("m", config(), &g, weights).unwrap();
        // All four land inside the window, so the leader coalesces them
        // into one batch-4 run the moment the fourth arrives.
        let tickets: Vec<Ticket> = inputs
            .iter()
            .enumerate()
            .map(|(i, iacts)| {
                server
                    .submit(if i % 2 == 0 { "alice" } else { "bob" }, "m", iacts.clone())
                    .unwrap()
            })
            .collect();
        for (ticket, golden) in tickets.into_iter().zip(&goldens) {
            let response = ticket.wait().unwrap();
            assert_eq!(&response.oacts, golden);
            assert_eq!(response.batch_size, 4);
        }
        let stats = server.stats();
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.batches.get(&4), Some(&1));
        assert_eq!(stats.tenants["alice"].completed, 2);
        assert_eq!(stats.tenants["bob"].completed, 2);
        assert!(stats.tenants["alice"].cycles > 0);
        assert!(stats.tenants["alice"].dram_bytes > 0);
    }

    #[test]
    fn every_batch_size_replays_the_one_program_with_exact_chargeback() {
        let g = tiny_graph("m");
        let weights = g.random_weights(9);
        let solo = GraphSession::auto(config(), &g).unwrap();
        let program = solo.compile().unwrap();
        let charge = (program.cost().total_cycles(), program.cost().dram_bytes());
        let inputs: Vec<Tensor4<i8>> = (0..8)
            .map(|i| Tensor4::random([1, 2, 4, 4], 90 + i))
            .collect();

        // A floor: with none, an idle worker launches each burst's head at
        // once and holds only up to the last batch's size, so a burst one
        // larger than the last can split — every time, on one CPU.
        let server = Server::new(ServeConfig {
            batch_window: Duration::from_millis(5),
            ..ServeConfig::default()
        });
        server
            .register_model("m", config(), &g, weights.clone())
            .unwrap();
        // A burst of `size` submits lands inside the floor unless
        // this thread is descheduled mid-burst, so repeat each size until
        // the histogram shows a batch of exactly that many requests.
        for size in 1..=server.config().max_batch {
            let mut rounds = 0;
            while !server.stats().batches.contains_key(&size) {
                rounds += 1;
                assert!(rounds <= 1000, "never formed a batch of {size}");
                let burst = &inputs[..size];
                let tickets: Vec<Ticket> = burst
                    .iter()
                    .map(|iacts| server.submit("t", "m", iacts.clone()).unwrap())
                    .collect();
                for (ticket, iacts) in tickets.into_iter().zip(burst) {
                    let response = ticket.wait().unwrap();
                    assert_eq!(response.oacts, solo.run(iacts, &weights).unwrap().oacts);
                    // Whatever it was batched with: one solo inference.
                    assert_eq!((response.cycles, response.dram_bytes), charge);
                }
            }
        }
    }

    #[test]
    fn a_model_that_cannot_compile_fails_at_registration() {
        // Plans (`GraphSession::auto` accepts the fabric), but BIRRD needs a
        // power-of-two width, so its one compile fails.
        let g = tiny_graph("m");
        let six_wide = FeatherConfig {
            cols: 6,
            ..FeatherConfig::new(4, 4)
        };
        let server = Server::new(ServeConfig::default());
        let registered = server.register_model("m", six_wide, &g, g.random_weights(7));
        assert!(
            matches!(registered, Err(ServeError::Exec(_))),
            "{registered:?}"
        );
        assert!(matches!(
            server.submit("t", "m", Tensor4::random([1, 2, 4, 4], 8)),
            Err(ServeError::UnknownModel(_))
        ));
    }

    #[test]
    fn submit_validates_model_and_shape() {
        let g = tiny_graph("m");
        let server = Server::new(ServeConfig::default());
        server
            .register_model("m", config(), &g, g.random_weights(1))
            .unwrap();
        let wrong = Tensor4::random([1, 3, 4, 4], 1);
        assert!(matches!(
            server.submit("t", "nope", Tensor4::random([1, 2, 4, 4], 1)),
            Err(ServeError::UnknownModel(_))
        ));
        assert!(matches!(
            server.submit("t", "m", wrong),
            Err(ServeError::BadInput(_))
        ));
    }

    #[test]
    fn batched_graphs_are_rejected_at_registration() {
        let mut g = Graph::new("b2", [2, 2, 4, 4]);
        g.conv(
            g.input(),
            ConvLayer::new(2, 2, 2, 4, 4, 1, 1).with_name("only"),
        )
        .unwrap();
        let server = Server::new(ServeConfig::default());
        assert!(matches!(
            server.register_model("b2", config(), &g, g.random_weights(1)),
            Err(ServeError::BadInput(_))
        ));
    }

    #[test]
    fn admission_control_bounces_past_queue_depth_and_shutdown_drains() {
        let g = tiny_graph("m");
        let weights = g.random_weights(5);
        let solo = GraphSession::auto(config(), &g).unwrap();
        let iacts = Tensor4::random([1, 2, 4, 4], 9);
        let golden = solo.run(&iacts, &weights).unwrap().oacts;

        // A wide window plus a large max_batch keeps requests parked in the
        // queue, so the depth bound is observable deterministically.
        let mut server = Server::new(ServeConfig {
            max_batch: 8,
            queue_depth: 2,
            batch_window: Duration::from_secs(5),
            ..ServeConfig::default()
        });
        server.register_model("m", config(), &g, weights).unwrap();
        let t1 = server.submit("t", "m", iacts.clone()).unwrap();
        let t2 = server.submit("t", "m", iacts.clone()).unwrap();
        assert!(matches!(
            server.submit("t", "m", iacts.clone()),
            Err(ServeError::QueueFull { depth: 2 })
        ));
        assert_eq!(server.stats().rejected, 1);

        // Shutdown closes admission but still serves what was admitted.
        server.shutdown();
        assert_eq!(t1.wait().unwrap().oacts, golden);
        assert_eq!(t2.wait().unwrap().oacts, golden);
        assert!(matches!(
            server.submit("t", "m", iacts),
            Err(ServeError::Shutdown)
        ));
    }

    #[test]
    fn queue_depth_bounds_each_tenant_separately() {
        let g = tiny_graph("m");
        let weights = g.random_weights(6);
        let iacts = Tensor4::random([1, 2, 4, 4], 11);

        let mut server = Server::new(ServeConfig {
            max_batch: 8,
            queue_depth: 2,
            batch_window: Duration::from_secs(5),
            ..ServeConfig::default()
        });
        server.register_model("m", config(), &g, weights).unwrap();
        let _a1 = server.submit("a", "m", iacts.clone()).unwrap();
        let _a2 = server.submit("a", "m", iacts.clone()).unwrap();
        // Tenant `a` is at capacity; tenant `b` has its own bound.
        assert!(matches!(
            server.submit("a", "m", iacts.clone()),
            Err(ServeError::QueueFull { depth: 2 })
        ));
        let _b1 = server.submit("b", "m", iacts.clone()).unwrap();
        let stats = server.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.tenants["a"].rejected, 1);
        assert!(!stats.tenants.contains_key("b") || stats.tenants["b"].rejected == 0);
        server.shutdown();
    }

    #[test]
    fn cancelled_requests_never_execute() {
        let g = tiny_graph("m");
        let weights = g.random_weights(8);
        let solo = GraphSession::auto(config(), &g).unwrap();
        let iacts = Tensor4::random([1, 2, 4, 4], 13);
        let golden = solo.run(&iacts, &weights).unwrap().oacts;

        // A wide window keeps all three parked while we cancel two of them.
        let mut server = Server::new(ServeConfig {
            max_batch: 8,
            batch_window: Duration::from_secs(5),
            ..ServeConfig::default()
        });
        server.register_model("m", config(), &g, weights).unwrap();
        let keep = server.submit("t", "m", iacts.clone()).unwrap();
        let explicit = server.submit("t", "m", iacts.clone()).unwrap();
        let abandoned = server.submit("t", "m", iacts.clone()).unwrap();

        explicit.cancel();
        drop(abandoned); // dropping the ticket cancels too

        server.shutdown();
        assert_eq!(keep.wait().unwrap().oacts, golden);
        assert_eq!(explicit.wait(), Err(ServeError::Cancelled));

        let stats = server.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.cancelled, 2);
        assert_eq!(stats.tenants["t"].cancelled, 2);
        // The cancelled pair never reached an executor: the only executed
        // batch held exactly the surviving request.
        assert_eq!(stats.batches, BTreeMap::from([(1, 1)]));
    }

    #[test]
    fn weighted_fair_admission_shares_batches_by_weight() {
        let g_light = tiny_graph("ml");
        let g_flood = tiny_graph("mf");
        let g_plug = tiny_graph("mp");
        let w_light = g_light.random_weights(21);
        let w_flood = g_flood.random_weights(22);

        // One worker forms each batch only when it is free; a long first
        // window lets both tenants pile up their backlogs before any
        // fairness decision is made.
        let mut server = Server::new(ServeConfig {
            max_batch: 4,
            queue_depth: 64,
            batch_window: Duration::from_millis(150),
            workers: 1,
            ..ServeConfig::default()
        });
        server
            .register_model("ml", config(), &g_light, w_light)
            .unwrap();
        server
            .register_model("mf", config(), &g_flood, w_flood)
            .unwrap();
        server
            .register_model("mp", config(), &g_plug, g_plug.random_weights(23))
            .unwrap();
        server.set_tenant_weight("light", 4);
        server.set_tenant_weight("flood", 1);

        // The plug leads a batch on a model of its own, so nothing joins it
        // and its floor holds the worker for the full 150 ms: both backlogs
        // below are queued before the first fairness round. (A plug on the
        // flood's model would launch as soon as four flood requests joined
        // it, and the flood could drain before light's submits landed.)
        let plug = server
            .submit("warm", "mp", Tensor4::random([1, 2, 4, 4], 30))
            .unwrap();
        let flood: Vec<Ticket> = (0..64)
            .map(|i| {
                server
                    .submit("flood", "mf", Tensor4::random([1, 2, 4, 4], 100 + i))
                    .unwrap()
            })
            .collect();
        let light: Vec<Ticket> = (0..32)
            .map(|i| {
                server
                    .submit("light", "ml", Tensor4::random([1, 2, 4, 4], 200 + i))
                    .unwrap()
            })
            .collect();

        // Despite submitting after 64 flooding requests, the weight-4
        // tenant's 32 requests finish while the flood is still deeply
        // backlogged: under sustained contention it earns 4 of every 5
        // batches, so the flood advances by roughly a quarter of light's
        // volume. Equal weights would leave the flood at ~43 of 64 here;
        // FIFO would drain it completely first.
        for ticket in light {
            ticket.wait().unwrap();
        }
        let mid = server.stats();
        assert_eq!(mid.tenants["light"].completed, 32);
        let flood_done = mid.tenants.get("flood").map_or(0, |t| t.completed);
        assert!(
            flood_done < 64,
            "flood must still be backlogged when light drains (saw {flood_done})"
        );
        assert!(
            flood_done <= 28,
            "weight-1 flood got {flood_done} of its requests through while the \
             weight-4 tenant's 32 drained — shares are not tracking weights"
        );

        // Drain: nobody is starved forever, nothing is lost.
        plug.wait().unwrap();
        for ticket in flood {
            ticket.wait().unwrap();
        }
        let stats = server.stats();
        assert_eq!(stats.completed, 1 + 64 + 32);
        assert_eq!(stats.tenants["flood"].completed, 64);
        server.shutdown();
    }

    /// Three convs deep on an `hw`×`hw` input: at 8×8 a release replay
    /// takes ≈ 0.4 ms, at 24×24 it spans several scheduler timeslices.
    fn stout_graph(name: &str, hw: usize) -> Graph {
        let mut g = Graph::new(name, [1, 4, hw, hw]);
        let stem = g
            .conv(
                g.input(),
                ConvLayer::new(1, 16, 4, hw, hw, 3, 3)
                    .with_padding(1)
                    .with_name("stem"),
            )
            .unwrap();
        let mid = g
            .conv(
                stem,
                ConvLayer::new(1, 16, 16, hw, hw, 3, 3)
                    .with_padding(1)
                    .with_name("mid"),
            )
            .unwrap();
        g.conv(
            mid,
            ConvLayer::new(1, 4, 16, hw, hw, 1, 1).with_name("head"),
        )
        .unwrap();
        g
    }

    #[test]
    fn executor_pool_overlaps_batches_and_stays_exact() {
        // Replays long enough that two workers on one hardware thread still
        // interleave mid-run, in release too: pinned to one CPU, 8×8 graphs
        // never overlapped in 150 rounds (the second batch must be formed
        // while the first replays), 24×24 overlapped within a few rounds 20
        // times of 20.
        let hw = 24;
        let g_a = stout_graph("a", hw);
        let g_b = stout_graph("b", hw);
        let w_a = g_a.random_weights(31);
        let w_b = g_b.random_weights(32);
        let solo_a = GraphSession::auto(config(), &g_a).unwrap();
        let solo_b = GraphSession::auto(config(), &g_b).unwrap();
        let ia = Tensor4::random([1, 4, hw, hw], 1000);
        let ib = Tensor4::random([1, 4, hw, hw], 2000);
        let golden_a = solo_a.run(&ia, &w_a).unwrap().oacts;
        let golden_b = solo_b.run(&ib, &w_b).unwrap().oacts;

        let server = Server::new(ServeConfig {
            max_batch: 1,
            batch_window: Duration::ZERO,
            workers: 2,
            ..ServeConfig::default()
        });
        server.register_model("a", config(), &g_a, w_a).unwrap();
        server.register_model("b", config(), &g_b, w_b).unwrap();

        // Round after round, launch one request per model simultaneously;
        // with two workers the pair executes overlapped. On a single
        // hardware thread overlap relies on preemption mid-run, so keep
        // trying until the watermark proves it.
        let mut overlapped = false;
        for round in 0..150 {
            let ta = server.submit("t", "a", ia.clone()).unwrap();
            let tb = server.submit("t", "b", ib.clone()).unwrap();
            let ra = ta.wait().unwrap();
            let rb = tb.wait().unwrap();
            assert_eq!(ra.oacts, golden_a, "round {round}: model a diverged");
            assert_eq!(rb.oacts, golden_b, "round {round}: model b diverged");
            if server.stats().max_concurrent_batches >= 2 {
                overlapped = true;
                break;
            }
        }
        let stats = server.stats();
        assert!(
            overlapped,
            "two workers never overlapped two batches (watermark {})",
            stats.max_concurrent_batches
        );
        assert!(stats.max_concurrent_batches <= 2, "watermark exceeds pool");
        // Overlap takes two distinct workers, so both must have executed.
        assert!(
            stats.worker_batches.len() >= 2,
            "work never spread across the pool: {:?}",
            stats.worker_batches
        );
    }

    #[test]
    fn expired_requests_resolve_as_timeouts() {
        let g = tiny_graph("m");
        let server = Server::new(ServeConfig {
            batch_window: Duration::ZERO,
            ..ServeConfig::default()
        });
        server
            .register_model("m", config(), &g, g.random_weights(1))
            .unwrap();
        let ticket = server
            .submit_with_deadline(
                "t",
                "m",
                Tensor4::random([1, 2, 4, 4], 2),
                Some(Duration::ZERO),
            )
            .unwrap();
        assert_eq!(ticket.wait(), Err(ServeError::Timeout));
        let stats = server.stats();
        assert_eq!(stats.timed_out, 1);
        assert_eq!(stats.tenants["t"].timed_out, 1);
    }

    #[test]
    fn defaults_and_clamps() {
        // Field-level sanity on the defaults.
        let cfg = ServeConfig::default();
        assert_eq!(cfg.max_batch, 8);
        assert_eq!(cfg.queue_depth, 64);
        assert_eq!(cfg.batch_window, Duration::ZERO);
        assert_eq!(cfg.default_deadline, None);
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.max_retries, 2);
        assert!(cfg.retry_backoff > Duration::ZERO);
        assert_eq!(cfg.breaker_threshold, 8);
        assert!(cfg.breaker_cooldown > Duration::ZERO);
        assert_eq!(cfg.brownout_pct, 90);
        // Zero-valued knobs clamp to functioning minimums.
        let server = Server::new(ServeConfig {
            max_batch: 0,
            queue_depth: 0,
            workers: 0,
            ..ServeConfig::default()
        });
        let cfg = server.config();
        assert_eq!(cfg.max_batch, 1);
        assert_eq!(cfg.queue_depth, 1);
        assert_eq!(cfg.workers, 1);
    }

    #[test]
    fn hold_rule_on_virtual_time() {
        use Hold::{Launch, Until};
        // Virtual instants: the lead became schedulable at `t0`, `now` is µs
        // after it; floor and batch time are µs too. Nothing sleeps.
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        #[rustfmt::skip]
        let cases = [
            // case                            floor max  now  wait exp  batch  decision
            ("lone request, idle executor",      0,   8,    0,  1,   1,  200, Launch),
            ("returns expected",                 0,   8,   50,  3,   8,  200, Until(at(200))),
            ("one batch time elapsed",           0,   8,  200,  3,   8,  200, Launch),
            ("past one batch time",              0,   8,  900,  3,   8,  200, Launch),
            ("waiting reaches expected",         0,   8,   50,  5,   5,  200, Launch),
            ("full batch",                       0,   8,    0,  8,   8,  200, Launch),
            ("brownout-halved full batch",       0,   4,    0,  4,   8,  200, Launch),
            ("full batch inside the floor",    500,   8,   10,  8,   1,    0, Launch),
            ("floor not elapsed",              500,   8,   10,  1,   1,    0, Until(at(500))),
            ("floor elapsed",                  500,   8,  500,  1,   1,    0, Launch),
            ("floor outlasts the batch time",  500,   8,  500,  1,   8,  200, Launch),
            ("batch time 0: no hold",            0,   8,    0,  3,   8,    0, Launch),
            ("first batch: nothing expected",    0,   8,    0,  1,   0,    0, Launch),
        ];
        for (case, floor, max_batch, now, waiting, expected, batch, decision) in cases {
            let forming = Forming {
                start: t0,
                floor: Duration::from_micros(floor),
                max_batch,
            };
            let batch_time = Duration::from_micros(batch);
            assert_eq!(
                forming.hold(at(now), waiting, expected, batch_time),
                decision,
                "{case}"
            );
        }
    }

    #[test]
    fn lone_requests_do_not_wait_for_a_window() {
        // The parent held every non-full batch 500 µs, so its median here
        // was ≥ 500 by construction; an idle executor now starts at once.
        let g = tiny_graph("m");
        let server = Server::new(ServeConfig::default());
        server
            .register_model("m", config(), &g, g.random_weights(90))
            .unwrap();
        let iacts = Tensor4::random([1, 2, 4, 4], 91);
        let mut queue_us: Vec<u64> = (0..30)
            .map(|_| {
                let response = server.submit("t", "m", iacts.clone()).unwrap().wait();
                response.unwrap().queue_us
            })
            .collect();
        queue_us.sort_unstable();
        let median = queue_us[queue_us.len() / 2];
        assert!(median < 250, "median queue {median} µs: {queue_us:?}");
    }

    #[test]
    fn batch_time_estimate_excludes_the_first_batch_compile() {
        // The batch time that bounds the hold and prices brownout's
        // shedding must see only the replay, never a compile. 1×1 convs
        // over a 2×2 input whose channel count changes at every layer
        // compile 14–23× slower than they replay (debug and release), so a
        // compile folded into the estimate reads above a bare compile of
        // the same graph.
        let mut g = Graph::new("m", [1, 2, 2, 2]);
        let mut t = g.input();
        for (i, c) in [2, 3, 5, 7, 6, 4, 2].windows(2).enumerate() {
            let layer = ConvLayer::new(1, c[1], c[0], 2, 2, 1, 1).with_name(format!("l{i}"));
            t = g.conv(t, layer).unwrap();
        }
        let server = Server::new(ServeConfig::default());
        server
            .register_model("m", config(), &g, g.random_weights(95))
            .unwrap();
        let iacts = Tensor4::random([1, 2, 2, 2], 96);
        server.submit("t", "m", iacts).unwrap().wait().unwrap();
        let estimate = Duration::from_micros(server.inner.batch_ewma_us.load(Ordering::Relaxed));
        let compile = (0..3)
            .map(|_| {
                let session = GraphSession::auto(config(), &g).unwrap();
                let started = Instant::now();
                session.compile().unwrap();
                started.elapsed()
            })
            .min()
            .unwrap();
        assert!(
            estimate < compile,
            "batch time {estimate:?} is no less than a whole compile ({compile:?})"
        );
    }

    /// `submitted == completed + rejected + timed_out + cancelled + failed
    /// + shed` — every admitted request resolves exactly once.
    fn assert_conserved(stats: &ServerStats) {
        assert_eq!(
            stats.submitted,
            stats.accounted(),
            "conservation violated: {stats:?}"
        );
    }

    #[test]
    fn injected_replay_failure_retries_bit_identically() {
        let g = tiny_graph("m");
        let weights = g.random_weights(40);
        let solo = GraphSession::auto(config(), &g).unwrap();
        let iacts = Tensor4::random([1, 2, 4, 4], 41);
        let golden = solo.run(&iacts, &weights).unwrap().oacts;

        // The first replay draw fails; the retry must return exactly what
        // the first attempt would have.
        let plan = FaultPlan::seeded(1).with_fail_first(FaultSite::ReplayEntry, 1);
        let mut server = Server::with_fault_plan(
            ServeConfig {
                batch_window: Duration::ZERO,
                ..ServeConfig::default()
            },
            Some(plan),
        );
        server.register_model("m", config(), &g, weights).unwrap();
        let response = server.submit("t", "m", iacts).unwrap().wait().unwrap();
        assert_eq!(response.oacts, golden);
        server.shutdown();
        let stats = server.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.worker_panics, 0);
        assert_conserved(&stats);
    }

    #[test]
    fn exhausted_retry_budget_fails_the_request() {
        let g = tiny_graph("m");
        // Every replay draw fails and the budget allows one retry: the
        // request must resolve as Failed after exactly two attempts.
        let plan = FaultPlan::seeded(2).with_fail(FaultSite::ReplayEntry, 1.0);
        let mut server = Server::with_fault_plan(
            ServeConfig {
                batch_window: Duration::ZERO,
                max_retries: 1,
                ..ServeConfig::default()
            },
            Some(plan),
        );
        server
            .register_model("m", config(), &g, g.random_weights(42))
            .unwrap();
        let result = server
            .submit("t", "m", Tensor4::random([1, 2, 4, 4], 43))
            .unwrap()
            .wait();
        assert!(matches!(result, Err(ServeError::Failed(_))), "{result:?}");
        server.shutdown();
        let stats = server.stats();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.completed, 0);
        assert_conserved(&stats);
    }

    #[test]
    fn replay_panic_is_supervised_and_the_worker_respawned() {
        let g = tiny_graph("m");
        let weights = g.random_weights(50);
        let solo = GraphSession::auto(config(), &g).unwrap();
        let iacts = Tensor4::random([1, 2, 4, 4], 51);
        let golden = solo.run(&iacts, &weights).unwrap().oacts;

        // First replay draw panics: the lone worker dies mid-batch. The
        // batch must resolve (retried), a replacement worker must serve the
        // retry, and the server must keep working afterwards.
        let plan = FaultPlan::seeded(3).with_panic_first(FaultSite::ReplayEntry, 1);
        let mut server = Server::with_fault_plan(
            ServeConfig {
                batch_window: Duration::ZERO,
                workers: 1,
                ..ServeConfig::default()
            },
            Some(plan),
        );
        server.register_model("m", config(), &g, weights).unwrap();
        let response = server
            .submit("t", "m", iacts.clone())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(response.oacts, golden);
        // Still serving after the panic.
        let again = server.submit("t", "m", iacts).unwrap().wait().unwrap();
        assert_eq!(again.oacts, golden);
        server.shutdown();
        let stats = server.stats();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.worker_panics, 1);
        assert_eq!(stats.respawns, 1);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.failed, 0);
        assert_conserved(&stats);
    }

    #[test]
    fn pickup_panic_resolves_the_batch_before_unwinding() {
        let g = tiny_graph("m");
        let weights = g.random_weights(60);
        let solo = GraphSession::auto(config(), &g).unwrap();
        let iacts = Tensor4::random([1, 2, 4, 4], 61);
        let golden = solo.run(&iacts, &weights).unwrap().oacts;

        // With no retry budget, the pickup panic fails its batch outright —
        // but must never strand the ticket, and the pool must recover.
        let plan = FaultPlan::seeded(4).with_panic_first(FaultSite::WorkerPickup, 1);
        let mut server = Server::with_fault_plan(
            ServeConfig {
                batch_window: Duration::ZERO,
                workers: 1,
                max_retries: 0,
                ..ServeConfig::default()
            },
            Some(plan),
        );
        server.register_model("m", config(), &g, weights).unwrap();
        let result = server.submit("t", "m", iacts.clone()).unwrap().wait();
        assert!(matches!(result, Err(ServeError::Failed(_))), "{result:?}");
        let response = server.submit("t", "m", iacts).unwrap().wait().unwrap();
        assert_eq!(response.oacts, golden);
        server.shutdown();
        let stats = server.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.worker_panics, 1);
        assert_eq!(stats.respawns, 1);
        assert_conserved(&stats);
    }

    #[test]
    fn circuit_breaker_opens_fast_fails_and_recovers_via_probe() {
        let g = tiny_graph("m");
        let weights = g.random_weights(70);
        let solo = GraphSession::auto(config(), &g).unwrap();
        let iacts = Tensor4::random([1, 2, 4, 4], 71);
        let golden = solo.run(&iacts, &weights).unwrap().oacts;

        // Exactly the first two batch executions fail; threshold 2 opens
        // the breaker. Serial submits keep each request in its own batch.
        let plan = FaultPlan::seeded(5).with_fail_first(FaultSite::ReplayEntry, 2);
        let mut server = Server::with_fault_plan(
            ServeConfig {
                batch_window: Duration::ZERO,
                max_retries: 0,
                breaker_threshold: 2,
                breaker_cooldown: Duration::from_millis(30),
                ..ServeConfig::default()
            },
            Some(plan),
        );
        server.register_model("m", config(), &g, weights).unwrap();
        for _ in 0..2 {
            let result = server.submit("t", "m", iacts.clone()).unwrap().wait();
            assert!(matches!(result, Err(ServeError::Failed(_))), "{result:?}");
        }
        assert_eq!(server.breaker_open("m"), Some(true));
        let result = server.submit("t", "m", iacts.clone()).map(|t| t.id());
        assert!(
            matches!(result, Err(ServeError::Unavailable { .. })),
            "{result:?}"
        );
        // After the cooldown a probe is admitted; the injection budget is
        // spent, so it completes and closes the breaker.
        std::thread::sleep(Duration::from_millis(40));
        let probe = server
            .submit("t", "m", iacts.clone())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(probe.oacts, golden);
        assert_eq!(server.breaker_open("m"), Some(false));
        let response = server.submit("t", "m", iacts).unwrap().wait().unwrap();
        assert_eq!(response.oacts, golden);
        server.shutdown();
        let stats = server.stats();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 2);
        assert_eq!(stats.shed, 1, "the fast-fail while open counts as shed");
        assert!(stats.breaker_opens >= 1);
        assert_conserved(&stats);
    }

    #[test]
    fn brownout_sheds_infeasible_deadlines_under_overload() {
        let g = stout_graph("m", 8);
        let weights = g.random_weights(80);
        let iacts = Tensor4::random([1, 4, 8, 8], 81);

        // Tiny per-tenant depth and a low threshold make overload easy to
        // reach; max_batch 1 keeps the backlog draining slowly.
        let mut server = Server::new(ServeConfig {
            max_batch: 1,
            queue_depth: 8,
            batch_window: Duration::ZERO,
            brownout_pct: 50,
            ..ServeConfig::default()
        });
        server.register_model("m", config(), &g, weights).unwrap();
        // Establish the service-rate estimate with one completed batch.
        server
            .submit("t", "m", iacts.clone())
            .unwrap()
            .wait()
            .unwrap();

        // Flood past the occupancy threshold, then probe with deadlines no
        // backlog this deep can meet. The leader recomputes the brownout
        // flag per formed batch, so allow a few probe rounds for it to
        // trip; a shed resolves at admission as Overloaded.
        let mut shed = false;
        let mut backlog = Vec::new();
        'outer: for _ in 0..50 {
            while backlog.len() < 8 {
                match server.submit("t", "m", iacts.clone()) {
                    Ok(t) => backlog.push(t),
                    Err(ServeError::QueueFull { .. }) => break,
                    Err(e) => panic!("unexpected admission error: {e}"),
                }
            }
            for _ in 0..4 {
                match server.submit_with_deadline(
                    "probe",
                    "m",
                    iacts.clone(),
                    Some(Duration::from_micros(1)),
                ) {
                    Err(ServeError::Overloaded) => {
                        shed = true;
                        break 'outer;
                    }
                    // Not in brownout yet (or estimate still warming):
                    // the probe just times out in the queue.
                    Ok(ticket) => assert_eq!(ticket.wait(), Err(ServeError::Timeout)),
                    Err(e) => panic!("unexpected admission error: {e}"),
                }
            }
            // Let the backlog drain a little before re-flooding.
            backlog.drain(..).for_each(|t| {
                t.wait().unwrap();
            });
        }
        assert!(shed, "overload never shed an infeasible deadline");
        backlog.drain(..).for_each(|t| {
            t.wait().unwrap();
        });
        server.shutdown();
        let stats = server.stats();
        assert!(stats.shed >= 1);
        assert!(stats.tenants["probe"].shed >= 1);
        assert_conserved(&stats);
    }
}
