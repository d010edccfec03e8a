//! The serving core: weighted-fair admission and a pool of executor workers
//! that form their own batches.
//!
//! There is one kind of server thread: the **executor worker**
//! ([`ServeConfig::workers`] of them), scheduled leader/follower. An idle
//! worker takes the lead lock and forms the next batch: a deficit-round-robin
//! pass over the backlogged tenants picks the richest tenant's oldest request
//! to choose the model, and same-model requests fill the batch (up to
//! [`ServeConfig::max_batch`], across tenants in deficit order). It then
//! releases the lead and replays the batch it formed, so different models,
//! or different batches of one model, can be in flight at once. Forming is
//! **work-conserving**: the batch launches at once unless fewer requests wait
//! than the model's last batch answered — then the leader holds for those
//! returns, never past one batch time after the lead request arrived. The
//! whole decision is a pure method of the queue state at a given `now`. A
//! batch is one replay of the model's program, one request per lane, and
//! each lane is bit-identical to a solo run, so a tenant can observe neither
//! coalescing nor which worker ran its request.
//!
//! A model has **one** compiled program: [`Server::register_model`] compiles
//! the planned batch-1 [`GraphSession`] into a [`feather::Program`], and
//! every batch lane-stripes that same [`ProgramSession`] with zero planning
//! or compiling work. A request is charged the program's
//! [`cost`](feather::Program::cost): a solo inference on FEATHER, whatever
//! it was co-scheduled with. Each worker keeps one [`ReplayScratch`], so
//! steady-state replay allocates no buffer memory either.
//!
//! **One way a request ends.** Admission is bounded per tenant
//! ([`ServeConfig::queue_depth`]). Besides completing, a submitted request
//! can be refused at admission (queue full, an open [`CircuitBreaker`],
//! brownout shedding), be cancelled ([`crate::Ticket::cancel`], or dropping
//! the ticket), expire, or fail once its retries are spent. Cancelled and
//! expired requests are pruned while a batch forms and again at the
//! executor boundary, never run; one `Request` method decides which of the
//! two applies. Whatever the outcome, one call books it into
//! [`ServerStats`] — the only writer of the terminal counters — and the
//! ticket receives that same result.
//!
//! **Supervision.** Replays run under `catch_unwind`. Failed batch members
//! are re-enqueued at their tenant's queue head with exponential backoff up
//! to [`ServeConfig::max_retries`] (replay determinism keeps the retried
//! response bit-identical); a backoff past what `Instant` can represent
//! fails the request instead. A worker that panics — in a replay or at an
//! injected pickup fault — settles its own batch first, then unwinds, and
//! its sentinel spawns the replacement: one respawn path for every panic.
//! Each model carries a [`CircuitBreaker`] that sustained failures open.
//!
//! **Overload.** When a tenant's queue occupancy reaches
//! [`ServeConfig::brownout_pct`] or deadline misses persist, the leader
//! halves the effective batch size and admission sheds requests whose
//! deadlines are already infeasible ([`ServeError::Overloaded`]). That state
//! is one plain struct under the queue lock, with its rules as pure methods.
//! All of this is exercised deterministically by the seeded [`FaultPlan`]
//! injection plane (`FEATHER_FAULT_PLAN`).

use std::collections::{BTreeMap, VecDeque};
use std::mem;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
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
    /// Deadline applied to every request without an explicit one: requests
    /// still queued past it are dropped with [`ServeError::Timeout`].
    /// `None`, or a deadline past what `Instant` can represent, means
    /// requests wait indefinitely.
    pub default_deadline: Option<Duration>,
    /// Executor pool size: how many formed batches can execute
    /// concurrently.
    pub workers: usize,
    /// How many times a failed request (transient executor error, injected
    /// fault, or worker panic) is re-enqueued before resolving as
    /// [`ServeError::Failed`]. Retried responses are bit-identical to what
    /// the first attempt would have returned. `0` disables retries.
    pub max_retries: u32,
    /// Backoff before a request's first retry; attempt `n` waits
    /// `retry_backoff * 2^(n-1)`. A retry whose backoff would end past what
    /// `Instant` can represent fails instead.
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
    /// Why the scheduler must drop this request instead of running it, if it
    /// must: its ticket was cancelled (or abandoned), or its deadline passed
    /// by `now`. Cancellation wins when both apply. The one place either is
    /// decided.
    fn ended(&self, now: Instant) -> Option<ServeError> {
        if self.promise.is_cancelled() {
            Some(ServeError::Cancelled)
        } else if self.deadline.is_some_and(|d| d <= now) {
            Some(ServeError::Timeout)
        } else {
            None
        }
    }

    /// Whether a batch may take this request at `now` (its retry backoff,
    /// if any, has elapsed).
    fn eligible_at(&self, now: Instant) -> bool {
        self.not_before.map_or(true, |t| t <= now)
    }

    /// Ends this request: books `result` into `stats` (the one settlement,
    /// [`ServerStats::settle`]), then fulfils the ticket with that same
    /// result.
    fn settle(self, stats: &mut ServerStats, result: Result<Response, ServeError>) {
        stats.settle(&self.tenant, result.as_ref());
        self.promise.fulfill(result);
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

/// The per-tenant admission queues, the open/closed flag, the overload
/// state and the batch being formed, under one lock.
#[derive(Default)]
struct QueueState {
    tenants: BTreeMap<String, TenantQueue>,
    open: bool,
    overload: Overload,
    /// Each model's last resolved batch size, stored by the worker before it
    /// answers the batch: how many returns the next leader expects when the
    /// model's clients run a closed loop (see [`Forming::hold`]).
    last_batch: BTreeMap<String, usize>,
    /// The batch a leader holds open, kept across its wake-ups.
    forming: Option<Forming>,
    /// Queue timeouts pruned since the last formed batch.
    timeouts: usize,
}

/// What the leader does next: the outcome of [`QueueState::decide`].
enum Decision {
    /// Replay this batch (never empty).
    Launch(Batch),
    /// Nothing to launch yet: wait for an arrival, or until this instant at
    /// the latest.
    Wait(Option<Instant>),
    /// Admission is closed and every queue is empty.
    Closed,
}

impl QueueState {
    /// Every queued request, tenant by tenant.
    fn requests(&self) -> impl Iterator<Item = &Request> {
        self.tenants.values().flat_map(|tq| &tq.requests)
    }

    /// The tenant with the largest deficit among those `eligible` selects;
    /// ties break toward the lexicographically first name, so selection is
    /// deterministic.
    fn richest_tenant(
        &mut self,
        eligible: impl Fn(&TenantQueue) -> bool,
    ) -> Option<&mut TenantQueue> {
        self.tenants
            .iter_mut()
            .filter(|(_, tq)| eligible(tq))
            .max_by(|(a_name, a), (b_name, b)| a.deficit.cmp(&b.deficit).then(b_name.cmp(a_name)))
            .map(|(_, tq)| tq)
    }

    /// The leader's whole forming decision at `now`, on the queues, the
    /// tenant `weights` and each model's last batch size. It reads no
    /// clock, takes no lock and spawns no thread. Requests that ended by
    /// `now` move into `dead` (passed in empty), for the caller to settle.
    /// Then:
    ///
    /// 1. with no batch in progress, the leader waits for an eligible
    ///    request (one whose retry backoff has elapsed), or reports
    ///    [`Decision::Closed`] once admission closed and the queues ran dry
    ///    — shutdown still serves everything already admitted. Ineligible
    ///    retries count as backlog, so shutdown never abandons them;
    /// 2. once per batch: the brownout assessment ([`Overload::assess`]),
    ///    then the DRR round — every backlogged tenant earns its weight, and
    ///    the richest tenant's oldest eligible request picks the model;
    /// 3. [`Forming::hold`] decides how long the batch stays open for
    ///    same-model arrivals — kept in `self` across wake-ups, and skipped
    ///    once admission closed (latency no longer matters, drain fast);
    /// 4. extraction fills the batch across tenants in deficit order.
    ///
    /// A batch whose candidates all ended before extraction is dropped and
    /// forming starts over, so a launched batch is never empty.
    fn decide(
        &mut self,
        cfg: &ServeConfig,
        weights: &BTreeMap<String, u64>,
        now: Instant,
        dead: &mut Vec<(Request, ServeError)>,
    ) -> Decision {
        for tq in self.tenants.values_mut() {
            let (live, ended) = split_dead(mem::take(&mut tq.requests), now);
            tq.requests = live.into();
            dead.extend(ended);
        }
        self.timeouts += dead
            .iter()
            .filter(|(_, error)| *error == ServeError::Timeout)
            .count();
        loop {
            if self.forming.is_none() {
                self.forming = self.begin(cfg, weights, now);
            }
            let Some(forming) = self.forming.take() else {
                if !self.open && self.requests().next().is_none() {
                    self.overload.record_misses(mem::take(&mut self.timeouts));
                    return Decision::Closed;
                }
                // Only retries in backoff are queued, if anything.
                return Decision::Wait(self.requests().filter_map(|r| r.not_before).min());
            };
            if self.open {
                let waiting = self
                    .requests()
                    .filter(|r| r.model == forming.model && r.eligible_at(now))
                    .count();
                let expected = self.last_batch.get(&forming.model).copied().unwrap_or(0);
                if let Hold::Until(end) =
                    forming.hold(now, waiting, expected, self.overload.batch_time())
                {
                    self.forming = Some(forming);
                    return Decision::Wait(Some(end));
                }
            }
            let batch = self.extract(forming, cfg, now);
            if !batch.requests.is_empty() {
                return Decision::Launch(batch);
            }
        }
    }

    /// Starts a batch if a request is eligible at `now`: assesses brownout,
    /// runs the DRR round and picks the lead.
    fn begin(
        &mut self,
        cfg: &ServeConfig,
        weights: &BTreeMap<String, u64>,
        now: Instant,
    ) -> Option<Forming> {
        let eligible = |tq: &TenantQueue| tq.requests.iter().any(|r| r.eligible_at(now));
        if !self.tenants.values().any(eligible) {
            return None;
        }
        let occupancy_pct = self
            .tenants
            .values()
            .map(|tq| tq.requests.len() * 100 / cfg.queue_depth)
            .max()
            .unwrap_or(0);
        let max_batch = self.overload.assess(cfg, occupancy_pct);
        for (name, tq) in self.tenants.iter_mut() {
            if !tq.requests.is_empty() {
                tq.deficit += *weights.get(name).unwrap_or(&1) as i64;
            }
        }
        let lead = self
            .richest_tenant(eligible)
            .and_then(|tq| tq.requests.iter().find(|r| r.eligible_at(now)))
            .expect("an eligible request leads");
        Some(Forming {
            model: lead.model.clone(),
            start: lead.not_before.unwrap_or(lead.enqueued),
            max_batch,
        })
    }

    /// Fills the batch `forming` started: repeatedly takes the oldest
    /// eligible same-model request of the richest tenant still holding one,
    /// each paying one credit; other models' requests keep their queue
    /// positions. Drained tenants then leave the round, and the miss EWMA
    /// takes the timeouts pruned while the batch formed.
    fn extract(&mut self, forming: Forming, cfg: &ServeConfig, now: Instant) -> Batch {
        let candidate = |r: &Request| r.model == forming.model && r.eligible_at(now);
        let mut requests = Vec::new();
        while requests.len() < forming.max_batch {
            let Some(tq) = self.richest_tenant(|tq| tq.requests.iter().any(candidate)) else {
                break;
            };
            let pos = tq
                .requests
                .iter()
                .position(candidate)
                .expect("tenant had a candidate");
            requests.push(tq.requests.remove(pos).expect("position in bounds"));
            tq.deficit -= 1;
        }
        // Credit (or debt) does not bank across idle periods. Debt is
        // floored at one batch's worth: a tenant that served alone (paying
        // more than it earned, with nobody competing) must not carry that
        // artificial debt into a later contended phase.
        self.tenants.retain(|_, tq| !tq.requests.is_empty());
        let debt_floor = -(cfg.max_batch as i64);
        for tq in self.tenants.values_mut() {
            tq.deficit = tq.deficit.max(debt_floor);
        }
        // Admission order within the batch, so coalescing stays deterministic.
        requests.sort_by_key(|r| r.id);
        self.overload.record_misses(mem::take(&mut self.timeouts));
        Batch {
            model: forming.model,
            requests,
        }
    }
}

/// The overload policy's state. It lives in [`QueueState`], so admission
/// and the leader read and write it under the queue lock they already hold;
/// a worker takes that lock once per replay to record its time. Every rule
/// is a method on plain inputs — it reads no clock and takes no lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Overload {
    /// Whether the last batch was formed in brownout.
    brownout: bool,
    /// The batch size the last leader formed to: the configured
    /// `max_batch`, halved (floor 1) in brownout; 0 before the first batch.
    max_batch: usize,
    /// EWMA of batch replay time in µs, zero until the first replay: the
    /// shed estimate's service time and the hold's one batch time.
    replay_us: u64,
    /// EWMA of queue timeouts per formed batch, in 1/256ths: sustained ≥ 1
    /// timeout per batch converges to ≥ 256 and trips brownout.
    misses: u64,
}

impl Overload {
    /// The trip rule, taken once per formed batch from the freshest backlog
    /// view: the fullest tenant queue at `occupancy_pct` ≥
    /// [`ServeConfig::brownout_pct`] of its depth (admission bounds are
    /// per-tenant), or a sustained miss rate, puts the server in brownout,
    /// which halves the batch (floor 1) so the queue head drains sooner.
    /// Returns the batch size to form to.
    fn assess(&mut self, cfg: &ServeConfig, occupancy_pct: usize) -> usize {
        self.brownout = occupancy_pct >= cfg.brownout_pct || self.misses >= 256;
        self.max_batch = if self.brownout {
            (cfg.max_batch / 2).max(1)
        } else {
            cfg.max_batch
        };
        self.max_batch
    }

    /// The shed estimate: in brownout, a request whose `deadline` is shorter
    /// than the replays needed to drain the `queued` requests ahead of it
    /// plus its own would only time out in the queue.
    fn sheds(&self, queued: usize, deadline: Duration) -> bool {
        let replays = (queued / self.max_batch.max(1) + 1) as u64;
        self.brownout && deadline < Duration::from_micros(replays.saturating_mul(self.replay_us))
    }

    /// Folds one batch replay's wall time into the replay EWMA (quarter
    /// weight, like the miss EWMA); the first sample seeds it.
    fn record_replay(&mut self, elapsed_us: u64) {
        self.replay_us = match self.replay_us {
            0 => elapsed_us,
            old => old - old / 4 + elapsed_us / 4,
        };
    }

    /// Folds one formed batch's queue-timeout count into the miss EWMA: a
    /// quarter of the way to `timeouts` × 256.
    fn record_misses(&mut self, timeouts: usize) {
        self.misses = self.misses - self.misses / 4 + (timeouts as u64).saturating_mul(64);
    }

    /// One batch time, as the hold rule reads it.
    fn batch_time(&self) -> Duration {
        Duration::from_micros(self.replay_us)
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
    /// Admission-side counters: refusals at submit, requests pruned as
    /// cancelled or expired, and respawns. Executor-side counters live in
    /// `worker_stats`.
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
        let server = Server::unstarted(cfg, fault);
        server.start();
        server
    }

    /// [`Server::with_fault_plan`] without its executor pool: admission
    /// works, but nothing forms or replays until [`Server::start`].
    fn unstarted(cfg: ServeConfig, fault: Option<FaultPlan>) -> Self {
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
                open: true,
                ..QueueState::default()
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
            workers: Mutex::new(Vec::new()),
        });
        Server { inner }
    }

    /// Spawns the executor pool.
    fn start(&self) {
        for worker in 0..self.inner.cfg.workers {
            spawn_worker(&self.inner, worker);
        }
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

    /// [`Server::submit`] with an explicit per-request deadline (`None`, or
    /// one past what `Instant` can represent, waits indefinitely).
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

        // Settles a request refused once submitted, then hands back its error.
        let refuse = |error: ServeError| {
            lock_recover(&self.inner.stats).settle(tenant, Err(&error));
            Err(error)
        };
        let enqueued = Instant::now();
        if !registered.breaker.admit(enqueued) {
            lock_recover(&self.inner.stats).submitted += 1;
            return refuse(ServeError::Unavailable {
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
            // Brownout shedding: a request whose deadline cannot outlast the
            // backlog ahead of it would only time out in the queue — resolve
            // that at admission, where the client can still react.
            if deadline.is_some_and(|d| queue.overload.sheds(queue.requests().count(), d)) {
                return refuse(ServeError::Overloaded);
            }
            let depth = self.inner.cfg.queue_depth;
            let tq = queue.tenants.entry(tenant.to_string()).or_default();
            if tq.requests.len() >= depth {
                // Cancelled or expired requests still parked in the queue
                // should not hold capacity against live ones: prune, then
                // re-check before bouncing.
                let (live, dead) = split_dead(mem::take(&mut tq.requests), enqueued);
                tq.requests = live.into();
                settle_dead(&self.inner, dead);
                if tq.requests.len() >= depth {
                    return refuse(ServeError::QueueFull { depth });
                }
            }
            tq.requests.push_back(Request {
                id: ticket.id(),
                tenant: tenant.to_string(),
                model: model.to_string(),
                iacts,
                enqueued,
                // A deadline past what `Instant` can represent is no deadline.
                deadline: deadline.and_then(|d| enqueued.checked_add(d)),
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

/// How long a leader with nothing queued sleeps before it decides again — a
/// backstop for missed wakeups, not the signaling path.
const IDLE_POLL: Duration = Duration::from_millis(5);

/// Splits `requests` into those still live at `now` and those that ended,
/// each with the error it ends with; both keep their order.
fn split_dead(
    requests: impl IntoIterator<Item = Request>,
    now: Instant,
) -> (Vec<Request>, Vec<(Request, ServeError)>) {
    let requests = requests.into_iter();
    let (mut live, mut dead) = (Vec::with_capacity(requests.size_hint().0), Vec::new());
    for request in requests {
        match request.ended(now) {
            Some(error) => dead.push((request, error)),
            None => live.push(request),
        }
    }
    (live, dead)
}

/// Settles requests that ended before they ran into the admission-side
/// stats.
fn settle_dead(inner: &Inner, dead: Vec<(Request, ServeError)>) {
    if dead.is_empty() {
        return;
    }
    let mut stats = lock_recover(&inner.stats);
    for (request, error) in dead {
        request.settle(&mut stats, Err(error));
    }
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

/// Guards an executor worker's thread. Dropped while the thread unwinds — a
/// pickup or replay panic, after the worker settled its batch, or any
/// unexpected one — it spawns the worker's replacement: the one respawn
/// path.
struct WorkerSentinel {
    inner: Arc<Inner>,
    worker: usize,
}

impl Drop for WorkerSentinel {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Same index, so the replacement inherits the stats shard. It is
            // spawned before the dying thread exits, after that thread
            // re-enqueued its batch's retries: the replacement drains them,
            // even after admission closed.
            lock_recover(&self.inner.stats).respawns += 1;
            spawn_worker(&self.inner, self.worker);
        }
    }
}

/// When a request that has failed `attempts` times may run again: after a
/// backoff of `retry_backoff * 2^attempts` from `now`. `None` when its retry
/// budget is spent, or when that backoff overflows what `Instant` can
/// represent.
fn retry_at(cfg: &ServeConfig, attempts: u32, now: Instant) -> Option<Instant> {
    if attempts >= cfg.max_retries {
        return None;
    }
    let backoff = cfg.retry_backoff.checked_mul(1 << attempts.min(16))?;
    now.checked_add(backoff)
}

/// Resolves the members of a failed batch execution: cancelled/expired
/// members end as such, members with retry budget left are re-enqueued at
/// their tenant's queue head with exponential backoff, the rest fail as
/// [`ServeError::Failed`]. Only a worker calls this, and it (or its
/// replacement) forms again afterwards, so a re-enqueued retry is always
/// drained — shutdown included.
fn retry_or_fail(inner: &Inner, worker: usize, requests: Vec<Request>, reason: &str) {
    let now = Instant::now();
    let mut requeue = Vec::new();
    {
        let mut stats = lock_recover(&inner.worker_stats[worker]);
        for mut request in requests {
            let error = match request.ended(now) {
                Some(error) => error,
                None => match retry_at(&inner.cfg, request.attempts, now) {
                    Some(not_before) => {
                        request.attempts += 1;
                        request.not_before = Some(not_before);
                        stats.retries += 1;
                        requeue.push(request);
                        continue;
                    }
                    None => ServeError::Failed(format!(
                        "{reason} (attempt {} of {})",
                        request.attempts + 1,
                        inner.cfg.max_retries + 1
                    )),
                },
            };
            request.settle(&mut stats, Err(error));
        }
    }
    if requeue.is_empty() {
        return;
    }
    let mut queue = lock_recover(&inner.queue);
    // Queue-head re-enqueue: retries go back out ahead of newer arrivals
    // from the same tenant.
    for request in requeue {
        queue
            .tenants
            .entry(request.tenant.clone())
            .or_default()
            .requests
            .push_front(request);
    }
    drop(queue);
    inner.arrived.notify_all();
}

/// What the leader does next with the batch it is forming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hold {
    /// Run the batch now.
    Launch,
    /// Keep it open for same-model arrivals until this instant.
    Until(Instant),
}

/// A batch being formed: the model its lead request chose, when that
/// request became schedulable, and the (brownout-adjusted) size that
/// launches it at once.
struct Forming {
    model: String,
    start: Instant,
    max_batch: usize,
}

impl Forming {
    /// The work-conserving hold rule, a pure function of the leader's view
    /// at `now`. The leader is an idle worker, so there is no busy executor
    /// to wait for:
    ///
    /// 1. nothing of the model waits (its lead was cancelled or expired
    ///    mid-hold), or `max_batch` requests wait → launch;
    /// 2. fewer requests wait than `expected` (the model's last batch size:
    ///    in a closed loop, the returns that batch's answers will send) →
    ///    hold for them, but never past one `batch_time` after `start`. A
    ///    `batch_time` of zero (no batch has run) holds nothing;
    /// 3. otherwise → launch.
    ///
    /// `start` is the lead request's arrival (or the end of its retry
    /// backoff), not the moment a worker came free: a lead that waited out
    /// a busy pool has already waited, and counting its hold from the
    /// pickup would stack one more batch time on that wait. Measured on
    /// closed-loop Model A (req/s, medians of ten 5 s rounds, a fixed
    /// 500 µs window → this rule): 1 client 1049 → 3722, 2: 1246 → 1865, 4:
    /// 2148 → 3313, 8: 6177 → 6231 at mean batch 8.0 on both; launching at
    /// once always breaks that loop up (mean batch 6.0, 4288 req/s).
    fn hold(&self, now: Instant, waiting: usize, expected: usize, batch_time: Duration) -> Hold {
        let returns_end = self.start + batch_time;
        if waiting > 0 && waiting < self.max_batch && waiting < expected && now < returns_end {
            Hold::Until(returns_end)
        } else {
            Hold::Launch
        }
    }
}

/// Forms the next batch, or `None` once admission closed and the queues ran
/// dry; the caller is an idle worker holding the lead lock. Each wake-up
/// reads the clock once, lets [`QueueState::decide`] decide, settles what it
/// pruned, then returns or waits.
///
/// Forming only when an executor is free is what keeps batches full under
/// load: requests accumulate in the admission queues while every worker
/// runs, so each batch is formed from the fullest backlog, with fairness
/// and cancellation decided as late as possible. Forming eagerly ahead of
/// execution locked undersized batches in (measured: mean batch 3.9
/// instead of 8 on the closed-loop sweep, a 27% throughput loss).
fn form_batch(inner: &Inner) -> Option<Batch> {
    let mut queue = lock_recover(&inner.queue);
    loop {
        let now = Instant::now();
        let mut dead = Vec::new();
        let decision = queue.decide(&inner.cfg, &read_recover(&inner.weights), now, &mut dead);
        settle_dead(inner, dead);
        let timeout = match decision {
            Decision::Launch(batch) => return Some(batch),
            Decision::Closed => return None,
            Decision::Wait(until) => until.map_or(IDLE_POLL, |t| t.saturating_duration_since(now)),
        };
        queue = inner
            .arrived
            .wait_timeout(queue, timeout)
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .0;
    }
}

/// One executor worker, leader/follower: take the lead lock, form a batch,
/// hand the lead on, replay the batch — until admission is closed and the
/// queues run dry. The worker keeps one [`ReplayScratch`] — it serves any
/// program at one lane or eight — so its steady state allocates no buffer
/// memory.
fn run_worker(inner: &Arc<Inner>, worker: usize) {
    let _sentinel = WorkerSentinel {
        inner: inner.clone(),
        worker,
    };
    let mut scratch = ReplayScratch::new();
    loop {
        let formed = {
            let _lead = lock_recover(&inner.lead);
            form_batch(inner)
        };
        let Some(batch) = formed else { return };
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
        execute_batch(inner, worker, batch, &mut scratch);
    }
}

/// Runs one formed batch on `worker` and resolves every member's promise.
/// Requests cancelled or expired since formation are resolved here without
/// executing — the final gate that keeps dead requests out of the
/// accelerator. The replay itself runs under `catch_unwind`: a panic
/// settles only this batch (retry or fail per member) and feeds the model's
/// breaker, then resumes unwinding, so the worker's sentinel replaces it —
/// its scratch state dies with the thread.
fn execute_batch(inner: &Arc<Inner>, worker: usize, batch: Batch, scratch: &mut ReplayScratch) {
    let launched = Instant::now();
    let (live, dead) = split_dead(batch.requests, launched);
    settle_dead(inner, dead);
    if live.is_empty() {
        return;
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
    let elapsed_us = replay_start.elapsed().as_micros() as u64;
    let mut queue = lock_recover(&inner.queue);
    queue.overload.record_replay(elapsed_us);
    // Before any member is answered: their returns find it already set.
    if let Ok(Ok(_)) = runs {
        queue.last_batch.insert(batch.model, size);
    }
    drop(queue);

    let runs = match runs {
        Ok(Ok(runs)) => runs,
        Ok(Err(err)) => return strike(&err.to_string(), live),
        Err(panic) => {
            lock_recover(&inner.worker_stats[worker]).worker_panics += 1;
            strike("replay panicked", live);
            resume_unwind(panic);
        }
    };
    model.breaker.record_success();

    // Every member is charged the program's constant: a solo inference.
    let cost = model.program.program().cost();
    let (cycles, dram_bytes) = (cost.total_cycles(), cost.dram_bytes());
    let mut stats = lock_recover(&inner.worker_stats[worker]);
    *stats.batches.entry(size).or_insert(0) += 1;
    *stats.worker_batches.entry(worker).or_insert(0) += 1;
    for (request, run) in live.into_iter().zip(runs) {
        let response = Response {
            oacts: run.oacts,
            batch_size: size,
            worker,
            queue_us: launched.duration_since(request.enqueued).as_micros() as u64,
            latency_us: request.enqueued.elapsed().as_micros() as u64,
            cycles,
            dram_bytes,
        };
        request.settle(&mut stats, Ok(response));
    }
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

        let server = Server::unstarted(
            ServeConfig {
                max_batch: 4,
                ..ServeConfig::default()
            },
            None,
        );
        server.register_model("m", config(), &g, weights).unwrap();
        // All four are queued before any worker runs, so the first leader
        // coalesces them into one batch-4 run.
        let tickets: Vec<Ticket> = inputs
            .iter()
            .enumerate()
            .map(|(i, iacts)| {
                server
                    .submit(if i % 2 == 0 { "alice" } else { "bob" }, "m", iacts.clone())
                    .unwrap()
            })
            .collect();
        server.start();
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

        // A burst of each size is queued before the workers spawn, so the
        // first leader forms exactly one batch of that size (on virtual
        // time: `a_burst_of_each_size_forms_one_batch`).
        for size in 1..=ServeConfig::default().max_batch {
            let server = Server::unstarted(ServeConfig::default(), None);
            server
                .register_model("m", config(), &g, weights.clone())
                .unwrap();
            let burst = &inputs[..size];
            let tickets: Vec<Ticket> = burst
                .iter()
                .map(|iacts| server.submit("t", "m", iacts.clone()).unwrap())
                .collect();
            server.start();
            for (ticket, iacts) in tickets.into_iter().zip(burst) {
                let response = ticket.wait().unwrap();
                assert_eq!(response.oacts, solo.run(iacts, &weights).unwrap().oacts);
                // Whatever it was batched with: one solo inference.
                assert_eq!((response.cycles, response.dram_bytes), charge);
            }
            assert_eq!(server.stats().batches, BTreeMap::from([(size, 1)]));
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

        // No worker runs yet, so requests stay queued and the depth bound
        // is observable deterministically.
        let mut server = Server::unstarted(
            ServeConfig {
                max_batch: 8,
                queue_depth: 2,
                ..ServeConfig::default()
            },
            None,
        );
        server.register_model("m", config(), &g, weights).unwrap();
        let t1 = server.submit("t", "m", iacts.clone()).unwrap();
        let t2 = server.submit("t", "m", iacts.clone()).unwrap();
        assert!(matches!(
            server.submit("t", "m", iacts.clone()),
            Err(ServeError::QueueFull { depth: 2 })
        ));
        assert_eq!(server.stats().rejected, 1);

        // Shutdown closes admission but still serves what was admitted: the
        // workers spawn only after admission closed.
        server.shutdown();
        server.start();
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

        let mut server = Server::unstarted(
            ServeConfig {
                max_batch: 8,
                queue_depth: 2,
                ..ServeConfig::default()
            },
            None,
        );
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
        server.start();
        server.shutdown();
    }

    #[test]
    fn cancelled_requests_never_execute() {
        let g = tiny_graph("m");
        let weights = g.random_weights(8);
        let solo = GraphSession::auto(config(), &g).unwrap();
        let iacts = Tensor4::random([1, 2, 4, 4], 13);
        let golden = solo.run(&iacts, &weights).unwrap().oacts;

        // No worker runs until two of the three are cancelled.
        let mut server = Server::unstarted(
            ServeConfig {
                max_batch: 8,
                ..ServeConfig::default()
            },
            None,
        );
        server.register_model("m", config(), &g, weights).unwrap();
        let keep = server.submit("t", "m", iacts.clone()).unwrap();
        let explicit = server.submit("t", "m", iacts.clone()).unwrap();
        let abandoned = server.submit("t", "m", iacts.clone()).unwrap();

        explicit.cancel();
        drop(abandoned); // dropping the ticket cancels too

        server.start();
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

    /// Queues a request for the forming decision on virtual time — no
    /// server, no thread, no clock — and hands back its promise.
    fn enqueue(
        q: &mut QueueState,
        id: u64,
        tenant: &str,
        model: &str,
        at: Instant,
    ) -> Arc<Promise> {
        let promise = Promise::new();
        let tq = q.tenants.entry(tenant.to_string()).or_default();
        tq.requests.push_back(Request {
            id,
            tenant: tenant.to_string(),
            model: model.to_string(),
            iacts: Tensor4::zeros([1, 1, 1, 1]),
            enqueued: at,
            deadline: None,
            promise: promise.clone(),
            attempts: 0,
            not_before: None,
        });
        promise
    }

    fn open_queue() -> QueueState {
        QueueState {
            open: true,
            ..QueueState::default()
        }
    }

    /// A [`Decision`], as tests compare it: a launch is its model and its
    /// request ids.
    #[derive(Debug, PartialEq, Eq)]
    enum Seen {
        Launch(String, Vec<u64>),
        Wait(Option<Instant>),
        Closed,
    }

    /// One decision at `now`, plus the ids of the requests it pruned, each
    /// with the error it ends with.
    fn decide_at(
        q: &mut QueueState,
        cfg: &ServeConfig,
        weights: &BTreeMap<String, u64>,
        now: Instant,
    ) -> (Seen, Vec<(u64, ServeError)>) {
        let mut dead = Vec::new();
        let seen = match q.decide(cfg, weights, now, &mut dead) {
            Decision::Launch(batch) => {
                Seen::Launch(batch.model, batch.requests.iter().map(|r| r.id).collect())
            }
            Decision::Wait(until) => Seen::Wait(until),
            Decision::Closed => Seen::Closed,
        };
        (seen, dead.into_iter().map(|(r, e)| (r.id, e)).collect())
    }

    #[test]
    fn weighted_fair_admission_shares_batches_by_weight() {
        // On virtual time, one worker: every request is queued before the
        // first fairness round, and each batch answers before the next
        // decision. The plug leads a batch on a model of its own. Brownout
        // is off: 64 queued of 64 would halve the batch, and this test is
        // about the shares alone.
        let cfg = ServeConfig {
            max_batch: 4,
            queue_depth: 64,
            workers: 1,
            brownout_pct: 101,
            ..ServeConfig::default()
        };
        let weights = BTreeMap::from([("light".to_string(), 4), ("flood".to_string(), 1)]);
        let t0 = Instant::now();
        let mut q = open_queue();
        enqueue(&mut q, 0, "warm", "mp", t0);
        for id in 1..=64 {
            enqueue(&mut q, id, "flood", "mf", t0);
        }
        for id in 65..=96 {
            enqueue(&mut q, id, "light", "ml", t0);
        }
        let tenant_of = |model: &str| match model {
            "ml" => "light",
            "mf" => "flood",
            _ => "warm",
        };
        let mut completed: BTreeMap<&str, u64> = BTreeMap::new();
        let mut led: BTreeMap<&str, u64> = BTreeMap::new();
        let mut flood_done = None;
        loop {
            match decide_at(&mut q, &cfg, &weights, t0).0 {
                Seen::Launch(model, ids) => {
                    *completed.entry(tenant_of(&model)).or_default() += ids.len() as u64;
                    if flood_done.is_none() {
                        *led.entry(tenant_of(&model)).or_default() += 1;
                    }
                }
                Seen::Wait(None) => break,
                other => panic!("unexpected decision {other:?}"),
            }
            if flood_done.is_none() && completed.get("light") == Some(&32) {
                flood_done = Some(completed.get("flood").copied().unwrap_or(0));
            }
        }

        // Despite queueing after 64 flooding requests, the weight-4
        // tenant's 32 requests finish while the flood is still deeply
        // backlogged: under sustained contention it leads at least 4 of
        // every 5 batches (8 to the flood's 1 here), so the flood advances
        // by at most a quarter of light's volume. Equal weights would leave
        // the flood at ~43 of 64 here; FIFO would drain it completely first.
        assert!(led["light"] >= 4 * led["flood"], "batches led: {led:?}");
        let flood_done = flood_done.expect("light drained");
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
        assert_eq!(completed.values().sum::<u64>(), 1 + 64 + 32);
        assert_eq!(completed["flood"], 64);
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
        let server = Server::new(ServeConfig::default());
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
        // after it; the batch time is µs too. Nothing sleeps.
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        #[rustfmt::skip]
        let cases = [
            // case                            max  now  wait exp  batch  decision
            ("lone request, idle executor",      8,    0,  1,   1,  200, Launch),
            ("returns expected",                 8,   50,  3,   8,  200, Until(at(200))),
            ("one batch time elapsed",           8,  200,  3,   8,  200, Launch),
            ("past one batch time",              8,  900,  3,   8,  200, Launch),
            ("waiting reaches expected",         8,   50,  5,   5,  200, Launch),
            ("full batch",                       8,    0,  8,   8,  200, Launch),
            ("brownout-halved full batch",       4,    0,  4,   8,  200, Launch),
            ("model emptied mid-hold",           8,   50,  0,   8,  200, Launch),
            ("batch time 0: no hold",            8,    0,  3,   8,    0, Launch),
            ("first batch: nothing expected",    8,    0,  1,   0,    0, Launch),
        ];
        for (case, max_batch, now, waiting, expected, batch, decision) in cases {
            let forming = Forming {
                model: "m".to_string(),
                start: t0,
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
    fn a_burst_of_each_size_forms_one_batch() {
        // On virtual time: bursts of 1..=8 arrive whole between two
        // decisions, each after the last burst's batch answered — a burst
        // one larger than the last batch still launches whole, and nothing
        // of it is left behind for a second batch.
        let cfg = ServeConfig::default();
        let weights = BTreeMap::new();
        let t0 = Instant::now();
        let mut q = open_queue();
        q.overload.record_replay(200);
        let mut next_id = 0..;
        for size in 1..=cfg.max_batch {
            let now = t0 + Duration::from_millis(size as u64);
            let ids: Vec<u64> = next_id.by_ref().take(size).collect();
            for &id in &ids {
                enqueue(&mut q, id, "t", "m", now);
            }
            let launch = Seen::Launch("m".to_string(), ids);
            assert_eq!(
                decide_at(&mut q, &cfg, &weights, now).0,
                launch,
                "burst of {size}"
            );
            let after = decide_at(&mut q, &cfg, &weights, now).0;
            assert_eq!(after, Seen::Wait(None), "burst of {size} split");
            q.last_batch.insert("m".to_string(), size);
        }
    }

    #[test]
    fn a_closed_loop_hold_waits_one_batch_time_for_every_return() {
        // The model's last batch answered 8 clients in 200 µs; their returns
        // arrive 10 µs apart. Each of the first 7 holds the batch until one
        // batch time after the first arrived; the 8th launches it.
        let cfg = ServeConfig::default();
        let weights = BTreeMap::new();
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let closed_loop = || {
            let mut q = open_queue();
            q.overload.record_replay(200);
            q.last_batch.insert("m".to_string(), 8);
            for id in 0..7 {
                enqueue(&mut q, id, "t", "m", at(10 * id));
            }
            q
        };
        let mut q = closed_loop();
        for now in [0, 10, 30, 60, 199] {
            let seen = decide_at(&mut q, &cfg, &weights, at(now)).0;
            assert_eq!(seen, Seen::Wait(Some(at(200))), "7 returns at {now} µs");
        }
        enqueue(&mut q, 7, "t", "m", at(70));
        let seen = decide_at(&mut q, &cfg, &weights, at(70)).0;
        assert_eq!(seen, Seen::Launch("m".to_string(), (0..8).collect()));
        // Without the 8th, one batch time launches the 7.
        let mut q = closed_loop();
        let seen = decide_at(&mut q, &cfg, &weights, at(200)).0;
        assert_eq!(seen, Seen::Launch("m".to_string(), (0..7).collect()));
    }

    #[test]
    fn a_lead_cancelled_mid_hold_does_not_hold_up_other_models() {
        // Model `a`'s last batch predicts 8 returns, so its lone lead holds.
        // Cancelled mid-hold, it leaves nothing of `a` to wait for: the next
        // decision prunes it and launches the `b` request queued meanwhile.
        let cfg = ServeConfig::default();
        let weights = BTreeMap::new();
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut q = open_queue();
        q.overload.record_replay(200);
        q.last_batch.insert("a".to_string(), 8);
        let lead = enqueue(&mut q, 0, "t", "a", at(0));
        let seen = decide_at(&mut q, &cfg, &weights, at(0)).0;
        assert_eq!(seen, Seen::Wait(Some(at(200))));
        enqueue(&mut q, 1, "u", "b", at(10));
        lead.cancel();
        let (seen, dead) = decide_at(&mut q, &cfg, &weights, at(20));
        assert_eq!(dead, vec![(0, ServeError::Cancelled)]);
        assert_eq!(seen, Seen::Launch("b".to_string(), vec![1]));
        // Admission closed and nothing queued: the leader's pool exits.
        q.open = false;
        assert_eq!(decide_at(&mut q, &cfg, &weights, at(30)).0, Seen::Closed);
    }

    #[test]
    fn overload_rules_on_plain_inputs() {
        let cfg = ServeConfig {
            max_batch: 8,
            brownout_pct: 90,
            ..ServeConfig::default()
        };

        // Occupancy at or past `brownout_pct` trips brownout and halves the
        // batch, floored at one; below it, brownout clears.
        let mut overload = Overload::default();
        assert_eq!(overload.assess(&cfg, 89), 8);
        assert!(!overload.brownout);
        assert_eq!(overload.assess(&cfg, 90), 4);
        assert!(overload.brownout);
        assert_eq!(overload.assess(&cfg, 0), 8);
        assert!(!overload.brownout);
        for (max_batch, halved) in [(1, 1), (2, 1), (3, 1), (9, 4)] {
            let cfg = ServeConfig { max_batch, ..cfg };
            assert_eq!(Overload::default().assess(&cfg, 100), halved);
        }

        // One timeout per formed batch, sustained, trips brownout through
        // the miss EWMA with the queues empty; two per batch trip it sooner.
        // Once the timeouts stop, the EWMA decays and brownout clears.
        let batches_to_trip = |timeouts: usize| {
            let mut overload = Overload::default();
            let mut batches = 0;
            while overload.assess(&cfg, 0) == cfg.max_batch {
                assert!(batches < 64, "{timeouts} per batch never tripped");
                overload.record_misses(timeouts);
                batches += 1;
            }
            (batches, overload)
        };
        let (one, mut overload) = batches_to_trip(1);
        let (two, _) = batches_to_trip(2);
        assert!(one > 1, "a single timeout must not trip brownout");
        assert!(
            two < one,
            "two per batch tripped after {two}, one after {one}"
        );
        assert!(overload.brownout);
        let peak = overload.misses;
        overload.record_misses(0);
        assert!(overload.misses < peak);
        assert_eq!(overload.assess(&cfg, 0), cfg.max_batch);

        // The first replay sample seeds the replay EWMA; later ones move it
        // a quarter of the way.
        let mut overload = Overload::default();
        overload.record_replay(100);
        assert_eq!(overload.batch_time(), Duration::from_micros(100));

        // Shedding: in brownout only, and exactly when the deadline is
        // shorter than (queued / effective max_batch + 1) replays.
        let us = Duration::from_micros;
        assert!(!overload.sheds(1000, us(1)), "no shedding outside brownout");
        assert_eq!(overload.assess(&cfg, 100), 4);
        #[rustfmt::skip]
        let cases = [
            // queued  deadline µs  shed
            (0,         99,         true),
            (0,        100,         false),
            (3,         99,         true),
            (4,        199,         true),
            (4,        200,         false),
            (10,       299,         true),
            (10,       300,         false),
        ];
        for (queued, deadline, shed) in cases {
            assert_eq!(
                overload.sheds(queued, us(deadline)),
                shed,
                "queued {queued}, deadline {deadline} µs"
            );
        }
        overload.record_replay(500);
        assert_eq!(overload.batch_time(), us(100 - 25 + 125));
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
        let estimate = lock_recover(&server.inner.queue).overload.batch_time();
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

    /// `ticket.wait()`, bounded: a ticket the server stranded fails the test
    /// instead of hanging it.
    fn wait_within(ticket: Ticket, limit: Duration) -> Result<Response, ServeError> {
        let (sender, receiver) = std::sync::mpsc::channel();
        std::thread::spawn(move || sender.send(ticket.wait()));
        receiver
            .recv_timeout(limit)
            .expect("the ticket was never resolved")
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
        let mut server = Server::with_fault_plan(ServeConfig::default(), Some(plan));
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

    #[test]
    fn a_deadline_beyond_instant_range_is_no_deadline() {
        let g = tiny_graph("m");
        let weights = g.random_weights(100);
        let solo = GraphSession::auto(config(), &g).unwrap();
        let iacts = Tensor4::random([1, 2, 4, 4], 101);
        let golden = solo.run(&iacts, &weights).unwrap().oacts;

        // Explicitly, and through the configured default.
        let mut server = Server::new(ServeConfig {
            default_deadline: Some(Duration::MAX),
            ..ServeConfig::default()
        });
        server.register_model("m", config(), &g, weights).unwrap();
        let explicit = server
            .submit_with_deadline("t", "m", iacts.clone(), Some(Duration::MAX))
            .unwrap();
        let default = server.submit("t", "m", iacts).unwrap();
        assert_eq!(explicit.wait().unwrap().oacts, golden);
        assert_eq!(default.wait().unwrap().oacts, golden);
        server.shutdown();
        let stats = server.stats();
        assert_eq!(stats.completed, 2);
        assert_conserved(&stats);
    }

    #[test]
    fn an_overflowing_retry_backoff_fails_the_request() {
        // The one retry the budget allows would wait past what `Instant`
        // can represent: the request fails instead of being dropped.
        let g = tiny_graph("m");
        let plan = FaultPlan::seeded(6).with_fail_first(FaultSite::ReplayEntry, 1);
        let mut server = Server::with_fault_plan(
            ServeConfig {
                retry_backoff: Duration::MAX,
                ..ServeConfig::default()
            },
            Some(plan),
        );
        server
            .register_model("m", config(), &g, g.random_weights(102))
            .unwrap();
        let ticket = server
            .submit("t", "m", Tensor4::random([1, 2, 4, 4], 103))
            .unwrap();
        let result = wait_within(ticket, Duration::from_secs(10));
        assert!(matches!(result, Err(ServeError::Failed(_))), "{result:?}");
        server.shutdown();
        let stats = server.stats();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.respawns, 0);
        assert_conserved(&stats);
    }
}
