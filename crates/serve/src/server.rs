//! The serving core: the scheduler state and the threads around it. What
//! the server does — fair admission, batching, one compiled program per
//! model, cancellation, accounting, supervision and overload — is in the
//! [crate docs](crate); this module is how.
//!
//! **One scheduler state under one lock.** Everything the scheduling rules
//! read or write — each registered model (its program, breaker and last
//! batch size), the per-tenant queues and weights, the overload state, the
//! batch being formed, the request ids and every counter of [`ServerStats`]
//! — is one plain struct under the queue lock. Its rules are methods on a
//! given `now` that read no clock and take no lock: admission, forming a
//! batch, and a batch's end. A submit takes the lock once; a batch carries
//! its model out of the section that formed it and takes the lock once
//! more, after its replay. The rules are tested on virtual time.
//!
//! **The threads.** The executor workers ([`ServeConfig::workers`]) run
//! leader/follower: an idle worker takes the lead lock, forms the next
//! batch, hands the lead on and replays the batch, so different batches can
//! be in flight at once. A replay runs under `catch_unwind`: a worker that
//! panics settles its own batch first, and its sentinel spawns the
//! replacement. The seeded [`FaultPlan`] (`FEATHER_FAULT_PLAN`) drives every
//! failure path on demand.
//!
//! **One way a request ends.** Besides completing, a submitted request can be
//! refused at admission, be cancelled ([`crate::Ticket::cancel`], or dropping
//! the ticket), expire, or fail once its retries are spent. Cancelled and
//! expired requests are pruned while a batch forms, never run; a launched
//! batch completes. Whatever the outcome, one call books it into
//! [`ServerStats`] and the ticket receives that same result.

use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};
use std::mem;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use feather::{FeatherConfig, GraphSession, ProgramSession, ReplayScratch};
use feather_arch::graph::{Graph, NodeId};
use feather_arch::tensor::Tensor4;

use crate::breaker::CircuitBreaker;
use crate::error::ServeError;
use crate::fault::{FaultAction, FaultPlan, FaultSite};
use crate::stats::ServerStats;
use crate::sync::lock_recover;
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

/// A registered model, fixed at registration: its weights, the program the
/// planned batch-1 session compiled, which every batch replays, and that
/// program's cost totals, charged to every request ([`Response::cycles`],
/// [`Response::dram_bytes`]).
struct Model {
    weights: BTreeMap<NodeId, Tensor4<i8>>,
    input_shape: [usize; 4],
    program: ProgramSession,
    cycles: u64,
    dram_bytes: u64,
}

/// One registered name in [`QueueState::models`]: the model, shared with
/// each of its launched batches; its breaker; and its last resolved batch
/// size, stored before that batch is answered — how many returns the next
/// leader expects when the model's clients run a closed loop
/// ([`Forming::hold`]).
struct Registered {
    model: Arc<Model>,
    breaker: CircuitBreaker,
    last_batch: usize,
}

/// One queued request.
struct Request {
    /// Admission sequence number ([`QueueState::admit`]): a batch's order.
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

/// One tenant's pending requests plus its round-robin balance.
#[derive(Default)]
struct TenantQueue {
    requests: VecDeque<Request>,
    /// Round-robin credit ([`QueueState::serve_next`]). Forgotten (entry
    /// dropped) when the tenant's queue drains: idle tenants bank neither
    /// credit nor debt.
    credit: i64,
}

/// Requests a rule ended before they ran, each with the error it ends with,
/// for the caller to settle ([`QueueState::settle`]).
type Ended = Vec<(Request, ServeError)>;

/// All of the server's state but its threads, under the one queue lock.
/// Every rule on it ([`QueueState::register`], [`QueueState::admit`],
/// [`QueueState::decide`], [`QueueState::succeeded`], [`QueueState::fail`])
/// is a method on plain inputs that reads no clock and takes no lock.
#[derive(Default)]
struct QueueState {
    /// The registered models by name; a name is never removed or replaced.
    models: BTreeMap<String, Registered>,
    tenants: BTreeMap<String, TenantQueue>,
    /// Per-tenant round-robin weights (default 1).
    weights: BTreeMap<String, u64>,
    open: bool,
    overload: Overload,
    /// The batch a leader holds open, kept across its wake-ups.
    forming: Option<Forming>,
    /// Queue timeouts pruned since the last formed batch.
    timeouts: usize,
    /// The id the next enqueued request takes.
    next_id: u64,
    /// Launched batches not yet ended: up in [`QueueState::decide`], down in
    /// [`QueueState::succeeded`] or [`QueueState::fail`].
    executing: u64,
    /// Every counter of the server.
    stats: ServerStats,
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

    /// Registers `model` under `name`, its breaker closed. A name registers
    /// once, so a queued request always replays the program it was admitted
    /// against: an existing name is refused with [`ServeError::BadInput`].
    /// Refuses `name` ([`ServeError::BadInput`]) if a model is registered
    /// under it.
    fn name_free(&self, name: &str) -> Result<(), ServeError> {
        if self.models.contains_key(name) {
            let taken = format!("model `{name}` is already registered");
            return Err(ServeError::BadInput(taken));
        }
        Ok(())
    }

    fn register(
        &mut self,
        cfg: &ServeConfig,
        name: &str,
        model: Arc<Model>,
    ) -> Result<(), ServeError> {
        self.name_free(name)?;
        let entry = Registered {
            model,
            breaker: CircuitBreaker::new(cfg.breaker_threshold, cfg.breaker_cooldown),
            last_batch: 0,
        };
        self.models.insert(name.to_string(), entry);
        Ok(())
    }

    /// Admission of `request` at `now`, its arrival. Refused, in order: for
    /// a model not registered ([`ServeError::UnknownModel`]) or an input of
    /// another shape than the model's ([`ServeError::BadInput`]); once
    /// admission closed ([`ServeError::Shutdown`]) — these three are not
    /// counted as submitted; while its model's breaker rejects
    /// ([`ServeError::Unavailable`]); when brownout sheds its deadline
    /// ([`ServeError::Overloaded`]); or when its tenant's queue is still
    /// full after the requests that ended in it are pruned into `ended`
    /// ([`ServeError::QueueFull`]). A counted refusal is settled into
    /// `self.stats`. Only an enqueued request commits the breaker's
    /// half-open probe and takes an id, the next admission sequence number,
    /// which it returns; a request refused in admission uses up neither.
    fn admit(
        &mut self,
        cfg: &ServeConfig,
        mut request: Request,
        now: Instant,
        ended: &mut Ended,
    ) -> Result<u64, ServeError> {
        let Some(registered) = self.models.get_mut(&request.model) else {
            return Err(ServeError::UnknownModel(request.model));
        };
        let (expected, got) = (registered.model.input_shape, request.iacts.shape());
        if got != expected {
            let model = &request.model;
            let mismatch = format!("model `{model}` expects input {expected:?}, got {got:?}");
            return Err(ServeError::BadInput(mismatch));
        }
        if !self.open {
            return Err(ServeError::Shutdown);
        }
        self.stats.submitted += 1;
        let refuse = |stats: &mut ServerStats, error: ServeError| {
            stats.settle(&request.tenant, Err(&error));
            Err(error)
        };
        if !registered.breaker.admits(now) {
            let model = request.model.clone();
            return refuse(&mut self.stats, ServeError::Unavailable { model });
        }
        // Brownout shedding: a request whose deadline cannot outlast the
        // backlog ahead of it would only time out in the queue — resolve
        // that at admission, where the client can still react.
        let queued = self.tenants.values().map(|tq| tq.requests.len()).sum();
        let sheds = |d: Instant| self.overload.sheds(queued, d - now);
        if request.deadline.is_some_and(sheds) {
            return refuse(&mut self.stats, ServeError::Overloaded);
        }
        let depth = cfg.queue_depth;
        let tq = self.tenants.entry(request.tenant.clone()).or_default();
        if tq.requests.len() >= depth {
            // Cancelled or expired requests still parked in the queue should
            // not hold capacity against live ones: prune, then re-check
            // before bouncing.
            prune(&mut tq.requests, now, ended);
            if tq.requests.len() >= depth {
                return refuse(&mut self.stats, ServeError::QueueFull { depth });
            }
        }
        registered.breaker.admit(now);
        let id = self.next_id;
        self.next_id += 1;
        request.id = id;
        tq.requests.push_back(request);
        Ok(id)
    }

    /// The position, in name order, of the tenant round-robin serves next
    /// among those `eligible` selects: the largest credit once every
    /// backlogged tenant has earned its weight, ties to the first name.
    fn next_tenant(&self, eligible: impl Fn(&TenantQueue) -> bool) -> Option<usize> {
        self.tenants
            .iter()
            .enumerate()
            .filter(|(_, (_, tq))| eligible(tq))
            .max_by_key(|&(i, (name, tq))| (tq.credit + weight(&self.weights, name), Reverse(i)))
            .map(|(i, _)| i)
    }

    /// One step of smooth weighted round-robin (nginx's): every backlogged
    /// tenant earns its weight, and the one [`QueueState::next_tenant`]
    /// picks pays what they all earned. Credit is conserved, so backlogged
    /// tenants are served in proportion to their weights.
    fn serve_next(&mut self, eligible: impl Fn(&TenantQueue) -> bool) -> Option<&mut TenantQueue> {
        let next = self.next_tenant(eligible)?;
        let mut earned = 0;
        for (name, tq) in &mut self.tenants {
            if !tq.requests.is_empty() {
                let w = weight(&self.weights, name);
                tq.credit += w;
                earned += w;
            }
        }
        let tq = self.tenants.values_mut().nth(next)?;
        tq.credit -= earned;
        Some(tq)
    }

    /// The leader's whole forming decision at `now`. Requests that ended by
    /// `now` move into `ended` (passed in empty). Then:
    ///
    /// 1. with no batch in progress, the leader waits for an eligible
    ///    request (one whose retry backoff has elapsed), or reports
    ///    [`Decision::Closed`] once admission closed and the queues ran dry
    ///    — shutdown still serves everything already admitted, retries in
    ///    backoff included;
    /// 2. once per batch: the brownout assessment ([`Overload::assess`]),
    ///    then the oldest eligible request of the tenant round-robin serves
    ///    next picks the model;
    /// 3. [`Forming::hold`] decides how long the batch stays open for
    ///    same-model arrivals — kept in `self` across wake-ups, and skipped
    ///    once admission closed (latency no longer matters, drain fast);
    /// 4. extraction fills the batch, one round-robin step per request.
    ///
    /// A batch whose candidates all ended before extraction is dropped and
    /// forming starts over, so a launched batch is never empty. A launch
    /// raises the executing gauge and its high-water mark.
    fn decide(&mut self, cfg: &ServeConfig, now: Instant, ended: &mut Ended) -> Decision {
        for tq in self.tenants.values_mut() {
            prune(&mut tq.requests, now, ended);
        }
        self.timeouts += ended
            .iter()
            .filter(|(_, error)| *error == ServeError::Timeout)
            .count();
        loop {
            if self.forming.is_none() {
                self.forming = self.begin(cfg, now);
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
                let expected = self.models[&forming.model].last_batch;
                if let Some(end) = forming.hold(now, waiting, expected, self.overload.batch_time())
                {
                    self.forming = Some(forming);
                    return Decision::Wait(Some(end));
                }
            }
            let batch = self.extract(forming, now);
            if !batch.requests.is_empty() {
                self.executing += 1;
                let peak = &mut self.stats.max_concurrent_batches;
                *peak = (*peak).max(self.executing);
                return Decision::Launch(batch);
            }
        }
    }

    /// Starts a batch if a request is eligible at `now`: assesses brownout
    /// and picks the lead.
    fn begin(&mut self, cfg: &ServeConfig, now: Instant) -> Option<Forming> {
        let eligible = |tq: &TenantQueue| tq.requests.iter().any(|r| r.eligible_at(now));
        let next = self.next_tenant(eligible)?;
        let occupancy_pct = self
            .tenants
            .values()
            .map(|tq| tq.requests.len() * 100 / cfg.queue_depth)
            .max()
            .unwrap_or(0);
        let max_batch = self.overload.assess(cfg, occupancy_pct);
        let lead = self
            .tenants
            .values()
            .nth(next)
            .and_then(|tq| tq.requests.iter().find(|r| r.eligible_at(now)))
            .expect("an eligible request leads");
        Some(Forming {
            model: lead.model.clone(),
            start: lead.not_before.unwrap_or(lead.enqueued),
            max_batch,
        })
    }

    /// Fills the batch `forming` started: each round-robin step takes the
    /// served tenant's oldest eligible same-model request; other models'
    /// requests keep their queue positions. Drained tenants then leave the
    /// round, and the miss EWMA takes the timeouts pruned while the batch
    /// formed.
    fn extract(&mut self, forming: Forming, now: Instant) -> Batch {
        let candidate = |r: &Request| r.model == forming.model && r.eligible_at(now);
        let mut requests = Vec::new();
        while requests.len() < forming.max_batch {
            let Some(tq) = self.serve_next(|tq| tq.requests.iter().any(candidate)) else {
                break;
            };
            let pos = tq
                .requests
                .iter()
                .position(candidate)
                .expect("tenant had a candidate");
            requests.push(tq.requests.remove(pos).expect("position in bounds"));
        }
        self.tenants.retain(|_, tq| !tq.requests.is_empty());
        // Admission order within the batch, so coalescing stays deterministic.
        requests.sort_by_key(|r| r.id);
        self.overload.record_misses(mem::take(&mut self.timeouts));
        Batch {
            model: self.models[&forming.model].model.clone(),
            name: forming.model,
            requests,
        }
    }

    /// A launched batch of `requests` failed at `now`, and leaves the
    /// executing gauge. A failed replay of the model `strike` names is one
    /// strike on its breaker, whatever the members' retry budgets decide; a
    /// worker's own fault (`None`)
    /// strikes nothing. Then each member that was cancelled or expired ends
    /// as such, one with retry budget left is re-enqueued at its tenant's
    /// queue head with exponential backoff, and the rest fail as
    /// [`ServeError::Failed`]; the ended and the failed move into `ended`.
    fn fail(
        &mut self,
        cfg: &ServeConfig,
        strike: Option<&str>,
        requests: Vec<Request>,
        reason: &str,
        now: Instant,
        ended: &mut Ended,
    ) {
        self.executing -= 1;
        let registered = strike.and_then(|model| self.models.get_mut(model));
        if registered.is_some_and(|m| m.breaker.record_failure(now)) {
            self.stats.breaker_opens += 1;
        }
        for mut request in requests {
            let error = match request.ended(now) {
                Some(error) => error,
                // Backoff `retry_backoff · 2^attempts` while the budget
                // lasts, if `Instant` can represent its end.
                None => match (cfg.retry_backoff.checked_mul(1 << request.attempts.min(16)))
                    .and_then(|backoff| now.checked_add(backoff))
                    .filter(|_| request.attempts < cfg.max_retries)
                {
                    Some(not_before) => {
                        request.attempts += 1;
                        request.not_before = Some(not_before);
                        self.stats.retries += 1;
                        // Queue-head re-enqueue: retries go back out ahead of
                        // newer arrivals from the same tenant.
                        let tq = self.tenants.entry(request.tenant.clone()).or_default();
                        tq.requests.push_front(request);
                        continue;
                    }
                    None => ServeError::Failed(format!(
                        "{reason} (attempt {} of {})",
                        request.attempts + 1,
                        cfg.max_retries + 1
                    )),
                },
            };
            ended.push((request, error));
        }
    }

    /// A launched batch of `size` for `model` replayed on `worker`: it
    /// leaves the executing gauge and enters the batch histograms, the
    /// model's breaker closes, and its next batch expects `size` returns.
    /// The caller then settles each member's response.
    fn succeeded(&mut self, model: &str, size: usize, worker: usize) {
        self.executing -= 1;
        *self.stats.batches.entry(size).or_insert(0) += 1;
        *self.stats.worker_batches.entry(worker).or_insert(0) += 1;
        if let Some(registered) = self.models.get_mut(model) {
            registered.breaker.record_success();
            registered.last_batch = size;
        }
    }

    /// Settles what a rule `ended` into this state's counters and fulfils
    /// each ticket with its error.
    fn settle(&mut self, ended: Ended) {
        for (request, error) in ended {
            request.settle(&mut self.stats, Err(error));
        }
    }
}

/// `tenant`'s round-robin weight in `weights` (default 1).
fn weight(weights: &BTreeMap<String, u64>, tenant: &str) -> i64 {
    weights.get(tenant).map_or(1, |&w| w as i64)
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

/// A formed batch: same-model requests in admission order, with the model
/// they were admitted against, taken in the lock section that formed them.
struct Batch {
    name: String,
    model: Arc<Model>,
    requests: Vec<Request>,
}

/// State shared between the front-end handles and the workers.
struct Inner {
    cfg: ServeConfig,
    queue: Mutex<QueueState>,
    /// Signaled on every admission, every re-enqueued retry and on
    /// shutdown; only the leader waits on it.
    arrived: Condvar,
    /// Held by the worker forming a batch (the leader); idle workers queue
    /// on it. Taken through `lock_recover`, so a panic while forming
    /// poisons nothing the next leader needs.
    lead: Mutex<()>,
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
            queue: Mutex::new(QueueState {
                open: true,
                ..QueueState::default()
            }),
            arrived: Condvar::new(),
            lead: Mutex::new(()),
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
    /// batch 1 (requests are single-sample; the scheduler batches them). A
    /// name registers once: it is never replaced, so a queued request
    /// always replays the program it was admitted against.
    ///
    /// # Errors
    /// [`ServeError::BadInput`] if `name` is already registered or the
    /// graph's batch extent is not 1, or a wrapped [`ServeError::Exec`] if
    /// the graph does not compile.
    pub fn register_model(
        &self,
        name: impl Into<String>,
        accelerator: FeatherConfig,
        graph: &Graph,
        weights: BTreeMap<NodeId, Tensor4<i8>>,
    ) -> Result<(), ServeError> {
        let name = name.into();
        // A taken name is refused before the compile; `register` checks it
        // again for a registration of the same name that raced this one.
        lock_recover(&self.inner.queue).name_free(&name)?;
        let input_shape = graph.tensor_shape(graph.input());
        if input_shape[0] != 1 {
            return Err(ServeError::BadInput(format!(
                "model `{name}` is authored at batch {} — register batch-1 graphs and let \
                 the scheduler coalesce requests",
                input_shape[0]
            )));
        }
        let program = ProgramSession::new(GraphSession::auto(accelerator, graph)?.compile()?);
        let cost = program.program().cost();
        let model = Model {
            cycles: cost.total_cycles(),
            dram_bytes: cost.dram_bytes(),
            weights,
            input_shape,
            program,
        };
        let mut queue = lock_recover(&self.inner.queue);
        queue.register(&self.inner.cfg, &name, Arc::new(model))
    }

    /// Sets `tenant`'s weight for the round-robin that picks which tenant
    /// each batch serves (clamped to `1..=u32::MAX`; every tenant defaults
    /// to 1). The guarantee: while a set of tenants all stay backlogged, after
    /// `B` batches of `b` requests each tenant has been served within one
    /// batch (`b` requests) of its share `B · b · w / Σw`. A tenant whose
    /// queue drains leaves the round, and its credit or debt is forgotten.
    pub fn set_tenant_weight(&self, tenant: impl Into<String>, weight: u64) {
        let weight = weight.clamp(1, u32::MAX.into());
        lock_recover(&self.inner.queue)
            .weights
            .insert(tenant.into(), weight);
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
        let enqueued = Instant::now();
        let promise = Promise::new();
        let request = Request {
            id: 0,
            tenant: tenant.to_string(),
            model: model.to_string(),
            iacts,
            enqueued,
            // A deadline past what `Instant` can represent is no deadline.
            deadline: deadline.and_then(|d| enqueued.checked_add(d)),
            promise: promise.clone(),
            attempts: 0,
            not_before: None,
        };
        let mut ended = Vec::new();
        let mut queue = lock_recover(&self.inner.queue);
        let admitted = queue.admit(&self.inner.cfg, request, enqueued, &mut ended);
        queue.settle(ended);
        drop(queue);
        let id = admitted?;
        self.inner.arrived.notify_all();
        Ok(Ticket::new(promise, id))
    }

    /// A snapshot of the server's counters, cloned under the queue lock —
    /// the price of one lock — so each call briefly holds up admission,
    /// forming and the end of a batch.
    pub fn stats(&self) -> ServerStats {
        lock_recover(&self.inner.queue).stats.clone()
    }

    /// Whether `model`'s circuit breaker is currently rejecting traffic.
    /// `None` for unregistered models.
    pub fn breaker_open(&self, model: &str) -> Option<bool> {
        let queue = lock_recover(&self.inner.queue);
        queue.models.get(model).map(|m| m.breaker.is_open())
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

/// Moves the requests that ended by `now` out of `requests` into `ended`,
/// each with the error it ends with; the rest keep their order.
fn prune(requests: &mut VecDeque<Request>, now: Instant, ended: &mut Ended) {
    for request in mem::take(requests) {
        match request.ended(now) {
            Some(error) => ended.push((request, error)),
            None => requests.push_back(request),
        }
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
            // Same index, so the replacement's batches count under it in
            // `worker_batches`. It is spawned before the dying thread exits,
            // after that thread re-enqueued its batch's retries: the
            // replacement drains them, even after admission closed.
            lock_recover(&self.inner.queue).stats.respawns += 1;
            spawn_worker(&self.inner, self.worker);
        }
    }
}

/// [`QueueState::fail`] under the `queue` lock the caller holds, then wakes
/// the leader for the retries it re-enqueued. Only a worker calls this, and
/// it (or its replacement) forms again afterwards, so a retry is always
/// drained — shutdown included.
fn fail_batch(
    inner: &Inner,
    mut queue: MutexGuard<'_, QueueState>,
    strike: Option<&str>,
    requests: Vec<Request>,
    reason: &str,
    now: Instant,
) {
    let mut ended = Vec::new();
    queue.fail(&inner.cfg, strike, requests, reason, now, &mut ended);
    queue.settle(ended);
    drop(queue);
    inner.arrived.notify_all();
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
    /// at `now`: the instant until which the batch stays open for same-model
    /// arrivals, or `None` to launch it now. The leader is an idle worker,
    /// so there is no busy executor to wait for:
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
    fn hold(
        &self,
        now: Instant,
        waiting: usize,
        expected: usize,
        batch_time: Duration,
    ) -> Option<Instant> {
        let returns_end = self.start + batch_time;
        let holds = waiting > 0 && waiting < self.max_batch && waiting < expected;
        (holds && now < returns_end).then_some(returns_end)
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
        let mut ended = Vec::new();
        let decision = queue.decide(&inner.cfg, now, &mut ended);
        queue.settle(ended);
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
            let mut queue = lock_recover(&inner.queue);
            queue.stats.worker_panics += u64::from(panics);
            let reason = "injected: worker pickup fault";
            fail_batch(inner, queue, None, batch.requests, reason, Instant::now());
            if panics {
                panic!("injected fault: worker pickup");
            }
            continue;
        }
        execute_batch(inner, worker, batch, &mut scratch);
    }
}

/// Runs one formed batch on `worker` and resolves every member's promise.
/// It takes no lock before its replay. The replay runs under
/// `catch_unwind`: a panic settles only this batch (retry or fail per
/// member) and feeds the model's breaker, then resumes unwinding, so the
/// worker's sentinel replaces it — its scratch state dies with the thread.
/// Success or failure, the batch then ends in one section of the queue
/// lock.
fn execute_batch(inner: &Arc<Inner>, worker: usize, batch: Batch, scratch: &mut ReplayScratch) {
    // One reading ends the members' queueing and starts the replay.
    let launched = Instant::now();
    let live = batch.requests;
    let size = live.len();
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
        let Model {
            program, weights, ..
        } = &*batch.model;
        program
            .run_batched_with_scratch(scratch, &inputs, weights)
            .map_err(ServeError::Exec)
    }));
    let done = Instant::now();
    let replay_us = done.duration_since(launched).as_micros() as u64;
    let mut queue = lock_recover(&inner.queue);
    queue.overload.record_replay(replay_us);
    // A failed replay is one strike on the model's breaker.
    let strike = Some(batch.name.as_str());
    let runs = match runs {
        Ok(Ok(runs)) => runs,
        Ok(Err(err)) => return fail_batch(inner, queue, strike, live, &err.to_string(), done),
        Err(panic) => {
            queue.stats.worker_panics += 1;
            fail_batch(inner, queue, strike, live, "replay panicked", done);
            resume_unwind(panic);
        }
    };
    // Before any member is answered: their returns find it already set.
    queue.succeeded(&batch.name, size, worker);
    for (request, run) in live.into_iter().zip(runs) {
        let response = Response {
            oacts: run.oacts,
            batch_size: size,
            worker,
            queue_us: launched.duration_since(request.enqueued).as_micros() as u64,
            latency_us: request.enqueued.elapsed().as_micros() as u64,
            // Every member is charged the program's constant: a solo
            // inference.
            cycles: batch.model.cycles,
            dram_bytes: batch.model.dram_bytes,
        };
        request.settle(&mut queue.stats, Ok(response));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feather_arch::workload::ConvLayer;
    use proptest::prelude::*;
    use std::sync::OnceLock;

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
    fn a_name_registers_once() {
        // A request queued for `m`, then a second registration of `m` with
        // another input shape: it must be refused, and the request must run
        // the program it was admitted against.
        let g = tiny_graph("m");
        let weights = g.random_weights(12);
        let iacts = Tensor4::random([1, 2, 4, 4], 13);
        let solo = GraphSession::auto(config(), &g).unwrap();
        let golden = solo.run(&iacts, &weights).unwrap().oacts;
        let mut wider = Graph::new("m", [1, 3, 4, 4]);
        wider
            .conv(
                wider.input(),
                ConvLayer::new(1, 2, 3, 4, 4, 1, 1).with_name("only"),
            )
            .unwrap();

        let mut server = Server::unstarted(ServeConfig::default(), None);
        server.register_model("m", config(), &g, weights).unwrap();
        let ticket = server.submit("t", "m", iacts).unwrap();
        let again = server.register_model("m", config(), &wider, wider.random_weights(14));
        assert!(matches!(again, Err(ServeError::BadInput(_))), "{again:?}");
        server.start();
        assert_eq!(ticket.wait().unwrap().oacts, golden);
        server.shutdown();
        let stats = server.stats();
        assert_eq!((stats.completed, stats.retries, stats.failed), (1, 0, 0));
        assert_eq!(server.breaker_open("m"), Some(false));
    }

    #[test]
    fn a_taken_name_is_refused_before_the_compile() {
        // A 128-wide fabric validates but does not route, so only a refusal
        // that comes before the compile can name the taken name.
        let g = tiny_graph("m");
        let server = Server::unstarted(ServeConfig::default(), None);
        server
            .register_model("m", config(), &g, g.random_weights(12))
            .unwrap();
        let again = server.register_model("m", FeatherConfig::new(4, 128), &g, BTreeMap::new());
        let Err(ServeError::BadInput(why)) = again else {
            panic!("{again:?}");
        };
        assert!(why.contains("already registered"), "{why}");
        let fresh = server.register_model("n", FeatherConfig::new(4, 128), &g, BTreeMap::new());
        assert!(matches!(fresh, Err(ServeError::Exec(_))), "{fresh:?}");
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
        let request = request(id, tenant, model, at);
        let promise = request.promise.clone();
        let tq = q.tenants.entry(tenant.to_string()).or_default();
        tq.requests.push_back(request);
        promise
    }

    /// A request arriving at `at`, with no deadline, shaped for the tiny
    /// model.
    fn request(id: u64, tenant: &str, model: &str, at: Instant) -> Request {
        Request {
            id,
            tenant: tenant.to_string(),
            model: model.to_string(),
            iacts: Tensor4::zeros([1, 2, 4, 4]),
            enqueued: at,
            deadline: None,
            promise: Promise::new(),
            attempts: 0,
            not_before: None,
        }
    }

    /// Submits a request through admission at `now` on virtual time,
    /// settling what admission pruned; an enqueued request's id comes back.
    fn admit_at(
        q: &mut QueueState,
        cfg: &ServeConfig,
        tenant: &str,
        model: &str,
        now: Instant,
    ) -> Result<u64, ServeError> {
        let mut ended = Vec::new();
        let admitted = q.admit(cfg, request(0, tenant, model, now), now, &mut ended);
        q.settle(ended);
        admitted
    }

    /// Forms the batch a lone leader launches at `now`, and fails it there
    /// as a replay of its model would.
    fn fail_next_batch(q: &mut QueueState, cfg: &ServeConfig, now: Instant) {
        let mut ended = Vec::new();
        let Decision::Launch(batch) = q.decide(cfg, now, &mut ended) else {
            panic!("nothing to launch");
        };
        q.fail(
            cfg,
            Some(&batch.name),
            batch.requests,
            "injected",
            now,
            &mut ended,
        );
        q.settle(ended);
    }

    fn open_queue() -> QueueState {
        QueueState {
            open: true,
            ..QueueState::default()
        }
    }

    /// Registers the tiny model, compiled once per test binary, under `name`
    /// in `q`, and hands back its entry: how a virtual-time test sets a
    /// model's breaker or last batch size.
    fn register<'q>(q: &'q mut QueueState, cfg: &ServeConfig, name: &str) -> &'q mut Registered {
        static TINY: OnceLock<Arc<Model>> = OnceLock::new();
        let tiny = TINY.get_or_init(|| {
            let g = tiny_graph("m");
            let server = Server::unstarted(ServeConfig::default(), None);
            server
                .register_model("m", config(), &g, g.random_weights(1))
                .unwrap();
            let model = lock_recover(&server.inner.queue).models["m"].model.clone();
            model
        });
        q.register(cfg, name, tiny.clone()).unwrap();
        q.models.get_mut(name).unwrap()
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
        now: Instant,
    ) -> (Seen, Vec<(u64, ServeError)>) {
        let mut dead = Vec::new();
        let seen = match q.decide(cfg, now, &mut dead) {
            Decision::Launch(batch) => {
                Seen::Launch(batch.name, batch.requests.iter().map(|r| r.id).collect())
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
        // decision. The plug leads a batch on a model of its own. 64 queued
        // of 64 trips brownout, so the first batches halve to 2.
        let cfg = ServeConfig {
            max_batch: 4,
            queue_depth: 64,
            workers: 1,
            ..ServeConfig::default()
        };
        let t0 = Instant::now();
        let mut q = open_queue();
        q.weights = BTreeMap::from([("light".to_string(), 4), ("flood".to_string(), 1)]);
        for model in ["mp", "mf", "ml"] {
            register(&mut q, &cfg, model);
        }
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
        let mut flood_done = None;
        loop {
            match decide_at(&mut q, &cfg, t0).0 {
                Seen::Launch(model, ids) => {
                    *completed.entry(tenant_of(&model)).or_default() += ids.len() as u64;
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
        // backlogged: under sustained contention it is served 4 requests to
        // the flood's 1, so the flood advances by at most a quarter of
        // light's volume. (Counted in requests: brownout ends partway, so
        // light's batches are not all the flood's size.) Equal weights would
        // leave the flood at ~43 of 64 here; FIFO would drain it completely
        // first.
        let flood_done = flood_done.expect("light drained");
        assert!(
            4 * flood_done <= 32,
            "the flood got {flood_done} of light's 32"
        );
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The fairness guarantee, on virtual time: 2–4 tenants that stay
        /// backlogged (each refilled to queue depth before every decision),
        /// on one shared model or a model each, in brownout or out of it.
        /// After every batch, each tenant has been served within one batch
        /// of its weighted share `B · batch · w / Σw`.
        #[test]
        fn backlogged_tenants_are_served_in_proportion_to_their_weights(
            weights in proptest::collection::vec(1u64..=8, 2..=4),
            max_batch in 1usize..=8,
            brownout in 0u8..2,
            shared_model in 0u8..2,
        ) {
            let cfg = ServeConfig {
                max_batch,
                queue_depth: 16,
                // Occupancy is always ≥ 0 %, and never reaches 101 %.
                brownout_pct: if brownout == 1 { 0 } else { 101 },
                ..ServeConfig::default()
            };
            let batch = if brownout == 1 { (max_batch / 2).max(1) } else { max_batch };
            let tenants: Vec<String> = (0..weights.len()).map(|i| format!("t{i}")).collect();
            let t0 = Instant::now();
            let mut q = open_queue();
            register(&mut q, &cfg, "m");
            for (i, (tenant, &w)) in tenants.iter().zip(&weights).enumerate() {
                q.weights.insert(tenant.clone(), w);
                register(&mut q, &cfg, &format!("m{i}"));
            }
            let total_weight: u64 = weights.iter().sum();
            let mut served = vec![0u64; tenants.len()];
            let mut next_id = 0..;
            for batches in 1..=200u64 {
                for (i, tenant) in tenants.iter().enumerate() {
                    let model = if shared_model == 1 { "m".to_string() } else { format!("m{i}") };
                    let queued = q.tenants.get(tenant).map_or(0, |tq| tq.requests.len());
                    for id in next_id.by_ref().take(cfg.queue_depth - queued) {
                        enqueue(&mut q, id, tenant, &model, t0);
                    }
                }
                let Decision::Launch(formed) = q.decide(&cfg, t0, &mut Vec::new()) else {
                    return Err(TestCaseError::fail("a backlogged queue must launch"));
                };
                prop_assert_eq!(formed.requests.len(), batch);
                for request in &formed.requests {
                    served[tenants.iter().position(|t| *t == request.tenant).unwrap()] += 1;
                }
                for (i, &w) in weights.iter().enumerate() {
                    let share = (batches * batch as u64 * w) as f64 / total_weight as f64;
                    prop_assert!(
                        (served[i] as f64 - share).abs() <= batch as f64,
                        "after {} batches tenant {} (weight {}) was served {} of its share {:.1}",
                        batches, i, w, served[i], share
                    );
                }
            }
        }
    }

    #[test]
    fn weighted_fair_scheduling_bounds_light_tenant_service_delay() {
        // On virtual time: a flood tenant held at queue depth, and a light
        // tenant that submits one request at a time, the next once the last
        // was served. FIFO would serve each light request behind the
        // flood's whole backlog: 16 batches of 2 here (brownout halves the
        // batch). Round-robin serves it within two batches — a heavier
        // weight only makes the second one rarer.
        let cfg = ServeConfig {
            max_batch: 4,
            queue_depth: 32,
            ..ServeConfig::default()
        };
        let t0 = Instant::now();
        let mut second_batch = BTreeMap::new();
        for light_weight in [1, 4] {
            let mut q = open_queue();
            q.weights.insert("light".to_string(), light_weight);
            register(&mut q, &cfg, "chain");
            register(&mut q, &cfg, "residual");
            let mut ids = 0..;
            let mut waited = 0;
            for _ in 0..24 {
                let light = ids.next().unwrap();
                enqueue(&mut q, light, "light", "chain", t0);
                let mut batches = 0;
                loop {
                    let queued = q.tenants.get("flood").map_or(0, |tq| tq.requests.len());
                    for id in ids.by_ref().take(cfg.queue_depth - queued) {
                        enqueue(&mut q, id, "flood", "residual", t0);
                    }
                    batches += 1;
                    match decide_at(&mut q, &cfg, t0).0 {
                        Seen::Launch(_, ids) if ids.contains(&light) => break,
                        Seen::Launch(model, _) => assert_eq!(model, "residual"),
                        other => panic!("unexpected decision {other:?}"),
                    }
                }
                assert!(
                    batches <= 2,
                    "weight {light_weight}: served after {batches} batches"
                );
                waited += batches - 1;
            }
            second_batch.insert(light_weight, waited);
        }
        // Of 24 light requests, with equal weights every other one waits
        // out a flood batch; at weight 4 one in eight does.
        assert_eq!(second_batch, BTreeMap::from([(1, 12), (4, 3)]));
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
        // Tenant weights clamp to `1..=u32::MAX`, so credit never overflows.
        server.set_tenant_weight("none", 0);
        server.set_tenant_weight("huge", u64::MAX);
        let weights = lock_recover(&server.inner.queue).weights.clone();
        let clamped = [
            ("huge".to_string(), u32::MAX.into()),
            ("none".to_string(), 1),
        ];
        assert_eq!(weights, BTreeMap::from(clamped));
    }

    #[test]
    fn hold_rule_on_virtual_time() {
        const LAUNCH: Option<Instant> = None;
        // Virtual instants: the lead became schedulable at `t0`, `now` is µs
        // after it; the batch time is µs too. Nothing sleeps.
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        #[rustfmt::skip]
        let cases = [
            // case                            max  now  wait exp  batch  decision
            ("lone request, idle executor",      8,    0,  1,   1,  200, LAUNCH),
            ("returns expected",                 8,   50,  3,   8,  200, Some(at(200))),
            ("one batch time elapsed",           8,  200,  3,   8,  200, LAUNCH),
            ("past one batch time",              8,  900,  3,   8,  200, LAUNCH),
            ("waiting reaches expected",         8,   50,  5,   5,  200, LAUNCH),
            ("full batch",                       8,    0,  8,   8,  200, LAUNCH),
            ("brownout-halved full batch",       4,    0,  4,   8,  200, LAUNCH),
            ("model emptied mid-hold",           8,   50,  0,   8,  200, LAUNCH),
            ("batch time 0: no hold",            8,    0,  3,   8,    0, LAUNCH),
            ("first batch: nothing expected",    8,    0,  1,   0,    0, LAUNCH),
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
        let t0 = Instant::now();
        let mut q = open_queue();
        q.overload.record_replay(200);
        register(&mut q, &cfg, "m");
        let mut next_id = 0..;
        for size in 1..=cfg.max_batch {
            let now = t0 + Duration::from_millis(size as u64);
            let ids: Vec<u64> = next_id.by_ref().take(size).collect();
            for &id in &ids {
                enqueue(&mut q, id, "t", "m", now);
            }
            let launch = Seen::Launch("m".to_string(), ids);
            assert_eq!(decide_at(&mut q, &cfg, now).0, launch, "burst of {size}");
            let after = decide_at(&mut q, &cfg, now).0;
            assert_eq!(after, Seen::Wait(None), "burst of {size} split");
            q.models.get_mut("m").unwrap().last_batch = size;
        }
    }

    #[test]
    fn a_closed_loop_hold_waits_one_batch_time_for_every_return() {
        // The model's last batch answered 8 clients in 200 µs; their returns
        // arrive 10 µs apart. Each of the first 7 holds the batch until one
        // batch time after the first arrived; the 8th launches it.
        let cfg = ServeConfig::default();
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let closed_loop = || {
            let mut q = open_queue();
            q.overload.record_replay(200);
            register(&mut q, &cfg, "m").last_batch = 8;
            for id in 0..7 {
                enqueue(&mut q, id, "t", "m", at(10 * id));
            }
            q
        };
        let mut q = closed_loop();
        for now in [0, 10, 30, 60, 199] {
            let seen = decide_at(&mut q, &cfg, at(now)).0;
            assert_eq!(seen, Seen::Wait(Some(at(200))), "7 returns at {now} µs");
        }
        enqueue(&mut q, 7, "t", "m", at(70));
        let seen = decide_at(&mut q, &cfg, at(70)).0;
        assert_eq!(seen, Seen::Launch("m".to_string(), (0..8).collect()));
        // Without the 8th, one batch time launches the 7.
        let mut q = closed_loop();
        let seen = decide_at(&mut q, &cfg, at(200)).0;
        assert_eq!(seen, Seen::Launch("m".to_string(), (0..7).collect()));
    }

    #[test]
    fn a_lead_cancelled_mid_hold_does_not_hold_up_other_models() {
        // Model `a`'s last batch predicts 8 returns, so its lone lead holds.
        // Cancelled mid-hold, it leaves nothing of `a` to wait for: the next
        // decision prunes it and launches the `b` request queued meanwhile.
        let cfg = ServeConfig::default();
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut q = open_queue();
        q.overload.record_replay(200);
        register(&mut q, &cfg, "a").last_batch = 8;
        register(&mut q, &cfg, "b");
        let lead = enqueue(&mut q, 0, "t", "a", at(0));
        let seen = decide_at(&mut q, &cfg, at(0)).0;
        assert_eq!(seen, Seen::Wait(Some(at(200))));
        enqueue(&mut q, 1, "u", "b", at(10));
        lead.cancel();
        let (seen, dead) = decide_at(&mut q, &cfg, at(20));
        assert_eq!(dead, vec![(0, ServeError::Cancelled)]);
        assert_eq!(seen, Seen::Launch("b".to_string(), vec![1]));
        // Admission closed and nothing queued: the leader's pool exits.
        q.open = false;
        assert_eq!(decide_at(&mut q, &cfg, at(30)).0, Seen::Closed);
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
        // On virtual time, at `t0 + k·cooldown`: admission and the failure
        // method drive the breaker through open → probe → re-open → probe →
        // closed. Nothing sleeps.
        let cfg = ServeConfig {
            max_retries: 0,
            breaker_threshold: 2,
            ..ServeConfig::default()
        };
        let t0 = Instant::now();
        let at = |halves: u32| t0 + cfg.breaker_cooldown * halves / 2;
        let mut q = open_queue();
        register(&mut q, &cfg, "m");
        let unavailable = Err(ServeError::Unavailable {
            model: "m".to_string(),
        });
        // Two failed batches open the breaker; submits then fast-fail.
        for id in 0..2 {
            assert_eq!(admit_at(&mut q, &cfg, "t", "m", t0), Ok(id));
            fail_next_batch(&mut q, &cfg, t0);
        }
        assert!(q.models["m"].breaker.is_open());
        assert_eq!(admit_at(&mut q, &cfg, "t", "m", at(1)), unavailable);
        // One cooldown on, one probe is admitted, and only one.
        assert_eq!(admit_at(&mut q, &cfg, "t", "m", at(2)), Ok(2));
        assert_eq!(admit_at(&mut q, &cfg, "u", "m", at(2)), unavailable);
        // The probe fails: a full cooldown again.
        fail_next_batch(&mut q, &cfg, at(2));
        assert_eq!(admit_at(&mut q, &cfg, "t", "m", at(3)), unavailable);
        // The next probe succeeds: the breaker closes and traffic flows.
        assert_eq!(admit_at(&mut q, &cfg, "t", "m", at(4)), Ok(3));
        let Decision::Launch(probe) = q.decide(&cfg, at(4), &mut Vec::new()) else {
            panic!("the probe launches");
        };
        q.succeeded(&probe.name, probe.requests.len(), 0);
        assert!(!q.models["m"].breaker.is_open());
        assert_eq!(admit_at(&mut q, &cfg, "t", "m", at(4)), Ok(4));
        assert_eq!(admit_at(&mut q, &cfg, "u", "m", at(4)), Ok(5));

        let stats = &q.stats;
        assert_eq!(stats.submitted, 9);
        assert_eq!((stats.failed, stats.shed, stats.breaker_opens), (3, 3, 2));
    }

    #[test]
    fn a_refused_request_does_not_use_up_the_half_open_probe() {
        // The breaker is open and its cooldown has elapsed, but the tenant's
        // queue is full: the refusal must leave the probe for a request
        // that is actually enqueued.
        let cfg = ServeConfig {
            queue_depth: 1,
            ..ServeConfig::default()
        };
        let t0 = Instant::now();
        let now = t0 + cfg.breaker_cooldown;
        let mut q = open_queue();
        let mut breaker = CircuitBreaker::new(1, cfg.breaker_cooldown);
        assert!(breaker.record_failure(t0));
        register(&mut q, &cfg, "m").breaker = breaker;
        register(&mut q, &cfg, "other");
        enqueue(&mut q, 0, "t", "other", t0);
        let full = admit_at(&mut q, &cfg, "t", "m", now);
        assert_eq!(full, Err(ServeError::QueueFull { depth: 1 }));
        // Room frees at the same `now`: the queued request launches.
        let launch = Seen::Launch("other".to_string(), vec![0]);
        assert_eq!(decide_at(&mut q, &cfg, now).0, launch);
        assert!(admit_at(&mut q, &cfg, "t", "m", now).is_ok(), "the probe");
        let probing = admit_at(&mut q, &cfg, "u", "m", now);
        assert!(matches!(probing, Err(ServeError::Unavailable { .. })));
    }

    #[test]
    fn request_ids_are_admission_sequence_numbers() {
        // On virtual time: each enqueued request takes the next id, and a
        // request refused at admission (queue full, breaker open, unknown
        // model, wrong input shape, shut down) takes none. An unknown model
        // or a wrong shape is not even counted as submitted. A batch holds
        // its members in id order.
        let cfg = ServeConfig {
            queue_depth: 2,
            ..ServeConfig::default()
        };
        let t0 = Instant::now();
        let mut q = open_queue();
        register(&mut q, &cfg, "m");
        let mut breaker = CircuitBreaker::new(1, cfg.breaker_cooldown);
        assert!(breaker.record_failure(t0));
        register(&mut q, &cfg, "down").breaker = breaker;
        let unknown = Err(ServeError::UnknownModel("nope".to_string()));
        assert_eq!(admit_at(&mut q, &cfg, "b", "m", t0), Ok(0));
        assert_eq!(admit_at(&mut q, &cfg, "a", "m", t0), Ok(1));
        assert_eq!(admit_at(&mut q, &cfg, "a", "m", t0), Ok(2));
        let full = admit_at(&mut q, &cfg, "a", "m", t0);
        assert_eq!(full, Err(ServeError::QueueFull { depth: 2 }));
        let down = admit_at(&mut q, &cfg, "c", "down", t0);
        assert!(matches!(down, Err(ServeError::Unavailable { .. })));
        assert_eq!(q.stats.submitted, 5);
        assert_eq!(admit_at(&mut q, &cfg, "c", "nope", t0), unknown);
        let mut wrong = request(0, "c", "m", t0);
        wrong.iacts = Tensor4::zeros([1, 3, 4, 4]);
        let misshapen = q.admit(&cfg, wrong, t0, &mut Vec::new());
        assert!(
            matches!(misshapen, Err(ServeError::BadInput(_))),
            "{misshapen:?}"
        );
        assert_eq!(q.stats.submitted, 5);
        let launch = Seen::Launch("m".to_string(), vec![0, 1, 2]);
        assert_eq!(decide_at(&mut q, &cfg, t0).0, launch);
        assert_eq!(admit_at(&mut q, &cfg, "a", "m", t0), Ok(3));
        q.open = false;
        let closed = admit_at(&mut q, &cfg, "a", "m", t0);
        assert_eq!(closed, Err(ServeError::Shutdown));
        // An unknown model reads as such even once admission closed.
        assert_eq!(admit_at(&mut q, &cfg, "a", "nope", t0), unknown);
        q.open = true;
        assert_eq!(admit_at(&mut q, &cfg, "c", "m", t0), Ok(4));
        assert_eq!(q.stats.submitted, 7);
    }

    /// Ends a launched `batch` as a successful replay on `worker` does:
    /// [`QueueState::succeeded`], then every member settled with its
    /// response.
    fn succeed(q: &mut QueueState, batch: Batch, worker: usize) {
        let size = batch.requests.len();
        q.succeeded(&batch.name, size, worker);
        for request in batch.requests {
            let response = Response {
                oacts: Tensor4::zeros([1, 1, 1, 1]),
                batch_size: size,
                worker,
                queue_us: 0,
                latency_us: 0,
                cycles: 1,
                dram_bytes: 1,
            };
            request.settle(&mut q.stats, Ok(response));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Conservation on virtual time, from the counters alone: random
        /// admissions (with deadlines, some for a model never registered),
        /// cancels, decisions and batch ends
        /// (replays that succeed, fail, or fault at pickup), under retry
        /// budgets, breakers and brownout. After every step each submitted
        /// request is accounted, queued, or in a launched batch; the
        /// executing gauge counts the launched batches not yet ended, and
        /// its high-water mark is theirs. Admission then closes and the
        /// queues drain to quiescence.
        #[test]
        fn every_submitted_request_is_accounted_queued_or_launched(
            steps in proptest::collection::vec(0u64..1 << 40, 1..160),
            max_batch in 1usize..=4,
            queue_depth in 1usize..=4,
            max_retries in 0u32..=2,
            breaker_threshold in 0u32..=3,
            brownout in 0u8..2,
        ) {
            let cfg = ServeConfig {
                max_batch,
                queue_depth,
                max_retries,
                breaker_threshold,
                brownout_pct: if brownout == 1 { 50 } else { 101 },
                ..ServeConfig::default()
            };
            let models = ["m0", "m1"];
            let mut q = open_queue();
            for model in models {
                register(&mut q, &cfg, model);
            }
            let mut now = Instant::now();
            let mut promises = Vec::new();
            let mut launched: Vec<Batch> = Vec::new();
            let mut peak = 0;
            let us = Duration::from_micros;
            for step in steps {
                let (op, arg) = (step % 8, (step / 8 % 64) as usize);
                now += us(step / 512 % 400);
                let mut ended = Vec::new();
                match op {
                    0 | 1 => {
                        let tenant = ["t0", "t1", "t2"][arg % 3];
                        // One submission in three names a model never
                        // registered: refused, and not counted as submitted.
                        let model = ["m0", "m1", "gone"][arg / 3 % 3];
                        let mut request = request(0, tenant, model, now);
                        request.deadline = (arg >= 32).then(|| now + us(arg as u64 * 10));
                        let promise = request.promise.clone();
                        let admitted = q.admit(&cfg, request, now, &mut ended);
                        let unknown = Err(ServeError::UnknownModel(model.to_string()));
                        prop_assert_eq!(model == "gone", admitted == unknown);
                        if admitted.is_ok() {
                            promises.push(promise);
                        }
                    }
                    2 if !promises.is_empty() => promises[arg % promises.len()].cancel(),
                    3 | 4 => {
                        if let Decision::Launch(batch) = q.decide(&cfg, now, &mut ended) {
                            launched.push(batch);
                        }
                    }
                    5 if !launched.is_empty() => {
                        let batch = launched.swap_remove(arg % launched.len());
                        q.overload.record_replay(50 + arg as u64);
                        succeed(&mut q, batch, arg % 2);
                    }
                    6 | 7 if !launched.is_empty() => {
                        let batch = launched.swap_remove(arg % launched.len());
                        // An odd `arg` is a worker's own fault at pickup.
                        let strike = (arg % 2 == 0).then_some(batch.name.as_str());
                        q.fail(&cfg, strike, batch.requests, "injected", now, &mut ended);
                    }
                    _ => {}
                }
                q.settle(ended);
                peak = peak.max(launched.len() as u64);
                let queued = q.requests().count() as u64;
                let in_flight: u64 = launched.iter().map(|b| b.requests.len() as u64).sum();
                let stats = &q.stats;
                prop_assert_eq!(stats.submitted, stats.accounted() + queued + in_flight);
                prop_assert_eq!(q.executing, launched.len() as u64);
                prop_assert_eq!(stats.max_concurrent_batches, peak);
            }

            // Quiescence: admission closes, every launched batch succeeds,
            // and the leader drains the rest, retries in backoff included.
            q.open = false;
            for batch in launched.drain(..) {
                succeed(&mut q, batch, 0);
            }
            for _ in 0..10_000 {
                let mut ended = Vec::new();
                let decision = q.decide(&cfg, now, &mut ended);
                q.settle(ended);
                match decision {
                    Decision::Launch(batch) => {
                        peak = peak.max(1);
                        succeed(&mut q, batch, 0);
                    }
                    Decision::Wait(until) => now = until.unwrap_or(now + us(1)),
                    Decision::Closed => break,
                }
            }
            prop_assert_eq!(q.requests().count(), 0);
            prop_assert_eq!(q.executing, 0);
            prop_assert_eq!(q.stats.submitted, q.stats.accounted());
            prop_assert_eq!(q.stats.max_concurrent_batches, peak);
        }
    }

    #[test]
    fn failing_replays_open_the_breaker_and_submits_fast_fail() {
        // The threaded half of the breaker: failed replays reach it through
        // the workers, and an open breaker refuses at submit. The cooldown
        // outlasts the test; the probe sequence runs on virtual time
        // (`circuit_breaker_opens_fast_fails_and_recovers_via_probe`).
        let g = tiny_graph("m");
        let plan = FaultPlan::seeded(5).with_fail_first(FaultSite::ReplayEntry, 2);
        let mut server = Server::with_fault_plan(
            ServeConfig {
                max_retries: 0,
                breaker_threshold: 2,
                breaker_cooldown: Duration::from_secs(3600),
                ..ServeConfig::default()
            },
            Some(plan),
        );
        server
            .register_model("m", config(), &g, g.random_weights(70))
            .unwrap();
        let iacts = Tensor4::random([1, 2, 4, 4], 71);
        assert_eq!(server.breaker_open("m"), Some(false));
        assert_eq!(server.breaker_open("nope"), None);
        // Serial submits keep each request in its own batch.
        for _ in 0..2 {
            let result = server.submit("t", "m", iacts.clone()).unwrap().wait();
            assert!(matches!(result, Err(ServeError::Failed(_))), "{result:?}");
        }
        assert_eq!(server.breaker_open("m"), Some(true));
        let result = server.submit("t", "m", iacts).map(|t| t.id());
        assert!(
            matches!(result, Err(ServeError::Unavailable { .. })),
            "{result:?}"
        );
        server.shutdown();
        let stats = server.stats();
        assert_eq!(stats.failed, 2);
        assert_eq!(stats.shed, 1, "the fast-fail while open counts as shed");
        assert_eq!(stats.breaker_opens, 1);
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
