//! A multi-producer match service over the [`Runner`] facade.
//!
//! [`MatchService`] accepts concurrent match/verify requests
//! ([`JobSpec`]) on a **bounded** submission queue (a full queue rejects
//! with [`SubmitError::Busy`] — backpressure, not unbounded buffering),
//! schedules them over a fixed pool of worker threads, and returns
//! [`JobResult`]s over a completion queue. Three properties carry the
//! design:
//!
//! * **Workspace pooling.** Workers check reusable
//!   [`Workspace`] arenas out of a bounded pool and back in when done,
//!   so the steady state allocates no per-node scratch per job (see
//!   [`Workspace`] for what a run still allocates). An arena checked in
//!   by a *panicked* job is [`Workspace::scrub`]bed first; the next
//!   checkout sees fresh-workspace behavior (the `arena_reuse` suite in
//!   `parmatch-core` pins this).
//! * **Batch coalescing.** Small Match1 jobs whose lists share a
//!   [`BatchKey`] (same width class, convergence rounds, and coin
//!   variant) are drained opportunistically from the queue and fused
//!   into **one** [`match1_batch_in`] sweep over a concatenated arena
//!   with per-job offsets. Fused results are bit-identical to per-job
//!   [`Runner`] runs — batching is a pure throughput optimization.
//! * **Isolation.** Each job runs under `catch_unwind`: a panicking job
//!   (cancellation probe, deadline trip, fault-corrupted assertion, or
//!   a genuine bug) produces a [`JobError`] for *that job only* — the
//!   worker, the arena pool, and every other job keep going.
//!
//! Cancellation ([`MatchService::cancel`]) and deadlines are honored at
//! *phase boundaries*: an enabled probe observer checks the job's flag
//! each time the matcher opens a span and unwinds with a typed token,
//! classified back into [`JobError::Cancelled`] /
//! [`JobError::DeadlineExceeded`].
//!
//! Jobs carrying a [`FaultPlan`] run through
//! [`parmatch_testkit::run_verified`] instead — the self-checking
//! PRAM harness with injected faults — and report a
//! [`VerifiedRun`] classification.
//!
//! ```
//! use parmatch_service::{JobSpec, MatchService, ServiceConfig};
//! use parmatch_core::prelude::*;
//! use parmatch_list::random_list;
//!
//! let svc = MatchService::start(ServiceConfig::default());
//! let list = random_list(500, 1);
//! let id = svc.submit(JobSpec::new(Algorithm::Match1, list.clone())).unwrap();
//! let result = svc.recv().unwrap();
//! assert_eq!(result.id, id);
//! let out = result.output.unwrap();
//! // bit-identical to a direct Runner run
//! let solo = Runner::new(Algorithm::Match1).run(&list);
//! assert_eq!(out.matching().unwrap(), solo.matching());
//! svc.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use parmatch_core::batch::{match1_batch_in, BatchKey, BatchPlan};
use parmatch_core::obs::{NoopObserver, Observer, Recorder, Recording};
use parmatch_core::runner::{Algorithm, MatchOutcome, Runner, RunnerError};
use parmatch_core::{Match3Config, Matching, Workspace};
use parmatch_list::LinkedList;
use parmatch_pram::fault::FaultPlan;
use parmatch_testkit::{run_verified, with_expected_panics, MatcherKind, VerifiedRun};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TryRecvError, TrySendError};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Identifier of a submitted job, unique within one [`MatchService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// One match/verify request, defined in terms of the [`Runner`] knobs.
///
/// Built with [`JobSpec::new`] plus the chained setters; defaults match
/// [`Runner::new`] (MSB coins, 2 rounds, 2 levels, default Match3
/// config, ambient thread pool, no deadline, no observer, no faults).
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Which algorithm to run.
    pub algorithm: Algorithm,
    /// The input list (owned — the service outlives the caller's frame).
    pub list: LinkedList,
    /// Coin-tossing variant.
    pub variant: parmatch_core::CoinVariant,
    /// Relabel rounds (Match2).
    pub rounds: u32,
    /// Partition levels (Match4).
    pub levels: u32,
    /// Match3 configuration.
    pub config: Match3Config,
    /// Per-job private thread count (`None` = the service's shared
    /// pool). Matches [`Runner::threads`] semantics.
    pub threads: Option<usize>,
    /// Deadline measured from submission; exceeded ⇒
    /// [`JobError::DeadlineExceeded`], checked at phase boundaries.
    pub deadline: Option<Duration>,
    /// Record a span tree for this job ([`JobResult::recording`], also
    /// grafted under the service-level root span).
    pub observed: bool,
    /// Run the job through the self-checking fault harness with this
    /// plan armed instead of the native pipeline.
    pub fault_plan: Option<FaultPlan>,
}

impl JobSpec {
    /// A job with the [`Runner`] defaults.
    pub fn new(algorithm: Algorithm, list: LinkedList) -> Self {
        JobSpec {
            algorithm,
            list,
            variant: parmatch_core::CoinVariant::Msb,
            rounds: 2,
            levels: 2,
            config: Match3Config::default(),
            threads: None,
            deadline: None,
            observed: false,
            fault_plan: None,
        }
    }

    /// Set the coin variant (also mirrored into the Match3 config, as
    /// [`Runner::variant`] does).
    pub fn variant(mut self, variant: parmatch_core::CoinVariant) -> Self {
        self.variant = variant;
        self.config.variant = variant;
        self
    }

    /// Set the Match2 round count.
    pub fn rounds(mut self, rounds: u32) -> Self {
        self.rounds = rounds;
        self
    }

    /// Set the Match4 level count.
    pub fn levels(mut self, levels: u32) -> Self {
        self.levels = levels;
        self
    }

    /// Set the full Match3 configuration.
    pub fn config(mut self, config: Match3Config) -> Self {
        self.config = config;
        self
    }

    /// Run in a private pool of `threads` workers.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Set a deadline measured from submission.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Request a per-job span-tree recording.
    pub fn observed(mut self) -> Self {
        self.observed = true;
        self
    }

    /// Arm a fault plan: the job runs through the verified harness.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Whether this job may be fused into a batch: plain Match1 runs
    /// with no per-job pool, deadline, observer, or faults, on a list
    /// large enough to carry a [`BatchKey`].
    fn batch_key(&self) -> Option<BatchKey> {
        if self.algorithm != Algorithm::Match1
            || self.threads.is_some()
            || self.deadline.is_some()
            || self.observed
            || self.fault_plan.is_some()
        {
            return None;
        }
        BatchKey::of(self.list.len(), self.variant)
    }
}

/// Why [`MatchService::submit`] refused a job. The spec is handed back
/// (as `std::sync::mpsc::TrySendError` does) so the caller can retry it
/// after draining a result.
#[derive(Debug)]
pub enum SubmitError {
    /// The bounded submission queue is full — backpressure; drain a
    /// completion or shed load, then retry with the returned spec.
    Busy(JobSpec),
    /// The service has shut down.
    Closed(JobSpec),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Busy(_) => f.write_str("submission queue full"),
            SubmitError::Closed(_) => f.write_str("service shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a job produced no output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// Cancelled via [`MatchService::cancel`] (before or mid-run).
    Cancelled,
    /// The job's deadline passed (before or mid-run).
    DeadlineExceeded,
    /// The runner rejected the job's knobs (`rounds == 0` for Match2,
    /// `levels == 0` for Match4) or the Match3 table stage failed.
    Failed(RunnerError),
    /// The job panicked; the message is carried, the worker and its
    /// arena survive.
    Panicked(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Cancelled => f.write_str("cancelled"),
            JobError::DeadlineExceeded => f.write_str("deadline exceeded"),
            JobError::Failed(e) => write!(f, "runner error: {e}"),
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

/// What a successful job produced.
#[derive(Debug, Clone)]
pub enum JobOutput {
    /// A native [`Runner`] run (solo or fused into a batch).
    Matched(MatchOutcome),
    /// A fault-injected run through the self-checking harness.
    Verified(VerifiedRun),
}

impl JobOutput {
    /// The matching, when one was produced (native runs always carry
    /// one; a verified run only if its final attempt verified).
    pub fn matching(&self) -> Option<&Matching> {
        match self {
            JobOutput::Matched(out) => Some(out.matching()),
            JobOutput::Verified(_) => None,
        }
    }

    /// The native outcome, if this was a match job.
    pub fn as_matched(&self) -> Option<&MatchOutcome> {
        match self {
            JobOutput::Matched(out) => Some(out),
            JobOutput::Verified(_) => None,
        }
    }

    /// The harness classification, if this was a verify job.
    pub fn as_verified(&self) -> Option<&VerifiedRun> {
        match self {
            JobOutput::Verified(run) => Some(run),
            JobOutput::Matched(_) => None,
        }
    }
}

/// One completed job, delivered on the completion queue.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The id [`MatchService::submit`] returned.
    pub id: JobId,
    /// The output, or why there is none.
    pub output: Result<JobOutput, JobError>,
    /// Whether the job ran fused into a batch (vs. solo).
    pub batched: bool,
    /// The job's span tree, when the spec asked to be observed.
    pub recording: Option<Recording>,
}

/// Service sizing. `Default` is a small conservative setup (2 workers,
/// 64-deep queue, one arena per worker, 32-job batch gulps).
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Submission-queue depth; a full queue makes [`MatchService::submit`]
    /// return [`SubmitError::Busy`].
    pub queue_depth: usize,
    /// Reusable [`Workspace`] arenas in the pool (checkout blocks when
    /// all are loaned out).
    pub arenas: usize,
    /// Most jobs one worker drains into a single gulp — the upper bound
    /// on fused-batch size.
    pub max_batch: usize,
    /// Rayon threads each job runs with on the shared pool (`0` = the
    /// ambient default). Per-job [`JobSpec::threads`] overrides this.
    pub threads_per_job: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_depth: 64,
            arenas: 2,
            max_batch: 32,
            threads_per_job: 0,
        }
    }
}

/// What [`MatchService::shutdown`] hands back.
#[derive(Debug)]
pub struct ShutdownReport {
    /// Results completed but never received by the caller.
    pub pending: Vec<JobResult>,
    /// The service-level span tree: one `job#N` child per observed job,
    /// each carrying that job's grafted recording.
    pub recording: Recording,
}

// ---------------------------------------------------------------------
// internals
// ---------------------------------------------------------------------

/// Typed unwind token the cancellation probe throws; classified back
/// into a [`JobError`] by the worker's `catch_unwind`.
enum CancelToken {
    Cancelled,
    Deadline,
}

/// An enabled observer that checks the job's cancel flag and deadline
/// every time the matcher opens a span — phase-boundary cancellation —
/// then forwards to the inner observer (a [`Recorder`] for observed
/// jobs, [`NoopObserver`] otherwise).
struct CancelProbe<'a, O: Observer> {
    inner: &'a mut O,
    cancel: &'a AtomicBool,
    deadline: Option<Instant>,
    /// Test-only fault injection: panic on entering this span, so the
    /// unwind path (arena guard, scrub, classification) runs mid-job.
    #[cfg(test)]
    panic_on: Option<&'static str>,
}

impl<O: Observer> Observer for CancelProbe<'_, O> {
    const ENABLED: bool = true;

    fn enter(&mut self, label: &str) {
        if self.cancel.load(Ordering::Relaxed) {
            std::panic::panic_any(CancelToken::Cancelled);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                std::panic::panic_any(CancelToken::Deadline);
            }
        }
        #[cfg(test)]
        if self.panic_on == Some(label) {
            panic!("injected panic at span {label}");
        }
        self.inner.enter(label);
    }

    fn exit(&mut self) {
        self.inner.exit();
    }

    fn counter(&mut self, name: &str, value: u64) {
        self.inner.counter(name, value);
    }

    fn bounded(&mut self, name: &str, value: u64, bound: u64) {
        self.inner.bounded(name, value, bound);
    }
}

/// The bounded arena pool: checkout blocks until an arena is free;
/// check-in scrubs first when the job poisoned it.
#[derive(Debug)]
struct ArenaPool {
    slots: Mutex<Vec<Workspace>>,
    available: Condvar,
    /// Poisoned check-ins so far (tests assert the scrub ran).
    #[cfg(test)]
    scrubs: std::sync::atomic::AtomicUsize,
}

impl ArenaPool {
    fn new(count: usize) -> Self {
        ArenaPool {
            slots: Mutex::new((0..count).map(|_| Workspace::new()).collect()),
            available: Condvar::new(),
            #[cfg(test)]
            scrubs: Default::default(),
        }
    }

    fn checkout(&self) -> Workspace {
        let mut slots = self.slots.lock().expect("arena pool poisoned");
        loop {
            if let Some(ws) = slots.pop() {
                return ws;
            }
            slots = self.available.wait(slots).expect("arena pool poisoned");
        }
    }

    fn checkin(&self, mut ws: Workspace, poisoned: bool) {
        if poisoned {
            ws.scrub();
            #[cfg(test)]
            self.scrubs.fetch_add(1, Ordering::Relaxed);
        }
        self.slots.lock().expect("arena pool poisoned").push(ws);
        self.available.notify_one();
    }
}

/// Returns the loaned arena on every exit path — including unwinds, so
/// a panicking job never leaks its arena (it gets scrubbed instead).
struct ArenaGuard<'a> {
    pool: &'a ArenaPool,
    ws: Option<Workspace>,
}

impl<'a> ArenaGuard<'a> {
    fn new(pool: &'a ArenaPool, ws: Workspace) -> Self {
        ArenaGuard { pool, ws: Some(ws) }
    }

    fn ws(&mut self) -> &mut Workspace {
        self.ws.as_mut().expect("arena held until guard drops")
    }
}

impl Drop for ArenaGuard<'_> {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            self.pool.checkin(ws, std::thread::panicking());
        }
    }
}

struct Envelope {
    id: JobId,
    spec: JobSpec,
    submitted: Instant,
    cancel: Arc<AtomicBool>,
}

impl Envelope {
    fn deadline_at(&self) -> Option<Instant> {
        self.spec.deadline.map(|d| self.submitted + d)
    }
}

#[derive(Debug)]
struct Shared {
    jobs: Mutex<Receiver<Envelope>>,
    arenas: ArenaPool,
    cancels: Mutex<HashMap<JobId, Arc<AtomicBool>>>,
    recorder: Mutex<Recorder>,
}

/// The batched concurrent match service. See the [module docs](self).
///
/// Completion is pull-based: [`recv`](MatchService::recv) /
/// [`try_recv`](MatchService::try_recv) deliver [`JobResult`]s in the
/// order jobs *finish* (not submission order — use [`JobResult::id`]).
#[derive(Debug)]
pub struct MatchService {
    submit_tx: SyncSender<Envelope>,
    done_rx: Receiver<JobResult>,
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    next_id: AtomicU64,
}

impl MatchService {
    /// Spin up the worker pool and arena pool.
    pub fn start(config: ServiceConfig) -> MatchService {
        let workers = config.workers.max(1);
        let queue_depth = config.queue_depth.max(1);
        let arenas = config.arenas.max(1);
        let max_batch = config.max_batch.max(1);
        let (submit_tx, submit_rx) = mpsc::sync_channel::<Envelope>(queue_depth);
        let (done_tx, done_rx) = mpsc::channel::<JobResult>();
        let mut recorder = Recorder::new();
        recorder.enter("service");
        let shared = Arc::new(Shared {
            jobs: Mutex::new(submit_rx),
            arenas: ArenaPool::new(arenas),
            cancels: Mutex::new(HashMap::new()),
            recorder: Mutex::new(recorder),
        });
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(config.threads_per_job)
            .build()
            .expect("thread pool construction cannot fail");
        let handles = (0..workers)
            .map(|k| {
                let shared = Arc::clone(&shared);
                let done = done_tx.clone();
                let pool = pool.clone();
                std::thread::Builder::new()
                    .name(format!("parmatch-worker-{k}"))
                    .spawn(move || worker_loop(&shared, &done, &pool, max_batch))
                    .expect("spawning a worker thread cannot fail")
            })
            .collect();
        MatchService {
            submit_tx,
            done_rx,
            shared,
            workers: handles,
            next_id: AtomicU64::new(0),
        }
    }

    /// Enqueue a job. Fails with [`SubmitError::Busy`] when the bounded
    /// queue is full — the caller decides whether to retry, shed, or
    /// block; the service never buffers unboundedly.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let cancel = Arc::new(AtomicBool::new(false));
        self.shared
            .cancels
            .lock()
            .expect("cancel registry poisoned")
            .insert(id, Arc::clone(&cancel));
        let env = Envelope {
            id,
            spec,
            submitted: Instant::now(),
            cancel,
        };
        match self.submit_tx.try_send(env) {
            Ok(()) => Ok(id),
            Err(e) => {
                self.shared
                    .cancels
                    .lock()
                    .expect("cancel registry poisoned")
                    .remove(&id);
                Err(match e {
                    TrySendError::Full(env) => SubmitError::Busy(env.spec),
                    TrySendError::Disconnected(env) => SubmitError::Closed(env.spec),
                })
            }
        }
    }

    /// Request cancellation of a queued or running job. Returns whether
    /// the job was still in flight; the result (when the flag is seen in
    /// time) is [`JobError::Cancelled`].
    pub fn cancel(&self, id: JobId) -> bool {
        match self
            .shared
            .cancels
            .lock()
            .expect("cancel registry poisoned")
            .get(&id)
        {
            Some(flag) => {
                flag.store(true, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Block for the next completed job; `None` only after shutdown has
    /// drained everything (cannot happen while `self` is alive).
    pub fn recv(&self) -> Option<JobResult> {
        self.done_rx.recv().ok()
    }

    /// The next completed job, if one is ready.
    pub fn try_recv(&self) -> Option<JobResult> {
        match self.done_rx.try_recv() {
            Ok(r) => Some(r),
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
        }
    }

    /// Collect results until `count` jobs have completed.
    pub fn recv_n(&self, count: usize) -> Vec<JobResult> {
        (0..count).filter_map(|_| self.recv()).collect()
    }

    /// Stop accepting jobs, finish everything queued, join the workers,
    /// and hand back unreceived results plus the service-level span
    /// tree.
    pub fn shutdown(self) -> ShutdownReport {
        let MatchService {
            submit_tx,
            done_rx,
            shared,
            workers,
            ..
        } = self;
        drop(submit_tx); // workers' recv() errors out once the queue drains
        for handle in workers {
            let _ = handle.join();
        }
        let pending = done_rx.try_iter().collect();
        let recorder =
            std::mem::take(&mut *shared.recorder.lock().expect("service recorder poisoned"));
        ShutdownReport {
            pending,
            recording: recorder.finish(),
        }
    }
}

fn worker_loop(
    shared: &Shared,
    done: &Sender<JobResult>,
    pool: &rayon::ThreadPool,
    max_batch: usize,
) {
    loop {
        // One blocking recv, then an opportunistic gulp: whatever is
        // already queued (up to max_batch) comes along, giving the batch
        // coalescer something to fuse under load while staying
        // zero-latency when the queue is quiet.
        let mut gulp = Vec::new();
        {
            let rx = shared.jobs.lock().expect("job queue poisoned");
            match rx.recv() {
                Ok(env) => gulp.push(env),
                Err(_) => return, // service shut down and queue drained
            }
            while gulp.len() < max_batch {
                match rx.try_recv() {
                    Ok(env) => gulp.push(env),
                    Err(_) => break,
                }
            }
        }

        // Group fusable Match1 jobs by batch key; everything else (and
        // any group of one) runs solo in arrival order.
        let mut groups: HashMap<BatchKey, Vec<Envelope>> = HashMap::new();
        let mut solo = Vec::new();
        for env in gulp {
            match env.spec.batch_key() {
                Some(key) => groups.entry(key).or_default().push(env),
                None => solo.push(env),
            }
        }
        let mut batches = Vec::new();
        for (_, group) in groups {
            if group.len() >= 2 {
                batches.push(group);
            } else {
                solo.extend(group);
            }
        }
        for batch in batches {
            run_batch(shared, done, batch);
        }
        solo.sort_by_key(|env| env.id);
        for env in solo {
            run_solo(shared, done, pool, env);
        }
    }
}

fn complete(shared: &Shared, done: &Sender<JobResult>, result: JobResult) {
    shared
        .cancels
        .lock()
        .expect("cancel registry poisoned")
        .remove(&result.id);
    let _ = done.send(result);
}

/// Run a fused batch of same-key Match1 jobs as one sweep. Falls back to
/// solo runs if the fused sweep itself panics (it should not — batch
/// jobs carry no probes or faults — but isolation must not depend on
/// that).
fn run_batch(shared: &Shared, done: &Sender<JobResult>, batch: Vec<Envelope>) {
    let mut live = Vec::new();
    for env in batch {
        if env.cancel.load(Ordering::Relaxed) {
            complete(
                shared,
                done,
                JobResult {
                    id: env.id,
                    output: Err(JobError::Cancelled),
                    batched: true,
                    recording: None,
                },
            );
        } else {
            live.push(env);
        }
    }
    match live.len() {
        0 => return,
        1 => {
            // a lone survivor gains nothing from the batch path
            let env = live.pop().expect("len checked");
            return run_solo_unpooled(shared, done, env);
        }
        _ => {}
    }
    let lists: Vec<&LinkedList> = live.iter().map(|env| &env.spec.list).collect();
    let variant = live[0].spec.variant;
    let plan = BatchPlan::new(&lists, variant).expect("grouped by identical BatchKey");
    let ws = shared.arenas.checkout();
    let outs = with_expected_panics(|| {
        catch_unwind(AssertUnwindSafe(|| {
            let mut guard = ArenaGuard::new(&shared.arenas, ws);
            match1_batch_in(&lists, &plan, guard.ws())
        }))
    });
    match outs {
        Ok(outs) => {
            for (env, out) in live.into_iter().zip(outs) {
                complete(
                    shared,
                    done,
                    JobResult {
                        id: env.id,
                        output: Ok(JobOutput::Matched(MatchOutcome::Match1(out))),
                        batched: true,
                        recording: None,
                    },
                );
            }
        }
        Err(_) => {
            for env in live {
                run_solo_unpooled(shared, done, env);
            }
        }
    }
}

fn run_solo_unpooled(shared: &Shared, done: &Sender<JobResult>, env: Envelope) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(0)
        .build()
        .expect("thread pool construction cannot fail");
    run_solo(shared, done, &pool, env);
}

fn run_solo(shared: &Shared, done: &Sender<JobResult>, pool: &rayon::ThreadPool, env: Envelope) {
    let id = env.id;
    // Pre-run checks: a job cancelled or expired while queued never
    // touches an arena.
    if env.cancel.load(Ordering::Relaxed) {
        return complete(
            shared,
            done,
            JobResult {
                id,
                output: Err(JobError::Cancelled),
                batched: false,
                recording: None,
            },
        );
    }
    let deadline_at = env.deadline_at();
    if deadline_at.is_some_and(|d| Instant::now() >= d) {
        return complete(
            shared,
            done,
            JobResult {
                id,
                output: Err(JobError::DeadlineExceeded),
                batched: false,
                recording: None,
            },
        );
    }

    // Verify jobs run through the self-checking fault harness (which
    // builds its own PRAM machine — no arena involved).
    if let Some(plan) = env.spec.fault_plan.clone() {
        let kind = matcher_kind(env.spec.algorithm);
        let budget = plan.sites.len() as u32 + 2;
        let list = env.spec.list;
        let run = with_expected_panics(|| {
            catch_unwind(AssertUnwindSafe(|| {
                run_verified(kind, &list, &plan, budget)
            }))
        });
        let output = match run {
            Ok(v) => Ok(JobOutput::Verified(v)),
            Err(payload) => Err(classify_panic(payload)),
        };
        return complete(
            shared,
            done,
            JobResult {
                id,
                output,
                batched: false,
                recording: None,
            },
        );
    }

    let ws = shared.arenas.checkout();
    let cancel = Arc::clone(&env.cancel);
    let spec = env.spec;
    let run = with_expected_panics(|| {
        catch_unwind(AssertUnwindSafe(|| {
            let mut guard = ArenaGuard::new(&shared.arenas, ws);
            let exec = |ws: &mut Workspace| execute(&spec, ws, &cancel, deadline_at);
            if spec.threads.is_some() {
                // Runner installs the private pool itself.
                exec(guard.ws())
            } else {
                pool.install(|| exec(guard.ws()))
            }
        }))
    });
    let (output, recording) = match run {
        Ok((Ok(outcome), rec)) => (Ok(JobOutput::Matched(outcome)), rec),
        Ok((Err(e), rec)) => (Err(JobError::Failed(e)), rec),
        Err(payload) => (Err(classify_panic(payload)), None),
    };
    if let Some(rec) = &recording {
        let mut svc = shared.recorder.lock().expect("service recorder poisoned");
        svc.enter(&format!("{id}"));
        svc.adopt(rec.clone());
        svc.exit();
    }
    complete(
        shared,
        done,
        JobResult {
            id,
            output,
            batched: false,
            recording,
        },
    );
}

/// One solo job body: build the [`Runner`] from the spec and run it
/// under the cancellation probe.
fn execute(
    spec: &JobSpec,
    ws: &mut Workspace,
    cancel: &AtomicBool,
    deadline: Option<Instant>,
) -> (Result<MatchOutcome, RunnerError>, Option<Recording>) {
    fn probed<O: Observer>(
        spec: &JobSpec,
        ws: &mut Workspace,
        inner: &mut O,
        cancel: &AtomicBool,
        deadline: Option<Instant>,
    ) -> Result<MatchOutcome, RunnerError> {
        let mut runner = Runner::new(spec.algorithm)
            .config(spec.config)
            .variant(spec.variant)
            .rounds(spec.rounds)
            .levels(spec.levels);
        if let Some(t) = spec.threads {
            runner = runner.threads(t);
        }
        let mut probe = CancelProbe {
            inner,
            cancel,
            deadline,
            #[cfg(test)]
            panic_on: tests::injected_panic_span(spec),
        };
        runner
            .workspace(ws)
            .observer(&mut probe)
            .try_run(&spec.list)
    }
    if spec.observed {
        let mut rec = Recorder::new();
        let out = probed(spec, ws, &mut rec, cancel, deadline);
        (out, Some(rec.finish()))
    } else {
        (probed(spec, ws, &mut NoopObserver, cancel, deadline), None)
    }
}

fn matcher_kind(algorithm: Algorithm) -> MatcherKind {
    match algorithm {
        Algorithm::Match1 => MatcherKind::Match1,
        Algorithm::Match2 => MatcherKind::Match2,
        Algorithm::Match3 => MatcherKind::Match3,
        Algorithm::Match4 => MatcherKind::Match4,
    }
}

fn classify_panic(payload: Box<dyn std::any::Any + Send>) -> JobError {
    match payload.downcast::<CancelToken>() {
        Ok(token) => match *token {
            CancelToken::Cancelled => JobError::Cancelled,
            CancelToken::Deadline => JobError::DeadlineExceeded,
        },
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            JobError::Panicked(msg)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parmatch_core::verify;
    use parmatch_list::random_list;

    fn small_service() -> MatchService {
        MatchService::start(ServiceConfig {
            workers: 1,
            queue_depth: 8,
            arenas: 1,
            max_batch: 8,
            threads_per_job: 1,
        })
    }

    #[test]
    fn round_trips_every_algorithm() {
        let svc = small_service();
        let list = random_list(600, 2);
        let mut want = HashMap::new();
        for algo in Algorithm::ALL {
            let id = svc.submit(JobSpec::new(algo, list.clone())).unwrap();
            want.insert(id, algo);
        }
        for result in svc.recv_n(4) {
            let algo = want.remove(&result.id).expect("known id");
            let out = result.output.expect("job succeeds");
            let solo = Runner::new(algo).run(&list);
            assert_eq!(out.matching().unwrap(), solo.matching(), "{algo}");
        }
        assert!(want.is_empty());
        svc.shutdown();
    }

    #[test]
    fn backpressure_rejects_with_busy() {
        let svc = MatchService::start(ServiceConfig {
            workers: 1,
            queue_depth: 1,
            arenas: 1,
            max_batch: 1,
            threads_per_job: 1,
        });
        // Occupy the worker, then flood the depth-1 queue.
        let slow = random_list(200_000, 1);
        let quick = random_list(64, 2);
        let mut submitted = 1usize;
        svc.submit(JobSpec::new(Algorithm::Match4, slow)).unwrap();
        let mut saw_busy = false;
        for _ in 0..10_000 {
            match svc.submit(JobSpec::new(Algorithm::Match1, quick.clone())) {
                Ok(_) => submitted += 1,
                Err(SubmitError::Busy(_)) => {
                    saw_busy = true;
                    break;
                }
                Err(SubmitError::Closed(_)) => panic!("service closed early"),
            }
        }
        assert!(saw_busy, "a depth-1 queue must reject under flood");
        let results = svc.recv_n(submitted);
        assert_eq!(results.len(), submitted);
        assert!(results.iter().all(|r| r.output.is_ok()));
        svc.shutdown();
    }

    #[test]
    fn queued_jobs_can_be_cancelled() {
        let svc = small_service();
        // Worker is busy with the slow job; the victim sits queued.
        let slow = random_list(200_000, 3);
        let victim_list = random_list(1000, 4);
        let slow_id = svc.submit(JobSpec::new(Algorithm::Match4, slow)).unwrap();
        let victim = svc
            .submit(JobSpec::new(Algorithm::Match2, victim_list))
            .unwrap();
        assert!(svc.cancel(victim));
        let results = svc.recv_n(2);
        let vr = results.iter().find(|r| r.id == victim).unwrap();
        assert!(matches!(vr.output, Err(JobError::Cancelled)));
        let sr = results.iter().find(|r| r.id == slow_id).unwrap();
        assert!(sr.output.is_ok());
        assert!(!svc.cancel(victim), "completed jobs are deregistered");
        svc.shutdown();
    }

    #[test]
    fn expired_deadline_is_reported() {
        let svc = small_service();
        let id = svc
            .submit(JobSpec::new(Algorithm::Match4, random_list(5000, 5)).deadline(Duration::ZERO))
            .unwrap();
        let result = svc.recv().unwrap();
        assert_eq!(result.id, id);
        assert!(matches!(result.output, Err(JobError::DeadlineExceeded)));
        svc.shutdown();
    }

    #[test]
    fn small_jobs_fuse_and_stay_bit_identical() {
        let svc = small_service();
        // Occupy the single worker so the small jobs pile up and arrive
        // in one gulp.
        let slow = random_list(200_000, 6);
        svc.submit(JobSpec::new(Algorithm::Match4, slow)).unwrap();
        let lists: Vec<_> = (0..6u64).map(|s| random_list(40 + s as usize, s)).collect();
        let ids: Vec<JobId> = lists
            .iter()
            .map(|l| {
                svc.submit(JobSpec::new(Algorithm::Match1, l.clone()))
                    .unwrap()
            })
            .collect();
        let results = svc.recv_n(1 + lists.len());
        let mut fused = 0;
        for (id, list) in ids.iter().zip(&lists) {
            let r = results.iter().find(|r| r.id == *id).unwrap();
            fused += usize::from(r.batched);
            let out = r.output.as_ref().expect("small job succeeds");
            let solo = Runner::new(Algorithm::Match1).run(list);
            assert_eq!(out.matching().unwrap(), solo.matching());
        }
        // All six lists share the 33..=64 width class, were queued
        // behind the slow job, and fit one gulp — they must have fused.
        assert_eq!(fused, lists.len(), "expected one fused batch");
        svc.shutdown();
    }

    /// Submit `bad` then a good job: `bad` must fail with the typed
    /// knob error and the good job must still match its solo run.
    fn assert_rejected(bad: JobSpec, knob: &'static str) {
        let svc = small_service();
        let algorithm = bad.algorithm;
        let bad = svc.submit(bad).unwrap();
        let list = random_list(2048, 8);
        let good = svc.submit(JobSpec::new(algorithm, list.clone())).unwrap();
        let results = svc.recv_n(2);
        let br = results.iter().find(|r| r.id == bad).unwrap();
        assert_eq!(
            br.output.as_ref().unwrap_err(),
            &JobError::Failed(RunnerError::ZeroKnob { algorithm, knob })
        );
        let gr = results.iter().find(|r| r.id == good).unwrap();
        let out = gr.output.as_ref().expect("pool survives the rejected job");
        let solo = Runner::new(algorithm).run(&list);
        assert_eq!(out.matching().unwrap(), solo.matching());
        svc.shutdown();
    }

    #[test]
    fn zero_rounds_job_fails_typed() {
        assert_rejected(
            JobSpec::new(Algorithm::Match2, random_list(512, 7)).rounds(0),
            "rounds",
        );
    }

    #[test]
    fn zero_levels_job_fails_typed() {
        assert_rejected(
            JobSpec::new(Algorithm::Match4, random_list(512, 9)).levels(0),
            "levels",
        );
    }

    /// Lists of this length make `execute` panic on entering Match4's
    /// `grid` span, after the run has taken the arena's grid storage.
    const PANIC_LIST_LEN: usize = 1999;

    pub(super) fn injected_panic_span(spec: &JobSpec) -> Option<&'static str> {
        (spec.list.len() == PANIC_LIST_LEN).then_some("grid")
    }

    #[test]
    fn panicking_job_is_isolated() {
        let svc = small_service();
        let bad = svc
            .submit(JobSpec::new(
                Algorithm::Match4,
                random_list(PANIC_LIST_LEN, 7),
            ))
            .unwrap();
        let list = random_list(2048, 8);
        let good = svc
            .submit(JobSpec::new(Algorithm::Match4, list.clone()))
            .unwrap();
        let results = svc.recv_n(2);
        let br = results.iter().find(|r| r.id == bad).unwrap();
        assert_eq!(
            br.output.as_ref().unwrap_err(),
            &JobError::Panicked("injected panic at span grid".to_string())
        );
        // One worker, one arena: the good job ran on the same worker with
        // the arena the panicked job scrubbed and returned.
        let gr = results.iter().find(|r| r.id == good).unwrap();
        let out = gr.output.as_ref().expect("pool survives the panic");
        let solo = Runner::new(Algorithm::Match4).run(&list);
        assert_eq!(out.matching().unwrap(), solo.matching());
        let arenas = &svc.shared.arenas;
        assert_eq!(arenas.scrubs.load(Ordering::Relaxed), 1);
        assert_eq!(arenas.slots.lock().unwrap().len(), 1);
        svc.shutdown();
    }

    #[test]
    fn panic_payloads_classify_by_type() {
        assert_eq!(
            classify_panic(Box::new("boom")),
            JobError::Panicked("boom".to_string())
        );
        assert_eq!(
            classify_panic(Box::new(format!("round {}", 3))),
            JobError::Panicked("round 3".to_string())
        );
        assert_eq!(
            classify_panic(Box::new(CancelToken::Deadline)),
            JobError::DeadlineExceeded
        );
        assert_eq!(
            classify_panic(Box::new(CancelToken::Cancelled)),
            JobError::Cancelled
        );
    }

    #[test]
    fn fault_plan_jobs_run_verified() {
        let svc = small_service();
        let plan = FaultPlan::generate(9, parmatch_pram::fault::FaultClass::BitFlip, 2, 400, 8);
        let id = svc
            .submit(JobSpec::new(Algorithm::Match1, random_list(256, 9)).fault_plan(plan))
            .unwrap();
        let result = svc.recv().unwrap();
        assert_eq!(result.id, id);
        let run = result
            .output
            .expect("harness classifies, never fails the job")
            .as_verified()
            .cloned()
            .expect("verify job");
        assert!(run.verified, "bounded retries must converge");
        svc.shutdown();
    }

    #[test]
    fn observed_jobs_carry_recordings_under_service_root() {
        let svc = small_service();
        let list = random_list(4096, 10);
        let id = svc
            .submit(JobSpec::new(Algorithm::Match1, list.clone()).observed())
            .unwrap();
        let result = svc.recv().unwrap();
        let rec = result.recording.expect("observed job records");
        assert_eq!(rec.spans()[0].label, "match1");
        assert!(rec.all_bounds_hold());
        let out = result.output.unwrap();
        verify::assert_maximal_matching(&list, out.matching().unwrap());
        let report = svc.shutdown();
        let spans = report.recording.spans();
        assert_eq!(spans[0].label, "service");
        assert_eq!(spans[0].children[0].label, format!("{id}"));
        assert_eq!(spans[0].children[0].children[0].label, "match1");
    }

    #[test]
    fn shutdown_drains_unreceived_results() {
        let svc = small_service();
        let list = random_list(128, 11);
        svc.submit(JobSpec::new(Algorithm::Match1, list)).unwrap();
        // Give the worker a moment, then shut down without receiving.
        std::thread::sleep(Duration::from_millis(1));
        let report = svc.shutdown();
        assert_eq!(report.pending.len(), 1);
        assert!(report.pending[0].output.is_ok());
    }
}
