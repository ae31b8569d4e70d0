//! # fap-serve — sharded batch serving for the allocation solvers
//!
//! The paper's optimizer is decentralized by design: many independent
//! allocation problems run concurrently across a network. This crate is
//! the serving-side mirror of that structure — a batcher that accepts many
//! independent scenarios (single-file §4, multi-file §5.2, ring §7) and
//! shares them out over a small worker pool. Requests are the parallel
//! grain: each solve runs on one thread.
//!
//! * **Submission-order, bit-identical results.** The batch is planned into
//!   *tasks* (single requests, or warm-start chains — see below) whose
//!   solved outputs depend only on the task's own contents, never on which
//!   worker runs it or when. Workers take tasks in plan order from one
//!   shared atomic cursor, one worker per task at most (a one-task batch
//!   runs on the calling thread), and each task is solved with the same
//!   deterministic kernel the sequential path uses — so the response
//!   vector is bit-identical to solving the batch sequentially for *every*
//!   shard count, even though the task-to-worker assignment is timing
//!   dependent (pinned by the tests here and by
//!   `tests/serve_equivalence.rs`).
//! * **One server per session.** A [`BatchServer`] is built once, with
//!   its [`WarmMode`], and serves batch after batch; [`BatchServer::serve`]
//!   returns only the submission-order responses. Everything that lives
//!   for the session lives inside it: one worker per worker slot and, in
//!   [`WarmMode::Session`], the cross-batch seed store.
//! * **Warm-start chains.** With [`WarmMode::Batch`] or
//!   [`WarmMode::Session`], requests of the same family and shape are
//!   grouped into chains solved sequentially inside one task; each
//!   converged answer seeds the next solve through
//!   [`OptimizerScratch::start_from`] / [`MultiFileScratch::start_from`]
//!   (re-projected onto the simplex, so feasibility is exact). Because the
//!   chain — not the request — is the scheduling unit, the seed sequence is
//!   shard-count-independent and the warm responses are bit-identical to a
//!   warm sequential run. Savings are visible as `serve.warm_starts` and
//!   `econ.warm_start_iters_saved` (iterations below the chain's cold
//!   baseline).
//! * **Session seeds.** In [`WarmMode::Session`] the server keeps each
//!   chain's last converged allocation and arms the matching chain head in
//!   the next batch — the warm state `fap served --warm session` keeps
//!   alive between requests. A session server's first batch is
//!   bit-identical to a [`WarmMode::Batch`] one.
//! * **Allocation-free steady state.** Each worker slot owns one
//!   [`OptimizerScratch`] and one [`MultiFileScratch`], created with the
//!   slot and reused across every task it executes in every batch, so
//!   scratch grows only when a shape outgrows what the slot served before.
//!   Which slot runs a task, and what it ran before, never shows in a
//!   response: each task disarms both scratches on entry and exit, and
//!   reused scratch is pinned bit-identical to fresh scratch.
//! * **Per-shard metrics, one fan-in.** Each worker records through the
//!   solver entry points into its own [`MetricsRegistry`] for the batch
//!   (a registry keeps counters/gauges/histograms and drops events). After
//!   the join, the registries are replayed in worker order into the
//!   caller's recorder — counters add and histograms merge bucket-wise, so
//!   the merged metrics are independent of the shard count *and* of which
//!   worker solved what; last-write gauges depend on which worker took
//!   which task and are advisory only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use serde::Serialize;

use fap_batch::Parallelism;
use fap_cache::{Fnv64, FnvBuildHasher};
use fap_core::{MultiFileProblem, MultiFileScratch, MultiFileSolution, SingleFileProblem};
use fap_econ::{
    AllocationProblem, OptimizerScratch, ResourceDirectedOptimizer, Solution, StepSize,
};
use fap_obs::{
    emit_span, emit_span_end, emit_span_start, MetricsRegistry, Recorder, TraceContext,
};
use fap_ring::{RingSolver, RingSolution, VirtualRing};

/// One independent scenario submitted to the batcher.
#[derive(Debug, Clone)]
pub enum ServeRequest {
    /// A §4 single-file fractional allocation, solved by the
    /// resource-directed optimizer with a fixed step size.
    SingleFile {
        /// The problem instance.
        problem: SingleFileProblem,
        /// Feasible starting allocation (`Σ x_i = 1`, `x_i ≥ 0`).
        initial: Vec<f64>,
        /// Fixed step size α.
        alpha: f64,
        /// Marginal-spread convergence tolerance ε.
        epsilon: f64,
        /// Iteration cap.
        max_iterations: usize,
        /// Topology fingerprint of the network the problem was built on
        /// (`fap_cache::topology_fingerprint`). When set, it becomes part
        /// of the warm key, so requests on *different* topologies never
        /// share a warm chain or a session seed — λ-only drift reuses
        /// seeds, a topology change invalidates them. `None` (the
        /// pre-existing wire shape) keeps the purely structural key.
        topology: Option<u64>,
    },
    /// A §5.2 multi-file allocation.
    MultiFile {
        /// The problem instance.
        problem: MultiFileProblem,
        /// Feasible per-file starting allocations.
        initial: Vec<Vec<f64>>,
        /// Fixed step size α.
        alpha: f64,
        /// Marginal-spread convergence tolerance ε.
        epsilon: f64,
        /// Iteration cap.
        max_iterations: usize,
        /// Topology fingerprint, as for
        /// [`ServeRequest::SingleFile::topology`].
        topology: Option<u64>,
    },
    /// A §7 multi-copy ring allocation, solved by the oscillation-aware
    /// solver.
    Ring {
        /// The ring instance.
        ring: VirtualRing,
        /// Feasible starting allocation (`Σ x_i = copies`, `x_i ≥ 0`).
        initial: Vec<f64>,
        /// Initial step size α (decays on oscillation).
        alpha: f64,
        /// Cost-delta halting tolerance.
        cost_delta_tolerance: f64,
        /// Iteration cap.
        max_iterations: usize,
    },
}

/// The solved counterpart of a [`ServeRequest`], same variant order.
#[derive(Debug, Clone, PartialEq, Serialize)]
#[serde(rename_all = "snake_case")]
pub enum ServeResponse {
    /// Result of a [`ServeRequest::SingleFile`] solve.
    SingleFile(Solution),
    /// Result of a [`ServeRequest::MultiFile`] solve.
    MultiFile(MultiFileSolution),
    /// Result of a [`ServeRequest::Ring`] solve.
    Ring(RingSolution),
}

impl ServeResponse {
    /// Iterations the underlying solver ran, whichever the variant.
    pub fn iterations(&self) -> usize {
        match self {
            ServeResponse::SingleFile(s) => s.iterations,
            ServeResponse::MultiFile(s) => s.iterations,
            ServeResponse::Ring(s) => s.iterations,
        }
    }

    /// Whether the underlying solver converged.
    pub fn converged(&self) -> bool {
        match self {
            ServeResponse::SingleFile(s) => s.converged,
            ServeResponse::MultiFile(s) => s.converged,
            ServeResponse::Ring(s) => s.converged,
        }
    }
}

/// A per-request solve failure, carrying the solver's error text. One bad
/// request never poisons its batch: every other response is still
/// produced, bit-identical to a sequential run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeError {
    message: String,
}

impl ServeError {
    /// The underlying solver error, rendered.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ServeError {}

/// How warm-start state carries between requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WarmMode {
    /// Serve every request cold (no chaining at all).
    Off,
    /// Chain requests of the same family and shape within each batch only
    /// (`fap serve --warm-start`). The default.
    #[default]
    Batch,
    /// Chain within batches *and* seed each chain's head from the last
    /// converged allocation of its key in an earlier batch.
    Session,
}

impl WarmMode {
    /// Parses `off` / `batch` / `session`.
    ///
    /// # Errors
    ///
    /// Returns the offending string for anything else.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "off" => Ok(WarmMode::Off),
            "batch" => Ok(WarmMode::Batch),
            "session" => Ok(WarmMode::Session),
            other => Err(format!("unknown warm mode '{other}' (expected off|batch|session)")),
        }
    }
}

/// A converged allocation kept across batches ([`WarmMode::Session`]) to
/// seed the next chain head of the same warm key. Seeds only ever alter a
/// starting iterate — never a problem — so a stale seed costs iterations,
/// not correctness.
#[derive(Debug, Clone)]
enum Seed {
    /// A §4 single-file allocation (`Σ x_i = 1`).
    SingleFile(Vec<f64>),
    /// Per-file §5.2 multi-file allocations.
    MultiFile(Vec<Vec<f64>>),
}

/// The sharded batcher, built once per session: it owns the warm-start
/// policy, one worker per worker slot (its solver scratch grows to the
/// largest shape served and is never rebuilt), and, in
/// [`WarmMode::Session`], the seed store that carries warm state from one
/// batch to the next.
///
/// # Example
///
/// ```
/// use fap_batch::Parallelism;
/// use fap_obs::MetricsRegistry;
/// use fap_serve::{BatchServer, ServeRequest, WarmMode};
/// use fap_ring::VirtualRing;
///
/// let ring = VirtualRing::new(vec![1.0; 4], vec![0.25; 4], vec![1.5; 4], 2.0, 1.0)?;
/// let requests: Vec<ServeRequest> = (0..6)
///     .map(|_| ServeRequest::Ring {
///         ring: ring.clone(),
///         initial: vec![2.0, 0.0, 0.0, 0.0],
///         alpha: 0.05,
///         cost_delta_tolerance: 1e-7,
///         max_iterations: 3_000,
///     })
///     .collect();
/// let mut server = BatchServer::new(Parallelism::Fixed(2), WarmMode::Off);
/// let mut metrics = MetricsRegistry::new();
/// let responses = server.serve(&requests, &mut metrics);
/// assert!(responses.iter().all(Result::is_ok));
/// assert_eq!(metrics.counter("serve.requests"), 6);
/// # Ok::<(), fap_ring::RingError>(())
/// ```
#[derive(Debug)]
pub struct BatchServer {
    parallelism: Parallelism,
    warm: WarmMode,
    /// One worker per slot, created the first time a batch needs that many.
    workers: Vec<ShardWorker>,
    /// Each chain's last converged allocation ([`WarmMode::Session`] only).
    seeds: HashMap<u64, Seed, FnvBuildHasher>,
}

/// A clone keeps the configuration and the seed store; its workers start
/// with fresh scratch. Scratch never reaches a response, so a clone serves
/// every batch bit-identically to the server it was cloned from.
impl Clone for BatchServer {
    fn clone(&self) -> Self {
        BatchServer {
            parallelism: self.parallelism,
            warm: self.warm,
            workers: Vec::new(),
            seeds: self.seeds.clone(),
        }
    }
}

impl BatchServer {
    /// A server sharding batches per `parallelism`
    /// ([`Parallelism::Sequential`] = one shard, [`Parallelism::Auto`] =
    /// one per core, [`Parallelism::Fixed`] = exactly that many, always
    /// clamped to the batch's task count) under the warm-start policy
    /// `warm`. [`WarmMode::Off`] reproduces the cold per-request solves
    /// bit-for-bit.
    ///
    /// With chaining on, requests of the same family and shape — same
    /// variant, dimensions, α, ε and topology fingerprint — are grouped into
    /// chains, each chain solved in submission order inside one scheduling
    /// task with every converged answer seeding the next solve.
    /// Warm-started responses converge to the same fixed point but
    /// typically in far fewer iterations for perturbed-workload streams,
    /// so their iteration counts (and last float bits) differ from cold
    /// responses; the warm output is instead bit-identical across *shard
    /// counts*, which is the determinism contract that matters for
    /// serving.
    pub fn new(parallelism: Parallelism, warm: WarmMode) -> Self {
        BatchServer {
            parallelism,
            warm,
            workers: Vec::new(),
            seeds: HashMap::with_hasher(FnvBuildHasher),
        }
    }

    /// Number of warm chains holding a cross-batch seed (always 0 outside
    /// [`WarmMode::Session`]).
    pub fn seed_count(&self) -> usize {
        self.seeds.len()
    }

    /// Solves every request across the shard pool and returns one result
    /// per request, in submission order.
    ///
    /// Responses are bit-identical to solving the same requests on a
    /// [`Parallelism::Sequential`] server holding the same seeds, whatever
    /// the shard count and whatever the workers ran before. The batch runs
    /// on `parallelism.threads_for(tasks)` workers, where a task is one
    /// request (or one warm-start chain); a single worker is the calling
    /// thread. Each worker records into its own [`MetricsRegistry`]; after
    /// the join the registries are replayed in worker order into
    /// `recorder`, followed by the `serve.shards` gauge.
    ///
    /// In [`WarmMode::Session`], chain heads are seeded from the previous
    /// batches' converged allocations and each chain's last converged
    /// answer is kept for the next batch. A session server's first batch is
    /// bit-identical to a [`WarmMode::Batch`] one.
    pub fn serve(
        &mut self,
        requests: &[ServeRequest],
        recorder: &mut dyn Recorder,
    ) -> Vec<Result<ServeResponse, ServeError>> {
        let (order, tasks, keys) = self.plan_tasks(requests);
        let BatchServer { parallelism, warm, workers, seeds } = self;
        let chained = *warm != WarmMode::Off;
        let session = *warm == WarmMode::Session;
        // Workers read the seed store immutably; the write-back waits for
        // the join, so scheduling can never race it.
        let seeds_in = &*seeds;
        // Workers claim tasks in plan order from one cursor until it runs
        // past the end. Which worker gets which task is timing-dependent;
        // the solved bits are not, because each task is self-contained.
        // `Relaxed` suffices: the cursor publishes no data (the plan is
        // built before any worker starts, results come back through the
        // join), and each index is still claimed exactly once.
        let cursor = AtomicUsize::new(0);
        let run_worker = |worker: &mut ShardWorker| {
            let mut registry = MetricsRegistry::new();
            loop {
                let task = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&(start, end)) = tasks.get(task) else { break };
                let seed = if session { keys[task].and_then(|k| seeds_in.get(&k)) } else { None };
                worker.run_task(requests, &order[start..end], chained, seed, &mut registry);
            }
            registry
        };
        // At most one worker per task: a one-task batch (say, one warm
        // chain) runs on the calling thread and spawns nothing.
        let count = parallelism.threads_for(tasks.len());
        if workers.len() < count {
            workers.resize_with(count, ShardWorker::new);
        }
        let workers = &mut workers[..count];
        let registries: Vec<MetricsRegistry> = if count <= 1 {
            vec![run_worker(&mut workers[0])]
        } else {
            let run_worker = &run_worker;
            std::thread::scope(|scope| {
                let handles: Vec<_> = workers
                    .iter_mut()
                    .map(|worker| scope.spawn(move || run_worker(worker)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("serve shard worker panicked"))
                    .collect()
            })
        };
        let mut responses: Vec<Option<Result<ServeResponse, ServeError>>> =
            vec![None; requests.len()];
        for worker in workers.iter_mut() {
            for (index, result) in worker.out.drain(..) {
                responses[index] = Some(result);
            }
        }
        // Fan-in: counter addition and histogram folding commute, so the
        // merged counters and histograms are shard-count-independent.
        for registry in &registries {
            registry.replay_into(recorder);
        }
        recorder.gauge("serve.shards", count as f64);

        let responses: Vec<Result<ServeResponse, ServeError>> = responses
            .into_iter()
            .map(|slot| slot.expect("every request is assigned to exactly one task"))
            .collect();

        // Tracing: the span timeline is *synthesized* here, after the
        // join, from the plan and the solved responses — never from worker
        // timing — so the span stream is bit-identical for every shard
        // count and task-to-worker assignment: parentage comes from the
        // plan, not from which worker ran the task.
        if recorder.trace_enabled() {
            emit_batch_spans(recorder, &order, &tasks, &responses);
        }

        // Seed write-back happens after the join, from the submission-order
        // responses: each keyed chain stores its *last* converged answer.
        // Chain keys are disjoint across tasks, so the write order is
        // immaterial and the stored seeds are shard-count-independent.
        if session {
            for (task, &(start, end)) in tasks.iter().enumerate() {
                let Some(key) = keys[task] else { continue };
                let last = order[start..end].iter().rev().find_map(|&index| {
                    match &responses[index] {
                        Ok(ServeResponse::SingleFile(s)) if s.converged => {
                            Some(Seed::SingleFile(s.allocation.clone()))
                        }
                        Ok(ServeResponse::MultiFile(s)) if s.converged => {
                            Some(Seed::MultiFile(s.allocations.clone()))
                        }
                        _ => None,
                    }
                });
                if let Some(seed) = last {
                    seeds.insert(key, seed);
                }
            }
        }
        responses
    }

    /// Plans the batch into scheduling tasks. Returns `(order, tasks,
    /// keys)`: `order` is a permutation of the request indices, each task
    /// is a `(start, end)` range into it, and `keys[t]` is task `t`'s
    /// warm-start chain key (`None` for keyless singletons). Cold mode
    /// emits one singleton task per request in submission order; warm
    /// modes group same-key requests into chains in first-appearance order,
    /// keyless (ring) requests staying singletons.
    #[allow(clippy::type_complexity)]
    fn plan_tasks(
        &self,
        requests: &[ServeRequest],
    ) -> (Vec<usize>, Vec<(usize, usize)>, Vec<Option<u64>>) {
        if self.warm == WarmMode::Off {
            let order: Vec<usize> = (0..requests.len()).collect();
            let tasks = (0..requests.len()).map(|i| (i, i + 1)).collect();
            let keys = vec![None; requests.len()];
            return (order, tasks, keys);
        }
        let mut chains: Vec<(Option<u64>, Vec<usize>)> = Vec::new();
        let mut chain_of_key: HashMap<u64, usize, FnvBuildHasher> =
            HashMap::with_hasher(FnvBuildHasher);
        for (i, request) in requests.iter().enumerate() {
            match warm_key(request) {
                Some(key) => match chain_of_key.get(&key) {
                    Some(&c) => chains[c].1.push(i),
                    None => {
                        chain_of_key.insert(key, chains.len());
                        chains.push((Some(key), vec![i]));
                    }
                },
                None => chains.push((None, vec![i])),
            }
        }
        let mut order = Vec::with_capacity(requests.len());
        let mut tasks = Vec::with_capacity(chains.len());
        let mut keys = Vec::with_capacity(chains.len());
        for (key, chain) in chains {
            let start = order.len();
            order.extend(chain);
            tasks.push((start, order.len()));
            keys.push(key);
        }
        (order, tasks, keys)
    }
}

/// Synthesizes the batch's span tree on the recorder's virtual timeline:
/// one `serve.batch` span (a child of the recorder's current context, or a
/// new root), one `serve.task` child per scheduling task, one `serve.solve`
/// leaf per request. Durations are virtual — a request's width is its
/// solved iteration count (errors are zero-width) — and the tasks tile the
/// batch contiguously in task order, so per-layer self time telescopes
/// exactly to the batch span's duration. Ids come from one
/// [`Recorder::reserve_span_ids`] block; every end is emitted before its
/// parent's end, the order the flight recorder's bookkeeping relies on.
fn emit_batch_spans(
    recorder: &mut dyn Recorder,
    order: &[usize],
    tasks: &[(usize, usize)],
    responses: &[Result<ServeResponse, ServeError>],
) {
    let dur_of = |i: usize| -> u64 {
        responses[i].as_ref().map(|r| r.iterations() as u64).unwrap_or(0)
    };
    let base = recorder.now();
    let total: u64 = order.iter().map(|&i| dur_of(i)).sum();
    let first = recorder.reserve_span_ids(1 + tasks.len() as u64 + order.len() as u64);
    let batch = match recorder.current_trace() {
        Some(parent) => parent.child(first),
        None => TraceContext::root(first),
    };
    let mut next_id = first + 1;
    emit_span_start(recorder, "serve.batch", batch, base);
    let mut t = base;
    for &(start, end) in tasks {
        let task_ctx = batch.child(next_id);
        next_id += 1;
        let task_dur: u64 = order[start..end].iter().map(|&i| dur_of(i)).sum();
        emit_span_start(recorder, "serve.task", task_ctx, t);
        let mut rt = t;
        for &i in &order[start..end] {
            let ctx = task_ctx.child(next_id);
            next_id += 1;
            let d = dur_of(i);
            emit_span(recorder, "serve.solve", ctx, rt, rt + d);
            rt += d;
        }
        emit_span_end(recorder, "serve.task", task_ctx, t + task_dur, task_dur);
        t += task_dur;
    }
    emit_span_end(recorder, "serve.batch", batch, base + total, total);
}

/// The warm-start chain key of a request: requests with the same key are
/// seeded from each other's converged answers. The key covers the family
/// tag, the problem dimensions, the solver parameters (α, ε) and — when
/// the caller provides one — the topology fingerprint, a deliberately
/// *structural* fingerprint: perturbed-workload (λ-only) streams over one
/// topology share it (that is the whole point of warm starts), while a
/// topology change rotates the key so stale seeds from the old network
/// are never consulted. A false merge only changes a starting iterate,
/// never a solution's fixed point, but an un-rotated key would warm a new
/// topology's solve from an allocation optimized for the old one — legal,
/// just slow. Ring requests have no warm path and return `None`.
fn warm_key(request: &ServeRequest) -> Option<u64> {
    let mut h = Fnv64::new();
    match request {
        ServeRequest::SingleFile { problem, alpha, epsilon, topology, .. } => {
            h.write_u64(1);
            h.write_usize(problem.dimension());
            h.write_u64(alpha.to_bits());
            h.write_u64(epsilon.to_bits());
            if let Some(fingerprint) = topology {
                h.write_u64(*fingerprint);
            }
        }
        ServeRequest::MultiFile { problem, alpha, epsilon, topology, .. } => {
            h.write_u64(2);
            h.write_usize(problem.file_count());
            h.write_usize(problem.node_count());
            h.write_u64(alpha.to_bits());
            h.write_u64(epsilon.to_bits());
            if let Some(fingerprint) = topology {
                h.write_u64(*fingerprint);
            }
        }
        ServeRequest::Ring { .. } => return None,
    }
    Some(h.finish64())
}

/// One worker slot's state, kept for the server's lifetime: the scratch
/// buffers reused across every request the slot takes in every batch, so
/// the steady state allocates only what the returned solutions themselves
/// need.
#[derive(Debug)]
struct ShardWorker {
    econ_scratch: OptimizerScratch,
    multi_scratch: MultiFileScratch,
    /// The current batch's `(request index, result)` pairs, drained into
    /// submission-order slots after the join.
    out: Vec<(usize, Result<ServeResponse, ServeError>)>,
}

impl ShardWorker {
    fn new() -> Self {
        ShardWorker {
            econ_scratch: OptimizerScratch::new(),
            multi_scratch: MultiFileScratch::new(),
            out: Vec::new(),
        }
    }

    /// Executes one scheduling task — a single request, or a warm-start
    /// chain of same-key requests solved in submission order, each
    /// converged answer seeding the next solve. Seeds never cross a task
    /// boundary: both scratches are disarmed on entry and exit, so a task's
    /// outputs depend only on its own contents — and on the optional
    /// cross-batch `seed`, which is part of those contents — never on which
    /// slot runs it or what that slot ran before. That is the property the
    /// shared-cursor scheduler's determinism rests on.
    ///
    /// A session `seed` arms the matching scratch before the chain head, so
    /// the head itself runs seeded (counted by `serve.warm_starts`); the
    /// cold-baseline bookkeeping stays unset for such chains, so
    /// `econ.warm_start_iters_saved` never compares against a baseline from
    /// a different batch.
    fn run_task(
        &mut self,
        requests: &[ServeRequest],
        chain: &[usize],
        warm: bool,
        seed: Option<&Seed>,
        registry: &mut MetricsRegistry,
    ) {
        self.econ_scratch.clear_warm_start();
        self.multi_scratch.clear_warm_start();
        match seed {
            Some(Seed::SingleFile(x)) => self.econ_scratch.start_from(x),
            Some(Seed::MultiFile(xs)) => self.multi_scratch.start_from(xs),
            None => {}
        }
        let mut baseline: Option<usize> = None;
        for (pos, &index) in chain.iter().enumerate() {
            let request = &requests[index];
            let armed = warm
                && match request {
                    ServeRequest::SingleFile { .. } => self.econ_scratch.has_warm_start(),
                    ServeRequest::MultiFile { .. } => self.multi_scratch.has_warm_start(),
                    ServeRequest::Ring { .. } => false,
                };
            let result = self.solve(request, registry);
            if let Ok(response) = &result {
                if armed {
                    registry.incr("serve.warm_starts", 1);
                    // Savings are measured against the chain's most recent
                    // cold solve — the iterations this request would have
                    // needed had it, like that one, started from scratch.
                    if let Some(cold) = baseline {
                        registry.incr(
                            "econ.warm_start_iters_saved",
                            cold.saturating_sub(response.iterations()) as u64,
                        );
                    }
                } else {
                    baseline = Some(response.iterations());
                }
                if warm && pos + 1 < chain.len() && response.converged() {
                    match response {
                        ServeResponse::SingleFile(s) => {
                            self.econ_scratch.start_from(&s.allocation);
                        }
                        ServeResponse::MultiFile(s) => {
                            self.multi_scratch.start_from(&s.allocations);
                        }
                        ServeResponse::Ring(_) => {}
                    }
                }
            }
            self.out.push((index, result));
        }
        self.econ_scratch.clear_warm_start();
        self.multi_scratch.clear_warm_start();
    }

    fn solve(
        &mut self,
        request: &ServeRequest,
        registry: &mut MetricsRegistry,
    ) -> Result<ServeResponse, ServeError> {
        registry.incr("serve.requests", 1);
        let result = match request {
            ServeRequest::SingleFile { problem, initial, alpha, epsilon, max_iterations, .. } => {
                ResourceDirectedOptimizer::new(StepSize::Fixed(*alpha))
                    .with_epsilon(*epsilon)
                    .with_max_iterations(*max_iterations)
                    .run_with_scratch(problem, initial, &mut self.econ_scratch, registry)
                    .map(ServeResponse::SingleFile)
                    .map_err(|e| ServeError { message: e.to_string() })
            }
            ServeRequest::MultiFile { problem, initial, alpha, epsilon, max_iterations, .. } => {
                problem
                    .solve_with_scratch(
                        initial,
                        *alpha,
                        *epsilon,
                        *max_iterations,
                        &mut self.multi_scratch,
                        registry,
                    )
                    .map(ServeResponse::MultiFile)
                    .map_err(|e| ServeError { message: e.to_string() })
            }
            ServeRequest::Ring { ring, initial, alpha, cost_delta_tolerance, max_iterations } => {
                RingSolver::new(*alpha)
                    .with_cost_delta_tolerance(*cost_delta_tolerance)
                    .with_max_iterations(*max_iterations)
                    .solve(ring, initial, registry)
                    .map(ServeResponse::Ring)
                    .map_err(|e| ServeError { message: e.to_string() })
            }
        };
        match &result {
            Ok(response) => {
                registry.observe("serve.request_iterations", response.iterations() as f64);
            }
            Err(_) => registry.incr("serve.errors", 1),
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fap_net::{topology, AccessPattern};
    use fap_obs::{NoopRecorder, Value, SPAN_START};

    fn single_file_request(seed: u64) -> ServeRequest {
        let graph = topology::ring(5, 1.0).unwrap();
        let pattern = AccessPattern::random(5, 0.2..0.6, seed).unwrap();
        let problem = SingleFileProblem::mm1(&graph, &pattern, 4.0, 1.0).unwrap();
        ServeRequest::SingleFile {
            problem,
            initial: vec![0.2; 5],
            alpha: 0.1,
            epsilon: 1e-6,
            max_iterations: 100_000,
            topology: None,
        }
    }

    fn multi_file_request(seed: u64) -> ServeRequest {
        let graph = topology::ring(4, 1.0).unwrap();
        let patterns: Vec<AccessPattern> =
            (0..3).map(|j| AccessPattern::random(4, 0.1..0.4, seed + j).unwrap()).collect();
        let problem = MultiFileProblem::mm1(&graph, &patterns, 6.0, 1.0).unwrap();
        ServeRequest::MultiFile {
            problem,
            initial: vec![vec![0.25; 4]; 3],
            alpha: 0.1,
            epsilon: 1e-6,
            max_iterations: 50_000,
            topology: None,
        }
    }

    fn ring_request() -> ServeRequest {
        let ring = VirtualRing::new(vec![4.0, 1.0, 1.0, 1.0], vec![0.25; 4], vec![1.5; 4], 2.0, 1.0)
            .unwrap();
        ServeRequest::Ring {
            ring,
            initial: vec![2.0, 0.0, 0.0, 0.0],
            alpha: 0.1,
            cost_delta_tolerance: 1e-7,
            max_iterations: 3_000,
        }
    }

    fn mixed_batch() -> Vec<ServeRequest> {
        let mut requests = Vec::new();
        for i in 0..3 {
            requests.push(single_file_request(100 + i));
            requests.push(multi_file_request(200 + i));
            requests.push(ring_request());
        }
        requests
    }

    type Responses = Vec<Result<ServeResponse, ServeError>>;

    /// Serves `requests` on a fresh server; returns the responses and
    /// everything the batch recorded.
    fn serve_once(
        parallelism: Parallelism,
        warm: WarmMode,
        requests: &[ServeRequest],
    ) -> (Responses, MetricsRegistry) {
        let mut metrics = MetricsRegistry::new();
        let responses = BatchServer::new(parallelism, warm).serve(requests, &mut metrics);
        (responses, metrics)
    }

    fn cold(parallelism: Parallelism, requests: &[ServeRequest]) -> Responses {
        BatchServer::new(parallelism, WarmMode::Off).serve(requests, &mut NoopRecorder)
    }

    fn errors(responses: &Responses) -> usize {
        responses.iter().filter(|r| r.is_err()).count()
    }

    #[test]
    fn every_shard_count_matches_the_sequential_solve() {
        let requests = mixed_batch();
        let sequential = cold(Parallelism::Sequential, &requests);
        assert_eq!(errors(&sequential), 0);
        for shards in [2, 3, 8, 64] {
            assert_eq!(
                sequential,
                cold(Parallelism::Fixed(shards), &requests),
                "{shards} shards must be bit-identical to sequential"
            );
        }
    }

    #[test]
    fn shard_count_clamps_to_the_task_count() {
        let (_, metrics) =
            serve_once(Parallelism::Fixed(64), WarmMode::Off, &[ring_request(), ring_request()]);
        assert_eq!(metrics.gauge_value("serve.shards"), Some(2.0));
    }

    #[test]
    fn one_warm_chain_runs_on_the_calling_thread_alone() {
        let chain: Vec<ServeRequest> = (0..3).map(|i| single_file_request(10 + i)).collect();
        let (sequential, _) = serve_once(Parallelism::Sequential, WarmMode::Batch, &chain);
        let (responses, metrics) = serve_once(Parallelism::Fixed(4), WarmMode::Batch, &chain);
        assert_eq!(metrics.gauge_value("serve.shards"), Some(1.0));
        assert_eq!(sequential, responses);
    }

    #[test]
    fn a_two_task_batch_runs_on_two_shards() {
        // One warm chain of three plus a ring singleton: two tasks.
        let mut requests: Vec<ServeRequest> =
            (0..3).map(|i| single_file_request(10 + i)).collect();
        requests.push(ring_request());
        let (_, metrics) = serve_once(Parallelism::Fixed(8), WarmMode::Batch, &requests);
        assert_eq!(metrics.gauge_value("serve.shards"), Some(2.0));
    }

    #[test]
    fn merged_counters_are_shard_count_independent() {
        let requests = mixed_batch();
        let (_, sequential) = serve_once(Parallelism::Sequential, WarmMode::Off, &requests);
        let (_, sharded) = serve_once(Parallelism::Fixed(4), WarmMode::Off, &requests);
        for counter in
            ["serve.requests", "econ.iterations", "core.iterations", "ring.iterations"]
        {
            assert!(sequential.counter(counter) > 0, "{counter} never recorded");
            assert_eq!(
                sequential.counter(counter),
                sharded.counter(counter),
                "{counter} must not depend on the shard count"
            );
        }
        let iters = |m: &MetricsRegistry| m.histogram("serve.request_iterations").cloned();
        assert_eq!(iters(&sequential).unwrap().count(), requests.len() as u64);
        assert_eq!(iters(&sequential), iters(&sharded));
        assert_eq!(sharded.gauge_value("serve.shards"), Some(4.0));
    }

    #[test]
    fn caller_recorder_sees_the_merged_metrics() {
        let requests = mixed_batch();
        let mut tele = fap_obs::Telemetry::manual();
        BatchServer::new(Parallelism::Fixed(2), WarmMode::Off).serve(&requests, &mut tele);
        let (_, sequential) = serve_once(Parallelism::Sequential, WarmMode::Off, &requests);
        assert_eq!(tele.registry().counter("serve.requests"), requests.len() as u64);
        assert_eq!(
            tele.registry().counter("econ.iterations"),
            sequential.counter("econ.iterations")
        );
        assert_eq!(tele.registry().gauge_value("serve.shards"), Some(2.0));
    }

    #[test]
    fn a_bad_request_fails_alone() {
        let mut requests = mixed_batch();
        // An infeasible start: the simplex constraint is violated.
        if let ServeRequest::SingleFile { initial, .. } = &mut requests[3] {
            *initial = vec![0.9; 5];
        } else {
            panic!("expected a single-file request at index 3");
        }
        let (responses, metrics) = serve_once(Parallelism::Fixed(3), WarmMode::Off, &requests);
        assert_eq!(errors(&responses), 1);
        assert!(responses[3].is_err());
        assert_eq!(metrics.counter("serve.errors"), 1);
        // And the rest still match an all-good sequential solve of the
        // same (mutated) batch.
        assert_eq!(cold(Parallelism::Sequential, &requests), responses);
    }

    #[test]
    fn empty_batch_is_fine() {
        let (responses, metrics) = serve_once(Parallelism::Auto, WarmMode::Batch, &[]);
        assert!(responses.is_empty());
        assert_eq!(metrics.gauge_value("serve.shards"), Some(1.0));
        assert_eq!(metrics.counter("serve.requests"), 0);
    }

    #[test]
    fn warm_keys_group_by_family_shape_and_parameters() {
        let a = single_file_request(100);
        let b = single_file_request(777); // different pattern, same shape
        assert_eq!(warm_key(&a), warm_key(&b), "perturbed workloads must share a chain");
        assert_eq!(warm_key(&ring_request()), None, "ring solves have no warm path");
        assert_ne!(
            warm_key(&a),
            warm_key(&multi_file_request(200)),
            "families must never share a chain"
        );
        let mut c = single_file_request(100);
        if let ServeRequest::SingleFile { epsilon, .. } = &mut c {
            *epsilon = 1e-9;
        }
        assert_ne!(warm_key(&a), warm_key(&c), "solver parameters are part of the key");
    }

    #[test]
    fn cold_planning_is_one_singleton_task_per_request() {
        let requests = mixed_batch();
        let (order, tasks, keys) =
            BatchServer::new(Parallelism::Auto, WarmMode::Off).plan_tasks(&requests);
        assert_eq!(order, (0..requests.len()).collect::<Vec<_>>());
        assert_eq!(tasks, (0..requests.len()).map(|i| (i, i + 1)).collect::<Vec<_>>());
        assert!(keys.iter().all(Option::is_none), "cold tasks are keyless");
    }

    #[test]
    fn warm_planning_chains_same_key_requests_in_first_appearance_order() {
        let requests = mixed_batch();
        for warm in [WarmMode::Batch, WarmMode::Session] {
            let (order, tasks, keys) =
                BatchServer::new(Parallelism::Auto, warm).plan_tasks(&requests);
            // Submission order: single, multi, ring, repeated three times.
            // Singles chain, multis chain, each ring stays a singleton.
            assert_eq!(order, vec![0, 3, 6, 1, 4, 7, 2, 5, 8]);
            assert_eq!(tasks, vec![(0, 3), (3, 6), (6, 7), (7, 8), (8, 9)]);
            assert_eq!(keys[0], warm_key(&requests[0]));
            assert_eq!(keys[1], warm_key(&requests[1]));
            assert_eq!(&keys[2..], &[None, None, None], "ring singletons stay keyless");
        }
    }

    #[test]
    fn warm_responses_are_bit_identical_across_every_shard_count() {
        let requests = mixed_batch();
        let (warm_sequential, _) = serve_once(Parallelism::Sequential, WarmMode::Batch, &requests);
        assert_eq!(errors(&warm_sequential), 0);
        for shards in [1, 2, 4, 8] {
            let (sharded, _) = serve_once(Parallelism::Fixed(shards), WarmMode::Batch, &requests);
            assert_eq!(
                warm_sequential, sharded,
                "{shards} warm shards must be bit-identical to a warm sequential run"
            );
        }
    }

    #[test]
    fn warm_starts_save_iterations_and_are_counted() {
        // A perturbed workload: one topology and solver configuration,
        // slightly different access patterns — the scenario warm starts
        // exist for.
        let graph = topology::ring(5, 1.0).unwrap();
        let requests: Vec<ServeRequest> = (0..6)
            .map(|i| {
                let rates: Vec<f64> = (0..5)
                    .map(|n| 0.2 + 0.08 * n as f64 + 0.002 * (i as f64) * (n as f64 + 1.0))
                    .collect();
                let pattern = AccessPattern::new(rates).unwrap();
                let problem = SingleFileProblem::mm1(&graph, &pattern, 4.0, 1.0).unwrap();
                ServeRequest::SingleFile {
                    problem,
                    initial: vec![0.2; 5],
                    alpha: 0.1,
                    epsilon: 1e-6,
                    max_iterations: 100_000,
                    topology: None,
                }
            })
            .collect();
        let (cold, cold_metrics) = serve_once(Parallelism::Sequential, WarmMode::Off, &requests);
        let (warm, warm_metrics) = serve_once(Parallelism::Sequential, WarmMode::Batch, &requests);
        assert_eq!(errors(&warm), 0);
        // Every request after the chain head runs seeded.
        assert_eq!(warm_metrics.counter("serve.warm_starts"), requests.len() as u64 - 1);
        assert_eq!(
            warm_metrics.counter("econ.warm_starts"),
            warm_metrics.counter("serve.warm_starts"),
            "the serve-side and engine-side warm counts must agree"
        );
        assert!(
            warm_metrics.counter("econ.warm_start_iters_saved") > 0,
            "seeding from a converged neighbour must save iterations"
        );
        assert!(
            warm_metrics.counter("econ.iterations") < cold_metrics.counter("econ.iterations"),
            "the warm batch must run fewer total iterations than the cold one"
        );
        // Warm answers land on the same optimum the cold solves found.
        for (w, c) in warm.iter().zip(&cold) {
            let (ServeResponse::SingleFile(w), ServeResponse::SingleFile(c)) =
                (w.as_ref().unwrap(), c.as_ref().unwrap())
            else {
                panic!("expected single-file responses");
            };
            assert!(w.converged && c.converged);
            assert!(
                (w.final_utility - c.final_utility).abs() <= 1e-9,
                "warm and cold optima diverged: {} vs {}",
                w.final_utility,
                c.final_utility
            );
        }
    }

    #[test]
    fn the_first_request_in_a_chain_is_never_seeded() {
        let requests = vec![single_file_request(42)];
        let (warm, metrics) = serve_once(Parallelism::Sequential, WarmMode::Batch, &requests);
        assert_eq!(metrics.counter("serve.warm_starts"), 0);
        assert_eq!(metrics.counter("econ.warm_starts"), 0);
        // And a singleton chain matches the cold server bit for bit.
        assert_eq!(warm, cold(Parallelism::Sequential, &requests));
    }

    /// A perturbed-workload stream split into two batches — the daemon's
    /// steady state.
    fn perturbed_stream(batch: usize) -> Vec<ServeRequest> {
        let graph = topology::ring(5, 1.0).unwrap();
        (0..4)
            .map(|i| {
                let k = (batch * 4 + i) as f64;
                let rates: Vec<f64> =
                    (0..5).map(|n| 0.2 + 0.08 * n as f64 + 0.002 * k * (n as f64 + 1.0)).collect();
                let pattern = AccessPattern::new(rates).unwrap();
                let problem = SingleFileProblem::mm1(&graph, &pattern, 4.0, 1.0).unwrap();
                ServeRequest::SingleFile {
                    problem,
                    initial: vec![0.2; 5],
                    alpha: 0.1,
                    epsilon: 1e-6,
                    max_iterations: 100_000,
                    topology: None,
                }
            })
            .collect()
    }

    #[test]
    fn a_session_server_matches_the_batch_mode_at_first_and_keeps_seeds() {
        let requests = perturbed_stream(0);
        let (batch, _) = serve_once(Parallelism::Sequential, WarmMode::Batch, &requests);
        let mut session = BatchServer::new(Parallelism::Sequential, WarmMode::Session);
        assert_eq!(session.seed_count(), 0);
        assert_eq!(batch, session.serve(&requests, &mut NoopRecorder));
        assert_eq!(session.seed_count(), 1, "one single-file chain converged into one seed");
    }

    #[test]
    fn session_seeds_warm_the_next_batch_including_its_chain_head() {
        let mut server = BatchServer::new(Parallelism::Sequential, WarmMode::Session);
        let mut first = MetricsRegistry::new();
        server.serve(&perturbed_stream(0), &mut first);
        // Batch 1: the chain head is cold, the other three are seeded.
        assert_eq!(first.counter("serve.warm_starts"), 3);
        let second_requests = perturbed_stream(1);
        let mut second = MetricsRegistry::new();
        let responses = server.serve(&second_requests, &mut second);
        // Batch 2: even the head starts from batch 1's converged tail.
        assert_eq!(second.counter("serve.warm_starts"), 4);
        // Seeding changed iterates, never optima: compare against cold.
        let (cold, cold_metrics) =
            serve_once(Parallelism::Sequential, WarmMode::Off, &second_requests);
        assert!(
            second.counter("econ.iterations") < cold_metrics.counter("econ.iterations"),
            "cross-batch seeds must save iterations"
        );
        for (s, c) in responses.iter().zip(&cold) {
            let (ServeResponse::SingleFile(s), ServeResponse::SingleFile(c)) =
                (s.as_ref().unwrap(), c.as_ref().unwrap())
            else {
                panic!("expected single-file responses");
            };
            assert!(s.converged && c.converged);
            assert!((s.final_utility - c.final_utility).abs() <= 1e-9);
        }
    }

    /// [`perturbed_stream`] on an explicit graph with a topology
    /// fingerprint attached — the shape the CLI spec layer produces.
    fn fingerprinted_stream(
        batch: usize,
        graph: &fap_net::Graph,
        fingerprint: u64,
    ) -> Vec<ServeRequest> {
        let n = graph.node_count();
        (0..4)
            .map(|i| {
                let k = (batch * 4 + i) as f64;
                let rates: Vec<f64> = (0..n)
                    .map(|v| 0.2 + 0.08 * v as f64 + 0.002 * k * (v as f64 + 1.0))
                    .collect();
                let pattern = AccessPattern::new(rates).unwrap();
                let problem = SingleFileProblem::mm1(graph, &pattern, 4.0, 1.0).unwrap();
                ServeRequest::SingleFile {
                    problem,
                    initial: vec![1.0 / n as f64; n],
                    alpha: 0.1,
                    epsilon: 1e-6,
                    max_iterations: 100_000,
                    topology: Some(fingerprint),
                }
            })
            .collect()
    }

    #[test]
    fn topology_fingerprints_partition_warm_keys() {
        let with_fp = |seed: u64, fp: Option<u64>| {
            let mut request = single_file_request(seed);
            if let ServeRequest::SingleFile { topology, .. } = &mut request {
                *topology = fp;
            }
            request
        };
        // λ-only perturbations on one fingerprinted topology still chain.
        assert_eq!(
            warm_key(&with_fp(100, Some(11))),
            warm_key(&with_fp(777, Some(11))),
            "same topology, different workload: one chain"
        );
        // A different topology — same dimension, α, ε — rotates the key.
        assert_ne!(
            warm_key(&with_fp(100, Some(11))),
            warm_key(&with_fp(100, Some(22))),
            "a topology change must invalidate the chain"
        );
        // Fingerprinted and unfingerprinted requests never share a chain
        // (an unfingerprinted peer could be on any topology).
        assert_ne!(warm_key(&with_fp(100, Some(11))), warm_key(&with_fp(100, None)));
    }

    #[test]
    fn session_seeds_survive_lambda_drift_but_not_topology_changes() {
        let mut server = BatchServer::new(Parallelism::Sequential, WarmMode::Session);
        let ring = topology::ring(5, 1.0).unwrap();
        let mesh = topology::full_mesh(5, 1.0).unwrap();
        // Distinct stand-in fingerprints (the spec layer derives real ones
        // from the graph; the serving layer only compares them).
        let (ring_fp, mesh_fp) = (1, 2);
        let warm_starts = |server: &mut BatchServer, batch: &[ServeRequest]| {
            let mut metrics = MetricsRegistry::new();
            let responses = server.serve(batch, &mut metrics);
            (responses, metrics.counter("serve.warm_starts"))
        };

        let (_, first) = warm_starts(&mut server, &fingerprinted_stream(0, &ring, ring_fp));
        assert_eq!(first, 3, "cold head");
        // λ-only drift on the same topology: the next batch's head is
        // seeded from the previous batch's tail.
        let (_, second) = warm_starts(&mut server, &fingerprinted_stream(1, &ring, ring_fp));
        assert_eq!(second, 4, "a mid-session λ-only change must reuse session seeds");
        // A topology change — same dimension and solver parameters, so
        // the old structural key would have collided — must run its head
        // cold instead of starting from the ring's optimum.
        let batch = fingerprinted_stream(2, &mesh, mesh_fp);
        let (third, third_starts) = warm_starts(&mut server, &batch);
        assert_eq!(third_starts, 3, "a mid-session topology change must invalidate session seeds");
        // And the mesh responses equal a fresh session server's: the ring
        // seeds were never consulted.
        let mut fresh = BatchServer::new(Parallelism::Sequential, WarmMode::Session);
        assert_eq!(third, fresh.serve(&batch, &mut NoopRecorder));
    }

    #[test]
    fn session_responses_are_bit_identical_across_shard_counts() {
        let batches = [perturbed_stream(0), mixed_batch(), perturbed_stream(1)];
        let mut sequential = BatchServer::new(Parallelism::Sequential, WarmMode::Session);
        let reference: Vec<Responses> =
            batches.iter().map(|batch| sequential.serve(batch, &mut NoopRecorder)).collect();
        for shards in [2, 4, 8] {
            let mut server = BatchServer::new(Parallelism::Fixed(shards), WarmMode::Session);
            for (batch, expected) in batches.iter().zip(&reference) {
                assert_eq!(
                    expected,
                    &server.serve(batch, &mut NoopRecorder),
                    "{shards}-shard session must match the sequential session"
                );
            }
            assert_eq!(server.seed_count(), sequential.seed_count());
        }
    }

    #[test]
    fn only_session_mode_keeps_seeds() {
        let requests = perturbed_stream(0);
        for warm in [WarmMode::Off, WarmMode::Batch] {
            let mut server = BatchServer::new(Parallelism::Sequential, warm);
            let first = server.serve(&requests, &mut NoopRecorder);
            let mut metrics = MetricsRegistry::new();
            let second = server.serve(&requests, &mut metrics);
            assert_eq!(first, second, "{warm:?} batches must not carry state");
            assert_eq!(server.seed_count(), 0, "{warm:?} must never keep seeds");
            let expected = if warm == WarmMode::Off { 0 } else { requests.len() as u64 - 1 };
            assert_eq!(metrics.counter("serve.warm_starts"), expected);
        }
    }

    #[test]
    fn warm_mode_parses() {
        assert_eq!(WarmMode::parse("off").unwrap(), WarmMode::Off);
        assert_eq!(WarmMode::parse("batch").unwrap(), WarmMode::Batch);
        assert_eq!(WarmMode::parse("session").unwrap(), WarmMode::Session);
        assert!(WarmMode::parse("warmish").is_err());
        assert_eq!(WarmMode::default(), WarmMode::Batch);
    }

    /// Renders only the event stream (no registry trailer), which is the
    /// part of a traced export that must be shard-count independent.
    fn events_jsonl(tele: &fap_obs::Telemetry) -> String {
        let mut out = String::new();
        for event in tele.events() {
            fap_obs::jsonl::write_event(&mut out, event);
        }
        out
    }

    #[test]
    fn tracing_changes_no_response_bits_at_any_shard_count() {
        let requests = mixed_batch();
        let plain = cold(Parallelism::Sequential, &requests);
        let mut reference_spans: Option<String> = None;
        for shards in [1, 2, 3, 4, 8, 64] {
            let mut traced = fap_obs::Telemetry::manual().with_tracing(true);
            let responses = BatchServer::new(Parallelism::Fixed(shards), WarmMode::Off)
                .serve(&requests, &mut traced);
            assert_eq!(
                plain, responses,
                "tracing at {shards} shards must not change the solved bits"
            );
            let spans = events_jsonl(&traced);
            assert!(spans.contains("serve.batch") && spans.contains("serve.solve"));
            match &reference_spans {
                None => reference_spans = Some(spans),
                Some(reference) => assert_eq!(
                    reference, &spans,
                    "the span stream must be identical at {shards} shards"
                ),
            }
        }
    }

    #[test]
    fn warm_chain_spans_are_shard_invariant_and_tile_the_batch() {
        // Warm chains are the indivisible task units the workers take;
        // their spans must come out identical whatever the shard count,
        // and the task spans must tile the batch span exactly.
        let requests = mixed_batch();
        let mut reference: Option<String> = None;
        for shards in [1, 2, 4, 8] {
            let mut traced = fap_obs::Telemetry::manual().with_tracing(true);
            BatchServer::new(Parallelism::Fixed(shards), WarmMode::Batch)
                .serve(&requests, &mut traced);
            let spans = events_jsonl(&traced);
            match &reference {
                None => reference = Some(spans),
                Some(r) => assert_eq!(r, &spans, "{shards} shards"),
            }
        }
        let traced = reference.unwrap();
        // The batch span's duration equals the sum of its task durations:
        // replay into a flight recorder and check the self-time partition.
        let mut fr = fap_obs::FlightRecorder::default();
        let mut tele = fap_obs::Telemetry::manual().with_tracing(true);
        BatchServer::new(Parallelism::Sequential, WarmMode::Batch)
            .serve(&requests, &mut fap_obs::Tee::new(&mut tele, &mut fr));
        assert_eq!(fr.completed_traces(), 1, "one batch, one root trace");
        let root = fr.recent().next().unwrap();
        assert_eq!(root.name, "serve.batch");
        let self_total: u64 = fr.layer_self_times().map(|(_, v)| v).sum();
        assert_eq!(
            self_total, root.dur,
            "self time must partition the batch's virtual duration"
        );
        // Leaves own every tick: tasks and the batch are pure containers.
        assert_eq!(fr.layer_self_time("serve"), root.dur);
        assert!(traced.contains("serve.task"));
    }

    #[test]
    fn batch_spans_nest_under_an_installed_context() {
        let requests = vec![ring_request()];
        let mut tele = fap_obs::Telemetry::manual().with_tracing(true);
        let root_id = tele.reserve_span_ids(1);
        let root = TraceContext::root(root_id);
        tele.set_current_trace(Some(root));
        BatchServer::new(Parallelism::Sequential, WarmMode::Off).serve(&requests, &mut tele);
        let batch_start = tele
            .events()
            .iter()
            .find(|e| {
                e.name() == SPAN_START && e.field("name") == Some(Value::Str("serve.batch"))
            })
            .expect("the batch span must be emitted");
        assert_eq!(batch_start.field("parent"), Some(Value::U64(root_id)));
        assert_eq!(batch_start.field("trace"), Some(Value::U64(root.trace_id)));
        // The installed context is untouched afterwards.
        assert_eq!(tele.current_trace(), Some(root));
    }

    #[test]
    fn a_failed_link_does_not_break_its_chain() {
        let mut requests: Vec<ServeRequest> =
            (0..4).map(|i| single_file_request(300 + i)).collect();
        if let ServeRequest::SingleFile { initial, .. } = &mut requests[1] {
            *initial = vec![0.9; 5]; // infeasible: validation rejects it
        }
        let (warm_sequential, _) = serve_once(Parallelism::Sequential, WarmMode::Batch, &requests);
        assert_eq!(errors(&warm_sequential), 1);
        assert!(warm_sequential[1].is_err());
        for shards in [2, 4] {
            let (sharded, _) = serve_once(Parallelism::Fixed(shards), WarmMode::Batch, &requests);
            assert_eq!(warm_sequential, sharded);
        }
    }
}
