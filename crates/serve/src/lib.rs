//! # fap-serve — sharded batch serving for the allocation solvers
//!
//! The paper's optimizer is decentralized by design: many independent
//! allocation problems run concurrently across a network. This crate is
//! the serving-side mirror of that structure — a batcher that accepts many
//! independent scenarios (single-file §4, multi-file §5.2, ring §7) and
//! shards them across a work-stealing worker pool:
//!
//! * **Submission-order, bit-identical results.** The batch is planned into
//!   *tasks* (single requests, or warm-start chains — see below) whose
//!   solved outputs depend only on the task's own contents, never on which
//!   worker runs it or when. Workers pull tasks from per-worker deques,
//!   stealing from the back of a victim's deque when their own runs dry
//!   (counted by `serve.steals`), and each task is solved with the same
//!   deterministic kernel the sequential path uses — so the response
//!   vector is bit-identical to solving the batch sequentially for *every*
//!   shard count, even though the task-to-worker assignment is timing
//!   dependent (pinned by the tests here and by
//!   `tests/serve_equivalence.rs`).
//! * **Warm-start chains.** With [`BatchServer::with_warm_start`], requests
//!   of the same family and shape are grouped into chains solved
//!   sequentially inside one task; each converged answer seeds the next
//!   solve through [`OptimizerScratch::start_from`] /
//!   [`MultiFileScratch::start_from`] (re-projected onto the simplex, so
//!   feasibility is exact). Because the chain — not the request — is the
//!   scheduling unit, the seed sequence is shard-count-independent and the
//!   warm responses are bit-identical to a warm sequential run. Savings
//!   are visible as `serve.warm_starts` and `econ.warm_start_iters_saved`
//!   (iterations below the chain's cold baseline).
//! * **Session seeds.** A [`SessionSeeds`] store handed to
//!   [`BatchServer::serve`] extends warm-start chains *across batches*: it
//!   keeps each chain's last converged allocation and arms the matching
//!   chain head in the next batch — the warm state the `fap served`
//!   daemon keeps alive between requests. An empty store is
//!   bit-identical to the plain warm path.
//! * **Allocation-free steady state.** Each worker owns one
//!   [`OptimizerScratch`] and one [`MultiFileScratch`] reused across every
//!   task it executes, the same scratch discipline the batch engine
//!   established.
//! * **Per-shard metrics, one aggregate.** Each worker records through the
//!   solver entry points into its own [`MetricsRegistry`]
//!   (a registry keeps counters/gauges/histograms and drops events). After
//!   the join, shard registries are replayed in shard order through a
//!   [`Tee`] into the aggregate snapshot and any caller-provided recorder —
//!   counters add and histograms merge bucket-wise, so those aggregate
//!   metrics are independent of the shard count *and* of which worker
//!   solved what; per-shard registry contents and last-write gauges are
//!   scheduling-dependent under stealing and are advisory only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Mutex;

use serde::Serialize;

use fap_batch::Parallelism;
use fap_cache::{Fnv64, FnvBuildHasher};
use fap_core::{MultiFileProblem, MultiFileScratch, MultiFileSolution, SingleFileProblem};
use fap_econ::{
    AllocationProblem, OptimizerScratch, ResourceDirectedOptimizer, Solution, StepSize,
};
use fap_obs::{
    emit_span, emit_span_end, emit_span_start, MetricsRegistry, Recorder, Tee,
    TraceContext,
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
    /// A §5.2 multi-file allocation (solved sequentially inside its
    /// worker — the shards are the parallelism).
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

/// Everything one batch produced: responses in submission order, the
/// per-shard metric registries, and their fan-in.
#[derive(Debug)]
pub struct ServeOutput {
    /// One entry per request, in submission order.
    pub responses: Vec<Result<ServeResponse, ServeError>>,
    /// One registry per shard, in shard (= chunk) order.
    pub shard_metrics: Vec<MetricsRegistry>,
    /// The shard registries merged in shard order: counters added,
    /// histograms folded bucket-wise, plus the `serve.shards` gauge.
    pub aggregate: MetricsRegistry,
}

/// A converged allocation retained across batches to seed the next solve
/// of the same warm-start chain — the unit of the `fap served` daemon's
/// cross-batch warm state.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionSeed {
    /// A §4 single-file allocation (`Σ x_i = 1`).
    SingleFile(Vec<f64>),
    /// Per-file §5.2 multi-file allocations.
    MultiFile(Vec<Vec<f64>>),
}

/// Warm-start seeds that outlive a single batch, keyed by the same
/// structural chain key [`BatchServer::serve`] groups
/// requests by. An empty seed store makes a session batch behave exactly
/// like a plain warm batch; afterwards the store holds each chain's last
/// converged allocation, so the *next* batch's chain heads start seeded
/// (visible as `serve.warm_starts` counted for chain heads, which a
/// single-batch run never does).
///
/// Seeds only ever alter a starting iterate — never a problem — so stale
/// or mismatched seeds cost iterations, not correctness.
#[derive(Debug, Clone, Default)]
pub struct SessionSeeds {
    seeds: HashMap<u64, SessionSeed, FnvBuildHasher>,
}

impl SessionSeeds {
    /// An empty seed store.
    pub fn new() -> Self {
        SessionSeeds::default()
    }

    /// Number of chains currently holding a seed.
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// Whether no chain has converged yet.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }

    /// Forgets every seed (the daemon's `warm=batch` mode between batches).
    pub fn clear(&mut self) {
        self.seeds.clear();
    }

    fn get(&self, key: u64) -> Option<&SessionSeed> {
        self.seeds.get(&key)
    }

    fn insert(&mut self, key: u64, seed: SessionSeed) {
        self.seeds.insert(key, seed);
    }
}

impl ServeOutput {
    /// Number of requests that solved successfully.
    pub fn ok_count(&self) -> usize {
        self.responses.iter().filter(|r| r.is_ok()).count()
    }

    /// Number of requests that failed.
    pub fn err_count(&self) -> usize {
        self.responses.len() - self.ok_count()
    }
}

/// The sharded batcher.
///
/// # Example
///
/// ```
/// use fap_batch::Parallelism;
/// use fap_obs::NoopRecorder;
/// use fap_serve::{BatchServer, ServeRequest};
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
/// let output = BatchServer::new(Parallelism::Fixed(2)).serve(&requests, None, &mut NoopRecorder);
/// assert_eq!(output.ok_count(), 6);
/// assert_eq!(output.aggregate.counter("serve.requests"), 6);
/// # Ok::<(), fap_ring::RingError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BatchServer {
    parallelism: Parallelism,
    warm_start: bool,
}

impl BatchServer {
    /// A server sharding batches per `parallelism`
    /// ([`Parallelism::Sequential`] = one shard, [`Parallelism::Auto`] =
    /// one per core, [`Parallelism::Fixed`] = exactly that many, always
    /// clamped to the request count). Warm starts are off by default, so a
    /// plain server reproduces the cold per-request solves bit-for-bit.
    pub fn new(parallelism: Parallelism) -> Self {
        BatchServer { parallelism, warm_start: false }
    }

    /// Enables (or disables) warm-start chaining: requests of the same
    /// family and shape — same variant, dimensions, α and ε — are grouped
    /// into chains, each chain solved in submission order inside one
    /// scheduling task with every converged answer seeding the next solve.
    ///
    /// Warm-started responses converge to the same fixed point but
    /// typically in far fewer iterations for perturbed-workload streams,
    /// so their iteration counts (and last float bits) differ from cold
    /// responses; the warm output is instead bit-identical across *shard
    /// counts*, which is the determinism contract that matters for
    /// serving. Seeds only ever alter the starting iterate — never the
    /// problem — so a chain that accidentally mixes unrelated requests of
    /// identical shape still solves every one of them correctly.
    #[must_use]
    pub fn with_warm_start(mut self, enabled: bool) -> Self {
        self.warm_start = enabled;
        self
    }

    /// Whether warm-start chaining is enabled.
    pub fn warm_start(&self) -> bool {
        self.warm_start
    }

    /// The shard count a batch of `requests` solves would use.
    pub fn shards_for(&self, requests: usize) -> usize {
        self.parallelism.threads_for(requests)
    }

    /// Solves every request across the work-stealing shard pool.
    ///
    /// Responses come back in submission order and are bit-identical to
    /// solving the same requests sequentially (with the same warm-start
    /// setting), whatever the shard count. Each shard records into its own
    /// [`MetricsRegistry`]; afterwards the registries are replayed in
    /// shard order through a [`Tee`] into both the aggregate snapshot and
    /// `recorder` (pass [`NoopRecorder`](fap_obs::NoopRecorder) to keep
    /// only the aggregate), so a caller-side sink sees the same merged
    /// metrics the aggregate holds.
    ///
    /// `seeds` carries warm state *across batches*: with warm-start
    /// chaining enabled, chain heads are seeded from the store (the
    /// previous batches' converged allocations) and each chain's last
    /// converged answer is written back after the join. With chaining
    /// disabled the store is ignored. Responses are bit-identical across
    /// shard counts for a fixed store, and a run with an empty store is
    /// bit-identical to a run with `None`.
    pub fn serve(
        &self,
        requests: &[ServeRequest],
        seeds: Option<&mut SessionSeeds>,
        recorder: &mut dyn Recorder,
    ) -> ServeOutput {
        let shards = self.shards_for(requests.len());
        let (order, tasks, keys) = self.plan_tasks(requests);
        // Chain-head seeds are snapshotted per task before any worker
        // spawns; workers read the snapshot immutably, so scheduling can
        // never race the seed store.
        let task_seeds: Vec<Option<SessionSeed>> = match &seeds {
            Some(store) if self.warm_start => {
                keys.iter().map(|k| k.and_then(|k| store.get(k).cloned())).collect()
            }
            _ => vec![None; tasks.len()],
        };
        let mut responses: Vec<Option<Result<ServeResponse, ServeError>>> =
            vec![None; requests.len()];
        let mut shard_metrics: Vec<MetricsRegistry> = Vec::new();

        if shards <= 1 {
            let mut registry = MetricsRegistry::new();
            let mut worker = ShardWorker::new();
            let mut out = Vec::with_capacity(requests.len());
            for (task, &(start, end)) in tasks.iter().enumerate() {
                worker.run_task(
                    requests,
                    &order[start..end],
                    self.warm_start,
                    task_seeds[task].as_ref(),
                    &mut registry,
                    &mut out,
                );
            }
            scatter(&mut responses, out);
            shard_metrics.push(registry);
        } else {
            // Per-worker deques seeded with contiguous task ranges; a
            // worker pops its own deque from the front and, once dry,
            // steals from the *back* of the next non-empty victim (scanned
            // in ring order). Tasks never re-enter a deque, so "every
            // deque observed empty" is a safe termination condition. The
            // assignment of tasks to workers is timing-dependent; the
            // solved bits are not, because each task is self-contained.
            let chunk = tasks.len().div_ceil(shards);
            let queues: Vec<Mutex<VecDeque<usize>>> = (0..shards)
                .map(|w| {
                    let start = (w * chunk).min(tasks.len());
                    let end = ((w + 1) * chunk).min(tasks.len());
                    Mutex::new((start..end).collect())
                })
                .collect();
            let warm = self.warm_start;
            let (requests_ref, order_ref, tasks_ref, queues_ref, seeds_ref) =
                (requests, &order, &tasks, &queues, &task_seeds);
            let worker_outputs: Vec<(MetricsRegistry, TaskOutput)> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..shards)
                        .map(|w| {
                            scope.spawn(move || {
                                let mut registry = MetricsRegistry::new();
                                let mut worker = ShardWorker::new();
                                let mut out = Vec::new();
                                while let Some(task) =
                                    next_task(queues_ref, w, &mut registry)
                                {
                                    let (start, end) = tasks_ref[task];
                                    worker.run_task(
                                        requests_ref,
                                        &order_ref[start..end],
                                        warm,
                                        seeds_ref[task].as_ref(),
                                        &mut registry,
                                        &mut out,
                                    );
                                }
                                (registry, out)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("serve shard worker panicked"))
                        .collect()
                });
            for (registry, out) in worker_outputs {
                scatter(&mut responses, out);
                shard_metrics.push(registry);
            }
        }

        // Fan-in: replay each shard registry, in shard order, into both
        // the aggregate and the caller's recorder through one Tee — the
        // counters and histograms of the merge are shard-count-independent
        // because counter addition and histogram folding commute.
        let mut aggregate = MetricsRegistry::new();
        for shard in &shard_metrics {
            let mut tee = Tee::new(&mut aggregate, recorder);
            shard.replay_into(&mut tee);
        }
        aggregate.gauge("serve.shards", shard_metrics.len() as f64);
        recorder.gauge("serve.shards", shard_metrics.len() as f64);

        let responses: Vec<Result<ServeResponse, ServeError>> = responses
            .into_iter()
            .map(|slot| slot.expect("every request is assigned to exactly one task"))
            .collect();

        // Tracing: the span timeline is *synthesized* here, after the
        // join, from the plan and the solved responses — never from worker
        // timing — so the span stream is bit-identical for every shard
        // count and steal pattern. A stolen task keeps its parent by
        // construction: parentage comes from the plan, not from which
        // worker ran the task.
        if recorder.trace_enabled() {
            emit_batch_spans(recorder, &order, &tasks, &responses);
        }

        // Seed write-back happens after the join, from the submission-order
        // responses: each keyed chain stores its *last* converged answer.
        // Chain keys are disjoint across tasks, so the write order is
        // immaterial and the stored seeds are shard-count-independent.
        if let Some(store) = seeds {
            if self.warm_start {
                for (task, &(start, end)) in tasks.iter().enumerate() {
                    let Some(key) = keys[task] else { continue };
                    for &index in order[start..end].iter().rev() {
                        let Ok(response) = &responses[index] else { continue };
                        if !response.converged() {
                            continue;
                        }
                        let seed = match response {
                            ServeResponse::SingleFile(s) => {
                                SessionSeed::SingleFile(s.allocation.clone())
                            }
                            ServeResponse::MultiFile(s) => {
                                SessionSeed::MultiFile(s.allocations.clone())
                            }
                            ServeResponse::Ring(_) => continue,
                        };
                        store.insert(key, seed);
                        break;
                    }
                }
            }
        }
        ServeOutput { responses, shard_metrics, aggregate }
    }

    /// Plans the batch into scheduling tasks. Returns `(order, tasks,
    /// keys)`: `order` is a permutation of the request indices, each task
    /// is a `(start, end)` range into it, and `keys[t]` is task `t`'s
    /// warm-start chain key (`None` for keyless singletons). Cold mode
    /// emits one singleton task per request in submission order (so
    /// execution matches the historical chunked scheduler exactly); warm
    /// mode groups same-key requests into chains in first-appearance order,
    /// keyless (ring) requests staying singletons.
    #[allow(clippy::type_complexity)]
    fn plan_tasks(
        &self,
        requests: &[ServeRequest],
    ) -> (Vec<usize>, Vec<(usize, usize)>, Vec<Option<u64>>) {
        if !self.warm_start {
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

/// A worker's collected `(request index, result)` pairs, scattered back to
/// submission-order slots after the join.
type TaskOutput = Vec<(usize, Result<ServeResponse, ServeError>)>;

fn scatter(responses: &mut [Option<Result<ServeResponse, ServeError>>], out: TaskOutput) {
    for (index, result) in out {
        responses[index] = Some(result);
    }
}

/// Pops the next task for worker `w`: front of its own deque, else the back
/// of the first non-empty victim deque in ring order (a steal, counted in
/// the worker's registry). `None` means every deque is empty — and since
/// tasks are never re-queued, empty means finished.
fn next_task(
    queues: &[Mutex<VecDeque<usize>>],
    w: usize,
    registry: &mut MetricsRegistry,
) -> Option<usize> {
    if let Some(task) = queues[w].lock().expect("serve queue poisoned").pop_front() {
        return Some(task);
    }
    for offset in 1..queues.len() {
        let victim = (w + offset) % queues.len();
        if let Some(task) = queues[victim].lock().expect("serve queue poisoned").pop_back() {
            registry.incr("serve.steals", 1);
            return Some(task);
        }
    }
    None
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

/// One shard's solver state: the scratch buffers reused across every
/// request in the shard's chunk, so the steady state allocates only what
/// the returned solutions themselves need.
struct ShardWorker {
    econ_scratch: OptimizerScratch,
    multi_scratch: MultiFileScratch,
}

impl ShardWorker {
    fn new() -> Self {
        ShardWorker { econ_scratch: OptimizerScratch::new(), multi_scratch: MultiFileScratch::new() }
    }

    /// Executes one scheduling task — a single request, or a warm-start
    /// chain of same-key requests solved in submission order, each
    /// converged answer seeding the next solve. Seeds never cross a task
    /// boundary *within a batch*: both scratches are disarmed on entry and
    /// exit, so a task's outputs depend only on its own contents — and on
    /// the optional cross-batch `seed`, which is part of those contents
    /// (snapshotted per task before scheduling). That is the property the
    /// work-stealing scheduler's determinism rests on.
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
        seed: Option<&SessionSeed>,
        registry: &mut MetricsRegistry,
        out: &mut TaskOutput,
    ) {
        self.econ_scratch.clear_warm_start();
        self.multi_scratch.clear_warm_start();
        if warm {
            match seed {
                Some(SessionSeed::SingleFile(x)) => self.econ_scratch.start_from(x),
                Some(SessionSeed::MultiFile(xs)) => self.multi_scratch.start_from(xs),
                None => {}
            }
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
            out.push((index, result));
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
                    Parallelism::Sequential,
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

    #[test]
    fn every_shard_count_matches_the_sequential_solve() {
        let requests = mixed_batch();
        let sequential =
            BatchServer::new(Parallelism::Sequential).serve(&requests, None, &mut NoopRecorder);
        assert_eq!(sequential.err_count(), 0);
        for shards in [2, 3, 8, 64] {
            let sharded = BatchServer::new(Parallelism::Fixed(shards))
                .serve(&requests, None, &mut NoopRecorder);
            assert_eq!(
                sequential.responses, sharded.responses,
                "{shards} shards must be bit-identical to sequential"
            );
        }
    }

    #[test]
    fn shard_count_clamps_to_the_request_count() {
        let server = BatchServer::new(Parallelism::Fixed(64));
        assert_eq!(server.shards_for(3), 3);
        assert_eq!(server.shards_for(0), 1);
        let output = server.serve(&[ring_request(), ring_request()], None, &mut NoopRecorder);
        assert_eq!(output.shard_metrics.len(), 2);
    }

    #[test]
    fn aggregate_counters_are_shard_count_independent() {
        let requests = mixed_batch();
        let sequential =
            BatchServer::new(Parallelism::Sequential).serve(&requests, None, &mut NoopRecorder);
        let sharded =
            BatchServer::new(Parallelism::Fixed(4)).serve(&requests, None, &mut NoopRecorder);
        for counter in
            ["serve.requests", "econ.iterations", "core.iterations", "ring.iterations"]
        {
            assert!(sequential.aggregate.counter(counter) > 0, "{counter} never recorded");
            assert_eq!(
                sequential.aggregate.counter(counter),
                sharded.aggregate.counter(counter),
                "{counter} must not depend on the shard count"
            );
        }
        fn iters(o: &ServeOutput) -> &fap_obs::Histogram {
            o.aggregate.histogram("serve.request_iterations").unwrap()
        }
        assert_eq!(iters(&sequential).count(), requests.len() as u64);
        assert_eq!(iters(&sequential), iters(&sharded));
    }

    #[test]
    fn aggregate_is_the_sum_of_the_shards() {
        let requests = mixed_batch();
        let output =
            BatchServer::new(Parallelism::Fixed(3)).serve(&requests, None, &mut NoopRecorder);
        assert_eq!(output.shard_metrics.len(), 3);
        let shard_sum: u64 =
            output.shard_metrics.iter().map(|r| r.counter("serve.requests")).sum();
        assert_eq!(shard_sum, requests.len() as u64);
        assert_eq!(output.aggregate.counter("serve.requests"), shard_sum);
        assert_eq!(output.aggregate.gauge_value("serve.shards"), Some(3.0));
    }

    #[test]
    fn caller_recorder_sees_the_merged_metrics() {
        let requests = mixed_batch();
        let mut tele = fap_obs::Telemetry::manual();
        let output = BatchServer::new(Parallelism::Fixed(2)).serve(&requests, None, &mut tele);
        assert_eq!(
            tele.registry().counter("serve.requests"),
            output.aggregate.counter("serve.requests")
        );
        assert_eq!(
            tele.registry().counter("econ.iterations"),
            output.aggregate.counter("econ.iterations")
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
        let output =
            BatchServer::new(Parallelism::Fixed(3)).serve(&requests, None, &mut NoopRecorder);
        assert_eq!(output.err_count(), 1);
        assert!(output.responses[3].is_err());
        assert_eq!(output.aggregate.counter("serve.errors"), 1);
        // And the rest still match an all-good sequential solve of the
        // same (mutated) batch.
        let sequential =
            BatchServer::new(Parallelism::Sequential).serve(&requests, None, &mut NoopRecorder);
        assert_eq!(sequential.responses, output.responses);
    }

    #[test]
    fn empty_batch_is_fine() {
        let output = BatchServer::new(Parallelism::Auto).serve(&[], None, &mut NoopRecorder);
        assert!(output.responses.is_empty());
        assert_eq!(output.shard_metrics.len(), 1);
        assert_eq!(output.aggregate.counter("serve.requests"), 0);
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
        let (order, tasks, keys) = BatchServer::new(Parallelism::Auto).plan_tasks(&requests);
        assert_eq!(order, (0..requests.len()).collect::<Vec<_>>());
        assert_eq!(tasks, (0..requests.len()).map(|i| (i, i + 1)).collect::<Vec<_>>());
        assert!(keys.iter().all(Option::is_none), "cold tasks are keyless");
    }

    #[test]
    fn warm_planning_chains_same_key_requests_in_first_appearance_order() {
        let requests = mixed_batch();
        let server = BatchServer::new(Parallelism::Auto).with_warm_start(true);
        let (order, tasks, keys) = server.plan_tasks(&requests);
        // Submission order: single, multi, ring, repeated three times.
        // Singles chain, multis chain, each ring stays a singleton.
        assert_eq!(order, vec![0, 3, 6, 1, 4, 7, 2, 5, 8]);
        assert_eq!(tasks, vec![(0, 3), (3, 6), (6, 7), (7, 8), (8, 9)]);
        assert_eq!(keys[0], warm_key(&requests[0]));
        assert_eq!(keys[1], warm_key(&requests[1]));
        assert_eq!(&keys[2..], &[None, None, None], "ring singletons stay keyless");
    }

    #[test]
    fn stealing_pops_the_back_of_the_first_non_empty_victim() {
        let queues = vec![
            Mutex::new(VecDeque::new()),
            Mutex::new(VecDeque::from([1, 2])),
            Mutex::new(VecDeque::from([3])),
        ];
        let mut registry = MetricsRegistry::new();
        // Worker 0 is dry: it steals the *back* of worker 1's deque.
        assert_eq!(next_task(&queues, 0, &mut registry), Some(2));
        assert_eq!(registry.counter("serve.steals"), 1);
        // Worker 1 still owns its front.
        assert_eq!(next_task(&queues, 1, &mut registry), Some(1));
        assert_eq!(registry.counter("serve.steals"), 1);
        // Everyone dry once the last victim is drained.
        assert_eq!(next_task(&queues, 0, &mut registry), Some(3));
        assert_eq!(next_task(&queues, 0, &mut registry), None);
        assert_eq!(registry.counter("serve.steals"), 2);
    }

    #[test]
    fn warm_responses_are_bit_identical_across_every_shard_count() {
        let requests = mixed_batch();
        let warm_sequential = BatchServer::new(Parallelism::Sequential)
            .with_warm_start(true)
            .serve(&requests, None, &mut NoopRecorder);
        assert_eq!(warm_sequential.err_count(), 0);
        for shards in [1, 2, 4, 8] {
            let sharded = BatchServer::new(Parallelism::Fixed(shards))
                .with_warm_start(true)
                .serve(&requests, None, &mut NoopRecorder);
            assert_eq!(
                warm_sequential.responses, sharded.responses,
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
        let cold =
            BatchServer::new(Parallelism::Sequential).serve(&requests, None, &mut NoopRecorder);
        let warm = BatchServer::new(Parallelism::Sequential)
            .with_warm_start(true)
            .serve(&requests, None, &mut NoopRecorder);
        assert_eq!(warm.err_count(), 0);
        // Every request after the chain head runs seeded.
        assert_eq!(warm.aggregate.counter("serve.warm_starts"), requests.len() as u64 - 1);
        assert_eq!(
            warm.aggregate.counter("econ.warm_starts"),
            warm.aggregate.counter("serve.warm_starts"),
            "the serve-side and engine-side warm counts must agree"
        );
        assert!(
            warm.aggregate.counter("econ.warm_start_iters_saved") > 0,
            "seeding from a converged neighbour must save iterations"
        );
        assert!(
            warm.aggregate.counter("econ.iterations") < cold.aggregate.counter("econ.iterations"),
            "the warm batch must run fewer total iterations than the cold one"
        );
        // Warm answers land on the same optimum the cold solves found.
        for (w, c) in warm.responses.iter().zip(&cold.responses) {
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
        let warm = BatchServer::new(Parallelism::Sequential)
            .with_warm_start(true)
            .serve(&requests, None, &mut NoopRecorder);
        assert_eq!(warm.aggregate.counter("serve.warm_starts"), 0);
        assert_eq!(warm.aggregate.counter("econ.warm_starts"), 0);
        // And a singleton chain matches the cold server bit for bit.
        let cold =
            BatchServer::new(Parallelism::Sequential).serve(&requests, None, &mut NoopRecorder);
        assert_eq!(warm.responses, cold.responses);
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
    fn an_empty_seed_store_matches_the_plain_warm_path_and_fills_up() {
        let requests = perturbed_stream(0);
        let server = BatchServer::new(Parallelism::Sequential).with_warm_start(true);
        let plain = server.serve(&requests, None, &mut NoopRecorder);
        let mut seeds = SessionSeeds::new();
        let session = server.serve(&requests, Some(&mut seeds), &mut NoopRecorder);
        assert_eq!(plain.responses, session.responses);
        assert_eq!(seeds.len(), 1, "one single-file chain converged into one seed");
    }

    #[test]
    fn session_seeds_warm_the_next_batch_including_its_chain_head() {
        let server = BatchServer::new(Parallelism::Sequential).with_warm_start(true);
        let mut seeds = SessionSeeds::new();
        let first = server.serve(&perturbed_stream(0), Some(&mut seeds), &mut NoopRecorder);
        // Batch 1: the chain head is cold, the other three are seeded.
        assert_eq!(first.aggregate.counter("serve.warm_starts"), 3);
        let second_requests = perturbed_stream(1);
        let second = server.serve(&second_requests, Some(&mut seeds), &mut NoopRecorder);
        // Batch 2: even the head starts from batch 1's converged tail.
        assert_eq!(second.aggregate.counter("serve.warm_starts"), 4);
        // Seeding changed iterates, never optima: compare against cold.
        let cold = BatchServer::new(Parallelism::Sequential)
            .serve(&second_requests, None, &mut NoopRecorder);
        assert!(
            second.aggregate.counter("econ.iterations")
                < cold.aggregate.counter("econ.iterations"),
            "cross-batch seeds must save iterations"
        );
        for (s, c) in second.responses.iter().zip(&cold.responses) {
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
        let server = BatchServer::new(Parallelism::Sequential).with_warm_start(true);
        let ring = topology::ring(5, 1.0).unwrap();
        let mesh = topology::full_mesh(5, 1.0).unwrap();
        // Distinct stand-in fingerprints (the spec layer derives real ones
        // from the graph; the serving layer only compares them).
        let (ring_fp, mesh_fp) = (1, 2);

        let mut seeds = SessionSeeds::new();
        let batch = fingerprinted_stream(0, &ring, ring_fp);
        let first = server.serve(&batch, Some(&mut seeds), &mut NoopRecorder);
        assert_eq!(first.aggregate.counter("serve.warm_starts"), 3, "cold head");
        // λ-only drift on the same topology: the next batch's head is
        // seeded from the previous batch's tail.
        let batch = fingerprinted_stream(1, &ring, ring_fp);
        let second = server.serve(&batch, Some(&mut seeds), &mut NoopRecorder);
        assert_eq!(
            second.aggregate.counter("serve.warm_starts"),
            4,
            "a mid-session λ-only change must reuse session seeds"
        );
        // A topology change — same dimension and solver parameters, so
        // the old structural key would have collided — must run its head
        // cold instead of starting from the ring's optimum.
        let batch = fingerprinted_stream(2, &mesh, mesh_fp);
        let third = server.serve(&batch, Some(&mut seeds), &mut NoopRecorder);
        assert_eq!(
            third.aggregate.counter("serve.warm_starts"),
            3,
            "a mid-session topology change must invalidate session seeds"
        );
        // And the mesh responses equal a fresh no-seed serve: the ring
        // seeds were never consulted.
        let mut fresh = SessionSeeds::new();
        let batch = fingerprinted_stream(2, &mesh, mesh_fp);
        let fresh_third = server.serve(&batch, Some(&mut fresh), &mut NoopRecorder);
        assert_eq!(third.responses, fresh_third.responses);
    }

    #[test]
    fn session_responses_are_bit_identical_across_shard_counts() {
        let batches = [perturbed_stream(0), mixed_batch(), perturbed_stream(1)];
        let mut reference_seeds = SessionSeeds::new();
        let reference: Vec<_> = batches
            .iter()
            .map(|batch| {
                BatchServer::new(Parallelism::Sequential)
                    .with_warm_start(true)
                    .serve(batch, Some(&mut reference_seeds), &mut NoopRecorder)
                    .responses
            })
            .collect();
        for shards in [2, 4, 8] {
            let server = BatchServer::new(Parallelism::Fixed(shards)).with_warm_start(true);
            let mut seeds = SessionSeeds::new();
            for (batch, expected) in batches.iter().zip(&reference) {
                let output = server.serve(batch, Some(&mut seeds), &mut NoopRecorder);
                assert_eq!(
                    expected, &output.responses,
                    "{shards}-shard session must match the sequential session"
                );
            }
        }
    }

    #[test]
    fn seeds_are_inert_without_warm_start() {
        let requests = perturbed_stream(0);
        let server = BatchServer::new(Parallelism::Sequential); // cold
        let mut seeds = SessionSeeds::new();
        let session = server.serve(&requests, Some(&mut seeds), &mut NoopRecorder);
        let plain = server.serve(&requests, None, &mut NoopRecorder);
        assert_eq!(plain.responses, session.responses);
        assert!(seeds.is_empty(), "a cold server must never write seeds");
        assert_eq!(session.aggregate.counter("serve.warm_starts"), 0);
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
        let plain =
            BatchServer::new(Parallelism::Sequential).serve(&requests, None, &mut NoopRecorder);
        let mut reference_spans: Option<String> = None;
        for shards in [1, 2, 3, 4, 8, 64] {
            let mut traced = fap_obs::Telemetry::manual().with_tracing(true);
            let output = BatchServer::new(Parallelism::Fixed(shards))
                .serve(&requests, None, &mut traced);
            assert_eq!(
                plain.responses, output.responses,
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
    fn warm_chain_spans_are_steal_invariant_and_tile_the_batch() {
        // Warm chains are the indivisible task units the stealer moves
        // around; their spans must come out identical whatever the shard
        // count, and the task spans must tile the batch span exactly.
        let requests = mixed_batch();
        let mut reference: Option<String> = None;
        for shards in [1, 2, 4, 8] {
            let mut traced = fap_obs::Telemetry::manual().with_tracing(true);
            BatchServer::new(Parallelism::Fixed(shards))
                .with_warm_start(true)
                .serve(&requests, None, &mut traced);
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
        BatchServer::new(Parallelism::Sequential)
            .with_warm_start(true)
            .serve(&requests, None, &mut Tee::new(&mut tele, &mut fr));
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
        BatchServer::new(Parallelism::Sequential).serve(&requests, None, &mut tele);
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
        let warm_sequential = BatchServer::new(Parallelism::Sequential)
            .with_warm_start(true)
            .serve(&requests, None, &mut NoopRecorder);
        assert_eq!(warm_sequential.err_count(), 1);
        assert!(warm_sequential.responses[1].is_err());
        for shards in [2, 4] {
            let sharded = BatchServer::new(Parallelism::Fixed(shards))
                .with_warm_start(true)
                .serve(&requests, None, &mut NoopRecorder);
            assert_eq!(warm_sequential.responses, sharded.responses);
        }
    }
}
