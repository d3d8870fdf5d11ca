//! The Free Join execution algorithm (Figures 7 and 13 of the paper).
//!
//! Execution proceeds node by node over a compiled plan. For each node the
//! engine iterates one subatom — the *cover* — and probes the others; when
//! every probe succeeds it recurses into the next node, and when the plan is
//! exhausted it emits the current tuple. Three of the paper's optimizations
//! live here:
//!
//! * **Dynamic cover selection** (Section 4.4): among the node's cover
//!   candidates, iterate the one whose trie currently has the fewest keys.
//! * **Vectorized execution** (Section 4.3, Figure 13): there is one cover
//!   walk and one probe kernel. Every node gathers up to
//!   `FreeJoinOptions::batch_size` iterated cover entries, runs each probe
//!   over the whole batch, then recurses for the survivors. Batch size 1 is
//!   tuple-at-a-time execution — the same loop, not a separate one, which
//!   is how the Figure 18 ablation treats it.
//! * **Factorized output** (Section 4.4): when the remaining nodes are
//!   independent expansions and the sink only needs counts, multiply subtree
//!   sizes instead of enumerating the Cartesian product.
//! * **Adaptive cardinality-guided execution** (`FreeJoinOptions::adaptive`,
//!   off by default): the compiled plan no longer has the last word on the
//!   probe order. At every node marked reorderable at prepare time, each
//!   binding re-ranks the cover candidates and the remaining probes by the
//!   O(1) construction-fixed bound of each subatom's *current* trie position
//!   ([`TrieNode::key_bound`]) — smallest first, plan order as the
//!   tie-break — so a miss on a tiny per-binding sub-trie skips (and never
//!   lazily forces) a huge one. Bounds are fixed when tries are built, so
//!   the decisions, results and counters are identical at any thread count,
//!   steal schedule and batch size. When off, the probes run in plan order
//!   behind one precomputed per-node mask check.
//!
//! Bag semantics are handled with a running weight: when an input's final
//! subatom is probed (rather than iterated), the probe result stands for all
//! matching base tuples and multiplies the weight by their number.
//!
//! The hot path is allocation-free: probe keys of arity ≤ 2 are built as
//! inline [`LevelKey`]s (or stack arrays) in place, and every remaining
//! per-iteration buffer (wide-key spill, saved trie positions, vectorization
//! batches) lives in a per-node `NodeScratch` allocated once per pipeline
//! and reused across iterations. Trie levels hash with the workspace's
//! FxHash-style `FastBuildHasher` (see `fj_storage::key` and
//! [`crate::trie`]).
//!
//! # Chunked result emission
//!
//! The result side is **columnar and batched**, matching the vectorized trie
//! side: instead of a virtual `Sink` call per result tuple, every worker
//! appends bindings into a [`ChunkBuffer`] — a column-major
//! [`fj_query::ResultChunk`] already projected onto the sink's output slots
//! (a counting sink's chunks carry only weights) — and crosses the sink
//! boundary once per chunk. When the remaining plan is an *independent tail*
//! (every following node a single final expansion, the factorized-output
//! plan shape of Section 4.4) but the sink needs enumeration, the executor
//! gathers each inner expansion's `(values, weight)` list once and emits the
//! Cartesian product straight into the chunk columns, rather than re-walking
//! each suffix trie for every outer combination. Emission order is identical
//! to the recursive walk's, so results are bit-for-bit those of the
//! tuple-at-a-time executor this replaces.
//!
//! # Work-stealing parallelism
//!
//! [`execute_pipeline_parallel`] runs the plan under a shared work-stealing
//! scheduler in the spirit of morsel-driven execution (Leis et al., SIGMOD
//! 2014), but with **recursive splitting across the whole plan** rather than
//! at the root only. The first node's cover iteration seeds a global
//! injector with range tasks; each scoped worker owns a deque, pops its own
//! tasks LIFO, and steals FIFO from the injector or a peer when idle. A
//! worker that *begins* an expansion — at any plan node, or an
//! independent-tail Cartesian product — whose size (read in O(1) from the
//! trie level-map via `estimated_keys`) reaches
//! `FreeJoinOptions::split_threshold` does not walk it alone: it pushes
//! sub-range `Task`s onto its deque for idle workers to steal and moves
//! on. Each task carries its binding prefix, trie positions and running
//! weight, so the cover walk resumes mid-plan exactly where the split
//! happened.
//!
//! **Determinism.** Every task carries a dense *path key*: root tasks are
//! keyed `[0] .. [k-1]` in root-range order, and a task's spawned children
//! extend its own key with a per-task counter assigned in expansion order.
//! Split decisions depend only on trie sizes and the configured threshold —
//! never on the thread count or which worker ran what — so the task tree,
//! and therefore the lexicographic path-key order in which per-task sinks
//! are merged, is identical at any thread count and any steal schedule.
//! Probes may lazily force shared trie nodes from several workers at once —
//! the trie's `OnceLock`-based forcing (see [`crate::trie`]) makes that
//! race-free. The serial path (`num_threads == 1`) runs the same cover walk
//! and probe kernel straight over the tries — no scheduler, no materialized
//! root entries — with one sink and one chunk buffer.

use crate::cancel::CancelToken;
use crate::compile::{CompiledNode, CompiledPlan, IterAction};
use crate::options::FreeJoinOptions;
use crate::sink::{ChunkBuffer, Sink};
use crate::trie::{InputTrie, TrieNode};
use fj_obs::{ProfileSheet, TraceBuf, TraceCat, DEFAULT_TRACE_CAPACITY};
use fj_query::CancelReason;
use fj_storage::{LevelKey, Value};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-execution controls, shared by every worker of one execution: the
/// cooperative cancel token, and whether each worker collects a per-node
/// profile sheet and a trace ring. The default — disabled token, both
/// instruments off — allocates nothing and costs one branch per check or
/// emission site.
#[derive(Debug, Clone, Default)]
pub struct ExecControl {
    /// Polled at task/morsel/flush boundaries; chunk flushes charge its
    /// result-byte budget.
    pub token: CancelToken,
    /// Collect per-plan-node expansions, probes, output rows and coarse wall
    /// time into [`ExecCounters::profile`].
    pub profile: bool,
    /// Record per-worker span rings into [`ExecCounters::traces`].
    pub trace: bool,
}

/// Counters collected during the join phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecCounters {
    /// Number of probe operations.
    pub probes: u64,
    /// Number of probes that found a match.
    pub probe_hits: u64,
    /// Expansion work processed: cover entries iterated at join nodes plus
    /// product rows emitted at independent-tail nodes. Identical between the
    /// serial and parallel paths (splitting moves work, it never adds any).
    pub expansions: u64,
    /// Tasks created by the scheduler (root ranges plus split sub-ranges).
    /// Zero on the serial path.
    pub tasks_spawned: u64,
    /// Tasks executed by a worker other than the one that spawned them.
    /// Schedule-dependent; zero on the serial path.
    pub tasks_stolen: u64,
    /// `expansions` broken down by worker id. Empty on the serial path.
    pub worker_expansions: Vec<u64>,
    /// Cover-entry bindings whose adaptive probe order differed from the
    /// static plan order (the probe kernel ranks once per cover walk and
    /// charges each flushed batch). Zero unless `FreeJoinOptions::adaptive` is
    /// set; deterministic — each binding is processed exactly once and the
    /// ranking depends only on construction-fixed trie bounds, so the count
    /// is identical at any thread count, steal schedule or batch size.
    pub reorders: u64,
    /// Per-plan-node profile accumulators; disabled (empty, no allocation)
    /// unless [`ExecControl::profile`] is set.
    pub profile: ProfileSheet,
    /// Per-worker trace event rings (node/task spans, steal/split/reorder
    /// instants); empty — no allocation, emission sites reduce to a length
    /// check — unless [`ExecControl::trace`] is set. One ring per worker
    /// that executed part of this pipeline.
    pub traces: Vec<TraceBuf>,
    /// Shared cooperative-cancellation token. Every worker clones the same
    /// query-level token; the disabled default makes each check a single
    /// discriminant test. Not merged (it is shared, not additive).
    pub cancel: CancelToken,
    /// First cancellation reason this worker observed, cached so every later
    /// check short-circuits; `None` while live.
    pub cancelled: Option<CancelReason>,
    /// Check counter driving the amortized deadline clock poll.
    cancel_tick: u32,
}

/// Consult the wall clock once per this many cancellation checks. The cancel
/// flag itself is read on every check (an explicit cancel or a tripped byte
/// budget is observed at the very next boundary); only `Instant::now` for the
/// deadline is amortized.
const CANCEL_POLL_PERIOD: u32 = 256;

impl ExecCounters {
    /// Fresh counters for one worker (`worker` 0 on the serial path): armed
    /// with the execution's cancel token, and with an enabled profile sheet
    /// and trace ring only when the control asks for them.
    fn for_worker(plan: &CompiledPlan, control: &ExecControl, worker: u32) -> Self {
        let mut counters =
            ExecCounters { cancel: control.token.clone(), ..ExecCounters::default() };
        if control.profile {
            counters.profile = ProfileSheet::enabled(plan.nodes.len());
        }
        if control.trace {
            counters.traces.push(TraceBuf::with_capacity(DEFAULT_TRACE_CAPACITY, worker));
        }
        counters
    }

    /// Accumulate another worker's counters.
    pub fn merge(&mut self, mut other: ExecCounters) {
        self.probes += other.probes;
        self.probe_hits += other.probe_hits;
        self.expansions += other.expansions;
        self.tasks_spawned += other.tasks_spawned;
        self.tasks_stolen += other.tasks_stolen;
        self.reorders += other.reorders;
        self.profile.merge(&other.profile);
        self.traces.append(&mut other.traces);
        if self.worker_expansions.len() < other.worker_expansions.len() {
            self.worker_expansions.resize(other.worker_expansions.len(), 0);
        }
        for (mine, theirs) in self.worker_expansions.iter_mut().zip(&other.worker_expansions) {
            *mine += theirs;
        }
    }

    /// The schedule-independent subset (probe and expansion totals), used by
    /// tests to check that parallel execution does exactly the serial work.
    pub fn work(&self) -> (u64, u64, u64) {
        (self.probes, self.probe_hits, self.expansions)
    }

    /// Cooperative cancellation check, called at task/morsel/flush and cover
    /// boundaries. Returns `true` when execution should unwind. Costs one
    /// `Option` discriminant test with the disabled token, one cached-field
    /// test once a trip was observed, and one relaxed atomic load otherwise;
    /// the deadline's `Instant::now` runs every `CANCEL_POLL_PERIOD`th
    /// check.
    #[inline]
    pub fn check_cancel(&mut self) -> bool {
        if self.cancelled.is_some() {
            return true;
        }
        if self.cancel.is_disabled() {
            return false;
        }
        self.cancel_tick = self.cancel_tick.wrapping_add(1);
        self.cancelled = if self.cancel_tick.is_multiple_of(CANCEL_POLL_PERIOD) {
            self.cancel.poll()
        } else {
            self.cancel.fired()
        };
        self.cancelled.is_some()
    }
}

/// Reusable per-node scratch space. One instance exists per plan node and is
/// reused by every invocation of that node, so the join loop performs no
/// per-tuple heap allocation. Under parallel execution every worker owns a
/// private set. Every node's cover walk batches through these buffers;
/// independent-tail nodes reuse `writes`/`weights` for their gathered
/// expansion lists instead.
#[derive(Debug, Default)]
struct NodeScratch {
    /// Spill buffer for probe keys wider than the inline arity (arity ≤ 2
    /// probes build `Copy` [`LevelKey`]s in place and never touch this).
    spill_key: Vec<Value>,
    /// Saved trie positions to restore after a recursive call.
    saved: Vec<(usize, Arc<TrieNode>)>,
    /// Batch: values bound by the cover (stride = new slots).
    writes: Vec<Value>,
    /// Batch: accumulated weights.
    weights: Vec<u64>,
    /// Batch: survived all probes so far?
    alive: Vec<bool>,
    /// Batch: child trie nodes per (entry, subatom) — flat, stride = number
    /// of subatoms in the node. Only non-final subatoms use a slot.
    children: Vec<Option<Arc<TrieNode>>>,
    /// Number of entries currently buffered.
    count: usize,
    /// Probe order for this node's non-cover subatoms (subatom indices),
    /// filled once per cover walk: plan order unless adaptive reordering
    /// kicks in.
    probe_order: Vec<usize>,
    /// Does `probe_order` differ from plan order? Each flush then charges
    /// its whole batch to `reorders`.
    reordered: bool,
}

/// The state one walk of the plan threads through its recursion: the shared
/// inputs, the worker's binding tuple, trie positions, counters, chunk buffer
/// and sink, and — under the scheduler — the running task's split context.
/// The serial path builds one for the whole pipeline; each parallel worker
/// builds one per task.
struct ExecCtx<'a> {
    tries: &'a [Arc<InputTrie>],
    plan: &'a CompiledPlan,
    options: &'a FreeJoinOptions,
    /// `options.batch_size` clamped to at least 1: a struct literal can say
    /// 0, and the probe kernel needs room for one entry.
    batch_size: usize,
    /// Current binding, one slot per variable of the binding order.
    tuple: &'a mut [Value],
    /// Current trie position of every input.
    current: &'a mut [Arc<TrieNode>],
    sink: &'a mut dyn Sink,
    counters: &'a mut ExecCounters,
    out: &'a mut ChunkBuffer,
    /// The running task's split context; `None` on the serial path, which
    /// never splits.
    split: Option<WorkerSplitter<'a>>,
}

/// Execute a compiled pipeline over its input tries, sending results to the
/// sink. Returns probe counters; trie-building counters live on the tries.
pub fn execute_pipeline(
    tries: &[Arc<InputTrie>],
    plan: &CompiledPlan,
    options: &FreeJoinOptions,
    sink: &mut dyn Sink,
) -> ExecCounters {
    execute_pipeline_cancellable(tries, plan, options, sink, &ExecControl::default())
}

/// [`execute_pipeline`] under per-execution controls: `control.token` is
/// checked per cover entry (and at every node/flush boundary), and
/// chunk-buffer flushes charge its result-byte budget. A fired token makes
/// the remaining walk a cheap no-op; the caller detects the trip via
/// [`CancelToken::fired`] (or the returned counters' `cancelled` field) and
/// discards the partial sink.
pub fn execute_pipeline_cancellable(
    tries: &[Arc<InputTrie>],
    plan: &CompiledPlan,
    options: &FreeJoinOptions,
    sink: &mut dyn Sink,
    control: &ExecControl,
) -> ExecCounters {
    debug_assert_eq!(tries.len(), plan.num_inputs);
    let mut counters = ExecCounters::for_worker(plan, control, 0);
    let mut tuple = vec![Value::Null; plan.binding_order.len()];
    let mut current: Vec<Arc<TrieNode>> = tries.iter().map(|t| t.root()).collect();
    let mut scratch: Vec<NodeScratch> = plan.nodes.iter().map(|_| NodeScratch::default()).collect();
    let mut out =
        ChunkBuffer::for_sink_metered(sink, plan.binding_order.len(), control.token.clone());
    let mut ctx = ExecCtx {
        tries,
        plan,
        options,
        batch_size: options.batch_size.max(1),
        tuple: &mut tuple,
        current: &mut current,
        sink,
        counters: &mut counters,
        out: &mut out,
        split: None,
    };
    run_node(&mut ctx, 0, 1, &mut scratch);
    out.flush(sink);
    counters
}

/// A materialized cover-entry list shared across the sibling sub-ranges of
/// one split.
type EntryList = Arc<Vec<(LevelKey, Arc<TrieNode>)>>;

/// What one scheduler task iterates. Entry lists are materialized as owned
/// clones (`LevelKey` is `Copy`-cheap at the inline arities) shared across
/// the sibling sub-ranges of one split via `Arc`, so tasks have no lifetime
/// ties to the worker that spawned them.
enum TaskItems {
    /// A range of a node's (forced) cover-map entries.
    Entries { cover_idx: usize, entries: EntryList, lo: usize, hi: usize },
    /// A range of base-table rows — the root cover is an unforced last level
    /// (the COLT fast path), iterated directly without forcing.
    Rows { cover_idx: usize, lo: usize, hi: usize },
    /// A range of an independent tail's first expansion list (flat
    /// `(values, weight)` columns); the task re-gathers the inner lists and
    /// emits its slice of the Cartesian product.
    Tail { writes: Arc<Vec<Value>>, weights: Arc<Vec<u64>>, lo: usize, hi: usize },
}

/// One unit of stealable work: resume the plan at `node_idx` with the given
/// binding prefix, trie positions and running weight, and iterate `items`.
/// `path` is the task's dense key in the task tree; sorting per-task sinks
/// by it reproduces the same merge order at any thread count and any steal
/// schedule (see the module docs).
struct Task {
    path: Vec<u32>,
    node_idx: usize,
    items: TaskItems,
    tuple: Vec<Value>,
    positions: Vec<Arc<TrieNode>>,
    weight: u64,
    /// Worker that pushed the task (`usize::MAX` for root tasks, which live
    /// in the injector and are claimed, not stolen).
    spawner: usize,
}

/// Shared scheduler state: a global injector seeded with the root ranges and
/// one deque per worker. Workers pop their own deque LIFO (depth-first, keeps
/// caches warm) and steal FIFO (breadth-first, takes the largest-granularity
/// work) from the injector or a peer. Plain mutexed deques: contention is
/// bounded by the split threshold, which keeps tasks coarse.
struct Scheduler {
    injector: Mutex<VecDeque<Task>>,
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Tasks pushed but not yet completed; workers exit when it hits zero.
    /// Incremented *before* a task becomes visible, decremented only after
    /// it ran to completion, so it never reads zero while work remains.
    pending: AtomicUsize,
    spawned: AtomicU64,
    steal: bool,
    split_threshold: usize,
}

impl Scheduler {
    fn new(num_workers: usize, options: &FreeJoinOptions) -> Self {
        Scheduler {
            injector: Mutex::new(VecDeque::new()),
            queues: (0..num_workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            spawned: AtomicU64::new(0),
            steal: options.steal,
            // A 0/1 threshold would split single-entry expansions into
            // themselves forever; the options setter clamps, this guards
            // struct-literal construction.
            split_threshold: options.split_threshold.max(2),
        }
    }

    fn push_tasks(&self, worker: usize, tasks: Vec<Task>) {
        self.pending.fetch_add(tasks.len(), Ordering::AcqRel);
        self.spawned.fetch_add(tasks.len() as u64, Ordering::Relaxed);
        let mut queue = self.queues[worker].lock().expect("no poisoned worker deque");
        queue.extend(tasks);
    }

    /// Own deque first (LIFO), then the injector, then peers (FIFO steal).
    fn find_task(&self, worker: usize) -> Option<Task> {
        if let Some(t) = self.queues[worker].lock().expect("no poisoned worker deque").pop_back() {
            return Some(t);
        }
        if let Some(t) = self.injector.lock().expect("no poisoned injector").pop_front() {
            return Some(t);
        }
        let n = self.queues.len();
        for k in 1..n {
            let peer = (worker + k) % n;
            if let Some(t) = self.queues[peer].lock().expect("no poisoned worker deque").pop_front()
            {
                return Some(t);
            }
        }
        None
    }
}

/// Per-task split context of one parallel worker. Child tasks extend the
/// running task's path key with a counter assigned in expansion order, which
/// is what makes the task tree — and the merge order — schedule-independent.
struct WorkerSplitter<'a> {
    sched: &'a Scheduler,
    worker: usize,
    path: &'a [u32],
    next_child: u32,
}

impl WorkerSplitter<'_> {
    /// Should a node expansion of `size` cover entries be cut into sub-range
    /// tasks instead of walked by the current worker?
    fn should_split(&self, size: usize) -> bool {
        self.sched.steal && size >= self.sched.split_threshold
    }

    /// Should an independent-tail product (`first_len` first-list entries ×
    /// `inner_count` inner combinations each) be cut into sub-range tasks?
    fn should_split_tail(&self, first_len: usize, inner_count: u64) -> bool {
        self.sched.steal
            && first_len >= 2
            && (first_len as u64).saturating_mul(inner_count.max(1))
                >= self.sched.split_threshold as u64
    }

    fn child_path(&mut self) -> Vec<u32> {
        let mut path = Vec::with_capacity(self.path.len() + 1);
        path.extend_from_slice(self.path);
        path.push(self.next_child);
        self.next_child += 1;
        path
    }
}

impl ExecCtx<'_> {
    /// Hand `total` items of the expansion at `node_idx` to the scheduler as
    /// child tasks of `chunk` items each, resuming from the current binding
    /// prefix, trie positions and `weight`. Only called once the running
    /// task's splitter agreed to split.
    fn spawn(
        &mut self,
        node_idx: usize,
        weight: u64,
        total: usize,
        chunk: usize,
        items: impl Fn(usize, usize) -> TaskItems,
    ) {
        if let Some(tb) = self.counters.traces.last_mut() {
            tb.instant(TraceCat::Split, node_idx as u32, total as u64, &[]);
        }
        let split = self.split.as_mut().expect("only scheduler tasks split");
        let chunk = chunk.max(1);
        let mut tasks = Vec::with_capacity(total.div_ceil(chunk));
        for lo in (0..total).step_by(chunk) {
            tasks.push(Task {
                path: split.child_path(),
                node_idx,
                items: items(lo, (lo + chunk).min(total)),
                tuple: self.tuple.to_vec(),
                positions: self.current.to_vec(),
                weight,
                spawner: split.worker,
            });
        }
        split.sched.push_tasks(split.worker, tasks);
    }

    /// The split threshold, if the running task's splitter accepts
    /// `decide`; `None` on the serial path or when it declines.
    fn split_if(&self, decide: impl FnOnce(&WorkerSplitter<'_>) -> bool) -> Option<usize> {
        self.split.as_ref().filter(|s| decide(s)).map(|s| s.sched.split_threshold)
    }
}

/// Probe one subatom's trie level, reading the key values through
/// `read(slot)`. Arity ≤ 2 keys — the common case — are built as inline
/// (`Copy`) [`LevelKey`]s in place; wider keys fill the node's reusable
/// spill buffer and are looked up as a borrowed slice. Either way the probe
/// allocates nothing.
#[inline]
fn probe_subatom(
    trie: &InputTrie,
    node: &TrieNode,
    level: usize,
    key_slots: &[usize],
    spill: &mut Vec<Value>,
    read: impl Fn(usize) -> Value,
) -> Option<Arc<TrieNode>> {
    match *key_slots {
        [] => trie.get_key(node, level, &LevelKey::empty()),
        [a] => trie.get_key(node, level, &LevelKey::single(read(a))),
        [a, b] => trie.get_key(node, level, &LevelKey::pair(read(a), read(b))),
        ref slots => {
            spill.clear();
            spill.extend(slots.iter().map(|&s| read(s)));
            trie.get(node, level, spill)
        }
    }
}

/// Execute a compiled pipeline under the work-stealing scheduler (see the
/// module docs): the first node's cover seeds the injector with range tasks,
/// and workers re-split any sufficiently large expansion deeper in the plan
/// into stealable sub-range tasks.
///
/// `make_sink` creates one sink per task; the sinks come back in **task-tree
/// order** (per-task dense path keys sorted lexicographically) together with
/// the summed counters, so the caller's merge is deterministic — identical
/// at any thread count and any steal schedule. Falls back to the serial
/// algorithm (returning a single sink) when `num_threads <= 1`, when the
/// factorized-output shortcut already applies at the first node, or when
/// there is no root-level work to split.
pub fn execute_pipeline_parallel<S, F>(
    tries: &[Arc<InputTrie>],
    plan: &CompiledPlan,
    options: &FreeJoinOptions,
    num_threads: usize,
    make_sink: F,
) -> (Vec<S>, ExecCounters)
where
    S: Sink + Send,
    F: Fn() -> S + Sync,
{
    let control = ExecControl::default();
    execute_pipeline_parallel_cancellable(tries, plan, options, num_threads, make_sink, &control)
}

/// [`execute_pipeline_parallel`] under per-execution controls. Workers check
/// `control.token` at every task boundary and inside the recursive walk;
/// once it fires they stop running tasks but keep draining their deques and
/// the injector (each drained task is marked complete without executing), so
/// the `pending == 0` exit condition is still reached and no worker spins.
pub fn execute_pipeline_parallel_cancellable<S, F>(
    tries: &[Arc<InputTrie>],
    plan: &CompiledPlan,
    options: &FreeJoinOptions,
    num_threads: usize,
    make_sink: F,
    control: &ExecControl,
) -> (Vec<S>, ExecCounters)
where
    S: Sink + Send,
    F: Fn() -> S + Sync,
{
    debug_assert_eq!(tries.len(), plan.num_inputs);
    let token = &control.token;
    let serial = |mut sink: S| {
        let counters = execute_pipeline_cancellable(tries, plan, options, &mut sink, control);
        (vec![sink], counters)
    };
    if num_threads <= 1 || plan.nodes.is_empty() {
        return serial(make_sink());
    }
    // If the whole plan collapses into the factorized-output shortcut, the
    // work is O(#inputs); run it serially without forcing anything.
    let node0 = &plan.nodes[0];
    if options.factorize_output && node0.independent_tail {
        let sink = make_sink();
        if sink.accepts_factorized(node0.bound_before) {
            return serial(sink);
        }
    }

    // Materialize the first node's cover iteration as a splittable work list.
    let roots: Vec<Arc<TrieNode>> = tries.iter().map(|t| t.root()).collect();
    let cover_idx = select_cover(tries, node0, &roots, options);
    let cover = &node0.subatoms[cover_idx];
    let cover_trie = &tries[cover.input];
    let cover_root = roots[cover.input].clone();
    let root_entries: Option<EntryList> =
        if !cover_root.is_map() && cover_trie.is_last_level(cover.level) {
            None // unforced last level: iterate base rows directly
        } else {
            let map = cover_trie.force(&cover_root, cover.level, !cover_root.is_map());
            Some(Arc::new(map.iter().map(|(k, c)| (k.clone(), c.clone())).collect()))
        };
    let total = match &root_entries {
        None => cover_trie.num_rows(),
        Some(entries) => entries.len(),
    };
    if total == 0 {
        return serial(make_sink());
    }

    // Root task granularity: a fixed fan-out independent of the thread count
    // (so the task tree, and with it the merge order, is the same at any
    // thread count), capped so per-task sink overhead stays negligible.
    // Skew below the root is the scheduler's job, not the root chunking's:
    // any root range hiding a hot subtree re-splits when it reaches the
    // oversized expansion.
    const ROOT_FAN: usize = 32;
    let root_chunk = total.div_ceil(ROOT_FAN).clamp(1, 4096);
    let num_root = total.div_ceil(root_chunk);

    let sched = Scheduler::new(num_threads, options);
    {
        let mut injector = sched.injector.lock().expect("no poisoned injector");
        for m in 0..num_root {
            let lo = m * root_chunk;
            let hi = (lo + root_chunk).min(total);
            let items = match &root_entries {
                Some(entries) => TaskItems::Entries { cover_idx, entries: entries.clone(), lo, hi },
                None => TaskItems::Rows { cover_idx, lo, hi },
            };
            injector.push_back(Task {
                path: vec![m as u32],
                node_idx: 0,
                items,
                tuple: vec![Value::Null; plan.binding_order.len()],
                positions: roots.clone(),
                weight: 1,
                spawner: usize::MAX,
            });
        }
    }
    sched.pending.store(num_root, Ordering::Release);
    sched.spawned.store(num_root as u64, Ordering::Relaxed);

    let segments: Mutex<Vec<(Vec<u32>, S)>> = Mutex::new(Vec::new());
    let total_counters: Mutex<ExecCounters> = Mutex::new(ExecCounters::default());

    std::thread::scope(|scope| {
        for id in 0..num_threads {
            let sched = &sched;
            let segments = &segments;
            let total_counters = &total_counters;
            let make_sink = &make_sink;
            let roots = &roots;
            scope.spawn(move || {
                let mut tuple = vec![Value::Null; plan.binding_order.len()];
                let mut current: Vec<Arc<TrieNode>> = roots.clone();
                let mut scratch: Vec<NodeScratch> =
                    plan.nodes.iter().map(|_| NodeScratch::default()).collect();
                let mut counters = ExecCounters::for_worker(plan, control, id as u32);
                loop {
                    let Some(task) = sched.find_task(id) else {
                        if sched.pending.load(Ordering::Acquire) == 0 {
                            break;
                        }
                        std::thread::yield_now();
                        continue;
                    };
                    // Drain on observe: a fired token turns every remaining
                    // task into a completed no-op, so the deques and the
                    // injector empty out and `pending` still reaches zero.
                    if counters.check_cancel() {
                        sched.pending.fetch_sub(1, Ordering::AcqRel);
                        continue;
                    }
                    if task.spawner != usize::MAX && task.spawner != id {
                        counters.tasks_stolen += 1;
                        if let Some(tb) = counters.traces.last_mut() {
                            tb.instant(
                                TraceCat::Steal,
                                task.node_idx as u32,
                                task.spawner as u64,
                                &task.path,
                            );
                        }
                    }
                    if let Some(tb) = counters.traces.last_mut() {
                        tb.begin(TraceCat::Task, task.node_idx as u32, task.weight, &task.path);
                    }
                    let mut sink = make_sink();
                    let mut out = ChunkBuffer::for_sink_metered(
                        &sink,
                        plan.binding_order.len(),
                        token.clone(),
                    );
                    let mut ctx = ExecCtx {
                        tries,
                        plan,
                        options,
                        batch_size: options.batch_size.max(1),
                        tuple: &mut tuple,
                        current: &mut current,
                        sink: &mut sink,
                        counters: &mut counters,
                        out: &mut out,
                        split: Some(WorkerSplitter {
                            sched,
                            worker: id,
                            path: &task.path,
                            next_child: 0,
                        }),
                    };
                    run_task(&mut ctx, &task, &mut scratch);
                    out.flush(&mut sink);
                    if let Some(tb) = counters.traces.last_mut() {
                        tb.end(TraceCat::Task, task.node_idx as u32, sink.tuples());
                    }
                    // Empty sinks contribute nothing to the merge; skip them
                    // (split-heavy schedules produce many empty tasks).
                    if sink.tuples() > 0 {
                        segments
                            .lock()
                            .expect("no poisoned segments")
                            .push((task.path.clone(), sink));
                    }
                    sched.pending.fetch_sub(1, Ordering::AcqRel);
                }
                // Fold through `merge`, so every additive field — including
                // ones added later — reaches the total.
                let mut share = vec![0; num_threads];
                share[id] = counters.expansions;
                counters.worker_expansions = share;
                total_counters.lock().expect("no poisoned counters").merge(counters);
            });
        }
    });

    let mut counters = total_counters.into_inner().expect("no poisoned counters");
    counters.tasks_spawned = sched.spawned.load(Ordering::Relaxed);
    counters.cancel = token.clone();
    counters.cancelled = token.fired();
    let mut segments = segments.into_inner().expect("no poisoned segments");
    // The deterministic merge: lexicographic path-key order reproduces the
    // task-tree (depth-first, expansion-order) traversal regardless of which
    // worker ran which task.
    segments.sort_by(|a, b| a.0.cmp(&b.0));
    (segments.into_iter().map(|(_, sink)| sink).collect(), counters)
}

/// Execute one scheduler task: restore its binding prefix, trie positions
/// and weight, then walk its item range — cover entries or base rows through
/// [`walk_cover`] (which recurses into the rest of the plan and may split
/// again, deeper), or an independent-tail slice through [`run_tail_range`].
fn run_task(ctx: &mut ExecCtx, task: &Task, scratch: &mut [NodeScratch]) {
    // Chaos failpoint: an injected panic here unwinds out of a worker thread
    // mid-join — the serve layer's catch_unwind isolation (and the scoped
    // executor's teardown) must both survive it. Disarmed cost: one relaxed
    // load per task, not per tuple.
    let _ = fj_obs::chaos::should_fail("exec.task");
    ctx.tuple.copy_from_slice(&task.tuple);
    ctx.current.clone_from_slice(&task.positions);
    let (node, weight, path) = (task.node_idx, task.weight, &task.path);
    let scratch = &mut scratch[node..];
    match &task.items {
        TaskItems::Tail { writes, weights, lo, hi } => {
            run_tail_range(ctx, node, weight, writes, weights, *lo..*hi, scratch)
        }
        TaskItems::Entries { cover_idx, entries, lo, hi } => {
            let source = CoverSource::Entries(&entries[*lo..*hi]);
            walk_cover(ctx, node, *cover_idx, weight, source, path, scratch)
        }
        TaskItems::Rows { cover_idx, lo, hi } => {
            walk_cover(ctx, node, *cover_idx, weight, CoverSource::Rows(*lo..*hi), path, scratch)
        }
    }
}

/// Select which subatom of the node to iterate (the runtime cover).
fn select_cover(
    tries: &[Arc<InputTrie>],
    node: &CompiledNode,
    current: &[Arc<TrieNode>],
    options: &FreeJoinOptions,
) -> usize {
    // Adaptive execution ranks candidates by the construction-fixed bound of
    // their current trie position — unlike `estimated_keys` this never
    // depends on which levels other workers have already forced, so the
    // choice (and everything downstream of it) is schedule-independent.
    // Stable min: the static plan order breaks ties.
    if options.adaptive && node.reorderable && node.cover_candidates.len() > 1 {
        return node
            .cover_candidates
            .iter()
            .copied()
            .min_by_key(|&i| current[node.subatoms[i].input].key_bound())
            .expect("valid plans have at least one cover");
    }
    if options.dynamic_cover && node.cover_candidates.len() > 1 {
        node.cover_candidates
            .iter()
            .copied()
            .min_by_key(|&i| {
                let sub = &node.subatoms[i];
                tries[sub.input].estimated_keys(&current[sub.input])
            })
            .expect("valid plans have at least one cover")
    } else {
        node.cover_candidates[0]
    }
}

/// The recursive join (Figure 7), one invocation per plan node. `scratch`
/// holds the scratch space of this node and every following node
/// (`scratch[0]` belongs to `node_idx`); every result emission of this
/// invocation lands in the context's chunk buffer.
fn run_node(ctx: &mut ExecCtx, node_idx: usize, weight: u64, scratch: &mut [NodeScratch]) {
    if ctx.counters.check_cancel() {
        return;
    }
    let (tries, plan) = (ctx.tries, ctx.plan);
    if node_idx == plan.nodes.len() {
        ctx.out.push(ctx.sink, ctx.tuple, weight);
        return;
    }
    let node = &plan.nodes[node_idx];

    // Factorized output: the rest of the plan is a Cartesian product of
    // independent expansions and the sink only needs counts — multiply sizes.
    if ctx.options.factorize_output
        && node.independent_tail
        && ctx.sink.accepts_factorized(node.bound_before)
    {
        let mut total = weight;
        for (d, tail) in plan.nodes[node_idx..].iter().enumerate() {
            let sub = &tail.subatoms[0];
            total = total.saturating_mul(tries[sub.input].tuple_count(&ctx.current[sub.input]));
            // The running product is exactly the rows the skipped node would
            // have produced; record it so the profile's actuals match the
            // enumerating paths.
            ctx.counters.profile.add_output_rows(node_idx + d, total);
        }
        // A partial tuple: every slot the sink projects is within
        // `bound_before` (that is what `accepts_factorized` checked), so the
        // chunk buffer reads only bound slots.
        ctx.out.push(ctx.sink, ctx.tuple, total);
        return;
    }

    // The sink needs enumeration, but the remaining plan is still a
    // Cartesian product of independent expansions: emit it straight into the
    // chunk columns instead of recursing per combination.
    if node.independent_tail {
        expand_independent_tail(ctx, node_idx, weight, scratch);
        return;
    }

    let cover_idx = select_cover(tries, node, ctx.current, ctx.options);
    let cover = &node.subatoms[cover_idx];
    let cover_trie = &tries[cover.input];

    // The split point: an expansion at least `split_threshold` wide (the
    // level-map size, read in O(1)) is handed to the scheduler as sub-range
    // tasks instead of being walked by this worker — this is what lets one
    // hot key's subtree fan out over every idle worker. The decision depends
    // only on trie sizes and options, keeping the task tree (and the merge
    // order) schedule-independent.
    let size = || cover_trie.estimated_keys(&ctx.current[cover.input]);
    if let Some(threshold) = ctx.split_if(|s| s.should_split(size())) {
        let cover_node = ctx.current[cover.input].clone();
        let map = cover_trie.force(&cover_node, cover.level, !cover_node.is_map());
        let entries: EntryList =
            Arc::new(map.iter().map(|(k, c)| (k.clone(), c.clone())).collect());
        // Balanced chunks of at most `split_threshold` entries: sub-tasks
        // stay below the threshold themselves, and the chunking depends only
        // on the expansion size, never on the thread count.
        let total = entries.len();
        let chunk = total.div_ceil(total.div_ceil(threshold).max(1));
        ctx.spawn(node_idx, weight, total, chunk, |lo, hi| TaskItems::Entries {
            cover_idx,
            entries: entries.clone(),
            lo,
            hi,
        });
        return;
    }
    walk_cover(ctx, node_idx, cover_idx, weight, CoverSource::Level, &[], scratch);
}

/// Where one cover walk's entries come from.
enum CoverSource<'e> {
    /// The cover's current trie level, walked with [`InputTrie::for_each`]
    /// (the serial recursion, and every node below a task's first).
    Level,
    /// A slice of materialized cover-map entries (a split sub-range task).
    Entries(&'e [(LevelKey, Arc<TrieNode>)]),
    /// A range of base-table rows of an unforced last level (a root task on
    /// the COLT fast path).
    Rows(Range<usize>),
}

/// The cover walk (Figure 13): buffer every cover entry `source` yields,
/// flush each full batch through the probe kernel ([`flush_batch`], which
/// recurses for the survivors), flush the remainder, and record the node's
/// trace span and profile wall time. `path` tags the span (a task's path key
/// for a task's first node, empty otherwise).
fn walk_cover(
    ctx: &mut ExecCtx,
    node_idx: usize,
    cover_idx: usize,
    weight: u64,
    source: CoverSource,
    path: &[u32],
    scratch: &mut [NodeScratch],
) {
    let (tries, plan) = (ctx.tries, ctx.plan);
    let node = &plan.nodes[node_idx];
    let cover = &node.subatoms[cover_idx];
    let cover_trie = &tries[cover.input];
    let t0 = ctx.counters.profile.is_enabled().then(Instant::now);
    if let Some(tb) = ctx.counters.traces.last_mut() {
        let span = match &source {
            CoverSource::Level => 0,
            CoverSource::Entries(entries) => entries.len() as u64,
            CoverSource::Rows(rows) => rows.len() as u64,
        };
        tb.begin(TraceCat::Node, node_idx as u32, span, path);
    }

    let (mine, rest) = scratch.split_at_mut(1);
    let mine = &mut mine[0];
    ensure_batch_buffers(mine, ctx.batch_size, node);
    order_probes(ctx, node, cover_idx, mine);
    mine.count = 0;
    let mut visit = |ctx: &mut ExecCtx, key: &[Value], child: Option<&Arc<TrieNode>>| {
        // The per-cover-entry cancellation boundary, checked before
        // buffering: once cancelled, `flush_batch` refuses to drain, so
        // appending again would overrun the batch buffers.
        if ctx.counters.check_cancel() {
            return;
        }
        ctx.counters.expansions += 1;
        ctx.counters.profile.add_expansions(node_idx, 1);
        buffer_cover_entry(ctx, node, cover_idx, key, child, weight, mine);
        if mine.count >= ctx.batch_size {
            flush_batch(ctx, node_idx, mine, rest);
        }
    };
    match source {
        CoverSource::Level => {
            let cover_node = ctx.current[cover.input].clone();
            cover_trie.for_each(&cover_node, cover.level, |key, child| visit(ctx, key, child));
        }
        CoverSource::Entries(entries) => {
            for (key, child) in entries {
                visit(ctx, key.values(), Some(child));
            }
        }
        CoverSource::Rows(rows) => {
            let rows = rows.start as u32..rows.end as u32;
            cover_trie
                .for_each_row_key(cover.level, rows, &mut |key, child| visit(ctx, key, child));
        }
    }
    flush_batch(ctx, node_idx, mine, rest);

    if let Some(tb) = ctx.counters.traces.last_mut() {
        tb.end(TraceCat::Node, node_idx as u32, 0);
    }
    if let Some(t0) = t0 {
        ctx.counters.profile.add_wall(node_idx, t0.elapsed());
    }
}

/// Enumerate an independent tail (every remaining node a single, final,
/// write-only expansion of a distinct input — the plan shape behind the
/// factorized-output shortcut) without re-walking suffix tries: the lists of
/// every tail node after the first are gathered once into their nodes'
/// scratch as flat `(values, weight)` columns, the first node's cover is
/// streamed, and the Cartesian product is emitted by nested loops over the
/// gathered columns straight into the chunk buffer. Emission order is
/// exactly the recursive walk's, and tail nodes perform no probes in either
/// form, so results and counters are unchanged — only the per-combination
/// trie iteration and recursion are gone.
fn expand_independent_tail(
    ctx: &mut ExecCtx,
    node_idx: usize,
    weight: u64,
    scratch: &mut [NodeScratch],
) {
    // Gather phase: one trie walk per inner tail node, reusing the node's
    // scratch vectors (inner tail nodes never run the cover walk).
    let (tries, plan) = (ctx.tries, ctx.plan);
    let inner = &plan.nodes[node_idx + 1..];
    if !gather_tail_lists(tries, inner, ctx.current, scratch) {
        return; // an empty factor annihilates the whole product
    }

    let node = &plan.nodes[node_idx];
    let sub = &node.subatoms[0];
    let trie = &tries[sub.input];
    let node_cur = ctx.current[sub.input].clone();
    let gathered = &scratch[1..1 + inner.len()];
    // Product rows per first-list entry; `expansions` counts emitted rows so
    // skew inside the product (not just wide first lists) is visible to the
    // per-worker balance stats.
    let inner_count: u64 =
        gathered.iter().fold(1u64, |acc, s| acc.saturating_mul(s.weights.len() as u64));

    // The tail split point: the product's size — first-list length (O(1)
    // from the level map) × inner combinations (known from the gather) —
    // decides, so a single hot join key whose output is one giant Cartesian
    // product fans out across workers by first-list sub-ranges.
    let first_len = trie.estimated_keys(&node_cur);
    if let Some(threshold) = ctx.split_if(|s| s.should_split_tail(first_len, inner_count)) {
        let stride = node.bound_after - node.bound_before;
        let mut writes: Vec<Value> = Vec::with_capacity(first_len * stride);
        let mut weights: Vec<u64> = Vec::with_capacity(first_len);
        trie.for_each(&node_cur, sub.level, |key, child| {
            let base = writes.len();
            writes.resize(base + stride, Value::Null);
            write_tail_entry(node, key, &mut writes[base..]);
            weights.push(child.map_or(1, |c| trie.tuple_count(c)));
        });
        // Chunk so each sub-task emits about `split_threshold` product rows:
        // a single hot first-list entry over a huge inner product gets a task
        // of its own, while cheap entries batch up.
        let chunk = (threshold as u64 / inner_count.max(1)) as usize;
        let (writes, weights) = (Arc::new(writes), Arc::new(weights));
        ctx.spawn(node_idx, weight, weights.len(), chunk, |lo, hi| TaskItems::Tail {
            writes: writes.clone(),
            weights: weights.clone(),
            lo,
            hi,
        });
        return;
    }

    // Stream the first tail node's cover; per entry, emit the product of the
    // gathered inner columns.
    let t0 = ctx.counters.profile.is_enabled().then(Instant::now);
    if let Some(tb) = ctx.counters.traces.last_mut() {
        tb.begin(TraceCat::Node, node_idx as u32, inner_count, &[]);
    }
    let mut first_sum: u64 = 0;
    trie.for_each(&node_cur, sub.level, |key, child| {
        if ctx.counters.check_cancel() {
            return;
        }
        ctx.counters.expansions += inner_count.max(1);
        ctx.counters.profile.add_expansions(node_idx, inner_count.max(1));
        write_tail_entry(node, key, &mut ctx.tuple[node.bound_before..node.bound_after]);
        let w = child.map_or(weight, |c| weight.saturating_mul(trie.tuple_count(c)));
        first_sum = first_sum.saturating_add(w);
        emit_product(ctx, inner, gathered, 0, w);
    });
    finish_tail_span(ctx, node_idx, first_sum, gathered, t0);
}

/// Write an independent-tail cover key into `dst`, the node's new-slot
/// range (slot `node.bound_before` is `dst[0]`).
fn write_tail_entry(node: &CompiledNode, key: &[Value], dst: &mut [Value]) {
    for action in &node.subatoms[0].iter_actions {
        let IterAction::Write { key_pos, slot } = *action else {
            unreachable!("independent-tail covers bind only new variables");
        };
        dst[slot - node.bound_before] = key[key_pos];
    }
}

/// Close an independent tail's node span: attribute its output rows to the
/// tail's nodes arithmetically — the first tail node produced `first_sum`
/// weighted rows, and each inner node multiplies that by its gathered list's
/// weight total, the same cumulative products the enumeration emits, without
/// touching the per-row hot loop (a slice of the first list contributes its
/// slice sum, so partitioned tail tasks add up to exactly the serial
/// attribution) — then end the trace span and record the wall time.
fn finish_tail_span(
    ctx: &mut ExecCtx,
    node_idx: usize,
    first_sum: u64,
    gathered: &[NodeScratch],
    t0: Option<Instant>,
) {
    let profile = &mut ctx.counters.profile;
    if profile.is_enabled() {
        profile.add_output_rows(node_idx, first_sum);
        let mut running = first_sum;
        for (d, list) in gathered.iter().enumerate() {
            let list_sum = list.weights.iter().fold(0u64, |acc, &w| acc.saturating_add(w));
            running = running.saturating_mul(list_sum);
            profile.add_output_rows(node_idx + 1 + d, running);
        }
    }
    if let Some(tb) = ctx.counters.traces.last_mut() {
        tb.end(TraceCat::Node, node_idx as u32, first_sum);
    }
    if let Some(t0) = t0 {
        ctx.counters.profile.add_wall(node_idx, t0.elapsed());
    }
}

/// Gather every inner tail node's expansion list into its scratch slot
/// (`scratch[0]` belongs to the tail's first node) as flat `(values, weight)`
/// columns. Returns `false` when some factor is empty — the whole product is
/// then empty and the caller must emit nothing.
fn gather_tail_lists(
    tries: &[Arc<InputTrie>],
    inner: &[CompiledNode],
    current: &[Arc<TrieNode>],
    scratch: &mut [NodeScratch],
) -> bool {
    for (j, node) in inner.iter().enumerate() {
        let sub = &node.subatoms[0];
        let trie = &tries[sub.input];
        let node_cur = current[sub.input].clone();
        let stride = node.bound_after - node.bound_before;
        let s = &mut scratch[1 + j];
        s.writes.clear();
        s.weights.clear();
        trie.for_each(&node_cur, sub.level, |key, child| {
            let base = s.writes.len();
            s.writes.resize(base + stride, Value::Null);
            write_tail_entry(node, key, &mut s.writes[base..]);
            s.weights.push(child.map_or(1, |c| trie.tuple_count(c)));
        });
        if s.weights.is_empty() {
            return false;
        }
    }
    true
}

/// Execute one tail sub-range task: re-gather the inner lists (cheap — one
/// trie walk per inner node, against a product-sized emission) and emit this
/// task's slice of the first expansion list against the full inner product.
/// Emission order within the slice matches the unsplit stream, so
/// path-key-ordered sinks concatenate to the unsplit emission order.
fn run_tail_range(
    ctx: &mut ExecCtx,
    node_idx: usize,
    weight: u64,
    writes: &[Value],
    weights: &[u64],
    range: Range<usize>,
    scratch: &mut [NodeScratch],
) {
    let plan = ctx.plan;
    let inner = &plan.nodes[node_idx + 1..];
    if !gather_tail_lists(ctx.tries, inner, ctx.current, scratch) {
        return;
    }
    let node = &plan.nodes[node_idx];
    let stride = node.bound_after - node.bound_before;
    let t0 = ctx.counters.profile.is_enabled().then(Instant::now);
    let gathered = &scratch[1..1 + inner.len()];
    let inner_count: u64 =
        gathered.iter().fold(1u64, |acc, s| acc.saturating_mul(s.weights.len() as u64));
    if let Some(tb) = ctx.counters.traces.last_mut() {
        tb.begin(TraceCat::Node, node_idx as u32, inner_count, &[]);
    }
    let mut first_sum: u64 = 0;
    for i in range {
        if ctx.counters.check_cancel() {
            break;
        }
        ctx.counters.expansions += inner_count.max(1);
        ctx.counters.profile.add_expansions(node_idx, inner_count.max(1));
        ctx.tuple[node.bound_before..node.bound_after]
            .copy_from_slice(&writes[i * stride..(i + 1) * stride]);
        let w = weight.saturating_mul(weights[i]);
        first_sum = first_sum.saturating_add(w);
        emit_product(ctx, inner, gathered, 0, w);
    }
    finish_tail_span(ctx, node_idx, first_sum, gathered, t0);
}

/// Emit the Cartesian product of gathered tail lists, depth-first in list
/// order (the recursion order of the plan walk this replaces). Each level
/// copies its entry's values into the tuple's slots and multiplies its
/// weight; the innermost level appends to the chunk buffer. A single product
/// can dominate a query's output, so every level's loop is a cancellation
/// boundary (one cached check per product row once a trip is observed).
fn emit_product(
    ctx: &mut ExecCtx,
    nodes: &[CompiledNode],
    lists: &[NodeScratch],
    depth: usize,
    weight: u64,
) {
    let Some(node) = nodes.get(depth) else {
        // No inner lists: the first tail node was the last plan node.
        ctx.out.push(ctx.sink, ctx.tuple, weight);
        return;
    };
    let list = &lists[depth];
    let stride = node.bound_after - node.bound_before;
    let last = depth + 1 == nodes.len();
    for (i, &entry_weight) in list.weights.iter().enumerate() {
        if ctx.counters.check_cancel() {
            return;
        }
        ctx.tuple[node.bound_before..node.bound_after]
            .copy_from_slice(&list.writes[i * stride..(i + 1) * stride]);
        let w = weight.saturating_mul(entry_weight);
        if last {
            ctx.out.push(ctx.sink, ctx.tuple, w);
        } else {
            emit_product(ctx, nodes, lists, depth + 1, w);
        }
    }
}

/// Fill the node's probe order for one cover walk: its non-cover subatoms in
/// plan order, or — under adaptive execution at a reorderable node with more
/// than one probe — ranked ascending by the construction-fixed key bound of
/// each subatom's current trie position, stable so the plan order breaks
/// ties. The probed inputs' positions stay fixed for the whole walk (only
/// the cover varies per entry), so one O(#subatoms) ranking serves every
/// batch and every entry sees the same order at any batch size. `key_bound`
/// is fixed at trie construction, which is also what makes the ranking
/// identical at any thread count or steal schedule.
fn order_probes(ctx: &ExecCtx, node: &CompiledNode, cover_idx: usize, mine: &mut NodeScratch) {
    let order = &mut mine.probe_order;
    order.clear();
    order.extend((0..node.subatoms.len()).filter(|&j| j != cover_idx));
    mine.reordered = false;
    if ctx.options.adaptive && node.reorderable && order.len() > 1 {
        order.sort_by_key(|&j| ctx.current[node.subatoms[j].input].key_bound());
        mine.reordered = order.windows(2).any(|w| w[0] > w[1]);
    }
}

/// Size a node's batch buffers for the configured batch size; a no-op once
/// sized (the buffers are reused across invocations).
fn ensure_batch_buffers(mine: &mut NodeScratch, batch_size: usize, node: &CompiledNode) {
    let new_slots = node.bound_after - node.bound_before;
    let stride = node.subatoms.len();
    if mine.weights.len() < batch_size {
        mine.writes.resize(batch_size * new_slots.max(1), Value::Null);
        mine.weights.resize(batch_size, 0);
        mine.alive.resize(batch_size, false);
        mine.children.resize(batch_size * stride, None);
    }
}

/// Buffer one iterated cover entry into the batch (the gather half of
/// Figure 13): evaluate checks, collect writes into the entry's slice of the
/// batch buffer rather than the shared tuple, and record the cover's
/// weight/child continuation. Entries failing a `Check` (the iterated key
/// re-binds an already-bound variable to a different value) are skipped.
fn buffer_cover_entry(
    ctx: &ExecCtx,
    node: &CompiledNode,
    cover_idx: usize,
    key: &[Value],
    child: Option<&Arc<TrieNode>>,
    weight: u64,
    mine: &mut NodeScratch,
) {
    let cover = &node.subatoms[cover_idx];
    let new_slots = node.bound_after - node.bound_before;
    let stride = node.subatoms.len();
    let e = mine.count;
    for action in &cover.iter_actions {
        match *action {
            IterAction::Write { key_pos, slot } => {
                mine.writes[e * new_slots + (slot - node.bound_before)] = key[key_pos];
            }
            IterAction::Check { key_pos, slot } => {
                if ctx.tuple[slot] != key[key_pos] {
                    return;
                }
            }
        }
    }
    mine.weights[e] = weight;
    mine.alive[e] = true;
    if cover.final_for_input {
        if let Some(c) = child {
            mine.weights[e] = weight.saturating_mul(ctx.tries[cover.input].tuple_count(c));
        }
    } else {
        let c = child.expect("non-final cover level is forced into a map").clone();
        mine.children[e * stride + cover_idx] = Some(c);
    }
    mine.count += 1;
}

/// The probe kernel (the body of Figure 13): probe every non-cover subatom
/// across the buffered batch, then recurse for the surviving entries.
fn flush_batch(
    ctx: &mut ExecCtx,
    node_idx: usize,
    mine: &mut NodeScratch,
    rest: &mut [NodeScratch],
) {
    if mine.count == 0 {
        return;
    }
    if ctx.counters.check_cancel() {
        // Abandon the buffered batch; the entries are dead (the query's
        // partial output is discarded) and resetting keeps the scratch
        // reusable.
        mine.count = 0;
        return;
    }
    let (tries, plan) = (ctx.tries, ctx.plan);
    let node = &plan.nodes[node_idx];
    let new_slots = node.bound_after - node.bound_before;
    let stride = node.subatoms.len();

    // Probe phase: one pass over the batch per probed relation, in the
    // walk's probe order, giving the temporal locality the paper's
    // vectorization targets. Each entry's key is built in place from the
    // already-bound tuple slots and the batch's write buffer.
    {
        let NodeScratch {
            spill_key,
            writes,
            weights,
            alive,
            children,
            count,
            probe_order,
            reordered,
            ..
        } = &mut *mine;
        if *reordered {
            ctx.counters.reorders += *count as u64;
            if let Some(tb) = ctx.counters.traces.last_mut() {
                tb.instant(TraceCat::Reorder, node_idx as u32, *count as u64, &[]);
            }
        }
        let tuple = &*ctx.tuple;
        for &j in probe_order.iter() {
            let sub = &node.subatoms[j];
            let trie = &tries[sub.input];
            let base = &ctx.current[sub.input];
            for e in 0..*count {
                if !alive[e] {
                    continue;
                }
                let read = |s: usize| {
                    if s < node.bound_before {
                        tuple[s]
                    } else {
                        writes[e * new_slots + (s - node.bound_before)]
                    }
                };
                ctx.counters.probes += 1;
                match probe_subatom(trie, base, sub.level, &sub.key_slots, spill_key, read) {
                    Some(child) => {
                        ctx.counters.probe_hits += 1;
                        ctx.counters.profile.add_probe(node_idx, true);
                        if sub.final_for_input {
                            weights[e] = weights[e].saturating_mul(trie.tuple_count(&child));
                        } else {
                            children[e * stride + j] = Some(child);
                        }
                    }
                    None => {
                        ctx.counters.profile.add_probe(node_idx, false);
                        alive[e] = false;
                    }
                }
            }
        }
    }

    // Recurse for the survivors.
    for e in 0..mine.count {
        if !mine.alive[e] || mine.weights[e] == 0 {
            // Clear any children stored before a later probe failed.
            for j in 0..stride {
                mine.children[e * stride + j] = None;
            }
            continue;
        }
        ctx.tuple[node.bound_before..node.bound_after]
            .copy_from_slice(&mine.writes[e * new_slots..(e + 1) * new_slots]);
        mine.saved.clear();
        for (j, sub) in node.subatoms.iter().enumerate() {
            if let Some(child) = mine.children[e * stride + j].take() {
                mine.saved
                    .push((sub.input, std::mem::replace(&mut ctx.current[sub.input], child)));
            }
        }
        ctx.counters.profile.add_output_rows(node_idx, mine.weights[e]);
        run_node(ctx, node_idx + 1, mine.weights[e], rest);
        for (input, old) in mine.saved.drain(..) {
            ctx.current[input] = old;
        }
    }
    mine.count = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::options::TrieStrategy;
    use crate::prep::{prepare_inputs, BoundInput};
    use crate::sink::{MaterializeSink, OutputSink};
    use fj_plan::{binary2fj, factor, fj_plan_from_var_order};
    use fj_query::{Aggregate, OutputBuilder, QueryBuilder};
    use fj_storage::{Catalog, RelationBuilder, Schema};

    /// The paper's clover instance (Figure 3) with parameter n.
    fn clover_catalog(n: i64) -> Catalog {
        let mut cat = Catalog::new();
        let x0 = 0;
        let (x1, x2, x3) = (1, 2, 3);
        let mut r = RelationBuilder::new("R", Schema::all_int(&["x", "a"]));
        r.push_ints(&[x0, 1000]).unwrap();
        for i in 1..=n {
            r.push_ints(&[x1, 1000 + i]).unwrap();
            r.push_ints(&[x2, 2000 + i]).unwrap();
        }
        cat.add(r.finish()).unwrap();
        let mut s = RelationBuilder::new("S", Schema::all_int(&["x", "b"]));
        s.push_ints(&[x0, 3000]).unwrap();
        for i in 1..=n {
            s.push_ints(&[x2, 3000 + i]).unwrap();
            s.push_ints(&[x3, 4000 + i]).unwrap();
        }
        cat.add(s.finish()).unwrap();
        let mut t = RelationBuilder::new("T", Schema::all_int(&["x", "c"]));
        t.push_ints(&[x0, 5000]).unwrap();
        for i in 1..=n {
            t.push_ints(&[x3, 5000 + i]).unwrap();
            t.push_ints(&[x1, 6000 + i]).unwrap();
        }
        cat.add(t.finish()).unwrap();
        cat
    }

    fn clover_inputs(cat: &Catalog) -> Vec<BoundInput> {
        let q = QueryBuilder::new("clover")
            .atom("R", &["x", "a"])
            .atom("S", &["x", "b"])
            .atom("T", &["x", "c"])
            .build();
        prepare_inputs(cat, &q).unwrap().atoms
    }

    fn run(
        inputs: &[BoundInput],
        plan: &fj_plan::FreeJoinPlan,
        options: &FreeJoinOptions,
        aggregate: Aggregate,
    ) -> (u64, ExecCounters) {
        let input_vars: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
        let compiled = compile(plan, &input_vars).unwrap();
        let tries: Vec<Arc<InputTrie>> = inputs
            .iter()
            .zip(&compiled.schemas)
            .map(|(input, schema)| Arc::new(InputTrie::build(input, schema.clone(), options.trie)))
            .collect();
        let builder =
            OutputBuilder::new(&compiled.binding_order, aggregate, &compiled.binding_order);
        let mut sink = OutputSink::new(builder);
        let counters = execute_pipeline(&tries, &compiled, options, &mut sink);
        (sink.finish().cardinality(), counters)
    }

    /// Like [`run`], but through the work-stealing parallel driver with
    /// per-task sinks merged in path-key order.
    fn run_parallel(
        inputs: &[BoundInput],
        plan: &fj_plan::FreeJoinPlan,
        options: &FreeJoinOptions,
        aggregate: Aggregate,
        num_threads: usize,
    ) -> (u64, ExecCounters) {
        let input_vars: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
        let compiled = compile(plan, &input_vars).unwrap();
        let tries: Vec<Arc<InputTrie>> = inputs
            .iter()
            .zip(&compiled.schemas)
            .map(|(input, schema)| Arc::new(InputTrie::build(input, schema.clone(), options.trie)))
            .collect();
        let builder =
            OutputBuilder::new(&compiled.binding_order, aggregate, &compiled.binding_order);
        let (sinks, counters) =
            execute_pipeline_parallel(&tries, &compiled, options, num_threads, || {
                OutputSink::new(builder.clone())
            });
        let mut merged = OutputSink::new(builder);
        for sink in sinks {
            merged.merge(sink);
        }
        (merged.finish().cardinality(), counters)
    }

    /// The clover instance has exactly one result: (x0, a0, b0, c0).
    #[test]
    fn clover_binary_style_plan_finds_single_result() {
        let cat = clover_catalog(20);
        let inputs = clover_inputs(&cat);
        let iv: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
        let plan = binary2fj(&iv);
        for options in [
            FreeJoinOptions::default(),
            FreeJoinOptions::default().with_batch_size(1),
            FreeJoinOptions::generic_join_baseline(),
            FreeJoinOptions { trie: TrieStrategy::Slt, ..FreeJoinOptions::default() },
        ] {
            let (count, counters) = run(&inputs, &plan, &options, Aggregate::Count);
            assert_eq!(count, 1, "options {options:?}");
            assert!(counters.probes >= counters.probe_hits);
        }
    }

    #[test]
    fn clover_factored_plan_gives_same_result_with_fewer_probes() {
        let cat = clover_catalog(50);
        let inputs = clover_inputs(&cat);
        let iv: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
        let naive = binary2fj(&iv);
        let mut optimized = naive.clone();
        factor(&mut optimized);

        let opts = FreeJoinOptions::default().with_batch_size(1);
        let (c1, k1) = run(&inputs, &naive, &opts, Aggregate::Count);
        let (c2, k2) = run(&inputs, &optimized, &opts, Aggregate::Count);
        assert_eq!(c1, 1);
        assert_eq!(c2, 1);
        // The naive plan expands the skewed R ⋈ S pairs (quadratic in n)
        // before probing T; the factored plan filters with T first.
        assert!(
            k2.probes < k1.probes,
            "factored plan should probe less: {} vs {}",
            k2.probes,
            k1.probes
        );
    }

    #[test]
    fn gj_style_plan_matches_binary_style_results() {
        let cat = clover_catalog(10);
        let inputs = clover_inputs(&cat);
        let iv: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
        let order: Vec<String> = ["x", "a", "b", "c"].iter().map(|s| s.to_string()).collect();
        let gj = fj_plan_from_var_order(&order, &iv);
        let binary = binary2fj(&iv);
        let opts = FreeJoinOptions::default();
        assert_eq!(
            run(&inputs, &gj, &opts, Aggregate::Count).0,
            run(&inputs, &binary, &opts, Aggregate::Count).0
        );
    }

    #[test]
    fn triangle_count_is_correct_across_plans_and_options() {
        // Small dense graph where triangles can be counted by brute force.
        let mut cat = Catalog::new();
        let edges: Vec<(i64, i64)> = (0..30)
            .flat_map(|i| ((i + 1)..30).map(move |j| (i, j)))
            .filter(|(i, j)| (i * 7 + j * 13) % 3 != 0)
            .collect();
        for name in ["R", "S", "T"] {
            let mut b = RelationBuilder::new(name, Schema::all_int(&["u", "v"]));
            for &(i, j) in &edges {
                b.push_ints(&[i, j]).unwrap();
                b.push_ints(&[j, i]).unwrap();
            }
            cat.add(b.finish()).unwrap();
        }
        // Brute-force count of directed triangles.
        let mut expected = 0u64;
        let mut adj = std::collections::HashSet::new();
        for &(i, j) in &edges {
            adj.insert((i, j));
            adj.insert((j, i));
        }
        let nodes: Vec<i64> = (0..30).collect();
        for &x in &nodes {
            for &y in &nodes {
                if !adj.contains(&(x, y)) {
                    continue;
                }
                for &z in &nodes {
                    if adj.contains(&(y, z)) && adj.contains(&(z, x)) {
                        expected += 1;
                    }
                }
            }
        }

        let q = QueryBuilder::new("triangle")
            .atom("R", &["x", "y"])
            .atom("S", &["y", "z"])
            .atom("T", &["z", "x"])
            .build();
        let inputs = prepare_inputs(&cat, &q).unwrap().atoms;
        let iv: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();

        let binary = binary2fj(&iv);
        let mut factored = binary.clone();
        factor(&mut factored);
        let order: Vec<String> = ["x", "y", "z"].iter().map(|s| s.to_string()).collect();
        let gj = fj_plan_from_var_order(&order, &iv);

        for plan in [&binary, &factored, &gj] {
            for options in [
                FreeJoinOptions::default(),
                FreeJoinOptions::default().with_batch_size(1),
                FreeJoinOptions::default().with_batch_size(7),
                FreeJoinOptions::generic_join_baseline(),
                FreeJoinOptions {
                    trie: TrieStrategy::Slt,
                    dynamic_cover: false,
                    ..FreeJoinOptions::default()
                },
                FreeJoinOptions::default().with_factorized_output(true),
            ] {
                let (count, _) = run(&inputs, plan, &options, Aggregate::Count);
                assert_eq!(count, expected, "plan {plan} options {options:?}");
                // The work-stealing driver must agree at every thread count.
                for threads in [2, 3, 8] {
                    let (par, _) = run_parallel(&inputs, plan, &options, Aggregate::Count, threads);
                    assert_eq!(par, expected, "threads {threads} plan {plan} options {options:?}");
                }
            }
        }
    }

    #[test]
    fn bag_semantics_duplicates_multiply() {
        // R(x) = {1, 1}, S(x) = {1, 1, 1} -> R ⋈ S on x has 6 tuples.
        let mut cat = Catalog::new();
        let mut r = RelationBuilder::new("R", Schema::all_int(&["x"]));
        r.push_ints(&[1]).unwrap();
        r.push_ints(&[1]).unwrap();
        cat.add(r.finish()).unwrap();
        let mut s = RelationBuilder::new("S", Schema::all_int(&["x"]));
        for _ in 0..3 {
            s.push_ints(&[1]).unwrap();
        }
        cat.add(s.finish()).unwrap();
        let q = QueryBuilder::new("dup").atom("R", &["x"]).atom("S", &["x"]).build();
        let inputs = prepare_inputs(&cat, &q).unwrap().atoms;
        let iv: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
        let plan = binary2fj(&iv);
        for options in [
            FreeJoinOptions::default(),
            FreeJoinOptions::default().with_batch_size(1),
            FreeJoinOptions::generic_join_baseline(),
        ] {
            let (count, _) = run(&inputs, &plan, &options, Aggregate::Count);
            assert_eq!(count, 6, "options {options:?}");
            let (par, _) = run_parallel(&inputs, &plan, &options, Aggregate::Count, 4);
            assert_eq!(par, 6, "parallel options {options:?}");
        }
    }

    #[test]
    fn materialized_rows_match_counts() {
        let cat = clover_catalog(5);
        let inputs = clover_inputs(&cat);
        let iv: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
        let mut plan = binary2fj(&iv);
        factor(&mut plan);
        let compiled = compile(&plan, &iv).unwrap();
        let options = FreeJoinOptions::default();
        let tries: Vec<Arc<InputTrie>> = inputs
            .iter()
            .zip(&compiled.schemas)
            .map(|(input, schema)| Arc::new(InputTrie::build(input, schema.clone(), options.trie)))
            .collect();
        let mut sink = MaterializeSink::new();
        execute_pipeline(&tries, &compiled, &options, &mut sink);
        let rows = sink.into_rows();
        assert_eq!(rows.len(), 1);
        // Binding order is x, a, b, c.
        assert_eq!(
            rows[0],
            vec![Value::Int(0), Value::Int(1000), Value::Int(3000), Value::Int(5000)]
        );
    }

    #[test]
    fn factorized_output_counts_without_enumeration() {
        // Star query: R(x,a), S(x,b), T(x,c) where every relation has the
        // same single x value and k tuples; result size k^3.
        let k = 20i64;
        let mut cat = Catalog::new();
        for (name, base) in [("R", 0i64), ("S", 1000), ("T", 2000)] {
            let mut b = RelationBuilder::new(name, Schema::all_int(&["x", "v"]));
            for i in 0..k {
                b.push_ints(&[7, base + i]).unwrap();
            }
            cat.add(b.finish()).unwrap();
        }
        let q = QueryBuilder::new("star")
            .atom("R", &["x", "a"])
            .atom("S", &["x", "b"])
            .atom("T", &["x", "c"])
            .build();
        let inputs = prepare_inputs(&cat, &q).unwrap().atoms;
        let iv: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
        let mut plan = binary2fj(&iv);
        factor(&mut plan);

        let plain = FreeJoinOptions::default();
        let fact = FreeJoinOptions::default().with_factorized_output(true);
        let (c1, k1) = run(&inputs, &plan, &plain, Aggregate::Count);
        let (c2, k2) = run(&inputs, &plan, &fact, Aggregate::Count);
        assert_eq!(c1, (k * k * k) as u64);
        assert_eq!(c2, c1);
        // The factorized run should do no more probing than the plain run
        // (it skips the expansion levels entirely).
        assert!(k2.probes <= k1.probes);
        // Same counts through the parallel driver.
        let (p1, _) = run_parallel(&inputs, &plan, &plain, Aggregate::Count, 4);
        let (p2, _) = run_parallel(&inputs, &plan, &fact, Aggregate::Count, 4);
        assert_eq!(p1, c1);
        assert_eq!(p2, c1);
    }

    #[test]
    fn empty_inputs_produce_empty_results() {
        let mut cat = Catalog::new();
        let mut r = RelationBuilder::new("R", Schema::all_int(&["x", "a"]));
        r.push_ints(&[1, 2]).unwrap();
        cat.add(r.finish()).unwrap();
        cat.add(fj_storage::Relation::empty("S", Schema::all_int(&["x", "b"]))).unwrap();
        let q = QueryBuilder::new("q").atom("R", &["x", "a"]).atom("S", &["x", "b"]).build();
        let inputs = prepare_inputs(&cat, &q).unwrap().atoms;
        let iv: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
        let plan = binary2fj(&iv);
        let (count, counters) = run(&inputs, &plan, &FreeJoinOptions::default(), Aggregate::Count);
        assert_eq!(count, 0);
        assert_eq!(counters.probe_hits, 0);
        let (par, _) =
            run_parallel(&inputs, &plan, &FreeJoinOptions::default(), Aggregate::Count, 4);
        assert_eq!(par, 0);
    }

    #[test]
    fn dynamic_cover_prefers_smaller_relation() {
        // Node with two cover candidates where S is much smaller than R:
        // dynamic selection should iterate S and probe R, giving fewer
        // probes than the static choice of iterating R.
        let mut cat = Catalog::new();
        let mut r = RelationBuilder::new("R", Schema::all_int(&["x"]));
        for i in 0..1000i64 {
            r.push_ints(&[i]).unwrap();
        }
        cat.add(r.finish()).unwrap();
        let mut s = RelationBuilder::new("S", Schema::all_int(&["x"]));
        for i in 0..10i64 {
            s.push_ints(&[i]).unwrap();
        }
        cat.add(s.finish()).unwrap();
        let q = QueryBuilder::new("q").atom("R", &["x"]).atom("S", &["x"]).build();
        let inputs = prepare_inputs(&cat, &q).unwrap().atoms;
        let iv: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
        let order: Vec<String> = vec!["x".to_string()];
        let plan = fj_plan_from_var_order(&order, &iv);

        let dynamic =
            FreeJoinOptions { dynamic_cover: true, batch_size: 1, ..FreeJoinOptions::default() };
        let fixed =
            FreeJoinOptions { dynamic_cover: false, batch_size: 1, ..FreeJoinOptions::default() };
        let (c_dyn, k_dyn) = run(&inputs, &plan, &dynamic, Aggregate::Count);
        let (c_fix, k_fix) = run(&inputs, &plan, &fixed, Aggregate::Count);
        assert_eq!(c_dyn, 10);
        assert_eq!(c_fix, 10);
        // Iterating S (10 keys) and probing R does 10 probes; iterating R
        // (1000 keys) and probing S does 1000.
        assert_eq!(k_dyn.probes, 10);
        assert_eq!(k_fix.probes, 1000);
        // The parallel driver makes the same dynamic-cover choice and does
        // the same probes in total, just spread over workers.
        let (p_dyn, pk_dyn) = run_parallel(&inputs, &plan, &dynamic, Aggregate::Count, 4);
        assert_eq!(p_dyn, 10);
        assert_eq!(pk_dyn.probes, 10);
    }

    #[test]
    fn vectorized_batches_flush_incrementally() {
        // A join whose cover has more entries than the batch size, so the
        // incremental flush path is exercised (and the final partial flush).
        let mut cat = Catalog::new();
        let mut r = RelationBuilder::new("R", Schema::all_int(&["x", "a"]));
        let mut s = RelationBuilder::new("S", Schema::all_int(&["x", "b"]));
        for i in 0..257i64 {
            r.push_ints(&[i % 50, i]).unwrap();
            s.push_ints(&[i % 50, i]).unwrap();
        }
        cat.add(r.finish()).unwrap();
        cat.add(s.finish()).unwrap();
        let q = QueryBuilder::new("q").atom("R", &["x", "a"]).atom("S", &["x", "b"]).build();
        let inputs = prepare_inputs(&cat, &q).unwrap().atoms;
        let iv: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
        let plan = binary2fj(&iv);
        let scalar = FreeJoinOptions::default().with_batch_size(1);
        let small_batches = FreeJoinOptions::default().with_batch_size(8);
        let (a, _) = run(&inputs, &plan, &scalar, Aggregate::Count);
        let (b, _) = run(&inputs, &plan, &small_batches, Aggregate::Count);
        assert_eq!(a, b);
        // 257 rows over 50 keys: most keys hold 5 or 6 rows, so the count is
        // sum over keys of |R_x| * |S_x|.
        let mut expected = 0u64;
        let mut counts = std::collections::HashMap::new();
        for i in 0..257i64 {
            *counts.entry(i % 50).or_insert(0u64) += 1;
        }
        for c in counts.values() {
            expected += c * c;
        }
        assert_eq!(a, expected);
    }

    #[test]
    fn parallel_probe_counters_match_serial() {
        let cat = clover_catalog(40);
        let inputs = clover_inputs(&cat);
        let iv: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
        let mut plan = binary2fj(&iv);
        factor(&mut plan);
        assert_counters_invariant(&inputs, &plan);

        // A three-way node whose static probe order is wrong: adaptive
        // execution iterates T and probes S before R, so `reorders` is
        // nonzero and must still agree across the grid.
        let mut cat = Catalog::new();
        for (name, rows) in [("R", 0..200i64), ("S", 0..50), ("T", 0..20)] {
            let mut b = RelationBuilder::new(name, Schema::all_int(&["x"]));
            for i in rows {
                b.push_ints(&[if name == "S" { 2 * i } else { i }]).unwrap();
            }
            cat.add(b.finish()).unwrap();
        }
        let q = QueryBuilder::new("q")
            .atom("R", &["x"])
            .atom("S", &["x"])
            .atom("T", &["x"])
            .build();
        let inputs = prepare_inputs(&cat, &q).unwrap().atoms;
        let iv: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
        let plan = fj_plan_from_var_order(&["x".to_string()], &iv);
        let adaptive = assert_counters_invariant(&inputs, &plan)[1];
        assert_eq!(adaptive.0, 10, "x in {{0, 2, .., 18}}");
        assert_eq!(adaptive.2, 20, "every T binding is reordered");
    }

    /// Run `plan` over the grid batch {1, 3, 1000} × threads {1, 4} for
    /// adaptive off and on, and assert that the count, `work()` and
    /// `reorders` are identical across batch sizes and thread counts. Every
    /// cover entry does the same probes and expansions whichever worker runs
    /// it and whatever batch it lands in (batch 1 is tuple-at-a-time
    /// execution through the same probe kernel, and adaptive ranking reads
    /// construction-fixed bounds); only the scheduling counters depend on
    /// the schedule. A small split threshold makes the parallel runs split
    /// below the root too. Returns the `[off, on]` results.
    fn assert_counters_invariant(
        inputs: &[BoundInput],
        plan: &fj_plan::FreeJoinPlan,
    ) -> [(u64, (u64, u64, u64), u64); 2] {
        [false, true].map(|adaptive| {
            let mut reference = None;
            for batch in [1usize, 3, 1000] {
                for threads in [1usize, 4] {
                    let opts = FreeJoinOptions::default()
                        .with_batch_size(batch)
                        .with_adaptive(adaptive)
                        .with_split_threshold(4);
                    let (count, counters) =
                        run_parallel(inputs, plan, &opts, Aggregate::Count, threads);
                    let got = (count, counters.work(), counters.reorders);
                    let expected = *reference.get_or_insert(got);
                    assert_eq!(
                        expected, got,
                        "batch {batch} threads {threads} adaptive {adaptive} on {plan}"
                    );
                }
            }
            reference.expect("the grid is not empty")
        })
    }
}
