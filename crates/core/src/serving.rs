//! The serving substrate shared by SGDRC and every baseline policy.
//!
//! Mirrors the paper's online architecture (Fig. 6): LS requests arrive on
//! per-model queues (each LS model has several instances, §9.2), BE tasks
//! run closed-loop, and kernels from different tasks enter the LS / BE
//! kernel queues round-robin. At most one LS kernel and one BE kernel are
//! resident at any time (§4) — every evaluated system fits this structure;
//! only the *resource decisions* differ, which is what the [`Policy`]
//! trait captures.
//!
//! A scenario has at most [`MAX_TASKS`] LS and [`MAX_TASKS`] BE tasks:
//! the round-robin queues are `u64` bitmasks, so picking the next LS or
//! BE kernel visits only the tasks that have work (the zoo deploys 8 LS
//! and 3 BE models).

use crate::profiler::ModelProfile;
use dnn::kernel::KernelDesc;
use dnn::zoo::Model;
use exec_sim::{ChannelSet, Engine, EngineEvent, LaunchConfig, LaunchId, PreparedKernel, TpcMask};
use gpu_spec::GpuSpec;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

/// Most LS tasks, and most BE tasks, one scenario may deploy: the
/// round-robin queues keep one bit per task in a `u64`.
pub const MAX_TASKS: usize = 64;

/// Mask with bits `0..n` set (`n <= MAX_TASKS`).
fn low_bits(n: usize) -> u64 {
    if n == 0 {
        0
    } else {
        u64::MAX >> (MAX_TASKS - n)
    }
}

/// The set bits of `mask` in round-robin order from bit `rr < 64`: those
/// at or above `rr` ascending, then those below — the order in which a
/// `(rr + off) % n` scan over `n` tasks meets them.
fn round_robin(mask: u64, rr: usize) -> impl Iterator<Item = usize> {
    let bits = |mut m: u64| {
        std::iter::from_fn(move || {
            (m != 0).then(|| {
                let t = m.trailing_zeros() as usize;
                m &= m - 1;
                t
            })
        })
    };
    let hi = mask & (u64::MAX << rr);
    bits(hi).chain(bits(mask & !hi))
}

/// The round-robin successor of `task` among `n` tasks.
fn next_rr(task: usize, n: usize) -> usize {
    if task + 1 == n {
        0
    } else {
        task + 1
    }
}

/// A deployed task: compiled model + offline profile.
#[derive(Debug, Clone)]
pub struct Task {
    pub model: Model,
    pub profile: ModelProfile,
    /// Launch-ready kernels (shared descriptor + precomputed performance
    /// invariants), parallel to `model.kernels`. Dispatching one copies
    /// its invariants — no descriptor copy, no invariant derivation, no
    /// reference count.
    pub kernels: Vec<PreparedKernel>,
}

impl Task {
    pub fn new(model: Model, spec: &GpuSpec) -> Self {
        let profile = crate::profiler::profile_model(&model, spec);
        let kernels = model
            .kernels
            .iter()
            .map(|k| PreparedKernel::new(spec, k.clone()))
            .collect();
        Self {
            model,
            profile,
            kernels,
        }
    }
}

/// One LS request in the merged arrival stream: which task it belongs to
/// and when it arrives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub task: u32,
    pub at_us: f64,
}

/// Merges per-task sorted arrival lists into one stream ordered by
/// `(time, task index)`: on a time tie the lowest task index wins, and
/// equal-time arrivals of one task keep their within-task order — the
/// sequence a per-task cursor scan yields (proptested against one in
/// `core/tests/arrival_order.rs`).
pub fn merge_arrivals(per_task: &[Vec<f64>]) -> Vec<Arrival> {
    let mut merged: Vec<Arrival> = Vec::with_capacity(per_task.iter().map(Vec::len).sum());
    for (task, list) in per_task.iter().enumerate() {
        merged.extend(list.iter().map(|&at_us| Arrival {
            task: task as u32,
            at_us,
        }));
    }
    // Stable sort so duplicate (time, task) entries keep their order.
    merged.sort_by(|a, b| a.at_us.total_cmp(&b.at_us).then(a.task.cmp(&b.task)));
    merged
}

/// An immutable request trace shared by every scenario built from it.
///
/// The per-task sorted arrival lists are the source of truth — metrics
/// and tests keep reading them. The merged single stream the serving
/// loop consumes is derived lazily, once per trace, and then shared by
/// every scenario holding an `Arc` to this trace.
#[derive(Debug, Default)]
pub struct ArrivalTrace {
    per_task: Vec<Vec<f64>>,
    merged: OnceLock<Vec<Arrival>>,
}

impl ArrivalTrace {
    /// Wraps per-task arrival lists; each must be sorted ascending (as
    /// `workload::trace::generate` produces them).
    pub fn new(per_task: Vec<Vec<f64>>) -> Self {
        debug_assert!(
            per_task.iter().all(|v| v.windows(2).all(|w| w[0] <= w[1])),
            "per-task arrival lists must be sorted"
        );
        Self {
            per_task,
            merged: OnceLock::new(),
        }
    }

    /// The per-task arrival lists (source of truth).
    pub fn per_task(&self) -> &[Vec<f64>] {
        &self.per_task
    }

    /// Number of LS tasks the trace covers.
    pub fn num_tasks(&self) -> usize {
        self.per_task.len()
    }

    /// Total number of requests across all tasks.
    pub fn len(&self) -> usize {
        self.per_task.iter().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.per_task.iter().all(Vec::is_empty)
    }

    /// The k-way-merged stream (see [`merge_arrivals`]), built on first
    /// use and cached for every subsequent scenario sharing this trace.
    pub fn merged(&self) -> &[Arrival] {
        self.merged.get_or_init(|| merge_arrivals(&self.per_task))
    }
}

impl From<Vec<Vec<f64>>> for ArrivalTrace {
    fn from(per_task: Vec<Vec<f64>>) -> Self {
        Self::new(per_task)
    }
}

/// One end-to-end serving scenario.
///
/// Task sets and the arrival trace sit behind `Arc`s: the Fig. 17
/// runner builds one scenario per (system × BE co-location) pair and a
/// fleet one per replica, and constructing or cloning one costs pointer
/// bumps — not deep copies of compiled models, profiles and traces.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub spec: GpuSpec,
    pub ls: Arc<[Task]>,
    pub be: Arc<[Task]>,
    /// In-flight inference slots per LS model (§9.2: 4 instances).
    pub ls_instances: usize,
    /// Request arrivals: one sorted list per LS task plus the lazily
    /// merged stream the serving loop consumes.
    pub arrivals: Arc<ArrivalTrace>,
    /// Serving horizon (µs).
    pub horizon_us: f64,
}

impl Scenario {
    /// Builds a scenario that owns fresh copies of its inputs. Callers
    /// sharing task sets or traces across many scenarios construct the
    /// `Arc`ed fields directly instead.
    pub fn new(
        spec: GpuSpec,
        ls: Vec<Task>,
        be: Vec<Task>,
        ls_instances: usize,
        arrivals: Vec<Vec<f64>>,
        horizon_us: f64,
    ) -> Self {
        Self {
            spec,
            ls: ls.into(),
            be: be.into(),
            ls_instances,
            arrivals: Arc::new(ArrivalTrace::new(arrivals)),
            horizon_us,
        }
    }
}

/// A completed LS request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedRequest {
    pub arrival_us: f64,
    pub done_us: f64,
}

impl CompletedRequest {
    /// End-to-end latency including queueing delay (§9.2).
    pub fn latency_us(&self) -> f64 {
        self.done_us - self.arrival_us
    }
}

/// Result of one serving run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Completed requests per LS task.
    pub ls_completed: Vec<Vec<CompletedRequest>>,
    /// Whole inferences completed per BE task.
    pub be_completed: Vec<u64>,
    /// Time actually simulated (µs).
    pub horizon_us: f64,
    /// BE kernel preemptions observed.
    pub be_preemptions: u64,
    /// Engine events (kernel completions + preemptions) processed — the
    /// denominator for events/sec throughput measurements.
    pub engine_events: u64,
    /// LS requests ripped out of this replica by crash drains
    /// ([`ServingState::crash_drain`]) — each one goes back through the
    /// cluster router for re-dispatch. 0 outside fault-injection runs.
    pub ls_requeued: u64,
}

/// An in-flight inference.
#[derive(Debug, Clone, Copy)]
struct Inference {
    arrival_us: f64,
    cursor: usize,
}

/// A kernel currently on the GPU.
#[derive(Debug, Clone, Copy)]
pub struct ActiveLaunch {
    pub id: LaunchId,
    pub task: usize,
    pub kernel_idx: usize,
    pub mask: TpcMask,
    pub channels: ChannelSet,
}

/// Reusable simulation storage for repeated serving runs.
///
/// A run through [`run`] builds the engine, the LS/BE queues and the
/// statistics vectors from scratch; threading one `SimContext` through
/// repeated runs instead makes every structure's allocation a one-time
/// cost — the engine is [`reset`](Engine::reset) in place, the queues
/// are cleared, and consumed [`RunStats`] hand their buffers back via
/// [`SimContext::recycle`]. The fleet's `ClusterCtx` keeps one per
/// replica across runs. Results are bit-identical to the
/// fresh-allocation path (enforced by `workload/tests/serving_equiv.rs`).
#[derive(Default)]
pub struct SimContext {
    engine: Option<Engine>,
    pending: Vec<VecDeque<f64>>,
    inflight: Vec<VecDeque<Inference>>,
    be_cursor: Vec<usize>,
    ls_completed: Vec<Vec<CompletedRequest>>,
    be_completed: Vec<u64>,
}

impl SimContext {
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a consumed run's statistics back so the next run through
    /// this context reuses the completion-list allocations instead of
    /// growing fresh ones.
    pub fn recycle(&mut self, mut stats: RunStats) {
        for v in &mut stats.ls_completed {
            v.clear();
        }
        self.ls_completed = stats.ls_completed;
        stats.be_completed.clear();
        self.be_completed = stats.be_completed;
    }
}

/// Serving state visible to policies.
pub struct ServingState<'s> {
    pub scenario: &'s Scenario,
    pub engine: Engine,
    /// Arrived but not yet admitted requests, per LS task.
    pending: Vec<VecDeque<f64>>,
    /// Admitted inferences, per LS task (front is oldest).
    inflight: Vec<VecDeque<Inference>>,
    /// Bit `t` is set iff `inflight[t]` is non-empty: the LS tasks the
    /// round-robin scans visit. Admission sets a bit; the pop that
    /// empties a queue and a crash drain clear it.
    ls_mask: u64,
    /// Running count of pending + in-flight requests, maintained
    /// incrementally (+1 per arrival, −1 per completed inference) so
    /// [`ls_backlog`](Self::ls_backlog) is O(1) instead of re-summing
    /// every queue.
    backlog: usize,
    /// Running count of admitted (in-flight) inferences across all LS
    /// tasks, so [`ls_ready`](Self::ls_ready) — queried by policies on
    /// every dispatch — is O(1) instead of scanning every queue.
    inflight_total: usize,
    /// Monotone counter bumped whenever LS queue state (pending,
    /// inflight, cursors or the round-robin position) changes. Lets
    /// [`peek_ls`](Self::peek_ls) and policy-side window queries be
    /// memoized across the events that cannot change them (BE
    /// completions, preemptions, timers).
    ls_version: u64,
    /// Memoized `peek_ls` result, valid while `ls_version` is unchanged.
    peek_ls_cache: Cell<(u64, Option<(usize, usize)>)>,
    /// Round-robin position of the LS queues: the scan starts at this
    /// task (always `< scenario.ls.len()`, or 0).
    ls_rr: usize,
    /// Round-robin position of the BE tasks (always `< scenario.be.len()`,
    /// or 0).
    be_rr: usize,
    /// Closed-loop BE inference cursor per BE task.
    be_cursor: Vec<usize>,
    /// Bit `t` is set iff BE task `t` is currently resident on this GPU.
    /// Every task starts active; a cluster's fleet controller
    /// parks/resumes BE work by toggling bits (see
    /// [`set_be_active`](Self::set_be_active)). [`peek_be`](Self::peek_be)
    /// skips inactive tasks, so with all tasks active the single-GPU
    /// behaviour is unchanged.
    be_mask: u64,
    pub ls_launch: Option<ActiveLaunch>,
    pub be_launch: Option<ActiveLaunch>,
    pub stats: RunStats,
}

impl<'s> ServingState<'s> {
    /// Builds the state from a [`SimContext`]'s recycled storage: the
    /// engine resets in place, queue vectors clear and re-size, and the
    /// statistics vectors come from the last recycled run. On an empty
    /// context this is exactly the fresh-allocation construction.
    ///
    /// Panics if the scenario has more than [`MAX_TASKS`] LS or BE tasks.
    fn new_in(scenario: &'s Scenario, ctx: &mut SimContext) -> Self {
        let n_ls = scenario.ls.len();
        let n_be = scenario.be.len();
        assert!(
            n_ls <= MAX_TASKS && n_be <= MAX_TASKS,
            "a scenario has at most {MAX_TASKS} LS and {MAX_TASKS} BE tasks \
             (got {n_ls} LS, {n_be} BE)"
        );
        let engine = match ctx.engine.take() {
            Some(mut e) => {
                e.reset(&scenario.spec);
                e
            }
            None => Engine::new(scenario.spec.clone()),
        };
        let mut pending = std::mem::take(&mut ctx.pending);
        for q in &mut pending {
            q.clear();
        }
        pending.resize_with(n_ls, VecDeque::new);
        let mut inflight = std::mem::take(&mut ctx.inflight);
        for q in &mut inflight {
            q.clear();
        }
        inflight.resize_with(n_ls, VecDeque::new);
        let mut be_cursor = std::mem::take(&mut ctx.be_cursor);
        be_cursor.clear();
        be_cursor.resize(n_be, 0);
        let mut ls_completed = std::mem::take(&mut ctx.ls_completed);
        for v in &mut ls_completed {
            v.clear();
        }
        ls_completed.resize_with(n_ls, Vec::new);
        let mut be_completed = std::mem::take(&mut ctx.be_completed);
        be_completed.clear();
        be_completed.resize(n_be, 0);
        Self {
            scenario,
            engine,
            pending,
            inflight,
            ls_mask: 0,
            backlog: 0,
            inflight_total: 0,
            // Starts past the cache's initial version so the first peek
            // always computes.
            ls_version: 1,
            peek_ls_cache: Cell::new((0, None)),
            ls_rr: 0,
            be_rr: 0,
            be_cursor,
            be_mask: low_bits(n_be),
            ls_launch: None,
            be_launch: None,
            stats: RunStats {
                ls_completed,
                be_completed,
                horizon_us: scenario.horizon_us,
                be_preemptions: 0,
                engine_events: 0,
                ls_requeued: 0,
            },
        }
    }

    /// Returns the queue storage and the engine to the context for the
    /// next run; the statistics leave with the caller (hand them back
    /// through [`SimContext::recycle`] once consumed).
    fn finish_into(self, ctx: &mut SimContext) -> RunStats {
        let ServingState {
            engine,
            pending,
            inflight,
            be_cursor,
            stats,
            ..
        } = self;
        ctx.engine = Some(engine);
        ctx.pending = pending;
        ctx.inflight = inflight;
        ctx.be_cursor = be_cursor;
        stats
    }

    pub fn now(&self) -> f64 {
        self.engine.now()
    }

    pub fn spec(&self) -> &GpuSpec {
        &self.scenario.spec
    }

    /// Moves pending requests of one LS task into its free inference
    /// slots. A task's admission state only changes when one of its
    /// requests arrives or one of its inferences completes, so this is
    /// all the serving loop ever re-evaluates.
    fn admit_task(&mut self, t: usize) {
        while self.inflight[t].len() < self.scenario.ls_instances {
            match self.pending[t].pop_front() {
                Some(arrival) => {
                    self.inflight[t].push_back(Inference {
                        arrival_us: arrival,
                        cursor: 0,
                    });
                    self.ls_mask |= 1 << t;
                    self.inflight_total += 1;
                    self.ls_version += 1;
                }
                None => break,
            }
        }
    }

    /// Debug oracle for the targeted admission: a full re-admission walk
    /// over every LS task would be a no-op, i.e. no task holds a waiting
    /// request next to a free inference slot.
    fn debug_assert_admitted(&self) {
        debug_assert!(
            self.pending
                .iter()
                .zip(&self.inflight)
                .all(|(p, i)| p.is_empty() || i.len() >= self.scenario.ls_instances),
            "an LS request waits next to a free inference slot"
        );
    }

    /// Debug oracle for the LS round-robin mask: it has exactly the bits
    /// of the non-empty in-flight queues. (The BE mask is the activity
    /// state itself, so there is nothing for it to drift from.)
    fn debug_assert_ls_mask(&self) {
        debug_assert!(
            self.inflight
                .iter()
                .enumerate()
                .all(|(t, q)| (self.ls_mask >> t & 1 == 1) != q.is_empty())
                && self.ls_mask & !low_bits(self.inflight.len()) == 0,
            "LS mask {:#x} does not mirror the in-flight queues",
            self.ls_mask
        );
    }

    /// Records an arrived request and admits it if a slot is free.
    fn push_arrival(&mut self, t: usize, at: f64) {
        self.pending[t].push_back(at);
        self.backlog += 1;
        self.ls_version += 1;
        self.admit_task(t);
        self.debug_assert_admitted();
        self.debug_assert_ls_mask();
    }

    /// Version of the LS queue state; unchanged means every LS-side
    /// query ([`peek_ls`](Self::peek_ls),
    /// [`upcoming_ls_kernels_into`](Self::upcoming_ls_kernels_into))
    /// would return exactly what it returned last time. Policies use it
    /// to memoize per-dispatch work across BE-side events.
    pub fn ls_version(&self) -> u64 {
        self.ls_version
    }

    /// Number of LS requests admitted or waiting (queue pressure).
    pub fn ls_backlog(&self) -> usize {
        debug_assert_eq!(
            self.backlog,
            self.pending.iter().map(VecDeque::len).sum::<usize>()
                + self.inflight.iter().map(VecDeque::len).sum::<usize>(),
            "incremental backlog counter drifted from the queues"
        );
        self.backlog
    }

    /// Number of LS requests admitted and in flight (excluding the
    /// pending queue) — the fleet telemetry layer samples this as a
    /// per-lane gauge at controller ticks. O(1).
    pub fn ls_inflight(&self) -> usize {
        debug_assert_eq!(
            self.inflight_total,
            self.inflight.iter().map(VecDeque::len).sum::<usize>(),
            "incremental inflight counter drifted from the queues"
        );
        self.inflight_total
    }

    /// Pending + in-flight LS requests of one task — the per-service
    /// slice of [`ls_backlog`](Self::ls_backlog). The fleet's tiered-SLO
    /// layer reads this for per-tier conservation audits and brownout
    /// telemetry; O(1) (two queue lengths).
    pub fn ls_backlog_of(&self, task: usize) -> usize {
        self.pending[task].len() + self.inflight[task].len()
    }

    /// Is any LS kernel ready to launch? O(1).
    pub fn ls_ready(&self) -> bool {
        debug_assert_eq!(
            self.inflight_total > 0,
            self.inflight.iter().any(|q| !q.is_empty()),
            "incremental inflight counter drifted from the queues"
        );
        self.inflight_total > 0
    }

    /// Peeks the next LS kernel in round-robin order. Memoized on
    /// [`ls_version`](Self::ls_version): policies and `launch_ls` both
    /// peek on every dispatch, and most events leave the LS queues
    /// untouched. Debug builds check every memo hit against a fresh scan.
    pub fn peek_ls(&self) -> Option<(usize, usize)> {
        let (version, cached) = self.peek_ls_cache.get();
        if version == self.ls_version {
            debug_assert_eq!(
                cached,
                self.peek_ls_scan(),
                "memoized peek_ls diverged from a fresh scan"
            );
            return cached;
        }
        let result = self.peek_ls_scan();
        self.peek_ls_cache.set((self.ls_version, result));
        result
    }

    /// A fresh round-robin scan over the non-empty LS queues.
    fn peek_ls_scan(&self) -> Option<(usize, usize)> {
        round_robin(self.ls_mask, self.ls_rr)
            .next()
            .map(|t| (t, self.front_cursor(t)))
    }

    /// Kernel cursor of task `t`'s oldest in-flight inference (its queue
    /// is non-empty: bit `t` of the LS mask is set).
    fn front_cursor(&self, t: usize) -> usize {
        self.inflight[t]
            .front()
            .expect("LS mask bit set for an empty queue")
            .cursor
    }

    /// Upcoming LS kernels (for the tidal sliding window): the next kernel
    /// of every non-empty LS queue plus the successors of the head task.
    ///
    /// Fills a caller-owned buffer (cleared first) so policies invoking
    /// this on every dispatch reuse one allocation across the whole run.
    pub fn upcoming_ls_kernels_into(&self, window: usize, out: &mut Vec<(usize, usize)>) {
        out.clear();
        for t in round_robin(self.ls_mask, self.ls_rr) {
            let cursor = self.front_cursor(t);
            let kernels = self.scenario.ls[t].model.kernels.len();
            for c in cursor..kernels.min(cursor + window) {
                out.push((t, c));
                if out.len() >= window {
                    return;
                }
            }
        }
    }

    /// Peeks the next *active* BE kernel in round-robin order. With every
    /// BE task active (the default) this is exactly the plain round-robin
    /// peek; a cluster controller that parked a task makes the scan skip
    /// it.
    pub fn peek_be(&self) -> Option<(usize, usize)> {
        round_robin(self.be_mask, self.be_rr)
            .next()
            .map(|t| (t, self.be_cursor[t]))
    }

    /// Is any BE task resident (active) on this GPU? Policies use this —
    /// rather than `scenario.be.is_empty()` — to decide whether LS work
    /// is co-located: a replica whose BE work all migrated away is
    /// monopolized by LS even though its scenario still lists the tasks.
    pub fn be_present(&self) -> bool {
        self.be_mask != 0
    }

    /// Number of active (resident) BE tasks.
    pub fn active_be_count(&self) -> usize {
        self.be_mask.count_ones() as usize
    }

    /// Whether one BE task is active.
    pub fn be_active(&self, task: usize) -> bool {
        assert!(task < self.scenario.be.len(), "no BE task {task}");
        self.be_mask >> task & 1 == 1
    }

    /// Parks (`false`) or resumes (`true`) one BE task. Parking does not
    /// touch a kernel already on the GPU — raise the eviction flag via
    /// [`preempt_be`](Self::preempt_be) if the parked task is the one
    /// running; its closed-loop cursor is preserved either way, so a task
    /// migrating back later resumes its inference where it stopped.
    pub fn set_be_active(&mut self, task: usize, active: bool) {
        assert!(task < self.scenario.be.len(), "no BE task {task}");
        if active {
            self.be_mask |= 1 << task;
        } else {
            self.be_mask &= !(1 << task);
        }
    }

    /// Rips a crashed replica's serving state out for re-dispatch: every
    /// pending and in-flight LS request is drained (appended to `out` as
    /// `(task, arrival_us)`, in-flight first, oldest first, per task in
    /// index order) and both active launches are cancelled in the engine
    /// with **no** completion or preemption event — a dead GPU never
    /// reports back. In-flight inferences lose their kernel progress
    /// (the request restarts from kernel 0 wherever the router re-lands
    /// it); BE closed-loop cursors are preserved, so a job migrating to
    /// a survivor — or resuming here after recovery — continues its
    /// inference where it stopped. Even a launch whose eviction flag was
    /// already raised ([`preempt_be`](Self::preempt_be)) is cancelled
    /// outright: the pending `Preempted` event must not fire on a dead
    /// replica, and `be_launch` must not linger as a phantom-active
    /// entry. After a drain the state is quiescent (no launches, no
    /// queued work, backlog counters zeroed) and safe to resume later
    /// via a dispatch.
    pub fn crash_drain(&mut self, out: &mut Vec<(usize, f64)>) {
        if let Some(l) = self.ls_launch.take() {
            self.engine.cancel(l.id);
        }
        if let Some(l) = self.be_launch.take() {
            // Cursor untouched: the kernel never finished, so the task's
            // inference resumes at the same kernel index.
            self.engine.cancel(l.id);
        }
        let mut drained = 0u64;
        for t in 0..self.scenario.ls.len() {
            for inf in self.inflight[t].drain(..) {
                out.push((t, inf.arrival_us));
                drained += 1;
            }
            for at in self.pending[t].drain(..) {
                out.push((t, at));
                drained += 1;
            }
        }
        self.ls_mask = 0;
        self.backlog = 0;
        self.inflight_total = 0;
        self.ls_version += 1;
        self.stats.ls_requeued += drained;
        self.debug_assert_ls_mask();
    }

    /// Drains every *pending* (not yet admitted) LS request for a
    /// graceful scale-down: queued requests are appended to `out` as
    /// `(task, arrival_us)` (oldest first, per task in index order) for
    /// requeue elsewhere, while admitted in-flight inferences keep
    /// running to completion here — unlike
    /// [`crash_drain`](Self::crash_drain), no kernel progress is lost
    /// and no launch is cancelled. BE cursors are untouched; the caller
    /// evacuates BE jobs separately. Counted as `ls_requeued` — the
    /// drained requests will be re-injected elsewhere, not dropped.
    pub fn drain_pending(&mut self, out: &mut Vec<(usize, f64)>) {
        let mut drained = 0u64;
        for t in 0..self.scenario.ls.len() {
            for at in self.pending[t].drain(..) {
                out.push((t, at));
                drained += 1;
            }
        }
        if drained > 0 {
            self.backlog -= drained as usize;
            self.ls_version += 1;
            self.stats.ls_requeued += drained;
        }
    }

    /// Drops up to `max` *pending* (not yet admitted) requests of one LS
    /// task, newest first — the controller's graceful-degradation shed
    /// when fleet capacity falls below demand. Returns how many were
    /// dropped; the caller accounts for them (they will never complete).
    pub fn shed_pending(&mut self, task: usize, max: usize) -> usize {
        let q = &mut self.pending[task];
        let n = q.len().min(max);
        for _ in 0..n {
            q.pop_back();
        }
        if n > 0 {
            self.backlog -= n;
            self.ls_version += 1;
        }
        n
    }

    pub fn ls_kernel(&self, task: usize, idx: usize) -> &KernelDesc {
        &self.scenario.ls[task].model.kernels[idx]
    }

    pub fn be_kernel(&self, task: usize, idx: usize) -> &KernelDesc {
        &self.scenario.be[task].model.kernels[idx]
    }

    /// Launches the peeked LS kernel with the given resources.
    pub fn launch_ls(&mut self, mask: TpcMask, channels: ChannelSet, thread_fraction: f64) {
        assert!(self.ls_launch.is_none(), "one LS kernel at a time");
        let (task, kernel_idx) = self.peek_ls().expect("no LS kernel ready");
        let kernel = &self.scenario.ls[task].kernels[kernel_idx];
        let id = self.engine.launch_prepared(
            kernel,
            &LaunchConfig {
                mask,
                channels,
                thread_fraction,
                preempt_poll_us: None,
            },
        );
        self.ls_launch = Some(ActiveLaunch {
            id,
            task,
            kernel_idx,
            mask,
            channels,
        });
    }

    /// Launches the peeked BE kernel with the given resources.
    pub fn launch_be(
        &mut self,
        mask: TpcMask,
        channels: ChannelSet,
        thread_fraction: f64,
        poll_us: f64,
    ) {
        assert!(self.be_launch.is_none(), "one BE kernel at a time");
        let (task, kernel_idx) = self.peek_be().expect("no BE task");
        let kernel = &self.scenario.be[task].kernels[kernel_idx];
        let id = self.engine.launch_prepared(
            kernel,
            &LaunchConfig {
                mask,
                channels,
                thread_fraction,
                preempt_poll_us: Some(poll_us),
            },
        );
        self.be_launch = Some(ActiveLaunch {
            id,
            task,
            kernel_idx,
            mask,
            channels,
        });
    }

    /// Raises the eviction flag on the running BE kernel (§7.1).
    pub fn preempt_be(&mut self) {
        if let Some(be) = self.be_launch {
            self.engine.raise_eviction_flag(be.id);
        }
    }

    /// Expands / moves the running BE kernel's resources in place —
    /// persistent-thread kernels pick up newly unmasked TPCs as their
    /// worker blocks cycle (Fig. 13b's elastic growth), and bimodal
    /// tensors switch mappings by pointer swap (§7.2).
    pub fn remask_be(&mut self, mask: TpcMask, channels: ChannelSet) {
        if let Some(be) = self.be_launch.as_mut() {
            if be.mask != mask || be.channels != channels {
                let id = be.id;
                be.mask = mask;
                be.channels = channels;
                self.engine.remask(id, mask, channels);
            }
        }
    }

    fn on_event(&mut self, ev: EngineEvent) {
        // Which LS task freed an inference slot (if any): the only event
        // kind that can unblock an admission.
        let mut freed_slot: Option<usize> = None;
        match ev {
            EngineEvent::Finished { id, at_us } => {
                if self.ls_launch.is_some_and(|l| l.id == id) {
                    let l = self.ls_launch.take().expect("checked");
                    let inf = self.inflight[l.task].front_mut().expect("inference exists");
                    inf.cursor += 1;
                    self.ls_rr = next_rr(l.task, self.scenario.ls.len());
                    self.ls_version += 1;
                    if inf.cursor >= self.scenario.ls[l.task].model.kernels.len() {
                        let done = self.inflight[l.task].pop_front().expect("present");
                        if self.inflight[l.task].is_empty() {
                            self.ls_mask &= !(1 << l.task);
                        }
                        self.backlog -= 1;
                        self.inflight_total -= 1;
                        freed_slot = Some(l.task);
                        self.stats.ls_completed[l.task].push(CompletedRequest {
                            arrival_us: done.arrival_us,
                            done_us: at_us,
                        });
                    }
                } else if self.be_launch.is_some_and(|l| l.id == id) {
                    let l = self.be_launch.take().expect("checked");
                    self.be_cursor[l.task] += 1;
                    if self.be_cursor[l.task] >= self.scenario.be[l.task].model.kernels.len() {
                        self.be_cursor[l.task] = 0;
                        self.stats.be_completed[l.task] += 1;
                        self.be_rr = next_rr(l.task, self.scenario.be.len());
                    }
                }
            }
            EngineEvent::Preempted { id, .. } => {
                if self.be_launch.is_some_and(|l| l.id == id) {
                    // Progress discarded; the same kernel will be
                    // relaunched (cursor unchanged).
                    self.be_launch = None;
                    self.stats.be_preemptions += 1;
                }
            }
        }
        // Only the task whose inference completed can admit anything
        // new; every other event leaves the queues untouched.
        if let Some(t) = freed_slot {
            self.admit_task(t);
        }
        self.debug_assert_admitted();
        self.debug_assert_ls_mask();
    }
}

/// A GPU sharing policy: decides resources for LS / BE kernels.
///
/// `Send` is a supertrait, so a replica — policy included — can move to
/// whichever thread runs it (policies are plain data; no policy in the
/// workspace ever held thread-affine state).
pub trait Policy: Send {
    fn name(&self) -> &'static str;

    /// Fill the GPU. Called whenever the state changes (arrival, kernel
    /// completion, preemption, timer).
    fn dispatch(&mut self, st: &mut ServingState);

    /// Reaction to a new LS request (e.g. SGDRC raises the eviction flag).
    fn on_ls_arrival(&mut self, st: &mut ServingState) {
        let _ = st;
    }

    /// Next policy-internal timer (absolute µs), e.g. TGS context-switch
    /// completion.
    fn next_timer(&self) -> Option<f64> {
        None
    }

    /// Whether this policy ever schedules internal timers. The serving
    /// loop skips the per-event [`next_timer`](Self::next_timer) query
    /// entirely when this returns `false` (debug builds check that
    /// `next_timer` is then `None`). Defaults to `true` so a policy that
    /// implements [`next_timer`](Self::next_timer) without overriding
    /// this still gets its timers; timer-less policies override it to
    /// `false` as a pure optimization.
    fn has_timers(&self) -> bool {
        true
    }

    /// Called once at the start of every [`run`], before the first
    /// dispatch. Policies carrying memoized per-run state (e.g. caches
    /// keyed on [`ServingState::ls_version`], which restarts per run)
    /// reset it here so one policy instance can serve several runs.
    fn on_run_start(&mut self, st: &mut ServingState) {
        let _ = st;
    }
}

/// A resumable serving simulation for one GPU replica.
///
/// [`run_in_context`] drives a whole scenario to the horizon in one
/// call; a *cluster* interleaves many replicas behind a request router,
/// which needs to (a) quiesce every replica up to an arrival's
/// timestamp, (b) read replica state to pick a target, and (c) inject
/// the arrival into that target only. `ReplicaSim` exposes the serving
/// loop in exactly those increments — the batch run is itself
/// implemented on top of it, so a 1-replica cluster fed the same
/// merged stream reproduces a batch run bit for bit (enforced by
/// `workload/tests/cluster.rs`).
///
/// Lifecycle: [`prepare`](Self::prepare) → optional state setup (e.g.
/// parking BE tasks) → [`begin`](Self::begin) → any interleaving of
/// [`advance`](Self::advance) / [`inject_arrival`](Self::inject_arrival)
/// / [`dispatch`](Self::dispatch) → final `advance(policy, None)` →
/// [`finish`](Self::finish).
pub struct ReplicaSim<'s> {
    st: ServingState<'s>,
    use_timers: bool,
}

/// The candidate fold shared by [`ReplicaSim::next_pending_at`] and
/// [`ReplicaSim::advance_hinted`] — one definition, so the hint the
/// advance loop hands out is structurally the same value a fresh
/// `next_pending_at` would compute.
fn fold_pending(event: Option<f64>, timer: Option<f64>) -> Option<f64> {
    match (event, timer) {
        (Some(e), Some(t)) => Some(e.min(t)),
        (Some(e), None) => Some(e),
        (None, Some(t)) => Some(t),
        (None, None) => None,
    }
}

impl<'s> ReplicaSim<'s> {
    /// Builds the simulation from a context's recycled storage without
    /// touching the policy — callers may configure the state (e.g. BE
    /// activity) before the first dispatch.
    pub fn prepare(scenario: &'s Scenario, ctx: &mut SimContext) -> Self {
        Self {
            st: ServingState::new_in(scenario, ctx),
            use_timers: true,
        }
    }

    /// Starts the run: queries the policy's timer capability, resets its
    /// per-run state and performs the initial dispatch.
    pub fn begin(&mut self, policy: &mut dyn Policy) {
        self.use_timers = policy.has_timers();
        policy.on_run_start(&mut self.st);
        policy.dispatch(&mut self.st);
    }

    /// The serving state (read-only): queue pressure, launches,
    /// accumulated statistics.
    pub fn state(&self) -> &ServingState<'s> {
        &self.st
    }

    /// Mutable serving state access for controllers (BE activity
    /// toggles, targeted preemption). Call [`dispatch`](Self::dispatch)
    /// afterwards so the policy reacts to the mutation.
    pub fn state_mut(&mut self) -> &mut ServingState<'s> {
        &mut self.st
    }

    /// Re-runs the policy's dispatch against the current state — the
    /// follow-up to any external mutation through
    /// [`state_mut`](Self::state_mut).
    pub fn dispatch(&mut self, policy: &mut dyn Policy) {
        policy.dispatch(&mut self.st);
    }

    /// The two pending-work candidates [`advance`](Self::advance) folds
    /// each iteration: the engine's memoized next event, and the
    /// policy's next *live* timer (stale, non-future timers dropped).
    /// Shared by `advance` and [`next_pending_at`](Self::next_pending_at)
    /// so the no-op guarantee below is structural, not a convention two
    /// copies of the fold would have to keep honoring.
    fn pending_candidates<P: Policy + ?Sized>(&self, policy: &P) -> (Option<f64>, Option<f64>) {
        let event = self.st.engine.next_event_at();
        let timer = if self.use_timers {
            policy.next_timer().filter(|&t| t > self.st.now() + 1e-9)
        } else {
            debug_assert!(
                policy.next_timer().is_none(),
                "a policy without timers scheduled one"
            );
            None
        };
        (event, timer)
    }

    /// The earliest pending work instant — engine event or live policy
    /// timer — or `None` when the replica is idle. Built on the same
    /// [`pending_candidates`](Self::pending_candidates) fold `advance`
    /// consumes, so `advance(policy, Some(t))` is a guaranteed no-op
    /// (no state change, returns `true`) whenever `t` is within the
    /// horizon and `next_pending_at() >= Some(t)` or the replica is idle
    /// — the property the fleet clock uses to skip replicas with no due
    /// work.
    pub fn next_pending_at(&self, policy: &dyn Policy) -> Option<f64> {
        let (event, timer) = self.pending_candidates(policy);
        fold_pending(event, timer)
    }

    /// Processes engine events and policy timers that precede an arrival
    /// at `next_arrival_us` (or all remaining work when `None`), with the
    /// batch loop's exact ordering and tie-breaking. Returns `true` when
    /// it stopped because the supplied arrival is due next (the caller
    /// should [`inject_arrival`](Self::inject_arrival) it), `false` when
    /// the horizon was reached or the replica went idle forever.
    pub fn advance(&mut self, policy: &mut dyn Policy, next_arrival_us: Option<f64>) -> bool {
        self.advance_hinted(policy, next_arrival_us).0
    }

    /// [`advance`](Self::advance), plus the pending-work instant left at
    /// exit: the second element equals what
    /// [`next_pending_at`](Self::next_pending_at) would return if called
    /// immediately after — it *is* the candidate fold the loop's final
    /// iteration computed to decide it was done, handed out so hot
    /// callers (the fleet clock's lane refresh) skip re-deriving it.
    /// Generic over the concrete policy so a monomorphic caller gets the
    /// per-event `next_timer`/`dispatch` calls devirtualized and
    /// inlined; `dyn Policy` callers lose nothing.
    pub fn advance_hinted<P: Policy + ?Sized>(
        &mut self,
        policy: &mut P,
        next_arrival_us: Option<f64>,
    ) -> (bool, Option<f64>) {
        loop {
            // The engine's next event is memoized inside the engine —
            // the same value serves the min fold below and the engine's
            // own integration this iteration.
            let (event, timer) = self.pending_candidates(&*policy);
            // Earliest of the three candidate times, without
            // materializing a candidate list (this runs once per
            // simulated event).
            let mut next = f64::INFINITY;
            if let Some(at) = next_arrival_us {
                next = at;
            }
            if let Some(at) = event {
                next = next.min(at);
            }
            if let Some(at) = timer {
                next = next.min(at);
            }
            if next == f64::INFINITY {
                return (false, fold_pending(event, timer)); // idle with no arrivals left
            }
            if next > self.st.scenario.horizon_us {
                return (false, fold_pending(event, timer));
            }
            // Arrival strictly first?
            if next_arrival_us.is_some_and(|at| at <= next + 1e-9)
                && event.is_none_or(|e| next_arrival_us.expect("checked") <= e)
            {
                return (true, fold_pending(event, timer));
            } else if event.is_some_and(|e| e <= next + 1e-9) {
                let ev = self.st.engine.step().expect("event was due");
                self.st.on_event(ev);
            } else {
                // Timer only.
                self.st.engine.advance_idle(next);
            }
            policy.dispatch(&mut self.st);
        }
    }

    /// Delivers one routed request to LS task `task` at `at_us` (which
    /// must be the timestamp [`advance`](Self::advance) just stopped at):
    /// idles the engine forward, enqueues the request, and gives the
    /// policy its arrival reaction plus a dispatch.
    pub fn inject_arrival(&mut self, policy: &mut dyn Policy, task: usize, at_us: f64) {
        self.inject_requeued(policy, task, at_us, at_us);
    }

    /// [`inject_arrival`](Self::inject_arrival) for a request re-dispatched
    /// after a crash drain: the engine advances to the re-dispatch instant
    /// `at_us`, but the request keeps its **original** arrival timestamp
    /// `arrival_us` — end-to-end latency (and therefore SLO accounting)
    /// includes the outage, the retry backoff and the re-executed kernels.
    /// A plain arrival is the `arrival_us == at_us` special case.
    pub fn inject_requeued(
        &mut self,
        policy: &mut dyn Policy,
        task: usize,
        arrival_us: f64,
        at_us: f64,
    ) {
        self.st.engine.advance_idle(at_us);
        self.st.push_arrival(task, arrival_us);
        policy.on_ls_arrival(&mut self.st);
        policy.dispatch(&mut self.st);
    }

    /// Ends the run: records the actually simulated time and event count
    /// into the statistics and returns the storage to the context.
    pub fn finish(mut self, ctx: &mut SimContext) -> RunStats {
        self.st.stats.horizon_us = self.st.now().min(self.st.scenario.horizon_us);
        self.st.stats.engine_events = self.st.engine.events_processed();
        self.st.finish_into(ctx)
    }
}

/// Compile-time contract: the whole replica stack — contexts, the
/// resumable simulation (engine, queues, statistics) and, via the
/// `Policy: Send` supertrait, every policy — stays movable across
/// threads. A new field that is not `Send` fails here, not in a distant
/// build error.
#[allow(dead_code)]
fn _assert_replica_stack_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<SimContext>();
    assert_send::<ReplicaSim<'static>>();
    assert_send::<Box<dyn Policy>>();
}

/// Runs a scenario under a policy to the horizon; returns the statistics.
pub fn run(policy: &mut dyn Policy, scenario: &Scenario) -> RunStats {
    run_in_context(policy, scenario, &mut SimContext::new())
}

/// [`run`] with the simulation storage supplied by the caller, for
/// callers that run many scenarios back to back. A fresh [`SimContext`]
/// reproduces [`run`] exactly; a reused one costs zero steady-state
/// allocation per run.
pub fn run_in_context(
    policy: &mut dyn Policy,
    scenario: &Scenario,
    ctx: &mut SimContext,
) -> RunStats {
    // The resumable replica pump fed the merged stream — the same
    // machinery a cluster drives arrival-by-arrival, here run to
    // completion in one call.
    let mut sim = ReplicaSim::prepare(scenario, ctx);
    sim.begin(policy);
    let merged = scenario.arrivals.merged();
    let mut next = 0usize;
    loop {
        match merged.get(next) {
            Some(a) => {
                if !sim.advance(policy, Some(a.at_us)) {
                    break; // horizon reached before the arrival
                }
                next += 1;
                sim.inject_arrival(policy, a.task as usize, a.at_us);
            }
            None => {
                sim.advance(policy, None);
                break;
            }
        }
    }
    sim.finish(ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sgdrc, SgdrcConfig};
    use dnn::zoo::{build, ModelId};
    use dnn::CompileOptions;
    use gpu_spec::GpuModel;
    use proptest::prelude::*;

    fn two_be_scenario(horizon_us: f64) -> Scenario {
        let spec = GpuModel::RtxA2000.spec();
        let compile = |id| {
            Task::new(
                dnn::compile(build(id), &spec, CompileOptions::default()),
                &spec,
            )
        };
        let ls = vec![compile(ModelId::MobileNetV3)];
        let be = vec![compile(ModelId::DenseNet161), compile(ModelId::ResNet152)];
        let arrivals: Vec<f64> = (0..)
            .map(|i| i as f64 * 10_000.0)
            .take_while(|&t| t < horizon_us)
            .collect();
        Scenario::new(spec, ls, be, 4, vec![arrivals], horizon_us)
    }

    #[test]
    fn parked_be_tasks_are_skipped_and_resumable() {
        let sc = two_be_scenario(300_000.0);
        let mut policy = Sgdrc::new(&sc.spec, SgdrcConfig::default());

        // Park BE task 1 before the first dispatch: only task 0 runs.
        let mut ctx = SimContext::new();
        let mut sim = ReplicaSim::prepare(&sc, &mut ctx);
        sim.state_mut().set_be_active(1, false);
        assert!(sim.state().be_present());
        assert_eq!(sim.state().active_be_count(), 1);
        assert_eq!(sim.state().peek_be(), Some((0, 0)));
        sim.begin(&mut policy);
        sim.advance(&mut policy, None);
        let stats = sim.finish(&mut ctx);
        assert!(stats.be_completed[0] > 0, "active BE task must progress");
        assert_eq!(stats.be_completed[1], 0, "parked BE task must not run");

        // Both active (the default `run` path): both make progress, and
        // the run with task 1 parked completed more of task 0 than the
        // shared run did.
        let mut both_policy = Sgdrc::new(&sc.spec, SgdrcConfig::default());
        let both = run(&mut both_policy, &sc);
        assert!(both.be_completed[0] > 0 && both.be_completed[1] > 0);
        assert!(stats.be_completed[0] >= both.be_completed[0]);

        // Everything parked: no BE kernel is ever offered.
        let mut none_ctx = SimContext::new();
        let mut none_sim = ReplicaSim::prepare(&sc, &mut none_ctx);
        none_sim.state_mut().set_be_active(0, false);
        none_sim.state_mut().set_be_active(1, false);
        assert!(!none_sim.state().be_present());
        assert_eq!(none_sim.state().peek_be(), None);
        let mut none_policy = Sgdrc::new(&sc.spec, SgdrcConfig::default());
        none_sim.begin(&mut none_policy);
        // The pump takes routed arrivals, not the scenario's own trace.
        for a in sc.arrivals.merged().to_vec() {
            if !none_sim.advance(&mut none_policy, Some(a.at_us)) {
                break;
            }
            none_sim.inject_arrival(&mut none_policy, a.task as usize, a.at_us);
        }
        none_sim.advance(&mut none_policy, None);
        let none = none_sim.finish(&mut none_ctx);
        assert_eq!(none.be_completed, vec![0, 0]);
        assert!(
            !none.ls_completed[0].is_empty(),
            "LS serving continues without BE work"
        );
    }

    #[test]
    fn crash_drain_requeues_every_queued_request_and_cancels_launches() {
        let sc = two_be_scenario(300_000.0);
        let mut ctx = SimContext::new();
        let mut policy = Sgdrc::new(&sc.spec, SgdrcConfig::default());
        let mut sim = ReplicaSim::prepare(&sc, &mut ctx);
        sim.begin(&mut policy);
        // Pump a burst of arrivals in, then advance a little so some are
        // in flight and kernels are on the GPU.
        for i in 0..8 {
            let at = 1_000.0 + i as f64;
            assert!(sim.advance(&mut policy, Some(at)));
            sim.inject_arrival(&mut policy, 0, at);
        }
        assert!(sim.advance(&mut policy, Some(2_000.0)));
        let backlog_before = sim.state().ls_backlog();
        assert!(backlog_before > 0, "setup: queued work exists");
        assert!(
            sim.state().ls_launch.is_some() || sim.state().be_launch.is_some(),
            "setup: something is running"
        );

        let mut drained = Vec::new();
        sim.state_mut().crash_drain(&mut drained);
        let st = sim.state();
        assert_eq!(drained.len(), backlog_before, "every request drained");
        assert!(drained.iter().all(|&(t, at)| t == 0 && at >= 1_000.0));
        assert_eq!(st.ls_backlog(), 0);
        assert!(st.ls_launch.is_none() && st.be_launch.is_none());
        assert_eq!(st.engine.running_count(), 0, "launches cancelled");
        assert_eq!(st.stats.ls_requeued, backlog_before as u64);
        // A drained replica is quiescent: no engine events, no completions
        // appear out of thin air.
        let completed_before: usize = st.stats.ls_completed.iter().map(Vec::len).sum();
        assert!(!sim.advance(&mut policy, None));
        let completed_after: usize = sim.state().stats.ls_completed.iter().map(Vec::len).sum();
        assert_eq!(completed_before, completed_after);
        let _ = sim.finish(&mut ctx);
    }

    #[test]
    fn drain_pending_requeues_queued_work_but_finishes_inflight() {
        let sc = two_be_scenario(300_000.0);
        let mut ctx = SimContext::new();
        let mut policy = Sgdrc::new(&sc.spec, SgdrcConfig::default());
        let mut sim = ReplicaSim::prepare(&sc, &mut ctx);
        sim.begin(&mut policy);
        for i in 0..8 {
            let at = 1_000.0 + i as f64;
            assert!(sim.advance(&mut policy, Some(at)));
            sim.inject_arrival(&mut policy, 0, at);
        }
        assert!(sim.advance(&mut policy, Some(2_000.0)));
        let st = sim.state();
        let inflight_before: usize = st.inflight.iter().map(VecDeque::len).sum();
        let pending_before: usize = st.pending.iter().map(VecDeque::len).sum();
        assert!(inflight_before > 0, "setup: admitted work exists");
        assert!(pending_before > 0, "setup: queued work exists");

        let done_before = st.stats.ls_completed[0].len();

        let mut drained = Vec::new();
        sim.state_mut().drain_pending(&mut drained);
        let st = sim.state();
        assert_eq!(drained.len(), pending_before, "only pending drained");
        assert!(drained.iter().all(|&(t, at)| t == 0 && at >= 1_000.0));
        assert_eq!(
            st.ls_backlog(),
            inflight_before,
            "in-flight requests stay admitted"
        );
        assert_eq!(st.stats.ls_requeued, pending_before as u64);
        // Unlike a crash, the replica keeps serving: every admitted
        // request completes in place.
        assert!(sim.state().ls_launch.is_some() || sim.state().be_launch.is_some());
        while sim.advance(&mut policy, None) {}
        let done = sim.state().stats.ls_completed[0].len();
        assert_eq!(
            done,
            done_before + inflight_before,
            "admitted work ran to completion"
        );
        let _ = sim.finish(&mut ctx);
    }

    /// Satellite regression: `preempt_be` raises the eviction flag, and the
    /// `Preempted` event normally clears `be_launch` later. A crash drain
    /// in between must not leave a phantom-active BE entry — no stale
    /// `be_launch`, no pending preemption event firing on the dead
    /// replica, no preemption counted, and the parked task invisible to
    /// `peek_be`.
    #[test]
    fn preempt_then_crash_drain_leaves_no_phantom_active_be() {
        let sc = two_be_scenario(300_000.0);
        let mut ctx = SimContext::new();
        let mut policy = Sgdrc::new(&sc.spec, SgdrcConfig::default());
        let mut sim = ReplicaSim::prepare(&sc, &mut ctx);
        sim.begin(&mut policy);
        assert!(sim.advance(&mut policy, Some(5_000.0)));
        sim.inject_arrival(&mut policy, 0, 5_000.0);
        assert!(sim.advance(&mut policy, Some(6_000.0)));
        // Make sure a BE kernel is actually resident before preempting.
        assert!(sim.state().be_launch.is_some(), "setup: BE kernel running");
        let be_task = sim.state().be_launch.expect("checked").task;
        let preemptions_before = sim.state().stats.be_preemptions;

        // Controller-style forced preemption (migration parks the task),
        // immediately followed by the replica dying.
        let st = sim.state_mut();
        st.set_be_active(be_task, false);
        st.preempt_be();
        let mut drained = Vec::new();
        st.crash_drain(&mut drained);

        let st = sim.state();
        assert!(st.be_launch.is_none(), "phantom-active be_launch survived");
        assert!(!st.be_active(be_task), "parked task still active");
        assert!(
            st.peek_be().is_none_or(|(t, _)| t != be_task),
            "peek_be offered the parked task"
        );
        assert_eq!(st.engine.running_count(), 0);
        assert_eq!(
            st.stats.be_preemptions, preemptions_before,
            "the cancelled eviction must not count as a preemption"
        );
        // The pending eviction deadline must not fire after the drain.
        assert!(!sim.advance(&mut policy, None));
        assert_eq!(sim.state().stats.be_preemptions, preemptions_before);

        // Recovery: reactivate, dispatch, and BE work resumes with the
        // cursor it crashed at.
        let cursor = sim.state().be_cursor[be_task];
        sim.state_mut().set_be_active(be_task, true);
        assert_eq!(sim.state().be_cursor[be_task], cursor, "cursor preserved");
        sim.dispatch(&mut policy);
        assert!(
            sim.state().be_launch.is_some() || sim.state().ls_launch.is_some(),
            "replica serves again after recovery"
        );
        let _ = sim.finish(&mut ctx);
    }

    #[test]
    fn shed_pending_drops_newest_first_and_fixes_the_backlog() {
        let sc = two_be_scenario(300_000.0);
        let mut ctx = SimContext::new();
        let mut policy = Sgdrc::new(&sc.spec, SgdrcConfig::default());
        let mut sim = ReplicaSim::prepare(&sc, &mut ctx);
        sim.begin(&mut policy);
        for i in 0..10 {
            let at = 1_000.0 + i as f64;
            assert!(sim.advance(&mut policy, Some(at)));
            sim.inject_arrival(&mut policy, 0, at);
        }
        let before = sim.state().ls_backlog();
        let shed = sim.state_mut().shed_pending(0, 3);
        assert!(shed <= 3);
        assert_eq!(sim.state().ls_backlog(), before - shed);
        // Shedding more than exists drops only what is there; only
        // in-flight work remains afterwards.
        let _ = sim.state_mut().shed_pending(0, usize::MAX);
        assert_eq!(
            sim.state().ls_backlog(),
            sim.state().inflight[0].len(),
            "pending fully shed"
        );
        sim.advance(&mut policy, None);
        let _ = sim.finish(&mut ctx);
    }

    #[test]
    fn replica_sim_injection_reproduces_the_batch_run() {
        // Driving the pump arrival-by-arrival (the cluster's usage) must
        // equal the batch run bit for bit.
        let sc = two_be_scenario(200_000.0);
        let mut batch_policy = Sgdrc::new(&sc.spec, SgdrcConfig::default());
        let batch = run(&mut batch_policy, &sc);

        let mut ctx = SimContext::new();
        let mut policy = Sgdrc::new(&sc.spec, SgdrcConfig::default());
        let mut sim = ReplicaSim::prepare(&sc, &mut ctx);
        sim.begin(&mut policy);
        for a in sc.arrivals.merged().to_vec() {
            if !sim.advance(&mut policy, Some(a.at_us)) {
                break;
            }
            sim.inject_arrival(&mut policy, a.task as usize, a.at_us);
        }
        sim.advance(&mut policy, None);
        let stepped = sim.finish(&mut ctx);
        assert_eq!(batch, stepped);
    }

    /// Everything `advance` could change, for the no-op test below.
    type Snapshot = (
        RunStats,
        f64,
        usize,
        Vec<(LaunchId, usize, usize)>,
        u64,
        usize,
    );

    fn snapshot(sim: &ReplicaSim<'_>) -> Snapshot {
        let st = sim.state();
        let launches = [st.ls_launch, st.be_launch]
            .into_iter()
            .flatten()
            .map(|l| (l.id, l.task, l.kernel_idx))
            .collect();
        (
            st.stats.clone(),
            st.now(),
            st.ls_backlog(),
            launches,
            st.engine.events_processed(),
            st.engine.running_count(),
        )
    }

    /// The guarantee the fleet clock's busy-set scan relies on when it skips
    /// lanes with no due work: `advance(policy, Some(t))` with `t` at or
    /// before `next_pending_at()` — or on an idle replica — returns
    /// `true` and changes nothing.
    #[test]
    fn advance_before_pending_work_is_a_no_op() {
        let sc = two_be_scenario(200_000.0);
        let assert_no_op = |sim: &mut ReplicaSim<'_>, policy: &mut Sgdrc, t: f64| {
            let before = snapshot(sim);
            assert!(
                sim.advance(policy, Some(t)),
                "advance to {t} must stop at t"
            );
            assert_eq!(snapshot(sim), before, "advance to {t} changed the replica");
        };

        // Busy: BE work keeps the engine running; probe at the next
        // pending instant and halfway to it before every arrival.
        let mut ctx = SimContext::new();
        let mut policy = Sgdrc::new(&sc.spec, SgdrcConfig::default());
        let mut sim = ReplicaSim::prepare(&sc, &mut ctx);
        sim.begin(&mut policy);
        let mut probes = 0;
        for a in sc.arrivals.merged().to_vec() {
            let now = sim.state().now();
            let next = sim.next_pending_at(&policy).expect("BE work is pending");
            for t in [now + 0.5 * (next - now), next] {
                if t <= sc.horizon_us {
                    assert_no_op(&mut sim, &mut policy, t);
                    probes += 1;
                }
            }
            assert!(sim.advance(&mut policy, Some(a.at_us)));
            sim.inject_arrival(&mut policy, a.task as usize, a.at_us);
        }
        assert!(probes >= 20, "too few probes ({probes})");

        // Idle: with every BE task parked, the replica has no pending
        // work before its first request and again after serving it.
        let mut ctx = SimContext::new();
        let mut policy = Sgdrc::new(&sc.spec, SgdrcConfig::default());
        let mut sim = ReplicaSim::prepare(&sc, &mut ctx);
        sim.state_mut().set_be_active(0, false);
        sim.state_mut().set_be_active(1, false);
        sim.begin(&mut policy);
        assert_eq!(sim.next_pending_at(&policy), None);
        for t in [0.0, 1_000.0, 50_000.0] {
            assert_no_op(&mut sim, &mut policy, t);
        }
        assert!(sim.advance(&mut policy, Some(50_000.0)));
        sim.inject_arrival(&mut policy, 0, 50_000.0);
        assert!(sim.advance(&mut policy, Some(150_000.0)));
        assert_eq!(sim.state().stats.ls_completed[0].len(), 1);
        assert_eq!(sim.next_pending_at(&policy), None);
        for t in [150_000.0, 199_000.0] {
            assert_no_op(&mut sim, &mut policy, t);
        }
    }

    /// A resident kernel holds no reference to its descriptor: launching
    /// prepared LS and BE kernels and running them leaves every
    /// descriptor's `Arc` count where it was.
    #[test]
    fn running_kernels_take_no_descriptor_reference() {
        let sc = two_be_scenario(300_000.0);
        let counts = || -> Vec<usize> {
            sc.ls
                .iter()
                .chain(sc.be.iter())
                .flat_map(|t| t.kernels.iter().map(|k| Arc::strong_count(&k.desc)))
                .collect()
        };
        let before = counts();
        let mut ctx = SimContext::new();
        let mut policy = Sgdrc::new(&sc.spec, SgdrcConfig::default());
        let mut sim = ReplicaSim::prepare(&sc, &mut ctx);
        sim.begin(&mut policy);
        assert!(sim.advance(&mut policy, Some(1_000.0)));
        sim.inject_arrival(&mut policy, 0, 1_000.0);
        let st = sim.state();
        assert!(
            st.ls_launch.is_some() && st.be_launch.is_some(),
            "setup: an LS and a BE kernel are resident"
        );
        assert_eq!(
            counts(),
            before,
            "a running kernel took a descriptor reference"
        );
        let _ = sim.finish(&mut ctx);
    }

    #[test]
    #[should_panic(expected = "at most 64 LS and 64 BE tasks")]
    fn a_scenario_with_more_than_64_ls_tasks_is_rejected() {
        let base = two_be_scenario(1e5);
        let sc = Scenario {
            ls: vec![base.ls[0].clone(); MAX_TASKS + 1].into(),
            ..base
        };
        let _ = ReplicaSim::prepare(&sc, &mut SimContext::new());
    }

    #[test]
    #[should_panic(expected = "at most 64 LS and 64 BE tasks")]
    fn a_scenario_with_more_than_64_be_tasks_is_rejected() {
        let base = two_be_scenario(1e5);
        let sc = Scenario {
            be: vec![base.be[0].clone(); MAX_TASKS + 1].into(),
            ..base
        };
        let _ = ReplicaSim::prepare(&sc, &mut SimContext::new());
    }

    /// Two LS models of different lengths and one BE model, compiled
    /// once for the round-robin proptest.
    fn rr_tasks() -> &'static [Task; 3] {
        static TASKS: OnceLock<[Task; 3]> = OnceLock::new();
        TASKS.get_or_init(|| {
            let spec = GpuModel::RtxA2000.spec();
            let compile = |id| {
                Task::new(
                    dnn::compile(build(id), &spec, CompileOptions::default()),
                    &spec,
                )
            };
            [
                compile(ModelId::MobileNetV3),
                compile(ModelId::SqueezeNet),
                compile(ModelId::ResNet152),
            ]
        })
    }

    // The `(rr + off) % n` scans the round-robin masks replaced, kept
    // verbatim as the masks' oracle.

    fn modulo_peek_ls(st: &ServingState) -> Option<(usize, usize)> {
        let n = st.scenario.ls.len();
        for off in 0..n {
            let t = (st.ls_rr + off) % n;
            if let Some(inf) = st.inflight[t].front() {
                return Some((t, inf.cursor));
            }
        }
        None
    }

    fn modulo_upcoming_ls(st: &ServingState, window: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let n = st.scenario.ls.len();
        for off in 0..n {
            let t = (st.ls_rr + off) % n;
            if let Some(inf) = st.inflight[t].front() {
                let kernels = st.scenario.ls[t].model.kernels.len();
                for c in inf.cursor..kernels.min(inf.cursor + window) {
                    out.push((t, c));
                    if out.len() >= window {
                        return out;
                    }
                }
            }
        }
        out
    }

    fn modulo_peek_be(st: &ServingState, active: &[bool]) -> Option<(usize, usize)> {
        let n = st.scenario.be.len();
        for off in 0..n {
            let t = (st.be_rr + off) % n;
            if active[t] {
                return Some((t, st.be_cursor[t]));
            }
        }
        None
    }

    proptest! {
        /// The mask-based `peek_ls`, `upcoming_ls_kernels_into`,
        /// `peek_be`, `be_present` and `active_be_count` answer exactly
        /// what the modulo scans over the queues and the parked set do,
        /// for any queue occupancy, kernel cursors, round-robin
        /// pointers, window and parked BE tasks, up to 64 tasks a side.
        #[test]
        fn round_robin_masks_match_the_modulo_scans(
            n_ls in 0usize..MAX_TASKS + 1,
            n_be in 0usize..MAX_TASKS + 1,
            arrivals in prop::collection::vec(0usize..7, MAX_TASKS..MAX_TASKS + 1),
            cursors in prop::collection::vec(0usize..1 << 20, MAX_TASKS..MAX_TASKS + 1),
            ls_rr in 0usize..1 << 20,
            be_rr in 0usize..1 << 20,
            window in 1usize..48,
            parked in 0u64..u64::MAX,
        ) {
            let [ls_a, ls_b, be] = rr_tasks();
            let sc = Scenario::new(
                GpuModel::RtxA2000.spec(),
                (0..n_ls).map(|t| if t % 2 == 0 { ls_a.clone() } else { ls_b.clone() }).collect(),
                vec![be.clone(); n_be],
                4,
                vec![Vec::new(); n_ls],
                1e6,
            );
            let mut ctx = SimContext::new();
            let mut st = ServingState::new_in(&sc, &mut ctx);
            for t in 0..n_ls {
                for _ in 0..arrivals[t] {
                    st.push_arrival(t, 0.0);
                }
                let kernels = sc.ls[t].model.kernels.len();
                if let Some(inf) = st.inflight[t].front_mut() {
                    inf.cursor = cursors[t] % kernels;
                }
            }
            for (cursor, &c) in st.be_cursor.iter_mut().zip(&cursors) {
                *cursor = c % be.model.kernels.len();
            }
            st.ls_rr = ls_rr % n_ls.max(1);
            st.be_rr = be_rr % n_be.max(1);
            let active: Vec<bool> = (0..n_be).map(|t| parked >> t & 1 == 0).collect();
            for (t, &a) in active.iter().enumerate() {
                st.set_be_active(t, a);
            }
            st.debug_assert_ls_mask();

            prop_assert_eq!(st.peek_ls(), modulo_peek_ls(&st));
            let mut upcoming = Vec::new();
            st.upcoming_ls_kernels_into(window, &mut upcoming);
            prop_assert_eq!(upcoming, modulo_upcoming_ls(&st, window));
            prop_assert_eq!(st.peek_be(), modulo_peek_be(&st, &active));
            prop_assert_eq!(st.be_present(), active.contains(&true));
            prop_assert_eq!(st.active_be_count(), active.iter().filter(|&&a| a).count());
        }
    }
}
