//! The discrete-event execution engine.
//!
//! Schedulers (SGDRC and the baselines) drive the engine: they launch
//! kernels with TPC masks / channel sets, advance virtual time, and react
//! to completion or preemption events. Progress is integrated with
//! piecewise-constant rates — exact for the roofline contention model,
//! independent of wall-clock.
//!
//! ## Hot-path design
//!
//! The engine processes millions of events per experiment, so the
//! per-event path allocates nothing:
//!
//! * running kernels are stored struct-of-arrays ([`RunningCtx`] contexts
//!   parallel to integration bookkeeping); a context is a `Copy` value
//!   carrying the kernel's precomputed invariants, not its descriptor, so
//!   a launch from a [`PreparedKernel`] copies a few words and touches no
//!   reference count;
//! * launches, finishes, cancels and remasks only mark the rates stale
//!   (a launch or remask also sets the kernel's [`per_channel_demand`]);
//!   the next read evaluates the whole running set from scratch with
//!   [`compute_rates_into`], so a completion immediately followed by a
//!   relaunch (the serving loop's steady state) pays one evaluation, not
//!   two, and the rates never depend on the order of the changes;
//! * [`Engine::next_event_at`] is memoized; integration keeps it valid
//!   (absolute finish times are invariant under `advance_to`), so the
//!   serving loop's repeated queries cost a `Cell` read.
//!
//! Debug builds check every memoized next-event time against a fresh
//! computation. The unit tests check whole event sequences against a
//! piecewise integration over the
//! [`reference`](crate::contention::reference) contention model.

use crate::contention::{
    compute_rates_into, per_channel_demand, KernelRate, PreparedKernel, RunningCtx,
};
use crate::types::{ChannelSet, EngineEvent, LaunchId, TpcMask};
use dnn::kernel::KernelDesc;
use gpu_spec::GpuSpec;
use std::cell::{Cell, RefCell};

/// Launch-time configuration of a kernel instance.
#[derive(Debug, Clone)]
pub struct LaunchConfig {
    pub mask: TpcMask,
    pub channels: ChannelSet,
    /// MPS active-thread fraction (1.0 unless emulating MPS).
    pub thread_fraction: f64,
    /// BE kernels poll the eviction flag every this many µs (§7.1). `None`
    /// makes the kernel non-preemptible (LS kernels).
    pub preempt_poll_us: Option<f64>,
}

impl LaunchConfig {
    /// Full GPU, not preemptible.
    pub fn exclusive(spec: &GpuSpec) -> Self {
        Self {
            mask: TpcMask::all(spec),
            channels: ChannelSet::all(spec),
            thread_fraction: 1.0,
            preempt_poll_us: None,
        }
    }
}

/// Per-kernel integration bookkeeping (parallel to the context array).
#[derive(Debug, Clone, Copy)]
struct RunningMeta {
    id: LaunchId,
    /// Remaining work in "exclusive-runtime µs".
    remaining: f64,
    /// Total work (for restart bookkeeping).
    total: f64,
    poll_us: Option<f64>,
    /// Eviction flag raised; kernel will terminate at its next poll.
    evicting: Option<f64 /* absolute deadline */>,
}

/// The engine.
pub struct Engine {
    spec: GpuSpec,
    now: f64,
    next_id: u64,
    /// Contention-model view of the running kernels.
    ctxs: Vec<RunningCtx>,
    /// Integration bookkeeping, parallel to `ctxs`.
    meta: Vec<RunningMeta>,
    /// Each context's [`per_channel_demand`], parallel to `ctxs`: set
    /// where its resources change, at launch and remask.
    per_channel: Vec<f64>,
    /// Rates valid for the current running set (parallel to `ctxs`).
    /// Interior-mutable so the lazy refresh can run behind `&self`
    /// accessors like [`Engine::next_event_at`].
    rates: RefCell<Vec<KernelRate>>,
    /// Set when the running set changed and `rates` no longer describes
    /// it. Launches, completions and remasks only mark this flag; the
    /// evaluation happens at the next read. A completion immediately
    /// followed by a relaunch at the same timestamp — the serving loop's
    /// steady state — then pays one rate evaluation instead of two.
    rates_stale: Cell<bool>,
    /// Memoized next-event time (`None` = stale, recompute on demand).
    next_event: Cell<Option<Option<f64>>>,
    /// Completion/preemption events delivered so far.
    events: u64,
    /// Global clock multiplier (1.0 = nominal). Models thermal throttling
    /// and transient stalls: every running kernel's progress integrates at
    /// `rate × clock_scale`, so a scale of 0.5 makes everything take twice
    /// as long until the scale is restored. Eviction-poll deadlines are
    /// wall-clock and stay unscaled.
    clock_scale: f64,
}

impl Engine {
    pub fn new(spec: GpuSpec) -> Self {
        Self {
            spec,
            now: 0.0,
            next_id: 1,
            ctxs: Vec::new(),
            meta: Vec::new(),
            per_channel: Vec::new(),
            rates: RefCell::new(Vec::new()),
            rates_stale: Cell::new(false),
            next_event: Cell::new(Some(None)),
            events: 0,
            clock_scale: 1.0,
        }
    }

    /// Returns the engine to the state [`Engine::new`] would produce for
    /// `spec`, retaining every internal buffer's capacity. Launch ids,
    /// the clock and the event counter restart, so a run driven through
    /// a reset engine is bit-identical to one driven through a freshly
    /// allocated engine — the invariant a reused `SimContext` relies on
    /// (enforced by `workload/tests/serving_equiv.rs`).
    pub fn reset(&mut self, spec: &GpuSpec) {
        self.spec = spec.clone();
        self.now = 0.0;
        self.next_id = 1;
        self.ctxs.clear();
        self.meta.clear();
        self.per_channel.clear();
        self.rates.get_mut().clear();
        self.rates_stale.set(false);
        self.next_event.set(Some(None));
        self.events = 0;
        self.clock_scale = 1.0;
    }

    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Current virtual time in µs.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Kernels currently resident on the GPU.
    pub fn running_count(&self) -> usize {
        self.ctxs.len()
    }

    /// Completion + preemption events delivered since construction.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    fn index_of(&self, id: LaunchId) -> Option<usize> {
        self.meta.iter().position(|r| r.id == id)
    }

    /// Makes `rates` describe the current running set (no-op when
    /// fresh), evaluating every resident kernel from scratch.
    fn ensure_rates(&self) {
        if self.rates_stale.get() {
            compute_rates_into(
                &self.spec,
                &self.ctxs,
                &self.per_channel,
                &mut self.rates.borrow_mut(),
            );
            self.rates_stale.set(false);
        }
    }

    /// Launches a kernel; work equals its exclusive-resource runtime.
    /// Derives the kernel's invariant block — prefer
    /// [`Engine::launch_prepared`] for descriptors launched repeatedly.
    pub fn launch(&mut self, kernel: &KernelDesc, cfg: &LaunchConfig) -> LaunchId {
        let ctx = RunningCtx::new(
            &self.spec,
            kernel,
            cfg.mask,
            cfg.channels,
            cfg.thread_fraction,
        );
        self.launch_ctx(ctx, cfg)
    }

    /// Launches a prepared kernel: no invariant derivation and no
    /// reference count taken — the serving loop's steady-state path.
    pub fn launch_prepared(&mut self, kernel: &PreparedKernel, cfg: &LaunchConfig) -> LaunchId {
        let ctx = RunningCtx::from_prepared(kernel, cfg.mask, cfg.channels, cfg.thread_fraction);
        self.launch_ctx(ctx, cfg)
    }

    fn launch_ctx(&mut self, ctx: RunningCtx, cfg: &LaunchConfig) -> LaunchId {
        assert!(!cfg.mask.is_empty(), "kernel launched with empty TPC mask");
        let id = LaunchId(self.next_id);
        self.next_id += 1;
        let total = ctx.perf.isolated_us;
        self.per_channel.push(per_channel_demand(&ctx));
        self.ctxs.push(ctx);
        self.meta.push(RunningMeta {
            id,
            remaining: total,
            total,
            poll_us: cfg.preempt_poll_us,
            evicting: None,
        });
        self.rates_stale.set(true);
        self.invalidate_next_event();
        id
    }

    /// Writes the eviction flag for a running preemptible kernel (§7.1).
    /// The kernel observes it at its next poll and terminates; progress is
    /// discarded (reset-based preemption). Returns `false` if the kernel is
    /// not running or not preemptible.
    pub fn raise_eviction_flag(&mut self, id: LaunchId) -> bool {
        let Some(i) = self.index_of(id) else {
            return false;
        };
        let r = &mut self.meta[i];
        match r.poll_us {
            Some(poll) => {
                if r.evicting.is_none() {
                    r.evicting = Some(self.now + poll);
                    self.invalidate_next_event();
                }
                true
            }
            None => false,
        }
    }

    /// Removes a running kernel without delivering an event — the crash
    /// path: a replica that dies mid-kernel never observes a completion
    /// or a preemption, its work simply vanishes. Progress up to the
    /// current clock has already been integrated; the remaining work is
    /// discarded and the event counter is untouched. Returns `false` if
    /// the kernel is not running.
    pub fn cancel(&mut self, id: LaunchId) -> bool {
        let Some(idx) = self.index_of(id) else {
            return false;
        };
        self.remove_kernel(idx);
        true
    }

    /// Current global clock multiplier (1.0 = nominal).
    pub fn clock_scale(&self) -> f64 {
        self.clock_scale
    }

    /// Sets the global clock multiplier (thermal throttling / transient
    /// stalls). Callers must have integrated progress up to the instant
    /// the scale changes (the fleet clock quiesces replicas to the fault
    /// time first, then [`advance_idle`](Engine::advance_idle)s); from
    /// then on every kernel's progress accrues at `rate × scale`.
    pub fn set_clock_scale(&mut self, scale: f64) {
        assert!(
            scale.is_finite() && scale > 0.0,
            "clock scale must be positive and finite"
        );
        if self.clock_scale != scale {
            self.clock_scale = scale;
            self.invalidate_next_event();
        }
    }

    /// Re-masks a running kernel (the engine models SGDRC's relaunch-with-
    /// new-mask as an in-place update; the relaunch latency is folded into
    /// the preemption poll delay). Rates refresh at the next read.
    pub fn remask(&mut self, id: LaunchId, mask: TpcMask, channels: ChannelSet) -> bool {
        let Some(i) = self.index_of(id) else {
            return false;
        };
        let ctx = &mut self.ctxs[i];
        if ctx.mask == mask && ctx.channels == channels {
            return true;
        }
        ctx.mask = mask;
        ctx.channels = channels;
        self.per_channel[i] = per_channel_demand(ctx);
        self.rates_stale.set(true);
        self.invalidate_next_event();
        true
    }

    /// Drops the kernel at `idx` from the running set; returns its
    /// bookkeeping.
    fn remove_kernel(&mut self, idx: usize) -> RunningMeta {
        self.ctxs.remove(idx);
        self.per_channel.remove(idx);
        self.rates_stale.set(true);
        self.invalidate_next_event();
        self.meta.remove(idx)
    }

    fn invalidate_next_event(&self) {
        self.next_event.set(None);
    }

    /// Time of the next event, if any kernel is resident. Memoized: the
    /// event loop queries this several times between events, and absolute
    /// finish times do not change under [`Engine::advance_idle`]. Debug
    /// builds check every cached answer against a fresh computation.
    pub fn next_event_at(&self) -> Option<f64> {
        if let Some(cached) = self.next_event.get() {
            debug_assert!(
                match (cached, self.compute_next_event()) {
                    (Some(c), Some(f)) => (c - f).abs() <= 1e-9 * f.abs().max(1.0),
                    (c, f) => c == f,
                },
                "memoized next event {cached:?} diverged from a fresh computation {:?}",
                self.compute_next_event()
            );
            return cached;
        }
        let computed = self.compute_next_event();
        self.next_event.set(Some(computed));
        computed
    }

    /// The earliest finish or eviction deadline over the running set.
    fn compute_next_event(&self) -> Option<f64> {
        self.ensure_rates();
        let rates = self.rates.borrow();
        self.meta
            .iter()
            .zip(rates.iter())
            .map(|(r, rate)| {
                let finish =
                    self.now + r.remaining / (rate.relative_speed * self.clock_scale).max(1e-9);
                match r.evicting {
                    Some(evict) => finish.min(evict),
                    None => finish,
                }
            })
            .fold(None, |acc: Option<f64>, t| {
                Some(acc.map_or(t, |a| a.min(t)))
            })
    }

    /// Advances virtual time to the next completion/preemption and returns
    /// it; `None` when the GPU is idle.
    pub fn step(&mut self) -> Option<EngineEvent> {
        let target = self.next_event_at()?;
        self.advance_to(target);
        // Find the kernel that finished or got evicted (remaining ≤ ε or
        // eviction deadline reached).
        let mut fired: Option<(usize, bool)> = None;
        for (i, r) in self.meta.iter().enumerate() {
            if let Some(evict) = r.evicting {
                if evict <= self.now + 1e-9 {
                    fired = Some((i, true));
                    break;
                }
            }
            if r.remaining <= 1e-6 {
                fired = Some((i, false));
                break;
            }
        }
        let (idx, preempted) = fired.expect("an event was due");
        let r = self.remove_kernel(idx);
        self.events += 1;
        Some(if preempted {
            EngineEvent::Preempted {
                id: r.id,
                at_us: self.now,
            }
        } else {
            EngineEvent::Finished {
                id: r.id,
                at_us: self.now,
            }
        })
    }

    /// Advances time to `t` (≤ next event), integrating progress. Keeps
    /// the memoized next-event time valid: integration shifts `now` and
    /// `remaining` together, leaving absolute finish times unchanged.
    fn advance_to(&mut self, t: f64) {
        let dt = t - self.now;
        debug_assert!(dt >= -1e-9, "time went backwards");
        if dt > 0.0 {
            self.ensure_rates();
            let rates = self.rates.borrow();
            for (r, rate) in self.meta.iter_mut().zip(rates.iter()) {
                r.remaining -= dt * rate.relative_speed * self.clock_scale;
                if r.remaining < 0.0 {
                    r.remaining = 0.0;
                }
            }
            drop(rates);
            self.now = t;
        }
    }

    /// Advances to `t` without expecting events (panics if one was due
    /// strictly before `t`). Used to model request arrivals while idle.
    pub fn advance_idle(&mut self, t: f64) {
        let next = self.next_event_at();
        debug_assert!(
            next.is_none_or(|e| e >= t - 1e-9),
            "advance_idle skipped an engine event"
        );
        if t > self.now {
            self.advance_to(t.min(next.unwrap_or(t)));
            self.now = t;
        }
    }

    /// Progress fraction of a running kernel (1.0 = done), if running.
    pub fn progress(&self, id: LaunchId) -> Option<f64> {
        self.index_of(id)
            .map(|i| 1.0 - self.meta[i].remaining / self.meta[i].total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contention::reference;
    use dnn::kernel::{KernelDesc, KernelKind};
    use gpu_spec::GpuModel;

    fn kernel(flops: f64, bytes: f64) -> KernelDesc {
        KernelDesc {
            id: 1,
            name: "k".into(),
            kind: KernelKind::Gemm,
            flops,
            bytes,
            thread_blocks: 512,
            persistent_threads: true,
            colored: false,
            extra_registers: 0,
            tensor_refs: vec![],
        }
    }

    fn engine() -> Engine {
        Engine::new(GpuModel::RtxA2000.spec())
    }

    #[test]
    fn single_kernel_runs_for_its_isolated_time() {
        let mut e = engine();
        let k = kernel(2e9, 1e7);
        let expect = dnn::perf::isolated_runtime_us(&k, e.spec());
        let id = e.launch(&k, &LaunchConfig::exclusive(e.spec()));
        match e.step() {
            Some(EngineEvent::Finished { id: fid, at_us }) => {
                assert_eq!(fid, id);
                assert!((at_us - expect).abs() / expect < 1e-6);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(e.step().is_none());
        assert_eq!(e.events_processed(), 1);
    }

    #[test]
    fn two_disjoint_kernels_do_not_interfere() {
        let mut e = engine();
        let k = kernel(2e9, 1e7);
        let expect = dnn::perf::isolated_runtime_us(&k, e.spec());
        let spec = e.spec().clone();
        let a = LaunchConfig {
            mask: TpcMask::first(6),
            channels: ChannelSet::from_channels(&[0, 1, 2]),
            thread_fraction: 1.0,
            preempt_poll_us: None,
        };
        let b = LaunchConfig {
            mask: TpcMask::range(6, 6),
            channels: ChannelSet::from_channels(&[3, 4, 5]),
            thread_fraction: 1.0,
            preempt_poll_us: None,
        };
        e.launch(&k, &a);
        e.launch(&k, &b);
        let _ = spec;
        let t1 = match e.step().unwrap() {
            EngineEvent::Finished { at_us, .. } => at_us,
            other => panic!("{other:?}"),
        };
        let t2 = match e.step().unwrap() {
            EngineEvent::Finished { at_us, .. } => at_us,
            other => panic!("{other:?}"),
        };
        // Both limited by block parallelism (512 blocks saturate >6 TPCs),
        // so each takes longer than exclusive, but they finish together.
        assert!(t1 >= expect);
        assert!((t2 - t1) / t1 < 0.05, "symmetric kernels finish together");
    }

    #[test]
    fn sharing_slows_both_down() {
        let mut e = engine();
        let k = kernel(2e9, 1e7);
        let expect = dnn::perf::isolated_runtime_us(&k, e.spec());
        let cfg = LaunchConfig::exclusive(e.spec());
        e.launch(&k, &cfg);
        e.launch(&k, &cfg);
        let t = match e.step().unwrap() {
            EngineEvent::Finished { at_us, .. } => at_us,
            other => panic!("{other:?}"),
        };
        // Two identical kernels on shared SMs: > 2× exclusive (compute
        // split + intra-SM interference).
        assert!(t > expect * 2.0, "{t} vs {expect}");
    }

    #[test]
    fn eviction_flag_preempts_at_poll_boundary() {
        let mut e = engine();
        let k = kernel(5e9, 1e7); // long kernel
        let cfg = LaunchConfig {
            preempt_poll_us: Some(3.0),
            ..LaunchConfig::exclusive(e.spec())
        };
        let id = e.launch(&k, &cfg);
        // Let it run a little, then evict.
        let evict_time = 50.0;
        // No event before 50µs (kernel runs for hundreds of µs).
        e.advance_idle(evict_time);
        assert!(e.raise_eviction_flag(id));
        match e.step().unwrap() {
            EngineEvent::Preempted { id: pid, at_us } => {
                assert_eq!(pid, id);
                assert!((at_us - (evict_time + 3.0)).abs() < 1e-6);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(e.running_count(), 0);
    }

    #[test]
    fn ls_kernels_are_not_preemptible() {
        let mut e = engine();
        let k = kernel(2e9, 1e7);
        let id = e.launch(&k, &LaunchConfig::exclusive(e.spec()));
        assert!(!e.raise_eviction_flag(id));
    }

    #[test]
    fn remask_changes_rates() {
        let mut e = engine();
        let k = kernel(5e9, 1e7);
        let id = e.launch(&k, &LaunchConfig::exclusive(e.spec()));
        let full_finish = e.next_event_at().unwrap();
        e.remask(id, TpcMask::first(2), ChannelSet::all(e.spec()));
        let masked_finish = e.next_event_at().unwrap();
        assert!(masked_finish > full_finish * 2.0);
    }

    #[test]
    fn progress_is_monotonic() {
        let mut e = engine();
        let k = kernel(5e9, 1e7);
        let id = e.launch(&k, &LaunchConfig::exclusive(e.spec()));
        let finish = e.next_event_at().unwrap();
        e.advance_idle(finish * 0.25);
        let p1 = e.progress(id).unwrap();
        e.advance_idle(finish * 0.5);
        let p2 = e.progress(id).unwrap();
        assert!(p1 > 0.2 && p1 < 0.3, "{p1}");
        assert!(p2 > p1);
    }

    #[test]
    fn work_conservation_under_preemption_and_relaunch() {
        // Preempting and relaunching a BE kernel discards progress: the
        // total occupied time exceeds one exclusive run.
        let mut e = engine();
        let k = kernel(5e9, 1e7);
        let exclusive = dnn::perf::isolated_runtime_us(&k, e.spec());
        let cfg = LaunchConfig {
            preempt_poll_us: Some(2.0),
            ..LaunchConfig::exclusive(e.spec())
        };
        let id = e.launch(&k, &cfg);
        e.advance_idle(exclusive * 0.6);
        e.raise_eviction_flag(id);
        match e.step().unwrap() {
            EngineEvent::Preempted { .. } => {}
            other => panic!("{other:?}"),
        }
        // Relaunch from scratch.
        let t_relaunch = e.now();
        e.launch(&k, &cfg);
        match e.step().unwrap() {
            EngineEvent::Finished { at_us, .. } => {
                assert!((at_us - t_relaunch - exclusive).abs() / exclusive < 1e-6);
                assert!(at_us > exclusive * 1.5, "progress was discarded");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cancel_removes_a_kernel_without_an_event() {
        let mut e = engine();
        let k = kernel(5e9, 1e7);
        let a = e.launch(&k, &LaunchConfig::exclusive(e.spec()));
        let b = e.launch(
            &k,
            &LaunchConfig {
                preempt_poll_us: Some(2.0),
                ..LaunchConfig::exclusive(e.spec())
            },
        );
        e.advance_idle(e.next_event_at().unwrap() * 0.25);
        // Cancel both — even one with a raised eviction flag: the pending
        // preemption must die with the launch, not fire later.
        e.raise_eviction_flag(b);
        assert!(e.cancel(a));
        assert!(e.cancel(b));
        assert!(!e.cancel(a), "double-cancel reports not running");
        assert_eq!(e.running_count(), 0);
        assert!(e.next_event_at().is_none());
        assert!(e.step().is_none());
        assert_eq!(e.events_processed(), 0, "cancel is not an event");
        // The engine keeps serving fresh launches afterwards.
        let expect = dnn::perf::isolated_runtime_us(&k, e.spec());
        let t0 = e.now();
        e.launch(&k, &LaunchConfig::exclusive(e.spec()));
        match e.step().unwrap() {
            EngineEvent::Finished { at_us, .. } => {
                assert!((at_us - t0 - expect).abs() / expect < 1e-6);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn clock_scale_slows_and_restores_progress() {
        let mut e = engine();
        let k = kernel(5e9, 1e7);
        let expect = dnn::perf::isolated_runtime_us(&k, e.spec());
        e.launch(&k, &LaunchConfig::exclusive(e.spec()));
        let nominal_finish = e.next_event_at().unwrap();
        assert!((nominal_finish - expect).abs() / expect < 1e-6);
        // Run the first half at nominal speed, then throttle to 0.5×:
        // the remaining half takes twice as long.
        e.advance_idle(expect * 0.5);
        e.set_clock_scale(0.5);
        assert_eq!(e.clock_scale(), 0.5);
        let throttled_finish = e.next_event_at().unwrap();
        assert!(
            (throttled_finish - expect * 1.5).abs() / expect < 1e-6,
            "throttled finish {throttled_finish} vs {}",
            expect * 1.5
        );
        // Restore at 75% wall-time (= 62.5% progress): the rest finishes
        // at nominal rate again.
        e.advance_idle(expect * 0.75);
        e.set_clock_scale(1.0);
        let restored_finish = e.next_event_at().unwrap();
        assert!(
            (restored_finish - expect * 1.125).abs() / expect < 1e-6,
            "restored finish {restored_finish} vs {}",
            expect * 1.125
        );
        match e.step().unwrap() {
            EngineEvent::Finished { at_us, .. } => {
                assert!((at_us - restored_finish).abs() / expect < 1e-9);
            }
            other => panic!("{other:?}"),
        }
    }

    /// Test-local oracle: integrates `(id, kernel, remaining work)` from
    /// `*now` to `until` under piecewise-constant rates from the
    /// reference contention model, recording each completion as
    /// `(id, time)`.
    fn integrate_reference(
        spec: &GpuSpec,
        running: &mut Vec<(LaunchId, reference::Ctx, f64)>,
        now: &mut f64,
        until: f64,
        done: &mut Vec<(LaunchId, f64)>,
    ) {
        while !running.is_empty() {
            let ctxs: Vec<reference::Ctx> = running.iter().map(|(_, c, _)| c.clone()).collect();
            let rates = reference::compute_rates(spec, &ctxs);
            let (first, to_finish) = running
                .iter()
                .zip(&rates)
                .map(|((_, _, remaining), r)| remaining / r.relative_speed)
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty");
            let dt = to_finish.min(until - *now);
            for ((_, _, remaining), r) in running.iter_mut().zip(&rates) {
                *remaining -= dt * r.relative_speed;
            }
            *now += dt;
            if dt < to_finish {
                return;
            }
            let (id, _, _) = running.remove(first);
            done.push((id, *now));
        }
    }

    #[test]
    fn engine_events_match_reference_integration() {
        // Launch two overlapping kernels, run a while, then remask the
        // second: every completion must carry the same id at the same
        // (±1e-9-relative) time as the reference integration. The second
        // kernel is memory-bound, so its channel change moves its finish
        // too, not only its TPC change.
        let mut e = engine();
        let spec = e.spec().clone();
        let launches = [
            (
                kernel(3e9, 2e7),
                TpcMask::first(8),
                ChannelSet::all(&spec),
                None,
            ),
            (
                kernel(8e9, 3e9),
                TpcMask::range(4, 9),
                ChannelSet::from_channels(&[0, 1, 2]),
                Some(2.0),
            ),
        ];
        let mut running = Vec::new();
        for (k, mask, channels, poll) in launches {
            let cfg = LaunchConfig {
                mask,
                channels,
                thread_fraction: 1.0,
                preempt_poll_us: poll,
            };
            let id = e.launch(&k, &cfg);
            let work = dnn::perf::isolated_runtime_us(&k, &spec);
            let ctx = reference::Ctx {
                kernel: k,
                mask,
                channels,
                thread_fraction: 1.0,
            };
            running.push((id, ctx, work));
        }
        let remask_at = 0.5 * e.next_event_at().expect("two kernels resident");
        e.advance_idle(remask_at);
        let (mask, channels) = (TpcMask::range(8, 5), ChannelSet::from_channels(&[0, 1]));
        assert!(e.remask(running[1].0, mask, channels));
        let mut events = Vec::new();
        while let Some(ev) = e.step() {
            match ev {
                EngineEvent::Finished { id, at_us } => events.push((id, at_us)),
                other => panic!("no eviction flag was raised: {other:?}"),
            }
        }

        let (mut now, mut expected) = (0.0, Vec::new());
        integrate_reference(&spec, &mut running, &mut now, remask_at, &mut expected);
        assert!(expected.is_empty(), "the remask precedes every completion");
        running[1].1.mask = mask;
        running[1].1.channels = channels;
        integrate_reference(&spec, &mut running, &mut now, f64::INFINITY, &mut expected);

        assert_eq!(events.len(), 2);
        assert_eq!(events.len(), expected.len());
        for (&(id, at), &(ref_id, ref_at)) in events.iter().zip(&expected) {
            assert_eq!(id, ref_id);
            assert!((at - ref_at).abs() / ref_at < 1e-9, "{at} vs {ref_at}");
        }
    }
}
