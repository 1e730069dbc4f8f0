//! The contention model: execution rates of concurrently running kernels.
//!
//! Reproduces the resource-conflict behaviour the paper characterizes:
//!
//! * **Intra-SM conflicts** (Fig. 3a): kernels whose TPC masks overlap slow
//!   each other down; L1-thrashing co-runners hurt more than compute
//!   co-runners.
//! * **Inter-SM / VRAM channel conflicts** (Fig. 3b): kernels whose channel
//!   sets overlap contend for per-channel bandwidth, L2 slices, MSHRs and
//!   DRAM banks; an overlapping thrasher inflates a victim's memory time
//!   even when bandwidth is nominally sufficient.
//! * **MPS thread-level partitioning**: thread fractions scale compute
//!   throughput but do *not* remove intra-SM or channel conflicts (§2.2,
//!   §9.3).
//!
//! The engine integrates kernel progress with piecewise-constant rates:
//! whenever the running set changes, every kernel's instantaneous duration
//! is re-evaluated.
//!
//! ## Hot-path design
//!
//! Rate evaluation runs on every launch/finish/remask event, so the
//! implementation is allocation-free and re-derives nothing:
//!
//! * each [`RunningCtx`] is a `Copy` value: masks, thread fraction and
//!   a [`KernelPerfInvariants`] block precomputed once per kernel — the
//!   model never touches `perf::` derivations or the descriptor, so a
//!   launch or a finish moves no reference count;
//! * aggregates (per-channel demand, per-TPC occupancy) live in
//!   fixed-size arrays inside a caller-owned [`RateState`], and mask
//!   walks iterate set bits only (`trailing_zeros`), never all slots;
//! * the per-kernel pairwise sums live in one record per resident
//!   kernel, together with the kernel's cached per-channel demand, so a
//!   launch pushes one record and a finish removes one;
//! * when a single kernel is re-masked, [`RateState::update_one`]
//!   adjusts the aggregates and pairwise sums incrementally instead of
//!   recomputing the O(n²) interference terms from scratch.
//!
//! The original straight-line evaluation survives in
//! [`reference`](mod@reference) as this layer's one oracle: a unit test,
//! the exec-sim proptests and the engine's event-sequence test compare
//! the optimized paths against it.

use crate::types::{ChannelSet, TpcMask};
use dnn::kernel::KernelDesc;
use dnn::perf::{KernelPerfInvariants, ResourceCtx};
use gpu_spec::GpuSpec;
use std::sync::Arc;

/// Upper bound on `GpuSpec::num_tpcs` ([`TpcMask`] is a `u32`).
pub const MAX_TPCS: usize = 32;
/// Upper bound on `GpuSpec::num_channels` ([`ChannelSet`] is a `u16`).
pub const MAX_CHANNELS: usize = 16;

/// A kernel as the contention model sees it: its resources plus the
/// performance invariants derived from its descriptor. It holds no
/// descriptor, so it is `Copy` and a launch or a finish costs no
/// reference-count traffic; the [`reference`](mod@reference) oracle
/// takes the descriptor separately.
#[derive(Debug, Clone, Copy)]
pub struct RunningCtx {
    pub mask: TpcMask,
    pub channels: ChannelSet,
    /// MPS active-thread fraction (1.0 = full SMs).
    pub thread_fraction: f64,
    /// Per-kernel invariants precomputed at construction.
    pub perf: KernelPerfInvariants,
}

impl RunningCtx {
    /// Builds a running-kernel context, deriving the per-kernel
    /// invariant block from `kernel` once.
    pub fn new(
        spec: &GpuSpec,
        kernel: &KernelDesc,
        mask: TpcMask,
        channels: ChannelSet,
        thread_fraction: f64,
    ) -> Self {
        Self {
            mask,
            channels,
            thread_fraction,
            perf: KernelPerfInvariants::new(kernel, spec),
        }
    }

    /// Builds the context from an already-prepared kernel: no invariant
    /// derivation and no reference count taken — the serving loop's
    /// steady-state path.
    pub fn from_prepared(
        prepared: &PreparedKernel,
        mask: TpcMask,
        channels: ChannelSet,
        thread_fraction: f64,
    ) -> Self {
        Self {
            mask,
            channels,
            thread_fraction,
            perf: prepared.perf,
        }
    }

    /// DRAM bandwidth demand at full resources, GB/s.
    pub fn bw_demand_gbps(&self) -> f64 {
        self.perf.bw_demand_gbps
    }

    /// How aggressively this kernel thrashes shared L2/MSHR resources
    /// (0..1): its bandwidth demand relative to the whole GPU.
    pub fn thrash_intensity(&self) -> f64 {
        self.perf.thrash_intensity
    }
}

/// A kernel descriptor bundled with its precomputed performance
/// invariants for one GPU — ready to launch over and over with zero
/// per-launch derivation. Deployments prepare every model kernel once.
#[derive(Debug, Clone)]
pub struct PreparedKernel {
    pub desc: Arc<KernelDesc>,
    pub perf: KernelPerfInvariants,
}

impl PreparedKernel {
    pub fn new(spec: &GpuSpec, kernel: impl Into<Arc<KernelDesc>>) -> Self {
        let desc = kernel.into();
        let perf = KernelPerfInvariants::new(&desc, spec);
        Self { desc, perf }
    }
}

/// Per-kernel instantaneous execution state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelRate {
    /// Wall-clock duration the kernel would need under current conditions
    /// (µs, including launch overhead).
    pub duration_us: f64,
    /// Progress per wall-µs, in units of "intrinsic work" where the
    /// kernel's total work is its current-conditions duration at rate 1.
    /// Defined as `exclusive_duration / current_duration`.
    pub relative_speed: f64,
}

/// Caller-owned rate-computation state: fixed-size resource aggregates
/// plus one [`KernelSums`] record per running kernel, parallel to the
/// running set. Reusing one `RateState` across events makes rate
/// evaluation allocation-free (the record `Vec` reaches steady-state
/// capacity after the first few events) and enables the incremental
/// [`add_last`](RateState::add_last) / [`remove_at`](RateState::remove_at)
/// / [`update_one`](RateState::update_one) paths.
///
/// The incremental paths apply every `+=`/`-=` in a fixed order, and the
/// aggregates carry the rounding residue of their add/remove history, so
/// the state is bit-reproducible for one event sequence but not
/// bit-identical to a fresh [`recompute_full`](RateState::recompute_full)
/// (it agrees within [`RATE_EQUIVALENCE_TOL`]).
#[derive(Debug, Clone, Default)]
pub struct RateState {
    /// Aggregate bandwidth demand per VRAM channel, GB/s.
    channel_demand: [f64; MAX_CHANNELS],
    /// Sum of resident thread fractions per TPC.
    tpc_occupancy: [f64; MAX_TPCS],
    /// One record per running kernel, parallel to the running set.
    kernels: Vec<KernelSums>,
}

/// What [`RateState`] keeps about one running kernel: the pairwise
/// interference sums against it, the uniformity classification of its
/// co-runners, and its cached per-channel demand.
#[derive(Debug, Clone, Copy, Default)]
struct KernelSums {
    /// Σ of intra-SM interference terms against this kernel
    /// (`intra_sm_factor = 1 + intra_sum`).
    intra_sum: f64,
    /// Σ of L2/MSHR/bank conflict terms against this kernel
    /// (`l2_penalty = 1 + l2_sum`).
    l2_sum: f64,
    /// Number of co-runners whose TPC mask *partially* overlaps this
    /// kernel's (neither disjoint nor a superset). While zero, the
    /// kernel's occupancy is uniform across its mask and
    /// [`emit_rates`](RateState::emit_rates) replaces the per-TPC loop
    /// with a popcount — the steady state for tidal partitioning
    /// (disjoint masks) and full-GPU sharing (mutual supersets) alike.
    tpc_partial: u32,
    /// As `tpc_partial`, for VRAM channel sets.
    chan_partial: u32,
    /// Summed thread fraction of co-runners whose mask covers this
    /// kernel's entirely (valid while `tpc_partial` is 0).
    tpc_cover_fraction: f64,
    /// Summed per-channel bandwidth demand of co-runners whose channel
    /// set covers this kernel's entirely (valid while `chan_partial`
    /// is 0).
    chan_cover_demand: f64,
    /// This kernel's [`per_channel_demand`], set at launch and
    /// recomputed when [`RateState::update_one`] changes its channel
    /// set. Every read of the demand goes through this one value, so the
    /// aggregates' retraction cancels their addition bit for bit.
    per_channel: f64,
}

impl KernelSums {
    /// A kernel's record before any co-runner is classified against it.
    fn new(r: &RunningCtx) -> Self {
        Self {
            per_channel: per_channel_demand(r),
            ..Self::default()
        }
    }

    /// Adds (`sign = 1.0`) or retracts (`sign = -1.0`) the uniformity
    /// classification of co-runner `other` (whose per-channel demand is
    /// `other_pcd`) from this record, which belongs to `victim`.
    #[inline]
    fn classify(&mut self, victim: &RunningCtx, other: &RunningCtx, other_pcd: f64, sign: f64) {
        let inter = victim.mask.0 & other.mask.0;
        if inter != 0 {
            if inter == victim.mask.0 {
                self.tpc_cover_fraction += sign * other.thread_fraction;
            } else if sign > 0.0 {
                self.tpc_partial += 1;
            } else {
                self.tpc_partial -= 1;
            }
        }
        let cinter = victim.channels.0 & other.channels.0;
        if cinter != 0 {
            if cinter == victim.channels.0 {
                self.chan_cover_demand += sign * other_pcd;
            } else if sign > 0.0 {
                self.chan_partial += 1;
            } else {
                self.chan_partial -= 1;
            }
        }
    }
}

/// Bandwidth demand a kernel places on each channel of its set, GB/s.
/// Evaluated once per launch or channel change; [`KernelSums`] caches it.
#[inline]
fn per_channel_demand(r: &RunningCtx) -> f64 {
    r.perf.bw_demand_gbps / r.channels.count().max(1) as f64
}

/// Intra-SM interference inflicted *on* `victim` *by* `other` (Fig. 3a).
#[inline]
fn intra_term(spec: &GpuSpec, victim: &RunningCtx, other: &RunningCtx) -> f64 {
    if !victim.mask.overlaps(other.mask) {
        return 0.0;
    }
    let cp = &spec.contention;
    let overlap_frac =
        victim.mask.intersect(other.mask).count() as f64 / victim.mask.count().max(1) as f64;
    // L1-heavy co-runners interfere more than compute co-runners.
    let l1ness = other.perf.memory_instr_share;
    let per_kernel = cp.intra_sm_compute + (cp.intra_sm_l1 - cp.intra_sm_compute) * l1ness;
    per_kernel * overlap_frac * other.thread_fraction
}

/// L2/MSHR/bank conflict penalty inflicted *on* `victim` *by* `other`
/// through overlapping channel sets (Fig. 3b).
#[inline]
fn l2_term(spec: &GpuSpec, victim: &RunningCtx, other: &RunningCtx) -> f64 {
    let shared = victim.channels.overlap(other.channels) as f64;
    if shared == 0.0 {
        return 0.0;
    }
    let cp = &spec.contention;
    let frac = shared / victim.channels.count().max(1) as f64;
    (cp.l2_overlap_penalty + cp.bank_serialization) * frac * other.perf.thrash_intensity
}

impl RateState {
    /// Returns the state to its post-construction condition while
    /// retaining the record buffer's capacity — a reused `SimContext`
    /// resets one `RateState` per run instead of allocating a fresh one.
    pub fn reset(&mut self) {
        self.channel_demand = [0.0; MAX_CHANNELS];
        self.tpc_occupancy = [0.0; MAX_TPCS];
        self.kernels.clear();
    }

    /// Full recomputation of aggregates, pairwise sums and rates.
    /// Appends one [`KernelRate`] per running kernel to `out` (cleared
    /// first); no allocation once `out` and the records reach capacity.
    pub fn recompute_full(
        &mut self,
        spec: &GpuSpec,
        running: &[RunningCtx],
        out: &mut Vec<KernelRate>,
    ) {
        self.channel_demand = [0.0; MAX_CHANNELS];
        self.tpc_occupancy = [0.0; MAX_TPCS];
        self.kernels.clear();
        for r in running {
            let rec = KernelSums::new(r);
            self.add_aggregates(r, rec.per_channel);
            self.kernels.push(rec);
        }
        for (i, r) in running.iter().enumerate() {
            let mut rec = self.kernels[i];
            for (j, o) in running.iter().enumerate() {
                if i != j {
                    rec.intra_sum += intra_term(spec, r, o);
                    rec.l2_sum += l2_term(spec, r, o);
                    rec.classify(r, o, self.kernels[j].per_channel, 1.0);
                }
            }
            self.kernels[i] = rec;
        }
        self.emit_rates(spec, running, out);
    }

    /// Incremental update after kernel `i` changed its TPC mask and/or
    /// channel set in place (everything else — the running set, every
    /// kernel's invariants, every thread fraction — unchanged). Adjusts
    /// the aggregates and the pairwise sums by delta instead of
    /// re-walking all O(n²) kernel pairs, then re-emits the rates.
    ///
    /// `running[i]` must already hold the *new* mask/channels;
    /// `old_mask`/`old_channels` are the values being replaced.
    pub fn update_one(
        &mut self,
        spec: &GpuSpec,
        running: &[RunningCtx],
        i: usize,
        old_mask: TpcMask,
        old_channels: ChannelSet,
        out: &mut Vec<KernelRate>,
    ) {
        debug_assert_eq!(
            self.kernels.len(),
            running.len(),
            "state tracks this running set"
        );
        let changed = &running[i];
        let old = RunningCtx {
            mask: old_mask,
            channels: old_channels,
            ..*changed
        };
        let old_pcd = self.kernels[i].per_channel;
        // Kernel `i`'s own record is rebuilt from scratch (its mask /
        // channel set — the victim side of every comparison — changed),
        // starting with its per-channel demand.
        let mut rec_i = KernelSums::new(changed);
        // Resource aggregates: retract the old contribution, add the new.
        self.remove_aggregates(&old, old_pcd);
        self.add_aggregates(changed, rec_i.per_channel);
        // Pairwise sums: only terms involving kernel `i` change.
        for (j, o) in running.iter().enumerate() {
            if j == i {
                continue;
            }
            let rec = &mut self.kernels[j];
            rec.intra_sum += intra_term(spec, o, changed) - intra_term(spec, o, &old);
            rec.l2_sum += l2_term(spec, o, changed) - l2_term(spec, o, &old);
            rec_i.intra_sum += intra_term(spec, changed, o);
            rec_i.l2_sum += l2_term(spec, changed, o);
            rec.classify(o, &old, old_pcd, -1.0);
            rec.classify(o, changed, rec_i.per_channel, 1.0);
            rec_i.classify(changed, o, rec.per_channel, 1.0);
        }
        self.kernels[i] = rec_i;
        self.emit_rates(spec, running, out);
    }

    /// Incremental update after a kernel was appended to the running set
    /// (`running` already ends with it): adds its aggregates and the
    /// pairwise terms it exchanges with every incumbent — O(n) instead
    /// of the full O(n²) rebuild. Rates are *not* re-emitted; call
    /// [`RateState::emit_rates`] when they're next read.
    pub fn add_last(&mut self, spec: &GpuSpec, running: &[RunningCtx]) {
        debug_assert_eq!(
            self.kernels.len() + 1,
            running.len(),
            "state tracks the pre-launch running set"
        );
        let i = running.len() - 1;
        let new = &running[i];
        let mut rec_i = KernelSums::new(new);
        self.add_aggregates(new, rec_i.per_channel);
        for (rec, o) in self.kernels.iter_mut().zip(&running[..i]) {
            rec.intra_sum += intra_term(spec, o, new);
            rec.l2_sum += l2_term(spec, o, new);
            rec_i.intra_sum += intra_term(spec, new, o);
            rec_i.l2_sum += l2_term(spec, new, o);
            rec.classify(o, new, rec_i.per_channel, 1.0);
            rec_i.classify(new, o, rec.per_channel, 1.0);
        }
        self.kernels.push(rec_i);
    }

    /// Incremental update after the kernel previously at `idx` left the
    /// running set (`running` no longer contains it; order of the rest
    /// preserved): retracts its aggregates and pairwise terms. Rates are
    /// *not* re-emitted; call [`RateState::emit_rates`] when read.
    pub fn remove_at(
        &mut self,
        spec: &GpuSpec,
        running: &[RunningCtx],
        idx: usize,
        removed: &RunningCtx,
    ) {
        debug_assert_eq!(
            self.kernels.len(),
            running.len() + 1,
            "state tracks the pre-removal running set"
        );
        let gone = self.kernels.remove(idx);
        self.remove_aggregates(removed, gone.per_channel);
        for (rec, o) in self.kernels.iter_mut().zip(running) {
            rec.intra_sum -= intra_term(spec, o, removed);
            rec.l2_sum -= l2_term(spec, o, removed);
            rec.classify(o, removed, gone.per_channel, -1.0);
        }
    }

    /// Adds `r`'s resource use to the aggregates; `per_channel` is its
    /// cached [`per_channel_demand`].
    #[inline]
    fn add_aggregates(&mut self, r: &RunningCtx, per_channel: f64) {
        for c in r.channels.iter_ones() {
            self.channel_demand[c as usize] += per_channel;
        }
        for t in r.mask.iter_ones() {
            self.tpc_occupancy[t as usize] += r.thread_fraction;
        }
    }

    /// Retracts what [`add_aggregates`](Self::add_aggregates) added for
    /// `r`, with the same cached `per_channel`.
    #[inline]
    fn remove_aggregates(&mut self, r: &RunningCtx, per_channel: f64) {
        for c in r.channels.iter_ones() {
            self.channel_demand[c as usize] -= per_channel;
        }
        for t in r.mask.iter_ones() {
            self.tpc_occupancy[t as usize] -= r.thread_fraction;
        }
    }

    /// Evaluates every kernel's rate from the current aggregates/sums.
    pub fn emit_rates(&self, spec: &GpuSpec, running: &[RunningCtx], out: &mut Vec<KernelRate>) {
        out.clear();
        let channel_cap = spec.channel_bandwidth_gbps();
        assert_eq!(
            self.kernels.len(),
            running.len(),
            "state tracks this running set"
        );
        for (r, rec) in running.iter().zip(&self.kernels) {
            // ---- VRAM bandwidth share (Fig. 3b) -----------------------
            // Fraction of the kernel's demand it actually receives. A
            // restricted channel set is captured naturally: the demand
            // concentrates on fewer channels, whose caps bind sooner.
            // When no co-runner's channel set partially overlaps, every
            // channel of the set carries the same aggregate demand and
            // the per-channel walk collapses to one comparison.
            let demand = r.perf.bw_demand_gbps;
            let pcd = rec.per_channel;
            let bw_share = if demand <= 0.0 {
                1.0
            } else if r.channels.is_empty() {
                // No channels granted at all: the per-channel walk sums
                // zero, so the demand-starved floor applies (kept out of
                // the uniform fast path, which would otherwise see "no
                // partial overlap" and report full bandwidth).
                1e-6
            } else if rec.chan_partial == 0 {
                let d = pcd + rec.chan_cover_demand;
                if d <= channel_cap {
                    1.0
                } else {
                    (channel_cap / d).clamp(1e-6, 1.0)
                }
            } else {
                let mut granted = 0.0;
                for c in r.channels.iter_ones() {
                    let d = self.channel_demand[c as usize];
                    granted += if d <= channel_cap {
                        pcd
                    } else {
                        pcd * channel_cap / d
                    };
                }
                (granted * r.perf.inv_bw_demand_gbps).clamp(1e-6, 1.0)
            };
            let l2_penalty = 1.0 + rec.l2_sum;
            let intra = 1.0 + rec.intra_sum;

            // ---- roofline under current conditions --------------------
            // Effective TPCs: fair share of every TPC in the mask. With
            // no partial mask overlap the occupancy is uniform (own
            // fraction + covering co-runners) and the per-TPC walk is a
            // popcount; inside the walk an uncontended TPC (occupancy
            // ≤ 1) contributes the thread fraction directly.
            let eff_tpcs = if rec.tpc_partial == 0 {
                let occupancy = r.thread_fraction + rec.tpc_cover_fraction;
                let share = if occupancy <= 1.0 {
                    r.thread_fraction
                } else {
                    r.thread_fraction / occupancy
                };
                share * r.mask.count() as f64
            } else {
                let mut eff = 0.0;
                for t in r.mask.iter_ones() {
                    let occupancy = self.tpc_occupancy[t as usize];
                    eff += if occupancy <= 1.0 {
                        r.thread_fraction
                    } else {
                        r.thread_fraction / occupancy
                    };
                }
                eff
            };
            let eff_bw_share = bw_share / l2_penalty;
            let ctx = ResourceCtx {
                tpcs: eff_tpcs.max(0.05),
                bw_share: eff_bw_share.clamp(1e-6, 1.0),
                intra_sm_factor: intra,
            };
            let duration = r.perf.runtime_us(ctx);
            out.push(KernelRate {
                duration_us: duration,
                relative_speed: r.perf.isolated_us / duration.max(1e-9),
            });
        }
    }
}

/// Computes each running kernel's instantaneous duration and speed.
///
/// Convenience wrapper that allocates a fresh [`RateState`] and output
/// vector; event loops should own both and call
/// [`RateState::recompute_full`] / [`RateState::update_one`] directly.
pub fn compute_rates(spec: &GpuSpec, running: &[RunningCtx]) -> Vec<KernelRate> {
    let mut state = RateState::default();
    let mut out = Vec::with_capacity(running.len());
    state.recompute_full(spec, running, &mut out);
    out
}

pub mod reference {
    //! The pre-optimization contention model, preserved verbatim.
    //!
    //! This is the seed implementation: per-call `Vec` aggregates,
    //! per-bit loops over every TPC/channel slot, and full `perf::`
    //! re-derivation from the (deep-cloned) kernel descriptor. It is the
    //! *oracle* the optimized [`RateState`](super::RateState) paths are
    //! tested against (unit and property tests, and the engine's
    //! event-sequence test).

    use super::KernelRate;
    use crate::types::{ChannelSet, TpcMask};
    use dnn::kernel::KernelDesc;
    use dnn::perf::{self, ResourceCtx};
    use gpu_spec::GpuSpec;

    /// A running kernel with an owned (deep-cloned) descriptor, exactly
    /// as the seed engine carried it.
    #[derive(Debug, Clone)]
    pub struct Ctx {
        pub kernel: KernelDesc,
        pub mask: TpcMask,
        pub channels: ChannelSet,
        pub thread_fraction: f64,
    }

    impl Ctx {
        /// The seed representation of `r`, a context built from
        /// `kernel` (deep-copied here; [`RunningCtx`](super::RunningCtx)
        /// keeps only the invariants derived from it).
        pub fn from_running(r: &super::RunningCtx, kernel: &KernelDesc) -> Self {
            Self {
                kernel: kernel.clone(),
                mask: r.mask,
                channels: r.channels,
                thread_fraction: r.thread_fraction,
            }
        }

        fn bw_demand_gbps(&self, spec: &GpuSpec) -> f64 {
            let body = perf::memory_time_us(&self.kernel, spec)
                .max(perf::compute_time_us(&self.kernel, spec))
                .max(1e-9);
            self.kernel.bytes / (body * 1e-6) / 1e9
        }

        fn thrash_intensity(&self, spec: &GpuSpec) -> f64 {
            (self.bw_demand_gbps(spec) / spec.mem_bandwidth_gbps).min(1.0)
        }
    }

    /// The seed `compute_rates`, operation for operation.
    #[allow(clippy::needless_range_loop)] // seed-verbatim on purpose
    pub fn compute_rates(spec: &GpuSpec, running: &[Ctx]) -> Vec<KernelRate> {
        let cp = &spec.contention;
        let mut out = Vec::with_capacity(running.len());

        let mut channel_demand = vec![0.0f64; spec.num_channels as usize];
        for r in running {
            let per_channel = r.bw_demand_gbps(spec) / r.channels.count().max(1) as f64;
            for c in 0..spec.num_channels {
                if r.channels.0 & (1 << c) != 0 {
                    channel_demand[c as usize] += per_channel;
                }
            }
        }
        let channel_cap = spec.channel_bandwidth_gbps();

        let mut tpc_occupancy = vec![0.0f64; spec.num_tpcs as usize];
        for r in running {
            for t in 0..spec.num_tpcs {
                if r.mask.0 & (1 << t) != 0 {
                    tpc_occupancy[t as usize] += r.thread_fraction;
                }
            }
        }

        for (i, r) in running.iter().enumerate() {
            let mut intra = 1.0;
            for (j, o) in running.iter().enumerate() {
                if i == j || !r.mask.overlaps(o.mask) {
                    continue;
                }
                let overlap_frac =
                    r.mask.intersect(o.mask).count() as f64 / r.mask.count().max(1) as f64;
                let l1ness = o.kernel.memory_instr_share();
                let per_kernel =
                    cp.intra_sm_compute + (cp.intra_sm_l1 - cp.intra_sm_compute) * l1ness;
                intra += per_kernel * overlap_frac * o.thread_fraction;
            }

            let demand = r.bw_demand_gbps(spec);
            let per_channel_demand = demand / r.channels.count().max(1) as f64;
            let mut granted = 0.0;
            for c in 0..spec.num_channels as usize {
                if r.channels.0 & (1 << c) == 0 {
                    continue;
                }
                let d = channel_demand[c];
                granted += if d <= channel_cap {
                    per_channel_demand
                } else {
                    per_channel_demand * channel_cap / d
                };
            }
            let bw_share = if demand > 0.0 {
                (granted / demand).clamp(1e-6, 1.0)
            } else {
                1.0
            };

            let mut l2_penalty = 1.0;
            for (j, o) in running.iter().enumerate() {
                if i == j {
                    continue;
                }
                let shared = r.channels.overlap(o.channels) as f64;
                if shared == 0.0 {
                    continue;
                }
                let frac = shared / r.channels.count().max(1) as f64;
                l2_penalty += (cp.l2_overlap_penalty + cp.bank_serialization)
                    * frac
                    * o.thrash_intensity(spec);
            }

            let mut eff_tpcs = 0.0;
            for t in 0..spec.num_tpcs as usize {
                if r.mask.0 & (1 << t) != 0 {
                    eff_tpcs += r.thread_fraction / tpc_occupancy[t].max(1.0);
                }
            }
            let eff_bw_share = bw_share / l2_penalty;
            let ctx = ResourceCtx {
                tpcs: eff_tpcs.max(0.05),
                bw_share: eff_bw_share.clamp(1e-6, 1.0),
                intra_sm_factor: intra,
            };
            let duration = perf::runtime_us(&r.kernel, spec, ctx);
            let exclusive = perf::isolated_runtime_us(&r.kernel, spec);
            out.push(KernelRate {
                duration_us: duration,
                relative_speed: exclusive / duration.max(1e-9),
            });
        }
        out
    }
}

/// Maximum relative divergence tolerated between the optimized rate
/// paths and the [`reference`] oracle (float-associativity headroom).
pub const RATE_EQUIVALENCE_TOL: f64 = 1e-9;

/// Relative divergence between two rate vectors (∞ on length mismatch).
pub fn max_relative_divergence(a: &[KernelRate], b: &[KernelRate]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = (x.duration_us - y.duration_us).abs() / x.duration_us.abs().max(1e-12);
            let s = (x.relative_speed - y.relative_speed).abs() / x.relative_speed.abs().max(1e-12);
            d.max(s)
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn::kernel::{KernelDesc, KernelKind};
    use gpu_spec::GpuModel;

    fn kernel(kind: KernelKind, flops: f64, bytes: f64) -> KernelDesc {
        KernelDesc {
            id: 7,
            name: "k".into(),
            kind,
            flops,
            bytes,
            thread_blocks: 256,
            persistent_threads: true,
            colored: false,
            extra_registers: 0,
            tensor_refs: vec![],
        }
    }

    fn ctx(spec: &GpuSpec, k: KernelDesc, mask: TpcMask, channels: ChannelSet) -> RunningCtx {
        RunningCtx::new(spec, &k, mask, channels, 1.0)
    }

    fn victim(spec: &GpuSpec) -> RunningCtx {
        ctx(
            spec,
            kernel(KernelKind::Gemm, 2e9, 1e7),
            TpcMask::first(spec.num_tpcs / 2),
            ChannelSet::all(spec),
        )
    }

    fn thrasher(spec: &GpuSpec, mask: TpcMask, channels: ChannelSet) -> RunningCtx {
        ctx(
            spec,
            kernel(KernelKind::Elementwise, 1e7, 3e8),
            mask,
            channels,
        )
    }

    #[test]
    fn alone_matches_isolated_runtime() {
        let spec = GpuModel::RtxA2000.spec();
        let k = kernel(KernelKind::Gemm, 2e9, 1e7);
        let v = ctx(
            &spec,
            k.clone(),
            TpcMask::all(&spec),
            ChannelSet::all(&spec),
        );
        let rates = compute_rates(&spec, std::slice::from_ref(&v));
        let isolated = dnn::perf::isolated_runtime_us(&k, &spec);
        assert!((rates[0].duration_us - isolated).abs() / isolated < 1e-6);
        assert!((rates[0].relative_speed - 1.0).abs() < 1e-6);
    }

    #[test]
    fn intra_sm_interference_grows_with_co_runners() {
        // Fig. 3a: victim latency grows with the number of interferers on
        // shared SMs, and L1 thrashers hurt more than compute kernels.
        let spec = GpuModel::RtxA2000.spec();
        let mask = TpcMask::first(spec.num_tpcs);
        let v = ctx(
            &spec,
            kernel(KernelKind::Gemm, 2e9, 1e7),
            mask,
            ChannelSet::all(&spec),
        );
        let comp = ctx(
            &spec,
            kernel(KernelKind::Gemm, 2e9, 1e6),
            mask,
            ChannelSet::all(&spec),
        );
        let l1 = ctx(
            &spec,
            kernel(KernelKind::Elementwise, 1e8, 2e7),
            mask,
            ChannelSet::all(&spec),
        );
        let alone = compute_rates(&spec, std::slice::from_ref(&v))[0].duration_us;
        let with1 = compute_rates(&spec, &[v, comp])[0].duration_us;
        let with2 = compute_rates(&spec, &[v, comp, comp])[0].duration_us;
        let with_l1 = compute_rates(&spec, &[v, l1])[0].duration_us;
        assert!(with1 > alone * 1.15, "{with1} vs {alone}");
        assert!(with2 > with1 * 1.1);
        assert!(with_l1 > with1, "L1 interference must exceed compute");
    }

    #[test]
    fn disjoint_masks_remove_intra_sm_interference() {
        let spec = GpuModel::RtxA2000.spec();
        let v = ctx(
            &spec,
            kernel(KernelKind::Gemm, 2e9, 1e7),
            TpcMask::first(6),
            ChannelSet::from_channels(&[2, 3, 4, 5]),
        );
        let other = ctx(
            &spec,
            kernel(KernelKind::Gemm, 2e9, 1e6),
            TpcMask::range(6, 7),
            ChannelSet::from_channels(&[0, 1]),
        );
        let alone = compute_rates(&spec, std::slice::from_ref(&v))[0].duration_us;
        let together = compute_rates(&spec, &[v, other])[0].duration_us;
        assert!(
            (together - alone).abs() / alone < 0.02,
            "full partitioning ⇒ no interference ({together} vs {alone})"
        );
    }

    #[test]
    fn channel_overlap_slows_memory_bound_victims() {
        // Fig. 3b: with disjoint SMs (MPS-style), a VRAM thrasher still
        // hurts a victim whose channels overlap.
        let spec = GpuModel::RtxA2000.spec();
        let v = ctx(
            &spec,
            kernel(KernelKind::Elementwise, 1e7, 1e8),
            TpcMask::first(6),
            ChannelSet::all(&spec),
        );
        let t = thrasher(&spec, TpcMask::range(6, 7), ChannelSet::all(&spec));
        let alone = compute_rates(&spec, std::slice::from_ref(&v))[0].duration_us;
        let together = compute_rates(&spec, &[v, t])[0].duration_us;
        assert!(together > alone * 1.3, "{together} vs {alone}");

        // Channel isolation removes most of the slowdown (Fig. 15a).
        let v_iso = RunningCtx {
            channels: ChannelSet::from_channels(&[2, 3, 4, 5]),
            ..v
        };
        let t_iso = thrasher(
            &spec,
            TpcMask::range(6, 7),
            ChannelSet::from_channels(&[0, 1]),
        );
        let isolated_together = compute_rates(&spec, &[v_iso, t_iso])[0].duration_us;
        let isolated_alone = compute_rates(&spec, &[v_iso])[0].duration_us;
        let interference = together / alone;
        let iso_interference = isolated_together / isolated_alone;
        assert!(
            iso_interference < 1.0 + (interference - 1.0) * 0.35,
            "isolation must remove most interference: {iso_interference} vs {interference}"
        );
    }

    #[test]
    fn restricted_channel_set_caps_bandwidth() {
        let spec = GpuModel::RtxA2000.spec();
        let v = ctx(
            &spec,
            kernel(KernelKind::Elementwise, 1e7, 2e8),
            TpcMask::all(&spec),
            ChannelSet::from_channels(&[0, 1]),
        );
        let full = RunningCtx {
            channels: ChannelSet::all(&spec),
            ..v
        };
        let restricted = compute_rates(&spec, &[v])[0].duration_us;
        let unrestricted = compute_rates(&spec, &[full])[0].duration_us;
        let ratio = restricted / unrestricted;
        assert!(
            (2.2..4.0).contains(&ratio),
            "1/3 of channels ⇒ ~3× memory time ({ratio})"
        );
    }

    #[test]
    fn mps_thread_fraction_scales_compute() {
        let spec = GpuModel::RtxA2000.spec();
        let mut v = victim(&spec);
        v.mask = TpcMask::all(&spec);
        let full = compute_rates(&spec, std::slice::from_ref(&v))[0].duration_us;
        v.thread_fraction = 0.5;
        let half = compute_rates(&spec, &[v])[0].duration_us;
        assert!(half > full * 1.6, "{half} vs {full}");
    }

    #[test]
    fn optimized_matches_reference_model() {
        // The allocation-free fast path and the preserved seed
        // implementation are the same model.
        let spec = GpuModel::RtxA2000.spec();
        let gemm = || kernel(KernelKind::Gemm, 2e9, 1e7);
        let thrash = || kernel(KernelKind::Elementwise, 1e7, 3e8);
        let half = TpcMask::first(spec.num_tpcs / 2);
        let all = ChannelSet::all(&spec);
        let configs = [
            vec![(gemm(), half, all)],
            vec![(gemm(), half, all), (thrash(), TpcMask::range(6, 7), all)],
            vec![
                (
                    gemm(),
                    TpcMask::first(4),
                    ChannelSet::from_channels(&[0, 1]),
                ),
                (
                    kernel(KernelKind::DwConv, 4e8, 6e7),
                    TpcMask::range(2, 8),
                    all,
                ),
                (
                    thrash(),
                    TpcMask::all(&spec),
                    ChannelSet::from_channels(&[1, 2, 3]),
                ),
            ],
        ];
        for kernels in &configs {
            let running: Vec<RunningCtx> = kernels
                .iter()
                .map(|(k, mask, channels)| ctx(&spec, k.clone(), *mask, *channels))
                .collect();
            let fast = compute_rates(&spec, &running);
            let seed: Vec<reference::Ctx> = running
                .iter()
                .zip(kernels)
                .map(|(r, (k, _, _))| reference::Ctx::from_running(r, k))
                .collect();
            let slow = reference::compute_rates(&spec, &seed);
            let div = max_relative_divergence(&fast, &slow);
            assert!(div < RATE_EQUIVALENCE_TOL, "divergence {div}");
        }
    }

    #[test]
    fn incremental_update_matches_full_recompute() {
        let spec = GpuModel::RtxA2000.spec();
        let mut running = vec![
            victim(&spec),
            thrasher(&spec, TpcMask::range(6, 7), ChannelSet::all(&spec)),
            ctx(
                &spec,
                kernel(KernelKind::Attention, 1e9, 4e7),
                TpcMask::first(3),
                ChannelSet::from_channels(&[4, 5]),
            ),
        ];
        let mut state = RateState::default();
        let mut out = Vec::new();
        state.recompute_full(&spec, &running, &mut out);
        // Re-mask the thrasher onto fewer TPCs and the BE channels.
        let old_mask = running[1].mask;
        let old_channels = running[1].channels;
        running[1].mask = TpcMask::range(8, 5);
        running[1].channels = ChannelSet::from_channels(&[0, 1]);
        let mut incremental = Vec::new();
        state.update_one(&spec, &running, 1, old_mask, old_channels, &mut incremental);
        let full = compute_rates(&spec, &running);
        let div = max_relative_divergence(&incremental, &full);
        assert!(div < RATE_EQUIVALENCE_TOL, "divergence {div}");
    }
}
