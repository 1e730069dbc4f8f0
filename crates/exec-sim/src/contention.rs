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
//! Rates are read after every launch, finish and remask, so the
//! evaluation allocates nothing and keeps no state between reads:
//!
//! * each [`RunningCtx`] is a `Copy` value: masks, thread fraction and
//!   a [`KernelPerfInvariants`] block precomputed once per kernel — the
//!   model never touches `perf::` derivations or the descriptor, so a
//!   launch or a finish moves no reference count;
//! * [`compute_rates_into`] evaluates each kernel against its co-runners
//!   from scratch: the pairwise intra-SM and L2 terms, then whether each
//!   co-runner's mask and channel set covers the kernel's or overlaps it
//!   only partly. Per-channel demand and per-TPC occupancy are summed
//!   over the running set only under a partial overlap; otherwise they
//!   are uniform and one comparison replaces the walk. Every sum starts
//!   from 0.0 in running order, so a rate depends on the running set
//!   alone, not on the launches and remasks that produced it;
//! * a kernel's [`per_channel_demand`] is the one derived quantity the
//!   caller keeps: the engine sets it at launch and remask.
//!
//! SGDRC holds at most one LS and one BE kernel on the GPU, so a read
//! costs a few pairwise terms; the evaluation is O(n²) in the resident
//! kernels.
//!
//! The original straight-line evaluation survives in
//! [`reference`](mod@reference) as this layer's one oracle: a unit test,
//! the exec-sim proptests and the engine's event-sequence test compare
//! the evaluator against it.

use crate::types::{ChannelSet, TpcMask};
use dnn::kernel::KernelDesc;
use dnn::perf::{KernelPerfInvariants, ResourceCtx};
use gpu_spec::GpuSpec;
use std::sync::Arc;

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

/// Bandwidth demand a kernel places on each channel of its set, GB/s.
/// The engine keeps it per resident kernel, set at launch and remask;
/// [`compute_rates_into`] reads it from there.
#[inline]
pub fn per_channel_demand(r: &RunningCtx) -> f64 {
    r.perf.bw_demand_gbps / r.channels.count().max(1) as f64
}

/// Share of `own`'s bits that `inter` (a nonempty subset) holds. A
/// covering co-runner (`inter == own`) gets 1.0 without the division,
/// which would give exactly 1.0 too.
#[inline]
fn overlap_share(inter: u32, own: u32) -> f64 {
    if inter == own {
        1.0
    } else {
        inter.count_ones() as f64 / own.count_ones().max(1) as f64
    }
}

/// Intra-SM interference inflicted by co-runner `other` on a kernel
/// whose TPCs it shares in proportion `overlap` (Fig. 3a).
#[inline]
fn intra_term(spec: &GpuSpec, other: &RunningCtx, overlap: f64) -> f64 {
    let cp = &spec.contention;
    // L1-heavy co-runners interfere more than compute co-runners.
    let l1ness = other.perf.memory_instr_share;
    let per_kernel = cp.intra_sm_compute + (cp.intra_sm_l1 - cp.intra_sm_compute) * l1ness;
    per_kernel * overlap * other.thread_fraction
}

/// L2/MSHR/bank conflict penalty inflicted by co-runner `other` on a
/// kernel whose channels it shares in proportion `overlap` (Fig. 3b).
#[inline]
fn l2_term(spec: &GpuSpec, other: &RunningCtx, overlap: f64) -> f64 {
    let cp = &spec.contention;
    (cp.l2_overlap_penalty + cp.bank_serialization) * overlap * other.perf.thrash_intensity
}

/// Summed per-channel demand on channel `c` over the running set.
#[inline]
fn channel_demand(running: &[RunningCtx], per_channel: &[f64], c: u32) -> f64 {
    let mut demand = 0.0;
    for (o, &pcd) in running.iter().zip(per_channel) {
        if o.channels.0 & (1 << c) != 0 {
            demand += pcd;
        }
    }
    demand
}

/// Summed thread fraction on TPC `t` over the running set.
#[inline]
fn tpc_occupancy(running: &[RunningCtx], t: u32) -> f64 {
    let mut occupancy = 0.0;
    for o in running {
        if o.mask.0 & (1 << t) != 0 {
            occupancy += o.thread_fraction;
        }
    }
    occupancy
}

/// Evaluates every running kernel's rate from its co-runners into `out`
/// (cleared first). `per_channel[i]` is [`per_channel_demand`] of
/// `running[i]`; the engine caches it where resources change.
pub fn compute_rates_into(
    spec: &GpuSpec,
    running: &[RunningCtx],
    per_channel: &[f64],
    out: &mut Vec<KernelRate>,
) {
    debug_assert!(
        running.len() == per_channel.len()
            && running
                .iter()
                .zip(per_channel)
                .all(|(r, d)| per_channel_demand(r).to_bits() == d.to_bits()),
        "per-channel demands do not describe the running set"
    );
    out.clear();
    let channel_cap = spec.channel_bandwidth_gbps();
    for (i, (r, &pcd)) in running.iter().zip(per_channel).enumerate() {
        // ---- pairwise terms and co-runner classification --------------
        // A co-runner whose TPC mask (channel set) contains this kernel's
        // adds uniformly to every TPC (channel) of it; one that overlaps
        // only partly forces the per-TPC (per-channel) walk below.
        let (mut intra_sum, mut l2_sum) = (0.0, 0.0);
        let (mut tpc_cover_fraction, mut chan_cover_demand) = (0.0, 0.0);
        let (mut tpc_partial, mut chan_partial) = (false, false);
        for (j, (o, &o_pcd)) in running.iter().zip(per_channel).enumerate() {
            if i == j {
                continue;
            }
            let inter = r.mask.0 & o.mask.0;
            if inter != 0 {
                intra_sum += intra_term(spec, o, overlap_share(inter, r.mask.0));
                if inter == r.mask.0 {
                    tpc_cover_fraction += o.thread_fraction;
                } else {
                    tpc_partial = true;
                }
            }
            let cinter = u32::from(r.channels.0 & o.channels.0);
            if cinter != 0 {
                l2_sum += l2_term(spec, o, overlap_share(cinter, u32::from(r.channels.0)));
                if cinter == u32::from(r.channels.0) {
                    chan_cover_demand += o_pcd;
                } else {
                    chan_partial = true;
                }
            }
        }

        // ---- VRAM bandwidth share (Fig. 3b) ---------------------------
        // Fraction of the kernel's demand it actually receives. A
        // restricted channel set is captured naturally: the demand
        // concentrates on fewer channels, whose caps bind sooner. When no
        // co-runner's channel set partially overlaps, every channel of
        // the set carries the same demand and the per-channel walk
        // collapses to one comparison.
        let demand = r.perf.bw_demand_gbps;
        let bw_share = if demand <= 0.0 {
            1.0
        } else if r.channels.is_empty() {
            // No channels granted at all: the per-channel walk sums zero,
            // so the demand-starved floor applies (kept out of the
            // uniform case, which would otherwise report full bandwidth).
            1e-6
        } else if !chan_partial {
            let d = pcd + chan_cover_demand;
            if d <= channel_cap {
                1.0
            } else {
                (channel_cap / d).clamp(1e-6, 1.0)
            }
        } else {
            let mut granted = 0.0;
            for c in r.channels.iter_ones() {
                let d = channel_demand(running, per_channel, c);
                granted += if d <= channel_cap {
                    pcd
                } else {
                    pcd * channel_cap / d
                };
            }
            (granted * r.perf.inv_bw_demand_gbps).clamp(1e-6, 1.0)
        };

        // ---- roofline under current conditions ------------------------
        // Effective TPCs: fair share of every TPC in the mask. With no
        // partial mask overlap the occupancy is uniform (own fraction +
        // covering co-runners) and the per-TPC walk is a popcount; inside
        // the walk an uncontended TPC (occupancy ≤ 1) contributes the
        // thread fraction directly.
        let eff_tpcs = if !tpc_partial {
            let occupancy = r.thread_fraction + tpc_cover_fraction;
            let share = if occupancy <= 1.0 {
                r.thread_fraction
            } else {
                r.thread_fraction / occupancy
            };
            share * r.mask.count() as f64
        } else {
            let mut eff = 0.0;
            for t in r.mask.iter_ones() {
                let occupancy = tpc_occupancy(running, t);
                eff += if occupancy <= 1.0 {
                    r.thread_fraction
                } else {
                    r.thread_fraction / occupancy
                };
            }
            eff
        };
        let ctx = ResourceCtx {
            tpcs: eff_tpcs.max(0.05),
            bw_share: (bw_share / (1.0 + l2_sum)).clamp(1e-6, 1.0),
            intra_sm_factor: 1.0 + intra_sum,
        };
        let duration = r.perf.runtime_us(ctx);
        out.push(KernelRate {
            duration_us: duration,
            relative_speed: r.perf.isolated_us / duration.max(1e-9),
        });
    }
}

/// Computes each running kernel's instantaneous duration and speed.
///
/// Allocating wrapper around [`compute_rates_into`]; event loops own the
/// output and the per-channel demands and call that directly.
pub fn compute_rates(spec: &GpuSpec, running: &[RunningCtx]) -> Vec<KernelRate> {
    let per_channel: Vec<f64> = running.iter().map(per_channel_demand).collect();
    let mut out = Vec::with_capacity(running.len());
    compute_rates_into(spec, running, &per_channel, &mut out);
    out
}

pub mod reference {
    //! The pre-optimization contention model, preserved verbatim.
    //!
    //! This is the seed implementation: per-call `Vec` aggregates,
    //! per-bit loops over every TPC/channel slot, and full `perf::`
    //! re-derivation from the (deep-cloned) kernel descriptor. It is the
    //! *oracle* the evaluator, [`compute_rates_into`](super::compute_rates_into),
    //! is tested against (unit and property tests, and the engine's
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

/// Maximum relative divergence tolerated between the evaluator and the
/// [`reference`](mod@reference) oracle (float-associativity headroom).
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
    fn pair_rates_ignore_running_order() {
        // Each rate depends on the set, not on where a kernel sits in it:
        // with two kernels every sum has at most two terms, and float
        // addition commutes, so swapping the pair swaps the rates bit for
        // bit. The cases cover nested, partial and disjoint masks and
        // channel sets, with MPS fractions that oversubscribe shared TPCs.
        let spec = GpuModel::RtxA2000.spec();
        let all = ChannelSet::all(&spec);
        let attention = |mask, channels, thread_fraction| {
            RunningCtx::new(
                &spec,
                &kernel(KernelKind::Attention, 1e9, 4e7),
                mask,
                channels,
                thread_fraction,
            )
        };
        let pairs = [
            (victim(&spec), thrasher(&spec, TpcMask::all(&spec), all)),
            (
                victim(&spec),
                thrasher(
                    &spec,
                    TpcMask::range(4, 9),
                    ChannelSet::from_channels(&[0, 1, 2]),
                ),
            ),
            (
                attention(TpcMask::first(8), all, 0.7),
                RunningCtx {
                    thread_fraction: 0.6,
                    ..thrasher(
                        &spec,
                        TpcMask::range(5, 8),
                        ChannelSet::from_channels(&[1, 2, 3, 4]),
                    )
                },
            ),
            (
                attention(TpcMask::first(3), ChannelSet::from_channels(&[4, 5]), 1.0),
                thrasher(
                    &spec,
                    TpcMask::range(6, 7),
                    ChannelSet::from_channels(&[0, 1]),
                ),
            ),
        ];
        for (a, b) in pairs {
            let ab = compute_rates(&spec, &[a, b]);
            let ba = compute_rates(&spec, &[b, a]);
            for (x, y) in [(ab[0], ba[1]), (ab[1], ba[0])] {
                assert_eq!(x.duration_us.to_bits(), y.duration_us.to_bits());
                assert_eq!(x.relative_speed.to_bits(), y.relative_speed.to_bits());
            }
        }
    }
}
