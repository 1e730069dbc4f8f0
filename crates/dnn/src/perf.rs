//! The kernel performance model shared by the execution engine, the
//! offline profiler and the benchmarks.
//!
//! A kernel's runtime on a given GPU is a roofline with resource scaling:
//!
//! ```text
//! t = launch + max( compute_time / sm_scale(tpcs),  memory_time / bw_share )
//! ```
//!
//! * `sm_scale` saturates at the kernel's block-level parallelism — giving
//!   a kernel more TPCs than it can fill does not speed it up, which is
//!   exactly why SGDRC's min-SM search (§7.1) finds small allocations for
//!   most LS kernels;
//! * `bw_share` is the fraction of its achievable DRAM bandwidth the
//!   kernel actually receives (reduced under channel sharing);
//! * an `intra_sm_factor ≥ 1` models co-resident kernel interference
//!   (Fig. 3a) and the hardware-scheduler penalty for non-persistent
//!   kernels (§7.1).

use crate::kernel::KernelDesc;
use gpu_spec::GpuSpec;

/// Fixed kernel-launch overhead in microseconds.
pub const LAUNCH_OVERHEAD_US: f64 = 4.0;

/// Resource context for a runtime query.
#[derive(Debug, Clone, Copy)]
pub struct ResourceCtx {
    /// Effective TPCs available to the kernel (via TMD masking; fractional
    /// when SMs are time-shared or thread-sliced).
    pub tpcs: f64,
    /// Fraction of the kernel's achievable DRAM bandwidth it receives.
    pub bw_share: f64,
    /// Multiplicative intra-SM interference factor (1.0 = alone).
    pub intra_sm_factor: f64,
}

impl ResourceCtx {
    /// Full GPU, no interference.
    pub fn exclusive(spec: &GpuSpec) -> Self {
        Self {
            tpcs: spec.num_tpcs as f64,
            bw_share: 1.0,
            intra_sm_factor: 1.0,
        }
    }
}

/// Pure compute time at full SM allocation, in µs.
pub fn compute_time_us(k: &KernelDesc, spec: &GpuSpec) -> f64 {
    let peak = spec.fp32_tflops * 1e12 * k.kind.compute_efficiency();
    k.flops / peak * 1e6
}

/// Pure memory time at full bandwidth, in µs.
pub fn memory_time_us(k: &KernelDesc, spec: &GpuSpec) -> f64 {
    let bw = spec.mem_bandwidth_gbps * 1e9 * k.kind.bandwidth_efficiency();
    k.bytes / bw * 1e6
}

/// SM scaling factor: how much of its full-GPU compute rate the kernel
/// retains on `tpcs` TPCs.
pub fn sm_scale(k: &KernelDesc, spec: &GpuSpec, tpcs: f64) -> f64 {
    let tpcs = tpcs.clamp(0.05, spec.num_tpcs as f64);
    let saturation = k.saturation_tpcs(spec) as f64;
    // Usable TPCs are capped by the kernel's own parallelism.
    tpcs.min(saturation) / saturation
}

/// Kernel runtime in µs under a resource context.
pub fn runtime_us(k: &KernelDesc, spec: &GpuSpec, ctx: ResourceCtx) -> f64 {
    let scale = sm_scale(k, spec, ctx.tpcs);
    let compute = compute_time_us(k, spec) / scale.max(1e-9);
    // Memory throughput also degrades when very few SMs issue requests
    // (fewer outstanding misses): cap bandwidth by an SM-side MLP limit.
    let mlp_limit = (ctx.tpcs / spec.num_tpcs as f64 * 3.0).min(1.0);
    let memory = memory_time_us(k, spec) / (ctx.bw_share.min(mlp_limit)).max(1e-9);
    let coloring_overhead = if k.colored {
        1.0 + coloring::runtime_overhead_fraction(k.memory_instr_share())
    } else {
        1.0
    };
    let sched_penalty = if k.persistent_threads || k.thread_blocks <= 64 {
        1.0
    } else {
        1.0 + spec.contention.sched_conflict
    };
    LAUNCH_OVERHEAD_US
        + compute.max(memory) * ctx.intra_sm_factor * coloring_overhead * sched_penalty
}

/// Isolated runtime at full resources.
pub fn isolated_runtime_us(k: &KernelDesc, spec: &GpuSpec) -> f64 {
    runtime_us(k, spec, ResourceCtx::exclusive(spec))
}

/// Precomputed per-kernel performance invariants.
///
/// Everything [`runtime_us`] derives from the kernel descriptor alone
/// (× the GPU spec), captured once so the execution engine's hot path
/// re-evaluates a kernel's rate without touching the descriptor or the
/// `perf::` derivations again: pure compute/memory time, the isolated
/// runtime, block-parallelism saturation, the static coloring/scheduler
/// multipliers, and the contention-model inputs (full-resource DRAM
/// bandwidth demand, thrash intensity, memory-instruction share).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelPerfInvariants {
    /// Pure compute time at full SM allocation, µs.
    pub compute_us: f64,
    /// Pure memory time at full bandwidth, µs.
    pub memory_us: f64,
    /// [`isolated_runtime_us`] of the kernel.
    pub isolated_us: f64,
    /// TPCs beyond which extra SMs cannot help (block parallelism).
    pub saturation_tpcs: f64,
    /// Static multiplier: coloring overhead × hardware-scheduler penalty.
    pub static_factor: f64,
    /// DRAM bandwidth demand at full resources, GB/s.
    pub bw_demand_gbps: f64,
    /// `bw_demand` relative to the whole GPU, clamped to 0..1.
    pub thrash_intensity: f64,
    /// Share of issued instructions touching global memory.
    pub memory_instr_share: f64,
    /// `1 / bw_demand_gbps` (0 when the kernel demands no bandwidth) —
    /// turns the contention model's per-evaluation bandwidth-share
    /// division into a multiply.
    pub inv_bw_demand_gbps: f64,
    /// Cached `spec.num_tpcs` (f64) for the MLP bandwidth limit.
    num_tpcs: f64,
    /// `compute_us × saturation_tpcs`: folds the SM-scale division
    /// (`compute_us / (tpcs/sat)`) into a single divide per evaluation.
    compute_scaled: f64,
    /// `3 / num_tpcs`: the MLP limit's slope, precomputed.
    mlp_per_tpc: f64,
}

impl KernelPerfInvariants {
    pub fn new(k: &KernelDesc, spec: &GpuSpec) -> Self {
        let compute_us = compute_time_us(k, spec);
        let memory_us = memory_time_us(k, spec);
        let coloring_overhead = if k.colored {
            1.0 + coloring::runtime_overhead_fraction(k.memory_instr_share())
        } else {
            1.0
        };
        let sched_penalty = if k.persistent_threads || k.thread_blocks <= 64 {
            1.0
        } else {
            1.0 + spec.contention.sched_conflict
        };
        let body = memory_us.max(compute_us).max(1e-9);
        let bw_demand_gbps = k.bytes / (body * 1e-6) / 1e9;
        let saturation_tpcs = k.saturation_tpcs(spec) as f64;
        let num_tpcs = spec.num_tpcs as f64;
        Self {
            compute_us,
            memory_us,
            isolated_us: isolated_runtime_us(k, spec),
            saturation_tpcs,
            static_factor: coloring_overhead * sched_penalty,
            bw_demand_gbps,
            thrash_intensity: (bw_demand_gbps / spec.mem_bandwidth_gbps).min(1.0),
            memory_instr_share: k.memory_instr_share(),
            inv_bw_demand_gbps: if bw_demand_gbps > 0.0 {
                1.0 / bw_demand_gbps
            } else {
                0.0
            },
            num_tpcs,
            compute_scaled: compute_us * saturation_tpcs,
            mlp_per_tpc: 3.0 / num_tpcs,
        }
    }

    /// Kernel runtime under a resource context — same roofline as
    /// [`runtime_us`] (equal up to float associativity in the scale
    /// terms), with every descriptor-derived term served from the
    /// precomputed block and the invariant divisions pre-folded.
    pub fn runtime_us(&self, ctx: ResourceCtx) -> f64 {
        let tpcs = ctx.tpcs.clamp(0.05, self.num_tpcs);
        // compute_us / (tpcs.min(sat)/sat), with the numerator prefolded;
        // the clamped tpcs keep the denominator strictly positive.
        let compute = self.compute_scaled / tpcs.min(self.saturation_tpcs);
        let mlp_limit = (ctx.tpcs * self.mlp_per_tpc).min(1.0);
        let memory = self.memory_us / (ctx.bw_share.min(mlp_limit)).max(1e-9);
        LAUNCH_OVERHEAD_US + compute.max(memory) * ctx.intra_sm_factor * self.static_factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelDesc, KernelKind};
    use gpu_spec::GpuModel;

    fn gemm(flops: f64, bytes: f64, blocks: u32) -> KernelDesc {
        KernelDesc {
            id: 9,
            name: "gemm".into(),
            kind: KernelKind::Gemm,
            flops,
            bytes,
            thread_blocks: blocks,
            persistent_threads: true,
            colored: false,
            extra_registers: 0,
            tensor_refs: vec![],
        }
    }

    #[test]
    fn more_tpcs_never_slower() {
        let spec = GpuModel::RtxA2000.spec();
        let k = gemm(5e9, 2e7, 512);
        let mut prev = f64::INFINITY;
        for tpcs in 1..=spec.num_tpcs {
            let t = runtime_us(
                &k,
                &spec,
                ResourceCtx {
                    tpcs: tpcs as f64,
                    bw_share: 1.0,
                    intra_sm_factor: 1.0,
                },
            );
            assert!(t <= prev + 1e-9, "tpcs {tpcs}: {t} > {prev}");
            prev = t;
        }
    }

    #[test]
    fn runtime_saturates_at_block_parallelism() {
        let spec = GpuModel::RtxA2000.spec();
        let k = gemm(5e9, 2e7, 16); // saturates at 2 TPCs
        let t2 = runtime_us(
            &k,
            &spec,
            ResourceCtx {
                tpcs: 2.0,
                bw_share: 1.0,
                intra_sm_factor: 1.0,
            },
        );
        let t13 = runtime_us(
            &k,
            &spec,
            ResourceCtx {
                tpcs: 13.0,
                bw_share: 1.0,
                intra_sm_factor: 1.0,
            },
        );
        assert!(
            (t2 - t13).abs() < 1e-6,
            "extra TPCs beyond saturation are useless"
        );
    }

    #[test]
    fn memory_bound_kernels_track_bandwidth_share() {
        let spec = GpuModel::RtxA2000.spec();
        let k = KernelDesc {
            kind: KernelKind::Elementwise,
            ..gemm(1e6, 5e7, 512)
        };
        let full = runtime_us(&k, &spec, ResourceCtx::exclusive(&spec));
        let third = runtime_us(
            &k,
            &spec,
            ResourceCtx {
                tpcs: 13.0,
                bw_share: 1.0 / 3.0,
                intra_sm_factor: 1.0,
            },
        );
        let body_full = full - LAUNCH_OVERHEAD_US;
        let body_third = third - LAUNCH_OVERHEAD_US;
        assert!(
            (body_third / body_full - 3.0).abs() < 0.05,
            "{body_third} vs {body_full}"
        );
    }

    #[test]
    fn intra_sm_factor_scales_runtime() {
        let spec = GpuModel::TeslaP40.spec();
        let k = gemm(5e9, 2e7, 512);
        let alone = runtime_us(&k, &spec, ResourceCtx::exclusive(&spec));
        let shared = runtime_us(
            &k,
            &spec,
            ResourceCtx {
                tpcs: spec.num_tpcs as f64,
                bw_share: 1.0,
                intra_sm_factor: 1.4,
            },
        );
        assert!(shared > alone * 1.3);
    }

    #[test]
    fn coloring_overhead_is_small() {
        let spec = GpuModel::RtxA2000.spec();
        let mut k = gemm(5e9, 2e7, 512);
        let plain = isolated_runtime_us(&k, &spec);
        k.colored = true;
        let colored = isolated_runtime_us(&k, &spec);
        let overhead = colored / plain - 1.0;
        assert!(overhead > 0.0 && overhead < 0.04, "overhead {overhead}");
    }

    #[test]
    fn realistic_kernel_durations() {
        // A 224×224 ResNet conv layer should land in the 10–500 µs range.
        let spec = GpuModel::TeslaP40.spec();
        let k = gemm(231e6 * 2.0, 6e6, 392);
        let t = isolated_runtime_us(&k, &spec);
        assert!(t > 5.0 && t < 500.0, "runtime {t}");
    }

    #[test]
    fn invariants_match_direct_derivation() {
        // The precomputed block must agree with the straight-line
        // `runtime_us` across kernel shapes and resource contexts — the
        // execution engine's hot path relies on it.
        let spec = GpuModel::RtxA2000.spec();
        let kernels = [
            gemm(5e9, 2e7, 512),
            gemm(1e6, 5e7, 16),
            KernelDesc {
                kind: KernelKind::Elementwise,
                persistent_threads: false,
                thread_blocks: 512,
                ..gemm(1e6, 5e7, 512)
            },
            KernelDesc {
                colored: true,
                ..gemm(2e9, 1e7, 128)
            },
        ];
        for k in &kernels {
            let inv = KernelPerfInvariants::new(k, &spec);
            assert_eq!(inv.isolated_us, isolated_runtime_us(k, &spec));
            for tpcs in [0.5, 1.0, 3.7, 13.0] {
                for bw_share in [1.0, 0.4, 1e-3] {
                    for intra in [1.0, 1.6] {
                        let ctx = ResourceCtx {
                            tpcs,
                            bw_share,
                            intra_sm_factor: intra,
                        };
                        let direct = runtime_us(k, &spec, ctx);
                        let fast = inv.runtime_us(ctx);
                        assert!(
                            (fast - direct).abs() / direct < 1e-12,
                            "{}: {fast} vs {direct} at {ctx:?}",
                            k.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn few_tpcs_limit_memory_parallelism() {
        let spec = GpuModel::RtxA2000.spec();
        let k = KernelDesc {
            kind: KernelKind::Elementwise,
            ..gemm(1e6, 5e7, 512)
        };
        let one = runtime_us(
            &k,
            &spec,
            ResourceCtx {
                tpcs: 1.0,
                bw_share: 1.0,
                intra_sm_factor: 1.0,
            },
        );
        let all = runtime_us(
            &k,
            &spec,
            ResourceCtx {
                tpcs: 13.0,
                bw_share: 1.0,
                intra_sm_factor: 1.0,
            },
        );
        assert!(
            one > all * 2.0,
            "a single TPC cannot sustain full bandwidth"
        );
    }
}
