//! Offline profiling (paper §4 offline phase, §7.1, §7.2).
//!
//! Two decisions are made offline, per kernel, per GPU:
//!
//! * **`SM_LS`** — the minimum number of TPCs at which the kernel reaches
//!   (within a tolerance) its lowest latency, found by binary search
//!   exactly as §7.1 describes;
//! * **memory-boundedness** — "a kernel is considered memory-bound if its
//!   runtime degrades when L2 cachelines are intensively populated by a
//!   colocated kernel" (§7.2): measured by co-running a synthetic VRAM
//!   thrasher on disjoint TPCs and overlapping channels.

use dnn::kernel::{KernelDesc, KernelKind};
use dnn::perf;
use dnn::zoo::Model;
use exec_sim::{compute_rates, ChannelSet, RunningCtx, TpcMask};
use gpu_spec::GpuSpec;

/// Per-kernel offline profile.
#[derive(Debug, Clone)]
pub struct KernelProfile {
    /// Minimum TPCs achieving near-optimal latency (§7.1's `SM_LS`).
    pub min_tpcs: u32,
    /// Runtime at full resources, µs.
    pub isolated_us: f64,
    /// Degrades under L2 thrashing ⇒ memory-bound (§7.2).
    pub memory_bound: bool,
    /// DRAM bandwidth consumption at full resources, GB/s.
    pub bandwidth_gbps: f64,
}

/// Offline profile of a whole model.
#[derive(Debug, Clone)]
pub struct ModelProfile {
    pub kernels: Vec<KernelProfile>,
    /// Isolated end-to-end latency (sum of isolated kernel times), µs.
    pub isolated_e2e_us: f64,
}

/// Latency tolerance for the min-SM binary search: the smallest allocation
/// whose latency is indistinguishable from optimal within profiling noise
/// (real-GPU kernel timings vary by >10% run-to-run).
const MIN_SM_TOLERANCE: f64 = 1.15;

/// §7.1: binary search for the minimum TPC count with near-optimal latency.
pub fn min_tpcs_for(k: &KernelDesc, spec: &GpuSpec) -> u32 {
    let best = perf::isolated_runtime_us(k, spec);
    let target = best * MIN_SM_TOLERANCE;
    let mut lo = 1u32;
    let mut hi = spec.num_tpcs;
    while lo < hi {
        let mid = (lo + hi) / 2;
        let t = perf::runtime_us(
            k,
            spec,
            perf::ResourceCtx {
                tpcs: mid as f64,
                bw_share: 1.0,
                intra_sm_factor: 1.0,
            },
        );
        if t <= target {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// The synthetic L2-thrashing probe used by the memory-bound test.
fn thrasher_kernel(spec: &GpuSpec) -> KernelDesc {
    KernelDesc {
        id: 0xDEAD,
        name: "profiler/thrasher".into(),
        kind: KernelKind::Elementwise,
        flops: 1e6,
        // Streams several L2 capacities per millisecond.
        bytes: spec.mem_bandwidth_gbps * 1e6,
        thread_blocks: spec.num_sms() * 4,
        persistent_threads: true,
        colored: false,
        extra_registers: 0,
        tensor_refs: vec![],
    }
}

/// §7.2's operational memory-bound test: co-run the kernel (on half the
/// TPCs, all channels) with a thrasher (other TPCs, all channels) and
/// compare against running alone with the same mask.
pub fn is_memory_bound_probe(k: &KernelDesc, spec: &GpuSpec) -> bool {
    let half = spec.num_tpcs / 2;
    let victim = RunningCtx::new(spec, k, TpcMask::first(half), ChannelSet::all(spec), 1.0);
    let thrash = RunningCtx::new(
        spec,
        &thrasher_kernel(spec),
        TpcMask::range(half, spec.num_tpcs - half),
        ChannelSet::all(spec),
        1.0,
    );
    let alone = compute_rates(spec, std::slice::from_ref(&victim))[0].duration_us;
    let together = compute_rates(spec, &[victim, thrash])[0].duration_us;
    together > alone * 1.10
}

/// Profiles one kernel.
pub fn profile_kernel(k: &KernelDesc, spec: &GpuSpec) -> KernelProfile {
    let isolated = perf::isolated_runtime_us(k, spec);
    KernelProfile {
        min_tpcs: min_tpcs_for(k, spec),
        isolated_us: isolated,
        memory_bound: is_memory_bound_probe(k, spec),
        bandwidth_gbps: k.bytes / ((isolated - perf::LAUNCH_OVERHEAD_US).max(1e-3) * 1e-6) / 1e9,
    }
}

/// Profiles a whole (compiled) model.
pub fn profile_model(model: &Model, spec: &GpuSpec) -> ModelProfile {
    let kernels: Vec<KernelProfile> = model
        .kernels
        .iter()
        .map(|k| profile_kernel(k, spec))
        .collect();
    let isolated_e2e_us = kernels.iter().map(|k| k.isolated_us).sum();
    ModelProfile {
        kernels,
        isolated_e2e_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn::zoo::{build, ModelId};
    use dnn::CompileOptions;
    use gpu_spec::GpuModel;

    #[test]
    fn min_tpcs_is_minimal_and_sufficient() {
        let spec = GpuModel::RtxA2000.spec();
        let m = dnn::compile(build(ModelId::ResNet34), &spec, CompileOptions::default());
        for k in m.kernels.iter().take(20) {
            let min = min_tpcs_for(k, &spec);
            let best = perf::isolated_runtime_us(k, &spec);
            let at_min = perf::runtime_us(
                k,
                &spec,
                perf::ResourceCtx {
                    tpcs: min as f64,
                    bw_share: 1.0,
                    intra_sm_factor: 1.0,
                },
            );
            assert!(at_min <= best * MIN_SM_TOLERANCE + 1e-9, "{}", k.name);
            if min > 1 {
                let below = perf::runtime_us(
                    k,
                    &spec,
                    perf::ResourceCtx {
                        tpcs: (min - 1) as f64,
                        bw_share: 1.0,
                        intra_sm_factor: 1.0,
                    },
                );
                assert!(below > best * MIN_SM_TOLERANCE, "{} not minimal", k.name);
            }
        }
    }

    #[test]
    fn most_ls_kernels_need_few_tpcs() {
        // The premise of tidal masking: small LS kernels leave SMs for BE.
        let spec = GpuModel::RtxA2000.spec();
        let m = dnn::compile(
            build(ModelId::MobileNetV3),
            &spec,
            CompileOptions::default(),
        );
        let p = profile_model(&m, &spec);
        let small = p
            .kernels
            .iter()
            .filter(|k| k.min_tpcs <= spec.num_tpcs / 2)
            .count();
        assert!(
            small * 2 > p.kernels.len(),
            "only {small}/{} kernels fit half the GPU",
            p.kernels.len()
        );
    }

    #[test]
    fn probe_agrees_with_roofline_mostly() {
        // The operational memory-bound test (§7.2) and the roofline
        // classification should agree on the vast majority of kernels.
        let spec = GpuModel::RtxA2000.spec();
        let m = dnn::compile(
            build(ModelId::DenseNet161),
            &spec,
            CompileOptions::default(),
        );
        let mut agree = 0;
        for k in &m.kernels {
            if is_memory_bound_probe(k, &spec) == k.is_memory_bound(&spec) {
                agree += 1;
            }
        }
        assert!(
            agree * 10 >= m.kernels.len() * 8,
            "probe vs roofline agreement {agree}/{}",
            m.kernels.len()
        );
    }

    #[test]
    fn profile_has_sane_bandwidths() {
        let spec = GpuModel::TeslaP40.spec();
        let m = dnn::compile(build(ModelId::Bert), &spec, CompileOptions::default());
        let p = profile_model(&m, &spec);
        for kp in &p.kernels {
            assert!(kp.bandwidth_gbps >= 0.0 && kp.bandwidth_gbps <= spec.mem_bandwidth_gbps * 1.2);
        }
        assert!(p.isolated_e2e_us > 0.0);
    }
}
