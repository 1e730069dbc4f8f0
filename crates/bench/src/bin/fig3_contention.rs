//! Fig. 3: resource contention micro-benchmarks on the RTX A2000.
//! (a) intra-SM conflicts: victim + k interferers sharing SMs;
//! (b) inter-SM conflicts: MPS-split SMs, VRAM-thrashing interferers.
use dnn::kernel::{KernelDesc, KernelKind};
use exec_sim::{compute_rates, ChannelSet, RunningCtx, TpcMask};
use gpu_spec::GpuModel;

fn kernel(kind: KernelKind, flops: f64, bytes: f64) -> KernelDesc {
    KernelDesc {
        id: 1,
        name: "microbench".into(),
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

fn main() {
    let spec = GpuModel::RtxA2000.spec();
    let all = TpcMask::all(&spec);
    let chans = ChannelSet::all(&spec);
    // Matrix-multiply victim.
    let victim = RunningCtx::new(&spec, &kernel(KernelKind::Gemm, 2e9, 1e7), all, chans, 1.0);
    let alone = compute_rates(&spec, std::slice::from_ref(&victim))[0].duration_us;

    sgdrc_bench::header("Fig. 3a — intra-SM conflicts (victim p99 slowdown)");
    println!(
        "{:<24} {:>12} {:>10}",
        "interference", "p99 (µs)", "slowdown"
    );
    println!("{:<24} {:>12.1} {:>10.2}", "none", alone, 1.0);
    for n in 1..=3 {
        // Compute-unit interferers (matrix multiplication).
        let mut set = vec![victim];
        for _ in 0..n {
            set.push(RunningCtx::new(
                &spec,
                &kernel(KernelKind::Gemm, 2e9, 1e6),
                all,
                chans,
                1.0,
            ));
        }
        let t = compute_rates(&spec, &set)[0].duration_us;
        println!(
            "{:<24} {:>12.1} {:>10.2}",
            format!("{n}x Comp."),
            t,
            t / alone
        );
        // L1-thrashing interferers.
        let mut set = vec![victim];
        for _ in 0..n {
            set.push(RunningCtx::new(
                &spec,
                &kernel(KernelKind::Elementwise, 1e8, 2e7),
                all,
                chans,
                1.0,
            ));
        }
        let t = compute_rates(&spec, &set)[0].duration_us;
        println!(
            "{:<24} {:>12.1} {:>10.2}",
            format!("{n}x L1C"),
            t,
            t / alone
        );
    }

    sgdrc_bench::header("Fig. 3b — inter-SM conflicts (disjoint SMs, shared channels)");
    let half = spec.num_tpcs / 2;
    let victim = RunningCtx::new(
        &spec,
        &kernel(KernelKind::Gemm, 2e9, 4e7),
        TpcMask::first(half),
        chans,
        1.0,
    );
    let alone = compute_rates(&spec, std::slice::from_ref(&victim))[0].duration_us;
    println!(
        "{:<24} {:>12} {:>10}",
        "VRAM thrashers", "p99 (µs)", "slowdown"
    );
    println!("{:<24} {:>12.1} {:>10.2}", "none", alone, 1.0);
    for n in 1..=3 {
        let mut set = vec![victim];
        for i in 0..n {
            set.push(RunningCtx::new(
                &spec,
                &kernel(KernelKind::Elementwise, 1e7, 3e8),
                TpcMask::range(half + i, 1),
                chans,
                1.0,
            ));
        }
        let t = compute_rates(&spec, &set)[0].duration_us;
        println!(
            "{:<24} {:>12.1} {:>10.2}",
            format!("{n} thrashers"),
            t,
            t / alone
        );
    }
}
