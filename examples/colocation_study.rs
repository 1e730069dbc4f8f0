//! Colocation micro-study: how VRAM channel isolation and SM masking
//! change a victim kernel's latency (the Fig. 3 / Fig. 15a mechanics),
//! plus the coloring driver in action.
//!
//! ```sh
//! cargo run --release --example colocation_study
//! ```

use sgdrc_repro::coloring::{plan_reuse, split_channels, ColoredPool, GranularityKib, Interval};
use sgdrc_repro::dnn::kernel::{KernelDesc, KernelKind};
use sgdrc_repro::exec_sim::{compute_rates, ChannelSet, RunningCtx, TpcMask};
use sgdrc_repro::gpu_spec::GpuModel;

fn main() {
    let spec = GpuModel::RtxA2000.spec();
    let victim = RunningCtx::new(
        &spec,
        &KernelDesc {
            id: 1,
            name: "victim/gemm".into(),
            kind: KernelKind::Gemm,
            flops: 2e9,
            bytes: 4e7,
            thread_blocks: 64,
            persistent_threads: true,
            colored: false,
            extra_registers: 0,
            tensor_refs: vec![],
        },
        TpcMask::first(spec.num_tpcs / 2),
        ChannelSet::all(&spec),
        1.0,
    );
    let thrasher = RunningCtx::new(
        &spec,
        &KernelDesc {
            id: 2,
            name: "thrasher/stream".into(),
            kind: KernelKind::Elementwise,
            flops: 1e7,
            bytes: 3e8,
            thread_blocks: 512,
            persistent_threads: true,
            colored: false,
            extra_registers: 0,
            tensor_refs: vec![],
        },
        TpcMask::range(spec.num_tpcs / 2, spec.num_tpcs - spec.num_tpcs / 2),
        ChannelSet::all(&spec),
        1.0,
    );

    let alone = compute_rates(&spec, std::slice::from_ref(&victim))[0].duration_us;
    let shared = compute_rates(&spec, &[victim, thrasher])[0].duration_us;

    let split = split_channels(&spec, 1.0 / 3.0);
    let v_iso = RunningCtx {
        channels: ChannelSet::from_channels(&split.ls_channels),
        ..victim
    };
    let t_iso = RunningCtx {
        channels: ChannelSet::from_channels(&split.be_channels),
        ..thrasher
    };
    let isolated = compute_rates(&spec, &[v_iso, t_iso])[0].duration_us;

    println!("victim GEMM on half the TPCs of a simulated {}:", spec.name);
    println!("  alone:                       {alone:>8.1} µs");
    println!(
        "  + VRAM thrasher (shared ch): {shared:>8.1} µs  ({:+.1}%)",
        (shared / alone - 1.0) * 100.0
    );
    println!(
        "  + VRAM thrasher (isolated):  {isolated:>8.1} µs  ({:+.1}%)",
        (isolated / alone - 1.0) * 100.0
    );

    // The driver side: a colored pool over the learned layout, and the
    // intermediate-tensor reuse that keeps bimodal footprints in check.
    let hash = GpuModel::RtxA2000.channel_hash();
    let mut pool = ColoredPool::new(0, 4096, GranularityKib(2), move |p| {
        hash.channel_of_partition(p) / 2
    });
    let alloc = pool
        .alloc_colored(&[0], 256 * 1024)
        .expect("colored allocation");
    println!(
        "\ncolored allocation: {} KiB logical across {} chunks of color 0 (sector {})",
        alloc.logical_bytes / 1024,
        alloc.chunks.len(),
        alloc.sector
    );

    let intervals: Vec<Interval> = (0..16)
        .map(|i| Interval {
            start: i,
            end: i + 1,
            bytes: 1 << 20,
        })
        .collect();
    let plan = plan_reuse(&intervals);
    println!(
        "tensor reuse: 16 x 1 MiB intermediates fit in {} buffers ({} MiB total)",
        plan.buffer_bytes.len(),
        plan.total_bytes() >> 20
    );
}
