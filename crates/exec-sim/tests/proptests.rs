//! Property-based tests for the execution engine.
use dnn::kernel::{KernelDesc, KernelKind};
use exec_sim::{
    compute_rates, max_relative_divergence, ChannelSet, Engine, LaunchConfig, RunningCtx, TpcMask,
    RATE_EQUIVALENCE_TOL,
};
use gpu_spec::{GpuModel, GpuSpec};
use proptest::prelude::*;

fn kernel(flops: f64, bytes: f64, blocks: u32) -> KernelDesc {
    KernelDesc {
        id: 1,
        name: "p".into(),
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

/// `len` TPCs from `start`, cut to the GPU; TPC 0 if nothing is left.
fn clamp_mask(spec: &GpuSpec, start: u32, len: u32) -> TpcMask {
    let m = TpcMask::range(start, len).intersect(TpcMask::all(spec));
    if m.is_empty() {
        TpcMask::first(1)
    } else {
        m
    }
}

/// The channels of `bits` the GPU has; channel 0 if none.
fn clamp_channels(spec: &GpuSpec, bits: u16) -> ChannelSet {
    let c = ChannelSet(bits & ChannelSet::all(spec).0);
    if c.is_empty() {
        ChannelSet::from_channels(&[0])
    } else {
        c
    }
}

proptest! {
    /// Rates are always positive and never exceed the exclusive rate.
    #[test]
    fn rates_bounded(
        n in 1usize..4,
        flops in 1e6f64..1e10,
        bytes in 1e4f64..1e8,
        blocks in 1u32..512,
    ) {
        let spec = GpuModel::RtxA2000.spec();
        let running: Vec<RunningCtx> = (0..n)
            .map(|_| RunningCtx::new(&spec, &kernel(flops, bytes, blocks), TpcMask::all(&spec), ChannelSet::all(&spec), 1.0))
            .collect();
        for r in compute_rates(&spec, &running) {
            prop_assert!(r.relative_speed > 0.0);
            prop_assert!(r.relative_speed <= 1.0 + 1e-9, "speed {} > exclusive", r.relative_speed);
            prop_assert!(r.duration_us.is_finite());
        }
    }

    /// Time is monotone and no kernel is lost: every launch eventually
    /// produces exactly one Finished event.
    #[test]
    fn work_conservation(launches in prop::collection::vec((1e6f64..5e8, 1u32..256), 1..6)) {
        let spec = GpuModel::RtxA2000.spec();
        let mut e = Engine::new(spec.clone());
        let mut ids = std::collections::BTreeSet::new();
        for &(flops, blocks) in &launches {
            ids.insert(e.launch(&kernel(flops, 1e6, blocks), &LaunchConfig::exclusive(&spec)));
        }
        let mut last = 0.0f64;
        while let Some(ev) = e.step() {
            match ev {
                exec_sim::EngineEvent::Finished { id, at_us } => {
                    prop_assert!(at_us >= last - 1e-9, "time went backwards");
                    last = at_us;
                    prop_assert!(ids.remove(&id), "unknown or duplicate completion");
                }
                other => prop_assert!(false, "unexpected event {other:?}"),
            }
        }
        prop_assert!(ids.is_empty(), "lost kernels: {ids:?}");
    }

    /// Rates depend on the running set alone, not on the history that
    /// produced it. At t = 0 an engine launches B, launches A, remasks B
    /// twice, cancels A and launches C, reading its next event after each
    /// step; that next event must equal, bit for bit, the one of a fresh
    /// engine that launched B with its final resources and then C.
    #[test]
    fn next_event_is_history_free(
        // (flops, bytes, blocks, thread fraction; 1.0 from 1.0 up)
        a in (1e6f64..1e10, 1e4f64..3e8, 1u32..512, 0.1f64..2.0),
        b in (1e6f64..1e10, 1e4f64..3e8, 1u32..512, 0.1f64..2.0),
        c in (1e6f64..1e10, 1e4f64..3e8, 1u32..512, 0.1f64..2.0),
        // (mask_start, mask_len, channel_bits)
        b_launch in (0u32..10, 1u32..13, 1u16..64),
        a_launch in (0u32..10, 1u32..13, 1u16..64),
        b_remask in (0u32..10, 1u32..13, 1u16..64),
        b_final in (0u32..10, 1u32..13, 1u16..64),
        c_launch in (0u32..10, 1u32..13, 1u16..64),
    ) {
        let spec = GpuModel::RtxA2000.spec();
        let k = |(flops, bytes, blocks, _): (f64, f64, u32, f64)| kernel(flops, bytes, blocks);
        let cfg = |(start, len, bits): (u32, u32, u16), (.., fraction): (f64, f64, u32, f64)| {
            LaunchConfig {
                mask: clamp_mask(&spec, start, len),
                channels: clamp_channels(&spec, bits),
                thread_fraction: fraction.min(1.0),
                preempt_poll_us: None,
            }
        };
        let mut e = Engine::new(spec.clone());
        let b_id = e.launch(&k(b), &cfg(b_launch, b));
        e.next_event_at();
        let a_id = e.launch(&k(a), &cfg(a_launch, a));
        e.next_event_at();
        for resources in [b_remask, b_final] {
            let LaunchConfig { mask, channels, .. } = cfg(resources, b);
            prop_assert!(e.remask(b_id, mask, channels));
            e.next_event_at();
        }
        prop_assert!(e.cancel(a_id));
        e.next_event_at();
        e.launch(&k(c), &cfg(c_launch, c));

        let mut fresh = Engine::new(spec.clone());
        fresh.launch(&k(b), &cfg(b_final, b));
        fresh.launch(&k(c), &cfg(c_launch, c));
        let (got, want) = (e.next_event_at(), fresh.next_event_at());
        prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{:?} vs {:?}", got, want);
    }

    /// The evaluator agrees with the preserved seed model
    /// (`contention::reference`) on arbitrary running sets.
    #[test]
    fn fast_path_matches_reference_model(
        shapes in prop::collection::vec(
            (1e6f64..1e10, 1e4f64..3e8, 1u32..512, 0u32..13, 1u32..13, 1u16..64),
            1..5,
        ),
    ) {
        use exec_sim::contention::reference;
        let spec = GpuModel::RtxA2000.spec();
        let kernels: Vec<KernelDesc> = shapes
            .iter()
            .map(|&(flops, bytes, blocks, ..)| kernel(flops, bytes, blocks))
            .collect();
        let running: Vec<RunningCtx> = shapes
            .iter()
            .zip(&kernels)
            .map(|(&(.., start, len, chans), k)| {
                RunningCtx::new(
                    &spec,
                    k,
                    clamp_mask(&spec, start, len),
                    clamp_channels(&spec, chans),
                    1.0,
                )
            })
            .collect();
        let fast = compute_rates(&spec, &running);
        let seed: Vec<reference::Ctx> = running
            .iter()
            .zip(&kernels)
            .map(|(r, k)| reference::Ctx::from_running(r, k))
            .collect();
        let slow = reference::compute_rates(&spec, &seed);
        let div = max_relative_divergence(&fast, &slow);
        prop_assert!(div < RATE_EQUIVALENCE_TOL, "divergence {div}");
    }
}
