//! Property-based tests for the execution engine.
use dnn::kernel::{KernelDesc, KernelKind};
use exec_sim::{
    compute_rates, max_relative_divergence, ChannelSet, Engine, LaunchConfig, RateState,
    RunningCtx, TpcMask, RATE_EQUIVALENCE_TOL,
};
use gpu_spec::GpuModel;
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

    /// The incremental re-mask path ([`RateState::update_one`]) matches a
    /// from-scratch `compute_rates` within 1e-9 relative, for arbitrary
    /// running sets and arbitrary single-kernel mask/channel changes.
    #[test]
    fn incremental_update_matches_full_recompute(
        shapes in prop::collection::vec(
            // (flops, bytes, blocks, mask_start, mask_len, channel_bits)
            (1e6f64..1e10, 1e4f64..3e8, 1u32..512, 0u32..10, 1u32..13, 1u16..64),
            1..5,
        ),
        changed in 0usize..5,
        new_mask_start in 0u32..10,
        new_mask_len in 1u32..13,
        new_channel_bits in 1u16..64,
    ) {
        let spec = GpuModel::RtxA2000.spec();
        let clamp_mask = |start: u32, len: u32| {
            let m = TpcMask::range(start, len).intersect(TpcMask::all(&spec));
            if m.is_empty() { TpcMask::first(1) } else { m }
        };
        let clamp_channels = |bits: u16| {
            let c = ChannelSet(bits & ChannelSet::all(&spec).0);
            if c.is_empty() { ChannelSet::from_channels(&[0]) } else { c }
        };
        let mut running: Vec<RunningCtx> = shapes
            .iter()
            .map(|&(flops, bytes, blocks, start, len, chans)| {
                RunningCtx::new(
                    &spec,
                    &kernel(flops, bytes, blocks),
                    clamp_mask(start, len),
                    clamp_channels(chans),
                    1.0,
                )
            })
            .collect();
        let i = changed % running.len();
        let mut state = RateState::default();
        let mut rates = Vec::new();
        state.recompute_full(&spec, &running, &mut rates);
        let old_mask = running[i].mask;
        let old_channels = running[i].channels;
        running[i].mask = clamp_mask(new_mask_start, new_mask_len);
        running[i].channels = clamp_channels(new_channel_bits);
        let mut incremental = Vec::new();
        state.update_one(&spec, &running, i, old_mask, old_channels, &mut incremental);
        let full = compute_rates(&spec, &running);
        let div = max_relative_divergence(&incremental, &full);
        prop_assert!(div < RATE_EQUIVALENCE_TOL, "divergence {div}");
    }

    /// The optimized fast path agrees with the preserved seed model
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
                let mask = TpcMask::range(start, len).intersect(TpcMask::all(&spec));
                let mask = if mask.is_empty() { TpcMask::first(1) } else { mask };
                let channels = ChannelSet(chans & ChannelSet::all(&spec).0);
                let channels = if channels.is_empty() {
                    ChannelSet::from_channels(&[0])
                } else {
                    channels
                };
                RunningCtx::new(&spec, k, mask, channels, 1.0)
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
