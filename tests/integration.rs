//! Cross-crate integration tests: the full reverse-engineering pipeline,
//! offline-profile → online-serve round trips, and system-vs-system shape
//! assertions from the paper's evaluation.

use sgdrc_repro::baselines::{MultiStreaming, Orion};
use sgdrc_repro::core::serving::{run, Scenario, Task};
use sgdrc_repro::core::{Sgdrc, SgdrcConfig};
use sgdrc_repro::dnn;
use sgdrc_repro::dnn::zoo::{build, ModelId};
use sgdrc_repro::dnn::CompileOptions;
use sgdrc_repro::gpu_spec::GpuModel;
use sgdrc_repro::mem_sim::GpuDevice;
use sgdrc_repro::reveng::{
    align_classes, analyze, ChannelMarker, MarkerConfig, MlpConfig, MlpHashLearner, Sample,
};
use sgdrc_repro::workload::metrics::{ls_metrics, slo_for};
use sgdrc_repro::workload::trace::{generate, TraceConfig};

/// §5 end-to-end: latency-only probing → marking → structure analysis →
/// hash learner → lookup table, verified against the oracle at the end.
#[test]
fn reverse_engineering_pipeline_end_to_end() {
    let model = GpuModel::RtxA2000;
    let mut dev = GpuDevice::new(model, 96 << 20, 0xBEEF);
    let mut marker = ChannelMarker::new(&mut dev, MarkerConfig::default()).expect("marker");
    let (start, len) = marker.longest_contiguous_run();
    let count = (12 * 12 * 2).min(len);
    let labels = marker.mark_indexed(start, count).expect("marking");

    // Structure (§5.2).
    let report = analyze(&labels);
    assert_eq!(report.num_channels, 6);
    assert_eq!(report.block_size, 2);
    assert_eq!(report.groups.len(), 3);
    assert_eq!(report.window, 12);

    // Learner (§5.3) trained on the *probed* labels.
    let samples: Vec<Sample> = labels
        .iter()
        .map(|&(pa, label)| Sample {
            partition: pa.partition(),
            label,
        })
        .collect();
    let learner = MlpHashLearner::train(
        &samples,
        &MlpConfig {
            epochs: if cfg!(debug_assertions) { 25 } else { 30 },
            ..Default::default()
        },
    );
    // The learner reproduces the marking's own labels almost perfectly.
    let self_acc = learner.accuracy(&samples);
    let floor = if cfg!(debug_assertions) { 0.95 } else { 0.98 };
    assert!(self_acc > floor, "self accuracy {self_acc}");

    // Oracle verification (allowed only in tests).
    let hash = model.channel_hash();
    let (_, acc) = align_classes(&labels, |pa| hash.channel_of(pa), hash.num_channels());
    assert!(acc > 0.95, "marking accuracy vs oracle {acc}");
}

fn smoke_scenario(rate_hz: f64, horizon_us: f64) -> Scenario {
    let spec = GpuModel::RtxA2000.spec();
    let ls = dnn::compile(
        build(ModelId::MobileNetV3),
        &spec,
        CompileOptions::default(),
    );
    let be = dnn::compile(
        build(ModelId::DenseNet161),
        &spec,
        CompileOptions::default(),
    );
    let cfg = TraceConfig {
        mean_rate_hz: rate_hz,
        ..TraceConfig::apollo_like()
    };
    let ls = vec![Task::new(ls, &spec)];
    let be = vec![Task::new(be, &spec)];
    let arrivals = vec![generate(&cfg, horizon_us, 5)];
    Scenario::new(spec, ls, be, 4, arrivals, horizon_us)
}

/// Profile → serve round trip: SGDRC keeps the LS service inside its SLO
/// while the BE task makes steady progress.
#[test]
fn sgdrc_serves_within_slo() {
    let sc = smoke_scenario(120.0, 2.5e6);
    let mut policy = Sgdrc::new(&sc.spec, SgdrcConfig::default());
    let stats = run(&mut policy, &sc);
    let slo = slo_for(sc.ls[0].profile.isolated_e2e_us, 2);
    let m = ls_metrics("A", &stats.ls_completed[0], slo, sc.horizon_us);
    assert!(m.requests > 100, "requests {}", m.requests);
    assert!(m.slo_attainment > 0.95, "attainment {}", m.slo_attainment);
    assert!(
        stats.be_completed[0] > 5,
        "BE inferences {}",
        stats.be_completed[0]
    );
}

/// Fig. 17 shape: SGDRC dominates Orion on BE throughput at equal-or-
/// better SLO attainment, and dominates multi-streaming on attainment.
#[test]
fn sgdrc_beats_orion_and_multistreaming_shapes() {
    let sc = smoke_scenario(250.0, 2.5e6);
    let slo = slo_for(sc.ls[0].profile.isolated_e2e_us, 2);

    let mut sgdrc = Sgdrc::new(&sc.spec, SgdrcConfig::default());
    let s = run(&mut sgdrc, &sc);
    let s_m = ls_metrics("A", &s.ls_completed[0], slo, sc.horizon_us);

    let mut orion = Orion::default();
    let o = run(&mut orion, &sc);
    let o_m = ls_metrics("A", &o.ls_completed[0], slo, sc.horizon_us);

    let mut ms = MultiStreaming;
    let m = run(&mut ms, &sc);
    let m_m = ls_metrics("A", &m.ls_completed[0], slo, sc.horizon_us);

    // With a single light LS model Orion's free-gap BE is competitive;
    // the full-zoo dominance is asserted in the workload runner tests.
    assert!(
        s.be_completed[0] as f64 >= o.be_completed[0] as f64 * 0.85,
        "SGDRC BE {} vs Orion {}",
        s.be_completed[0],
        o.be_completed[0]
    );
    assert!(
        s_m.slo_attainment >= o_m.slo_attainment - 0.02,
        "SGDRC {} vs Orion {}",
        s_m.slo_attainment,
        o_m.slo_attainment
    );
    assert!(
        s_m.slo_attainment > m_m.slo_attainment,
        "SGDRC {} vs multi-streaming {}",
        s_m.slo_attainment,
        m_m.slo_attainment
    );
}

/// The coloring driver and the learned lookup table cooperate: a pool
/// built from a *learned* LUT allocates chunks whose true channels match
/// the requested color.
#[test]
fn learned_lut_drives_correct_coloring() {
    let model = GpuModel::RtxA2000;
    let oracle = model.channel_hash();
    let n = if cfg!(debug_assertions) {
        3_000
    } else {
        12_000
    };
    let train = sgdrc_repro::reveng::synthetic_samples(oracle.as_ref(), 1 << 18, n, 0.05, 3);
    let learner = MlpHashLearner::train(
        &train,
        &MlpConfig {
            epochs: if cfg!(debug_assertions) { 30 } else { 80 },
            ..Default::default()
        },
    );
    let lut = learner.lookup_table(4096 * 4);

    let mut pool = sgdrc_repro::coloring::ColoredPool::new(
        0,
        4096,
        sgdrc_repro::coloring::GranularityKib(2),
        move |p| lut[p as usize] / 2,
    );
    let alloc = pool.alloc_colored(&[1], 128 * 1024).expect("alloc");
    for ch in &alloc.chunks {
        let first_partition = ch.pfn * 4 + ch.sector as u64 * 2;
        let true_group = oracle.channel_of_partition(first_partition) / 2;
        assert_eq!(true_group, 1, "chunk colored with the wrong true group");
    }
}

/// Determinism: the whole serving stack is reproducible bit-for-bit.
#[test]
fn serving_is_deterministic() {
    let sc = smoke_scenario(200.0, 1e6);
    let mut a = Sgdrc::new(&sc.spec, SgdrcConfig::default());
    let ra = run(&mut a, &sc);
    let mut b = Sgdrc::new(&sc.spec, SgdrcConfig::default());
    let rb = run(&mut b, &sc);
    assert_eq!(ra.be_completed, rb.be_completed);
    assert_eq!(ra.be_preemptions, rb.be_preemptions);
    let la: Vec<f64> = ra.ls_completed[0].iter().map(|r| r.done_us).collect();
    let lb: Vec<f64> = rb.ls_completed[0].iter().map(|r| r.done_us).collect();
    assert_eq!(la, lb);
}

/// Cross-level calibration (DESIGN.md): the address-level simulator and
/// the kernel-grain contention model agree on the *direction and rough
/// magnitude* of channel-conflict slowdowns — interleaved same-channel
/// traffic slows a reader down, disjoint channels do not.
#[test]
fn mem_sim_and_exec_sim_contention_shapes_agree() {
    use sgdrc_repro::dnn::kernel::{KernelDesc, KernelKind};
    use sgdrc_repro::exec_sim::{compute_rates, ChannelSet, RunningCtx, TpcMask};

    // -- address level: a victim whose working set fits the L2 re-reads it
    // fast when alone; a co-located thrasher evicts it (the Fig. 3b / §2.2
    // L2-conflict mechanism) and the re-read pays DRAM latency.
    let mut dev = GpuDevice::new(GpuModel::RtxA2000, 32 << 20, 11);
    let victim_bytes: u64 = 1 << 20; // fits the 3 MiB L2
    let thrash_bytes: u64 = 8 << 20; // evicts everything
    let v = dev.malloc(victim_bytes).unwrap();
    let t = dev.malloc(thrash_bytes).unwrap();
    let scan = |dev: &mut GpuDevice, base: sgdrc_repro::gpu_spec::VirtAddr, bytes: u64| -> u64 {
        let mut total = 0;
        let mut off = 0;
        while off < bytes {
            total += dev.read_u64(base.offset(off)).unwrap().1;
            off += 128;
        }
        total
    };
    // Alone: warm pass, then timed re-read (hits).
    dev.flush_l2();
    scan(&mut dev, v, victim_bytes);
    let alone_cycles = scan(&mut dev, v, victim_bytes);
    // Shared: warm pass, thrasher streams, then timed re-read (misses).
    dev.flush_l2();
    scan(&mut dev, v, victim_bytes);
    scan(&mut dev, t, thrash_bytes);
    let shared_cycles = scan(&mut dev, v, victim_bytes);
    let mem_sim_slowdown = shared_cycles as f64 / alone_cycles as f64;

    // -- kernel level: the same experiment through the contention model.
    let spec = GpuModel::RtxA2000.spec();
    let stream = |mask: TpcMask| {
        RunningCtx::new(
            &spec,
            &KernelDesc {
                id: 3,
                name: "stream".into(),
                kind: KernelKind::Elementwise,
                flops: 1e7,
                bytes: 2e8,
                thread_blocks: 256,
                persistent_threads: true,
                colored: false,
                extra_registers: 0,
                tensor_refs: vec![],
            },
            mask,
            ChannelSet::all(&spec),
            1.0,
        )
    };
    let v = stream(TpcMask::first(6));
    let t = stream(TpcMask::range(6, 7));
    let alone = compute_rates(&spec, std::slice::from_ref(&v))[0].duration_us;
    let shared = compute_rates(&spec, &[v, t])[0].duration_us;
    let exec_sim_slowdown = shared / alone;

    assert!(
        mem_sim_slowdown > 1.05,
        "address-level co-traffic must slow the victim ({mem_sim_slowdown})"
    );
    assert!(
        exec_sim_slowdown > 1.05,
        "kernel-level co-traffic must slow the victim ({exec_sim_slowdown})"
    );
    // Rough magnitude agreement: within a factor of 3 of each other.
    let ratio = exec_sim_slowdown / mem_sim_slowdown;
    assert!(
        (0.33..3.0).contains(&ratio),
        "levels disagree: mem-sim {mem_sim_slowdown:.2}x vs exec-sim {exec_sim_slowdown:.2}x"
    );
}
