//! Criterion micro-benchmarks for the hot paths of the reproduction:
//! channel-hash evaluation, the coloring index transform, the colored
//! allocator, MLP hash-learner inference, the contention model and a full
//! serving-scenario step.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gpu_spec::{GpuModel, PhysAddr};

fn bench_channel_hash(c: &mut Criterion) {
    let hash = GpuModel::RtxA2000.channel_hash();
    c.bench_function("channel_hash/a2000_1k_lookups", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for p in 0..1024u64 {
                acc += hash.channel_of(black_box(PhysAddr(p * 1024))) as u32;
            }
            acc
        })
    });
}

fn bench_translate(c: &mut Criterion) {
    let g = coloring::GranularityKib(2);
    c.bench_function("coloring/translate_1k_offsets", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for o in 0..1024u64 {
                acc += coloring::translate_offset(black_box(o * 512), g, 1);
            }
            acc
        })
    });
}

fn bench_colored_alloc(c: &mut Criterion) {
    c.bench_function("coloring/alloc_free_64k", |b| {
        let hash = GpuModel::RtxA2000.channel_hash();
        let mut pool = coloring::ColoredPool::new(0, 4096, coloring::GranularityKib(2), move |p| {
            hash.channel_of_partition(p) / 2
        });
        b.iter(|| {
            let a = pool.alloc_colored(&[0], 64 * 1024).expect("alloc");
            pool.free_colored(a.va).expect("free");
        })
    });
}

fn bench_mlp_predict(c: &mut Criterion) {
    let oracle = GpuModel::RtxA2000.channel_hash();
    let train = reveng::synthetic_samples(oracle.as_ref(), 1 << 18, 4000, 0.02, 1);
    let model = reveng::MlpHashLearner::train(
        &train,
        &reveng::MlpConfig {
            epochs: 10,
            ..Default::default()
        },
    );
    c.bench_function("reveng/mlp_predict_1k", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for p in 0..1024u64 {
                acc += model.predict(black_box(p)) as u32;
            }
            acc
        })
    });
}

fn bench_contention_model(c: &mut Criterion) {
    use dnn::kernel::{KernelDesc, KernelKind};
    use exec_sim::{
        compute_rates, compute_rates_into, per_channel_demand, ChannelSet, RunningCtx, TpcMask,
    };
    let spec = GpuModel::RtxA2000.spec();
    let k = KernelDesc {
        id: 1,
        name: "bench".into(),
        kind: KernelKind::Gemm,
        flops: 2e9,
        bytes: 2e7,
        thread_blocks: 128,
        persistent_threads: true,
        colored: false,
        extra_registers: 0,
        tensor_refs: vec![],
    };
    let running = vec![
        RunningCtx::new(
            &spec,
            &k,
            TpcMask::first(6),
            ChannelSet::from_channels(&[2, 3, 4, 5]),
            1.0,
        ),
        RunningCtx::new(
            &spec,
            &k,
            TpcMask::range(6, 7),
            ChannelSet::from_channels(&[0, 1]),
            1.0,
        ),
    ];
    c.bench_function("exec_sim/compute_rates_pair", |b| {
        b.iter(|| compute_rates(black_box(&spec), black_box(&running)))
    });

    // The engine's path (per-channel demands kept from launch,
    // caller-owned output) at 1/2/4 resident kernels — the cost of the
    // rate read the serving loop pays per event.
    for n in [1usize, 2, 4] {
        let running: Vec<RunningCtx> = (0..n)
            .map(|i| {
                RunningCtx::new(
                    &spec,
                    &KernelDesc {
                        kind: if i % 2 == 0 {
                            KernelKind::Gemm
                        } else {
                            KernelKind::Elementwise
                        },
                        bytes: 2e7 * (i + 1) as f64,
                        ..k.clone()
                    },
                    TpcMask::range((3 * i) as u32 % 8, 6),
                    ChannelSet::all(&spec),
                    1.0,
                )
            })
            .collect();
        let per_channel: Vec<f64> = running.iter().map(per_channel_demand).collect();
        let mut out = Vec::new();
        c.bench_function(&format!("exec_sim/compute_rates_into_{n}_kernels"), |b| {
            b.iter(|| {
                compute_rates_into(
                    black_box(&spec),
                    black_box(&running),
                    black_box(&per_channel),
                    &mut out,
                );
                out.len()
            })
        });
    }
}

fn bench_sgdrc_serving(c: &mut Criterion) {
    use dnn::zoo::{build, ModelId};
    use dnn::CompileOptions;
    use sgdrc_core::serving::{run, Scenario, Task};
    use sgdrc_core::{Sgdrc, SgdrcConfig};
    let spec = GpuModel::RtxA2000.spec();
    let ls = Task::new(
        dnn::compile(
            build(ModelId::MobileNetV3),
            &spec,
            CompileOptions::default(),
        ),
        &spec,
    );
    let be = Task::new(
        dnn::compile(
            build(ModelId::DenseNet161),
            &spec,
            CompileOptions::default(),
        ),
        &spec,
    );
    let arrivals: Vec<f64> = (0..20).map(|i| i as f64 * 4000.0).collect();
    let sc = Scenario::new(
        spec.clone(),
        vec![ls],
        vec![be],
        4,
        vec![arrivals],
        100_000.0,
    );
    c.bench_function("serving/sgdrc_100ms_scenario", |b| {
        b.iter(|| {
            let mut policy = Sgdrc::new(&sc.spec, SgdrcConfig::default());
            run(&mut policy, black_box(&sc))
        })
    });
}

fn bench_latency_histogram(c: &mut Criterion) {
    use workload::metrics::LatencyHistogram;
    // A representative short-cell latency population: 1k samples over
    // ~2 decades.
    let samples: Vec<f64> = (0..1024)
        .map(|i| 200.0 + ((i * 2654435761u64 as usize) % 100_000) as f64)
        .collect();
    c.bench_function("metrics/histogram_record_1k", |b| {
        let mut h = LatencyHistogram::new();
        b.iter(|| {
            h.reset();
            for &v in &samples {
                h.record(black_box(v));
            }
            h.count()
        })
    });
    let mut a = LatencyHistogram::new();
    let mut other = LatencyHistogram::new();
    for &v in &samples {
        other.record(v);
    }
    c.bench_function("metrics/histogram_merge", |b| {
        b.iter(|| {
            a.reset();
            a.merge(black_box(&other));
            a.count()
        })
    });
    c.bench_function("metrics/histogram_p99", |b| {
        b.iter(|| black_box(&other).percentile(black_box(99.0)))
    });
}

criterion_group!(
    benches,
    bench_channel_hash,
    bench_translate,
    bench_colored_alloc,
    bench_mlp_predict,
    bench_contention_model,
    bench_sgdrc_serving,
    bench_latency_histogram
);
criterion_main!(benches);
