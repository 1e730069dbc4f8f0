//! §5.3: the DNN hash learner — 15K noisy samples, >99.9% test accuracy —
//! plus the period-finding ablation.
use gpu_spec::GpuModel;
use reveng::learner::{
    oracle_test_set, synthetic_samples, MlpConfig, MlpHashLearner, PeriodLearner,
};

fn main() {
    sgdrc_bench::header("§5.3 — learning the VRAM channel hash mapping");
    for model in [GpuModel::TeslaP40, GpuModel::RtxA2000] {
        let spec = model.spec();
        let oracle = model.channel_hash();
        let span = 1u64 << 20;
        let noise = spec.cache_noise_rate;
        let train = synthetic_samples(oracle.as_ref(), span, 15_000, noise, 1);
        let test = oracle_test_set(oracle.as_ref(), span, 10_000, 2);

        let mlp = MlpHashLearner::train(&train, &MlpConfig::default());
        let acc = mlp.accuracy(&test);
        println!(
            "{:<10} MLP:    {:.3}% test accuracy (15K samples, {:.0}% label noise, {} epochs; paper: >99.9%)",
            spec.name,
            acc * 100.0,
            noise * 100.0,
            mlp.epochs_trained()
        );

        let period = PeriodLearner::train(&train, 1024, 0.002);
        println!(
            "{:<10} period: {:.3}% accuracy (detected period {} partitions, consistency {:.3})",
            spec.name,
            period.accuracy(&test) * 100.0,
            period.period,
            period.consistency
        );
    }
}
