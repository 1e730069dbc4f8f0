//! Ablation: the Ch_BE channel split (§6 fixes it at 1/3).
//!
//! `split_channels` assigns whole contiguous-channel groups, so the
//! sweep runs one row per distinct split: `Ch_BE = g / groups` for
//! `g in 1..groups`, each row labelled with the BE channels it gets.
use coloring::granularity::split_channels;
use gpu_spec::GpuModel;
use sgdrc_core::SgdrcConfig;
use workload::runner::{run_system, Deployment, EndToEndConfig, Load, SystemKind};

fn main() {
    sgdrc_bench::header("ablation — Ch_BE channel fraction (A2000, heavy)");
    let dep = Deployment::cached(GpuModel::RtxA2000);
    let groups = dep.spec.num_channels / dep.spec.contiguous_channels.max(1);
    println!(
        "{:>8} {:>8} {:>10} {:>12} {:>10}",
        "Ch_BE", "BE ch.", "SLO att.", "BE (s/s)", "overall"
    );
    for g in 1..groups {
        let ch_be = f64::from(g) / f64::from(groups);
        let be_channels = split_channels(&dep.spec, ch_be).be_channels.len();
        let mut cfg = EndToEndConfig::new(GpuModel::RtxA2000, Load::Heavy);
        cfg.horizon_us = 3e6;
        cfg.sgdrc = SgdrcConfig {
            ch_be,
            ..Default::default()
        };
        let r = run_system(&dep, &cfg, SystemKind::Sgdrc);
        println!(
            "{ch_be:>8.2} {be_channels:>8} {:>10.3} {:>12.1} {:>10.1}",
            r.mean_slo_attainment(),
            r.total_be_throughput(),
            r.overall_throughput_hz
        );
    }
}
