//! Fig. 15: (a) CDF of LS-kernel speedups from VRAM channel isolation
//! (paper: mean 28.7% on P40, 47.5% on A2000); (b) CDF of extra registers
//! used by transformed kernels (~80% zero, >90% under 5).
use dnn::zoo::{build, ModelId};
use dnn::CompileOptions;
use exec_sim::{compute_rates, ChannelSet, RunningCtx, TpcMask};
use gpu_spec::GpuModel;

fn main() {
    for gpu in GpuModel::testbeds() {
        let spec = gpu.spec();
        sgdrc_bench::header(&format!(
            "Fig. 15a — channel-isolation speedup CDF on {}",
            spec.name
        ));
        // Memory-intensive BE kernels (high DRAM throughput) as conflict
        // sources, co-executed with every LS kernel; SMs evenly split via
        // libsmctrl in both groups (§9.1.1).
        let be_model = dnn::compile(
            build(ModelId::DenseNet161),
            &spec,
            CompileOptions::default(),
        );
        let thrasher = be_model
            .kernels
            .iter()
            .max_by(|a, b| a.bytes.total_cmp(&b.bytes))
            .expect("BE model has kernels")
            .clone();
        let half = spec.num_tpcs / 2;
        let ls_set =
            ChannelSet::from_channels(&coloring::split_channels(&spec, 1.0 / 3.0).ls_channels);
        let be_set =
            ChannelSet::from_channels(&coloring::split_channels(&spec, 1.0 / 3.0).be_channels);
        let mut speedups = Vec::new();
        for id in ModelId::ls_models() {
            let m = dnn::compile(build(id), &spec, CompileOptions::default());
            for k in &m.kernels {
                let victim_shared =
                    RunningCtx::new(&spec, k, TpcMask::first(half), ChannelSet::all(&spec), 1.0);
                let thrash_shared = RunningCtx::new(
                    &spec,
                    &thrasher,
                    TpcMask::range(half, spec.num_tpcs - half),
                    ChannelSet::all(&spec),
                    1.0,
                );
                let shared = compute_rates(&spec, &[victim_shared, thrash_shared])[0].duration_us;
                let victim_iso = RunningCtx {
                    channels: ls_set,
                    ..victim_shared
                };
                let thrash_iso = RunningCtx::new(
                    &spec,
                    &thrasher,
                    TpcMask::range(half, spec.num_tpcs - half),
                    be_set,
                    1.0,
                );
                let isolated = compute_rates(&spec, &[victim_iso, thrash_iso])[0].duration_us;
                speedups.push(shared / isolated - 1.0);
            }
        }
        speedups.sort_by(f64::total_cmp);
        let mean = speedups.iter().sum::<f64>() / speedups.len() as f64;
        let q = |p: f64| speedups[((speedups.len() as f64 * p) as usize).min(speedups.len() - 1)];
        println!(
            "kernels={} mean speedup {:.1}% | p10 {:.1}% p50 {:.1}% p90 {:.1}% max {:.1}%",
            speedups.len(),
            mean * 100.0,
            q(0.10) * 100.0,
            q(0.50) * 100.0,
            q(0.90) * 100.0,
            speedups.last().unwrap() * 100.0
        );
        println!("paper: mean 28.7% (P40) / 47.5% (A2000), max 135% / 106.3%");

        sgdrc_bench::header(&format!("Fig. 15b — extra registers CDF on {}", spec.name));
        let mut regs = Vec::new();
        for id in ModelId::all() {
            let mut m = build(id);
            dnn::compiler::apply_coloring(&mut m, &spec, false);
            regs.extend(m.kernels.iter().map(|k| k.extra_registers));
        }
        let total = regs.len();
        let zero = regs.iter().filter(|&&r| r == 0).count();
        let under5 = regs.iter().filter(|&&r| r < 5).count();
        let over10 = regs.iter().filter(|&&r| r > 10).count();
        println!(
            "kernels={} | zero: {:.1}%  <5: {:.1}%  >10: {:.1}% (paper: ~80% zero, >90% under 5)",
            total,
            zero as f64 / total as f64 * 100.0,
            under5 as f64 / total as f64 * 100.0,
            over10 as f64 / total as f64 * 100.0
        );
    }
}
