//! Fig. 17: end-to-end evaluation — LS p99 latency, SLO attainment and
//! normalized throughput for every system on both GPUs and both loads.
//! Writes machine-readable results to `fig17_results.json`, then prints
//! the paper's headline numbers derived from the same runs: highest SLO
//! attainment (paper: 99.0% average), overall throughput up to 1.47×
//! Orion's and BE throughput up to 2.36× Orion's.
use gpu_spec::GpuModel;
use workload::metrics::SystemResult;
use workload::runner::{run_cell, Deployment, EndToEndConfig, Load};

/// The cell's highest mean SLO attainment and every system that reaches
/// it exactly, in run order.
fn best_attainment(results: &[SystemResult]) -> (Vec<&str>, f64) {
    let best = results
        .iter()
        .map(SystemResult::mean_slo_attainment)
        .fold(f64::MIN, f64::max);
    let systems = results
        .iter()
        .filter(|r| r.mean_slo_attainment() == best)
        .map(|r| r.system.as_str())
        .collect();
    (systems, best)
}

/// Prints the paper's headline numbers from the Fig. 17 cells, each
/// cell's results in the order `run_cell` returned them.
fn print_headline(cells: &[Vec<SystemResult>]) {
    sgdrc_bench::header("headline numbers (paper values in parentheses)");
    let (mut sgdrc_att, mut overall_gain, mut be_gain) = (Vec::new(), Vec::new(), Vec::new());
    for results in cells {
        let by_name = |name: &str| {
            results
                .iter()
                .find(|r| r.system == name)
                .unwrap_or_else(|| panic!("{name} ran"))
        };
        let (sgdrc, orion) = (by_name("SGDRC"), by_name("Orion"));
        let overall = sgdrc.overall_throughput_hz / orion.overall_throughput_hz;
        sgdrc_att.push(sgdrc.mean_slo_attainment());
        overall_gain.push(overall);
        // Per-BE-model gain (the paper's "up to" is over models).
        for ((name, s), (_, o)) in sgdrc.be_throughput_hz.iter().zip(&orion.be_throughput_hz) {
            if *o > 0.0 {
                be_gain.push((format!("{}/{}/{name}", sgdrc.gpu, sgdrc.load), s / o));
            }
        }
        let (best, att) = best_attainment(results);
        println!(
            "{} / {:<5}: best attainment = {} ({att:.3}); SGDRC overall/Orion = {overall:.2}x",
            sgdrc.gpu,
            sgdrc.load,
            best.join(", "),
        );
    }
    let mean_att = sgdrc_att.iter().sum::<f64>() / sgdrc_att.len() as f64;
    println!(
        "SGDRC mean SLO attainment: {:.1}% (paper: 99.0%)",
        mean_att * 100.0
    );
    let max_overall = overall_gain.iter().cloned().fold(0.0f64, f64::max);
    println!("overall throughput vs Orion: up to {max_overall:.2}x (paper: up to 1.47x)");
    let (at, max_be) = be_gain
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("gains");
    println!("BE throughput vs Orion: up to {max_be:.2}x at {at} (paper: up to 2.36x)");
}

fn main() {
    let mut all = Vec::new();
    let mut cells = Vec::new();
    for gpu in GpuModel::testbeds() {
        let dep = Deployment::cached(gpu);
        for load in [Load::Heavy, Load::Light] {
            let cfg = EndToEndConfig::new(gpu, load);
            sgdrc_bench::header(&format!(
                "Fig. 17 — {} / {} workload",
                dep.spec.name,
                load.name()
            ));
            let mut results = run_cell(&dep, &cfg);
            cells.push(results.clone());
            results.sort_by(|a, b| a.system.cmp(&b.system));
            println!(
                "{:<16} {:>8} {:>10} {:>10} {:>10}",
                "system", "SLO att.", "BE tp (s/s)", "overall", "p99 A (µs)"
            );
            for r in &results {
                println!(
                    "{:<16} {:>8.3} {:>10.1} {:>10.1} {:>10.0}",
                    r.system,
                    r.mean_slo_attainment(),
                    r.total_be_throughput(),
                    r.overall_throughput_hz,
                    r.ls[0].p99_latency_us
                );
            }
            println!("\nper-LS-model p99 latency (µs) / SLO attainment:");
            print!("{:<16}", "system");
            for m in &results[0].ls {
                print!(" {:>14}", m.model);
            }
            println!();
            for r in &results {
                print!("{:<16}", r.system);
                for m in &r.ls {
                    print!(" {:>7.0}/{:>5.2}", m.p99_latency_us, m.slo_attainment);
                }
                println!();
            }
            println!("\nper-BE-model throughput (samples/s):");
            for r in &results {
                let row: Vec<String> = r
                    .be_throughput_hz
                    .iter()
                    .map(|(n, t)| format!("{n}={t:.0}"))
                    .collect();
                println!("{:<16} {}", r.system, row.join("  "));
            }
            all.extend(results);
        }
    }
    let doc = sgdrc_bench::json::Json::Arr(
        all.iter()
            .map(sgdrc_bench::json::system_result_json)
            .collect(),
    );
    std::fs::write("fig17_results.json", doc.pretty()).expect("write results");
    println!("\nwrote fig17_results.json");
    print_headline(&cells);
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::metrics::LsMetrics;

    fn result(system: &str, attainments: &[f64]) -> SystemResult {
        SystemResult {
            system: system.into(),
            gpu: "Tesla P40".into(),
            load: "light".into(),
            ls: attainments
                .iter()
                .map(|&slo_attainment| LsMetrics {
                    model: "m".into(),
                    requests: 1,
                    p99_latency_us: 0.0,
                    mean_latency_us: 0.0,
                    slo_us: 0.0,
                    slo_attainment,
                    goodput_hz: 0.0,
                })
                .collect(),
            be_throughput_hz: Vec::new(),
            overall_throughput_hz: 0.0,
        }
    }

    #[test]
    fn best_attainment_names_every_tied_system() {
        let cell = [
            result("Multi-streaming", &[1.0, 1.0]),
            result("TGS", &[0.5, 1.0]),
            result("Orion", &[1.0, 1.0]),
            result("SGDRC", &[1.0, 1.0]),
        ];
        assert_eq!(
            best_attainment(&cell),
            (vec!["Multi-streaming", "Orion", "SGDRC"], 1.0)
        );
        assert_eq!(best_attainment(&cell[1..2]), (vec!["TGS"], 0.75));
    }
}
