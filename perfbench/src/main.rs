//! The repository benchmark: four workloads measured from outside the
//! program, through each layer's public functions.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig17 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that reports per-layer metrics
//! and writes its spans to `perfbench/out/`. Either way the last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. A failed correctness check exits non-zero without it.
//! `--workload all` runs every workload, each in its own process.

mod fig17;
mod fleet;
mod host;
mod measure;
mod report;
mod reveng;
mod tracer;

use fleet::Fleet;
use measure::Outcome;
use std::process::ExitCode;
use tracer::Tracer;

const WORKLOADS: [&str; 4] = ["fig17", "fleet8_chaos", "fleet512_stream", "reveng"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<(Outcome, Option<Tracer>), String> {
    let mut tracer = None;
    let outcome = match (args.workload.as_str(), args.trace) {
        ("fig17", false) => fig17::measured(args.seed, args.seconds)?,
        ("fig17", true) => fig17::traced(args.seed, args.seconds, &mut tracer)?,
        ("fleet8_chaos", false) => fleet::measured(Fleet::Chaos8, args.seed, args.seconds)?,
        ("fleet8_chaos", true) => {
            fleet::traced(Fleet::Chaos8, args.seed, args.seconds, &mut tracer)?
        }
        ("fleet512_stream", false) => fleet::measured(Fleet::Stream512, args.seed, args.seconds)?,
        ("fleet512_stream", true) => {
            fleet::traced(Fleet::Stream512, args.seed, args.seconds, &mut tracer)?
        }
        ("reveng", false) => reveng::measured(args.seed, args.seconds)?,
        ("reveng", true) => reveng::traced(args.seed, args.seconds, &mut tracer)?,
        (other, _) => unreachable!("workload {other} passed validation"),
    };
    Ok((outcome, tracer))
}

/// Runs every workload in a child process of its own (so each reports
/// its own peak RSS), relaying their output; fails if any child fails.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut failed = Vec::new();
    for w in WORKLOADS {
        println!("== {w}");
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("starting a workload process");
        if !status.success() {
            failed.push(w);
        }
    }
    if failed.is_empty() {
        println!(
            "all {} workloads passed their correctness checks",
            WORKLOADS.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: failed workloads: {failed:?}");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // One pool worker: on-CPU time then measures the simulation, not
    // cross-core scheduling. The pool reads this once, when first used.
    std::env::set_var("SGDRC_THREADS", "1");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let start = host::Sample::now();
    let (mut outcome, tracer) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "perfbench: {} failed its correctness check: {e}",
                args.workload
            );
            return ExitCode::FAILURE;
        }
    };
    let usage = host::Sample::now().since(&start);
    let workers = rayon::current_pool_workers();
    let cpus = host::detected_cpus();
    let catalogue = if args.trace {
        outcome.metrics.put("host.wall_s", usage.wall_s);
        outcome.metrics.put("host.runq_wait_s", usage.runq_wait_s);
        outcome.metrics.put("host.pool_workers", workers as f64);
        outcome.metrics.put("host.detected_cpus", cpus as f64);
        report::per_layer()
    } else {
        report::end_to_end()
    };
    for line in &outcome.summary {
        println!("{line}");
    }
    println!(
        "host: wall {:.3} s, on-CPU {:.3} s (schedstat), runqueue wait {:.3} s, \
         machine steal {:.2} s, pool workers {workers}, detected CPUs {cpus}",
        usage.wall_s, usage.sched_cpu_s, usage.runq_wait_s, usage.steal_s
    );
    if let Some(t) = tracer {
        let stem = format!("{}-seed{}", args.workload, args.seed);
        match t.write(&stem) {
            Ok(path) => println!("spans: {path}"),
            Err(e) => {
                eprintln!("perfbench: writing spans: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if outcome.simulated.iter().next().is_some() {
        println!("simulated {}", outcome.simulated.to_json());
    }
    for m in outcome.metrics.iter() {
        let unit = catalogue
            .iter()
            .find(|s| s.name == m.name)
            .map_or("?", |s| s.unit);
        println!("  {:<36} {:>16.6} {unit}", m.name, m.value);
    }
    match report::result_line(outcome.attempted, &outcome.metrics, &catalogue) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload reveng --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, "reveng");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse_args(&argv("--workload all")).is_ok());
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope",
            "--workload fig17 --trace 2",
            "--workload fig17 --seconds 0",
            "--workload fig17 --seed",
            "--seed 1",
            "--workload fig17 --colour red",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
