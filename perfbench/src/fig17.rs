//! `fig17`: one RTX A2000 at the paper's heavy Apollo load, all six
//! sharing systems × the three BE co-locations — the Fig. 17 cell. The
//! exec-sim engine, the serving loop and the six policies do all the
//! work; no fleet code runs. The reported simulated metrics are SGDRC's.

use crate::measure::{cpu_timed, measure, median, mix, Outcome};
use crate::report::{per_layer, Metrics, FLEET_LAYERS, REVENG_LAYERS, SYSTEM_KEYS};
use crate::tracer::{deploy_traced, TimedPolicy, TracedDeployment, Tracer};
use gpu_spec::GpuModel;
use sgdrc_core::serving::{run, ArrivalTrace, RunStats, Scenario, Task};
use std::sync::Arc;
use workload::runner::{
    cell_trace, run_system_scenario_stats, system_result_from_stats, Deployment, EndToEndConfig,
    Load, SystemKind,
};
use workload::{per_service_traces, percentile, slo_for};

const GPU: GpuModel = GpuModel::RtxA2000;
/// Simulated seconds per BE co-location: twice the paper's 8 s, so SGDRC
/// completes about 21,000 LS requests over the three co-locations (the
/// gate asks for 10,000) and a run times several cells.
const HORIZON_US: f64 = 16e6;
/// Set-ups timed before each cell.
const SETUPS_PER_ROUND: usize = 5;

/// The cell's configuration for a benchmark seed.
fn config(seed: u64) -> EndToEndConfig {
    let mut cfg = EndToEndConfig::new(GPU, Load::Heavy);
    cfg.seed = mix(seed, 17);
    cfg.horizon_us = HORIZON_US;
    cfg
}

/// What a user builds before the cell can run: the compiled and
/// profiled model zoo and the shared arrival trace.
fn setup(cfg: &EndToEndConfig) -> (Deployment, Arc<ArrivalTrace>) {
    let dep = Deployment::new(GPU);
    let trace = cell_trace(&dep, cfg);
    (dep, trace)
}

/// Per system (in `SystemKind::all()` order), one `RunStats` per BE
/// co-location.
fn run_cell(
    dep: &Deployment,
    cfg: &EndToEndConfig,
    trace: &Arc<ArrivalTrace>,
) -> Vec<Vec<RunStats>> {
    SystemKind::all()
        .into_iter()
        .map(|s| run_system_scenario_stats(dep, cfg, s, trace))
        .collect()
}

/// The four orderings `runner::tests::fig17_shape_on_a2000_heavy` pins.
fn check_orderings(
    dep: &Deployment,
    cfg: &EndToEndConfig,
    stats: &[Vec<RunStats>],
) -> Result<(), String> {
    let results: Vec<_> = SystemKind::all()
        .into_iter()
        .zip(stats)
        .map(|(s, st)| system_result_from_stats(dep, cfg, s, st))
        .collect();
    let sgdrc = &results[index(SystemKind::Sgdrc)];
    let orion = &results[index(SystemKind::Orion)];
    let ms = &results[index(SystemKind::MultiStreaming)];
    let tgs = &results[index(SystemKind::Tgs)];
    for r in &results {
        if sgdrc.mean_slo_attainment() < r.mean_slo_attainment() - 0.02 {
            return Err(format!(
                "SGDRC SLO attainment {:.3} below {} ({:.3})",
                sgdrc.mean_slo_attainment(),
                r.system,
                r.mean_slo_attainment()
            ));
        }
        if tgs.overall_throughput_hz > r.overall_throughput_hz + 1.0 {
            return Err(format!(
                "TGS overall throughput {:.1} above {} ({:.1})",
                tgs.overall_throughput_hz, r.system, r.overall_throughput_hz
            ));
        }
    }
    if sgdrc.mean_slo_attainment() <= 0.90 {
        return Err(format!(
            "SGDRC SLO attainment {:.3} not above 0.90",
            sgdrc.mean_slo_attainment()
        ));
    }
    if sgdrc.total_be_throughput() <= orion.total_be_throughput() {
        return Err(format!(
            "SGDRC BE throughput {:.1} not above Orion's {:.1}",
            sgdrc.total_be_throughput(),
            orion.total_be_throughput()
        ));
    }
    if ms.mean_slo_attainment() >= sgdrc.mean_slo_attainment() {
        return Err("multi-streaming SLO attainment not below SGDRC's".into());
    }
    Ok(())
}

/// SGDRC's simulated outcome, counted against requests sent.
struct Sim {
    sent: u64,
    completed: u64,
    slo_met: u64,
    /// The simulated metrics of `seeds.json`.
    metrics: Metrics,
}

fn sgdrc_outcome(
    ls_tasks: &[Task],
    be_tasks: &[Task],
    trace: &ArrivalTrace,
    stats: &[RunStats],
) -> Sim {
    let n_services = ls_tasks.len() + 1;
    let slos: Vec<f64> = ls_tasks
        .iter()
        .map(|t| slo_for(t.profile.isolated_e2e_us, n_services))
        .collect();
    let mut lat = Vec::new();
    let mut met = 0u64;
    for st in stats {
        for (t, reqs) in st.ls_completed.iter().enumerate() {
            for r in reqs {
                let l = r.latency_us();
                met += (l <= slos[t]) as u64;
                lat.push(l);
            }
        }
    }
    let sent = (trace.len() * stats.len()) as u64;
    let samples: u64 = stats
        .iter()
        .zip(be_tasks)
        .map(|(st, be)| st.be_completed[0] * be.model.batch as u64)
        .sum();
    let sim_s = HORIZON_US * 1e-6 * stats.len() as f64;
    let mut m = Metrics::new();
    m.put("ls_p50_us", percentile(&lat, 50.0));
    m.put("ls_p999_us", percentile(&lat, 99.9));
    m.put("ls_slo_attainment", met as f64 / sent as f64);
    m.put("be_samples_per_s", samples as f64 / sim_s);
    // No admission control: nothing is refused, shed or dropped.
    m.put("failed_share", 0.0);
    Sim {
        sent,
        completed: lat.len() as u64,
        slo_met: met,
        metrics: m,
    }
}

/// Position of a system in `SystemKind::all()`, the order of every
/// per-system vector here.
fn index(system: SystemKind) -> usize {
    SystemKind::all()
        .iter()
        .position(|&s| s == system)
        .expect("every system is a Fig. 17 system")
}

/// The untraced run: set-up and cell CPU time, SGDRC's outcome.
pub fn measured(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let cfg = config(seed);
    let (m, (dep, trace)) = measure(
        seconds,
        SETUPS_PER_ROUND,
        || Ok(setup(&cfg)),
        |(dep, trace)| Ok(cpu_timed(|| run_cell(dep, &cfg, trace))),
    )?;
    check_orderings(&dep, &cfg, &m.output)?;
    let sim = sgdrc_outcome(
        &dep.ls_tasks,
        &dep.be_tasks,
        &trace,
        &m.output[index(SystemKind::Sgdrc)],
    );
    if sim.completed < 10_000 {
        return Err(format!(
            "SGDRC completed only {} LS requests",
            sim.completed
        ));
    }
    let mut metrics = m.host_metrics();
    metrics.put("goal_met_share", sim.slo_met as f64 / sim.sent as f64);
    Ok(Outcome {
        attempted: m.cpu_s.len() as u64,
        metrics,
        simulated: sim.metrics,
        summary: [format!(
            "fig17: SGDRC LS requests sent {}, completed {}, failed 0 (no admission control)",
            sim.sent, sim.completed,
        )]
        .into_iter()
        .chain(m.timing_lines())
        .collect(),
    })
}

/// What one traced cell produced.
struct TracedCell {
    stats: Vec<Vec<RunStats>>,
    policies: Vec<TimedPolicy>,
    deployment: TracedDeployment,
    trace: Arc<ArrivalTrace>,
}

/// The traced cell: compiles and profiles the zoo model by model, builds
/// the trace, and calls `serving::run` itself for every (system, BE
/// co-location) with a timing wrapper around the policy.
fn traced_cell(cfg: &EndToEndConfig, t: &mut Tracer) -> TracedCell {
    let spec = GPU.spec();
    let deployment = t.span("setup", |t| deploy_traced(GPU, t));
    let trace = t.span("trace.gen", |_| {
        let shape = cfg.trace.scaled(cfg.load.scale());
        Arc::new(ArrivalTrace::new(per_service_traces(
            &shape,
            deployment.ls.len(),
            cfg.horizon_us,
            cfg.seed,
        )))
    });
    let ls: Arc<[Task]> = deployment.ls.clone().into();
    let mut stats = Vec::new();
    let mut policies = Vec::new();
    for (sys, key) in SystemKind::all().into_iter().zip(SYSTEM_KEYS) {
        let mut policy = TimedPolicy::new(sys.make(&spec));
        let per_be = t.span(format!("serving.{key}"), |t| {
            deployment
                .be
                .iter()
                .map(|be| {
                    let scenario = Scenario {
                        spec: spec.clone(),
                        ls: Arc::clone(&ls),
                        be: Arc::from(vec![be.clone()]),
                        ls_instances: cfg.ls_instances,
                        arrivals: Arc::clone(&trace),
                        horizon_us: cfg.horizon_us,
                    };
                    t.span("serving.run", |_| run(&mut policy, &scenario))
                })
                .collect::<Vec<_>>()
        });
        stats.push(per_be);
        policies.push(policy);
    }
    TracedCell {
        stats,
        policies,
        deployment,
        trace,
    }
}

/// The traced run: per-layer metrics, checked against untraced cells.
pub fn traced(seed: u64, seconds: f64, tracer_out: &mut Option<Tracer>) -> Result<Outcome, String> {
    let cfg = config(seed);
    let start = std::time::Instant::now();
    let (dep, trace) = setup(&cfg);
    let reference = run_cell(&dep, &cfg, &trace);
    let mut plain_cpu = Vec::new();
    let mut traced_cpu = Vec::new();
    let mut last = None;
    while traced_cpu.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (plain, t_plain) = cpu_timed(|| run_cell(&dep, &cfg, &trace));
        let mut tracer = Tracer::new();
        let (cell, t_traced) = cpu_timed(|| traced_cell(&cfg, &mut tracer));
        if plain != reference || cell.stats != reference {
            return Err("traced cell's RunStats differ from the untraced cell's".into());
        }
        plain_cpu.push(t_plain);
        traced_cpu.push(t_traced);
        last = Some((cell, tracer, t_traced));
    }
    let (cell, tracer, round) = last.expect("one traced cell");
    let sim = sgdrc_outcome(
        &cell.deployment.ls,
        &cell.deployment.be,
        &cell.trace,
        &cell.stats[index(SystemKind::Sgdrc)],
    );

    let mut m = Metrics::new();
    m.put("dnn.compile_share", tracer.cpu_s("dnn.compile") / round);
    m.put("dnn.kernels", cell.deployment.kernels as f64);
    m.put(
        "profiler.profile_share",
        tracer.cpu_s("profiler.profile") / round,
    );
    m.put("trace.gen_share", tracer.cpu_s("trace.gen") / round);
    m.put("trace.arrivals", cell.trace.len() as f64);
    let events = |st: &[RunStats]| st.iter().map(|s| s.engine_events).sum::<u64>();
    m.put(
        "serving.events",
        cell.stats.iter().map(|st| events(st)).sum::<u64>() as f64,
    );
    for ((key, st), p) in SYSTEM_KEYS.iter().zip(&cell.stats).zip(&cell.policies) {
        let preemptions: u64 = st.iter().map(|s| s.be_preemptions).sum();
        m.put(
            format!("fig17.{key}.share"),
            tracer.cpu_s(&format!("serving.{key}")) / round,
        );
        m.put(format!("fig17.{key}.events"), events(st) as f64);
        m.put(format!("fig17.{key}.be_preemptions"), preemptions as f64);
        m.put(format!("fig17.{key}.dispatches"), p.dispatches as f64);
        m.put(
            format!("fig17.{key}.dispatch_share"),
            p.dispatch_ns as f64 * 1e-9 / round,
        );
    }
    m.put("ops.sent", sim.sent as f64);
    m.put("ops.completed", sim.completed as f64);
    m.put("ops.failed", 0.0);
    m.put("tracing.round_cpu_s", round);
    m.put(
        "tracing.overhead",
        median(&traced_cpu) / median(&plain_cpu) - 1.0,
    );
    // No fleet and no channel recovery run here; with no recorder,
    // `telemetry.overhead` is 0 too.
    m.idle(&per_layer(), FLEET_LAYERS);
    m.idle(&per_layer(), REVENG_LAYERS);
    let cells = traced_cpu.len();
    *tracer_out = Some(tracer);
    Ok(Outcome {
        attempted: cells as u64,
        metrics: m,
        simulated: sim.metrics,
        summary: vec![
            format!(
                "fig17: SGDRC LS requests sent {}, completed {}",
                sim.sent, sim.completed
            ),
            format!("fig17 traced: {cells} traced cells matched the untraced cell exactly"),
        ],
    })
}
