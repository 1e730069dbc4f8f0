//! The two fleet workloads, driving `ReplicaSim` one arrival at a time
//! through `workload::cluster`:
//!
//! * `fleet8_chaos` — the headline 8-replica fleet with every control
//!   plane layer on (chaos, elastic warm pool, tiers, adaptive Ch_BE);
//! * `fleet512_stream` — 512 A2000 replicas in streaming mode with the
//!   control plane off, where the fleet clock carries the cost.

use crate::measure::{cpu_timed, measure, median, mix, Outcome};
use crate::report::{per_layer, Metrics, FIG17_CELL, REVENG_LAYERS};
use crate::tracer::{deploy_traced, TimedRouter, Tracer};
use gpu_spec::GpuModel;
use sgdrc_core::serving::ArrivalTrace;
use std::time::Instant;
use workload::runner::{Deployment, SystemKind};
use workload::{
    per_service_traces, percentile, run_cluster_prepared, ClusterConfig, ClusterCtx, ClusterResult,
    ControllerConfig, ElasticConfig, FaultEvent, FaultPlan, RouterKind, ScalingPolicyKind,
    TelemetryConfig, TierConfig, TiersConfig, TraceConfig, WarmPoolConfig,
};

/// Which fleet workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fleet {
    Chaos8,
    Stream512,
}

/// Set-ups timed before each fleet run.
const SETUPS_PER_ROUND: usize = 4;

impl Fleet {
    pub fn name(self) -> &'static str {
        match self {
            Fleet::Chaos8 => "fleet8_chaos",
            Fleet::Stream512 => "fleet512_stream",
        }
    }

    fn horizon_us(self) -> f64 {
        match self {
            Fleet::Chaos8 => 16e6,
            Fleet::Stream512 => 2e5,
        }
    }

    fn router(self) -> RouterKind {
        match self {
            Fleet::Chaos8 => RouterKind::P2cSlo,
            Fleet::Stream512 => RouterKind::ShortestBacklog,
        }
    }

    /// The fleet's configuration for a benchmark seed.
    pub fn config(self, seed: u64) -> ClusterConfig {
        let horizon = self.horizon_us();
        match self {
            Fleet::Chaos8 => {
                let mut cfg = ClusterConfig::new(headline_fleet(), SystemKind::Sgdrc);
                cfg.horizon_us = horizon;
                cfg.seed = mix(seed, 8);
                cfg.trace = diurnal_burst_trace(10.0, horizon);
                cfg.controller = ControllerConfig {
                    period_us: 2e4,
                    adaptive_ch_be: true,
                    ..Default::default()
                };
                let mut plan = FaultPlan::new(vec![
                    FaultEvent::crash(0, 0.25 * horizon, f64::INFINITY),
                    FaultEvent::crash(3, 0.5 * horizon, 0.1 * horizon),
                ]);
                plan.degradation.shed_be_backlog = 2;
                cfg.chaos = Some(plan);
                cfg.tiers = Some(three_class_tiers(dnn::zoo::ModelId::ls_models().len()));
                let mut elastic = ElasticConfig::new(
                    WarmPoolConfig::new(vec![GpuModel::RtxA2000; 4]),
                    ScalingPolicyKind::Hold,
                );
                elastic.replace_after_us = 0.04 * horizon;
                cfg.elastic = Some(elastic);
                cfg
            }
            Fleet::Stream512 => {
                let n = 512;
                let mut cfg = ClusterConfig::new(vec![GpuModel::RtxA2000; n], SystemKind::Sgdrc);
                cfg.horizon_us = horizon;
                cfg.seed = mix(seed, 512);
                cfg.trace = diurnal_burst_trace(0.9 * n as f64, horizon);
                cfg.controller.period_us = 5e4;
                cfg.streaming = true;
                cfg
            }
        }
    }

    /// Distinct GPU models the fleet compiles for (configured lanes and
    /// warm pool).
    fn gpu_models(cfg: &ClusterConfig) -> Vec<GpuModel> {
        let mut gpus: Vec<GpuModel> = cfg
            .gpus
            .iter()
            .chain(cfg.elastic.iter().flat_map(|e| e.warm_pool.gpus.iter()))
            .copied()
            .collect();
        gpus.sort_by_key(|g| g.name());
        gpus.dedup();
        gpus
    }
}

/// Five current-generation A2000s and three older GTX 1080s.
fn headline_fleet() -> Vec<GpuModel> {
    use GpuModel::{Gtx1080, RtxA2000};
    vec![
        RtxA2000, RtxA2000, Gtx1080, RtxA2000, Gtx1080, RtxA2000, Gtx1080, RtxA2000,
    ]
}

/// Apollo-like per-service load scaled by `per_service_scale`, bursts
/// sharpened to 2.2×, plus a ±35% diurnal swing of 1.5 cycles per
/// horizon.
fn diurnal_burst_trace(per_service_scale: f64, horizon_us: f64) -> TraceConfig {
    TraceConfig::apollo_like()
        .scaled(per_service_scale)
        .with_bursts(2.2, 0.25)
        .with_diurnal(0.35, horizon_us / 1e6 / 1.5)
}

/// Service 0 Guaranteed (weight 8), the next third Burstable (weight 3),
/// the rest BestEffort (weight 1).
fn three_class_tiers(n_ls: usize) -> TiersConfig {
    let mut t = TiersConfig::new(
        (0..n_ls)
            .map(|task| {
                if task == 0 {
                    TierConfig::guaranteed(8.0)
                } else if task <= n_ls / 3 {
                    TierConfig::burstable(2, 3.0)
                } else {
                    TierConfig::best_effort(3, 1.0)
                }
            })
            .collect(),
    );
    t.enter_backlog = 10;
    t.exit_backlog = 5;
    t.hold_ticks = 2;
    t.queue_capacity = 64;
    t.shed_per_tick = 32;
    t
}

/// What a user builds before the fleet runs: every GPU model's compiled
/// and profiled zoo, then `prepare()` (validation, placement, lane
/// scenarios, SLO tables and — outside streaming mode — the arrival
/// trace). `prepare()` fetches deployments through the process-wide
/// `Deployment::cached` memo, which the caller has already filled, so
/// the explicit `Deployment::new` calls carry the compile cost an empty
/// memo would charge.
fn setup(cfg: &ClusterConfig) -> workload::PreparedCluster {
    for gpu in Fleet::gpu_models(cfg) {
        std::hint::black_box(Deployment::new(gpu));
    }
    cfg.prepare()
}

/// Requests sent, completed and failed (refused, shed or dropped).
struct Counts {
    sent: u64,
    completed: u64,
    failed: u64,
}

/// The correctness gate and layer-coverage guard every fleet run passes.
fn check(fleet: Fleet, r: &ClusterResult) -> Result<Counts, String> {
    // Conservation: every arrival is exactly one of completed, dropped,
    // shed, refused or still in flight.
    let accounted =
        r.requests + r.timeout_drops + r.ls_shed + r.refused_admission + r.in_flight_at_end;
    if r.arrivals_injected != accounted {
        return Err(format!(
            "conservation: {} arrivals != {accounted} accounted",
            r.arrivals_injected
        ));
    }
    for tier in &r.tier_outcomes {
        tier.assert_conserved();
    }
    if r.requests < 10_000 {
        return Err(format!("only {} LS requests completed", r.requests));
    }
    let layers = [
        ("migrations", r.migrations.len() as u64),
        ("requeued", r.requeued),
        ("retries", r.retries),
        ("admission refusals", r.refused_admission),
        ("warm-pool draws", r.warm_hits),
        ("crash replacements", r.replacements),
    ];
    for (layer, n) in layers {
        match fleet {
            Fleet::Chaos8 if n == 0 => return Err(format!("{} saw no {layer}", fleet.name())),
            Fleet::Stream512 if n != 0 => {
                return Err(format!("{} saw {n} {layer}, expected none", fleet.name()))
            }
            _ => {}
        }
    }
    if fleet == Fleet::Stream512 && r.retained_completions != 0 {
        return Err(format!(
            "streaming mode retained {} completions",
            r.retained_completions
        ));
    }
    Ok(Counts {
        sent: r.arrivals_injected,
        completed: r.requests,
        failed: r.refused_admission + r.ls_shed + r.timeout_drops,
    })
}

/// BE samples completed fleet-wide: each lane's per-model inference
/// counts times the model's batch.
fn be_samples(cfg: &ClusterConfig, r: &ClusterResult) -> u64 {
    let mut models = cfg.be_jobs.clone();
    models.sort_unstable();
    models.dedup();
    let dep = Deployment::cached(GpuModel::RtxA2000);
    r.replicas
        .iter()
        .map(|rep| {
            rep.stats
                .be_completed
                .iter()
                .zip(&models)
                .map(|(&n, &m)| n * dep.be_tasks[m].model.batch as u64)
                .sum::<u64>()
        })
        .sum()
}

/// Every completed request's latency, from a run that kept its logs.
fn logged_latencies(r: &ClusterResult) -> Result<Vec<f64>, String> {
    let latencies: Vec<f64> = r
        .replicas
        .iter()
        .flat_map(|rep| rep.stats.ls_completed.iter().flatten())
        .map(|c| c.latency_us())
        .collect();
    if latencies.len() as u64 != r.requests {
        return Err(format!(
            "{} completions logged, {} counted",
            latencies.len(),
            r.requests
        ));
    }
    Ok(latencies)
}

/// A streaming run folds its completion logs into sketches, which
/// resolve a percentile only to its ±0.5% bin. Its retained twin — the
/// same fleet with `streaming` off — must agree with it on everything but
/// the logs (the streaming == retained contract), and lends them for
/// exact percentiles.
fn retained_twin(
    fleet: Fleet,
    cfg: &ClusterConfig,
    streamed: &ClusterResult,
) -> Result<ClusterResult, String> {
    let mut twin_cfg = cfg.clone();
    twin_cfg.streaming = false;
    let twin = run_cluster_prepared(
        &twin_cfg.prepare(),
        fleet.router().make(cfg.seed).as_mut(),
        &mut ClusterCtx::new(),
    );
    let mut without_logs = twin.clone();
    without_logs.retained_completions = 0;
    for rep in &mut without_logs.replicas {
        rep.stats.ls_completed.iter_mut().for_each(Vec::clear);
    }
    if without_logs != *streamed {
        return Err("the streaming run and its retained twin disagree".into());
    }
    Ok(twin)
}

/// The simulated metrics of `seeds.json`, counted against requests sent;
/// latency percentiles are exact sorts of every completion's latency.
fn simulated(
    cfg: &ClusterConfig,
    r: &ClusterResult,
    counts: &Counts,
    latencies: &[f64],
) -> Metrics {
    let sent = counts.sent as f64;
    let mut m = Metrics::new();
    m.put("ls_p50_us", percentile(latencies, 50.0));
    m.put("ls_p999_us", percentile(latencies, 99.9));
    m.put("ls_slo_attainment", r.slo_met as f64 / sent);
    m.put(
        "be_samples_per_s",
        be_samples(cfg, r) as f64 / (cfg.horizon_us * 1e-6),
    );
    m.put("failed_share", counts.failed as f64 / sent);
    m
}

/// Every completed request's latency: from the run's own logs, or — for
/// a streaming run — from its retained twin, which must match it.
fn latencies(fleet: Fleet, cfg: &ClusterConfig, r: &ClusterResult) -> Result<Vec<f64>, String> {
    if cfg.streaming {
        logged_latencies(&retained_twin(fleet, cfg, r)?)
    } else {
        logged_latencies(r)
    }
}

fn summary(fleet: Fleet, c: &Counts, r: &ClusterResult) -> String {
    format!(
        "{}: LS requests sent {}, completed {}, failed {} (refused {}, shed {}, dropped {}), \
         in flight at end {}",
        fleet.name(),
        c.sent,
        c.completed,
        c.failed,
        r.refused_admission,
        r.ls_shed,
        r.timeout_drops,
        r.in_flight_at_end
    )
}

/// The untraced run.
pub fn measured(fleet: Fleet, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let cfg = fleet.config(seed);
    let mut ctx = ClusterCtx::new();
    let (m, _) = measure(
        seconds,
        SETUPS_PER_ROUND,
        || Ok(setup(&cfg)),
        |prep| {
            let mut router = fleet.router().make(cfg.seed);
            Ok(cpu_timed(|| {
                run_cluster_prepared(prep, router.as_mut(), &mut ctx)
            }))
        },
    )?;
    let r = &m.output;
    let counts = check(fleet, r)?;
    let mut metrics = m.host_metrics();
    metrics.put("goal_met_share", r.slo_met as f64 / counts.sent as f64);
    Ok(Outcome {
        attempted: m.cpu_s.len() as u64,
        metrics,
        simulated: simulated(&cfg, r, &counts, &latencies(fleet, &cfg, r)?),
        summary: [summary(fleet, &counts, r)]
            .into_iter()
            .chain(m.timing_lines())
            .collect(),
    })
}

/// The traced run: set-up split into layers, the fleet run with the
/// clock profiler on and a timing wrapper around the router, checked
/// against an untraced run.
pub fn traced(
    fleet: Fleet,
    seed: u64,
    seconds: f64,
    tracer_out: &mut Option<Tracer>,
) -> Result<Outcome, String> {
    let cfg = fleet.config(seed);
    let mut tracer = Tracer::new();
    let kernels: u64 = tracer.span("setup", |t| {
        Fleet::gpu_models(&cfg)
            .into_iter()
            .map(|gpu| deploy_traced(gpu, t).kernels)
            .sum()
    });
    // `prepare()` with the deployment memo filled: the cluster layer's
    // own derivations, without compilation.
    drop(cfg.prepare());
    let prep = tracer.span("cluster.prepare", |_| cfg.prepare());
    // The trace layer on its own: the generation `prepare()` performs in
    // retained mode, or the on-the-fly stream a streaming run drains.
    let arrivals = tracer.span("trace.gen", |_| {
        if cfg.streaming {
            prep.arrival_count()
        } else {
            let per_service = per_service_traces(&cfg.trace, prep.n_ls(), cfg.horizon_us, cfg.seed);
            ArrivalTrace::new(per_service).len()
        }
    });

    let mut ctx = ClusterCtx::new();
    let reference = run_cluster_prepared(&prep, fleet.router().make(cfg.seed).as_mut(), &mut ctx);
    let mut profiled_cfg = cfg.clone();
    profiled_cfg.telemetry = Some(TelemetryConfig::default());
    let profiled_prep = profiled_cfg.prepare();

    let mut plain_cpu = Vec::new();
    let mut recorder_cpu = Vec::new();
    let mut traced_cpu = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while traced_cpu.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (plain, t_plain) = cpu_timed(|| {
            run_cluster_prepared(&prep, fleet.router().make(cfg.seed).as_mut(), &mut ctx)
        });
        let (recorded, t_recorder) = cpu_timed(|| {
            run_cluster_prepared(
                &profiled_prep,
                fleet.router().make(cfg.seed).as_mut(),
                &mut ctx,
            )
        });
        let mut router = TimedRouter::new(fleet.router().make(cfg.seed));
        let (traced, t_traced) = tracer.span("cluster.run", |_| {
            cpu_timed(|| run_cluster_prepared(&profiled_prep, &mut router, &mut ctx))
        });
        let strip = |r: &ClusterResult| ClusterResult {
            telemetry: None,
            ..r.clone()
        };
        if plain != reference || strip(&recorded) != reference || strip(&traced) != reference {
            return Err("traced fleet results differ from the untraced run".into());
        }
        plain_cpu.push(t_plain);
        recorder_cpu.push(t_recorder);
        traced_cpu.push(t_traced);
        last = Some((traced, router, t_traced));
    }
    let (r, router, t_run) = last.expect("one traced run");
    // One traced round: the set-up, `prepare()` and the last traced run.
    // Trace generation happens inside `prepare()` (retained) or inside
    // the run (streaming); its span repeats it on its own.
    let round = tracer.cpu_s("setup") + tracer.cpu_s("cluster.prepare") + t_run;
    let counts = check(fleet, &reference)?;
    let tel = r.telemetry.as_ref().expect("telemetry was on");
    let p = &tel.profile;
    let ns = |v: u64| v as f64 * 1e-9;

    let share = |s: f64| s / round;
    let mut m = Metrics::new();
    m.put("dnn.compile_share", share(tracer.cpu_s("dnn.compile")));
    m.put("dnn.kernels", kernels as f64);
    m.put(
        "profiler.profile_share",
        share(tracer.cpu_s("profiler.profile")),
    );
    m.put("trace.gen_share", share(tracer.cpu_s("trace.gen")));
    m.put("trace.arrivals", arrivals as f64);
    m.put(
        "cluster.prepare_share",
        share(tracer.cpu_s("cluster.prepare")),
    );
    m.put("cluster.lanes", r.replicas.len() as f64);
    m.put("serving.events", r.engine_events as f64);
    m.put("clock.epochs", p.epochs as f64);
    m.put("clock.lanes_advanced", p.lanes_advanced as f64);
    m.put("clock.collect_share", share(ns(p.collect_ns)));
    m.put("clock.advance_share", share(ns(p.advance_ns)));
    m.put("clock.route_share", share(ns(p.route_ns)));
    m.put("clock.tick_share", share(ns(p.tick_ns)));
    m.put("clock.merge_share", share(ns(p.merge_ns)));
    m.put("router.routes", router.routes as f64);
    m.put("router.route_share", share(ns(router.route_ns)));
    m.put("controller.migrations", r.migrations.len() as f64);
    m.put("chaos.requeued", r.requeued as f64);
    m.put("chaos.retries", r.retries as f64);
    m.put("chaos.timeout_drops", r.timeout_drops as f64);
    m.put("degrade.ls_shed", r.ls_shed as f64);
    m.put("degrade.be_shed", r.be_shed as f64);
    m.put("tiers.refused", r.refused_admission as f64);
    m.put(
        "tiers.queued",
        r.tier_outcomes.iter().map(|o| o.queued).sum::<u64>() as f64,
    );
    m.put("elastic.scale_events", r.scale_events.len() as f64);
    m.put("elastic.warm_hits", r.warm_hits as f64);
    m.put("elastic.replacements", r.replacements as f64);
    m.put(
        "telemetry.overhead",
        median(&recorder_cpu) / median(&plain_cpu) - 1.0,
    );
    m.put("telemetry.events", tel.events.len() as f64);
    m.put("telemetry.dropped", tel.dropped_events as f64);
    m.put("ops.sent", counts.sent as f64);
    m.put("ops.completed", counts.completed as f64);
    m.put("ops.failed", counts.failed as f64);
    m.put("tracing.round_cpu_s", round);
    m.put(
        "tracing.overhead",
        median(&traced_cpu) / median(&plain_cpu) - 1.0,
    );
    // The fleets run SGDRC inside their lanes, not the Fig. 17 cell, and
    // recover no channel hash.
    m.idle(&per_layer(), FIG17_CELL);
    m.idle(&per_layer(), REVENG_LAYERS);
    let line = format!(
        "{} traced: {} rounds; recorder-on and traced results matched the untraced run",
        fleet.name(),
        traced_cpu.len()
    );
    *tracer_out = Some(tracer);
    Ok(Outcome {
        attempted: traced_cpu.len() as u64,
        metrics: m,
        simulated: simulated(
            &cfg,
            &reference,
            &counts,
            &latencies(fleet, &cfg, &reference)?,
        ),
        summary: vec![summary(fleet, &counts, &reference), line],
    })
}
