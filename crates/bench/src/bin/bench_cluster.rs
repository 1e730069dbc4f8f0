//! Fleet-simulator benchmark: an 8-replica heterogeneous fleet under a
//! diurnal+burst trace, every sharing system × routing policy, then the
//! chaos, elastic, tiers and telemetry sections and, with
//! `--scale-out`, the big-fleet streaming section. Writes
//! `BENCH_cluster.json`.
//!
//! The headline question is the cluster layer's: with a fleet of
//! spatially-shared GPUs behind one arrival stream, how much fleet-wide
//! goodput and tail latency does the *router* buy, and what does the
//! fleet controller's dynamic BE placement cost or save? Replicas mix
//! GPU models (RTX A2000 + GTX 1080), so blind round-robin overloads the
//! slow third of the fleet during bursts while backlog/SLO-aware routing
//! shifts load.
//!
//! Each section's scenario is defined once, by one function here. The
//! deterministic claims its numbers support are the release-only tests
//! of the `claims` module, which run those scenarios at the section's
//! horizon (`cargo test -q --release -p sgdrc-bench`). The binary
//! exits non-zero only on the two checks no deterministic test can
//! hold: the flight recorder's wall-clock overhead bound, and with
//! `--scale-out` the 512-replica headline's bounded memory over ≥10M
//! arrivals.
//!
//! The fleet clock is single-threaded, so every wall time here is one
//! core's; `SGDRC_THREADS` does not affect this binary.
//!
//! Usage: `bench_cluster [--scale-out] [--trace <path>]`.

use gpu_spec::GpuModel;
use sgdrc_bench::json::Json;
use sgdrc_bench::trace_export::perfetto_trace;
use std::time::Instant;
use workload::chaos::{FaultEvent, FaultKind, FaultPlan};
use workload::cluster::{
    ClusterConfig, ClusterCtx, ClusterResult, ControllerConfig, PreparedCluster, RouterKind,
};
use workload::elastic::{
    ElasticConfig, ScaleCause, ScaleEventKind, ScalingPolicyKind, ThresholdPolicy, WarmPoolConfig,
};
use workload::runner::Deployment;
use workload::telemetry::TelemetryConfig;
use workload::tiers::{TierConfig, TiersConfig};
use workload::trace::TraceConfig;
use workload::SystemKind;

const HEADLINE_HORIZON_US: f64 = 3e6;
const CHAOS_HORIZON_US: f64 = 1.5e6;
const ELASTIC_HORIZON_US: f64 = 2e6;
const TIERS_HORIZON_US: f64 = 1.5e6;
const TELEMETRY_HORIZON_US: f64 = 5e5;
const CURVE_HORIZON_US: f64 = 1e6;
/// Each scale-out curve point repeats its run until its wall and
/// on-CPU seconds both reach this, so the small fleets' figures are not
/// tick-granular.
const MIN_POINT_S: f64 = 0.25;

/// The heterogeneous headline fleet: two thirds current-generation
/// cards, one third older slower ones — the mix a real cluster ages
/// into. (The P40 sits out because MPS does not run on it, §9.3.)
fn headline_fleet() -> Vec<GpuModel> {
    vec![
        GpuModel::RtxA2000,
        GpuModel::RtxA2000,
        GpuModel::Gtx1080,
        GpuModel::RtxA2000,
        GpuModel::Gtx1080,
        GpuModel::RtxA2000,
        GpuModel::Gtx1080,
        GpuModel::RtxA2000,
    ]
}

/// The diurnal+burst cluster stream: Apollo bursts sharpened, plus a
/// ±35% diurnal swing sized so the horizon sees a full cycle.
fn fleet_trace(per_service_scale: f64, horizon_us: f64) -> TraceConfig {
    TraceConfig::apollo_like()
        .scaled(per_service_scale)
        .with_bursts(2.2, 0.25)
        .with_diurnal(0.35, horizon_us / 1e6 / 1.5)
}

/// SGDRC on the headline fleet at the headline load (SLOs met with
/// moderate headroom — the regime where "BE costs no LS goodput"
/// holds), with the adaptive-`Ch_BE` controller. The systems × routers
/// matrix, the chaos section and the telemetry section all start here.
fn headline_cfg(horizon_us: f64) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(headline_fleet(), SystemKind::Sgdrc);
    cfg.horizon_us = horizon_us;
    cfg.trace = fleet_trace(5.5, horizon_us);
    cfg.controller = ControllerConfig {
        period_us: 5e4,
        adaptive_ch_be: true,
        ..Default::default()
    };
    cfg
}

/// `cfg` with its BE jobs removed: the baseline SGDRC's "BE filling
/// costs LS nothing" is measured against.
fn without_be(mut cfg: ClusterConfig) -> ClusterConfig {
    cfg.be_jobs = Vec::new();
    cfg
}

/// `cfg` with retries off: a crash drops what it strands.
fn drop_on_crash(mut cfg: ClusterConfig) -> ClusterConfig {
    cfg.chaos.as_mut().expect("a fault plan").retry.max_retries = 0;
    cfg
}

/// The chaos scenario: a fast replica of the headline fleet dies at
/// midpoint and revives after a quarter of the horizon, with BE parking
/// armed at a low per-alive backlog (2) so BE gives way if the crash
/// makes the survivors queue.
fn chaos_cfg() -> ClusterConfig {
    let h = CHAOS_HORIZON_US;
    let mut cfg = headline_cfg(h);
    let mut plan = FaultPlan::new(vec![FaultEvent::crash(0, 0.5 * h, 0.25 * h)]);
    plan.degradation.shed_be_backlog = 2;
    cfg.chaos = Some(plan);
    cfg
}

/// The cost/SLO frontier: six A2000s sized for the diurnal peak
/// (static), and the same fleet under the threshold autoscaler with
/// four warm lanes in reserve (autoscaled).
fn frontier_arms() -> (ClusterConfig, ClusterConfig) {
    let h = ELASTIC_HORIZON_US;
    let n_peak = 6;
    let mut static_cfg = ClusterConfig::new(vec![GpuModel::RtxA2000; n_peak], SystemKind::Sgdrc);
    static_cfg.horizon_us = h;
    static_cfg.trace = fleet_trace(0.9 * n_peak as f64, h);
    static_cfg.controller.period_us = 5e4;
    let mut auto_cfg = static_cfg.clone();
    // Retirement is terminal — a drained lane never rejoins; re-growth
    // always draws fresh warm lanes. The pool and the floor are sized
    // so the ~1.5 diurnal cycles in the horizon never strand the fleet
    // below trough capacity: min 5 keeps the trough served, and the
    // slow down-cooldown spends at most the pool per cycle.
    let mut e = ElasticConfig::new(
        WarmPoolConfig {
            provision_delay_us: 2e4,
            provision_jitter: 0.2,
            ..WarmPoolConfig::new(vec![GpuModel::RtxA2000; 4])
        },
        ScalingPolicyKind::Threshold(ThresholdPolicy {
            down_ratio: 0.4,
            down_backlog: 2.0,
            ..Default::default()
        }),
    );
    e.min_replicas = 5;
    e.up_cooldown_us = 5e4;
    e.down_cooldown_us = 2e5;
    auto_cfg.elastic = Some(e);
    (static_cfg, auto_cfg)
}

/// Crash replacement: four A2000s loaded so the full fleet holds the
/// SLO but the three-lane remnant is overloaded, replica 0 permanently
/// dead at a quarter of the horizon; with no spare (hole), and with a
/// one-lane warm pool and replacement armed under the hold policy
/// (self-healing).
fn replacement_arms() -> (ClusterConfig, ClusterConfig) {
    let h = ELASTIC_HORIZON_US;
    let n_rep = 4;
    let mut hole_cfg = ClusterConfig::new(vec![GpuModel::RtxA2000; n_rep], SystemKind::Sgdrc);
    hole_cfg.horizon_us = h;
    hole_cfg.trace = fleet_trace(1.8 * n_rep as f64, h);
    hole_cfg.controller.period_us = 5e4;
    hole_cfg.chaos = Some(FaultPlan::new(vec![FaultEvent::crash(
        0,
        0.25 * h,
        f64::INFINITY,
    )]));
    let mut heal_cfg = hole_cfg.clone();
    let mut e = ElasticConfig::new(
        WarmPoolConfig {
            provision_delay_us: 2e4,
            provision_jitter: 0.2,
            ..WarmPoolConfig::new(vec![GpuModel::RtxA2000])
        },
        ScalingPolicyKind::Hold,
    );
    e.min_replicas = 1;
    e.replace_after_us = 0.04 * h;
    heal_cfg.elastic = Some(e);
    (hole_cfg, heal_cfg)
}

/// The canonical three-class tier map: service 0 Guaranteed (weight 8),
/// the next third Burstable (weight 3), the rest BestEffort (weight 1),
/// ladder thresholds sized so the crash + diurnal-peak scenario
/// actually climbs the rungs.
fn bench_tiers(n_ls: usize) -> TiersConfig {
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

/// The tiers scenario: the headline fleet pushed past capacity (trace
/// ×16 through a diurnal peak) with a fast replica permanently dead
/// from a quarter of the horizon — the regime where *something* must be
/// dropped and the arms differ only in what. Three arms on the
/// identical scenario: tiered (the [`bench_tiers`] map), tier-blind (no
/// map: the one-tier ladder parks BE under backlog but cannot tell
/// services apart) and no-BE (tier-blind without BE jobs).
fn tiers_arms() -> (ClusterConfig, ClusterConfig, ClusterConfig) {
    let h = TIERS_HORIZON_US;
    let mut base = ClusterConfig::new(headline_fleet(), SystemKind::Sgdrc);
    base.horizon_us = h;
    base.trace = fleet_trace(16.0, h);
    base.controller = ControllerConfig {
        period_us: 2e4,
        adaptive_ch_be: true,
        ..Default::default()
    };
    let mut plan = FaultPlan::new(vec![FaultEvent::crash(0, 0.25 * h, f64::INFINITY)]);
    // The chaos section's BE-parking threshold: it sets the tier-blind
    // arm's one ladder rung (the tiered arm's map brings its own).
    plan.degradation.shed_be_backlog = 2;
    base.chaos = Some(plan);
    let mut tiered = base.clone();
    tiered.tiers = Some(bench_tiers(base.prepare().n_ls()));
    let no_be = without_be(base.clone());
    (tiered, base, no_be)
}

/// The telemetry scenario: the headline fleet with a fast replica down
/// from 50% to 75% of a short horizon — a trace with faults, requeues,
/// retries and migrations on it — and the flight recorder on.
fn telemetry_cfg() -> ClusterConfig {
    let h = TELEMETRY_HORIZON_US;
    let mut cfg = headline_cfg(h);
    cfg.chaos = Some(FaultPlan::new(vec![FaultEvent::crash(
        0,
        0.5 * h,
        0.25 * h,
    )]));
    cfg.telemetry = Some(TelemetryConfig::default());
    cfg
}

/// A homogeneous streaming A2000 fleet of `nrep` replicas, load ∝ N.
fn scale_cfg(nrep: usize, horizon_us: f64) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(vec![GpuModel::RtxA2000; nrep], SystemKind::Sgdrc);
    cfg.horizon_us = horizon_us;
    cfg.trace = fleet_trace(0.9 * nrep as f64, horizon_us);
    cfg.controller.period_us = 5e4;
    cfg.streaming = true;
    cfg
}

/// Runs a prepared scenario once under `router`: the result and the
/// run's wall seconds (preparation excluded).
fn run(prep: &PreparedCluster, router: RouterKind, ctx: &mut ClusterCtx) -> (ClusterResult, f64) {
    let mut router = router.make(prep.config().seed);
    let start = Instant::now();
    let r = workload::run_cluster_prepared(prep, router.as_mut(), ctx);
    (r, start.elapsed().as_secs_f64())
}

/// Delivered fraction of the injected arrivals.
fn availability(r: &ClusterResult) -> f64 {
    r.requests as f64 / r.arrivals_injected.max(1) as f64
}

/// Σ tier weight × on-SLO completions per second, scoring every arm
/// (tier-blind ones included) with the tier map's weights.
fn weighted_goodput_hz(r: &ClusterResult, tiers: &TiersConfig) -> f64 {
    let weights: Vec<f64> = tiers.tiers.iter().map(|t| t.weight).collect();
    r.weighted_slo_met_with(&weights) / (TIERS_HORIZON_US / 1e6)
}

/// Delivered fraction of the Guaranteed service's arrivals (task 0 is
/// the only tier-1 member of [`bench_tiers`]).
fn tier1_availability(r: &ClusterResult) -> f64 {
    r.completed_by_task[0] as f64 / r.arrivals_by_task[0].max(1) as f64
}

fn fleet_json(r: &ClusterResult, wall_s: f64) -> Json {
    Json::obj()
        .set("goodput_hz", r.goodput_hz)
        .set("fleet_p99_us", r.fleet_percentile(99.0))
        .set("slo_attainment", r.slo_attainment())
        .set("requests", r.requests)
        .set("be_completed", r.be_completed)
        .set("be_migrations", r.migrations.len())
        .set("be_preemptions", r.be_preemptions)
        .set("engine_events", r.engine_events)
        .set("wall_s", wall_s)
}

/// One chaos arm, including the `fault_events` attribution block that
/// makes a bench run self-describing.
fn chaos_arm_json(r: &ClusterResult, wall_s: f64) -> Json {
    Json::obj()
        .set("availability", availability(r))
        .set("goodput_hz", r.goodput_hz)
        .set("slo_attainment", r.slo_attainment())
        .set("requests", r.requests)
        .set("arrivals_injected", r.arrivals_injected)
        .set("in_flight_at_end", r.in_flight_at_end)
        .set("redispatch_p99_us", r.redispatch_hist.percentile(99.0))
        .set("wall_s", wall_s)
        .set(
            "fault_events",
            Json::obj()
                .set("injected", r.faults_injected)
                .set("recovered", r.faults_recovered)
                .set("requeued", r.requeued)
                .set("retried", r.retries)
                .set("dropped", r.timeout_drops)
                .set("ls_shed", r.ls_shed)
                .set("be_shed", r.be_shed),
        )
}

/// Serializes a `FaultPlan` so any run can be replayed from the bench
/// JSON: rebuild the events with `FaultEvent::crash`/`::slowdown` (or
/// struct literals), restore `retry` and `degradation`, and pass the
/// plan through `ClusterConfig::chaos`. The heartbeat, backoff and
/// deadline timings are the `workload::chaos` constants
/// (`HEARTBEAT_TIMEOUT_US`, `RETRY_BACKOFF_US`, `REQUEST_DEADLINE_US`).
fn plan_json(plan: &FaultPlan) -> Json {
    Json::obj()
        .set(
            "retry",
            Json::obj().set("max_retries", plan.retry.max_retries as u64),
        )
        .set(
            "degradation",
            Json::obj().set("shed_be_backlog", plan.degradation.shed_be_backlog),
        )
        .set(
            "events",
            Json::Arr(
                plan.events
                    .iter()
                    .map(|e| {
                        Json::obj()
                            .set("at_us", e.at_us)
                            .set("replica", e.replica)
                            .set("kind", Json::Str(e.kind.name().into()))
                            .set("factor", e.factor)
                            .set("duration_us", e.duration_us)
                    })
                    .collect(),
            ),
        )
}

/// The chaos section: the crash scenario as three arms (`requeue`, the
/// `drop_on_crash` ablation, the `no_be_baseline`), a no-claim thermal
/// throttle arm, and an outage-length sweep of requeue vs drop.
fn run_chaos_bench(ctx: &mut ClusterCtx) -> Json {
    sgdrc_bench::header("chaos — crash at midpoint: requeue vs drop-on-crash vs no-BE");
    let h = CHAOS_HORIZON_US;
    let cfg = chaos_cfg();
    let (requeue, requeue_wall) = run(&cfg.prepare(), RouterKind::ShortestBacklog, ctx);
    let drop_cfg = drop_on_crash(cfg.clone());
    let (drop, drop_wall) = run(&drop_cfg.prepare(), RouterKind::ShortestBacklog, ctx);
    let no_be_cfg = without_be(cfg.clone());
    let (no_be, no_be_wall) = run(&no_be_cfg.prepare(), RouterKind::ShortestBacklog, ctx);
    for (name, r, wall) in [
        ("requeue", &requeue, requeue_wall),
        ("drop_on_crash", &drop, drop_wall),
        ("no_be_baseline", &no_be, no_be_wall),
    ] {
        println!(
            "{name:>16}: avail {:>6.2}%  goodput {:>7.1}/s  SLO {:>5.1}%  requeued {:>4}  retried {:>4}  dropped {:>4}  BE shed {:>2}  {:>5.2}s",
            availability(r) * 100.0,
            r.goodput_hz,
            r.slo_attainment() * 100.0,
            r.requeued,
            r.retries,
            r.timeout_drops,
            r.be_shed,
            wall,
        );
    }

    // Availability-under-failure curve: outage length sweeps up,
    // requeue vs drop-on-crash at each point.
    let mut curve = Vec::new();
    for frac in [0.1, 0.25, 0.45] {
        let mut rq_cfg = cfg.clone();
        rq_cfg.chaos = Some(FaultPlan::new(vec![FaultEvent::crash(
            0,
            0.4 * h,
            frac * h,
        )]));
        let dr_cfg = drop_on_crash(rq_cfg.clone());
        let (rq, rq_wall) = run(&rq_cfg.prepare(), RouterKind::ShortestBacklog, ctx);
        let (dr, dr_wall) = run(&dr_cfg.prepare(), RouterKind::ShortestBacklog, ctx);
        println!(
            "outage {:>4.0}% of horizon: requeue avail {:>6.2}% goodput {:>7.1}/s  |  drop avail {:>6.2}% goodput {:>7.1}/s",
            frac * 100.0,
            availability(&rq) * 100.0,
            rq.goodput_hz,
            availability(&dr) * 100.0,
            dr.goodput_hz
        );
        curve.push(
            Json::obj()
                .set("down_frac", frac)
                .set("requeue", chaos_arm_json(&rq, rq_wall))
                .set("drop_on_crash", chaos_arm_json(&dr, dr_wall)),
        );
    }

    // The slowest GTX 1080 drops to 60% clocks through the middle half,
    // and dynamic SGDRC re-prepares its contexts at the scaled spec.
    let mut throttle_cfg = cfg.clone();
    throttle_cfg.chaos = Some(FaultPlan::new(vec![FaultEvent::slowdown(
        FaultKind::Throttle,
        2,
        0.25 * h,
        0.6,
        0.5 * h,
    )]));
    let (throttle, throttle_wall) = run(&throttle_cfg.prepare(), RouterKind::ShortestBacklog, ctx);
    println!(
        "        throttle: avail {:>6.2}%  goodput {:>7.1}/s  SLO {:>5.1}%  (GTX 1080 @60% clocks)",
        availability(&throttle) * 100.0,
        throttle.goodput_hz,
        throttle.slo_attainment() * 100.0,
    );

    Json::obj()
        .set(
            "scenario",
            Json::obj()
                .set("system", "SGDRC")
                .set("router", "shortest_backlog")
                .set("horizon_us", h)
                .set("plan", plan_json(cfg.chaos.as_ref().expect("a fault plan"))),
        )
        .set(
            "arms",
            Json::obj()
                .set("requeue", chaos_arm_json(&requeue, requeue_wall))
                .set("drop_on_crash", chaos_arm_json(&drop, drop_wall))
                .set("no_be_baseline", chaos_arm_json(&no_be, no_be_wall))
                .set("throttle", chaos_arm_json(&throttle, throttle_wall)),
        )
        .set("outage_curve", Json::Arr(curve))
}

/// One arm of the elastic section: serving quality plus the membership
/// accounting that prices it — replica-seconds, warm-pool hit/miss,
/// provisioning-delay attribution, drain/handoff counts.
fn elastic_arm_json(r: &ClusterResult, wall_s: f64) -> Json {
    let count_cause = |cause: ScaleCause| {
        r.scale_events
            .iter()
            .filter(
                |ev| matches!(ev.kind, ScaleEventKind::Provision { cause: c, .. } if c == cause),
            )
            .count()
    };
    Json::obj()
        .set("availability", availability(r))
        .set("goodput_hz", r.goodput_hz)
        .set("slo_attainment", r.slo_attainment())
        .set("fleet_p99_us", r.fleet_percentile(99.0))
        .set("requests", r.requests)
        .set("arrivals_injected", r.arrivals_injected)
        .set("replica_seconds", r.replica_seconds)
        .set("wall_s", wall_s)
        .set(
            "membership",
            Json::obj()
                .set("scale_events", r.scale_events.len())
                .set("provisions_load", count_cause(ScaleCause::Load))
                .set(
                    "provisions_crash_replace",
                    count_cause(ScaleCause::CrashReplace),
                )
                .set("warm_hits", r.warm_hits)
                .set("warm_misses", r.warm_misses)
                .set("provision_delay_total_us", r.provision_delay_total_us)
                .set("drains_started", r.drains_started)
                .set("drains_completed", r.drains_completed)
                .set("drain_requeued", r.drain_requeued)
                .set("replacements", r.replacements),
        )
}

/// The elastic section's two comparisons: the threshold autoscaler
/// against the static peak fleet (cost vs SLO), and crash replacement
/// against a fleet left with a hole.
fn run_elastic_bench(ctx: &mut ClusterCtx) -> Json {
    sgdrc_bench::header("elastic — autoscaling vs static peak, crash replacement vs a hole");
    let (static_cfg, auto_cfg) = frontier_arms();
    let (stat, stat_wall) = run(&static_cfg.prepare(), RouterKind::ShortestBacklog, ctx);
    let (auto_r, auto_wall) = run(&auto_cfg.prepare(), RouterKind::ShortestBacklog, ctx);
    let saved = 1.0 - auto_r.replica_seconds / stat.replica_seconds;
    let n_peak = static_cfg.gpus.len();
    println!(
        "   static peak ×{n_peak}: SLO {:>5.1}%  goodput {:>7.1}/s  {:>7.1} replica-s  {:>5.2}s",
        stat.slo_attainment() * 100.0,
        stat.goodput_hz,
        stat.replica_seconds,
        stat_wall
    );
    println!(
        "  threshold auto: SLO {:>5.1}%  goodput {:>7.1}/s  {:>7.1} replica-s ({:>4.1}% saved)  warm {}h/{}m  {:>5.2}s",
        auto_r.slo_attainment() * 100.0,
        auto_r.goodput_hz,
        auto_r.replica_seconds,
        saved * 100.0,
        auto_r.warm_hits,
        auto_r.warm_misses,
        auto_wall
    );

    let (hole_cfg, heal_cfg) = replacement_arms();
    let (hole, hole_wall) = run(&hole_cfg.prepare(), RouterKind::ShortestBacklog, ctx);
    let (heal, heal_wall) = run(&heal_cfg.prepare(), RouterKind::ShortestBacklog, ctx);
    println!(
        "  no replacement: avail {:>6.2}%  goodput {:>7.1}/s  {:>5.2}s",
        availability(&hole) * 100.0,
        hole.goodput_hz,
        hole_wall
    );
    println!(
        "    self-healing: avail {:>6.2}%  goodput {:>7.1}/s  replacements {}  {:>5.2}s",
        availability(&heal) * 100.0,
        heal.goodput_hz,
        heal.replacements,
        heal_wall
    );

    let auto_e = auto_cfg.elastic.as_ref().expect("autoscaled arm");
    let heal_e = heal_cfg.elastic.as_ref().expect("healing arm");
    let crash = hole_cfg.chaos.as_ref().expect("crash plan").events[0];
    let h = ELASTIC_HORIZON_US;
    Json::obj()
        .set("horizon_us", h)
        .set(
            "frontier",
            Json::obj()
                .set("peak_replicas", n_peak)
                .set("trace", "diurnal ±35% + apollo bursts, load sized for peak")
                .set(
                    "policy",
                    Json::obj()
                        .set("kind", auto_e.policy.name())
                        .set("min_replicas", auto_e.min_replicas)
                        .set("warm_pool", auto_e.warm_pool.gpus.len())
                        .set("provision_delay_us", auto_e.warm_pool.provision_delay_us)
                        .set("up_cooldown_us", auto_e.up_cooldown_us)
                        .set("down_cooldown_us", auto_e.down_cooldown_us),
                )
                .set("static_peak", elastic_arm_json(&stat, stat_wall))
                .set("autoscaled", elastic_arm_json(&auto_r, auto_wall))
                .set("replica_seconds_saved_frac", saved),
        )
        .set(
            "crash_replacement",
            Json::obj()
                .set("replicas", hole_cfg.gpus.len())
                .set(
                    "scenario",
                    format!(
                        "replica {} permanently dead at {}% of horizon",
                        crash.replica,
                        100.0 * crash.at_us / h
                    ),
                )
                .set("replace_after_us", heal_e.replace_after_us)
                .set("no_replacement", elastic_arm_json(&hole, hole_wall))
                .set("self_healing", elastic_arm_json(&heal, heal_wall)),
        )
}

/// Per-arm tier attribution: group the per-service ledgers by the tier
/// map — the same grouping `tier_outcomes` reports for the tiered arm —
/// so tier-blind arms are comparable tier by tier.
fn tier_attribution_json(r: &ClusterResult, tiers: &TiersConfig) -> Json {
    let mut arr = Vec::new();
    for id in tiers.tier_ids() {
        let tasks: Vec<usize> = (0..tiers.tiers.len())
            .filter(|&t| tiers.tiers[t].tier == id)
            .collect();
        let sum = |v: &[u64]| tasks.iter().map(|&t| v[t]).sum::<u64>();
        arr.push(
            Json::obj()
                .set("tier", id as u64)
                .set(
                    "class",
                    Json::Str(tiers.tiers[tasks[0]].class.name().into()),
                )
                .set("weight", tiers.tiers[tasks[0]].weight)
                .set("arrivals", sum(&r.arrivals_by_task))
                .set("completed", sum(&r.completed_by_task))
                .set("slo_met", sum(&r.slo_met_by_task)),
        );
    }
    Json::Arr(arr)
}

/// The tiered-SLO section: the [`tiers_arms`] scenario, each arm's
/// weighted goodput, tier-1 availability and per-tier attribution, and
/// the tiered arm's full ledger.
fn run_tiers_bench(ctx: &mut ClusterCtx) -> Json {
    sgdrc_bench::header("tiers — tiered SLOs vs tier-blind shedding under crash + diurnal peak");
    let (tiered_cfg, blind_cfg, no_be_cfg) = tiers_arms();
    let tiers = tiered_cfg.tiers.clone().expect("tiered arm");
    let (tiered, tiered_wall) = run(&tiered_cfg.prepare(), RouterKind::ShortestBacklog, ctx);
    let (blind, blind_wall) = run(&blind_cfg.prepare(), RouterKind::ShortestBacklog, ctx);
    let (no_be, no_be_wall) = run(&no_be_cfg.prepare(), RouterKind::ShortestBacklog, ctx);
    for (name, r, wall) in [
        ("tiered", &tiered, tiered_wall),
        ("tier_blind", &blind, blind_wall),
        ("no_be", &no_be, no_be_wall),
    ] {
        println!(
            "{name:>12}: goodput_w {:>8.1}/s  tier-1 avail {:>6.2}%  refused {:>5}  shed {:>5}  dropped {:>5}  {:>5.2}s",
            weighted_goodput_hz(r, &tiers),
            tier1_availability(r) * 100.0,
            r.refused_admission,
            r.ls_shed,
            r.timeout_drops,
            wall,
        );
    }

    let arm_json = |r: &ClusterResult, wall: f64| {
        Json::obj()
            .set("weighted_goodput_hz", weighted_goodput_hz(r, &tiers))
            .set("tier1_availability", tier1_availability(r))
            .set("goodput_hz", r.goodput_hz)
            .set("slo_attainment", r.slo_attainment())
            .set("requests", r.requests)
            .set("arrivals_injected", r.arrivals_injected)
            .set("refused_admission", r.refused_admission)
            .set("ls_shed", r.ls_shed)
            .set("timeout_drops", r.timeout_drops)
            .set("wall_s", wall)
            .set("by_tier", tier_attribution_json(r, &tiers))
    };
    let outcomes_json = Json::Arr(
        tiered
            .tier_outcomes
            .iter()
            .map(|o| {
                Json::obj()
                    .set("tier", o.tier as u64)
                    .set("class", Json::Str(o.class.name().into()))
                    .set("weight", o.weight)
                    .set("arrivals", o.arrivals)
                    .set("admitted", o.admitted)
                    .set("queued", o.queued)
                    .set("refused_overload", o.refused_overload)
                    .set("refused_queue_full", o.refused_queue_full)
                    .set("shed", o.shed)
                    .set("timeout_drops", o.timeout_drops)
                    .set("completed", o.completed)
                    .set("slo_met", o.slo_met)
                    .set("in_flight_at_end", o.in_flight_at_end)
                    .set("weighted_goodput_hz", o.weighted_goodput_hz)
            })
            .collect(),
    );
    Json::obj()
        .set("horizon_us", TIERS_HORIZON_US)
        .set(
            "scenario",
            Json::obj()
                .set("trace_scale", 16.0)
                .set("crash", "replica 0 permanently dead at 25% of horizon")
                .set(
                    "tier_map",
                    "service 0 guaranteed w8 | next third burstable w3 | rest best-effort w1",
                ),
        )
        .set(
            "arms",
            Json::obj()
                .set("tiered", arm_json(&tiered, tiered_wall))
                .set("tier_blind", arm_json(&blind, blind_wall))
                .set("no_be", arm_json(&no_be, no_be_wall)),
        )
        .set("tier_outcomes", outcomes_json)
}

/// The telemetry section: the flight recorder's cost on the
/// [`telemetry_cfg`] scenario, recorder off vs on — the wall clock of
/// each arm is the minimum of seven runs, *interleaved* (off, on, off,
/// on, …) after a warmup pair so box-load drift lands on both arms
/// equally. Its overhead must stay within 5%. With `--trace <path>` the
/// recorder-on run is exported as a Perfetto `trace.json`.
///
/// Returns the JSON section and whether the overhead bound held.
fn run_telemetry_bench(trace_path: Option<&str>, ctx: &mut ClusterCtx) -> (Json, bool) {
    sgdrc_bench::header("telemetry — flight recorder overhead + trace export");
    let on_cfg = telemetry_cfg();
    let mut off_cfg = on_cfg.clone();
    off_cfg.telemetry = None;
    let (prep_off, prep_on) = (off_cfg.prepare(), on_cfg.prepare());
    run(&prep_off, RouterKind::ShortestBacklog, ctx);
    let (mut on, _) = run(&prep_on, RouterKind::ShortestBacklog, ctx);
    let (mut off_s, mut on_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        off_s = off_s.min(run(&prep_off, RouterKind::ShortestBacklog, ctx).1);
        let (r, t) = run(&prep_on, RouterKind::ShortestBacklog, ctx);
        on_s = on_s.min(t);
        on = r;
    }

    let tel = on.telemetry.as_ref().expect("recorder was enabled");
    let overhead = on_s / off_s - 1.0;
    let overhead_ok = overhead <= 0.05;
    let prof = &tel.profile;
    println!(
        "recorder off {off_s:>6.3}s | on {on_s:>6.3}s | overhead {:>+5.1}% (bound ≤5%: {overhead_ok})",
        overhead * 100.0
    );
    println!(
        "events {} (dropped {}) | ticks {} | series {} | epochs {} | lanes advanced {}",
        tel.events.len(),
        tel.dropped_events,
        tel.tick_us.len(),
        tel.series.len(),
        prof.epochs,
        prof.lanes_advanced,
    );
    println!(
        "phase ms: collect {:.2} advance {:.2} route {:.2} tick {:.2} merge {:.2} telemetry {:.2} total {:.2}",
        prof.collect_ns as f64 / 1e6,
        prof.advance_ns as f64 / 1e6,
        prof.route_ns as f64 / 1e6,
        prof.tick_ns as f64 / 1e6,
        prof.merge_ns as f64 / 1e6,
        prof.telemetry_ns as f64 / 1e6,
        prof.total_ns as f64 / 1e6,
    );

    let mut trace_json = Json::obj().set("exported", false);
    if let Some(path) = trace_path {
        let doc = perfetto_trace(&on).expect("recorder-on run carries telemetry");
        let n_events = match &doc {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == "traceEvents")
                .map(|(_, v)| match v {
                    Json::Arr(a) => a.len(),
                    _ => 0,
                })
                .unwrap_or(0),
            _ => 0,
        };
        std::fs::write(path, doc.pretty()).expect("write trace file");
        println!("wrote {path} ({n_events} trace events) — open at https://ui.perfetto.dev");
        trace_json = Json::obj()
            .set("exported", true)
            .set("path", path)
            .set("trace_events", n_events);
    }

    let section = Json::obj()
        .set(
            "scenario",
            Json::obj()
                .set("system", "SGDRC")
                .set("router", "shortest_backlog")
                .set("horizon_us", TELEMETRY_HORIZON_US)
                .set("fault", "crash replica 0 at 50%, recover after 25%"),
        )
        .set(
            "recorder",
            Json::obj()
                .set("ring_capacity", tel.ring_capacity)
                .set("events", tel.events.len())
                .set("dropped_events", tel.dropped_events)
                .set("ticks", tel.tick_us.len())
                .set("series", tel.series.len()),
        )
        .set(
            "profile_ms",
            Json::obj()
                .set("epochs", prof.epochs)
                .set("lanes_advanced", prof.lanes_advanced)
                .set("collect", prof.collect_ns as f64 / 1e6)
                .set("advance", prof.advance_ns as f64 / 1e6)
                .set("route", prof.route_ns as f64 / 1e6)
                .set("tick", prof.tick_ns as f64 / 1e6)
                .set("merge", prof.merge_ns as f64 / 1e6)
                .set("telemetry", prof.telemetry_ns as f64 / 1e6)
                .set("total", prof.total_ns as f64 / 1e6),
        )
        .set(
            "overhead",
            Json::obj()
                .set("off_wall_s", off_s)
                .set("on_wall_s", on_s)
                .set("overhead_frac", overhead)
                .set("overhead_le_5pct", overhead_ok),
        )
        .set("trace", trace_json);
    (section, overhead_ok)
}

/// Peak resident set (`VmHWM`) of this process in MiB, read from
/// `/proc/self/status`. Process-wide and monotone, so it bounds every
/// section run so far — good enough to show the 10M-request streaming
/// run did not accumulate per-request state. NaN off Linux.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// On-CPU seconds of every thread of this process so far: the sum of
/// field 1 (nanoseconds on CPU) of `/proc/self/task/*/schedstat`, as of
/// each thread's last scheduler tick. NaN off Linux. Unlike wall time it
/// leaves out the time a busy host keeps this process waiting.
fn process_cpu_s() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return f64::NAN;
    };
    let ns: u64 = tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    ns as f64 / 1e9
}

/// The `--scale-out` section: the streaming fleet clock from 1 to 512
/// replicas. Records a 1→512 scaling curve, each point the per-run
/// mean of as many runs as fill [`MIN_POINT_S`], and a
/// 512-replica ≥10M-request streaming headline with bounded memory
/// (zero retained completion records, peak RSS recorded).
///
/// Returns the JSON section and whether the headline check passed.
fn run_scale_out() -> (Json, bool) {
    sgdrc_bench::header("scale-out — SoA lanes, busy-set scan, streaming mode");
    let mut ctx = ClusterCtx::new();

    let mut points = Vec::new();
    for nrep in [1, 4, 16, 64, 256, 512] {
        let prep = scale_cfg(nrep, CURVE_HORIZON_US).prepare();
        // Warm pass (deployments, contexts), then measure.
        run(&prep, RouterKind::ShortestBacklog, &mut ctx);
        // Wall and on-CPU time span the same loop; `min` ignores a NaN
        // on-CPU figure (off Linux).
        let (start, cpu_start, mut reps) = (Instant::now(), process_cpu_s(), 0u32);
        let r = loop {
            let r = run(&prep, RouterKind::ShortestBacklog, &mut ctx).0;
            reps += 1;
            let spent = start
                .elapsed()
                .as_secs_f64()
                .min(process_cpu_s() - cpu_start);
            if spent >= MIN_POINT_S {
                break r;
            }
        };
        let wall_s = start.elapsed().as_secs_f64() / f64::from(reps);
        let cpu_s = (process_cpu_s() - cpu_start) / f64::from(reps);
        let eps = r.engine_events as f64 / wall_s;
        let eps_cpu = r.engine_events as f64 / cpu_s;
        println!(
            "{nrep:>4} replicas: {:>8} req  {:>10.0} events/s (wall)  {:>10.0} events/s (on-CPU)  \
             retained {}  {:>6.3}s wall  {:>6.3}s on-CPU per run ×{reps}",
            r.requests, eps, eps_cpu, r.retained_completions, wall_s, cpu_s
        );
        points.push(
            Json::obj()
                .set("replicas", nrep)
                .set("trace_scale", 0.9 * nrep as f64)
                .set("requests", r.requests)
                .set("goodput_hz", r.goodput_hz)
                .set("slo_attainment", r.slo_attainment())
                .set("retained_completions", r.retained_completions)
                .set("repetitions", u64::from(reps))
                .set("wall_s", wall_s)
                .set("events_per_wall_s", eps)
                .set("cpu_s", cpu_s)
                .set("events_per_cpu_s", eps_cpu),
        );
    }

    // --- 512-replica ≥10M-request streaming headline ----------------------
    let n = 512;
    // The diurnal+burst trace at 0.9·512 per-service scale injects
    // ≈0.25M requests per simulated second: 50 sim-seconds drives
    // ≈12.5M requests through the fleet.
    let horizon = 5e7;
    let rss_before_mib = peak_rss_mib();
    let prep = scale_cfg(n, horizon).prepare();
    let cpu_start = process_cpu_s();
    let (r, wall_s) = run(&prep, RouterKind::ShortestBacklog, &mut ctx);
    let cpu_s = process_cpu_s() - cpu_start;
    let rss_after_mib = peak_rss_mib();
    let eps = r.engine_events as f64 / wall_s;
    let eps_cpu = r.engine_events as f64 / cpu_s;
    let bounded_memory = r.retained_completions == 0;
    let gate_10m = r.arrivals_injected >= 10_000_000;
    println!(
        "512-replica headline: {} arrivals, {} served, {:.0} events/s (wall), \
         {eps_cpu:.0} events/s (on-CPU), retained {}, peak RSS {rss_after_mib:.0} MiB, \
         {:.1}s wall, {cpu_s:.1}s on-CPU",
        r.arrivals_injected, r.requests, eps, r.retained_completions, wall_s
    );
    let headline = Json::obj()
        .set("replicas", n)
        .set("horizon_us", horizon)
        .set("arrivals_injected", r.arrivals_injected)
        .set("requests", r.requests)
        .set("goodput_hz", r.goodput_hz)
        .set("slo_attainment", r.slo_attainment())
        .set("in_flight_at_end", r.in_flight_at_end)
        .set("retained_completions", r.retained_completions)
        .set("bounded_memory", bounded_memory)
        .set("peak_rss_mib_before", rss_before_mib)
        .set("peak_rss_mib_after", rss_after_mib)
        .set("gate_10m_requests", gate_10m)
        .set("events_per_wall_s", eps)
        .set("wall_s", wall_s)
        .set("events_per_cpu_s", eps_cpu)
        .set("cpu_s", cpu_s);

    let json = Json::obj()
        .set("skipped", false)
        .set("streaming", true)
        .set("system", "SGDRC")
        .set("router", "shortest_backlog")
        .set(
            "curve",
            Json::obj()
                .set("horizon_us", CURVE_HORIZON_US)
                .set("points", Json::Arr(points)),
        )
        .set("headline", headline);
    (json, bounded_memory && gate_10m)
}

fn usage() -> ! {
    eprintln!("usage: bench_cluster [--scale-out] [--trace <path>]");
    std::process::exit(2)
}

fn main() {
    let (mut scale_out, mut trace_path) = (false, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale-out" => scale_out = true,
            "--trace" => trace_path = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }

    let base = headline_cfg(HEADLINE_HORIZON_US);
    let fleet = &base.gpus;
    sgdrc_bench::header("BENCH_cluster — 8-replica fleet, systems × routers");
    println!(
        "fleet: {} replicas ({} A2000 + {} GTX 1080), horizon {HEADLINE_HORIZON_US}µs",
        fleet.len(),
        fleet.iter().filter(|&&g| g == GpuModel::RtxA2000).count(),
        fleet.iter().filter(|&&g| g == GpuModel::Gtx1080).count(),
    );

    // Warm the deployments outside every measured region.
    for &g in &[GpuModel::RtxA2000, GpuModel::Gtx1080] {
        let _ = Deployment::cached(g);
    }

    // --- systems × routers matrix ----------------------------------------
    let mut ctx = ClusterCtx::new();
    let mut systems_json = Json::obj();
    for system in SystemKind::all() {
        let mut cfg = base.clone();
        cfg.system = system;
        let prep = cfg.prepare();
        let mut row = Json::obj();
        for kind in RouterKind::all() {
            let (r, wall_s) = run(&prep, kind, &mut ctx);
            println!(
                "{:>16} × {:>16}: goodput {:>7.1}/s  p99 {:>9.0}µs  SLO {:>5.1}%  BE {:>5}  mig {:>3}  {:>5.2}s",
                system.name(),
                kind.name(),
                r.goodput_hz,
                r.fleet_percentile(99.0),
                r.slo_attainment() * 100.0,
                r.be_completed,
                r.migrations.len(),
                wall_s
            );
            row = row.set(kind.name(), fleet_json(&r, wall_s));
        }
        systems_json = systems_json.set(system.name(), row);
    }

    let (scale_out_json, scale_out_ok) = if scale_out {
        run_scale_out()
    } else {
        (Json::obj().set("skipped", true), true)
    };
    let chaos_json = run_chaos_bench(&mut ctx);
    let elastic_json = run_elastic_bench(&mut ctx);
    let tiers_json = run_tiers_bench(&mut ctx);
    let (telemetry_json, telemetry_ok) = run_telemetry_bench(trace_path.as_deref(), &mut ctx);

    let doc = Json::obj()
        .set("benchmark", "cluster_fleet")
        .set(
            "fleet",
            Json::obj()
                .set("replicas", fleet.len())
                .set(
                    "gpus",
                    Json::Arr(fleet.iter().map(|g| Json::Str(g.name().into())).collect()),
                )
                .set("horizon_us", HEADLINE_HORIZON_US)
                .set("per_service_trace_scale", 5.5)
                .set(
                    "trace",
                    Json::obj()
                        .set("shape", "apollo bursts ×2.2 duty 0.25 + diurnal ±35%")
                        .set("mean_rate_hz_per_service", base.trace.mean_rate_hz)
                        .set("burst_factor", base.trace.burst_factor)
                        .set("burst_duty", base.trace.burst_duty)
                        .set("diurnal_depth", base.trace.diurnal_depth)
                        .set("diurnal_period_s", base.trace.diurnal_period_s),
                )
                .set(
                    "controller",
                    Json::obj()
                        .set("period_us", base.controller.period_us)
                        .set("breach_ratio", base.controller.breach_ratio)
                        .set("headroom_ratio", base.controller.headroom_ratio)
                        .set("adaptive_ch_be", base.controller.adaptive_ch_be),
                ),
        )
        .set("systems", systems_json)
        .set("scale_out", scale_out_json)
        .set("chaos", chaos_json)
        .set("elastic", elastic_json)
        .set("tiers", tiers_json)
        .set("telemetry", telemetry_json);
    std::fs::write("BENCH_cluster.json", doc.pretty()).expect("write BENCH_cluster.json");
    println!("wrote BENCH_cluster.json");

    if !telemetry_ok {
        eprintln!("WARNING: flight recorder overhead exceeded 5% (see telemetry section)");
        std::process::exit(1);
    }
    if !scale_out_ok {
        eprintln!("WARNING: 512-replica headline retained completions or injected <10M arrivals");
        std::process::exit(1);
    }
}

/// The fleet's deterministic claims, each at its section's horizon.
/// Release-only, like the workload suites' long horizons: debug builds
/// run the fleet clock's oracles on every event.
#[cfg(all(test, not(debug_assertions)))]
mod claims {
    use super::*;
    use sgdrc_bench::trace_export::validate_trace;

    fn run_sb(cfg: &ClusterConfig, ctx: &mut ClusterCtx) -> ClusterResult {
        run(&cfg.prepare(), RouterKind::ShortestBacklog, ctx).0
    }

    /// On the heterogeneous headline fleet, SGDRC's best load-aware
    /// router beats round-robin on fleet p99.
    #[test]
    fn load_aware_routing_beats_round_robin_on_p99() {
        let prep = headline_cfg(HEADLINE_HORIZON_US).prepare();
        let mut ctx = ClusterCtx::new();
        let mut p99 = |kind| run(&prep, kind, &mut ctx).0.fleet_percentile(99.0);
        let rr = p99(RouterKind::RoundRobin);
        let best = RouterKind::all()
            .into_iter()
            .filter(|&k| k != RouterKind::RoundRobin)
            .map(p99)
            .fold(f64::INFINITY, f64::min);
        assert!(
            best < rr,
            "best load-aware p99 {best:.0}µs vs round-robin {rr:.0}µs"
        );
    }

    /// Through the midpoint crash, requeueing delivers more than
    /// dropping, keeps availability at or above 90%, and SGDRC with BE
    /// co-located loses no LS goodput against the no-BE fleet.
    #[test]
    fn requeue_rides_out_a_crash_and_be_costs_no_goodput() {
        let mut ctx = ClusterCtx::new();
        let cfg = chaos_cfg();
        let requeue = run_sb(&cfg, &mut ctx);
        let drop = run_sb(&drop_on_crash(cfg.clone()), &mut ctx);
        let no_be = run_sb(&without_be(cfg), &mut ctx);
        let (rq_avail, dr_avail) = (availability(&requeue), availability(&drop));
        assert!(
            rq_avail > dr_avail && requeue.requests > drop.requests,
            "requeue avail {rq_avail} / {} served vs drop {dr_avail} / {}",
            requeue.requests,
            drop.requests
        );
        assert!(rq_avail >= 0.90, "requeue availability {rq_avail} < 0.90");
        assert!(
            requeue.goodput_hz >= no_be.goodput_hz,
            "goodput {} < no-BE {}",
            requeue.goodput_hz,
            no_be.goodput_hz
        );
    }

    /// The threshold autoscaler holds SLO attainment within 3 pp of the
    /// static peak fleet while billing at least 5% fewer replica-seconds.
    #[test]
    fn autoscaler_holds_slo_on_fewer_replica_seconds() {
        let mut ctx = ClusterCtx::new();
        let (static_cfg, auto_cfg) = frontier_arms();
        let stat = run_sb(&static_cfg, &mut ctx);
        let auto = run_sb(&auto_cfg, &mut ctx);
        assert!(
            auto.slo_attainment() >= stat.slo_attainment() - 0.03,
            "autoscaled SLO {} vs static {}",
            auto.slo_attainment(),
            stat.slo_attainment()
        );
        assert!(
            auto.replica_seconds <= 0.95 * stat.replica_seconds,
            "autoscaled {} replica-s vs static {}",
            auto.replica_seconds,
            stat.replica_seconds
        );
    }

    /// Replacing a permanently dead replica from the warm pool delivers
    /// more than leaving the hole.
    #[test]
    fn self_healing_beats_the_hole() {
        let mut ctx = ClusterCtx::new();
        let (hole_cfg, heal_cfg) = replacement_arms();
        let hole = run_sb(&hole_cfg, &mut ctx);
        let heal = run_sb(&heal_cfg, &mut ctx);
        assert!(heal.replacements >= 1, "no replacement fired");
        assert!(
            availability(&heal) > availability(&hole),
            "healing avail {} vs hole {}",
            availability(&heal),
            availability(&hole)
        );
    }

    /// Past capacity, tiered admission beats tier-blind shedding on
    /// weighted goodput without giving up tier-1 availability against
    /// the no-BE fleet, and every tier ledger is conserved.
    #[test]
    fn tiers_beat_tier_blind_and_hold_tier1() {
        let mut ctx = ClusterCtx::new();
        let (tiered_cfg, blind_cfg, no_be_cfg) = tiers_arms();
        let tiers = tiered_cfg.tiers.clone().expect("tiered arm");
        let tiered = run_sb(&tiered_cfg, &mut ctx);
        let blind = run_sb(&blind_cfg, &mut ctx);
        let no_be = run_sb(&no_be_cfg, &mut ctx);
        assert!(!tiered.tier_outcomes.is_empty());
        for o in &tiered.tier_outcomes {
            o.assert_conserved();
        }
        let (wg_tiered, wg_blind) = (
            weighted_goodput_hz(&tiered, &tiers),
            weighted_goodput_hz(&blind, &tiers),
        );
        assert!(
            wg_tiered > wg_blind,
            "weighted goodput {wg_tiered} vs tier-blind {wg_blind}"
        );
        assert!(
            tier1_availability(&tiered) >= tier1_availability(&no_be),
            "tier-1 availability {} vs no-BE {}",
            tier1_availability(&tiered),
            tier1_availability(&no_be)
        );
    }

    /// A 256-replica streaming fleet retains no completion record over
    /// the scale-out curve's horizon.
    #[test]
    fn streaming_retains_no_completion_at_256_replicas() {
        let r = run_sb(&scale_cfg(256, CURVE_HORIZON_US), &mut ClusterCtx::new());
        assert!(r.requests > 0);
        assert_eq!(r.retained_completions, 0);
    }

    /// The recorder observes without steering the telemetry scenario,
    /// and its Perfetto export is a well-formed trace and valid JSON.
    #[test]
    fn recorded_run_is_invisible_and_exports_a_valid_trace() {
        let mut ctx = ClusterCtx::new();
        let on_cfg = telemetry_cfg();
        let mut off_cfg = on_cfg.clone();
        off_cfg.telemetry = None;
        let on = run_sb(&on_cfg, &mut ctx);
        let mut stripped = on.clone();
        stripped.telemetry = None;
        assert_eq!(stripped, run_sb(&off_cfg, &mut ctx));
        let doc = perfetto_trace(&on).expect("recorder-on run carries telemetry");
        validate_trace(&doc).expect("exported trace is well-formed");
        sgdrc_bench::json::validate(&doc.pretty()).expect("exported trace is valid JSON");
    }
}
