//! Fleet-simulator benchmark: an 8-replica heterogeneous fleet under a
//! diurnal+burst trace, every sharing system × routing policy, an
//! N-replica scaling curve, and the optional chaos, elastic, tiers and
//! scale-out sections. Writes `BENCH_cluster.json`.
//!
//! The headline question is the cluster layer's: with a fleet of
//! spatially-shared GPUs behind one arrival stream, how much fleet-wide
//! goodput and tail latency does the *router* buy, and what does the
//! fleet controller's dynamic BE placement cost or save? Replicas mix
//! GPU models (RTX A2000 + GTX 1080), so blind round-robin overloads the
//! slow third of the fleet during bursts while backlog/SLO-aware routing
//! shifts load — the gate at the bottom asserts join-shortest-backlog or
//! SLO-aware p2c beats round-robin on fleet p99 for SGDRC.
//!
//! The fleet clock is single-threaded, so every wall time here is one
//! core's; `SGDRC_THREADS` does not affect this binary.
//!
//! `--smoke` shrinks horizons and skips the timing-sensitive gates; CI
//! runs it on every push.

use gpu_spec::GpuModel;
use sgdrc_bench::json::Json;
use sgdrc_bench::trace_export::{perfetto_trace, validate_trace};
use std::time::Instant;
use workload::chaos::{FaultEvent, FaultKind, FaultPlan};
use workload::cluster::{ClusterConfig, ClusterCtx, ClusterResult, ControllerConfig, RouterKind};
use workload::elastic::{
    ElasticConfig, ScaleCause, ScaleEventKind, ScalingPolicyKind, ThresholdPolicy, WarmPoolConfig,
};
use workload::runner::Deployment;
use workload::telemetry::TelemetryConfig;
use workload::tiers::{TierConfig, TiersConfig};
use workload::trace::TraceConfig;
use workload::SystemKind;

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

struct FleetRun {
    goodput_hz: f64,
    p99_us: f64,
    slo_attainment: f64,
    requests: u64,
    be_completed: u64,
    be_migrations: usize,
    be_preemptions: u64,
    engine_events: u64,
    wall_s: f64,
}

fn run_fleet(cfg: &ClusterConfig, kind: RouterKind, ctx: &mut ClusterCtx) -> FleetRun {
    let mut router = kind.make(cfg.seed);
    let start = Instant::now();
    let result = workload::run_cluster_in(cfg, router.as_mut(), ctx);
    let wall_s = start.elapsed().as_secs_f64();
    FleetRun {
        goodput_hz: result.goodput_hz,
        p99_us: result.fleet_percentile(99.0),
        slo_attainment: result.slo_attainment(),
        requests: result.requests,
        be_completed: result.be_completed,
        be_migrations: result.migrations.len(),
        be_preemptions: result.be_preemptions,
        engine_events: result.engine_events,
        wall_s,
    }
}

fn fleet_json(r: &FleetRun) -> Json {
    Json::obj()
        .set("goodput_hz", r.goodput_hz)
        .set("fleet_p99_us", r.p99_us)
        .set("slo_attainment", r.slo_attainment)
        .set("requests", r.requests)
        .set("be_completed", r.be_completed)
        .set("be_migrations", r.be_migrations)
        .set("be_preemptions", r.be_preemptions)
        .set("engine_events", r.engine_events)
        .set("wall_s", r.wall_s)
}

/// One resilience arm of the chaos section: the fleet under a fault
/// plan, with availability (delivered / injected) and the full
/// fault-event attribution.
struct ChaosArm {
    availability: f64,
    goodput_hz: f64,
    slo_attainment: f64,
    requests: u64,
    arrivals_injected: u64,
    requeued: u64,
    retries: u64,
    timeout_drops: u64,
    ls_shed: u64,
    be_shed: u64,
    in_flight_at_end: u64,
    faults_injected: u64,
    faults_recovered: u64,
    redispatch_p99_us: f64,
    wall_s: f64,
}

fn run_chaos_arm(cfg: &ClusterConfig, kind: RouterKind, ctx: &mut ClusterCtx) -> ChaosArm {
    let mut router = kind.make(cfg.seed);
    let start = Instant::now();
    let r = workload::run_cluster_in(cfg, router.as_mut(), ctx);
    ChaosArm {
        availability: r.requests as f64 / r.arrivals_injected.max(1) as f64,
        goodput_hz: r.goodput_hz,
        slo_attainment: r.slo_attainment(),
        requests: r.requests,
        arrivals_injected: r.arrivals_injected,
        requeued: r.requeued,
        retries: r.retries,
        timeout_drops: r.timeout_drops,
        ls_shed: r.ls_shed,
        be_shed: r.be_shed,
        in_flight_at_end: r.in_flight_at_end,
        faults_injected: r.faults_injected,
        faults_recovered: r.faults_recovered,
        redispatch_p99_us: r.redispatch_hist.percentile(99.0),
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// The per-arm JSON, including the `fault_events` attribution block
/// that makes a bench run self-describing.
fn chaos_arm_json(a: &ChaosArm) -> Json {
    Json::obj()
        .set("availability", a.availability)
        .set("goodput_hz", a.goodput_hz)
        .set("slo_attainment", a.slo_attainment)
        .set("requests", a.requests)
        .set("arrivals_injected", a.arrivals_injected)
        .set("in_flight_at_end", a.in_flight_at_end)
        .set("redispatch_p99_us", a.redispatch_p99_us)
        .set("wall_s", a.wall_s)
        .set(
            "fault_events",
            Json::obj()
                .set("injected", a.faults_injected)
                .set("recovered", a.faults_recovered)
                .set("requeued", a.requeued)
                .set("retried", a.retries)
                .set("dropped", a.timeout_drops)
                .set("ls_shed", a.ls_shed)
                .set("be_shed", a.be_shed),
        )
}

/// Serializes a `FaultPlan` so any run can be replayed from the bench
/// JSON: rebuild the events with `FaultEvent::crash`/`::slowdown` (or
/// struct literals), restore `retry`/`heartbeat_timeout_us`, and pass
/// the plan through `ClusterConfig::chaos`.
fn plan_json(plan: &FaultPlan) -> Json {
    Json::obj()
        .set("heartbeat_timeout_us", plan.heartbeat_timeout_us)
        .set(
            "retry",
            Json::obj()
                .set("backoff_us", plan.retry.backoff_us)
                .set("max_retries", plan.retry.max_retries as u64)
                .set("timeout_us", plan.retry.timeout_us),
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

/// One arm of the elastic section: serving quality plus the membership
/// accounting that prices it — replica-seconds, warm-pool hit/miss,
/// provisioning-delay attribution, drain/handoff counts.
fn elastic_arm_json(r: &workload::ClusterResult, wall_s: f64) -> Json {
    let count_cause = |cause: ScaleCause| {
        r.scale_events
            .iter()
            .filter(
                |ev| matches!(ev.kind, ScaleEventKind::Provision { cause: c, .. } if c == cause),
            )
            .count()
    };
    Json::obj()
        .set(
            "availability",
            r.requests as f64 / r.arrivals_injected.max(1) as f64,
        )
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
                .set("provisions_slo_breach", count_cause(ScaleCause::SloBreach))
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

fn run_elastic_arm(
    cfg: &ClusterConfig,
    kind: RouterKind,
    ctx: &mut ClusterCtx,
) -> (workload::ClusterResult, f64) {
    let mut router = kind.make(cfg.seed);
    let start = Instant::now();
    let r = workload::run_cluster_in(cfg, router.as_mut(), ctx);
    (r, start.elapsed().as_secs_f64())
}

/// The `--elastic` section: the self-healing elastic fleet's
/// cost-vs-SLO frontier. Two arms:
///
/// 1. **autoscaler vs static peak** on the diurnal trace — the
///    threshold autoscaler must hold SLO attainment within tolerance
///    of the peak-sized static fleet while billing measurably fewer
///    replica-seconds (full runs gate; smoke records);
/// 2. **crash replacement vs no replacement** under a permanent
///    midpoint crash — the self-healing fleet must beat the fleet
///    with a hole on availability (gated in smoke too: the scenario
///    is deterministic).
fn run_elastic_bench(smoke: bool, ctx: &mut ClusterCtx) -> (Json, bool) {
    sgdrc_bench::header("elastic — warm-pool autoscaling, SLO-breach draining, crash replacement");
    let mut gates_ok = true;
    let horizon = if smoke { 2.5e5 } else { 2e6 };

    // --- arm 1: threshold autoscaler vs static peak fleet -----------------
    // Six A2000s sized for the diurnal peak; the elastic arm starts at
    // peak with four warm lanes in reserve and lets the threshold
    // policy breathe with the trace.
    let n_peak = 6;
    let mut static_cfg = ClusterConfig::new(vec![GpuModel::RtxA2000; n_peak], SystemKind::Sgdrc);
    static_cfg.horizon_us = horizon;
    static_cfg.trace = fleet_trace(0.9 * n_peak as f64, horizon);
    static_cfg.controller.period_us = 5e4;
    let mut auto_cfg = static_cfg.clone();
    // Retirement is terminal — a drained lane never rejoins; re-growth
    // always draws fresh warm lanes. The pool and the floor are sized
    // so the ~1.5 diurnal cycles in the horizon never strand the fleet
    // below trough capacity: min 5 keeps the trough served, and the
    // slow down-cooldown spends at most the pool per cycle.
    let mut auto_e = ElasticConfig::new(
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
    auto_e.min_replicas = 5;
    auto_e.up_cooldown_us = 5e4;
    auto_e.down_cooldown_us = 2e5;
    auto_cfg.elastic = Some(auto_e.clone());

    let (stat, stat_wall) = run_elastic_arm(&static_cfg, RouterKind::ShortestBacklog, ctx);
    let (auto_r, auto_wall) = run_elastic_arm(&auto_cfg, RouterKind::ShortestBacklog, ctx);
    let saved = 1.0 - auto_r.replica_seconds / stat.replica_seconds;
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
    const SLO_TOLERANCE: f64 = 0.03;
    const MIN_SAVINGS: f64 = 0.05;
    let slo_held = auto_r.slo_attainment() >= stat.slo_attainment() - SLO_TOLERANCE;
    let cheaper = auto_r.replica_seconds <= (1.0 - MIN_SAVINGS) * stat.replica_seconds;
    // Smoke horizons see a fraction of a diurnal cycle — too little
    // trough for meaningful savings — so the frontier gates bind full
    // runs only; the numbers are recorded either way.
    if !smoke {
        gates_ok &= slo_held && cheaper;
    }

    // --- arm 2: crash replacement vs no replacement -----------------------
    // Load sized so the full fleet holds the SLO but the three-lane
    // remnant after the crash is genuinely overloaded — the regime
    // where a hole in the fleet visibly costs delivered requests.
    let n_rep = 4;
    let mut hole_cfg = ClusterConfig::new(vec![GpuModel::RtxA2000; n_rep], SystemKind::Sgdrc);
    hole_cfg.horizon_us = horizon;
    hole_cfg.trace = fleet_trace(1.8 * n_rep as f64, horizon);
    hole_cfg.controller.period_us = 5e4;
    let crash = FaultEvent::crash(0, 0.25 * horizon, f64::INFINITY);
    hole_cfg.chaos = Some(FaultPlan::new(vec![crash]));
    let mut heal_cfg = hole_cfg.clone();
    let mut heal_e = ElasticConfig::new(
        WarmPoolConfig {
            provision_delay_us: 2e4,
            provision_jitter: 0.2,
            ..WarmPoolConfig::new(vec![GpuModel::RtxA2000])
        },
        ScalingPolicyKind::Hold,
    );
    heal_e.min_replicas = 1;
    heal_e.replace_after_us = 0.04 * horizon;
    heal_cfg.elastic = Some(heal_e.clone());

    let (hole, hole_wall) = run_elastic_arm(&hole_cfg, RouterKind::ShortestBacklog, ctx);
    let (heal, heal_wall) = run_elastic_arm(&heal_cfg, RouterKind::ShortestBacklog, ctx);
    let hole_avail = hole.requests as f64 / hole.arrivals_injected.max(1) as f64;
    let heal_avail = heal.requests as f64 / heal.arrivals_injected.max(1) as f64;
    println!(
        "  no replacement: avail {:>6.2}%  goodput {:>7.1}/s  {:>5.2}s",
        hole_avail * 100.0,
        hole.goodput_hz,
        hole_wall
    );
    println!(
        "    self-healing: avail {:>6.2}%  goodput {:>7.1}/s  replacements {}  {:>5.2}s",
        heal_avail * 100.0,
        heal.goodput_hz,
        heal.replacements,
        heal_wall
    );
    // Deterministic scenario: a pass is a pass at any horizon.
    let healing_wins = heal_avail > hole_avail && heal.replacements > 0;
    gates_ok &= healing_wins;

    println!(
        "\nelastic gates: SLO within {:.0}pp of static {} | >= {:.0}% replica-s saved {} | healing beats hole {}",
        SLO_TOLERANCE * 100.0,
        slo_held,
        MIN_SAVINGS * 100.0,
        cheaper,
        healing_wins,
    );

    // The JSON below records the configs the arms ran; its crash
    // scenario text assumes a permanent loss.
    assert!(
        crash.duration_us.is_infinite(),
        "the crash arms model a permanent loss"
    );
    let json = Json::obj()
        .set("skipped", false)
        .set("horizon_us", horizon)
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
                .set("replicas", n_rep)
                .set(
                    "scenario",
                    format!(
                        "replica {} permanently dead at {}% of horizon",
                        crash.replica,
                        100.0 * crash.at_us / horizon
                    ),
                )
                .set("replace_after_us", heal_e.replace_after_us)
                .set("no_replacement", elastic_arm_json(&hole, hole_wall))
                .set("self_healing", elastic_arm_json(&heal, heal_wall)),
        )
        .set(
            "gates",
            Json::obj()
                .set("slo_tolerance", SLO_TOLERANCE)
                .set("min_replica_seconds_saved", MIN_SAVINGS)
                .set("slo_within_tolerance", slo_held)
                .set("replica_seconds_saved", cheaper)
                .set("healing_beats_hole", healing_wins)
                .set("frontier_enforced", !smoke),
        );
    (json, gates_ok)
}

/// The canonical three-class tier map the tiers section runs: service 0
/// Guaranteed (weight 8), the next third Burstable (weight 3), the rest
/// BestEffort (weight 1), ladder thresholds sized so the crash +
/// diurnal-peak scenario actually climbs the rungs.
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

/// The tiered-SLO section (`--tiers`): the headline fleet pushed past
/// capacity by a diurnal peak while a fast replica is down — the regime
/// where *something* must be dropped and the only question is what.
///
/// Three arms, identical trace and fault plan:
/// 1. **tiered** — the three-class tier map: admission control queues
///    then refuses best-effort work first, deadline-aware retry
///    budgets, tier-ordered brownout;
/// 2. **tier_blind** — no tier map: the one-tier brownout ladder parks
///    BE under backlog but cannot tell services apart, so it never
///    queues, refuses or sheds LS by class;
/// 3. **no_be** — tier-blind with BE jobs removed entirely, the
///    baseline tier-1 availability must not fall below.
///
/// Gates (deterministic, bind in smoke too): tiered strictly beats
/// tier-blind on weighted goodput; tier-1 availability under tiers is
/// at least the no-BE baseline's. The section JSON is round-tripped
/// through the validator.
fn run_tiers_bench(smoke: bool, ctx: &mut ClusterCtx) -> (Json, bool) {
    sgdrc_bench::header("tiers — tiered SLOs vs tier-blind shedding under crash + diurnal peak");
    let horizon = if smoke { 2.5e5 } else { 1.5e6 };
    let fleet = headline_fleet();

    let mut base = ClusterConfig::new(fleet, SystemKind::Sgdrc);
    base.horizon_us = horizon;
    // Past-capacity load: the headline matrix runs this fleet at 5.5
    // with headroom; 16 through a diurnal peak with a fast lane
    // permanently dead forces sustained overload — the regime where
    // *something* must be dropped and the arms differ only in what.
    base.trace = fleet_trace(16.0, horizon);
    base.controller = ControllerConfig {
        period_us: 2e4,
        adaptive_ch_be: true,
        ..Default::default()
    };
    let mut plan = FaultPlan::new(vec![FaultEvent::crash(0, 0.25 * horizon, f64::INFINITY)]);
    // Same aggressive BE-parking threshold the chaos section uses: it
    // sets the tier-blind arm's one ladder rung (the tiered arm's map
    // brings its own ladder).
    plan.degradation.shed_be_backlog = 2;
    base.chaos = Some(plan);

    let n_ls = base.prepare().n_ls();
    let tiers = bench_tiers(n_ls);
    let weights: Vec<f64> = tiers.tiers.iter().map(|t| t.weight).collect();

    let mut tiered_cfg = base.clone();
    tiered_cfg.tiers = Some(tiers.clone());
    let blind_cfg = base.clone();
    let mut no_be_cfg = base.clone();
    no_be_cfg.be_jobs = Vec::new();

    let run = |cfg: &ClusterConfig, ctx: &mut ClusterCtx| {
        let mut router = RouterKind::ShortestBacklog.make(cfg.seed);
        let start = Instant::now();
        let r = workload::run_cluster_in(cfg, router.as_mut(), ctx);
        (r, start.elapsed().as_secs_f64())
    };
    let (tiered, tiered_wall) = run(&tiered_cfg, ctx);
    let (blind, blind_wall) = run(&blind_cfg, ctx);
    let (no_be, no_be_wall) = run(&no_be_cfg, ctx);

    let horizon_s = horizon / 1e6;
    let wg = |r: &ClusterResult| r.weighted_slo_met_with(&weights) / horizon_s;
    // Tier-1 availability: delivered fraction of the Guaranteed
    // service's arrivals (task 0 is the only tier-1 member).
    let t1_avail =
        |r: &ClusterResult| r.completed_by_task[0] as f64 / r.arrivals_by_task[0].max(1) as f64;
    for o in &tiered.tier_outcomes {
        o.assert_conserved();
    }
    for (name, r, wall) in [
        ("tiered", &tiered, tiered_wall),
        ("tier_blind", &blind, blind_wall),
        ("no_be", &no_be, no_be_wall),
    ] {
        println!(
            "{name:>12}: goodput_w {:>8.1}/s  tier-1 avail {:>6.2}%  refused {:>5}  shed {:>5}  dropped {:>5}  {:>5.2}s",
            wg(r),
            t1_avail(r) * 100.0,
            r.refused_admission,
            r.ls_shed,
            r.timeout_drops,
            wall,
        );
    }

    let tiered_beats_blind = wg(&tiered) > wg(&blind);
    let t1_holds = t1_avail(&tiered) >= t1_avail(&no_be);
    let gates_ok = tiered_beats_blind && t1_holds;
    println!(
        "\ntiers gates: weighted goodput beats tier-blind {} | tier-1 avail >= no-BE {}",
        tiered_beats_blind, t1_holds
    );

    let arm_json = |r: &ClusterResult, wall: f64| {
        Json::obj()
            .set("weighted_goodput_hz", wg(r))
            .set("tier1_availability", t1_avail(r))
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
    let json = Json::obj()
        .set("skipped", false)
        .set("horizon_us", horizon)
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
        .set(
            "gates",
            Json::obj()
                .set("weighted_goodput_beats_tier_blind", tiered_beats_blind)
                .set("tier1_availability_ge_no_be", t1_holds),
        );
    sgdrc_bench::json::validate(&json.pretty()).expect("tiers section is well-formed JSON");
    (json, gates_ok)
}

/// The telemetry section: the flight recorder's contracts measured on
/// the smoke-scale chaos scenario (crash at midpoint, recovery after a
/// quarter horizon — a trace with faults, requeues, retries and
/// migrations on it).
///
/// 1. **Bit-identity** (hard assert, every mode): a recorder-on run
///    stripped of its telemetry payload equals the recorder-off run on
///    every `ClusterResult` field.
/// 2. **Overhead ≤5%** (gated): wall clock of the recorder-on arm vs
///    the recorder-off arm — min of seven runs each, *interleaved*
///    (off, on, off, on, …) after a warmup pair, so box-load drift
///    lands on both arms equally instead of biasing whichever arm ran
///    second.
/// 3. **Trace export** (with `--trace <path>`): the recorder-on run as
///    a Perfetto `trace.json`, schema-validated *and* re-parsed through
///    the JSON syntax scanner before writing.
fn run_telemetry_bench(trace_path: Option<&str>, ctx: &mut ClusterCtx) -> (Json, bool) {
    sgdrc_bench::header("telemetry — flight recorder overhead + trace export");
    let horizon = 5e5;
    let mut cfg = ClusterConfig::new(headline_fleet(), SystemKind::Sgdrc);
    cfg.horizon_us = horizon;
    cfg.trace = fleet_trace(5.5, horizon);
    cfg.controller = ControllerConfig {
        period_us: 5e4,
        adaptive_ch_be: true,
        ..Default::default()
    };
    cfg.chaos = Some(FaultPlan::new(vec![FaultEvent::crash(
        0,
        0.5 * horizon,
        0.25 * horizon,
    )]));
    let mut on_cfg = cfg.clone();
    on_cfg.telemetry = Some(TelemetryConfig::default());

    let prep_off = cfg.prepare();
    let prep_on = on_cfg.prepare();
    let seed = cfg.seed;
    let run = |prep: &workload::PreparedCluster, ctx: &mut ClusterCtx| -> (ClusterResult, f64) {
        let mut router = RouterKind::ShortestBacklog.make(seed);
        let t0 = Instant::now();
        let r = workload::run_cluster_prepared(prep, router.as_mut(), ctx);
        let dt = t0.elapsed().as_secs_f64();
        (r, dt)
    };
    // Warm both arms (context high-water marks, page cache), then time
    // them interleaved: min-of-7 per arm over the same wall window, so
    // a box-load spike cannot bias one arm.
    run(&prep_off, ctx);
    run(&prep_on, ctx);
    let (mut off_s, mut on_s) = (f64::INFINITY, f64::INFINITY);
    let (mut off, mut on) = (None, None);
    for _ in 0..7 {
        let (r, t) = run(&prep_off, ctx);
        off_s = off_s.min(t);
        off = Some(r);
        let (r, t) = run(&prep_on, ctx);
        on_s = on_s.min(t);
        on = Some(r);
    }
    let (off, on) = (off.expect("seven runs"), on.expect("seven runs"));

    // Contract 1: the recorder observes, it never steers.
    let mut stripped = on.clone();
    stripped.telemetry = None;
    assert_eq!(
        stripped, off,
        "recorder-on run diverged from the recorder-off run"
    );

    let tel = on.telemetry.as_ref().expect("recorder was enabled");
    let overhead = on_s / off_s - 1.0;
    let overhead_ok = overhead <= 0.05;
    let prof = &tel.profile;
    println!(
        "recorder off {off_s:>6.3}s | on {on_s:>6.3}s | overhead {:>+5.1}% (gate ≤5%: {overhead_ok})",
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
        validate_trace(&doc).expect("exported trace is well-formed");
        let text = doc.pretty();
        sgdrc_bench::json::validate(&text).expect("exported trace is valid JSON");
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
        std::fs::write(path, &text).expect("write trace file");
        println!("wrote {path} ({n_events} trace events) — open at https://ui.perfetto.dev");
        trace_json = Json::obj()
            .set("exported", true)
            .set("path", path)
            .set("trace_events", n_events)
            .set("validated", true);
    }

    let section = Json::obj()
        .set(
            "scenario",
            Json::obj()
                .set("system", "SGDRC")
                .set("router", "shortest_backlog")
                .set("horizon_us", horizon)
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
                .set("bit_identical", true)
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

/// The `--scale-out` section: the SoA + busy-set scan + streaming
/// fleet clock at 256–512 replicas. Records a 1→512 streaming scaling
/// curve (smoke: 64→256 on a short horizon, so CI exercises big fleets
/// on every push) and — on full runs — a 512-replica ≥10M-request
/// streaming headline with bounded memory (zero retained completion
/// records, peak RSS recorded).
///
/// Returns the JSON section and whether every enforced gate passed.
fn run_scale_out(smoke: bool) -> (Json, bool) {
    sgdrc_bench::header("scale-out — SoA lanes, busy-set scan, streaming mode");
    let mut gates_ok = true;
    let mut ctx = ClusterCtx::new();

    let scale_cfg = |nrep: usize, horizon_us: f64| {
        let mut cfg = ClusterConfig::new(vec![GpuModel::RtxA2000; nrep], SystemKind::Sgdrc);
        cfg.horizon_us = horizon_us;
        cfg.trace = fleet_trace(0.9 * nrep as f64, horizon_us);
        cfg.controller.period_us = 5e4;
        cfg.streaming = true;
        cfg
    };

    // --- 1→512 streaming scaling curve, load ∝ N --------------------------
    let sizes: &[usize] = if smoke {
        &[64, 256]
    } else {
        &[1, 4, 16, 64, 256, 512]
    };
    let curve_horizon = if smoke { 1.2e5 } else { 1e6 };
    let mut points = Vec::new();
    for &nrep in sizes {
        let cfg = scale_cfg(nrep, curve_horizon);
        let prep = cfg.prepare();
        // Warm pass (deployments, contexts), then measure.
        let mut router = RouterKind::ShortestBacklog.make(cfg.seed);
        let _ = workload::run_cluster_prepared(&prep, router.as_mut(), &mut ctx);
        let mut router = RouterKind::ShortestBacklog.make(cfg.seed);
        let (start, cpu_start) = (Instant::now(), process_cpu_s());
        let r = workload::run_cluster_prepared(&prep, router.as_mut(), &mut ctx);
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_s = process_cpu_s() - cpu_start;
        let eps = r.engine_events as f64 / wall_s;
        let eps_cpu = r.engine_events as f64 / cpu_s;
        println!(
            "{nrep:>4} replicas: {:>8} req  {:>10.0} events/s (wall)  {:>10.0} events/s (on-CPU)  \
             retained {}  {:>6.2}s wall  {:>6.2}s on-CPU",
            r.requests, eps, eps_cpu, r.retained_completions, wall_s, cpu_s
        );
        // Streaming's memory bound is a correctness property — enforce
        // it at every size, smoke included.
        gates_ok &= r.retained_completions == 0;
        points.push(
            Json::obj()
                .set("replicas", nrep)
                .set("trace_scale", 0.9 * nrep as f64)
                .set("requests", r.requests)
                .set("goodput_hz", r.goodput_hz)
                .set("slo_attainment", r.slo_attainment())
                .set("retained_completions", r.retained_completions)
                .set("wall_s", wall_s)
                .set("events_per_wall_s", eps)
                .set("cpu_s", cpu_s)
                .set("events_per_cpu_s", eps_cpu),
        );
    }

    // --- 512-replica ≥10M-request streaming headline (full runs) ----------
    let headline_json = if smoke {
        Json::obj().set("skipped", true)
    } else {
        let n = 512;
        // The diurnal+burst trace at 0.9·512 per-service scale injects
        // ≈0.25M requests per simulated second: 50 sim-seconds drives
        // ≈12.5M requests through the fleet.
        let horizon = 5e7;
        let rss_before_mib = peak_rss_mib();
        let cfg = scale_cfg(n, horizon);
        let prep = cfg.prepare();
        let mut router = RouterKind::ShortestBacklog.make(cfg.seed);
        let (start, cpu_start) = (Instant::now(), process_cpu_s());
        let r = workload::run_cluster_prepared(&prep, router.as_mut(), &mut ctx);
        let wall_s = start.elapsed().as_secs_f64();
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
        gates_ok &= bounded_memory && gate_10m;
        Json::obj()
            .set("skipped", false)
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
            .set("cpu_s", cpu_s)
    };

    let json = Json::obj()
        .set("skipped", false)
        .set("streaming", true)
        .set("system", "SGDRC")
        .set("router", "shortest_backlog")
        .set(
            "curve",
            Json::obj()
                .set("horizon_us", curve_horizon)
                .set("points", Json::Arr(points)),
        )
        .set("headline", headline_json);
    (json, gates_ok)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let horizon_us = if smoke { 2.5e5 } else { 3e6 };
    let fleet = headline_fleet();

    sgdrc_bench::header("BENCH_cluster — 8-replica fleet, systems × routers");
    println!(
        "fleet: {} replicas ({} A2000 + {} GTX 1080), horizon {horizon_us}µs{}",
        fleet.len(),
        fleet.iter().filter(|&&g| g == GpuModel::RtxA2000).count(),
        fleet.iter().filter(|&&g| g == GpuModel::Gtx1080).count(),
        if smoke { " (smoke)" } else { "" }
    );

    // Warm the deployments outside every measured region.
    for &g in &[GpuModel::RtxA2000, GpuModel::Gtx1080] {
        let _ = Deployment::cached(g);
    }

    let base = {
        let mut cfg = ClusterConfig::new(fleet.clone(), SystemKind::Sgdrc);
        cfg.horizon_us = horizon_us;
        cfg.trace = fleet_trace(5.5, horizon_us);
        cfg.controller = ControllerConfig {
            period_us: 5e4,
            adaptive_ch_be: true,
            ..Default::default()
        };
        cfg
    };

    // --- systems × routers matrix ----------------------------------------
    let mut ctxs = ClusterCtx::new();
    let mut systems_json = Json::obj();
    let mut sgdrc_p99 = Vec::new();
    for system in SystemKind::all() {
        let mut cfg = base.clone();
        cfg.system = system;
        let mut row = Json::obj();
        for kind in RouterKind::all() {
            let r = run_fleet(&cfg, kind, &mut ctxs);
            println!(
                "{:>16} × {:>16}: goodput {:>7.1}/s  p99 {:>9.0}µs  SLO {:>5.1}%  BE {:>5}  mig {:>3}  {:>5.2}s",
                system.name(),
                kind.name(),
                r.goodput_hz,
                r.p99_us,
                r.slo_attainment * 100.0,
                r.be_completed,
                r.be_migrations,
                r.wall_s
            );
            if system == SystemKind::Sgdrc {
                sgdrc_p99.push((kind, r.p99_us));
            }
            row = row.set(kind.name(), fleet_json(&r));
        }
        systems_json = systems_json.set(system.name(), row);
    }

    // --- N-replica scaling curve ------------------------------------------
    // Homogeneous A2000 fleets with load scaled ∝ N: fleet capacity
    // (simulated completions/s) should grow ~linearly while the simulator
    // itself reports wall-clock throughput for the perf trajectory.
    sgdrc_bench::header("scaling curve — SGDRC × shortest-backlog");
    let sizes: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8, 16] };
    let scaling_horizon = if smoke { 2e5 } else { 1.5e6 };
    let mut points = Vec::new();
    for &nrep in sizes {
        let mut cfg = ClusterConfig::new(vec![GpuModel::RtxA2000; nrep], SystemKind::Sgdrc);
        cfg.horizon_us = scaling_horizon;
        cfg.trace = fleet_trace(0.9 * nrep as f64, scaling_horizon);
        cfg.controller.period_us = 5e4;
        let mut fresh = ClusterCtx::new();
        let r = run_fleet(&cfg, RouterKind::ShortestBacklog, &mut fresh);
        let sim_req_per_s = r.requests as f64 / (scaling_horizon / 1e6);
        println!(
            "{nrep} replica(s): {:>8.1} served req/s (sim)  goodput {:>8.1}/s  {:>9.0} events/s (wall)",
            sim_req_per_s,
            r.goodput_hz,
            r.engine_events as f64 / r.wall_s
        );
        points.push(
            Json::obj()
                .set("replicas", nrep)
                .set("trace_scale", 0.9 * nrep as f64)
                .set("served_requests_per_sim_s", sim_req_per_s)
                .set("goodput_hz", r.goodput_hz)
                .set("slo_attainment", r.slo_attainment)
                .set("wall_s", r.wall_s)
                .set("events_per_wall_s", r.engine_events as f64 / r.wall_s),
        );
    }

    let scaling_json = Json::obj()
        .set("system", "SGDRC")
        .set("router", "shortest_backlog")
        .set("horizon_us", scaling_horizon)
        .set("points", Json::Arr(points));

    // --- scale-out: SoA + busy-set scan + streaming at 256–512 replicas -
    let scale_out_enabled = args.iter().any(|a| a == "--scale-out");
    let (scale_out_json, scale_out_ok) = if scale_out_enabled {
        run_scale_out(smoke)
    } else {
        (Json::obj().set("skipped", true), true)
    };

    // --- routing gate ------------------------------------------------------
    let rr = sgdrc_p99
        .iter()
        .find(|(k, _)| *k == RouterKind::RoundRobin)
        .expect("rr ran")
        .1;
    let best_alt = sgdrc_p99
        .iter()
        .filter(|(k, _)| *k != RouterKind::RoundRobin)
        .map(|&(_, p)| p)
        .fold(f64::INFINITY, f64::min);
    println!(
        "\nrouting gate (SGDRC): round-robin p99 {rr:.0}µs vs best load-aware {best_alt:.0}µs ({:.2}×)",
        rr / best_alt
    );

    // --- chaos: crash-at-midpoint resilience ------------------------------
    let chaos_enabled = args.iter().any(|a| a == "--chaos");
    let mut chaos_json = Json::obj().set("skipped", !chaos_enabled);
    let mut chaos_gate_requeue = true;
    let mut chaos_gate_floor = true;
    let mut chaos_gate_no_be = true;
    const CHAOS_AVAILABILITY_FLOOR: f64 = 0.90;
    if chaos_enabled {
        sgdrc_bench::header("chaos — crash at midpoint: requeue vs drop-on-crash vs no-BE");
        let chaos_horizon = if smoke { 2.5e5 } else { 1.5e6 };
        let mut cfg = ClusterConfig::new(fleet.clone(), SystemKind::Sgdrc);
        cfg.horizon_us = chaos_horizon;
        // Same operating point as the headline matrix: SLOs met with
        // moderate headroom — the regime where SGDRC's "BE costs no
        // goodput" claim holds, and the one the resilience gates must
        // preserve through a crash.
        cfg.trace = fleet_trace(5.5, chaos_horizon);
        cfg.controller = ControllerConfig {
            period_us: 5e4,
            adaptive_ch_be: true,
            ..Default::default()
        };
        // The headline scenario: a fast replica dies at midpoint and
        // revives after a quarter of the horizon.
        let mut plan = FaultPlan::new(vec![FaultEvent::crash(
            0,
            0.5 * chaos_horizon,
            0.25 * chaos_horizon,
        )]);
        // Arm BE parking at a low per-alive backlog (2), so BE gives
        // way if the crash makes the survivors queue. The
        // goodput gate below checks that BE filling costs no LS goodput
        // even through the crash.
        plan.degradation.shed_be_backlog = 2;
        cfg.chaos = Some(plan.clone());
        let requeue = run_chaos_arm(&cfg, RouterKind::ShortestBacklog, &mut ctxs);

        let mut drop_cfg = cfg.clone();
        drop_cfg.chaos.as_mut().expect("plan set").retry.max_retries = 0;
        let drop = run_chaos_arm(&drop_cfg, RouterKind::ShortestBacklog, &mut ctxs);

        // The no-BE baseline: same fleet, same faults, zero BE work —
        // SGDRC's claim is that BE filling costs no LS goodput, and that
        // must survive a crash (the brownout ladder parks BE if the
        // survivors queue).
        let mut no_be_cfg = cfg.clone();
        no_be_cfg.be_jobs = Vec::new();
        let no_be = run_chaos_arm(&no_be_cfg, RouterKind::ShortestBacklog, &mut ctxs);

        for (name, a) in [
            ("requeue", &requeue),
            ("drop_on_crash", &drop),
            ("no_be_baseline", &no_be),
        ] {
            println!(
                "{name:>16}: avail {:>6.2}%  goodput {:>7.1}/s  SLO {:>5.1}%  requeued {:>4}  retried {:>4}  dropped {:>4}  BE shed {:>2}  {:>5.2}s",
                a.availability * 100.0,
                a.goodput_hz,
                a.slo_attainment * 100.0,
                a.requeued,
                a.retries,
                a.timeout_drops,
                a.be_shed,
                a.wall_s,
            );
        }

        // Availability-under-failure curve: outage length sweeps up,
        // requeue vs drop-on-crash at each point.
        let down_fracs: &[f64] = if smoke { &[0.25] } else { &[0.1, 0.25, 0.45] };
        let mut curve = Vec::new();
        for &frac in down_fracs {
            let curve_plan = FaultPlan::new(vec![FaultEvent::crash(
                0,
                0.4 * chaos_horizon,
                frac * chaos_horizon,
            )]);
            let mut rq_cfg = cfg.clone();
            rq_cfg.chaos = Some(curve_plan);
            let rq = run_chaos_arm(&rq_cfg, RouterKind::ShortestBacklog, &mut ctxs);
            let mut dr_cfg = rq_cfg.clone();
            dr_cfg.chaos.as_mut().expect("plan set").retry.max_retries = 0;
            let dr = run_chaos_arm(&dr_cfg, RouterKind::ShortestBacklog, &mut ctxs);
            println!(
                "outage {:>4.0}% of horizon: requeue avail {:>6.2}% goodput {:>7.1}/s  |  drop avail {:>6.2}% goodput {:>7.1}/s",
                frac * 100.0,
                rq.availability * 100.0,
                rq.goodput_hz,
                dr.availability * 100.0,
                dr.goodput_hz
            );
            curve.push(
                Json::obj()
                    .set("down_frac", frac)
                    .set("requeue", chaos_arm_json(&rq))
                    .set("drop_on_crash", chaos_arm_json(&dr)),
            );
        }

        // A thermal-throttle arm rides along for the artifact (no gate):
        // the slowest GTX 1080 drops to 60% clocks through the middle
        // half, and dynamic SGDRC re-prepares its contexts at the scaled
        // spec.
        let mut throttle_cfg = cfg.clone();
        throttle_cfg.chaos = Some(FaultPlan::new(vec![FaultEvent::slowdown(
            FaultKind::Throttle,
            2,
            0.25 * chaos_horizon,
            0.6,
            0.5 * chaos_horizon,
        )]));
        let throttle = run_chaos_arm(&throttle_cfg, RouterKind::ShortestBacklog, &mut ctxs);
        println!(
            "        throttle: avail {:>6.2}%  goodput {:>7.1}/s  SLO {:>5.1}%  (GTX 1080 @60% clocks, no gate)",
            throttle.availability * 100.0,
            throttle.goodput_hz,
            throttle.slo_attainment * 100.0,
        );

        let goodput_ge_no_be = requeue.goodput_hz >= no_be.goodput_hz;
        let availability_ge_floor = requeue.availability >= CHAOS_AVAILABILITY_FLOOR;
        chaos_gate_requeue =
            requeue.availability > drop.availability && requeue.requests > drop.requests;
        // The floor and the goodput-parity gates only bind full runs: a
        // smoke horizon cuts off with a larger in-flight fraction and
        // gives the tick-granular BE shed too little runway to fully
        // compensate, both by construction. CI enforces them via a full
        // `--chaos` run; smoke still gates requeue-beats-drop.
        chaos_gate_floor = smoke || availability_ge_floor;
        chaos_gate_no_be = smoke || goodput_ge_no_be;
        println!(
            "\nchaos gates: requeue beats drop {} | availability >= {:.0}% {} | SGDRC goodput >= no-BE {}",
            chaos_gate_requeue,
            CHAOS_AVAILABILITY_FLOOR * 100.0,
            chaos_gate_floor,
            chaos_gate_no_be
        );

        chaos_json = Json::obj()
            .set("skipped", false)
            .set(
                "scenario",
                Json::obj()
                    .set("system", "SGDRC")
                    .set("router", "shortest_backlog")
                    .set("horizon_us", chaos_horizon)
                    .set("plan", plan_json(&plan)),
            )
            .set(
                "arms",
                Json::obj()
                    .set("requeue", chaos_arm_json(&requeue))
                    .set("drop_on_crash", chaos_arm_json(&drop))
                    .set("no_be_baseline", chaos_arm_json(&no_be))
                    .set("throttle", chaos_arm_json(&throttle)),
            )
            .set("outage_curve", Json::Arr(curve))
            .set(
                "gates",
                Json::obj()
                    .set("availability_floor", CHAOS_AVAILABILITY_FLOOR)
                    .set("requeue_beats_drop", chaos_gate_requeue)
                    .set("requeue_availability_ok", availability_ge_floor)
                    .set("goodput_ge_no_be_baseline", goodput_ge_no_be)
                    .set("floor_and_goodput_enforced", !smoke),
            );
    }

    // --- elastic: warm-pool autoscaling and self-healing ------------------
    let elastic_enabled = args.iter().any(|a| a == "--elastic");
    let (elastic_json, elastic_ok) = if elastic_enabled {
        run_elastic_bench(smoke, &mut ctxs)
    } else {
        (Json::obj().set("skipped", true), true)
    };

    // --- tiers: tiered SLOs vs tier-blind shedding under overload ---------
    let tiers_enabled = args.iter().any(|a| a == "--tiers");
    let (tiers_json, tiers_ok) = if tiers_enabled {
        run_tiers_bench(smoke, &mut ctxs)
    } else {
        (Json::obj().set("skipped", true), true)
    };

    // --- telemetry: flight recorder contracts + optional trace export -----
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let (telemetry_json, telemetry_ok) = run_telemetry_bench(trace_path.as_deref(), &mut ctxs);

    let doc = Json::obj()
        .set("benchmark", "cluster_fleet")
        .set("smoke", smoke)
        .set(
            "fleet",
            Json::obj()
                .set("replicas", fleet.len())
                .set(
                    "gpus",
                    Json::Arr(fleet.iter().map(|g| Json::Str(g.name().into())).collect()),
                )
                .set("horizon_us", horizon_us)
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
        .set(
            "routing_gate",
            Json::obj()
                .set("system", "SGDRC")
                .set("round_robin_p99_us", rr)
                .set("best_load_aware_p99_us", best_alt)
                .set("p99_improvement", rr / best_alt)
                .set("load_aware_beats_round_robin", best_alt < rr),
        )
        .set("scaling", scaling_json)
        .set("scale_out", scale_out_json)
        .set("chaos", chaos_json)
        .set("elastic", elastic_json)
        .set("tiers", tiers_json)
        .set("telemetry", telemetry_json);
    std::fs::write("BENCH_cluster.json", doc.pretty()).expect("write BENCH_cluster.json");
    println!("wrote BENCH_cluster.json");

    // Chaos resilience gates run in smoke mode too (CI's
    // `--smoke --chaos` step): the scenario is deterministic, so a pass
    // is a pass at any horizon. Only the absolute availability floor is
    // full-run-only (handled where the gate is computed).
    if chaos_enabled && !(chaos_gate_requeue && chaos_gate_floor && chaos_gate_no_be) {
        eprintln!(
            "WARNING: chaos resilience gate failed (requeue_beats_drop={chaos_gate_requeue}, availability_ok={chaos_gate_floor}, goodput_ge_no_be={chaos_gate_no_be})"
        );
        std::process::exit(1);
    }
    // Scale-out gates: the streaming memory bound binds in smoke too; the
    // 10M-request headline only runs (and only gates) on full runs —
    // both decided inside `run_scale_out`.
    if scale_out_enabled && !scale_out_ok {
        eprintln!("WARNING: scale-out gate failed (see scale_out section of BENCH_cluster.json)");
        std::process::exit(1);
    }
    // Elastic gates: the healing-beats-hole check binds in smoke too (a
    // deterministic scenario); the cost-vs-SLO frontier gates only full
    // runs — decided inside `run_elastic_bench`.
    if elastic_enabled && !elastic_ok {
        eprintln!("WARNING: elastic gate failed (see elastic section of BENCH_cluster.json)");
        std::process::exit(1);
    }
    // Tiered-SLO gates: both (weighted goodput beats tier-blind, tier-1
    // availability holds the no-BE floor) are deterministic scenarios,
    // so they bind in smoke too.
    if tiers_enabled && !tiers_ok {
        eprintln!("WARNING: tiered-SLO gate failed (see tiers section of BENCH_cluster.json)");
        std::process::exit(1);
    }
    // Telemetry gate: bit-identity is hard-asserted inside the section;
    // the ≤5% recorder overhead binds in every mode (the scenario is
    // smoke-scale by construction; the minimum of 7 interleaved off/on
    // pairs damps scheduler noise).
    if !telemetry_ok {
        eprintln!("WARNING: flight recorder overhead exceeded 5% (see telemetry section)");
        std::process::exit(1);
    }
    if !smoke && best_alt >= rr {
        eprintln!(
            "WARNING: load-aware routing ({best_alt:.0}µs) did not beat round-robin ({rr:.0}µs) on fleet p99"
        );
        std::process::exit(1);
    }
}
