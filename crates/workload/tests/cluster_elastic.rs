//! Elastic-fleet contracts for the fleet clock.
//!
//! Four pillars, with the clock's own `debug_assertions` oracles
//! (busy set vs. linear scan, incremental views vs. fresh rebuild)
//! checking every epoch of every debug run:
//! * **no-op bit-identity** — an elastic config that can never change
//!   membership (empty warm pool, `Hold`, min == initial) reproduces
//!   the pre-elastic simulator exactly, for every system and router;
//! * **conservation** — arrivals == completions + timeout-drops +
//!   shed + in-flight-at-horizon across random
//!   join/drain/crash-replacement schedules, fault plans, controllers
//!   and all systems;
//! * **recycling** — a clock run on a `ClusterCtx` dirtied by another
//!   elastic, faulted fleet agrees bit for bit with a fresh clock;
//! * **lifecycle semantics** — scale-up pays the provisioning delay
//!   before a lane turns routable, scale-down drains and retires
//!   without losing work, and crash replacement beats the
//!   no-replacement fleet on delivered requests.

use gpu_spec::GpuModel;
use proptest::prelude::*;
use workload::chaos::{FaultEvent, FaultPlan};
use workload::cluster::{ClusterConfig, ClusterCtx, ControllerConfig, RouterKind};
use workload::elastic::{
    ElasticConfig, ScaleCause, ScaleEventKind, ScalingPolicyKind, ThresholdPolicy, WarmPoolConfig,
};
use workload::trace::TraceConfig;
use workload::SystemKind;

fn short_horizon() -> f64 {
    if cfg!(debug_assertions) {
        1e5
    } else {
        2.5e5
    }
}

fn run(cfg: &ClusterConfig, router: RouterKind) -> workload::ClusterResult {
    let mut r = router.make(cfg.seed);
    workload::run_cluster(cfg, r.as_mut())
}

/// A busy two-GPU fleet with a fast controller — the base scenario the
/// unit tests perturb with elastic configs.
fn base_cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig::new(
        vec![GpuModel::RtxA2000, GpuModel::Gtx1080],
        SystemKind::Sgdrc,
    );
    cfg.horizon_us = short_horizon();
    cfg.trace = TraceConfig::apollo_like().scaled(2.0);
    cfg.controller = ControllerConfig {
        period_us: 1e4,
        breach_ratio: 0.9,
        adaptive_ch_be: true,
        ..Default::default()
    };
    cfg
}

/// A warm pool with a short, deterministic-but-jittered delay so
/// provisioning completes well inside the short test horizon.
fn fast_pool(gpus: Vec<GpuModel>) -> WarmPoolConfig {
    WarmPoolConfig {
        provision_delay_us: 5e3,
        provision_jitter: 0.2,
        ..WarmPoolConfig::new(gpus)
    }
}

/// Runs `cfg` on a fresh [`ClusterCtx`] and again on a context recycled
/// from a run of `dirty`, returning `(fresh, recycled)`. The recycled
/// run inherits the hot mirrors, view slot mapping, router views, lane
/// stores and retry scratch that `dirty` left behind.
fn fresh_and_recycled(
    cfg: &ClusterConfig,
    dirty: &ClusterConfig,
    router: RouterKind,
) -> (workload::ClusterResult, workload::ClusterResult) {
    let fresh = run(cfg, router);
    let mut ctx = ClusterCtx::new();
    let mut r = router.make(dirty.seed);
    let _ = workload::run_cluster_in(dirty, r.as_mut(), &mut ctx);
    let mut r = router.make(cfg.seed);
    let recycled = workload::run_cluster_in(cfg, r.as_mut(), &mut ctx);
    (fresh, recycled)
}

fn assert_conserved(r: &workload::ClusterResult) {
    assert_eq!(
        r.arrivals_injected,
        r.requests + r.timeout_drops + r.ls_shed + r.in_flight_at_end,
        "conservation: injected {} != completed {} + dropped {} + shed {} + in-flight {}",
        r.arrivals_injected,
        r.requests,
        r.timeout_drops,
        r.ls_shed,
        r.in_flight_at_end,
    );
}

/// The acceptance baseline: a pinned elastic config (no warm lanes,
/// `Hold`, min == initial) is bit-identical to `elastic: None` for
/// every `SystemKind` and router.
#[test]
fn noop_elasticity_matches_disabled_exactly() {
    for system in SystemKind::all() {
        for router in RouterKind::all() {
            let mut cfg = base_cfg();
            cfg.system = system;
            let mut pinned =
                ElasticConfig::new(WarmPoolConfig::new(vec![]), ScalingPolicyKind::Hold);
            pinned.min_replicas = cfg.gpus.len();
            let mut elastic = cfg.clone();
            elastic.elastic = Some(pinned);
            let a = run(&elastic, router);
            let b = run(&cfg, router);
            assert_eq!(
                a,
                b,
                "{:?}/{}: pinned elastic config diverged from elastic: None",
                system,
                router.name()
            );
        }
    }
}

/// A warm pool that is never drawn from costs nothing: the configured
/// lanes serve identically to the non-elastic fleet and the frozen
/// warm lane bills zero replica-seconds.
#[test]
fn untouched_warm_pool_leaves_serving_identical() {
    let mut cfg = base_cfg();
    let n_init = cfg.gpus.len();
    let mut hold = ElasticConfig::new(fast_pool(vec![GpuModel::RtxA2000]), ScalingPolicyKind::Hold);
    hold.min_replicas = n_init;
    let mut elastic = cfg.clone();
    elastic.elastic = Some(hold);
    let a = run(&elastic, RouterKind::ShortestBacklog);
    let b = run(&cfg, RouterKind::ShortestBacklog);
    cfg.elastic = None;
    assert_eq!(a.requests, b.requests);
    assert_eq!(a.slo_met, b.slo_met);
    assert_eq!(a.fleet_hist, b.fleet_hist);
    assert_eq!(a.migrations, b.migrations);
    assert_eq!(a.arrivals_injected, b.arrivals_injected);
    assert_eq!(a.replicas.len(), n_init + 1);
    assert_eq!(a.replicas[..n_init], b.replicas[..n_init]);
    let warm = &a.replicas[n_init];
    assert_eq!(warm.requests, 0, "frozen warm lane must serve nothing");
    assert_eq!(warm.active_us, 0.0, "frozen warm lane must bill nothing");
    assert_eq!(a.replica_seconds, b.replica_seconds);
    assert!(a.scale_events.is_empty());
    assert_conserved(&a);
}

/// Scale-up under pressure: the threshold policy provisions a warm
/// lane, the lane pays the seeded delay before its `Activate`, and it
/// serves real traffic afterwards.
#[test]
fn scale_up_pays_provision_delay_then_serves() {
    let mut cfg = base_cfg();
    cfg.trace = TraceConfig::apollo_like().scaled(3.0).with_bursts(2.0, 0.4);
    let n_init = cfg.gpus.len();
    let mut e = ElasticConfig::new(
        fast_pool(vec![GpuModel::RtxA2000, GpuModel::RtxA2000]),
        ScalingPolicyKind::Threshold(ThresholdPolicy {
            up_backlog: 2.0,
            ..Default::default()
        }),
    );
    e.min_replicas = n_init;
    cfg.elastic = Some(e);
    let res = run(&cfg, RouterKind::P2cSlo);
    assert!(res.warm_hits > 0, "pressure must draw from the warm pool");
    assert!(res.provision_delay_total_us > 0.0);
    let provision = res
        .scale_events
        .iter()
        .find(|ev| {
            matches!(
                ev.kind,
                ScaleEventKind::Provision {
                    cause: ScaleCause::Load,
                    ..
                }
            )
        })
        .expect("a Load provision event");
    let activate = res
        .scale_events
        .iter()
        .find(|ev| ev.replica == provision.replica && ev.kind == ScaleEventKind::Activate)
        .expect("the provisioned lane must activate");
    let ScaleEventKind::Provision { ready_at_us, .. } = provision.kind else {
        unreachable!()
    };
    assert_eq!(
        activate.at_us, ready_at_us,
        "activation happens exactly at the drawn ready instant"
    );
    assert!(
        activate.at_us > provision.at_us,
        "the provisioning delay must separate decision from membership"
    );
    let joined = &res.replicas[provision.replica];
    assert!(joined.requests > 0, "the activated lane must serve traffic");
    assert!(joined.active_us > 0.0 && joined.active_us < cfg.horizon_us);
    assert_conserved(&res);
}

/// Scale-down on an idle fleet: surplus lanes drain, retire, and the
/// run bills measurably fewer replica-seconds than the static fleet —
/// without losing a single request.
#[test]
fn scale_down_drains_retires_and_saves_replica_seconds() {
    let mut cfg = ClusterConfig::new(vec![GpuModel::RtxA2000; 3], SystemKind::Sgdrc);
    cfg.horizon_us = short_horizon();
    cfg.trace = TraceConfig::apollo_like().scaled(0.4);
    cfg.controller.period_us = 1e4;
    let mut e = ElasticConfig::new(
        WarmPoolConfig::new(vec![]),
        ScalingPolicyKind::Threshold(ThresholdPolicy {
            up_ratio: 50.0,
            up_backlog: 1e9,
            down_ratio: 5.0,
            down_backlog: 8.0,
            step: 1,
        }),
    );
    e.min_replicas = 1;
    cfg.elastic = Some(e);
    let res = run(&cfg, RouterKind::ShortestBacklog);
    assert!(res.drains_started > 0, "an idle fleet must scale down");
    assert!(
        res.drains_completed > 0,
        "drained lanes must quiesce and retire"
    );
    assert!(res
        .scale_events
        .iter()
        .any(|ev| ev.kind == ScaleEventKind::Retire));
    let static_seconds = 3.0 * cfg.horizon_us / 1e6;
    assert!(
        res.replica_seconds < static_seconds,
        "retired lanes must stop billing ({} vs static {})",
        res.replica_seconds,
        static_seconds
    );
    assert_conserved(&res);

    // The same trace on the static fleet completes the same arrivals —
    // scale-down costs capacity, never correctness.
    let mut static_cfg = cfg.clone();
    static_cfg.elastic = None;
    let base = run(&static_cfg, RouterKind::ShortestBacklog);
    assert_eq!(res.arrivals_injected, base.arrivals_injected);
    assert_conserved(&base);
}

/// Crash replacement closes the loop with chaos: a permanently dead
/// lane is written off after the confirmation window, a warm lane takes
/// its place, and the self-healing fleet delivers more than the
/// no-replacement fleet under the identical fault plan.
#[test]
fn crash_replacement_beats_no_replacement() {
    let mut cfg = base_cfg();
    let crash_at = cfg.horizon_us * 0.25;
    cfg.chaos = Some(FaultPlan::new(vec![FaultEvent::crash(
        0,
        crash_at,
        f64::INFINITY,
    )]));
    let mut e = ElasticConfig::new(fast_pool(vec![GpuModel::RtxA2000]), ScalingPolicyKind::Hold);
    e.min_replicas = 1;
    e.replace_after_us = 1e4;
    let mut healing = cfg.clone();
    healing.elastic = Some(e);

    let healed = run(&healing, RouterKind::ShortestBacklog);
    let hole = run(&cfg, RouterKind::ShortestBacklog);

    assert_eq!(healed.replacements, 1, "the dead lane must be replaced");
    assert!(healed.scale_events.iter().any(|ev| matches!(
        ev.kind,
        ScaleEventKind::Provision {
            cause: ScaleCause::CrashReplace,
            ..
        }
    )));
    assert!(healed
        .scale_events
        .iter()
        .any(|ev| ev.replica == 0 && ev.kind == ScaleEventKind::Retire));
    assert_eq!(healed.arrivals_injected, hole.arrivals_injected);
    assert!(
        healed.requests > hole.requests,
        "self-healing must out-deliver the fleet with a hole ({} vs {})",
        healed.requests,
        hole.requests
    );
    assert_conserved(&healed);
    assert_conserved(&hole);
}

/// Satellite: `prepare` rejects fault events aimed past the fleet —
/// including the warm lanes — instead of silently ignoring them.
#[test]
#[should_panic(expected = "fault plan targets replica")]
fn out_of_range_fault_target_is_rejected() {
    let mut cfg = base_cfg();
    cfg.chaos = Some(FaultPlan::new(vec![FaultEvent::crash(7, 1e4, 1e4)]));
    run(&cfg, RouterKind::RoundRobin);
}

/// Warm lanes are legal fault targets: a crash on a provisioning lane
/// cancels the scale-up and the lane falls back to the warm pool.
#[test]
fn crash_mid_provisioning_cancels_the_scale_up() {
    let mut cfg = base_cfg();
    cfg.trace = TraceConfig::apollo_like().scaled(3.0).with_bursts(2.0, 0.4);
    let warm_lane = cfg.gpus.len();
    // Crash the (sole) warm lane just after the first tick — any
    // provisioning started there must abort.
    cfg.chaos = Some(FaultPlan::new(vec![FaultEvent::crash(
        warm_lane,
        1.1e4,
        f64::INFINITY,
    )]));
    let mut e = ElasticConfig::new(
        WarmPoolConfig {
            provision_delay_us: 5e4,
            provision_jitter: 0.0,
            ..WarmPoolConfig::new(vec![GpuModel::RtxA2000])
        },
        ScalingPolicyKind::Threshold(ThresholdPolicy {
            up_backlog: 0.5,
            ..Default::default()
        }),
    );
    e.min_replicas = cfg.gpus.len();
    cfg.elastic = Some(e);
    let res = run(&cfg, RouterKind::ShortestBacklog);
    assert!(res.warm_hits > 0, "pressure must start a provisioning");
    assert!(
        res.scale_events
            .iter()
            .any(|ev| ev.replica == warm_lane && ev.kind == ScaleEventKind::CancelProvision),
        "the crash must cancel the in-flight provisioning: {:?}",
        res.scale_events
    );
    assert!(
        !res.scale_events
            .iter()
            .any(|ev| ev.replica == warm_lane && ev.kind == ScaleEventKind::Activate),
        "a cancelled provisioning never activates"
    );
    assert_conserved(&res);
}

/// A random-but-valid elastic config over `n_init` configured lanes and
/// `warm` warm lanes, exercising every lifecycle path the knob bits
/// enable.
fn random_elastic(n_init: usize, warm: usize, bits: u64) -> ElasticConfig {
    let pool = WarmPoolConfig {
        provision_delay_us: 2e3 + (bits % 7) as f64 * 3e3,
        provision_jitter: 0.25,
        ..WarmPoolConfig::new(vec![GpuModel::RtxA2000; warm])
    };
    let policy = if bits & 1 == 0 {
        ScalingPolicyKind::Hold
    } else {
        ScalingPolicyKind::Threshold(ThresholdPolicy {
            up_ratio: 0.6 + (bits >> 1 & 3) as f64 * 0.3,
            down_ratio: 0.3,
            up_backlog: 1.0 + (bits >> 3 & 7) as f64,
            down_backlog: 2.0,
            step: 1 + (bits >> 6 & 1) as usize,
        })
    };
    let mut e = ElasticConfig::new(pool, policy);
    e.min_replicas = 1 + (bits >> 7) as usize % n_init.max(1);
    e.up_cooldown_us = (bits >> 9 & 1) as f64 * 1.5e4;
    e.down_cooldown_us = (bits >> 10 & 1) as f64 * 1.5e4;
    if bits >> 12 & 1 == 1 {
        e.replace_after_us = 8e3;
    }
    e
}

/// The proptests' elastic fleet: `n_replicas` A2000s with a random
/// warm pool and scaling policy drawn from `pool`, the controller
/// ticking every 12 ms, a generated fault plan when `fault` is set, and
/// `adaptive` adding eager migrations with Ch_BE retuning on both ends.
fn elastic_fleet(
    n_replicas: usize,
    pool: (usize, u64),
    system: SystemKind,
    scale: f64,
    seed: u64,
    fault: Option<(u64, f64)>,
    adaptive: bool,
) -> ClusterConfig {
    let (warm, elastic_bits) = pool;
    let mut cfg = ClusterConfig::new(vec![GpuModel::RtxA2000; n_replicas], system);
    cfg.horizon_us = if cfg!(debug_assertions) { 2.5e4 } else { 6e4 };
    cfg.trace = TraceConfig::apollo_like().scaled(scale);
    cfg.seed = seed;
    cfg.controller.period_us = 1.2e4;
    if adaptive {
        cfg.controller.breach_ratio = 0.9;
        cfg.controller.adaptive_ch_be = true;
    }
    cfg.elastic = Some(random_elastic(n_replicas, warm, elastic_bits));
    if let Some((fault_seed, intensity)) = fault {
        cfg.chaos = Some(FaultPlan::generate(
            fault_seed,
            n_replicas + warm,
            cfg.horizon_us,
            intensity,
        ));
    }
    cfg
}

proptest! {
    /// A recycled fleet clock agrees with a fresh one under elasticity:
    /// random fleets under random scaling policies *and* fault plans,
    /// run on a [`ClusterCtx`] left behind by a differently shaped
    /// elastic run, match a fresh context bit for bit on every field,
    /// including the scale-event log and the membership accounting.
    #[test]
    fn clocks_agree_under_scaling_and_faults(
        n_replicas in 1usize..4,
        pool in (0usize..3, 0u64..8192),
        system_idx in 0usize..6,
        router_idx in 0usize..3,
        scale in 0.8f64..2.4,
        seed in 0u64..1_000_000,
        fault in (0u64..1_000_000, 0.5f64..2.0),
        dirty_seed in 0u64..1_000_000,
    ) {
        let system = SystemKind::all()[system_idx];
        let router = RouterKind::all()[router_idx];
        let cfg = elastic_fleet(n_replicas, pool, system, scale, seed, Some(fault), true);
        let mut dirty = elastic_fleet(
            1 + (dirty_seed % 3) as usize,
            ((dirty_seed / 3 % 3) as usize, dirty_seed % 8192),
            SystemKind::all()[(dirty_seed % 6) as usize],
            scale,
            dirty_seed,
            Some((dirty_seed, fault.1)),
            true,
        );
        dirty.horizon_us /= 2.0;
        let (fresh, recycled) = fresh_and_recycled(&cfg, &dirty, router);
        prop_assert_eq!(recycled, fresh);
    }

    /// Satellite: conservation under elasticity — every injected
    /// arrival is exactly one of completed / timeout-dropped / shed /
    /// in-flight-at-horizon, across random join/drain/crash-replacement
    /// schedules, fault plans, controllers and all systems.
    #[test]
    fn arrivals_are_conserved_under_elasticity(
        n_replicas in 1usize..4,
        pool in (0usize..3, 0u64..8192),
        system_idx in 0usize..6,
        router_idx in 0usize..3,
        mode_bits in 0u64..4,
        scale in 0.8f64..2.4,
        seed in 0u64..1_000_000,
        fault in (0u64..1_000_000, 0.5f64..2.0),
    ) {
        let adaptive = mode_bits & 1 == 1;
        let with_chaos = mode_bits & 2 == 2;
        let system = SystemKind::all()[system_idx];
        let router = RouterKind::all()[router_idx];
        let cfg = elastic_fleet(
            n_replicas,
            pool,
            system,
            scale,
            seed,
            with_chaos.then_some(fault),
            adaptive,
        );
        let res = run(&cfg, router);
        prop_assert_eq!(
            res.arrivals_injected,
            res.requests + res.timeout_drops + res.ls_shed + res.in_flight_at_end,
            "injected {} != completed {} + dropped {} + shed {} + in-flight {}",
            res.arrivals_injected,
            res.requests,
            res.timeout_drops,
            res.ls_shed,
            res.in_flight_at_end
        );
        prop_assert!(res.drains_completed <= res.drains_started);
        prop_assert!(res.faults_recovered <= res.faults_injected);
    }
}
