//! Elastic-membership semantics of the fleet clock, on fixed
//! scenarios: an untouched warm pool costs nothing, scale-up pays the
//! provisioning delay before a lane turns routable, scale-down drains
//! and retires without losing work, crash replacement beats the
//! no-replacement fleet on delivered requests, a crash on a
//! provisioning lane cancels its scale-up, and `prepare` rejects fault
//! targets past the warm lanes. Conservation, context recycling and the
//! no-op config's bit-identity under random scaling policies are
//! properties of `cluster_contracts.rs`, whose draws cross elastic
//! configs with every other layer.

use gpu_spec::GpuModel;
use workload::chaos::{FaultEvent, FaultPlan};
use workload::cluster::{ClusterConfig, ControllerConfig, RouterKind};
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
