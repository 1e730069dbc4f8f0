//! Fault-injection semantics of the fleet clock, on fixed scenarios:
//! crashes requeue to survivors, recovery restores service, BE jobs
//! evacuate, throttles slow replicas deterministically, degradation
//! parks BE (and sheds no LS without a tier map), requeue beats
//! drop-on-crash on delivered requests, and an empty plan equals no
//! plan. Conservation and context recycling under random fault plans
//! are properties of `cluster_contracts.rs`, whose draws cross fault
//! plans with every other layer.

use gpu_spec::GpuModel;
use workload::chaos::{FaultEvent, FaultKind, FaultPlan};
use workload::cluster::{ClusterConfig, ControllerConfig, RouterKind};
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
/// unit tests perturb with fault plans.
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

/// The conservation identity every chaos run must satisfy.
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

/// A crash mid-run with a later recovery: queued work requeues to the
/// survivor, resident BE jobs evacuate through the migration path, and
/// the revived replica serves again — all of it conserved.
#[test]
fn crash_requeues_to_survivor_and_recovery_restores_service() {
    let mut cfg = base_cfg();
    let crash_at = cfg.horizon_us * 0.35;
    let down_for = cfg.horizon_us * 0.3;
    cfg.chaos = Some(FaultPlan::new(vec![FaultEvent::crash(
        0, crash_at, down_for,
    )]));
    let res = run(&cfg, RouterKind::ShortestBacklog);

    assert_eq!(res.faults_injected, 1);
    assert_eq!(res.faults_recovered, 1);
    assert!(res.requeued > 0, "crash at peak load must orphan requests");
    assert!(
        res.retries > 0,
        "orphaned requests must be re-dispatched to the survivor"
    );
    assert!(
        res.redispatch_hist.count() == res.retries,
        "every successful re-dispatch records its delay"
    );
    // Replica 0 hosted a BE job (round-robin placement) — the crash
    // must have evacuated it.
    assert!(
        res.migrations
            .iter()
            .any(|m| m.from == 0 && m.at_us == crash_at),
        "crash must evacuate replica 0's BE jobs: {:?}",
        res.migrations
    );
    // The revived replica serves again after recovery: it completes
    // more requests than it had at the crash (routing resumes once its
    // heartbeat is fresh).
    assert!(res.replicas[0].requests > 0);
    assert!(res.replicas[1].requests > 0);
    assert_conserved(&res);

    // Against the same fleet without faults: the outage costs goodput.
    let mut happy = cfg.clone();
    happy.chaos = None;
    let base = run(&happy, RouterKind::ShortestBacklog);
    assert!(
        res.slo_met < base.slo_met,
        "an outage must cost SLO-met completions ({} vs {})",
        res.slo_met,
        base.slo_met
    );
    assert_conserved(&base);
}

/// Requeue-on-crash vs drop-on-crash (`max_retries = 0`), same fault
/// plan otherwise: once the crashed replica recovers and capacity
/// returns, the retry path has delivered strictly more requests and
/// dropped strictly fewer.
#[test]
fn requeue_delivers_more_than_drop_on_crash() {
    let mut cfg = base_cfg();
    let crash_at = cfg.horizon_us * 0.35;
    cfg.chaos = Some(FaultPlan::new(vec![FaultEvent::crash(
        0,
        crash_at,
        cfg.horizon_us * 0.25,
    )]));

    let requeue = run(&cfg, RouterKind::ShortestBacklog);
    let mut drop_cfg = cfg.clone();
    drop_cfg
        .chaos
        .as_mut()
        .expect("set above")
        .retry
        .max_retries = 0;
    let drop = run(&drop_cfg, RouterKind::ShortestBacklog);

    // Identical history up to the crash, identical drained set — the
    // retry policy decides its fate.
    assert_eq!(requeue.arrivals_injected, drop.arrivals_injected);
    assert!(
        requeue.requests > drop.requests,
        "requeue must deliver more than drop-on-crash ({} vs {})",
        requeue.requests,
        drop.requests
    );
    assert!(requeue.timeout_drops < drop.timeout_drops);
    assert!(drop.retries == 0 && drop.redispatch_hist.is_empty());
    assert_conserved(&requeue);
    assert_conserved(&drop);
}

/// A permanent near-stall on a single-replica fleet: the clock scale
/// throttles throughput hard, deterministically, and the run still
/// conserves every arrival (no healthy-lane starvation panics).
#[test]
fn throttle_slows_progress_deterministically() {
    let mut cfg = base_cfg();
    cfg.gpus = vec![GpuModel::RtxA2000];
    cfg.be_jobs = vec![0];
    let slow = FaultEvent::slowdown(
        FaultKind::Stall,
        0,
        cfg.horizon_us * 0.2,
        0.05,
        f64::INFINITY,
    );
    cfg.chaos = Some(FaultPlan::new(vec![slow]));
    let throttled = run(&cfg, RouterKind::RoundRobin);
    let again = run(&cfg, RouterKind::RoundRobin);
    assert_eq!(throttled, again, "chaos runs must replay exactly");

    let mut happy = cfg.clone();
    happy.chaos = None;
    let base = run(&happy, RouterKind::RoundRobin);
    assert!(
        throttled.requests < base.requests / 2,
        "a 20×-slowed replica must complete far fewer requests ({} vs {})",
        throttled.requests,
        base.requests
    );
    assert_eq!(throttled.faults_injected, 1);
    assert_eq!(
        throttled.faults_recovered, 0,
        "permanent fault never restores"
    );
    assert_conserved(&throttled);
}

/// With one replica permanently down and an aggressive BE-parking
/// threshold, the tier-blind ladder parks BE work on the overloaded
/// survivor — and, with no tier map to say what matters less, never
/// sheds pending LS requests.
#[test]
fn degradation_parks_be_and_sheds_no_ls_without_tiers() {
    let mut cfg = base_cfg();
    cfg.trace = TraceConfig::apollo_like().scaled(3.0).with_bursts(2.0, 0.4);
    let mut plan = FaultPlan::new(vec![FaultEvent::crash(
        0,
        cfg.horizon_us * 0.25,
        f64::INFINITY,
    )]);
    plan.degradation.shed_be_backlog = 4;
    cfg.chaos = Some(plan);
    let res = run(&cfg, RouterKind::ShortestBacklog);
    assert!(
        res.be_shed > 0,
        "survivor overload must park BE work (be_shed = {})",
        res.be_shed
    );
    assert_eq!(res.ls_shed, 0, "a tier-blind fleet never sheds LS");
    assert_conserved(&res);
}

/// An armed-but-empty fault plan is bit-identical to no plan at all
/// while its BE-parking rung stays idle — here the per-alive backlog
/// never exceeds the default `shed_be_backlog` (nor half of it during a
/// p99 breach): the resilience machinery must cost nothing on the happy
/// path.
#[test]
fn empty_fault_plan_matches_no_plan_exactly() {
    let mut with_plan = base_cfg();
    with_plan.chaos = Some(FaultPlan::none());
    let mut without = base_cfg();
    without.chaos = None;
    for router in RouterKind::all() {
        let a = run(&with_plan, router);
        let b = run(&without, router);
        assert_eq!(a, b, "{}: empty plan diverged from no plan", router.name());
    }
}
