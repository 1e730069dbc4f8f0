//! Fault-injection contracts for the fleet clock.
//!
//! Three pillars, with the clock's own `debug_assertions` oracles (busy
//! set vs. linear scan, incremental views vs. fresh rebuild) checking
//! every epoch of every debug run:
//! * **conservation** — every injected arrival is exactly one of
//!   {completed (possibly after retries), timeout-dropped, shed,
//!   in-flight-at-horizon}, proptested over random fault plans on
//!   random heterogeneous fleets;
//! * **recycling** — a clock run on a `ClusterCtx` dirtied by another
//!   faulted fleet agrees bit for bit with a fresh clock;
//! * **resilience semantics** — crashes requeue to survivors, recovery
//!   restores service, BE jobs evacuate, throttles slow replicas
//!   deterministically, degradation parks BE (and sheds no LS without a
//!   tier map), and requeue beats drop-on-crash on delivered requests.

use gpu_spec::GpuModel;
use proptest::prelude::*;
use workload::chaos::{FaultEvent, FaultKind, FaultPlan};
use workload::cluster::{ClusterConfig, ClusterCtx, ControllerConfig, RouterKind};
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

/// The proptests' faulted fleet: replica `r` is an A2000 or a GTX 1080
/// by bit `r` of `gpu_bits`, the controller ticks every 12 ms, and
/// `adaptive` adds eager migrations with Ch_BE retuning on both ends.
fn faulted_fleet(
    n_replicas: usize,
    gpu_bits: u64,
    system: SystemKind,
    scale: f64,
    seed: u64,
    fault: (u64, f64),
    adaptive: bool,
) -> ClusterConfig {
    let (fault_seed, intensity) = fault;
    let models = [GpuModel::RtxA2000, GpuModel::Gtx1080];
    let gpus: Vec<GpuModel> = (0..n_replicas)
        .map(|r| models[((gpu_bits >> r) & 1) as usize])
        .collect();
    let mut cfg = ClusterConfig::new(gpus, system);
    cfg.horizon_us = if cfg!(debug_assertions) { 2.5e4 } else { 6e4 };
    cfg.trace = TraceConfig::apollo_like().scaled(scale);
    cfg.seed = seed;
    cfg.controller.period_us = 1.2e4;
    if adaptive {
        cfg.controller.breach_ratio = 0.9;
        cfg.controller.adaptive_ch_be = true;
    }
    cfg.chaos = Some(FaultPlan::generate(
        fault_seed,
        n_replicas,
        cfg.horizon_us,
        intensity,
    ));
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

proptest! {
    /// A recycled fleet clock agrees with a fresh one: running a random
    /// faulted fleet on a [`ClusterCtx`] left behind by a differently
    /// sized, differently seeded faulted run is bit-identical to running
    /// it on a fresh context, over random fault plans on random
    /// heterogeneous fleets × systems × routers.
    #[test]
    fn clocks_agree_under_any_fault_plan(
        n_replicas in 1usize..5,
        gpu_bits in 0u64..16,
        system_idx in 0usize..6,
        router_idx in 0usize..3,
        scale in 0.8f64..2.4,
        seed in 0u64..1_000_000,
        fault in (0u64..1_000_000, 0.5f64..2.5),
        dirty_seed in 0u64..1_000_000,
    ) {
        let system = SystemKind::all()[system_idx];
        let router = RouterKind::all()[router_idx];
        let cfg = faulted_fleet(n_replicas, gpu_bits, system, scale, seed, fault, true);
        let mut dirty = faulted_fleet(
            1 + (dirty_seed % 4) as usize,
            !gpu_bits,
            SystemKind::all()[(dirty_seed % 6) as usize],
            scale,
            dirty_seed,
            (dirty_seed, fault.1),
            true,
        );
        dirty.horizon_us /= 2.0;
        let (fresh, recycled) = fresh_and_recycled(&cfg, &dirty, router);
        prop_assert_eq!(recycled, fresh);
    }

    /// Conservation under faults: every injected arrival is exactly one
    /// of completed / timeout-dropped / shed / in-flight-at-horizon,
    /// over random fault plans, heterogeneous fleets, systems, routers,
    /// controllers and retry budgets.
    #[test]
    fn arrivals_are_conserved_under_faults(
        fleet in (1usize..5, 0u64..16),
        system_idx in 0usize..6,
        router_idx in 0usize..3,
        scale in 0.8f64..2.4,
        seed in 0u64..1_000_000,
        fault in (0u64..1_000_000, 0.5f64..3.0),
        max_retries in 0u32..6,
        adaptive in 0u32..2,
    ) {
        let (n_replicas, gpu_bits) = fleet;
        let system = SystemKind::all()[system_idx];
        let router = RouterKind::all()[router_idx];
        let mut cfg = faulted_fleet(n_replicas, gpu_bits, system, scale, seed, fault, adaptive == 1);
        let plan = cfg.chaos.as_mut().expect("faulted fleet");
        plan.retry.max_retries = max_retries;
        // A tight BE-parking threshold so the ladder actually moves.
        plan.degradation.shed_be_backlog = 6;
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
        // Resilience counters are internally consistent, too.
        prop_assert!(res.retries == res.redispatch_hist.count());
        prop_assert!(res.faults_recovered <= res.faults_injected);
    }
}
