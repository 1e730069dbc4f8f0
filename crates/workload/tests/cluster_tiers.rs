//! Tiered-SLO semantics of the fleet clock and the routers' tier
//! contract.
//!
//! * **brownout semantics** — under crash-driven overload the ladder
//!   refuses best-effort work first and never touches the Guaranteed
//!   tier, queued admissions drain after recovery, and zero-retry
//!   tiers drop crash-orphaned work immediately;
//! * **router tier contract** — the fleet clock routes every request
//!   through `route_with_tier` (rank 0 throughout a tier-blind run),
//!   so a tier-blind fleet routes as `route` would only because rank 0
//!   routes exactly like `route`, pinned per router by
//!   `rank_zero_routes_exactly_like_route`; shortest-backlog's
//!   packed-key pick is pinned to its tuple definition by
//!   `shortest_backlog_picks_the_tuple_minimum`.
//!
//! Per-tier conservation, context recycling under random tier maps,
//! and the tier-blind map's equality with `tiers: None` are properties
//! of `cluster_contracts.rs`, whose draws cross tier maps with every
//! other layer.

use gpu_spec::GpuModel;
use proptest::prelude::*;
use workload::chaos::{FaultEvent, FaultPlan};
use workload::cluster::{
    ClusterConfig, ControllerConfig, JoinShortestBacklog, ReplicaView, RouterKind, RoutingPolicy,
};
use workload::trace::TraceConfig;
use workload::{AdmissionClass, SystemKind, TierConfig, TierOutcome, TiersConfig};

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
/// unit tests perturb with tier configs and fault plans.
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

/// Number of LS services every replica deploys (the length a tier map
/// must match), read off a prepared instance of the base scenario.
fn n_ls() -> usize {
    base_cfg().prepare().n_ls()
}

/// The canonical three-class tier map the behavior tests use: service 0
/// Guaranteed (weight 8), services 1..n/2 Burstable (weight 3), the
/// rest BestEffort (weight 1), with an aggressive ladder so short test
/// horizons reach the queue and shed rungs.
fn three_class_tiers(n_ls: usize) -> TiersConfig {
    let mut cfg = TiersConfig::new(
        (0..n_ls)
            .map(|task| {
                if task == 0 {
                    TierConfig::guaranteed(8.0)
                } else if task < n_ls / 2 {
                    TierConfig::burstable(2, 3.0)
                } else {
                    TierConfig::best_effort(3, 1.0)
                }
            })
            .collect(),
    );
    cfg.enter_backlog = 4;
    cfg.exit_backlog = 2;
    cfg.hold_ticks = 2;
    cfg.queue_capacity = 8;
    cfg.shed_per_tick = 16;
    cfg
}

/// The conservation identity every tiered run must satisfy: globally
/// with the refused-admission term, per tier exactly, and the tier
/// ledgers must sum back to the global counters.
fn assert_conserved_tiered(r: &workload::ClusterResult) {
    assert_eq!(
        r.arrivals_injected,
        r.requests + r.timeout_drops + r.ls_shed + r.refused_admission + r.in_flight_at_end,
        "conservation: injected {} != completed {} + dropped {} + shed {} + refused {} \
         + in-flight {}",
        r.arrivals_injected,
        r.requests,
        r.timeout_drops,
        r.ls_shed,
        r.refused_admission,
        r.in_flight_at_end,
    );
    for o in &r.tier_outcomes {
        o.assert_conserved();
        assert_eq!(
            o.arrivals,
            o.admitted + o.queued + o.refused(),
            "tier {}: every arrival is admitted, queued or refused",
            o.tier
        );
    }
    let sum = |f: fn(&TierOutcome) -> u64| r.tier_outcomes.iter().map(f).sum::<u64>();
    assert_eq!(sum(|o| o.arrivals), r.arrivals_injected);
    assert_eq!(sum(|o| o.completed), r.requests);
    assert_eq!(sum(|o| o.timeout_drops), r.timeout_drops);
    assert_eq!(sum(|o| o.shed), r.ls_shed);
    assert_eq!(sum(|o| o.refused()), r.refused_admission);
    assert_eq!(sum(|o| o.in_flight_at_end), r.in_flight_at_end);
}

/// Crash-driven overload on the canonical three-class map: the ladder
/// refuses and/or queues best-effort work, the Guaranteed tier is
/// never refused, queued or shed, and since the bursty trace has calm
/// windows the browned tiers are re-admitted and still complete work.
#[test]
fn overload_refuses_best_effort_first_and_recovers() {
    let mut cfg = base_cfg();
    cfg.trace = TraceConfig::apollo_like().scaled(3.0).with_bursts(2.0, 0.4);
    cfg.tiers = Some(three_class_tiers(n_ls()));
    cfg.chaos = Some(FaultPlan::new(vec![FaultEvent::crash(
        0,
        cfg.horizon_us * 0.25,
        f64::INFINITY,
    )]));
    let res = run(&cfg, RouterKind::ShortestBacklog);
    assert_conserved_tiered(&res);

    let by_class = |class: AdmissionClass| {
        res.tier_outcomes
            .iter()
            .find(|o| o.class == class)
            .unwrap_or_else(|| panic!("{} tier present", class.name()))
    };
    let g = by_class(AdmissionClass::Guaranteed);
    let be = by_class(AdmissionClass::BestEffort);
    assert_eq!(
        (g.refused(), g.queued, g.shed),
        (0, 0, 0),
        "Guaranteed tier must never be refused, queued or shed"
    );
    assert!(
        res.refused_admission > 0,
        "sustained overload must refuse admission (refused = 0)"
    );
    assert!(
        be.refused() + be.queued > 0,
        "brownout must hit the best-effort tier first (refused {} queued {})",
        be.refused(),
        be.queued,
    );
    assert!(
        be.completed > 0,
        "calm windows must re-admit the browned tier (BE completed = 0)"
    );
    assert!(
        res.weighted_goodput_hz > 0.0,
        "weighted goodput must be reported"
    );
    let horizon_s = cfg.horizon_us / 1e6;
    let from_tiers: f64 = res
        .tier_outcomes
        .iter()
        .map(|o| o.slo_met as f64 * o.weight / horizon_s)
        .sum();
    assert!(
        (res.weighted_goodput_hz - from_tiers).abs() < 1e-9 * from_tiers.max(1.0),
        "weighted goodput {} must equal the tier-ledger sum {}",
        res.weighted_goodput_hz,
        from_tiers
    );
}

/// Deadline-aware retry budgets: a zero-retry best-effort tier drops
/// its crash-orphaned work immediately instead of burning survivor
/// capacity on retries, while the Guaranteed tier keeps its budget.
#[test]
fn zero_retry_tier_drops_orphans_immediately() {
    let mut cfg = base_cfg();
    cfg.trace = TraceConfig::apollo_like().scaled(3.0).with_bursts(2.0, 0.4);
    cfg.tiers = Some(three_class_tiers(n_ls()));
    cfg.chaos = Some(FaultPlan::new(vec![FaultEvent::crash(
        0,
        cfg.horizon_us * 0.25,
        f64::INFINITY,
    )]));
    let res = run(&cfg, RouterKind::P2cSlo);
    assert_conserved_tiered(&res);
    let be = res
        .tier_outcomes
        .iter()
        .find(|o| o.class == AdmissionClass::BestEffort)
        .expect("best-effort tier present");
    assert!(
        be.timeout_drops > 0,
        "crash must orphan some zero-retry BE work into immediate drops"
    );
}

proptest! {
    /// The rank-0 router contract: for each built-in router, two
    /// same-seed instances fed the same random view sequences pick
    /// identical slots under `route` and `route_with_tier(.., 0, ..)`.
    #[test]
    fn rank_zero_routes_exactly_like_route(
        seed in 0u64..u64::MAX,
        steps in prop::collection::vec(
            (
                0usize..8,
                prop::collection::vec((0usize..16, 0.0f64..2.0, 0u8..4), 1..9),
            ),
            1..48,
        ),
    ) {
        for kind in RouterKind::all() {
            let (mut blind, mut ranked) = (kind.make(seed), kind.make(seed));
            for (i, (task, lanes)) in steps.iter().enumerate() {
                let views: Vec<ReplicaView> = lanes
                    .iter()
                    .map(|&(backlog, window_p99_ratio, health)| ReplicaView {
                        backlog,
                        window_p99_ratio,
                        // One lane in four unhealthy, so all-unhealthy
                        // fallbacks are sampled too.
                        healthy: health != 0,
                    })
                    .collect();
                let at_us = i as f64 * 100.0;
                prop_assert_eq!(
                    blind.route(&views, *task, at_us),
                    ranked.route_with_tier(&views, *task, 0, at_us),
                    "{} diverged at step {}",
                    kind.name(),
                    i
                );
            }
        }
    }

    /// `JoinShortestBacklog`'s packed `u128` key picks exactly the first
    /// minimum of its tuple definition — `(!healthy, backlog, index)` at
    /// rank 0, `(!healthy, window_p99_ratio <= 1.0, backlog, index)`
    /// below — over random health, tied and extreme backlogs (up to
    /// `usize::MAX`), and NaN, exactly-1.0 and random ratios, on fleets
    /// of up to 520 lanes.
    #[test]
    fn shortest_backlog_picks_the_tuple_minimum(
        lanes in prop::collection::vec(
            (0u8..4, 0usize..usize::MAX, 0u8..4, 0.0f64..2.0, 0u8..4),
            1..520,
        ),
        rank in 0u32..3,
    ) {
        let views: Vec<ReplicaView> = lanes
            .iter()
            .map(|&(b_kind, b, r_kind, r, health)| ReplicaView {
                backlog: match b_kind {
                    0 => b % 3,
                    1 => usize::MAX,
                    2 => usize::MAX - b % 3,
                    _ => b,
                },
                window_p99_ratio: match r_kind {
                    0 => f64::NAN,
                    1 => 1.0,
                    _ => r,
                },
                healthy: health != 0,
            })
            .collect();
        let tuple_pick = views
            .iter()
            .enumerate()
            .min_by_key(|(i, v)| {
                (!v.healthy, rank > 0 && v.window_p99_ratio <= 1.0, v.backlog, *i)
            })
            .expect("non-empty")
            .0;
        let mut jsb = JoinShortestBacklog;
        prop_assert_eq!(jsb.route_with_tier(&views, 0, rank, 0.0), tuple_pick);
        if rank == 0 {
            prop_assert_eq!(jsb.route(&views, 0, 0.0), tuple_pick);
        }
    }
}
