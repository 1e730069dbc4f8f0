//! Tiered-SLO contracts for the fleet clock.
//!
//! Four pillars, with the clock's own `debug_assertions` oracles
//! (busy set vs. linear scan, incremental views vs. fresh rebuild)
//! checking every epoch of every debug run:
//! * **one path** — attaching [`TiersConfig::tier_blind`] (one
//!   Guaranteed tier mirroring the fleet `RetryConfig`, a ladder whose
//!   one rung parks BE) produces results equal to `tiers: None` up to
//!   the tier-only report fields, with and without a fault plan, for
//!   every `SystemKind` × router — a fleet without a tier map runs
//!   exactly that map;
//! * **conservation** — globally, `injected = completed + dropped +
//!   shed + refused + in-flight`, and per tier via
//!   [`TierOutcome::assert_conserved`], with the tier ledgers summing
//!   back to the global counters, under random tier maps × fault plans
//!   × scaling policies × controllers × systems × routers;
//! * **recycling** — a clock run on a `ClusterCtx` dirtied by another
//!   tiered fleet agrees bit for bit with a fresh clock, tier outcomes
//!   included;
//! * **brownout semantics** — under crash-driven overload the ladder
//!   refuses best-effort work first and never touches the Guaranteed
//!   tier, queued admissions drain after recovery, and zero-retry
//!   tiers drop crash-orphaned work immediately.
//!
//! The fleet clock routes every request through `route_with_tier`
//! (rank 0 throughout a tier-blind run), so a tier-blind fleet routes
//! as `route` would only through the router contract that rank 0
//! routes exactly like `route`, pinned per router by
//! `rank_zero_routes_exactly_like_route`. Shortest-backlog's packed-key
//! pick is pinned to its tuple definition by
//! `shortest_backlog_picks_the_tuple_minimum`.

use gpu_spec::GpuModel;
use proptest::prelude::*;
use workload::chaos::{FaultEvent, FaultPlan};
use workload::cluster::{
    ClusterConfig, ClusterCtx, ControllerConfig, JoinShortestBacklog, ReplicaView, RouterKind,
    RoutingPolicy,
};
use workload::elastic::{ElasticConfig, ScalingPolicyKind, ThresholdPolicy, WarmPoolConfig};
use workload::trace::TraceConfig;
use workload::{AdmissionClass, RetryConfig, SystemKind, TierConfig, TierOutcome, TiersConfig};

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

/// A random-but-valid tier map over `n_ls` services: per-service class
/// drawn from the seed bits (tier id, weight, deadlines and retry
/// budget are canonical per class so shared-tier consistency holds),
/// ladder knobs drawn from the high bits.
fn random_tiers(n_ls: usize, bits: u64) -> TiersConfig {
    let mut cfg = TiersConfig::new(
        (0..n_ls)
            .map(|task| match (bits >> (2 * task)) & 3 {
                0 | 1 => TierConfig::guaranteed(8.0),
                2 => TierConfig::burstable(2, 3.0),
                _ => TierConfig::best_effort(3, 1.0),
            })
            .collect(),
    );
    cfg.enter_backlog = 2 + (bits >> 48 & 15) as usize;
    cfg.exit_backlog = cfg.enter_backlog.min(1 + (bits >> 52 & 7) as usize);
    cfg.hold_ticks = 1 + (bits >> 55 & 3) as u32;
    cfg.queue_capacity = 4 + (bits >> 57 & 31) as usize;
    cfg.shed_per_tick = 4 + (bits >> 62 & 1) as usize * 16;
    cfg
}

/// A random-but-valid elastic config (subset of the cluster_elastic
/// generator) so the tier proptests also cross scaling policies.
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
    if bits >> 12 & 1 == 1 {
        e.replace_after_us = 8e3;
    }
    e
}

/// The proptests' tiered fleet: `n_replicas` A2000s with a random tier
/// map, warm pool and scaling policy drawn from `seeds` and `pool`, the
/// controller ticking every 12 ms, a generated fault plan when `fault`
/// is set, and `adaptive` adding eager migrations with Ch_BE retuning
/// on both ends.
fn tiered_fleet(
    n_replicas: usize,
    pool: (usize, u64),
    system: SystemKind,
    scale: f64,
    seeds: (u64, u64),
    fault: Option<(u64, f64)>,
    adaptive: bool,
) -> ClusterConfig {
    let (warm, elastic_bits) = pool;
    let (seed, tier_bits) = seeds;
    let mut cfg = ClusterConfig::new(vec![GpuModel::RtxA2000; n_replicas], system);
    cfg.horizon_us = if cfg!(debug_assertions) { 2.5e4 } else { 6e4 };
    cfg.trace = TraceConfig::apollo_like().scaled(scale);
    cfg.seed = seed;
    cfg.controller.period_us = 1.2e4;
    if adaptive {
        cfg.controller.breach_ratio = 0.9;
        cfg.controller.adaptive_ch_be = true;
    }
    cfg.tiers = Some(random_tiers(cfg.prepare().n_ls(), tier_bits));
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

/// A fleet without a tier map runs the tier-blind map: attaching
/// [`TiersConfig::tier_blind`] is equal to `tiers: None` on every report
/// field except the tier-only ledger, for every system and router —
/// without a fault plan (the ladder never moves) and with one whose
/// crash and tight `shed_be_backlog` make the ladder park BE.
#[test]
fn tier_blind_map_matches_no_map_exactly() {
    let n_ls = n_ls();
    let mut plan = FaultPlan::new(vec![FaultEvent::crash(0, 5e3, 1e4)]);
    plan.degradation.shed_be_backlog = 2;
    let mut parked = 0;
    for chaos in [None, Some(plan)] {
        for system in SystemKind::all() {
            for router in RouterKind::all() {
                let mut cfg = base_cfg();
                cfg.system = system;
                cfg.horizon_us = if cfg!(debug_assertions) { 2.5e4 } else { 6e4 };
                cfg.chaos = chaos.clone();
                let plain = run(&cfg, router);
                let retry = chaos
                    .as_ref()
                    .map_or(RetryConfig::default(), |p| p.retry.clone());
                let degradation = chaos.as_ref().map(|p| &p.degradation);
                cfg.tiers = Some(TiersConfig::tier_blind(n_ls, &retry, degradation));
                let mut blind = run(&cfg, router);
                assert_eq!(
                    blind.tier_outcomes.len(),
                    1,
                    "the tier-blind map reports its single Guaranteed tier"
                );
                blind.tier_outcomes[0].assert_conserved();
                assert_eq!(blind.tier_outcomes[0].refused(), 0);
                blind.tier_outcomes.clear();
                assert_eq!(
                    plain, blind,
                    "tier-blind map diverged from tiers: None ({system:?} / {router:?})"
                );
                if chaos.is_none() {
                    assert_eq!(plain.be_shed, 0, "no fault plan, no BE parking");
                }
                parked += plain.be_shed;
            }
        }
    }
    assert!(parked > 0, "the fault plan must make the ladder park BE");
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
    /// A recycled fleet clock agrees with a fresh one under tiers: a
    /// random tier map × fault plan × scaling policy × system × router,
    /// run on a [`ClusterCtx`] left behind by a differently shaped
    /// tiered run, matches a fresh context bit for bit, tier outcomes
    /// included.
    #[test]
    fn clocks_agree_under_any_tier_config(
        n_replicas in 1usize..4,
        pool in (0usize..3, 0u64..8192),
        system_idx in 0usize..6,
        router_idx in 0usize..3,
        scale in 0.8f64..2.8,
        seeds in (0u64..1_000_000, 0u64..u64::MAX),
        fault in (0u64..1_000_000, 0.5f64..2.0),
        dirty_seed in 0u64..1_000_000,
    ) {
        let system = SystemKind::all()[system_idx];
        let router = RouterKind::all()[router_idx];
        let cfg = tiered_fleet(n_replicas, pool, system, scale, seeds, Some(fault), true);
        let mut dirty = tiered_fleet(
            1 + (dirty_seed % 3) as usize,
            ((dirty_seed / 3 % 3) as usize, dirty_seed % 8192),
            SystemKind::all()[(dirty_seed % 6) as usize],
            scale,
            (dirty_seed, !seeds.1),
            Some((dirty_seed, fault.1)),
            true,
        );
        dirty.horizon_us /= 2.0;
        let (fresh, recycled) = fresh_and_recycled(&cfg, &dirty, router);
        prop_assert_eq!(recycled, fresh);
    }

    /// Conservation under tiers: every injected arrival is exactly one
    /// of {completed, timeout-dropped, shed, refused,
    /// in-flight-at-horizon}, per tier and globally, with the tier
    /// ledgers summing back to the global counters — across random
    /// tier maps, fault plans, scaling policies, controllers, systems
    /// and routers.
    #[test]
    fn tiers_are_conserved(
        n_replicas in 1usize..4,
        pool in (0usize..3, 0u64..8192),
        system_idx in 0usize..6,
        router_idx in 0usize..3,
        mode_bits in 0u64..4,
        scale in 0.8f64..2.8,
        seeds in (0u64..1_000_000, 0u64..u64::MAX),
        fault in (0u64..1_000_000, 0.5f64..2.0),
    ) {
        let system = SystemKind::all()[system_idx];
        let router = RouterKind::all()[router_idx];
        let cfg = tiered_fleet(
            n_replicas,
            pool,
            system,
            scale,
            seeds,
            (mode_bits & 2 == 2).then_some(fault),
            mode_bits & 1 == 1,
        );
        let res = run(&cfg, router);
        assert_conserved_tiered(&res);
    }

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
