//! Fleet-simulator contracts:
//!
//! * a 1-replica cluster behind round-robin routing is *bit-identical*
//!   to the single-GPU serving loop — per-BE-scenario `RunStats` match
//!   `run_system_scenario_stats` exactly, so the assembled Fig. 17
//!   `SystemResult` is the same number for number;
//! * fleet-wide percentiles merged from per-replica sketches match the
//!   exact sorted percentile within the documented ≤0.5% bound;
//! * the controller actually migrates BE work off breaching replicas,
//!   through the preempt path, without losing completions;
//! * `prepare` rejects a fleet whose controller never ticks.
//!
//! The whole-run contracts over random fleets — recycled contexts,
//! conservation, recorder invisibility, streaming == retained, inert
//! layers — live in `cluster_contracts.rs`.

use gpu_spec::GpuModel;
use proptest::prelude::*;
use sgdrc_core::SgdrcConfig;
use workload::cluster::{ClusterConfig, ControllerConfig, RouterKind};
use workload::metrics::{percentile, LatencyHistogram, HIST_REL_ERROR};
use workload::runner::{cell_trace, run_system_scenario_stats, Deployment, EndToEndConfig, Load};
use workload::trace::TraceConfig;
use workload::SystemKind;

fn short_horizon() -> f64 {
    if cfg!(debug_assertions) {
        1.5e5
    } else {
        4e5
    }
}

/// A 1-replica fleet must reproduce the single-GPU batch loop bit for
/// bit: same trace, same BE co-location, same policy → identical
/// `RunStats` (every completion timestamp, preemption and event count),
/// for every system. The fleet streams its arrivals while the
/// single-GPU loop replays the materialized trace, so this also pins
/// stream == batch end to end. The fleet controller runs (ticking,
/// reading windows) and must not perturb anything.
#[test]
fn one_replica_cluster_is_bit_identical_to_single_gpu_run() {
    let gpu = GpuModel::RtxA2000;
    let dep = Deployment::cached(gpu);
    let mut e2e = EndToEndConfig::new(gpu, Load::Heavy);
    e2e.horizon_us = short_horizon();
    let trace = cell_trace(&dep, &e2e);

    for system in SystemKind::all() {
        if !system.supported_on(&dep.spec) {
            continue;
        }
        let single = run_system_scenario_stats(&dep, &e2e, system, &trace);
        for (be, single_stats) in single.iter().enumerate() {
            let mut cfg = ClusterConfig::new(vec![gpu], system);
            cfg.trace = TraceConfig::apollo_like().scaled(e2e.load.scale());
            cfg.horizon_us = e2e.horizon_us;
            cfg.ls_instances = e2e.ls_instances;
            cfg.seed = e2e.seed;
            cfg.be_jobs = vec![be];
            cfg.sgdrc = SgdrcConfig::default();
            let mut router = RouterKind::RoundRobin.make(cfg.seed);
            let fleet = workload::run_cluster(&cfg, router.as_mut());
            assert_eq!(fleet.replicas.len(), 1);
            assert_eq!(
                &fleet.replicas[0].stats,
                single_stats,
                "{} BE scenario {be}: fleet diverged from the single-GPU run",
                system.name()
            );
            assert_eq!(
                fleet.replicas[0].routed as usize,
                trace
                    .per_task()
                    .iter()
                    .map(|v| v.iter().filter(|&&t| t <= cfg.horizon_us).count())
                    .sum::<usize>(),
                "every in-horizon request routes to the only replica"
            );
        }
    }
}

/// Streaming requires a ticking controller (its window bound), as does
/// every fleet: `prepare` rejects a zero period.
#[test]
#[should_panic(expected = "controller period_us must be > 0")]
fn streaming_without_controller_is_rejected() {
    let mut cfg = ClusterConfig::new(vec![GpuModel::RtxA2000], SystemKind::Sgdrc);
    cfg.streaming = true;
    cfg.controller.period_us = 0.0;
    let _ = cfg.prepare();
}

/// Overload one replica of a 3-replica fleet (skewed routing is forced
/// by a tiny custom router), and the controller must migrate BE work
/// away from it via the preempt path — and fleet BE completions keep
/// accumulating on the destinations.
#[test]
fn controller_migrates_be_work_off_breaching_replicas() {
    struct Skewed;
    impl workload::RoutingPolicy for Skewed {
        fn name(&self) -> &'static str {
            "skewed"
        }
        fn route(&mut self, _views: &[workload::ReplicaView], _task: usize, at_us: f64) -> usize {
            // 2 of 3 requests hammer replica 0.
            if (at_us as u64) % 3 < 2 {
                0
            } else {
                1 + (at_us as u64 % 2) as usize
            }
        }
    }
    let mut cfg = ClusterConfig::new(
        vec![GpuModel::Gtx1080, GpuModel::RtxA2000, GpuModel::RtxA2000],
        SystemKind::Sgdrc,
    );
    cfg.horizon_us = if cfg!(debug_assertions) { 4e5 } else { 8e5 };
    cfg.trace = TraceConfig::apollo_like().scaled(2.0);
    cfg.controller = ControllerConfig {
        period_us: 5e4,
        breach_ratio: 0.9,
        headroom_ratio: 1.5,
        adaptive_ch_be: true,
    };
    let mut router = Skewed;
    let fleet = workload::run_cluster(&cfg, &mut router);
    assert!(
        !fleet.migrations.is_empty(),
        "controller never migrated BE work"
    );
    assert!(
        fleet.migrations.iter().any(|m| m.from == 0),
        "the hammered replica shed no BE job: {:?}",
        fleet.migrations
    );
    assert!(fleet.be_completed > 0, "fleet BE work starved");
    assert!(fleet.be_preemptions > 0, "migration never evicted a kernel");
    assert!(fleet.requests > 0);
    // Conservation: fleet totals are the sum of replica totals.
    assert_eq!(
        fleet.requests,
        fleet.replicas.iter().map(|r| r.requests).sum::<u64>()
    );
    assert_eq!(
        fleet.fleet_hist.count(),
        fleet.requests,
        "fleet sketch covers every completion exactly once"
    );
}

/// Heterogeneous fleets under bursty load: backlog-aware routing must
/// not lose or duplicate requests, and every routed request either
/// completes or is still in flight at the horizon.
#[test]
fn routed_requests_are_conserved() {
    let mut cfg = ClusterConfig::new(
        vec![GpuModel::RtxA2000, GpuModel::TeslaP40, GpuModel::Gtx1080],
        SystemKind::Orion,
    );
    cfg.horizon_us = short_horizon();
    cfg.trace = TraceConfig::apollo_like().scaled(2.0).with_bursts(2.5, 0.2);
    for kind in RouterKind::all() {
        let mut router = kind.make(cfg.seed);
        let fleet = workload::run_cluster(&cfg, router.as_mut());
        let routed: u64 = fleet.replicas.iter().map(|r| r.routed).sum();
        assert!(fleet.requests <= routed, "{}", kind.name());
        assert!(
            fleet.requests * 10 >= routed * 5,
            "{}: suspiciously few completions ({} of {routed})",
            kind.name(),
            fleet.requests
        );
    }
}

proptest! {
    /// Fleet-wide percentiles via per-replica sketch merging equal the
    /// exact sorted percentile over the union population within the
    /// documented ≤0.5% relative bound — for arbitrary per-replica
    /// latency populations and split points.
    #[test]
    fn merged_fleet_percentiles_match_exact_sort(
        raw in prop::collection::vec((1.0f64..1e6, 0u8..8), 1..500),
        p in 0.0f64..100.0,
    ) {
        // Distribute each sample onto one of up to 8 "replicas".
        let mut replica_hists: Vec<LatencyHistogram> =
            (0..8).map(|_| LatencyHistogram::new()).collect();
        let mut union: Vec<f64> = Vec::with_capacity(raw.len());
        for &(v, r) in &raw {
            replica_hists[r as usize].record(v);
            union.push(v);
        }
        let mut fleet = LatencyHistogram::new();
        for h in &replica_hists {
            fleet.merge(h);
        }
        prop_assert_eq!(fleet.count() as usize, union.len());
        let exact = percentile(&union, p);
        let sketch = fleet.percentile(p);
        prop_assert!(
            (sketch - exact).abs() <= exact * HIST_REL_ERROR + 1e-12,
            "p{}: merged sketch {} vs exact {}",
            p, sketch, exact
        );
    }
}
