//! Streaming long-horizon mode contracts:
//!
//! * streaming differs from the retained mode **only** in what it keeps:
//!   stripping the per-request completion logs from a retained run
//!   yields the streaming run exactly — same fleet sketch bins, same
//!   counters, same migrations, same per-replica summaries — with and
//!   without a fault plan;
//! * the memory bound is real: streaming runs end with zero retained
//!   completion records, retained runs hold one per completion.

use gpu_spec::GpuModel;
use workload::chaos::{FaultEvent, FaultPlan};
use workload::cluster::{ClusterConfig, ControllerConfig, RouterKind};
use workload::elastic::{ElasticConfig, ScalingPolicyKind, ThresholdPolicy, WarmPoolConfig};
use workload::trace::TraceConfig;
use workload::SystemKind;

fn short_horizon() -> f64 {
    if cfg!(debug_assertions) {
        1.5e5
    } else {
        4e5
    }
}

fn base_cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig::new(
        vec![
            GpuModel::RtxA2000,
            GpuModel::Gtx1080,
            GpuModel::RtxA2000,
            GpuModel::Gtx1080,
        ],
        SystemKind::Sgdrc,
    );
    cfg.horizon_us = short_horizon();
    cfg.trace = TraceConfig::apollo_like().scaled(2.2).with_bursts(2.0, 0.3);
    cfg.controller = ControllerConfig {
        period_us: 2.5e4,
        breach_ratio: 0.9,
        adaptive_ch_be: true,
        ..Default::default()
    };
    cfg
}

fn run(cfg: &ClusterConfig, router: RouterKind) -> workload::ClusterResult {
    let mut r = router.make(cfg.seed);
    workload::run_cluster(cfg, r.as_mut())
}

/// Erases exactly what streaming mode does not keep: the per-request
/// completion logs and their retained-record count.
fn strip_retained(mut r: workload::ClusterResult) -> workload::ClusterResult {
    r.retained_completions = 0;
    for rep in &mut r.replicas {
        for log in &mut rep.stats.ls_completed {
            log.clear();
        }
    }
    r
}

#[test]
fn streaming_equals_retained_modulo_completion_logs() {
    for router in RouterKind::all() {
        let retained_cfg = base_cfg();
        let mut streaming_cfg = base_cfg();
        streaming_cfg.streaming = true;

        let retained = run(&retained_cfg, router);
        let streaming = run(&streaming_cfg, router);

        for (cfg, r) in [(&retained_cfg, &retained), (&streaming_cfg, &streaming)] {
            assert_eq!(cfg.prepare().arrival_count() as u64, r.arrivals_injected);
        }
        assert!(retained.requests > 0, "degenerate scenario");
        assert_eq!(
            retained.retained_completions, retained.requests,
            "retained mode holds one record per completion"
        );
        assert_eq!(
            streaming.retained_completions, 0,
            "streaming mode must not retain completion logs"
        );
        assert_eq!(
            strip_retained(retained),
            streaming,
            "{}: streaming diverged from retained beyond the logs",
            router.name()
        );
    }
}

/// The equivalence survives faults: a crash + recovery mid-run, with
/// requeue/retry traffic and degradation active, still folds to the
/// identical aggregate result.
#[test]
fn streaming_equals_retained_under_chaos() {
    let plan = FaultPlan::new(vec![FaultEvent::crash(
        1,
        0.4 * short_horizon(),
        0.3 * short_horizon(),
    )]);
    let mut retained_cfg = base_cfg();
    retained_cfg.chaos = Some(plan.clone());
    let mut streaming_cfg = retained_cfg.clone();
    streaming_cfg.streaming = true;

    let retained = run(&retained_cfg, RouterKind::P2cSlo);
    let streaming = run(&streaming_cfg, RouterKind::P2cSlo);

    assert!(retained.requeued > 0, "the crash must orphan requests");
    assert_eq!(streaming.retained_completions, 0);
    assert_eq!(strip_retained(retained), streaming);
}

/// Streaming requires a ticking controller (its window bound), as does
/// every fleet: `prepare` rejects a zero period.
#[test]
#[should_panic(expected = "controller period_us must be > 0")]
fn streaming_without_controller_is_rejected() {
    let mut cfg = base_cfg();
    cfg.streaming = true;
    cfg.controller.period_us = 0.0;
    let _ = run(&cfg, RouterKind::RoundRobin);
}

/// Elastic membership churn (warm-pool provisions, drains, retires)
/// composes with streaming: stripping the retained run's completion
/// logs still yields the streaming run exactly — scale events, warm
/// hit/miss counters, replica-seconds and all.
#[test]
fn streaming_equals_retained_under_elasticity() {
    let mut retained_cfg = base_cfg();
    retained_cfg.trace = TraceConfig::apollo_like().scaled(3.0).with_bursts(2.0, 0.4);
    let mut e = ElasticConfig::new(
        WarmPoolConfig {
            provision_delay_us: 5e3,
            provision_jitter: 0.2,
            ..WarmPoolConfig::new(vec![GpuModel::RtxA2000, GpuModel::RtxA2000])
        },
        ScalingPolicyKind::Threshold(ThresholdPolicy {
            up_backlog: 2.0,
            down_backlog: 6.0,
            ..Default::default()
        }),
    );
    e.min_replicas = 2;
    retained_cfg.elastic = Some(e);
    let mut streaming_cfg = retained_cfg.clone();
    streaming_cfg.streaming = true;

    let retained = run(&retained_cfg, RouterKind::P2cSlo);
    let streaming = run(&streaming_cfg, RouterKind::P2cSlo);

    assert!(
        !retained.scale_events.is_empty(),
        "the scenario must actually exercise membership churn"
    );
    assert_eq!(streaming.retained_completions, 0);
    assert_eq!(strip_retained(retained), streaming);
}
