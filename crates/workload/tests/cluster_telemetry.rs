//! Flight-recorder semantics of the fleet clock, on fixed chaos
//! scenarios: when no history was overwritten, the merged stream
//! reconciles with the fleet counters — `Completed` events with the
//! completion counters, and the requeue, drop, shed, park, resume,
//! retry and refusal events with theirs; the per-lane requeue/retry
//! attribution sums to the fleet totals; dead-route requeues and
//! re-dispatch delays respect the fixed heartbeat and backoff timings;
//! and a tiny ring overwrites its oldest events without perturbing the
//! run. That the recorder never perturbs any run, and that a recycled
//! context reproduces its merged stream, are properties of
//! `cluster_contracts.rs`, whose draws cross ring capacities with
//! every other layer.

use gpu_spec::GpuModel;
use workload::chaos::{FaultEvent, FaultPlan, HEARTBEAT_TIMEOUT_US, RETRY_BACKOFF_US};
use workload::cluster::{ClusterConfig, ControllerConfig, RouterKind};
use workload::elastic::{ElasticConfig, ScalingPolicyKind, ThresholdPolicy, WarmPoolConfig};
use workload::trace::TraceConfig;
use workload::{
    ClusterResult, EventKind, RequeueCause, SystemKind, TelemetryConfig, TelemetryResult,
    TierConfig, TiersConfig,
};

fn short_horizon() -> f64 {
    if cfg!(debug_assertions) {
        2.5e4
    } else {
        6e4
    }
}

fn run_with(
    cfg: &ClusterConfig,
    router: RouterKind,
    telemetry: Option<TelemetryConfig>,
) -> ClusterResult {
    let mut cfg = cfg.clone();
    cfg.telemetry = telemetry;
    let mut r = router.make(cfg.seed);
    workload::run_cluster(&cfg, r.as_mut())
}

/// Drops the recorder's own output so a recorder-on run can be compared
/// bit for bit against a recorder-off run.
fn stripped(mut r: ClusterResult) -> ClusterResult {
    r.telemetry = None;
    r
}

/// A busy chaotic fleet: two dissimilar GPUs, a warm lane, threshold
/// scaling, and a generated fault plan — every event family fires.
fn chaos_cfg(fault_seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(
        vec![GpuModel::RtxA2000, GpuModel::Gtx1080],
        SystemKind::Sgdrc,
    );
    cfg.horizon_us = short_horizon();
    cfg.trace = TraceConfig::apollo_like().scaled(2.5).with_bursts(2.0, 0.4);
    cfg.controller = ControllerConfig {
        period_us: 1e4,
        breach_ratio: 0.9,
        adaptive_ch_be: true,
        ..Default::default()
    };
    let mut e = ElasticConfig::new(
        WarmPoolConfig {
            provision_delay_us: 5e3,
            provision_jitter: 0.2,
            ..WarmPoolConfig::new(vec![GpuModel::RtxA2000])
        },
        ScalingPolicyKind::Threshold(ThresholdPolicy {
            up_backlog: 2.0,
            ..Default::default()
        }),
    );
    e.min_replicas = 1;
    e.replace_after_us = 8e3;
    cfg.elastic = Some(e);
    cfg.chaos = Some(FaultPlan::generate(fault_seed, 3, cfg.horizon_us, 1.5));
    cfg
}

/// `chaos_cfg` with a three-class tier map on a tight, fast ladder:
/// admission refuses, brownout sheds LS as well as parking BE, and the
/// zero-retry best-effort tier drops crash orphans at once. One
/// inference slot per service and a 2.5 ms tick let pending LS queues
/// build up before the shed rung, even within the debug horizon.
fn tiered_chaos_cfg(fault_seed: u64) -> ClusterConfig {
    let mut cfg = chaos_cfg(fault_seed);
    cfg.ls_instances = 1;
    cfg.controller.period_us = 2.5e3;
    let n_ls = cfg.prepare().n_ls();
    let mut tiers = TiersConfig::new(
        (0..n_ls)
            .map(|task| match task {
                0 => TierConfig::guaranteed(8.0),
                t if t < n_ls / 2 => TierConfig::burstable(2, 3.0),
                _ => TierConfig::best_effort(3, 1.0),
            })
            .collect(),
    );
    tiers.enter_backlog = 2;
    tiers.exit_backlog = 1;
    tiers.hold_ticks = 1;
    tiers.queue_capacity = 4;
    cfg.tiers = Some(tiers);
    cfg
}

/// `chaos_cfg` on a 60 ms horizon in every build, with the BE-park
/// threshold lowered to 8: the crashes of seed 1234's plan push the
/// backlog past it, BE parks, and the calm after recovery resumes it.
fn park_and_resume_cfg() -> ClusterConfig {
    let mut cfg = chaos_cfg(1234);
    cfg.horizon_us = 6e4;
    let mut plan = FaultPlan::generate(1234, 3, cfg.horizon_us, 1.5);
    plan.degradation.shed_be_backlog = 8;
    cfg.chaos = Some(plan);
    cfg
}

/// The merged stream is canonically ordered: non-decreasing in time,
/// globally unique sequence numbers, strictly increasing at equal
/// instants.
fn assert_canonical_order(tel: &workload::TelemetryResult) {
    let mut seen = std::collections::HashSet::new();
    for pair in tel.events.windows(2) {
        assert!(
            pair[0].at_us <= pair[1].at_us
                || (pair[0].at_us == pair[1].at_us && pair[0].seq < pair[1].seq),
            "merged stream out of order: {:?} before {:?}",
            pair[0],
            pair[1]
        );
        if pair[0].at_us == pair[1].at_us {
            assert!(pair[0].seq < pair[1].seq, "ties must sort by seq");
        }
    }
    for e in &tel.events {
        assert!(
            seen.insert(e.seq),
            "duplicate seq {} in merged stream",
            e.seq
        );
    }
}

/// The seven fleet counters the recorder must explain event by event:
/// `requeued`, `timeout_drops`, `ls_shed`, `be_shed`, `be_resumed`,
/// `retries` and `refused_admission`, as recorded in `tel`.
fn recorded_counters(tel: &TelemetryResult) -> [u64; 7] {
    let mut c = [0u64; 7];
    for e in &tel.events {
        match e.kind {
            EventKind::Requeued { .. } => c[0] += 1,
            EventKind::TimeoutDropped { .. } => c[1] += 1,
            EventKind::LsShed { count, .. } => c[2] += u64::from(count),
            EventKind::BeParked { count } => c[3] += u64::from(count),
            EventKind::BeResumed { count } => c[4] += u64::from(count),
            // Attempt 0 is a queued admission's dispatch, not a retry.
            EventKind::RetryDispatched { attempt, .. } if attempt > 0 => c[5] += 1,
            EventKind::Refused { .. } => c[6] += 1,
            _ => {}
        }
    }
    c
}

/// Recorder on vs off on chaos scenarios, tier-blind and tiered:
/// stripped results are bit-identical, and when nothing was overwritten
/// the recorded stream reconciles with the fleet counters — `Completed`
/// events == completions and SLO-ok events == `slo_met` (per lane and
/// fleet-wide), and one event (or one event's count) per requeue, drop,
/// LS shed, BE park, BE resume, retry and admission refusal, with no
/// more resumes than parks. Together the inputs drive all seven of
/// those counters above 0, so no check is vacuous.
#[test]
fn recorder_is_invisible_and_reconciles_with_counters() {
    let mut totals = [0u64; 7];
    for cfg in [
        chaos_cfg(42),
        chaos_cfg(7),
        tiered_chaos_cfg(1234),
        park_and_resume_cfg(),
    ] {
        let off = run_with(&cfg, RouterKind::ShortestBacklog, None);
        let on = run_with(
            &cfg,
            RouterKind::ShortestBacklog,
            Some(TelemetryConfig::default()),
        );
        let tel = on.telemetry.clone().expect("recorder was enabled");
        assert_eq!(stripped(on.clone()), off, "recorder perturbed the run");

        assert_canonical_order(&tel);
        assert_eq!(
            tel.dropped_events, 0,
            "default ring must hold this scenario"
        );
        let completed: Vec<_> = tel
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Completed { slo_ok, .. } => Some((e.lane, slo_ok)),
                _ => None,
            })
            .collect();
        assert_eq!(completed.len() as u64, on.requests);
        assert_eq!(
            completed.iter().filter(|(_, ok)| *ok).count() as u64,
            on.slo_met
        );
        for (r, lane) in on.replicas.iter().enumerate() {
            assert_eq!(
                completed.iter().filter(|(l, _)| *l == r as u32).count() as u64,
                lane.requests,
                "lane {r} completion events disagree with its counter"
            );
        }
        let counters = [
            on.requeued,
            on.timeout_drops,
            on.ls_shed,
            on.be_shed,
            on.be_resumed,
            on.retries,
            on.refused_admission,
        ];
        assert_eq!(
            recorded_counters(&tel),
            counters,
            "events disagree with [requeued, timeout_drops, ls_shed, be_shed, be_resumed, \
             retries, refused_admission]"
        );
        assert!(
            on.be_resumed <= on.be_shed,
            "resumed {} parked BE jobs but parked only {}",
            on.be_resumed,
            on.be_shed
        );
        for (total, c) in totals.iter_mut().zip(counters) {
            *total += c;
        }
        assert!(
            tel.events
                .iter()
                .any(|e| matches!(e.kind, EventKind::FaultOnset { .. })),
            "the fault plan must leave onset events in the stream"
        );
        assert!(!tel.tick_us.is_empty(), "controller ticks must sample");
        assert!(!tel.series.is_empty(), "series registry must populate");
    }
    assert!(
        totals.iter().all(|&t| t > 0),
        "the inputs must drive every reconciled counter above 0: {totals:?}"
    );
}

/// The fixed health and retry timings, read off the recorder: a crashed
/// lane keeps drawing round-robin traffic only while its frozen
/// heartbeat is younger than `HEARTBEAT_TIMEOUT_US`, and every bounced
/// request comes back as a `DeadRoute` requeue on that lane's track
/// inside `[crash, crash + HEARTBEAT_TIMEOUT_US]`; no re-dispatch
/// happens sooner than `RETRY_BACKOFF_US` after its request was
/// orphaned. The crash lasts 30% of the horizon, well past the
/// heartbeat window, so a heartbeat that never ages out would bounce
/// requests after it.
#[test]
fn dead_routes_and_redispatch_delays_follow_the_fixed_timings() {
    let mut cfg = ClusterConfig::new(
        vec![GpuModel::RtxA2000, GpuModel::Gtx1080],
        SystemKind::Sgdrc,
    );
    cfg.horizon_us = if cfg!(debug_assertions) { 1e5 } else { 2.5e5 };
    cfg.trace = TraceConfig::apollo_like().scaled(2.0);
    cfg.controller = ControllerConfig {
        period_us: 1e4,
        breach_ratio: 0.9,
        adaptive_ch_be: true,
        ..Default::default()
    };
    let crash_at = cfg.horizon_us * 0.35;
    cfg.chaos = Some(FaultPlan::new(vec![FaultEvent::crash(
        0,
        crash_at,
        cfg.horizon_us * 0.3,
    )]));
    let res = run_with(
        &cfg,
        RouterKind::RoundRobin,
        Some(TelemetryConfig::default()),
    );
    let tel = res.telemetry.as_ref().expect("recorder was enabled");
    assert_eq!(tel.dropped_events, 0, "the ring must hold the whole run");
    let dead_routes: Vec<(u32, f64)> = tel
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Requeued {
                cause: RequeueCause::DeadRoute,
                ..
            } => Some((e.lane, e.at_us)),
            _ => None,
        })
        .collect();
    assert!(
        !dead_routes.is_empty(),
        "round-robin must route at the dead-but-fresh lane"
    );
    for &(lane, at_us) in &dead_routes {
        assert_eq!(lane, 0, "a dead route bounces off the crashed lane");
        assert!(
            (crash_at..=crash_at + HEARTBEAT_TIMEOUT_US).contains(&at_us),
            "dead route at {at_us} µs outside [{crash_at}, {}]",
            crash_at + HEARTBEAT_TIMEOUT_US
        );
    }
    assert!(res.retries > 0, "the crash must orphan re-dispatched work");
    let min_delay = res.redispatch_hist.min();
    assert!(
        min_delay >= RETRY_BACKOFF_US - 1e-6,
        "a request was re-dispatched {min_delay} µs after it was orphaned, \
         sooner than the {RETRY_BACKOFF_US} µs backoff"
    );
}

/// Per-lane requeue/retry attribution sums to the fleet totals under
/// chaos: `requeued == Σ lane.requeued + refused_arrivals` and
/// `retries == Σ lane.retries`.
#[test]
fn requeue_attribution_sums_to_fleet_totals() {
    for fault_seed in [7u64, 1234, 98765] {
        let cfg = chaos_cfg(fault_seed);
        let res = run_with(&cfg, RouterKind::P2cSlo, Some(TelemetryConfig::default()));
        let lane_requeued: u64 = res.replicas.iter().map(|l| l.requeued).sum();
        let lane_retries: u64 = res.replicas.iter().map(|l| l.retries).sum();
        assert_eq!(
            res.requeued,
            lane_requeued + res.refused_arrivals,
            "seed {fault_seed}: requeue attribution leaks"
        );
        assert_eq!(
            res.retries, lane_retries,
            "seed {fault_seed}: retry attribution leaks"
        );
    }
}

/// A deliberately tiny ring overwrites its oldest events (flight
/// recorders keep the most recent window), reports the loss in
/// `dropped_events`, and still never perturbs the simulation.
#[test]
fn tiny_ring_overwrites_oldest_and_stays_invisible() {
    let cfg = chaos_cfg(42);
    let off = run_with(&cfg, RouterKind::ShortestBacklog, None);
    let on = run_with(
        &cfg,
        RouterKind::ShortestBacklog,
        Some(TelemetryConfig { ring_capacity: 8 }),
    );
    let tel = on.telemetry.clone().expect("recorder was enabled");
    assert_eq!(stripped(on), off, "ring pressure perturbed the run");
    assert!(tel.dropped_events > 0, "an 8-slot ring must overwrite here");
    // n lanes + the fleet track, 8 slots each.
    let tracks = cfg.gpus.len() + cfg.elastic.as_ref().map_or(0, |e| e.warm_pool.gpus.len()) + 1;
    assert!(
        tel.events.len() <= 8 * tracks,
        "{} events retained from {} rings of 8",
        tel.events.len(),
        tracks
    );
    assert_canonical_order(&tel);
    // The retained window is the *tail*: every ring's survivors are the
    // most recent events, so the earliest retained instant is later than
    // it would be with an unbounded ring.
    assert!(
        tel.events.iter().all(|e| e.at_us <= cfg.horizon_us * 1.01),
        "events past the horizon"
    );
}
