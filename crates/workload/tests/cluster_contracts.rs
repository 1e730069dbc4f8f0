//! The fleet clock's whole-run contracts, proptested over one random
//! fleet that carries every control-plane knob at once.
//!
//! A draw is 1–4 lanes, each an RTX A2000 or a GTX 1080, under any
//! `SystemKind` × router at ×0.8–2.8 the Apollo-like load, with the
//! controller ticking every 12 ms, and — each independently optional,
//! the first two in three draws of four, the rest in one of two —
//! a [`FaultPlan::generate`] plan (fleet retry budget 0–5, BE parked
//! past a per-lane backlog of 6), an elastic config (0–2 warm lanes of
//! either GPU; the policy, floor, cooldown and replacement drawn from
//! knob bits), a random tier map, adaptive `Ch_BE`, streaming mode, and
//! the flight recorder at a ring of 16, 256 or 4096 events. Five
//! properties hold on every draw:
//!
//! * **recycled == fresh** — a run on a [`ClusterCtx`] dirtied by a
//!   differently shaped draw equals a run on a fresh context, field for
//!   field, the recorder's merged stream included;
//! * **conservation** — `injected = completed + dropped + shed +
//!   refused + in-flight` globally and per tier, the tier ledgers sum
//!   back to the fleet counters, per-lane requeue and retry attribution
//!   sums to the fleet totals, every retry records its delay, and no
//!   more faults recover or drains complete than started;
//! * **recorder invisible** — a recorder-on run with its telemetry
//!   stripped equals the recorder-off run, and its merged stream is in
//!   canonical order;
//! * **streaming == retained** — stripping the per-request completion
//!   logs from a retained run yields the streaming run; streaming keeps
//!   no record, retained mode one per completion, and both inject what
//!   `PreparedCluster::arrival_count` counts;
//! * **inert layers invisible** — with the recorder off, a pinned no-op
//!   [`ElasticConfig`] and an explicit [`TiersConfig::tier_blind`] map
//!   each equal running without the layer (the latter once its one-tier
//!   ledger, itself conserved, is dropped).
//!
//! Each property also asserts, over all its cases, that the draws
//! reached the work it compares (completions, requeues, scale events,
//! parked BE), which holds at the default 256 cases and above. Debug
//! runs additionally check the clock's own oracles (busy set, views,
//! mirrors) every epoch. What each layer *does* — crash requeue,
//! scale-up delay, brownout order, recorder reconciliation — is pinned
//! by fixed scenarios in the per-layer suites.

use gpu_spec::GpuModel;
use proptest::prelude::*;
use workload::chaos::FaultPlan;
use workload::cluster::{ClusterConfig, ClusterCtx, RouterKind};
use workload::elastic::{ElasticConfig, ScalingPolicyKind, ThresholdPolicy, WarmPoolConfig};
use workload::runner::Deployment;
use workload::trace::TraceConfig;
use workload::{
    ClusterResult, RetryConfig, SystemKind, TelemetryConfig, TierConfig, TierOutcome, TiersConfig,
};

/// Recorder ring capacities, from heavy overwrite to lossless.
const RING_CAPS: [usize; 3] = [16, 256, 4096];

/// One random fleet: the knobs of one run, before they become a
/// [`ClusterConfig`].
#[derive(Debug, Clone)]
struct Draw {
    gpus: Vec<GpuModel>,
    system: SystemKind,
    router: RouterKind,
    /// Multiplier on the Apollo-like per-service rate.
    scale: f64,
    seed: u64,
    /// Generated fault plan: `(seed, intensity, fleet retry budget)`.
    faults: Option<(u64, f64, u32)>,
    /// Warm-pool GPUs and the elastic knob bits of [`random_elastic`].
    elastic: Option<(Vec<GpuModel>, u64)>,
    /// Knob bits of [`random_tiers`].
    tiers: Option<u64>,
    adaptive: bool,
    streaming: bool,
    /// Ring capacity whenever the recorder runs.
    ring: usize,
    recorder: bool,
}

impl Draw {
    /// Samples one draw. Bit `r` of a GPU mask picks lane `r`'s model;
    /// the bits of `layers` switch the optional knobs on — two bits
    /// each for the fault plan and the elastic config, which their
    /// rarest paths need together, one for each other knob.
    fn sample(rng: &mut rand::rngs::StdRng) -> Self {
        let models = [GpuModel::RtxA2000, GpuModel::Gtx1080];
        let gpus = |n: usize, mask: u64| -> Vec<GpuModel> {
            (0..n).map(|r| models[(mask >> r & 1) as usize]).collect()
        };
        let ((lanes, mask, system, router, scale, seed), faults, elastic, tier_bits, layers) = (
            (
                1usize..5,
                0u64..16,
                0usize..6,
                0usize..3,
                0.8f64..2.8,
                0u64..1_000_000,
            ),
            (0u64..1_000_000, 0.5f64..3.0, 0u32..6),
            (0usize..3, 0u64..4, 0u64..8192),
            0u64..u64::MAX,
            (0u64..256, 0usize..3),
        )
            .sample(rng);
        let (on, ring) = layers;
        let (warm, warm_mask, elastic_bits) = elastic;
        Draw {
            gpus: gpus(lanes, mask),
            system: SystemKind::all()[system],
            router: RouterKind::all()[router],
            scale,
            seed,
            faults: (on & 3 != 0).then_some(faults),
            elastic: (on & 12 != 0).then(|| (gpus(warm, warm_mask), elastic_bits)),
            tiers: (on & 16 != 0).then_some(tier_bits),
            adaptive: on & 32 != 0,
            streaming: on & 64 != 0,
            ring: RING_CAPS[ring],
            recorder: on & 128 != 0,
        }
    }

    fn config(&self) -> ClusterConfig {
        let n = self.gpus.len();
        let mut cfg = ClusterConfig::new(self.gpus.clone(), self.system);
        cfg.horizon_us = if cfg!(debug_assertions) { 2.5e4 } else { 6e4 };
        cfg.trace = TraceConfig::apollo_like().scaled(self.scale);
        cfg.seed = self.seed;
        cfg.controller.period_us = 1.2e4;
        if self.adaptive {
            cfg.controller.breach_ratio = 0.9;
            cfg.controller.adaptive_ch_be = true;
        }
        cfg.streaming = self.streaming;
        cfg.elastic = self
            .elastic
            .as_ref()
            .map(|(warm, bits)| random_elastic(n, warm.clone(), *bits));
        cfg.tiers = self.tiers.map(random_tiers);
        let lanes = n + self.elastic.as_ref().map_or(0, |(warm, _)| warm.len());
        cfg.chaos = self.faults.map(|(seed, intensity, max_retries)| {
            let mut plan = FaultPlan::generate(seed, lanes, cfg.horizon_us, intensity);
            plan.retry.max_retries = max_retries;
            plan.degradation.shed_be_backlog = 6;
            plan
        });
        cfg.telemetry = self.recorder.then_some(TelemetryConfig {
            ring_capacity: self.ring,
        });
        cfg
    }

    fn run(&self, cfg: &ClusterConfig) -> ClusterResult {
        let mut router = self.router.make(cfg.seed);
        workload::run_cluster(cfg, router.as_mut())
    }
}

/// A random-but-valid elastic config over `n_init` configured lanes and
/// the `warm` pool: provisioning delay, policy thresholds and step,
/// floor, cooldowns and crash replacement, each from its own knob bits.
fn random_elastic(n_init: usize, warm: Vec<GpuModel>, bits: u64) -> ElasticConfig {
    let pool = WarmPoolConfig {
        provision_delay_us: 2e3 + (bits % 7) as f64 * 3e3,
        provision_jitter: 0.25,
        ..WarmPoolConfig::new(warm)
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
    e.min_replicas = 1 + (bits >> 7) as usize % n_init;
    e.up_cooldown_us = (bits >> 9 & 1) as f64 * 1.5e4;
    e.down_cooldown_us = (bits >> 10 & 1) as f64 * 1.5e4;
    if bits >> 12 & 1 == 1 {
        e.replace_after_us = 8e3;
    }
    e
}

/// LS services per replica: the length a tier map must have.
fn n_ls() -> usize {
    Deployment::cached(GpuModel::RtxA2000).ls_tasks.len()
}

/// A random-but-valid tier map: each service's class from two bits
/// (tier id, weight and retry budget are canonical per class, so
/// shared tiers agree), the ladder knobs from the high bits.
fn random_tiers(bits: u64) -> TiersConfig {
    let mut cfg = TiersConfig::new(
        (0..n_ls())
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

/// Checks `property` on `proptest::cases()` draws, seeded from `name`
/// as `proptest!` seeds its cases, and names the draw that fails.
fn for_each_draw(name: &str, mut property: impl FnMut(&Draw)) {
    let mut rng = proptest::rng_for(name);
    for case in 0..proptest::cases() {
        let draw = Draw::sample(&mut rng);
        let guard = proptest::CaseGuard::new(&format!("case #{case}: {draw:?}"));
        property(&draw);
        guard.disarm();
    }
}

/// The accounting identities every run satisfies.
fn assert_conserved(r: &ClusterResult) {
    assert_eq!(
        r.arrivals_injected,
        r.requests + r.timeout_drops + r.ls_shed + r.refused_admission + r.in_flight_at_end,
        "injected {} != completed {} + dropped {} + shed {} + refused {} + in-flight {}",
        r.arrivals_injected,
        r.requests,
        r.timeout_drops,
        r.ls_shed,
        r.refused_admission,
        r.in_flight_at_end,
    );
    if !r.tier_outcomes.is_empty() {
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
    let lane_requeued: u64 = r.replicas.iter().map(|l| l.requeued).sum();
    let lane_retries: u64 = r.replicas.iter().map(|l| l.retries).sum();
    assert_eq!(r.requeued, lane_requeued + r.refused_arrivals);
    assert_eq!(r.retries, lane_retries);
    assert_eq!(r.retries, r.redispatch_hist.count());
    assert!(r.faults_recovered <= r.faults_injected);
    assert!(r.drains_completed <= r.drains_started);
}

/// Erases exactly what streaming mode does not keep: the per-request
/// completion logs and their retained-record count.
fn strip_retained(mut r: ClusterResult) -> ClusterResult {
    r.retained_completions = 0;
    for rep in &mut r.replicas {
        for log in &mut rep.stats.ls_completed {
            log.clear();
        }
    }
    r
}

#[test]
fn recycled_context_equals_fresh() {
    let mut rng = proptest::rng_for("recycled_context_dirt");
    for_each_draw("recycled_context_equals_fresh", |draw| {
        let cfg = draw.config();
        let fresh = draw.run(&cfg);
        let dirty = Draw::sample(&mut rng);
        let mut dirty_cfg = dirty.config();
        dirty_cfg.horizon_us /= 2.0;
        let mut ctx = ClusterCtx::new();
        let mut r = dirty.router.make(dirty_cfg.seed);
        let _ = workload::run_cluster_in(&dirty_cfg, r.as_mut(), &mut ctx);
        let mut r = draw.router.make(cfg.seed);
        let recycled = workload::run_cluster_in(&cfg, r.as_mut(), &mut ctx);
        assert_eq!(recycled, fresh, "recycled context diverged after {dirty:?}");
    });
}

#[test]
fn arrivals_and_attribution_are_conserved() {
    for_each_draw("arrivals_and_attribution_are_conserved", |draw| {
        assert_conserved(&draw.run(&draw.config()));
    });
}

#[test]
fn recorder_is_invisible() {
    for_each_draw("recorder_is_invisible", |draw| {
        let mut cfg = draw.config();
        cfg.telemetry = None;
        let off = draw.run(&cfg);
        cfg.telemetry = Some(TelemetryConfig {
            ring_capacity: draw.ring,
        });
        let mut on = draw.run(&cfg);
        let tel = on.telemetry.take().expect("recorder on");
        for pair in tel.events.windows(2) {
            assert!(
                (pair[0].at_us, pair[0].seq) < (pair[1].at_us, pair[1].seq),
                "merged stream out of canonical order: {:?} before {:?}",
                pair[0],
                pair[1]
            );
        }
        let mut seqs: Vec<u64> = tel.events.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(
            seqs.len(),
            tel.events.len(),
            "duplicate seq in the merged stream"
        );
        assert_eq!(on, off, "the recorder perturbed the run");
    });
}

#[test]
fn streaming_equals_retained() {
    let (mut completed, mut requeued, mut scaled) = (0, 0, 0);
    for_each_draw("streaming_equals_retained", |draw| {
        let mut cfg = draw.config();
        cfg.streaming = false;
        let retained = draw.run(&cfg);
        let arrivals = cfg.prepare().arrival_count() as u64;
        cfg.streaming = true;
        let streaming = draw.run(&cfg);
        assert_eq!(retained.arrivals_injected, arrivals);
        assert_eq!(streaming.arrivals_injected, arrivals);
        assert_eq!(retained.retained_completions, retained.requests);
        assert_eq!(streaming.retained_completions, 0);
        completed += retained.requests;
        requeued += retained.requeued;
        scaled += retained.scale_events.len();
        assert_eq!(strip_retained(retained), streaming);
    });
    assert!(
        completed > 0 && requeued > 0 && scaled > 0,
        "the draws must fold completions ({completed}), requeues ({requeued}) and \
         scale events ({scaled})"
    );
}

#[test]
fn inert_layers_are_invisible() {
    let mut parked = 0;
    for_each_draw("inert_layers_are_invisible", |draw| {
        let bare = Draw {
            elastic: None,
            tiers: None,
            recorder: false,
            ..draw.clone()
        };
        let mut cfg = bare.config();
        let plain = bare.run(&cfg);
        if cfg.chaos.is_none() {
            assert_eq!(plain.be_shed, 0, "no fault plan, no BE parking");
        }
        parked += plain.be_shed;

        let mut pinned = ElasticConfig::new(WarmPoolConfig::new(vec![]), ScalingPolicyKind::Hold);
        pinned.min_replicas = cfg.gpus.len();
        cfg.elastic = Some(pinned);
        assert_eq!(
            bare.run(&cfg),
            plain,
            "a pinned elastic config changed the run"
        );
        cfg.elastic = None;

        let retry = cfg
            .chaos
            .as_ref()
            .map_or(RetryConfig::default(), |p| p.retry.clone());
        let degradation = cfg.chaos.as_ref().map(|p| &p.degradation);
        cfg.tiers = Some(TiersConfig::tier_blind(n_ls(), &retry, degradation));
        let mut blind = bare.run(&cfg);
        assert_eq!(blind.tier_outcomes.len(), 1, "one Guaranteed tier");
        assert_conserved(&blind);
        assert_eq!(blind.tier_outcomes[0].refused(), 0);
        blind.tier_outcomes.clear();
        assert_eq!(blind, plain, "the tier-blind map changed the run");
    });
    assert!(parked > 0, "the fault plans must make the ladder park BE");
}
