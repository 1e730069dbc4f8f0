//! # tiers — per-service SLO tiers, admission classes, and the
//! brownout ladder configuration
//!
//! SGDRC's premise is protecting latency-sensitive work from co-located
//! interference, but a fleet under real overload (crash, thermal
//! throttle, diurnal peak, autoscaler lag) also has to decide what
//! *not* to run. This module promotes SLO tiers to first-class fleet
//! config: every LS service carries a [`TierConfig`] (tier id, goodput
//! weight, [`AdmissionClass`], retry budget), and the cluster runtime
//! threads the tier map through admission, routing, degradation and
//! retry:
//!
//! * **Admission control** — at every arrival the router decision point
//!   consults the brownout level (a hysteresis state machine updated at
//!   controller ticks from the same per-alive-backlog / windowed
//!   p99-pressure observation the autoscaler reads). Under overload,
//!   lower tiers are first *queued* in bounded per-tier queues, then
//!   *refused* outright, with the reason recorded in telemetry.
//! * **Brownout ladder** — a tier-ordered state machine evaluated at
//!   every controller tick: park BE → queue the lowest tier → shed it →
//!   queue the next tier → … Recovery steps back down one level per
//!   calm window (hysteresis), re-admitting tiers in reverse order.
//! * **Deadline-aware retries** — each tier carries its own max-retry
//!   budget, and every request shares the fleet's
//!   [`REQUEST_DEADLINE_US`](crate::chaos::REQUEST_DEADLINE_US) from
//!   *original* arrival; doomed redispatches are dropped instead of
//!   burning survivor capacity.
//! * **Weighted goodput** — Σ tier-weight × on-SLO completions, the
//!   figure of merit tiered admission is judged on.
//!
//! A fleet without a tier map runs the same machinery over
//! [`TiersConfig::tier_blind`]: one `Guaranteed` tier that mirrors the
//! fleet `RetryConfig`, whose ladder has a single rung — park BE — driven
//! by the fault plan's `DegradationConfig::shed_be_backlog` (and never
//! moving without a plan). Only an attached map is reported per tier.

use crate::chaos::{DegradationConfig, RetryConfig};

/// How the admission controller may treat a tier's arrivals under
/// overload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionClass {
    /// Never queued, never refused: the brownout ladder skips this tier
    /// entirely (tier-1 / paying traffic).
    Guaranteed,
    /// Queued and ultimately refused under deep overload, after every
    /// `BestEffort` tier has been browned out.
    Burstable,
    /// First to brown out: queued, then refused, before any `Burstable`
    /// tier is touched.
    BestEffort,
}

impl AdmissionClass {
    pub fn name(&self) -> &'static str {
        match self {
            AdmissionClass::Guaranteed => "guaranteed",
            AdmissionClass::Burstable => "burstable",
            AdmissionClass::BestEffort => "best_effort",
        }
    }

    /// Brownout precedence: higher sheds earlier. `Guaranteed` is
    /// exempt (never on the ladder).
    pub(crate) fn brown_severity(&self) -> u32 {
        match self {
            AdmissionClass::Guaranteed => 0,
            AdmissionClass::Burstable => 1,
            AdmissionClass::BestEffort => 2,
        }
    }
}

/// Per-LS-service tier attachment. `tiers[task]` configures LS service
/// `task`; services sharing a tier id form one admission/brownout unit
/// and must agree on weight and class (retry budgets may differ per
/// service).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierConfig {
    /// Tier id; lower is higher priority (tier 1 = most protected).
    /// Ids need not be contiguous — ordering is what matters.
    pub tier: u32,
    /// Weight of one on-SLO completion of this service in the fleet's
    /// weighted goodput. Must be finite and > 0.
    pub weight: f64,
    /// Overload treatment class.
    pub class: AdmissionClass,
    /// Per-tier retry budget: a request is dropped once it has been
    /// redispatched this many times. Replaces the fleet-wide
    /// `RetryConfig::max_retries` for this service when tiers are on.
    pub max_retries: u32,
}

impl TierConfig {
    /// A protected tier-1 service: never browned out, generous budget.
    pub fn guaranteed(weight: f64) -> Self {
        TierConfig {
            tier: 1,
            weight,
            class: AdmissionClass::Guaranteed,
            max_retries: 4,
        }
    }

    /// A mid-tier burstable service.
    pub fn burstable(tier: u32, weight: f64) -> Self {
        TierConfig {
            tier,
            weight,
            class: AdmissionClass::Burstable,
            max_retries: 2,
        }
    }

    /// A best-effort tier: first to queue, first to shed, no retries.
    pub fn best_effort(tier: u32, weight: f64) -> Self {
        TierConfig {
            tier,
            weight,
            class: AdmissionClass::BestEffort,
            max_retries: 0,
        }
    }
}

/// Fleet-level tiered-SLO configuration attached to
/// `ClusterConfig::tiers`. A fleet with `None` runs
/// [`TiersConfig::tier_blind`] instead.
#[derive(Debug, Clone, PartialEq)]
pub struct TiersConfig {
    /// One entry per LS service, indexed by task id.
    pub tiers: Vec<TierConfig>,
    /// Capacity of each browned-out tier's bounded admission queue.
    /// A queued arrival is dispatched once the ladder steps back below
    /// the tier's queue level, or dropped once it is older than
    /// [`REQUEST_DEADLINE_US`](crate::chaos::REQUEST_DEADLINE_US); at
    /// capacity further arrivals are refused (`QueueFull`).
    pub queue_capacity: usize,
    /// Per-alive-lane LS backlog above which the ladder escalates one
    /// level per controller tick.
    pub enter_backlog: usize,
    /// Per-alive-lane LS backlog at or below which (absent SLO
    /// pressure) a tick counts as calm. Must be ≤ `enter_backlog`
    /// (hysteresis band).
    pub exit_backlog: usize,
    /// Consecutive calm ticks required before the ladder de-escalates
    /// one level (re-admitting tiers in reverse brownout order).
    pub hold_ticks: u32,
    /// Budget of pending requests actively shed per tick from the most
    /// backlogged routable lane while a tier sits at its shed level.
    pub shed_per_tick: usize,
}

impl TiersConfig {
    /// Tiered defaults over an explicit per-service tier map.
    pub fn new(tiers: Vec<TierConfig>) -> Self {
        TiersConfig {
            tiers,
            queue_capacity: 256,
            enter_backlog: 24,
            exit_backlog: 8,
            hold_ticks: 2,
            shed_per_tick: 32,
        }
    }

    /// The tier map of a fleet without one: every service in one
    /// `Guaranteed` tier 1 of weight 1 with the fleet `retry`'s budget.
    /// Its ladder has one rung, park BE:
    /// with a `degradation` config a tick escalates while the per-alive
    /// backlog exceeds `shed_be_backlog` (or a windowed p99 breaches
    /// while it exceeds half of that), and the first calm tick — backlog
    /// at most half, no breach — resumes BE. Without one (no fault plan)
    /// both thresholds are unreachable and the ladder never moves.
    pub fn tier_blind(
        n_ls: usize,
        retry: &RetryConfig,
        degradation: Option<&DegradationConfig>,
    ) -> Self {
        let mut cfg = TiersConfig::new(vec![
            TierConfig {
                tier: 1,
                weight: 1.0,
                class: AdmissionClass::Guaranteed,
                max_retries: retry.max_retries,
            };
            n_ls
        ]);
        (cfg.enter_backlog, cfg.exit_backlog) = match degradation {
            Some(d) => (d.shed_be_backlog, d.shed_be_backlog / 2),
            None => (usize::MAX, usize::MAX),
        };
        cfg.hold_ticks = 1;
        cfg
    }

    /// Distinct tier ids in priority order (ascending id).
    pub fn tier_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.tiers.iter().map(|t| t.tier).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Validate against the fleet's LS service count. Panics with a
    /// descriptive message on nonsense (mirrors `ElasticConfig::validate`
    /// style, called from `ClusterConfig::prepare`).
    pub fn validate(&self, n_ls: usize) {
        assert_eq!(
            self.tiers.len(),
            n_ls,
            "tiers: {} TierConfig entries for {n_ls} LS services — one per service, by task id",
            self.tiers.len()
        );
        assert!(
            self.queue_capacity >= 1,
            "tiers: queue_capacity must be >= 1"
        );
        assert!(
            self.exit_backlog <= self.enter_backlog,
            "tiers: exit_backlog ({}) must not exceed enter_backlog ({}) — \
             the hysteresis band would be inverted",
            self.exit_backlog,
            self.enter_backlog
        );
        for (task, t) in self.tiers.iter().enumerate() {
            assert!(
                t.weight.is_finite() && t.weight > 0.0,
                "tiers: service {task} weight must be finite and > 0 (got {})",
                t.weight
            );
        }
        // Services sharing a tier id form one brownout unit: weight and
        // class must agree or per-tier attribution becomes ambiguous.
        for id in self.tier_ids() {
            let members: Vec<&TierConfig> = self.tiers.iter().filter(|t| t.tier == id).collect();
            let first = members[0];
            for m in &members {
                assert!(
                    m.weight == first.weight && m.class == first.class,
                    "tiers: services sharing tier id {id} must agree on weight and class"
                );
            }
        }
    }
}

/// One tier's end-of-run ledger in
/// [`ClusterResult::tier_outcomes`](crate::cluster::ClusterResult::tier_outcomes),
/// aggregated over the tier's member services. The per-tier
/// conservation invariant holds exactly:
/// `arrivals == completed + timeout_drops + shed + refused + in_flight_at_end`.
#[derive(Debug, Clone, PartialEq)]
pub struct TierOutcome {
    /// Tier id (ascending across the vec).
    pub tier: u32,
    /// Admission class shared by the tier's services.
    pub class: AdmissionClass,
    /// Goodput weight shared by the tier's services.
    pub weight: f64,
    /// Arrivals injected for this tier's services.
    pub arrivals: u64,
    /// Arrivals admitted straight into a lane (or the retry queue when
    /// no lane was healthy) at arrival time.
    pub admitted: u64,
    /// Arrivals parked in the tier's bounded admission queue.
    pub queued: u64,
    /// Arrivals refused because the tier sat at its shed level.
    pub refused_overload: u64,
    /// Arrivals refused because the tier's admission queue was full.
    pub refused_queue_full: u64,
    /// Pending requests dropped by brownout shedding.
    pub shed: u64,
    /// Requests dropped on deadline/retry exhaustion (retry queue and
    /// admission-queue expiry combined).
    pub timeout_drops: u64,
    /// Requests completed.
    pub completed: u64,
    /// Completions that met the replica SLO.
    pub slo_met: u64,
    /// Requests still queued/in-flight (lanes, retry queue, admission
    /// queue) at the horizon.
    pub in_flight_at_end: u64,
    /// `weight × slo_met / horizon_seconds`.
    pub weighted_goodput_hz: f64,
}

impl TierOutcome {
    /// Total refusals (overload + queue-full).
    pub fn refused(&self) -> u64 {
        self.refused_overload + self.refused_queue_full
    }

    /// The per-tier conservation identity; panics with the ledger on
    /// violation (test hook).
    pub fn assert_conserved(&self) {
        assert_eq!(
            self.arrivals,
            self.completed
                + self.timeout_drops
                + self.shed
                + self.refused()
                + self.in_flight_at_end,
            "tier {} conservation: arrivals {} != completed {} + drops {} + shed {} \
             + refused {} + in-flight {}",
            self.tier,
            self.arrivals,
            self.completed,
            self.timeout_drops,
            self.shed,
            self.refused(),
            self.in_flight_at_end,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_tier() -> TiersConfig {
        TiersConfig::new(vec![
            TierConfig::guaranteed(8.0),
            TierConfig::burstable(2, 3.0),
            TierConfig::best_effort(3, 1.0),
        ])
    }

    #[test]
    fn validate_accepts_sane_config() {
        three_tier().validate(3);
        let retry = RetryConfig::default();
        TiersConfig::tier_blind(5, &retry, None).validate(5);
        TiersConfig::tier_blind(5, &retry, Some(&DegradationConfig::default())).validate(5);
    }

    #[test]
    fn tier_ids_sorted_and_deduped() {
        let mut cfg = three_tier();
        cfg.tiers.push(TierConfig::best_effort(3, 1.0));
        assert_eq!(cfg.tier_ids(), vec![1, 2, 3]);
    }

    #[test]
    fn validate_rejects_nonsense() {
        let wrong_len = std::panic::catch_unwind(|| three_tier().validate(2));
        assert!(wrong_len.is_err(), "length mismatch must be rejected");

        let bad_weight = std::panic::catch_unwind(|| {
            let mut cfg = three_tier();
            cfg.tiers[0].weight = 0.0;
            cfg.validate(3);
        });
        assert!(bad_weight.is_err(), "zero weight must be rejected");

        let inverted = std::panic::catch_unwind(|| {
            let mut cfg = three_tier();
            cfg.enter_backlog = 4;
            cfg.exit_backlog = 10;
            cfg.validate(3);
        });
        assert!(inverted.is_err(), "inverted hysteresis must be rejected");

        let split_tier = std::panic::catch_unwind(|| {
            let mut cfg = three_tier();
            cfg.tiers[2].tier = 2; // joins tier 2 with a different weight
            cfg.validate(3);
        });
        assert!(
            split_tier.is_err(),
            "services sharing a tier id must agree on weight/class"
        );
    }

    #[test]
    fn conservation_hook_fires() {
        let mut o = TierOutcome {
            tier: 1,
            class: AdmissionClass::Guaranteed,
            weight: 1.0,
            arrivals: 10,
            admitted: 8,
            queued: 0,
            refused_overload: 1,
            refused_queue_full: 1,
            shed: 2,
            timeout_drops: 1,
            completed: 4,
            slo_met: 3,
            in_flight_at_end: 1,
            weighted_goodput_hz: 0.0,
        };
        o.assert_conserved();
        o.arrivals = 11;
        assert!(std::panic::catch_unwind(move || o.assert_conserved()).is_err());
    }
}
