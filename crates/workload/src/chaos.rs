//! Deterministic fault injection for the fleet simulator.
//!
//! A [`FaultPlan`] is a replayable scenario spec: a sorted list of
//! [`FaultEvent`]s (replica crashes, transient stalls, stragglers,
//! thermal throttling — each with an optional recovery), plus the retry
//! budget the router applies to requests orphaned by a crash and the
//! backlog at which a fleet without a tier map parks BE work under
//! overload. The health, backoff and deadline timings are fixed:
//! [`HEARTBEAT_TIMEOUT_US`], [`RETRY_BACKOFF_US`] and
//! [`REQUEST_DEADLINE_US`].
//!
//! Everything is data: the same plan against the same
//! [`ClusterConfig`](crate::cluster::ClusterConfig) replays to a
//! bit-identical [`ClusterResult`](crate::cluster::ClusterResult) on
//! every run. Plans either come from [`FaultPlan::generate`] (a seeded
//! splitmix64 chain, so the seed replays the plan) or are built by hand
//! from [`FaultEvent`] constructors, as the bench's chaos section does:
//! it writes its explicit events into its JSON, from which any run can
//! be replayed. `tests/cluster_chaos.rs` pins the fault semantics on
//! hand-built plans, and `tests/cluster_contracts.rs` proptests arrival
//! conservation and context recycling over generated ones.

use crate::seed::splitmix64;

/// A replica whose last heartbeat is older than this (µs) is unhealthy
/// in the router's [`ReplicaView`](crate::cluster::ReplicaView). Alive
/// replicas heartbeat at every fleet-clock decision point, so only dead
/// replicas age — but a freshly crashed one keeps looking healthy for
/// up to this long, and requests routed at it in that window go through
/// the retry path (which is the point: routers must not be told who
/// died, they must observe staleness).
pub const HEARTBEAT_TIMEOUT_US: f64 = 10_000.0;

/// Base re-dispatch delay (µs): retry attempt `k` waits `k ×` this
/// (linear backoff, so the schedule stays replayable arithmetic).
pub const RETRY_BACKOFF_US: f64 = 2_000.0;

/// A request older than this (µs, measured from its *original*
/// arrival) is dropped instead of being re-dispatched or released from
/// a tier admission queue — it has long since blown its SLO and only
/// adds load.
pub const REQUEST_DEADLINE_US: f64 = 250_000.0;

/// What kind of fault strikes a replica.
///
/// The three slowdown kinds share one mechanism — the replica's engine
/// clock is scaled by [`FaultEvent::factor`] for
/// [`FaultEvent::duration_us`] — and differ only in the regime they
/// model (and the factor/duration ranges [`FaultPlan::generate`] draws
/// for them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The replica dies: every queued and in-flight LS request is drained
    /// back to the router for re-dispatch, running kernels vanish without
    /// completion or preemption events, and resident BE jobs migrate to
    /// survivors (cursor-preserving). A finite duration schedules the
    /// recovery; `INFINITY` is a permanent loss.
    Crash,
    /// A near-total transient stall (driver hang, ECC scrub): clocks at a
    /// few percent of nominal.
    Stall,
    /// A straggler phase (noisy neighbour, PCIe contention): clocks at a
    /// fraction of nominal.
    Straggle,
    /// Thermal throttling: moderately reduced clocks; on SGDRC replicas
    /// the policy is additionally re-targeted at the thermally scaled
    /// `GpuSpec` via `Sgdrc::reconfigure`.
    Throttle,
}

impl FaultKind {
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Stall => "stall",
            FaultKind::Straggle => "straggle",
            FaultKind::Throttle => "throttle",
        }
    }
}

/// One scheduled fault: which replica, when, what, for how long.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault strikes (µs into the run).
    pub at_us: f64,
    pub replica: usize,
    pub kind: FaultKind,
    /// Clock scale while the fault is active (ignored for crashes).
    pub factor: f64,
    /// How long the fault lasts; `INFINITY` = never recovers.
    pub duration_us: f64,
}

impl FaultEvent {
    /// A crash with a scheduled recovery after `duration_us`
    /// (`INFINITY` = permanent).
    pub fn crash(replica: usize, at_us: f64, duration_us: f64) -> Self {
        Self {
            at_us,
            replica,
            kind: FaultKind::Crash,
            factor: 0.0,
            duration_us,
        }
    }

    /// A transient slowdown of the given kind: clocks scale by `factor`
    /// (in `(0, 1]`) for `duration_us`.
    pub fn slowdown(
        kind: FaultKind,
        replica: usize,
        at_us: f64,
        factor: f64,
        duration_us: f64,
    ) -> Self {
        debug_assert!(kind != FaultKind::Crash, "use FaultEvent::crash");
        debug_assert!(factor > 0.0 && factor <= 1.0);
        Self {
            at_us,
            replica,
            kind,
            factor,
            duration_us,
        }
    }
}

/// How the router treats requests orphaned by a crash (and arrivals that
/// find no healthy replica): re-dispatch after [`RETRY_BACKOFF_US`] ×
/// attempt, until the budget or [`REQUEST_DEADLINE_US`] runs out.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryConfig {
    /// Re-dispatch attempts before the request is given up as dropped.
    /// 0 = drop-on-crash (the bench's ablation arm).
    pub max_retries: u32,
}

impl Default for RetryConfig {
    fn default() -> Self {
        Self { max_retries: 4 }
    }
}

/// Graceful degradation under a fault plan: the threshold at which a
/// fleet without a tier map parks BE work. It sets the one rung of
/// [`TiersConfig::tier_blind`](crate::tiers::TiersConfig::tier_blind)'s
/// brownout ladder, evaluated every controller tick; an attached tier
/// map brings its own ladder and ignores this. LS work is never shed
/// without a tier map.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationConfig {
    /// Park BE: while the mean per-alive backlog exceeds this, or any
    /// alive member's windowed p99 breaches its SLO while the backlog
    /// exceeds half of this, every resident BE job on the alive members
    /// is parked (eviction flag on running kernels, cursors preserved).
    /// Parked jobs resume at the first tick with the backlog at most
    /// half of this and no breach.
    pub shed_be_backlog: usize,
}

impl Default for DegradationConfig {
    fn default() -> Self {
        Self {
            shed_be_backlog: 48,
        }
    }
}

/// A replayable fault scenario: events plus resilience policy.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The faults, sorted by `(at_us, replica)` ([`FaultPlan::new`]
    /// sorts; keep them sorted if edited in place).
    pub events: Vec<FaultEvent>,
    pub retry: RetryConfig,
    pub degradation: DegradationConfig,
}

impl FaultPlan {
    /// A plan from hand-built events and default resilience policy.
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by(|a, b| a.at_us.total_cmp(&b.at_us).then(a.replica.cmp(&b.replica)));
        Self {
            events,
            retry: RetryConfig::default(),
            degradation: DegradationConfig::default(),
        }
    }

    /// An empty plan (no faults) — resilience machinery armed but idle.
    /// Its results are bit-identical to running without a plan as long
    /// as the BE-parking rung never fires: the per-alive backlog stays at
    /// most `degradation.shed_be_backlog`, and no windowed p99 breach
    /// coincides with a backlog above half of it.
    pub fn none() -> Self {
        Self::new(Vec::new())
    }

    /// Panics unless every event targets a lane below `n_lanes`
    /// (`n_init` configured + the rest warm). Out-of-range targets are
    /// config errors, not silent no-ops — warm-pool lanes are valid
    /// targets, so a plan can hit a replica mid-provisioning.
    pub fn validate_targets(&self, n_init: usize, n_lanes: usize) {
        for ev in &self.events {
            assert!(
                ev.replica < n_lanes,
                "fault plan targets replica {} but the fleet has only {} lanes \
                 ({} configured + {} warm); fault targets must name a valid lane",
                ev.replica,
                n_lanes,
                n_init,
                n_lanes - n_init
            );
        }
    }

    /// A seeded random plan: about `intensity` faults per replica drawn
    /// from a splitmix64 chain — crash/recovery pairs (a quarter of the
    /// crashes permanent), stalls, stragglers and throttles with
    /// kind-appropriate factor and duration ranges, strike times spread
    /// over the middle 85% of the horizon. Same `(seed, n_replicas,
    /// horizon_us, intensity)` → same plan, always.
    pub fn generate(seed: u64, n_replicas: usize, horizon_us: f64, intensity: f64) -> Self {
        fn next(z: &mut u64) -> u64 {
            *z = splitmix64(*z);
            *z
        }
        // 53-bit mantissa → uniform in [0, 1).
        fn unit(z: &mut u64) -> f64 {
            (next(z) >> 11) as f64 / (1u64 << 53) as f64
        }
        let mut z = splitmix64(seed ^ 0xC4A0_5FA1_7D1E_55ED);
        let n_events = ((intensity * n_replicas as f64).round() as usize).max(1);
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            let replica = (next(&mut z) >> 32) as usize % n_replicas.max(1);
            let at_us = (0.05 + 0.85 * unit(&mut z)) * horizon_us;
            let kind = match next(&mut z) % 4 {
                0 => FaultKind::Crash,
                1 => FaultKind::Stall,
                2 => FaultKind::Straggle,
                _ => FaultKind::Throttle,
            };
            let ev = match kind {
                FaultKind::Crash => {
                    let permanent = next(&mut z).is_multiple_of(4);
                    let duration = if permanent {
                        f64::INFINITY
                    } else {
                        (0.08 + 0.17 * unit(&mut z)) * horizon_us
                    };
                    FaultEvent::crash(replica, at_us, duration)
                }
                FaultKind::Stall => FaultEvent::slowdown(
                    kind,
                    replica,
                    at_us,
                    0.02 + 0.08 * unit(&mut z),
                    (0.01 + 0.04 * unit(&mut z)) * horizon_us,
                ),
                FaultKind::Straggle => FaultEvent::slowdown(
                    kind,
                    replica,
                    at_us,
                    0.25 + 0.35 * unit(&mut z),
                    (0.05 + 0.20 * unit(&mut z)) * horizon_us,
                ),
                FaultKind::Throttle => FaultEvent::slowdown(
                    kind,
                    replica,
                    at_us,
                    0.50 + 0.40 * unit(&mut z),
                    (0.10 + 0.30 * unit(&mut z)) * horizon_us,
                ),
            };
            events.push(ev);
        }
        Self::new(events)
    }

    /// Expands the plan into the fleet clock's flat action timeline:
    /// every event contributes its onset, and every finite-duration
    /// event additionally contributes its recovery/restore action.
    /// Sorted by time (stable — equal-time actions keep onset-first,
    /// plan order); events naming replicas outside `0..n_replicas` are
    /// skipped.
    pub fn timeline(&self, n_replicas: usize) -> Vec<ScheduledFault> {
        let mut out = Vec::with_capacity(self.events.len() * 2);
        for ev in &self.events {
            if ev.replica >= n_replicas {
                continue;
            }
            let onset = match ev.kind {
                FaultKind::Crash => FaultOp::Crash,
                _ => FaultOp::SetScale(ev.factor),
            };
            out.push(ScheduledFault {
                at_us: ev.at_us,
                replica: ev.replica,
                op: onset,
                kind: ev.kind,
            });
            if ev.duration_us.is_finite() {
                let op = match ev.kind {
                    FaultKind::Crash => FaultOp::Recover,
                    _ => FaultOp::ClearScale,
                };
                out.push(ScheduledFault {
                    at_us: ev.at_us + ev.duration_us,
                    replica: ev.replica,
                    op,
                    kind: ev.kind,
                });
            }
        }
        out.sort_by(|a, b| a.at_us.total_cmp(&b.at_us));
        out
    }
}

/// One action on the expanded fault timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultOp {
    Crash,
    Recover,
    /// Scale the replica's engine clock (throttle/stall/straggle onset).
    SetScale(f64),
    /// Restore nominal clocks.
    ClearScale,
}

/// A timeline entry the fleet clock consumes as a decision point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledFault {
    pub at_us: f64,
    pub replica: usize,
    pub op: FaultOp,
    /// The originating event's kind (for logging/attribution).
    pub kind: FaultKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic_and_sorted() {
        let a = FaultPlan::generate(42, 4, 1e6, 1.5);
        let b = FaultPlan::generate(42, 4, 1e6, 1.5);
        assert_eq!(a, b);
        assert!(!a.events.is_empty());
        assert!(a.events.windows(2).all(|w| w[0].at_us <= w[1].at_us));
        assert!(a.events.iter().all(|e| e.replica < 4));
        let c = FaultPlan::generate(43, 4, 1e6, 1.5);
        assert_ne!(a, c, "different seeds draw different plans");
    }

    #[test]
    fn timeline_pairs_onset_with_recovery() {
        let plan = FaultPlan::new(vec![
            FaultEvent::crash(1, 1_000.0, 5_000.0),
            FaultEvent::crash(0, 2_000.0, f64::INFINITY),
            FaultEvent::slowdown(FaultKind::Throttle, 2, 500.0, 0.5, 1_000.0),
        ]);
        let tl = plan.timeline(3);
        assert_eq!(tl.len(), 5, "permanent crash contributes no recovery");
        assert!(tl.windows(2).all(|w| w[0].at_us <= w[1].at_us));
        assert_eq!(tl[0].op, FaultOp::SetScale(0.5));
        assert_eq!(tl[1].op, FaultOp::Crash);
        assert_eq!(tl[2].op, FaultOp::ClearScale);
        assert_eq!(tl[3].op, FaultOp::Crash);
        assert_eq!(tl[4].op, FaultOp::Recover);
        assert_eq!(tl[4].replica, 1);
        // Out-of-range replicas are skipped, not a panic.
        assert_eq!(plan.timeline(1).len(), 1);
    }
}
