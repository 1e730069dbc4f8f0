//! # elastic — warm-pool autoscaling and self-healing fleet membership
//!
//! The capacity layer on top of the fleet clock: a [`ScalingPolicy`]
//! reads fleet-wide windowed signals ([`FleetSignals`]) at every
//! controller tick and returns a desired Active-replica count. The
//! cluster runtime turns the delta into lane lifecycle transitions —
//! scale-up draws lanes from a pre-declared warm pool behind an
//! explicit seeded provisioning delay (cold-start is ≈ a pointer bump
//! thanks to the memoized `Deployment::cached`, but real fleets pay an
//! allocation latency, so we model it like mtop's DRA
//! allocation/deallocation timing), scale-down and SLO-breach draining
//! quiesce a lane with cursor-preserving BE evacuation and LS requeue
//! through the chaos retry machinery, and crash replacement provisions
//! a warm lane once a dead replica stays dead past a confirmation
//! window.
//!
//! Everything here is plain deterministic data: policies are pure
//! functions of the signals, provisioning jitter comes from a
//! splitmix64 chain on the run seed, and every membership change is a
//! clock decision point ordered `fault < scale < tick < retry <
//! arrival` — so a run replays bit-identically under any interleaving
//! of scaling and fault events.

use gpu_spec::GpuModel;

use crate::seed::splitmix64;

/// The reserve of pre-provisioned lanes scale-up and crash replacement
/// draw from. Warm lanes are fully prepared at config time (scenarios,
/// policies, BE sets) but start frozen: not routable, not advancing,
/// zero simulation cost until activated.
#[derive(Debug, Clone)]
pub struct WarmPoolConfig {
    /// GPU model per warm lane; the pool size is `gpus.len()`.
    pub gpus: Vec<GpuModel>,
    /// Mean delay between a provisioning decision and the lane going
    /// routable (µs). Models DRA-style allocation latency.
    pub provision_delay_us: f64,
    /// Relative jitter on the delay, in `[0, 1)`: each provisioning
    /// draw is `delay * (1 - jitter + 2*jitter*u)` for a seeded
    /// uniform `u`.
    pub provision_jitter: f64,
}

impl WarmPoolConfig {
    pub fn new(gpus: Vec<GpuModel>) -> Self {
        WarmPoolConfig {
            gpus,
            provision_delay_us: 50_000.0,
            provision_jitter: 0.2,
        }
    }
}

/// Fleet-wide windowed signals handed to [`ScalingPolicy::desired_replicas`]
/// at each controller tick. All latency/goodput figures cover the tick
/// window just closed, not the whole run.
#[derive(Debug, Clone, Copy)]
pub struct FleetSignals {
    /// Tick instant (µs).
    pub at_us: f64,
    /// Lanes currently Active (routable members).
    pub active: usize,
    /// Active lanes that are alive and heartbeat-fresh.
    pub healthy_active: usize,
    /// Lanes mid-provisioning (decided, not yet routable).
    pub provisioning: usize,
    /// Warm lanes still available to draw from.
    pub warm_available: usize,
    /// Worst per-lane windowed p99/SLO ratio across healthy Active
    /// lanes (0.0 when no lane completed a request this window).
    pub window_p99_ratio: f64,
    /// LS completions across the fleet in this window.
    pub window_completions: u64,
    /// Arrivals injected across the fleet in this window.
    pub window_arrivals: u64,
    /// Total queued LS requests across Active lanes, per Active lane.
    pub backlog_per_active: f64,
}

/// Why a scaling action fired — recorded on the [`ScaleEvent`] so the
/// bench can attribute membership churn to load, SLO pressure, or
/// self-healing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleCause {
    /// Threshold policy asked for more/less capacity.
    Load,
    /// Sustained SLO breach drained the worst lane.
    SloBreach,
    /// A confirmed-dead lane was replaced from the warm pool.
    CrashReplace,
}

/// A membership transition, timestamped and lane-attributed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScaleEventKind {
    /// A warm lane started provisioning; routable at `ready_at_us`.
    Provision { cause: ScaleCause, ready_at_us: f64 },
    /// A provisioning lane finished its delay and joined the routable set.
    Activate,
    /// An Active lane stopped accepting traffic and began quiescing.
    DrainStart { cause: ScaleCause },
    /// A crash aborted an in-flight provisioning; the lane returned to Warm.
    CancelProvision,
    /// A draining (or confirmed-dead) lane left the fleet for good.
    Retire,
}

/// One entry in [`ClusterResult::scale_events`](crate::cluster::ClusterResult::scale_events).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleEvent {
    pub at_us: f64,
    pub replica: usize,
    pub kind: ScaleEventKind,
}

/// A capacity policy: pure function of the windowed fleet signals to a
/// desired Active-lane count. The runtime clamps the answer to
/// `[min_replicas, max_replicas]`, applies cooldowns, and turns the
/// delta into provision/drain actions. Implementations must be
/// deterministic — a learned elasticity agent plugs in here later.
pub trait ScalingPolicy: Send {
    fn name(&self) -> &'static str;
    /// Desired number of Active lanes. `signals.active + signals.provisioning`
    /// is the capacity already committed.
    fn desired_replicas(&self, signals: &FleetSignals) -> usize;
}

/// Never changes capacity — the no-op policy used for bit-identity
/// baselines (min == max == initial must reproduce the pre-elastic
/// simulator exactly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoldPolicy;

impl ScalingPolicy for HoldPolicy {
    fn name(&self) -> &'static str {
        "hold"
    }
    fn desired_replicas(&self, signals: &FleetSignals) -> usize {
        signals.active + signals.provisioning
    }
}

/// Threshold rules: scale up by `step` when the windowed p99/SLO ratio
/// or the per-lane backlog crosses the up thresholds, scale down by
/// `step` when both sit below the down thresholds. Asymmetric
/// hysteresis (`down_* < up_*`) plus the runtime cooldowns keep the
/// fleet from flapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdPolicy {
    /// Scale up when windowed p99/SLO exceeds this (1.0 = at the SLO).
    pub up_ratio: f64,
    /// Scale down only when windowed p99/SLO is below this.
    pub down_ratio: f64,
    /// Scale up when mean LS backlog per Active lane exceeds this.
    pub up_backlog: f64,
    /// Scale down only when mean LS backlog per Active lane is below this.
    pub down_backlog: f64,
    /// Lanes added/removed per decision.
    pub step: usize,
}

impl Default for ThresholdPolicy {
    fn default() -> Self {
        ThresholdPolicy {
            up_ratio: 1.0,
            down_ratio: 0.55,
            up_backlog: 12.0,
            down_backlog: 3.0,
            step: 1,
        }
    }
}

impl ScalingPolicy for ThresholdPolicy {
    fn name(&self) -> &'static str {
        "threshold"
    }
    fn desired_replicas(&self, s: &FleetSignals) -> usize {
        let committed = s.active + s.provisioning;
        let pressed = s.window_p99_ratio > self.up_ratio || s.backlog_per_active > self.up_backlog;
        let idle = s.window_p99_ratio < self.down_ratio
            && s.backlog_per_active < self.down_backlog
            && s.window_completions > 0;
        if pressed {
            committed + self.step
        } else if idle {
            committed.saturating_sub(self.step)
        } else {
            committed
        }
    }
}

/// Config-level policy selector (the trait object is built per run so
/// [`ElasticConfig`] stays `Clone`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalingPolicyKind {
    Hold,
    Threshold(ThresholdPolicy),
}

impl ScalingPolicyKind {
    pub fn make(&self) -> Box<dyn ScalingPolicy> {
        match self {
            ScalingPolicyKind::Hold => Box::new(HoldPolicy),
            ScalingPolicyKind::Threshold(p) => Box::new(*p),
        }
    }
    pub fn name(&self) -> &'static str {
        match self {
            ScalingPolicyKind::Hold => "hold",
            ScalingPolicyKind::Threshold(_) => "threshold",
        }
    }
}

/// Elastic-fleet configuration: the warm pool, the policy, the bounds
/// and cooldowns, and the self-healing knobs.
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// The reserve lanes scale-up and replacement draw from.
    pub warm_pool: WarmPoolConfig,
    /// Capacity policy evaluated at every controller tick.
    pub policy: ScalingPolicyKind,
    /// Never drain below this many Active lanes.
    pub min_replicas: usize,
    /// Never provision above this many Active + provisioning lanes.
    pub max_replicas: usize,
    /// Minimum µs between successive scale-up decisions.
    pub up_cooldown_us: f64,
    /// Minimum µs between successive scale-down decisions.
    pub down_cooldown_us: f64,
    /// Drain the worst Active lane (replacing it from the warm pool
    /// when one is available) after this many consecutive ticks with
    /// its windowed p99/SLO ratio above `breach_drain_ratio`.
    /// `0` disables breach draining.
    pub breach_drain_ticks: u32,
    /// Windowed p99/SLO ratio a lane must exceed to count as breached.
    pub breach_drain_ratio: f64,
    /// Replace a dead Active lane from the warm pool once it has been
    /// dead this long (µs). `f64::INFINITY` disables replacement.
    pub replace_after_us: f64,
}

impl ElasticConfig {
    pub fn new(warm_pool: WarmPoolConfig, policy: ScalingPolicyKind) -> Self {
        ElasticConfig {
            warm_pool,
            policy,
            min_replicas: 1,
            max_replicas: usize::MAX,
            up_cooldown_us: 0.0,
            down_cooldown_us: 0.0,
            breach_drain_ticks: 0,
            breach_drain_ratio: 1.5,
            replace_after_us: f64::INFINITY,
        }
    }

    /// Validate against the fleet shape: `initial` is the configured
    /// lane count, `total` includes warm-pool lanes. Panics with a
    /// descriptive message on nonsense (mirrors `ClusterConfig::prepare`
    /// validation style).
    pub fn validate(&self, initial: usize, total: usize) {
        assert!(self.min_replicas >= 1, "elastic: min_replicas must be >= 1");
        assert!(
            self.min_replicas <= initial,
            "elastic: min_replicas ({}) exceeds the initial fleet size ({initial})",
            self.min_replicas
        );
        assert!(
            self.max_replicas >= initial,
            "elastic: max_replicas ({}) is below the initial fleet size ({initial}); \
             start smaller or raise the bound",
            self.max_replicas
        );
        let max_eff = self.max_replicas.min(total);
        assert!(
            max_eff >= self.min_replicas,
            "elastic: max_replicas clamps below min_replicas"
        );
        assert!(
            self.warm_pool.provision_delay_us >= 0.0,
            "elastic: provision_delay_us must be >= 0"
        );
        assert!(
            (0.0..1.0).contains(&self.warm_pool.provision_jitter),
            "elastic: provision_jitter must be in [0, 1)"
        );
        assert!(
            self.breach_drain_ratio > 0.0,
            "elastic: breach_drain_ratio must be > 0"
        );
        assert!(
            self.replace_after_us >= 0.0,
            "elastic: replace_after_us must be >= 0 (use INFINITY to disable)"
        );
    }
}

/// Seeded provisioning-delay draw: deterministic per (run seed, draw
/// index).
pub(crate) fn provision_delay(cfg: &WarmPoolConfig, seed: u64, draw: u64) -> f64 {
    let j = cfg.provision_jitter;
    if j == 0.0 || cfg.provision_delay_us == 0.0 {
        return cfg.provision_delay_us;
    }
    let bits = splitmix64(seed ^ splitmix64(0x00E1_A571C ^ draw));
    let u = (bits >> 11) as f64 / (1u64 << 53) as f64;
    cfg.provision_delay_us * (1.0 - j + 2.0 * j * u)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig() -> FleetSignals {
        FleetSignals {
            at_us: 0.0,
            active: 4,
            healthy_active: 4,
            provisioning: 0,
            warm_available: 2,
            window_p99_ratio: 0.8,
            window_completions: 100,
            window_arrivals: 100,
            backlog_per_active: 5.0,
        }
    }

    #[test]
    fn hold_never_moves() {
        let mut s = sig();
        s.window_p99_ratio = 10.0;
        assert_eq!(HoldPolicy.desired_replicas(&s), 4);
        s.provisioning = 2;
        assert_eq!(HoldPolicy.desired_replicas(&s), 6);
    }

    #[test]
    fn threshold_scales_on_pressure_and_idles_down() {
        let p = ThresholdPolicy::default();
        let mut s = sig();
        assert_eq!(p.desired_replicas(&s), 4, "in the hysteresis band");
        s.window_p99_ratio = 1.2;
        assert_eq!(p.desired_replicas(&s), 5, "ratio pressure scales up");
        s.window_p99_ratio = 0.8;
        s.backlog_per_active = 20.0;
        assert_eq!(p.desired_replicas(&s), 5, "backlog pressure scales up");
        s.backlog_per_active = 1.0;
        s.window_p99_ratio = 0.2;
        assert_eq!(p.desired_replicas(&s), 3, "idle window scales down");
        s.window_completions = 0;
        assert_eq!(p.desired_replicas(&s), 4, "empty window holds");
    }

    #[test]
    fn provision_delay_is_deterministic_and_bounded() {
        let cfg = WarmPoolConfig::new(vec![]);
        let a = provision_delay(&cfg, 42, 0);
        let b = provision_delay(&cfg, 42, 0);
        assert_eq!(a, b);
        assert_ne!(a, provision_delay(&cfg, 42, 1));
        for draw in 0..64 {
            let d = provision_delay(&cfg, 7, draw);
            let (lo, hi) = (
                cfg.provision_delay_us * (1.0 - cfg.provision_jitter),
                cfg.provision_delay_us * (1.0 + cfg.provision_jitter),
            );
            assert!(d >= lo && d <= hi, "draw {draw} out of bounds: {d}");
        }
        let flat = WarmPoolConfig {
            provision_jitter: 0.0,
            ..WarmPoolConfig::new(vec![])
        };
        assert_eq!(provision_delay(&flat, 1, 0), flat.provision_delay_us);
    }

    #[test]
    fn validate_rejects_nonsense() {
        let mk = || ElasticConfig::new(WarmPoolConfig::new(vec![]), ScalingPolicyKind::Hold);
        mk().validate(4, 4);
        let r = std::panic::catch_unwind(|| {
            let mut e = mk();
            e.min_replicas = 5;
            e.validate(4, 4);
        });
        assert!(r.is_err(), "min above initial must be rejected");
        let r = std::panic::catch_unwind(|| {
            let mut e = mk();
            e.warm_pool.provision_jitter = 1.0;
            e.validate(4, 4);
        });
        assert!(r.is_err(), "jitter of 1.0 must be rejected");
    }
}
