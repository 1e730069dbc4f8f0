//! Multi-GPU fleet simulator: SLO-aware request routing + dynamic BE
//! placement across spatially-shared replicas.
//!
//! The paper's evaluation stops at one GPU, but its deployment target is
//! cloud inference serving — fleets of GPUs, each spatially shared
//! between LS services and BE jobs, behind a request router. This module
//! builds that layer on the per-GPU machinery the workspace already has:
//!
//! * every **replica** is one [`ReplicaSim`] — the exact fast serving
//!   loop (engine + policy + queues), run through a reusable
//!   [`ClusterCtx`] so repeated fleet runs are allocation-free in steady
//!   state. A 1-replica fleet is *bit-identical* to a single-GPU
//!   [`sgdrc_core::serving::run`] (enforced by `tests/cluster.rs`);
//! * a **router** consumes one merged cluster-wide arrival stream and
//!   dispatches each LS request to a replica via a pluggable
//!   [`RoutingPolicy`] — round-robin, join-shortest-backlog over the
//!   O(1) `ls_backlog` counters, or SLO-aware power-of-two-choices;
//! * a **fleet controller** ticks on a fixed period, reads each
//!   replica's *windowed* p99-to-SLO ratio from a per-replica
//!   [`LatencyHistogram`], and migrates BE jobs off breaching replicas
//!   onto underloaded ones — parking a job raises the eviction flag on
//!   its running kernel (the §7.1 preempt path) and, optionally,
//!   retunes the destination's `Ch_BE` via [`Sgdrc::reconfigure`];
//! * replicas are **heterogeneous** ([`Deployment::cached`] per
//!   [`GpuModel`]) and fully independent between router decisions; the
//!   fleet clock advances the replicas with pending work inline, in
//!   ascending lane order, on the calling thread. Each replica's seed
//!   derives from the fleet seed via splitmix64 ([`cell_seed`]);
//! * per-replica latency sketches **merge** into fleet-wide percentiles
//!   without re-sorting ([`LatencyHistogram::merge`]).
//!
//! ## One run state, one decision order
//!
//! [`run_cluster_prepared`] builds one private run state (`RunState`):
//! the `Fleet`, the BE placement and migration log, the chaos, tier,
//! elastic and telemetry runtimes, the arrival stream, the router and
//! the scratch buffers. Every control-plane step is a method on it, so
//! each layer's state is one field away. The clock is one loop: it takes
//! the earliest decision due by the horizon, quiesces the fleet to that
//! instant and runs the decision's handler —
//!
//! * *fault*: the next fault-timeline action of [`crate::chaos`] (crash,
//!   recovery, clock scale);
//! * *scale*: warm lanes whose provisioning delay has ended join the
//!   fleet ([`crate::elastic`]);
//! * *tick*: the controller drains the completion windows, then runs the
//!   elastic step, the BE migration, the brownout ladder and the
//!   [`crate::tiers`] queue flush;
//! * *retry*: due retry-queue entries are re-routed or dropped;
//! * *arrival*: admission control, then routing.
//!
//! Decisions due at one instant run in the order the private `Decision`
//! enum declares its variants, fault < scale < tick < retry < arrival:
//! its derived `Ord` is the only statement of that order in the code. A
//! tick at exactly the horizon does not fire; the other kinds fire at or
//! before it. Once no decision is due, every lane runs out to the
//! horizon.
//!
//! ## Scale-out architecture (500–1000 replicas, 10M+ requests)
//!
//! The fleet clock touches a lane's cold state only when that lane has
//! work, and its steady-state allocations are zero:
//!
//! * **Struct-of-arrays lanes.** `Fleet` keeps the per-epoch hot
//!   scalars — next-pending time, LS backlog, windowed ratio, liveness
//!   — in contiguous arrays the router, controller and clock read
//!   densely; the cold per-replica state (engine, queues, policy,
//!   sketches) lives in one boxed `LaneCell` per lane that only that
//!   lane's advance touches. Every lane mutation funnels through
//!   `Fleet::mutate`, which re-derives the lane's hot mirror
//!   afterwards — the mirrors are provably never stale.
//! * **Busy-set scan.** Busy-lane selection is one pass over the dense
//!   `next_at` mirror (8 bytes per lane). The router already reads
//!   every view on each arrival, so the scan adds no complexity class
//!   to an epoch. The clock's reference is four `debug_assertions`
//!   oracles that every debug test run exercises: the scanned busy set
//!   against `next_pending_at` over the live lanes every epoch, the
//!   incremental router views against a fresh rebuild every decision,
//!   the dense mirrors against the live lanes at every rebuild, and
//!   each advance's refresh hint against `next_pending_at`.
//! * **One thread.** The clock never fans out: a typical epoch advances
//!   a handful of lanes in microseconds, about what a parallel batch costs
//!   to dispatch. On a 2-vCPU host a 512-replica streaming fleet
//!   advanced in two-worker batches ran at 0.81× the inline speed while
//!   burning ~1.5× the CPU. Parallelism belongs a level up, across
//!   independent runs (the Fig. 17 runner's systems × BE co-locations).
//! * **Zero-alloc epochs.** All per-epoch scratch — the busy list, the
//!   router's view array, due-retry extraction, the controller's
//!   destination ordering — lives in [`ClusterCtx`] and is reused
//!   across epochs and runs (asserted by the counting-allocator test in
//!   `tests/cluster_alloc.rs`).
//! * **Streamed arrivals.** Arrivals always come from
//!   [`ArrivalStream`], which replays the exact batch trace without
//!   materializing it, so arrival memory is O(LS services) for any
//!   horizon.
//! * **Streaming long-horizon mode.** With
//!   [`ClusterConfig::streaming`], per-replica completion logs are
//!   folded into the latency sketches and conservation counters at
//!   every controller tick and then discarded, bounding memory at
//!   O(replicas) for any horizon. Aggregate results are identical to
//!   the retained mode (`tests/cluster_streaming.rs`).

use crate::chaos::{FaultOp, FaultPlan, RetryConfig, ScheduledFault};
use crate::elastic::{
    provision_delay, ElasticConfig, FleetSignals, ScaleCause, ScaleEvent, ScaleEventKind,
    ScalingPolicy, ScalingPolicyKind, WarmPoolConfig,
};
use crate::metrics::{slo_for, LatencyHistogram};
use crate::runner::Deployment;
use crate::seed::{cell_seed, splitmix64};
use crate::telemetry::{
    EventKind, RefusalReason, RequeueCause, TelemetryConfig, TelemetryResult, TelemetryRt,
    FLEET_TRACK,
};
use crate::tiers::{AdmissionClass, TierOutcome, TiersConfig};
use crate::trace::{ArrivalStream, TraceConfig};
use crate::SystemKind;
use gpu_spec::GpuModel;
use sgdrc_core::serving::{ArrivalTrace, Policy, ReplicaSim, RunStats, Scenario, SimContext, Task};
use sgdrc_core::{Sgdrc, SgdrcConfig};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Fleet-controller tunables.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Rebalance tick period (µs); 0 disables the controller entirely
    /// (no windowed-p99 snapshots, no migrations).
    pub period_us: f64,
    /// A replica whose windowed p99/SLO ratio exceeds this is overloaded
    /// — a migration source (1.0 = the SLO itself).
    pub breach_ratio: f64,
    /// A replica may receive BE work only while its windowed ratio stays
    /// below this.
    pub headroom_ratio: f64,
    /// Retune `Ch_BE` through [`Sgdrc::reconfigure`] whenever a
    /// migration changes a replica's resident-BE count (SGDRC replicas
    /// only): more resident BE jobs → a proportionally larger BE channel
    /// subset, capped at half the channels.
    pub adaptive_ch_be: bool,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            period_us: 100_000.0,
            breach_ratio: 1.0,
            headroom_ratio: 0.75,
            adaptive_ch_be: false,
        }
    }
}

/// One fleet scenario: replicas, system, trace shape and BE placement.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// One GPU model per replica — heterogeneous fleets mix models.
    pub gpus: Vec<GpuModel>,
    /// The sharing system every replica runs.
    pub system: SystemKind,
    /// Per-LS-service arrival shape of the *cluster-wide* stream (scale
    /// its mean with the fleet size; the router splits it).
    pub trace: TraceConfig,
    pub horizon_us: f64,
    pub ls_instances: usize,
    /// Base seed: the arrival stream and the p2c router chain derive
    /// from it via splitmix64.
    pub seed: u64,
    /// Fleet BE jobs, one entry per job naming its BE model index.
    /// Initial placement is round-robin over replicas (skipping replicas
    /// already hosting that model — at most one instance of a model per
    /// replica).
    pub be_jobs: Vec<usize>,
    pub controller: ControllerConfig,
    /// Policy tuning for SGDRC replicas.
    pub sgdrc: SgdrcConfig,
    /// Optional fault-injection scenario. `None` runs the same clock
    /// with an empty fault timeline and an infinite heartbeat timeout,
    /// so no lane fails or looks unhealthy; `Some` interleaves the
    /// plan's crash/recovery/slowdown timeline with the router and
    /// controller decisions (see [`crate::chaos`]).
    pub chaos: Option<FaultPlan>,
    /// Long-horizon streaming mode: per-replica completion logs are
    /// folded into the sketches at every controller tick and then
    /// discarded instead of being retained, bounding memory at
    /// O(replicas) regardless of horizon (arrivals stream in either
    /// mode).
    /// Aggregate results (fleet sketch, counters, goodput, SLO
    /// attainment) are identical to the retained mode; only the
    /// per-request `ls_completed` logs in [`ReplicaSummary::stats`] are
    /// absent. Requires a running controller (`period_us > 0`), whose
    /// ticks bound the retained window.
    pub streaming: bool,
    /// Elastic fleet membership: a warm pool of pre-prepared lanes, a
    /// [`ScalingPolicy`] evaluated at every controller tick, SLO-breach
    /// draining and crash replacement (see [`crate::elastic`]). `None`
    /// runs the same machinery over an inert config — no warm lanes,
    /// the `Hold` policy, breach draining and replacement off — which
    /// freezes membership at config time, as does any no-op config.
    pub elastic: Option<ElasticConfig>,
    /// The flight recorder (see [`crate::telemetry`]): per-lane event
    /// rings, tick-sampled metric series and clock phase profiling,
    /// surfaced as [`ClusterResult::telemetry`]. `None` (the default)
    /// records nothing, allocates nothing on the epoch path, and is
    /// bit-identical to a recorder-enabled run on every other
    /// `ClusterResult` field.
    pub telemetry: Option<TelemetryConfig>,
    /// Tiered SLOs (see [`crate::tiers`]): one [`crate::tiers::TierConfig`]
    /// per LS service driving admission control, the brownout ladder in
    /// `brownout()`, per-tier retry budgets/deadlines, tier-aware router
    /// tie-breaking and weighted goodput. `None` (the default) runs the
    /// same machinery over [`TiersConfig::tier_blind`] — one Guaranteed
    /// tier mirroring the fault plan's retry policy, whose ladder only
    /// parks BE — and reports no per-tier results.
    pub tiers: Option<TiersConfig>,
}

impl ClusterConfig {
    /// A fleet of the given replicas under one system, with Apollo-like
    /// per-service load, one BE job per replica rotating through the BE
    /// models, and the controller on at its default period.
    pub fn new(gpus: Vec<GpuModel>, system: SystemKind) -> Self {
        let be_zoo = dnn::zoo::ModelId::be_models().len();
        let be_jobs = (0..gpus.len()).map(|i| i % be_zoo).collect();
        Self {
            gpus,
            system,
            trace: TraceConfig::apollo_like(),
            horizon_us: 2e6,
            ls_instances: 4,
            seed: 0xF1EE7,
            be_jobs,
            controller: ControllerConfig::default(),
            sgdrc: SgdrcConfig::default(),
            chaos: None,
            streaming: false,
            elastic: None,
            telemetry: None,
            tiers: None,
        }
    }

    /// Validates the config and hoists every per-run derivation that
    /// does not depend on run state: deployments (with the same-LS /
    /// `supported_on` checks), the sorted-deduped fleet BE model set,
    /// per-GPU-model BE task sets, initial job placement, and
    /// per-replica scenarios and SLO tables. Arrivals are not
    /// materialized: each run streams them. Benches that re-run one
    /// config (scaling curves, system × router matrices over a fixed
    /// fleet) prepare once and skip all of it on every subsequent run.
    pub fn prepare(&self) -> PreparedCluster {
        let n_init = self.gpus.len();
        assert!(n_init > 0, "a fleet needs at least one replica");
        // Every fleet runs an elastic config: the attached one, or the
        // inert one (no warm lanes, `Hold`, breach draining and
        // replacement off).
        let elastic = self.elastic.clone().unwrap_or_else(|| {
            ElasticConfig::new(WarmPoolConfig::new(vec![]), ScalingPolicyKind::Hold)
        });
        // The lane universe: configured replicas first, then the warm
        // pool. Warm lanes are fully prepared here (deployments,
        // scenarios, SLOs) so run-time activation is pure state flips
        // behind the provisioning delay.
        let lane_gpus: Vec<GpuModel> = self
            .gpus
            .iter()
            .chain(&elastic.warm_pool.gpus)
            .copied()
            .collect();
        let n = lane_gpus.len();
        elastic.validate(n_init, n);
        if let Some(plan) = &self.chaos {
            plan.validate_targets(n_init, n);
        }

        let deps: Vec<Arc<Deployment>> = lane_gpus.iter().map(|&g| Deployment::cached(g)).collect();
        let n_ls = deps[0].ls_tasks.len();
        for (r, dep) in deps.iter().enumerate() {
            assert_eq!(
                dep.ls_tasks.len(),
                n_ls,
                "replica {r}: every replica must deploy the same LS services"
            );
            assert!(
                self.system.supported_on(&dep.spec),
                "{} is not supported on replica {r} ({})",
                self.system.name(),
                dep.spec.name
            );
        }

        // Every fleet runs a tier map: the attached one (validated), or
        // the tier-blind map built from the fault plan's policies.
        let tiers = match (&self.tiers, &self.chaos) {
            (Some(tiers), _) => {
                tiers.validate(n_ls);
                tiers.clone()
            }
            (None, Some(plan)) => {
                TiersConfig::tier_blind(n_ls, &plan.retry, Some(&plan.degradation))
            }
            (None, None) => TiersConfig::tier_blind(n_ls, &RetryConfig::default(), None),
        };

        // The distinct BE models the fleet runs, ascending — every
        // replica's scenario lists exactly these tasks, and placement
        // toggles their activity.
        let fleet_models: Vec<usize> = {
            let mut m = self.be_jobs.clone();
            m.sort_unstable();
            m.dedup();
            m
        };
        // Each job's BE task slot in every replica's scenario.
        let job_slot: Vec<usize> = self
            .be_jobs
            .iter()
            .map(|&model| {
                fleet_models
                    .iter()
                    .position(|&m| m == model)
                    .expect("job model is a fleet model")
            })
            .collect();
        // One BE task set per distinct GPU model, shared by its replicas.
        let mut be_sets: Vec<(GpuModel, Arc<[Task]>)> = Vec::new();
        for (r, &gpu) in lane_gpus.iter().enumerate() {
            if !be_sets.iter().any(|(g, _)| *g == gpu) {
                let set: Arc<[Task]> = fleet_models
                    .iter()
                    .map(|&m| deps[r].be_tasks[m].clone())
                    .collect();
                be_sets.push((gpu, set));
            }
        }
        let be_set_of = |gpu: GpuModel| -> Arc<[Task]> {
            Arc::clone(
                &be_sets
                    .iter()
                    .find(|(g, _)| *g == gpu)
                    .expect("built above")
                    .1,
            )
        };

        // Initial BE placement: job j starts on replica j mod n_init,
        // scanning forward past replicas that already host its model
        // (≤ 1 instance of a model per replica). Warm lanes start
        // empty — BE work reaches them only via run-time migration.
        let mut init_jobs_on: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (j, &model) in self.be_jobs.iter().enumerate() {
            let host = (0..n_init)
                .map(|off| (j + off) % n_init)
                .find(|&r| !init_jobs_on[r].iter().any(|&k| self.be_jobs[k] == model))
                .unwrap_or_else(|| panic!("BE model {model} has more jobs than replicas"));
            init_jobs_on[host].push(j);
        }

        let empty_arrivals = Arc::new(ArrivalTrace::default());
        let scenarios: Vec<Scenario> = (0..n)
            .map(|r| Scenario {
                spec: deps[r].spec.clone(),
                ls: Arc::clone(&deps[r].ls_tasks),
                be: be_set_of(lane_gpus[r]),
                ls_instances: self.ls_instances,
                arrivals: Arc::clone(&empty_arrivals),
                horizon_us: self.horizon_us,
            })
            .collect();

        // Per-replica SLOs (replica-local: a slower GPU has a looser
        // SLO, §9.2's n × isolated-p99 with n = LS services + 1 BE
        // slot).
        let slos: Vec<Vec<f64>> = (0..n)
            .map(|r| {
                let services = deps[r].ls_tasks.len() + 1;
                deps[r]
                    .ls_tasks
                    .iter()
                    .map(|t| slo_for(t.profile.isolated_e2e_us, services))
                    .collect()
            })
            .collect();

        assert!(
            !self.streaming || self.controller.period_us > 0.0,
            "streaming mode needs controller ticks to bound the retained window"
        );

        PreparedCluster {
            cfg: self.clone(),
            deps,
            n_ls,
            n_init,
            lane_gpus,
            fleet_models,
            job_slot,
            init_jobs_on,
            slos,
            scenarios,
            tiers,
            elastic,
        }
    }
}

/// A validated [`ClusterConfig`] with every config-only derivation done:
/// build once with [`ClusterConfig::prepare`], then run any number of
/// times via [`run_cluster_prepared`]. It holds no arrivals; every run
/// streams them from the config's trace shape and seed.
pub struct PreparedCluster {
    cfg: ClusterConfig,
    deps: Vec<Arc<Deployment>>,
    n_ls: usize,
    /// Configured (initially Active) lanes; lanes `n_init..` are the
    /// warm pool.
    n_init: usize,
    /// GPU model per lane — configured replicas then warm-pool lanes.
    lane_gpus: Vec<GpuModel>,
    fleet_models: Vec<usize>,
    /// BE task slot (index into `fleet_models`) per fleet BE job.
    job_slot: Vec<usize>,
    init_jobs_on: Vec<Vec<usize>>,
    slos: Vec<Vec<f64>>,
    scenarios: Vec<Scenario>,
    /// The tier map every run uses: `cfg.tiers`, or the tier-blind map.
    tiers: TiersConfig,
    /// The elastic config every run uses: `cfg.elastic`, or the inert
    /// one.
    elastic: ElasticConfig,
}

impl PreparedCluster {
    /// The config this plan was prepared from.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Number of LS services every replica deploys — the length a
    /// [`TiersConfig`] must match, one [`crate::tiers::TierConfig`] per
    /// service.
    pub fn n_ls(&self) -> usize {
        self.n_ls
    }

    /// Total LS arrivals the run will inject, counted by draining a
    /// fresh [`ArrivalStream`] — O(arrivals) time, O(LS services)
    /// memory.
    pub fn arrival_count(&self) -> usize {
        let mut stream = ArrivalStream::new(
            &self.cfg.trace,
            self.n_ls,
            self.cfg.horizon_us,
            self.cfg.seed,
        );
        let mut count = 0;
        while stream.pop().is_some() {
            count += 1;
        }
        count
    }
}

/// What a [`RoutingPolicy`] sees of each replica at an arrival instant,
/// always in replica-index order.
///
/// The fleet clock maintains these *incrementally* — backlog patched
/// by every lane refresh, ratio/residency re-derived at controller
/// ticks and fault instants, health re-evaluated per decision instant
/// only while some lane is down — so a routing decision costs O(1) in
/// fleet size instead of an O(replicas) rebuild (debug builds compare
/// the incremental views against a fresh rebuild at every decision).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaView {
    pub gpu: GpuModel,
    /// LS requests admitted or waiting on this replica (O(1) counter).
    pub backlog: usize,
    /// The replica's windowed p99-to-SLO ratio as of the last controller
    /// tick (0 until the first tick, or with the controller off).
    pub window_p99_ratio: f64,
    /// BE jobs currently resident.
    pub resident_be: usize,
    /// Health as the router sees it: heartbeat staleness within the
    /// fault plan's timeout. Always `true` without a fault plan. Note a
    /// freshly crashed replica still *looks* healthy until its heartbeat
    /// ages out — routers are not told who died, they observe staleness,
    /// and requests routed at a dead-but-fresh replica bounce through
    /// the retry path.
    pub healthy: bool,
}

/// Picks a replica for each LS request. Implementations must be
/// deterministic functions of the views (index order) and their own
/// state — never of fleet-internal iteration order.
pub trait RoutingPolicy {
    fn name(&self) -> &'static str;
    /// `task` is the LS service the request belongs to; `at_us` its
    /// arrival time. Returns a replica index `< views.len()`.
    fn route(&mut self, views: &[ReplicaView], task: usize, at_us: f64) -> usize;

    /// Tier-aware variant: the fleet clock routes every request through
    /// it. `tier_rank` is the request's tier rank (0 = highest-priority
    /// tier; every request has rank 0 without a
    /// [`crate::tiers::TiersConfig`]). Rank 0 must pick exactly what
    /// `route` picks and advance the router's state exactly as `route`
    /// does, so tier-blind runs route as `route` would. Built-in
    /// implementations break ties toward higher tiers on healthy,
    /// non-breaching lanes at lower ranks; stateful routers must consume
    /// the same internal state at every rank — the p2c chain draws
    /// exactly twice per call.
    fn route_with_tier(
        &mut self,
        views: &[ReplicaView],
        task: usize,
        tier_rank: u32,
        at_us: f64,
    ) -> usize {
        let _ = tier_rank;
        self.route(views, task, at_us)
    }
}

/// Blind rotation over replicas.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoutingPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round_robin"
    }

    fn route(&mut self, views: &[ReplicaView], _task: usize, _at_us: f64) -> usize {
        let n = views.len();
        // Rotate past unhealthy replicas; with every replica unhealthy,
        // fall back to the blind rotation (the fleet clock will requeue).
        for off in 0..n {
            let r = (self.next + off) % n;
            if views[r].healthy {
                self.next = r.wrapping_add(1);
                return r;
            }
        }
        let r = self.next % n;
        self.next = self.next.wrapping_add(1);
        r
    }
}

/// Join-shortest-backlog: the replica with the fewest pending+in-flight
/// LS requests (ties → lowest index). Reads only the O(1) backlog
/// counters.
#[derive(Debug, Default)]
pub struct JoinShortestBacklog;

impl JoinShortestBacklog {
    /// The replica minimizing `(!healthy, [ratio <= 1.0,] backlog,
    /// index)` — the ratio term only when `breach_first` — taken as the
    /// min of one packed `u128` per view: bit 127 `!healthy`, bit 126
    /// `window_p99_ratio <= 1.0` (when `breach_first`), `backlog` from
    /// bit 32, the index in the low 32 bits. The fields occupy disjoint
    /// bits in priority order and the index makes every key unique, so
    /// the min is the tuple order's first minimum.
    fn pick(views: &[ReplicaView], breach_first: bool) -> usize {
        assert!(!views.is_empty(), "non-empty fleet");
        assert!(
            views.len() as u64 <= 1 << 32,
            "every replica index fits the key's low 32 bits"
        );
        let best = views.iter().enumerate().fold(u128::MAX, |best, (i, v)| {
            let key = u128::from(!v.healthy) << 127
                | u128::from(breach_first && v.window_p99_ratio <= 1.0) << 126
                | (v.backlog as u128) << 32
                | i as u128;
            best.min(key)
        });
        (best & u128::from(u32::MAX)) as usize
    }
}

impl RoutingPolicy for JoinShortestBacklog {
    fn name(&self) -> &'static str {
        "shortest_backlog"
    }

    fn route(&mut self, views: &[ReplicaView], _task: usize, _at_us: f64) -> usize {
        Self::pick(views, false)
    }

    /// Tier-aware tie-break: lower tiers prefer lanes already breaching
    /// their SLO window (among healthy lanes, then shortest backlog), so
    /// the clean lanes' headroom is left to the top tier. Rank 0 is the
    /// plain shortest-backlog route, bit for bit.
    fn route_with_tier(
        &mut self,
        views: &[ReplicaView],
        _task: usize,
        tier_rank: u32,
        _at_us: f64,
    ) -> usize {
        Self::pick(views, tier_rank > 0)
    }
}

/// SLO-aware power-of-two-choices: sample two replicas from a
/// deterministic splitmix64 chain, prefer the one not breaching its SLO
/// window, then the shorter backlog, then the lower index. O(1) per
/// request regardless of fleet size.
#[derive(Debug)]
pub struct SloAwarePowerOfTwo {
    state: u64,
}

impl SloAwarePowerOfTwo {
    pub fn new(seed: u64) -> Self {
        Self {
            state: splitmix64(seed ^ 0x70C0_2C40),
        }
    }

    fn draw(&mut self, n: usize) -> usize {
        self.state = splitmix64(self.state);
        (self.state >> 32) as usize % n
    }
}

impl RoutingPolicy for SloAwarePowerOfTwo {
    fn name(&self) -> &'static str {
        "p2c_slo"
    }

    fn route(&mut self, views: &[ReplicaView], _task: usize, _at_us: f64) -> usize {
        let n = views.len();
        // Both draws always happen so the chain consumes the same number
        // of states whether or not anything is unhealthy — no-chaos runs
        // stay bit-identical to the pre-health router.
        let i = self.draw(n);
        let j = self.draw(n);
        let key = |r: usize| {
            (
                !views[r].healthy,
                views[r].window_p99_ratio > 1.0,
                views[r].backlog,
                r,
            )
        };
        if key(i) <= key(j) {
            i
        } else {
            j
        }
    }

    /// Tier-aware tie-break with the same two draws per call: the top
    /// tier is the tier-blind route; lower tiers lose the
    /// breach-avoidance privilege and compare on health + backlog only,
    /// yielding non-breaching lanes to higher tiers when both candidates
    /// are loaded.
    fn route_with_tier(
        &mut self,
        views: &[ReplicaView],
        task: usize,
        tier_rank: u32,
        at_us: f64,
    ) -> usize {
        if tier_rank == 0 {
            return self.route(views, task, at_us);
        }
        let n = views.len();
        let i = self.draw(n);
        let j = self.draw(n);
        let key = |r: usize| (!views[r].healthy, views[r].backlog, r);
        if key(i) <= key(j) {
            i
        } else {
            j
        }
    }
}

/// The built-in routing policies, for benches sweeping all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterKind {
    RoundRobin,
    ShortestBacklog,
    P2cSlo,
}

impl RouterKind {
    pub fn all() -> [RouterKind; 3] {
        [
            RouterKind::RoundRobin,
            RouterKind::ShortestBacklog,
            RouterKind::P2cSlo,
        ]
    }

    pub fn name(self) -> &'static str {
        match self {
            RouterKind::RoundRobin => "round_robin",
            RouterKind::ShortestBacklog => "shortest_backlog",
            RouterKind::P2cSlo => "p2c_slo",
        }
    }

    /// Instantiates the policy (the p2c chain seeds from `seed`).
    pub fn make(self, seed: u64) -> Box<dyn RoutingPolicy> {
        match self {
            RouterKind::RoundRobin => Box::new(RoundRobin::default()),
            RouterKind::ShortestBacklog => Box::new(JoinShortestBacklog),
            RouterKind::P2cSlo => Box::new(SloAwarePowerOfTwo::new(seed)),
        }
    }
}

/// One BE-job migration performed by the fleet controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Migration {
    pub at_us: f64,
    /// Index into [`ClusterConfig::be_jobs`].
    pub job: usize,
    /// The job's BE model index.
    pub model: usize,
    pub from: usize,
    pub to: usize,
}

/// Per-replica outcome of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaSummary {
    pub gpu: GpuModel,
    /// Requests the router sent here.
    pub routed: u64,
    /// Requests completed here.
    pub requests: u64,
    /// Completions that met their (replica-local) SLO.
    pub slo_met: u64,
    /// Every completed latency (µs) — merges into the fleet sketch.
    pub hist: LatencyHistogram,
    /// The replica's derived seed (`cell_seed(cluster seed, replica)`),
    /// for downstream per-replica derivations.
    pub seed: u64,
    /// Total µs this lane was a fleet member (Active or Draining).
    /// Static fleets report the full horizon; warm lanes that never
    /// activated report 0.
    pub active_us: f64,
    /// Requests ripped *out of this lane* back to the retry machinery:
    /// crash drains, graceful drains, and arrivals that bounced off
    /// this lane while it was dead-but-fresh. Fleet-wide,
    /// `Σ replicas.requeued + ClusterResult::refused_arrivals ==
    /// ClusterResult::requeued` (cross-checked in tests).
    pub requeued: u64,
    /// Requeued requests the retry machinery successfully re-dispatched
    /// *into this lane*. Fleet-wide, `Σ replicas.retries ==
    /// ClusterResult::retries`.
    pub retries: u64,
    /// The full per-GPU statistics, exactly as a single-GPU run would
    /// have produced them. In streaming mode the per-request
    /// `ls_completed` logs are empty (folded into the sketches and
    /// recycled); the scalar counters remain exact.
    pub stats: RunStats,
}

/// Aggregate fleet outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterResult {
    pub replicas: Vec<ReplicaSummary>,
    /// All completed latencies fleet-wide, merged from the per-replica
    /// sketches in index order (no re-sorting).
    pub fleet_hist: LatencyHistogram,
    pub requests: u64,
    pub slo_met: u64,
    /// SLO-meeting completions per second, fleet-wide.
    pub goodput_hz: f64,
    pub be_completed: u64,
    pub be_preemptions: u64,
    pub engine_events: u64,
    /// Every BE migration the controller performed, in order.
    pub migrations: Vec<Migration>,
    /// LS arrivals the router attempted to place within the horizon.
    /// Conservation under faults (proptested): every one of them is
    /// exactly one of completed (`requests`), timeout-dropped, shed, or
    /// in flight at the horizon.
    pub arrivals_injected: u64,
    /// Requests handed back to the router — ripped out of a crashed
    /// replica, or arriving/routed while no healthy replica existed.
    pub requeued: u64,
    /// Successful re-dispatches of requeued requests.
    pub retries: u64,
    /// Requests dropped after exhausting their retry budget or the
    /// retry timeout.
    pub timeout_drops: u64,
    /// Pending LS requests shed by the brownout ladder (only a tier map
    /// with non-Guaranteed tiers sheds).
    pub ls_shed: u64,
    /// BE-job park actions taken by the brownout ladder.
    pub be_shed: u64,
    /// Parked BE jobs the brownout ladder resumed (its level-0 branch);
    /// at most `be_shed`.
    pub be_resumed: u64,
    /// Requests still queued — on replicas or in the retry queue — when
    /// the horizon closed.
    pub in_flight_at_end: u64,
    /// Fault onsets applied (crashes and slowdown starts).
    pub faults_injected: u64,
    /// Recoveries and clock restores applied.
    pub faults_recovered: u64,
    /// Re-dispatch delay sketch: µs from crash drain (or first refusal)
    /// to successful re-injection, one sample per retry.
    pub redispatch_hist: LatencyHistogram,
    /// Per-request completion records still held in
    /// [`ReplicaSummary::stats`] at the end of the run — the memory the
    /// retained mode grows with the horizon. Streaming mode folds every
    /// window into the sketches and reports 0 here (the bench's bounded-
    /// memory gate).
    pub retained_completions: u64,
    /// Fleet-membership cost: Σ per-lane Active+Draining time, in
    /// replica·seconds. A static fleet pays `replicas × horizon`; the
    /// autoscaler's whole point is holding SLO attainment at fewer of
    /// these.
    pub replica_seconds: f64,
    /// Every membership transition the elastic controller performed,
    /// in order (empty without [`ClusterConfig::elastic`]).
    pub scale_events: Vec<ScaleEvent>,
    /// Scale-up / replacement demands satisfied from the warm pool.
    pub warm_hits: u64,
    /// Demands that found the warm pool empty.
    pub warm_misses: u64,
    /// Σ provisioning delay paid by satisfied demands (µs) — the
    /// cold-start latency attribution.
    pub provision_delay_total_us: f64,
    /// Graceful drains begun (scale-down + SLO-breach).
    pub drains_started: u64,
    /// Drained lanes that fully quiesced and retired within the horizon.
    pub drains_completed: u64,
    /// Pending LS requests handed back to the router by graceful drains
    /// (a subset of `requeued`).
    pub drain_requeued: u64,
    /// Confirmed-dead lanes replaced from the warm pool.
    pub replacements: u64,
    /// Requeues with no lane to attribute: arrivals that found no
    /// healthy routable lane at all. The per-lane remainder lives in
    /// [`ReplicaSummary::requeued`].
    pub refused_arrivals: u64,
    /// Arrivals the tiered admission controller refused outright
    /// (overload + queue-full) — a *terminal* outcome, unlike
    /// `refused_arrivals` requeues. With tiers on, the conservation
    /// identity extends to `arrivals == completed + timeout_drops +
    /// shed + refused_admission + in_flight`. Always 0 without a tier
    /// config.
    pub refused_admission: u64,
    /// Arrivals injected per LS service (index = task id).
    pub arrivals_by_task: Vec<u64>,
    /// Completions per LS service.
    pub completed_by_task: Vec<u64>,
    /// Completions per LS service that met the replica SLO *and* the
    /// service's soft deadline. Without a tier config the deadline is
    /// `INFINITY`, so this is the per-service slice of `slo_met`.
    pub slo_met_by_task: Vec<u64>,
    /// Σ tier-weight × deadline-aware on-SLO completions per second.
    /// Without a tier config every weight is 1.0 and this equals
    /// `goodput_hz`.
    pub weighted_goodput_hz: f64,
    /// Per-tier ledgers, ascending by tier id (empty without a tier
    /// config); each satisfies the per-tier conservation identity.
    pub tier_outcomes: Vec<TierOutcome>,
    /// The flight recorder's output (merged event stream, tick-sampled
    /// metric series, clock phase profile) — `None` unless
    /// [`ClusterConfig::telemetry`] was set. Every *other* field is
    /// bit-identical whether or not the recorder ran.
    pub telemetry: Option<TelemetryResult>,
}

impl ClusterResult {
    /// Fleet-wide percentile from the merged sketch (NaN when no request
    /// completed).
    pub fn fleet_percentile(&self, p: f64) -> f64 {
        self.fleet_hist.percentile(p)
    }

    /// Fraction of completions that met their SLO.
    pub fn slo_attainment(&self) -> f64 {
        self.slo_met as f64 / self.requests.max(1) as f64
    }

    /// Σ `weights[task] × slo_met_by_task[task]` under a caller-supplied
    /// weight vector — the bench uses this to score tier-*blind* arms
    /// with the tiered arm's weights for an apples-to-apples weighted
    /// goodput comparison.
    pub fn weighted_slo_met_with(&self, weights: &[f64]) -> f64 {
        assert_eq!(weights.len(), self.slo_met_by_task.len());
        self.slo_met_by_task
            .iter()
            .zip(weights)
            .map(|(&met, &w)| met as f64 * w)
            .sum()
    }
}

/// Adaptive `Ch_BE`: one resident job keeps the configured base; each
/// additional job widens the BE channel subset proportionally, capped at
/// half the channels.
fn ch_be_for(base: f64, resident: usize) -> f64 {
    if resident <= 1 {
        base
    } else {
        (base * resident as f64).min(0.5)
    }
}

/// A replica's policy. SGDRC variants stay concrete so the controller
/// can [`reconfigure`](Sgdrc::reconfigure) them in place; baselines are
/// boxed trait objects.
enum PolicySlot {
    Sgdrc(Sgdrc),
    Boxed(Box<dyn Policy>),
}

impl PolicySlot {
    fn as_dyn(&mut self) -> &mut dyn Policy {
        match self {
            PolicySlot::Sgdrc(p) => p,
            PolicySlot::Boxed(p) => p.as_mut(),
        }
    }

    fn as_dyn_ref(&self) -> &dyn Policy {
        match self {
            PolicySlot::Sgdrc(p) => p,
            PolicySlot::Boxed(p) => p.as_ref(),
        }
    }
}

/// One replica's cold per-run state: the resumable simulation, its
/// policy, and the per-lane bookkeeping (sketches, drain cursors,
/// counters). Boxed so the [`Fleet`]'s hot arrays stay dense.
struct LaneCell<'s> {
    sim: ReplicaSim<'s>,
    policy: PolicySlot,
    /// Per-LS-service cursor into `stats.ls_completed` (drained so far).
    seen_done: Vec<usize>,
    /// Latency/SLO ratios since the last controller tick.
    win_hist: LatencyHistogram,
    /// Every completed latency of this replica (µs).
    cum_hist: LatencyHistogram,
    slo_met: u64,
    /// Requests the router sent here.
    routed: u64,
    /// Completions per LS service (tier attribution; summed fleet-wide
    /// into [`ClusterResult::completed_by_task`]).
    done_by_task: Vec<u64>,
    /// Completions per LS service that met the replica SLO *and* the
    /// service's soft deadline (`INFINITY` without a tier config).
    met_by_task: Vec<u64>,
}

impl<'s> LaneCell<'s> {
    fn begin(&mut self) {
        self.sim.begin(self.policy.as_dyn());
    }

    /// Advances the lane to `until`, returning the pending-work instant
    /// left at exit (the refresh hint — exactly what `next_pending_at`
    /// would recompute). Dispatches on the policy variant so the SGDRC
    /// common case runs the monomorphized pump: `next_timer` and the
    /// per-event `dispatch` devirtualized and inlinable.
    fn advance_to(&mut self, until: Option<f64>) -> Option<f64> {
        match &mut self.policy {
            PolicySlot::Sgdrc(p) => self.sim.advance_hinted(p, until).1,
            PolicySlot::Boxed(p) => self.sim.advance_hinted(p.as_mut(), until).1,
        }
    }

    fn dispatch(&mut self) {
        self.sim.dispatch(self.policy.as_dyn());
    }

    /// Parks BE task slot `b` and, if its kernel is the one running,
    /// raises the §7.1 eviction flag; the task's closed-loop cursor is
    /// preserved.
    fn park_be(&mut self, b: usize) {
        let st = self.sim.state_mut();
        st.set_be_active(b, false);
        if st.be_launch.map(|l| l.task) == Some(b) {
            st.preempt_be();
        }
    }

    fn inject(&mut self, task: usize, at_us: f64) {
        self.sim.inject_arrival(self.policy.as_dyn(), task, at_us);
        self.routed += 1;
    }

    /// Delivers a re-dispatched request: engine advances to `at_us`, the
    /// request keeps its original `arrival_us` so latency/SLO accounting
    /// includes the outage and the backoff.
    fn inject_requeued(&mut self, task: usize, arrival_us: f64, at_us: f64) {
        self.sim
            .inject_requeued(self.policy.as_dyn(), task, arrival_us, at_us);
        self.routed += 1;
    }

    /// Records completions since the last drain into the windowed and
    /// cumulative sketches — and, with the flight recorder on, into the
    /// lane's event ring (`at_us` = the completion instant, so the
    /// merged stream interleaves completions across lanes in true
    /// order even though they are *observed* at ticks). In streaming
    /// mode the drained records are discarded immediately (capacity
    /// retained), so a controller tick bounds each replica's completion
    /// log at one window.
    fn drain(
        &mut self,
        slos: &[f64],
        soft: &[f64],
        streaming: bool,
        lane: u32,
        tel: &mut TelemetryRt,
    ) {
        let stats = &mut self.sim.state_mut().stats;
        for t in 0..slos.len() {
            let done = &mut stats.ls_completed[t];
            for req in &done[self.seen_done[t]..] {
                let lat = req.latency_us();
                self.cum_hist.record(lat);
                self.win_hist.record(lat / slos[t]);
                let ok = lat <= slos[t];
                self.done_by_task[t] += 1;
                if ok {
                    self.slo_met += 1;
                    if lat <= soft[t] {
                        self.met_by_task[t] += 1;
                    }
                }
                if tel.is_on() {
                    tel.record(
                        req.done_us,
                        lane,
                        EventKind::Completed {
                            task: t as u32,
                            latency_us: lat,
                            slo_ok: ok,
                        },
                    );
                }
            }
            if streaming {
                done.clear();
                self.seen_done[t] = 0;
            } else {
                self.seen_done[t] = done.len();
            }
        }
    }
}

/// The fleet in struct-of-arrays layout: the per-epoch hot scalars in
/// contiguous arrays (what the clock's busy-set selection, the router's
/// views and the controller's scans read), the cold per-lane state boxed
/// in [`LaneCell`]s.
///
/// Invariant: `next_at`, `backlog` and the views' backlogs are
/// *mirrors* of the lane state, re-derived by [`refresh`](Self::refresh)
/// after every lane mutation — route all mutations through
/// [`mutate`](Self::mutate). `next_at[r]` is `INFINITY` for idle, dead,
/// warm, provisioning and retired lanes, so [`RunState::quiesce`]'s scan
/// never finds them due. Staleness is caught by the debug-assert
/// busy-set oracle in [`RunState::quiesce`] and the view oracle in
/// [`Fleet::assert_views_current`].
struct Fleet<'s> {
    // Boxing keeps the hot mirror arrays below dense — an inline
    // `Vec<LaneCell>` would stride the controller/oracle scans across
    // multi-hundred-byte cells.
    #[allow(clippy::vec_box)]
    cells: Vec<Box<LaneCell<'s>>>,
    /// `next_pending_at` mirror (INFINITY = idle, dead or not advancing).
    next_at: Vec<f64>,
    /// `ls_backlog` mirror.
    backlog: Vec<u32>,
    /// Windowed p99/SLO ratio as of the last controller tick.
    ratio: Vec<f64>,
    /// Cleared by a crash fault, restored by its recovery. Dead lanes
    /// are never advanced, excluded from controller decisions, and
    /// bounce injected requests into the retry queue.
    alive: Vec<bool>,
    /// GPU model per lane (`PreparedCluster::lane_gpus`).
    gpus: &'s [GpuModel],
    /// Lanes the clock may owe work: Active or Draining members.
    /// Warm, provisioning and retired lanes are frozen — their
    /// `next_at` is `INFINITY` regardless of policy timers, so the
    /// clock never advances them. Always all-true without an elastic
    /// config.
    advancing: Vec<bool>,
    /// Lanes in the router's view set: Active members only. Draining
    /// lanes keep advancing (in-flight work finishes in place) but stop
    /// receiving traffic, BE placements and controller attention.
    /// Always all-true without an elastic config, making the
    /// view-compaction below the identity mapping.
    routable: Vec<bool>,
    /// View slot → lane id. `views[s]` describes lane `view_lane[s]`;
    /// the identity mapping while membership is static, so routers —
    /// which draw over `views.len()` — consume RNG exactly as a
    /// non-elastic build would.
    view_lane: Vec<u32>,
    /// Lane id → view slot (`u32::MAX` = not routable).
    lane_slot: Vec<u32>,
    /// Router-facing snapshot of the *routable* lanes, in ascending
    /// lane order (slot `s` is lane `view_lane[s]`), kept incremental:
    /// backlogs patched by every [`refresh`](Self::refresh),
    /// ratio/residency re-derived by
    /// [`rebuild_views`](Self::rebuild_views) at controller ticks and
    /// fault instants, health re-evaluated per decision point by
    /// [`patch_health`](Self::patch_health) — so routing a request is
    /// O(1) in fleet size.
    views: Vec<ReplicaView>,
    /// `views[r].healthy` population count — the O(1) form of the
    /// all-unhealthy check. Maintained by `rebuild_views` and
    /// `patch_health`.
    n_healthy: usize,
    /// `!alive` population count. While zero (the overwhelmingly common
    /// case), `patch_health` returns immediately: alive lanes are
    /// healthy by definition, so no per-decision health work exists.
    n_dead: usize,
}

impl<'s> Fleet<'s> {
    fn len(&self) -> usize {
        self.cells.len()
    }

    /// Re-derives lane `r`'s hot mirrors (and view backlog) from its
    /// cell — a pure read of simulation state.
    fn refresh(&mut self, r: usize) {
        let cell = &self.cells[r];
        let next = if self.alive[r] && self.advancing[r] {
            cell.sim
                .next_pending_at(cell.policy.as_dyn_ref())
                .unwrap_or(f64::INFINITY)
        } else {
            f64::INFINITY
        };
        self.set_mirrors(r, next);
    }

    /// [`refresh`](Self::refresh) for the epoch sweep, with the pending
    /// instant the lane's advance just computed on its way out
    /// ([`LaneCell::advance_to`]'s return) — the one call site hot
    /// enough that re-deriving `next_pending_at` (two virtual calls into
    /// a lane that just went cold) is worth skipping. The hint is
    /// asserted against the recompute under `debug_assertions`.
    fn refresh_hinted(&mut self, r: usize, hint: Option<f64>) {
        let next = hint.unwrap_or(f64::INFINITY);
        #[cfg(debug_assertions)]
        {
            let cell = &self.cells[r];
            debug_assert_eq!(
                next,
                cell.sim
                    .next_pending_at(cell.policy.as_dyn_ref())
                    .unwrap_or(f64::INFINITY),
                "advance hint diverged from next_pending_at for lane {r}"
            );
        }
        self.set_mirrors(r, next);
    }

    /// Stores lane `r`'s pending instant and re-reads its backlog into
    /// the mirrors and the router view.
    fn set_mirrors(&mut self, r: usize, next: f64) {
        let backlog = self.cells[r].sim.state().ls_backlog() as u32;
        self.next_at[r] = next;
        self.backlog[r] = backlog;
        // Keep the incremental router view current: backlog is the only
        // view field that changes outside controller ticks and fault
        // instants, and every backlog change comes through here.
        // Non-routable lanes have no view slot to patch.
        let s = self.lane_slot[r];
        if s != u32::MAX {
            self.views[s as usize].backlog = backlog as usize;
        }
    }

    /// What the router would see of lane `r` at instant `t`, read off
    /// the dense mirrors. A lane is healthy while alive (it acknowledges
    /// every decision instant) or until its crash-frozen heartbeat ages
    /// past the timeout.
    fn compute_view(&self, jobs_on: &[Vec<usize>], rt: &ChaosRt, r: usize, t: f64) -> ReplicaView {
        ReplicaView {
            gpu: self.gpus[r],
            backlog: self.backlog[r] as usize,
            window_p99_ratio: self.ratio[r],
            resident_be: jobs_on[r].len(),
            healthy: self.alive[r] || t - rt.last_heartbeat[r] <= rt.heartbeat_timeout_us,
        }
    }

    /// Full O(replicas) rebuild of the router views at instant `t`,
    /// recounting the healthy/dead populations. Runs only at structural
    /// changes — startup, controller ticks, fault and activation
    /// instants; decisions in between patch the views incrementally.
    fn rebuild_views(&mut self, jobs_on: &[Vec<usize>], rt: &ChaosRt, t: f64) {
        // Mirror oracle: the dense arrays must agree with the live
        // per-lane state a pre-SoA fleet would have read here.
        #[cfg(debug_assertions)]
        for (r, cell) in self.cells.iter().enumerate() {
            debug_assert_eq!(
                self.backlog[r] as usize,
                cell.sim.state().ls_backlog(),
                "stale backlog mirror for lane {r}"
            );
        }
        self.views.clear();
        self.n_healthy = 0;
        self.n_dead = 0;
        self.view_lane.clear();
        for r in 0..self.len() {
            if !self.routable[r] {
                self.lane_slot[r] = u32::MAX;
                continue;
            }
            let v = self.compute_view(jobs_on, rt, r, t);
            self.n_healthy += usize::from(v.healthy);
            self.n_dead += usize::from(!self.alive[r]);
            self.lane_slot[r] = self.views.len() as u32;
            self.view_lane.push(r as u32);
            self.views.push(v);
        }
    }

    /// Re-evaluates the health bit of every *dead* lane at decision
    /// instant `t` — alive lanes are healthy by definition, so with no
    /// lane down this is a single branch.
    fn patch_health(&mut self, rt: &ChaosRt, t: f64) {
        if self.n_dead == 0 {
            return;
        }
        for s in 0..self.views.len() {
            let r = self.view_lane[s] as usize;
            if self.alive[r] {
                continue;
            }
            let healthy = t - rt.last_heartbeat[r] <= rt.heartbeat_timeout_us;
            if healthy != self.views[s].healthy {
                self.views[s].healthy = healthy;
                if healthy {
                    self.n_healthy += 1;
                } else {
                    self.n_healthy -= 1;
                }
            }
        }
    }

    /// Incremental-views oracle: the patched snapshot must equal a fresh
    /// rebuild at `t`, field for field, and the healthy count must match
    /// its population. A no-op without `debug_assertions`.
    fn assert_views_current(&self, jobs_on: &[Vec<usize>], rt: &ChaosRt, t: f64) {
        if !cfg!(debug_assertions) {
            return;
        }
        let fresh: Vec<ReplicaView> = (0..self.len())
            .filter(|&r| self.routable[r])
            .map(|r| self.compute_view(jobs_on, rt, r, t))
            .collect();
        debug_assert_eq!(
            self.views, fresh,
            "incremental router views diverged from a fresh rebuild at t={t}"
        );
        debug_assert_eq!(
            self.n_healthy,
            fresh.iter().filter(|v| v.healthy).count(),
            "healthy count diverged at t={t}"
        );
        debug_assert!(
            self.view_lane.len() == self.views.len()
                && self
                    .view_lane
                    .iter()
                    .enumerate()
                    .all(|(s, &r)| self.lane_slot[r as usize] as usize == s),
            "view slot ↔ lane mapping diverged at t={t}"
        );
    }

    /// Runs a mutation against lane `r`'s cell and refreshes its
    /// mirrors — the only sanctioned way to touch a cell mutably
    /// outside the epoch sweep (which refreshes explicitly).
    fn mutate<R>(&mut self, r: usize, f: impl FnOnce(&mut LaneCell<'s>) -> R) -> R {
        let out = f(&mut self.cells[r]);
        self.refresh(r);
        out
    }
}

/// One orphaned request waiting for re-dispatch.
#[derive(Debug, Clone, Copy)]
struct Requeue {
    task: usize,
    /// Original arrival timestamp — survives every re-dispatch so
    /// latency/SLO accounting charges the outage to the request.
    arrival_us: f64,
    /// When the request was orphaned (crash drain or routing refusal).
    drained_at: f64,
    /// Dispatch attempts made so far (1 after the initial requeue).
    attempt: u32,
    ready_at: f64,
}

/// The fleet clock's chaos runtime: the expanded fault timeline, the
/// retry queue, heartbeat/health bookkeeping and resilience counters.
/// Every requeue and timeout drop goes through [`RunState::requeue`] and
/// [`ChaosRt::timeout_drop`], which keep the counters and the flight
/// recorder's events in step. Instantiated even without a plan (empty
/// timeline, infinite heartbeat timeout) so the clock has one code
/// path; everything here stays inert and zero-valued on happy-path
/// runs.
struct ChaosRt {
    timeline: Vec<ScheduledFault>,
    next_fault: usize,
    retry: RetryConfig,
    heartbeat_timeout_us: f64,
    retry_q: Vec<Requeue>,
    /// Last decision instant each replica was seen alive. Alive replicas
    /// acknowledge every decision instant, so instead of an O(replicas)
    /// stamp sweep per instant the clock keeps one scalar
    /// (`last_decision_us`) and *freezes* it into a replica's slot at
    /// the moment it crashes — the only time the per-replica value can
    /// diverge from the scalar. Recoveries overwrite with the recovery
    /// instant, exactly as the sweep would have at the next instant.
    last_heartbeat: Vec<f64>,
    /// The most recent scale/tick/retry/arrival instant — what every
    /// alive replica's heartbeat would read had it been stamped
    /// individually.
    last_decision_us: f64,
    /// Jobs parked by the brownout ladder (stay parked across
    /// migrations until the ladder returns to level 0).
    job_shed: Vec<bool>,
    /// Jobs with no eligible surviving host, re-placed at recoveries.
    homeless: Vec<usize>,
    requeued: u64,
    retries: u64,
    /// Per-lane attribution of `requeued`: requests ripped out of lane
    /// `r` (crash drains, graceful drains, dead-but-fresh bounces).
    /// `requeued == lane_requeued.sum() + refused`.
    lane_requeued: Vec<u64>,
    /// Per-lane attribution of `retries`: successful re-dispatches
    /// delivered *into* lane `r`. `retries == lane_retries.sum()`.
    lane_retries: Vec<u64>,
    /// Requeues with no lane to charge — arrivals refused because no
    /// routable lane looked healthy.
    refused: u64,
    timeout_drops: u64,
    ls_shed: u64,
    be_shed: u64,
    be_resumed: u64,
    /// Per-LS-service attribution of `timeout_drops` (tier ledgers).
    /// `timeout_drops == drops_by_task.sum()`.
    drops_by_task: Vec<u64>,
    /// Per-LS-service attribution of `ls_shed` (tier ledgers).
    /// `ls_shed == shed_by_task.sum()`.
    shed_by_task: Vec<u64>,
    faults_injected: u64,
    faults_recovered: u64,
    redispatch_hist: LatencyHistogram,
}

impl ChaosRt {
    fn new(plan: Option<&FaultPlan>, n: usize, n_jobs: usize, n_ls: usize) -> Self {
        let (timeline, retry, heartbeat_timeout_us) = match plan {
            Some(p) => (p.timeline(n), p.retry.clone(), p.heartbeat_timeout_us),
            None => (Vec::new(), RetryConfig::default(), f64::INFINITY),
        };
        Self {
            timeline,
            next_fault: 0,
            retry,
            heartbeat_timeout_us,
            retry_q: Vec::new(),
            last_heartbeat: vec![0.0; n],
            last_decision_us: 0.0,
            job_shed: vec![false; n_jobs],
            homeless: Vec::new(),
            requeued: 0,
            retries: 0,
            lane_requeued: vec![0; n],
            lane_retries: vec![0; n],
            refused: 0,
            timeout_drops: 0,
            ls_shed: 0,
            be_shed: 0,
            be_resumed: 0,
            drops_by_task: vec![0; n_ls],
            shed_by_task: vec![0; n_ls],
            faults_injected: 0,
            faults_recovered: 0,
            redispatch_hist: LatencyHistogram::new(),
        }
    }

    fn next_fault_at(&self) -> f64 {
        self.timeline
            .get(self.next_fault)
            .map_or(f64::INFINITY, |f| f.at_us)
    }

    fn next_retry_at(&self) -> f64 {
        self.retry_q
            .iter()
            .map(|e| e.ready_at)
            .fold(f64::INFINITY, f64::min)
    }

    /// Drops a request for good — its retry budget or hard deadline is
    /// spent — and records the drop on `track`.
    fn timeout_drop(&mut self, task: usize, t: f64, track: u32, tel: &mut TelemetryRt) {
        self.timeout_drops += 1;
        self.drops_by_task[task] += 1;
        if tel.is_on() {
            let task = task as u32;
            tel.record(t, track, EventKind::TimeoutDropped { task });
        }
    }
}

/// What the admission controller decided for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admission {
    /// Route immediately — the tier is not browned out (a Guaranteed
    /// tier, such as the tier-blind map's only one, always admits).
    Admit,
    /// Park in the tier's bounded FIFO queue; flushed at the first tick
    /// where the brownout ladder recedes below the tier's queue level.
    Queue,
    /// Terminal refusal, attributed to the reason in telemetry and the
    /// per-tier conservation ledger.
    Refuse(RefusalReason),
}

/// The fleet clock's tiered-SLO runtime: per-service tier attributes,
/// the brownout ladder, bounded admission queues and refusal ledgers,
/// built from [`PreparedCluster`]'s tier map — the attached one or
/// [`TiersConfig::tier_blind`] — so admission, retry and degradation
/// each run one code path.
struct TierRt {
    /// Per-service priority rank: 0 = highest tier, ascending = lower.
    /// Services of the same tier id share a rank.
    rank: Vec<u32>,
    /// Per-service goodput weight.
    weight: Vec<f64>,
    /// Per-service soft (SLO-credit) deadline in µs; +inf counts every
    /// on-SLO completion, matching plain goodput.
    soft: Vec<f64>,
    /// Per-service hard deadline in µs — past it a queued or retried
    /// request is doomed and dropped.
    hard: Vec<f64>,
    /// Per-service retry budget.
    max_retries: Vec<u32>,
    /// Per-service tier id (telemetry labels only — control decisions
    /// use `rank`).
    tier_id_of: Vec<u32>,
    /// Ascending distinct tier ids; index = rank.
    tier_ids: Vec<u32>,
    tier_class: Vec<AdmissionClass>,
    tier_weight: Vec<f64>,
    /// Brownout level at which rank r starts queueing / shedding.
    /// `u32::MAX` for Guaranteed tiers — they never queue or shed.
    queue_level: Vec<u32>,
    shed_level: Vec<u32>,
    /// Current ladder level: 0 = normal, 1 = BE parked fleet-wide,
    /// then alternating queue/shed per eligible tier.
    level: u32,
    max_level: u32,
    /// Consecutive calm ticks observed; de-escalates one level per
    /// `hold_ticks` of calm (hysteresis).
    calm_ticks: u32,
    /// Per-rank bounded admission queues of `(task, arrival_us)`.
    queues: Vec<VecDeque<(u32, f64)>>,
    queue_capacity: usize,
    enter_backlog: usize,
    exit_backlog: usize,
    hold_ticks: u32,
    shed_per_tick: usize,
    /// Per-service admission ledgers.
    admitted_by_task: Vec<u64>,
    queued_by_task: Vec<u64>,
    refused_overload_by_task: Vec<u64>,
    refused_queue_full_by_task: Vec<u64>,
}

impl TierRt {
    fn new(cfg: &TiersConfig, n_ls: usize) -> Self {
        let tier_ids = cfg.tier_ids();
        let n_tiers = tier_ids.len();
        let rank_of = |id: u32| tier_ids.iter().position(|&x| x == id).expect("known tier") as u32;
        let mut tier_class = vec![AdmissionClass::Guaranteed; n_tiers];
        let mut tier_weight = vec![1.0; n_tiers];
        for tc in &cfg.tiers {
            let r = rank_of(tc.tier) as usize;
            tier_class[r] = tc.class;
            tier_weight[r] = tc.weight;
        }
        // Brownout ladder order: most-sheddable class first (BestEffort
        // before Burstable), then lower-priority tiers (higher rank)
        // first within a class. Guaranteed tiers never appear on the
        // ladder.
        let mut eligible: Vec<usize> = (0..n_tiers)
            .filter(|&r| tier_class[r] != AdmissionClass::Guaranteed)
            .collect();
        eligible.sort_by_key(|&r| {
            (
                std::cmp::Reverse(tier_class[r].brown_severity()),
                std::cmp::Reverse(r),
            )
        });
        let mut queue_level = vec![u32::MAX; n_tiers];
        let mut shed_level = vec![u32::MAX; n_tiers];
        for (p, &r) in eligible.iter().enumerate() {
            let p = p as u32;
            queue_level[r] = 2 * p + 2;
            shed_level[r] = 2 * p + 3;
        }
        let max_level = 1 + 2 * eligible.len() as u32;
        Self {
            rank: cfg.tiers.iter().map(|tc| rank_of(tc.tier)).collect(),
            weight: cfg.tiers.iter().map(|tc| tc.weight).collect(),
            soft: cfg.tiers.iter().map(|tc| tc.soft_deadline_us).collect(),
            hard: cfg.tiers.iter().map(|tc| tc.hard_deadline_us).collect(),
            max_retries: cfg.tiers.iter().map(|tc| tc.max_retries).collect(),
            tier_id_of: cfg.tiers.iter().map(|tc| tc.tier).collect(),
            tier_ids,
            tier_class,
            tier_weight,
            queue_level,
            shed_level,
            level: 0,
            max_level,
            calm_ticks: 0,
            queues: vec![VecDeque::new(); n_tiers],
            queue_capacity: cfg.queue_capacity,
            enter_backlog: cfg.enter_backlog,
            exit_backlog: cfg.exit_backlog,
            hold_ticks: cfg.hold_ticks,
            shed_per_tick: cfg.shed_per_tick,
            admitted_by_task: vec![0; n_ls],
            queued_by_task: vec![0; n_ls],
            refused_overload_by_task: vec![0; n_ls],
            refused_queue_full_by_task: vec![0; n_ls],
        }
    }

    fn n_tiers(&self) -> usize {
        self.tier_ids.len()
    }

    /// Admission decision for one arrival — a pure function of the
    /// current ladder level and the tier queue's occupancy (the ladder
    /// only moves at ticks, which order before arrivals at equal
    /// timestamps).
    fn admit(&self, task: usize) -> Admission {
        let r = self.rank[task] as usize;
        if self.level >= self.shed_level[r] {
            return Admission::Refuse(RefusalReason::Overload);
        }
        if self.level >= self.queue_level[r] {
            if self.queues[r].len() >= self.queue_capacity {
                return Admission::Refuse(RefusalReason::QueueFull);
            }
            return Admission::Queue;
        }
        Admission::Admit
    }

    /// One brownout-ladder step, evaluated once per controller tick.
    /// Escalates one level per pressured tick; a calm tick increments
    /// the hysteresis counter and only after `hold_ticks` consecutive
    /// calm ticks does the ladder recede one level (re-admitting tiers
    /// in reverse shed order).
    fn step_ladder(&mut self, pressured: bool, calm: bool) {
        if pressured {
            self.calm_ticks = 0;
            if self.level < self.max_level {
                self.level += 1;
            }
        } else if calm && self.level > 0 {
            self.calm_ticks += 1;
            if self.calm_ticks >= self.hold_ticks {
                self.level -= 1;
                self.calm_ticks = 0;
            }
        } else {
            // Neither pressured nor fully calm: hold the level and
            // restart the hysteresis window.
            self.calm_ticks = 0;
        }
    }

    /// Total requests parked in admission queues (end-of-run in-flight
    /// accounting and per-tier backlog telemetry).
    fn queued_total(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }
}

/// One lane's membership lifecycle. Configured lanes start `Active`,
/// warm-pool lanes `Warm`; scale-up moves `Warm → Provisioning →
/// Active` behind the seeded provisioning delay, graceful scale-down
/// moves `Active → Draining → Retired`, and crash replacement retires a
/// confirmed-dead lane directly. `Retired` is terminal — a retired
/// lane never rejoins (the warm pool provides fresh capacity instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneState {
    Active,
    Warm,
    Provisioning,
    Draining,
    Retired,
}

/// The fleet clock's elastic runtime: per-lane lifecycle state, the
/// provisioning schedule (whose min is the clock's *scale* decision
/// point), cooldown/breach bookkeeping, and membership accounting.
/// Built from [`PreparedCluster`]'s elastic config — the attached one,
/// or the inert one (no warm lanes, `Hold`, breach draining and
/// replacement off) under which every lane stays `Active` and
/// `next_ready_us` infinite.
struct ElasticRt {
    policy: Box<dyn ScalingPolicy>,
    state: Vec<LaneState>,
    /// Activation instant of each lane's membership stint (0 for
    /// configured lanes).
    activated_at: Vec<f64>,
    /// Accumulated Active+Draining µs over *completed* stints; the open
    /// stint is folded in when the lane retires or the horizon closes.
    active_us: Vec<f64>,
    /// Provisioning lanes' ready instants (`INFINITY` otherwise).
    ready_at: Vec<f64>,
    /// `min(ready_at)` — the next scale decision point, kept as a
    /// scalar so the clock's epoch loop pays O(1) for it.
    next_ready_us: f64,
    /// First instant each member lane was seen dead (`INFINITY` while
    /// alive or already written off). Crash replacement fires once
    /// `t - dead_since >= replace_after_us`.
    dead_since: Vec<f64>,
    /// Consecutive controller ticks each Active lane spent above the
    /// breach-drain ratio.
    breach_ticks: Vec<u32>,
    /// Provisioning-delay draw index for the splitmix64 jitter chain.
    draws: u64,
    last_up_us: f64,
    last_down_us: f64,
    warm_hits: u64,
    warm_misses: u64,
    provision_delay_total_us: f64,
    drains_started: u64,
    drains_completed: u64,
    drain_requeued: u64,
    replacements: u64,
    events: Vec<ScaleEvent>,
    /// `arrivals_injected` at the last tick — windows the arrival rate
    /// signal.
    prev_arrivals: u64,
}

impl ElasticRt {
    fn new(elastic: &ElasticConfig, n: usize, n_init: usize) -> Self {
        let mut state = vec![LaneState::Active; n];
        for s in state.iter_mut().skip(n_init) {
            *s = LaneState::Warm;
        }
        Self {
            policy: elastic.policy.make(),
            state,
            activated_at: vec![0.0; n],
            active_us: vec![0.0; n],
            ready_at: vec![f64::INFINITY; n],
            next_ready_us: f64::INFINITY,
            dead_since: vec![f64::INFINITY; n],
            breach_ticks: vec![0; n],
            draws: 0,
            last_up_us: f64::NEG_INFINITY,
            last_down_us: f64::NEG_INFINITY,
            warm_hits: 0,
            warm_misses: 0,
            provision_delay_total_us: 0.0,
            drains_started: 0,
            drains_completed: 0,
            drain_requeued: 0,
            replacements: 0,
            events: Vec::new(),
            prev_arrivals: 0,
        }
    }

    fn count(&self, s: LaneState) -> usize {
        self.state.iter().filter(|&&x| x == s).count()
    }

    fn recompute_next_ready(&mut self) {
        self.next_ready_us = self.ready_at.iter().copied().fold(f64::INFINITY, f64::min);
    }

    /// Crash interop: a crash mid-provisioning aborts the scale-up (the
    /// lane falls back to the warm pool, usable again after recovery);
    /// a crashed member starts its replacement confirmation window.
    fn on_crash(&mut self, r: usize, at_us: f64) {
        match self.state[r] {
            LaneState::Provisioning => {
                self.state[r] = LaneState::Warm;
                self.ready_at[r] = f64::INFINITY;
                self.recompute_next_ready();
                self.events.push(ScaleEvent {
                    at_us,
                    replica: r,
                    kind: ScaleEventKind::CancelProvision,
                });
            }
            LaneState::Active | LaneState::Draining => {
                self.dead_since[r] = self.dead_since[r].min(at_us);
            }
            LaneState::Warm | LaneState::Retired => {}
        }
    }
}

/// Re-targets an SGDRC replica's policy at its *current* effective spec:
/// nominal clocks scaled by the engine's clock factor (thermal throttle,
/// stall, straggler), with `Ch_BE` optionally tracking the resident-BE
/// count. Dynamic SGDRC only — the static baseline keeps its fixed
/// split, boxed baselines have no knobs. Cell-level: callers route it
/// through `Fleet::mutate` so the lane's timer mirror refreshes.
fn retune_cell(cfg: &ClusterConfig, dep: &Deployment, resident: usize, cell: &mut LaneCell) {
    if cfg.system != SystemKind::Sgdrc {
        return;
    }
    let scale = cell.sim.state().engine.clock_scale();
    if let PolicySlot::Sgdrc(p) = &mut cell.policy {
        let mut spec = dep.spec.clone();
        if scale != 1.0 {
            spec.fp32_tflops *= scale;
            spec.mem_bandwidth_gbps *= scale;
        }
        let ch_be = if cfg.controller.adaptive_ch_be {
            ch_be_for(cfg.sgdrc.ch_be, resident)
        } else {
            cfg.sgdrc.ch_be
        };
        let pcfg = SgdrcConfig {
            ch_be,
            ..cfg.sgdrc.clone()
        };
        p.reconfigure(&spec, pcfg);
    }
}

/// The LS-shed victim: the most backlogged alive *routable* lane, the
/// lowest index on ties. A draining or retired lane may still carry the
/// backlog it is flushing out, but shedding there would double-punish
/// work that is already leaving.
fn shed_victim(alive: &[bool], routable: &[bool], backlog: &[u32]) -> Option<usize> {
    (0..backlog.len())
        .filter(|&r| alive[r] && routable[r])
        .max_by_key(|&r| (backlog[r], std::cmp::Reverse(r)))
}

/// The kinds of fleet-clock decision, declared in the order decisions
/// due at one instant run: the derived `Ord` *is* the clock's canonical
/// fault < scale < tick < retry < arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Decision {
    /// The next fault-timeline action.
    Fault,
    /// A provisioning lane finishing its warm-up delay.
    Scale,
    /// A controller tick.
    Tick,
    /// The earliest retry-queue entry coming due.
    Retry,
    /// The merged stream's next arrival.
    Arrival,
}

impl Decision {
    const ALL: [Decision; 5] = [
        Decision::Fault,
        Decision::Scale,
        Decision::Tick,
        Decision::Retry,
        Decision::Arrival,
    ];
}

/// The earliest decision due by the horizon, given each kind's next
/// instant (`INFINITY` for none); equal instants go to the kind that
/// orders first. A tick at exactly `horizon_us` does not fire — the
/// final drain closes that window — while the other kinds fire at or
/// before the horizon.
fn next_decision(next_at: impl Fn(Decision) -> f64, horizon_us: f64) -> Option<(f64, Decision)> {
    Decision::ALL
        .into_iter()
        .map(|d| (next_at(d), d))
        .filter(|&(t, d)| t < horizon_us || (t == horizon_us && d != Decision::Tick))
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
}

/// One fleet run: the [`Fleet`], BE placement and the migration log,
/// the chaos, tier, elastic and telemetry runtimes, the arrival stream,
/// the router and the per-epoch scratch. [`run_cluster_prepared`] takes
/// decisions off [`next_decision`] in canonical order, quiesces the
/// fleet to each one's instant and hands it to its handler below.
struct RunState<'a> {
    prep: &'a PreparedCluster,
    router: &'a mut dyn RoutingPolicy,
    fleet: Fleet<'a>,
    /// Resident BE jobs per lane (indices into `ClusterConfig::be_jobs`).
    jobs_on: Vec<Vec<usize>>,
    migrations: Vec<Migration>,
    chaos: ChaosRt,
    tiers: TierRt,
    elastic: ElasticRt,
    tel: TelemetryRt,
    arrivals: ArrivalStream,
    /// The next controller tick (`INFINITY` with the controller off).
    next_tick: f64,
    arrivals_injected: u64,
    arrivals_by_task: Vec<u64>,
    run_t0: Option<Instant>,
    busy: Vec<u32>,
    due: Vec<Requeue>,
    dests: Vec<usize>,
    drain_buf: Vec<(usize, f64)>,
}

impl<'a> RunState<'a> {
    /// Builds the fleet — hot mirrors and scratch recycled from `ctx`,
    /// one cell per lane with its opening launches dispatched — and
    /// every runtime of one run.
    fn new(
        prep: &'a PreparedCluster,
        router: &'a mut dyn RoutingPolicy,
        ctx: &mut ClusterCtx,
    ) -> Self {
        let cfg = &prep.cfg;
        let n = prep.lane_gpus.len();
        let n_init = prep.n_init;
        let n_ls = prep.n_ls;
        if ctx.sims.len() < n {
            ctx.sims.resize_with(n, SimContext::new);
        }
        if ctx.stores.len() < n {
            ctx.stores.resize_with(n, LaneStore::default);
        }
        let jobs_on = prep.init_jobs_on.clone();

        let mut fleet = Fleet {
            cells: Vec::with_capacity(n),
            next_at: std::mem::take(&mut ctx.next_at),
            backlog: std::mem::take(&mut ctx.backlog),
            ratio: std::mem::take(&mut ctx.ratio),
            alive: std::mem::take(&mut ctx.alive),
            gpus: &prep.lane_gpus,
            advancing: std::mem::take(&mut ctx.advancing),
            routable: std::mem::take(&mut ctx.routable),
            view_lane: std::mem::take(&mut ctx.view_lane),
            lane_slot: std::mem::take(&mut ctx.lane_slot),
            views: std::mem::take(&mut ctx.views),
            n_healthy: 0,
            n_dead: 0,
        };
        fleet.next_at.clear();
        fleet.next_at.resize(n, f64::INFINITY);
        fleet.backlog.clear();
        fleet.backlog.resize(n, 0);
        fleet.ratio.clear();
        fleet.ratio.resize(n, 0.0);
        fleet.alive.clear();
        fleet.alive.resize(n, true);
        // Configured lanes open as members; warm-pool lanes are frozen
        // until the elastic controller provisions them.
        fleet.advancing.clear();
        fleet.advancing.resize(n, false);
        fleet.routable.clear();
        fleet.routable.resize(n, false);
        for r in 0..n_init {
            fleet.advancing[r] = true;
            fleet.routable[r] = true;
        }
        // Placeholder views (the identity slot↔lane mapping over the
        // configured lanes) so `refresh` can patch backlogs during cell
        // construction; `rebuild_views` below re-derives every field.
        fleet.views.clear();
        fleet.view_lane.clear();
        fleet.lane_slot.clear();
        fleet.lane_slot.resize(n, u32::MAX);
        for r in 0..n_init {
            fleet.lane_slot[r] = r as u32;
            fleet.view_lane.push(r as u32);
            fleet.views.push(ReplicaView {
                gpu: prep.lane_gpus[r],
                backlog: 0,
                window_p99_ratio: 0.0,
                resident_be: 0,
                healthy: true,
            });
        }

        for (r, jobs) in jobs_on.iter().enumerate() {
            let policy = match cfg.system {
                SystemKind::Sgdrc => {
                    let mut pcfg = cfg.sgdrc.clone();
                    if cfg.controller.adaptive_ch_be {
                        pcfg.ch_be = ch_be_for(cfg.sgdrc.ch_be, jobs.len());
                    }
                    PolicySlot::Sgdrc(Sgdrc::new(&prep.deps[r].spec, pcfg))
                }
                SystemKind::SgdrcStatic => PolicySlot::Sgdrc(Sgdrc::new(
                    &prep.deps[r].spec,
                    SgdrcConfig {
                        static_partition: true,
                        ..Default::default()
                    },
                )),
                other => PolicySlot::Boxed(other.make(&prep.deps[r].spec)),
            };
            let mut sim = ReplicaSim::prepare(&prep.scenarios[r], &mut ctx.sims[r]);
            // Park every BE task not initially placed here *before* the
            // first dispatch, so the opening launches match the placement.
            for (b, &model) in prep.fleet_models.iter().enumerate() {
                let resident = jobs.iter().any(|&k| cfg.be_jobs[k] == model);
                sim.state_mut().set_be_active(b, resident);
            }
            let store = std::mem::take(&mut ctx.stores[r]);
            let mut cell = Box::new(LaneCell {
                sim,
                policy,
                seen_done: store.seen_done,
                win_hist: store.win_hist,
                cum_hist: LatencyHistogram::new(),
                slo_met: 0,
                routed: 0,
                done_by_task: vec![0; n_ls],
                met_by_task: vec![0; n_ls],
            });
            cell.seen_done.clear();
            cell.seen_done.resize(n_ls, 0);
            cell.win_hist.reset();
            cell.begin();
            fleet.cells.push(cell);
            fleet.refresh(r);
        }

        let chaos = ChaosRt::new(cfg.chaos.as_ref(), n, cfg.be_jobs.len(), n_ls);
        let tiers = TierRt::new(&prep.tiers, n_ls);
        fleet.rebuild_views(&jobs_on, &chaos, 0.0);
        let period = cfg.controller.period_us;
        // The flight recorder and clock profiler. Disabled (`off`) it is
        // one predictable branch per record call and allocates nothing;
        // enabled, every allocation happens here (rings at capacity,
        // series at the expected tick count) so the epoch path stays
        // allocation-free either way (`tests/cluster_alloc.rs`).
        let tel = match &cfg.telemetry {
            Some(tcfg) => {
                let expected_ticks = if period > 0.0 {
                    (cfg.horizon_us / period) as usize
                } else {
                    0
                };
                // Only an attached tier map is reported per tier
                // (ledgers, series); the tier-blind map's single tier
                // stays out of the results.
                let n_tiers = if cfg.tiers.is_some() {
                    tiers.n_tiers()
                } else {
                    0
                };
                TelemetryRt::new(tcfg, n, n_tiers, expected_ticks)
            }
            None => TelemetryRt::off(),
        };
        let run_t0 = tel.clk();
        RunState {
            prep,
            router,
            fleet,
            jobs_on,
            migrations: Vec::new(),
            chaos,
            tiers,
            elastic: ElasticRt::new(&prep.elastic, n, n_init),
            tel,
            arrivals: ArrivalStream::new(&cfg.trace, n_ls, cfg.horizon_us, cfg.seed),
            next_tick: if period > 0.0 { period } else { f64::INFINITY },
            arrivals_injected: 0,
            arrivals_by_task: vec![0; n_ls],
            run_t0,
            busy: std::mem::take(&mut ctx.busy),
            due: std::mem::take(&mut ctx.due),
            dests: std::mem::take(&mut ctx.dests),
            drain_buf: Vec::new(),
        }
    }

    /// The next instant of one decision kind (`INFINITY` for none).
    fn next_at(&self, d: Decision) -> f64 {
        match d {
            Decision::Fault => self.chaos.next_fault_at(),
            Decision::Scale => self.elastic.next_ready_us,
            Decision::Tick => self.next_tick,
            Decision::Retry => self.chaos.next_retry_at(),
            Decision::Arrival => self.arrivals.peek().map_or(f64::INFINITY, |a| a.at_us),
        }
    }

    /// Quiesces the fleet up to a decision instant (`until = Some(t)`)
    /// or out to the horizon (`None`).
    ///
    /// The busy set — lanes whose next pending work precedes the
    /// instant (`next_at < t`), or falls at or before the horizon for
    /// the final drain; for the rest `advance` is a proven no-op — comes
    /// from one ascending pass over the dense `next_at` mirror, checked
    /// against `next_pending_at` under `debug_assertions`. Dead and
    /// non-member lanes carry an infinite `next_at`, so they are never
    /// due: a crashed replica must not process policy timers or launch
    /// work while down, and a warm or retired lane is frozen outright.
    /// The busy lanes then advance inline, in ascending lane order.
    fn quiesce(&mut self, until: Option<f64>) {
        let horizon_us = self.prep.cfg.horizon_us;
        let (fleet, busy, tel) = (&mut self.fleet, &mut self.busy, &mut self.tel);
        tel.prof.epochs += 1;
        let t0 = tel.clk();
        busy.clear();
        for (r, &at) in fleet.next_at.iter().enumerate() {
            let due = match until {
                Some(t) => at < t,
                None => at <= horizon_us,
            };
            if due {
                busy.push(r as u32);
            }
        }
        tel.prof.collect_ns += TelemetryRt::lap(t0);
        // The busy-set oracle: the mirror scan's busy set must equal the
        // one `next_pending_at` gives over the live lanes, every epoch,
        // before anything advances.
        #[cfg(debug_assertions)]
        {
            let expect: Vec<u32> = fleet
                .cells
                .iter()
                .enumerate()
                .filter_map(|(r, cell)| {
                    if !fleet.alive[r] || !fleet.advancing[r] {
                        return None;
                    }
                    let at = cell.sim.next_pending_at(cell.policy.as_dyn_ref())?;
                    let due = match until {
                        Some(t) => at < t,
                        None => at <= horizon_us,
                    };
                    due.then_some(r as u32)
                })
                .collect();
            debug_assert_eq!(
                *busy, expect,
                "mirror busy set diverged from the next_pending_at oracle at {until:?}"
            );
        }
        let t0 = tel.clk();
        tel.prof.lanes_advanced += busy.len() as u64;
        // Advance and refresh in one pass per lane (the lane's state is
        // hot; a second sweep would re-touch every cell from cold).
        for &r in busy.iter() {
            let r = r as usize;
            let hint = fleet.cells[r].advance_to(until);
            fleet.refresh_hinted(r, hint);
        }
        tel.prof.advance_ns += TelemetryRt::lap(t0);
    }

    /// Hands an orphaned request to the retry queue — or drops it at
    /// once when its tier's retry budget is 0 (drop-on-crash). `from`
    /// attributes the requeue to the lane the request was ripped out of
    /// (`None` = an arrival refused fleet-wide); the recorder logs the
    /// `Requeued` event, and an immediate drop, on that lane's track
    /// (the fleet track for `None`).
    fn requeue(
        &mut self,
        task: usize,
        arrival_us: f64,
        t: f64,
        from: Option<usize>,
        cause: RequeueCause,
    ) {
        let rt = &mut self.chaos;
        rt.requeued += 1;
        let track = match from {
            Some(r) => {
                rt.lane_requeued[r] += 1;
                r as u32
            }
            None => {
                rt.refused += 1;
                FLEET_TRACK
            }
        };
        if self.tel.is_on() {
            let task = task as u32;
            self.tel
                .record(t, track, EventKind::Requeued { task, cause });
        }
        if self.tiers.max_retries[task] == 0 {
            rt.timeout_drop(task, t, track, &mut self.tel);
        } else {
            rt.retry_q.push(Requeue {
                task,
                arrival_us,
                drained_at: t,
                attempt: 1,
                ready_at: t + rt.retry.backoff_us,
            });
        }
    }

    /// Routes one request of `task` at tier rank `rank` through the
    /// router against the current views and returns the lane it picked
    /// — `None` when no routable lane looks healthy (every member down
    /// or drained away).
    fn route(&mut self, task: usize, rank: u32, t: f64) -> Option<usize> {
        self.fleet
            .assert_views_current(&self.jobs_on, &self.chaos, t);
        if self.fleet.n_healthy == 0 {
            return None;
        }
        let views = &self.fleet.views;
        let slot = self.router.route_with_tier(views, task, rank, t);
        assert!(
            slot < views.len(),
            "router picked slot {slot} of {}",
            views.len()
        );
        Some(self.fleet.view_lane[slot] as usize)
    }

    /// The surviving replica a BE job of `model` lands on: a routable
    /// member, alive, not already hosting the model, shortest backlog
    /// (ties → lowest index). Draining/warm/retired lanes never receive
    /// BE work. `None` strands the job as homeless until a recovery or
    /// an activation.
    fn landing_site(&self, model: usize, exclude: Option<usize>) -> Option<usize> {
        let (fleet, be_jobs) = (&self.fleet, &self.prep.cfg.be_jobs);
        (0..fleet.len())
            .filter(|&d| {
                Some(d) != exclude
                    && fleet.alive[d]
                    && fleet.routable[d]
                    && !self.jobs_on[d].iter().any(|&k| be_jobs[k] == model)
            })
            .min_by_key(|&d| (fleet.backlog[d], d))
    }

    /// Places BE job `job` on replica `dst`: records placement, resumes
    /// the task (unless the job is shed), retunes `Ch_BE` and lets the
    /// policy react.
    fn place_be_job(&mut self, job: usize, dst: usize) {
        self.jobs_on[dst].push(job);
        if self.chaos.job_shed[job] {
            return;
        }
        let prep = self.prep;
        let b = prep.job_slot[job];
        let resident = self.jobs_on[dst].len();
        self.fleet.mutate(dst, |cell| {
            cell.sim.state_mut().set_be_active(b, true);
            if prep.cfg.controller.adaptive_ch_be {
                retune_cell(&prep.cfg, &prep.deps[dst], resident, cell);
            }
            cell.dispatch();
        });
    }

    /// Re-places every homeless BE job on its landing site, in the
    /// order they were stranded; jobs with none stay homeless.
    fn rehome(&mut self) {
        for job in std::mem::take(&mut self.chaos.homeless) {
            match self.landing_site(self.prep.cfg.be_jobs[job], None) {
                Some(dst) => self.place_be_job(job, dst),
                None => self.chaos.homeless.push(job),
            }
        }
    }

    /// Empties lane `r` at `t` for a crash (`RequeueCause::Crash`: its
    /// queued and in-flight LS requests, launches cancelled) or a
    /// graceful drain (`RequeueCause::Drain`: its queued LS requests;
    /// in-flight ones finish in place). The drained requests go back
    /// through [`requeue`](Self::requeue) in the merged stream's
    /// canonical `(time, task)` order. The lane's BE jobs park — a
    /// running kernel gets the §7.1 eviction flag, not a cancel, and a
    /// crash drain has already cancelled it — and move to survivors
    /// through the migration path with their closed-loop cursors
    /// preserved, or wait as homeless. Returns the drained count.
    fn evacuate(&mut self, r: usize, t: f64, cause: RequeueCause) -> usize {
        let mut drained = std::mem::take(&mut self.drain_buf);
        drained.clear();
        let crash = cause == RequeueCause::Crash;
        self.fleet.mutate(r, |cell| {
            let st = cell.sim.state_mut();
            if crash {
                st.crash_drain(&mut drained);
            } else {
                st.drain_pending(&mut drained);
            }
        });
        drained.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        for &(task, arrival_us) in &drained {
            self.requeue(task, arrival_us, t, Some(r), cause);
        }
        let count = drained.len();
        self.drain_buf = drained;
        for job in std::mem::take(&mut self.jobs_on[r]) {
            let b = self.prep.job_slot[job];
            self.fleet.mutate(r, |cell| cell.park_be(b));
            let model = self.prep.cfg.be_jobs[job];
            match self.landing_site(model, Some(r)) {
                Some(dst) => {
                    self.place_be_job(job, dst);
                    self.migrations.push(Migration {
                        at_us: t,
                        job,
                        model,
                        from: r,
                        to: dst,
                    });
                }
                None => self.chaos.homeless.push(job),
            }
        }
        count
    }

    /// Counts a fault onset or recovery and records it on the lane's
    /// track.
    fn record_fault(&mut self, f: &ScheduledFault, onset: bool) {
        let kind = if onset {
            self.chaos.faults_injected += 1;
            EventKind::FaultOnset { kind: f.kind }
        } else {
            self.chaos.faults_recovered += 1;
            EventKind::FaultRecovered { kind: f.kind }
        };
        if self.tel.is_on() {
            self.tel.record(f.at_us, f.replica as u32, kind);
        }
    }

    /// The *fault* decision: applies the next fault-timeline action at
    /// its instant. Every scan and mutation runs in replica-index order
    /// — the action is a deterministic function of fleet state,
    /// independent of the clock schedule.
    fn apply_fault(&mut self) {
        let f = self.chaos.timeline[self.chaos.next_fault];
        self.chaos.next_fault += 1;
        let (r, t) = (f.replica, f.at_us);
        // A retired lane left the fleet for good (graceful drain or
        // crash-replacement write-off): later timeline entries against
        // it — typically the scheduled recovery of a crash the elastic
        // layer already replaced — are no-ops. So are overlapping crash
        // windows, permanent-crash bookkeeping and double recoveries.
        let retired = self.elastic.state[r] == LaneState::Retired;
        match f.op {
            _ if retired => {}
            FaultOp::Crash if self.fleet.alive[r] => {
                self.fleet.alive[r] = false;
                self.record_fault(&f, true);
                self.elastic.on_crash(r, t);
                // Freeze the heartbeat at the last instant this replica
                // was seen alive — what the per-replica stamp sweep would
                // have left behind. `max` keeps a recovery stamp that
                // postdates the last decision instant (crash shortly
                // after recover).
                let rt = &mut self.chaos;
                rt.last_heartbeat[r] = rt.last_heartbeat[r].max(rt.last_decision_us);
                self.evacuate(r, t, RequeueCause::Crash);
            }
            FaultOp::Recover if !self.fleet.alive[r] => {
                self.fleet.alive[r] = true;
                self.record_fault(&f, false);
                self.chaos.last_heartbeat[r] = t;
                self.elastic.dead_since[r] = f64::INFINITY;
                // The engine is empty (crash drain cancelled every
                // launch) and stale policy timers are structurally
                // dropped, so idling forward to the recovery instant is
                // safe.
                self.fleet
                    .mutate(r, |cell| cell.sim.state_mut().engine.advance_idle(t));
                // The revived replica is empty, so every homeless model
                // has a candidate again.
                self.rehome();
                self.fleet.mutate(r, |cell| cell.dispatch());
            }
            FaultOp::Crash | FaultOp::Recover => {}
            FaultOp::SetScale(_) | FaultOp::ClearScale => {
                let (onset, factor) = match f.op {
                    FaultOp::SetScale(factor) => (true, factor),
                    _ => (false, 1.0),
                };
                self.record_fault(&f, onset);
                let up = self.fleet.alive[r];
                let resident = self.jobs_on[r].len();
                let prep = self.prep;
                self.fleet.mutate(r, |cell| {
                    if up {
                        cell.sim.state_mut().engine.advance_idle(t);
                    }
                    cell.sim.state_mut().engine.set_clock_scale(factor);
                    retune_cell(&prep.cfg, &prep.deps[r], resident, cell);
                    if up {
                        cell.dispatch();
                    }
                });
            }
        }
        self.tel.sync_logs(&self.migrations, &self.elastic.events);
        // Faults restructure everything a view reads — aliveness,
        // residency, drained backlogs — so the incremental snapshot
        // re-bases here. O(replicas), but fault instants are rare.
        self.fleet.rebuild_views(&self.jobs_on, &self.chaos, t);
    }

    /// The *scale* decision: activates every provisioning lane whose
    /// ready instant has arrived. Mirrors the fault-recovery template:
    /// the lane's empty engine idles forward to `t`, the policy
    /// dispatches its opening launches, the heartbeat stamps fresh, and
    /// stranded BE jobs get a re-homing pass (a fresh empty member is
    /// the best landing site there is).
    fn activate_ready(&mut self, t: f64) {
        for r in 0..self.fleet.len() {
            let ert = &mut self.elastic;
            if ert.state[r] != LaneState::Provisioning || ert.ready_at[r] > t {
                continue;
            }
            ert.state[r] = LaneState::Active;
            ert.activated_at[r] = t;
            ert.ready_at[r] = f64::INFINITY;
            ert.events.push(ScaleEvent {
                at_us: t,
                replica: r,
                kind: ScaleEventKind::Activate,
            });
            self.fleet.advancing[r] = true;
            self.fleet.routable[r] = true;
            self.chaos.last_heartbeat[r] = t;
            self.fleet.mutate(r, |cell| {
                cell.sim.state_mut().engine.advance_idle(t);
                cell.dispatch();
            });
            self.rehome();
        }
        self.elastic.recompute_next_ready();
        self.tel.sync_logs(&self.migrations, &self.elastic.events);
        // Activation grows the routable set, so the compact views
        // re-base; O(replicas) but activation instants are rare.
        self.fleet.rebuild_views(&self.jobs_on, &self.chaos, t);
    }

    /// The *tick* decision: drains every lane's completion window into
    /// its windowed ratio, samples the recorder, then runs the
    /// controller's capacity, migration and brownout steps and flushes
    /// the admission queues the ladder released.
    fn tick(&mut self, t: f64) {
        let tick_t0 = self.tel.clk();
        let prep = self.prep;
        let mut window_done = 0u64;
        for r in 0..self.fleet.len() {
            let cell = &mut self.fleet.cells[r];
            let soft = &self.tiers.soft;
            cell.drain(
                &prep.slos[r],
                soft,
                prep.cfg.streaming,
                r as u32,
                &mut self.tel,
            );
            window_done += cell.win_hist.count();
            self.fleet.ratio[r] = if cell.win_hist.is_empty() {
                0.0
            } else {
                cell.win_hist.percentile(99.0)
            };
            cell.win_hist.reset();
        }
        if self.tel.is_on() {
            self.sample_tick(t);
        }
        // Capacity decisions run before rebalance/brownout so the
        // migration controller sees the post-scaling membership at this
        // same tick.
        self.elastic_step(t, window_done);
        self.controller_rebalance(t);
        // The brownout ladder runs every tick: overload needs no fault
        // plan (diurnal peaks and autoscaler lag qualify).
        self.brownout(t);
        self.tel.sync_logs(&self.migrations, &self.elastic.events);
        // Ticks move the two slow view fields (windowed ratio, BE
        // residency via rebalance/brownout), so the incremental snapshot
        // re-bases here — the tick already walked every lane to drain
        // completions, so this adds no complexity class.
        self.fleet.rebuild_views(&self.jobs_on, &self.chaos, t);
        // Re-admit queued tiers the receding ladder just released —
        // after the view rebuild so routing sees this tick's state.
        self.tier_flush(t);
        self.tel.prof.tick_ns += TelemetryRt::lap(tick_t0);
        self.next_tick += prep.cfg.controller.period_us;
    }

    /// Samples the metrics registry and records per-lane verdicts at
    /// tick `t`, read off the cells themselves, not the mirrors.
    fn sample_tick(&mut self, t: f64) {
        let sample_t0 = self.tel.clk();
        let (fleet, tel, trt) = (&self.fleet, &mut self.tel, &self.tiers);
        tel.begin_tick(t);
        for (r, jobs) in self.jobs_on.iter().enumerate() {
            let st = fleet.cells[r].sim.state();
            let backlog = st.ls_backlog() as u32;
            let inflight = st.ls_inflight() as u32;
            let resident_be = jobs.len() as u32;
            let ratio = fleet.ratio[r];
            tel.sample_lane(
                r,
                f64::from(backlog),
                ratio,
                f64::from(inflight),
                f64::from(resident_be),
            );
            tel.record(
                t,
                r as u32,
                EventKind::TickVerdict {
                    window_p99_ratio: ratio,
                    backlog,
                    inflight,
                    resident_be,
                },
            );
        }
        let mut warm = 0u32;
        let mut active = 0u32;
        let mut provisioning = 0u32;
        for s in &self.elastic.state {
            match s {
                LaneState::Warm => warm += 1,
                LaneState::Active => active += 1,
                LaneState::Provisioning => provisioning += 1,
                LaneState::Draining | LaneState::Retired => {}
            }
        }
        tel.sample_fleet(
            f64::from(warm),
            self.chaos.retry_q.len() as f64,
            f64::from(active),
            f64::from(provisioning),
        );
        // Per-tier series: queued + in-lane backlog, cumulative weighted
        // on-SLO completions, cumulative refusals. Read off the cells,
        // one pass per tier — skipped entirely without an attached tier
        // map so the telemetry overhead gate is untouched.
        if self.prep.cfg.tiers.is_some() {
            for rank in 0..trt.n_tiers() {
                let mut backlog = trt.queues[rank].len() as f64;
                let mut met_w = 0.0;
                let mut refused = 0.0;
                for task in 0..self.prep.n_ls {
                    if trt.rank[task] as usize != rank {
                        continue;
                    }
                    refused += (trt.refused_overload_by_task[task]
                        + trt.refused_queue_full_by_task[task])
                        as f64;
                    for cell in &fleet.cells {
                        backlog += cell.sim.state().ls_backlog_of(task) as f64;
                        met_w += cell.met_by_task[task] as f64 * trt.weight[task];
                    }
                }
                tel.sample_tier(rank, backlog, met_w, refused);
            }
        }
        tel.prof.telemetry_ns += TelemetryRt::lap(sample_t0);
    }

    /// Starts provisioning the lowest-index available warm lane (warm-pool
    /// hit), or records a miss when the pool is exhausted. The delay
    /// draw comes from the run-seeded splitmix64 chain — deterministic
    /// per draw index.
    fn start_provision(&mut self, t: f64, cause: ScaleCause) -> bool {
        let ert = &mut self.elastic;
        let alive = &self.fleet.alive;
        let w = (0..ert.state.len()).find(|&r| ert.state[r] == LaneState::Warm && alive[r]);
        let Some(w) = w else {
            ert.warm_misses += 1;
            return false;
        };
        ert.warm_hits += 1;
        let delay = provision_delay(&self.prep.elastic.warm_pool, self.prep.cfg.seed, ert.draws);
        ert.draws += 1;
        let ready = t + delay;
        ert.provision_delay_total_us += delay;
        ert.state[w] = LaneState::Provisioning;
        ert.ready_at[w] = ready;
        ert.next_ready_us = ert.next_ready_us.min(ready);
        ert.events.push(ScaleEvent {
            at_us: t,
            replica: w,
            kind: ScaleEventKind::Provision {
                cause,
                ready_at_us: ready,
            },
        });
        true
    }

    /// Removes lane `r` from the fleet for good: folds its open
    /// membership stint into the lifetime accounting and freezes the
    /// lane (the clock skips it from here on). The tick rebuilds the
    /// router views before the next routing decision.
    fn retire_lane(&mut self, r: usize, t: f64) {
        let ert = &mut self.elastic;
        ert.active_us[r] += t - ert.activated_at[r];
        ert.state[r] = LaneState::Retired;
        ert.events.push(ScaleEvent {
            at_us: t,
            replica: r,
            kind: ScaleEventKind::Retire,
        });
        self.fleet.advancing[r] = false;
        self.fleet.routable[r] = false;
        self.fleet.refresh(r);
    }

    /// Begins a graceful drain of member lane `v`: the lane leaves the
    /// routable set and [`evacuate`](Self::evacuate)s its queued LS
    /// requests and resident BE jobs. In-flight LS requests keep running
    /// here; the lane retires at the first controller tick that finds it
    /// fully quiesced.
    fn drain_lane_start(&mut self, t: f64, v: usize, cause: ScaleCause) {
        self.elastic.state[v] = LaneState::Draining;
        self.fleet.routable[v] = false;
        self.elastic.drains_started += 1;
        self.elastic.events.push(ScaleEvent {
            at_us: t,
            replica: v,
            kind: ScaleEventKind::DrainStart { cause },
        });
        let drained = self.evacuate(v, t, RequeueCause::Drain);
        self.elastic.drain_requeued += drained as u64;
    }

    /// One controller tick's capacity decision, run right after the
    /// window drain (fresh ratios) and before the migration rebalance.
    /// Four phases, each a deterministic index-order scan of fleet
    /// state: retire quiesced drains, replace confirmed-dead members,
    /// drain sustained SLO breachers, then apply the scaling policy's
    /// verdict under the min/max bounds and cooldowns.
    fn elastic_step(&mut self, t: f64, window_done: u64) {
        let n = self.fleet.len();
        let prep = self.prep;
        let e = &prep.elastic;

        // Phase 1 — retirement: a draining lane with nothing queued or in
        // flight leaves the fleet. Tick-granular by design: membership
        // changes only at decision points.
        for r in 0..n {
            if self.elastic.state[r] == LaneState::Draining
                && self.fleet.cells[r].sim.state().ls_backlog() == 0
            {
                self.elastic.drains_completed += 1;
                self.retire_lane(r, t);
            }
        }

        // Phase 2 — crash replacement: a member dead past the
        // confirmation window is written off and replaced from the warm
        // pool. Replacement is capacity-neutral, so bounds and cooldowns
        // do not apply. Until confirmation the dead lane stays routable
        // — routers observe its heartbeat staleness and route around it.
        if e.replace_after_us.is_finite() {
            for r in 0..n {
                if self.elastic.state[r] != LaneState::Active
                    || self.fleet.alive[r]
                    || t - self.elastic.dead_since[r] < e.replace_after_us
                {
                    continue;
                }
                self.elastic.dead_since[r] = f64::INFINITY;
                self.retire_lane(r, t);
                if self.start_provision(t, ScaleCause::CrashReplace) {
                    self.elastic.replacements += 1;
                }
            }
        }

        // Phase 3 — SLO-breach draining: a lane breaching for
        // `breach_drain_ticks` consecutive windows is drained (worst
        // ratio first, one per tick) and a warm replacement provisioned.
        if e.breach_drain_ticks > 0 {
            let (ert, fleet) = (&mut self.elastic, &self.fleet);
            for r in 0..n {
                if ert.state[r] == LaneState::Active
                    && fleet.alive[r]
                    && fleet.ratio[r] > e.breach_drain_ratio
                {
                    ert.breach_ticks[r] += 1;
                } else {
                    ert.breach_ticks[r] = 0;
                }
            }
            let victim = (0..n)
                .filter(|&r| ert.breach_ticks[r] >= e.breach_drain_ticks)
                .max_by(|&a, &b| fleet.ratio[a].total_cmp(&fleet.ratio[b]).then(b.cmp(&a)));
            if let Some(v) = victim {
                let active = ert.count(LaneState::Active);
                let has_warm = (0..n).any(|r| ert.state[r] == LaneState::Warm && fleet.alive[r]);
                if active > e.min_replicas || has_warm {
                    ert.breach_ticks[v] = 0;
                    self.drain_lane_start(t, v, ScaleCause::SloBreach);
                    self.start_provision(t, ScaleCause::SloBreach);
                }
            }
        }

        // Phase 4 — the scaling policy, clamped and rate-limited.
        let (ert, fleet) = (&mut self.elastic, &self.fleet);
        let active = ert.count(LaneState::Active);
        let provisioning = ert.count(LaneState::Provisioning);
        let mut healthy_active = 0usize;
        let mut warm_available = 0usize;
        let mut backlog_sum = 0u64;
        let mut worst = 0.0f64;
        for r in 0..n {
            match ert.state[r] {
                LaneState::Active if fleet.alive[r] => {
                    healthy_active += 1;
                    backlog_sum += u64::from(fleet.backlog[r]);
                    worst = worst.max(fleet.ratio[r]);
                }
                LaneState::Warm if fleet.alive[r] => warm_available += 1,
                _ => {}
            }
        }
        let signals = FleetSignals {
            at_us: t,
            active,
            healthy_active,
            provisioning,
            warm_available,
            window_p99_ratio: worst,
            window_completions: window_done,
            window_arrivals: self.arrivals_injected - ert.prev_arrivals,
            backlog_per_active: backlog_sum as f64 / active.max(1) as f64,
        };
        ert.prev_arrivals = self.arrivals_injected;
        let desired = ert
            .policy
            .desired_replicas(&signals)
            .clamp(e.min_replicas, e.max_replicas);
        let committed = active + provisioning;
        if desired > committed {
            if t - ert.last_up_us >= e.up_cooldown_us {
                let mut started = false;
                for _ in committed..desired {
                    if !self.start_provision(t, ScaleCause::Load) {
                        break;
                    }
                    started = true;
                }
                if started {
                    self.elastic.last_up_us = t;
                }
            }
        } else if desired < active && t - ert.last_down_us >= e.down_cooldown_us {
            // `desired >= min_replicas` after the clamp, so draining down
            // to it never undershoots the floor.
            let mut drained_any = false;
            for _ in desired..active {
                // Least-loaded lane first; ties scale down the newest.
                let (ert, fleet) = (&self.elastic, &self.fleet);
                let victim = (0..n)
                    .filter(|&r| ert.state[r] == LaneState::Active && fleet.alive[r])
                    .min_by_key(|&r| (fleet.backlog[r], std::cmp::Reverse(r)));
                let Some(v) = victim else { break };
                self.drain_lane_start(t, v, ScaleCause::Load);
                drained_any = true;
            }
            if drained_any {
                self.elastic.last_down_us = t;
            }
        }
    }

    /// One controller tick's migration decision: move one BE job from
    /// the worst SLO-breaching replica onto the most underloaded replica
    /// that can host it. Scans run in replica-index order.
    fn controller_rebalance(&mut self, t: f64) {
        let prep = self.prep;
        let ctl = &prep.cfg.controller;
        let be_jobs = &prep.cfg.be_jobs;
        let n = self.fleet.len();
        let (fleet, jobs_on) = (&self.fleet, &self.jobs_on);
        // Source: the worst breaching replica that has BE work to shed.
        // Dead replicas are invisible here — a crash evacuates their BE
        // jobs, and their stale windowed ratio must not attract work.
        let src = (0..n)
            .filter(|&r| {
                fleet.alive[r]
                    && fleet.routable[r]
                    && fleet.ratio[r] > ctl.breach_ratio
                    && !jobs_on[r].is_empty()
            })
            .max_by(|&a, &b| {
                fleet.ratio[a].total_cmp(&fleet.ratio[b]).then(b.cmp(&a)) // ties → lower index
            });
        let Some(src) = src else { return };
        // Destinations with headroom, best (ratio, backlog) first. The
        // comparator ends on the index, making it a total order — the
        // unstable sort is deterministic and allocation-free.
        let dests = &mut self.dests;
        dests.clear();
        dests.extend((0..n).filter(|&r| {
            r != src && fleet.alive[r] && fleet.routable[r] && fleet.ratio[r] < ctl.headroom_ratio
        }));
        dests.sort_unstable_by(|&a, &b| {
            fleet.ratio[a]
                .total_cmp(&fleet.ratio[b])
                .then(fleet.backlog[a].cmp(&fleet.backlog[b]))
                .then(a.cmp(&b))
        });
        // First destination lacking the model of one of the source's
        // jobs, with that job (brownout-parked jobs stay parked where
        // they are).
        let job_shed = &self.chaos.job_shed;
        let pick = dests.iter().find_map(|&dst| {
            let job = jobs_on[src].iter().copied().find(|&j| {
                let model = be_jobs[j];
                !job_shed[j] && !jobs_on[dst].iter().any(|&k| be_jobs[k] == model)
            })?;
            Some((dst, job))
        });
        let Some((dst, job)) = pick else { return };
        let b = prep.job_slot[job];
        // Park on the source (§7.1 eviction flag), resume on the
        // destination.
        self.fleet.mutate(src, |cell| cell.park_be(b));
        self.fleet
            .mutate(dst, |cell| cell.sim.state_mut().set_be_active(b, true));
        let pos = self.jobs_on[src]
            .iter()
            .position(|&k| k == job)
            .expect("present");
        self.jobs_on[src].remove(pos);
        self.jobs_on[dst].push(job);
        // Optionally retune Ch_BE on both ends (dynamic SGDRC only — the
        // static baseline keeps its fixed split). `retune_cell` folds in
        // any active clock throttle so a migration never resets a
        // thermally scaled target spec.
        if ctl.adaptive_ch_be {
            for r in [src, dst] {
                let resident = self.jobs_on[r].len();
                self.fleet.mutate(r, |cell| {
                    retune_cell(&prep.cfg, &prep.deps[r], resident, cell)
                });
            }
        }
        // Let both policies react immediately (launch the migrated job /
        // expand onto freed resources).
        self.fleet.mutate(src, |cell| cell.dispatch());
        self.fleet.mutate(dst, |cell| cell.dispatch());
        self.migrations.push(Migration {
            at_us: t,
            job,
            model: be_jobs[job],
            from: src,
            to: dst,
        });
    }

    /// Tier-ordered brownout, the fleet's one overload path, evaluated
    /// every controller tick. The ladder escalates one level per
    /// pressured tick (per-alive backlog above `enter_backlog`, or a
    /// windowed p99 breach on any routable survivor while backlog
    /// exceeds the `exit_backlog` calm floor): level 1 parks every BE
    /// job fleet-wide, then each eligible tier (BestEffort before
    /// Burstable, lower-priority tiers first) gains a *queue* level and
    /// a *shed* level in turn. Recovery runs the ladder in reverse:
    /// after `hold_ticks` consecutive calm ticks (backlog at or below
    /// `exit_backlog`, no SLO pressure) the level drops by one,
    /// re-admitting tiers in the opposite order they were browned.
    /// Guaranteed tiers never queue or shed, so the tier-blind map's
    /// ladder only parks and resumes BE.
    fn brownout(&mut self, t: f64) {
        let n = self.fleet.len();
        let fleet = &self.fleet;
        let member = |r: usize| fleet.routable[r] && fleet.alive[r];
        let alive = (0..n).filter(|&r| member(r)).count();
        if alive == 0 {
            return;
        }
        let backlog: usize = (0..n)
            .filter(|&r| member(r))
            .map(|r| fleet.backlog[r] as usize)
            .sum();
        let per_alive = backlog / alive;
        let slo_pressure = (0..n).any(|r| member(r) && fleet.ratio[r] > 1.0);
        // SLO pressure only escalates when backlog sits above the calm
        // floor: a windowed p99 breach with near-empty queues is a
        // capacity artifact shedding cannot fix, and gating it keeps the
        // tier-blind map without a fault plan (both thresholds
        // unreachable) a true no-op.
        let trt = &mut self.tiers;
        let pressured =
            per_alive > trt.enter_backlog || (slo_pressure && per_alive > trt.exit_backlog);
        let calm = per_alive <= trt.exit_backlog && !slo_pressure;
        trt.step_ladder(pressured, calm);

        // Level ≥ 1: park every resident BE job (the cheapest capacity to
        // reclaim); level 0: resume anything still parked.
        let park = trt.level >= 1;
        let rt = &mut self.chaos;
        for (r, jobs) in self.jobs_on.iter().enumerate() {
            if park && !(self.fleet.alive[r] && self.fleet.routable[r]) {
                continue;
            }
            let mut count = 0u32;
            for &j in jobs {
                if rt.job_shed[j] == park {
                    continue;
                }
                rt.job_shed[j] = park;
                let b = self.prep.job_slot[j];
                if park {
                    rt.be_shed += 1;
                    self.fleet.mutate(r, |cell| cell.park_be(b));
                } else {
                    rt.be_resumed += 1;
                    self.fleet
                        .mutate(r, |cell| cell.sim.state_mut().set_be_active(b, true));
                }
                count += 1;
            }
            if count > 0 {
                self.fleet.mutate(r, |cell| cell.dispatch());
                if self.tel.is_on() {
                    let kind = if park {
                        EventKind::BeParked { count }
                    } else {
                        EventKind::BeResumed { count }
                    };
                    self.tel.record(t, r as u32, kind);
                }
            }
        }

        // Expire queued admissions whose hard deadline has passed — they
        // can no longer complete on-SLO, so holding them is doomed work.
        let TierRt { queues, hard, .. } = &mut self.tiers;
        for q in queues.iter_mut() {
            q.retain(|&(task, arrival_us)| {
                if t - arrival_us > hard[task as usize] {
                    rt.timeout_drop(task as usize, t, FLEET_TRACK, &mut self.tel);
                    false
                } else {
                    true
                }
            });
        }

        // Active shed: tiers at or past their shed level lose already
        // admitted pending work on the victim lane, lowest tier first
        // within the budget.
        let trt = &self.tiers;
        let any_shedding = (0..trt.n_tiers()).any(|r| trt.level >= trt.shed_level[r]);
        if !any_shedding {
            return;
        }
        let fleet = &mut self.fleet;
        let Some(v) = shed_victim(&fleet.alive, &fleet.routable, &fleet.backlog) else {
            return;
        };
        let mut budget = trt.shed_per_tick;
        'ranks: for rank in (0..trt.n_tiers()).rev() {
            if trt.level < trt.shed_level[rank] {
                continue;
            }
            for task in (0..self.prep.n_ls).rev() {
                if trt.rank[task] as usize != rank {
                    continue;
                }
                if budget == 0 {
                    break 'ranks;
                }
                let dropped =
                    fleet.mutate(v, |cell| cell.sim.state_mut().shed_pending(task, budget));
                budget -= dropped;
                rt.ls_shed += dropped as u64;
                rt.shed_by_task[task] += dropped as u64;
                if dropped > 0 && self.tel.is_on() {
                    self.tel.record(
                        t,
                        v as u32,
                        EventKind::LsShed {
                            task: task as u32,
                            count: dropped as u32,
                        },
                    );
                }
            }
        }
    }

    /// Flushes tier admission queues whose queue level has receded —
    /// called right after the tick's view rebuild so routing sees fresh
    /// backlog. Entries dispatch FIFO (oldest arrival first) through the
    /// tier-aware router, keeping their original arrival timestamp so
    /// latency charges the queueing delay to the request. A
    /// dead-but-fresh target bounces into the retry queue under the
    /// tier's retry budget; with no healthy lane at all the queue holds
    /// until capacity returns.
    fn tier_flush(&mut self, t: f64) {
        if self.tiers.queued_total() == 0 {
            return;
        }
        self.fleet.patch_health(&self.chaos, t);
        for rank in 0..self.tiers.n_tiers() {
            if self.tiers.level >= self.tiers.queue_level[rank] {
                continue;
            }
            while let Some(&(task, arrival_us)) = self.tiers.queues[rank].front() {
                let task = task as usize;
                let Some(r) = self.route(task, rank as u32, t) else {
                    break;
                };
                self.tiers.queues[rank].pop_front();
                if self.fleet.alive[r] {
                    self.fleet
                        .mutate(r, |cell| cell.inject_requeued(task, arrival_us, t));
                    if self.tel.is_on() {
                        // Attempt 0 marks a queued-admission dispatch,
                        // not a crash retry.
                        let task = task as u32;
                        let kind = EventKind::RetryDispatched { task, attempt: 0 };
                        self.tel.record(t, r as u32, kind);
                    }
                } else {
                    // A dead-but-fresh target: bounce like an arrival
                    // routed at a dead lane.
                    self.requeue(task, arrival_us, t, Some(r), RequeueCause::DeadRoute);
                }
            }
        }
    }

    /// The *retry* decision: drains every retry-queue entry due at `t`.
    /// Timed-out requests drop, the rest are routed against a fresh
    /// health view — a successful delivery records its re-dispatch
    /// delay, a refusal (dead target, no healthy lane) backs off
    /// linearly and tries again, up to the retry budget.
    fn process_retries(&mut self, t: f64) {
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        // Order-preserving extraction — identical sequence to scanning
        // the queue front-to-back and removing due entries in place.
        self.chaos.retry_q.retain(|e| {
            if e.ready_at <= t {
                due.push(*e);
                false
            } else {
                true
            }
        });
        // Health is a function of `t` alone, so it is patched once for
        // the whole drain; injections inside the loop keep the backlog
        // views current through `refresh`.
        self.fleet.patch_health(&self.chaos, t);
        for mut e in due.drain(..) {
            // Deadline-aware drop: past the request's hard deadline (the
            // tier's; `RetryConfig::timeout_us` without a tier map)
            // re-dispatching is doomed work — drop it now.
            if t - e.arrival_us > self.tiers.hard[e.task] {
                self.chaos
                    .timeout_drop(e.task, t, FLEET_TRACK, &mut self.tel);
                continue;
            }
            // With every member drained away the entry backs off like a
            // whole-fleet outage until a lane activates.
            match self.route(e.task, self.tiers.rank[e.task], t) {
                Some(r) if self.fleet.alive[r] => {
                    self.fleet
                        .mutate(r, |cell| cell.inject_requeued(e.task, e.arrival_us, t));
                    let rt = &mut self.chaos;
                    rt.retries += 1;
                    rt.lane_retries[r] += 1;
                    if self.tel.is_on() {
                        let (task, attempt) = (e.task as u32, e.attempt);
                        let kind = EventKind::RetryDispatched { task, attempt };
                        self.tel.record(t, r as u32, kind);
                    }
                    rt.redispatch_hist.record(t - e.drained_at);
                }
                _ => {
                    e.attempt += 1;
                    if e.attempt > self.tiers.max_retries[e.task] {
                        self.chaos
                            .timeout_drop(e.task, t, FLEET_TRACK, &mut self.tel);
                    } else {
                        e.ready_at = t + self.chaos.retry.backoff_us * f64::from(e.attempt);
                        self.chaos.retry_q.push(e);
                    }
                }
            }
        }
        self.due = due;
    }

    /// The *arrival* decision: admits the merged stream's next request
    /// and routes it against the incremental views — an O(1) touch-up
    /// of dead lanes' health (a no-op while the fleet is whole) instead
    /// of an O(replicas) rebuild.
    fn route_arrival(&mut self) {
        let a = self.arrivals.pop().expect("the arrival decision peeked it");
        let task = a.task as usize;
        self.arrivals_injected += 1;
        self.arrivals_by_task[task] += 1;
        let route_t0 = self.tel.clk();
        self.fleet.patch_health(&self.chaos, a.at_us);
        // Admission control runs before routing: the decision is a pure
        // function of the brownout level (moved only at ticks) and the
        // tier queue's occupancy. The tier-blind map's Guaranteed tier
        // admits every arrival.
        let trt = &mut self.tiers;
        match trt.admit(task) {
            Admission::Admit => {
                trt.admitted_by_task[task] += 1;
                match self.route(task, self.tiers.rank[task], a.at_us) {
                    Some(r) if self.fleet.alive[r] => {
                        self.fleet.mutate(r, |cell| cell.inject(task, a.at_us));
                        if self.tel.is_on() {
                            let kind = EventKind::Routed { task: a.task };
                            self.tel.record(a.at_us, r as u32, kind);
                        }
                    }
                    // Routed at a dead replica still inside its heartbeat
                    // window — the crash has not aged out yet, so the
                    // request bounces into the retry path like a failed
                    // delivery.
                    Some(r) => {
                        let cause = RequeueCause::DeadRoute;
                        self.requeue(task, a.at_us, a.at_us, Some(r), cause);
                    }
                    // Whole fleet unhealthy (or every lane drained away):
                    // the request parks in the retry queue instead of
                    // being forced onto a dead replica.
                    None => {
                        let cause = RequeueCause::NoHealthy;
                        self.requeue(task, a.at_us, a.at_us, None, cause);
                    }
                }
            }
            Admission::Queue => {
                trt.queued_by_task[task] += 1;
                trt.queues[trt.rank[task] as usize].push_back((a.task, a.at_us));
            }
            Admission::Refuse(reason) => {
                match reason {
                    RefusalReason::Overload => trt.refused_overload_by_task[task] += 1,
                    RefusalReason::QueueFull => trt.refused_queue_full_by_task[task] += 1,
                }
                if self.tel.is_on() {
                    let tier = trt.tier_id_of[task];
                    let kind = EventKind::Refused {
                        task: a.task,
                        tier,
                        reason,
                    };
                    self.tel.record(a.at_us, FLEET_TRACK, kind);
                }
            }
        }
        self.tel.prof.route_ns += TelemetryRt::lap(route_t0);
    }

    /// Closes the run at the horizon — final completion drain, in-flight
    /// accounting, per-lane summaries and tier ledgers — and hands the
    /// reusable storage back to `ctx`.
    fn finish(self, ctx: &mut ClusterCtx) -> ClusterResult {
        let RunState {
            prep,
            mut fleet,
            migrations,
            chaos: rt,
            tiers: trt,
            elastic: mut ert,
            mut tel,
            arrivals_injected,
            arrivals_by_task,
            run_t0,
            busy,
            due,
            dests,
            ..
        } = self;
        let cfg = &prep.cfg;
        let (n, n_ls) = (fleet.len(), prep.n_ls);
        for r in 0..n {
            fleet.cells[r].drain(&prep.slos[r], &trt.soft, cfg.streaming, r as u32, &mut tel);
        }
        tel.sync_logs(&migrations, &ert.events);
        // Requests parked in tier admission queues are in flight:
        // arrived, neither completed nor dropped.
        let in_flight_at_end = fleet
            .cells
            .iter()
            .map(|c| c.sim.state().ls_backlog() as u64)
            .sum::<u64>()
            + rt.retry_q.len() as u64
            + trt.queued_total() as u64;
        // Per-service in-flight split for the tier conservation ledgers:
        // in-lane residue + retry-queue entries + admission-queue entries.
        let mut in_flight_by_task = vec![0u64; n_ls];
        for c in &fleet.cells {
            for (task, slot) in in_flight_by_task.iter_mut().enumerate() {
                *slot += c.sim.state().ls_backlog_of(task) as u64;
            }
        }
        for e in &rt.retry_q {
            in_flight_by_task[e.task] += 1;
        }
        for q in &trt.queues {
            for &(task, _) in q {
                in_flight_by_task[task as usize] += 1;
            }
        }

        // Close the billing stint for every lane still serving at the
        // horizon; retired lanes already billed up to their retire instant.
        for r in 0..n {
            if matches!(ert.state[r], LaneState::Active | LaneState::Draining) {
                ert.active_us[r] += cfg.horizon_us - ert.activated_at[r];
            }
        }
        let replica_seconds = ert.active_us.iter().sum::<f64>() / 1e6;
        tel.prof.total_ns = TelemetryRt::lap(run_t0);
        let telemetry = tel.finish();
        let mut result = ClusterResult {
            replicas: Vec::with_capacity(n),
            fleet_hist: LatencyHistogram::new(),
            requests: 0,
            slo_met: 0,
            goodput_hz: 0.0,
            be_completed: 0,
            be_preemptions: 0,
            engine_events: 0,
            migrations,
            arrivals_injected,
            requeued: rt.requeued,
            retries: rt.retries,
            timeout_drops: rt.timeout_drops,
            ls_shed: rt.ls_shed,
            be_shed: rt.be_shed,
            be_resumed: rt.be_resumed,
            in_flight_at_end,
            faults_injected: rt.faults_injected,
            faults_recovered: rt.faults_recovered,
            redispatch_hist: rt.redispatch_hist,
            retained_completions: 0,
            replica_seconds,
            scale_events: ert.events,
            warm_hits: ert.warm_hits,
            warm_misses: ert.warm_misses,
            provision_delay_total_us: ert.provision_delay_total_us,
            drains_started: ert.drains_started,
            drains_completed: ert.drains_completed,
            drain_requeued: ert.drain_requeued,
            replacements: ert.replacements,
            refused_arrivals: rt.refused,
            refused_admission: trt
                .refused_overload_by_task
                .iter()
                .chain(&trt.refused_queue_full_by_task)
                .sum(),
            arrivals_by_task,
            completed_by_task: vec![0; n_ls],
            slo_met_by_task: vec![0; n_ls],
            weighted_goodput_hz: 0.0,
            tier_outcomes: Vec::new(),
            telemetry,
        };
        for (r, cell) in fleet.cells.drain(..).enumerate() {
            let LaneCell {
                sim,
                policy: _,
                seen_done,
                mut win_hist,
                cum_hist,
                slo_met,
                routed,
                done_by_task,
                met_by_task,
            } = *cell;
            for t in 0..n_ls {
                result.completed_by_task[t] += done_by_task[t];
                result.slo_met_by_task[t] += met_by_task[t];
            }
            let mut stats = sim.finish(&mut ctx.sims[r]);
            result.retained_completions += stats
                .ls_completed
                .iter()
                .map(|v| v.len() as u64)
                .sum::<u64>();
            if cfg.streaming {
                // Hand the (already drained, already cleared) completion
                // buffers back to the context for the next run; the
                // summary keeps the exact scalar counters with empty logs.
                let donor = RunStats {
                    ls_completed: std::mem::take(&mut stats.ls_completed),
                    ..Default::default()
                };
                ctx.sims[r].recycle(donor);
                stats.ls_completed = vec![Vec::new(); n_ls];
            }
            win_hist.reset();
            ctx.stores[r] = LaneStore {
                seen_done,
                win_hist,
            };
            let hist = cum_hist;
            let requests = hist.count();
            result.fleet_hist.merge(&hist);
            result.requests += requests;
            result.slo_met += slo_met;
            result.be_completed += stats.be_completed.iter().sum::<u64>();
            result.be_preemptions += stats.be_preemptions;
            result.engine_events += stats.engine_events;
            result.replicas.push(ReplicaSummary {
                gpu: prep.lane_gpus[r],
                routed,
                requests,
                slo_met,
                hist,
                seed: cell_seed(cfg.seed, r as u64),
                stats,
                active_us: ert.active_us[r],
                requeued: rt.lane_requeued[r],
                retries: rt.lane_retries[r],
            });
        }
        result.goodput_hz = result.slo_met as f64 / (cfg.horizon_us / 1e6);
        // Weighted goodput: tier-weight × on-SLO (soft-deadline)
        // completions per second. Under the tier-blind map every weight is
        // 1 and every soft deadline infinite, so this equals `goodput_hz`
        // exactly.
        let horizon_s = cfg.horizon_us / 1e6;
        result.weighted_goodput_hz = result
            .slo_met_by_task
            .iter()
            .zip(&trt.weight)
            .map(|(&met, &w)| met as f64 * w)
            .sum::<f64>()
            / horizon_s;
        if cfg.tiers.is_some() {
            for rank in 0..trt.n_tiers() {
                let mut o = TierOutcome {
                    tier: trt.tier_ids[rank],
                    class: trt.tier_class[rank],
                    weight: trt.tier_weight[rank],
                    arrivals: 0,
                    admitted: 0,
                    queued: 0,
                    refused_overload: 0,
                    refused_queue_full: 0,
                    shed: 0,
                    timeout_drops: 0,
                    completed: 0,
                    slo_met: 0,
                    in_flight_at_end: 0,
                    weighted_goodput_hz: 0.0,
                };
                for (task, &in_flight) in in_flight_by_task.iter().enumerate() {
                    if trt.rank[task] as usize != rank {
                        continue;
                    }
                    o.arrivals += result.arrivals_by_task[task];
                    o.admitted += trt.admitted_by_task[task];
                    o.queued += trt.queued_by_task[task];
                    o.refused_overload += trt.refused_overload_by_task[task];
                    o.refused_queue_full += trt.refused_queue_full_by_task[task];
                    o.shed += rt.shed_by_task[task];
                    o.timeout_drops += rt.drops_by_task[task];
                    o.completed += result.completed_by_task[task];
                    o.slo_met += result.slo_met_by_task[task];
                    o.in_flight_at_end += in_flight;
                }
                o.weighted_goodput_hz = o.slo_met as f64 * o.weight / horizon_s;
                result.tier_outcomes.push(o);
            }
        }

        // Return the reusable storage to the context.
        ctx.next_at = fleet.next_at;
        ctx.backlog = fleet.backlog;
        ctx.ratio = fleet.ratio;
        ctx.alive = fleet.alive;
        ctx.views = fleet.views;
        ctx.advancing = fleet.advancing;
        ctx.routable = fleet.routable;
        ctx.view_lane = fleet.view_lane;
        ctx.lane_slot = fleet.lane_slot;
        ctx.busy = busy;
        ctx.due = due;
        ctx.dests = dests;
        result
    }
}

/// Recycled per-lane storage a [`ClusterCtx`] keeps between runs.
#[derive(Default)]
struct LaneStore {
    seen_done: Vec<usize>,
    win_hist: LatencyHistogram,
}

/// Reusable storage for fleet runs: per-replica [`SimContext`]s and
/// lane stores, the hot mirror arrays, the view slot mapping, and every
/// piece of per-epoch scratch (busy list, router views, retry
/// extraction, controller ordering). Passing the same context across
/// runs makes repeated fleet simulations — a bench sweeping systems ×
/// routers, a scaling curve — allocation-free in steady state (asserted
/// by `tests/cluster_alloc.rs`).
#[derive(Default)]
pub struct ClusterCtx {
    sims: Vec<SimContext>,
    stores: Vec<LaneStore>,
    next_at: Vec<f64>,
    backlog: Vec<u32>,
    ratio: Vec<f64>,
    alive: Vec<bool>,
    advancing: Vec<bool>,
    routable: Vec<bool>,
    view_lane: Vec<u32>,
    lane_slot: Vec<u32>,
    views: Vec<ReplicaView>,
    busy: Vec<u32>,
    due: Vec<Requeue>,
    dests: Vec<usize>,
}

impl ClusterCtx {
    pub fn new() -> Self {
        Self::default()
    }
}

/// [`run_cluster_in`] with a fresh context.
pub fn run_cluster(cfg: &ClusterConfig, router: &mut dyn RoutingPolicy) -> ClusterResult {
    run_cluster_in(cfg, router, &mut ClusterCtx::new())
}

/// Prepares `cfg` and runs it once. Benches re-running one config should
/// call [`ClusterConfig::prepare`] themselves and use
/// [`run_cluster_prepared`] so validation and deployment resolution
/// happen once, not per run.
pub fn run_cluster_in(
    cfg: &ClusterConfig,
    router: &mut dyn RoutingPolicy,
    ctx: &mut ClusterCtx,
) -> ClusterResult {
    let prep = cfg.prepare();
    run_cluster_prepared(&prep, router, ctx)
}

/// Runs one prepared fleet scenario to the horizon: each decision due
/// by the horizon, earliest first and in canonical order at equal
/// instants, quiesces the fleet to its instant and runs its handler;
/// then every surviving lane runs out to the horizon.
pub fn run_cluster_prepared(
    prep: &PreparedCluster,
    router: &mut dyn RoutingPolicy,
    ctx: &mut ClusterCtx,
) -> ClusterResult {
    let mut run = RunState::new(prep, router, ctx);
    let horizon_us = prep.cfg.horizon_us;
    while let Some((t, decision)) = next_decision(|d| run.next_at(d), horizon_us) {
        run.quiesce(Some(t));
        // Alive lanes acknowledge every decision instant but a fault's
        // (their heartbeat, see `ChaosRt::last_heartbeat`).
        if decision != Decision::Fault {
            run.chaos.last_decision_us = t;
        }
        match decision {
            Decision::Fault => run.apply_fault(),
            Decision::Scale => run.activate_ready(t),
            Decision::Tick => run.tick(t),
            Decision::Retry => run.process_retries(t),
            Decision::Arrival => run.route_arrival(),
        }
    }
    run.quiesce(None);
    run.finish(ctx)
}

#[cfg(test)]
mod tests {
    use super::{next_decision, shed_victim, Decision};

    #[test]
    fn next_decision_runs_one_instant_in_canonical_order() {
        use Decision::*;
        let canonical = [Fault, Scale, Tick, Retry, Arrival];
        let horizon = 100.0;
        // Kinds `at` schedules at their instants; every other kind never.
        let sched = |at: &[(Decision, f64)]| {
            let at = at.to_vec();
            move |d: Decision| {
                at.iter()
                    .find(|&&(k, _)| k == d)
                    .map_or(f64::INFINITY, |&(_, t)| t)
            }
        };
        for (i, &first) in canonical.iter().enumerate() {
            for &later in &canonical[i + 1..] {
                // At one instant the kind earlier in the order wins —
                // arrival vs tick included.
                let tie = sched(&[(later, 40.0), (first, 40.0)]);
                assert_eq!(next_decision(tie, horizon), Some((40.0, first)));
                // An earlier instant wins whatever its kind.
                let early = sched(&[(later, 39.0), (first, 40.0)]);
                assert_eq!(next_decision(early, horizon), Some((39.0, later)));
            }
        }
        for d in canonical {
            // At the horizon every kind but the tick fires, and a tick
            // there yields to the others; past it nothing fires.
            let expect = (d != Tick).then_some((horizon, d));
            assert_eq!(next_decision(sched(&[(d, horizon)]), horizon), expect);
            let with_tick = sched(&[(Tick, horizon), (d, horizon)]);
            assert_eq!(next_decision(with_tick, horizon), expect);
            assert_eq!(next_decision(sched(&[(d, horizon + 1.0)]), horizon), None);
        }
        assert_eq!(next_decision(sched(&[]), horizon), None);
    }

    #[test]
    fn shed_victim_is_the_most_backlogged_routable_lane() {
        // Lane 1 (draining: alive, not routable) and lane 3 (dead) hold
        // the largest backlogs; neither may be the victim.
        let alive = [true, true, true, false];
        let routable = [true, false, true, true];
        assert_eq!(shed_victim(&alive, &routable, &[5, 50, 7, 90]), Some(2));
        // Ties go to the lowest index.
        assert_eq!(shed_victim(&alive, &routable, &[7, 50, 7, 90]), Some(0));
        // No alive routable lane, no victim.
        assert_eq!(shed_victim(&[true, false], &[false, true], &[1, 2]), None);
    }
}
