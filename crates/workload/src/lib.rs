//! # workload — traces, metrics and the end-to-end experiment runner
//!
//! The §9 evaluation harness: Apollo-like bursty/diurnal request traces
//! ([`trace`]), SLO/latency/throughput metrics plus the mergeable
//! latency-histogram sketch ([`metrics`]), the Fig. 17 runner that
//! deploys the Tab. 3 zoo against every system ([`runner`]), the
//! multi-GPU fleet simulator with SLO-aware routing and dynamic BE
//! placement ([`cluster`]) and its SplitMix64 seed derivation
//! ([`seed`]), deterministic fault injection with
//! requeue-on-crash resilience ([`chaos`]), warm-pool autoscaling
//! with graceful scale-down and crash replacement ([`elastic`]), and
//! the deterministic flight recorder / metrics registry / clock
//! profiler for postmortem observability ([`telemetry`]), and tiered
//! SLO classes with admission control, brownout degradation and
//! deadline-aware retry budgets ([`tiers`]).

pub mod chaos;
pub mod cluster;
pub mod elastic;
pub mod metrics;
pub mod runner;
pub mod seed;
pub mod telemetry;
pub mod tiers;
pub mod trace;

pub use chaos::{DegradationConfig, FaultEvent, FaultKind, FaultPlan, RetryConfig};
pub use cluster::{
    run_cluster, run_cluster_in, run_cluster_prepared, ClusterConfig, ClusterCtx, ClusterResult,
    ControllerConfig, JoinShortestBacklog, PreparedCluster, ReplicaView, RoundRobin, RouterKind,
    RoutingPolicy, SloAwarePowerOfTwo,
};
pub use elastic::{
    ElasticConfig, FleetSignals, ScaleCause, ScaleEvent, ScaleEventKind, ScalingPolicyKind,
    ThresholdPolicy, WarmPoolConfig,
};
pub use metrics::{ls_metrics, percentile, slo_for, LatencyHistogram, LsMetrics, SystemResult};
pub use runner::{run_cell, run_system, Deployment, EndToEndConfig, Load, SystemKind};
pub use seed::cell_seed;
pub use telemetry::{
    ClockProfile, EventKind, FlightEvent, MetricSeries, RefusalReason, RequeueCause,
    TelemetryConfig, TelemetryResult, FLEET_TRACK,
};
pub use tiers::{AdmissionClass, TierConfig, TierOutcome, TiersConfig};
pub use trace::{generate, per_service_traces, ArrivalGen, ArrivalStream, TraceConfig};
