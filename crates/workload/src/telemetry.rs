//! # telemetry — the fleet flight recorder
//!
//! A deterministic, low-overhead observability layer threaded through
//! the fleet clock ([`crate::cluster`]): per-lane fixed-capacity ring
//! buffers of structured [`FlightEvent`]s, a metrics time-series
//! registry sampled at controller ticks, and wall-clock phase profiling
//! of the clock itself.
//!
//! Design contract (enforced by `workload/tests/cluster_contracts.rs`,
//! `workload/tests/cluster_telemetry.rs` and
//! `workload/tests/cluster_alloc.rs`):
//!
//! * **Feature-off-free.** `ClusterConfig.telemetry = None` records
//!   nothing, allocates nothing on the epoch path, and produces
//!   bit-identical [`crate::ClusterResult`]s (modulo the `telemetry`
//!   field itself, which is `None`).
//! * **Deterministic.** Every event is recorded at a decision point of
//!   the fleet clock, executed in one canonical order (fault < scale <
//!   tick < retry < arrival) — so the merged event streams and sampled
//!   series are bit-identical across runs. Wall-clock
//!   [`ClockProfile`] numbers are *measurements*, not simulation state:
//!   they are excluded from equality.
//! * **Allocation at creation only.** Rings are allocated once per run
//!   at their configured capacity and overwrite their oldest event when
//!   full (`dropped_events` counts the overwrites); series reserve
//!   their tick capacity up front. Steady-state recording never
//!   allocates (counting-allocator tested).

use crate::chaos::FaultKind;
use crate::elastic::{ScaleEvent, ScaleEventKind};
use std::time::Instant;

/// Lane index used for fleet-scoped events (arrival refusals, timeout
/// drops of requests whose origin lane is unknown): the merged stream
/// and the Perfetto exporter give these their own track.
pub const FLEET_TRACK: u32 = u32::MAX;

/// Knobs for the flight recorder. `ClusterConfig.telemetry = None`
/// disables recording entirely (the zero-overhead default). An attached
/// recorder also times the clock phases ([`ClockProfile`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// Events retained per lane (plus one fleet track). When a ring is
    /// full the oldest event is overwritten — a flight recorder keeps
    /// the *most recent* window, and `dropped_events` reports how much
    /// history was lost.
    pub ring_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            ring_capacity: 4096,
        }
    }
}

/// Why a request was handed back to the retry machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequeueCause {
    /// Drained out of a crashed lane.
    Crash,
    /// Drained out of a gracefully draining lane (scale-down).
    Drain,
    /// Routed at a lane that looked healthy but was already dead
    /// (stale heartbeat) — the request bounced.
    DeadRoute,
    /// No routable lane looked healthy at arrival time.
    NoHealthy,
}

impl RequeueCause {
    pub fn name(&self) -> &'static str {
        match self {
            RequeueCause::Crash => "crash",
            RequeueCause::Drain => "drain",
            RequeueCause::DeadRoute => "dead_route",
            RequeueCause::NoHealthy => "no_healthy",
        }
    }
}

/// Why the tiered admission controller refused an arrival outright
/// (recorded on the [`FLEET_TRACK`] as [`EventKind::Refused`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefusalReason {
    /// The request's tier sat at its brownout *shed* level: the fleet
    /// was measured overloaded and this tier is no longer admitted.
    Overload,
    /// The tier sat at its *queue* level but its bounded admission
    /// queue was already full.
    QueueFull,
}

impl RefusalReason {
    pub fn name(&self) -> &'static str {
        match self {
            RefusalReason::Overload => "overload",
            RefusalReason::QueueFull => "queue_full",
        }
    }
}

/// One structured flight-recorder event. Fixed-size and `Copy` so ring
/// writes are a store, never an allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// The router picked this lane for a fresh arrival.
    Routed { task: u32 },
    /// A request finished on this lane (observed at the next controller
    /// tick; `at_us` is the completion instant, not the tick).
    Completed {
        task: u32,
        latency_us: f64,
        slo_ok: bool,
    },
    /// A request left this lane for the retry queue.
    Requeued { task: u32, cause: RequeueCause },
    /// The retry machinery re-dispatched a request into this lane.
    RetryDispatched { task: u32, attempt: u32 },
    /// A requeued request exhausted its budget and was dropped.
    TimeoutDropped { task: u32 },
    /// The tiered admission controller refused an arrival outright
    /// (fleet-scoped: always on the [`FLEET_TRACK`]).
    Refused {
        task: u32,
        tier: u32,
        reason: RefusalReason,
    },
    /// Graceful degradation shed pending LS work from this lane.
    LsShed { task: u32, count: u32 },
    /// Graceful degradation parked this lane's resident BE jobs.
    BeParked { count: u32 },
    /// The brownout ladder, back at level 0, resumed this lane's parked
    /// BE jobs.
    BeResumed { count: u32 },
    /// A fault began on this lane (crash or slowdown onset).
    FaultOnset { kind: FaultKind },
    /// A fault ended on this lane (revival or slowdown recovery).
    FaultRecovered { kind: FaultKind },
    /// A BE job migrated off this lane.
    MigrationOut { job: u32, to: u32 },
    /// A BE job migrated onto this lane.
    MigrationIn { job: u32, from: u32 },
    /// An elastic membership event (provision / activate / drain /
    /// cancel / retire) — mirrors [`crate::elastic::ScaleEvent`].
    Scale(ScaleEventKind),
    /// The controller's per-lane view at a tick: the windowed p99/SLO
    /// ratio and queue depths it based this tick's verdicts on.
    TickVerdict {
        window_p99_ratio: f64,
        backlog: u32,
        inflight: u32,
        resident_be: u32,
    },
}

impl EventKind {
    /// Stable short name (Perfetto event name, postmortem listings).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Routed { .. } => "routed",
            EventKind::Completed { .. } => "completed",
            EventKind::Requeued { .. } => "requeued",
            EventKind::RetryDispatched { .. } => "retry_dispatched",
            EventKind::TimeoutDropped { .. } => "timeout_dropped",
            EventKind::Refused { .. } => "refused",
            EventKind::LsShed { .. } => "ls_shed",
            EventKind::BeParked { .. } => "be_parked",
            EventKind::BeResumed { .. } => "be_resumed",
            EventKind::FaultOnset { .. } => "fault_onset",
            EventKind::FaultRecovered { .. } => "fault_recovered",
            EventKind::MigrationOut { .. } => "migration_out",
            EventKind::MigrationIn { .. } => "migration_in",
            EventKind::Scale(k) => match k {
                ScaleEventKind::Provision { .. } => "provision",
                ScaleEventKind::Activate => "activate",
                ScaleEventKind::DrainStart => "drain_start",
                ScaleEventKind::CancelProvision => "cancel_provision",
                ScaleEventKind::Retire => "retire",
            },
            EventKind::TickVerdict { .. } => "tick_verdict",
        }
    }
}

/// A recorded event: simulation time, decision-point sequence number
/// (globally unique, monotone in the canonical decision order of the
/// clock — ties in `at_us` are broken by `seq`), lane ([`FLEET_TRACK`]
/// for fleet-scoped events), and payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightEvent {
    pub at_us: f64,
    pub seq: u64,
    pub lane: u32,
    pub kind: EventKind,
}

/// A fixed-capacity ring of [`FlightEvent`]s. Allocates exactly once
/// (at creation); a push into a full ring overwrites the oldest event.
#[derive(Debug, Clone)]
pub struct EventRing {
    buf: Vec<FlightEvent>,
    cap: usize,
    /// Index of the oldest event once the ring has wrapped.
    start: usize,
    dropped: u64,
}

impl EventRing {
    pub fn with_capacity(cap: usize) -> EventRing {
        assert!(cap > 0, "telemetry ring capacity must be positive");
        EventRing {
            buf: Vec::with_capacity(cap),
            cap,
            start: 0,
            dropped: 0,
        }
    }

    pub fn push(&mut self, ev: FlightEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.start] = ev;
            self.start = (self.start + 1) % self.cap;
            self.dropped += 1;
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained events, oldest first.
    pub fn iter_in_order(&self) -> impl Iterator<Item = &FlightEvent> {
        let (tail, head) = self.buf.split_at(self.start);
        head.iter().chain(tail.iter())
    }
}

/// One named time series sampled at controller ticks. `values` is
/// parallel to [`TelemetryResult::tick_us`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSeries {
    pub name: &'static str,
    /// `Some(lane)` for per-lane gauges, `None` for fleet-wide ones.
    pub lane: Option<u32>,
    pub values: Vec<f64>,
}

/// Wall-clock phase timings of the fleet clock, self-measured with
/// `std::time::Instant` whenever the recorder is attached.
///
/// These are *measurements of the host machine*, not simulation state:
/// two bit-identical runs will report different nanosecond counts. The
/// manual `PartialEq` therefore treats every profile as equal, so
/// whole-`ClusterResult` equality (the recorder-on/off contract) keeps
/// comparing only deterministic state.
#[derive(Debug, Clone, Default)]
pub struct ClockProfile {
    /// Decision-point epochs executed (quiesce calls).
    pub epochs: u64,
    /// Total lane-advance invocations across all epochs.
    pub lanes_advanced: u64,
    /// Time selecting due lanes (the scan over the `next_at` mirror).
    pub collect_ns: u64,
    /// Time advancing due lanes plus mirror refreshes.
    pub advance_ns: u64,
    /// Time routing arrivals (router decision + injection).
    pub route_ns: u64,
    /// Time in controller ticks (window drains, elastic step,
    /// rebalancing, degradation).
    pub tick_ns: u64,
    /// Time merging the per-lane event rings into the canonical stream
    /// at run end.
    pub merge_ns: u64,
    /// Time spent in the recorder's tick sampling — the telemetry
    /// layer's self-measured overhead on the decision path.
    pub telemetry_ns: u64,
    /// Wall time from clock start through the end-of-run drain.
    pub total_ns: u64,
}

impl PartialEq for ClockProfile {
    /// Always equal: wall-clock timings are observational, not state.
    fn eq(&self, _: &ClockProfile) -> bool {
        true
    }
}

/// The recorder's output, surfaced as `ClusterResult.telemetry`.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryResult {
    /// The canonical merged event stream: every lane's retained ring
    /// contents, globally ordered by `(at_us, seq)`. Within one lane
    /// timestamps are monotone non-decreasing.
    pub events: Vec<FlightEvent>,
    /// Events lost to ring overwrites across all lanes.
    pub dropped_events: u64,
    /// The per-lane ring capacity the run recorded with.
    pub ring_capacity: usize,
    /// Controller tick instants the series were sampled at.
    pub tick_us: Vec<f64>,
    /// Per-lane and fleet-wide gauge series (values parallel to
    /// `tick_us`).
    pub series: Vec<MetricSeries>,
    /// Wall-clock phase profile (excluded from equality).
    pub profile: ClockProfile,
}

impl TelemetryResult {
    /// The series named `name` for `lane` (`None` = fleet-wide).
    pub fn series(&self, name: &str, lane: Option<u32>) -> Option<&MetricSeries> {
        self.series
            .iter()
            .find(|s| s.name == name && s.lane == lane)
    }
}

/// Per-lane gauge names sampled at every controller tick.
pub const LANE_SERIES: [&str; 4] = ["backlog", "window_p99_ratio", "inflight", "resident_be"];
/// Fleet-wide gauge names sampled at every controller tick.
pub const FLEET_SERIES: [&str; 4] = [
    "warm_pool_depth",
    "retry_queue_depth",
    "active_lanes",
    "provisioning_lanes",
];
/// Per-tier gauge names sampled at every controller tick when the run
/// has a tier config (the `lane` field of these series carries the
/// *tier rank*, 0 = highest-priority tier): total backlog of the
/// tier's services (in-lane plus admission queue), cumulative weighted
/// on-SLO completions, and cumulative admission refusals.
pub const TIER_SERIES: [&str; 3] = ["tier_backlog", "tier_goodput_w", "tier_refused"];

/// The run-side recorder the fleet clock threads through its decision
/// points. `TelemetryRt::off()` is the disabled recorder: no rings, no
/// series, no `Instant` reads — every `record` call is one predictable
/// branch.
pub(crate) struct TelemetryRt {
    enabled: bool,
    seq: u64,
    ring_capacity: usize,
    /// One ring per lane plus the trailing fleet track.
    rings: Vec<EventRing>,
    /// Cursor into the elastic scale-event log (mirrored lazily).
    scale_seen: usize,
    /// Cursor into the migration log (mirrored lazily).
    mig_seen: usize,
    n_lanes: usize,
    /// Distinct tiers sampled per tick (0 when the run has no tier
    /// config — the series layout is then identical to a tier-blind
    /// recorder).
    n_tiers: usize,
    tick_us: Vec<f64>,
    series: Vec<MetricSeries>,
    pub(crate) prof: ClockProfile,
}

impl TelemetryRt {
    /// The disabled recorder: allocation-free and branch-cheap.
    pub(crate) fn off() -> TelemetryRt {
        TelemetryRt {
            enabled: false,
            seq: 0,
            ring_capacity: 0,
            rings: Vec::new(),
            scale_seen: 0,
            mig_seen: 0,
            n_lanes: 0,
            n_tiers: 0,
            tick_us: Vec::new(),
            series: Vec::new(),
            prof: ClockProfile::default(),
        }
    }

    /// An enabled recorder for `n_lanes` lanes and `n_tiers` SLO tiers
    /// (0 without a tier config) expecting roughly `expected_ticks`
    /// controller ticks. All allocation happens here: rings at full
    /// capacity, series at tick capacity.
    pub(crate) fn new(
        cfg: &TelemetryConfig,
        n_lanes: usize,
        n_tiers: usize,
        expected_ticks: usize,
    ) -> TelemetryRt {
        let cap_ticks = expected_ticks + 2;
        let mut rings = Vec::with_capacity(n_lanes + 1);
        for _ in 0..n_lanes + 1 {
            rings.push(EventRing::with_capacity(cfg.ring_capacity));
        }
        let mut series = Vec::with_capacity(
            n_lanes * LANE_SERIES.len() + FLEET_SERIES.len() + n_tiers * TIER_SERIES.len(),
        );
        for lane in 0..n_lanes {
            for name in LANE_SERIES {
                series.push(MetricSeries {
                    name,
                    lane: Some(lane as u32),
                    values: Vec::with_capacity(cap_ticks),
                });
            }
        }
        for name in FLEET_SERIES {
            series.push(MetricSeries {
                name,
                lane: None,
                values: Vec::with_capacity(cap_ticks),
            });
        }
        for rank in 0..n_tiers {
            for name in TIER_SERIES {
                series.push(MetricSeries {
                    name,
                    lane: Some(rank as u32),
                    values: Vec::with_capacity(cap_ticks),
                });
            }
        }
        TelemetryRt {
            enabled: true,
            seq: 0,
            ring_capacity: cfg.ring_capacity,
            rings,
            scale_seen: 0,
            mig_seen: 0,
            n_lanes,
            n_tiers,
            tick_us: Vec::with_capacity(cap_ticks),
            series,
            prof: ClockProfile::default(),
        }
    }

    #[inline]
    pub(crate) fn is_on(&self) -> bool {
        self.enabled
    }

    /// Records one event at simulation time `at_us` on `lane`
    /// ([`FLEET_TRACK`] for fleet-scoped events). A no-op when
    /// disabled.
    #[inline]
    pub(crate) fn record(&mut self, at_us: f64, lane: u32, kind: EventKind) {
        if !self.enabled {
            return;
        }
        self.seq += 1;
        let idx = if lane == FLEET_TRACK {
            self.n_lanes
        } else {
            lane as usize
        };
        self.rings[idx].push(FlightEvent {
            at_us,
            seq: self.seq,
            lane,
            kind,
        });
    }

    /// Mirrors freshly appended migration and elastic scale events into
    /// the rings. Called after every decision point that can grow the
    /// logs; cursors keep each entry recorded exactly once.
    pub(crate) fn sync_logs(
        &mut self,
        migrations: &[crate::cluster::Migration],
        scale_events: &[ScaleEvent],
    ) {
        if !self.enabled {
            return;
        }
        while self.mig_seen < migrations.len() {
            let m = migrations[self.mig_seen];
            self.mig_seen += 1;
            self.record(
                m.at_us,
                m.from as u32,
                EventKind::MigrationOut {
                    job: m.job as u32,
                    to: m.to as u32,
                },
            );
            self.record(
                m.at_us,
                m.to as u32,
                EventKind::MigrationIn {
                    job: m.job as u32,
                    from: m.from as u32,
                },
            );
        }
        while self.scale_seen < scale_events.len() {
            let ev = scale_events[self.scale_seen];
            self.scale_seen += 1;
            self.record(ev.at_us, ev.replica as u32, EventKind::Scale(ev.kind));
        }
    }

    /// Opens a tick sample row at `at_us`. Followed by one
    /// [`sample_lane`](Self::sample_lane) per lane (in lane order) and
    /// one [`sample_fleet`](Self::sample_fleet).
    #[inline]
    pub(crate) fn begin_tick(&mut self, at_us: f64) {
        if !self.enabled {
            return;
        }
        self.tick_us.push(at_us);
    }

    #[inline]
    pub(crate) fn sample_lane(
        &mut self,
        lane: usize,
        backlog: f64,
        window_p99_ratio: f64,
        inflight: f64,
        resident_be: f64,
    ) {
        if !self.enabled {
            return;
        }
        let base = lane * LANE_SERIES.len();
        self.series[base].values.push(backlog);
        self.series[base + 1].values.push(window_p99_ratio);
        self.series[base + 2].values.push(inflight);
        self.series[base + 3].values.push(resident_be);
    }

    #[inline]
    pub(crate) fn sample_fleet(
        &mut self,
        warm_depth: f64,
        retry_depth: f64,
        active: f64,
        provisioning: f64,
    ) {
        if !self.enabled {
            return;
        }
        let base = self.n_lanes * LANE_SERIES.len();
        self.series[base].values.push(warm_depth);
        self.series[base + 1].values.push(retry_depth);
        self.series[base + 2].values.push(active);
        self.series[base + 3].values.push(provisioning);
    }

    /// Samples one tier's gauges for the current tick row (called once
    /// per tier rank, in rank order, after [`sample_fleet`](Self::sample_fleet)).
    #[inline]
    pub(crate) fn sample_tier(&mut self, rank: usize, backlog: f64, goodput_w: f64, refused: f64) {
        if !self.enabled {
            return;
        }
        debug_assert!(rank < self.n_tiers, "tier rank out of range");
        let base = self.n_lanes * LANE_SERIES.len() + FLEET_SERIES.len() + rank * TIER_SERIES.len();
        self.series[base].values.push(backlog);
        self.series[base + 1].values.push(goodput_w);
        self.series[base + 2].values.push(refused);
    }

    /// Starts a wall-clock phase measurement (None for the disabled
    /// recorder, which never reads the clock).
    #[inline]
    pub(crate) fn clk(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Elapsed nanoseconds since [`clk`](Self::clk), 0 when off.
    #[inline]
    pub(crate) fn lap(t0: Option<Instant>) -> u64 {
        t0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0)
    }

    /// Merges the rings into the canonical stream and closes the run.
    /// Returns `None` for the disabled recorder.
    pub(crate) fn finish(mut self) -> Option<TelemetryResult> {
        if !self.enabled {
            return None;
        }
        let t0 = self.clk();
        let total: usize = self.rings.iter().map(|r| r.len()).sum();
        let dropped: u64 = self.rings.iter().map(|r| r.dropped()).sum();
        let mut events = Vec::with_capacity(total);
        for ring in &self.rings {
            events.extend(ring.iter_in_order().copied());
        }
        // `seq` is globally unique, so the order is total and the
        // unstable (allocation-free) sort is deterministic.
        events.sort_unstable_by(|a, b| {
            a.at_us
                .partial_cmp(&b.at_us)
                .expect("event timestamps are finite")
                .then(a.seq.cmp(&b.seq))
        });
        self.prof.merge_ns += Self::lap(t0);
        Some(TelemetryResult {
            events,
            dropped_events: dropped,
            ring_capacity: self.ring_capacity,
            tick_us: self.tick_us,
            series: self.series,
            profile: self.prof,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_us: f64, seq: u64) -> FlightEvent {
        FlightEvent {
            at_us,
            seq,
            lane: 0,
            kind: EventKind::Routed { task: 0 },
        }
    }

    #[test]
    fn ring_keeps_the_most_recent_window() {
        let mut ring = EventRing::with_capacity(3);
        for i in 0..5 {
            ring.push(ev(i as f64, i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let seqs: Vec<u64> = ring.iter_in_order().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest events are overwritten first");
    }

    #[test]
    fn ring_never_reallocates_past_creation() {
        let mut ring = EventRing::with_capacity(8);
        let ptr = ring.buf.as_ptr();
        for i in 0..100 {
            ring.push(ev(i as f64, i));
        }
        assert_eq!(ring.buf.as_ptr(), ptr, "ring storage must be stable");
        assert_eq!(ring.buf.capacity(), 8);
    }

    #[test]
    fn profiles_never_break_equality() {
        let a = ClockProfile {
            epochs: 10,
            advance_ns: 12345,
            ..Default::default()
        };
        let b = ClockProfile::default();
        assert_eq!(a, b, "wall-clock profiles are observational");
    }

    #[test]
    fn tier_series_layout_follows_fleet_block() {
        let cfg = TelemetryConfig { ring_capacity: 8 };
        let mut rt = TelemetryRt::new(&cfg, 2, 2, 4);
        rt.begin_tick(1.0);
        for lane in 0..2 {
            rt.sample_lane(lane, 1.0, 0.5, 0.0, 0.0);
        }
        rt.sample_fleet(0.0, 0.0, 2.0, 0.0);
        rt.sample_tier(0, 3.0, 8.0, 0.0);
        rt.sample_tier(1, 5.0, 1.0, 2.0);
        let out = rt.finish().expect("enabled recorder yields a result");
        assert_eq!(
            out.series("tier_backlog", Some(1)).expect("rank 1").values,
            vec![5.0]
        );
        assert_eq!(
            out.series("tier_goodput_w", Some(0))
                .expect("rank 0")
                .values,
            vec![8.0]
        );
        assert_eq!(
            out.series("tier_refused", Some(1)).expect("rank 1").values,
            vec![2.0]
        );
        // The lane/fleet blocks are untouched by the tier extension.
        assert_eq!(
            out.series("backlog", Some(0)).expect("lane 0").values,
            vec![1.0]
        );
        assert_eq!(
            out.series("active_lanes", None).expect("fleet").values,
            vec![2.0]
        );
    }

    #[test]
    fn merged_stream_orders_by_time_then_seq() {
        let cfg = TelemetryConfig { ring_capacity: 16 };
        let mut rt = TelemetryRt::new(&cfg, 2, 0, 4);
        rt.record(5.0, 1, EventKind::Routed { task: 0 });
        rt.record(1.0, 0, EventKind::Routed { task: 1 });
        rt.record(5.0, 0, EventKind::Routed { task: 2 });
        rt.record(5.0, FLEET_TRACK, EventKind::TimeoutDropped { task: 3 });
        let out = rt.finish().expect("enabled recorder yields a result");
        let order: Vec<(f64, u64)> = out.events.iter().map(|e| (e.at_us, e.seq)).collect();
        assert_eq!(order, vec![(1.0, 2), (5.0, 1), (5.0, 3), (5.0, 4)]);
        // Per-lane streams stay monotone in time.
        for lane in [0, 1, FLEET_TRACK] {
            let times: Vec<f64> = out
                .events
                .iter()
                .filter(|e| e.lane == lane)
                .map(|e| e.at_us)
                .collect();
            let mut sorted = times.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(times, sorted);
        }
    }
}
