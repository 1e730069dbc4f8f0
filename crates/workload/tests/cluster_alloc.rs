//! Zero-steady-state-allocation contract for the fleet clock's epoch
//! path, enforced with a counting global allocator.
//!
//! The method isolates *per-epoch* cost from *per-run* cost: two
//! prepared configs differing only in horizon (H and 2H) run on a
//! warmed [`ClusterCtx`]; the 2H run executes roughly twice the epochs
//! (arrivals, quiesces, controller ticks) of the H run, so any
//! allocation on the epoch path — busy-set collection, router views,
//! lane refresh, injection, tick drains — would show up thousands of
//! times in the difference. Per-run setup (lane boxes, placement
//! clones, summaries) is identical on both sides and cancels. The small
//! slack absorbs data-dependent growth that is O(log) or
//! O(replicas)-bounded per run: histogram touched-list doubling and the
//! migration log.
//!
//! The counter is process-wide and cargo runs tests on parallel
//! threads, so each test holds [`MEASURE_LOCK`] for its whole body:
//! another test's allocations must never land in a measured window.

use gpu_spec::GpuModel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use workload::cluster::{ClusterConfig, ClusterCtx, RouterKind};
use workload::runner::Deployment;
use workload::trace::TraceConfig;
use workload::{SystemKind, TelemetryConfig};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Serializes the tests that read [`ALLOC_CALLS`].
static MEASURE_LOCK: Mutex<()> = Mutex::new(());

fn fleet_cfg(horizon_us: f64) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(vec![GpuModel::RtxA2000; 64], SystemKind::Sgdrc);
    cfg.horizon_us = horizon_us;
    cfg.trace = TraceConfig::apollo_like().scaled(0.9 * 64.0);
    cfg.controller.period_us = 5e4;
    cfg.streaming = true;
    cfg
}

/// A 64-replica streaming fleet run at horizon 2H allocates no more
/// than a run at horizon H plus a small data-dependent slack — i.e. the
/// doubled epoch count adds (essentially) zero allocations.
#[test]
fn epoch_path_allocates_nothing_in_steady_state() {
    if cfg!(debug_assertions) {
        // Debug builds run the retained linear-scan oracle every epoch
        // (it materializes its expected busy set) plus the engine's own
        // debug-assert scaffolding — millions of intentional
        // allocations that exist only to check the fast path. The
        // zero-alloc contract is a release-build property; CI runs this
        // test under `--release` explicitly.
        eprintln!("skipping: debug_assertions oracle allocates by design; run under --release");
        return;
    }
    let _serial = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let h = 2e5;
    let _ = Deployment::cached(GpuModel::RtxA2000);
    let prep_short = fleet_cfg(h).prepare();
    let prep_long = fleet_cfg(2.0 * h).prepare();
    let mut ctx = ClusterCtx::new();

    // Warm every capacity high-water mark with the longer run first,
    // then the short one.
    for prep in [&prep_long, &prep_short] {
        let mut router = RouterKind::ShortestBacklog.make(prep.config().seed);
        let r = workload::run_cluster_prepared(prep, router.as_mut(), &mut ctx);
        assert!(r.requests > 0, "degenerate scenario");
    }

    let measure = |prep: &workload::PreparedCluster, ctx: &mut ClusterCtx| {
        let mut router = RouterKind::ShortestBacklog.make(prep.config().seed);
        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        let r = workload::run_cluster_prepared(prep, router.as_mut(), ctx);
        let after = ALLOC_CALLS.load(Ordering::Relaxed);
        assert_eq!(r.retained_completions, 0, "streaming retained logs");
        (after - before, r.requests)
    };

    let (allocs_short, req_short) = measure(&prep_short, &mut ctx);
    let (allocs_long, req_long) = measure(&prep_long, &mut ctx);
    assert!(
        req_long > req_short + 1000,
        "the long run must execute materially more epochs ({req_short} vs {req_long})"
    );

    // Per-epoch allocations would appear ~req_short times here; the
    // slack only covers amortized-doubling tails and the migration log.
    let delta = allocs_long.saturating_sub(allocs_short);
    assert!(
        delta <= 256,
        "doubling the horizon added {delta} allocations \
         ({allocs_short} at H, {allocs_long} at 2H) — the epoch path allocates"
    );
}

/// The *enabled* flight recorder allocates only at ring/series creation,
/// never per event: with telemetry on, the 2H run records roughly twice
/// the events of the H run (every completion, route, and tick sample
/// lands in a ring), yet the allocation-call counts differ only by the
/// same slack as the recorder-off contract. Creation cost — one call
/// per ring and per reserved series, identical on both sides — cancels
/// in the difference; only a per-event allocation could show up tens of
/// thousands of times here.
#[test]
fn enabled_recorder_allocates_only_at_creation() {
    if cfg!(debug_assertions) {
        eprintln!("skipping: debug_assertions oracle allocates by design; run under --release");
        return;
    }
    let _serial = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let telemetry_cfg = |horizon_us: f64| {
        let mut cfg = fleet_cfg(horizon_us);
        // Small rings force steady-state overwrites — the hot path is
        // exercised far past capacity on both sides.
        cfg.telemetry = Some(TelemetryConfig { ring_capacity: 256 });
        cfg
    };
    let h = 2e5;
    let _ = Deployment::cached(GpuModel::RtxA2000);
    let prep_short = telemetry_cfg(h).prepare();
    let prep_long = telemetry_cfg(2.0 * h).prepare();
    let mut ctx = ClusterCtx::new();

    for prep in [&prep_long, &prep_short] {
        let mut router = RouterKind::ShortestBacklog.make(prep.config().seed);
        let r = workload::run_cluster_prepared(prep, router.as_mut(), &mut ctx);
        assert!(r.requests > 0, "degenerate scenario");
    }

    let measure = |prep: &workload::PreparedCluster, ctx: &mut ClusterCtx| {
        let mut router = RouterKind::ShortestBacklog.make(prep.config().seed);
        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        let r = workload::run_cluster_prepared(prep, router.as_mut(), ctx);
        let after = ALLOC_CALLS.load(Ordering::Relaxed);
        let tel = r.telemetry.expect("recorder was enabled");
        assert!(
            tel.dropped_events > 0,
            "rings must overwrite in steady state"
        );
        (
            after - before,
            r.requests,
            tel.events.len() as u64 + tel.dropped_events,
        )
    };

    let (allocs_short, req_short, recorded_short) = measure(&prep_short, &mut ctx);
    let (allocs_long, req_long, recorded_long) = measure(&prep_long, &mut ctx);
    assert!(
        req_long > req_short + 1000,
        "the long run must execute materially more epochs ({req_short} vs {req_long})"
    );
    assert!(
        recorded_long > recorded_short + 1000,
        "the long run must record materially more events ({recorded_short} vs {recorded_long})"
    );

    // A per-event allocation would appear ~recorded_short extra times
    // here; creation-time allocations are identical per run and cancel.
    let delta = allocs_long.saturating_sub(allocs_short);
    assert!(
        delta <= 256,
        "doubling the horizon with the recorder on added {delta} allocations \
         ({allocs_short} at H, {allocs_long} at 2H) — the recorder allocates per event"
    );
}
