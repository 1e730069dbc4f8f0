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
//! The same allocator tracks live and peak heap bytes, which pins
//! streaming mode's memory bound: a streaming run's peak heap must not
//! grow with the horizon, while a retained run's does.
//!
//! The counters are process-wide and cargo runs tests on parallel
//! threads, so each test holds [`MEASURE_LOCK`] for its whole body:
//! another test's allocations must never land in a measured window.

use gpu_spec::GpuModel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use workload::cluster::{ClusterConfig, ClusterCtx, PreparedCluster, RouterKind};
use workload::runner::Deployment;
use workload::trace::TraceConfig;
use workload::{SystemKind, TelemetryConfig};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
/// Bytes currently allocated.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`LIVE_BYTES`] since the last reset.
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments to `System` unchanged and
// returns its result, so `System`'s guarantees hold; the counters are
// atomics updated without allocating or unwinding.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: the caller passes a block `System` allocated with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `realloc`'s contract for this block.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new_ptr
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Serializes the tests that read the allocator's counters.
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

/// Streaming bounds a run's memory by the fleet, not the horizon: on a
/// fresh [`ClusterCtx`], the peak live heap of the 64-replica streaming
/// fleet grows by less than 64 KiB from horizon H to 4H, because every
/// controller tick folds the completion logs into the sketches and
/// clears them. The same fleet in retained mode keeps one record per
/// completion, and its peak grows by more than 256 KiB — so the bound
/// cannot pass vacuously. The peak is read over the whole run, not at
/// its end, where a streaming run has folded its last window either
/// way.
#[test]
fn streaming_peak_heap_does_not_grow_with_the_horizon() {
    if cfg!(debug_assertions) {
        eprintln!("skipping: debug_assertions oracle allocates by design; run under --release");
        return;
    }
    let _serial = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let h = 2e5;
    let _ = Deployment::cached(GpuModel::RtxA2000);
    let peak_heap = |prep: &PreparedCluster| {
        let base = LIVE_BYTES.load(Ordering::Relaxed);
        PEAK_BYTES.store(base, Ordering::Relaxed);
        let mut router = RouterKind::ShortestBacklog.make(prep.config().seed);
        let r = workload::run_cluster_prepared(prep, router.as_mut(), &mut ClusterCtx::new());
        assert!(r.requests > 0, "degenerate scenario");
        PEAK_BYTES.load(Ordering::Relaxed) - base
    };
    // Peak-heap growth from H to 4H, in KiB.
    let growth_kib = |streaming: bool| {
        let [short, long] = [h, 4.0 * h].map(|horizon_us| {
            let mut cfg = fleet_cfg(horizon_us);
            cfg.streaming = streaming;
            cfg.prepare()
        });
        let (at_h, at_4h) = (peak_heap(&short), peak_heap(&long));
        (at_4h as f64 - at_h as f64) / 1024.0
    };
    let streaming = growth_kib(true);
    let retained = growth_kib(false);
    assert!(
        streaming < 64.0,
        "a streaming run's peak heap grew {streaming:.0} KiB from H to 4H"
    );
    assert!(
        retained > 256.0,
        "a retained run's peak heap grew only {retained:.0} KiB from H to 4H"
    );
}
