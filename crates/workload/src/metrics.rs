//! Evaluation metrics (paper §9.2).
//!
//! * **p99 latency** including queueing delay;
//! * **SLO attainment rate**: the SLO of an LS service is
//!   `n × p99-isolated-runtime`, with `n` the number of DNN services
//!   concurrently running on the GPU (following refs [6, 8]);
//! * **throughput** (samples/s) and **goodput** (SLO-meeting LS
//!   requests/s).

use sgdrc_core::serving::CompletedRequest;

/// Percentile of a latency population (p in 0..=100).
pub fn percentile(latencies: &[f64], p: f64) -> f64 {
    if latencies.is_empty() {
        return f64::NAN;
    }
    let mut v = latencies.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() as f64 * p / 100.0).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx]
}

/// Documented relative accuracy of [`LatencyHistogram`] percentiles:
/// every reported percentile is within ±0.5% of the exact
/// sorted-population percentile (same rank convention as
/// [`percentile`]), for values inside the histogram's range.
pub const HIST_REL_ERROR: f64 = 0.005;

/// Geometric bin-width ratio: `(1 + HIST_REL_ERROR)²`, so a bin's
/// geometric midpoint is within `×/÷ (1 + HIST_REL_ERROR)` of every
/// value in the bin.
pub const HIST_GAMMA: f64 = (1.0 + HIST_REL_ERROR) * (1.0 + HIST_REL_ERROR);

/// Lower edge of the first bin (µs). Latencies below it clamp into bin 0
/// (sub-0.1µs end-to-end latencies do not occur in this simulator).
pub const HIST_MIN_US: f64 = 0.1;

/// Number of log-spaced bins. Covers `HIST_MIN_US × HIST_GAMMA^2560`
/// ≈ 1.2e10 µs (~3.4 hours) — far beyond any simulated horizon; larger
/// values clamp into the last bin.
pub const HIST_BINS: usize = 2560;

/// A mergeable fixed-bin log-histogram sketch of a latency population.
///
/// A fleet asks for percentiles over many latency populations: every
/// replica's controller window at every tick, and the fleet-wide union
/// at the end. Collect-then-sort pays an `O(n log n)` sort per query
/// and a re-sort of the union. This sketch records each latency into
/// one of [`HIST_BINS`] geometrically spaced bins (`O(1)`,
/// allocation-free in steady state), merges across replicas by
/// element-wise addition (never re-sorting), and answers any
/// percentile within a documented ±[`HIST_REL_ERROR`] relative error of
/// the exact sorted answer — `count`, `sum`, `min` and `max` stay exact.
///
/// A touched-bin list keeps the sparse operations proportional to the
/// number of *occupied* bins rather than [`HIST_BINS`]: a controller
/// window touches tens of bins, so per-window `reset`/`merge`/`==` cost
/// tens of reads and writes, not a 20 KiB memset or full-array walk. The bin
/// array itself is allocated lazily on the first `record`/`merge`, so a
/// fleet of mostly-idle sketches (512 replicas × per-task windows)
/// costs O(occupied sketches), not 20 KiB per sketch up front.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// Lazily allocated to [`HIST_BINS`]; empty until first use.
    counts: Vec<u64>,
    /// Indices of non-zero bins, in first-touch order.
    touched: Vec<u32>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// Two sketches are equal when they describe the same population:
/// identical bin contents and exact aggregates. The internal touch
/// order (a record/merge history artefact) does not participate.
///
/// The bin comparison is sparse — O(occupied bins), not [`HIST_BINS`]:
/// the touched list is exactly the set of non-zero bins (bins enter it
/// on the 0→non-zero transition and leave only on `reset`), so equal
/// list lengths plus every self-touched bin matching in `other` implies
/// the non-zero bin *sets* coincide, and with them every bin.
impl PartialEq for LatencyHistogram {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
            && self.touched.len() == other.touched.len()
            && self.touched.iter().all(|&i| {
                let i = i as usize;
                self.counts[i] == other.counts.get(i).copied().unwrap_or(0)
            })
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        Self {
            counts: Vec::new(),
            touched: Vec::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Allocates the bin array on first use; a no-op once allocated
    /// (`reset` keeps the storage, so warmed sketches never re-pay it).
    #[inline]
    fn ensure_bins(&mut self) {
        if self.counts.is_empty() {
            self.counts.resize(HIST_BINS, 0);
        }
    }

    /// Empties the sketch, retaining its storage. Cost is proportional
    /// to the number of occupied bins.
    pub fn reset(&mut self) {
        for &i in &self.touched {
            self.counts[i as usize] = 0;
        }
        self.touched.clear();
        self.count = 0;
        self.sum = 0.0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
    }

    /// Bin index of a value (clamped into the covered range).
    #[inline]
    fn bin_of(v: f64) -> usize {
        if v <= HIST_MIN_US {
            return 0;
        }
        let idx = ((v / HIST_MIN_US).ln() / HIST_GAMMA.ln()) as usize;
        idx.min(HIST_BINS - 1)
    }

    /// Records one latency sample (µs). O(1); allocates only when a
    /// never-before-touched bin first appears.
    #[inline]
    pub fn record(&mut self, v: f64) {
        debug_assert!(v.is_finite(), "latency must be finite, got {v}");
        self.ensure_bins();
        let bin = Self::bin_of(v);
        if self.counts[bin] == 0 {
            self.touched.push(bin as u32);
        }
        self.counts[bin] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merges another sketch into this one — the cross-cell aggregation
    /// path. Cost is proportional to the other sketch's occupied bins;
    /// no re-sorting.
    ///
    /// An empty `other` — e.g. the never-touched sketch of a replica that
    /// crashed before serving anything — is a guaranteed no-op: its
    /// `min`/`max` sentinels (`+∞`/`−∞`) must not leak into this sketch's
    /// exact extremes, so the merge returns before touching them.
    pub fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        self.ensure_bins();
        for &i in &other.touched {
            let i = i as usize;
            if self.counts[i] == 0 {
                self.touched.push(i as u32);
            }
            self.counts[i] += other.counts[i];
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of recorded values (µs).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact mean (NaN when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        self.sum / self.count as f64
    }

    pub fn min(&self) -> f64 {
        self.min
    }

    pub fn max(&self) -> f64 {
        self.max
    }

    /// Percentile (p in 0..=100) with the same rank convention as
    /// [`percentile`]: the value whose sorted rank is
    /// `clamp(ceil(count × p / 100), 1, count)`. The answer is the
    /// geometric midpoint of the rank's bin, clamped into the exact
    /// observed `[min, max]`, and therefore within ±[`HIST_REL_ERROR`]
    /// relative of the exact sorted-population percentile.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = ((self.count as f64 * p / 100.0).ceil() as u64).clamp(1, self.count);
        // Every occupied bin lies in [bin_of(min), bin_of(max)] — walk
        // only that window, not all HIST_BINS.
        let lo = Self::bin_of(self.min);
        let hi = Self::bin_of(self.max);
        let mut seen = 0u64;
        for (i, &c) in self.counts[lo..=hi].iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Geometric midpoint of the bin: HIST_MIN_US × γ^(i+0.5).
                let mid = HIST_MIN_US * HIST_GAMMA.powf((lo + i) as f64 + 0.5);
                // Clamping to the exact extremes never increases the
                // error (the true value lies in [min, max]).
                return mid.clamp(self.min, self.max);
            }
        }
        unreachable!("rank {rank} ≤ count {} must be reached", self.count)
    }
}

/// Aggregated metrics of one LS service in one run.
#[derive(Debug, Clone)]
pub struct LsMetrics {
    pub model: String,
    pub requests: usize,
    pub p99_latency_us: f64,
    pub mean_latency_us: f64,
    pub slo_us: f64,
    pub slo_attainment: f64,
    /// SLO-meeting completions per second.
    pub goodput_hz: f64,
}

/// Computes LS metrics from completed requests.
pub fn ls_metrics(
    model: &str,
    completed: &[CompletedRequest],
    slo_us: f64,
    horizon_us: f64,
) -> LsMetrics {
    let lat: Vec<f64> = completed.iter().map(|r| r.latency_us()).collect();
    let met = lat.iter().filter(|&&l| l <= slo_us).count();
    LsMetrics {
        model: model.to_string(),
        requests: completed.len(),
        p99_latency_us: percentile(&lat, 99.0),
        mean_latency_us: lat.iter().sum::<f64>() / lat.len().max(1) as f64,
        slo_us,
        slo_attainment: met as f64 / lat.len().max(1) as f64,
        goodput_hz: met as f64 / (horizon_us / 1e6),
    }
}

/// §9.2's SLO: `n ×` the model's isolated p99 runtime.
pub fn slo_for(isolated_p99_us: f64, services_on_gpu: usize) -> f64 {
    isolated_p99_us * services_on_gpu as f64
}

/// Aggregated result of a full system run (one GPU, one load, one system).
#[derive(Debug, Clone)]
pub struct SystemResult {
    pub system: String,
    pub gpu: String,
    pub load: String,
    pub ls: Vec<LsMetrics>,
    /// Samples/s per BE model (batch × inferences / horizon).
    pub be_throughput_hz: Vec<(String, f64)>,
    /// LS goodput + BE throughput (paper's "overall throughput").
    pub overall_throughput_hz: f64,
}

impl SystemResult {
    /// Mean SLO attainment over LS services.
    pub fn mean_slo_attainment(&self) -> f64 {
        if self.ls.is_empty() {
            return f64::NAN;
        }
        self.ls.iter().map(|m| m.slo_attainment).sum::<f64>() / self.ls.len() as f64
    }

    /// Total BE samples/s.
    pub fn total_be_throughput(&self) -> f64 {
        self.be_throughput_hz.iter().map(|(_, t)| t).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(arrival: f64, done: f64) -> CompletedRequest {
        CompletedRequest {
            arrival_us: arrival,
            done_us: done,
        }
    }

    #[test]
    fn percentile_basics() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert!(percentile(&[], 99.0).is_nan());
    }

    #[test]
    fn percentile_handles_single_sample() {
        assert_eq!(percentile(&[42.0], 99.0), 42.0);
    }

    #[test]
    fn ls_metrics_attainment() {
        let completed: Vec<CompletedRequest> = (0..100)
            .map(|i| req(0.0, if i < 90 { 100.0 } else { 1000.0 }))
            .collect();
        let m = ls_metrics("test", &completed, 500.0, 1e6);
        assert!((m.slo_attainment - 0.9).abs() < 1e-9);
        assert_eq!(m.requests, 100);
        assert!((m.goodput_hz - 90.0).abs() < 1e-9);
        assert_eq!(m.p99_latency_us, 1000.0);
    }

    #[test]
    fn slo_scales_with_colocation_degree() {
        assert_eq!(slo_for(1000.0, 9), 9000.0);
    }

    #[test]
    fn histogram_percentiles_track_exact_sort() {
        let v: Vec<f64> = (1..=10_000).map(|i| i as f64 * 3.7).collect();
        let mut h = LatencyHistogram::new();
        for &x in &v {
            h.record(x);
        }
        for p in [0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let exact = percentile(&v, p);
            let sketch = h.percentile(p);
            assert!(
                (sketch - exact).abs() <= exact * HIST_REL_ERROR,
                "p{p}: sketch {sketch} vs exact {exact}"
            );
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.min(), 3.7);
        assert_eq!(h.max(), 37_000.0);
        assert!((h.mean() - v.iter().sum::<f64>() / 1e4).abs() < 1e-9);
    }

    #[test]
    fn histogram_merge_equals_recording_the_union() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut union = LatencyHistogram::new();
        for i in 0..500 {
            let x = 10.0 + i as f64 * 13.3;
            a.record(x);
            union.record(x);
        }
        for i in 0..300 {
            let x = 5_000.0 + i as f64 * 101.0;
            b.record(x);
            union.record(x);
        }
        a.merge(&b);
        assert_eq!(a, union);
    }

    /// Satellite regression: a replica that dies before serving anything
    /// hands the fleet aggregation a never-touched sketch whose min/max
    /// are still the `±∞` sentinels. Merging it — in either direction —
    /// must not corrupt the exact extremes or the percentile window.
    #[test]
    fn merging_a_dead_replica_sketch_is_a_no_op() {
        let mut fleet = LatencyHistogram::new();
        for i in 0..100 {
            fleet.record(50.0 + i as f64 * 7.0);
        }
        let before = fleet.clone();
        let dead = LatencyHistogram::new();
        fleet.merge(&dead);
        assert_eq!(fleet, before, "empty merge must be a no-op");
        assert_eq!(fleet.min(), 50.0);
        assert_eq!(fleet.max(), 50.0 + 99.0 * 7.0);
        assert!(fleet.percentile(99.0).is_finite());

        // The other direction: folding live sketches into a fresh fleet
        // accumulator that starts out never-touched (the aggregation
        // loop's first iteration when replica 0 is the dead one).
        let mut agg = LatencyHistogram::new();
        agg.merge(&dead);
        assert!(agg.is_empty());
        assert!(agg.percentile(50.0).is_nan());
        agg.merge(&before);
        assert_eq!(agg, before);

        // All-dead fleet: the merged sketch stays empty and NaN-safe.
        let mut all_dead = LatencyHistogram::new();
        all_dead.merge(&LatencyHistogram::new());
        all_dead.merge(&LatencyHistogram::new());
        assert!(all_dead.is_empty());
        assert!(all_dead.percentile(99.0).is_nan());
    }

    /// The sparse `==` walks only touched bins. Two sketches with
    /// identical exact aggregates but different bin contents must still
    /// compare unequal (in both directions — the walk is over `self`'s
    /// touched list), and lazily-unallocated sketches must behave like
    /// empty ones.
    #[test]
    fn sparse_eq_distinguishes_distributions_with_equal_aggregates() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for v in [100.0, 400.0, 500.0, 1000.0] {
            a.record(v);
        }
        for v in [100.0, 200.0, 700.0, 1000.0] {
            b.record(v);
        }
        assert_eq!(a.count(), b.count());
        assert_eq!(a.sum(), b.sum());
        assert_eq!(a.min(), b.min());
        assert_eq!(a.max(), b.max());
        assert_ne!(a, b);
        assert_ne!(b, a);

        // A never-recorded sketch (bins unallocated) equals an empty
        // reset one (bins allocated but all zero).
        let fresh = LatencyHistogram::new();
        let mut cleared = LatencyHistogram::new();
        cleared.record(42.0);
        cleared.reset();
        assert_eq!(fresh, cleared);
        assert_eq!(cleared, fresh);
    }

    #[test]
    fn histogram_empty_and_reset() {
        let mut h = LatencyHistogram::new();
        assert!(h.percentile(99.0).is_nan());
        assert!(h.is_empty());
        h.record(42.0);
        assert_eq!(h.count(), 1);
        // A single sample reports (clamped) exactly itself.
        assert_eq!(h.percentile(99.0), 42.0);
        h.reset();
        assert!(h.is_empty());
        assert!(h.percentile(50.0).is_nan());
    }

    #[test]
    fn histogram_clamps_out_of_range_values() {
        let mut h = LatencyHistogram::new();
        h.record(1e-6); // below the first bin edge
        h.record(1e12); // beyond the last bin edge
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 1e-6);
        assert_eq!(h.max(), 1e12);
        // Percentiles stay inside the exact observed range.
        assert!(h.percentile(1.0) >= 1e-6);
        assert!(h.percentile(100.0) <= 1e12);
    }
}
