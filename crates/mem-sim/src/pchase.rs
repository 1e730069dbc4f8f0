//! GPU pointer-chase (P-chase) utilities and latency-threshold calibration.
//!
//! The paper's probing algorithms (Algo 1–3) are built on the P-chase
//! micro-benchmark of Mei & Chu (paper ref \[30\]): an array whose elements
//! store the index of the next element to visit, defeating prefetchers and
//! exposing per-access latency. This module provides chain construction,
//! chain traversal, an L2 refresh sweep, and the micro-benchmark that
//! derives the L2-miss and bank-conflict latency thresholds the probing
//! code compares against.

use crate::device::GpuDevice;
use gpu_spec::{MmuError, VirtAddr, CACHELINE_BYTES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Latency thresholds calibrated on the live device (§5.1: "determined by
/// micro-benchmarking").
#[derive(Debug, Clone, Copy)]
pub struct Thresholds {
    /// A single load slower than this is an L2 miss.
    pub l2_miss: u64,
    /// A concurrent pair slower than this indicates a DRAM bank conflict.
    pub bank_conflict: u64,
}

/// Writes a pointer chain through `slots`: each slot stores the address of
/// the next, and the last points back to the first.
pub fn build_chain(dev: &mut GpuDevice, slots: &[VirtAddr]) -> Result<(), MmuError> {
    for (i, &slot) in slots.iter().enumerate() {
        let next = slots[(i + 1) % slots.len()];
        dev.write_u64(slot, next.0)?;
    }
    Ok(())
}

/// Follows a pointer chain for `steps` hops; returns total latency.
pub fn run_chain(dev: &mut GpuDevice, start: VirtAddr, steps: usize) -> Result<u64, MmuError> {
    let mut cursor = start;
    let mut total = 0;
    for _ in 0..steps {
        let (next, lat) = dev.read_u64(cursor)?;
        total += lat;
        cursor = VirtAddr(next);
    }
    Ok(total)
}

/// The faithful `RefreshL2(v)` of Algo 1: stream a buffer of at least twice
/// the L2 capacity at cacheline stride, evicting the previous contents.
/// (`GpuDevice::flush_l2` is the fast equivalent the probing algorithms use
/// to keep simulation costs bounded; `tests::scan_refresh_matches_flush`
/// verifies the two agree.)
pub fn refresh_via_scan(dev: &mut GpuDevice, va: VirtAddr, bytes: u64) -> Result<(), MmuError> {
    let mut off = 0;
    while off < bytes {
        dev.read_u64(va.offset(off))?;
        off += CACHELINE_BYTES;
    }
    Ok(())
}

/// Calibrates the L2-miss and bank-conflict thresholds with random probes —
/// no oracle involved.
pub fn calibrate_thresholds(dev: &mut GpuDevice, seed: u64) -> Result<Thresholds, MmuError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let bytes: u64 = 4 << 20;
    let va = dev.malloc(bytes)?;

    // Hit / miss latencies for single loads.
    let mut hits = Vec::new();
    let mut misses = Vec::new();
    for _ in 0..64 {
        let probe = va.offset((rng.gen_range(0..bytes / 128)) * 128);
        dev.flush_l2();
        let (_, miss) = dev.read_u64(probe)?;
        let (_, hit) = dev.read_u64(probe)?;
        misses.push(miss);
        hits.push(hit);
    }
    hits.sort_unstable();
    misses.sort_unstable();
    let hit_p90 = hits[hits.len() * 9 / 10];
    let miss_p10 = misses[misses.len() / 10];
    let l2_miss = (hit_p90 + miss_p10) / 2;

    // Pair latencies: the population is bimodal (rare bank conflicts are
    // much slower). Take the largest gap above the median as the boundary.
    let mut pairs = Vec::new();
    for _ in 0..512 {
        let a = va.offset((rng.gen_range(0..bytes / 1024)) * 1024);
        let b = va.offset((rng.gen_range(0..bytes / 1024)) * 1024);
        dev.flush_l2();
        pairs.push(dev.timed_pair(a, b)?);
    }
    pairs.sort_unstable();
    let median = pairs[pairs.len() / 2];
    let mut best_gap = 0;
    let mut boundary = median * 3 / 2;
    for w in pairs.windows(2) {
        if w[0] >= median && w[1] - w[0] > best_gap {
            best_gap = w[1] - w[0];
            boundary = w[0] + (w[1] - w[0]) / 2;
        }
    }
    dev.free(va, bytes)?;
    Ok(Thresholds {
        l2_miss,
        bank_conflict: boundary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_spec::GpuModel;

    fn device() -> GpuDevice {
        GpuDevice::new(GpuModel::RtxA2000, 64 << 20, 11)
    }

    #[test]
    fn chain_traversal_follows_pointers() {
        let mut d = device();
        let va = d.malloc(1 << 16).unwrap();
        let slots: Vec<VirtAddr> = (0..32).map(|i| va.offset(i * 1024)).collect();
        build_chain(&mut d, &slots).unwrap();
        // After one full loop the cursor is back at start.
        let mut cursor = slots[0];
        for _ in 0..32 {
            let (next, _) = d.read_u64(cursor).unwrap();
            cursor = VirtAddr(next);
        }
        assert_eq!(cursor, slots[0]);
    }

    #[test]
    fn second_chain_pass_is_faster() {
        let mut d = device();
        let va = d.malloc(1 << 16).unwrap();
        let slots: Vec<VirtAddr> = (0..64).map(|i| va.offset(i * 128)).collect();
        build_chain(&mut d, &slots).unwrap();
        d.flush_l2();
        let cold = run_chain(&mut d, slots[0], 64).unwrap();
        let warm = run_chain(&mut d, slots[0], 64).unwrap();
        assert!(warm * 3 < cold * 2, "warm {warm} vs cold {cold}");
    }

    #[test]
    fn scan_refresh_matches_flush() {
        let mut d = device();
        let target = d.malloc(4096).unwrap();
        let sweep_bytes = 2 * d.spec().l2_total_bytes();
        let sweep = d.malloc(sweep_bytes).unwrap();

        // Warm the target, then evict via the faithful scan.
        d.read_u64(target).unwrap();
        assert!(d.probe_l2(target).unwrap());
        refresh_via_scan(&mut d, sweep, sweep_bytes).unwrap();
        assert!(
            !d.probe_l2(target).unwrap(),
            "a 2x-capacity scan must evict the target line"
        );
    }

    #[test]
    fn calibrated_thresholds_separate_populations() {
        let mut d = device();
        let th = calibrate_thresholds(&mut d, 3).unwrap();
        assert!(th.l2_miss > d.spec().l2_hit_latency);
        assert!(th.l2_miss < d.spec().dram_latency);
        // Bank conflicts serialize two DRAM accesses; clean pairs are ~one
        // DRAM access. The boundary must sit between those populations.
        assert!(th.bank_conflict > d.spec().dram_latency);
        assert!(
            th.bank_conflict < 2 * (d.spec().dram_latency + d.spec().bank_conflict_penalty),
            "boundary {} too high",
            th.bank_conflict
        );
    }
}
