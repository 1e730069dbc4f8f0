//! Conflict-probing primitives: paper Algo 1 and Algo 2.
//!
//! * [`is_dram_bank_conflicted`] — Algo 1: refresh the L2, issue two
//!   concurrent loads, and compare the elapsed time against the calibrated
//!   threshold. Addresses with a DRAM bank conflict *must* share a VRAM
//!   channel, because a bank belongs to exactly one channel (§5.1).
//! * [`find_dram_conflict_addrs`] — the scan loop at the top of Algo 3:
//!   walk forward from a seed partition until `need` bank-conflicting
//!   partitions are found.
//! * [`find_cache_conflict_addrs`] — Algo 2: binary-search the minimal
//!   pointer-chase interval `(Addr, Addr']` that evicts `Addr` from the L2,
//!   yielding addresses that share the seed's L2 cacheline set (and hence
//!   its channel).
//!
//! All probes observe the device *only* through load latencies; the
//! ground-truth hash oracle is never consulted.

use gpu_spec::{MmuError, VirtAddr};
use mem_sim::{GpuDevice, Thresholds};

/// Algo 1: do `a` and `b` exhibit a DRAM bank conflict?
///
/// Both loads are forced to miss the L2 (refresh first), then issued
/// concurrently; a conflicting pair serializes on the bank and pays the
/// row-activation penalty, exceeding `thresholds.bank_conflict`.
pub fn is_dram_bank_conflicted(
    dev: &mut GpuDevice,
    th: &Thresholds,
    a: VirtAddr,
    b: VirtAddr,
) -> Result<bool, MmuError> {
    dev.flush_l2(); // RefreshL2(v): see `mem_sim::pchase::refresh_via_scan`
    let elapsed = dev.timed_pair(a, b)?;
    Ok(elapsed > th.bank_conflict)
}

/// The scan loop of Algo 3, phase 1: starting after `seed`, walk the
/// candidate partitions in `candidates` (virtual partition base addresses,
/// physically ordered by the caller) until `need` bank-conflicting
/// partitions are collected. Returns their base addresses.
pub fn find_dram_conflict_addrs(
    dev: &mut GpuDevice,
    th: &Thresholds,
    seed: VirtAddr,
    candidates: &[VirtAddr],
    need: usize,
) -> Result<Vec<VirtAddr>, MmuError> {
    let mut out = Vec::with_capacity(need);
    for &cand in candidates {
        if cand == seed {
            continue;
        }
        if is_dram_bank_conflicted(dev, th, seed, cand)? {
            out.push(cand);
            if out.len() >= need {
                break;
            }
        }
    }
    Ok(out)
}

/// Inner predicate of Algo 2: after pointer-chasing `window[..=hi]`, is
/// `window[0]` evicted from the L2?
pub fn is_cacheline_evicted(
    dev: &mut GpuDevice,
    th: &Thresholds,
    window: &[VirtAddr],
    hi: usize,
) -> Result<bool, MmuError> {
    is_cacheline_evicted_excluding(dev, th, window, hi, &[])
}

/// [`is_cacheline_evicted`] with a set of window indices excluded from the
/// chase — used by Algo 2's outer loop to search for the *next* conflicting
/// address after removing the ones already found.
pub fn is_cacheline_evicted_excluding(
    dev: &mut GpuDevice,
    th: &Thresholds,
    window: &[VirtAddr],
    hi: usize,
    excluded: &[usize],
) -> Result<bool, MmuError> {
    dev.flush_l2();
    // Populate: chase the interval (the P-chase read of Algo 2).
    for (i, &addr) in window[..=hi.min(window.len() - 1)].iter().enumerate() {
        if i != 0 && excluded.contains(&i) {
            continue;
        }
        dev.read_u64(addr)?;
    }
    // Re-access the head and time it.
    let (_, lat) = dev.read_u64(window[0])?;
    Ok(lat > th.l2_miss)
}

/// Majority-of-`votes` wrapper around [`is_cacheline_evicted_excluding`]:
/// the black-box replacement noise occasionally evicts the seed early, so a
/// single probe near the eviction boundary is unreliable (§3.2 measures
/// ~1% / ~5% noisy samples on Pascal / Ampere).
pub fn is_cacheline_evicted_voted(
    dev: &mut GpuDevice,
    th: &Thresholds,
    window: &[VirtAddr],
    hi: usize,
    votes: usize,
    excluded: &[usize],
) -> Result<bool, MmuError> {
    let votes = votes.max(1);
    let mut yes = 0;
    for done in 1..=votes {
        if is_cacheline_evicted_excluding(dev, th, window, hi, excluded)? {
            yes += 1;
        }
        if yes * 2 > votes || (done - yes) * 2 > votes {
            break;
        }
    }
    Ok(yes * 2 > votes)
}

/// Algo 2: binary-search the minimal prefix of `window` whose chase evicts
/// `window[0]`, `max_iter` times, excluding previously found endpoints.
/// Every returned address conflicts with `window[0]` for the same L2
/// cacheline set — and therefore lives on the same VRAM channel.
///
/// `window` is a list of cacheline-stride probe addresses, physically
/// ordered, with `window[0]` being the seed.
pub fn find_cache_conflict_addrs(
    dev: &mut GpuDevice,
    th: &Thresholds,
    window: &[VirtAddr],
    max_iter: usize,
) -> Result<Vec<VirtAddr>, MmuError> {
    let mut found = Vec::new();
    let mut excluded: Vec<usize> = Vec::new();
    for _ in 0..max_iter {
        // With the already-found conflicts removed from the chase, the
        // whole remaining window must still evict — otherwise the window is
        // out of conflicting lines.
        if !is_cacheline_evicted_voted(dev, th, window, window.len() - 1, 3, &excluded)? {
            break;
        }
        let mut lo = 1usize;
        let mut hi = window.len() - 1;
        let mut conflict = hi;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if is_cacheline_evicted_voted(dev, th, window, mid, 3, &excluded)? {
                conflict = mid;
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        found.push(window[conflict]);
        excluded.push(conflict);
    }
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_spec::{GpuModel, PARTITION_BYTES};
    use mem_sim::calibrate_thresholds;

    /// Sorted-by-physical-address partition base VAs of a fresh buffer.
    fn phys_sorted_partitions(dev: &mut GpuDevice, bytes: u64) -> Vec<VirtAddr> {
        let va = dev.malloc(bytes).unwrap();
        let mut pages = dev.parse_page_table(va, bytes).unwrap();
        pages.sort_by_key(|&(_, pa)| pa.0);
        let mut parts = Vec::new();
        for (pva, _) in pages {
            for i in 0..4 {
                parts.push(pva.offset(i * PARTITION_BYTES));
            }
        }
        parts
    }

    #[test]
    fn bank_conflicts_imply_same_channel() {
        // The §5.1 observation this whole pipeline rests on, verified
        // against the oracle: every probed conflict pair shares a channel.
        let mut dev = GpuDevice::new(GpuModel::TeslaP40, 96 << 20, 21);
        let th = calibrate_thresholds(&mut dev, 1).unwrap();
        let parts = phys_sorted_partitions(&mut dev, 48 << 20);
        let seed = parts[0];
        let found =
            find_dram_conflict_addrs(&mut dev, &th, seed, &parts[1..4096.min(parts.len())], 12)
                .unwrap();
        assert!(found.len() >= 8, "too few conflicts found: {}", found.len());
        let seed_ch = dev.oracle_channel_of(seed).unwrap();
        let same = found
            .iter()
            .filter(|&&a| dev.oracle_channel_of(a).unwrap() == seed_ch)
            .count();
        // Pascal: ~1% false positives tolerated (§3.2).
        assert!(
            same * 10 >= found.len() * 9,
            "only {same}/{} conflicts share the seed channel",
            found.len()
        );
    }

    #[test]
    fn cache_conflict_addrs_share_channel_and_set() {
        let mut dev = GpuDevice::new(GpuModel::RtxA2000, 96 << 20, 33);
        let th = calibrate_thresholds(&mut dev, 2).unwrap();
        let parts = phys_sorted_partitions(&mut dev, 64 << 20);
        // Probe window: candidates in the seed's L2 set-group, so the
        // binary search has conflicting lines to find. Set-group of a
        // partition = pa bits above the partition offset (documented L2
        // geometry, verified in mem-sim).
        let sets = dev.spec().l2_sets_per_channel();
        let seed = parts[0];
        let seed_pa = dev.translate(seed).unwrap();
        let seed_group = gpu_spec::address::l2_set_group_of_partition(seed_pa.partition(), sets);
        // Same set-group candidates, each contributing the line that maps
        // to the seed's L2 set (hashed-set geometry).
        let window: Vec<VirtAddr> = std::iter::once(seed)
            .chain(parts.iter().copied().skip(1).filter_map(|p| {
                let pa = dev.translate(p).unwrap();
                (gpu_spec::address::l2_set_group_of_partition(pa.partition(), sets) == seed_group)
                    .then(|| {
                        p.offset(gpu_spec::address::same_set_line_offset(
                            seed_pa.partition(),
                            pa.partition(),
                        ))
                    })
            }))
            .take(600)
            .collect();
        assert!(window.len() >= 200, "window too small: {}", window.len());

        let found = find_cache_conflict_addrs(&mut dev, &th, &window, 6).unwrap();
        assert!(!found.is_empty(), "binary search found nothing");
        let seed_ch = dev.oracle_channel_of(seed).unwrap();
        let same = found
            .iter()
            .filter(|&&a| dev.oracle_channel_of(a).unwrap() == seed_ch)
            .count();
        assert!(
            same * 10 >= found.len() * 8,
            "only {same}/{} cache conflicts share the channel",
            found.len()
        );
    }

    #[test]
    fn eviction_needs_enough_same_set_lines() {
        // Sanity for the binary-search predicate: a short prefix never
        // evicts the seed, the full window does.
        let mut dev = GpuDevice::new(GpuModel::RtxA2000, 96 << 20, 5);
        let th = calibrate_thresholds(&mut dev, 3).unwrap();
        let parts = phys_sorted_partitions(&mut dev, 64 << 20);
        let sets = dev.spec().l2_sets_per_channel();
        let seed_pa = dev.translate(parts[0]).unwrap();
        let seed_group = gpu_spec::address::l2_set_group_of_partition(seed_pa.partition(), sets);
        let window: Vec<VirtAddr> = std::iter::once(parts[0])
            .chain(parts.iter().copied().skip(1).filter_map(|p| {
                let pa = dev.translate(p).unwrap();
                (gpu_spec::address::l2_set_group_of_partition(pa.partition(), sets) == seed_group)
                    .then(|| {
                        p.offset(gpu_spec::address::same_set_line_offset(
                            seed_pa.partition(),
                            pa.partition(),
                        ))
                    })
            }))
            .take(400)
            .collect();
        assert!(
            !is_cacheline_evicted(&mut dev, &th, &window, 4).unwrap(),
            "4 lines cannot evict a 16-way set"
        );
        assert!(
            is_cacheline_evicted(&mut dev, &th, &window, window.len() - 1).unwrap(),
            "the full window must evict the seed"
        );
    }
}
