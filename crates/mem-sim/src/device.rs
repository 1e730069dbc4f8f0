//! The address-level GPU device: MMU + L2 slices + DRAM channels + storage.
//!
//! This is the black box the reverse-engineering pipeline probes. It exposes
//! exactly what real hardware exposes:
//!
//! * `malloc` / `free` — virtually contiguous allocations with randomized
//!   physical backing (`cuMemAlloc` behaviour, §5.1);
//! * `parse_page_table` — the PTE-parsing trick of paper ref [60] used to
//!   learn physical addresses;
//! * timed loads (`read_u64`, `timed_pair`) whose latencies reflect L2
//!   hits/misses, DRAM row conflicts and cache-policy noise.
//!
//! The ground-truth channel hash lives inside and is *never* exposed to the
//! probing code — tests that need it for verification fetch it from
//! `gpu_spec` directly and say so.

use crate::dram::{DramChannel, RowOutcome};
use crate::l2::{L2Outcome, L2Slice};
use gpu_spec::{ChannelHash, GpuModel, GpuSpec, MmuError, PageTable, PhysAddr, VirtAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Running access statistics (observable via profiling tools on real HW).
#[derive(Debug, Clone, Default)]
pub struct AccessStats {
    pub loads: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub row_conflicts: u64,
    pub per_channel_accesses: Vec<u64>,
}

/// The simulated GPU memory subsystem.
pub struct GpuDevice {
    spec: GpuSpec,
    hash: Box<dyn ChannelHash>,
    l2: Vec<L2Slice>,
    dram: Vec<DramChannel>,
    page_table: PageTable,
    /// Sparse word storage keyed by 8-byte-aligned physical address.
    store: HashMap<u64, u64>,
    rng: StdRng,
    clock: u64,
    stats: AccessStats,
}

/// log2 of the DRAM row span in physical address space (128 KiB).
const ROW_SHIFT: u32 = 17;

impl GpuDevice {
    /// Creates a device for `model`, backing `sim_vram_bytes` of physical
    /// VRAM (a window of the real card's capacity — the hash mapping is
    /// identical across the whole space, so a window suffices for probing).
    pub fn new(model: GpuModel, sim_vram_bytes: u64, seed: u64) -> Self {
        let spec = model.spec();
        assert!(
            sim_vram_bytes <= spec.vram_bytes,
            "simulated window exceeds the card's VRAM"
        );
        let hash = model.channel_hash();
        let l2 = (0..spec.num_channels)
            .map(|_| {
                L2Slice::new(
                    spec.l2_sets_per_channel(),
                    spec.l2_ways,
                    spec.cache_noise_rate,
                )
            })
            .collect();
        let dram = (0..spec.num_channels)
            .map(|_| DramChannel::new(spec.dram_banks_per_channel, ROW_SHIFT))
            .collect();
        let stats = AccessStats {
            per_channel_accesses: vec![0; spec.num_channels as usize],
            ..Default::default()
        };
        Self {
            spec,
            hash,
            l2,
            dram,
            page_table: PageTable::new(sim_vram_bytes, seed),
            store: HashMap::new(),
            rng: StdRng::seed_from_u64(seed ^ 0x5f5f_5f5f),
            clock: 0,
            stats,
        }
    }

    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Device clock in cycles; advances with every access.
    pub fn now(&self) -> u64 {
        self.clock
    }

    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    // -- driver-visible allocation API ------------------------------------

    /// Allocates `bytes` of device memory (virtually contiguous).
    pub fn malloc(&mut self, bytes: u64) -> Result<VirtAddr, MmuError> {
        self.page_table.alloc(bytes)
    }

    /// Frees a prior allocation.
    pub fn free(&mut self, va: VirtAddr, bytes: u64) -> Result<(), MmuError> {
        self.page_table.free(va, bytes)
    }

    /// Unallocated device memory in bytes.
    pub fn free_bytes(&self) -> u64 {
        self.page_table.free_frames() * gpu_spec::PAGE_BYTES
    }

    /// The PTE-parsing primitive of §5.1 (paper ref [60]).
    pub fn parse_page_table(
        &self,
        va: VirtAddr,
        bytes: u64,
    ) -> Result<Vec<(VirtAddr, PhysAddr)>, MmuError> {
        self.page_table.parse_entries(va, bytes)
    }

    /// Translates a virtual address (page walk; no timing side effects).
    pub fn translate(&self, va: VirtAddr) -> Result<PhysAddr, MmuError> {
        self.page_table.translate(va)
    }

    // -- timed memory operations ------------------------------------------

    /// Physical load returning its latency in cycles. Updates L2/DRAM state.
    pub fn access_phys(&mut self, pa: PhysAddr) -> u64 {
        let latency = self.access_inner(pa);
        self.clock += latency;
        latency
    }

    fn access_inner(&mut self, pa: PhysAddr) -> u64 {
        let ch = self.hash.channel_of(pa) as usize;
        self.stats.loads += 1;
        self.stats.per_channel_accesses[ch] += 1;
        let jitter = self.rng.gen_range(0..6);
        match self.l2[ch].access(gpu_spec::address::l2_set_key(pa.cacheline()), &mut self.rng) {
            L2Outcome::Hit => {
                self.stats.l2_hits += 1;
                self.spec.l2_hit_latency + jitter
            }
            L2Outcome::Miss(_) => {
                self.stats.l2_misses += 1;
                match self.dram[ch].access(pa) {
                    RowOutcome::RowHit | RowOutcome::RowEmpty => self.spec.dram_latency + jitter,
                    RowOutcome::RowConflict => {
                        self.stats.row_conflicts += 1;
                        self.spec.dram_latency + self.spec.bank_conflict_penalty + jitter
                    }
                }
            }
        }
    }

    /// Timed virtual load: returns `(value, latency_cycles)`.
    pub fn read_u64(&mut self, va: VirtAddr) -> Result<(u64, u64), MmuError> {
        let pa = self.page_table.translate(va)?;
        let lat = self.access_phys(pa);
        Ok((self.store.get(&(pa.0 & !7)).copied().unwrap_or(0), lat))
    }

    /// Timed virtual store.
    pub fn write_u64(&mut self, va: VirtAddr, value: u64) -> Result<u64, MmuError> {
        let pa = self.page_table.translate(va)?;
        let lat = self.access_phys(pa);
        self.store.insert(pa.0 & !7, value);
        Ok(lat)
    }

    /// Two loads issued concurrently by different warps (Algo 1's probe).
    ///
    /// Semantics: when both loads miss L2 and land on the same DRAM bank in
    /// different rows, they serialize and pay the activation penalty; on
    /// different channels (or banks) they proceed in parallel.
    pub fn timed_pair(&mut self, va0: VirtAddr, va1: VirtAddr) -> Result<u64, MmuError> {
        let pa0 = self.page_table.translate(va0)?;
        let pa1 = self.page_table.translate(va1)?;
        let ch0 = self.hash.channel_of(pa0) as usize;
        let ch1 = self.hash.channel_of(pa1) as usize;
        let bank_conflict = ch0 == ch1 && self.dram[ch0].conflicts(pa0, pa1);
        let l0 = self.access_inner(pa0);
        let l1 = self.access_inner(pa1);
        let both_missed = l0 >= self.spec.dram_latency && l1 >= self.spec.dram_latency;
        let mut elapsed = if bank_conflict && both_missed {
            // Sequential bank service + extra row thrash.
            l0 + l1 + self.spec.bank_conflict_penalty
        } else if ch0 == ch1 && both_missed {
            // Same channel: MSHR/queue overlap, mostly parallel.
            l0.max(l1) + 24
        } else {
            l0.max(l1)
        };
        // Black-box latency spikes (TLB walks, refresh, policy quirks).
        // The per-probe spike rate is two orders of magnitude below the
        // cache-policy noise rate; combined with the ~1% true-conflict
        // density of a linear scan this yields the ~1% (Pascal) / ~5%
        // (Ampere) false-positive fraction among *collected* conflict
        // samples that §3.2/§5.3 report.
        if self.rng.gen_bool(self.spec.cache_noise_rate * 0.01) {
            elapsed += self.spec.dram_latency + self.spec.bank_conflict_penalty;
        }
        self.clock += elapsed;
        Ok(elapsed)
    }

    // -- cache maintenance --------------------------------------------------

    /// Invalidates the entire L2 and closes every DRAM row buffer (models
    /// the `RefreshL2(v)` pointer-chase sweep of Algo 1 without paying
    /// millions of simulated loads; see `pchase::refresh_via_scan` for the
    /// faithful variant used in tests). Its simulated cost is zero: the
    /// clock does not move. Its host cost is proportional to the L2 sets
    /// and DRAM banks touched since the previous flush, not to the size
    /// of the cache.
    pub fn flush_l2(&mut self) {
        for slice in &mut self.l2 {
            slice.flush();
        }
        for ch in &mut self.dram {
            ch.precharge_all();
        }
    }

    /// Whether the cacheline containing `va` is L2-resident (test-only
    /// introspection; not available on real hardware).
    pub fn probe_l2(&self, va: VirtAddr) -> Result<bool, MmuError> {
        let pa = self.page_table.translate(va)?;
        let ch = self.hash.channel_of(pa) as usize;
        Ok(self.l2[ch].probe(gpu_spec::address::l2_set_key(pa.cacheline())))
    }

    /// Ground-truth channel of a virtual address. **Verification only** —
    /// probing code must not call this.
    pub fn oracle_channel_of(&self, va: VirtAddr) -> Result<u16, MmuError> {
        let pa = self.page_table.translate(va)?;
        Ok(self.hash.channel_of(pa))
    }

    /// Ground-truth channel of a physical address (verification only).
    pub fn oracle_channel_of_phys(&self, pa: PhysAddr) -> u16 {
        self.hash.channel_of(pa)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> GpuDevice {
        GpuDevice::new(GpuModel::RtxA2000, 64 << 20, 1)
    }

    #[test]
    fn miss_then_hit_latency_gap() {
        let mut d = device();
        let va = d.malloc(4096).unwrap();
        let (_, miss) = d.read_u64(va).unwrap();
        let (_, hit) = d.read_u64(va).unwrap();
        assert!(miss > hit + 100, "miss {miss} vs hit {hit}");
    }

    #[test]
    fn store_load_roundtrip() {
        let mut d = device();
        let va = d.malloc(4096).unwrap();
        d.write_u64(va.offset(128), 0xDEAD_BEEF).unwrap();
        let (v, _) = d.read_u64(va.offset(128)).unwrap();
        assert_eq!(v, 0xDEAD_BEEF);
    }

    #[test]
    fn flush_forces_misses() {
        let mut d = device();
        let va = d.malloc(4096).unwrap();
        d.read_u64(va).unwrap();
        d.flush_l2();
        let (_, lat) = d.read_u64(va).unwrap();
        assert!(lat >= d.spec().dram_latency);
    }

    #[test]
    fn clock_advances_with_accesses() {
        let mut d = device();
        let va = d.malloc(4096).unwrap();
        let t0 = d.now();
        d.read_u64(va).unwrap();
        assert!(d.now() > t0);
    }

    #[test]
    fn timed_pair_detects_bank_conflicts() {
        // Find two VAs whose PAs conflict (same channel+bank, diff rows)
        // using the oracle, then check the latency signal Algo 1 relies on.
        let mut d = GpuDevice::new(GpuModel::TeslaP40, 64 << 20, 7);
        let bytes = 16 << 20;
        let va = d.malloc(bytes).unwrap();
        let entries = d.parse_page_table(va, bytes).unwrap();
        let base_va = entries[0].0;
        let base_pa = entries[0].1;
        let base_ch = d.oracle_channel_of_phys(base_pa);
        let dram_probe = DramChannel::new(d.spec().dram_banks_per_channel, ROW_SHIFT);

        let mut conflicting = None;
        let mut non_conflicting = None;
        for (cva, cpa) in entries.iter().skip(1) {
            let same_ch = d.oracle_channel_of_phys(*cpa) == base_ch;
            if same_ch && dram_probe.conflicts(base_pa, *cpa) && conflicting.is_none() {
                conflicting = Some(*cva);
            }
            if !same_ch && non_conflicting.is_none() {
                non_conflicting = Some(*cva);
            }
            if conflicting.is_some() && non_conflicting.is_some() {
                break;
            }
        }
        let (cva, nva) = (conflicting.unwrap(), non_conflicting.unwrap());

        let mut lat_conflict = Vec::new();
        let mut lat_clean = Vec::new();
        for _ in 0..16 {
            d.flush_l2();
            lat_conflict.push(d.timed_pair(base_va, cva).unwrap());
            d.flush_l2();
            lat_clean.push(d.timed_pair(base_va, nva).unwrap());
        }
        let avg = |v: &[u64]| v.iter().sum::<u64>() / v.len() as u64;
        assert!(
            avg(&lat_conflict) > avg(&lat_clean) + d.spec().bank_conflict_penalty,
            "conflict {} vs clean {}",
            avg(&lat_conflict),
            avg(&lat_clean)
        );
    }

    #[test]
    fn channel_accesses_are_balanced() {
        // Streaming a large buffer must hit all channels roughly equally —
        // the uniformity property the hash guarantees (§2.1).
        let mut d = device();
        let bytes = 8 << 20;
        let va = d.malloc(bytes).unwrap();
        let mut off = 0;
        while off < bytes {
            d.read_u64(va.offset(off)).unwrap();
            off += 128;
        }
        let counts = &d.stats().per_channel_accesses;
        let total: u64 = counts.iter().sum();
        let expect = total / counts.len() as u64;
        for (ch, &c) in counts.iter().enumerate() {
            assert!(
                c > expect * 9 / 10 && c < expect * 11 / 10,
                "channel {ch}: {c} vs ~{expect}"
            );
        }
    }

    #[test]
    fn oracle_matches_spec_channel_range() {
        let mut d = device();
        let va = d.malloc(1 << 20).unwrap();
        for off in (0..(1 << 20)).step_by(1024) {
            let ch = d.oracle_channel_of(va.offset(off)).unwrap();
            assert!(ch < d.spec().num_channels);
        }
    }
}
