//! VRAM channel marking — paper Algo 3 with per-channel conflict pools.
//!
//! The marker discovers *channel classes* without any oracle:
//!
//! 1. For an unlabeled seed partition, collect bank-conflicting partitions
//!    (Algo 1 scan) — these provably share the seed's channel (§5.1) up to
//!    the ~1–5% false-positive rate caused by black-box latency noise.
//! 2. Organize the collected partitions into *set-group bins* so that, for
//!    any candidate, the pool contains enough same-set cachelines to
//!    populate the candidate's L2 set completely (the "populate all
//!    available L2 cachelines in the channel" step of §5.1, restricted to
//!    the relevant set — the L2 set-index geometry is public knowledge from
//!    the micro-benchmarking literature, paper ref \[30\]).
//! 3. Classify any address by reading it, chasing a pool, and re-timing it
//!    (Algo 3): an L2 miss ⇒ the pool's channel evicted it ⇒ same channel.
//!
//! Crucially — Fig. 11 — pool pollution from false-positive conflict
//! samples does **not** corrupt the marking: a few foreign lines cannot
//! fill another channel's cache set, so the eviction verdict stays correct.
//! This is the noise tolerance FGPU's equation system lacks.

use crate::probe::{is_cacheline_evicted, is_dram_bank_conflicted};
use gpu_spec::{MmuError, PhysAddr, VirtAddr, PAGE_BYTES, PARTITION_BYTES};
use mem_sim::{calibrate_thresholds, GpuDevice, Thresholds};
use std::collections::HashMap;

/// A discovered channel class (an opaque label; real channel IDs are only
/// used for verification, mirroring the paper's A/B/C… letters).
pub type ClassId = u16;

/// Tuning knobs for the marker.
#[derive(Debug, Clone)]
pub struct MarkerConfig {
    /// Probe-buffer size in bytes; 0 = allocate the whole simulated window
    /// (needed when a physically contiguous region must be marked).
    pub buffer_bytes: u64,
    /// Pool depth per set-group bin, on top of the L2 associativity.
    /// `ways + margin` lines keep ≥`ways` *true* same-channel lines per bin
    /// even when a few false-positive conflict samples pollute the pool
    /// (~3% from bank probes, up to ~20% from Algo 2 expansion) — if the
    /// true count drops below the associativity, misclassification becomes
    /// systematic rather than noisy.
    pub bin_margin: usize,
    /// Eviction-test repetitions; the majority verdict wins.
    pub vote_rounds: usize,
    /// Upper bound on bank-conflict probes per pool build.
    pub bank_scan_limit: usize,
    /// Seed for threshold calibration.
    pub calibration_seed: u64,
}

impl Default for MarkerConfig {
    fn default() -> Self {
        Self {
            buffer_bytes: 0,
            bin_margin: 6,
            vote_rounds: 3,
            bank_scan_limit: 1_000_000,
            calibration_seed: 0xC0FFEE,
        }
    }
}

/// One pool member: a partition known (with high confidence) to live on
/// this pool's channel.
#[derive(Debug, Clone, Copy)]
struct PoolEntry {
    /// Physical partition index (public via PTE parsing).
    partition: u64,
    /// Virtual address of the partition base.
    base: VirtAddr,
}

/// Per-channel conflict pool: partitions binned by L2 set-group.
#[derive(Debug, Clone)]
pub struct ChannelPool {
    /// `bins[g]` = partitions whose eight lines fall in set-group `g`.
    bins: Vec<Vec<PoolEntry>>,
}

impl ChannelPool {
    fn new(num_set_groups: usize) -> Self {
        Self {
            bins: vec![Vec::new(); num_set_groups],
        }
    }

    fn is_complete(&self, depth: usize) -> bool {
        self.bins.iter().all(|b| b.len() >= depth)
    }

    fn shallowest(&self) -> usize {
        self.bins.iter().map(Vec::len).min().unwrap_or(0)
    }
}

/// Errors from the marking pipeline.
#[derive(Debug)]
pub enum MarkError {
    Mmu(MmuError),
    /// A pool could not be completed within the scan budget.
    IncompletePool {
        class: ClassId,
        shallowest_bin: usize,
        needed: usize,
    },
    /// The requested physical range is not fully covered by the buffer.
    UncoveredRange(PhysAddr),
}

impl From<MmuError> for MarkError {
    fn from(e: MmuError) -> Self {
        MarkError::Mmu(e)
    }
}

impl std::fmt::Display for MarkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MarkError::Mmu(e) => write!(f, "mmu error: {e}"),
            MarkError::IncompletePool {
                class,
                shallowest_bin,
                needed,
            } => write!(
                f,
                "pool for class {class} incomplete: shallowest bin {shallowest_bin} < {needed}"
            ),
            MarkError::UncoveredRange(pa) => {
                write!(
                    f,
                    "physical address {:#x} not covered by the probe buffer",
                    pa.0
                )
            }
        }
    }
}

impl std::error::Error for MarkError {}

/// The channel-marking engine.
pub struct ChannelMarker<'d> {
    dev: &'d mut GpuDevice,
    th: Thresholds,
    cfg: MarkerConfig,
    /// Partition bases sorted by physical address (each partition once,
    /// so a binary search finds a physical partition index).
    partitions: Vec<(PhysAddr, VirtAddr)>,
    pools: Vec<ChannelPool>,
    sets_per_slice: u64,
    bin_depth: usize,
    /// Class of the previously classified candidate (patterns have spatial
    /// locality, so trying it first saves probes).
    last_class: ClassId,
}

impl<'d> ChannelMarker<'d> {
    /// Allocates the probe buffer, parses its page-table entries (§5.1,
    /// ref \[60\]) and calibrates latency thresholds.
    pub fn new(dev: &'d mut GpuDevice, cfg: MarkerConfig) -> Result<Self, MarkError> {
        let th = calibrate_thresholds(dev, cfg.calibration_seed)?;
        let bytes = if cfg.buffer_bytes == 0 {
            page_floor(available_bytes(dev))
        } else {
            cfg.buffer_bytes
        };
        let va = dev.malloc(bytes)?;
        // Physical pages are distinct and page-aligned, so expanding the
        // sorted pages yields the partitions sorted by physical address.
        let mut pages = dev.parse_page_table(va, bytes)?;
        pages.sort_unstable_by_key(|&(_, pa)| pa.0);
        let mut partitions = Vec::with_capacity(pages.len() * 4);
        for (pva, ppa) in pages {
            for i in 0..PAGE_BYTES / PARTITION_BYTES {
                partitions.push((
                    ppa.offset(i * PARTITION_BYTES),
                    pva.offset(i * PARTITION_BYTES),
                ));
            }
        }
        let sets_per_slice = dev.spec().l2_sets_per_channel();
        let bin_depth = dev.spec().l2_ways as usize + cfg.bin_margin;
        Ok(Self {
            dev,
            th,
            cfg,
            partitions,
            pools: Vec::new(),
            sets_per_slice,
            bin_depth,
            last_class: 0,
        })
    }

    /// Calibrated thresholds in use.
    pub fn thresholds(&self) -> Thresholds {
        self.th
    }

    /// Number of channel classes discovered so far.
    pub fn num_classes(&self) -> usize {
        self.pools.len()
    }

    fn set_group(&self, pa: PhysAddr) -> usize {
        gpu_spec::address::l2_set_group_of_partition(pa.partition(), self.sets_per_slice) as usize
    }

    /// Longest physically contiguous run of covered partitions; returns
    /// `(start_index, length)`.
    pub fn longest_contiguous_run(&self) -> (usize, usize) {
        let mut best = (0, 0);
        let mut start = 0;
        for i in 1..=self.partitions.len() {
            let broken = i == self.partitions.len()
                || self.partitions[i].0 .0 != self.partitions[i - 1].0 .0 + PARTITION_BYTES;
            if broken {
                if i - start > best.1 {
                    best = (start, i - start);
                }
                start = i;
            }
        }
        best
    }

    // -- Algo 3 step 1+2: pool construction --------------------------------

    fn build_pool(&mut self, seed_index: usize) -> Result<ChannelPool, MarkError> {
        let num_set_groups =
            (self.sets_per_slice / (PARTITION_BYTES / gpu_spec::CACHELINE_BYTES)) as usize;
        let mut pool = ChannelPool::new(num_set_groups);
        let (seed_pa, seed_va) = self.partitions[seed_index];
        pool.bins[self.set_group(seed_pa)].push(PoolEntry {
            partition: seed_pa.partition(),
            base: seed_va,
        });

        let n = self.partitions.len();
        let mut probes = 0usize;
        // Scan forward from the seed, wrapping, in strides that visit every
        // DRAM row quickly (bank conflicts require distinct rows).
        let mut i = (seed_index + 1) % n;
        while probes < self.cfg.bank_scan_limit && !pool.is_complete(self.bin_depth) {
            let (pa, va) = self.partitions[i];
            let g = self.set_group(pa);
            if pool.bins[g].len() < self.bin_depth + 2 {
                let conflicted = is_dram_bank_conflicted(self.dev, &self.th, seed_va, va)?;
                probes += 1;
                if conflicted {
                    pool.bins[g].push(PoolEntry {
                        partition: pa.partition(),
                        base: va,
                    });
                }
            }
            i = (i + 1) % n;
            if i == seed_index {
                i = (i + 1) % n;
            }
            if probes >= n {
                break;
            }
        }
        // Bank conflicts only reach the seed's own DRAM bank class (1/16 of
        // the channel's partitions). Top up shallow bins through Algo 2 —
        // the paper's own chaining: cache-conflict search finds same-channel
        // lines in *other* banks (§5.1 step 1, `CacheConflictAddrs`).
        for g in 0..num_set_groups {
            if pool.bins[g].len() < self.bin_depth {
                self.expand_bin_via_cache_conflicts(&mut pool, g)?;
            }
        }
        if !pool.is_complete(self.bin_depth) {
            return Err(MarkError::IncompletePool {
                class: self.pools.len() as ClassId,
                shallowest_bin: pool.shallowest(),
                needed: self.bin_depth,
            });
        }
        Ok(pool)
    }

    /// Algo 2 expansion of one set-group bin: seed the binary search with a
    /// known pool member and harvest additional same-(channel, set) lines
    /// from the unclassified partitions of the same set group. For every
    /// candidate partition the window contains the one line that maps to
    /// the anchor's L2 set (hashed-set geometry, `same_set_line_offset`).
    fn expand_bin_via_cache_conflicts(
        &mut self,
        pool: &mut ChannelPool,
        g: usize,
    ) -> Result<(), MarkError> {
        let Some(&anchor) = pool.bins[g].first() else {
            return Ok(());
        };
        let known: Vec<u64> = pool.bins[g].iter().map(|e| e.partition).collect();
        let mut window = Vec::with_capacity(512);
        let mut origin: HashMap<u64, PoolEntry> = HashMap::new();
        window.push(anchor.base);
        for &(pa, va) in &self.partitions {
            let p = pa.partition();
            if self.set_group(pa) == g && !known.contains(&p) {
                let line = va.offset(gpu_spec::address::same_set_line_offset(anchor.partition, p));
                origin.insert(
                    line.0,
                    PoolEntry {
                        partition: p,
                        base: va,
                    },
                );
                window.push(line);
                if window.len() >= 512 {
                    break;
                }
            }
        }
        let need = self.bin_depth + 2 - pool.bins[g].len();
        let found = crate::probe::find_cache_conflict_addrs(self.dev, &self.th, &window, need)?;
        for f in found {
            if let Some(&entry) = origin.get(&f.0) {
                pool.bins[g].push(entry);
            }
        }
        Ok(())
    }

    // -- Algo 3 step 3: eviction-based classification ----------------------

    /// Single eviction probe: does `pool` evict the candidate's first line?
    /// Each of the bin's first `depth` members contributes the one
    /// cacheline that shares the candidate's L2 set (hashed-set geometry).
    fn evicts_once(
        &mut self,
        class: ClassId,
        cand_partition: u64,
        cand_va: VirtAddr,
        bin: usize,
        depth: usize,
    ) -> Result<bool, MmuError> {
        let lines: Vec<VirtAddr> = self.pools[class as usize].bins[bin]
            .iter()
            .filter(|e| e.partition != cand_partition)
            .take(depth)
            .map(|e| {
                e.base.offset(gpu_spec::address::same_set_line_offset(
                    cand_partition,
                    e.partition,
                ))
            })
            .collect();
        let mut window = Vec::with_capacity(lines.len() + 1);
        window.push(cand_va);
        window.extend(lines);
        is_cacheline_evicted(self.dev, &self.th, &window, window.len() - 1)
    }

    fn evicts(
        &mut self,
        class: ClassId,
        cand_pa: PhysAddr,
        cand_va: VirtAddr,
        depth: usize,
    ) -> Result<bool, MmuError> {
        let bin = self.set_group(cand_pa);
        let cand_partition = cand_pa.partition();
        let rounds = self.cfg.vote_rounds.max(1);
        let mut yes = 0;
        for r in 0..rounds {
            if self.evicts_once(class, cand_partition, cand_va, bin, depth)? {
                yes += 1;
            }
            if yes * 2 > rounds || (r + 1 - yes) * 2 > rounds {
                break; // majority decided
            }
        }
        Ok(yes * 2 > rounds)
    }

    /// Classifies one partition, creating a new class (and its pool) when
    /// no existing pool claims it.
    pub fn classify(&mut self, index: usize) -> Result<ClassId, MarkError> {
        let (pa, va) = self.partitions[index];
        // Locality: try the previous class first.
        let mut order: Vec<ClassId> = (0..self.pools.len() as ClassId).collect();
        if let Some(pos) = order.iter().position(|&c| c == self.last_class) {
            order.swap(0, pos);
        }
        // Vote at the working depth first. When no pool claims the
        // partition, vote once more with every line of each pool's bin
        // before opening a class: false-positive foreign lines among a
        // bin's first `bin_depth` can leave fewer than `l2_ways` true
        // lines, and then the miss is systematic, not noise.
        for depth in [self.bin_depth, usize::MAX] {
            for &class in &order {
                if self.evicts(class, pa, va, depth)? {
                    self.last_class = class;
                    return Ok(class);
                }
            }
        }
        let pool = self.build_pool(index)?;
        self.pools.push(pool);
        let class = (self.pools.len() - 1) as ClassId;
        self.last_class = class;
        Ok(class)
    }

    /// Marks `count` partitions starting from buffer index `start`
    /// (physically ordered). Returns `(physical address, class)` pairs.
    pub fn mark_indexed(
        &mut self,
        start: usize,
        count: usize,
    ) -> Result<Vec<(PhysAddr, ClassId)>, MarkError> {
        let mut out = Vec::with_capacity(count);
        for i in start..(start + count).min(self.partitions.len()) {
            let class = self.classify(i)?;
            out.push((self.partitions[i].0, class));
        }
        Ok(out)
    }

    /// Marks every covered partition of the physical range
    /// `[base, base + bytes)`; errors if the range is not fully covered.
    pub fn mark_phys_range(
        &mut self,
        base: PhysAddr,
        bytes: u64,
    ) -> Result<Vec<(PhysAddr, ClassId)>, MarkError> {
        let first = base.partition();
        let count = bytes / PARTITION_BYTES;
        let mut out = Vec::with_capacity(count as usize);
        for p in first..first + count {
            let idx = self
                .partitions
                .binary_search_by_key(&p, |&(pa, _)| pa.partition())
                .map_err(|_| MarkError::UncoveredRange(PhysAddr(p * PARTITION_BYTES)))?;
            let class = self.classify(idx)?;
            out.push((self.partitions[idx].0, class));
        }
        Ok(out)
    }
}

fn page_floor(v: u64) -> u64 {
    v & !(PAGE_BYTES - 1)
}

fn available_bytes(dev: &GpuDevice) -> u64 {
    dev.free_bytes()
}

/// Aligns discovered class labels with oracle channel IDs by majority
/// matching; returns `(class → channel map, agreement fraction)`.
/// **Verification only** — uses the ground-truth oracle.
pub fn align_classes(
    labels: &[(PhysAddr, ClassId)],
    oracle: impl Fn(PhysAddr) -> u16,
    num_channels: u16,
) -> (Vec<Option<u16>>, f64) {
    let num_classes = labels
        .iter()
        .map(|&(_, c)| c)
        .max()
        .map_or(0, |m| m as usize + 1);
    let mut votes = vec![vec![0u64; num_channels as usize]; num_classes];
    for &(pa, class) in labels {
        votes[class as usize][oracle(pa) as usize] += 1;
    }
    let mut mapping: Vec<Option<u16>> = vec![None; num_classes];
    let mut taken = vec![false; num_channels as usize];
    // Greedy assignment by descending vote count.
    let mut entries: Vec<(u64, usize, usize)> = votes
        .iter()
        .enumerate()
        .flat_map(|(c, row)| row.iter().enumerate().map(move |(ch, &v)| (v, c, ch)))
        .collect();
    entries.sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
    for (v, class, ch) in entries {
        if v == 0 || mapping[class].is_some() || taken[ch] {
            continue;
        }
        mapping[class] = Some(ch as u16);
        taken[ch] = true;
    }
    let correct = labels
        .iter()
        .filter(|&&(pa, class)| mapping[class as usize] == Some(oracle(pa)))
        .count();
    (mapping, correct as f64 / labels.len().max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_spec::GpuModel;

    /// End-to-end marking on an A2000 window; verified against the oracle.
    /// This is the crate's heaviest test (a few seconds) and the backbone
    /// of Fig. 8.
    #[test]
    fn marking_recovers_channels_a2000() {
        let mut dev = GpuDevice::new(GpuModel::RtxA2000, 96 << 20, 99);
        let mut marker = ChannelMarker::new(&mut dev, MarkerConfig::default()).unwrap();
        let (start, len) = marker.longest_contiguous_run();
        assert!(len >= 72, "need a contiguous run, got {len}");
        let count = len.min(144);
        let labels = marker.mark_indexed(start, count).unwrap();
        assert_eq!(labels.len(), count);
        // The exact simulated output of this run: a flush that left a
        // stale line or an open row would move these counts while the
        // accuracy check below kept passing.
        drop(marker);
        let s = dev.stats();
        assert_eq!(
            (s.loads, s.l2_hits, s.l2_misses, s.row_conflicts),
            (893_152, 933, 892_219, 20_524)
        );
        assert_eq!(
            s.per_channel_accesses,
            [152_462, 152_663, 146_642, 146_579, 147_530, 147_276]
        );
        assert_eq!(dev.now(), 194_825_554);
        #[rustfmt::skip]
        const PINNED: [ClassId; 144] = [
            0, 1, 2, 3, 4, 5, 1, 0, 3, 2, 5, 4, 0, 1, 2, 3, 4, 5, 3, 2, 5, 4, 1, 0,
            0, 1, 2, 3, 4, 5, 5, 4, 1, 0, 3, 2, 2, 3, 4, 5, 0, 1, 5, 4, 1, 0, 3, 2,
            4, 5, 0, 1, 2, 3, 1, 0, 3, 2, 5, 4, 4, 5, 0, 1, 1, 0, 2, 3, 5, 4, 3, 2,
            1, 0, 3, 2, 5, 4, 0, 1, 2, 3, 4, 5, 1, 0, 3, 2, 5, 4, 2, 3, 4, 5, 0, 1,
            1, 0, 3, 2, 5, 4, 4, 5, 0, 1, 2, 3, 3, 2, 5, 4, 1, 0, 4, 5, 0, 1, 2, 3,
            5, 4, 1, 0, 3, 2, 0, 1, 2, 3, 4, 5, 5, 4, 1, 0, 0, 1, 3, 2, 4, 5, 2, 3,
        ];
        assert_eq!(start, 0);
        let expected: Vec<(PhysAddr, ClassId)> = PINNED
            .iter()
            .enumerate()
            .map(|(i, &c)| (PhysAddr(i as u64 * PARTITION_BYTES), c))
            .collect();
        assert_eq!(labels, expected);

        let classes: std::collections::BTreeSet<_> = labels.iter().map(|&(_, c)| c).collect();
        assert_eq!(classes.len(), 6, "A2000 has 6 channels");

        // Oracle check (verification only).
        let hash = GpuModel::RtxA2000.channel_hash();
        let (_, acc) = align_classes(&labels, |pa| hash.channel_of(pa), 6);
        assert!(acc > 0.95, "marking accuracy {acc}");
    }

    /// Regression: on these two devices a partition's own pool once
    /// missed it at the working depth (foreign lines crowded the bin's
    /// first `bin_depth`), so marking opened a seventh class at
    /// partitions 135 and 167. The full-bin re-vote must keep six.
    #[test]
    fn full_bin_revote_keeps_six_classes_a2000() {
        for (device_seed, calibration_seed, count) in [
            (0xcf54_6a05_0f4d_aa5c, 0x8e1a_29f8_69e6_3697, 160),
            (0x23e1_2946_1da3_4889, 0x8cf8_6cc1_3cba_7a66, 176),
        ] {
            let mut dev = GpuDevice::new(GpuModel::RtxA2000, 96 << 20, device_seed);
            let cfg = MarkerConfig {
                calibration_seed,
                ..MarkerConfig::default()
            };
            let mut marker = ChannelMarker::new(&mut dev, cfg).unwrap();
            let (start, len) = marker.longest_contiguous_run();
            assert!(len >= count, "need a contiguous run of {count}, got {len}");
            let labels = marker.mark_indexed(start, count).unwrap();
            let classes: std::collections::BTreeSet<_> = labels.iter().map(|&(_, c)| c).collect();
            assert_eq!(
                classes.len(),
                6,
                "device seed {device_seed:#x}: A2000 has 6 channels"
            );
        }
    }

    #[test]
    fn partition_granularity_is_1kib() {
        // §5.2: each contiguous 1 KiB belongs to one channel, and adjacent
        // partitions (within a group block) differ. Verify by marking the
        // 8 cachelines of a few partitions individually.
        let mut dev = GpuDevice::new(GpuModel::RtxA2000, 96 << 20, 7);
        let mut marker = ChannelMarker::new(&mut dev, MarkerConfig::default()).unwrap();
        let (start, len) = marker.longest_contiguous_run();
        assert!(len >= 4);
        // Mark four adjacent partitions; a 2-KiB block boundary must show
        // two distinct classes overall (group size 2 ⇒ pairs differ).
        let labels = marker.mark_indexed(start, 4).unwrap();
        let distinct: std::collections::BTreeSet<_> = labels.iter().map(|&(_, c)| c).collect();
        assert!(
            distinct.len() >= 2,
            "adjacent partitions must hit ≥2 channels"
        );
    }

    /// `mark_phys_range` looks each physical partition up in the sorted
    /// buffer: a covered range yields its partitions in order, and the
    /// first uncovered partition is reported by address.
    #[test]
    fn mark_phys_range_looks_up_physical_partitions() {
        let mut dev = GpuDevice::new(GpuModel::RtxA2000, 96 << 20, 7);
        let mut marker = ChannelMarker::new(&mut dev, MarkerConfig::default()).unwrap();
        let (start, len) = marker.longest_contiguous_run();
        assert!(len >= 4);
        let base = marker.partitions[start + len - 4].0;
        let labels = marker.mark_phys_range(base, 4 * PARTITION_BYTES).unwrap();
        let addrs: Vec<PhysAddr> = labels.iter().map(|&(pa, _)| pa).collect();
        let expected: Vec<PhysAddr> = (0..4).map(|i| base.offset(i * PARTITION_BYTES)).collect();
        assert_eq!(addrs, expected);
        // The run ends at its last partition, so the next one is not in
        // the buffer; neither is anything past the simulated window.
        let last = marker.partitions[start + len - 1].0;
        let past_run = last.offset(PARTITION_BYTES);
        assert!(matches!(
            marker.mark_phys_range(last, 2 * PARTITION_BYTES),
            Err(MarkError::UncoveredRange(pa)) if pa == past_run
        ));
        let past_window = PhysAddr(96 << 20);
        assert!(matches!(
            marker.mark_phys_range(past_window, PARTITION_BYTES),
            Err(MarkError::UncoveredRange(pa)) if pa == past_window
        ));
    }
}
