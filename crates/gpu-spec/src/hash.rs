//! Ground-truth VRAM channel hash mappings.
//!
//! Real NVIDIA GPUs map each physical address to a VRAM channel, an L2
//! cacheline and a DRAM bank row "through black-box hash mapping functions
//! implemented in gate circuits" (paper §2.1). The paper's key structural
//! findings (§5.2, Fig. 8–10, Tab. 4) are:
//!
//! * each contiguous 1 KiB *channel partition* maps to a single channel;
//! * contiguous partitions form *m-permutations* of small channel groups
//!   (Tesla P40: groups of 4 channels, 24 patterns; RTX A2000: groups of 2
//!   channels, 12 patterns);
//! * the patterns are uniformly distributed across the VRAM space;
//! * at most `g` KiB of contiguous space shares the same channel *set*
//!   (`g` = group size), which bounds the coloring granularity (Tab. 4);
//! * the mapping of GPUs whose channel count is not a power of two is
//!   **not** linear over GF(2), so FGPU's pure-XOR reverse engineering
//!   fails on them (§3.2).
//!
//! Two ground-truth families are provided:
//!
//! * [`XorChannelHash`] — a pure XOR fold, the structure FGPU assumes; used
//!   for the GTX 1080 model (8 channels, power of two).
//! * [`PermutationChannelHash`] — a non-linear mapping built from channel
//!   groups, per-window pattern schedules and modular (non-GF(2)) pattern
//!   selection; used for the Tesla P40 and RTX A2000 models. Non-power-of-2
//!   interleaving via small moduli mirrors what reverse engineering of CPU
//!   LLC slice hashes found for non-power-of-2 slice counts (paper refs
//!   [2, 13, 29]).
//!
//! Only the simulator queries these oracles directly. The reverse
//! engineering crate treats the device as a black box and must *recover*
//! the mapping from memory latencies alone.

use crate::address::{PhysAddr, PARTITION_BYTES};

/// Classification of a hash mapping's algebraic structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HashKind {
    /// Channel bits are XOR folds of address bits (GF(2)-linear). FGPU's
    /// Gaussian-elimination attack succeeds on this family.
    LinearXor,
    /// Group/pattern selection involves a modulo by a non-power-of-two, so
    /// the mapping is not GF(2)-linear and FGPU's attack fails.
    NonLinearPermutation,
}

/// A physical-address → VRAM-channel mapping oracle.
pub trait ChannelHash: Send + Sync {
    /// Total number of VRAM channels.
    fn num_channels(&self) -> u16;
    /// Channel that the 1 KiB partition containing `addr` maps to.
    fn channel_of(&self, addr: PhysAddr) -> u16;
    /// Algebraic structure of the mapping.
    fn kind(&self) -> HashKind;

    /// Channel of a partition index (convenience for whole-partition scans).
    fn channel_of_partition(&self, partition: u64) -> u16 {
        self.channel_of(PhysAddr(partition * PARTITION_BYTES))
    }
}

// ---------------------------------------------------------------------------
// Linear XOR hash (FGPU-compatible GPUs such as the GTX 1080)
// ---------------------------------------------------------------------------

/// GF(2)-linear channel hash: channel bit `i` is the parity of the partition
/// index ANDed with `masks[i]`.
#[derive(Debug, Clone)]
pub struct XorChannelHash {
    masks: Vec<u64>,
}

impl XorChannelHash {
    /// Builds a hash with explicit per-bit masks over the partition index.
    ///
    /// # Panics
    /// Panics if no masks are given (at least one channel bit is required).
    pub fn new(masks: Vec<u64>) -> Self {
        assert!(!masks.is_empty(), "at least one channel bit required");
        Self { masks }
    }

    /// The GTX 1080 ground truth: 8 channels. Partition bits 0 and 1 feed
    /// channel bits 0 and 1 (so 4 consecutive partitions cover a 4-channel
    /// aligned group — Tab. 4 lists 4 contiguous channels and a 4 KiB
    /// maximum coloring granularity), while channel bit 2 only folds upper
    /// bits.
    pub fn gtx1080() -> Self {
        Self::new(vec![
            // bit 0: p0 ^ p3 ^ p7 ^ p11 ^ p15 ^ p19
            0b1000_1000_1000_1000_1001,
            // bit 1: p1 ^ p4 ^ p8 ^ p12 ^ p16 ^ p20
            0b1_0001_0001_0001_0001_0010,
            // bit 2: p5 ^ p9 ^ p13 ^ p17 ^ p21 — no low partition bits, so
            // 4-partition blocks stay inside one aligned 4-channel group
            // (Tab. 4: 4 contiguous channels, 4 KiB max granularity).
            0b10_0010_0010_0010_0010_0000,
        ])
    }

    /// Per-bit masks (used by tests and by the FGPU attack validator).
    pub fn masks(&self) -> &[u64] {
        &self.masks
    }
}

#[inline]
fn parity64(v: u64) -> u64 {
    (v.count_ones() & 1) as u64
}

impl ChannelHash for XorChannelHash {
    fn num_channels(&self) -> u16 {
        1 << self.masks.len()
    }

    fn channel_of(&self, addr: PhysAddr) -> u16 {
        let p = addr.hash_input();
        let mut ch = 0u16;
        for (i, &m) in self.masks.iter().enumerate() {
            ch |= (parity64(p & m) as u16) << i;
        }
        ch
    }

    fn kind(&self) -> HashKind {
        HashKind::LinearXor
    }
}

// ---------------------------------------------------------------------------
// Non-linear permutation hash (Tesla P40, RTX A2000)
// ---------------------------------------------------------------------------

/// All permutations of `0..n` in lexicographic order (n ≤ 4 in practice).
pub fn permutations(n: usize) -> Vec<Vec<u16>> {
    fn rec(prefix: &mut Vec<u16>, rest: &mut Vec<u16>, out: &mut Vec<Vec<u16>>) {
        if rest.is_empty() {
            out.push(prefix.clone());
            return;
        }
        for i in 0..rest.len() {
            let v = rest.remove(i);
            prefix.push(v);
            rec(prefix, rest, out);
            prefix.pop();
            rest.insert(i, v);
        }
    }
    let mut out = Vec::new();
    rec(&mut Vec::new(), &mut (0..n as u16).collect(), &mut out);
    out
}

/// Six block-group arrangements of the multiset {0,0,1,1,2,2} used to place
/// the three channel groups inside one window. Every arrangement contains
/// each group exactly twice (channels stay perfectly uniform), and each
/// group's slot *pair* is distinct across all six arrangements — which is
/// what makes the per-group pattern census (Fig. 8) count
/// `6 × order_classes` distinct m-permutation patterns.
const GROUP_ARRANGEMENTS: [[u8; 6]; 6] = [
    [0, 1, 2, 0, 1, 2], // G0:{0,3} G1:{1,4} G2:{2,5}
    [0, 1, 2, 1, 2, 0], // G0:{0,5} G1:{1,3} G2:{2,4}
    [0, 1, 2, 2, 0, 1], // G0:{0,4} G1:{1,5} G2:{2,3}
    [1, 2, 0, 2, 0, 1], // G0:{2,4} G1:{0,5} G2:{1,3}
    [2, 0, 1, 0, 1, 2], // G0:{1,3} G1:{2,4} G2:{0,5}
    [2, 0, 0, 1, 2, 1], // G0:{1,2} G1:{3,5} G2:{0,4}
];

/// Non-linear channel hash reproducing the §5.2 permutation structure.
///
/// The physical partition space is tiled with *windows* of
/// `6 × group_size` partitions. Each window consists of six `group_size`-KiB
/// *blocks*; a block maps entirely to one channel group and covers every
/// channel of that group exactly once, in a pattern-dependent order. The
/// window's *pattern index* is `window mod num_patterns` — a modulo by a
/// non-power-of-two, which is what breaks GF(2) linearity.
#[derive(Debug, Clone)]
pub struct PermutationChannelHash {
    num_groups: u16,
    group_size: u16,
    /// `layouts[k][slot]` = channel of partition slot `slot` in a window
    /// with pattern `k`.
    layouts: Vec<Vec<u16>>,
}

impl PermutationChannelHash {
    /// Builds the mapping for `num_groups` channel groups of `group_size`
    /// channels each, with `num_patterns` distinct window layouts.
    ///
    /// # Panics
    /// Panics unless `num_groups == 3` (the structure found on both GPUs),
    /// `group_size` is a power of two and `num_patterns` is a multiple of
    /// the number of arrangements (6).
    pub fn new(num_groups: u16, group_size: u16, num_patterns: usize) -> Self {
        assert_eq!(num_groups, 3, "paper layout uses three channel groups");
        assert!(group_size.is_power_of_two());
        assert!(
            num_patterns.is_multiple_of(GROUP_ARRANGEMENTS.len()),
            "num_patterns must be a multiple of 6"
        );
        let g = group_size as usize;
        let perms = permutations(g);
        let orders_per_arr = num_patterns / GROUP_ARRANGEMENTS.len();
        assert!(
            orders_per_arr <= perms.len(),
            "not enough distinct channel orders for the requested patterns"
        );

        let mut layouts = Vec::with_capacity(num_patterns);
        for k in 0..num_patterns {
            let arr = &GROUP_ARRANGEMENTS[k % GROUP_ARRANGEMENTS.len()];
            let order_class = k / GROUP_ARRANGEMENTS.len();
            let mut layout = Vec::with_capacity(6 * g);
            let mut seen_per_group = [0usize; 3];
            for &grp in arr.iter() {
                let occurrence = seen_per_group[grp as usize];
                seen_per_group[grp as usize] += 1;
                // Each of the group's two blocks gets a distinct channel
                // order derived from the pattern's order class.
                let pidx = (order_class + grp as usize + occurrence * (perms.len() / 2).max(1))
                    % perms.len();
                for &local in &perms[pidx] {
                    layout.push(grp as u16 * group_size + local);
                }
            }
            layouts.push(layout);
        }
        Self {
            num_groups,
            group_size,
            layouts,
        }
    }

    /// Tesla P40 ground truth: 12 channels, 3 groups of 4, 24 patterns.
    pub fn tesla_p40() -> Self {
        Self::new(3, 4, 24)
    }

    /// RTX A2000 ground truth: 6 channels, 3 groups of 2, 12 patterns.
    pub fn rtx_a2000() -> Self {
        Self::new(3, 2, 12)
    }

    /// Number of 1 KiB partitions per window.
    pub fn window_partitions(&self) -> u64 {
        (6 * self.group_size) as u64
    }

    /// Number of distinct window layouts.
    pub fn num_patterns(&self) -> usize {
        self.layouts.len()
    }

    /// Channels of one full window layout (ground truth; simulator only).
    pub fn layout(&self, pattern: usize) -> &[u16] {
        &self.layouts[pattern]
    }

    /// Channel group size (the paper's "# contiguous VRAM channels").
    pub fn group_size(&self) -> u16 {
        self.group_size
    }

    /// Number of channel groups.
    pub fn num_groups(&self) -> u16 {
        self.num_groups
    }
}

impl ChannelHash for PermutationChannelHash {
    fn num_channels(&self) -> u16 {
        self.num_groups * self.group_size
    }

    fn channel_of(&self, addr: PhysAddr) -> u16 {
        let p = addr.hash_input();
        let w = self.window_partitions();
        let slot = (p % w) as usize;
        let pattern = ((p / w) % self.layouts.len() as u64) as usize;
        self.layouts[pattern][slot]
    }

    fn kind(&self) -> HashKind {
        HashKind::NonLinearPermutation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::PhysAddr;

    fn channel_census(hash: &dyn ChannelHash, partitions: u64) -> Vec<u64> {
        let mut counts = vec![0u64; hash.num_channels() as usize];
        for p in 0..partitions {
            counts[hash.channel_of_partition(p) as usize] += 1;
        }
        counts
    }

    #[test]
    fn permutations_cardinality() {
        assert_eq!(permutations(2).len(), 2);
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(permutations(4).len(), 24);
        // Every permutation is a bijection on 0..n.
        for p in permutations(4) {
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn gtx1080_is_uniform_and_linear() {
        let h = XorChannelHash::gtx1080();
        assert_eq!(h.num_channels(), 8);
        assert_eq!(h.kind(), HashKind::LinearXor);
        let counts = channel_census(&h, 1 << 14);
        for &c in &counts {
            assert_eq!(c, (1 << 14) / 8, "XOR hash must be perfectly uniform");
        }
    }

    #[test]
    fn gtx1080_blocks_of_four_partitions_cover_one_group() {
        // Tab. 4: GTX 1080 has 4 contiguous VRAM channels and a 4 KiB
        // maximum coloring granularity.
        let h = XorChannelHash::gtx1080();
        for block in 0..4096u64 {
            let chans: Vec<u16> = (0..4)
                .map(|s| h.channel_of(PhysAddr((block * 4 + s) * 1024)))
                .collect();
            let group = chans[0] & !0b11;
            for &c in &chans {
                assert_eq!(c & !0b11, group, "block {block} straddles groups");
            }
            let mut sorted = chans.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "block must cover all 4 group channels");
        }
    }

    #[test]
    fn gtx1080_is_gf2_linear() {
        // channel(a ^ b) == channel(a) ^ channel(b) on partition indices.
        let h = XorChannelHash::gtx1080();
        for a in [0u64, 3, 17, 129, 4095, 91234] {
            for b in [1u64, 5, 64, 777, 10240] {
                let ca = h.channel_of(PhysAddr(a << 10));
                let cb = h.channel_of(PhysAddr(b << 10));
                let cab = h.channel_of(PhysAddr((a ^ b) << 10));
                assert_eq!(cab, ca ^ cb);
            }
        }
    }

    #[test]
    fn p40_structure() {
        let h = PermutationChannelHash::tesla_p40();
        assert_eq!(h.num_channels(), 12);
        assert_eq!(h.num_patterns(), 24);
        assert_eq!(h.window_partitions(), 24);
        assert_eq!(h.kind(), HashKind::NonLinearPermutation);
    }

    #[test]
    fn a2000_structure() {
        let h = PermutationChannelHash::rtx_a2000();
        assert_eq!(h.num_channels(), 6);
        assert_eq!(h.num_patterns(), 12);
        assert_eq!(h.window_partitions(), 12);
    }

    #[test]
    fn permutation_hash_uniformity() {
        // Fig. 9: all patterns uniformly distributed ⇒ channel counts equal
        // over whole windows.
        for h in [
            PermutationChannelHash::tesla_p40(),
            PermutationChannelHash::rtx_a2000(),
        ] {
            let span = h.window_partitions() * h.num_patterns() as u64 * 4;
            let counts = channel_census(&h, span);
            let expect = span / h.num_channels() as u64;
            for (ch, &c) in counts.iter().enumerate() {
                assert_eq!(c, expect, "channel {ch} not uniform");
            }
        }
    }

    #[test]
    fn blocks_cover_exactly_one_group() {
        // §5.2 / Tab. 4: at most g KiB shares the same channel set, and a
        // g-KiB aligned block covers each channel of one group exactly once.
        for h in [
            PermutationChannelHash::tesla_p40(),
            PermutationChannelHash::rtx_a2000(),
        ] {
            let g = h.group_size() as u64;
            for block in 0..(6 * h.num_patterns() as u64 * 3) {
                let chans: Vec<u16> = (0..g)
                    .map(|s| h.channel_of_partition(block * g + s))
                    .collect();
                let grp = chans[0] / h.group_size();
                let mut set: Vec<u16> = chans.iter().map(|c| c / h.group_size()).collect();
                set.dedup();
                assert!(set.iter().all(|&x| x == grp), "block straddles groups");
                let mut sorted = chans;
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), g as usize, "block repeats a channel");
            }
        }
    }

    #[test]
    fn layouts_are_distinct() {
        for h in [
            PermutationChannelHash::tesla_p40(),
            PermutationChannelHash::rtx_a2000(),
        ] {
            for i in 0..h.num_patterns() {
                for j in (i + 1)..h.num_patterns() {
                    assert_ne!(h.layout(i), h.layout(j), "patterns {i} and {j} collide");
                }
            }
        }
    }

    #[test]
    fn permutation_hash_is_not_gf2_linear() {
        // The property FGPU relies on must *fail* here (§3.2).
        let h = PermutationChannelHash::rtx_a2000();
        let mut violations = 0;
        let mut total = 0;
        for a in 0u64..64 {
            for b in 0u64..64 {
                let ca = h.channel_of_partition(a);
                let cb = h.channel_of_partition(b);
                let cab = h.channel_of_partition(a ^ b);
                total += 1;
                if cab != ca ^ cb {
                    violations += 1;
                }
            }
        }
        assert!(
            violations * 2 > total,
            "mapping unexpectedly close to GF(2)-linear: {violations}/{total}"
        );
    }

    #[test]
    fn per_group_pattern_census_matches_fig8() {
        // Fig. 8 counts patterns *per channel group*: the (slot, channel)
        // signature of one group inside aligned windows. The paper reports
        // 24 patterns for P40 groups and 12 for A2000 groups.
        for (h, expect) in [
            (PermutationChannelHash::tesla_p40(), 24usize),
            (PermutationChannelHash::rtx_a2000(), 12usize),
        ] {
            let w = h.window_partitions();
            for group in 0..h.num_groups() {
                let mut seen = std::collections::BTreeSet::new();
                for win in 0..(expect as u64 * 8) {
                    let sig: Vec<(u64, u16)> = (0..w)
                        .map(|s| (s, h.channel_of_partition(win * w + s)))
                        .filter(|&(_, c)| c / h.group_size() == group)
                        .collect();
                    seen.insert(sig);
                }
                assert_eq!(seen.len(), expect, "group {group} pattern count");
            }
        }
    }

    #[test]
    fn pattern_census_matches_m_permutation_claim() {
        // Count distinct per-window layouts observed in a long scan; the
        // paper reports 24 patterns (P40) and 12 (A2000).
        for (h, expect) in [
            (PermutationChannelHash::tesla_p40(), 24),
            (PermutationChannelHash::rtx_a2000(), 12),
        ] {
            let w = h.window_partitions();
            let mut seen = std::collections::BTreeSet::new();
            for win in 0..(expect as u64 * 8) {
                let sig: Vec<u16> = (0..w)
                    .map(|s| h.channel_of_partition(win * w + s))
                    .collect();
                seen.insert(sig);
            }
            assert_eq!(seen.len(), expect, "observed pattern count");
        }
    }
}
