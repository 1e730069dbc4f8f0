//! Physical / virtual address model of NVIDIA GPUs (paper Fig. 10).
//!
//! The paper's reverse engineering established the following structure for
//! the physical address bits of post-Pascal NVIDIA GPUs:
//!
//! ```text
//! x34 .. x12 | x11 x10 | x9 x8 x7 | x6 .. x0
//!            |         |          +-- offset inside a 128 B L2 cacheline
//!            |         +------------- offset inside a 1 KiB channel partition
//!            +----------------------- 4 KiB MMU page boundary at bit 12
//! bits 10..=34 form the input of the VRAM channel hash mapping function
//! ```
//!
//! Every contiguous 1 KiB of physical VRAM (a *channel partition*) belongs to
//! a single VRAM channel (paper §5.2). This module provides strongly typed
//! address wrappers and the bit arithmetic shared by the whole workspace.

/// log2 of the L2 cacheline size (128 B).
pub const CACHELINE_SHIFT: u32 = 7;
/// L2 cacheline size in bytes.
pub const CACHELINE_BYTES: u64 = 1 << CACHELINE_SHIFT;

/// log2 of the channel-partition size (1 KiB). Each partition maps entirely
/// to one VRAM channel (paper Fig. 10).
pub const PARTITION_SHIFT: u32 = 10;
/// Channel-partition size in bytes.
pub const PARTITION_BYTES: u64 = 1 << PARTITION_SHIFT;

/// log2 of the minimal page size supported by the GPU MMU (4 KiB).
pub const PAGE_SHIFT: u32 = 12;
/// Minimal MMU page size in bytes.
pub const PAGE_BYTES: u64 = 1 << PAGE_SHIFT;

/// Highest physical address bit that participates in the channel hash
/// (bit 34 ⇒ up to 32 GiB of physical VRAM).
pub const MAX_HASH_BIT: u32 = 34;

/// A physical VRAM address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

/// A virtual address inside one GPU context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(pub u64);

impl PhysAddr {
    /// Index of the 1 KiB channel partition containing this address.
    #[inline]
    pub fn partition(self) -> u64 {
        self.0 >> PARTITION_SHIFT
    }

    /// Index of the 128 B cacheline containing this address.
    #[inline]
    pub fn cacheline(self) -> u64 {
        self.0 >> CACHELINE_SHIFT
    }

    /// Physical page frame number (4 KiB frames).
    #[inline]
    pub fn pfn(self) -> u64 {
        self.0 >> PAGE_SHIFT
    }

    /// Byte offset inside the 4 KiB page.
    #[inline]
    pub fn page_offset(self) -> u64 {
        self.0 & (PAGE_BYTES - 1)
    }

    /// The bits that feed the channel hash mapping function
    /// (bits `PARTITION_SHIFT ..= MAX_HASH_BIT`, i.e. the partition index
    /// truncated to 25 bits).
    #[inline]
    pub fn hash_input(self) -> u64 {
        (self.0 >> PARTITION_SHIFT) & ((1 << (MAX_HASH_BIT - PARTITION_SHIFT + 1)) - 1)
    }

    /// First address of the partition containing this address.
    #[inline]
    pub fn partition_base(self) -> PhysAddr {
        PhysAddr(self.0 & !(PARTITION_BYTES - 1))
    }

    #[inline]
    pub fn offset(self, bytes: u64) -> PhysAddr {
        PhysAddr(self.0 + bytes)
    }
}

impl VirtAddr {
    /// Virtual page frame number (4 KiB frames).
    #[inline]
    pub fn vpn(self) -> u64 {
        self.0 >> PAGE_SHIFT
    }

    /// Byte offset inside the 4 KiB page.
    #[inline]
    pub fn page_offset(self) -> u64 {
        self.0 & (PAGE_BYTES - 1)
    }

    #[inline]
    pub fn offset(self, bytes: u64) -> VirtAddr {
        VirtAddr(self.0 + bytes)
    }
}

impl From<u64> for PhysAddr {
    fn from(v: u64) -> Self {
        PhysAddr(v)
    }
}

impl From<u64> for VirtAddr {
    fn from(v: u64) -> Self {
        VirtAddr(v)
    }
}

/// L2 set index of a cacheline. NVIDIA L2 slices hash the set index by
/// folding higher cacheline bits into the low bits (micro-benchmarking
/// literature, paper ref \[30\]); this decorrelates set placement from the
/// channel interleaving. Shared between the simulator and the probing code
/// — the geometry is public knowledge, unlike the channel hash.
#[inline]
pub fn l2_set_of(cacheline: u64, sets_per_slice: u64) -> u64 {
    (cacheline ^ (cacheline >> 8)) & (sets_per_slice - 1)
}

/// Injective cacheline tag/set key used by the L2 model (invertible
/// xor-shift, so distinct cachelines keep distinct tags).
#[inline]
pub fn l2_set_key(cacheline: u64) -> u64 {
    cacheline ^ (cacheline >> 8)
}

/// The *set group* of a 1 KiB partition: its eight cachelines occupy eight
/// consecutive hashed sets, and this index identifies that aligned block of
/// eight sets. Two partitions with equal set groups contend for the same L2
/// sets of their respective channels.
#[inline]
pub fn l2_set_group_of_partition(partition: u64, sets_per_slice: u64) -> u64 {
    let base_line = partition << 3;
    ((base_line ^ (partition >> 5)) & (sets_per_slice - 1)) >> 3
}

/// Byte offset of the cacheline inside partition `other` that maps to the
/// same L2 set as the *base* cacheline of partition `cand` (both partitions
/// must share a set group). Follows directly from [`l2_set_of`]: line `i`
/// of partition `p` lands in set `(8p + i) ^ (p >> 5)` (mod sets), so the
/// matching line index is the XOR of the two partitions' high-bit folds.
#[inline]
pub fn same_set_line_offset(cand_partition: u64, other_partition: u64) -> u64 {
    (((cand_partition >> 5) ^ (other_partition >> 5)) & 7) * CACHELINE_BYTES
}

/// Renders the Fig. 10 address-bit diagram for documentation binaries.
pub fn address_bit_diagram() -> String {
    let mut s = String::new();
    s.push_str("NVIDIA GPU physical address bit structure (paper Fig. 10)\n");
    s.push_str("bit 34..12 : input of the VRAM channel hash mapping (with bits 11..10)\n");
    s.push_str("bit 12     : minimal page size supported by the GPU MMU (4 KiB)\n");
    s.push_str("bit 11..10 : offset of 1 KiB channel partitions inside a page\n");
    s.push_str("bit  9..7  : DRAM bank row offset / offset in channel partition\n");
    s.push_str("bit  6..0  : offset inside a 128 B L2 cacheline\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_arithmetic() {
        let a = PhysAddr(0x12345678);
        assert_eq!(a.partition(), 0x12345678 >> 10);
        assert_eq!(a.partition_base().0 % PARTITION_BYTES, 0);
        assert!(a.0 - a.partition_base().0 < PARTITION_BYTES);
    }

    #[test]
    fn page_arithmetic() {
        let a = PhysAddr(0xABCD_E123);
        assert_eq!(a.pfn() << PAGE_SHIFT | a.page_offset(), a.0);
        let v = VirtAddr(0xABCD_E123);
        assert_eq!(v.vpn() << PAGE_SHIFT | v.page_offset(), v.0);
    }

    #[test]
    fn four_partitions_per_page() {
        // Bits 10 and 11 select one of four 1 KiB partitions inside a 4 KiB
        // page — the structural fact that forces sub-page coloring (§6).
        assert_eq!(PAGE_BYTES / PARTITION_BYTES, 4);
    }

    #[test]
    fn hash_input_is_partition_truncated() {
        let a = PhysAddr((1 << 35) | 0x400);
        // Bit 35 is outside the hash input range.
        assert_eq!(a.hash_input(), 1);
    }

    #[test]
    fn cacheline_within_partition() {
        assert_eq!(PARTITION_BYTES / CACHELINE_BYTES, 8);
        let a = PhysAddr(0x1000);
        assert_eq!(a.cacheline(), 0x1000 >> 7);
    }

    #[test]
    fn diagram_mentions_all_fields() {
        let d = address_bit_diagram();
        assert!(d.contains("4 KiB"));
        assert!(d.contains("128 B"));
        assert!(d.contains("1 KiB"));
    }
}
