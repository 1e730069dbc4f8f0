//! GPU MMU model: 4 KiB page tables with randomized physical backing.
//!
//! A virtual VRAM space is "randomly mapped to a part of the physical VRAM
//! space and thus the mapping between virtual VRAM addresses and VRAM
//! channel IDs changes each time the program restarts" (paper §5.1). The
//! reverse-engineering pipeline therefore first recovers physical addresses
//! by *parsing the page table entries stored in VRAM* (following paper
//! ref \[60\]); [`PageTable::parse_entries`] models exactly that step.
//!
//! The page table is also the hook the coloring driver uses: the shadow
//! page table writes the physical frame numbers of colored chunks directly
//! into the GPU page table (paper Fig. 12a step 3), which
//! [`PageTable::map_at`] supports.

use crate::address::{PhysAddr, VirtAddr, PAGE_BYTES, PAGE_SHIFT};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;

/// Errors reported by the MMU model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MmuError {
    /// Physical VRAM (the simulated window) is exhausted.
    OutOfMemory,
    /// The virtual address is not mapped.
    Unmapped(VirtAddr),
    /// The virtual page is already mapped.
    AlreadyMapped(VirtAddr),
}

impl std::fmt::Display for MmuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmuError::OutOfMemory => write!(f, "simulated VRAM exhausted"),
            MmuError::Unmapped(va) => write!(f, "virtual address {:#x} not mapped", va.0),
            MmuError::AlreadyMapped(va) => write!(f, "virtual page {:#x} already mapped", va.0),
        }
    }
}

impl std::error::Error for MmuError {}

/// A 4 KiB-page MMU with a randomized physical frame allocator.
#[derive(Debug)]
pub struct PageTable {
    vpn_to_pfn: HashMap<u64, u64>,
    /// Physical frames not currently mapped, pre-shuffled at construction
    /// so that every "process restart" (new `PageTable`) sees a different
    /// virtual→physical layout.
    free_frames: Vec<u64>,
    next_vpn: u64,
    total_frames: u64,
}

impl PageTable {
    /// Creates an MMU backing `phys_bytes` of simulated physical VRAM.
    /// `seed` randomizes the frame allocation order (a fresh seed models a
    /// process restart).
    pub fn new(phys_bytes: u64, seed: u64) -> Self {
        let total_frames = phys_bytes / PAGE_BYTES;
        let mut free_frames: Vec<u64> = (0..total_frames).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        free_frames.shuffle(&mut rng);
        Self {
            vpn_to_pfn: HashMap::new(),
            free_frames,
            // Leave VA 0 unmapped so null-ish addresses fault.
            next_vpn: 1,
            total_frames,
        }
    }

    /// Allocates `bytes` of virtually-contiguous VRAM backed by random
    /// physical frames (the behaviour of `cuMemAlloc` as observed in §5.1).
    pub fn alloc(&mut self, bytes: u64) -> Result<VirtAddr, MmuError> {
        let pages = bytes.div_ceil(PAGE_BYTES).max(1);
        if (self.free_frames.len() as u64) < pages {
            return Err(MmuError::OutOfMemory);
        }
        let base_vpn = self.next_vpn;
        for i in 0..pages {
            let pfn = self.free_frames.pop().expect("checked above");
            self.vpn_to_pfn.insert(base_vpn + i, pfn);
        }
        self.next_vpn += pages;
        Ok(VirtAddr(base_vpn << PAGE_SHIFT))
    }

    /// Maps a specific physical frame at a specific virtual page — the
    /// shadow-page-table write path (Fig. 12a ❸). The frame is *not* taken
    /// from the free list; the caller (the coloring driver pool) owns it.
    pub fn map_at(&mut self, va: VirtAddr, pa: PhysAddr) -> Result<(), MmuError> {
        let vpn = va.vpn();
        if self.vpn_to_pfn.contains_key(&vpn) {
            return Err(MmuError::AlreadyMapped(va));
        }
        self.vpn_to_pfn.insert(vpn, pa.pfn());
        self.next_vpn = self.next_vpn.max(vpn + 1);
        Ok(())
    }

    /// Unmaps `bytes` starting at `va`, returning frames to the free list.
    pub fn free(&mut self, va: VirtAddr, bytes: u64) -> Result<(), MmuError> {
        let pages = bytes.div_ceil(PAGE_BYTES).max(1);
        for i in 0..pages {
            let vpn = va.vpn() + i;
            let pfn = self
                .vpn_to_pfn
                .remove(&vpn)
                .ok_or(MmuError::Unmapped(VirtAddr(vpn << PAGE_SHIFT)))?;
            self.free_frames.push(pfn);
        }
        Ok(())
    }

    /// Page walk: virtual → physical.
    pub fn translate(&self, va: VirtAddr) -> Result<PhysAddr, MmuError> {
        let pfn = self
            .vpn_to_pfn
            .get(&va.vpn())
            .ok_or(MmuError::Unmapped(va))?;
        Ok(PhysAddr((pfn << PAGE_SHIFT) | va.page_offset()))
    }

    /// "Parsing the page table entries stored in the VRAM" (§5.1): returns
    /// the (virtual page, physical frame base) pairs covering
    /// `[va, va + bytes)`. This is what gives the reverse-engineering code
    /// physical addresses without trusting the allocator.
    pub fn parse_entries(
        &self,
        va: VirtAddr,
        bytes: u64,
    ) -> Result<Vec<(VirtAddr, PhysAddr)>, MmuError> {
        let pages = bytes.div_ceil(PAGE_BYTES).max(1);
        let mut out = Vec::with_capacity(pages as usize);
        for i in 0..pages {
            let page_va = VirtAddr((va.vpn() + i) << PAGE_SHIFT);
            let pa = self.translate(page_va)?;
            out.push((page_va, pa));
        }
        Ok(out)
    }

    /// Number of physical frames still unmapped.
    pub fn free_frames(&self) -> u64 {
        self.free_frames.len() as u64
    }

    /// Total simulated physical frames.
    pub fn total_frames(&self) -> u64 {
        self.total_frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_translate_roundtrip() {
        let mut pt = PageTable::new(1 << 20, 7);
        let va = pt.alloc(3 * PAGE_BYTES).unwrap();
        for off in [0u64, 100, PAGE_BYTES, 2 * PAGE_BYTES + 4095] {
            let pa = pt.translate(va.offset(off)).unwrap();
            assert_eq!(pa.page_offset(), off % PAGE_BYTES);
        }
    }

    #[test]
    fn different_seeds_give_different_layouts() {
        let mut a = PageTable::new(1 << 22, 1);
        let mut b = PageTable::new(1 << 22, 2);
        let va_a = a.alloc(64 * PAGE_BYTES).unwrap();
        let va_b = b.alloc(64 * PAGE_BYTES).unwrap();
        let pa_a: Vec<_> = a.parse_entries(va_a, 64 * PAGE_BYTES).unwrap();
        let pa_b: Vec<_> = b.parse_entries(va_b, 64 * PAGE_BYTES).unwrap();
        assert_ne!(
            pa_a.iter().map(|(_, p)| p.0).collect::<Vec<_>>(),
            pa_b.iter().map(|(_, p)| p.0).collect::<Vec<_>>(),
            "restart must reshuffle the physical layout"
        );
    }

    #[test]
    fn physical_frames_are_not_contiguous() {
        let mut pt = PageTable::new(1 << 24, 3);
        let va = pt.alloc(256 * PAGE_BYTES).unwrap();
        let entries = pt.parse_entries(va, 256 * PAGE_BYTES).unwrap();
        let contiguous = entries
            .windows(2)
            .filter(|w| w[1].1 .0 == w[0].1 .0 + PAGE_BYTES)
            .count();
        assert!(
            contiguous < 64,
            "random backing should rarely be contiguous ({contiguous}/255)"
        );
    }

    #[test]
    fn free_returns_frames() {
        let mut pt = PageTable::new(1 << 20, 9);
        let before = pt.free_frames();
        let va = pt.alloc(16 * PAGE_BYTES).unwrap();
        assert_eq!(pt.free_frames(), before - 16);
        pt.free(va, 16 * PAGE_BYTES).unwrap();
        assert_eq!(pt.free_frames(), before);
    }

    #[test]
    fn oom_is_reported() {
        let mut pt = PageTable::new(4 * PAGE_BYTES, 1);
        assert!(pt.alloc(16 * PAGE_BYTES).is_err());
    }

    #[test]
    fn map_at_conflicts_are_detected() {
        let mut pt = PageTable::new(1 << 20, 5);
        let va = VirtAddr(0x40_0000);
        pt.map_at(va, PhysAddr(0x1000)).unwrap();
        assert_eq!(
            pt.map_at(va, PhysAddr(0x2000)),
            Err(MmuError::AlreadyMapped(va))
        );
        assert_eq!(pt.translate(va).unwrap(), PhysAddr(0x1000));
    }

    #[test]
    fn unmapped_translation_faults() {
        let pt = PageTable::new(1 << 20, 5);
        assert!(matches!(
            pt.translate(VirtAddr(0xdead_f000)),
            Err(MmuError::Unmapped(_))
        ));
    }
}
