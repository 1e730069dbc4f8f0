//! GPU MMU model: 4 KiB page tables with randomized physical backing.
//!
//! A virtual VRAM space is "randomly mapped to a part of the physical VRAM
//! space and thus the mapping between virtual VRAM addresses and VRAM
//! channel IDs changes each time the program restarts" (paper §5.1). The
//! reverse-engineering pipeline therefore first recovers physical addresses
//! by *parsing the page table entries stored in VRAM* (following paper
//! ref \[60\]); [`PageTable::parse_entries`] models exactly that step.
//! The coloring driver's shadow page table (paper Fig. 12a step 3) returns
//! its entries as data (`ColoredPool::page_table_entries`) and writes
//! nothing here.
//!
//! Virtual pages are handed out contiguously from 1 and never reused, so
//! the table is a dense vector indexed by virtual page number and a page
//! walk is one bounds-checked load.

use crate::address::{PhysAddr, VirtAddr, PAGE_BYTES, PAGE_SHIFT};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Errors reported by the MMU model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MmuError {
    /// Physical VRAM (the simulated window) is exhausted.
    OutOfMemory,
    /// The virtual address is not mapped.
    Unmapped(VirtAddr),
}

impl std::fmt::Display for MmuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmuError::OutOfMemory => write!(f, "simulated VRAM exhausted"),
            MmuError::Unmapped(va) => write!(f, "virtual address {:#x} not mapped", va.0),
        }
    }
}

impl std::error::Error for MmuError {}

/// Marks an unmapped virtual page in [`PageTable`]'s frame vector. No
/// frame has this number: frame numbers are byte addresses shifted right
/// by [`PAGE_SHIFT`].
const UNMAPPED: u64 = u64::MAX;

/// A 4 KiB-page MMU with a randomized physical frame allocator.
#[derive(Debug)]
pub struct PageTable {
    /// `pfns[vpn]` is the frame backing virtual page `vpn`, or
    /// [`UNMAPPED`]. Its length is the next virtual page to hand out;
    /// page 0 stays unmapped so that null-ish addresses fault.
    pfns: Vec<u64>,
    /// Physical frames not currently mapped, pre-shuffled at construction
    /// so that every "process restart" (new `PageTable`) sees a different
    /// virtual→physical layout.
    free_frames: Vec<u64>,
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
            pfns: vec![UNMAPPED],
            free_frames,
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
        let base_vpn = self.pfns.len() as u64;
        // Pages take frames from the end of the shuffled free list, the
        // last frame first.
        let keep = self.free_frames.len() - pages as usize;
        self.pfns.extend(self.free_frames.drain(keep..).rev());
        Ok(VirtAddr(base_vpn << PAGE_SHIFT))
    }

    /// The frame backing virtual page `vpn`, if it is mapped.
    fn pfn(&self, vpn: u64) -> Option<u64> {
        let pfn = *self.pfns.get(vpn as usize)?;
        (pfn != UNMAPPED).then_some(pfn)
    }

    /// Unmaps `bytes` starting at `va`, returning frames to the free list.
    /// All or nothing: if any page of the range is unmapped, nothing is
    /// freed and the error names the first such page.
    pub fn free(&mut self, va: VirtAddr, bytes: u64) -> Result<(), MmuError> {
        let pages = va.vpn()..va.vpn() + bytes.div_ceil(PAGE_BYTES).max(1);
        if let Some(vpn) = pages.clone().find(|&vpn| self.pfn(vpn).is_none()) {
            return Err(MmuError::Unmapped(VirtAddr(vpn << PAGE_SHIFT)));
        }
        for vpn in pages {
            let pfn = std::mem::replace(&mut self.pfns[vpn as usize], UNMAPPED);
            self.free_frames.push(pfn);
        }
        Ok(())
    }

    /// Page walk: virtual → physical.
    pub fn translate(&self, va: VirtAddr) -> Result<PhysAddr, MmuError> {
        let pfn = self.pfn(va.vpn()).ok_or(MmuError::Unmapped(va))?;
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

    /// A free that reaches an unmapped page changes nothing: no frame
    /// returns to the free list, so none can be handed out twice.
    #[test]
    fn failed_free_changes_nothing() {
        let mut pt = PageTable::new(1 << 20, 5);
        let va = pt.alloc(2 * PAGE_BYTES).unwrap();
        let mapped = pt.parse_entries(va, 2 * PAGE_BYTES).unwrap();
        let free = pt.free_frames();
        assert_eq!(
            pt.free(va, 3 * PAGE_BYTES),
            Err(MmuError::Unmapped(va.offset(2 * PAGE_BYTES)))
        );
        assert_eq!(pt.free_frames(), free);
        assert_eq!(pt.parse_entries(va, 2 * PAGE_BYTES).unwrap(), mapped);
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
