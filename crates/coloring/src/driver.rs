//! The shadow-page-table driver pool (paper Fig. 12a).
//!
//! The `nvidia-uvm` patch reserves a physical memory pool, splits every
//! 4 KiB frame into `4/n` sectors of `n` KiB, labels each sector with its
//! *color* — the channel group its partitions map to, read from the learned
//! lookup table (§5.3) — and keeps free lists of chunks per
//! `(color, sector-id)`. A colored allocation takes chunks of the requested
//! color and writes the frame numbers into the GPU page table; the kernel's
//! array indices are then re-mapped so the tensor only touches its own
//! sectors (see [`crate::transform`]).

use crate::granularity::{sectors_per_page, GranularityKib};
use gpu_spec::{PhysAddr, VirtAddr, PAGE_BYTES, PARTITION_BYTES};
use std::collections::HashMap;

/// A color: the canonical identifier of the channel set a sector maps to
/// (for group-sized granularity this is the channel-group index; for 1 KiB
/// granularity it is the channel itself).
pub type Color = u16;

/// One free chunk: a sector of a reserved physical frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Physical frame number inside the reserved pool.
    pub pfn: u64,
    /// Sector index within the frame (0 .. 4/n).
    pub sector: u32,
}

/// A colored allocation: enough chunks to hold `logical_bytes`, all of the
/// requested colors, plus the virtual base the tensor is mapped at.
#[derive(Debug, Clone)]
pub struct ColoredAlloc {
    pub va: VirtAddr,
    pub logical_bytes: u64,
    /// One chunk per `granularity` of logical data, in logical order.
    pub chunks: Vec<Chunk>,
    pub granularity: GranularityKib,
    /// Sector index the transformed kernel addresses (uniform across the
    /// allocation so a single `+ sector × size` argument shift suffices).
    pub sector: u32,
}

impl ColoredAlloc {
    /// Virtual bytes consumed (logical bytes × sectors-per-page blow-up:
    /// the transformed index space strides over unused sectors).
    pub fn virtual_bytes(&self) -> u64 {
        self.logical_bytes * sectors_per_page(self.granularity) as u64
    }
}

/// Errors from the colored allocator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// Not enough chunks of the requested colors remain.
    OutOfColoredMemory { color: Color, sector: u32 },
    /// The allocation handle is unknown (double free).
    UnknownAlloc,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::OutOfColoredMemory { color, sector } => {
                write!(f, "no free chunks of color {color} sector {sector}")
            }
            PoolError::UnknownAlloc => write!(f, "unknown allocation handle"),
        }
    }
}

impl std::error::Error for PoolError {}

/// The reserved pool with per-(color, sector) chunk lists.
#[derive(Debug)]
pub struct ColoredPool {
    granularity: GranularityKib,
    sectors: u32,
    /// Free chunk lists keyed by (color, sector index).
    free: HashMap<(Color, u32), Vec<Chunk>>,
    /// `(pfn, sector) → color` side table for O(1) frees.
    color_table: HashMap<(u64, u32), Color>,
    /// Virtual address bump allocator for colored mappings.
    next_va: u64,
    total_chunks: usize,
    /// Live allocations (handle = va.0).
    live: HashMap<u64, ColoredAlloc>,
}

impl ColoredPool {
    /// Builds the pool over physical frames `[first_frame, first_frame +
    /// frames)`, coloring each sector via `color_of_partition` — in the
    /// real system this closure reads the learned lookup table; tests may
    /// pass the oracle and say so.
    pub fn new(
        first_frame: u64,
        frames: u64,
        granularity: GranularityKib,
        color_of_partition: impl Fn(u64) -> Color,
    ) -> Self {
        let sectors = sectors_per_page(granularity);
        let partitions_per_sector = granularity.bytes() / PARTITION_BYTES;
        let mut free: HashMap<(Color, u32), Vec<Chunk>> = HashMap::new();
        let mut color_table = HashMap::new();
        let mut total = 0usize;
        for pfn in first_frame..first_frame + frames {
            let first_partition = pfn * (PAGE_BYTES / PARTITION_BYTES);
            for sector in 0..sectors {
                // All partitions of one sector share a color by the Tab. 4
                // granularity rule; take the first partition's color.
                let color =
                    color_of_partition(first_partition + sector as u64 * partitions_per_sector);
                free.entry((color, sector))
                    .or_default()
                    .push(Chunk { pfn, sector });
                color_table.insert((pfn, sector), color);
                total += 1;
            }
        }
        Self {
            granularity,
            sectors,
            free,
            color_table,
            next_va: 0x4000_0000_0000, // colored mappings live in their own VA region
            total_chunks: total,
            live: HashMap::new(),
        }
    }

    pub fn granularity(&self) -> GranularityKib {
        self.granularity
    }

    /// Free chunks of one color across all sector positions.
    pub fn free_chunks_of_color(&self, color: Color) -> usize {
        (0..self.sectors)
            .map(|s| self.free.get(&(color, s)).map_or(0, Vec::len))
            .sum()
    }

    pub fn total_chunks(&self) -> usize {
        self.total_chunks
    }

    /// Colors with at least one free chunk.
    pub fn available_colors(&self) -> Vec<Color> {
        let mut colors: Vec<Color> = self.free.keys().map(|&(c, _)| c).collect();
        colors.sort_unstable();
        colors.dedup();
        colors
    }

    /// Allocates `logical_bytes` across chunks whose color is in `colors`,
    /// all at the same sector position (so one argument shift suffices —
    /// Fig. 12c). Chooses the sector position with the most free chunks.
    pub fn alloc_colored(
        &mut self,
        colors: &[Color],
        logical_bytes: u64,
    ) -> Result<ColoredAlloc, PoolError> {
        let need = logical_bytes.div_ceil(self.granularity.bytes()).max(1) as usize;
        // Pick the sector position with the deepest combined free lists.
        let sector = (0..self.sectors)
            .max_by_key(|&s| {
                colors
                    .iter()
                    .map(|&c| self.free.get(&(c, s)).map_or(0, Vec::len))
                    .sum::<usize>()
            })
            .unwrap_or(0);
        let available: usize = colors
            .iter()
            .map(|&c| self.free.get(&(c, sector)).map_or(0, Vec::len))
            .sum();
        if available < need {
            return Err(PoolError::OutOfColoredMemory {
                color: colors.first().copied().unwrap_or(0),
                sector,
            });
        }
        let mut chunks = Vec::with_capacity(need);
        let mut color_cursor = 0usize;
        while chunks.len() < need {
            let c = colors[color_cursor % colors.len()];
            color_cursor += 1;
            if let Some(list) = self.free.get_mut(&(c, sector)) {
                if let Some(chunk) = list.pop() {
                    chunks.push(chunk);
                }
            }
        }
        let va = VirtAddr(self.next_va);
        // Virtual span: one page per chunk (the tensor strides sectors).
        self.next_va += (need as u64) * PAGE_BYTES;
        let alloc = ColoredAlloc {
            va,
            logical_bytes,
            chunks,
            granularity: self.granularity,
            sector,
        };
        self.live.insert(va.0, alloc.clone());
        Ok(alloc)
    }

    /// Returns an allocation's chunks to the free lists.
    pub fn free_colored(&mut self, va: VirtAddr) -> Result<(), PoolError> {
        let alloc = self.live.remove(&va.0).ok_or(PoolError::UnknownAlloc)?;
        for chunk in alloc.chunks {
            // Color is recoverable from the chunk position; key lists by
            // re-deriving via the stored mapping: we track it implicitly by
            // storing chunks back under their (color, sector). Since color
            // is not stored in Chunk, keep a reverse map.
            self.reinsert(chunk);
        }
        Ok(())
    }

    fn reinsert(&mut self, chunk: Chunk) {
        let color = self.color_table[&(chunk.pfn, chunk.sector)];
        self.free
            .entry((color, chunk.sector))
            .or_default()
            .push(chunk);
    }

    /// Color of a pool chunk.
    pub fn color_of(&self, chunk: Chunk) -> Color {
        self.color_table[&(chunk.pfn, chunk.sector)]
    }

    /// Page-table entries an allocation needs: `(virtual page, physical
    /// frame)` pairs in logical order (Fig. 12a ❸).
    pub fn page_table_entries(&self, alloc: &ColoredAlloc) -> Vec<(VirtAddr, PhysAddr)> {
        alloc
            .chunks
            .iter()
            .enumerate()
            .map(|(i, ch)| {
                (
                    VirtAddr(alloc.va.0 + i as u64 * PAGE_BYTES),
                    PhysAddr(ch.pfn * PAGE_BYTES),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::granularity::GranularityKib;
    use gpu_spec::GpuModel;

    /// Pool over the A2000 oracle LUT at 2 KiB granularity: sector color =
    /// channel-group index.
    fn a2000_pool(frames: u64) -> ColoredPool {
        let hash = GpuModel::RtxA2000.channel_hash();
        ColoredPool::new(0, frames, GranularityKib(2), move |p| {
            hash.channel_of_partition(p) / 2
        })
    }

    #[test]
    fn pool_enumerates_all_sectors() {
        let pool = a2000_pool(256);
        assert_eq!(pool.total_chunks(), 256 * 2);
        assert_eq!(pool.available_colors(), vec![0, 1, 2]);
    }

    #[test]
    fn colors_are_balanced() {
        let pool = a2000_pool(384);
        let counts: Vec<usize> = (0..3).map(|c| pool.free_chunks_of_color(c)).collect();
        let total: usize = counts.iter().sum();
        assert_eq!(total, 384 * 2);
        for &c in &counts {
            assert!(
                c * 4 > total,
                "uniform hash must balance colors: {counts:?}"
            );
        }
    }

    #[test]
    fn alloc_respects_colors() {
        let mut pool = a2000_pool(256);
        let alloc = pool.alloc_colored(&[1], 64 * 1024).unwrap();
        assert_eq!(alloc.chunks.len(), 32);
        for &ch in &alloc.chunks {
            assert_eq!(pool.color_of(ch), 1);
        }
        // All chunks share a sector position (single argument shift).
        assert!(alloc.chunks.iter().all(|c| c.sector == alloc.sector));
    }

    #[test]
    fn alloc_and_free_round_trip() {
        let mut pool = a2000_pool(128);
        let before = pool.free_chunks_of_color(0);
        let alloc = pool.alloc_colored(&[0], 16 * 1024).unwrap();
        assert_eq!(pool.free_chunks_of_color(0), before - 8);
        pool.free_colored(alloc.va).unwrap();
        assert_eq!(pool.free_chunks_of_color(0), before);
        assert_eq!(pool.free_colored(alloc.va), Err(PoolError::UnknownAlloc));
    }

    #[test]
    fn exhaustion_is_reported() {
        let mut pool = a2000_pool(16);
        assert!(matches!(
            pool.alloc_colored(&[0], 1 << 20),
            Err(PoolError::OutOfColoredMemory { .. })
        ));
    }

    #[test]
    fn virtual_blowup_matches_sector_count() {
        let mut pool = a2000_pool(256);
        let alloc = pool.alloc_colored(&[2], 32 * 1024).unwrap();
        // 2 KiB granularity on 4 KiB pages: tensor strides 2 sectors.
        assert_eq!(alloc.virtual_bytes(), 64 * 1024);
    }

    #[test]
    fn page_table_entries_cover_all_chunks() {
        let mut pool = a2000_pool(256);
        let alloc = pool.alloc_colored(&[0, 1], 24 * 1024).unwrap();
        let ptes = pool.page_table_entries(&alloc);
        assert_eq!(ptes.len(), alloc.chunks.len());
        // Virtual pages are consecutive.
        for (i, (va, _)) in ptes.iter().enumerate() {
            assert_eq!(va.0, alloc.va.0 + i as u64 * 4096);
        }
    }

    #[test]
    fn multi_color_allocation_interleaves() {
        let mut pool = a2000_pool(256);
        let alloc = pool.alloc_colored(&[0, 1, 2], 60 * 1024).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for &ch in &alloc.chunks {
            seen.insert(pool.color_of(ch));
        }
        assert_eq!(seen.len(), 3, "all colors used");
    }
}
