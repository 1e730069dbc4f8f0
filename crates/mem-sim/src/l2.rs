//! Set-associative L2 cache slices with noisy replacement.
//!
//! Each VRAM channel owns one L2 slice (paper §2.1: a GDDR unit "maps to a
//! set of L2 cache"). Replacement is LRU, perturbed by the black-box cache
//! policy noise that makes FGPU's reverse engineering brittle (§3.2): with
//! probability `noise_rate` a fill evicts a random way instead of the LRU
//! way. Pascal exhibits ~1% noisy samples, Ampere ~5%.

use rand::Rng;

/// Result of an L2 lookup-and-fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2Outcome {
    Hit,
    /// Miss; the line was filled (the evicted tag, if any, is returned).
    Miss(Option<u64>),
}

/// One L2 slice: `sets × ways` cachelines, MRU-ordered per set.
#[derive(Debug, Clone)]
pub struct L2Slice {
    /// `sets[s]` holds up to `ways` tags, most-recently-used first.
    sets: Vec<Vec<u64>>,
    /// Indices of the non-empty sets, each listed once. A set only empties
    /// at a flush, so `flush` clears exactly these and costs O(touched
    /// sets) instead of O(all sets).
    touched: Vec<usize>,
    ways: usize,
    set_mask: u64,
    noise_rate: f64,
}

impl L2Slice {
    /// Creates a slice with `sets` sets (power of two) and `ways` ways.
    pub fn new(sets: u64, ways: u32, noise_rate: f64) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Self {
            sets: (0..sets)
                .map(|_| Vec::with_capacity(ways as usize))
                .collect(),
            touched: Vec::new(),
            ways: ways as usize,
            set_mask: sets - 1,
            noise_rate,
        }
    }

    /// Set index for a cacheline index (simple modulo mapping; the channel
    /// hash has already distributed lines over slices).
    #[inline]
    pub fn set_of(&self, cacheline: u64) -> usize {
        (cacheline & self.set_mask) as usize
    }

    /// Looks up `cacheline` (a global cacheline index); fills on miss.
    pub fn access(&mut self, cacheline: u64, rng: &mut impl Rng) -> L2Outcome {
        let set_idx = self.set_of(cacheline);
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&t| t == cacheline) {
            // Promote to MRU.
            let t = set.remove(pos);
            set.insert(0, t);
            return L2Outcome::Hit;
        }
        let evicted = if set.len() == self.ways {
            // Black-box replacement: mostly LRU, occasionally random.
            let victim = if rng.gen_bool(self.noise_rate) {
                rng.gen_range(0..set.len())
            } else {
                set.len() - 1
            };
            Some(set.remove(victim))
        } else {
            if set.is_empty() {
                self.touched.push(set_idx);
            }
            None
        };
        set.insert(0, cacheline);
        L2Outcome::Miss(evicted)
    }

    /// Whether `cacheline` is currently resident (no state change).
    pub fn probe(&self, cacheline: u64) -> bool {
        self.sets[self.set_of(cacheline)].contains(&cacheline)
    }

    /// Invalidates the whole slice by clearing the sets filled since the
    /// last flush.
    pub fn flush(&mut self) {
        for s in self.touched.drain(..) {
            self.sets[s].clear();
        }
    }

    /// Number of resident lines (for occupancy assertions in tests).
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    pub fn ways(&self) -> usize {
        self.ways
    }

    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn hit_after_fill() {
        let mut l2 = L2Slice::new(16, 4, 0.0);
        let mut r = rng();
        assert!(matches!(l2.access(100, &mut r), L2Outcome::Miss(None)));
        assert_eq!(l2.access(100, &mut r), L2Outcome::Hit);
    }

    #[test]
    fn lru_eviction_order_is_deterministic_without_noise() {
        let mut l2 = L2Slice::new(1, 4, 0.0);
        let mut r = rng();
        for t in 0..4 {
            l2.access(t, &mut r);
        }
        // Touch 0 to make it MRU; 1 becomes LRU.
        l2.access(0, &mut r);
        match l2.access(99, &mut r) {
            L2Outcome::Miss(Some(victim)) => assert_eq!(victim, 1),
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn exactly_ways_lines_per_set() {
        let mut l2 = L2Slice::new(1, 8, 0.0);
        let mut r = rng();
        for t in 0..100 {
            l2.access(t, &mut r);
        }
        assert_eq!(l2.resident_lines(), 8);
    }

    #[test]
    fn conflict_eviction_needs_ways_distinct_lines() {
        // The invariant Algo 2's binary search relies on: an address is
        // evicted iff ≥ `ways` other lines in its set are accessed.
        let mut l2 = L2Slice::new(64, 16, 0.0);
        let mut r = rng();
        l2.access(0, &mut r);
        // 15 conflicting lines (same set: stride = num_sets): not enough.
        for i in 1..16u64 {
            l2.access(i * 64, &mut r);
        }
        assert!(l2.probe(0));
        // The 16th conflicting line evicts it.
        l2.access(16 * 64, &mut r);
        assert!(!l2.probe(0));
    }

    #[test]
    fn noise_occasionally_breaks_lru() {
        let mut l2 = L2Slice::new(1, 16, 0.3);
        let mut r = rng();
        let mut non_lru_evictions = 0;
        for trial in 0..200u64 {
            l2.flush();
            for t in 0..16 {
                l2.access(trial * 1000 + t, &mut r);
            }
            // Next fill should evict the oldest (trial*1000) under pure LRU.
            if let L2Outcome::Miss(Some(v)) = l2.access(trial * 1000 + 999, &mut r) {
                if v != trial * 1000 {
                    non_lru_evictions += 1;
                }
            }
        }
        assert!(
            non_lru_evictions > 20,
            "expected noisy replacement, saw {non_lru_evictions}/200"
        );
    }

    #[test]
    fn flush_empties_slice() {
        let mut l2 = L2Slice::new(8, 4, 0.0);
        let mut r = rng();
        for t in 0..32 {
            l2.access(t, &mut r);
        }
        l2.flush();
        assert_eq!(l2.resident_lines(), 0);
        assert!(!l2.probe(0));
    }

    /// A flush clears only the sets filled since the previous one, so a
    /// flushed slice must behave exactly like a freshly built one: same
    /// outcomes, evictions (noisy ones included), probes and occupancy.
    #[test]
    fn flushed_slice_behaves_like_fresh() {
        const SETS: u64 = 16;
        const WAYS: u32 = 4;
        const NOISE: f64 = 0.2;
        for seed in 0..64u64 {
            let mut inputs = StdRng::seed_from_u64(seed);
            let mut used = L2Slice::new(SETS, WAYS, NOISE);
            for round in 0..4u64 {
                let mut fresh = L2Slice::new(SETS, WAYS, NOISE);
                let mut used_rng = StdRng::seed_from_u64(seed * 8 + round);
                let mut fresh_rng = used_rng.clone();
                // Short rounds leave most sets untouched; long ones fill
                // sets and evict (tags span up to three times the capacity).
                let len = inputs.gen_range(0..200);
                let max_tag = inputs.gen_range(1..3 * SETS * WAYS as u64);
                for _ in 0..len {
                    let tag = inputs.gen_range(0..max_tag);
                    let probe = inputs.gen_range(0..max_tag);
                    assert_eq!(
                        used.access(tag, &mut used_rng),
                        fresh.access(tag, &mut fresh_rng),
                        "seed {seed} round {round}: access {tag}"
                    );
                    assert_eq!(used.probe(probe), fresh.probe(probe));
                    assert_eq!(used.resident_lines(), fresh.resident_lines());
                }
                // Each non-empty set is listed exactly once.
                let mut listed = used.touched.clone();
                listed.sort_unstable();
                let non_empty: Vec<usize> = (0..used.num_sets())
                    .filter(|&s| !used.sets[s].is_empty())
                    .collect();
                assert_eq!(listed, non_empty);
                used.flush();
                assert_eq!(used.resident_lines(), 0, "seed {seed} round {round}");
                assert!(used.touched.is_empty());
            }
        }
    }
}
