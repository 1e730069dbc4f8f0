//! Calendar queue over fleet lanes keyed by next-pending-event time.
//!
//! The fleet clock's epoch step needs "every lane whose next pending
//! event falls before instant `t`" — the busy set. A linear scan over
//! all lanes costs O(replicas) per epoch, which dominates once fleets
//! reach hundreds of replicas with sparse per-epoch activity. This
//! queue buckets lanes into a ring of time slots of fixed `width_us`
//! and sweeps only the buckets the clock actually crosses, so an epoch
//! pays O(touched lanes + crossed buckets) instead of O(replicas).
//!
//! Design notes, chosen for exact equivalence with the linear scan the
//! tests retain as the oracle:
//!
//! - **Eager removal.** `set` moves a lane between buckets immediately
//!   (no lazy tombstones), so every slot entry is live and a sweep
//!   never has to re-validate stale duplicates. `pos_of` gives O(1)
//!   swap-removal from a bucket.
//! - **Monotonic cursor.** `cursor_abs` is the absolute bucket index
//!   (bucket id, not ring slot) the sweep has reached. Keys in the past
//!   relative to the cursor are clamped into the cursor's bucket on
//!   insert, so a lane that became ready "behind" the clock is still
//!   found by the next sweep. The cluster clock only moves forward, so
//!   sweep thresholds are non-decreasing.
//! - **Ring revolutions.** The slot ring is fixed-size; bucket `b`
//!   lives at ring index `b % n_slots`. A full-bucket drain keeps
//!   entries whose `abs_of` belongs to a future revolution of the same
//!   ring slot.
//! - **Canonical emission order.** The collected busy set is sorted
//!   ascending by lane index before returning — identical to the order
//!   the linear-scan oracle produces — so the clock's advance order and
//!   the debug-assert comparison are both order-stable.

/// Sentinel in `pos_of` marking a lane as absent from the calendar.
const ABSENT: u32 = u32::MAX;

/// Incremental bucket queue mapping lane index -> next-event key (µs).
///
/// Lanes with no pending event (key = `f64::INFINITY`) are simply not
/// stored. All storage is reusable across runs via [`reset`]: slot
/// vectors keep their capacity, so a warmed calendar allocates nothing
/// in steady state.
///
/// [`reset`]: EventCalendar::reset
#[derive(Debug, Default)]
pub struct EventCalendar {
    width_us: f64,
    /// `1.0 / width_us`, so the hot bucket-id computation multiplies
    /// instead of divides. See [`abs_for`](Self::abs_for) for why the
    /// rounding difference cannot affect correctness.
    inv_width: f64,
    /// Ring of buckets; each holds the lanes currently keyed into it.
    slots: Vec<Vec<u32>>,
    /// Absolute bucket id each present lane is stored under.
    abs_of: Vec<u64>,
    /// Index of each lane within its bucket vec (`ABSENT` when not stored).
    pos_of: Vec<u32>,
    /// The lane's current key, for the per-entry test in the threshold bucket.
    key_of: Vec<f64>,
    /// Absolute bucket id the sweep has reached (never retreats).
    cursor_abs: u64,
    /// Number of lanes currently stored, so sweeps across long empty
    /// stretches can jump the cursor instead of visiting every bucket.
    stored: usize,
}

impl EventCalendar {
    /// Creates an empty calendar; call [`reset`](Self::reset) to size it.
    pub fn new() -> Self {
        Self::default()
    }

    /// (Re)initializes for `n_lanes` lanes with `n_slots` ring buckets of
    /// `width_us` microseconds each, retaining prior heap capacity.
    pub fn reset(&mut self, n_lanes: usize, width_us: f64, n_slots: usize) {
        assert!(
            width_us.is_finite() && width_us > 0.0,
            "bucket width must be positive"
        );
        assert!(n_slots > 0, "calendar needs at least one slot");
        self.width_us = width_us;
        self.inv_width = width_us.recip();
        self.cursor_abs = 0;
        if self.slots.len() > n_slots {
            self.slots.truncate(n_slots);
        }
        for s in &mut self.slots {
            s.clear();
        }
        self.slots.resize_with(n_slots, Vec::new);
        self.abs_of.clear();
        self.abs_of.resize(n_lanes, 0);
        self.pos_of.clear();
        self.pos_of.resize(n_lanes, ABSENT);
        self.key_of.clear();
        self.key_of.resize(n_lanes, f64::INFINITY);
        self.stored = 0;
    }

    /// Number of lanes currently stored (present keys).
    pub fn len(&self) -> usize {
        self.stored
    }

    /// True when no lane has a finite key stored.
    pub fn is_empty(&self) -> bool {
        self.stored == 0
    }

    /// The key currently stored for `lane` (`INFINITY` when absent).
    pub fn key_of(&self, lane: usize) -> f64 {
        if self.pos_of[lane] == ABSENT {
            f64::INFINITY
        } else {
            self.key_of[lane]
        }
    }

    /// Bucket id for `key`. Uses the precomputed reciprocal: `k *
    /// (1/w)` can differ from `k / w` by an ulp, landing a key one
    /// bucket off its "true" quotient — which is harmless, because
    /// correctness only needs the bucket map to be *monotone
    /// non-decreasing* in the key (`f(k) < f(t)` ⇒ `k < t`, so
    /// earlier-bucket entries during a sweep are genuinely due), and
    /// `x * c` with `c > 0` rounds monotonically. Same-bucket entries
    /// are always filtered by the per-entry key test in the threshold
    /// bucket, never by bucket id.
    fn abs_for(&self, key: f64) -> u64 {
        debug_assert!(key.is_finite() && key >= 0.0);
        (key * self.inv_width) as u64
    }

    /// Sets `lane`'s key, moving it between buckets as needed. A
    /// non-finite key removes the lane (idle / dead — nothing pending).
    /// Keys behind the sweep cursor are clamped into the cursor's
    /// bucket so the next sweep still finds them.
    pub fn set(&mut self, lane: u32, key: f64) {
        let l = lane as usize;
        if !key.is_finite() {
            self.remove(lane);
            return;
        }
        let abs = self.abs_for(key).max(self.cursor_abs);
        self.key_of[l] = key;
        if self.pos_of[l] != ABSENT {
            if self.abs_of[l] == abs {
                return; // same bucket; only the key needed refreshing
            }
            self.remove(lane);
            self.key_of[l] = key; // remove() leaves key_of untouched, keep it
        }
        self.abs_of[l] = abs;
        let si = (abs % self.slots.len() as u64) as usize;
        self.pos_of[l] = self.slots[si].len() as u32;
        self.slots[si].push(lane);
        self.stored += 1;
    }

    /// Removes `lane` from its bucket (no-op when absent).
    pub fn remove(&mut self, lane: u32) {
        let l = lane as usize;
        let pos = self.pos_of[l];
        if pos == ABSENT {
            return;
        }
        let si = (self.abs_of[l] % self.slots.len() as u64) as usize;
        let slot = &mut self.slots[si];
        let i = pos as usize;
        slot.swap_remove(i);
        if i < slot.len() {
            self.pos_of[slot[i] as usize] = pos;
        }
        self.pos_of[l] = ABSENT;
        self.stored -= 1;
    }

    /// Collects every stored lane whose key is due at threshold `t` —
    /// `key < t` when `strict`, `key <= t` otherwise (the final-drain
    /// form) — removing them from the calendar and appending them to
    /// `out` in ascending lane order. Advances the sweep cursor to
    /// `t`'s bucket; thresholds must be non-decreasing across calls.
    pub fn collect_due(&mut self, t: f64, strict: bool, out: &mut Vec<u32>) {
        let start = out.len();
        if !t.is_finite() {
            // Infinite threshold: everything stored is due.
            for slot in &mut self.slots {
                for &lane in slot.iter() {
                    self.pos_of[lane as usize] = ABSENT;
                    out.push(lane);
                }
                slot.clear();
            }
            self.stored = 0;
            out[start..].sort_unstable();
            return;
        }
        let target_abs = self.abs_for(t.max(0.0)).max(self.cursor_abs);
        let n_slots = self.slots.len() as u64;
        // Buckets strictly below the threshold's bucket hold only keys
        // < t (clamped keys are smaller than their bucket start, never
        // larger): drain them whole, keeping future-revolution entries.
        while self.cursor_abs < target_abs {
            if self.stored == 0 {
                self.cursor_abs = target_abs;
                break;
            }
            let b = self.cursor_abs;
            let si = (b % n_slots) as usize;
            let slot = &mut self.slots[si];
            let mut i = 0;
            while i < slot.len() {
                let lane = slot[i];
                if self.abs_of[lane as usize] == b {
                    out.push(lane);
                    slot.swap_remove(i);
                    self.pos_of[lane as usize] = ABSENT;
                    self.stored -= 1;
                    if i < slot.len() {
                        self.pos_of[slot[i] as usize] = i as u32;
                    }
                } else {
                    i += 1;
                }
            }
            self.cursor_abs += 1;
        }
        // The threshold's own bucket mixes due and not-yet-due keys:
        // test each entry individually and leave the rest in place.
        let si = (target_abs % n_slots) as usize;
        let slot = &mut self.slots[si];
        let mut i = 0;
        while i < slot.len() {
            let lane = slot[i];
            let l = lane as usize;
            let due = self.abs_of[l] == target_abs
                && if strict {
                    self.key_of[l] < t
                } else {
                    self.key_of[l] <= t
                };
            if due {
                out.push(lane);
                slot.swap_remove(i);
                self.pos_of[l] = ABSENT;
                self.stored -= 1;
                if i < slot.len() {
                    self.pos_of[slot[i] as usize] = i as u32;
                }
            } else {
                i += 1;
            }
        }
        out[start..].sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(cal: &mut EventCalendar, t: f64, strict: bool) -> Vec<u32> {
        let mut out = Vec::new();
        cal.collect_due(t, strict, &mut out);
        out
    }

    #[test]
    fn basic_set_collect() {
        let mut cal = EventCalendar::new();
        cal.reset(4, 10.0, 8);
        cal.set(0, 5.0);
        cal.set(1, 25.0);
        cal.set(2, 14.9);
        assert_eq!(cal.len(), 3);
        assert_eq!(collect(&mut cal, 15.0, true), vec![0, 2]);
        assert_eq!(collect(&mut cal, 25.0, true), vec![]);
        assert_eq!(collect(&mut cal, 25.0, false), vec![1]);
        assert!(cal.is_empty());
    }

    #[test]
    fn infinity_removes_and_past_keys_are_found() {
        let mut cal = EventCalendar::new();
        cal.reset(3, 10.0, 4);
        cal.set(0, 7.0);
        cal.set(0, f64::INFINITY);
        assert!(cal.is_empty());
        assert_eq!(collect(&mut cal, 100.0, true), vec![]);
        // cursor now at bucket 10; a key far in the past clamps there
        cal.set(1, 3.0);
        assert_eq!(cal.key_of(1), 3.0);
        assert_eq!(collect(&mut cal, 100.5, true), vec![1]);
    }

    #[test]
    fn rekey_within_and_across_buckets() {
        let mut cal = EventCalendar::new();
        cal.reset(2, 10.0, 4);
        cal.set(0, 12.0);
        cal.set(0, 18.0); // same bucket, key must still update
        assert_eq!(collect(&mut cal, 15.0, true), vec![]);
        assert_eq!(collect(&mut cal, 18.1, true), vec![0]);
        cal.set(1, 21.0);
        cal.set(1, 55.0); // cross-bucket move
        assert_eq!(collect(&mut cal, 30.0, true), vec![]);
        assert_eq!(collect(&mut cal, 56.0, true), vec![1]);
    }

    #[test]
    fn ring_revolutions_do_not_leak_future_entries() {
        let mut cal = EventCalendar::new();
        cal.reset(3, 1.0, 2); // tiny ring: bucket b at slot b % 2
        cal.set(0, 0.5); // bucket 0, slot 0
        cal.set(1, 2.5); // bucket 2, slot 0 (same ring slot, later revolution)
        cal.set(2, 1.5); // bucket 1, slot 1
        assert_eq!(collect(&mut cal, 1.0, true), vec![0]);
        assert_eq!(collect(&mut cal, 2.0, true), vec![2]);
        assert_eq!(collect(&mut cal, 3.0, true), vec![1]);
    }

    #[test]
    fn final_drain_is_inclusive() {
        let mut cal = EventCalendar::new();
        cal.reset(2, 10.0, 4);
        cal.set(0, 30.0);
        cal.set(1, 29.999);
        assert_eq!(collect(&mut cal, 30.0, true), vec![1]);
        assert_eq!(collect(&mut cal, 30.0, false), vec![0]);
    }
}
