//! Offline shim for the subset of the `rand` crate API this workspace
//! uses. The container builds without network access, so the real crate
//! cannot be fetched; this vendored stand-in keeps call sites
//! source-compatible.
//!
//! Coverage: `rngs::StdRng`, `SeedableRng::seed_from_u64`,
//! `Rng::{gen_range, gen_bool}` over half-open ranges of the primitive
//! integer types and `f64`, and `seq::SliceRandom::shuffle`.
//!
//! The generator is xoshiro256++ seeded through SplitMix64 — a different
//! stream than upstream `StdRng` (ChaCha12), which is fine: every consumer
//! in this workspace treats the stream as an arbitrary deterministic
//! source, never as a specific sequence.

use std::ops::Range;

/// Deterministic construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that [`Rng::gen_range`] can sample uniformly from a `Range`.
pub trait SampleUniform: Copy + PartialOrd {
    fn sample(rng: &mut dyn RngCore, range: Range<Self>) -> Self;
}

/// Object-safe raw-bits source, so `SampleUniform` stays dyn-friendly.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// The user-facing RNG trait (subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// Uniform sample from a half-open range. Panics on an empty range,
    /// matching upstream.
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T
    where
        Self: Sized,
    {
        assert!(range.start < range.end, "cannot sample empty range");
        T::sample(self, range)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        debug_assert!((0.0..=1.0).contains(&p), "p={p} outside [0,1]");
        unit_f64(self.next_u64()) < p
    }
}

impl<R: RngCore> Rng for R {}

/// `u64` bits → uniform `f64` in `[0, 1)`.
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            // A half-open range of a type of at most 64 bits spans at
            // most `u64::MAX` values, so the reduction stays in `u64`.
            fn sample(rng: &mut dyn RngCore, range: Range<Self>) -> Self {
                let span = (range.end as i128 - range.start as i128) as u64;
                let v = rng.next_u64() % span;
                (range.start as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_sample_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f32 {
    fn sample(rng: &mut dyn RngCore, range: Range<Self>) -> Self {
        let v = range.start + (range.end - range.start) * unit_f64(rng.next_u64()) as f32;
        if v >= range.end {
            range.start
        } else {
            v
        }
    }
}

impl SampleUniform for f64 {
    fn sample(rng: &mut dyn RngCore, range: Range<Self>) -> Self {
        let v = range.start + (range.end - range.start) * unit_f64(rng.next_u64());
        // Guard against `start + span * 1.0-ε` rounding up to `end`.
        if v >= range.end {
            range.start
        } else {
            v
        }
    }
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ — fast, high-quality, deterministic.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion of the seed, as xoshiro recommends.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            Self {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

pub mod seq {
    use super::Rng;

    /// Subset of `rand::seq::SliceRandom`.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle.
        fn shuffle<R: Rng>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_and_in_range() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = a.gen_range(3u64..17);
            assert_eq!(x, b.gen_range(3u64..17));
            assert!((3..17).contains(&x));
            let f = a.gen_range(-2.0..3.0);
            assert_eq!(f, b.gen_range(-2.0..3.0));
            assert!((-2.0..3.0).contains(&f));
        }
    }

    /// Integer draws equal the `u128` reduction `start + next_u64() %
    /// (end - start)`, from the one-value span to the widest spans.
    #[test]
    fn integer_draws_equal_the_u128_reduction() {
        use super::RngCore;
        fn reduced(bits: u64, start: i128, end: i128) -> i128 {
            start + (bits as u128 % (end - start) as u128) as i128
        }
        let mut rng = StdRng::seed_from_u64(13);
        let mut raw = rng.clone();
        let mut check = |v: i128, start: i128, end: i128| {
            assert_eq!(v, reduced(raw.next_u64(), start, end), "{start}..{end}");
        };
        for _ in 0..1000 {
            check(rng.gen_range(0u64..1) as i128, 0, 1);
            check(rng.gen_range(3u8..17) as i128, 3, 17);
            check(rng.gen_range(-5i32..6) as i128, -5, 6);
            check(rng.gen_range(0usize..6) as i128, 0, 6);
            check(rng.gen_range(0..u64::MAX) as i128, 0, u64::MAX as i128);
            let (min, max) = (i64::MIN, i64::MAX);
            check(rng.gen_range(min..max) as i128, min as i128, max as i128);
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2200..2800).contains(&hits), "hits {hits}");
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the slice untouched");
    }
}
