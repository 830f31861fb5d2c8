//! std-only stand-in for the `rand` 0.8 surface `mps-simcore` uses:
//! `RngCore`, `Rng::{gen, gen_range}`, `SeedableRng::seed_from_u64`,
//! `rngs::StdRng` and `Error`.
//!
//! `StdRng` here is xoshiro256++ seeded through splitmix64, not ChaCha12,
//! so streams differ from the published crate; every consumer in this
//! repository depends only on determinism per seed.

use std::fmt;
use std::ops::Range;

/// Error type of [`RngCore::try_fill_bytes`]; never produced here.
#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("random source failed")
    }
}

impl std::error::Error for Error {}

/// The core of a random-number generator.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
    /// Fills `dest` with random bytes, reporting failure of the source.
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error>;
}

/// Types [`Rng::gen`] can produce.
pub trait Standard: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 random bits.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Types [`Rng::gen_range`] can produce.
pub trait SampleRange: Sized {
    /// Draws uniformly from the half-open `range`.
    fn sample_in<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

impl SampleRange for usize {
    fn sample_in<R: RngCore + ?Sized>(rng: &mut R, range: Range<usize>) -> usize {
        assert!(range.start < range.end, "cannot sample empty range");
        let span = (range.end - range.start) as u64;
        // Widening multiply maps 64 random bits onto [0, span) with bias
        // below 2^-64 * span, which no consumer here can observe.
        range.start + ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as usize
    }
}

/// Convenience methods over [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value of an inferred type.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws uniformly from a half-open range.
    fn gen_range<T: SampleRange>(&mut self, range: Range<T>) -> T {
        T::sample_in(self, range)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generators that can be built from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a function of `seed` alone.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named generators.
pub mod rngs {
    use super::{Error, RngCore, SeedableRng};

    /// The default seeded generator (xoshiro256++ here).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(mut seed: u64) -> Self {
            let mut s = [0u64; 4];
            for word in &mut s {
                seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                *word = z ^ (z >> 31);
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

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

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let bytes = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&bytes[..chunk.len()]);
            }
        }

        fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
            self.fill_bytes(dest);
            Ok(())
        }
    }
}
