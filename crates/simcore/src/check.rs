//! Seeded property loops: what the workspace's property tests run on.
//!
//! A property is a closure over a [`SimRng`]; [`check`] runs it once per
//! seed in `0..CASES` and names the seed that failed, which replays
//! alone as `property(&mut SimRng::new(seed))`. The generators below are
//! the draws several property files share.
//!
//! # Examples
//!
//! ```
//! use mps_simcore::check::{check, vec};
//!
//! check(|r| {
//!     let mut xs = vec(r, 0, 20, |r| r.index(100));
//!     xs.sort_unstable();
//!     assert!(xs.windows(2).all(|w| w[0] <= w[1]));
//! });
//! ```

use crate::SimRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Cases per property.
pub const CASES: u64 = 256;

/// Runs `property` once per seed in `0..CASES`.
///
/// # Panics
///
/// Panics, naming the seed, at the first seed whose run panics.
pub fn check(property: impl Fn(&mut SimRng)) {
    for seed in 0..CASES {
        let run = AssertUnwindSafe(|| property(&mut SimRng::new(seed)));
        if catch_unwind(run).is_err() {
            panic!("property failed at seed {seed}; replay it alone with `property(&mut SimRng::new({seed}))`");
        }
    }
}

/// Uniform in `lo..hi`.
pub fn size(r: &mut SimRng, lo: usize, hi: usize) -> usize {
    lo + r.index(hi - lo)
}

/// Uniform over (all but the last of) the `u64` range.
pub fn any_u64(r: &mut SimRng) -> u64 {
    r.index(usize::MAX) as u64
}

/// `min..max` items drawn by `item`.
pub fn vec<T>(
    r: &mut SimRng,
    min: usize,
    max: usize,
    mut item: impl FnMut(&mut SimRng) -> T,
) -> Vec<T> {
    (0..size(r, min, max)).map(|_| item(r)).collect()
}

/// `min..=max` characters of `alphabet`.
pub fn text(r: &mut SimRng, alphabet: &[u8], min: usize, max: usize) -> String {
    (0..size(r, min, max + 1))
        .map(|_| char::from(*r.pick(alphabet)))
        .collect()
}
