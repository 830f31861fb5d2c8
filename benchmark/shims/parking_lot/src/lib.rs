//! std-only stand-in for `parking_lot`: a `Mutex` whose `lock` returns
//! the guard directly and never reports poisoning.
//!
//! The real crate spins briefly and then parks the thread; this one is
//! `std::sync::Mutex` (a futex on Linux). Lock hand-off timing under
//! contention therefore differs from the published crate.

use std::fmt;
use std::sync::{Mutex as StdMutex, PoisonError};

pub use std::sync::MutexGuard;

/// A mutual-exclusion lock without poisoning.
#[derive(Default)]
pub struct Mutex<T: ?Sized>(StdMutex<T>);

impl<T> Mutex<T> {
    /// Creates a lock around `value`.
    pub const fn new(value: T) -> Self {
        Mutex(StdMutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held. A panic in another holder does not
    /// poison the lock, as in parking_lot.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}
