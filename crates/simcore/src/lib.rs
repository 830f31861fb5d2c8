//! # mps-simcore — deterministic discrete-event simulation kernel
//!
//! Everything stochastic in the SoundCity reproduction (the crowd, sensors,
//! connectivity, mobility) runs on this kernel so experiments are
//! bit-reproducible from a single seed:
//!
//! * [`EventQueue`] — a time-ordered event queue with stable FIFO
//!   tie-breaking for simultaneous events.
//! * [`SimRng`] — a seeded random-number generator that can be *split* into
//!   independent, deterministic per-entity streams, with the distribution
//!   samplers the models need (normal, log-normal, exponential, Pareto,
//!   weighted choice).
//! * [`MarkovChain`] — a finite-state Markov chain (drives the activity
//!   model of Figure 21).
//! * [`stats`] — online moments and quantile helpers used by the analyses.
//! * [`check`] — the seeded loop and generators the workspace's property
//!   tests run on.
//!
//! # Examples
//!
//! ```
//! use mps_simcore::EventQueue;
//! use mps_types::SimTime;
//!
//! let mut queue: EventQueue<&str> = EventQueue::new();
//! queue.push(SimTime::from_millis(20), "second");
//! queue.push(SimTime::from_millis(10), "first");
//! let (t, event) = queue.pop().unwrap();
//! assert_eq!((t.as_millis(), event), (10, "first"));
//! ```

pub mod check;
mod markov;
#[cfg(test)]
mod proptests;
mod queue;
mod rng;
pub mod stats;

pub use markov::MarkovChain;
pub use queue::EventQueue;
pub use rng::SimRng;
