//! Discrete-event simulation substrate for the `agilepm` workspace.
//!
//! This crate provides the low-level machinery every other crate builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — a millisecond-resolution simulation
//!   clock with exact integer arithmetic, so event ordering is deterministic
//!   and runs are bit-reproducible.
//! * [`EventQueue`] — a priority queue of timestamped events with stable
//!   FIFO tie-breaking for events scheduled at the same instant.
//! * [`RngStream`] — a seedable, splittable pseudo-random number generator
//!   (SplitMix64) with the distribution samplers the workload and placement
//!   layers need. Using our own tiny PRNG keeps results stable across
//!   dependency upgrades.
//! * [`TimeSeries`], [`percentile`], [`Welford`] — the measurement
//!   toolkit used by the simulator's metrics pipeline (time-weighted
//!   integrals, percentiles, online moments).
//! * [`pool`] — a bounded worker pool for running independent jobs (whole
//!   simulations, sweep points) in parallel with index-ordered results.
//!
//! # Example
//!
//! ```
//! use simcore::{EventQueue, SimDuration, SimTime};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_secs(5), "later");
//! q.schedule(SimTime::ZERO, "now");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(t, SimTime::ZERO);
//! assert_eq!(ev, "now");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod pool;
mod rng;
mod series;
mod stats;
mod sumtree;
mod time;

pub use event::EventQueue;
pub use rng::RngStream;
pub use series::{SeriesPoint, TimeSeries};
pub use stats::{percentile, Welford};
pub use sumtree::{pairwise_sum, SumTree};
pub use time::{SimDuration, SimTime};
