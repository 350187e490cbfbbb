//! Deterministic discrete-event simulation kernel.
//!
//! The paper's evaluation runs on two physical Xen hosts and a Gigabit LAN;
//! reproducing its 800-second migrations requires *virtual time*. This
//! crate provides the simulation substrate every simulated experiment is
//! built on:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual clock
//!   arithmetic.
//! * [`Simulator`] — a classic event-calendar simulator: schedule closures
//!   at absolute or relative virtual times, execute in timestamp order with
//!   deterministic FIFO tie-breaking.
//! * [`SimRng`] — a seeded xoshiro256** PRNG so that every run of an
//!   experiment is bit-reproducible, independent of external crate version
//!   bumps.
//! * [`dist`] — the samplers workloads need: exponential inter-arrivals,
//!   Zipf-distributed block popularity, and a hot/cold locality mixture.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Lint zones (DESIGN.md §11): reactor-ready.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod dist;
mod rng;
mod sim;
mod time;

pub use rng::SimRng;
pub use sim::{EventId, Simulator};
pub use time::{SimDuration, SimTime};
