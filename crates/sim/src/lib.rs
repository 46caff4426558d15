//! # rogue-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate beneath every experiment in the
//! *Countering Rogues in Wireless Networks* reproduction. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond virtual time,
//! * [`EventQueue`] — a stable-ordered pending-event set: events scheduled
//!   for the same instant fire in scheduling order, which makes every run a
//!   pure function of its inputs,
//! * [`rng`] — a from-scratch SplitMix64 / xoshiro256\*\* PRNG family so
//!   experiments are bit-reproducible from a single master [`rng::Seed`]
//!   without depending on external RNG crates whose streams may change,
//! * [`trace`] — named run counters ([`trace::Metrics`]): a world's
//!   MAC-layer tallies and a WIDS pipeline's event and incident counts.
//!
//! Design rule (see DESIGN.md §5 and §15): one simulation world
//! dispatches events serially and deterministically; parallelism happens
//! *across* worlds (seeds, parameter points) in the `rogue-core`
//! experiment drivers. Each world owns one [`EventQueue`].

pub mod profile;
pub mod queue;
pub mod rng;
pub mod time;
pub mod trace;

pub use queue::EventQueue;
pub use rng::{Seed, SimRng};
pub use time::{SimDuration, SimTime};
