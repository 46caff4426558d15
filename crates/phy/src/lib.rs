//! # rogue-phy — the 802.11b radio medium
//!
//! The paper's attack begins at the physical layer: "the inherent broadcast
//! nature of the wireless physical layer … doesn't benefit from the
//! restricted physical access of traditional wired networks" (§3). This
//! crate models that broadcast medium:
//!
//! * [`Pos`] — 2-D positions in metres,
//! * log-distance path loss with optional log-normal shadowing,
//! * 2.4 GHz channels 1–14 with adjacent-channel interference (the paper's
//!   Figure 1 puts the valid AP on channel 1 and the rogue on channel 6),
//! * 802.11b [`Bitrate`]s with long-preamble airtime,
//! * a [`Medium`] that computes, per transmission, which radios decode the
//!   frame, at what RSSI, and which receptions are destroyed by collisions.
//!
//! Every radio on the transmitter's channel that clears the SINR threshold
//! receives the bytes — including an attacker's monitor-mode radio, which
//! is all "sniffing" is.

#![forbid(unsafe_code)]

mod grid;
pub mod medium;
pub mod propagation;

pub use medium::{Delivery, Medium, MediumParams, RadioId, TxHandle};
pub use propagation::{Bitrate, Pos, CHANNEL_SPACING_NONOVERLAP};
