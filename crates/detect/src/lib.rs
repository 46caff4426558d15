//! # rogue-detect — detecting rogue access points
//!
//! Section 2.3 of the paper: "There are recommended standard practices
//! for … monitoring both your wired and wireless networks for indications
//! of Rogue Access Points. … These techniques rely on monitoring 802.11b
//! Sequence Control numbers. Depending on your deployment scenario,
//! monitoring the traffic on the wired LAN can also aid in detection."
//! (The Wright reference \[15\] is the sequence-number MAC-spoof detector.)
//!
//! Three detectors:
//!
//! * [`seqmon::SeqMonitor`] — per-transmitter 802.11 sequence-control
//!   tracking: a cloned BSSID produces two interleaved counters, visible
//!   as repeated large backward jumps; hearing one transmitter on two
//!   channels at once is even stronger evidence,
//! * [`audit::SiteAuditor`] — radio site survey over captured beacons:
//!   the same BSSID beaconing on two channels, or advertising differing
//!   capabilities, is flagged,
//! * [`wired::WiredMonitor`] — wired-segment MAC registry; flags unknown
//!   source addresses. (In the paper's client-side rogue scenario this
//!   detector stays silent — the rogue never touches the wired LAN —
//!   which is exactly the limitation §1 points out.)

#![forbid(unsafe_code)]

pub mod audit;
pub mod seqmon;
pub mod wired;

use rogue_dot11::MacAddr;
use rogue_sim::SimTime;

/// A detection alarm.
#[derive(Clone, Debug, PartialEq)]
pub struct Alarm {
    /// When the evidence crossed the threshold.
    pub at: SimTime,
    /// The offending address (TA / BSSID / wired source).
    pub subject: MacAddr,
    /// What tripped.
    pub kind: AlarmKind,
    /// Human-readable evidence summary.
    pub detail: String,
}

/// Alarm categories.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlarmKind {
    /// Interleaved sequence counters behind one transmitter address.
    SequenceAnomaly,
    /// One transmitter heard on multiple channels concurrently.
    ChannelDivergence,
    /// One BSSID beaconing on multiple channels (site audit).
    DuplicateBssid,
    /// Beacons for one BSSID advertise inconsistent capabilities.
    CapabilityMismatch,
    /// Unknown source MAC on a controlled wired segment.
    WiredStranger,
}
