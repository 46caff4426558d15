//! The per-event detector interface.
//!
//! A detector is a streaming analyzer: it consumes the normalized
//! [`SensorEvent`] stream one event at a time, keeps whatever state it
//! needs, and emits [`RawAlert`]s when evidence crosses its threshold.
//! The pipeline calls its six built-in detectors through this interface
//! in a fixed order; E6 calls the sequence-control detector through it
//! directly.
//! Raw alerts are deliberately noisy and single-sourced — deduplication
//! and multi-detector fusion happen downstream in the correlation
//! engine, not inside detectors.

use rogue_dot11::MacAddr;
use rogue_sim::SimTime;

use crate::event::SensorEvent;

/// What a raw alert claims.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AlertKind {
    /// Interleaved sequence counters behind one transmitter address.
    SequenceAnomaly,
    /// One transmitter heard on multiple channels concurrently.
    ChannelDivergence,
    /// An authorized SSID advertised by an unregistered BSSID.
    SsidClone,
    /// An authorized BSSID beaconing where it should not be.
    BssidSpoof,
    /// Deauthentication flood.
    DeauthFlood,
    /// Implausible signal-strength swings behind one transmitter.
    RssiInconsistent,
    /// Conflicting or unsolicited ARP bindings on a wired segment.
    ArpSpoof,
    /// Many distinct unregistered BSSIDs advertising one owned SSID —
    /// the MAC-randomizing evil twin's signature.
    SsidChurn,
    /// A BSSID probe-responding an owned SSID it never beacons — a
    /// beacon-cloaked evil twin.
    CloakedTwin,
    /// One BSSID probe-responding many distinct SSIDs — karma-style
    /// probe abuse.
    KarmaProbe,
}

/// One piece of single-detector evidence.
#[derive(Clone, Debug)]
pub struct RawAlert {
    /// When the evidence crossed the detector's threshold.
    pub at: SimTime,
    /// Emitting detector ([`Detector::name`]).
    pub detector: &'static str,
    /// The offending address (TA / BSSID / claiming MAC).
    pub subject: MacAddr,
    /// Claim category.
    pub kind: AlertKind,
    /// Confidence weight in (0, 1] — how strongly this single detector
    /// believes the claim. Fused by the correlator.
    pub weight: f64,
    /// Human-readable evidence summary.
    pub detail: String,
}

/// A streaming intrusion detector.
pub trait Detector {
    /// Stable detector name (also the alert provenance tag).
    fn name(&self) -> &'static str;

    /// Consume one event; push any alerts it triggers into `out`.
    fn on_event(&mut self, ev: &SensorEvent, out: &mut Vec<RawAlert>);
}
