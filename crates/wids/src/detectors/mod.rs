//! The built-in detector suite.
//!
//! | detector | evidence | layer |
//! |---|---|---|
//! | [`seq::SeqControlDetector`] | interleaved / duplicate sequence counters, channel divergence | radio |
//! | [`beacon::BeaconDetector`] | SSID clones, BSSID spoofs, and BSSID churn against an AP registry | radio |
//! | [`deauth::DeauthFloodDetector`] | burst and pulsed deauthentication floods | radio |
//! | [`rssi::RssiSplitDetector`] | implausible RSSI swings behind one transmitter | radio |
//! | [`arp::ArpSpoofDetector`] | conflicting / gratuitous ARP bindings | wired |
//! | [`probe::ProbeAuditDetector`] | cloaked twins, karma probe responders | radio |
//!
//! Every per-source map in the suite lives on the bounded substrates in
//! [`crate::sketch`], so detector memory is capped at construction no
//! matter how many distinct (possibly attacker-randomized) addresses the
//! sensors report, and only what the traffic writes is allocated.

pub mod arp;
pub mod beacon;
pub mod deauth;
pub mod probe;
pub mod rssi;
pub mod seq;

pub use arp::ArpSpoofDetector;
pub use beacon::BeaconDetector;
pub use deauth::DeauthFloodDetector;
pub use probe::ProbeAuditDetector;
pub use rssi::RssiSplitDetector;
pub use seq::SeqControlDetector;
