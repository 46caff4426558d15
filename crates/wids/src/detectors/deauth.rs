//! Deauthentication-flood detection.
//!
//! Deauth is unauthenticated (the paper's §4 primitive), so a burst of
//! deauthentication frames "from" one address is evidence of forgery —
//! either an attacker breaking a sticky association or a containment
//! system at work. Legitimate disconnects are rare and isolated; the
//! detector counts deauths per claimed transmitter in a sliding window.
//!
//! Counting lives in [`WindowCounter`] sketches, so memory is capped no
//! matter how many forged transmitter addresses appear. Two horizons run
//! side by side:
//!
//! * the **short window** catches the classic burst flood;
//! * the **long window** catches *pulsed* floods — short bursts spaced
//!   so the short window never fills, but whose long-run rate is still
//!   far beyond anything legitimate. Once a transmitter has a burst
//!   alert the pulsed check stays quiet for it: the long horizon adds
//!   nothing the burst did not already say.

use rogue_sim::SimDuration;

use crate::detector::{AlertKind, Detector, RawAlert};
use crate::event::{Dot11Kind, SensorEvent};
use crate::sketch::{hash_mac, BoundedTable, WindowCounter};

const FLAG_GROUPS: usize = 4096;
const FLAG_WAYS: usize = 4;

/// Deauths within [`FLOOD_WINDOW`] needed to alert.
pub const FLOOD_THRESHOLD: u32 = 5;
/// Sliding evidence window.
pub const FLOOD_WINDOW: SimDuration = SimDuration::from_secs(2);
/// Deauths within [`PULSE_WINDOW`] needed for a pulsed-flood alert when
/// the short window never fills.
pub const PULSE_THRESHOLD: u32 = 12;
/// Long horizon for the pulsed-flood count.
pub const PULSE_WINDOW: SimDuration = SimDuration::from_secs(20);

/// Per-transmitter once-only alert latches.
#[derive(Default)]
struct DeauthFlags {
    flood: bool,
    pulse: bool,
}

/// The flood detector.
pub struct DeauthFloodDetector {
    short: WindowCounter,
    long: WindowCounter,
    flags: BoundedTable<rogue_dot11::MacAddr, DeauthFlags>,
    /// Deauth frames observed.
    pub deauths_seen: u64,
}

impl Default for DeauthFloodDetector {
    fn default() -> Self {
        DeauthFloodDetector {
            short: WindowCounter::new(FLOOD_WINDOW, 16, 1024, 4),
            long: WindowCounter::new(PULSE_WINDOW, 20, 1024, 4),
            flags: BoundedTable::new(FLAG_GROUPS, FLAG_WAYS),
            deauths_seen: 0,
        }
    }
}

impl DeauthFloodDetector {
    /// Bound on the state footprint (sketches plus latch table), in
    /// bytes.
    pub fn state_bytes(&self) -> usize {
        self.short.bytes() + self.long.bytes() + self.flags.bytes()
    }

    /// State allocated so far, in bytes.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.short.resident_bytes() + self.long.resident_bytes() + self.flags.resident_bytes()
    }
}

impl Detector for DeauthFloodDetector {
    fn name(&self) -> &'static str {
        "deauth-flood"
    }

    fn on_event(&mut self, ev: &SensorEvent, out: &mut Vec<RawAlert>) {
        let SensorEvent::Dot11(e) = ev else { return };
        let Dot11Kind::Deauth { reason } = e.kind else {
            return;
        };
        self.deauths_seen += 1;
        let h = hash_mac(&e.ta.0);
        let short = self.short.observe(e.at, h);
        let long = self.long.observe(e.at, h);
        let st = self.flags.entry(e.at, h, e.ta, DeauthFlags::default);
        if short >= FLOOD_THRESHOLD && !st.flood {
            st.flood = true;
            out.push(RawAlert {
                at: e.at,
                detector: "deauth-flood",
                subject: e.ta,
                kind: AlertKind::DeauthFlood,
                weight: 0.85,
                detail: format!("{short} deauths within {FLOOD_WINDOW} (last reason {reason})"),
            });
        } else if long >= PULSE_THRESHOLD && !st.flood && !st.pulse {
            st.pulse = true;
            out.push(RawAlert {
                at: e.at,
                detector: "deauth-flood",
                subject: e.ta,
                kind: AlertKind::DeauthFlood,
                weight: 0.85,
                detail: format!(
                    "pulsed flood: {long} deauths within {PULSE_WINDOW} (last reason {reason})"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Dot11Event, SensorId};
    use rogue_dot11::MacAddr;
    use rogue_sim::SimTime;

    fn deauth(ms: u64, ta: MacAddr) -> SensorEvent {
        SensorEvent::Dot11(Dot11Event {
            sensor: SensorId(0),
            at: SimTime::from_millis(ms),
            channel: 1,
            rssi_dbm: -40.0,
            ta,
            ra: MacAddr::local(50),
            bssid: ta,
            seq: 0,
            retry: false,
            kind: Dot11Kind::Deauth { reason: 7 },
        })
    }

    #[test]
    fn flood_alerts_once() {
        let mut d = DeauthFloodDetector::default();
        let mut out = Vec::new();
        for i in 0..10u64 {
            d.on_event(&deauth(i * 150, MacAddr::local(1)), &mut out);
        }
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].kind, AlertKind::DeauthFlood);
        assert_eq!(out[0].at, SimTime::from_millis(600), "fifth deauth");
    }

    #[test]
    fn sparse_deauths_tolerated() {
        let mut d = DeauthFloodDetector::default();
        let mut out = Vec::new();
        for i in 0..10u64 {
            d.on_event(&deauth(i * 1000, MacAddr::local(1)), &mut out);
        }
        assert!(out.is_empty(), "one deauth per second is not a flood");
    }

    #[test]
    fn pulsed_bursts_trip_the_long_horizon() {
        let mut d = DeauthFloodDetector::default();
        let mut out = Vec::new();
        // Bursts of 4 frames 100 ms apart, one burst every 4 s: the short
        // window (5 in 2 s) never fills, the long horizon does.
        for burst in 0..5u64 {
            for i in 0..4u64 {
                d.on_event(&deauth(burst * 4000 + i * 100, MacAddr::local(1)), &mut out);
            }
        }
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].detail.starts_with("pulsed flood:"), "{out:?}");
        assert_eq!(out[0].at, SimTime::from_millis(8300), "twelfth deauth");
    }

    #[test]
    fn state_is_fixed_under_forged_sources() {
        let mut d = DeauthFloodDetector::default();
        let mut out = Vec::new();
        let before = d.state_bytes();
        // 100k distinct forged transmitters, one deauth each, paced so
        // the sketch buckets stay far below both thresholds.
        for i in 0..100_000u64 {
            d.on_event(&deauth(i * 10, MacAddr::local(i + 1)), &mut out);
        }
        assert_eq!(d.state_bytes(), before, "sketches must not grow");
        assert!(out.is_empty(), "one deauth per source is not a flood");
    }
}
