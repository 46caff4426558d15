//! Signal-strength consistency checking.
//!
//! Two radios sharing one MAC address rarely share one location: a
//! sensor hears them at very different signal strengths, and the
//! apparent RSSI behind the "single" transmitter flip-flops as their
//! transmissions interleave. Shadowing makes individual readings noisy
//! (the channel model draws per-link log-normal shadowing), so the
//! detector demands *repeated* implausible swings inside a short window
//! before alerting, and keeps its confidence weight modest — RSSI is
//! corroborating evidence, not a conviction.
//!
//! State lives in a [`BoundedTable`] keyed by (TA, sensor, channel) but
//! *grouped* by transmitter hash, so every vantage point on one
//! transmitter competes for the same group's ways. Like every per-source
//! map in the suite, memory is fixed at construction: a MAC-randomizing
//! attacker recycles slots instead of growing the detector.

use rogue_dot11::MacAddr;
use rogue_sim::{SimDuration, SimTime};

use crate::detector::{AlertKind, Detector, RawAlert};
use crate::event::{Dot11Kind, SensorEvent};
use crate::sketch::{hash_mac, BoundedTable};

const RSSI_GROUPS: usize = 4096;
/// Readings for distinct (sensor, channel) vantage points share a
/// transmitter's group; a handful of ways absorbs them.
const RSSI_WAYS: usize = 8;

/// Plausibility tuning.
#[derive(Clone, Debug)]
pub struct RssiSplitConfig {
    /// Swing between consecutive readings (same TA, same sensor, same
    /// channel) counted as implausible, in dB. Should sit well above the
    /// channel's shadowing sigma; ~3 sigma plus margin.
    pub swing_db: f64,
    /// Implausible swings within [`RssiSplitConfig::window`] needed to
    /// alert.
    pub threshold: u32,
    /// Sliding evidence window.
    pub window: SimDuration,
}

impl Default for RssiSplitConfig {
    fn default() -> Self {
        RssiSplitConfig {
            swing_db: 12.0,
            threshold: 4,
            window: SimDuration::from_secs(2),
        }
    }
}

/// Per-(TA, sensor, channel) reading state (one bounded slot).
struct RssiEntry {
    last_rssi: Option<f64>,
    /// Most recent implausible-swing times, capped at the alert
    /// threshold — the alert only ever needs the newest `threshold`.
    swings: Vec<SimTime>,
    alerted: bool,
}

impl RssiEntry {
    fn new() -> RssiEntry {
        RssiEntry {
            last_rssi: None,
            swings: Vec::new(),
            alerted: false,
        }
    }
}

/// The signal-strength inconsistency detector.
pub struct RssiSplitDetector {
    cfg: RssiSplitConfig,
    // Keyed by (ta, sensor, channel): comparing readings across sensors
    // or channels would just measure geometry, not inconsistency.
    table: BoundedTable<(MacAddr, u16, u8), RssiEntry>,
}

impl RssiSplitDetector {
    /// Detector with the given tuning.
    pub fn new(cfg: RssiSplitConfig) -> RssiSplitDetector {
        RssiSplitDetector {
            cfg,
            table: BoundedTable::new(RSSI_GROUPS, RSSI_WAYS),
        }
    }

    /// Vantage points currently tracked (bounded by table capacity).
    pub fn tracked_sources(&self) -> usize {
        self.table.tracked()
    }

    /// Fixed per-source state footprint, in bytes.
    pub fn state_bytes(&self) -> usize {
        self.table.bytes()
    }

    /// Entries recycled under source-cardinality pressure.
    pub fn evictions(&self) -> u64 {
        self.table.evictions
    }
}

impl Default for RssiSplitDetector {
    fn default() -> Self {
        RssiSplitDetector::new(RssiSplitConfig::default())
    }
}

impl Detector for RssiSplitDetector {
    fn name(&self) -> &'static str {
        "rssi-split"
    }

    fn on_event(&mut self, ev: &SensorEvent, out: &mut Vec<RawAlert>) {
        let SensorEvent::Dot11(e) = ev else { return };
        if e.kind == Dot11Kind::Ack {
            return; // no transmitter address to attribute the reading to
        }
        let cfg = &self.cfg;
        let h = hash_mac(&e.ta.0);
        let st = self
            .table
            .entry(e.at, h, (e.ta, e.sensor.0, e.channel), RssiEntry::new);
        let Some(last) = st.last_rssi.replace(e.rssi_dbm) else {
            return; // first reading from this vantage point: baseline only
        };
        let swing = (e.rssi_dbm - last).abs();
        if swing < cfg.swing_db {
            return;
        }
        if st.swings.len() >= cfg.threshold as usize {
            st.swings.remove(0);
        }
        st.swings.push(e.at);
        let window_start = SimTime(e.at.as_nanos().saturating_sub(cfg.window.as_nanos()));
        st.swings.retain(|&t| t >= window_start);
        if st.swings.len() as u32 >= cfg.threshold && !st.alerted {
            st.alerted = true;
            out.push(RawAlert {
                at: e.at,
                detector: "rssi-split",
                subject: e.ta,
                kind: AlertKind::RssiInconsistent,
                weight: 0.5,
                detail: format!(
                    "{} swings > {:.0} dB within {} on channel {}",
                    st.swings.len(),
                    cfg.swing_db,
                    cfg.window,
                    e.channel
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Dot11Event, SensorId};

    fn data(ms: u64, rssi: f64) -> SensorEvent {
        SensorEvent::Dot11(Dot11Event {
            sensor: SensorId(0),
            at: SimTime::from_millis(ms),
            channel: 1,
            rssi_dbm: rssi,
            ta: MacAddr::local(1),
            ra: MacAddr::local(2),
            bssid: MacAddr::local(1),
            seq: (ms % 4096) as u16,
            retry: false,
            kind: Dot11Kind::Data { protected: false },
        })
    }

    #[test]
    fn interleaved_positions_alert() {
        let mut d = RssiSplitDetector::default();
        let mut out = Vec::new();
        // Two radios ~25 dB apart taking turns under one address.
        for i in 0..12u64 {
            let rssi = if i % 2 == 0 { -40.0 } else { -65.0 };
            d.on_event(&data(i * 100, rssi), &mut out);
        }
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].kind, AlertKind::RssiInconsistent);
        assert_eq!(out[0].subject, MacAddr::local(1));
    }

    #[test]
    fn shadowing_noise_tolerated() {
        let mut d = RssiSplitDetector::default();
        let mut out = Vec::new();
        // +-4 dB wobble around -50: inside any plausible sigma.
        for i in 0..50u64 {
            let rssi = -50.0 + if i % 2 == 0 { 4.0 } else { -4.0 };
            d.on_event(&data(i * 50, rssi), &mut out);
        }
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn one_outlier_is_not_enough() {
        let mut d = RssiSplitDetector::default();
        let mut out = Vec::new();
        d.on_event(&data(0, -50.0), &mut out);
        d.on_event(&data(10, -80.0), &mut out); // single deep fade
        for i in 2..20u64 {
            d.on_event(&data(i * 10, -50.0), &mut out);
        }
        // The recovery swing counts too, but 2 < threshold 4.
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn state_stays_bounded_under_randomized_sources() {
        let mut d = RssiSplitDetector::default();
        let mut out = Vec::new();
        let before = d.state_bytes();
        for i in 0..200_000u64 {
            let mut e = data(i / 100, -50.0);
            if let SensorEvent::Dot11(ev) = &mut e {
                ev.ta = MacAddr::local(i + 10);
            }
            d.on_event(&e, &mut out);
        }
        assert!(d.tracked_sources() <= RSSI_GROUPS * RSSI_WAYS);
        assert_eq!(d.state_bytes(), before, "slot array must not grow");
        assert!(d.evictions() > 0, "pressure must recycle slots");
        assert!(out.is_empty());
    }
}
