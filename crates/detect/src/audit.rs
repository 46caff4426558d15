//! Radio site audit.
//!
//! "Good record keeping and doing radio site audits will help detect
//! these rogues" (§2.3). The auditor sweeps channels with a monitor
//! radio, collects beacons, and compares them against each other and an
//! optional authorized-AP registry.

use std::collections::{HashMap, HashSet};

use rogue_dot11::monitor::Sniffer;
use rogue_dot11::MacAddr;
use rogue_phy::{Bitrate, Medium, RadioId};
use rogue_sim::SimTime;

use crate::{Alarm, AlarmKind};

/// Predicted audibility of one transmitter at one audit sensor, from the
/// medium's deterministic (shadowing-free) propagation model.
#[derive(Clone, Copy, Debug)]
pub struct CoveragePrediction {
    /// The transmitter (typically an authorized AP).
    pub ap: RadioId,
    /// The audit sensor radio.
    pub sensor: RadioId,
    /// Predicted received power at the sensor, dBm.
    pub predicted_rssi_dbm: f64,
    /// Whether the prediction clears the weakest (1 Mbps) sensitivity —
    /// i.e. the sensor should be able to log this AP's beacons.
    pub decodable: bool,
}

/// Predict which of `aps` every audit `sensor` should hear, and at what
/// RSSI. Planning a sweep against these predictions tells the auditor
/// where an AP falling silent (or a rogue appearing far louder than the
/// site survey predicts) is meaningful rather than expected.
///
/// Estimates are served from the medium's pairwise path-loss cache, so a
/// site-wide prediction matrix costs one geometry solve per (ap, sensor)
/// pair, and repeat audits reuse the entries until either end moves.
pub fn predict_coverage(
    medium: &Medium,
    aps: &[RadioId],
    sensors: &[RadioId],
) -> Vec<CoveragePrediction> {
    let mut out = Vec::with_capacity(aps.len() * sensors.len());
    for &ap in aps {
        for &sensor in sensors {
            if ap == sensor {
                continue;
            }
            let rssi = medium.rssi_estimate_dbm(ap, sensor);
            out.push(CoveragePrediction {
                ap,
                sensor,
                predicted_rssi_dbm: rssi,
                decodable: rssi >= Bitrate::MIN_SENSITIVITY_DBM,
            });
        }
    }
    out
}

/// One audited network observation.
#[derive(Clone, Debug)]
pub struct BssObservation {
    /// BSSID.
    pub bssid: MacAddr,
    /// SSID.
    pub ssid: String,
    /// Channels this BSSID was heard beaconing on.
    pub channels: Vec<u8>,
    /// First time heard.
    pub first_heard: SimTime,
    /// Strongest RSSI observed.
    pub best_rssi_dbm: f64,
}

/// The auditor: digest a sweep capture into observations and alarms.
pub struct SiteAuditor {
    /// Authorized (bssid, channel) pairs; empty = no registry.
    authorized: HashSet<(MacAddr, u8)>,
    /// Findings.
    pub alarms: Vec<Alarm>,
}

impl Default for SiteAuditor {
    fn default() -> Self {
        Self::new()
    }
}

impl SiteAuditor {
    /// Auditor with no registry.
    pub fn new() -> SiteAuditor {
        SiteAuditor {
            authorized: HashSet::new(),
            alarms: Vec::new(),
        }
    }

    /// Register an authorized AP (good record keeping).
    pub fn authorize(&mut self, bssid: MacAddr, channel: u8) {
        self.authorized.insert((bssid, channel));
    }

    /// Digest a sweep capture. Returns the per-BSS observations.
    pub fn audit(&mut self, sniffer: &Sniffer) -> Vec<BssObservation> {
        #[derive(Default)]
        struct Acc {
            ssid: String,
            channels: Vec<u8>,
            /// When each distinct channel was first heard.
            chan_first: Vec<SimTime>,
            first: Option<SimTime>,
            best: f64,
        }
        let mut by_bssid: HashMap<MacAddr, Acc> = HashMap::new();
        for (at, bssid, ssid, _claimed, heard, rssi) in sniffer.beacons() {
            let acc = by_bssid.entry(bssid).or_insert_with(|| Acc {
                ssid: ssid.clone(),
                channels: Vec::new(),
                chan_first: Vec::new(),
                first: None,
                best: f64::NEG_INFINITY,
            });
            if !acc.channels.contains(&heard) {
                acc.channels.push(heard);
                acc.chan_first.push(at);
            }
            if acc.first.is_none() {
                acc.first = Some(at);
            }
            acc.best = acc.best.max(rssi);
            if acc.ssid != ssid {
                // Same BSSID advertising different SSIDs: treat as a
                // capability mismatch.
                self.alarm_once(
                    at,
                    bssid,
                    AlarmKind::CapabilityMismatch,
                    format!("SSID flip: {:?} vs {:?}", acc.ssid, ssid),
                );
            }
        }

        let mut out = Vec::new();
        for (bssid, acc) in by_bssid {
            let first = acc.first.expect("at least one beacon");
            if acc.channels.len() > 1 {
                // The evidence instant is when the *second* channel was
                // first heard — detection latency is measured from there.
                let evidence_at = acc.chan_first.get(1).copied().unwrap_or(first);
                self.alarm_once(
                    evidence_at,
                    bssid,
                    AlarmKind::DuplicateBssid,
                    format!("BSSID beaconing on channels {:?}", acc.channels),
                );
            }
            if !self.authorized.is_empty() {
                for (i, &ch) in acc.channels.iter().enumerate() {
                    if !self.authorized.contains(&(bssid, ch)) {
                        let at = acc.chan_first.get(i).copied().unwrap_or(first);
                        self.alarm_once(
                            at,
                            bssid,
                            AlarmKind::DuplicateBssid,
                            format!("unregistered AP on channel {ch} (ssid {:?})", acc.ssid),
                        );
                    }
                }
            }
            out.push(BssObservation {
                bssid,
                ssid: acc.ssid,
                channels: acc.channels,
                first_heard: first,
                best_rssi_dbm: acc.best,
            });
        }
        out.sort_by_key(|o| o.bssid);
        out
    }

    fn alarm_once(&mut self, at: SimTime, subject: MacAddr, kind: AlarmKind, detail: String) {
        if !self
            .alarms
            .iter()
            .any(|a| a.subject == subject && a.kind == kind && a.detail == detail)
        {
            self.alarms.push(Alarm {
                at,
                subject,
                kind,
                detail,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rogue_dot11::frame::{Frame, FrameBody, MgmtInfo, CAP_ESS};

    fn beacon_bytes(bssid: MacAddr, ssid: &str, channel: u8) -> bytes::Bytes {
        Frame::new(
            MacAddr::BROADCAST,
            bssid,
            bssid,
            FrameBody::Beacon(MgmtInfo {
                timestamp: 0,
                beacon_interval_tu: 100,
                capability: CAP_ESS,
                ssid: ssid.into(),
                channel,
            }),
        )
        .encode()
    }

    #[test]
    fn clean_network_no_alarms() {
        let mut sniffer = Sniffer::new();
        sniffer.on_receive(
            SimTime::ZERO,
            &beacon_bytes(MacAddr::local(1), "CORP", 1),
            -50.0,
            1,
        );
        sniffer.on_receive(
            SimTime::from_millis(100),
            &beacon_bytes(MacAddr::local(2), "CORP", 6),
            -60.0,
            6,
        );
        let mut auditor = SiteAuditor::new();
        let obs = auditor.audit(&sniffer);
        assert_eq!(obs.len(), 2, "two legitimate ESS members");
        assert!(auditor.alarms.is_empty());
    }

    #[test]
    fn cloned_bssid_on_second_channel_alarms() {
        // Figure 1: the same BSSID on channels 1 and 6.
        let bssid = MacAddr::local(1);
        let mut sniffer = Sniffer::new();
        sniffer.on_receive(SimTime::ZERO, &beacon_bytes(bssid, "CORP", 1), -50.0, 1);
        sniffer.on_receive(
            SimTime::from_millis(120),
            &beacon_bytes(bssid, "CORP", 6),
            -45.0,
            6,
        );
        let mut auditor = SiteAuditor::new();
        let obs = auditor.audit(&sniffer);
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].channels.len(), 2);
        assert!(auditor
            .alarms
            .iter()
            .any(|a| a.kind == AlarmKind::DuplicateBssid && a.subject == bssid));
    }

    #[test]
    fn registry_flags_unregistered_ap() {
        let legit = MacAddr::local(1);
        let rogue = MacAddr::local(66);
        let mut sniffer = Sniffer::new();
        sniffer.on_receive(SimTime::ZERO, &beacon_bytes(legit, "CORP", 1), -50.0, 1);
        sniffer.on_receive(
            SimTime::from_millis(10),
            &beacon_bytes(rogue, "CORP", 6),
            -40.0,
            6,
        );
        let mut auditor = SiteAuditor::new();
        auditor.authorize(legit, 1);
        auditor.audit(&sniffer);
        assert!(auditor.alarms.iter().any(|a| a.subject == rogue));
        assert!(!auditor.alarms.iter().any(|a| a.subject == legit));
    }

    #[test]
    fn coverage_predictions_match_the_medium() {
        use rogue_phy::{MediumParams, Pos};
        use rogue_sim::Seed;

        let mut m = Medium::new(MediumParams::default(), Seed(3));
        let ap = m.add_radio(Pos::new(0.0, 0.0), 1, 15.0);
        let near = m.add_radio(Pos::new(20.0, 0.0), 1, 15.0);
        let far = m.add_radio(Pos::new(5000.0, 0.0), 1, 15.0);

        let preds = predict_coverage(&m, &[ap], &[near, far]);
        assert_eq!(preds.len(), 2);
        let at = |s: RadioId| preds.iter().find(|p| p.sensor == s).unwrap();
        assert!(at(near).decodable, "20 m sensor must be in coverage");
        assert!(!at(far).decodable, "5 km sensor must be out of coverage");
        // 15 dBm - (40 + 30·log10(20)) ≈ -64 dBm.
        assert!((at(near).predicted_rssi_dbm - -64.03).abs() < 0.05);

        // Predictions are served from the medium's shared path-loss
        // cache: a repeat audit hits instead of re-solving geometry.
        let (_, hits_before, _) = m.pathloss_cache_stats();
        let again = predict_coverage(&m, &[ap], &[near, far]);
        let (_, hits_after, _) = m.pathloss_cache_stats();
        assert!(hits_after >= hits_before + 2, "repeat audit must hit cache");
        assert_eq!(
            again[0].predicted_rssi_dbm.to_bits(),
            preds[0].predicted_rssi_dbm.to_bits()
        );
    }

    #[test]
    fn ssid_flip_alarms() {
        let bssid = MacAddr::local(1);
        let mut sniffer = Sniffer::new();
        sniffer.on_receive(SimTime::ZERO, &beacon_bytes(bssid, "CORP", 1), -50.0, 1);
        sniffer.on_receive(
            SimTime::from_millis(10),
            &beacon_bytes(bssid, "FREEWIFI", 1),
            -50.0,
            1,
        );
        let mut auditor = SiteAuditor::new();
        auditor.audit(&sniffer);
        assert!(auditor
            .alarms
            .iter()
            .any(|a| a.kind == AlarmKind::CapabilityMismatch));
    }
}
