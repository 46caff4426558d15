//! Beacon analysis: SSID clones, BSSID spoofs, and churn.
//!
//! The radio site audit of §2.3 ("good record keeping and doing radio
//! site audits will help detect these rogues"), streamed: it checks
//! every beacon as it arrives against the administrator's AP registry.
//! E6 feeds it a finished channel sweep; the pipeline feeds it live
//! sensors.
//!
//! * an **authorized BSSID** heard beaconing on a channel it is not
//!   registered for is the Figure-1 cloned-BSSID rogue,
//! * an **authorized SSID** advertised by an unregistered BSSID is an
//!   evil twin inviting stations to roam,
//! * **many distinct** unregistered BSSIDs advertising one owned SSID
//!   inside a short window is the MAC-randomizing twin: each individual
//!   clone claim is weak (any café can reuse a name), but a parade of
//!   fresh BSSIDs behind one owned name is near-certain evasion.
//!
//! Only broadcast beacons are audited — directed probe responses are the
//! probe-audit detector's business, and mixing them in would double-count
//! every advertisement.

use std::collections::HashSet;
use std::mem::size_of;

use rogue_dot11::MacAddr;
use rogue_sim::SimDuration;

use crate::detector::{AlertKind, Detector, RawAlert};
use crate::event::{Dot11Kind, SensorEvent};
use crate::sketch::{hash_mac, mix64, BoundedTable, WindowCounter};

const CLONE_GROUPS: usize = 4096;
const CLONE_WAYS: usize = 4;

/// Hash an SSID into the shared key-hash domain.
#[inline]
pub(crate) fn hash_ssid(ssid: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
    for b in ssid.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix64(h)
}

/// The longest SSID an 802.11 SSID element carries, in bytes.
const MAX_SSID_BYTES: usize = 32;

/// The SSIDs the site owns: one slot per registry entry, holding the
/// first SSID of at most [`MAX_SSID_BYTES`] that entry's (BSSID, channel)
/// pair beacons. Later names under the pair are not learned, so a forger
/// of a registered BSSID on its own channel can neither grow the set nor
/// teach the auditors its names, and the footprint is fixed by the
/// registry. The beacon and probe auditors each keep one.
pub(crate) struct OwnedSsids {
    registry: Vec<(MacAddr, u8)>,
    names: Vec<Option<String>>,
}

impl OwnedSsids {
    pub(crate) fn new(registry: &[(MacAddr, u8)]) -> OwnedSsids {
        OwnedSsids {
            registry: registry.to_vec(),
            names: vec![None; registry.len()],
        }
    }

    /// Learn `ssid` as the name of the registry entry (`bssid`,
    /// `channel`) unless the entry has one already. Returns whether the
    /// pair is registered at all.
    pub(crate) fn learn(&mut self, bssid: MacAddr, channel: u8, ssid: &str) -> bool {
        let Some(k) = self.registry.iter().position(|&e| e == (bssid, channel)) else {
            return false;
        };
        if self.names[k].is_none() && ssid.len() <= MAX_SSID_BYTES {
            self.names[k] = Some(ssid.to_owned());
        }
        true
    }

    /// Does the site own `ssid`?
    pub(crate) fn contains(&self, ssid: &str) -> bool {
        self.names.iter().any(|n| n.as_deref() == Some(ssid))
    }

    /// Names learned so far (at most one per registry entry).
    pub(crate) fn len(&self) -> usize {
        self.names.iter().flatten().count()
    }

    /// Fixed footprint: every slot holding a name of the longest length.
    pub(crate) fn bytes(&self) -> usize {
        self.names.len() * (size_of::<Option<String>>() + MAX_SSID_BYTES)
    }
}

/// Registry-driven tuning.
#[derive(Clone, Debug)]
pub struct BeaconConfig {
    /// Authorized (BSSID, channel) pairs.
    pub authorized: Vec<(MacAddr, u8)>,
    /// Distinct unregistered BSSIDs advertising one owned SSID within
    /// [`BeaconConfig::churn_window`] needed for a churn alert.
    pub churn_threshold: u32,
    /// Sliding window for the churn count.
    pub churn_window: SimDuration,
}

impl Default for BeaconConfig {
    fn default() -> Self {
        BeaconConfig {
            authorized: Vec::new(),
            churn_threshold: 6,
            churn_window: SimDuration::from_secs(10),
        }
    }
}

impl BeaconConfig {
    /// Registry with one authorized AP.
    pub fn single_ap(bssid: MacAddr, channel: u8) -> BeaconConfig {
        BeaconConfig {
            authorized: vec![(bssid, channel)],
            ..BeaconConfig::default()
        }
    }
}

/// The beacon detector.
pub struct BeaconDetector {
    cfg: BeaconConfig,
    /// SSIDs owned by registered APs, learned from beacons of authorized
    /// BSSIDs on their registered channels (an empty name included).
    owned_ssids: OwnedSsids,
    /// Once-only latches per (BSSID, channel) spoof. Keys are drawn from
    /// the registry, so the set stays registry-sized.
    alerted_spoof: HashSet<(MacAddr, u8)>,
    /// Once-only latches per (owned SSID, cloning BSSID) pair — bounded,
    /// since the cloning BSSID is attacker-chosen.
    alerted_clone: BoundedTable<(u64, MacAddr), ()>,
    /// Fresh clone pairs per owned SSID over the churn window.
    churn: WindowCounter,
    /// SSIDs already churn-alerted (bounded by owned SSID count).
    alerted_churn: HashSet<u64>,
    /// Beacons inspected.
    pub beacons_seen: u64,
}

impl BeaconDetector {
    /// Detector over the given registry.
    pub fn new(cfg: BeaconConfig) -> BeaconDetector {
        BeaconDetector {
            churn: WindowCounter::new(cfg.churn_window, 10, 512, 4),
            owned_ssids: OwnedSsids::new(&cfg.authorized),
            cfg,
            alerted_spoof: HashSet::new(),
            alerted_clone: BoundedTable::new(CLONE_GROUPS, CLONE_WAYS),
            alerted_churn: HashSet::new(),
            beacons_seen: 0,
        }
    }

    /// Fixed footprint of the owned names, the clone latches and the
    /// churn sketch, in bytes.
    pub fn state_bytes(&self) -> usize {
        self.owned_ssids.bytes() + self.alerted_clone.bytes() + self.churn.bytes()
    }

    /// SSIDs learned as owned (at most one per registry entry).
    pub fn owned_ssid_count(&self) -> usize {
        self.owned_ssids.len()
    }
}

impl Detector for BeaconDetector {
    fn name(&self) -> &'static str {
        "beacon-audit"
    }

    fn on_event(&mut self, ev: &SensorEvent, out: &mut Vec<RawAlert>) {
        let SensorEvent::Dot11(e) = ev else { return };
        let Dot11Kind::Beacon {
            ssid, probe_resp, ..
        } = &e.kind
        else {
            return;
        };
        if *probe_resp {
            return; // directed advertisements belong to probe-audit
        }
        self.beacons_seen += 1;
        let bssid_known = self.cfg.authorized.iter().any(|(b, _)| *b == e.bssid);
        if self.owned_ssids.learn(e.bssid, e.channel, ssid) {
            // A registered AP where it belongs: its SSID is learned.
            return;
        }
        if bssid_known {
            // Our BSSID, wrong channel: a clone on air.
            if self.alerted_spoof.insert((e.bssid, e.channel)) {
                out.push(RawAlert {
                    at: e.at,
                    detector: "beacon-audit",
                    subject: e.bssid,
                    kind: AlertKind::BssidSpoof,
                    weight: 0.9,
                    detail: format!(
                        "authorized BSSID beaconing on unregistered channel {} (ssid {ssid:?})",
                        e.channel
                    ),
                });
            }
            return;
        }
        // Unknown BSSID advertising a name we own: an evil twin.
        if !self.owned_ssids.contains(ssid) {
            return;
        }
        let sh = hash_ssid(ssid);
        let pair = (sh, e.bssid);
        let ph = mix64(sh ^ hash_mac(&e.bssid.0));
        if self.alerted_clone.get_touch(e.at, ph, pair).is_some() {
            return; // this pair already reported
        }
        self.alerted_clone.entry(e.at, ph, pair, || ());
        out.push(RawAlert {
            at: e.at,
            detector: "beacon-audit",
            subject: e.bssid,
            kind: AlertKind::SsidClone,
            weight: 0.6,
            detail: format!("unregistered BSSID advertising owned SSID {ssid:?}"),
        });
        // A fresh pair also feeds the churn count for this SSID: one
        // rotating rogue looks like a stream of new weak clone claims.
        let fresh = self.churn.observe(e.at, sh);
        if fresh >= self.cfg.churn_threshold && self.alerted_churn.insert(sh) {
            out.push(RawAlert {
                at: e.at,
                detector: "beacon-audit",
                subject: e.bssid,
                kind: AlertKind::SsidChurn,
                weight: 0.95,
                detail: format!(
                    "{fresh} distinct unregistered BSSIDs advertising owned SSID {ssid:?} within {}",
                    self.cfg.churn_window
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Dot11Event, SensorId};
    use rogue_sim::SimTime;

    fn beacon(ms: u64, bssid: MacAddr, ssid: &str, channel: u8) -> SensorEvent {
        SensorEvent::Dot11(Dot11Event {
            sensor: SensorId(0),
            at: SimTime::from_millis(ms),
            channel,
            rssi_dbm: -40.0,
            ta: bssid,
            ra: MacAddr::BROADCAST,
            bssid,
            seq: 0,
            retry: false,
            kind: Dot11Kind::Beacon {
                ssid: ssid.into(),
                claimed_channel: channel,
                capability: 0,
                probe_resp: false,
            },
        })
    }

    #[test]
    fn cloned_bssid_on_wrong_channel_alerts_once() {
        let corp = MacAddr::local(1);
        let mut d = BeaconDetector::new(BeaconConfig::single_ap(corp, 1));
        let mut out = Vec::new();
        d.on_event(&beacon(0, corp, "CORP", 1), &mut out);
        assert!(out.is_empty(), "registered AP is fine");
        d.on_event(&beacon(100, corp, "CORP", 6), &mut out);
        d.on_event(&beacon(200, corp, "CORP", 6), &mut out);
        assert_eq!(out.len(), 1, "one alert per (bssid, channel): {out:?}");
        assert_eq!(out[0].kind, AlertKind::BssidSpoof);
        assert_eq!(out[0].subject, corp);
    }

    #[test]
    fn cloned_bssid_on_second_channel_alarms() {
        // Figure 1: the same BSSID beaconing on channels 1 and 6.
        let bssid = MacAddr::local(1);
        let mut d = BeaconDetector::new(BeaconConfig::single_ap(bssid, 1));
        let mut out = Vec::new();
        d.on_event(&beacon(0, bssid, "CORP", 1), &mut out);
        d.on_event(&beacon(120, bssid, "CORP", 6), &mut out);
        assert_eq!(d.beacons_seen, 2);
        assert!(out
            .iter()
            .any(|a| a.kind == AlertKind::BssidSpoof && a.subject == bssid));
    }

    #[test]
    fn clean_network_no_alarms() {
        // Two registered members of one ESS, each on its own channel.
        let (a, b) = (MacAddr::local(1), MacAddr::local(2));
        let mut d = BeaconDetector::new(BeaconConfig {
            authorized: vec![(a, 1), (b, 6)],
            ..BeaconConfig::default()
        });
        let mut out = Vec::new();
        d.on_event(&beacon(0, a, "CORP", 1), &mut out);
        d.on_event(&beacon(100, b, "CORP", 6), &mut out);
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(d.beacons_seen, 2);
    }

    #[test]
    fn evil_twin_ssid_alerts() {
        let corp = MacAddr::local(1);
        let twin = MacAddr::local(9);
        let mut d = BeaconDetector::new(BeaconConfig::single_ap(corp, 1));
        let mut out = Vec::new();
        d.on_event(&beacon(0, corp, "CORP", 1), &mut out);
        d.on_event(&beacon(50, twin, "CORP", 11), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, AlertKind::SsidClone);
        assert_eq!(out[0].subject, twin);
    }

    #[test]
    fn unrelated_networks_ignored() {
        let corp = MacAddr::local(1);
        let cafe = MacAddr::local(7);
        let mut d = BeaconDetector::new(BeaconConfig::single_ap(corp, 1));
        let mut out = Vec::new();
        d.on_event(&beacon(0, corp, "CORP", 1), &mut out);
        d.on_event(&beacon(10, cafe, "CAFE", 11), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn probe_responses_are_not_audited_here() {
        let corp = MacAddr::local(1);
        let twin = MacAddr::local(9);
        let mut d = BeaconDetector::new(BeaconConfig::single_ap(corp, 1));
        let mut out = Vec::new();
        d.on_event(&beacon(0, corp, "CORP", 1), &mut out);
        let mut pr = beacon(50, twin, "CORP", 11);
        if let SensorEvent::Dot11(e) = &mut pr {
            if let Dot11Kind::Beacon { probe_resp, .. } = &mut e.kind {
                *probe_resp = true;
            }
        }
        d.on_event(&pr, &mut out);
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(d.beacons_seen, 1, "probe responses are not beacons");
    }

    #[test]
    fn rotating_bssids_raise_churn() {
        let corp = MacAddr::local(1);
        let mut d = BeaconDetector::new(BeaconConfig::single_ap(corp, 1));
        let mut out = Vec::new();
        d.on_event(&beacon(0, corp, "CORP", 1), &mut out);
        // A rogue rotating its BSSID every 500 ms under the owned name.
        for i in 0..8u64 {
            d.on_event(
                &beacon(100 + i * 500, MacAddr::local(100 + i), "CORP", 11),
                &mut out,
            );
        }
        let churn: Vec<_> = out
            .iter()
            .filter(|a| a.kind == AlertKind::SsidChurn)
            .collect();
        assert_eq!(churn.len(), 1, "{out:?}");
        assert!(churn[0].weight > 0.9);
        // Each rotation also produced its individual weak clone claim.
        assert_eq!(
            out.iter()
                .filter(|a| a.kind == AlertKind::SsidClone)
                .count(),
            8
        );
    }

    #[test]
    fn a_single_stable_twin_does_not_churn() {
        let corp = MacAddr::local(1);
        let twin = MacAddr::local(9);
        let mut d = BeaconDetector::new(BeaconConfig::single_ap(corp, 1));
        let mut out = Vec::new();
        d.on_event(&beacon(0, corp, "CORP", 1), &mut out);
        for i in 0..100u64 {
            d.on_event(&beacon(50 + i * 100, twin, "CORP", 11), &mut out);
        }
        assert!(
            out.iter().all(|a| a.kind != AlertKind::SsidChurn),
            "{out:?}"
        );
    }
}
