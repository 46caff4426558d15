//! Probe-response auditing: cloaked twins and karma-style responders.
//!
//! A rogue that never broadcasts its SSID is invisible to beacon
//! auditing — it cloaks its beacons (empty SSID) and advertises only in
//! *directed probe responses* to stations that already know the name.
//! This detector watches the directed side of advertisement, which the
//! beacon auditor deliberately ignores:
//!
//! * a **cloaked twin** — an unregistered BSSID whose broadcast beacons
//!   are cloaked but which probe-responds an SSID the site owns. A
//!   legitimate hidden network responds with *its own* name, not ours;
//! * a **karma responder** — one BSSID probe-responding many distinct
//!   SSIDs in a short window, the classic "karma" attack answering every
//!   directed probe with whatever name the victim asked for.
//!
//! Both checks are gated on what the BSSID actually broadcast-beaconed,
//! so an honest AP whose probe response merely arrives before its first
//! observed beacon is never flagged.

use rogue_dot11::MacAddr;
use rogue_sim::SimDuration;

use crate::detector::{AlertKind, Detector, RawAlert};
use crate::detectors::beacon::{hash_ssid, OwnedSsids};
use crate::event::{Dot11Kind, SensorEvent};
use crate::sketch::{hash_mac, mix64, BoundedTable, WindowCounter};

const PROBE_GROUPS: usize = 4096;
const PROBE_WAYS: usize = 4;

/// Probe-audit tuning.
#[derive(Clone, Debug)]
pub struct ProbeAuditConfig {
    /// Authorized (BSSID, channel) pairs — registered APs are exempt,
    /// and owned SSIDs are learned from their beacons.
    pub authorized: Vec<(MacAddr, u8)>,
    /// Distinct SSIDs probe-responded by one BSSID within
    /// [`ProbeAuditConfig::karma_window`] needed for a karma alert.
    pub karma_threshold: u32,
    /// Sliding window for the karma count.
    pub karma_window: SimDuration,
}

impl Default for ProbeAuditConfig {
    fn default() -> Self {
        ProbeAuditConfig {
            authorized: Vec::new(),
            karma_threshold: 4,
            karma_window: SimDuration::from_secs(10),
        }
    }
}

/// Per-BSSID advertisement posture (one bounded slot).
#[derive(Default)]
struct ProbeFlags {
    /// Broadcast-beaconed with an empty (cloaked) SSID.
    cloak_beaconed: bool,
    /// Broadcast-beaconed with a real SSID.
    open_beaconed: bool,
    cloaked_alerted: bool,
    karma_alerted: bool,
}

/// The probe-response auditor.
pub struct ProbeAuditDetector {
    cfg: ProbeAuditConfig,
    /// SSIDs owned by registered APs, learned as the beacon auditor
    /// learns them but never an empty (cloaked) name.
    owned_ssids: OwnedSsids,
    flags: BoundedTable<MacAddr, ProbeFlags>,
    /// Dedup of (BSSID, SSID) probe-response pairs feeding the karma
    /// distinct-SSID count.
    seen_pairs: BoundedTable<(MacAddr, u64), ()>,
    karma: WindowCounter,
    /// Probe responses inspected.
    pub responses_seen: u64,
}

impl ProbeAuditDetector {
    /// Detector with the given tuning.
    pub fn new(cfg: ProbeAuditConfig) -> ProbeAuditDetector {
        ProbeAuditDetector {
            karma: WindowCounter::new(cfg.karma_window, 10, 512, 4),
            owned_ssids: OwnedSsids::new(&cfg.authorized),
            cfg,
            flags: BoundedTable::new(PROBE_GROUPS, PROBE_WAYS),
            seen_pairs: BoundedTable::new(PROBE_GROUPS, PROBE_WAYS),
            responses_seen: 0,
        }
    }

    /// Fixed state footprint of the owned names and the bounded
    /// substrates, in bytes.
    pub fn state_bytes(&self) -> usize {
        self.owned_ssids.bytes() + self.flags.bytes() + self.seen_pairs.bytes() + self.karma.bytes()
    }

    /// SSIDs learned as owned (at most one per registry entry).
    pub fn owned_ssid_count(&self) -> usize {
        self.owned_ssids.len()
    }
}

impl Default for ProbeAuditDetector {
    fn default() -> Self {
        ProbeAuditDetector::new(ProbeAuditConfig::default())
    }
}

impl Detector for ProbeAuditDetector {
    fn name(&self) -> &'static str {
        "probe-audit"
    }

    fn on_event(&mut self, ev: &SensorEvent, out: &mut Vec<RawAlert>) {
        let SensorEvent::Dot11(e) = ev else { return };
        let Dot11Kind::Beacon {
            ssid, probe_resp, ..
        } = &e.kind
        else {
            return;
        };
        let bh = hash_mac(&e.bssid.0);
        if !probe_resp {
            // Broadcast side: record the BSSID's advertisement posture
            // and learn owned SSIDs from registered APs in place.
            let st = self.flags.entry(e.at, bh, e.bssid, ProbeFlags::default);
            if ssid.is_empty() {
                st.cloak_beaconed = true;
            } else {
                st.open_beaconed = true;
            }
            if !ssid.is_empty() {
                self.owned_ssids.learn(e.bssid, e.channel, ssid);
            }
            return;
        }
        self.responses_seen += 1;
        if self.cfg.authorized.iter().any(|(b, _)| *b == e.bssid) {
            return; // registered APs answer probes for their own name
        }
        let st = self.flags.entry(e.at, bh, e.bssid, ProbeFlags::default);
        // Cloaked twin: broadcasts nothing (or only cloaked beacons) yet
        // hands out an owned name on request.
        if st.cloak_beaconed
            && !st.open_beaconed
            && !st.cloaked_alerted
            && self.owned_ssids.contains(ssid)
        {
            st.cloaked_alerted = true;
            out.push(RawAlert {
                at: e.at,
                detector: "probe-audit",
                subject: e.bssid,
                kind: AlertKind::CloakedTwin,
                weight: 0.85,
                detail: format!("cloaked beacons but probe-responds owned SSID {ssid:?}"),
            });
        }
        // Karma: count distinct SSIDs this BSSID has responded with.
        let sh = hash_ssid(ssid);
        let pair = (e.bssid, sh);
        let ph = mix64(bh ^ sh);
        if self.seen_pairs.get_touch(e.at, ph, pair).is_none() {
            self.seen_pairs.entry(e.at, ph, pair, || ());
            let distinct = self.karma.observe(e.at, bh);
            let st = self.flags.entry(e.at, bh, e.bssid, ProbeFlags::default);
            if distinct >= self.cfg.karma_threshold && !st.karma_alerted {
                st.karma_alerted = true;
                out.push(RawAlert {
                    at: e.at,
                    detector: "probe-audit",
                    subject: e.bssid,
                    kind: AlertKind::KarmaProbe,
                    weight: 0.9,
                    detail: format!(
                        "probe-responded {distinct} distinct SSIDs within {}",
                        self.cfg.karma_window
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Dot11Event, SensorId};
    use rogue_sim::SimTime;

    fn advert(ms: u64, bssid: MacAddr, ssid: &str, probe_resp: bool) -> SensorEvent {
        SensorEvent::Dot11(Dot11Event {
            sensor: SensorId(0),
            at: SimTime::from_millis(ms),
            channel: 1,
            rssi_dbm: -40.0,
            ta: bssid,
            ra: if probe_resp {
                MacAddr::local(40)
            } else {
                MacAddr::BROADCAST
            },
            bssid,
            seq: (ms % 4096) as u16,
            retry: false,
            kind: Dot11Kind::Beacon {
                ssid: ssid.into(),
                claimed_channel: 1,
                capability: 0,
                probe_resp,
            },
        })
    }

    fn registry(corp: MacAddr) -> ProbeAuditConfig {
        ProbeAuditConfig {
            authorized: vec![(corp, 1)],
            ..ProbeAuditConfig::default()
        }
    }

    #[test]
    fn cloaked_twin_responding_owned_ssid_alerts() {
        let corp = MacAddr::local(1);
        let rogue = MacAddr::local(9);
        let mut d = ProbeAuditDetector::new(registry(corp));
        let mut out = Vec::new();
        d.on_event(&advert(0, corp, "CORP", false), &mut out);
        d.on_event(&advert(100, rogue, "", false), &mut out);
        d.on_event(&advert(200, rogue, "CORP", true), &mut out);
        d.on_event(&advert(300, rogue, "CORP", true), &mut out);
        let cloaked: Vec<_> = out
            .iter()
            .filter(|a| a.kind == AlertKind::CloakedTwin)
            .collect();
        assert_eq!(cloaked.len(), 1, "{out:?}");
        assert_eq!(cloaked[0].subject, rogue);
    }

    #[test]
    fn open_beaconing_ap_is_not_a_cloaked_twin() {
        // An AP that beacons "CORP" openly and also probe-responds it is
        // the beacon auditor's business (SsidClone), not ours.
        let corp = MacAddr::local(1);
        let twin = MacAddr::local(9);
        let mut d = ProbeAuditDetector::new(registry(corp));
        let mut out = Vec::new();
        d.on_event(&advert(0, corp, "CORP", false), &mut out);
        d.on_event(&advert(100, twin, "CORP", false), &mut out);
        d.on_event(&advert(200, twin, "CORP", true), &mut out);
        assert!(
            out.iter().all(|a| a.kind != AlertKind::CloakedTwin),
            "{out:?}"
        );
    }

    #[test]
    fn probe_response_before_first_beacon_is_tolerated() {
        // e9's shape: a legitimate unregistered AP answers a probe before
        // we ever hear its beacon. No cloaked beacon seen -> no alert.
        let corp = MacAddr::local(1);
        let cafe = MacAddr::local(7);
        let mut d = ProbeAuditDetector::new(registry(corp));
        let mut out = Vec::new();
        d.on_event(&advert(0, corp, "CORP", false), &mut out);
        d.on_event(&advert(50, cafe, "CAFE", true), &mut out);
        d.on_event(&advert(150, cafe, "CAFE", false), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn karma_responder_alerts_on_distinct_ssids() {
        let corp = MacAddr::local(1);
        let rogue = MacAddr::local(9);
        let mut d = ProbeAuditDetector::new(registry(corp));
        let mut out = Vec::new();
        for (i, name) in ["HOME", "AIRPORT", "HOTEL", "COFFEE", "DORM"]
            .iter()
            .enumerate()
        {
            // Repeats of the same name must not inflate the count.
            d.on_event(&advert(i as u64 * 100, rogue, name, true), &mut out);
            d.on_event(&advert(i as u64 * 100 + 50, rogue, name, true), &mut out);
        }
        let karma: Vec<_> = out
            .iter()
            .filter(|a| a.kind == AlertKind::KarmaProbe)
            .collect();
        assert_eq!(karma.len(), 1, "{out:?}");
        assert_eq!(karma[0].at, SimTime::from_millis(300), "fourth name");
    }

    #[test]
    fn single_name_responder_never_triggers_karma() {
        let corp = MacAddr::local(1);
        let cafe = MacAddr::local(7);
        let mut d = ProbeAuditDetector::new(registry(corp));
        let mut out = Vec::new();
        for i in 0..50u64 {
            d.on_event(&advert(i * 100, cafe, "CAFE", true), &mut out);
        }
        assert!(out.is_empty(), "{out:?}");
    }
}
