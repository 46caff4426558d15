//! Wired-side ARP spoof detection.
//!
//! The paper's §5 rogue bridges wireless victims onto the wired LAN by
//! rewriting ARP bindings; cache poisoners do the same to splice into a
//! path. Both leave the same wire evidence, which this detector tracks
//! from the span-port sensor:
//!
//! * a **binding conflict** — an IP previously claimed by one hardware
//!   address is suddenly claimed by another,
//! * a **gratuitous burst** — repeated unsolicited is-at replies, the
//!   shape poisoners use to keep victim caches warm.
//!
//! The learned binding table, the conflict-alert latches, and the burst
//! counters all live on the bounded substrates in [`crate::sketch`]:
//! memory is capped at construction, so a spoofer cycling forged
//! addresses recycles slots instead of growing the detector.

use rogue_dot11::MacAddr;
use rogue_netstack::Ipv4Addr;
use rogue_sim::{SimDuration, SimTime};

use crate::detector::{AlertKind, Detector, RawAlert};
use crate::event::SensorEvent;
use crate::sketch::{hash_mac, mix64, BoundedTable, WindowCounter};

const BIND_GROUPS: usize = 1024;
const BIND_WAYS: usize = 4;

/// Hash an IPv4 address into the shared key-hash domain.
#[inline]
fn hash_ip(ip: Ipv4Addr) -> u64 {
    let o = ip.octets();
    mix64(u32::from_be_bytes(o) as u64)
}

/// Gratuitous replies from one source within [`GRATUITOUS_WINDOW`]
/// needed for a burst alert.
pub const GRATUITOUS_THRESHOLD: u32 = 4;
/// Sliding window for the gratuitous-burst count.
pub const GRATUITOUS_WINDOW: SimDuration = SimDuration::from_secs(5);

/// The ARP spoof detector.
pub struct ArpSpoofDetector {
    /// Learned IP -> hardware bindings, first claim wins.
    bindings: BoundedTable<Ipv4Addr, MacAddr>,
    /// Once-only latches for already-reported (IP, claimant) conflicts.
    alerted_conflicts: BoundedTable<(Ipv4Addr, MacAddr), ()>,
    gratuitous: WindowCounter,
    alerted_bursts: BoundedTable<MacAddr, ()>,
    /// ARP packets inspected.
    pub arps_seen: u64,
}

impl Default for ArpSpoofDetector {
    fn default() -> Self {
        ArpSpoofDetector {
            bindings: BoundedTable::new(BIND_GROUPS, BIND_WAYS),
            alerted_conflicts: BoundedTable::new(BIND_GROUPS, BIND_WAYS),
            gratuitous: WindowCounter::new(GRATUITOUS_WINDOW, 10, 512, 4),
            alerted_bursts: BoundedTable::new(BIND_GROUPS, BIND_WAYS),
            arps_seen: 0,
        }
    }
}

impl ArpSpoofDetector {
    /// Pre-seed a trusted IP -> MAC binding (from the site inventory),
    /// so the first spoofed claim conflicts instead of being learned.
    pub fn trust(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        *self.bindings.entry(SimTime::ZERO, hash_ip(ip), ip, || mac) = mac;
    }

    /// Bound on the state footprint, in bytes.
    pub fn state_bytes(&self) -> usize {
        self.bindings.bytes()
            + self.alerted_conflicts.bytes()
            + self.gratuitous.bytes()
            + self.alerted_bursts.bytes()
    }

    /// State allocated so far, in bytes.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.bindings.resident_bytes()
            + self.alerted_conflicts.resident_bytes()
            + self.gratuitous.resident_bytes()
            + self.alerted_bursts.resident_bytes()
    }
}

impl Detector for ArpSpoofDetector {
    fn name(&self) -> &'static str {
        "arp-spoof"
    }

    fn on_event(&mut self, ev: &SensorEvent, out: &mut Vec<RawAlert>) {
        let SensorEvent::Arp(e) = ev else { return };
        self.arps_seen += 1;
        // Binding conflict: the claim under scrutiny is sender_ip is-at
        // sender_mac, regardless of op (requests leak bindings too).
        let iph = hash_ip(e.sender_ip);
        match self.bindings.get_touch(e.at, iph, e.sender_ip).map(|m| *m) {
            None => {
                self.bindings.entry(e.at, iph, e.sender_ip, || e.sender_mac);
            }
            Some(bound) if bound != e.sender_mac => {
                let latch = (e.sender_ip, e.sender_mac);
                let h = iph ^ hash_mac(&e.sender_mac.0);
                if self.alerted_conflicts.get_touch(e.at, h, latch).is_none() {
                    self.alerted_conflicts.entry(e.at, h, latch, || ());
                    out.push(RawAlert {
                        at: e.at,
                        detector: "arp-spoof",
                        subject: e.sender_mac,
                        kind: AlertKind::ArpSpoof,
                        weight: 0.9,
                        detail: format!(
                            "{} rebound from {bound} to {} ({:?})",
                            e.sender_ip, e.sender_mac, e.op
                        ),
                    });
                }
            }
            Some(_) => {}
        }
        // Gratuitous burst accounting.
        if !e.gratuitous {
            return;
        }
        let mh = hash_mac(&e.src_mac.0);
        let count = self.gratuitous.observe(e.at, mh);
        if count >= GRATUITOUS_THRESHOLD
            && self.alerted_bursts.get_touch(e.at, mh, e.src_mac).is_none()
        {
            self.alerted_bursts.entry(e.at, mh, e.src_mac, || ());
            out.push(RawAlert {
                at: e.at,
                detector: "arp-spoof",
                subject: e.src_mac,
                kind: AlertKind::ArpSpoof,
                weight: 0.6,
                detail: format!("{count} gratuitous replies within {GRATUITOUS_WINDOW}"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ArpEvent, SensorId};
    use rogue_netstack::arp::ArpOp;

    fn reply(ms: u64, mac: MacAddr, ip: Ipv4Addr, gratuitous: bool) -> SensorEvent {
        SensorEvent::Arp(ArpEvent {
            sensor: SensorId(0),
            at: SimTime::from_millis(ms),
            src_mac: mac,
            op: ArpOp::Reply,
            sender_mac: mac,
            sender_ip: ip,
            target_ip: if gratuitous {
                ip
            } else {
                Ipv4Addr::new(192, 168, 0, 1)
            },
            gratuitous,
        })
    }

    #[test]
    fn binding_conflict_alerts_once() {
        let gw = Ipv4Addr::new(192, 168, 0, 254);
        let mut d = ArpSpoofDetector::default();
        let mut out = Vec::new();
        d.on_event(&reply(0, MacAddr::local(1), gw, false), &mut out);
        assert!(out.is_empty(), "first claim is learned");
        d.on_event(&reply(100, MacAddr::local(66), gw, false), &mut out);
        d.on_event(&reply(200, MacAddr::local(66), gw, false), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].kind, AlertKind::ArpSpoof);
        assert_eq!(out[0].subject, MacAddr::local(66));
        assert!((out[0].weight - 0.9).abs() < 1e-9);
    }

    #[test]
    fn trusted_binding_conflicts_immediately() {
        let gw = Ipv4Addr::new(192, 168, 0, 254);
        let mut d = ArpSpoofDetector::default();
        d.trust(gw, MacAddr::local(1));
        let mut out = Vec::new();
        d.on_event(&reply(0, MacAddr::local(66), gw, false), &mut out);
        assert_eq!(out.len(), 1, "spoof of a trusted binding: {out:?}");
    }

    #[test]
    fn gratuitous_burst_alerts() {
        let ip = Ipv4Addr::new(192, 168, 0, 50);
        let mut d = ArpSpoofDetector::default();
        let mut out = Vec::new();
        for i in 0..6u64 {
            d.on_event(&reply(i * 500, MacAddr::local(66), ip, true), &mut out);
        }
        assert_eq!(out.len(), 1, "{out:?}");
        assert!((out[0].weight - 0.6).abs() < 1e-9);
    }

    #[test]
    fn stable_bindings_stay_silent() {
        let mut d = ArpSpoofDetector::default();
        let mut out = Vec::new();
        for i in 0..20u64 {
            let host = MacAddr::local((i % 4) + 1);
            let ip = Ipv4Addr::new(192, 168, 0, (i % 4) as u8 + 1);
            d.on_event(&reply(i * 100, host, ip, false), &mut out);
        }
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn state_is_fixed_under_forged_claims() {
        let mut d = ArpSpoofDetector::default();
        let mut out = Vec::new();
        let before = d.state_bytes();
        for i in 0..100_000u64 {
            let mac = MacAddr::local(i + 1);
            let ip = Ipv4Addr::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8);
            d.on_event(&reply(i / 10, mac, ip, false), &mut out);
        }
        assert_eq!(d.state_bytes(), before, "tables must not grow");
        assert!(d.bindings.tracked() <= d.bindings.capacity());
    }
}
