//! ARP: codec, cache, and proxy-ARP.
//!
//! Proxy-ARP is the heart of the paper's transparent bridge: `parprouted`
//! makes the gateway answer ARP queries on each interface for hosts that
//! actually live behind the *other* interface, so the victim resolves the
//! legitimate gateway's IP to the attacker's MAC without noticing
//! anything. The cache and codec here are used by every host; the proxy
//! answering policy is driven by `rogue-services::parprouted`.

use bytes::{BufMut, Bytes, BytesMut};
use rogue_dot11::MacAddr;
use rogue_sim::{SimDuration, SimTime};
use std::collections::HashMap;

use crate::Ipv4Addr;

/// ARP operation codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArpOp {
    /// Who-has.
    Request,
    /// Is-at.
    Reply,
}

/// A parsed ARP packet (Ethernet/IPv4 flavour only).
#[derive(Clone, Debug, PartialEq)]
pub struct ArpPacket {
    /// Operation.
    pub op: ArpOp,
    /// Sender hardware address.
    pub sender_mac: MacAddr,
    /// Sender protocol address.
    pub sender_ip: Ipv4Addr,
    /// Target hardware address (zero in requests).
    pub target_mac: MacAddr,
    /// Target protocol address.
    pub target_ip: Ipv4Addr,
}

impl ArpPacket {
    /// A who-has request for `target_ip`.
    pub fn request(sender_mac: MacAddr, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> ArpPacket {
        ArpPacket {
            op: ArpOp::Request,
            sender_mac,
            sender_ip,
            target_mac: MacAddr::ZERO,
            target_ip,
        }
    }

    /// An is-at reply answering `req`.
    pub fn reply_to(req: &ArpPacket, my_mac: MacAddr) -> ArpPacket {
        ArpPacket {
            op: ArpOp::Reply,
            sender_mac: my_mac,
            sender_ip: req.target_ip,
            target_mac: req.sender_mac,
            target_ip: req.sender_ip,
        }
    }

    /// Serialize.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(28);
        buf.put_u16(1); // hardware: ethernet
        buf.put_u16(0x0800); // protocol: IPv4
        buf.put_u8(6);
        buf.put_u8(4);
        buf.put_u16(match self.op {
            ArpOp::Request => 1,
            ArpOp::Reply => 2,
        });
        buf.put_slice(&self.sender_mac.0);
        buf.put_slice(&self.sender_ip.octets());
        buf.put_slice(&self.target_mac.0);
        buf.put_slice(&self.target_ip.octets());
        buf.freeze()
    }

    /// Parse.
    pub fn decode(bytes: &[u8]) -> Option<ArpPacket> {
        if bytes.len() < 28 {
            return None;
        }
        if bytes[0..2] != [0, 1] || bytes[2..4] != [0x08, 0x00] || bytes[4] != 6 || bytes[5] != 4 {
            return None;
        }
        let op = match u16::from_be_bytes([bytes[6], bytes[7]]) {
            1 => ArpOp::Request,
            2 => ArpOp::Reply,
            _ => return None,
        };
        Some(ArpPacket {
            op,
            sender_mac: MacAddr(bytes[8..14].try_into().unwrap()),
            sender_ip: Ipv4Addr::new(bytes[14], bytes[15], bytes[16], bytes[17]),
            target_mac: MacAddr(bytes[18..24].try_into().unwrap()),
            target_ip: Ipv4Addr::new(bytes[24], bytes[25], bytes[26], bytes[27]),
        })
    }
}

/// ARP cache entry lifetime.
pub const ARP_TTL: SimDuration = SimDuration::from_secs(300);
/// How long an unanswered resolution attempt is retried.
pub const ARP_RETRY: SimDuration = SimDuration::from_secs(1);

/// IP→MAC cache with expiry.
#[derive(Default, Debug)]
pub struct ArpCache {
    entries: HashMap<Ipv4Addr, (MacAddr, SimTime)>,
}

impl ArpCache {
    /// Empty cache.
    pub fn new() -> ArpCache {
        ArpCache::default()
    }

    /// Learn / refresh a mapping.
    pub fn insert(&mut self, now: SimTime, ip: Ipv4Addr, mac: MacAddr) {
        self.entries.insert(ip, (mac, now.saturating_add(ARP_TTL)));
    }

    /// Look up a live mapping.
    pub fn lookup(&self, now: SimTime, ip: Ipv4Addr) -> Option<MacAddr> {
        self.entries
            .get(&ip)
            .filter(|(_, exp)| *exp > now)
            .map(|(mac, _)| *mac)
    }

    /// All live (ip, mac) pairs — used by the parprouted daemon to learn
    /// which hosts live behind which interface.
    pub fn live_entries(&self, now: SimTime) -> Vec<(Ipv4Addr, MacAddr)> {
        let mut v: Vec<_> = self
            .entries
            .iter()
            .filter(|(_, (_, exp))| *exp > now)
            .map(|(ip, (mac, _))| (*ip, *mac))
            .collect();
        v.sort_by_key(|(ip, _)| u32::from(*ip));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_roundtrip() {
        let req = ArpPacket::request(
            MacAddr::local(1),
            Ipv4Addr::new(192, 168, 0, 2),
            Ipv4Addr::new(192, 168, 0, 1),
        );
        assert_eq!(ArpPacket::decode(&req.encode()).unwrap(), req);
        let rep = ArpPacket::reply_to(&req, MacAddr::local(9));
        assert_eq!(ArpPacket::decode(&rep.encode()).unwrap(), rep);
        assert_eq!(rep.sender_ip, Ipv4Addr::new(192, 168, 0, 1));
        assert_eq!(rep.target_mac, MacAddr::local(1));
    }

    #[test]
    fn bad_packets_rejected() {
        assert!(ArpPacket::decode(&[0u8; 10]).is_none());
        let mut bytes = ArpPacket::request(
            MacAddr::local(1),
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
        )
        .encode()
        .to_vec();
        bytes[7] = 9; // bogus op
        assert!(ArpPacket::decode(&bytes).is_none());
    }

    #[test]
    fn cache_lookup_and_expiry() {
        let mut c = ArpCache::new();
        let t0 = SimTime::ZERO;
        c.insert(t0, Ipv4Addr::new(10, 0, 0, 1), MacAddr::local(5));
        assert_eq!(
            c.lookup(t0 + SimDuration::from_secs(1), Ipv4Addr::new(10, 0, 0, 1)),
            Some(MacAddr::local(5))
        );
        let late = t0 + ARP_TTL + SimDuration::from_secs(1);
        assert_eq!(c.lookup(late, Ipv4Addr::new(10, 0, 0, 1)), None);
        assert!(c.live_entries(late).is_empty());
    }

    #[test]
    fn refresh_extends_lifetime() {
        let mut c = ArpCache::new();
        let ip = Ipv4Addr::new(10, 0, 0, 1);
        c.insert(SimTime::ZERO, ip, MacAddr::local(5));
        let mid = SimTime::ZERO + SimDuration::from_secs(250);
        c.insert(mid, ip, MacAddr::local(5));
        let later = SimTime::ZERO + ARP_TTL + SimDuration::from_secs(10);
        assert_eq!(c.lookup(later, ip), Some(MacAddr::local(5)));
    }

    #[test]
    fn poisoning_overwrites() {
        // ARP is unauthenticated: a later claim wins — the wired-MITM
        // primitive the paper contrasts with the easier wireless one.
        let mut c = ArpCache::new();
        let gw = Ipv4Addr::new(192, 168, 0, 1);
        c.insert(SimTime::ZERO, gw, MacAddr::local(1));
        c.insert(SimTime::from_secs(1), gw, MacAddr::local(666));
        assert_eq!(
            c.lookup(SimTime::from_secs(2), gw),
            Some(MacAddr::local(666))
        );
    }
}
