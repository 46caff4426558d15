//! Wired ARP spoofing — the paper's §1.2 contrast case.
//!
//! "The Man-in-the-middle (MITM) attack is possible in both wired and
//! wireless networks. In a wired network, one either needs to spoof DNS
//! requests or ARP requests or compromise a valid gateway machine to
//! obtain access to the clients traffic."
//!
//! This module implements the classic gratuitous-ARP gateway
//! impersonation so the reproduction can demonstrate the comparison the
//! paper draws: the wired attack requires inside presence on the LAN and
//! continuous cache re-poisoning, where the wireless rogue needs neither.

use rogue_dot11::MacAddr;
use rogue_netstack::arp::ArpPacket;
use rogue_netstack::ethernet::EthFrame;
use rogue_netstack::{Host, Ipv4Addr};
use rogue_services::apps::{App, AppEvent};
use rogue_sim::{SimDuration, SimTime};

/// Ethertype for ARP.
const ET_ARP: u16 = 0x0806;

/// Periodic gratuitous-ARP poisoner claiming `spoofed_ip` (typically the
/// LAN gateway) with our own MAC. Run as an app on the attacker's host;
/// the attacker host should have `ip_forward` so victims keep working
/// (the stealthy variant).
pub struct ArpSpoofer {
    /// IP being impersonated.
    pub spoofed_ip: Ipv4Addr,
    /// Victim to poison (broadcast when `None`).
    pub target: Option<(Ipv4Addr, MacAddr)>,
    /// Interface to emit on.
    iface: usize,
    period: SimDuration,
    next_tx: SimTime,
    /// Poison frames emitted.
    pub injected: u64,
}

impl ArpSpoofer {
    /// Poison `spoofed_ip` on `iface` every `period` from `start_at`.
    pub fn new(
        spoofed_ip: Ipv4Addr,
        target: Option<(Ipv4Addr, MacAddr)>,
        iface: usize,
        start_at: SimTime,
        period: SimDuration,
    ) -> ArpSpoofer {
        ArpSpoofer {
            spoofed_ip,
            target,
            iface,
            period,
            next_tx: start_at,
            injected: 0,
        }
    }
}

impl App for ArpSpoofer {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn poll(&mut self, now: SimTime, host: &mut Host, _out: &mut Vec<AppEvent>) {
        while now >= self.next_tx {
            let my_mac = host.iface(self.iface).mac;
            let (dst_mac, dst_ip) = match self.target {
                Some((ip, mac)) => (mac, ip),
                None => (MacAddr::BROADCAST, Ipv4Addr::new(0, 0, 0, 0)),
            };
            // A forged is-at: "spoofed_ip is at my_mac".
            let reply = ArpPacket {
                op: rogue_netstack::arp::ArpOp::Reply,
                sender_mac: my_mac,
                sender_ip: self.spoofed_ip,
                target_mac: dst_mac,
                target_ip: dst_ip,
            };
            let frame = EthFrame::new(dst_mac, my_mac, ET_ARP, reply.encode());
            host.inject_frame(self.iface, frame.encode());
            self.injected += 1;
            self.next_tx += self.period;
        }
    }

    fn next_wake(&self) -> SimTime {
        self.next_tx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rogue_sim::{Seed, SimRng};

    #[test]
    fn emits_forged_is_at() {
        let mut host = Host::new("attacker", SimRng::new(Seed(1)));
        host.add_iface(MacAddr::local(66), Ipv4Addr::new(192, 168, 0, 13), 24);
        let mut spoofer = ArpSpoofer::new(
            Ipv4Addr::new(192, 168, 0, 1),
            Some((Ipv4Addr::new(192, 168, 0, 50), MacAddr::local(50))),
            0,
            SimTime::ZERO,
            SimDuration::from_millis(500),
        );
        let mut out = Vec::new();
        spoofer.poll(SimTime::ZERO, &mut host, &mut out);
        assert_eq!(spoofer.injected, 1);
        let frames = host.take_frames();
        assert_eq!(frames.len(), 1);
        let eth = EthFrame::decode(&frames[0].1).unwrap();
        assert_eq!(eth.dst, MacAddr::local(50));
        let arp = ArpPacket::decode(&eth.payload).unwrap();
        assert_eq!(arp.sender_ip, Ipv4Addr::new(192, 168, 0, 1));
        assert_eq!(arp.sender_mac, MacAddr::local(66), "the lie");
    }
}
