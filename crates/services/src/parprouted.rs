//! parprouted — the proxy-ARP bridging daemon (Ivaschenko, ref \[6\]).
//!
//! The paper's gateway runs `parprouted wlan0 eth1` to transparently
//! bridge the rogue-AP side and the corporate side. The daemon's job is
//! simple: watch which IP addresses are seen (via ARP) on which
//! interface, and install /32 host routes so the kernel forwards between
//! the two; the host's `proxy_arp` flag then answers ARP queries for
//! hosts that live on the *other* side.
//!
//! This reproduces Appendix A of the paper: the static part of the bridge
//! (`route add -host … dev …`, IP forwarding, proxy ARP) is scenario
//! setup; the dynamic learning is this daemon.

use std::collections::HashMap;

use rogue_netstack::{Host, IfIndex, Ipv4Addr};
use rogue_sim::{SimDuration, SimTime};

use crate::apps::{App, AppEvent};

/// The daemon.
pub struct Parprouted {
    /// The two bridged interfaces.
    bridged: [IfIndex; 2],
    /// Last interface we installed a route toward, per host.
    installed: HashMap<Ipv4Addr, IfIndex>,
    period: SimDuration,
    next_scan: SimTime,
    /// Targets probed recently (throttle, cleared each scan).
    probed: Vec<Ipv4Addr>,
    /// Routes installed over the run.
    pub routes_installed: u64,
    /// Route flaps (host moved between interfaces).
    pub route_moves: u64,
    /// Active ARP probes sent toward the opposite side.
    pub probes_sent: u64,
}

impl Parprouted {
    /// `parprouted <if_a> <if_b>`.
    pub fn new(if_a: IfIndex, if_b: IfIndex) -> Parprouted {
        Parprouted {
            bridged: [if_a, if_b],
            installed: HashMap::new(),
            period: SimDuration::from_millis(100),
            next_scan: SimTime::ZERO,
            probed: Vec::new(),
            routes_installed: 0,
            route_moves: 0,
            probes_sent: 0,
        }
    }
}

impl App for Parprouted {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn poll(&mut self, now: SimTime, host: &mut Host, _out: &mut Vec<AppEvent>) {
        // Active side of the bridge: an ARP request we could not answer
        // on one bridged interface triggers a probe on the other. (Real
        // parprouted queries across the bridge the same way.) This runs
        // every poll — waiting for the next scan would outlast the
        // requester's own ARP retry budget.
        let misses: Vec<(Ipv4Addr, IfIndex)> = host.arp_misses.drain(..).collect();
        for (target, ingress) in misses {
            if !self.bridged.contains(&ingress) || self.probed.contains(&target) {
                continue;
            }
            let other = if ingress == self.bridged[0] {
                self.bridged[1]
            } else {
                self.bridged[0]
            };
            host.send_arp_probe(other, target);
            self.probed.push(target);
            self.probes_sent += 1;
        }
        if now < self.next_scan {
            return;
        }
        self.next_scan = now + self.period;
        self.probed.clear();

        // Own addresses never get host routes.
        let own: Vec<Ipv4Addr> = (0..host.iface_count()).map(|i| host.iface(i).ip).collect();
        let learned: Vec<(Ipv4Addr, IfIndex)> = host
            .arp_iface
            .iter()
            .filter(|(ip, ifx)| self.bridged.contains(ifx) && !own.contains(ip))
            .map(|(ip, ifx)| (*ip, *ifx))
            .collect();

        for (ip, ifx) in learned {
            match self.installed.get(&ip) {
                Some(&cur) if cur == ifx => {}
                Some(_) => {
                    host.routes.remove_host(ip);
                    host.routes.add_host(ip, ifx);
                    self.installed.insert(ip, ifx);
                    self.route_moves += 1;
                }
                None => {
                    host.routes.add_host(ip, ifx);
                    self.installed.insert(ip, ifx);
                    self.routes_installed += 1;
                }
            }
        }
    }

    fn next_wake(&self) -> SimTime {
        self.next_scan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rogue_dot11::MacAddr;
    use rogue_sim::{Seed, SimRng};

    fn gateway() -> Host {
        let mut gw = Host::new("gw", SimRng::new(Seed(1)));
        gw.add_iface(MacAddr::local(1), Ipv4Addr::new(192, 168, 0, 1), 24); // wlan0
        gw.add_iface(MacAddr::local(2), Ipv4Addr::new(192, 168, 0, 2), 24); // eth1
        gw.ip_forward = true;
        gw.proxy_arp = true;
        gw
    }

    #[test]
    fn installs_host_routes_from_arp_learning() {
        let mut gw = gateway();
        let victim = Ipv4Addr::new(192, 168, 0, 50);
        let corp = Ipv4Addr::new(192, 168, 0, 254);
        gw.arp_iface.insert(victim, 0);
        gw.arp_iface.insert(corp, 1);

        let mut d = Parprouted::new(0, 1);
        let mut out = Vec::new();
        d.poll(SimTime::ZERO, &mut gw, &mut out);
        assert!(gw.routes.has_host(victim));
        assert!(gw.routes.has_host(corp));
        assert_eq!(gw.routes.lookup(victim).unwrap().ifindex, 0);
        assert_eq!(gw.routes.lookup(corp).unwrap().ifindex, 1);
        assert_eq!(d.routes_installed, 2);
    }

    #[test]
    fn host_movement_updates_route() {
        let mut gw = gateway();
        let roamer = Ipv4Addr::new(192, 168, 0, 60);
        gw.arp_iface.insert(roamer, 0);
        let mut d = Parprouted::new(0, 1);
        let mut out = Vec::new();
        d.poll(SimTime::ZERO, &mut gw, &mut out);
        assert_eq!(gw.routes.lookup(roamer).unwrap().ifindex, 0);

        gw.arp_iface.insert(roamer, 1);
        d.poll(SimTime::from_millis(200), &mut gw, &mut out);
        assert_eq!(gw.routes.lookup(roamer).unwrap().ifindex, 1);
        assert_eq!(d.route_moves, 1);
    }

    #[test]
    fn own_addresses_never_routed() {
        let mut gw = gateway();
        gw.arp_iface.insert(Ipv4Addr::new(192, 168, 0, 1), 1);
        let mut d = Parprouted::new(0, 1);
        let mut out = Vec::new();
        d.poll(SimTime::ZERO, &mut gw, &mut out);
        assert!(!gw.routes.has_host(Ipv4Addr::new(192, 168, 0, 1)));
    }

    #[test]
    fn non_bridged_interfaces_ignored() {
        let mut gw = gateway();
        gw.add_iface(MacAddr::local(3), Ipv4Addr::new(10, 0, 0, 1), 24); // mgmt if
        let stranger = Ipv4Addr::new(10, 0, 0, 9);
        gw.arp_iface.insert(stranger, 2);
        let mut d = Parprouted::new(0, 1);
        let mut out = Vec::new();
        d.poll(SimTime::ZERO, &mut gw, &mut out);
        assert!(!gw.routes.has_host(stranger));
    }

    #[test]
    fn scan_respects_period() {
        let mut gw = gateway();
        let mut d = Parprouted::new(0, 1);
        let mut out = Vec::new();
        d.poll(SimTime::ZERO, &mut gw, &mut out);
        let wake = d.next_wake();
        assert_eq!(wake, SimTime::from_millis(100));
        // Learning between scans is not picked up until the next scan.
        gw.arp_iface.insert(Ipv4Addr::new(192, 168, 0, 77), 0);
        d.poll(SimTime::from_millis(50), &mut gw, &mut out);
        assert!(!gw.routes.has_host(Ipv4Addr::new(192, 168, 0, 77)));
        d.poll(SimTime::from_millis(100), &mut gw, &mut out);
        assert!(gw.routes.has_host(Ipv4Addr::new(192, 168, 0, 77)));
    }
}
