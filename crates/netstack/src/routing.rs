//! Longest-prefix-match routing table.
//!
//! Supports exactly what the paper's bridge script configures: connected
//! subnets, /32 host routes (`route add -host 192.168.0.2 dev eth1`), and
//! a default gateway.

use crate::ip::{in_subnet, prefix_mask};
use crate::Ipv4Addr;

/// Interface index within a host.
pub type IfIndex = usize;

/// One route.
#[derive(Clone, Debug, PartialEq)]
pub struct Route {
    /// Destination network.
    pub network: Ipv4Addr,
    /// Prefix length (32 = host route).
    pub prefix_len: u8,
    /// Next-hop IP, or `None` for directly connected destinations.
    pub gateway: Option<Ipv4Addr>,
    /// Egress interface.
    pub ifindex: IfIndex,
}

/// The table.
#[derive(Clone, Debug, Default)]
pub struct RoutingTable {
    routes: Vec<Route>,
}

/// The result of a lookup: where to send the packet next.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NextHop {
    /// IP whose MAC we must resolve (the gateway, or the destination
    /// itself when directly connected).
    pub via: Ipv4Addr,
    /// Egress interface.
    pub ifindex: IfIndex,
}

impl RoutingTable {
    /// Empty table.
    pub fn new() -> RoutingTable {
        RoutingTable::default()
    }

    /// Add a connected-subnet route.
    pub fn add_connected(&mut self, network: Ipv4Addr, prefix_len: u8, ifindex: IfIndex) {
        self.push(Route {
            network,
            prefix_len,
            gateway: None,
            ifindex,
        });
    }

    /// Add a /32 host route out an interface (parprouted's
    /// `route add -host X dev Y`).
    pub fn add_host(&mut self, host: Ipv4Addr, ifindex: IfIndex) {
        self.push(Route {
            network: host,
            prefix_len: 32,
            gateway: None,
            ifindex,
        });
    }

    /// Set the default route via `gateway`.
    pub fn add_default(&mut self, gateway: Ipv4Addr, ifindex: IfIndex) {
        self.push(Route {
            network: Ipv4Addr::new(0, 0, 0, 0),
            prefix_len: 0,
            gateway: Some(gateway),
            ifindex,
        });
    }

    /// Add an arbitrary route.
    pub fn add(&mut self, route: Route) {
        self.push(route);
    }

    fn push(&mut self, route: Route) {
        // Exact: a first push would allocate room for four, and most
        // tables (every client's) hold one or two routes.
        self.routes.reserve_exact(1);
        self.routes.push(route);
    }

    /// Remove host routes for `host` (parprouted lease expiry).
    pub fn remove_host(&mut self, host: Ipv4Addr) {
        self.routes
            .retain(|r| !(r.prefix_len == 32 && r.network == host));
    }

    /// True if a /32 route for `host` exists.
    pub fn has_host(&self, host: Ipv4Addr) -> bool {
        self.routes
            .iter()
            .any(|r| r.prefix_len == 32 && r.network == host)
    }

    /// Longest-prefix lookup.
    pub fn lookup(&self, dst: Ipv4Addr) -> Option<NextHop> {
        self.routes
            .iter()
            .filter(|r| in_subnet(dst, r.network, r.prefix_len))
            .max_by_key(|r| r.prefix_len)
            .map(|r| NextHop {
                via: r.gateway.unwrap_or(dst),
                ifindex: r.ifindex,
            })
    }

    /// All routes (diagnostics).
    pub fn routes(&self) -> &[Route] {
        &self.routes
    }
}

/// Broadcast address of a subnet.
pub fn broadcast_addr(network: Ipv4Addr, prefix_len: u8) -> Ipv4Addr {
    Ipv4Addr::from(u32::from(network) | !prefix_mask(prefix_len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_prefix_wins() {
        let mut t = RoutingTable::new();
        t.add_default(Ipv4Addr::new(192, 168, 0, 1), 0);
        t.add_connected(Ipv4Addr::new(192, 168, 0, 0), 24, 1);
        t.add_host(Ipv4Addr::new(192, 168, 0, 42), 2);

        // Host route beats connected beats default.
        assert_eq!(
            t.lookup(Ipv4Addr::new(192, 168, 0, 42)).unwrap(),
            NextHop {
                via: Ipv4Addr::new(192, 168, 0, 42),
                ifindex: 2
            }
        );
        assert_eq!(t.lookup(Ipv4Addr::new(192, 168, 0, 7)).unwrap().ifindex, 1);
        let nh = t.lookup(Ipv4Addr::new(8, 8, 8, 8)).unwrap();
        assert_eq!(nh.via, Ipv4Addr::new(192, 168, 0, 1));
        assert_eq!(nh.ifindex, 0);
        assert_eq!(t.routes.capacity(), 3, "the table holds no spare routes");
    }

    #[test]
    fn no_route_is_none() {
        let mut t = RoutingTable::new();
        t.add_connected(Ipv4Addr::new(10, 0, 0, 0), 8, 0);
        assert!(t.lookup(Ipv4Addr::new(11, 0, 0, 1)).is_none());
    }

    #[test]
    fn host_route_lifecycle() {
        let mut t = RoutingTable::new();
        let h = Ipv4Addr::new(192, 168, 0, 9);
        assert!(!t.has_host(h));
        t.add_host(h, 3);
        assert!(t.has_host(h));
        t.remove_host(h);
        assert!(!t.has_host(h));
        assert!(t.lookup(h).is_none());
    }

    #[test]
    fn broadcast_computation() {
        assert_eq!(
            broadcast_addr(Ipv4Addr::new(192, 168, 0, 0), 24),
            Ipv4Addr::new(192, 168, 0, 255)
        );
        assert_eq!(
            broadcast_addr(Ipv4Addr::new(10, 0, 0, 0), 8),
            Ipv4Addr::new(10, 255, 255, 255)
        );
    }
}
