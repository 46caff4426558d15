//! # rogue-netstack — a miniature TCP/IP stack
//!
//! The paper's gateway machine is an ordinary Linux router: two interfaces,
//! `ip_forward=1`, a proxy-ARP bridge and one `iptables -t nat` rule. To
//! reproduce the data path honestly we implement the substrate itself:
//!
//! * [`ethernet`] — Ethernet II framing,
//! * [`arp`] — ARP requests/replies, cache, and the *proxy-ARP answering
//!   mode* `parprouted` relies on,
//! * [`ip`] — IPv4 headers with real checksums,
//! * [`icmp`] — echo and error messages,
//! * [`udp`] / [`tcp`] — transport; TCP is a real stop-and-go stack with
//!   sequence space, RTO, fast retransmit and congestion control, because
//!   experiment E2 depends on genuine *segment boundaries* (netsed cannot
//!   match across them) and E5 on genuine retransmission dynamics,
//! * [`routing`] — longest-prefix-match routing with host routes,
//! * [`netfilter`] — PREROUTING/POSTROUTING hooks with DNAT/REDIRECT/
//!   MASQUERADE and a connection-tracking table (the paper's
//!   `iptables … -j DNAT --to Gateway-IP:10101` is one rule here),
//! * [`socket`] + [`host`] — a poll-driven host binding it all together.
//!
//! Frames are real byte buffers end to end; a sniffer on the wire sees
//! exactly what the stack sent.

#![forbid(unsafe_code)]

pub mod arp;
pub mod ethernet;
pub mod host;
pub mod icmp;
pub mod ip;
pub mod netfilter;
pub mod routing;
pub mod socket;
pub mod tcp;
pub mod udp;

pub use host::{Host, HostEvent, IfIndex};
pub use socket::SocketHandle;

/// Convenience alias used throughout.
pub type Ipv4Addr = std::net::Ipv4Addr;

/// IP protocol numbers used by the stack.
pub mod proto {
    /// ICMP.
    pub const ICMP: u8 = 1;
    /// TCP.
    pub const TCP: u8 = 6;
    /// UDP.
    pub const UDP: u8 = 17;
}
