//! A poll-driven IP host: interfaces, ARP, routing, forwarding, NAT and
//! sockets.
//!
//! The paper's gateway is this struct with `ip_forward = true`,
//! `proxy_arp = true`, two interfaces, three host routes and one DNAT
//! rule (Appendix A of the paper, line for line). Victims, web servers,
//! the VPN endpoint and the corporate router are the same struct with
//! different knobs.

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;
use rogue_dot11::MacAddr;
use rogue_sim::{SimRng, SimTime};

use crate::arp::{ArpCache, ArpOp, ArpPacket, ARP_RETRY};
use crate::ethernet::EthFrame;
use crate::icmp::IcmpMessage;
use crate::ip::Ipv4Packet;
use crate::netfilter::Netfilter;
use crate::routing::{broadcast_addr, RoutingTable};
use crate::socket::{Socket, SocketHandle, SocketSet};
use crate::tcp::{flags, TcpConnection, TcpSegment, TcpState};
use crate::udp::UdpDatagram;
use crate::{proto, Ipv4Addr};

/// Interface index within a host.
pub type IfIndex = usize;

/// Ethertype numbers.
const ET_IPV4: u16 = 0x0800;
const ET_ARP: u16 = 0x0806;

/// One network interface.
#[derive(Clone, Debug)]
pub struct Iface {
    /// Hardware address.
    pub mac: MacAddr,
    /// Configured IPv4 address.
    pub ip: Ipv4Addr,
    /// Subnet prefix length.
    pub prefix_len: u8,
    /// Accept frames not addressed to us (tcpdump-style).
    pub promiscuous: bool,
}

/// Asynchronous host notifications.
#[derive(Clone, Debug, PartialEq)]
pub enum HostEvent {
    /// An ICMP echo reply arrived.
    PingReply {
        /// Responder.
        from: Ipv4Addr,
        /// Echo sequence number.
        seq: u16,
    },
    /// ARP resolution gave up; queued packets were dropped.
    ArpFailed {
        /// The unresolvable next hop.
        dst: Ipv4Addr,
    },
}

struct PendingArp {
    ifindex: IfIndex,
    queue: Vec<Ipv4Packet>,
    deadline: SimTime,
    attempts: u8,
}

/// The host.
pub struct Host {
    /// Diagnostic name.
    pub name: String,
    ifaces: Vec<Iface>,
    /// Routing table (public: scenario setup writes routes directly,
    /// mirroring `route add …`).
    pub routes: RoutingTable,
    /// ARP cache.
    pub arp_cache: ArpCache,
    /// Which interface each ARP entry was learned on (parprouted input).
    pub arp_iface: HashMap<Ipv4Addr, IfIndex>,
    /// ARP requests heard that we did not answer: (target, ingress
    /// interface). parprouted drains these to probe the other side.
    pub arp_misses: Vec<(Ipv4Addr, IfIndex)>,
    pending_arp: HashMap<Ipv4Addr, PendingArp>,
    /// Forward packets between interfaces (`echo 1 > …/ip_forward`).
    pub ip_forward: bool,
    /// Answer ARP for destinations routed out another interface.
    pub proxy_arp: bool,
    /// NAT engine.
    pub netfilter: Netfilter,
    sockets: SocketSet,
    tcp_demux: HashMap<(u16, Ipv4Addr, u16), SocketHandle>,
    listeners: HashMap<u16, SocketHandle>,
    out: Vec<(IfIndex, Bytes)>,
    events: Vec<HostEvent>,
    rng: SimRng,
    next_ephemeral: u16,
    ping_ident: u16,
    ip_ident: u16,
    /// Default MSS for new TCP connections (E2 sweeps this).
    pub tcp_mss: usize,
    /// Packets forwarded between interfaces.
    pub forwarded: u64,
    /// Packets delivered to local sockets/ICMP.
    pub delivered: u64,
    /// Packets dropped for lack of a route.
    pub no_route_drops: u64,
}

impl Host {
    /// New host with no interfaces.
    pub fn new(name: impl Into<String>, rng: SimRng) -> Host {
        let mut rng = rng;
        let ping_ident = (rng.next_u32() & 0xFFFF) as u16;
        Host {
            name: name.into(),
            ifaces: Vec::new(),
            routes: RoutingTable::new(),
            arp_cache: ArpCache::new(),
            arp_iface: HashMap::new(),
            arp_misses: Vec::new(),
            pending_arp: HashMap::new(),
            ip_forward: false,
            proxy_arp: false,
            netfilter: Netfilter::new(),
            sockets: SocketSet::new(),
            tcp_demux: HashMap::new(),
            listeners: HashMap::new(),
            out: Vec::new(),
            events: Vec::new(),
            rng,
            next_ephemeral: 32_000,
            ping_ident,
            ip_ident: 0,
            tcp_mss: 1400,
            forwarded: 0,
            delivered: 0,
            no_route_drops: 0,
        }
    }

    /// Add an interface; installs its connected-subnet route.
    pub fn add_iface(&mut self, mac: MacAddr, ip: Ipv4Addr, prefix_len: u8) -> IfIndex {
        let idx = self.ifaces.len();
        self.ifaces.push(Iface {
            mac,
            ip,
            prefix_len,
            promiscuous: false,
        });
        self.routes.add_connected(ip, prefix_len, idx);
        idx
    }

    /// Interface accessor.
    pub fn iface(&self, idx: IfIndex) -> &Iface {
        &self.ifaces[idx]
    }

    /// Mutable interface accessor.
    pub fn iface_mut(&mut self, idx: IfIndex) -> &mut Iface {
        &mut self.ifaces[idx]
    }

    /// Number of interfaces.
    pub fn iface_count(&self) -> usize {
        self.ifaces.len()
    }

    fn is_local_ip(&self, ip: Ipv4Addr) -> bool {
        if ip == Ipv4Addr::new(255, 255, 255, 255) {
            return true;
        }
        self.ifaces
            .iter()
            .any(|i| i.ip == ip || broadcast_addr(i.ip, i.prefix_len) == ip)
    }

    // ------------------------------------------------------------------
    // Receive path
    // ------------------------------------------------------------------

    /// Feed one link-layer frame received on `ifindex`.
    pub fn on_link_rx(&mut self, now: SimTime, ifindex: IfIndex, bytes: &Bytes) {
        let Some(eth) = EthFrame::decode(bytes) else {
            return;
        };
        // Self-echo suppression: a frame sourced from any of our own
        // interfaces that arrives back (e.g. a co-channel AP radio
        // hearing its own machine's uplink NIC) must be ignored, exactly
        // as real stacks ignore their own looped-back transmissions.
        // Without this, a gateway whose rogue AP shares the uplink's
        // channel would proxy-ARP-answer its own queries and feed its
        // own upstream fetches back into its DNAT rule, recursively.
        if self.ifaces.iter().any(|i| i.mac == eth.src) {
            return;
        }
        let iface = &self.ifaces[ifindex];
        if eth.dst != iface.mac && !eth.dst.is_multicast() && !iface.promiscuous {
            return;
        }
        match eth.ethertype {
            ET_ARP => self.on_arp(now, ifindex, &eth),
            ET_IPV4 => {
                let Some(mut pkt) = Ipv4Packet::decode(&eth.payload) else {
                    return;
                };
                self.netfilter.prerouting(&mut pkt);
                if self.is_local_ip(pkt.dst) {
                    self.deliver_local(now, pkt);
                } else if self.ip_forward {
                    self.forward(now, pkt);
                }
            }
            _ => {}
        }
    }

    fn on_arp(&mut self, now: SimTime, ifindex: IfIndex, eth: &EthFrame) {
        let Some(arp) = ArpPacket::decode(&eth.payload) else {
            return;
        };
        // Learn the sender (gratuitously, like real stacks).
        if !arp.sender_ip.is_unspecified() {
            self.arp_cache.insert(now, arp.sender_ip, arp.sender_mac);
            self.arp_iface.insert(arp.sender_ip, ifindex);
            self.flush_pending_arp(now, arp.sender_ip, arp.sender_mac);
        }
        if arp.op != ArpOp::Request {
            return;
        }
        let my = &self.ifaces[ifindex];
        let answer = if arp.target_ip == my.ip {
            true
        } else if self.proxy_arp && !self.is_local_ip(arp.target_ip) {
            // Proxy-ARP: claim the address if we route it out another
            // interface (parprouted's trick).
            self.routes
                .lookup(arp.target_ip)
                .is_some_and(|nh| nh.ifindex != ifindex)
        } else {
            false
        };
        if answer {
            let my_mac = my.mac;
            let reply = ArpPacket::reply_to(&arp, my_mac);
            let frame = EthFrame::new(arp.sender_mac, my_mac, ET_ARP, reply.encode());
            self.out.push((ifindex, frame.encode()));
        } else if !self.is_local_ip(arp.target_ip) {
            self.arp_misses.push((arp.target_ip, ifindex));
        }
    }

    /// Transmit an ARP who-has on `ifindex` (parprouted's active probe).
    pub fn send_arp_probe(&mut self, ifindex: IfIndex, target: Ipv4Addr) {
        self.send_arp_request(ifindex, target);
    }

    fn deliver_local(&mut self, now: SimTime, pkt: Ipv4Packet) {
        self.delivered += 1;
        match pkt.protocol {
            proto::ICMP => self.deliver_icmp(now, pkt),
            proto::UDP => self.deliver_udp(now, pkt),
            proto::TCP => self.deliver_tcp(now, pkt),
            _ => {}
        }
    }

    fn deliver_icmp(&mut self, now: SimTime, pkt: Ipv4Packet) {
        let Some(msg) = IcmpMessage::decode(&pkt.payload) else {
            return;
        };
        match msg {
            IcmpMessage::EchoRequest {
                ident,
                seq,
                payload,
            } => {
                let reply = IcmpMessage::EchoReply {
                    ident,
                    seq,
                    payload,
                };
                let out = Ipv4Packet::new(pkt.dst, pkt.src, proto::ICMP, reply.encode());
                self.ip_output(now, out);
            }
            IcmpMessage::EchoReply { ident, seq, .. } if ident == self.ping_ident => {
                self.events
                    .push(HostEvent::PingReply { from: pkt.src, seq });
            }
            _ => {}
        }
    }

    fn deliver_udp(&mut self, now: SimTime, pkt: Ipv4Packet) {
        let Some(dg) = UdpDatagram::decode(pkt.src, pkt.dst, &pkt.payload) else {
            return;
        };
        let handle = self.sockets.iter().find_map(|(h, s)| match s {
            Socket::Udp { port, .. } if *port == dg.dst_port => Some(h),
            _ => None,
        });
        match handle {
            Some(h) => {
                if let Some(Socket::Udp { rx, .. }) = self.sockets.get_mut(h) {
                    rx.push_back((pkt.src, dg.src_port, dg.payload));
                }
            }
            None => {
                // Port unreachable, quoting the offending datagram.
                let mut quoted = pkt.encode().to_vec();
                quoted.truncate(28);
                let msg = IcmpMessage::DestUnreachable {
                    code: 3,
                    original: Bytes::from(quoted),
                };
                let out = Ipv4Packet::new(pkt.dst, pkt.src, proto::ICMP, msg.encode());
                self.ip_output(now, out);
            }
        }
    }

    fn deliver_tcp(&mut self, now: SimTime, pkt: Ipv4Packet) {
        let Some(seg) = TcpSegment::decode(pkt.src, pkt.dst, &pkt.payload) else {
            return;
        };
        let key = (seg.dst_port, pkt.src, seg.src_port);
        if let Some(&h) = self.tcp_demux.get(&key) {
            if let Some(Socket::Tcp(conn)) = self.sockets.get_mut(h) {
                conn.on_segment(now, &seg);
                self.flush_tcp(now, h);
            }
            return;
        }
        // New connection?
        if seg.flags & flags::SYN != 0 && seg.flags & flags::ACK == 0 {
            if let Some(&lh) = self.listeners.get(&seg.dst_port) {
                let iss = self.rng.next_u32();
                let mss = self.tcp_mss;
                let conn = TcpConnection::accept(
                    now,
                    (pkt.dst, seg.dst_port),
                    (pkt.src, seg.src_port),
                    &seg,
                    iss,
                    mss,
                );
                let h = self.sockets.insert(Socket::Tcp(conn));
                self.tcp_demux.insert(key, h);
                if let Some(Socket::TcpListener { backlog, .. }) = self.sockets.get_mut(lh) {
                    backlog.push_back(h);
                }
                self.flush_tcp(now, h);
                return;
            }
        }
        // No socket: RST (unless the segment itself was a RST).
        if seg.flags & flags::RST == 0 {
            let rst = TcpSegment {
                src_port: seg.dst_port,
                dst_port: seg.src_port,
                seq: seg.ack,
                ack: seg.seq.wrapping_add(seg.payload.len() as u32 + 1),
                flags: flags::RST | flags::ACK,
                window: 0,
                payload: Bytes::new(),
            };
            let out = Ipv4Packet::new(pkt.dst, pkt.src, proto::TCP, rst.encode(pkt.dst, pkt.src));
            self.ip_output(now, out);
        }
    }

    fn forward(&mut self, now: SimTime, mut pkt: Ipv4Packet) {
        if pkt.ttl <= 1 {
            let mut quoted = pkt.encode().to_vec();
            quoted.truncate(28);
            let msg = IcmpMessage::TimeExceeded {
                original: Bytes::from(quoted),
            };
            // Source the error from the ingress interface address.
            let src = self.ifaces.first().map(|i| i.ip).unwrap_or(pkt.dst);
            let out = Ipv4Packet::new(src, pkt.src, proto::ICMP, msg.encode());
            self.ip_output(now, out);
            return;
        }
        pkt.ttl -= 1;
        self.forwarded += 1;
        self.ip_output(now, pkt);
    }

    // ------------------------------------------------------------------
    // Send path
    // ------------------------------------------------------------------

    /// Route, NAT (POSTROUTING) and emit one IP packet.
    pub fn ip_output(&mut self, now: SimTime, mut pkt: Ipv4Packet) {
        let Some(nh) = self.routes.lookup(pkt.dst) else {
            self.no_route_drops += 1;
            return;
        };
        let out_ip = self.ifaces[nh.ifindex].ip;
        self.netfilter.postrouting(&mut pkt, nh.ifindex, out_ip);
        pkt.ident = self.ip_ident;
        self.ip_ident = self.ip_ident.wrapping_add(1);

        let iface = &self.ifaces[nh.ifindex];
        let bcast = broadcast_addr(iface.ip, iface.prefix_len);
        if pkt.dst == Ipv4Addr::new(255, 255, 255, 255) || pkt.dst == bcast {
            let frame = EthFrame::new(MacAddr::BROADCAST, iface.mac, ET_IPV4, pkt.encode());
            self.out.push((nh.ifindex, frame.encode()));
            return;
        }
        match self.arp_cache.lookup(now, nh.via) {
            Some(mac) => {
                let frame = EthFrame::new(mac, iface.mac, ET_IPV4, pkt.encode());
                self.out.push((nh.ifindex, frame.encode()));
            }
            None => {
                let entry = self
                    .pending_arp
                    .entry(nh.via)
                    .or_insert_with(|| PendingArp {
                        ifindex: nh.ifindex,
                        queue: Vec::new(),
                        deadline: now + ARP_RETRY,
                        attempts: 0,
                    });
                let fresh = entry.queue.is_empty() && entry.attempts == 0;
                entry.queue.push(pkt);
                if fresh {
                    self.send_arp_request(nh.ifindex, nh.via);
                }
            }
        }
    }

    fn send_arp_request(&mut self, ifindex: IfIndex, target: Ipv4Addr) {
        let iface = &self.ifaces[ifindex];
        let req = ArpPacket::request(iface.mac, iface.ip, target);
        let frame = EthFrame::new(MacAddr::BROADCAST, iface.mac, ET_ARP, req.encode());
        self.out.push((ifindex, frame.encode()));
    }

    fn flush_pending_arp(&mut self, now: SimTime, ip: Ipv4Addr, mac: MacAddr) {
        if let Some(pending) = self.pending_arp.remove(&ip) {
            let iface_mac = self.ifaces[pending.ifindex].mac;
            for pkt in pending.queue {
                let frame = EthFrame::new(mac, iface_mac, ET_IPV4, pkt.encode());
                self.out.push((pending.ifindex, frame.encode()));
            }
            let _ = now;
        }
    }

    // ------------------------------------------------------------------
    // Socket API
    // ------------------------------------------------------------------

    fn alloc_port(&mut self) -> u16 {
        let p = self.next_ephemeral;
        self.next_ephemeral = if p >= 60_000 { 32_000 } else { p + 1 };
        p
    }

    /// The source address the stack would pick for `dst`.
    pub fn source_ip_for(&self, dst: Ipv4Addr) -> Option<Ipv4Addr> {
        self.routes.lookup(dst).map(|nh| self.ifaces[nh.ifindex].ip)
    }

    /// Open a TCP listener on `port`.
    pub fn tcp_listen(&mut self, port: u16) -> SocketHandle {
        let h = self.sockets.insert(Socket::TcpListener {
            port,
            backlog: VecDeque::new(),
        });
        self.listeners.insert(port, h);
        h
    }

    /// Claim one accepted connection from a listener, if any.
    pub fn tcp_accept(&mut self, listener: SocketHandle) -> Option<SocketHandle> {
        match self.sockets.get_mut(listener) {
            Some(Socket::TcpListener { backlog, .. }) => backlog.pop_front(),
            _ => None,
        }
    }

    /// Actively open a TCP connection.
    pub fn tcp_connect(&mut self, now: SimTime, dst: Ipv4Addr, dst_port: u16) -> SocketHandle {
        let src_ip = self.source_ip_for(dst).unwrap_or(Ipv4Addr::UNSPECIFIED);
        let src_port = self.alloc_port();
        let iss = self.rng.next_u32();
        let mss = self.tcp_mss;
        let conn = TcpConnection::connect(now, (src_ip, src_port), (dst, dst_port), iss, mss);
        let h = self.sockets.insert(Socket::Tcp(conn));
        self.tcp_demux.insert((src_port, dst, dst_port), h);
        self.flush_tcp(now, h);
        h
    }

    /// Queue bytes on a TCP socket; returns bytes accepted.
    pub fn tcp_send(&mut self, now: SimTime, h: SocketHandle, data: &[u8]) -> usize {
        let n = match self.sockets.get_mut(h) {
            Some(Socket::Tcp(conn)) => conn.send(data),
            _ => 0,
        };
        if n > 0 {
            self.flush_tcp(now, h);
        }
        n
    }

    /// Drain received bytes from a TCP socket.
    pub fn tcp_recv(&mut self, h: SocketHandle, max: usize) -> Vec<u8> {
        match self.sockets.get_mut(h) {
            Some(Socket::Tcp(conn)) => conn.recv(max),
            _ => Vec::new(),
        }
    }

    /// Connection established?
    pub fn tcp_is_established(&self, h: SocketHandle) -> bool {
        matches!(self.sockets.get(h), Some(Socket::Tcp(c)) if c.is_established())
    }

    /// Peer has closed its direction and our buffer is drained?
    pub fn tcp_eof(&self, h: SocketHandle) -> bool {
        match self.sockets.get(h) {
            Some(Socket::Tcp(c)) => c.peer_closed() && c.recv_available() == 0,
            _ => true,
        }
    }

    /// Fully closed (or gone)?
    pub fn tcp_is_closed(&self, h: SocketHandle) -> bool {
        match self.sockets.get(h) {
            Some(Socket::Tcp(c)) => c.is_closed(),
            Some(_) => false,
            None => true,
        }
    }

    /// Current TCP state, if the handle is a connection.
    pub fn tcp_state(&self, h: SocketHandle) -> Option<TcpState> {
        match self.sockets.get(h) {
            Some(Socket::Tcp(c)) => Some(c.state()),
            _ => None,
        }
    }

    /// Remote endpoint of a connection.
    pub fn tcp_peer(&self, h: SocketHandle) -> Option<(Ipv4Addr, u16)> {
        match self.sockets.get(h) {
            Some(Socket::Tcp(c)) => Some(c.remote),
            _ => None,
        }
    }

    /// Total retransmissions on a connection (E5 metric).
    pub fn tcp_retransmissions(&self, h: SocketHandle) -> u64 {
        match self.sockets.get(h) {
            Some(Socket::Tcp(c)) => c.retransmissions,
            _ => 0,
        }
    }

    /// Graceful close.
    pub fn tcp_close(&mut self, now: SimTime, h: SocketHandle) {
        if let Some(Socket::Tcp(conn)) = self.sockets.get_mut(h) {
            conn.close();
        }
        self.flush_tcp(now, h);
    }

    /// Abortive close.
    pub fn tcp_abort(&mut self, now: SimTime, h: SocketHandle) {
        if let Some(Socket::Tcp(conn)) = self.sockets.get_mut(h) {
            conn.abort(now);
        }
        self.flush_tcp(now, h);
    }

    /// Release a finished socket's resources.
    pub fn tcp_release(&mut self, h: SocketHandle) {
        if let Some(Socket::Tcp(conn)) = self.sockets.get(h) {
            let key = (conn.local.1, conn.remote.0, conn.remote.1);
            self.tcp_demux.remove(&key);
        }
        if let Some(Socket::TcpListener { port, .. }) = self.sockets.get(h) {
            self.listeners.remove(port);
        }
        self.sockets.remove(h);
    }

    fn flush_tcp(&mut self, now: SimTime, h: SocketHandle) {
        let (segments, local, remote) = match self.sockets.get_mut(h) {
            Some(Socket::Tcp(conn)) => {
                conn.poll(now);
                (conn.take_outgoing(), conn.local, conn.remote)
            }
            _ => return,
        };
        for seg in segments {
            let pkt = Ipv4Packet::new(local.0, remote.0, proto::TCP, seg.encode(local.0, remote.0));
            self.ip_output(now, pkt);
        }
    }

    /// Bind a UDP socket.
    pub fn udp_bind(&mut self, port: u16) -> SocketHandle {
        self.sockets.insert(Socket::Udp {
            port,
            rx: VecDeque::new(),
        })
    }

    /// Send a UDP datagram from a bound socket.
    pub fn udp_send(
        &mut self,
        now: SimTime,
        h: SocketHandle,
        dst: Ipv4Addr,
        dst_port: u16,
        payload: &[u8],
    ) {
        self.udp_send_bytes(now, h, dst, dst_port, Bytes::copy_from_slice(payload));
    }

    /// Send a UDP datagram whose payload the caller already owns as
    /// [`Bytes`] — the buffer is threaded into the datagram without a
    /// copy (the VPN record path sends sealed records this way).
    pub fn udp_send_bytes(
        &mut self,
        now: SimTime,
        h: SocketHandle,
        dst: Ipv4Addr,
        dst_port: u16,
        payload: Bytes,
    ) {
        let src_port = match self.sockets.get(h) {
            Some(Socket::Udp { port, .. }) => *port,
            _ => return,
        };
        let Some(src_ip) = self.source_ip_for(dst) else {
            self.no_route_drops += 1;
            return;
        };
        let dg = UdpDatagram::new(src_port, dst_port, payload);
        let pkt = Ipv4Packet::new(src_ip, dst, proto::UDP, dg.encode(src_ip, dst));
        self.ip_output(now, pkt);
    }

    /// Pop one received datagram: (src ip, src port, payload).
    pub fn udp_recv(&mut self, h: SocketHandle) -> Option<(Ipv4Addr, u16, Bytes)> {
        match self.sockets.get_mut(h) {
            Some(Socket::Udp { rx, .. }) => rx.pop_front(),
            _ => None,
        }
    }

    /// Send an ICMP echo request.
    pub fn ping(&mut self, now: SimTime, dst: Ipv4Addr, seq: u16) {
        let Some(src) = self.source_ip_for(dst) else {
            self.no_route_drops += 1;
            return;
        };
        let msg = IcmpMessage::EchoRequest {
            ident: self.ping_ident,
            seq,
            payload: Bytes::from_static(b"rogue-netstack ping"),
        };
        let pkt = Ipv4Packet::new(src, dst, proto::ICMP, msg.encode());
        self.ip_output(now, pkt);
    }

    // ------------------------------------------------------------------
    // Driving
    // ------------------------------------------------------------------

    /// Earliest instant this host needs a poll.
    pub fn next_wake(&self) -> SimTime {
        let mut wake = SimTime::FOREVER;
        for (_, s) in self.sockets.iter() {
            if let Socket::Tcp(c) = s {
                wake = wake.min(c.next_wake());
            }
        }
        for p in self.pending_arp.values() {
            wake = wake.min(p.deadline);
        }
        wake
    }

    /// Drive timers: TCP retransmissions, ARP retries.
    pub fn poll(&mut self, now: SimTime) {
        // TCP timers.
        let handles: Vec<SocketHandle> = self
            .sockets
            .iter()
            .filter_map(|(h, s)| match s {
                Socket::Tcp(c) if c.next_wake() <= now || c.wants_poll() => Some(h),
                _ => None,
            })
            .collect();
        for h in handles {
            self.flush_tcp(now, h);
        }
        // ARP retries, in address order: `pending_arp` iterates in
        // `HashMap` order, and the order of the retry frames is observable.
        let mut due: Vec<Ipv4Addr> = self
            .pending_arp
            .iter()
            .filter(|(_, p)| p.deadline <= now)
            .map(|(ip, _)| *ip)
            .collect();
        due.sort_unstable();
        for ip in due {
            let (ifindex, give_up) = {
                let p = self.pending_arp.get_mut(&ip).expect("collected above");
                p.attempts += 1;
                p.deadline = now + ARP_RETRY;
                (p.ifindex, p.attempts >= 3)
            };
            if give_up {
                self.pending_arp.remove(&ip);
                self.events.push(HostEvent::ArpFailed { dst: ip });
            } else {
                self.send_arp_request(ifindex, ip);
            }
        }
    }

    /// Take frames queued for transmission: (ifindex, ethernet bytes).
    pub fn take_frames(&mut self) -> Vec<(IfIndex, Bytes)> {
        std::mem::take(&mut self.out)
    }

    /// Like [`Self::take_frames`], but swaps the queued frames into
    /// `sink` (which must be empty) so a pooled buffer can be reused
    /// across polls without allocating.
    pub fn take_frames_into(&mut self, sink: &mut Vec<(IfIndex, Bytes)>) {
        debug_assert!(sink.is_empty(), "take_frames_into requires an empty sink");
        std::mem::swap(&mut self.out, sink);
    }

    /// Take pending events.
    pub fn take_events(&mut self) -> Vec<HostEvent> {
        std::mem::take(&mut self.events)
    }

    /// Number of live sockets (diagnostics / leak checks).
    pub fn socket_count(&self) -> usize {
        self.sockets.len()
    }

    /// Queue a raw link-layer frame for transmission on `ifindex`
    /// (attack tooling: forged ARP etc.).
    pub fn inject_frame(&mut self, ifindex: IfIndex, bytes: Bytes) {
        self.out.push((ifindex, bytes));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rogue_sim::{Seed, SimDuration};

    /// A perfect two-host wire on one subnet.
    struct Pair {
        a: Host,
        b: Host,
        now: SimTime,
    }

    const IP_A: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 1);
    const IP_B: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 2);

    impl Pair {
        fn new() -> Pair {
            let mut a = Host::new("a", SimRng::new(Seed(1)));
            let mut b = Host::new("b", SimRng::new(Seed(2)));
            a.add_iface(MacAddr::local(1), IP_A, 24);
            b.add_iface(MacAddr::local(2), IP_B, 24);
            Pair {
                a,
                b,
                now: SimTime::ZERO,
            }
        }

        /// Shuttle frames until quiescent.
        fn pump(&mut self, rounds: usize) {
            for _ in 0..rounds {
                self.now += SimDuration::from_millis(1);
                self.a.poll(self.now);
                self.b.poll(self.now);
                let fa = self.a.take_frames();
                let fb = self.b.take_frames();
                if fa.is_empty() && fb.is_empty() {
                    break;
                }
                for (_, f) in fa {
                    self.b.on_link_rx(self.now, 0, &f);
                }
                for (_, f) in fb {
                    self.a.on_link_rx(self.now, 0, &f);
                }
            }
        }
    }

    #[test]
    fn arp_resolves_then_ping_replies() {
        let mut p = Pair::new();
        p.a.ping(p.now, IP_B, 1);
        p.pump(20);
        let events = p.a.take_events();
        assert!(
            events.contains(&HostEvent::PingReply { from: IP_B, seq: 1 }),
            "events: {events:?}"
        );
        // The cache is warm now.
        assert!(p.a.arp_cache.lookup(p.now, IP_B).is_some());
    }

    #[test]
    fn arp_gives_up_on_silent_host() {
        let mut a = Host::new("a", SimRng::new(Seed(1)));
        a.add_iface(MacAddr::local(1), IP_A, 24);
        a.ping(SimTime::ZERO, IP_B, 1);
        let mut now;
        for _ in 0..10 {
            now = a.next_wake();
            if now == SimTime::FOREVER {
                break;
            }
            a.poll(now);
            a.take_frames();
        }
        assert!(a
            .take_events()
            .contains(&HostEvent::ArpFailed { dst: IP_B }));
    }

    #[test]
    fn simultaneous_arp_retries_are_sent_in_address_order() {
        const IP_C: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 3);
        // The ARP retries sent at one poll, after pinging `dsts` at once.
        let retries = |dsts: &[Ipv4Addr]| {
            let mut a = Host::new("a", SimRng::new(Seed(1)));
            a.add_iface(MacAddr::local(1), IP_A, 24);
            for &dst in dsts {
                a.ping(SimTime::ZERO, dst, 1);
            }
            a.take_frames();
            a.poll(SimTime::ZERO + ARP_RETRY);
            a.take_frames()
        };
        let mut in_order = retries(&[IP_B]);
        in_order.extend(retries(&[IP_C]));
        // Each host hashes with its own random keys, so repeat to make an
        // order that leaks from the map show up.
        for _ in 0..8 {
            assert_eq!(retries(&[IP_B, IP_C]), in_order);
            assert_eq!(retries(&[IP_C, IP_B]), in_order);
        }
    }

    #[test]
    fn tcp_end_to_end() {
        let mut p = Pair::new();
        let lh = p.b.tcp_listen(80);
        let ch = p.a.tcp_connect(p.now, IP_B, 80);
        p.pump(50);
        assert!(p.a.tcp_is_established(ch));
        let sh = p.b.tcp_accept(lh).expect("accepted");
        assert!(p.b.tcp_is_established(sh));

        p.a.tcp_send(p.now, ch, b"GET / HTTP/1.0\r\n\r\n");
        p.pump(50);
        assert_eq!(p.b.tcp_recv(sh, 4096), b"GET / HTTP/1.0\r\n\r\n");

        p.b.tcp_send(p.now, sh, b"HTTP/1.0 200 OK\r\n\r\nhello");
        p.b.tcp_close(p.now, sh);
        p.pump(50);
        assert_eq!(p.a.tcp_recv(ch, 4096), b"HTTP/1.0 200 OK\r\n\r\nhello");
        assert!(p.a.tcp_eof(ch));
    }

    #[test]
    fn tcp_to_closed_port_gets_rst() {
        let mut p = Pair::new();
        let ch = p.a.tcp_connect(p.now, IP_B, 9999);
        p.pump(20);
        assert!(p.a.tcp_is_closed(ch), "state: {:?}", p.a.tcp_state(ch));
    }

    #[test]
    fn udp_round_trip() {
        let mut p = Pair::new();
        let sb = p.b.udp_bind(53);
        let sa = p.a.udp_bind(5353);
        p.a.udp_send(p.now, sa, IP_B, 53, b"query");
        p.pump(20);
        let (src, sport, payload) = p.b.udp_recv(sb).expect("datagram");
        assert_eq!(src, IP_A);
        assert_eq!(sport, 5353);
        assert_eq!(&payload[..], b"query");
        // Reply.
        p.b.udp_send(p.now, sb, IP_A, 5353, b"answer");
        p.pump(20);
        let (_, _, payload) = p.a.udp_recv(sa).expect("reply");
        assert_eq!(&payload[..], b"answer");
    }

    #[test]
    fn forwarding_between_subnets() {
        // a (10.0.0.2) -- r (10.0.0.1 / 10.0.1.1) -- b (10.0.1.2)
        let mut a = Host::new("a", SimRng::new(Seed(1)));
        let mut r = Host::new("r", SimRng::new(Seed(2)));
        let mut b = Host::new("b", SimRng::new(Seed(3)));
        a.add_iface(MacAddr::local(1), Ipv4Addr::new(10, 0, 0, 2), 24);
        let r0 = r.add_iface(MacAddr::local(2), Ipv4Addr::new(10, 0, 0, 1), 24);
        let r1 = r.add_iface(MacAddr::local(3), Ipv4Addr::new(10, 0, 1, 1), 24);
        b.add_iface(MacAddr::local(4), Ipv4Addr::new(10, 0, 1, 2), 24);
        r.ip_forward = true;
        a.routes.add_default(Ipv4Addr::new(10, 0, 0, 1), 0);
        b.routes.add_default(Ipv4Addr::new(10, 0, 1, 1), 0);

        a.ping(SimTime::ZERO, Ipv4Addr::new(10, 0, 1, 2), 7);
        let mut now = SimTime::ZERO;
        for _ in 0..40 {
            now += SimDuration::from_millis(1);
            a.poll(now);
            r.poll(now);
            b.poll(now);
            for (_, f) in a.take_frames() {
                r.on_link_rx(now, r0, &f);
            }
            for (ifx, f) in r.take_frames() {
                if ifx == r0 {
                    a.on_link_rx(now, 0, &f);
                } else {
                    b.on_link_rx(now, 0, &f);
                }
            }
            for (_, f) in b.take_frames() {
                r.on_link_rx(now, r1, &f);
            }
        }
        assert!(a
            .take_events()
            .iter()
            .any(|e| matches!(e, HostEvent::PingReply { seq: 7, .. })));
        assert!(r.forwarded >= 2, "router forwarded both directions");
        let _ = r1;
    }

    #[test]
    fn no_forwarding_when_disabled() {
        let mut r = Host::new("r", SimRng::new(Seed(2)));
        let r0 = r.add_iface(MacAddr::local(2), Ipv4Addr::new(10, 0, 0, 1), 24);
        r.add_iface(MacAddr::local(3), Ipv4Addr::new(10, 0, 1, 1), 24);
        // A packet for the other subnet arrives; ip_forward = false.
        let msg = IcmpMessage::EchoRequest {
            ident: 1,
            seq: 1,
            payload: Bytes::new(),
        };
        let pkt = Ipv4Packet::new(
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(10, 0, 1, 2),
            proto::ICMP,
            msg.encode(),
        );
        let eth = EthFrame::new(MacAddr::local(2), MacAddr::local(1), ET_IPV4, pkt.encode());
        r.on_link_rx(SimTime::ZERO, r0, &eth.encode());
        r.poll(SimTime::from_millis(1));
        assert!(r.take_frames().is_empty());
        assert_eq!(r.forwarded, 0);
    }

    #[test]
    fn proxy_arp_answers_for_routed_hosts() {
        // Gateway with two ifaces; host route for VICTIM via iface 1.
        let mut gw = Host::new("gw", SimRng::new(Seed(5)));
        let g0 = gw.add_iface(MacAddr::local(10), Ipv4Addr::new(192, 168, 0, 1), 24);
        let _g1 = gw.add_iface(MacAddr::local(11), Ipv4Addr::new(192, 168, 0, 2), 24);
        gw.proxy_arp = true;
        let victim = Ipv4Addr::new(192, 168, 0, 50);
        let corp_gw = Ipv4Addr::new(192, 168, 0, 254);
        gw.routes.add_host(corp_gw, 1); // CORP gateway lives behind iface 1

        // The victim (on iface 0 side) ARPs for the corporate gateway.
        let req = ArpPacket::request(MacAddr::local(99), victim, corp_gw);
        let eth = EthFrame::new(MacAddr::BROADCAST, MacAddr::local(99), ET_ARP, req.encode());
        gw.on_link_rx(SimTime::ZERO, g0, &eth.encode());
        let frames = gw.take_frames();
        let reply = frames
            .iter()
            .find_map(|(ifx, f)| {
                let e = EthFrame::decode(f)?;
                if e.ethertype != ET_ARP {
                    return None;
                }
                let a = ArpPacket::decode(&e.payload)?;
                (a.op == ArpOp::Reply).then_some((*ifx, a))
            })
            .expect("proxy ARP reply");
        assert_eq!(reply.0, g0, "answered on the asking side");
        assert_eq!(reply.1.sender_ip, corp_gw);
        assert_eq!(reply.1.sender_mac, MacAddr::local(10), "gateway's own MAC");
        // And the victim's location was learned for the reverse direction.
        assert_eq!(gw.arp_iface.get(&victim), Some(&g0));
    }

    #[test]
    fn proxy_arp_stays_quiet_without_route_or_flag() {
        let mut gw = Host::new("gw", SimRng::new(Seed(6)));
        let g0 = gw.add_iface(MacAddr::local(10), Ipv4Addr::new(192, 168, 0, 1), 24);
        gw.add_iface(MacAddr::local(11), Ipv4Addr::new(10, 0, 0, 1), 24);
        // No proxy_arp flag.
        let req = ArpPacket::request(
            MacAddr::local(99),
            Ipv4Addr::new(192, 168, 0, 50),
            Ipv4Addr::new(10, 0, 0, 9),
        );
        let eth = EthFrame::new(MacAddr::BROADCAST, MacAddr::local(99), ET_ARP, req.encode());
        gw.on_link_rx(SimTime::ZERO, g0, &eth.encode());
        assert!(gw.take_frames().is_empty());
    }

    #[test]
    fn dnat_redirects_to_local_socket() {
        // The paper's netsed redirect, end to end on one wire: the victim
        // connects to TARGET:80 but lands on the gateway's local 10101.
        use crate::netfilter::DnatRule;
        let target = Ipv4Addr::new(10, 9, 9, 9);
        let mut p = Pair::new();
        // b is the gateway: DNAT TARGET:80 -> (its own IP):10101.
        p.b.netfilter.add_dnat(DnatRule {
            proto: Some(proto::TCP),
            dst: Some(target),
            dport: Some(80),
            to: (IP_B, 10101),
        });
        let lh = p.b.tcp_listen(10101);
        // a routes everything via b.
        p.a.routes.add_default(IP_B, 0);

        let ch = p.a.tcp_connect(p.now, target, 80);
        p.pump(60);
        assert!(p.a.tcp_is_established(ch), "victim sees an open connection");
        let sh = p.b.tcp_accept(lh).expect("proxy accepted");
        // The victim believes it talks to TARGET:80.
        assert_eq!(p.a.tcp_peer(ch), Some((target, 80)));
        // Data flows both ways through the translation.
        p.a.tcp_send(p.now, ch, b"GET /file.tgz HTTP/1.0\r\n\r\n");
        p.pump(60);
        assert_eq!(p.b.tcp_recv(sh, 4096), b"GET /file.tgz HTTP/1.0\r\n\r\n");
        p.b.tcp_send(p.now, sh, b"HTTP/1.0 200 OK\r\n\r\n");
        p.pump(60);
        assert_eq!(p.a.tcp_recv(ch, 4096), b"HTTP/1.0 200 OK\r\n\r\n");
    }

    #[test]
    fn ttl_expiry_generates_time_exceeded() {
        let mut r = Host::new("r", SimRng::new(Seed(21)));
        let r0 = r.add_iface(MacAddr::local(2), Ipv4Addr::new(10, 0, 0, 1), 24);
        r.add_iface(MacAddr::local(3), Ipv4Addr::new(10, 0, 1, 1), 24);
        r.ip_forward = true;
        // Teach the router where the source lives so the error routes.
        r.arp_cache
            .insert(SimTime::ZERO, Ipv4Addr::new(10, 0, 0, 2), MacAddr::local(1));

        let mut pkt = Ipv4Packet::new(
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(10, 0, 1, 2),
            proto::UDP,
            UdpDatagram::new(1, 2, Bytes::from_static(b"x"))
                .encode(Ipv4Addr::new(10, 0, 0, 2), Ipv4Addr::new(10, 0, 1, 2)),
        );
        pkt.ttl = 1; // expires here
        let eth = EthFrame::new(MacAddr::local(2), MacAddr::local(1), ET_IPV4, pkt.encode());
        r.on_link_rx(SimTime::ZERO, r0, &eth.encode());
        let frames = r.take_frames();
        let icmp = frames.iter().find_map(|(_, f)| {
            let e = EthFrame::decode(f)?;
            let p = Ipv4Packet::decode(&e.payload)?;
            (p.protocol == proto::ICMP).then(|| IcmpMessage::decode(&p.payload))?
        });
        assert!(
            matches!(icmp, Some(IcmpMessage::TimeExceeded { .. })),
            "got {frames:?}"
        );
        assert_eq!(r.forwarded, 0, "expired packet must not be forwarded");
    }

    #[test]
    fn udp_closed_port_generates_port_unreachable() {
        let mut h = Host::new("h", SimRng::new(Seed(22)));
        let i0 = h.add_iface(MacAddr::local(2), IP_A, 24);
        h.arp_cache.insert(SimTime::ZERO, IP_B, MacAddr::local(1));
        let dg = UdpDatagram::new(1234, 9, Bytes::from_static(b"nobody-home"));
        let pkt = Ipv4Packet::new(IP_B, IP_A, proto::UDP, dg.encode(IP_B, IP_A));
        let eth = EthFrame::new(MacAddr::local(2), MacAddr::local(1), ET_IPV4, pkt.encode());
        h.on_link_rx(SimTime::ZERO, i0, &eth.encode());
        let frames = h.take_frames();
        let icmp = frames.iter().find_map(|(_, f)| {
            let e = EthFrame::decode(f)?;
            let p = Ipv4Packet::decode(&e.payload)?;
            (p.protocol == proto::ICMP).then(|| IcmpMessage::decode(&p.payload))?
        });
        assert!(
            matches!(icmp, Some(IcmpMessage::DestUnreachable { code: 3, .. })),
            "got {icmp:?}"
        );
    }

    #[test]
    fn self_echo_frames_ignored() {
        // A frame whose source MAC is one of our own interfaces (our own
        // transmission heard back through a co-channel radio) is dropped.
        let mut h = Host::new("h", SimRng::new(Seed(23)));
        let i0 = h.add_iface(MacAddr::local(1), IP_A, 24);
        let pkt = Ipv4Packet::new(
            IP_B,
            IP_A,
            proto::UDP,
            UdpDatagram::new(1, 2, Bytes::from_static(b"x")).encode(IP_B, IP_A),
        );
        let eth = EthFrame::new(MacAddr::local(1), MacAddr::local(1), ET_IPV4, pkt.encode());
        h.on_link_rx(SimTime::ZERO, i0, &eth.encode());
        assert_eq!(h.delivered, 0);
    }

    #[test]
    fn promiscuous_iface_sees_foreign_frames() {
        let mut h = Host::new("sniffer", SimRng::new(Seed(9)));
        let i0 = h.add_iface(MacAddr::local(1), IP_A, 24);
        // A frame between two other hosts.
        let pkt = Ipv4Packet::new(
            Ipv4Addr::new(192, 168, 0, 7),
            IP_A,
            proto::UDP,
            UdpDatagram::new(1, 2, Bytes::from_static(b"x"))
                .encode(Ipv4Addr::new(192, 168, 0, 7), IP_A),
        );
        let eth = EthFrame::new(
            MacAddr::local(42),
            MacAddr::local(43),
            ET_IPV4,
            pkt.encode(),
        );
        // Not addressed to us: dropped without promiscuous mode.
        h.on_link_rx(SimTime::ZERO, i0, &eth.encode());
        assert_eq!(h.delivered, 0);
        h.iface_mut(i0).promiscuous = true;
        h.on_link_rx(SimTime::ZERO, i0, &eth.encode());
        assert_eq!(h.delivered, 1);
    }
}
