//! Hostile frames at the host stack: whatever bytes reach a host, the
//! codecs and the receive path answer without panicking.
//!
//! - Arbitrary byte strings of 0–120 bytes go to `EthFrame`,
//!   `Ipv4Packet`, `TcpSegment`, `UdpDatagram`, `IcmpMessage` and
//!   `ArpPacket::decode`, raw and with the checksum or header fields a
//!   decoder checks first patched valid, so the parsers behind them run.
//!   Every `Ok` must re-encode to bytes that decode equal.
//! - Checksum-valid frames with arbitrary fields go to `Host::on_link_rx`
//!   and then `poll`: TCP with every flag combination and edge
//!   seq/ack/window values (some derived from the segments the host
//!   sent, so its connections leave `SYN-SENT`/`LISTEN`), UDP, every
//!   ICMP kind, and truncated or bit-flipped ARP and IPv4. The host has a
//!   listener, a connecting socket, a bound UDP port and a pending ping.

use bytes::Bytes;
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rogue_dot11::MacAddr;
use rogue_netstack::arp::{ArpOp, ArpPacket};
use rogue_netstack::ethernet::EthFrame;
use rogue_netstack::icmp::IcmpMessage;
use rogue_netstack::ip::{checksum, checksum_with_pseudo, Ipv4Packet};
use rogue_netstack::tcp::TcpSegment;
use rogue_netstack::udp::UdpDatagram;
use rogue_netstack::{proto, Host, Ipv4Addr, SocketHandle};
use rogue_sim::{Seed, SimDuration, SimRng, SimTime};

const ET_IPV4: u16 = 0x0800;
const ET_ARP: u16 = 0x0806;

/// The host under test.
const ME: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const MY_MAC: MacAddr = MacAddr::local(1);
/// Its peer on the segment.
const PEER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const PEER_MAC: MacAddr = MacAddr::local(2);
const LISTEN_PORT: u16 = 80;
const CONNECT_PORT: u16 = 8080;
const UDP_PORT: u16 = 5000;

const SEQ_EDGES: [u32; 6] = [0, 1, 0x7FFF_FFFF, 0x8000_0000, u32::MAX - 1, u32::MAX];
const WINDOW_EDGES: [u16; 4] = [0, 1, 0x7FFF, u16::MAX];

/// Decode `bytes` with every codec; each `Ok` must survive re-encoding.
fn decode_all(bytes: &Bytes) -> Result<(), TestCaseError> {
    if let Some(f) = EthFrame::decode(bytes) {
        prop_assert_eq!(EthFrame::decode(&f.encode()), Some(f));
    }
    if let Some(p) = Ipv4Packet::decode(bytes) {
        prop_assert_eq!(Ipv4Packet::decode(&p.encode()), Some(p));
    }
    if let Some(s) = TcpSegment::decode(PEER, ME, bytes) {
        prop_assert_eq!(TcpSegment::decode(PEER, ME, &s.encode(PEER, ME)), Some(s));
    }
    if let Some(d) = UdpDatagram::decode(PEER, ME, bytes) {
        prop_assert_eq!(UdpDatagram::decode(PEER, ME, &d.encode(PEER, ME)), Some(d));
    }
    if let Some(m) = IcmpMessage::decode(bytes) {
        prop_assert_eq!(IcmpMessage::decode(&m.encode()), Some(m));
    }
    if let Some(a) = ArpPacket::decode(bytes) {
        prop_assert_eq!(ArpPacket::decode(&a.encode()), Some(a));
    }
    Ok(())
}

/// Store `v` at `at..at + 2` when the buffer is long enough.
fn put_u16(b: &mut [u8], at: usize, v: u16) {
    if b.len() >= at + 2 {
        b[at..at + 2].copy_from_slice(&v.to_be_bytes());
    }
}

/// `raw` with the fields the decoder named by `which` checks first made
/// valid: the IPv4 version/length/checksum, the ICMP checksum, the UDP
/// or TCP length and pseudo-header checksum, or the ARP preamble.
fn patched(raw: &[u8], which: u8) -> Bytes {
    let mut b = raw.to_vec();
    match which % 5 {
        0 if b.len() >= 20 => {
            b[0] = 0x45;
            let total = 20 + (b[2] as usize) % (b.len() - 19);
            put_u16(&mut b, 2, total as u16);
            put_u16(&mut b, 10, 0);
            let sum = checksum(&b[..20]);
            put_u16(&mut b, 10, sum);
        }
        1 if b.len() >= 8 => {
            put_u16(&mut b, 2, 0);
            let sum = checksum(&b);
            put_u16(&mut b, 2, sum);
        }
        2 if b.len() >= 8 => {
            let len = b.len() as u16;
            put_u16(&mut b, 4, len);
            put_u16(&mut b, 6, 0);
            let sum = checksum_with_pseudo(PEER, ME, proto::UDP, &b);
            put_u16(&mut b, 6, sum);
        }
        3 if b.len() >= 20 => {
            b[12] = (5 + b[12] % 4) << 4;
            put_u16(&mut b, 16, 0);
            let sum = checksum_with_pseudo(PEER, ME, proto::TCP, &b);
            put_u16(&mut b, 16, sum);
        }
        4 if b.len() >= 28 => {
            b[..6].copy_from_slice(&[0, 1, 0x08, 0x00, 6, 4]);
            let op = 1 + u16::from(b[7] & 1);
            put_u16(&mut b, 6, op);
        }
        _ => {}
    }
    Bytes::from(b)
}

/// SplitMix64 driven by one proptest-sampled seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn bytes(&mut self, max: u64) -> Vec<u8> {
        (0..self.below(max + 1))
            .map(|_| self.next() as u8)
            .collect()
    }

    fn seq_near(&mut self, base: u32) -> u32 {
        match self.below(4) {
            0 => SEQ_EDGES[self.below(SEQ_EDGES.len() as u64) as usize],
            1 => self.next() as u32,
            _ => base.wrapping_add(self.below(5) as u32).wrapping_sub(2),
        }
    }
}

/// What the host last sent, read back from its output: the raw
/// material for segments that match its connections.
#[derive(Default)]
struct Seen {
    /// Latest TCP segment the host sent from each of its ports:
    /// (its port, peer port, seq, ack).
    tcp: Vec<(u16, u16, u32, u32)>,
    /// Identifier and sequence of the latest echo request.
    echo: Option<(u16, u16)>,
    /// Latest IPv4 packet, quoted by forged ICMP errors.
    last_ip: Option<Bytes>,
}

impl Seen {
    fn read(&mut self, host: &mut Host) {
        for (_, frame) in host.take_frames() {
            let Some(eth) = EthFrame::decode(&frame) else {
                continue;
            };
            let Some(ip) = Ipv4Packet::decode(&eth.payload) else {
                continue;
            };
            match ip.protocol {
                proto::TCP => {
                    if let Some(s) = TcpSegment::decode(ip.src, ip.dst, &ip.payload) {
                        self.tcp.retain(|t| t.0 != s.src_port);
                        self.tcp.push((s.src_port, s.dst_port, s.seq, s.ack));
                    }
                }
                proto::ICMP => {
                    if let Some(IcmpMessage::EchoRequest { ident, seq, .. }) =
                        IcmpMessage::decode(&ip.payload)
                    {
                        self.echo = Some((ident, seq));
                    }
                }
                _ => {}
            }
            self.last_ip = Some(eth.payload.clone());
        }
    }
}

/// The host under test: a listener (returned), a connection in
/// progress, a bound UDP port and a ping waiting on ARP.
fn target_host(seed: u64) -> (Host, SocketHandle) {
    let mut h = Host::new("target", SimRng::new(Seed(seed)));
    h.add_iface(MY_MAC, ME, 24);
    let listener = h.tcp_listen(LISTEN_PORT);
    h.tcp_connect(SimTime::ZERO, PEER, CONNECT_PORT);
    h.udp_bind(UDP_PORT);
    h.ping(SimTime::ZERO, PEER, 1);
    h.poll(SimTime::ZERO);
    (h, listener)
}

fn ipv4_frame(g: &mut Gen, protocol: u8, payload: Bytes) -> Bytes {
    let src = if g.below(4) == 0 {
        Ipv4Addr::new(g.next() as u8, 0, 0, g.next() as u8)
    } else {
        PEER
    };
    let dst = match g.below(6) {
        0 => Ipv4Addr::new(10, 0, 0, 255),
        1 => Ipv4Addr::new(255, 255, 255, 255),
        2 => Ipv4Addr::new(10, 0, 0, g.next() as u8),
        _ => ME,
    };
    let mut pkt = Ipv4Packet::new(src, dst, protocol, payload);
    pkt.ttl = g.next() as u8;
    pkt.ident = g.next() as u16;
    let eth_dst = if g.below(5) == 0 {
        MacAddr::BROADCAST
    } else {
        MY_MAC
    };
    EthFrame::new(eth_dst, PEER_MAC, ET_IPV4, pkt.encode()).encode()
}

/// One checksum-valid frame with arbitrary fields, or a damaged one.
fn hostile_frame(g: &mut Gen, seen: &Seen) -> Bytes {
    match g.below(8) {
        0..=2 => {
            let (sport, dport, seq, ack) = match seen.tcp.get(g.below(3) as usize) {
                Some(&(ours, theirs, seq, ack)) if g.below(4) != 0 => (theirs, ours, ack, seq),
                _ => (
                    [CONNECT_PORT, g.next() as u16][g.below(2) as usize],
                    [LISTEN_PORT, g.next() as u16][g.below(2) as usize],
                    0,
                    0,
                ),
            };
            let seg = TcpSegment {
                src_port: sport,
                dst_port: dport,
                seq: g.seq_near(seq),
                ack: g.seq_near(ack.wrapping_add(1)),
                flags: g.next() as u8,
                window: if g.below(2) == 0 {
                    WINDOW_EDGES[g.below(4) as usize]
                } else {
                    g.next() as u16
                },
                payload: Bytes::from(g.bytes(64)),
            };
            ipv4_frame(g, proto::TCP, seg.encode(PEER, ME))
        }
        3 => {
            let port = [UDP_PORT, g.next() as u16][g.below(2) as usize];
            let d = UdpDatagram::new(g.next() as u16, port, g.bytes(64));
            ipv4_frame(g, proto::UDP, d.encode(PEER, ME))
        }
        4 => {
            let (ident, seq) = seen.echo.unwrap_or((g.next() as u16, 1));
            let quoted = seen.last_ip.clone().unwrap_or_default();
            let quoted = quoted.slice(..quoted.len().min(g.below(48) as usize));
            let payload = Bytes::from(g.bytes(32));
            let msg = match g.below(5) {
                0 => IcmpMessage::EchoRequest {
                    ident: g.next() as u16,
                    seq: g.next() as u16,
                    payload,
                },
                1 => IcmpMessage::EchoReply {
                    ident,
                    seq,
                    payload,
                },
                2 => IcmpMessage::DestUnreachable {
                    code: g.next() as u8,
                    original: quoted,
                },
                3 => IcmpMessage::TimeExceeded { original: quoted },
                _ => {
                    // Any type/code, checksum made valid.
                    let mut raw = g.bytes(40);
                    raw.resize(raw.len().max(8), 0);
                    raw[2..4].copy_from_slice(&[0, 0]);
                    let sum = checksum(&raw);
                    raw[2..4].copy_from_slice(&sum.to_be_bytes());
                    return ipv4_frame(g, proto::ICMP, Bytes::from(raw));
                }
            };
            ipv4_frame(g, proto::ICMP, msg.encode())
        }
        5 | 6 => {
            // ARP, whole, truncated or bit-flipped.
            let op = if g.below(2) == 0 {
                ArpOp::Request
            } else {
                ArpOp::Reply
            };
            let sender_ip = [PEER, Ipv4Addr::new(0, 0, 0, 0), ME][g.below(3) as usize];
            let arp = ArpPacket {
                op,
                sender_mac: [PEER_MAC, MacAddr::BROADCAST, MY_MAC][g.below(3) as usize],
                sender_ip,
                target_mac: MacAddr(g.next().to_be_bytes()[..6].try_into().unwrap()),
                target_ip: [ME, PEER, Ipv4Addr::new(g.next() as u8, 1, 2, 3)][g.below(3) as usize],
            };
            let mut b = EthFrame::new(MacAddr::BROADCAST, PEER_MAC, ET_ARP, arp.encode())
                .encode()
                .to_vec();
            damage(g, &mut b);
            Bytes::from(b)
        }
        _ => {
            // IPv4, truncated or bit-flipped, any protocol.
            let protocol =
                [proto::TCP, proto::UDP, proto::ICMP, g.next() as u8][g.below(4) as usize];
            let payload = Bytes::from(g.bytes(48));
            let mut b = ipv4_frame(g, protocol, payload).to_vec();
            damage(g, &mut b);
            Bytes::from(b)
        }
    }
}

/// Truncate `b`, flip one of its bits, or leave it whole.
fn damage(g: &mut Gen, b: &mut Vec<u8>) {
    match g.below(3) {
        0 => b.truncate(g.below(b.len() as u64 + 1) as usize),
        1 if !b.is_empty() => {
            let bit = g.below(b.len() as u64 * 8);
            b[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
        _ => {}
    }
}

proptest! {
    /// Arbitrary bytes: every decoder's `Ok` re-encodes to itself.
    #[test]
    fn arbitrary_bytes_decode_or_reject(raw in vec(any::<u8>(), 0..120), which in any::<u8>()) {
        decode_all(&Bytes::from(raw.clone()))?;
        decode_all(&patched(&raw, which))?;
    }

    /// Checksum-valid frames with arbitrary fields, fed to a host with
    /// live sockets: nothing panics, whatever state they drive it into.
    #[test]
    fn hostile_frames_never_panic_the_host(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let (mut host, listener) = target_host(seed);
        let mut seen = Seen::default();
        seen.read(&mut host);
        let mut now = SimTime::ZERO;
        for _ in 0..120 {
            if g.below(4) == 0 {
                now += SimDuration::from_millis(g.below(1_500));
            }
            let frame = hostile_frame(&mut g, &seen);
            host.on_link_rx(now, 0, &frame);
            host.poll(now);
            seen.read(&mut host);
            host.take_events();
            if let Some(accepted) = host.tcp_accept(listener) {
                host.tcp_send(now, accepted, b"banner");
            }
        }
        // Let every timer the frames armed run out.
        for _ in 0..64 {
            let wake = host.next_wake();
            if wake == SimTime::FOREVER {
                break;
            }
            now = now.max(wake);
            host.poll(now);
            host.take_frames();
        }
    }
}

/// Every TCP flag combination × edge seq/ack/window values, at the
/// listener and at the connecting socket.
#[test]
fn every_tcp_flag_combination_is_survivable() {
    let (mut host, _) = target_host(7);
    let mut seen = Seen::default();
    seen.read(&mut host);
    let now = SimTime::from_millis(1);
    for flags in 0..=u8::MAX {
        for (sport, dport) in [(1234, LISTEN_PORT), (CONNECT_PORT, 32_000)] {
            for &seq in &SEQ_EDGES {
                for &window in &WINDOW_EDGES {
                    let seg = TcpSegment {
                        src_port: sport,
                        dst_port: dport,
                        seq,
                        ack: seq.wrapping_add(1),
                        flags,
                        window,
                        payload: Bytes::from_static(b"x"),
                    };
                    let pkt = Ipv4Packet::new(PEER, ME, proto::TCP, seg.encode(PEER, ME));
                    let frame = EthFrame::new(MY_MAC, PEER_MAC, ET_IPV4, pkt.encode()).encode();
                    host.on_link_rx(now, 0, &frame);
                    host.poll(now);
                    seen.read(&mut host);
                }
            }
        }
    }
}
