//! The VPN endpoint ("concentrator") on the trusted wired network.
//!
//! Decapsulated client packets are injected into the endpoint host's tun
//! interface; with `ip_forward` and a MASQUERADE rule on the wired side,
//! the endpoint relays them to the real servers and routes replies back
//! into the right client's tunnel. One endpoint serves many clients,
//! each provisioned with its own PSK and tunnel-internal address.

use std::collections::HashMap;

use bytes::Bytes;
use rogue_dot11::MacAddr;
use rogue_netstack::ethernet::EthFrame;
use rogue_netstack::ip::Ipv4Packet;
use rogue_netstack::{Host, IfIndex, Ipv4Addr, SocketHandle};
use rogue_services::apps::{App, AppEvent};
use rogue_sim::{SimRng, SimTime};

use crate::protocol::{
    authenticator, frame_record, gen_keypair, transcript, Message, RecordStream, SessionCrypto,
    Transport, PSK_LEN,
};

const ET_IPV4: u16 = 0x0800;

/// One provisioned client account.
#[derive(Clone, Debug)]
pub struct ClientAccount {
    /// Pre-shared key.
    pub psk: [u8; PSK_LEN],
    /// Tunnel-internal address assigned to this client.
    pub tun_ip: Ipv4Addr,
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct VpnServerConfig {
    /// Transport listen port.
    pub port: u16,
    /// Encapsulation.
    pub transport: Transport,
    /// Provisioned accounts by client id.
    pub accounts: HashMap<u32, ClientAccount>,
    /// The endpoint host's tun interface.
    pub tun_ifindex: IfIndex,
    /// MAC used as the clients' address on the tun link.
    pub tun_peer_mac: MacAddr,
}

/// How a session reaches its client.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum PeerKey {
    Udp(Ipv4Addr, u16),
    Tcp(SocketHandle),
}

enum SessionState {
    AwaitAuth {
        expected_auth: [u8; 20],
        crypto: SessionCrypto,
        server_hello: Message,
    },
    Established(SessionCrypto),
}

struct Session {
    /// Owning account (diagnostics).
    #[allow(dead_code)]
    client_id: u32,
    tun_ip: Ipv4Addr,
    state: SessionState,
}

/// The endpoint app.
pub struct VpnServer {
    cfg: VpnServerConfig,
    udp_sock: Option<SocketHandle>,
    tcp_listener: Option<SocketHandle>,
    tcp_rx: HashMap<SocketHandle, RecordStream>,
    sessions: HashMap<PeerKey, Session>,
    by_tun_ip: HashMap<Ipv4Addr, PeerKey>,
    rng: SimRng,
    /// Records relayed client→wired.
    pub records_in: u64,
    /// Records relayed wired→client.
    pub records_out: u64,
    /// Handshakes completed.
    pub sessions_established: u64,
    /// ClientHello with unknown id / bad auth.
    pub auth_rejections: u64,
}

impl VpnServer {
    /// New endpoint.
    pub fn new(cfg: VpnServerConfig, rng: SimRng) -> VpnServer {
        VpnServer {
            cfg,
            udp_sock: None,
            tcp_listener: None,
            tcp_rx: HashMap::new(),
            sessions: HashMap::new(),
            by_tun_ip: HashMap::new(),
            rng,
            records_in: 0,
            records_out: 0,
            sessions_established: 0,
            auth_rejections: 0,
        }
    }

    /// Total integrity failures across sessions.
    pub fn integrity_failures(&self) -> u64 {
        self.sessions
            .values()
            .map(|s| match &s.state {
                SessionState::Established(c) | SessionState::AwaitAuth { crypto: c, .. } => {
                    c.integrity_failures
                }
            })
            .sum()
    }

    fn send_to(&mut self, now: SimTime, host: &mut Host, peer: PeerKey, msg: &Message) {
        self.send_record(now, host, peer, Bytes::from(msg.encode()));
    }

    /// Send one already-encoded record. The UDP datagram takes the
    /// buffer as-is; TCP framing pays one copy for the length prefix.
    fn send_record(&mut self, now: SimTime, host: &mut Host, peer: PeerKey, rec: Bytes) {
        match peer {
            PeerKey::Udp(ip, port) => {
                if let Some(sock) = self.udp_sock {
                    host.udp_send_bytes(now, sock, ip, port, rec);
                }
            }
            PeerKey::Tcp(sock) => {
                host.tcp_send(now, sock, &frame_record(&rec));
            }
        }
    }

    fn on_message(&mut self, now: SimTime, host: &mut Host, peer: PeerKey, msg: Message) {
        match msg {
            Message::ClientHello {
                client_id,
                nonce: nonce_c,
                dh_pub: client_pub,
            } => {
                // Retransmitted hello for a pending session: replay our
                // ServerHello.
                if let Some(sess) = self.sessions.get(&peer) {
                    if let SessionState::AwaitAuth { server_hello, .. } = &sess.state {
                        let hello = server_hello.clone();
                        self.send_to(now, host, peer, &hello);
                        return;
                    }
                }
                let Some(account) = self.cfg.accounts.get(&client_id).cloned() else {
                    self.auth_rejections += 1;
                    return;
                };
                let kp = gen_keypair(&mut self.rng);
                let Some(shared) = kp.agree(&client_pub) else {
                    self.auth_rejections += 1;
                    return;
                };
                let mut nonce_s = [0u8; 16];
                self.rng.fill_bytes(&mut nonce_s);
                let t = transcript(client_id, &nonce_c, &nonce_s, &client_pub, &kp.public);
                let auth = authenticator(&account.psk, "server-auth", &t);
                let expected_auth = authenticator(&account.psk, "client-auth", &t);
                let crypto = SessionCrypto::derive(&shared, &nonce_c, &nonce_s, false);
                let server_hello = Message::ServerHello {
                    nonce: nonce_s,
                    dh_pub: kp.public.clone(),
                    auth,
                };
                self.send_to(now, host, peer, &server_hello);
                self.sessions.insert(
                    peer,
                    Session {
                        client_id,
                        tun_ip: account.tun_ip,
                        state: SessionState::AwaitAuth {
                            expected_auth,
                            crypto,
                            server_hello,
                        },
                    },
                );
            }
            Message::ClientAuth { auth } => {
                let Some(sess) = self.sessions.get_mut(&peer) else {
                    return;
                };
                let SessionState::AwaitAuth {
                    expected_auth,
                    crypto,
                    ..
                } = &mut sess.state
                else {
                    return;
                };
                if *expected_auth != auth {
                    self.auth_rejections += 1;
                    self.sessions.remove(&peer);
                    return;
                }
                let crypto = std::mem::replace(
                    crypto,
                    SessionCrypto::derive(&[0u8; 16], &[0; 16], &[0; 16], false),
                );
                let tun_ip = sess.tun_ip;
                sess.state = SessionState::Established(crypto);
                self.by_tun_ip.insert(tun_ip, peer);
                self.sessions_established += 1;
            }
            Message::Data {
                seq,
                tag,
                ciphertext,
            } => {
                let Some(sess) = self.sessions.get_mut(&peer) else {
                    return;
                };
                let SessionState::Established(crypto) = &mut sess.state else {
                    return;
                };
                if let Some(packet) = crypto.open(seq, &tag, ciphertext) {
                    // Only accept inner packets sourced from the client's
                    // assigned tunnel address (anti-spoofing).
                    if let Some(ip) = Ipv4Packet::decode(&packet) {
                        if ip.src != sess.tun_ip {
                            return;
                        }
                    } else {
                        return;
                    }
                    self.records_in += 1;
                    let tun_mac = host.iface(self.cfg.tun_ifindex).mac;
                    let frame = EthFrame::new(tun_mac, self.cfg.tun_peer_mac, ET_IPV4, packet);
                    host.on_link_rx(now, self.cfg.tun_ifindex, &frame.encode());
                }
            }
            Message::ServerHello { .. } => {}
        }
    }

    /// The endpoint host routed a packet into the tunnel: find the
    /// session owning the inner destination and encapsulate.
    pub fn consume_tun_frame(&mut self, now: SimTime, host: &mut Host, frame: &Bytes) {
        let Some(eth) = EthFrame::decode(frame) else {
            return;
        };
        if eth.ethertype != ET_IPV4 {
            return;
        }
        let Some(ip) = Ipv4Packet::decode(&eth.payload) else {
            return;
        };
        let Some(&peer) = self.by_tun_ip.get(&ip.dst) else {
            return;
        };
        let Some(sess) = self.sessions.get_mut(&peer) else {
            return;
        };
        let SessionState::Established(crypto) = &mut sess.state else {
            return;
        };
        let rec = crypto.seal_record(&eth.payload);
        self.records_out += 1;
        self.send_record(now, host, peer, rec);
    }
}

impl App for VpnServer {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn poll(&mut self, now: SimTime, host: &mut Host, _out: &mut Vec<AppEvent>) {
        // Clients on the tun link are resolved statically.
        let peer_mac = self.cfg.tun_peer_mac;
        for (&tun_ip, _) in self.by_tun_ip.clone().iter() {
            host.arp_cache.insert(now, tun_ip, peer_mac);
        }
        match self.cfg.transport {
            Transport::Udp => {
                let port = self.cfg.port;
                let sock = *self.udp_sock.get_or_insert_with(|| host.udp_bind(port));
                while let Some((src, sport, payload)) = host.udp_recv(sock) {
                    if let Some(msg) = Message::decode(&payload) {
                        self.on_message(now, host, PeerKey::Udp(src, sport), msg);
                    }
                }
            }
            Transport::Tcp => {
                let port = self.cfg.port;
                let listener = *self
                    .tcp_listener
                    .get_or_insert_with(|| host.tcp_listen(port));
                while let Some(h) = host.tcp_accept(listener) {
                    self.tcp_rx.insert(h, RecordStream::default());
                }
                let conns: Vec<SocketHandle> = self.tcp_rx.keys().copied().collect();
                for h in conns {
                    let stream = self.tcp_rx.get_mut(&h).expect("tracked");
                    stream.push(&host.tcp_recv(h, 256 * 1024));
                    let mut msgs = Vec::new();
                    while let Some(rec) = stream.next_record() {
                        if let Some(m) = Message::decode(&rec) {
                            msgs.push(m);
                        }
                    }
                    for m in msgs {
                        self.on_message(now, host, PeerKey::Tcp(h), m);
                    }
                    if host.tcp_is_closed(h) {
                        self.tcp_rx.remove(&h);
                        if let Some(sess) = self.sessions.remove(&PeerKey::Tcp(h)) {
                            self.by_tun_ip.remove(&sess.tun_ip);
                        }
                        host.tcp_release(h);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{VpnClient, VpnClientConfig};
    use rogue_services::apps::App;
    use rogue_sim::{Seed, SimDuration};

    const CLIENT_WIFI_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 50);
    const SERVER_WIRED_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 200);
    const CLIENT_TUN_IP: Ipv4Addr = Ipv4Addr::new(10, 8, 0, 2);
    const SERVER_TUN_IP: Ipv4Addr = Ipv4Addr::new(10, 8, 0, 1);

    struct Rig {
        client_host: Host,
        server_host: Host,
        client: VpnClient,
        server: VpnServer,
        client_tun: IfIndex,
        server_tun: IfIndex,
        now: SimTime,
    }

    fn rig(transport: Transport, client_psk: [u8; PSK_LEN], server_psk: [u8; PSK_LEN]) -> Rig {
        let mut client_host = Host::new("victim", SimRng::new(Seed(1)));
        let mut server_host = Host::new("endpoint", SimRng::new(Seed(2)));
        // Physical link (one subnet for simplicity).
        client_host.add_iface(MacAddr::local(1), CLIENT_WIFI_IP, 24);
        server_host.add_iface(MacAddr::local(2), SERVER_WIRED_IP, 24);
        // Tun devices.
        let client_tun = client_host.add_iface(MacAddr::local(101), CLIENT_TUN_IP, 24);
        let server_tun = server_host.add_iface(MacAddr::local(102), SERVER_TUN_IP, 24);
        // All client traffic into the tunnel; transport via the wifi side.
        client_host.routes.add_host(SERVER_WIRED_IP, 0);
        client_host.routes.add_default(SERVER_TUN_IP, client_tun);
        // Endpoint forwards and masquerades on the wired side.
        server_host.ip_forward = true;

        let client = VpnClient::new(
            VpnClientConfig {
                server: (SERVER_WIRED_IP, 4500),
                psk: client_psk,
                client_id: 7,
                transport,
                tun_ifindex: client_tun,
                tun_gateway_ip: SERVER_TUN_IP,
                tun_gateway_mac: MacAddr::local(102),
                start_at: SimTime::from_millis(1),
            },
            SimRng::new(Seed(3)),
        );
        let mut accounts = HashMap::new();
        accounts.insert(
            7,
            ClientAccount {
                psk: server_psk,
                tun_ip: CLIENT_TUN_IP,
            },
        );
        let server = VpnServer::new(
            VpnServerConfig {
                port: 4500,
                transport,
                accounts,
                tun_ifindex: server_tun,
                tun_peer_mac: MacAddr::local(101),
            },
            SimRng::new(Seed(4)),
        );
        Rig {
            client_host,
            server_host,
            client,
            server,
            client_tun,
            server_tun,
            now: SimTime::ZERO,
        }
    }

    fn pump(r: &mut Rig, until: SimTime) {
        let mut events = Vec::new();
        while r.now < until {
            r.now += SimDuration::from_millis(1);
            r.client_host.poll(r.now);
            r.server_host.poll(r.now);
            r.client.poll(r.now, &mut r.client_host, &mut events);
            r.server.poll(r.now, &mut r.server_host, &mut events);

            let cf = r.client_host.take_frames();
            for (ifx, f) in cf {
                if ifx == r.client_tun {
                    r.client.consume_tun_frame(r.now, &mut r.client_host, &f);
                } else {
                    r.server_host.on_link_rx(r.now, 0, &f);
                }
            }
            let sf = r.server_host.take_frames();
            for (ifx, f) in sf {
                if ifx == r.server_tun {
                    r.server.consume_tun_frame(r.now, &mut r.server_host, &f);
                } else {
                    r.client_host.on_link_rx(r.now, 0, &f);
                }
            }
        }
    }

    #[test]
    fn handshake_establishes_udp() {
        let psk = [9u8; PSK_LEN];
        let mut r = rig(Transport::Udp, psk, psk);
        pump(&mut r, SimTime::from_secs(2));
        assert!(r.client.is_established());
        assert_eq!(r.server.sessions_established, 1);
        assert_eq!(r.client.auth_failures, 0);
    }

    #[test]
    fn handshake_establishes_tcp() {
        let psk = [9u8; PSK_LEN];
        let mut r = rig(Transport::Tcp, psk, psk);
        pump(&mut r, SimTime::from_secs(2));
        assert!(r.client.is_established());
        assert_eq!(r.server.sessions_established, 1);
    }

    #[test]
    fn rogue_endpoint_without_psk_is_refused() {
        // The §5.2 point: a rogue AP terminating the VPN itself cannot
        // authenticate without the pre-established secret.
        let mut r = rig(Transport::Udp, [9u8; PSK_LEN], [66u8; PSK_LEN]);
        // The client retries (same hello) before giving up for good.
        pump(&mut r, SimTime::from_secs(2));
        assert!(!r.client.is_established());
        assert!(r.client.auth_failures >= 1);
        pump(&mut r, SimTime::from_secs(17));
        assert!(r.client.is_failed(), "hard failure after the retry budget");
    }

    #[test]
    fn ping_flows_through_tunnel() {
        let psk = [9u8; PSK_LEN];
        let mut r = rig(Transport::Udp, psk, psk);
        pump(&mut r, SimTime::from_millis(500));
        assert!(r.client.is_established());
        // Ping the endpoint's tunnel address: routed via tun, sealed,
        // decapsulated, answered, sealed back.
        r.client_host.ping(r.now, SERVER_TUN_IP, 3);
        let until = r.now + SimDuration::from_millis(500);
        pump(&mut r, until);
        let events = r.client_host.take_events();
        assert!(
            events.iter().any(|e| matches!(
                e,
                rogue_netstack::HostEvent::PingReply { from, seq: 3 } if *from == SERVER_TUN_IP
            )),
            "events: {events:?}"
        );
        assert!(r.client.records_tx >= 1);
        assert!(r.client.records_rx >= 1);
        assert!(r.server.records_in >= 1);
        assert!(r.server.records_out >= 1);
    }

    #[test]
    fn spoofed_inner_source_dropped() {
        let psk = [9u8; PSK_LEN];
        let mut r = rig(Transport::Udp, psk, psk);
        pump(&mut r, SimTime::from_millis(500));
        assert!(r.client.is_established());
        let before = r.server.records_in;
        // Craft an inner packet claiming a different tunnel source.
        let evil = Ipv4Packet::new(
            Ipv4Addr::new(10, 8, 0, 99),
            SERVER_TUN_IP,
            rogue_netstack::proto::UDP,
            rogue_netstack::udp::UdpDatagram::new(1, 2, Bytes::from_static(b"x"))
                .encode(Ipv4Addr::new(10, 8, 0, 99), SERVER_TUN_IP),
        );
        let tun_mac = r.client_host.iface(r.client_tun).mac;
        let frame = EthFrame::new(tun_mac, MacAddr::local(102), ET_IPV4, evil.encode());
        // Push it through the client's sealer (a compromised app on the
        // victim could do this): the endpoint must refuse the spoof.
        r.client
            .consume_tun_frame(r.now, &mut r.client_host, &frame.encode());
        let until = r.now + SimDuration::from_millis(200);
        pump(&mut r, until);
        assert_eq!(r.server.records_in, before, "spoofed packet not relayed");
    }
}
