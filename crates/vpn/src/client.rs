//! The VPN client: a tunnel ("tun") device plus an encapsulating
//! transport socket.
//!
//! Wiring (done by the embedding node / scenario):
//!
//! * the client host gets an extra interface — the tun device — holding
//!   the tunnel-internal address (e.g. `10.8.0.2/24`),
//! * the host's **default route points at the tun gateway**, so *all*
//!   traffic (requirement 4 of §5.2) leaves through the tunnel,
//! * a /32 host route sends the encapsulated transport itself out the
//!   real (wireless) interface,
//! * frames the host emits on the tun interface are handed to
//!   [`VpnClient::consume_tun_frame`]; decrypted inbound packets are
//!   injected back with `on_link_rx`.

use bytes::Bytes;
use rogue_dot11::MacAddr;
use rogue_netstack::ethernet::EthFrame;
use rogue_netstack::{Host, IfIndex, Ipv4Addr, SocketHandle};
use rogue_services::apps::{App, AppEvent};
use rogue_sim::{SimDuration, SimRng, SimTime};

use crate::protocol::{
    authenticator, frame_record, gen_keypair, transcript, Message, RecordStream, SessionCrypto,
    Transport, PSK_LEN,
};

/// Ethertype for IPv4 (tun injection).
const ET_IPV4: u16 = 0x0800;
/// Handshake retry interval.
const HELLO_RETRY: SimDuration = SimDuration::from_millis(500);
/// Give up after this many hellos. Generous: on a cold rogue-bridged
/// path the first seconds of hellos are eaten by ARP warm-up.
const MAX_HELLOS: u32 = 30;
/// Packets buffered while the handshake completes.
const PENDING_CAP: usize = 32;

/// Client configuration.
#[derive(Clone, Debug)]
pub struct VpnClientConfig {
    /// Endpoint transport address.
    pub server: (Ipv4Addr, u16),
    /// Pre-shared key (provisioned out of band — §5.2 requirement 2).
    pub psk: [u8; PSK_LEN],
    /// Client identity.
    pub client_id: u32,
    /// Encapsulation.
    pub transport: Transport,
    /// The host's tun interface index.
    pub tun_ifindex: IfIndex,
    /// The tun gateway IP (host's default route target).
    pub tun_gateway_ip: Ipv4Addr,
    /// MAC used as the tun gateway's address for injected frames.
    pub tun_gateway_mac: MacAddr,
    /// When to start the handshake.
    pub start_at: SimTime,
}

enum ClientState {
    Idle,
    HelloSent {
        kp: rogue_crypto::dh::DhKeyPair,
        nonce: [u8; 16],
        deadline: SimTime,
        attempts: u32,
    },
    Established(Box<SessionCrypto>),
    Failed,
}

/// ClientAuth redelivery state: the third handshake message has no
/// acknowledgment of its own, so the client re-sends it until the first
/// record from the server proves the session completed.
struct AuthRedelivery {
    msg: Message,
    next_send: SimTime,
    confirmed: bool,
}

/// The client app.
pub struct VpnClient {
    cfg: VpnClientConfig,
    state: ClientState,
    udp_sock: Option<SocketHandle>,
    tcp_sock: Option<SocketHandle>,
    tcp_rx: RecordStream,
    pending: Vec<Bytes>,
    auth_redelivery: Option<AuthRedelivery>,
    rng: SimRng,
    /// Records sent.
    pub records_tx: u64,
    /// Records received and accepted.
    pub records_rx: u64,
    /// Authentication failures observed in ServerHello (a rogue endpoint
    /// without the PSK shows up here).
    pub auth_failures: u64,
    /// Inner packets dropped because the tunnel was not up.
    pub dropped_no_tunnel: u64,
}

impl VpnClient {
    /// New client; the handshake starts at `cfg.start_at`.
    pub fn new(cfg: VpnClientConfig, rng: SimRng) -> VpnClient {
        VpnClient {
            cfg,
            state: ClientState::Idle,
            udp_sock: None,
            tcp_sock: None,
            tcp_rx: RecordStream::default(),
            pending: Vec::new(),
            auth_redelivery: None,
            rng,
            records_tx: 0,
            records_rx: 0,
            auth_failures: 0,
            dropped_no_tunnel: 0,
        }
    }

    /// Tunnel is up.
    pub fn is_established(&self) -> bool {
        matches!(self.state, ClientState::Established(_))
    }

    /// Handshake permanently failed (endpoint unauthentic / unreachable).
    pub fn is_failed(&self) -> bool {
        matches!(self.state, ClientState::Failed)
    }

    /// Integrity failures recorded by the session (tampered records).
    pub fn integrity_failures(&self) -> u64 {
        match &self.state {
            ClientState::Established(c) => c.integrity_failures,
            _ => 0,
        }
    }

    /// The host emitted a frame on the tun interface: encapsulate it.
    pub fn consume_tun_frame(&mut self, now: SimTime, host: &mut Host, frame: &Bytes) {
        let Some(eth) = EthFrame::decode(frame) else {
            return;
        };
        if eth.ethertype != ET_IPV4 {
            return; // ARP on the tun link is satisfied statically
        }
        let packet = eth.payload;
        match &mut self.state {
            ClientState::Established(crypto) => {
                let rec = crypto.seal_record(&packet);
                self.records_tx += 1;
                self.send_record(now, host, rec);
            }
            ClientState::Failed => self.dropped_no_tunnel += 1,
            _ => {
                if self.pending.len() < PENDING_CAP {
                    self.pending.push(packet);
                } else {
                    self.dropped_no_tunnel += 1;
                }
            }
        }
    }

    fn send_msg(&mut self, now: SimTime, host: &mut Host, msg: &Message) {
        self.send_record(now, host, Bytes::from(msg.encode()));
    }

    /// Send one already-encoded record. On UDP the buffer travels into
    /// the datagram as-is; TCP needs the 4-byte length prefix, which is
    /// the one place the stream framing forces a copy.
    fn send_record(&mut self, now: SimTime, host: &mut Host, rec: Bytes) {
        match self.cfg.transport {
            Transport::Udp => {
                let sock = *self.udp_sock.get_or_insert_with(|| host.udp_bind(41_000));
                host.udp_send_bytes(now, sock, self.cfg.server.0, self.cfg.server.1, rec);
            }
            Transport::Tcp => {
                let sock = *self.tcp_sock.get_or_insert_with(|| {
                    host.tcp_connect(now, self.cfg.server.0, self.cfg.server.1)
                });
                host.tcp_send(now, sock, &frame_record(&rec));
            }
        }
    }

    fn recv_msgs(&mut self, now: SimTime, host: &mut Host) -> Vec<Message> {
        let mut msgs = Vec::new();
        match self.cfg.transport {
            Transport::Udp => {
                if let Some(sock) = self.udp_sock {
                    while let Some((src, _, payload)) = host.udp_recv(sock) {
                        if src == self.cfg.server.0 {
                            if let Some(m) = Message::decode(&payload) {
                                msgs.push(m);
                            }
                        }
                    }
                }
            }
            Transport::Tcp => {
                if let Some(sock) = self.tcp_sock {
                    self.tcp_rx.push(&host.tcp_recv(sock, 256 * 1024));
                    while let Some(rec) = self.tcp_rx.next_record() {
                        if let Some(m) = Message::decode(&rec) {
                            msgs.push(m);
                        }
                    }
                }
            }
        }
        let _ = now;
        msgs
    }

    fn start_handshake(&mut self, now: SimTime, host: &mut Host) {
        let kp = gen_keypair(&mut self.rng);
        let mut nonce = [0u8; 16];
        self.rng.fill_bytes(&mut nonce);
        let hello = Message::ClientHello {
            client_id: self.cfg.client_id,
            nonce,
            dh_pub: kp.public.clone(),
        };
        self.send_msg(now, host, &hello);
        self.state = ClientState::HelloSent {
            kp,
            nonce,
            deadline: now + HELLO_RETRY,
            attempts: 1,
        };
    }

    /// Retransmit the *same* hello (same keypair and nonce), so any
    /// ServerHello in flight — whichever attempt it answers — still
    /// matches our transcript.
    fn resend_hello(&mut self, now: SimTime, host: &mut Host) {
        let ClientState::HelloSent { kp, nonce, .. } = &self.state else {
            return;
        };
        let hello = Message::ClientHello {
            client_id: self.cfg.client_id,
            nonce: *nonce,
            dh_pub: kp.public.clone(),
        };
        self.send_msg(now, host, &hello);
        if let ClientState::HelloSent {
            deadline, attempts, ..
        } = &mut self.state
        {
            *deadline = now + HELLO_RETRY;
            *attempts += 1;
        }
    }

    fn inject_inbound(&mut self, now: SimTime, host: &mut Host, packet: Bytes) {
        let tun_mac = host.iface(self.cfg.tun_ifindex).mac;
        let frame = EthFrame::new(tun_mac, self.cfg.tun_gateway_mac, ET_IPV4, packet);
        host.on_link_rx(now, self.cfg.tun_ifindex, &frame.encode());
    }
}

impl App for VpnClient {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn poll(&mut self, now: SimTime, host: &mut Host, _out: &mut Vec<AppEvent>) {
        // Keep the tun gateway resolvable without real ARP.
        host.arp_cache
            .insert(now, self.cfg.tun_gateway_ip, self.cfg.tun_gateway_mac);

        if matches!(self.state, ClientState::Idle) && now >= self.cfg.start_at {
            self.start_handshake(now, host);
        }

        // ClientAuth redelivery until the server is confirmed.
        if matches!(self.state, ClientState::Established(_)) {
            if let Some(r) = &mut self.auth_redelivery {
                if !r.confirmed && now >= r.next_send {
                    let msg = r.msg.clone();
                    r.next_send = now + HELLO_RETRY;
                    self.send_msg(now, host, &msg);
                }
            }
        }

        // Handshake retries.
        if let ClientState::HelloSent {
            deadline, attempts, ..
        } = &self.state
        {
            if now >= *deadline {
                if *attempts >= MAX_HELLOS {
                    self.state = ClientState::Failed;
                } else {
                    self.resend_hello(now, host);
                }
            }
        }

        for msg in self.recv_msgs(now, host) {
            match (&mut self.state, msg) {
                (
                    ClientState::HelloSent { kp, nonce, .. },
                    Message::ServerHello {
                        nonce: nonce_s,
                        dh_pub,
                        auth,
                    },
                ) => {
                    let t = transcript(self.cfg.client_id, nonce, &nonce_s, &kp.public, &dh_pub);
                    let expect = authenticator(&self.cfg.psk, "server-auth", &t);
                    if expect != auth {
                        // Endpoint does not know the PSK: a rogue
                        // terminating the VPN (or an injected forgery).
                        // Refuse this hello; keep retrying until the
                        // attempt budget runs out, then fail hard.
                        self.auth_failures += 1;
                        continue;
                    }
                    let Some(shared) = kp.agree(&dh_pub) else {
                        self.auth_failures += 1;
                        continue;
                    };
                    let client_auth = authenticator(&self.cfg.psk, "client-auth", &t);
                    let crypto = SessionCrypto::derive(&shared, nonce, &nonce_s, true);
                    self.state = ClientState::Established(Box::new(crypto));
                    let auth_msg = Message::ClientAuth { auth: client_auth };
                    self.send_msg(now, host, &auth_msg);
                    self.auth_redelivery = Some(AuthRedelivery {
                        msg: auth_msg,
                        next_send: now + HELLO_RETRY,
                        confirmed: false,
                    });
                    // Flush packets queued during the handshake.
                    let pending = std::mem::take(&mut self.pending);
                    for pkt in pending {
                        if let ClientState::Established(crypto) = &mut self.state {
                            let rec = crypto.seal_record(&pkt);
                            self.records_tx += 1;
                            self.send_record(now, host, rec);
                        }
                    }
                }
                (
                    ClientState::Established(crypto),
                    Message::Data {
                        seq,
                        tag,
                        ciphertext,
                    },
                ) => {
                    if let Some(pt) = crypto.open(seq, &tag, ciphertext) {
                        // A valid record from the server proves it holds
                        // the session: stop re-sending ClientAuth.
                        if let Some(r) = &mut self.auth_redelivery {
                            r.confirmed = true;
                        }
                        self.records_rx += 1;
                        self.inject_inbound(now, host, pt);
                    }
                }
                _ => {}
            }
        }
    }

    fn next_wake(&self) -> SimTime {
        match &self.state {
            ClientState::Idle => self.cfg.start_at,
            ClientState::HelloSent { deadline, .. } => *deadline,
            ClientState::Established(_) => match &self.auth_redelivery {
                Some(r) if !r.confirmed => r.next_send,
                _ => SimTime::FOREVER,
            },
            _ => SimTime::FOREVER,
        }
    }
}
