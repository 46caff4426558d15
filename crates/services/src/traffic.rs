//! Traffic generators and sinks: periodic ping, UDP constant-bit-rate
//! streams. Used for connectivity probes (E1), WEP sample generation
//! (E4, via ordinary data traffic) and the VPN transport comparison (E5).

use rogue_netstack::{Host, HostEvent, Ipv4Addr, SocketHandle};
use rogue_sim::{SimDuration, SimTime};

use crate::apps::{App, AppEvent};

/// Periodic ICMP echo with reply accounting.
///
/// Note: consumes the host's event queue, so run at most one `PingApp`
/// per host (the reproduction's hosts never need more).
pub struct PingApp {
    dst: Ipv4Addr,
    period: SimDuration,
    next_send: SimTime,
    seq: u16,
    /// Echo requests sent.
    pub sent: u64,
    /// Echo replies received.
    pub received: u64,
}

impl PingApp {
    /// Ping `dst` every `period` starting at `first_at`.
    pub fn new(dst: Ipv4Addr, first_at: SimTime, period: SimDuration) -> PingApp {
        PingApp {
            dst,
            period,
            next_send: first_at,
            seq: 0,
            sent: 0,
            received: 0,
        }
    }

    /// Fraction of pings answered.
    pub fn success_rate(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        self.received as f64 / self.sent as f64
    }
}

impl App for PingApp {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn poll(&mut self, now: SimTime, host: &mut Host, _out: &mut Vec<AppEvent>) {
        for ev in host.take_events() {
            if let HostEvent::PingReply { from, .. } = ev {
                if from == self.dst {
                    self.received += 1;
                }
            }
        }
        while now >= self.next_send {
            self.seq = self.seq.wrapping_add(1);
            host.ping(now, self.dst, self.seq);
            self.sent += 1;
            self.next_send += self.period;
        }
    }

    fn next_wake(&self) -> SimTime {
        self.next_send
    }
}

/// Constant-bit-rate UDP source. Each datagram carries a sequence number
/// and the send timestamp so the sink can measure loss and latency.
pub struct UdpCbrSource {
    dst: (Ipv4Addr, u16),
    payload_len: usize,
    interval: SimDuration,
    next_send: SimTime,
    stop_at: SimTime,
    sock: Option<SocketHandle>,
    seq: u64,
    /// Datagrams sent.
    pub sent: u64,
}

impl UdpCbrSource {
    /// Stream to `dst`, one datagram every `interval`, until `stop_at`.
    pub fn new(
        dst: (Ipv4Addr, u16),
        payload_len: usize,
        interval: SimDuration,
        start_at: SimTime,
        stop_at: SimTime,
    ) -> UdpCbrSource {
        assert!(payload_len >= 16, "need room for seq + timestamp");
        UdpCbrSource {
            dst,
            payload_len,
            interval,
            next_send: start_at,
            stop_at,
            sock: None,
            seq: 0,
            sent: 0,
        }
    }
}

impl App for UdpCbrSource {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn poll(&mut self, now: SimTime, host: &mut Host, _out: &mut Vec<AppEvent>) {
        if now >= self.stop_at {
            return;
        }
        let sock = *self.sock.get_or_insert_with(|| host.udp_bind(40_000));
        while now >= self.next_send && self.next_send < self.stop_at {
            let mut payload = vec![0u8; self.payload_len];
            payload[..8].copy_from_slice(&self.seq.to_be_bytes());
            payload[8..16].copy_from_slice(&self.next_send.as_nanos().to_be_bytes());
            host.udp_send(now, sock, self.dst.0, self.dst.1, &payload);
            self.seq += 1;
            self.sent += 1;
            self.next_send += self.interval;
        }
    }

    fn next_wake(&self) -> SimTime {
        if self.next_send < self.stop_at {
            self.next_send
        } else {
            SimTime::FOREVER
        }
    }
}

/// Receiving end of a [`UdpCbrSource`] stream.
pub struct UdpSink {
    port: u16,
    sock: Option<SocketHandle>,
    /// Datagrams received.
    pub received: u64,
    /// Highest sequence number seen + 1 (0 if none).
    pub max_seq_plus_one: u64,
    /// Duplicate datagrams (same or lower seq than already seen max,
    /// counted approximately).
    pub late_or_dup: u64,
    /// Sum of one-way latencies (ns) for mean computation.
    pub latency_sum_ns: u128,
    /// Worst observed latency (ns).
    pub latency_max_ns: u64,
}

impl UdpSink {
    /// Listen on `port`.
    pub fn new(port: u16) -> UdpSink {
        UdpSink {
            port,
            sock: None,
            received: 0,
            max_seq_plus_one: 0,
            late_or_dup: 0,
            latency_sum_ns: 0,
            latency_max_ns: 0,
        }
    }

    /// Mean one-way latency in milliseconds.
    pub fn mean_latency_ms(&self) -> f64 {
        if self.received == 0 {
            return 0.0;
        }
        self.latency_sum_ns as f64 / self.received as f64 / 1e6
    }
}

impl App for UdpSink {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn poll(&mut self, now: SimTime, host: &mut Host, _out: &mut Vec<AppEvent>) {
        let sock = *self.sock.get_or_insert_with(|| host.udp_bind(self.port));
        while let Some((_, _, payload)) = host.udp_recv(sock) {
            if payload.len() < 16 {
                continue;
            }
            let seq = u64::from_be_bytes(payload[..8].try_into().expect("8 bytes"));
            let sent_ns = u64::from_be_bytes(payload[8..16].try_into().expect("8 bytes"));
            self.received += 1;
            if seq + 1 > self.max_seq_plus_one {
                self.max_seq_plus_one = seq + 1;
            } else {
                self.late_or_dup += 1;
            }
            let lat = now.as_nanos().saturating_sub(sent_ns);
            self.latency_sum_ns += lat as u128;
            self.latency_max_ns = self.latency_max_ns.max(lat);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rogue_dot11::MacAddr;
    use rogue_sim::{Seed, SimRng};

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn wire_run(app_a: &mut dyn App, app_b: &mut dyn App, until: SimTime) -> (Host, Host) {
        let mut a = Host::new("a", SimRng::new(Seed(1)));
        let mut b = Host::new("b", SimRng::new(Seed(2)));
        a.add_iface(MacAddr::local(1), A, 24);
        b.add_iface(MacAddr::local(2), B, 24);
        let mut now = SimTime::ZERO;
        let mut out = Vec::new();
        while now < until {
            now += SimDuration::from_millis(1);
            a.poll(now);
            b.poll(now);
            app_a.poll(now, &mut a, &mut out);
            app_b.poll(now, &mut b, &mut out);
            for (_, f) in a.take_frames() {
                b.on_link_rx(now, 0, &f);
            }
            for (_, f) in b.take_frames() {
                a.on_link_rx(now, 0, &f);
            }
        }
        (a, b)
    }

    struct Nop;
    impl App for Nop {
        fn poll(&mut self, _: SimTime, _: &mut Host, _: &mut Vec<AppEvent>) {}

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[test]
    fn ping_app_counts_replies() {
        let mut ping = PingApp::new(B, SimTime::from_millis(1), SimDuration::from_millis(100));
        let mut nop = Nop;
        wire_run(&mut ping, &mut nop, SimTime::from_secs(1));
        assert!(ping.sent >= 9, "sent {}", ping.sent);
        assert!(
            ping.received >= ping.sent - 1,
            "received {} of {}",
            ping.received,
            ping.sent
        );
        assert!(ping.success_rate() > 0.85);
    }

    #[test]
    fn cbr_stream_measures_latency_and_loss() {
        let mut src = UdpCbrSource::new(
            (B, 5000),
            64,
            SimDuration::from_millis(10),
            SimTime::from_millis(1),
            SimTime::from_millis(500),
        );
        let mut sink = UdpSink::new(5000);
        wire_run(&mut src, &mut sink, SimTime::from_secs(1));
        assert!(src.sent >= 45, "sent {}", src.sent);
        assert_eq!(sink.received, src.sent, "perfect wire loses nothing");
        assert!(sink.mean_latency_ms() < 10.0);
    }

    #[test]
    fn sink_ignores_short_datagrams() {
        let mut sink = UdpSink::new(7);
        let mut host = Host::new("h", SimRng::new(Seed(3)));
        host.add_iface(MacAddr::local(1), A, 24);
        let mut out = Vec::new();
        sink.poll(SimTime::ZERO, &mut host, &mut out);
        assert_eq!(sink.received, 0);
    }
}
