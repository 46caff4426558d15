//! Sensor taps: adapters from capture substrates to [`SensorEvent`]s.
//!
//! A [`RadioSensor`] rides an existing monitor-mode [`Sniffer`] buffer
//! and digests captures *incrementally*: the simulation runs in slices,
//! and after each slice the sensor converts only what arrived since its
//! last drain. A [`WiredSensor`] does the same for a switch span port,
//! decoding Ethernet frames and surfacing the ARP traffic the wired-side
//! detectors inspect. A [`WiredMonitor`] is the paper's wired-segment
//! MAC census on the same span port: it flags source addresses missing
//! from the registry.

use std::collections::HashSet;

use bytes::Bytes;
use rogue_dot11::frame::FrameBody;
use rogue_dot11::monitor::{Capture, Sniffer};
use rogue_dot11::MacAddr;
use rogue_netstack::arp::{ArpOp, ArpPacket};
use rogue_netstack::ethernet::EthFrame;
use rogue_sim::SimTime;

use crate::event::{ArpEvent, Dot11Event, Dot11Kind, SensorEvent, SensorId, SensorRing};

/// Ethertype for ARP.
const ET_ARP: u16 = 0x0806;

/// A per-channel monitor tap over a [`Sniffer`] capture buffer.
pub struct RadioSensor {
    /// This sensor's identity in the event stream.
    pub id: SensorId,
    cursor: usize,
    /// Frames digested over the sensor's lifetime.
    pub digested: u64,
}

impl RadioSensor {
    /// New tap; starts at the head of the capture buffer.
    pub fn new(id: SensorId) -> RadioSensor {
        RadioSensor {
            id,
            cursor: 0,
            digested: 0,
        }
    }

    /// Digest captures that arrived since the last drain into `ring`.
    /// Returns how many events were produced.
    pub fn drain(&mut self, sniffer: &Sniffer, ring: &mut SensorRing) -> usize {
        let mut produced = 0;
        for c in &sniffer.captures[self.cursor..] {
            ring.push(SensorEvent::Dot11(self.digest(c)));
            produced += 1;
        }
        self.cursor = sniffer.captures.len();
        self.digested += produced as u64;
        produced
    }

    fn digest(&self, c: &Capture) -> Dot11Event {
        let kind = match &c.frame.body {
            FrameBody::Beacon(info) => Dot11Kind::Beacon {
                ssid: info.ssid.clone(),
                claimed_channel: info.channel,
                capability: info.capability,
                probe_resp: false,
            },
            FrameBody::ProbeResp(info) => Dot11Kind::Beacon {
                ssid: info.ssid.clone(),
                claimed_channel: info.channel,
                capability: info.capability,
                probe_resp: true,
            },
            FrameBody::Deauth { reason } => Dot11Kind::Deauth { reason: *reason },
            FrameBody::Data { .. } => Dot11Kind::Data {
                protected: c.frame.protected,
            },
            FrameBody::Ack => Dot11Kind::Ack,
            _ => Dot11Kind::Mgmt,
        };
        Dot11Event {
            sensor: self.id,
            at: c.at,
            channel: c.channel,
            rssi_dbm: c.rssi_dbm,
            ta: c.frame.addr2,
            ra: c.frame.addr1,
            bssid: c.frame.bssid(),
            seq: c.frame.seq,
            retry: c.frame.retry,
            kind,
        }
    }
}

/// A wired span-port tap: decodes raw Ethernet frames, emitting an event
/// per ARP packet (the wired-side rogue/poisoning evidence).
pub struct WiredSensor {
    /// This sensor's identity in the event stream.
    pub id: SensorId,
    /// Ethernet frames inspected.
    pub frames_seen: u64,
    /// ARP packets surfaced.
    pub arp_seen: u64,
    /// Frames that failed to decode.
    pub undecodable: u64,
}

impl WiredSensor {
    /// New wired tap.
    pub fn new(id: SensorId) -> WiredSensor {
        WiredSensor {
            id,
            frames_seen: 0,
            arp_seen: 0,
            undecodable: 0,
        }
    }

    /// Inspect one raw frame captured at `at`.
    pub fn ingest(&mut self, at: SimTime, bytes: &Bytes, ring: &mut SensorRing) {
        let Some(eth) = EthFrame::decode(bytes) else {
            self.undecodable += 1;
            return;
        };
        self.frames_seen += 1;
        if eth.ethertype != ET_ARP {
            return;
        }
        let Some(arp) = ArpPacket::decode(&eth.payload) else {
            self.undecodable += 1;
            return;
        };
        self.arp_seen += 1;
        // Gratuitous shapes: an is-at nobody asked a question of — sent
        // to broadcast, or claiming a binding for its own target.
        let gratuitous =
            arp.op == ArpOp::Reply && (eth.dst.is_multicast() || arp.target_ip == arp.sender_ip);
        ring.push(SensorEvent::Arp(ArpEvent {
            sensor: self.id,
            at,
            src_mac: eth.src,
            op: arp.op,
            sender_mac: arp.sender_mac,
            sender_ip: arp.sender_ip,
            target_ip: arp.target_ip,
            gratuitous,
        }));
    }
}

/// Wired-segment monitoring (§2.3: "monitoring the traffic on the wired
/// LAN can also aid in detection of Rogue APs"): a registry of the
/// site's devices, and the first sighting of every other source MAC on
/// the segment. It catches a rogue AP bridged onto the wired LAN under
/// its own address. Of the paper's client-side rogue it sees only the
/// MITM gateway's wireless uplink relaying the victims onto the LAN,
/// and under MAC filtering that uplink wears a cloned, registered
/// employee address and passes (§2.1).
pub struct WiredMonitor {
    /// Registered devices plus every stranger already reported.
    seen: HashSet<MacAddr>,
    /// Each unregistered source's first sighting, in order.
    pub strangers: Vec<(SimTime, MacAddr)>,
    /// Frames inspected.
    pub inspected: u64,
}

impl WiredMonitor {
    /// Monitor with the given authorized-device registry.
    pub fn new(known: impl IntoIterator<Item = MacAddr>) -> WiredMonitor {
        WiredMonitor {
            seen: known.into_iter().collect(),
            strangers: Vec::new(),
            inspected: 0,
        }
    }

    /// Add a device to the registry.
    pub fn register(&mut self, mac: MacAddr) {
        self.seen.insert(mac);
    }

    /// Inspect one wired frame.
    pub fn inspect(&mut self, at: SimTime, frame_bytes: &Bytes) {
        self.inspected += 1;
        if let Some(eth) = EthFrame::decode(frame_bytes) {
            if self.seen.insert(eth.src) {
                self.strangers.push((at, eth.src));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rogue_dot11::frame::{Frame, MgmtInfo, CAP_ESS};
    use rogue_netstack::Ipv4Addr;

    #[test]
    fn radio_sensor_drains_incrementally() {
        let mut s = Sniffer::new();
        let mut sensor = RadioSensor::new(SensorId(3));
        let mut ring = SensorRing::new(64);
        let beacon = |seq: u16| {
            let mut f = Frame::new(
                MacAddr::BROADCAST,
                MacAddr::local(1),
                MacAddr::local(1),
                FrameBody::Beacon(MgmtInfo {
                    timestamp: 0,
                    beacon_interval_tu: 100,
                    capability: CAP_ESS,
                    ssid: "CORP".into(),
                    channel: 6,
                }),
            );
            f.seq = seq;
            f
        };
        s.on_receive(SimTime::from_millis(1), &beacon(1).encode(), -40.0, 6);
        assert_eq!(sensor.drain(&s, &mut ring), 1);
        s.on_receive(SimTime::from_millis(2), &beacon(2).encode(), -40.0, 6);
        s.on_receive(SimTime::from_millis(3), &beacon(3).encode(), -40.0, 6);
        assert_eq!(sensor.drain(&s, &mut ring), 2, "only the new captures");
        assert_eq!(sensor.drain(&s, &mut ring), 0);
        let events = ring.drain();
        assert_eq!(events.len(), 3);
        match &events[0] {
            SensorEvent::Dot11(e) => {
                assert_eq!(e.sensor, SensorId(3));
                assert_eq!(e.bssid, MacAddr::local(1));
                assert!(
                    matches!(&e.kind, Dot11Kind::Beacon { ssid, claimed_channel: 6, .. } if ssid == "CORP")
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn wired_sensor_surfaces_arp() {
        let mut sensor = WiredSensor::new(SensorId(9));
        let mut ring = SensorRing::new(64);
        let gw = Ipv4Addr::new(192, 168, 0, 254);
        // A gratuitous broadcast is-at.
        let arp = ArpPacket {
            op: ArpOp::Reply,
            sender_mac: MacAddr::local(66),
            sender_ip: gw,
            target_mac: MacAddr::BROADCAST,
            target_ip: gw,
        };
        let frame = EthFrame::new(MacAddr::BROADCAST, MacAddr::local(66), ET_ARP, arp.encode());
        sensor.ingest(SimTime::from_millis(5), &frame.encode(), &mut ring);
        // A non-ARP frame is counted but produces no event.
        let ip_frame = EthFrame::new(
            MacAddr::local(2),
            MacAddr::local(1),
            0x0800,
            Bytes::from_static(b"payload"),
        );
        sensor.ingest(SimTime::from_millis(6), &ip_frame.encode(), &mut ring);
        assert_eq!(sensor.frames_seen, 2);
        assert_eq!(sensor.arp_seen, 1);
        let events = ring.drain();
        assert_eq!(events.len(), 1);
        match &events[0] {
            SensorEvent::Arp(e) => {
                assert!(e.gratuitous);
                assert_eq!(e.sender_ip, gw);
                assert_eq!(e.sender_mac, MacAddr::local(66));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    fn eth_from(src: MacAddr) -> Bytes {
        EthFrame::new(MacAddr::BROADCAST, src, 0x0800, Bytes::from_static(b"x")).encode()
    }

    #[test]
    fn known_devices_pass() {
        let mut m = WiredMonitor::new([MacAddr::local(1), MacAddr::local(2)]);
        m.inspect(SimTime::ZERO, &eth_from(MacAddr::local(1)));
        m.inspect(SimTime::ZERO, &eth_from(MacAddr::local(2)));
        assert!(m.strangers.is_empty());
        assert_eq!(m.inspected, 2);
    }

    #[test]
    fn stranger_alarms_once() {
        let mut m = WiredMonitor::new([MacAddr::local(1)]);
        m.inspect(SimTime::from_millis(5), &eth_from(MacAddr::local(66)));
        m.inspect(SimTime::from_millis(6), &eth_from(MacAddr::local(66)));
        assert_eq!(m.strangers, [(SimTime::from_millis(5), MacAddr::local(66))]);
        assert_eq!(m.inspected, 2);
    }

    #[test]
    fn late_registration_suppresses() {
        let mut m = WiredMonitor::new([]);
        m.register(MacAddr::local(9));
        m.inspect(SimTime::ZERO, &eth_from(MacAddr::local(9)));
        assert!(m.strangers.is_empty());
    }

    #[test]
    fn garbage_ignored() {
        let mut m = WiredMonitor::new([]);
        m.inspect(SimTime::ZERO, &Bytes::from_static(b"short"));
        assert!(m.strangers.is_empty());
        assert_eq!(m.inspected, 1);
    }
}
