//! Hostile input at the WIDS ingest: whatever reaches a sensor or the
//! pipeline, nothing panics, and every event is either processed or
//! counted as dropped.
//!
//! - Radio: arbitrary 0–300-byte frames, biased towards a valid
//!   type/subtype, addresses the deployment knows and a valid FCS, as
//!   `crates/dot11/tests/hostile_input.rs` shapes them, mixed with valid
//!   beacons, probe responses, deauths and data frames whose fields are
//!   arbitrary (some then truncated or bit-flipped). They go through
//!   `Sniffer::on_receive` at arbitrary RSSI (NaN and ±inf included)
//!   and channel, then `RadioSensor::drain` into the pipeline.
//! - Wired: arbitrary bytes, and ARP-in-Ethernet that is valid,
//!   truncated or garbled, into `WiredSensor::ingest`.
//! - Events: `SensorEvent`s with arbitrary fields into
//!   `WidsPipeline::step` on a small ring: any `SensorId`, channel 0 and
//!   255, NaN and ±inf RSSI, sequence numbers above 4095, empty, 1 KiB
//!   and non-ASCII SSIDs, timestamps that go backwards within and
//!   across steps, and `SimTime(u64::MAX)`.
//!
//! After every step, `wids.events + wids.ring_dropped` must equal the
//! number of events pushed so far.

use bytes::Bytes;
use proptest::prelude::*;
use rogue_crypto::crc32;
use rogue_dot11::frame::{encode_llc, MgmtInfo, FCS_LEN};
use rogue_dot11::monitor::Sniffer;
use rogue_dot11::{Frame, FrameBody, MacAddr};
use rogue_netstack::arp::{ArpOp, ArpPacket};
use rogue_netstack::ethernet::EthFrame;
use rogue_netstack::Ipv4Addr;
use rogue_sim::rng::SplitMix64;
use rogue_sim::SimTime;
use rogue_wids::event::ArpEvent;
use rogue_wids::{
    Dot11Event, Dot11Kind, RadioSensor, SensorEvent, SensorId, WidsConfig, WidsPipeline,
    WiredSensor,
};

/// The registered AP, and the gateway's trusted binding.
const AP: MacAddr = MacAddr::local(1);
const CLIENT: MacAddr = MacAddr::local(10);
const GATEWAY: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

/// Valid 802.11 (type, subtype) pairs: every management subtype the
/// decoder knows, ACK and data.
const KINDS: [(u8, u8); 10] = [
    (0, 8),
    (0, 4),
    (0, 5),
    (0, 11),
    (0, 0),
    (0, 1),
    (0, 12),
    (0, 10),
    (1, 13),
    (2, 0),
];

/// SSIDs that fit a frame's element: owned, empty, non-ASCII, longest.
const FRAME_SSIDS: [&str; 4] = ["CORP", "", "café ☃", "0123456789abcdef0123456789abcdef"];

fn pick<T: Copy>(rng: &mut SplitMix64, xs: &[T]) -> T {
    xs[(rng.next_u64() % xs.len() as u64) as usize]
}

fn mac(rng: &mut SplitMix64) -> MacAddr {
    let random = MacAddr(rng.next_u64().to_le_bytes()[..6].try_into().unwrap());
    pick(
        rng,
        &[AP, CLIENT, MacAddr::BROADCAST, MacAddr::ZERO, random],
    )
}

fn ip(rng: &mut SplitMix64) -> Ipv4Addr {
    let random = Ipv4Addr::from(rng.next_u64() as u32);
    pick(rng, &[GATEWAY, random])
}

fn channel(rng: &mut SplitMix64) -> u8 {
    let random = rng.next_u64() as u8;
    pick(rng, &[0, 255, 1, 6, 11, random])
}

fn rssi(rng: &mut SplitMix64) -> f64 {
    let random = f64::from_bits(rng.next_u64());
    pick(
        rng,
        &[
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -40.0,
            -95.0,
            random,
        ],
    )
}

fn bytes(rng: &mut SplitMix64, max_len: u64) -> Vec<u8> {
    let len = rng.next_u64() % (max_len + 1);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Arbitrary bytes shaped towards frames the decoder accepts, or a
/// valid frame the detectors read with arbitrary fields, maybe damaged.
fn radio_frame(rng: &mut SplitMix64) -> Bytes {
    let knobs = rng.next_u64();
    if knobs & 3 == 0 {
        let info = MgmtInfo {
            timestamp: rng.next_u64(),
            beacon_interval_tu: rng.next_u64() as u16,
            capability: rng.next_u64() as u16,
            ssid: pick(rng, &FRAME_SSIDS).into(),
            channel: rng.next_u64() as u8,
        };
        let body = match (knobs >> 2) % 4 {
            0 => FrameBody::Beacon(info),
            1 => FrameBody::ProbeResp(info),
            2 => FrameBody::Deauth {
                reason: rng.next_u64() as u16,
            },
            _ => FrameBody::Data {
                payload: Bytes::from(encode_llc(0x0800, &bytes(rng, 40))),
            },
        };
        let mut f = Frame::new(mac(rng), mac(rng), mac(rng), body);
        f.seq = rng.next_u64() as u16 & 0x0FFF;
        f.retry = (knobs >> 4) & 1 == 1;
        let mut raw = f.encode().to_vec();
        match (knobs >> 5) % 4 {
            0 => raw.truncate((rng.next_u64() % raw.len() as u64) as usize),
            1 => {
                let i = (rng.next_u64() % raw.len() as u64) as usize;
                raw[i] ^= 1 << (rng.next_u64() % 8);
            }
            _ => {}
        }
        return Bytes::from(raw);
    }
    let mut raw = bytes(rng, 300);
    if raw.len() >= 2 && (knobs >> 2) & 7 != 0 {
        let (typ, subtype) = pick(rng, &KINDS);
        raw[0] = (raw[0] & 0x03) | (typ << 2) | (subtype << 4);
    }
    for field in [4..10, 10..16, 16..22] {
        if raw.len() >= field.end && !rng.next_u64().is_multiple_of(4) {
            raw[field].copy_from_slice(&mac(rng).0);
        }
    }
    if raw.len() >= FCS_LEN && (knobs >> 5) & 3 != 0 {
        let end = raw.len() - FCS_LEN;
        let fcs = crc32(&raw[..end]);
        raw[end..].copy_from_slice(&fcs.to_le_bytes());
    }
    Bytes::from(raw)
}

/// Arbitrary bytes, or ARP-in-Ethernet that is valid, truncated or
/// garbled, under the ARP ethertype or another.
fn wired_frame(rng: &mut SplitMix64) -> Bytes {
    let knobs = rng.next_u64();
    if knobs & 7 == 0 {
        return Bytes::from(bytes(rng, 100));
    }
    let arp = ArpPacket {
        op: if (knobs >> 3) & 1 == 1 {
            ArpOp::Reply
        } else {
            ArpOp::Request
        },
        sender_mac: mac(rng),
        sender_ip: ip(rng),
        target_mac: mac(rng),
        target_ip: ip(rng),
    };
    let mut payload = arp.encode().to_vec();
    match (knobs >> 4) % 4 {
        0 => payload.truncate((rng.next_u64() % payload.len() as u64) as usize),
        1 => {
            let i = (rng.next_u64() % payload.len() as u64) as usize;
            payload[i] ^= 1 << (rng.next_u64() % 8);
        }
        2 => payload = bytes(rng, 64),
        _ => {}
    }
    let ethertype = if (knobs >> 6) & 3 != 0 {
        0x0806
    } else {
        rng.next_u64() as u16
    };
    EthFrame::new(mac(rng), mac(rng), ethertype, payload).encode()
}

/// A sensor event with arbitrary fields. `clock` drifts forward and
/// sometimes jumps back; some events land at zero, at a random time or
/// at the end of time.
fn hostile_event(rng: &mut SplitMix64, clock: &mut u64) -> SensorEvent {
    let knobs = rng.next_u64();
    let at = match knobs % 8 {
        0 => SimTime(u64::MAX),
        1 => SimTime(rng.next_u64()),
        2 => SimTime(clock.saturating_sub(rng.next_u64() % 10_000_000_000)),
        3 => SimTime::ZERO,
        _ => {
            *clock = clock.saturating_add(rng.next_u64() % 100_000_000);
            SimTime(*clock)
        }
    };
    let sensor = SensorId(rng.next_u64() as u16);
    if (knobs >> 3).is_multiple_of(6) {
        return SensorEvent::Arp(ArpEvent {
            sensor,
            at,
            src_mac: mac(rng),
            op: if (knobs >> 6) & 1 == 1 {
                ArpOp::Reply
            } else {
                ArpOp::Request
            },
            sender_mac: mac(rng),
            sender_ip: ip(rng),
            target_ip: Ipv4Addr::from(rng.next_u64() as u32),
            gratuitous: (knobs >> 7) & 1 == 1,
        });
    }
    let ssid = match rng.next_u64() % 5 {
        0 => String::new(),
        1 => "CORP".into(),
        2 => "x".repeat(1024),
        3 => "café ☃ 日本 \u{0}".into(),
        _ => String::from_utf8_lossy(&bytes(rng, 48)).into_owned(),
    };
    let kind = match (knobs >> 8) % 5 {
        0 => Dot11Kind::Beacon {
            ssid,
            claimed_channel: rng.next_u64() as u8,
            capability: rng.next_u64() as u16,
            probe_resp: (knobs >> 11) & 1 == 1,
        },
        1 => Dot11Kind::Deauth {
            reason: rng.next_u64() as u16,
        },
        2 => Dot11Kind::Data {
            protected: (knobs >> 11) & 1 == 1,
        },
        3 => Dot11Kind::Ack,
        _ => Dot11Kind::Mgmt,
    };
    SensorEvent::Dot11(Dot11Event {
        sensor,
        at,
        channel: channel(rng),
        rssi_dbm: rssi(rng),
        ta: mac(rng),
        ra: mac(rng),
        bssid: mac(rng),
        seq: rng.next_u64() as u16,
        retry: (knobs >> 12) & 1 == 1,
        kind,
    })
}

fn pipeline(ring_capacity: usize) -> WidsPipeline {
    WidsPipeline::new(WidsConfig {
        ring_capacity,
        authorized_aps: vec![(AP, 1)],
        trusted_bindings: vec![(GATEWAY, AP)],
    })
}

/// Step, then check that every event pushed so far was processed or
/// counted as dropped.
fn step_accounts_for(pipe: &mut WidsPipeline, now: SimTime, pushed: u64) -> Result<(), String> {
    pipe.step(now);
    let m = pipe.metrics();
    let (events, dropped) = (m.counter("wids.events"), m.counter("wids.ring_dropped"));
    if events + dropped == pushed {
        Ok(())
    } else {
        Err(format!(
            "{events} processed + {dropped} dropped != {pushed} pushed"
        ))
    }
}

proptest! {
    #[test]
    fn hostile_frames_through_the_radio_sensor_never_panic(
        seed in any::<u64>(),
        frames in 1usize..80,
        ring in 1usize..32,
        drain_every in 1usize..16,
    ) {
        let mut rng = SplitMix64::new(seed);
        let mut pipe = pipeline(ring);
        let mut sniffer = Sniffer::new();
        let mut sensor = RadioSensor::new(pipe.new_sensor_id());
        let mut pushed = 0u64;
        for i in 0..frames {
            let at = SimTime::from_millis(i as u64);
            let (channel, rssi) = (channel(&mut rng), rssi(&mut rng));
            sniffer.on_receive(at, &radio_frame(&mut rng), rssi, channel);
            if (i + 1) % drain_every == 0 || i + 1 == frames {
                pushed += sensor.drain(&sniffer, &mut pipe.ring) as u64;
                let verdict = step_accounts_for(&mut pipe, at, pushed);
                prop_assert!(verdict.is_ok(), "{:?}", verdict);
            }
        }
        prop_assert_eq!(pushed, sniffer.captures.len() as u64);
    }

    #[test]
    fn hostile_bytes_through_the_wired_sensor_never_panic(
        seed in any::<u64>(),
        frames in 1usize..80,
        ring in 1usize..32,
        step_every in 1usize..16,
    ) {
        let mut rng = SplitMix64::new(seed);
        let mut pipe = pipeline(ring);
        let mut sensor = WiredSensor::new(pipe.new_sensor_id());
        for i in 0..frames {
            let at = SimTime::from_millis(i as u64);
            sensor.ingest(at, &wired_frame(&mut rng), &mut pipe.ring);
            if (i + 1) % step_every == 0 || i + 1 == frames {
                let verdict = step_accounts_for(&mut pipe, at, sensor.arp_seen);
                prop_assert!(verdict.is_ok(), "{:?}", verdict);
            }
        }
        prop_assert!(sensor.arp_seen <= sensor.frames_seen);
        prop_assert!(sensor.frames_seen <= frames as u64);
    }

    #[test]
    fn hostile_events_through_the_pipeline_never_panic(
        seed in any::<u64>(),
        events in 1usize..300,
        ring in 1usize..32,
        step_every in 1usize..40,
    ) {
        let mut rng = SplitMix64::new(seed);
        let mut pipe = pipeline(ring);
        let mut clock = 0u64;
        let mut pushed = 0u64;
        for i in 0..events {
            pipe.ring.push(hostile_event(&mut rng, &mut clock));
            pushed += 1;
            if (i + 1) % step_every == 0 || i + 1 == events {
                let now = SimTime(clock);
                let verdict = step_accounts_for(&mut pipe, now, pushed);
                prop_assert!(verdict.is_ok(), "{:?}", verdict);
                // The next step's events start earlier than this one's.
                clock /= 2;
            }
        }
    }
}
