//! Hostile frames at the MACs: whatever bytes reach a radio, the frame
//! decoder and every receive path answer without panicking.
//!
//! - Arbitrary byte strings of 0–300 bytes, biased towards the valid
//!   type/subtype pairs, towards receiver and transmitter addresses the
//!   MACs under test know, and towards a valid FCS so that the parsers
//!   behind the checksum run too.
//! - Management frames whose information elements are arbitrary: ids
//!   biased to SSID, rates and DS channel, arbitrary lengths and bytes
//!   (well-formed element lists, so the element contents get parsed).
//! - Mutations of a valid encoding of every `FrameBody` kind: every
//!   truncation length (FCS kept or recomputed), a flipped FCS, and each
//!   information element's length byte set out of range.
//!
//! Every input goes to `Frame::decode`, `StaMac::on_receive` (scanning
//! and associated), `ApMac::on_receive` (idle and with a client) and
//! `Sniffer::on_receive`. Every `Ok` must re-encode to a frame that
//! decodes equal, and a frame a MAC's `hears` filter rejects must leave
//! that MAC without output and with the same next wake. A table pins
//! `hears` for the station and the AP × every frame kind × Addr1 ∈ {own,
//! other unicast, broadcast}.

use bytes::Bytes;
use proptest::collection::vec;
use proptest::prelude::*;
use rogue_crypto::crc32;
use rogue_dot11::ap::ApMac;
use rogue_dot11::frame::{encode_llc, FrameError, MgmtInfo, CAP_ESS, FCS_LEN, HEADER_LEN};
use rogue_dot11::monitor::Sniffer;
use rogue_dot11::{ApConfig, Frame, FrameBody, MacAddr, StaConfig, StaMac, StaState};
use rogue_sim::{Seed, SimRng, SimTime};

/// The station under test.
const STA: MacAddr = MacAddr::local(10);
/// The AP under test, and the BSS the station joins.
const BSSID: MacAddr = MacAddr::local(1);
/// A unicast address neither MAC owns.
const OTHER: MacAddr = MacAddr::local(77);

/// Valid (type, subtype) pairs, in [`every_kind`] order.
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

/// One valid frame of every `FrameBody` kind, addressed to `addr1`.
fn every_kind(addr1: MacAddr) -> Vec<Frame> {
    let info = MgmtInfo {
        timestamp: 7,
        beacon_interval_tu: 100,
        capability: CAP_ESS,
        ssid: "CORP".into(),
        channel: 1,
    };
    let bodies = [
        FrameBody::Beacon(info.clone()),
        FrameBody::ProbeReq {
            ssid: Some("CORP".into()),
        },
        FrameBody::ProbeResp(info),
        FrameBody::Auth {
            algorithm: 0,
            seq: 1,
            status: 0,
        },
        FrameBody::AssocReq {
            capability: CAP_ESS,
            ssid: "CORP".into(),
        },
        FrameBody::AssocResp {
            capability: CAP_ESS,
            status: 0,
            aid: 1,
        },
        FrameBody::Deauth { reason: 7 },
        FrameBody::Disassoc { reason: 8 },
        FrameBody::Ack,
        FrameBody::Data {
            payload: Bytes::from(encode_llc(0x0800, b"payload")),
        },
    ];
    bodies
        .into_iter()
        .map(|body| Frame::new(addr1, BSSID, BSSID, body))
        .collect()
}

/// Recompute the trailing FCS over everything before it.
fn refcs(raw: &mut [u8]) {
    let end = raw.len() - FCS_LEN;
    let fcs = crc32(&raw[..end]);
    raw[end..].copy_from_slice(&fcs.to_le_bytes());
}

/// Bias arbitrary bytes towards frames the parsers and MACs accept. By
/// the bits of `knobs`: a valid type/subtype (7 in 8), a known Addr1
/// and Addr2 (3 in 4 each), and a valid FCS (3 in 4).
fn shape(mut raw: Vec<u8>, knobs: u64) -> Bytes {
    let addrs = [STA, BSSID, MacAddr::BROADCAST, OTHER];
    if raw.len() >= 2 && knobs & 7 != 0 {
        let (typ, subtype) = KINDS[(knobs >> 3) as usize % KINDS.len()];
        raw[0] = (raw[0] & 0x03) | (typ << 2) | (subtype << 4);
    }
    if raw.len() >= 10 && (knobs >> 8) & 3 != 0 {
        raw[4..10].copy_from_slice(&addrs[(knobs >> 10) as usize % 4].0);
    }
    if raw.len() >= 16 && (knobs >> 12) & 3 != 0 {
        raw[10..16].copy_from_slice(&addrs[(knobs >> 14) as usize % 4].0);
    }
    if raw.len() >= FCS_LEN && (knobs >> 16) & 3 != 0 {
        refcs(&mut raw);
    }
    Bytes::from(raw)
}

/// A beacon of the BSS the station wants.
fn beacon() -> Bytes {
    every_kind(MacAddr::BROADCAST)[0].encode()
}

/// A station that has joined `BSSID`.
fn joined_station() -> StaMac {
    let cfg = StaConfig::typical(STA, "CORP", None);
    let mut sta = StaMac::new(cfg, SimRng::new(Seed(1)), SimTime::ZERO);
    let mut out = Vec::new();
    sta.on_receive(SimTime::from_millis(5), &beacon(), -50.0, 1, &mut out);
    let mut now = SimTime::ZERO;
    while *sta.state() == StaState::Scanning {
        now = sta.next_wake();
        sta.poll(now, &mut out);
    }
    for body in [
        FrameBody::Auth {
            algorithm: 0,
            seq: 2,
            status: 0,
        },
        FrameBody::AssocResp {
            capability: CAP_ESS,
            status: 0,
            aid: 1,
        },
    ] {
        let reply = Frame::new(STA, BSSID, BSSID, body).encode();
        sta.on_receive(now, &reply, -50.0, 1, &mut out);
    }
    assert_eq!(*sta.state(), StaState::Associated);
    sta
}

/// An AP with the station as its client.
fn busy_ap() -> ApMac {
    let cfg = ApConfig::typical(BSSID, "CORP", 1, None);
    let mut ap = ApMac::new(cfg, SimRng::new(Seed(2)), SimTime::ZERO);
    let mut out = Vec::new();
    let mut frames = every_kind(BSSID);
    frames[4].seq = 1;
    for f in [&frames[3], &frames[4]] {
        let mut f = f.clone();
        f.addr2 = STA;
        ap.on_receive(SimTime::from_millis(1), &f.encode(), -50.0, 1, &mut out);
    }
    assert!(ap.is_associated(STA));
    ap
}

/// Every receive path under test, in the states that reach the most
/// code: a scanning and an associated station, an idle AP and one with
/// a client, and a sniffer.
struct Macs {
    stations: [StaMac; 2],
    aps: [ApMac; 2],
    sniffer: Sniffer,
}

fn macs() -> Macs {
    let cfg = StaConfig::typical(STA, "CORP", None);
    let ap_cfg = ApConfig::typical(BSSID, "CORP", 1, None);
    Macs {
        stations: [
            StaMac::new(cfg, SimRng::new(Seed(3)), SimTime::ZERO),
            joined_station(),
        ],
        aps: [
            ApMac::new(ap_cfg, SimRng::new(Seed(4)), SimTime::ZERO),
            busy_ap(),
        ],
        sniffer: Sniffer::new(),
    }
}

/// Feed `bytes` to the decoder and every receive path, then check that
/// an accepted frame round-trips and that a filtered one did nothing.
fn feed(m: &mut Macs, bytes: &Bytes) -> Result<(), String> {
    if let Ok(f) = Frame::decode(bytes) {
        let again = Frame::decode(&f.encode());
        if again.as_ref() != Ok(&f) {
            return Err(format!("{f:?} re-encodes to {again:?}"));
        }
    }
    let now = SimTime::from_secs(1);
    for sta in &mut m.stations {
        let (heard, wake) = (sta.hears(bytes), sta.next_wake());
        let mut out = Vec::new();
        sta.on_receive(now, bytes, -50.0, 1, &mut out);
        if !heard && (!out.is_empty() || sta.next_wake() != wake) {
            return Err(format!(
                "station acted on a frame it does not hear: {bytes:02x?}"
            ));
        }
        sta.poll(now, &mut out);
    }
    for ap in &mut m.aps {
        let (heard, wake) = (ap.hears(bytes), ap.next_wake());
        let mut out = Vec::new();
        ap.on_receive(now, bytes, -50.0, 1, &mut out);
        if !heard && (!out.is_empty() || ap.next_wake() != wake) {
            return Err(format!(
                "AP acted on a frame it does not hear: {bytes:02x?}"
            ));
        }
        ap.poll(now, &mut out);
    }
    m.sniffer.on_receive(now, bytes, -50.0, 1);
    Ok(())
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(raw in vec(any::<u8>(), 0..=300), knobs in any::<u64>()) {
        let verdict = feed(&mut macs(), &shape(raw, knobs));
        prop_assert!(verdict.is_ok(), "{:?}", verdict);
    }

    #[test]
    fn arbitrary_elements_never_panic(
        stream in vec(any::<u8>(), 0..=280),
        kind in 0usize..4,
        addr in 0usize..3,
    ) {
        // Beacon, probe request, probe response, association request,
        // with their fixed fields, then elements cut from `stream`.
        let (subtype, fixed) = [(8u8, 12usize), (4, 0), (5, 12), (0, 4)][kind];
        let addr1 = [STA, BSSID, MacAddr::BROADCAST][addr];
        let mut raw = vec![subtype << 4, 0, 0, 0];
        raw.extend_from_slice(&addr1.0);
        raw.extend_from_slice(&STA.0);
        raw.extend_from_slice(&BSSID.0);
        raw.extend_from_slice(&[0, 0]);
        raw.extend(std::iter::repeat_n(0x11, fixed));
        let mut rest = &stream[..];
        while let [id, len, tail @ ..] = rest {
            let id = [0, 1, 3, 0, *id][*id as usize % 5];
            let take = (*len as usize).min(tail.len());
            raw.extend_from_slice(&[id, take as u8]);
            raw.extend_from_slice(&tail[..take]);
            rest = &tail[take..];
        }
        raw.extend_from_slice(&[0; FCS_LEN]);
        refcs(&mut raw);
        let verdict = feed(&mut macs(), &Bytes::from(raw));
        prop_assert!(verdict.is_ok(), "{:?}", verdict);
    }
}

/// Offsets of each information element's length byte in a valid
/// encoding (none for kinds without elements).
fn element_length_offsets(bytes: &[u8]) -> Vec<usize> {
    let fixed = match Frame::decode(&Bytes::copy_from_slice(bytes)).unwrap().body {
        FrameBody::Beacon(_) | FrameBody::ProbeResp(_) => 12,
        FrameBody::ProbeReq { .. } => 0,
        FrameBody::AssocReq { .. } => 4,
        _ => return Vec::new(),
    };
    let end = bytes.len() - FCS_LEN;
    let mut offsets = Vec::new();
    let mut at = HEADER_LEN + fixed;
    while at + 2 <= end {
        offsets.push(at + 1);
        at += 2 + bytes[at + 1] as usize;
    }
    offsets
}

#[test]
fn mutations_of_every_kind_never_panic() {
    let mut m = macs();
    let mut run = |bytes: Vec<u8>| {
        let bytes = Bytes::from(bytes);
        if let Err(e) = feed(&mut m, &bytes) {
            panic!("{e}");
        }
    };
    for addr1 in [STA, BSSID, MacAddr::BROADCAST, OTHER] {
        for f in every_kind(addr1) {
            let good = f.encode().to_vec();
            for len in 0..good.len() {
                let mut cut = good[..len].to_vec();
                run(cut.clone());
                if len >= FCS_LEN {
                    refcs(&mut cut);
                    run(cut);
                }
            }
            let mut flipped = good.clone();
            *flipped.last_mut().unwrap() ^= 0x80;
            assert_eq!(
                Frame::decode(&Bytes::from(flipped.clone())),
                Err(FrameError::BadFcs)
            );
            run(flipped);
            let end = good.len() - FCS_LEN;
            for at in element_length_offsets(&good) {
                for len in [0, 1, end - at, 255] {
                    let mut bad = good.clone();
                    bad[at] = len as u8;
                    refcs(&mut bad);
                    run(bad);
                }
            }
        }
    }
}

#[test]
fn hears_pins_the_receive_filter() {
    let sta = StaMac::new(
        StaConfig::typical(STA, "CORP", None),
        SimRng::new(Seed(5)),
        SimTime::ZERO,
    );
    let ap = ApMac::new(
        ApConfig::typical(BSSID, "CORP", 1, None),
        SimRng::new(Seed(6)),
        SimTime::ZERO,
    );
    // Per kind: does the station / the AP hear it when Addr1 is its own
    // address, another unicast address, or broadcast?
    #[rustfmt::skip]
    let table: [(&str, [bool; 3], [bool; 3]); 10] = [
        ("Beacon",    [true, true,  true], [true, false, false]),
        ("ProbeReq",  [true, false, true], [true, true,  true ]),
        ("ProbeResp", [true, true,  true], [true, false, false]),
        ("Auth",      [true, false, true], [true, false, false]),
        ("AssocReq",  [true, false, true], [true, false, false]),
        ("AssocResp", [true, false, true], [true, false, false]),
        ("Deauth",    [true, false, true], [true, false, false]),
        ("Disassoc",  [true, false, true], [true, false, false]),
        ("Ack",       [true, false, true], [true, false, false]),
        ("Data",      [true, false, true], [true, false, false]),
    ];
    for (col, (sta_addr1, ap_addr1)) in [
        (STA, BSSID),
        (OTHER, OTHER),
        (MacAddr::BROADCAST, MacAddr::BROADCAST),
    ]
    .into_iter()
    .enumerate()
    {
        let at_sta = every_kind(sta_addr1);
        let at_ap = every_kind(ap_addr1);
        for (row, (kind, sta_hears, ap_hears)) in table.iter().enumerate() {
            assert!(format!("{:?}", at_sta[row].body).starts_with(kind));
            assert_eq!(
                sta.hears(&at_sta[row].encode()),
                sta_hears[col],
                "station, {kind} to {sta_addr1}"
            );
            assert_eq!(
                ap.hears(&at_ap[row].encode()),
                ap_hears[col],
                "AP, {kind} to {ap_addr1}"
            );
        }
    }
    // Too short to read Addr1: heard, and rejected by decoding.
    assert!(sta.hears(&[0x80, 0, 0]) && ap.hears(&[0x80, 0, 0]));
}
