//! The MAC-randomization stress claim, measured: one million distinct
//! forged transmitter addresses stream through the full pipeline and
//! per-source state must not grow by a single byte. Every per-source
//! map in the suite, and every per-subject map in the correlator, is a
//! fixed-size sketch or set-associative table sized at construction — an
//! attacker who can mint addresses faster than we can forget them would
//! otherwise turn the WIDS itself into the denial-of-service target.
//!
//! Three floods: beacons of SSIDs nobody owns, which load the detectors'
//! tables; clones of an owned SSID from fresh BSSIDs, each of which
//! raises a clone alert and so loads the correlator too; and fresh SSIDs
//! beaconed under the registered AP's own (BSSID, channel), which must
//! not grow, or rename, what the site owns.

use rogue_dot11::MacAddr;
use rogue_sim::SimTime;
use rogue_wids::{
    Dot11Event, Dot11Kind, IncidentCategory, SensorEvent, SensorId, WidsConfig, WidsPipeline,
};

const TOTAL: u64 = 1_000_000;
const CHUNK: u64 = 2048; // below the ring capacity: no drops

/// Push `TOTAL` events from `make`, stepping every `CHUNK`.
fn flood(pipe: &mut WidsPipeline, make: impl Fn(u64) -> SensorEvent) {
    let mut fed = 0;
    while fed < TOTAL {
        let n = CHUNK.min(TOTAL - fed);
        for i in fed..fed + n {
            pipe.ring.push(make(i));
        }
        fed += n;
        pipe.step(SimTime(fed * 50_000));
    }
}

/// A beacon from a freshly minted BSSID — the worst case: it lands in
/// the sequence, RSSI, beacon and probe stages at once.
fn forged_beacon(i: u64) -> SensorEvent {
    SensorEvent::Dot11(Dot11Event {
        sensor: SensorId((i % 3) as u16),
        at: SimTime(i * 50_000), // 20k events per simulated second
        channel: [1u8, 6, 11][(i % 3) as usize],
        rssi_dbm: -40.0 - (i % 40) as f64,
        ta: MacAddr::local(i + 10),
        ra: MacAddr::BROADCAST,
        bssid: MacAddr::local(i + 10),
        seq: (i % 4096) as u16,
        retry: false,
        kind: Dot11Kind::Beacon {
            ssid: format!("NET-{}", i % 512),
            claimed_channel: [1u8, 6, 11][(i % 3) as usize],
            capability: 0,
            probe_resp: i.is_multiple_of(5),
        },
    })
}

#[test]
fn one_million_randomized_macs_cannot_grow_detector_state() {
    let mut pipe = WidsPipeline::new(WidsConfig {
        authorized_aps: vec![(MacAddr::local(1), 1)],
        ..WidsConfig::default()
    });
    let baseline = pipe.detector_state_bytes();
    assert!(baseline > 0, "state accounting must see the sketches");

    flood(&mut pipe, forged_beacon);

    assert_eq!(
        pipe.metrics().counter("wids.events"),
        TOTAL,
        "every forged frame must actually reach the detectors"
    );
    assert_eq!(
        pipe.detector_state_bytes(),
        baseline,
        "per-source state grew under randomized MACs"
    );
    // The sequence table is 4096 groups x 4 ways; a million sources must
    // fit the same fixed capacity as ten.
    assert!(
        pipe.tracked_sources() <= 4096 * 4,
        "tracked sources exceed the table's fixed capacity (got {})",
        pipe.tracked_sources()
    );
    assert!(
        pipe.state_evictions() > 0,
        "a million distinct sources must have recycled slots"
    );
}

/// A beacon of the owned SSID "CORP" from a freshly minted BSSID: the
/// MAC-randomizing evil twin at one beacon per address.
fn owned_ssid_clone(i: u64) -> SensorEvent {
    SensorEvent::Dot11(Dot11Event {
        sensor: SensorId(0),
        at: SimTime(1_000_000 + i * 50_000),
        channel: 6,
        rssi_dbm: -55.0,
        ta: MacAddr::local(i + 10),
        ra: MacAddr::BROADCAST,
        bssid: MacAddr::local(i + 10),
        seq: (i % 4096) as u16,
        retry: false,
        kind: Dot11Kind::Beacon {
            ssid: "CORP".into(),
            claimed_channel: 6,
            capability: 0,
            probe_resp: false,
        },
    })
}

#[test]
fn one_million_owned_ssid_clones_cannot_grow_correlator_state() {
    let corp = MacAddr::local(1);
    let mut pipe = WidsPipeline::new(WidsConfig {
        authorized_aps: vec![(corp, 1)],
        ..WidsConfig::default()
    });
    // The registered AP beacons first, so the auditor owns "CORP".
    pipe.ring.push(SensorEvent::Dot11(Dot11Event {
        sensor: SensorId(0),
        at: SimTime::ZERO,
        channel: 1,
        rssi_dbm: -40.0,
        ta: corp,
        ra: MacAddr::BROADCAST,
        bssid: corp,
        seq: 0,
        retry: false,
        kind: Dot11Kind::Beacon {
            ssid: "CORP".into(),
            claimed_channel: 1,
            capability: 0,
            probe_resp: false,
        },
    }));
    pipe.step(SimTime::ZERO);
    let baseline = pipe.detector_state_bytes();

    flood(&mut pipe, owned_ssid_clone);

    // Every fresh BSSID is a clone claim that reached the correlator.
    assert!(
        pipe.metrics().counter("wids.alerts_raw") > TOTAL,
        "each clone must raise an alert"
    );
    assert_eq!(
        pipe.detector_state_bytes(),
        baseline,
        "pipeline state grew under owned-SSID clones"
    );
    // The dedup and pending-case tables are 256 groups x 4 ways each;
    // only opened cases sit outside them, one per incident.
    let correlator = pipe.correlator();
    assert!(
        correlator.tracked() <= 2 * 256 * 4 + pipe.incidents().len(),
        "correlator holds {} entries for {} incidents",
        correlator.tracked(),
        pipe.incidents().len()
    );
    assert!(correlator.evictions() > 0, "the flood must recycle cases");
    // The parade of fresh BSSIDs behind one owned name is the churn
    // signature: one strong beacon-audit witness opens it alone.
    assert_eq!(pipe.incidents().len(), 1, "{:?}", pipe.incidents());
    let churn = &pipe.incidents()[0];
    assert_eq!(churn.category, IncidentCategory::RogueAp);
    assert_eq!(churn.detectors, ["beacon-audit"]);
    assert!(churn.score >= 0.95, "{churn:?}");
}

/// A beacon of the owned SSID "CORP" from the registered AP.
fn corp_beacon(corp: MacAddr) -> SensorEvent {
    SensorEvent::Dot11(Dot11Event {
        sensor: SensorId(0),
        at: SimTime::ZERO,
        channel: 1,
        rssi_dbm: -40.0,
        ta: corp,
        ra: MacAddr::BROADCAST,
        bssid: corp,
        seq: 0,
        retry: false,
        kind: Dot11Kind::Beacon {
            ssid: "CORP".into(),
            claimed_channel: 1,
            capability: 0,
            probe_resp: false,
        },
    })
}

#[test]
fn one_million_fresh_ssids_under_the_registered_pair_teach_nothing() {
    let corp = MacAddr::local(1);
    let mut pipe = WidsPipeline::new(WidsConfig {
        authorized_aps: vec![(corp, 1)],
        ..WidsConfig::default()
    });
    pipe.ring.push(corp_beacon(corp));
    pipe.step(SimTime::ZERO);
    assert_eq!(pipe.owned_ssid_counts(), (1, 1));
    let baseline = pipe.detector_state_bytes();

    // A forger of the registered BSSID on its own channel, a fresh SSID
    // per beacon.
    flood(&mut pipe, |i| {
        let SensorEvent::Dot11(mut e) = corp_beacon(corp) else {
            unreachable!()
        };
        e.at = SimTime(1_000_000 + i * 50_000);
        e.seq = ((i + 1) % 4096) as u16;
        e.kind = Dot11Kind::Beacon {
            ssid: format!("FORGED-{i}"),
            claimed_channel: 1,
            capability: 0,
            probe_resp: i.is_multiple_of(5),
        };
        SensorEvent::Dot11(e)
    });
    assert_eq!(
        pipe.owned_ssid_counts(),
        (1, 1),
        "the forged names must not become owned"
    );
    assert_eq!(pipe.detector_state_bytes(), baseline);

    // A foreign BSSID advertising one of the forged names is no clone of
    // anything the site owns; advertising the real name still is.
    let twin = MacAddr::local(0xBEEF);
    let at = SimTime(2_000_000 + TOTAL * 50_000);
    let mut advertise = |ssid: &str, at: SimTime| {
        let SensorEvent::Dot11(mut e) = corp_beacon(twin) else {
            unreachable!()
        };
        e.at = at;
        e.channel = 6;
        e.kind = Dot11Kind::Beacon {
            ssid: ssid.into(),
            claimed_channel: 6,
            capability: 0,
            probe_resp: false,
        };
        let before = pipe.metrics().counter("wids.alerts_raw");
        pipe.ring.push(SensorEvent::Dot11(e));
        pipe.step(at);
        pipe.metrics().counter("wids.alerts_raw") - before
    };
    assert_eq!(advertise("FORGED-7", at), 0, "a forged name was learned");
    assert_eq!(
        advertise("CORP", SimTime(at.as_nanos() + 100_000_000)),
        1,
        "a clone of the owned SSID must still alert"
    );
}
