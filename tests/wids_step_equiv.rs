//! Property test of the step contract: how a stream is cut into steps,
//! and in which order a step's events were pushed, does not change what
//! the pipeline concludes. For ANY event stream, ANY step boundaries and
//! ANY within-step push order of distinct-timestamp events, the
//! incidents and the raw-alert count equal those of one step over the
//! whole stream pushed in time order. Events that share a timestamp
//! keep their relative push order: the step's stable time sort is what
//! orders them, so they move between positions as one block.
//!
//! Each event is decoded from one random `u64` (the vendored proptest
//! shim generates primitives, not structs): kind, transmitter, timing
//! gap, channel, RSSI, sequence number, SSID and sensor are all bit
//! slices, so the stream covers spoofs, floods, churn, cloaked twins
//! and ARP claims mixed in every order.

use proptest::prelude::*;
use rogue_dot11::MacAddr;
use rogue_netstack::arp::ArpOp;
use rogue_netstack::Ipv4Addr;
use rogue_sim::rng::SplitMix64;
use rogue_sim::SimTime;
use rogue_wids::event::ArpEvent;
use rogue_wids::{
    Dot11Event, Dot11Kind, IncidentCategory, SensorEvent, SensorId, WidsConfig, WidsPipeline,
};

const SSIDS: [&str; 3] = ["CORP", "FREE-WIFI", ""];
const CHANNELS: [u8; 3] = [1, 6, 11];

/// Decode one raw word into a sensor event, advancing the clock.
fn decode(word: u64, at: &mut SimTime) -> SensorEvent {
    let kind = word & 0x7; // 0..8
    let ta_ix = (word >> 3) & 0xF; // 16 transmitters
    let dt_ms = (word >> 7) & 0x3F; // 0..64 ms between events
    let chan_ix = ((word >> 13) % 3) as usize;
    let rssi = -(30.0 + ((word >> 17) & 0x3F) as f64); // -30..-93 dBm
    let seq = ((word >> 23) & 0xFFF) as u16;
    let ssid_ix = ((word >> 35) % 3) as usize;
    let sensor = SensorId(((word >> 37) & 0x3) as u16);
    let flag = (word >> 39) & 1 == 1;

    *at = SimTime(at.0 + dt_ms * 1_000_000);
    let ta = MacAddr::local(ta_ix + 1);
    if kind >= 6 {
        return SensorEvent::Arp(ArpEvent {
            sensor,
            at: *at,
            src_mac: ta,
            op: if flag { ArpOp::Reply } else { ArpOp::Request },
            sender_mac: ta,
            sender_ip: Ipv4Addr::new(10, 0, 0, ta_ix as u8),
            target_ip: Ipv4Addr::new(10, 0, 0, 1),
            gratuitous: flag,
        });
    }
    let kind = match kind {
        0 | 1 => Dot11Kind::Beacon {
            ssid: SSIDS[ssid_ix].to_string(),
            claimed_channel: CHANNELS[(ssid_ix + kind as usize) % 3],
            capability: if flag { 0x10 } else { 0 },
            probe_resp: kind == 1,
        },
        2 => Dot11Kind::Deauth { reason: 7 },
        3 | 4 => Dot11Kind::Data { protected: flag },
        _ => Dot11Kind::Mgmt,
    };
    SensorEvent::Dot11(Dot11Event {
        sensor,
        at: *at,
        channel: CHANNELS[chan_ix],
        rssi_dbm: rssi,
        ta,
        ra: MacAddr::BROADCAST,
        bssid: ta,
        seq,
        retry: flag && matches!(kind, Dot11Kind::Data { .. }),
        kind,
    })
}

/// Category, subject, opened, last evidence, score bits, alerts fused,
/// detectors.
type IncidentRow = (
    IncidentCategory,
    MacAddr,
    SimTime,
    SimTime,
    u64,
    u32,
    Vec<&'static str>,
);

/// Every incident, and the raw-alert count.
type Outcome = (Vec<IncidentRow>, u64);

fn pipeline() -> WidsPipeline {
    WidsPipeline::new(WidsConfig {
        authorized_aps: vec![(MacAddr::local(1), 1)],
        trusted_bindings: vec![(Ipv4Addr::new(10, 0, 0, 1), MacAddr::local(254))],
        ..WidsConfig::default()
    })
}

fn outcome(pipe: &WidsPipeline) -> Outcome {
    let incidents = pipe
        .incidents()
        .iter()
        .map(|i| {
            (
                i.category,
                i.subject,
                i.opened_at,
                i.last_evidence_at,
                i.score.to_bits(),
                i.alerts_fused,
                i.detectors.clone(),
            )
        })
        .collect();
    (incidents, pipe.metrics().counter("wids.alerts_raw"))
}

/// Push `step` (in time order) with its same-instant runs shuffled
/// against each other.
fn push_shuffled(pipe: &mut WidsPipeline, step: &[SensorEvent], rng: &mut SplitMix64) {
    let mut runs: Vec<(u64, &[SensorEvent])> = step
        .chunk_by(|a, b| a.at() == b.at())
        .map(|run| (rng.next_u64(), run))
        .collect();
    runs.sort_by_key(|&(key, _)| key);
    for (_, run) in runs {
        for ev in run {
            pipe.ring.push(ev.clone());
        }
    }
}

proptest! {
    #[test]
    fn any_step_cut_and_push_order_matches_one_whole_step(
        words in proptest::collection::vec(any::<u64>(), 1..300),
        cut_seed in any::<u64>(),
        max_step in 1u64..80,
    ) {
        let mut at = SimTime::ZERO;
        let events: Vec<SensorEvent> = words.iter().map(|&w| decode(w, &mut at)).collect();

        let mut whole = pipeline();
        for ev in &events {
            whole.ring.push(ev.clone());
        }
        whole.step(at);

        let mut stepped = pipeline();
        let mut rng = SplitMix64::new(cut_seed);
        let mut rest = &events[..];
        while !rest.is_empty() {
            // Empty steps are allowed too: a cut of length zero.
            let len = (rng.next_u64() % (max_step + 1)) as usize;
            let (step, tail) = rest.split_at(len.min(rest.len()));
            push_shuffled(&mut stepped, step, &mut rng);
            stepped.step(step.last().map_or(SimTime::ZERO, SensorEvent::at));
            rest = tail;
        }

        prop_assert_eq!(whole.metrics().counter("wids.events"), events.len() as u64);
        prop_assert_eq!(stepped.metrics().counter("wids.events"), events.len() as u64);
        prop_assert_eq!(outcome(&whole), outcome(&stepped));
    }
}
