//! WIDS engine throughput: events/s and incidents/s at N monitor
//! sensors, plus what a pipeline costs to build and how much detector
//! state the run leaves allocated.
//!
//! The workload is a deterministic multi-sensor campus under attack:
//! per sensor, a pool of well-behaved clients plus an interleaved MAC
//! spoof, a deauth burst, a wrong-channel BSSID clone, an evil twin, a
//! wired ARP poisoner — and a MAC-randomizing rogue spraying frames
//! from a never-repeating source address (the evasion suite's flagship
//! attacker), which keeps the bounded tables recycling slots.
//!
//! Before it reports a number the bench checks the pipeline's output:
//! at every sensor count, a digest of the incident rows and the exact
//! raw-alert count must equal [`EXPECTED`]. Those values were recorded
//! while this bench also ran the seed engine (the pre-rewrite per-frame
//! engine: boxed detectors, SipHash map state) and asserted that both
//! engines opened the same incidents. The seed engine's events/s, the
//! best of 3 reps from its last full run, is kept as [`BASELINE`].
//!
//! Each sensor count runs `reps` times over the same staged slices;
//! `engine_eps` and `incidents_per_s` are the median of the reps' rates,
//! with their quartiles beside them in the JSON (`*_q1`, `*_q3`).
//!
//! Two memory columns ride along: `build_us`, the wall time of
//! `WidsPipeline::new` plus drop at the sensor count's configuration
//! (median and quartiles of `build_reps`), and `resident_bytes`, the
//! detector state allocated after the run, next to its bound
//! (`bound_bytes`, `WidsPipeline::detector_state_bytes`).
//!
//! Run modes:
//!   cargo bench -p rogue-bench --bench wids_throughput            # full
//!   cargo bench -p rogue-bench --bench wids_throughput -- --test  # smoke
//!
//! A full run writes `BENCH_wids_throughput.json` at the workspace root;
//! the smoke writes it to `target/tmp`.

use std::collections::HashMap;
use std::hint::black_box;

use rogue_bench::{record, sample, spread, Row, Stopwatch};
use rogue_dot11::MacAddr;
use rogue_netstack::Ipv4Addr;
use rogue_sim::rng::{Seed, SplitMix64};
use rogue_sim::SimTime;
use rogue_wids::event::ArpEvent;
use rogue_wids::{
    Dot11Event, Dot11Kind, IncidentCategory, SensorEvent, SensorId, WidsConfig, WidsPipeline,
};

/// The sensor counts swept, with the events/s of the retired seed engine,
/// the best of 3 reps from the full run recorded on a shared 2-vCPU VM:
/// (sensors, events/s).
const BASELINE: [(usize, f64); 4] = [
    (1, 2_088_840.0),
    (2, 1_222_319.0),
    (4, 1_268_062.0),
    (8, 1_340_334.0),
];

/// The pipeline's output per sensor count, smoke and full size:
/// (sensors, smoke digest, smoke raw alerts, full digest, full raw
/// alerts), the digest being [`incident_digest`] of the incident rows.
/// Under churn pressure a bounded table may evict a latched alert's slot
/// and re-fire it on the attacker's next frame, so the full 8-sensor
/// run counts 81 raw alerts where the seed engine counted 80; the
/// duplicate never opens an incident.
const EXPECTED: [(usize, u64, u64, u64, u64); 4] = [
    (1, 0x289a_7a32_cee2_2744, 10, 0x289a_7a32_cee2_2744, 10),
    (2, 0x815e_f7f5_a7c0_233a, 20, 0x815e_f7f5_a7c0_233a, 20),
    (4, 0xcaa3_0ed9_28e4_e93a, 40, 0xcaa3_0ed9_28e4_e93a, 40),
    (8, 0x3312_3bd0_8ddf_b75d, 80, 0x3312_3bd0_8ddf_b75d, 81),
];

/// Timed runs per sensor count in a full run (the smoke runs one).
const REPS: usize = 5;

const CHANNELS: [u8; 3] = [1, 6, 11];
const CLIENTS_PER_SENSOR: u64 = 24;

fn chan(s: usize) -> u8 {
    CHANNELS[s % 3]
}

fn ap_mac(s: usize) -> MacAddr {
    MacAddr::local(9_000 + s as u64)
}

fn client_mac(s: usize, i: u64) -> MacAddr {
    MacAddr::local(1_000 * (s as u64 + 1) + i)
}

/// One sensor's deterministic event stream: mostly clean client data,
/// with every attack class the detector suite covers mixed in.
fn sensor_stream(s: usize, events: usize, seed: Seed) -> Vec<SensorEvent> {
    let mut rng = SplitMix64::new(seed.fork(s as u64 + 1).0);
    let sensor = SensorId(s as u16);
    let ch = chan(s);
    let ap = ap_mac(s);
    let ssid = format!("CORP-{s}");
    let spoofed = client_mac(s, 900);
    let flooder = client_mac(s, 901);
    let twin = client_mac(s, 902);
    let poisoner = client_mac(s, 903);
    let wired_hosts: Vec<MacAddr> = (0..8).map(|i| client_mac(s, 910 + i)).collect();

    let mut seq: HashMap<MacAddr, u16> = HashMap::new();
    let mut spoof_phase = 0u64;
    let mut churn_n = 0u64;
    let mut out = Vec::with_capacity(events);
    // Distinct nanosecond offsets per sensor keep merged timestamps
    // unique, so the global event order is unambiguous.
    let mut at = SimTime(1_000 + s as u64);

    for _ in 0..events {
        at = SimTime(at.0 + 120_000 + (rng.next_u64() % 160) * 1_000);
        let roll = rng.next_u64() % 100;
        let ev = if roll < 35 {
            // Clean client data: counters advance, RSSI wobbles inside
            // the plausible band.
            let ta = client_mac(s, rng.next_u64() % CLIENTS_PER_SENSOR);
            let sq = seq.entry(ta).or_insert(0);
            *sq = (*sq + 1 + (rng.next_u64() % 2) as u16) & 0x0FFF;
            dot11(
                sensor,
                at,
                ch,
                -48.0 - (rng.next_u64() % 6) as f64,
                ta,
                ap,
                *sq,
                Dot11Kind::Data { protected: true },
            )
        } else if roll < 85 {
            // The MAC randomizer: every frame a fresh forged source.
            // One frame per address alerts nothing; it exists to bloat
            // per-source state.
            churn_n += 1;
            dot11(
                sensor,
                at,
                ch,
                -70.0 - (rng.next_u64() % 5) as f64,
                MacAddr::local(100_000_000 * (s as u64 + 1) + churn_n),
                ap,
                (rng.next_u64() & 0x0FFF) as u16,
                Dot11Kind::Data { protected: false },
            )
        } else if roll < 90 {
            // The authorized AP beaconing where it belongs.
            let sq = seq.entry(ap).or_insert(0);
            *sq = (*sq + 1) & 0x0FFF;
            dot11(
                sensor,
                at,
                ch,
                -40.0 - (rng.next_u64() % 3) as f64,
                ap,
                ap,
                *sq,
                beacon(&ssid, ch),
            )
        } else if roll < 95 {
            // Interleaved MAC spoof: two radios behind one address, two
            // counters ~2048 apart, two RSSI floors ~22 dB apart.
            spoof_phase += 1;
            let base = if spoof_phase.is_multiple_of(2) {
                100
            } else {
                2_900
            };
            let rssi = if spoof_phase.is_multiple_of(2) {
                -40.0
            } else {
                -62.0
            };
            dot11(
                sensor,
                at,
                ch,
                rssi,
                spoofed,
                ap,
                ((base + spoof_phase / 2) & 0x0FFF) as u16,
                Dot11Kind::Data { protected: false },
            )
        } else if roll < 97 {
            // Deauth burst from one forged transmitter.
            dot11(
                sensor,
                at,
                ch,
                -50.0,
                flooder,
                ap,
                0,
                Dot11Kind::Deauth { reason: 7 },
            )
        } else if roll < 98 {
            // Wrong-channel clone of the authorized BSSID.
            let sq = seq.entry(twin).or_insert(2_000);
            *sq = (*sq + 1) & 0x0FFF;
            dot11(
                sensor,
                at,
                chan(s + 1),
                -55.0,
                ap,
                ap,
                *sq,
                beacon(&ssid, chan(s + 1)),
            )
        } else if roll < 99 {
            // Evil twin: unknown BSSID advertising the owned SSID.
            let sq = seq.entry(MacAddr::local(990)).or_insert(3_000);
            *sq = (*sq + 1) & 0x0FFF;
            dot11(sensor, at, ch, -58.0, twin, twin, *sq, beacon(&ssid, ch))
        } else {
            // Wired side: benign ARP chatter plus the cache poisoner
            // re-claiming the gateway with gratuitous replies.
            let poison = rng.next_u64().is_multiple_of(4);
            let (mac, ip) = if poison {
                (poisoner, Ipv4Addr::new(10, 0, s as u8, 1))
            } else {
                let i = (rng.next_u64() % wired_hosts.len() as u64) as usize;
                (wired_hosts[i], Ipv4Addr::new(10, 0, s as u8, 50 + i as u8))
            };
            SensorEvent::Arp(ArpEvent {
                sensor,
                at,
                src_mac: mac,
                op: rogue_netstack::arp::ArpOp::Reply,
                sender_mac: mac,
                sender_ip: ip,
                target_ip: Ipv4Addr::new(10, 0, s as u8, 255),
                gratuitous: poison,
            })
        };
        out.push(ev);
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn dot11(
    sensor: SensorId,
    at: SimTime,
    channel: u8,
    rssi_dbm: f64,
    ta: MacAddr,
    bssid: MacAddr,
    seq: u16,
    kind: Dot11Kind,
) -> SensorEvent {
    SensorEvent::Dot11(Dot11Event {
        sensor,
        at,
        channel,
        rssi_dbm,
        ta,
        ra: MacAddr::BROADCAST,
        bssid,
        seq,
        retry: false,
        kind,
    })
}

fn beacon(ssid: &str, claimed: u8) -> Dot11Kind {
    Dot11Kind::Beacon {
        ssid: ssid.to_string(),
        claimed_channel: claimed,
        capability: 0,
        probe_resp: false,
    }
}

/// The merged multi-sensor workload, globally time-ordered, cut into
/// ring-sized slices.
fn workload(sensors: usize, events_per_sensor: usize, seed: Seed) -> Vec<Vec<SensorEvent>> {
    let mut merged: Vec<SensorEvent> = Vec::with_capacity(sensors * events_per_sensor);
    for s in 0..sensors {
        merged.extend(sensor_stream(s, events_per_sensor, seed));
    }
    merged.sort_by_key(|e| e.at());
    merged.chunks(2_048).map(|c| c.to_vec()).collect()
}

fn wids_config(sensors: usize) -> WidsConfig {
    WidsConfig {
        authorized_aps: (0..sensors).map(|s| (ap_mac(s), chan(s))).collect(),
        trusted_bindings: (0..sensors)
            .map(|s| (Ipv4Addr::new(10, 0, s as u8, 1), MacAddr::local(254)))
            .collect(),
        ..WidsConfig::default()
    }
}

type IncidentRow = (IncidentCategory, MacAddr, SimTime, f64, u32);

fn rows(incidents: &[rogue_wids::Incident]) -> Vec<IncidentRow> {
    incidents
        .iter()
        .map(|i| (i.category, i.subject, i.opened_at, i.score, i.alerts_fused))
        .collect()
}

/// What one rep of the pipeline leaves behind.
struct Run {
    incidents: Vec<IncidentRow>,
    raw_alerts: u64,
    evictions: u64,
    resident_bytes: usize,
    bound_bytes: usize,
}

/// One rep of the pipeline over pre-staged slices, timed on `clock`. Each
/// slice fits the ring, and the step's stable time sort keeps the slice's
/// order.
fn run_engine(sensors: usize, slices: Vec<Vec<SensorEvent>>, clock: &mut Stopwatch) -> Run {
    let mut pipe = WidsPipeline::new(wids_config(sensors));
    clock.time(|| {
        for slice in slices {
            let mut last = SimTime::ZERO;
            for ev in slice {
                last = ev.at();
                pipe.ring.push(ev);
            }
            pipe.step(last);
        }
    });
    assert_eq!(
        pipe.metrics().counter("wids.ring_dropped"),
        0,
        "slices must fit the ring"
    );
    Run {
        incidents: rows(pipe.incidents()),
        raw_alerts: pipe.metrics().counter("wids.alerts_raw"),
        evictions: pipe.state_evictions(),
        resident_bytes: pipe.detector_resident_bytes(),
        bound_bytes: pipe.detector_state_bytes(),
    }
}

/// FNV-1a over every incident row's fields, the score as its bits.
fn incident_digest(rows: &[IncidentRow]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (category, subject, opened_at, score, fused) in rows {
        eat(&[*category as u8]);
        eat(&subject.0);
        eat(&opened_at.0.to_le_bytes());
        eat(&score.to_bits().to_le_bytes());
        eat(&fused.to_le_bytes());
    }
    h
}

/// One sensor count: run and check the pipeline `reps` times, time
/// `build_reps` builds, print the table row and return the JSON row.
fn measure(
    sensors: usize,
    baseline_eps: f64,
    events_per_sensor: usize,
    reps: usize,
    build_reps: usize,
    smoke: bool,
) -> Row {
    let slices = workload(sensors, events_per_sensor, Seed(0x3D1_BEEF));
    let events: usize = slices.iter().map(Vec::len).sum();

    let runs = sample(reps, |clock| run_engine(sensors, slices.clone(), clock));
    for run in runs.iter().map(|r| &r.out) {
        // The randomizer must actually pressure the bounded tables.
        // (Smoke streams are too short to overflow a 4-way group.)
        assert!(
            smoke || run.evictions > 0,
            "churn must recycle bounded-table slots"
        );
        assert!(
            run.resident_bytes <= run.bound_bytes,
            "{} B resident exceed the {} B bound",
            run.resident_bytes,
            run.bound_bytes
        );
    }
    let Run {
        incidents,
        raw_alerts,
        resident_bytes,
        bound_bytes,
        ..
    } = &runs.last().expect("at least one rep").out;
    let &(_, smoke_digest, smoke_raw, full_digest, full_raw) = EXPECTED
        .iter()
        .find(|e| e.0 == sensors)
        .expect("a committed digest for every sensor count");
    let expected = if smoke {
        (smoke_digest, smoke_raw)
    } else {
        (full_digest, full_raw)
    };
    assert_eq!(
        (incident_digest(incidents), *raw_alerts),
        expected,
        "{sensors} sensors: incidents or raw alerts differ from the committed digest"
    );

    let eps = spread(&runs, |r| events as f64 / r.wall_s);
    let ips = spread(&runs, |r| incidents.len() as f64 / r.wall_s);
    let cfg = wids_config(sensors);
    let builds = sample(build_reps, |clock| {
        let cfg = cfg.clone();
        clock.time(|| drop(black_box(WidsPipeline::new(cfg))));
    });
    let build_us = spread(&builds, |r| r.wall_s * 1e6);
    println!(
        "| {sensors} | {events} | {baseline_eps:.0} | {:.0} | [{:.0}, {:.0}] | {:.2}x | {} | {:.1} | {resident_bytes} | {bound_bytes} |",
        eps.0,
        eps.1,
        eps.2,
        eps.0 / baseline_eps,
        incidents.len(),
        build_us.0,
    );
    Row::default()
        .int("sensors", sensors as u64)
        .int("events", events as u64)
        .num("baseline_eps", baseline_eps, 0)
        .rate("engine_eps", eps, 0)
        .timing(&runs)
        .num("speedup", eps.0 / baseline_eps, 2)
        .int("incidents", incidents.len() as u64)
        .rate("incidents_per_s", ips, 1)
        .int("raw_alerts", *raw_alerts)
        .rate("build_us", build_us, 1)
        .int("resident_bytes", *resident_bytes as u64)
        .int("bound_bytes", *bound_bytes as u64)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let (events_per_sensor, reps, build_reps, mode) = if smoke {
        (4_000, 1, 11, "smoke")
    } else {
        (500_000, REPS, 101, "full")
    };

    println!("WIDS throughput: pipeline vs the committed seed-engine baseline ({mode})");
    println!(
        "| sensors | events | baseline ev/s | pipeline ev/s (median) | [q1, q3] | speedup | incidents | build µs | resident B | bound B |"
    );
    println!(
        "|---------|--------|---------------|------------------------|----------|---------|-----------|----------|------------|---------|"
    );
    let results: Vec<Row> = BASELINE
        .iter()
        .map(|&(sensors, baseline_eps)| {
            measure(
                sensors,
                baseline_eps,
                events_per_sensor,
                reps,
                build_reps,
                smoke,
            )
        })
        .collect();

    let head = Row::default()
        .text("mode", mode)
        .int("build_reps", build_reps as u64)
        .text(
            "baseline",
            "best of 3 reps of the seed per-frame engine (boxed trait-object dispatch, SipHash map state) in the last full run that carried it",
        );
    let path = rogue_bench::bench_json_path!("wids_throughput", smoke);
    record(&path, "wids_throughput", reps, head, &results);
}
