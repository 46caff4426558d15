//! WIDS engine throughput: events/s and incidents/s at N monitor
//! sensors, the pipeline's per-event engine against the seed engine.
//!
//! The baseline is the engine this repository shipped before the
//! bounded-state rewrite: five detectors behind `Box<dyn Detector>`, one
//! virtual call per detector per frame, per-source state in
//! `std::collections` maps (SipHash on every lookup), and a
//! scratch-to-correlator drain after every event. The [`seed`] module
//! reconstructs it verbatim from the pre-rewrite sources so the
//! comparison measures per-source state layout, not detector tuning —
//! both engines run the same thresholds over the same pre-staged event
//! slices, and the bench asserts their incident lists are bit-identical
//! before it reports a single number.
//!
//! The workload is a deterministic multi-sensor campus under attack:
//! per sensor, a pool of well-behaved clients plus an interleaved MAC
//! spoof, a deauth burst, a wrong-channel BSSID clone, an evil twin, a
//! wired ARP poisoner — and a MAC-randomizing rogue spraying frames
//! from a never-repeating source address (the evasion suite's flagship
//! attacker). The randomizer is where the two diverge: the seed engine
//! grows a fresh hash-map entry per forged address and slides into
//! cache-miss territory, while the bounded tables recycle slots at fixed
//! cost. Incidents still have to match bit for bit — the persistent
//! attackers' slots survive the churn by LRU.
//!
//! Run modes:
//!   cargo bench -p rogue-bench --bench wids_throughput            # full
//!   cargo bench -p rogue-bench --bench wids_throughput -- --test  # smoke
//!
//! Writes `BENCH_wids_throughput.json` at the workspace root.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use rogue_dot11::MacAddr;
use rogue_netstack::Ipv4Addr;
use rogue_sim::rng::{Seed, SplitMix64};
use rogue_sim::SimTime;
use rogue_wids::event::ArpEvent;
use rogue_wids::{
    Dot11Event, Dot11Kind, IncidentCategory, SensorEvent, SensorId, WidsConfig, WidsPipeline,
};

/// The pre-rewrite per-frame engine, reconstructed from the sources at
/// the revision before the bounded-state engine landed. Detector logic is
/// copied unchanged (same thresholds, same latches, same alert weights);
/// only `detail` strings are trimmed — the equivalence check compares
/// incident fields, which never include them.
mod seed {
    use std::collections::{HashMap, HashSet};

    use rogue_detect::seqmon::{SeqMonConfig, SeqMonitor};
    use rogue_detect::AlarmKind as SeqAlarmKind;
    use rogue_dot11::MacAddr;
    use rogue_netstack::Ipv4Addr;
    use rogue_sim::trace::Metrics;
    use rogue_sim::{SimDuration, SimTime};
    use rogue_wids::correlate::CorrelatorConfig;
    use rogue_wids::event::SensorRing;
    use rogue_wids::{AlertKind, Correlator, Detector, Dot11Kind, Incident, RawAlert, SensorEvent};

    /// Seed seq-control adapter: unbounded `SeqMonitor` plus the AP-only
    /// channel-divergence gate over a `HashSet`.
    struct SeqControl {
        monitor: SeqMonitor,
        emitted: usize,
        ap_tas: HashSet<MacAddr>,
    }

    impl Detector for SeqControl {
        fn name(&self) -> &'static str {
            "seq-control"
        }

        fn on_event(&mut self, ev: &SensorEvent, out: &mut Vec<RawAlert>) {
            let SensorEvent::Dot11(e) = ev else { return };
            if e.kind == Dot11Kind::Ack {
                return;
            }
            if e.ta == e.bssid {
                self.ap_tas.insert(e.ta);
            }
            self.monitor
                .observe_frame(e.at, e.ta, e.seq, e.channel, e.retry);
            for alarm in &self.monitor.alarms[self.emitted..] {
                let (kind, weight) = match alarm.kind {
                    SeqAlarmKind::SequenceAnomaly => (AlertKind::SequenceAnomaly, 0.7),
                    SeqAlarmKind::ChannelDivergence if self.ap_tas.contains(&alarm.subject) => {
                        (AlertKind::ChannelDivergence, 0.9)
                    }
                    _ => continue,
                };
                out.push(RawAlert {
                    at: alarm.at,
                    detector: "seq-control",
                    subject: alarm.subject,
                    kind,
                    weight,
                    detail: alarm.detail.clone(),
                });
            }
            self.emitted = self.monitor.alarms.len();
        }
    }

    /// Seed beacon auditor: registry checks over `HashSet` latches.
    struct BeaconAudit {
        authorized: Vec<(MacAddr, u8)>,
        owned_ssids: HashSet<String>,
        alerted_spoof: HashSet<(MacAddr, u8)>,
        alerted_clone: HashSet<(String, MacAddr)>,
    }

    impl Detector for BeaconAudit {
        fn name(&self) -> &'static str {
            "beacon-audit"
        }

        fn on_event(&mut self, ev: &SensorEvent, out: &mut Vec<RawAlert>) {
            let SensorEvent::Dot11(e) = ev else { return };
            let Dot11Kind::Beacon { ssid, .. } = &e.kind else {
                return;
            };
            let bssid_known = self.authorized.iter().any(|(b, _)| *b == e.bssid);
            let pair_known = self
                .authorized
                .iter()
                .any(|(b, ch)| *b == e.bssid && *ch == e.channel);
            if pair_known {
                self.owned_ssids.insert(ssid.clone());
                return;
            }
            if bssid_known {
                if self.alerted_spoof.insert((e.bssid, e.channel)) {
                    out.push(RawAlert {
                        at: e.at,
                        detector: "beacon-audit",
                        subject: e.bssid,
                        kind: AlertKind::BssidSpoof,
                        weight: 0.9,
                        detail: format!("authorized BSSID on unregistered channel {}", e.channel),
                    });
                }
                return;
            }
            if self.owned_ssids.contains(ssid) && self.alerted_clone.insert((ssid.clone(), e.bssid))
            {
                out.push(RawAlert {
                    at: e.at,
                    detector: "beacon-audit",
                    subject: e.bssid,
                    kind: AlertKind::SsidClone,
                    weight: 0.6,
                    detail: format!("unregistered BSSID advertising owned SSID {ssid:?}"),
                });
            }
        }
    }

    /// Seed deauth-flood detector: exact per-transmitter sliding windows
    /// in a `HashMap` of timestamp vectors.
    struct DeauthFlood {
        threshold: u32,
        window: SimDuration,
        per_ta: HashMap<MacAddr, (Vec<SimTime>, bool)>,
    }

    impl Detector for DeauthFlood {
        fn name(&self) -> &'static str {
            "deauth-flood"
        }

        fn on_event(&mut self, ev: &SensorEvent, out: &mut Vec<RawAlert>) {
            let SensorEvent::Dot11(e) = ev else { return };
            let Dot11Kind::Deauth { .. } = e.kind else {
                return;
            };
            let (times, alerted) = self.per_ta.entry(e.ta).or_default();
            times.push(e.at);
            let window_start = SimTime(e.at.as_nanos().saturating_sub(self.window.as_nanos()));
            times.retain(|&t| t >= window_start);
            if times.len() as u32 >= self.threshold && !*alerted {
                *alerted = true;
                out.push(RawAlert {
                    at: e.at,
                    detector: "deauth-flood",
                    subject: e.ta,
                    kind: AlertKind::DeauthFlood,
                    weight: 0.85,
                    detail: format!("{} deauths within {}", times.len(), self.window),
                });
            }
        }
    }

    struct RssiState {
        last_rssi: f64,
        swings: Vec<SimTime>,
        alerted: bool,
    }

    /// Seed RSSI-consistency detector: per-(ta, sensor, channel) state
    /// in a tuple-keyed `HashMap`.
    struct RssiSplit {
        swing_db: f64,
        threshold: u32,
        window: SimDuration,
        per_ta: HashMap<(MacAddr, u16, u8), RssiState>,
    }

    impl Detector for RssiSplit {
        fn name(&self) -> &'static str {
            "rssi-split"
        }

        fn on_event(&mut self, ev: &SensorEvent, out: &mut Vec<RawAlert>) {
            let SensorEvent::Dot11(e) = ev else { return };
            if e.kind == Dot11Kind::Ack {
                return;
            }
            let key = (e.ta, e.sensor.0, e.channel);
            let st = match self.per_ta.get_mut(&key) {
                Some(st) => st,
                None => {
                    self.per_ta.insert(
                        key,
                        RssiState {
                            last_rssi: e.rssi_dbm,
                            swings: Vec::new(),
                            alerted: false,
                        },
                    );
                    return;
                }
            };
            let swing = (e.rssi_dbm - st.last_rssi).abs();
            st.last_rssi = e.rssi_dbm;
            if swing < self.swing_db {
                return;
            }
            st.swings.push(e.at);
            let window_start = SimTime(e.at.as_nanos().saturating_sub(self.window.as_nanos()));
            st.swings.retain(|&t| t >= window_start);
            if st.swings.len() as u32 >= self.threshold && !st.alerted {
                st.alerted = true;
                out.push(RawAlert {
                    at: e.at,
                    detector: "rssi-split",
                    subject: e.ta,
                    kind: AlertKind::RssiInconsistent,
                    weight: 0.5,
                    detail: format!("{} swings on channel {}", st.swings.len(), e.channel),
                });
            }
        }
    }

    /// Seed ARP-spoof detector: learned bindings and gratuitous-burst
    /// windows in `HashMap`s.
    struct ArpSpoof {
        gratuitous_threshold: u32,
        window: SimDuration,
        bindings: HashMap<Ipv4Addr, MacAddr>,
        alerted_conflicts: HashSet<(Ipv4Addr, MacAddr)>,
        gratuitous: HashMap<MacAddr, Vec<SimTime>>,
        alerted_bursts: HashSet<MacAddr>,
    }

    impl Detector for ArpSpoof {
        fn name(&self) -> &'static str {
            "arp-spoof"
        }

        fn on_event(&mut self, ev: &SensorEvent, out: &mut Vec<RawAlert>) {
            let SensorEvent::Arp(e) = ev else { return };
            match self.bindings.get(&e.sender_ip) {
                None => {
                    self.bindings.insert(e.sender_ip, e.sender_mac);
                }
                Some(&bound) if bound != e.sender_mac => {
                    if self.alerted_conflicts.insert((e.sender_ip, e.sender_mac)) {
                        out.push(RawAlert {
                            at: e.at,
                            detector: "arp-spoof",
                            subject: e.sender_mac,
                            kind: AlertKind::ArpSpoof,
                            weight: 0.9,
                            detail: format!("{} rebound from {bound}", e.sender_ip),
                        });
                    }
                }
                Some(_) => {}
            }
            if !e.gratuitous {
                return;
            }
            let times = self.gratuitous.entry(e.src_mac).or_default();
            times.push(e.at);
            let window_start = SimTime(e.at.as_nanos().saturating_sub(self.window.as_nanos()));
            times.retain(|&t| t >= window_start);
            if times.len() as u32 >= self.gratuitous_threshold
                && self.alerted_bursts.insert(e.src_mac)
            {
                out.push(RawAlert {
                    at: e.at,
                    detector: "arp-spoof",
                    subject: e.src_mac,
                    kind: AlertKind::ArpSpoof,
                    weight: 0.6,
                    detail: format!("{} gratuitous replies within {}", times.len(), self.window),
                });
            }
        }
    }

    /// The assembled pre-rewrite pipeline: ring -> boxed detectors in
    /// stage order -> per-event correlator drain.
    pub struct Pipeline {
        pub ring: SensorRing,
        detectors: Vec<Box<dyn Detector>>,
        correlator: Correlator,
        metrics: Metrics,
        scratch: Vec<RawAlert>,
    }

    impl Pipeline {
        pub fn new(
            authorized_aps: Vec<(MacAddr, u8)>,
            trusted: &[(Ipv4Addr, MacAddr)],
        ) -> Pipeline {
            let seq_cfg = SeqMonConfig::default();
            let mut arp = ArpSpoof {
                gratuitous_threshold: 4,
                window: SimDuration::from_secs(5),
                bindings: HashMap::new(),
                alerted_conflicts: HashSet::new(),
                gratuitous: HashMap::new(),
                alerted_bursts: HashSet::new(),
            };
            for &(ip, mac) in trusted {
                arp.bindings.insert(ip, mac);
            }
            Pipeline {
                ring: SensorRing::new(4096),
                detectors: vec![
                    Box::new(SeqControl {
                        monitor: SeqMonitor::new(seq_cfg),
                        emitted: 0,
                        ap_tas: HashSet::new(),
                    }),
                    Box::new(BeaconAudit {
                        authorized: authorized_aps,
                        owned_ssids: HashSet::new(),
                        alerted_spoof: HashSet::new(),
                        alerted_clone: HashSet::new(),
                    }),
                    Box::new(DeauthFlood {
                        threshold: 5,
                        window: SimDuration::from_secs(2),
                        per_ta: HashMap::new(),
                    }),
                    Box::new(RssiSplit {
                        swing_db: 12.0,
                        threshold: 4,
                        window: SimDuration::from_secs(2),
                        per_ta: HashMap::new(),
                    }),
                    Box::new(arp),
                ],
                correlator: Correlator::new(CorrelatorConfig::default()),
                metrics: Metrics::default(),
                scratch: Vec::new(),
            }
        }

        /// Drain the ring and dispatch every event through every boxed
        /// detector, draining alerts into the correlator per event —
        /// the seed engine's step loop.
        pub fn step(&mut self) {
            let mut events = self.ring.drain();
            events.sort_by_key(|e| e.at());
            for ev in &events {
                for det in &mut self.detectors {
                    det.on_event(ev, &mut self.scratch);
                }
                for alert in self.scratch.drain(..) {
                    self.correlator.ingest(&alert, &mut self.metrics);
                }
            }
        }

        pub fn incidents(&self) -> &[Incident] {
            self.correlator.incidents()
        }

        pub fn alerts_raw(&self) -> u64 {
            self.metrics.counter("wids.alerts_raw")
        }
    }
}

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
    // unique, so the global event order is unambiguous for both engines.
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
/// ring-sized slices both engines consume identically.
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

/// One timed run of the seed per-frame engine over pre-staged slices.
fn run_seed(sensors: usize, slices: Vec<Vec<SensorEvent>>) -> (f64, Vec<IncidentRow>, u64) {
    let trusted: Vec<(Ipv4Addr, MacAddr)> = (0..sensors)
        .map(|s| (Ipv4Addr::new(10, 0, s as u8, 1), MacAddr::local(254)))
        .collect();
    let mut pipe = seed::Pipeline::new(
        (0..sensors).map(|s| (ap_mac(s), chan(s))).collect(),
        &trusted,
    );
    let t0 = Instant::now();
    for slice in slices {
        for ev in slice {
            pipe.ring.push(ev);
        }
        pipe.step();
    }
    let dt = t0.elapsed().as_secs_f64();
    (dt, rows(pipe.incidents()), pipe.alerts_raw())
}

/// One timed run of the pipeline over the same slices. Each slice fits
/// the ring, and the step's stable time sort keeps the slice's order, so
/// the detectors see exactly the stream the seed engine sees.
fn run_engine(sensors: usize, slices: Vec<Vec<SensorEvent>>) -> (f64, Vec<IncidentRow>, u64, u64) {
    let mut pipe = WidsPipeline::new(wids_config(sensors));
    let t0 = Instant::now();
    for slice in slices {
        let mut last = SimTime::ZERO;
        for ev in slice {
            last = ev.at();
            pipe.ring.push(ev);
        }
        pipe.step(last);
    }
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(
        pipe.metrics().counter("wids.ring_dropped"),
        0,
        "slices must fit the ring"
    );
    let raw = pipe.metrics().counter("wids.alerts_raw");
    (dt, rows(pipe.incidents()), raw, pipe.state_evictions())
}

struct Sweep {
    sensors: usize,
    events: usize,
    seed_eps: f64,
    engine_eps: f64,
    speedup: f64,
    incidents: usize,
    incidents_per_s: f64,
    /// Raw-alert count difference vs the baseline (latch re-fires after
    /// bounded-table eviction; incident lists are asserted identical).
    raw_drift: u64,
}

fn measure(sensors: usize, events_per_sensor: usize, reps: usize, smoke: bool) -> Sweep {
    let slices = workload(sensors, events_per_sensor, Seed(0x3D1_BEEF));
    let events: usize = slices.iter().map(Vec::len).sum();

    let (mut seed_dt, mut engine_dt) = (f64::INFINITY, f64::INFINITY);
    let (mut seed_out, mut engine_out) = (None, None);
    for _ in 0..reps {
        let (dt, inc, raw) = run_seed(sensors, slices.clone());
        seed_dt = seed_dt.min(dt);
        seed_out = Some((inc, raw));
        let (dt, inc, raw, evictions) = run_engine(sensors, slices.clone());
        engine_dt = engine_dt.min(dt);
        // The randomizer must actually pressure the bounded tables —
        // otherwise the comparison isn't exercising the architecture.
        // (Smoke streams are too short to overflow a 4-way group.)
        assert!(
            smoke || evictions > 0,
            "churn must recycle bounded-table slots"
        );
        engine_out = Some((inc, raw));
    }
    let (seed_inc, seed_raw) = seed_out.unwrap();
    let (engine_inc, engine_raw) = engine_out.unwrap();
    assert!(!engine_inc.is_empty(), "workload must open incidents");
    assert_eq!(
        seed_inc, engine_inc,
        "engines diverged: seed per-frame baseline vs pipeline incidents"
    );
    // Raw alert counts are allowed a whisker of drift. Under churn
    // pressure the bounded tables may evict a latched alarm's slot and
    // re-fire the latch on the attacker's next frame; the unbounded
    // baseline remembers every latch forever. The duplicate never
    // reaches an incident (the lists above already matched bit for
    // bit) but the wire counter sees it — that is the memory/fidelity
    // trade the bounded engine makes, reported, not hidden.
    let raw_drift = engine_raw.abs_diff(seed_raw);
    assert!(
        raw_drift <= 2,
        "raw alert drift {raw_drift} exceeds latch re-fires \
         (baseline {seed_raw}, pipeline {engine_raw})"
    );

    let incidents = engine_inc.len();
    Sweep {
        sensors,
        events,
        seed_eps: events as f64 / seed_dt,
        engine_eps: events as f64 / engine_dt,
        speedup: seed_dt / engine_dt,
        incidents,
        incidents_per_s: incidents as f64 / engine_dt,
        raw_drift,
    }
}

fn write_json(path: &Path, sweeps: &[Sweep], mode: &str) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench\": \"wids_throughput\",")?;
    writeln!(f, "  \"mode\": \"{mode}\",")?;
    writeln!(
        f,
        "  \"baseline\": \"seed per-frame engine: boxed trait-object dispatch, SipHash map state\","
    )?;
    writeln!(f, "  \"sweep\": [")?;
    for (i, s) in sweeps.iter().enumerate() {
        let comma = if i + 1 < sweeps.len() { "," } else { "" };
        writeln!(
            f,
            "    {{\"sensors\": {}, \"events\": {}, \"baseline_eps\": {:.0}, \
             \"engine_eps\": {:.0}, \"speedup\": {:.2}, \"incidents\": {}, \
             \"incidents_per_s\": {:.1}, \"raw_alert_drift\": {}}}{comma}",
            s.sensors,
            s.events,
            s.seed_eps,
            s.engine_eps,
            s.speedup,
            s.incidents,
            s.incidents_per_s,
            s.raw_drift
        )?;
    }
    writeln!(f, "  ],")?;
    let at8 = sweeps
        .iter()
        .find(|s| s.sensors == 8)
        .map(|s| s.speedup)
        .unwrap_or(0.0);
    writeln!(f, "  \"speedup_at_8_sensors\": {at8:.2}")?;
    writeln!(f, "}}")?;
    Ok(())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let (events_per_sensor, reps, mode) = if smoke {
        (4_000, 1, "smoke")
    } else {
        (500_000, 3, "full")
    };

    println!("WIDS throughput: pipeline vs seed per-frame engine ({mode})");
    println!("| sensors | events | baseline ev/s | pipeline ev/s | speedup | incidents |");
    println!("|---------|--------|---------------|---------------|---------|-----------|");
    let mut sweeps = Vec::new();
    for sensors in [1, 2, 4, 8] {
        let s = measure(sensors, events_per_sensor, reps, smoke);
        println!(
            "| {} | {} | {:.0} | {:.0} | {:.2}x | {} |",
            s.sensors, s.events, s.seed_eps, s.engine_eps, s.speedup, s.incidents
        );
        sweeps.push(s);
    }

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_wids_throughput.json");
    write_json(&path, &sweeps, mode).expect("write bench json");
    println!("wrote {}", path.display());
}
