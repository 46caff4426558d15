//! The WIDS pipeline: sensors -> ring -> detectors -> correlator.
//!
//! The pipeline is stepped from the outside, in lockstep with the
//! simulation: run a slice, let each sensor drain into the ring, then
//! [`WidsPipeline::step`] dispatches everything buffered. The step
//! stable-sorts what it drained by timestamp, so detectors always see
//! one time-ordered stream, identically on every run — determinism is a
//! property of the pipeline, not of sensor polling order.
//!
//! Each event then visits the six detectors in a fixed order, and the
//! alerts it raised reach the correlator before the next event does.
//! Steps are small: about 2 events in E9, 3 in E10 and 37 on the campus
//! workload. Per-source detector state and the correlator's pending
//! cases live in bounded tables ([`crate::sketch`]), so a step's cost
//! does not grow with the number of addresses an attacker mints.

use rogue_dot11::MacAddr;
use rogue_netstack::Ipv4Addr;
use rogue_sim::trace::Metrics;
use rogue_sim::SimTime;

use crate::correlate::{Correlator, Incident};
use crate::detector::{Detector, RawAlert};
use crate::detectors::{
    ArpSpoofDetector, BeaconDetector, DeauthFloodDetector, ProbeAuditDetector, RssiSplitDetector,
    SeqControlDetector,
};
use crate::event::{SensorId, SensorRing};

/// Whole-pipeline configuration: what a deployment knows about its site.
/// The detectors' and the correlator's thresholds are constants beside
/// the code that reads them (DESIGN §8).
#[derive(Clone, Debug)]
pub struct WidsConfig {
    /// Bounded ring capacity between sensors and detectors.
    pub ring_capacity: usize,
    /// Authorized (BSSID, channel) registry for the beacon and probe
    /// auditors.
    pub authorized_aps: Vec<(MacAddr, u8)>,
    /// Trusted wired IP -> MAC bindings for the ARP detector.
    pub trusted_bindings: Vec<(Ipv4Addr, MacAddr)>,
}

impl Default for WidsConfig {
    fn default() -> Self {
        WidsConfig {
            ring_capacity: 4096,
            authorized_aps: Vec::new(),
            trusted_bindings: Vec::new(),
        }
    }
}

/// The assembled intrusion-detection pipeline.
pub struct WidsPipeline {
    /// Sensors push digested events here.
    pub ring: SensorRing,
    seq: SeqControlDetector,
    beacon: BeaconDetector,
    deauth: DeauthFloodDetector,
    rssi: RssiSplitDetector,
    arp: ArpSpoofDetector,
    probe: ProbeAuditDetector,
    correlator: Correlator,
    metrics: Metrics,
    next_sensor: u16,
    drops_reported: u64,
    scratch: Vec<RawAlert>,
    /// Simulation time of the most recent [`WidsPipeline::step`].
    pub last_step_at: SimTime,
}

impl WidsPipeline {
    /// Pipeline with the standard six-detector suite.
    pub fn new(cfg: WidsConfig) -> WidsPipeline {
        let mut arp = ArpSpoofDetector::default();
        for (ip, mac) in &cfg.trusted_bindings {
            arp.trust(*ip, *mac);
        }
        WidsPipeline {
            ring: SensorRing::new(cfg.ring_capacity),
            seq: SeqControlDetector::default(),
            beacon: BeaconDetector::new(&cfg.authorized_aps),
            deauth: DeauthFloodDetector::default(),
            rssi: RssiSplitDetector::default(),
            arp,
            probe: ProbeAuditDetector::new(&cfg.authorized_aps),
            correlator: Correlator::default(),
            metrics: Metrics::default(),
            next_sensor: 0,
            drops_reported: 0,
            scratch: Vec::new(),
            last_step_at: SimTime::ZERO,
        }
    }

    /// Allocate the next sensor identity.
    pub fn new_sensor_id(&mut self) -> SensorId {
        let id = SensorId(self.next_sensor);
        self.next_sensor += 1;
        id
    }

    /// Dispatch everything buffered in the ring through the detector
    /// suite and the correlator. Returns how many events were processed.
    pub fn step(&mut self, now: SimTime) -> usize {
        self.last_step_at = now;
        self.metrics.incr("wids.steps");
        let mut events = self.ring.drain();
        // Sensors push their batches one after another, each in time
        // order; a stable sort interleaves them and keeps same-instant
        // events in push order.
        events.sort_by_key(|e| e.at());
        let n = events.len();
        self.metrics.add("wids.events", n as u64);
        let new_drops = self.ring.dropped - self.drops_reported;
        if new_drops > 0 {
            self.metrics.add("wids.ring_dropped", new_drops);
            self.drops_reported = self.ring.dropped;
        }
        for ev in &events {
            self.seq.on_event(ev, &mut self.scratch);
            self.beacon.on_event(ev, &mut self.scratch);
            self.deauth.on_event(ev, &mut self.scratch);
            self.rssi.on_event(ev, &mut self.scratch);
            self.arp.on_event(ev, &mut self.scratch);
            self.probe.on_event(ev, &mut self.scratch);
            for alert in self.scratch.drain(..) {
                self.correlator.ingest(&alert, &mut self.metrics);
            }
        }
        n
    }

    /// Incidents opened so far, in opening order.
    pub fn incidents(&self) -> &[Incident] {
        self.correlator.incidents()
    }

    /// Pipeline metrics (event, alert and incident counters).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The correlator fusing the suite's alerts.
    pub fn correlator(&self) -> &Correlator {
        &self.correlator
    }

    /// Bound on the pipeline's per-source state (the detectors' tables
    /// and sketches plus the correlator's dedup and pending-case tables),
    /// in bytes: their footprint with every group and sketch counter
    /// allocated. Fixed by the configuration — the bounded-memory suite
    /// pins that no flood moves it. Storage under it is allocated on
    /// first write; [`WidsPipeline::detector_resident_bytes`] reports
    /// how much.
    pub fn detector_state_bytes(&self) -> usize {
        self.seq.state_bytes()
            + self.beacon.state_bytes()
            + self.rssi.state_bytes()
            + self.deauth.state_bytes()
            + self.arp.state_bytes()
            + self.probe.state_bytes()
            + self.correlator.state_bytes()
    }

    /// The part of the same state allocated so far, in bytes: every
    /// table's group directory plus the groups and sketch counters that
    /// have been written. Grows with the sources the traffic carries
    /// until the tables saturate, never with the sources past that.
    pub fn detector_resident_bytes(&self) -> usize {
        self.seq.resident_bytes()
            + self.beacon.resident_bytes()
            + self.rssi.resident_bytes()
            + self.deauth.resident_bytes()
            + self.arp.resident_bytes()
            + self.probe.resident_bytes()
            + self.correlator.resident_bytes()
    }

    /// SSIDs the beacon and the probe auditor have learned as owned, in
    /// that order: at most one per registry entry each.
    pub fn owned_ssid_counts(&self) -> (usize, usize) {
        (
            self.beacon.owned_ssid_count(),
            self.probe.owned_ssid_count(),
        )
    }

    /// Transmitters currently tracked by the sequence-control stage
    /// (bounded by its table capacity).
    pub fn tracked_sources(&self) -> usize {
        self.seq.tracked_sources()
    }

    /// Per-source and per-subject table entries recycled under
    /// cardinality pressure.
    pub fn state_evictions(&self) -> u64 {
        self.seq.evictions() + self.rssi.evictions() + self.correlator.evictions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlate::IncidentCategory;
    use crate::event::{Dot11Event, Dot11Kind, SensorEvent};

    fn beacon(ms: u64, bssid: MacAddr, ssid: &str, channel: u8, sensor: u16) -> SensorEvent {
        SensorEvent::Dot11(Dot11Event {
            sensor: SensorId(sensor),
            at: SimTime::from_millis(ms),
            channel,
            rssi_dbm: -40.0,
            ta: bssid,
            ra: MacAddr::BROADCAST,
            bssid,
            seq: (ms % 4096) as u16,
            retry: false,
            kind: Dot11Kind::Beacon {
                ssid: ssid.into(),
                claimed_channel: channel,
                capability: 0,
                probe_resp: false,
            },
        })
    }

    #[test]
    fn spoofed_bssid_becomes_a_rogue_ap_incident() {
        let corp = MacAddr::local(1);
        let mut p = WidsPipeline::new(WidsConfig {
            authorized_aps: vec![(corp, 1)],
            ..WidsConfig::default()
        });
        p.ring.push(beacon(0, corp, "CORP", 1, 0));
        p.ring.push(beacon(100, corp, "CORP", 6, 1));
        assert_eq!(p.step(SimTime::from_millis(200)), 2);
        let inc = p
            .incidents()
            .iter()
            .find(|i| i.category == IncidentCategory::RogueAp)
            .expect("incident");
        assert_eq!(inc.subject, corp);
        assert_eq!(p.metrics().counter("wids.incidents_opened"), 1);
    }

    #[test]
    fn step_orders_events_across_sensors() {
        let corp = MacAddr::local(1);
        let mut p = WidsPipeline::new(WidsConfig {
            authorized_aps: vec![(corp, 1)],
            ..WidsConfig::default()
        });
        // Sensor 1's batch lands in the ring before sensor 0's earlier
        // capture; the incident must still open at the true first sight.
        p.ring.push(beacon(300, corp, "CORP", 6, 1));
        p.ring.push(beacon(250, corp, "CORP", 6, 0));
        p.step(SimTime::from_millis(400));
        let inc = p
            .incidents()
            .iter()
            .find(|i| i.category == IncidentCategory::RogueAp)
            .unwrap();
        assert_eq!(inc.opened_at, SimTime::from_millis(250));
    }

    #[test]
    fn sensor_ids_are_dense() {
        let mut p = WidsPipeline::new(WidsConfig::default());
        assert_eq!(p.new_sensor_id(), SensorId(0));
        assert_eq!(p.new_sensor_id(), SensorId(1));
        assert_eq!(p.new_sensor_id(), SensorId(2));
    }
}
