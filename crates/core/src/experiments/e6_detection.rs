//! **E6 — §2.3: detecting the rogue.**
//!
//! "Good record keeping and doing radio site audits will help detect
//! these rogues. These techniques rely on monitoring 802.11b Sequence
//! Control numbers."
//!
//! A defender's monitor radio sweeps the channels; after the run one
//! WIDS sensor drains its capture and every event visits two
//! `rogue-wids` detectors, called directly rather than through a
//! pipeline:
//!
//! * the **beacon auditor** — the site audit against a registry holding
//!   the corp AP on channel 1: the same BSSID beaconing on any other
//!   channel is Figure 1's cloned-BSSID rogue,
//! * the **sequence-control detector** (two radios behind one transmitter
//!   address produce interleaved counters / channel divergence).
//!
//! A **wired monitor** on the corp switch completes §2.3's list. Here it
//! has nothing to inspect: no frame crosses the corp switch during E6,
//! so its silent column cannot fail. Where traffic does cross — the E2
//! download — it stays silent too, because the MITM gateway's uplink
//! relays the victim under the cloned, registered employee MAC (§2.1);
//! without MAC filtering the uplink's own address is the one stranger
//! (both runs are in `tests/paper_claims.rs`). That silence is the
//! paper's §1 argument: "if an AP is not connected to the internal
//! network, it is not a threat" is exactly the logic this attack
//! defeats.

use rogue_dot11::monitor::Sniffer;
use rogue_phy::Pos;
use rogue_sim::{Seed, SimDuration, SimTime};
use rogue_wids::{
    AlertKind, BeaconDetector, Detector, RadioSensor, RawAlert, SensorId, SensorRing,
    SeqControlDetector,
};

use super::{mean_or_nan, rate, replicate};
use crate::report::{pct, Table};
use crate::scenario::{build_corp, corp_bssid, CorpScenarioCfg, RogueCfg};

/// What E6's two radio detectors made of one sweep capture.
struct SweepAlerts {
    /// The sequence-control detector's alerts.
    seq: Vec<RawAlert>,
    /// The beacon auditor's alerts.
    beacon: Vec<RawAlert>,
    /// Broadcast beacons the auditor inspected.
    beacons_seen: u64,
}

/// Drain a finished capture into one sensor ring and feed every event to
/// the sequence-control detector and to the beacon auditor, whose
/// registry holds the corp AP on channel 1.
fn audit_sweep(sniffer: &Sniffer) -> SweepAlerts {
    let mut ring = SensorRing::new(sniffer.captures.len().max(1));
    RadioSensor::new(SensorId(0)).drain(sniffer, &mut ring);
    let mut seq = SeqControlDetector::default();
    let mut beacon = BeaconDetector::new(&[(corp_bssid(), 1)]);
    let (mut seq_alerts, mut beacon_alerts) = (Vec::new(), Vec::new());
    for ev in ring.drain() {
        seq.on_event(&ev, &mut seq_alerts);
        beacon.on_event(&ev, &mut beacon_alerts);
    }
    SweepAlerts {
        seq: seq_alerts,
        beacon: beacon_alerts,
        beacons_seen: beacon.beacons_seen,
    }
}

/// One replication's detection outcome.
#[derive(Clone, Debug)]
pub struct DetectionOutcome {
    /// When the rogue came on air.
    pub rogue_start: SimTime,
    /// Site-audit detection (the corp BSSID beaconing off its registered
    /// channel): latency from rogue start, seconds.
    pub audit_latency_secs: Option<f64>,
    /// Sequence/channel anomaly detection latency, seconds.
    pub seqmon_latency_secs: Option<f64>,
    /// Did the wired monitor report a stranger? No frame crosses the
    /// corp switch during E6, so it never does here.
    pub wired_alarmed: bool,
    /// Beacons the sweep captured.
    pub beacons_captured: usize,
}

/// Run one detection replication: the defender's monitor hops across
/// `channels`, dwelling `dwell` on each, while the rogue (and deauth
/// flood) come up mid-run.
pub fn run_detection_once(dwell: SimDuration, run_time: SimTime, seed: Seed) -> DetectionOutcome {
    let rogue_start = SimTime::from_secs(2);
    let mut cfg = CorpScenarioCfg::paper_attack();
    cfg.wired_monitor = true;
    cfg.rogue = Some(RogueCfg {
        start_at: rogue_start,
        deauth_victim: true,
        ..RogueCfg::default()
    });
    let mut sc = build_corp(&cfg, seed);

    // The defender: a monitor radio placed between the APs.
    let defender = sc.world.add_node("defender");
    let mon = sc.world.add_monitor(defender, Pos::new(20.0, 10.0), 1);

    // Channel-hopping sweep: run in dwell-sized slices.
    let channels: Vec<u8> = (1..=11).collect();
    let mut now = SimTime::ZERO;
    let mut ch_idx = 0usize;
    while now < run_time {
        sc.world
            .set_radio_channel(defender, mon, channels[ch_idx % channels.len()]);
        ch_idx += 1;
        now = now.saturating_add(dwell).min(run_time);
        sc.world.run_until(now);
    }

    // Feed the detectors.
    let sweep = audit_sweep(sc.world.sniffer(defender, mon));
    let audit_alarm = sweep
        .beacon
        .iter()
        .filter(|a| a.kind == AlertKind::BssidSpoof && a.at >= rogue_start)
        .map(|a| a.at)
        .min();
    let seq_alarm = sweep
        .seq
        .iter()
        .filter(|a| a.subject == corp_bssid() && a.at >= rogue_start)
        .map(|a| a.at)
        .min();

    let census = sc.wired_census().expect("wired monitor deployed");
    let wired_alarmed = !census.strangers.is_empty();

    let latency = |t: Option<SimTime>| {
        t.filter(|t| *t >= rogue_start)
            .map(|t| t.since(rogue_start).as_secs_f64())
    };
    DetectionOutcome {
        rogue_start,
        audit_latency_secs: latency(audit_alarm),
        seqmon_latency_secs: latency(seq_alarm),
        wired_alarmed,
        beacons_captured: sweep.beacons_seen as usize,
    }
}

/// One row of the dwell sweep.
#[derive(Clone, Debug)]
pub struct DetectionPoint {
    /// Sweep dwell per channel, ms.
    pub dwell_ms: u64,
    /// Replications.
    pub reps: usize,
    /// Fraction where the site audit caught the rogue.
    pub audit_detection_rate: f64,
    /// Mean audit latency over detecting runs, seconds.
    pub mean_audit_latency_secs: f64,
    /// Fraction where the sequence monitor caught it.
    pub seqmon_detection_rate: f64,
    /// Fraction where the wired monitor alarmed (expected 0).
    pub wired_alarm_rate: f64,
}

/// Sweep the auditor's per-channel dwell.
pub fn detection_vs_dwell(dwells_ms: &[u64], reps: usize, seed: Seed) -> Vec<DetectionPoint> {
    let outcomes = replicate(dwells_ms, reps, |&dwell_ms, rep| {
        run_detection_once(
            SimDuration::from_millis(dwell_ms),
            SimTime::from_secs(15),
            seed.fork(dwell_ms * 31 + rep as u64),
        )
    });
    dwells_ms
        .iter()
        .zip(outcomes)
        .map(|(&dwell_ms, outcomes)| {
            let audit_hits: Vec<f64> = outcomes
                .iter()
                .filter_map(|o| o.audit_latency_secs)
                .collect();
            DetectionPoint {
                dwell_ms,
                reps: outcomes.len(),
                audit_detection_rate: rate(&outcomes, |o| o.audit_latency_secs.is_some()),
                mean_audit_latency_secs: mean_or_nan(&audit_hits),
                seqmon_detection_rate: rate(&outcomes, |o| o.seqmon_latency_secs.is_some()),
                wired_alarm_rate: rate(&outcomes, |o| o.wired_alarmed),
            }
        })
        .collect()
}

/// The E6 report body: detection by the site audit and the sequence
/// monitor, and the wired monitor's alarms, per sweep dwell.
pub fn report_body(reps: usize, seed: Seed) -> String {
    let mut t = Table::new(&[
        "dwell ms",
        "audit detect",
        "audit latency s",
        "seqmon detect",
        "wired alarm",
    ]);
    for r in &detection_vs_dwell(&[100, 250, 500, 1000], reps, seed) {
        t.row(&[
            r.dwell_ms.to_string(),
            pct(r.audit_detection_rate),
            format!("{:.2}", r.mean_audit_latency_secs),
            pct(r.seqmon_detection_rate),
            pct(r.wired_alarm_rate),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_detects_cloned_bssid() {
        let o = run_detection_once(
            SimDuration::from_millis(250),
            SimTime::from_secs(15),
            Seed(61),
        );
        assert!(o.beacons_captured > 10, "{o:?}");
        assert!(
            o.audit_latency_secs.is_some(),
            "site audit must flag the duplicate BSSID: {o:?}"
        );
        assert!(
            o.seqmon_latency_secs.is_some(),
            "channel divergence must trip the sequence monitor: {o:?}"
        );
    }

    #[test]
    fn wired_monitor_stays_silent() {
        // Nothing crosses the corp switch during the sweep.
        let o = run_detection_once(
            SimDuration::from_millis(250),
            SimTime::from_secs(10),
            Seed(62),
        );
        assert!(!o.wired_alarmed, "{o:?}");
    }

    #[test]
    fn no_rogue_no_alarm() {
        let cfg = CorpScenarioCfg::baseline();
        let mut sc = build_corp(&cfg, Seed(63));
        let defender = sc.world.add_node("defender");
        let mon = sc.world.add_monitor(defender, Pos::new(20.0, 10.0), 1);
        let mut now = SimTime::ZERO;
        let mut ch = 1u8;
        while now < SimTime::from_secs(8) {
            sc.world.set_radio_channel(defender, mon, ch);
            ch = if ch >= 11 { 1 } else { ch + 1 };
            now = now.saturating_add(SimDuration::from_millis(250));
            sc.world.run_until(now);
        }
        let sweep = audit_sweep(sc.world.sniffer(defender, mon));
        assert!(sweep.beacon.is_empty(), "{:?}", sweep.beacon);
        assert!(sweep.beacons_seen > 0, "the sweep heard the corp AP");
        assert!(
            !sweep.seq.iter().any(|a| a.subject == corp_bssid()),
            "healthy AP must not trip the sequence detector"
        );
    }
}
