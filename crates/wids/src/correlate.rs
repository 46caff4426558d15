//! Alert correlation: dedup, fusion, incidents.
//!
//! Detectors are deliberately noisy; operators are not supposed to read
//! raw alerts. The correlator turns the alert firehose into a short list
//! of scored [`Incident`]s:
//!
//! 1. **dedup** — an identical claim (same detector, subject, kind)
//!    repeated within a short window is counted, not re-processed;
//! 2. **fusion** — surviving alerts accumulate per (category, subject)
//!    case file inside a sliding window, combined noisy-or style across
//!    *distinct* detectors: `score = 1 - prod(1 - w_d)`;
//! 3. **incidents** — a case file whose score crosses the open threshold
//!    becomes an incident; later corroboration updates it in place.
//!
//! One strong witness (weight >= the threshold) convicts alone; weak
//! witnesses must corroborate each other.
//!
//! Subjects are attacker-chosen: a MAC-randomizing twin mints a fresh
//! BSSID per beacon, and each one earns its own clone claim. The dedup
//! clock and the case files that have not opened yet therefore live in
//! [`BoundedTable`]s, LRU-by-touch like the detectors' per-source state,
//! so a flood of one-alert subjects recycles slots instead of growing the
//! correlator. A case that opened an incident leaves its table for an
//! index that grows only with the incident list, so it keeps updating
//! that incident and can never open a duplicate.

use std::collections::HashMap;

use rogue_dot11::MacAddr;
use rogue_sim::trace::Metrics;
use rogue_sim::{SimDuration, SimTime};

use crate::detector::{AlertKind, RawAlert};
use crate::sketch::{hash_mac, mix64, BoundedTable};

const CASE_GROUPS: usize = 256;
const CASE_WAYS: usize = 4;

/// Coarse incident taxonomy — what the operator (and E10's ground-truth
/// labels) reason in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IncidentCategory {
    /// An unauthorized access point impersonating or joining the site.
    RogueAp,
    /// A deauthentication flood.
    DeauthFlood,
    /// ARP-layer spoofing on a wired segment.
    ArpSpoof,
}

impl IncidentCategory {
    /// The category an alert kind contributes evidence toward.
    pub fn of(kind: AlertKind) -> IncidentCategory {
        match kind {
            AlertKind::SequenceAnomaly
            | AlertKind::ChannelDivergence
            | AlertKind::SsidClone
            | AlertKind::BssidSpoof
            | AlertKind::RssiInconsistent
            | AlertKind::SsidChurn
            | AlertKind::CloakedTwin
            | AlertKind::KarmaProbe => IncidentCategory::RogueAp,
            AlertKind::DeauthFlood => IncidentCategory::DeauthFlood,
            AlertKind::ArpSpoof => IncidentCategory::ArpSpoof,
        }
    }
}

/// A fused, scored security incident.
#[derive(Clone, Debug)]
pub struct Incident {
    /// Dense identifier in opening order.
    pub id: u32,
    /// Taxonomy bucket.
    pub category: IncidentCategory,
    /// The offending address the evidence converges on.
    pub subject: MacAddr,
    /// When the score first crossed the open threshold.
    pub opened_at: SimTime,
    /// Most recent supporting alert.
    pub last_evidence_at: SimTime,
    /// Noisy-or fused confidence in [0, 1).
    pub score: f64,
    /// Alerts fused into this incident (after dedup).
    pub alerts_fused: u32,
    /// Distinct detectors that contributed.
    pub detectors: Vec<&'static str>,
}

/// Correlation tuning.
#[derive(Clone, Debug)]
pub struct CorrelatorConfig {
    /// Repeats of an identical claim inside this window are counted as
    /// duplicates rather than fresh evidence.
    pub dedup_window: SimDuration,
    /// Evidence older than this no longer corroborates a case file that
    /// has not yet opened.
    pub fuse_window: SimDuration,
    /// Fused score needed to open an incident.
    pub open_threshold: f64,
}

impl Default for CorrelatorConfig {
    fn default() -> Self {
        CorrelatorConfig {
            dedup_window: SimDuration::from_millis(500),
            fuse_window: SimDuration::from_secs(5),
            open_threshold: 0.8,
        }
    }
}

/// Per-(category, subject) evidence accumulator.
#[derive(Default)]
struct CaseFile {
    /// Best weight seen per distinct detector, with its arrival time.
    witnesses: Vec<(&'static str, f64, SimTime)>,
    alerts_fused: u32,
}

impl CaseFile {
    /// Count one alert as its detector's witness; returns the fused
    /// noisy-or score.
    fn fuse(&mut self, alert: &RawAlert) -> f64 {
        self.alerts_fused += 1;
        match self
            .witnesses
            .iter_mut()
            .find(|(d, _, _)| *d == alert.detector)
        {
            Some(w) => {
                w.1 = w.1.max(alert.weight);
                w.2 = alert.at;
            }
            None => self
                .witnesses
                .push((alert.detector, alert.weight, alert.at)),
        }
        1.0 - self
            .witnesses
            .iter()
            .map(|&(_, w, _)| 1.0 - w)
            .product::<f64>()
    }
}

type CaseKey = (IncidentCategory, MacAddr);

/// The correlation engine.
pub struct Correlator {
    cfg: CorrelatorConfig,
    /// When each (detector, subject, kind) claim last counted.
    last_claim: BoundedTable<(&'static str, MacAddr, AlertKind), Option<SimTime>>,
    /// Case files still below the open threshold.
    pending: BoundedTable<CaseKey, CaseFile>,
    /// Case files that opened an incident, with its index.
    opened: HashMap<CaseKey, (usize, CaseFile)>,
    incidents: Vec<Incident>,
}

impl Correlator {
    /// Engine with the given tuning.
    pub fn new(cfg: CorrelatorConfig) -> Correlator {
        Correlator {
            cfg,
            last_claim: BoundedTable::new(CASE_GROUPS, CASE_WAYS),
            pending: BoundedTable::new(CASE_GROUPS, CASE_WAYS),
            opened: HashMap::new(),
            incidents: Vec::new(),
        }
    }

    /// Feed one raw alert; updates metrics and possibly opens or
    /// reinforces an incident.
    pub fn ingest(&mut self, alert: &RawAlert, metrics: &mut Metrics) {
        metrics.incr("wids.alerts_raw");
        let subject_hash = hash_mac(&alert.subject.0);
        // Dedup identical claims.
        let claim = (alert.detector, alert.subject, alert.kind);
        let last = self.last_claim.entry(
            alert.at,
            mix64(subject_hash ^ alert.kind as u64),
            claim,
            || None,
        );
        if let Some(prev) = *last {
            if alert.at.as_nanos().saturating_sub(prev.as_nanos())
                < self.cfg.dedup_window.as_nanos()
            {
                metrics.incr("wids.alerts_deduped");
                return;
            }
        }
        *last = Some(alert.at);

        let key = (IncidentCategory::of(alert.kind), alert.subject);
        if let Some((idx, case)) = self.opened.get_mut(&key) {
            let score = case.fuse(alert);
            let inc = &mut self.incidents[*idx];
            inc.score = score;
            inc.last_evidence_at = alert.at;
            inc.alerts_fused = case.alerts_fused;
            if !inc.detectors.contains(&alert.detector) {
                inc.detectors.push(alert.detector);
            }
            return;
        }
        let case_hash = mix64(subject_hash ^ key.0 as u64);
        let case = self
            .pending
            .entry(alert.at, case_hash, key, CaseFile::default);
        // Until the case opens, stale witnesses age out of the window.
        let horizon = SimTime(
            alert
                .at
                .as_nanos()
                .saturating_sub(self.cfg.fuse_window.as_nanos()),
        );
        case.witnesses.retain(|&(_, _, t)| t >= horizon);
        let score = case.fuse(alert);
        if score < self.cfg.open_threshold {
            return;
        }
        let case = self
            .pending
            .remove(case_hash, key)
            .expect("the case was just touched");
        let id = self.incidents.len() as u32;
        metrics.incr("wids.incidents_opened");
        metrics.observe("wids.incident_score", score);
        self.incidents.push(Incident {
            id,
            category: key.0,
            subject: key.1,
            opened_at: alert.at,
            last_evidence_at: alert.at,
            score,
            alerts_fused: case.alerts_fused,
            detectors: case.witnesses.iter().map(|&(d, _, _)| d).collect(),
        });
        self.opened.insert(key, (id as usize, case));
    }

    /// Fixed footprint of the dedup and pending-case tables, in bytes.
    pub fn state_bytes(&self) -> usize {
        self.last_claim.bytes() + self.pending.bytes()
    }

    /// Entries held: dedup claims, pending case files and opened cases.
    /// At most the two tables' capacity plus one per incident.
    pub fn tracked(&self) -> usize {
        self.last_claim.tracked() + self.pending.tracked() + self.opened.len()
    }

    /// Dedup claims and pending cases recycled under subject pressure.
    pub fn evictions(&self) -> u64 {
        self.last_claim.evictions + self.pending.evictions
    }

    /// Incidents opened so far, in opening order.
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alert(
        ms: u64,
        detector: &'static str,
        subject: MacAddr,
        kind: AlertKind,
        weight: f64,
    ) -> RawAlert {
        RawAlert {
            at: SimTime::from_millis(ms),
            detector,
            subject,
            kind,
            weight,
            detail: String::new(),
        }
    }

    #[test]
    fn strong_single_witness_opens_immediately() {
        let mut c = Correlator::new(CorrelatorConfig::default());
        let mut m = Metrics::default();
        c.ingest(
            &alert(
                100,
                "beacon-audit",
                MacAddr::local(1),
                AlertKind::BssidSpoof,
                0.9,
            ),
            &mut m,
        );
        assert_eq!(c.incidents().len(), 1);
        let inc = &c.incidents()[0];
        assert_eq!(inc.category, IncidentCategory::RogueAp);
        assert_eq!(inc.opened_at, SimTime::from_millis(100));
        assert!(inc.score >= 0.9);
    }

    #[test]
    fn weak_witnesses_corroborate() {
        let mut c = Correlator::new(CorrelatorConfig::default());
        let mut m = Metrics::default();
        let s = MacAddr::local(1);
        c.ingest(
            &alert(0, "seq-control", s, AlertKind::SequenceAnomaly, 0.7),
            &mut m,
        );
        assert!(c.incidents().is_empty(), "0.7 < 0.8 alone");
        c.ingest(
            &alert(100, "rssi-split", s, AlertKind::RssiInconsistent, 0.5),
            &mut m,
        );
        assert_eq!(c.incidents().len(), 1, "1-0.3*0.5 = 0.85 >= 0.8");
        let inc = &c.incidents()[0];
        assert_eq!(inc.detectors.len(), 2);
        assert!((inc.score - 0.85).abs() < 1e-9);
    }

    #[test]
    fn duplicate_claims_dedup_not_stack() {
        let mut c = Correlator::new(CorrelatorConfig::default());
        let mut m = Metrics::default();
        let s = MacAddr::local(1);
        // The same 0.7 claim repeated fast must never cross 0.8.
        for i in 0..20u64 {
            c.ingest(
                &alert(i * 50, "seq-control", s, AlertKind::SequenceAnomaly, 0.7),
                &mut m,
            );
        }
        assert!(c.incidents().is_empty(), "{:?}", c.incidents());
        assert!(m.counter("wids.alerts_deduped") > 0);
    }

    #[test]
    fn distinct_subjects_get_distinct_incidents() {
        let mut c = Correlator::new(CorrelatorConfig::default());
        let mut m = Metrics::default();
        c.ingest(
            &alert(
                0,
                "beacon-audit",
                MacAddr::local(1),
                AlertKind::BssidSpoof,
                0.9,
            ),
            &mut m,
        );
        c.ingest(
            &alert(
                10,
                "deauth-flood",
                MacAddr::local(2),
                AlertKind::DeauthFlood,
                0.85,
            ),
            &mut m,
        );
        assert_eq!(c.incidents().len(), 2);
        assert_eq!(c.incidents()[1].category, IncidentCategory::DeauthFlood);
        assert_eq!(m.counter("wids.incidents_opened"), 2);
    }

    #[test]
    fn stale_evidence_ages_out_before_opening() {
        let mut c = Correlator::new(CorrelatorConfig::default());
        let mut m = Metrics::default();
        let s = MacAddr::local(1);
        c.ingest(
            &alert(0, "seq-control", s, AlertKind::SequenceAnomaly, 0.7),
            &mut m,
        );
        // 6 s later — outside the 5 s fuse window, so 0.5 stands alone.
        c.ingest(
            &alert(6000, "rssi-split", s, AlertKind::RssiInconsistent, 0.5),
            &mut m,
        );
        assert!(c.incidents().is_empty(), "{:?}", c.incidents());
    }

    #[test]
    fn corroboration_updates_open_incident() {
        let mut c = Correlator::new(CorrelatorConfig::default());
        let mut m = Metrics::default();
        let s = MacAddr::local(1);
        c.ingest(
            &alert(0, "beacon-audit", s, AlertKind::BssidSpoof, 0.9),
            &mut m,
        );
        c.ingest(
            &alert(700, "seq-control", s, AlertKind::SequenceAnomaly, 0.7),
            &mut m,
        );
        assert_eq!(c.incidents().len(), 1, "reinforced, not duplicated");
        let inc = &c.incidents()[0];
        assert_eq!(inc.detectors.len(), 2);
        assert!(inc.score > 0.9);
        assert_eq!(inc.last_evidence_at, SimTime::from_millis(700));
    }
}
