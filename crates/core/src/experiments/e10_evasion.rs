//! **E10-evasion (extension) — scoring the WIDS against attackers built
//! to dodge it.**
//!
//! E10 proves the pipeline catches the paper's loud §4 attack. This
//! harness runs the *adversarial* counterparts from
//! `rogue_attack::evasion` — each engineered against one detector's
//! blind spot — and scores precision/recall per variant, with a pinned
//! floor per cell the test suite enforces:
//!
//! * **mac-randomizing** — beacons an owned SSID from a fresh BSSID
//!   every 500 ms, so no single address accumulates evidence. Caught by
//!   the beacon auditor's BSSID-churn count (distinct clone BSSIDs per
//!   owned SSID, not per-address state);
//! * **karma-cloaked** — broadcast beacons are cloaked (empty SSID) and
//!   every real name travels in directed probe responses only. Caught
//!   by the probe auditor (cloaked-twin + karma distinct-SSID count);
//! * **low-power-stealth** — a faint clone of the corporate BSSID
//!   beaconing at a 800 ms interval from far out. Fewer, weaker frames
//!   stretch detection latency but the spoof/divergence evidence still
//!   lands;
//! * **pulsed-deauth** — deauth bursts of 4 frames 450 ms apart, one
//!   burst every 3 s: the 5-in-2-s burst window never fills. Caught by
//!   the flood detector's long horizon (12 in 20 s).

use rogue_attack::{DeauthFlooder, KarmaProbeRogue, MacRandomizingRogue, SpoofBeaconer};
use rogue_dot11::MacAddr;
use rogue_phy::Pos;
use rogue_sim::{Seed, SimDuration, SimTime};
use rogue_wids::{EvalOutcome, IncidentCategory, TruthLabel};

use super::e10_wids::{run_scored, score_cell, WidsRow, WidsRunOutcome, WidsRunParams};
use super::replicate;
use crate::report::Table;
use crate::scenario::{corp_bssid, victim_mac, CorpScenario, CorpScenarioCfg};

/// Parameters of the evasion driver. Defaults are what the checked-in
/// report and the `scenarios/evasion/` files pin.
#[derive(Clone, Debug)]
pub struct E10EvasionParams {
    /// The replication shared with E10; `attack_start` is when the
    /// evading attacker powers on, and the horizon is long enough for
    /// the pulsed flood's 12th frame at attack start + 7.35 s.
    pub run: WidsRunParams,
    /// Variants scored, in table order.
    pub variants: Vec<EvasionVariant>,
}

impl Default for E10EvasionParams {
    fn default() -> E10EvasionParams {
        E10EvasionParams {
            run: WidsRunParams {
                run_time: SimTime::from_secs(12),
                ..WidsRunParams::default()
            },
            variants: EvasionVariant::all().to_vec(),
        }
    }
}

/// The evasion attacker variants scored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvasionVariant {
    /// BSSID re-randomized every 500 ms while luring with an owned SSID.
    MacRandomizing,
    /// Cloaked beacons; owned SSID advertised only in probe responses,
    /// cycling lure names karma-style.
    KarmaCloaked,
    /// Faint, slow-beaconing clone of the corporate BSSID.
    LowPowerStealth,
    /// Deauth bursts sized to duck the short flood window.
    PulsedDeauth,
}

impl EvasionVariant {
    /// Table label (and the scenario-file variant name).
    pub fn name(self) -> &'static str {
        match self {
            EvasionVariant::MacRandomizing => "mac-randomizing",
            EvasionVariant::KarmaCloaked => "karma-cloaked",
            EvasionVariant::LowPowerStealth => "low-power-stealth",
            EvasionVariant::PulsedDeauth => "pulsed-deauth",
        }
    }

    /// All scored variants.
    pub fn all() -> [EvasionVariant; 4] {
        [
            EvasionVariant::MacRandomizing,
            EvasionVariant::KarmaCloaked,
            EvasionVariant::LowPowerStealth,
            EvasionVariant::PulsedDeauth,
        ]
    }

    /// Pinned (precision, recall) floor for this variant — the
    /// acceptance bar `tests/wids_evasion.rs` enforces against every
    /// rendered row.
    pub fn floors(self) -> (f64, f64) {
        match self {
            EvasionVariant::MacRandomizing => (0.95, 0.95),
            EvasionVariant::KarmaCloaked => (0.95, 0.95),
            // The stealth clone is faint and slow: the floor admits a
            // replication where a sweep misses it entirely.
            EvasionVariant::LowPowerStealth => (0.90, 0.90),
            EvasionVariant::PulsedDeauth => (0.95, 0.95),
        }
    }
}

/// BSSID of the karma-cloaked responder.
fn karma_bssid() -> MacAddr {
    MacAddr::local(0x6B)
}

/// Run one replication of `variant` against the corp baseline (no loud
/// rogue on air — only the evading attacker), stepping the WIDS in
/// lockstep. Defaults: [`run_evasion_once`].
pub fn run_evasion_once_with(
    base: &CorpScenarioCfg,
    params: &E10EvasionParams,
    variant: EvasionVariant,
    seed: Seed,
) -> WidsRunOutcome {
    let run = &params.run;
    let (start, run_time) = (run.attack_start, run.run_time);
    let labels = match variant {
        // The rotating rogue has no single true address; any RogueAp
        // subject inside the window counts.
        EvasionVariant::MacRandomizing => vec![TruthLabel::new(
            IncidentCategory::RogueAp,
            None,
            start,
            run_time,
        )],
        EvasionVariant::KarmaCloaked => vec![TruthLabel::new(
            IncidentCategory::RogueAp,
            Some(karma_bssid()),
            start,
            run_time,
        )],
        EvasionVariant::LowPowerStealth => vec![TruthLabel::new(
            IncidentCategory::RogueAp,
            Some(corp_bssid()),
            start,
            run_time,
        )],
        // The pulsed flooder both floods (sparsely) and impersonates the
        // corp AP from the wrong spot, so a RogueAp finding against the
        // corp BSSID is a true detection of the spoofed source, not noise.
        EvasionVariant::PulsedDeauth => vec![
            TruthLabel::new(
                IncidentCategory::DeauthFlood,
                Some(corp_bssid()),
                start,
                run_time,
            ),
            TruthLabel::new(
                IncidentCategory::RogueAp,
                Some(corp_bssid()),
                start,
                run_time,
            ),
        ],
    };
    let attacker = |sc: &mut CorpScenario| {
        let attacker = sc.world.add_node("evader");
        let attacker_pos = Pos::new(40.0, 0.0);
        match variant {
            EvasionVariant::MacRandomizing => {
                let rogue = MacRandomizingRogue::new(
                    "CORP",
                    6,
                    SimDuration::from_millis(100),
                    SimDuration::from_millis(500),
                    seed.fork(0xE7A).0,
                    start,
                    run_time,
                );
                sc.world
                    .add_injector(attacker, attacker_pos, 18.0, 6, rogue);
            }
            EvasionVariant::KarmaCloaked => {
                let rogue = KarmaProbeRogue::new(
                    karma_bssid(),
                    6,
                    vec![
                        "HOME".into(),
                        "AIRPORT".into(),
                        "HOTEL".into(),
                        "CORP".into(),
                    ],
                    SimDuration::from_millis(100),
                    SimDuration::from_millis(250),
                    start,
                    run_time,
                );
                sc.world
                    .add_injector(attacker, attacker_pos, 18.0, 6, rogue);
            }
            EvasionVariant::LowPowerStealth => {
                let rogue = SpoofBeaconer::new(
                    corp_bssid(),
                    "CORP",
                    6,
                    SimDuration::from_millis(800),
                    start,
                    run_time,
                );
                // 8 dBm from 50 m out: audible at the monitors, barely.
                sc.world
                    .add_injector(attacker, Pos::new(50.0, 0.0), 8.0, 6, rogue);
            }
            EvasionVariant::PulsedDeauth => {
                let flooder = DeauthFlooder::pulsed(
                    corp_bssid(),
                    Some(victim_mac()),
                    4,
                    SimDuration::from_millis(450),
                    SimDuration::from_secs(3),
                    start,
                    run_time,
                );
                // On the corp channel, impersonating the corp AP, parked
                // near the monitors so its sparse bursts survive
                // collisions with the victim's own traffic.
                sc.world
                    .add_injector(attacker, Pos::new(22.0, 8.0), 18.0, 1, flooder);
            }
        }
    };
    run_scored(base, run, None, seed, attacker, &labels)
}

/// [`run_evasion_once_with`] on the corp baseline with default timing.
pub fn run_evasion_once(variant: EvasionVariant, seed: Seed) -> WidsRunOutcome {
    run_evasion_once_with(
        &CorpScenarioCfg::paper_attack(),
        &E10EvasionParams::default(),
        variant,
        seed,
    )
}

/// One row of the evasion table.
#[derive(Clone, Debug)]
pub struct EvasionRow {
    /// Variant label.
    pub variant: EvasionVariant,
    /// Replications.
    pub reps: usize,
    /// Merged score across replications.
    pub eval: EvalOutcome,
    /// Mean incidents opened per run.
    pub mean_incidents: f64,
}

impl EvasionRow {
    /// Does the merged score clear the variant's pinned floor?
    pub fn passes_floor(&self) -> bool {
        let (p, r) = self.variant.floors();
        self.eval.precision() >= p && self.eval.recall() >= r
    }
}

/// Score every variant over `reps` replications each. Defaults:
/// [`evasion_table`].
pub fn evasion_table_with(
    base: &CorpScenarioCfg,
    params: &E10EvasionParams,
    reps: usize,
    seed: Seed,
) -> Vec<EvasionRow> {
    let outcomes = replicate(&params.variants, reps, |&variant, rep| {
        run_evasion_once_with(base, params, variant, seed.fork(0xE7A * 100 + rep as u64))
    });
    params
        .variants
        .iter()
        .zip(&outcomes)
        .map(|(&variant, outcomes)| {
            let WidsRow {
                reps,
                eval,
                mean_incidents,
                ..
            } = score_cell(variant.name(), outcomes);
            EvasionRow {
                variant,
                reps,
                eval,
                mean_incidents,
            }
        })
        .collect()
}

/// [`evasion_table_with`] on the corp baseline with default timing.
pub fn evasion_table(reps: usize, seed: Seed) -> Vec<EvasionRow> {
    evasion_table_with(
        &CorpScenarioCfg::paper_attack(),
        &E10EvasionParams::default(),
        reps,
        seed,
    )
}

/// The evasion score card as Markdown — shared by the `rogue-bench`
/// harness, the scenario compiler (`report.kind = "e10-evasion"`), and
/// the golden/determinism suites.
pub fn report_body(
    base: &CorpScenarioCfg,
    params: &E10EvasionParams,
    reps: usize,
    seed: Seed,
) -> String {
    let rows = evasion_table_with(base, params, reps, seed);
    let mut t = Table::new(&[
        "variant",
        "reps",
        "TP",
        "FP",
        "FN",
        "precision",
        "recall",
        "floor P/R",
        "median latency s",
        "pass",
    ]);
    for r in &rows {
        let (fp, fr) = r.variant.floors();
        t.row(&[
            r.variant.name().to_string(),
            r.reps.to_string(),
            r.eval.true_positives.to_string(),
            r.eval.false_positives.to_string(),
            r.eval.false_negatives.to_string(),
            format!("{:.2}", r.eval.precision()),
            format!("{:.2}", r.eval.recall()),
            format!("{fp:.2}/{fr:.2}"),
            if r.eval.latencies_secs.is_empty() {
                "—".to_string()
            } else {
                format!("{:.2}", r.eval.median_latency_secs())
            },
            if r.passes_floor() { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t.to_markdown()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_randomizing_rogue_is_caught_by_churn() {
        let o = run_evasion_once(EvasionVariant::MacRandomizing, Seed(201));
        assert!((o.eval.recall() - 1.0).abs() < 1e-9, "{:?}", o.incident_log);
        assert!(
            (o.eval.precision() - 1.0).abs() < 1e-9,
            "{:?}",
            o.incident_log
        );
    }

    #[test]
    fn karma_cloaked_rogue_is_caught_by_probe_audit() {
        let o = run_evasion_once(EvasionVariant::KarmaCloaked, Seed(202));
        assert!((o.eval.recall() - 1.0).abs() < 1e-9, "{:?}", o.incident_log);
        assert!(
            (o.eval.precision() - 1.0).abs() < 1e-9,
            "{:?}",
            o.incident_log
        );
        // And fast: the fourth lure name lands within the first second.
        let (_, subject, opened, _) = o.incident_log[0];
        assert_eq!(subject, karma_bssid());
        assert!(opened < SimTime::from_secs(4), "{:?}", o.incident_log);
    }

    #[test]
    fn pulsed_deauth_is_caught_by_the_long_horizon() {
        let o = run_evasion_once(EvasionVariant::PulsedDeauth, Seed(203));
        assert!((o.eval.recall() - 1.0).abs() < 1e-9, "{:?}", o.incident_log);
        // The short window (5 in 2 s) must never have fired: detection
        // lands only once the 12th frame crosses the long horizon at
        // attack start + 7.35 s (last frame of the third burst).
        let flood = o
            .incident_log
            .iter()
            .find(|(c, _, _, _)| *c == IncidentCategory::DeauthFlood)
            .expect("flood incident");
        assert!(
            flood.2 >= SimTime::from_millis(9_350),
            "{:?}",
            o.incident_log
        );
    }

    #[test]
    fn every_variant_clears_its_floor() {
        for row in evasion_table(2, Seed(0xE7A)) {
            assert!(
                row.passes_floor(),
                "{} fell under its floor: {:?}",
                row.variant.name(),
                row
            );
        }
    }
}
