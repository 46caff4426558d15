//! **E10 (extension) — scoring the streaming WIDS.**
//!
//! E6 showed single detectors flagging single symptoms post-hoc. E10
//! runs the full `rogue-wids` pipeline — fixed monitor radios on the
//! three non-overlapping channels plus a span-port tap on the corp
//! switch, feeding five detectors and the correlation engine — *live*
//! against scripted attacks, and scores the resulting incidents against
//! ground truth: precision, recall, and median detection latency.
//!
//! Scenarios:
//!
//! * **clean** — the baseline network; every incident is a false
//!   positive;
//! * **rogue-ap+deauth** — the paper's full §4 attack arriving at
//!   t = 2 s: cloned-BSSID rogue on channel 6, targeted deauth flood,
//!   victim download MITMed through the bridge. Note the wired tap stays
//!   quiet here — the gateway's proxy re-originates upstream connections
//!   from its own (cloned-employee) address, so the LAN never even sees
//!   an ARP claim for the victim's IP. That silence is §1's warning made
//!   measurable: the client-side rogue leaves no wired footprint, and
//!   only the radio sensors catch it;
//! * **arp-spoof** — a purely wired attacker gratuitously claiming the
//!   gateway's IP from t = 3 s.

use rogue_attack::ArpSpoofer;
use rogue_dot11::MacAddr;
use rogue_netstack::Ipv4Addr;
use rogue_phy::Pos;
use rogue_services::apps::DownloadClient;
use rogue_sim::{Seed, SimDuration, SimTime};
use rogue_wids::{evaluate, EvalOutcome, IncidentCategory, TruthLabel, WidsConfig};

use super::e2_download::DOWNLOAD_TIMEOUT;
use super::replicate;
use crate::report::Table;
use crate::scenario::{addrs, build_corp, corp_bssid, victim_mac};
use crate::scenario::{CorpScenario, CorpScenarioCfg, RogueCfg};
use crate::wids::WidsDeployment;

/// What every scored WIDS replication shares, E10's scripted scenarios
/// and E10-evasion's variants alike. The defaults are E10's.
#[derive(Clone, Debug)]
pub struct WidsRunParams {
    /// Wall-clock horizon of each replication.
    pub run_time: SimTime,
    /// When the attacker powers on and the victim starts its download.
    pub attack_start: SimTime,
    /// Lockstep slice between WIDS pipeline steps (positive).
    pub slice: SimDuration,
    /// Channels the fixed monitor radios listen on.
    pub monitor_channels: Vec<u8>,
    /// Where the monitor radios sit.
    pub monitor_pos: Pos,
    /// Truth-matching window passed to [`evaluate`].
    pub match_window: SimDuration,
}

impl Default for WidsRunParams {
    fn default() -> WidsRunParams {
        WidsRunParams {
            run_time: SimTime::from_secs(10),
            attack_start: SimTime::from_secs(2),
            slice: SimDuration::from_millis(100),
            monitor_channels: vec![1, 6, 11],
            monitor_pos: Pos::new(20.0, 10.0),
            match_window: SimDuration::from_millis(500),
        }
    }
}

/// Parameters of the E10 driver. [`E10Params::default`] is exactly the
/// deployment the checked-in report was generated with; the scenario
/// compiler (`rogue-scenario`) overrides fields from a `.toml` file and
/// must reproduce that table byte-for-byte at the defaults.
#[derive(Clone, Debug)]
pub struct E10Params {
    /// The replication shared with E10-evasion; `attack_start` is when
    /// the rogue-AP + deauth attack powers on.
    pub run: WidsRunParams,
    /// When the wired ARP poisoner starts claiming the gateway.
    pub spoof_start: SimTime,
    /// Scenarios scored, in table order.
    pub scenarios: Vec<WidsScenario>,
}

impl Default for E10Params {
    fn default() -> E10Params {
        E10Params {
            run: WidsRunParams::default(),
            spoof_start: SimTime::from_secs(3),
            scenarios: WidsScenario::all().to_vec(),
        }
    }
}

/// The scripted scenarios E10 scores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WidsScenario {
    /// No attacker; anything flagged is a false positive.
    Clean,
    /// The paper's §4 attack: cloned-BSSID rogue + deauth flood + MITM.
    RogueApDeauth,
    /// A wired attacker poisoning the gateway binding.
    ArpSpoof,
}

impl WidsScenario {
    /// Table label (and the scenario-file scenario name).
    pub fn name(self) -> &'static str {
        match self {
            WidsScenario::Clean => "clean",
            WidsScenario::RogueApDeauth => "rogue-ap+deauth",
            WidsScenario::ArpSpoof => "arp-spoof",
        }
    }

    /// All scored scenarios.
    pub fn all() -> [WidsScenario; 3] {
        [
            WidsScenario::Clean,
            WidsScenario::RogueApDeauth,
            WidsScenario::ArpSpoof,
        ]
    }
}

/// MAC of the wired ARP attacker.
fn arp_attacker_mac() -> MacAddr {
    MacAddr::local(66)
}

/// One replication's outcome.
#[derive(Clone, Debug)]
pub struct WidsRunOutcome {
    /// Ground-truth score.
    pub eval: EvalOutcome,
    /// Incidents the pipeline opened.
    pub incidents: usize,
    /// Sensor events processed.
    pub events: u64,
    /// Events lost to ring overrun (expected 0 at this capacity).
    pub ring_dropped: u64,
    /// (category, subject, opened at, score) per incident, for reports
    /// and the determinism check.
    pub incident_log: Vec<(IncidentCategory, MacAddr, SimTime, f64)>,
}

/// One scored replication, E10's and E10-evasion's alike: the corp
/// network built from `base` with `rogue` on air and no wired monitor,
/// the victim's download at attack start, the caller's `attacker`, then
/// the WIDS on a defender node (a monitor per channel plus a span port
/// on the corp switch) fed in lockstep slices to the horizon, and its
/// incidents scored against `labels`.
pub(crate) fn run_scored(
    base: &CorpScenarioCfg,
    run: &WidsRunParams,
    rogue: Option<RogueCfg>,
    seed: Seed,
    attacker: impl FnOnce(&mut CorpScenario),
    labels: &[TruthLabel],
) -> WidsRunOutcome {
    assert!(
        run.slice > SimDuration::ZERO,
        "the lockstep slice must be positive"
    );
    let mut cfg = base.clone();
    cfg.rogue = rogue;
    cfg.wired_monitor = false;
    let mut sc = build_corp(&cfg, seed);

    // The victim browses at attack start (t = 2 s, as in E2/E9), so a
    // rogue scenario exercises the full MITM path and every run carries
    // legitimate traffic the detectors must not flag.
    sc.world.add_app(
        sc.victim,
        Box::new(DownloadClient::new(
            addrs::TARGET,
            "/download.html",
            run.attack_start,
            DOWNLOAD_TIMEOUT,
        )),
    );
    attacker(&mut sc);

    let defender = sc.world.add_node("wids-defender");
    let mut wids = WidsDeployment::new(
        &mut sc.world,
        defender,
        run.monitor_pos,
        &run.monitor_channels,
        Some(sc.corp_switch),
        WidsConfig {
            authorized_aps: vec![(corp_bssid(), 1)],
            trusted_bindings: vec![
                (addrs::CORP_GW, MacAddr::local(254)),
                (addrs::VICTIM, victim_mac()),
            ],
            ..WidsConfig::default()
        },
    );
    let mut now = SimTime::ZERO;
    while now < run.run_time {
        now = (now + run.slice).min(run.run_time);
        sc.world.run_until(now);
        wids.feed(&sc.world, now);
    }

    let pipe = &wids.pipe;
    WidsRunOutcome {
        eval: evaluate(pipe.incidents(), labels, run.match_window),
        incidents: pipe.incidents().len(),
        events: pipe.metrics().counter("wids.events"),
        ring_dropped: pipe.metrics().counter("wids.ring_dropped"),
        incident_log: pipe
            .incidents()
            .iter()
            .map(|i| (i.category, i.subject, i.opened_at, i.score))
            .collect(),
    }
}

/// Run one replication of `scenario` against `base`, stepping the WIDS
/// pipeline in lockstep slices alongside the simulation. Defaults:
/// [`run_wids_once`].
pub fn run_wids_once_with(
    base: &CorpScenarioCfg,
    params: &E10Params,
    scenario: WidsScenario,
    seed: Seed,
) -> WidsRunOutcome {
    let run = &params.run;
    // clean / arp-spoof run the baseline network: no rogue on air.
    let rogue = (scenario == WidsScenario::RogueApDeauth).then(|| RogueCfg {
        start_at: run.attack_start,
        deauth_victim: true,
        ..base.rogue.clone().unwrap_or_default()
    });
    let labels = match scenario {
        WidsScenario::Clean => Vec::new(),
        WidsScenario::RogueApDeauth => vec![
            // The cloned-BSSID rogue itself.
            TruthLabel::new(
                IncidentCategory::RogueAp,
                Some(corp_bssid()),
                run.attack_start,
                run.run_time,
            ),
            // Its targeted deauth flood (from rogue start + 700 ms).
            TruthLabel::new(
                IncidentCategory::DeauthFlood,
                Some(corp_bssid()),
                run.attack_start + SimDuration::from_millis(700),
                run.run_time,
            ),
        ],
        WidsScenario::ArpSpoof => vec![TruthLabel::new(
            IncidentCategory::ArpSpoof,
            Some(arp_attacker_mac()),
            params.spoof_start,
            run.run_time,
        )],
    };
    let attacker = |sc: &mut CorpScenario| {
        if scenario != WidsScenario::ArpSpoof {
            return;
        }
        let attacker = sc.world.add_node("arp-attacker");
        let a_if = sc.world.add_wired_iface(
            attacker,
            sc.corp_switch,
            arp_attacker_mac(),
            Ipv4Addr::new(192, 168, 0, 66),
            24,
        );
        sc.world.add_app(
            attacker,
            Box::new(ArpSpoofer::new(
                addrs::CORP_GW,
                None,
                a_if,
                params.spoof_start,
                SimDuration::from_millis(800),
            )),
        );
    };
    run_scored(base, run, rogue, seed, attacker, &labels)
}

/// [`run_wids_once_with`] on the paper scenario with paper timing.
pub fn run_wids_once(scenario: WidsScenario, seed: Seed) -> WidsRunOutcome {
    run_wids_once_with(
        &CorpScenarioCfg::paper_attack(),
        &E10Params::default(),
        scenario,
        seed,
    )
}

/// One row of the E10 table.
#[derive(Clone, Debug)]
pub struct WidsRow {
    /// Scenario label.
    pub scenario: &'static str,
    /// Replications.
    pub reps: usize,
    /// Merged score across replications.
    pub eval: EvalOutcome,
    /// Mean incidents opened per run.
    pub mean_incidents: f64,
    /// Total ring drops (expected 0).
    pub ring_dropped: u64,
}

/// Score one table cell: merge its replications' outcomes, in
/// replication order, into its row. E10 and E10-evasion both score
/// through here.
pub(crate) fn score_cell(label: &'static str, outcomes: &[WidsRunOutcome]) -> WidsRow {
    let mut eval = EvalOutcome::default();
    for o in outcomes {
        eval.merge(&o.eval);
    }
    WidsRow {
        scenario: label,
        reps: outcomes.len(),
        eval,
        mean_incidents: outcomes.iter().map(|o| o.incidents as f64).sum::<f64>()
            / outcomes.len().max(1) as f64,
        ring_dropped: outcomes.iter().map(|o| o.ring_dropped).sum(),
    }
}

/// Score every scenario over `reps` replications each; the last row is
/// the merged "overall" line the acceptance thresholds apply to.
/// Defaults: [`wids_table`].
pub fn wids_table_with(
    base: &CorpScenarioCfg,
    params: &E10Params,
    reps: usize,
    seed: Seed,
) -> Vec<WidsRow> {
    let outcomes = replicate(&params.scenarios, reps, |&scenario, rep| {
        run_wids_once_with(base, params, scenario, seed.fork(0xE10 * 100 + rep as u64))
    });
    let mut rows: Vec<WidsRow> = params
        .scenarios
        .iter()
        .zip(&outcomes)
        .map(|(scenario, outcomes)| score_cell(scenario.name(), outcomes))
        .collect();
    let mut overall = EvalOutcome::default();
    for r in &rows {
        overall.merge(&r.eval);
    }
    let mean_incidents =
        rows.iter().map(|r| r.mean_incidents).sum::<f64>() / rows.len().max(1) as f64;
    let ring_dropped = rows.iter().map(|r| r.ring_dropped).sum();
    rows.push(WidsRow {
        scenario: "overall",
        reps: reps * params.scenarios.len(),
        eval: overall,
        mean_incidents,
        ring_dropped,
    });
    rows
}

/// [`wids_table_with`] on the paper scenario with paper timing.
pub fn wids_table(reps: usize, seed: Seed) -> Vec<WidsRow> {
    wids_table_with(
        &CorpScenarioCfg::paper_attack(),
        &E10Params::default(),
        reps,
        seed,
    )
}

/// The E10 score card rendered as Markdown (so the table drops straight
/// into EXPERIMENTS.md). The single formatter both the `rogue-bench`
/// harness and the scenario compiler call; a `.toml` scenario at the
/// paper defaults reproduces the checked-in table byte-for-byte.
pub fn report_body(base: &CorpScenarioCfg, params: &E10Params, reps: usize, seed: Seed) -> String {
    let rows = wids_table_with(base, params, reps, seed);
    let mut t = Table::new(&[
        "scenario",
        "reps",
        "TP",
        "FP",
        "FN",
        "precision",
        "recall",
        "median latency s",
        "ring drops",
    ]);
    for r in &rows {
        t.row(&[
            r.scenario.to_string(),
            r.reps.to_string(),
            r.eval.true_positives.to_string(),
            r.eval.false_positives.to_string(),
            r.eval.false_negatives.to_string(),
            format!("{:.2}", r.eval.precision()),
            format!("{:.2}", r.eval.recall()),
            if r.eval.latencies_secs.is_empty() {
                "—".to_string()
            } else {
                format!("{:.2}", r.eval.median_latency_secs())
            },
            r.ring_dropped.to_string(),
        ]);
    }
    t.to_markdown()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_network_raises_nothing() {
        let o = run_wids_once(WidsScenario::Clean, Seed(101));
        assert_eq!(o.incidents, 0, "{:?}", o.incident_log);
        assert!((o.eval.precision() - 1.0).abs() < 1e-9);
        assert!((o.eval.recall() - 1.0).abs() < 1e-9);
        assert_eq!(o.ring_dropped, 0);
        assert!(o.events > 100, "sensors must be seeing traffic: {o:?}");
    }

    #[test]
    fn full_attack_is_fully_detected() {
        let o = run_wids_once(WidsScenario::RogueApDeauth, Seed(102));
        assert!(
            (o.eval.recall() - 1.0).abs() < 1e-9,
            "both attack facets must be caught: {:?}",
            o.incident_log
        );
        assert!(
            (o.eval.precision() - 1.0).abs() < 1e-9,
            "no spurious incidents: {:?}",
            o.incident_log
        );
        // The rogue AP must be flagged before the t=2s download finishes.
        let rogue_inc = o
            .incident_log
            .iter()
            .find(|(c, s, _, _)| *c == IncidentCategory::RogueAp && *s == corp_bssid())
            .expect("rogue-ap incident");
        assert!(rogue_inc.2 < SimTime::from_secs(4), "{:?}", o.incident_log);
    }

    #[test]
    fn wired_poisoner_is_caught() {
        let o = run_wids_once(WidsScenario::ArpSpoof, Seed(103));
        assert!((o.eval.recall() - 1.0).abs() < 1e-9, "{:?}", o.incident_log);
        assert!(
            (o.eval.precision() - 1.0).abs() < 1e-9,
            "{:?}",
            o.incident_log
        );
        let (_, subject, opened, _) = o.incident_log[0];
        assert_eq!(subject, arp_attacker_mac());
        assert!(opened >= SimTime::from_secs(3));
        assert!(opened < SimTime::from_secs(4), "first poison frame");
    }

    #[test]
    fn acceptance_thresholds_hold() {
        // The E10 acceptance bar: precision and recall >= 0.90 across
        // the scripted scenarios.
        let rows = wids_table(2, Seed(0xE10));
        let overall = rows.last().expect("overall row");
        assert!(
            overall.eval.precision() >= 0.90,
            "precision {:.3} < 0.90: {rows:?}",
            overall.eval.precision()
        );
        assert!(
            overall.eval.recall() >= 0.90,
            "recall {:.3} < 0.90: {rows:?}",
            overall.eval.recall()
        );
        assert_eq!(overall.ring_dropped, 0);
    }
}
