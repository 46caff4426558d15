//! **E1 — Figure 1: rogue-AP association capture.**
//!
//! The configuration the paper's Figure 1 draws: a valid AP on channel 1
//! and a rogue with cloned SSID/BSSID/WEP on channel 6. Two questions
//! are quantified:
//!
//! 1. **The scan race** — when both APs are on air as the client joins,
//!    the strongest signal wins ([`capture_vs_power_with`]): the capture
//!    probability rises from 0 to 1 as the rogue's received power
//!    crosses the valid AP's.
//! 2. **The forced roam** — when the client is *already associated* it
//!    never re-evaluates; a rogue arriving later captures nobody until
//!    it forges deauthentication frames ("force the client's
//!    disassociation from the legitimate AP until the client associates
//!    with the Rogue AP", §4) — [`capture_with_deauth`].

use rogue_dot11::output::MacEvent;
use rogue_sim::{Seed, SimTime};

use super::{mean_or_nan, rate, replicate};
use crate::report::{pct, Table};
use crate::scenario::{build_corp, victim_mac, CorpScenarioCfg, RogueCfg};

/// Parameters of the E1 drivers. [`E1Params::default`] is exactly the
/// paper configuration the checked-in report tables were generated
/// with; the scenario compiler (`rogue-scenario`) overrides fields from
/// a `.toml` file and must reproduce those tables byte-for-byte when it
/// leaves them at their defaults.
#[derive(Clone, Debug)]
pub struct E1Params {
    /// Rogue transmit powers swept in the scan race.
    pub powers_dbm: Vec<f64>,
    /// Log-normal shadowing applied during the sweep (makes the capture
    /// transition an S-curve instead of a step).
    pub sweep_shadowing_db: f64,
    /// Wall-clock horizon of each sweep replication.
    pub sweep_run: SimTime,
    /// When the late rogue powers on in the deauth comparison.
    pub deauth_rogue_start: SimTime,
    /// Wall-clock horizon of each deauth-comparison replication.
    pub deauth_run: SimTime,
}

impl Default for E1Params {
    fn default() -> E1Params {
        E1Params {
            powers_dbm: vec![-15.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 18.0],
            sweep_shadowing_db: 6.0,
            sweep_run: SimTime::from_secs(5),
            deauth_rogue_start: SimTime::from_secs(3),
            deauth_run: SimTime::from_secs(12),
        }
    }
}

/// One replication's outcome.
#[derive(Clone, Debug)]
pub struct CaptureOutcome {
    /// The victim was associated to the rogue AP at the end.
    pub captured: bool,
    /// When the victim first associated to any AP.
    pub first_assoc: Option<SimTime>,
    /// When the rogue AP first held the victim's association.
    pub capture_time: Option<SimTime>,
    /// Number of (forced) disassociations the victim suffered.
    pub forced_disassocs: usize,
}

/// Run one capture replication.
pub fn run_capture_once(cfg: &CorpScenarioCfg, run_time: SimTime, seed: Seed) -> CaptureOutcome {
    let mut sc = build_corp(cfg, seed);
    sc.world.run_until(run_time);

    let captured = match &sc.gateway {
        Some(gw) => sc
            .world
            .ap(gw.node, gw.rogue_ap_radio)
            .is_associated(victim_mac()),
        None => false,
    };
    let first_assoc = sc
        .world
        .mac_events
        .iter()
        .find(|(_, n, e)| *n == sc.victim && matches!(e, MacEvent::Associated { .. }))
        .map(|(t, _, _)| *t);
    // The capture instant: the rogue AP (on the gateway node) accepted
    // the victim.
    let capture_time = sc.gateway.as_ref().and_then(|gw| {
        sc.world
            .mac_events
            .iter()
            .find(|(_, n, e)| {
                *n == gw.node
                    && matches!(e, MacEvent::ClientAssociated { client } if *client == victim_mac())
            })
            .map(|(t, _, _)| *t)
    });
    let forced_disassocs = sc
        .world
        .mac_events
        .iter()
        .filter(|(_, n, e)| {
            *n == sc.victim && matches!(e, MacEvent::Disassociated { forced: true, .. })
        })
        .count();
    CaptureOutcome {
        captured,
        first_assoc,
        capture_time,
        forced_disassocs,
    }
}

/// One row of the power sweep.
#[derive(Clone, Debug)]
pub struct CapturePoint {
    /// Rogue transmit power, dBm.
    pub rogue_power_dbm: f64,
    /// Replications.
    pub reps: usize,
    /// Fraction captured.
    pub capture_rate: f64,
    /// Mean time from start to capture (captured runs), seconds.
    pub mean_capture_secs: f64,
}

/// The scan race: rogue on air from the start, power swept. Shadowing
/// (6 dB by default) makes the transition a smooth S-curve rather than
/// a step.
pub fn capture_vs_power_with(
    base: &CorpScenarioCfg,
    params: &E1Params,
    reps: usize,
    seed: Seed,
) -> Vec<CapturePoint> {
    let outcomes = replicate(&params.powers_dbm, reps, |&p, rep| {
        let mut cfg = base.clone();
        cfg.shadowing_sigma_db = params.sweep_shadowing_db;
        cfg.rogue = Some(RogueCfg {
            tx_power_dbm: p,
            ..base.rogue.clone().unwrap_or_default()
        });
        run_capture_once(
            &cfg,
            params.sweep_run,
            seed.fork((p * 10.0) as i64 as u64 ^ (rep as u64) << 17),
        )
    });
    params
        .powers_dbm
        .iter()
        .zip(outcomes)
        .map(|(&p, outcomes)| CapturePoint {
            rogue_power_dbm: p,
            reps: outcomes.len(),
            capture_rate: rate(&outcomes, |o| o.captured),
            mean_capture_secs: mean_or_nan(&capture_secs(&outcomes, SimTime::ZERO)),
        })
        .collect()
}

/// Seconds from `since` to each captured replication's capture instant.
fn capture_secs(outcomes: &[CaptureOutcome], since: SimTime) -> Vec<f64> {
    outcomes
        .iter()
        .filter(|o| o.captured)
        .filter_map(|o| o.capture_time)
        .map(|t| t.since(since).as_secs_f64())
        .collect()
}

/// One row of the deauth comparison.
#[derive(Clone, Debug)]
pub struct DeauthPoint {
    /// Whether forged deauth was used.
    pub deauth: bool,
    /// Replications.
    pub reps: usize,
    /// Fraction of runs where the late-arriving rogue captured the
    /// victim.
    pub capture_rate: f64,
    /// Mean time from rogue power-on to capture, seconds.
    pub mean_capture_after_start_secs: f64,
}

/// The forced roam: the rogue arrives late (t = 3 s by default), after
/// the victim has associated to the valid AP. Without deauth the sticky
/// association never re-evaluates; with forged deauth the victim is
/// pushed off and re-joins the (stronger) rogue. Defaults:
/// [`capture_with_deauth`].
pub fn capture_with_deauth_with(
    base: &CorpScenarioCfg,
    params: &E1Params,
    reps: usize,
    seed: Seed,
) -> Vec<DeauthPoint> {
    let rogue_start = params.deauth_rogue_start;
    let cells = [false, true];
    let outcomes = replicate(&cells, reps, |&deauth, rep| {
        let mut cfg = base.clone();
        cfg.rogue = Some(RogueCfg {
            deauth_victim: deauth,
            start_at: rogue_start,
            ..base.rogue.clone().unwrap_or_default()
        });
        run_capture_once(
            &cfg,
            params.deauth_run,
            seed.fork(rep as u64 * 2 + deauth as u64),
        )
    });
    cells
        .into_iter()
        .zip(outcomes)
        .map(|(deauth, outcomes)| DeauthPoint {
            deauth,
            reps: outcomes.len(),
            capture_rate: rate(&outcomes, |o| o.captured),
            mean_capture_after_start_secs: mean_or_nan(&capture_secs(&outcomes, rogue_start)),
        })
        .collect()
}

/// [`capture_with_deauth_with`] on the paper scenario with paper timing.
pub fn capture_with_deauth(reps: usize, seed: Seed) -> Vec<DeauthPoint> {
    capture_with_deauth_with(
        &CorpScenarioCfg::paper_attack(),
        &E1Params::default(),
        reps,
        seed,
    )
}

/// The E1 report body: the power-sweep table followed by the
/// deauth-comparison table. This is the single formatter both the
/// `rogue-bench` harness and the scenario compiler call, so a `.toml`
/// scenario that leaves the parameters at their paper values reproduces
/// the checked-in table byte-for-byte.
pub fn report_body(base: &CorpScenarioCfg, params: &E1Params, reps: usize, seed: Seed) -> String {
    let points = capture_vs_power_with(base, params, reps, seed);
    let mut t = Table::new(&["rogue tx dBm", "reps", "capture rate", "mean capture s"]);
    for p in &points {
        t.row(&[
            format!("{:+.0}", p.rogue_power_dbm),
            p.reps.to_string(),
            pct(p.capture_rate),
            format!("{:.2}", p.mean_capture_secs),
        ]);
    }
    let mut body = t.render();
    body.push('\n');
    let rows = capture_with_deauth_with(base, params, reps, seed);
    let mut t = Table::new(&[
        "late rogue + forged deauth",
        "capture rate",
        "mean s after start",
    ]);
    for r in &rows {
        t.row(&[
            r.deauth.to_string(),
            pct(r.capture_rate),
            format!("{:.2}", r.mean_capture_after_start_secs),
        ]);
    }
    body.push_str(&t.render());
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strong_rogue_captures_weak_rogue_does_not() {
        // Strong rogue (18 dBm at ~6 m from the victim) wins.
        let cfg = CorpScenarioCfg::paper_attack();
        let o = run_capture_once(&cfg, SimTime::from_secs(5), Seed(31));
        assert!(o.captured, "{o:?}");
        assert!(o.capture_time.is_some());

        // Hopeless rogue (-30 dBm): below the victim's candidate floor.
        let mut cfg = CorpScenarioCfg::paper_attack();
        cfg.rogue = Some(RogueCfg {
            tx_power_dbm: -30.0,
            ..RogueCfg::default()
        });
        let o = run_capture_once(&cfg, SimTime::from_secs(5), Seed(32));
        assert!(!o.captured, "{o:?}");
    }

    #[test]
    fn late_rogue_needs_deauth() {
        let rows = capture_with_deauth(2, Seed(33));
        assert_eq!(rows.len(), 2);
        let without = &rows[0];
        let with = &rows[1];
        assert!(!without.deauth && with.deauth);
        assert_eq!(
            without.capture_rate, 0.0,
            "sticky association: no capture without deauth ({without:?})"
        );
        assert!(
            with.capture_rate > 0.9,
            "forged deauth must force the roam ({with:?})"
        );
    }

    #[test]
    fn deauth_registers_forced_disassociation() {
        let mut cfg = CorpScenarioCfg::paper_attack();
        cfg.rogue = Some(RogueCfg {
            deauth_victim: true,
            start_at: SimTime::from_secs(3),
            ..RogueCfg::default()
        });
        let o = run_capture_once(&cfg, SimTime::from_secs(12), Seed(34));
        assert!(o.forced_disassocs >= 1, "{o:?}");
        assert!(o.captured);
    }
}
