//! **E9 (extension) — the paper's future work: "improving techniques of
//! detecting and countering attacks similar to the ones discussed
//! here".**
//!
//! Detection (E6) tells the administrator a cloned-BSSID rogue is on
//! air; *containment* is what wireless IDS products built next: keep the
//! rogue's clients off it by flooding forged deauthentication on the
//! rogue's channel — the attacker's own §4 primitive, turned around.
//!
//! The experiment closes the loop inside one run: a defender sweeps
//! while the rogue-wids pipeline watches the captures live; the first
//! RogueAp *incident* against the corporate BSSID activates a
//! containment injector on the rogue's channel. Measured: whether the
//! victim's download-MITM still succeeds, against detection latency and
//! containment cadence.

use rogue_attack::DeauthFlooder;
use rogue_phy::Pos;
use rogue_services::apps::DownloadClient;
use rogue_sim::{Seed, SimDuration, SimTime};
use rogue_wids::{IncidentCategory, WidsConfig};

use super::e2_download::{DOWNLOAD_START, DOWNLOAD_TIMEOUT, RUN_TIME};
use super::{rate, replicate};
use crate::report::{pct, Table};
use crate::scenario::{addrs, build_corp, corp_bssid, CorpScenarioCfg};
use crate::wids::WidsDeployment;

/// One replication's outcome.
#[derive(Clone, Debug)]
pub struct ContainmentOutcome {
    /// When the WIDS opened a RogueAp incident against the corp BSSID.
    pub detected_at: Option<SimTime>,
    /// When containment went active.
    pub contained_at: Option<SimTime>,
    /// The victim completed the (tampered) download anyway.
    pub attack_succeeded: bool,
    /// Forced disassociations the victim suffered from containment.
    pub victim_kicks: usize,
}

/// Run one replication. `containment` enables the response; the rogue is
/// on air from t = 0 and the victim runs on E2's clock: it browses from
/// [`DOWNLOAD_START`] and the run ends at [`RUN_TIME`].
pub fn run_containment_once(
    containment: bool,
    sweep_dwell: SimDuration,
    seed: Seed,
) -> ContainmentOutcome {
    let cfg = CorpScenarioCfg::paper_attack();
    let mut sc = build_corp(&cfg, seed);
    let dl_app = sc.world.add_app(
        sc.victim,
        Box::new(DownloadClient::new(
            addrs::TARGET,
            "/download.html",
            DOWNLOAD_START,
            DOWNLOAD_TIMEOUT,
        )),
    );
    // The defender: one sweeping monitor feeding the WIDS (no span
    // port) and, later, a containment injector.
    let defender = sc.world.add_node("defender");
    let mut wids = WidsDeployment::new(
        &mut sc.world,
        defender,
        Pos::new(20.0, 10.0),
        &[1],
        None,
        WidsConfig {
            authorized_aps: vec![(corp_bssid(), 1)],
            ..WidsConfig::default()
        },
    );
    let mon = wids.monitors[0];

    let channels: Vec<u8> = (1..=11).collect();
    let rogue_channel = cfg.rogue.as_ref().map(|r| r.channel).unwrap_or(6);
    let mut detected_at = None;
    let mut contained_at = None;
    let mut ch_idx = 0usize;
    let mut now = SimTime::ZERO;

    while now < RUN_TIME {
        sc.world
            .set_radio_channel(defender, mon, channels[ch_idx % channels.len()]);
        ch_idx += 1;
        now = now.saturating_add(sweep_dwell).min(RUN_TIME);
        sc.world.run_until(now);

        wids.feed(&sc.world, now);
        if detected_at.is_none() {
            let rogue_flagged = wids
                .pipe
                .incidents()
                .iter()
                .any(|i| i.category == IncidentCategory::RogueAp && i.subject == corp_bssid());
            if rogue_flagged {
                detected_at = Some(now);
                if containment {
                    // Containment: broadcast deauth under the rogue's
                    // BSSID, on the rogue's channel, until the end.
                    // Real WIPS containment floods aggressively: a
                    // client that re-associates between frames gets
                    // usable airtime, and TCP happily trickles a
                    // download through those windows.
                    let flooder = DeauthFlooder::steady(
                        corp_bssid(),
                        None,
                        now,
                        SimDuration::from_millis(15),
                        RUN_TIME,
                    );
                    sc.world.add_injector(
                        defender,
                        Pos::new(20.0, 10.0),
                        18.0,
                        rogue_channel,
                        flooder,
                    );
                    contained_at = Some(now);
                }
            }
        }
    }

    let outcome = sc
        .world
        .app::<DownloadClient>(sc.victim, dl_app)
        .outcome
        .clone();
    let attack_succeeded = outcome
        .as_ref()
        .map(|o| o.error.is_none() && o.verified && o.file_bytes.as_deref() == Some(&sc.trojan[..]))
        .unwrap_or(false);
    let victim_kicks = sc
        .world
        .mac_events
        .iter()
        .filter(|(_, n, e)| {
            *n == sc.victim
                && matches!(
                    e,
                    rogue_dot11::output::MacEvent::Disassociated { forced: true, .. }
                )
        })
        .count();

    ContainmentOutcome {
        detected_at,
        contained_at,
        attack_succeeded,
        victim_kicks,
    }
}

/// One row of the containment table.
#[derive(Clone, Debug)]
pub struct ContainmentRow {
    /// Containment active?
    pub containment: bool,
    /// Replications.
    pub reps: usize,
    /// Detection rate.
    pub detection_rate: f64,
    /// Attack success rate (trojan delivered + verified).
    pub attack_success_rate: f64,
    /// Mean forced kicks the victim received.
    pub mean_victim_kicks: f64,
}

/// Compare attack success with and without active containment.
pub fn containment_comparison(reps: usize, seed: Seed) -> Vec<ContainmentRow> {
    let cells = [false, true];
    let outcomes = replicate(&cells, reps, |&containment, rep| {
        run_containment_once(
            containment,
            SimDuration::from_millis(200),
            seed.fork(containment as u64 * 5000 + rep as u64),
        )
    });
    cells
        .into_iter()
        .zip(outcomes)
        .map(|(containment, outcomes)| ContainmentRow {
            containment,
            reps: outcomes.len(),
            detection_rate: rate(&outcomes, |o| o.detected_at.is_some()),
            attack_success_rate: rate(&outcomes, |o| o.attack_succeeded),
            mean_victim_kicks: outcomes.iter().map(|o| o.victim_kicks as f64).sum::<f64>()
                / outcomes.len().max(1) as f64,
        })
        .collect()
}

/// The E9 report body: detection, attack success and the victim's
/// forced kicks, with and without containment.
pub fn report_body(reps: usize, seed: Seed) -> String {
    let mut t = Table::new(&[
        "containment",
        "reps",
        "detected",
        "attack success",
        "mean victim kicks",
    ]);
    for r in &containment_comparison(reps, seed) {
        t.row(&[
            r.containment.to_string(),
            r.reps.to_string(),
            pct(r.detection_rate),
            pct(r.attack_success_rate),
            format!("{:.0}", r.mean_victim_kicks),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn without_containment_attack_succeeds() {
        let o = run_containment_once(false, SimDuration::from_millis(200), Seed(91));
        assert!(o.detected_at.is_some(), "{o:?}");
        assert!(o.attack_succeeded, "{o:?}");
        assert_eq!(o.victim_kicks, 0);
    }

    #[test]
    fn containment_disrupts_the_attack() {
        let o = run_containment_once(true, SimDuration::from_millis(200), Seed(92));
        assert!(o.detected_at.is_some(), "{o:?}");
        assert!(o.contained_at.is_some());
        assert!(
            o.victim_kicks >= 1,
            "containment must keep kicking the victim: {o:?}"
        );
        // Note: containment is a race — if detection lands after the
        // (fast) download it cannot help. With a 200 ms dwell, detection
        // beats the t=2 s download start.
        assert!(!o.attack_succeeded, "{o:?}");
    }
}
