//! **E2 — Figure 2 / §4.1: the software-download MITM.**
//!
//! The paper's proof of concept: the victim fetches a download page
//! through the rogue gateway; netfilter DNATs the page request into a
//! local netsed which rewrites the download link (to the attacker's
//! mirror) and the advertised MD5SUM (to the trojan's). The victim
//! downloads the trojan, verifies the checksum, and is *reassured*.
//!
//! Also quantified: the tool's admitted limitation — "netsed will not
//! match strings that cross packet boundaries" — as a rewrite success
//! rate vs. the server's TCP segment size ([`boundary_miss_sweep`]).

use rogue_dot11::sta::StaState;
use rogue_netstack::Ipv4Addr;
use rogue_services::apps::DownloadClient;
use rogue_services::netsed::Netsed;
use rogue_sim::{Seed, SimDuration, SimTime};

use super::{rate, replicate};
use crate::report::{pct, Table};
use crate::scenario::{build_corp, CorpScenarioCfg};

/// When the victim starts browsing.
pub const DOWNLOAD_START: SimTime = SimTime::from_secs(2);
/// Per-download timeout.
pub const DOWNLOAD_TIMEOUT: SimDuration = SimDuration::from_secs(25);
/// Total run time.
pub const RUN_TIME: SimTime = SimTime::from_secs(30);

/// Experiment configuration. The victim's clock is fixed:
/// [`DOWNLOAD_START`], [`DOWNLOAD_TIMEOUT`] and [`RUN_TIME`].
#[derive(Clone, Debug)]
pub struct DownloadMitmConfig {
    /// Underlying topology.
    pub scenario: CorpScenarioCfg,
}

impl DownloadMitmConfig {
    /// The Section 4 setup, verbatim.
    pub fn paper() -> DownloadMitmConfig {
        DownloadMitmConfig {
            scenario: CorpScenarioCfg::paper_attack(),
        }
    }

    /// Same victim workflow on the healthy network.
    pub fn baseline() -> DownloadMitmConfig {
        DownloadMitmConfig {
            scenario: CorpScenarioCfg::baseline(),
        }
    }
}

/// What one replication produced.
#[derive(Clone, Debug)]
pub struct DownloadMitmResult {
    /// The download workflow completed (page + file fetched).
    pub completed: bool,
    /// The fetched bytes are the attacker's trojan.
    pub victim_got_trojan: bool,
    /// The fetched bytes are the genuine release.
    pub victim_got_genuine: bool,
    /// The victim's MD5 verification passed.
    pub md5_check_passed: bool,
    /// Where the file actually came from.
    pub file_server: Option<Ipv4Addr>,
    /// The link on the page as the victim saw it.
    pub link_seen: Option<String>,
    /// Whether the victim ended up associated to the rogue AP.
    pub victim_on_rogue: bool,
    /// netsed replacements performed on the gateway.
    pub netsed_replacements: u64,
    /// Wall-clock (simulated) duration of the workflow, seconds.
    pub download_secs: f64,
    /// Failure reason, if any.
    pub error: Option<String>,
}

/// Run one replication of the Figure 2 experiment.
pub fn run_download_mitm(cfg: &DownloadMitmConfig, seed: Seed) -> DownloadMitmResult {
    let mut sc = build_corp(&cfg.scenario, seed);
    let dl_app = sc.world.add_app(
        sc.victim,
        Box::new(DownloadClient::new(
            crate::scenario::addrs::TARGET,
            "/download.html",
            DOWNLOAD_START,
            DOWNLOAD_TIMEOUT,
        )),
    );
    sc.world.run_until(RUN_TIME);

    let outcome = sc
        .world
        .app::<DownloadClient>(sc.victim, dl_app)
        .outcome
        .clone();
    let victim_on_rogue = match &sc.gateway {
        Some(gw) => sc
            .world
            .ap(gw.node, gw.rogue_ap_radio)
            .is_associated(crate::scenario::victim_mac()),
        None => false,
    };
    let netsed_replacements = match &sc.gateway {
        Some(gw) => sc.world.app::<Netsed>(gw.node, gw.netsed_app).replacements,
        None => 0,
    };
    let victim_associated = sc.world.sta_state(sc.victim, sc.victim_radio) == StaState::Associated;

    match outcome {
        Some(o) => {
            let bytes = o.file_bytes.as_deref();
            DownloadMitmResult {
                completed: o.error.is_none(),
                victim_got_trojan: bytes == Some(&sc.trojan[..]),
                victim_got_genuine: bytes == Some(&sc.portal.file[..]),
                md5_check_passed: o.verified,
                file_server: o.file_server,
                link_seen: o.link.clone(),
                victim_on_rogue,
                netsed_replacements,
                download_secs: o
                    .completed_at
                    .map(|t| t.since(DOWNLOAD_START).as_secs_f64())
                    .unwrap_or(f64::NAN),
                error: o.error,
            }
        }
        None => DownloadMitmResult {
            completed: false,
            victim_got_trojan: false,
            victim_got_genuine: false,
            md5_check_passed: false,
            file_server: None,
            link_seen: None,
            victim_on_rogue,
            netsed_replacements,
            download_secs: f64::NAN,
            error: Some(if victim_associated {
                "download never finished".into()
            } else {
                "victim never associated".into()
            }),
        },
    }
}

/// One row of the boundary-miss sweep.
#[derive(Clone, Debug)]
pub struct BoundaryPoint {
    /// Server-side TCP MSS.
    pub server_mss: usize,
    /// Replications run.
    pub reps: usize,
    /// Fraction where the link rewrite landed (victim got the trojan).
    pub link_rewrite_rate: f64,
    /// Fraction where both rewrites landed (trojan fetched AND the MD5
    /// verification passed) — the full Figure 2 deception.
    pub full_deception_rate: f64,
    /// Fraction of completed runs with at least one boundary miss
    /// (fewer than the expected 2 replacements).
    pub any_miss_rate: f64,
}

/// Sweep the server's segment size. Small segments make the target
/// strings straddle TCP boundaries more often; each replication also
/// randomizes the page padding so the split point moves.
pub fn boundary_miss_sweep(mss_values: &[usize], reps: usize, seed: Seed) -> Vec<BoundaryPoint> {
    let outcomes = replicate(mss_values, reps, |&mss, rep| {
        let rep_seed = seed.fork(mss as u64 * 10_000 + rep as u64);
        let mut cfg = DownloadMitmConfig::paper();
        cfg.scenario.server_mss = mss;
        // Shift segment boundaries per replication.
        cfg.scenario.page_pad = rogue_sim::SimRng::new(rep_seed).below(mss as u64) as usize;
        let r = run_download_mitm(&cfg, rep_seed);
        let link = r.victim_got_trojan;
        let full = r.victim_got_trojan && r.md5_check_passed;
        let miss = r.completed && r.netsed_replacements < 2;
        (link, full, miss)
    });
    mss_values
        .iter()
        .zip(outcomes)
        .map(|(&mss, outcomes)| BoundaryPoint {
            server_mss: mss,
            reps: outcomes.len(),
            link_rewrite_rate: rate(&outcomes, |o| o.0),
            full_deception_rate: rate(&outcomes, |o| o.1),
            any_miss_rate: rate(&outcomes, |o| o.2),
        })
        .collect()
}

/// The E2 report body: one paper-configuration attack, then the
/// boundary-miss sweep at `reps` replications per segment size.
pub fn report_body(reps: usize, seed: Seed) -> String {
    let attack = run_download_mitm(&DownloadMitmConfig::paper(), seed);
    let mut body = format!(
        "paper attack (1 run): on_rogue={} trojaned={} md5_passed={} file_from={:?} netsed_hits={}\n\n",
        attack.victim_on_rogue,
        attack.victim_got_trojan,
        attack.md5_check_passed,
        attack.file_server,
        attack.netsed_replacements
    );
    let mut t = Table::new(&[
        "server MSS",
        "reps",
        "link rewritten",
        "fully deceived",
        "any rule missed",
    ]);
    for p in &boundary_miss_sweep(&[64, 96, 128, 256, 512, 1400], reps, seed) {
        t.row(&[
            p.server_mss.to_string(),
            p.reps.to_string(),
            pct(p.link_rewrite_rate),
            pct(p.full_deception_rate),
            pct(p.any_miss_rate),
        ]);
    }
    body.push_str(&t.render());
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_attack_succeeds_end_to_end() {
        let r = run_download_mitm(&DownloadMitmConfig::paper(), Seed(11));
        assert!(r.completed, "error: {:?}", r.error);
        assert!(r.victim_on_rogue, "victim must be on the rogue AP");
        assert!(r.victim_got_trojan, "link rewrite must land");
        assert!(!r.victim_got_genuine);
        assert!(
            r.md5_check_passed,
            "the victim's verification must be fooled (md5 rule)"
        );
        assert_eq!(
            r.file_server,
            Some(crate::scenario::addrs::EVIL),
            "the naive attack reveals the real download IP (§4.2)"
        );
        assert!(r.netsed_replacements >= 2);
        assert!(
            r.link_seen.as_deref().unwrap_or("").contains("evil.tgz"),
            "rewritten link: {:?}",
            r.link_seen
        );
    }

    #[test]
    fn baseline_download_is_genuine() {
        let r = run_download_mitm(&DownloadMitmConfig::baseline(), Seed(12));
        assert!(r.completed, "error: {:?}", r.error);
        assert!(!r.victim_on_rogue);
        assert!(r.victim_got_genuine);
        assert!(r.md5_check_passed);
        assert_eq!(r.file_server, Some(crate::scenario::addrs::TARGET));
        assert_eq!(r.netsed_replacements, 0);
    }

    #[test]
    fn tiny_mss_causes_boundary_misses() {
        // With a 96-byte server MSS the 32-char MD5SUM straddles a
        // boundary in roughly a third of random paddings.
        let points = boundary_miss_sweep(&[96], 6, Seed(13));
        assert_eq!(points.len(), 1);
        let p = &points[0];
        assert_eq!(p.reps, 6);
        assert!(
            p.any_miss_rate > 0.0 || p.full_deception_rate < 1.0,
            "expected some straddle at MSS 96: {p:?}"
        );
    }
}
