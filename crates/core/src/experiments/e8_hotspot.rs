//! **E8 (extension) — §1.2.2 / §5.1: the Hostile Hotspot and the "CNN"
//! scenario.**
//!
//! The paper's second deployment class: "a public wireless Internet
//! point of presence where the owner or administrator … has malicious
//! intentions and tampers with the traffic it handles." And its most
//! memorable argument (§5.1): a user "who only visits large legitimate
//! websites, like CNN" is *still* compromised, because "on an
//! unprotected wireless segment, the trust he places in the website
//! provider is irrelevant, since … anyone could insert malicious code
//! into any web content requested."
//!
//! Unlike Figure 1 there is nothing to crack or clone here — the AP
//! itself is the attacker. The experiment runs a traveller repeatedly
//! fetching a news page through a hotspot and measures how many pages
//! arrive altered, with the same three defences as E3.
//!
//! The anonymization footnote of §5.3 ("the client's traffic can also
//! be anonymized for privacy reasons at the VPN endpoint") is also
//! verified: with the tunnel up, the news server's peer address is the
//! endpoint's, never the traveller's.

use rogue_services::apps::BrowserApp;
use rogue_sim::{Seed, SimDuration, SimTime};
use rogue_vpn::Transport;

use super::replicate;
use crate::report::{pct, Table};
use crate::scenario::{build_hotspot, hotspot_addrs, HotspotScenarioCfg};

/// One replication's outcome.
#[derive(Clone, Debug)]
pub struct HotspotOutcome {
    /// Pages fetched whose body matched the genuine content.
    pub pages_ok: u64,
    /// Pages that came back altered (script injected).
    pub pages_tampered: u64,
    /// Fetch failures (timeouts etc.).
    pub failures: u64,
    /// netsed replacement count on the hotspot.
    pub injections: u64,
    /// Whether the traveller's real address ever appeared as a TCP peer
    /// at the news server (anonymity check; exercised in VPN mode).
    pub victim_ip_seen_by_server: bool,
}

/// Run one hotspot replication: the traveller browses the news site
/// every 500 ms for `browse_secs` seconds.
pub fn run_hotspot_once(cfg: &HotspotScenarioCfg, browse_secs: u64, seed: Seed) -> HotspotOutcome {
    let mut sc = build_hotspot(cfg, seed);
    let browser = sc.world.add_app(
        sc.victim,
        Box::new(BrowserApp::new(
            hotspot_addrs::NEWS,
            "/index.html",
            sc.genuine_page.clone(),
            SimTime::from_secs(2),
            SimDuration::from_millis(500),
        )),
    );
    sc.world.run_until(SimTime::from_secs(2 + browse_secs));

    let b = sc.world.app::<BrowserApp>(sc.victim, browser);
    let injections = sc
        .netsed_app
        .map(|idx| {
            sc.world
                .app::<rogue_services::netsed::Netsed>(sc.hotspot, idx)
                .replacements
        })
        .unwrap_or(0);
    // Anonymity: inspect the ARP table the news server built — it only
    // ever resolves the L2/L3 peers it exchanged packets with.
    let news_host = sc.world.host(sc.news_server.0);
    let victim_ip_seen_by_server = news_host
        .arp_cache
        .live_entries(sc.world.now())
        .iter()
        .any(|(ip, _)| *ip == hotspot_addrs::TRAVELLER);

    HotspotOutcome {
        pages_ok: b.pages_ok,
        pages_tampered: b.pages_tampered,
        failures: b.failures,
        injections,
        victim_ip_seen_by_server,
    }
}

/// One row of the hotspot defence table.
#[derive(Clone, Debug)]
pub struct HotspotRow {
    /// Scenario label.
    pub label: &'static str,
    /// Replications.
    pub reps: usize,
    /// Mean fraction of fetched pages that were tampered with.
    pub tamper_rate: f64,
    /// Mean pages fetched per run.
    pub mean_pages: f64,
}

/// The §5.1 comparison: honest hotspot, hostile hotspot, hostile hotspot
/// with the traveller tunnelling home.
pub fn hotspot_comparison(reps: usize, seed: Seed) -> Vec<HotspotRow> {
    let cases: [(&'static str, HotspotScenarioCfg); 3] = [
        (
            "honest hotspot",
            HotspotScenarioCfg {
                hostile: false,
                victim_vpn: None,
            },
        ),
        (
            "hostile hotspot",
            HotspotScenarioCfg {
                hostile: true,
                victim_vpn: None,
            },
        ),
        (
            "hostile + vpn-all",
            HotspotScenarioCfg {
                hostile: true,
                victim_vpn: Some(Transport::Udp),
            },
        ),
    ];
    let outcomes = replicate(&cases, reps, |(label, cfg), rep| {
        run_hotspot_once(cfg, 8, seed.fork(label.len() as u64 * 131 + rep as u64))
    });
    cases
        .into_iter()
        .zip(outcomes)
        .map(|((label, _), outcomes)| {
            let n = outcomes.len().max(1) as f64;
            let tamper_rate = outcomes
                .iter()
                .map(|o| {
                    let total = o.pages_ok + o.pages_tampered;
                    if total == 0 {
                        0.0
                    } else {
                        o.pages_tampered as f64 / total as f64
                    }
                })
                .sum::<f64>()
                / n;
            HotspotRow {
                label,
                reps: outcomes.len(),
                tamper_rate,
                mean_pages: outcomes
                    .iter()
                    .map(|o| (o.pages_ok + o.pages_tampered) as f64)
                    .sum::<f64>()
                    / n,
            }
        })
        .collect()
}

/// The E8 report body: pages per run and the share of them tampered
/// with, per hotspot scenario.
pub fn report_body(reps: usize, seed: Seed) -> String {
    let mut t = Table::new(&["scenario", "reps", "pages/run", "tamper rate"]);
    for r in &hotspot_comparison(reps, seed) {
        t.row(&[
            r.label.to_string(),
            r.reps.to_string(),
            format!("{:.1}", r.mean_pages),
            pct(r.tamper_rate),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_hotspot_serves_clean_pages() {
        let cfg = HotspotScenarioCfg {
            hostile: false,
            victim_vpn: None,
        };
        let o = run_hotspot_once(&cfg, 6, Seed(81));
        assert!(o.pages_ok >= 5, "{o:?}");
        assert_eq!(o.pages_tampered, 0, "{o:?}");
        assert_eq!(o.injections, 0);
    }

    #[test]
    fn hostile_hotspot_taints_every_trusted_page() {
        // §5.1: the website is honest; the *segment* is not.
        let o = run_hotspot_once(&HotspotScenarioCfg::cnn_scenario(), 6, Seed(82));
        assert!(o.pages_tampered >= 5, "{o:?}");
        assert_eq!(o.pages_ok, 0, "no page escapes: {o:?}");
        assert!(o.injections >= o.pages_tampered);
    }

    #[test]
    fn vpn_through_hostile_hotspot_is_clean_and_anonymous() {
        let cfg = HotspotScenarioCfg {
            hostile: true,
            victim_vpn: Some(Transport::Udp),
        };
        let o = run_hotspot_once(&cfg, 8, Seed(83));
        assert!(o.pages_ok >= 3, "{o:?}");
        assert_eq!(o.pages_tampered, 0, "{o:?}");
        assert_eq!(o.injections, 0, "ciphertext gives netsed nothing to match");
        // §5.3: "the client's traffic can also be anonymized … at the
        // VPN endpoint" — the server never learns the traveller's IP.
        assert!(!o.victim_ip_seen_by_server, "{o:?}");
    }

    #[test]
    fn comparison_rows_shape() {
        let rows = hotspot_comparison(1, Seed(84));
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].tamper_rate, 0.0);
        assert!(rows[1].tamper_rate > 0.99);
        assert_eq!(rows[2].tamper_rate, 0.0);
    }
}
