//! **E3 — Figure 3 / §5: the VPN-everything defence.**
//!
//! The same compromised topology as E2 — victim on the rogue AP, traffic
//! bridged through the attacker — but the victim tunnels *all* traffic
//! to a pre-provisioned endpoint on the trusted wired network. The
//! DNAT rule never matches (the wire carries encapsulated records, not
//! TCP-to-port-80), netsed never sees a cleartext byte, and the download
//! verifies against the *genuine* MD5.

use rogue_sim::Seed;
use rogue_vpn::Transport;

use super::e2_download::{run_download_mitm, DownloadMitmConfig, DownloadMitmResult};
use super::{mean_or_nan, rate, replicate};
use crate::report::{pct, Table};
use crate::scenario::{build_corp, CorpScenarioCfg};

/// One mode of the Figure 3 comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VpnMode {
    /// No tunnel (the E2 victim).
    None,
    /// UDP-encapsulated tunnel.
    Udp,
    /// TCP-encapsulated tunnel (the paper's PPP-over-SSH).
    Tcp,
}

impl VpnMode {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            VpnMode::None => "no vpn",
            VpnMode::Udp => "vpn (udp encap)",
            VpnMode::Tcp => "vpn (tcp encap)",
        }
    }
}

/// One row of the Figure 3 comparison.
#[derive(Clone, Debug)]
pub struct VpnDefenseRow {
    /// Mode.
    pub mode: VpnMode,
    /// Replications.
    pub reps: usize,
    /// Fraction of runs where the victim associated to the rogue AP
    /// (the VPN does not and cannot prevent this — §5's point is that it
    /// doesn't matter).
    pub on_rogue_rate: f64,
    /// Fraction where the download completed.
    pub completed_rate: f64,
    /// Fraction where the victim received the trojan.
    pub trojan_rate: f64,
    /// Fraction where the victim received the genuine file with a
    /// passing MD5 — the defended outcome.
    pub genuine_verified_rate: f64,
    /// Mean download duration (completed runs), seconds.
    pub mean_download_secs: f64,
    /// Mean netsed replacements observed on the gateway.
    pub mean_netsed_hits: f64,
}

/// Run one replication of the E2 experiment with the victim in `mode`.
pub fn run_vpn_defense(mode: VpnMode, seed: Seed) -> DownloadMitmResult {
    let mut cfg = DownloadMitmConfig::paper();
    cfg.scenario.victim_vpn = match mode {
        VpnMode::None => None,
        VpnMode::Udp => Some(Transport::Udp),
        VpnMode::Tcp => Some(Transport::Tcp),
    };
    run_download_mitm(&cfg, seed)
}

/// The Figure 3 comparison table: `reps` replications per mode.
pub fn vpn_defense_comparison(reps: usize, seed: Seed) -> Vec<VpnDefenseRow> {
    let modes = [VpnMode::None, VpnMode::Udp, VpnMode::Tcp];
    let results = replicate(&modes, reps, |&mode, rep| {
        run_vpn_defense(mode, seed.fork(mode as u64 * 1000 + rep as u64))
    });
    modes
        .into_iter()
        .zip(results)
        .map(|(mode, results)| {
            let download_secs: Vec<f64> = results
                .iter()
                .filter(|r| r.completed)
                .map(|r| r.download_secs)
                .collect();
            VpnDefenseRow {
                mode,
                reps: results.len(),
                on_rogue_rate: rate(&results, |r| r.victim_on_rogue),
                completed_rate: rate(&results, |r| r.completed),
                trojan_rate: rate(&results, |r| r.victim_got_trojan),
                genuine_verified_rate: rate(&results, |r| {
                    r.victim_got_genuine && r.md5_check_passed
                }),
                mean_download_secs: mean_or_nan(&download_secs),
                mean_netsed_hits: results
                    .iter()
                    .map(|r| r.netsed_replacements as f64)
                    .sum::<f64>()
                    / results.len().max(1) as f64,
            }
        })
        .collect()
}

/// §5.2's authentication requirement, demonstrated: a rogue AP that
/// *terminates the VPN itself* (offering its own endpoint without the
/// pre-shared key) is refused by the client. Returns (client failed,
/// client auth failures).
pub fn rogue_endpoint_refused(seed: Seed) -> (bool, u64) {
    let mut cfg = CorpScenarioCfg::paper_attack();
    cfg.victim_vpn = Some(Transport::Udp);
    let mut sc = build_corp(&cfg, seed);
    // Sabotage: replace the endpoint's account PSK so it no longer
    // matches what the victim was provisioned with — equivalent to the
    // attacker standing up their own endpoint at the same address.
    {
        use rogue_dot11::MacAddr;
        use rogue_netstack::Ipv4Addr;
        use rogue_sim::SimRng;
        use rogue_vpn::server::{ClientAccount, VpnServerConfig};
        use rogue_vpn::VpnServer;
        let ep = sc.vpn_endpoint.expect("endpoint deployed");
        let bogus = VpnServer::new(
            VpnServerConfig {
                port: 4500,
                transport: Transport::Udp,
                accounts: [(
                    7,
                    ClientAccount {
                        psk: [0xEE; rogue_vpn::PSK_LEN], // wrong key
                        tun_ip: Ipv4Addr::new(10, 8, 0, 2),
                    },
                )]
                .into_iter()
                .collect(),
                tun_ifindex: 1,
                tun_peer_mac: MacAddr::local(101),
            },
            SimRng::new(seed.fork(0xBAD)),
        );
        // Find the endpoint's tun iface (index 1 by construction order).
        sc.world.attach_vpn_server(ep, 1, bogus);
    }
    // The client resends its hello up to 30 times (15 s) before failing
    // hard; give it time to exhaust the budget.
    sc.world.run_until(rogue_sim::SimTime::from_secs(20));
    let client = sc.world.vpn_client(sc.victim).expect("client attached");
    (client.is_failed(), client.auth_failures)
}

/// The E3 report body: the Figure 3 comparison at `reps` replications
/// per mode, then the §5.2 rogue-endpoint check.
pub fn report_body(reps: usize, seed: Seed) -> String {
    let mut t = Table::new(&[
        "mode",
        "on rogue",
        "completed",
        "trojaned",
        "genuine+verified",
        "mean dl s",
    ]);
    for r in &vpn_defense_comparison(reps, seed) {
        t.row(&[
            r.mode.label().to_string(),
            pct(r.on_rogue_rate),
            pct(r.completed_rate),
            pct(r.trojan_rate),
            pct(r.genuine_verified_rate),
            format!("{:.2}", r.mean_download_secs),
        ]);
    }
    let mut body = t.render();
    let (refused, fails) = rogue_endpoint_refused(seed);
    body.push_str(&format!(
        "\nrogue endpoint without PSK: refused={refused}, bad authenticators={fails}\n"
    ));
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_vpn_protects_the_download() {
        let r = run_vpn_defense(VpnMode::Udp, Seed(21));
        assert!(r.completed, "error: {:?}", r.error);
        assert!(
            r.victim_on_rogue,
            "the VPN does not prevent rogue association — it makes it harmless"
        );
        assert!(!r.victim_got_trojan, "no rewrite through the tunnel");
        assert!(r.victim_got_genuine);
        assert!(r.md5_check_passed);
        assert_eq!(
            r.netsed_replacements, 0,
            "netsed must never see a cleartext match"
        );
    }

    #[test]
    fn tcp_encap_also_protects() {
        let r = run_vpn_defense(VpnMode::Tcp, Seed(22));
        assert!(r.completed, "error: {:?}", r.error);
        assert!(!r.victim_got_trojan);
        assert!(r.victim_got_genuine && r.md5_check_passed);
    }

    #[test]
    fn rogue_vpn_endpoint_is_refused() {
        let (failed, auth_failures) = rogue_endpoint_refused(Seed(23));
        assert!(failed, "client must refuse an endpoint without the PSK");
        assert!(auth_failures >= 1);
    }
}
