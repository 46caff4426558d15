//! **E7 — the defence matrix (the paper's §§1–3 argument as one table).**
//!
//! For each client/network policy, run the full Figure 2 attack and
//! record what the victim ended up with. The paper's thesis, measured:
//! every link-layer defence of the era (WEP, MAC filtering, one-way
//! 802.1x-style auth) leaves the client trojaned-with-a-passing-checksum;
//! only tunnelling everything to a trusted endpoint survives.

use rogue_crypto::wep::WepKey;
use rogue_sim::Seed;
use rogue_vpn::Transport;

use super::e2_download::{run_download_mitm, DownloadMitmConfig};
use super::{rate, replicate};
use crate::policy::ClientPolicy;
use crate::report::{pct, yn, Table};
use crate::scenario::CorpScenarioCfg;

/// One row of the matrix.
#[derive(Clone, Debug)]
pub struct MatrixRow {
    /// The defence in place.
    pub policy: ClientPolicy,
    /// Replications.
    pub reps: usize,
    /// Victim associated to the rogue AP.
    pub captured_rate: f64,
    /// Victim installed the trojan *and its MD5 check passed* — fully
    /// deceived.
    pub deceived_rate: f64,
    /// Victim completed a genuine, verified download.
    pub protected_rate: f64,
    /// Download workflow completed at all.
    pub completed_rate: f64,
}

/// Configure the corporate scenario for one policy.
pub fn scenario_for(policy: ClientPolicy) -> CorpScenarioCfg {
    let mut cfg = CorpScenarioCfg::paper_attack();
    cfg.wep = policy
        .uses_wep()
        .then(|| WepKey::from_passphrase_40("SECRET"));
    cfg.mac_filter = policy.uses_mac_filter();
    cfg.victim_vpn = policy.uses_vpn();
    // §2.2: 802.1x authenticates the client to the network with no
    // network authentication; at the MAC layer the rogue simply plays
    // along, so the scenario is open-link with the same race.
    if policy == ClientPolicy::Dot1xStyle {
        cfg.wep = None;
        cfg.mac_filter = false;
    }
    cfg
}

/// Run the matrix, `reps` replications of the Figure 2 attack per row:
/// every policy of [`ClientPolicy::all`], then the TCP-encapsulated VPN
/// as a seventh row. A row's replication `rep` runs at
/// `seed.fork(stream + rep)`.
pub fn defense_matrix_extended(reps: usize, seed: Seed) -> Vec<MatrixRow> {
    let rows: Vec<(ClientPolicy, u64, DownloadMitmConfig)> = ClientPolicy::all()
        .into_iter()
        .map(|policy| (policy, policy.label().len() as u64 * 7919))
        .chain([(ClientPolicy::VpnAll(Transport::Tcp), 0x7C9)])
        .map(|(policy, stream)| {
            let cfg = DownloadMitmConfig {
                scenario: scenario_for(policy),
            };
            (policy, stream, cfg)
        })
        .collect();
    let results = replicate(&rows, reps, |(_, stream, cfg), rep| {
        run_download_mitm(cfg, seed.fork(stream + rep as u64))
    });
    rows.into_iter()
        .zip(results)
        .map(|((policy, ..), results)| MatrixRow {
            policy,
            reps: results.len(),
            captured_rate: rate(&results, |r| r.victim_on_rogue),
            deceived_rate: rate(&results, |r| r.victim_got_trojan && r.md5_check_passed),
            protected_rate: rate(&results, |r| r.victim_got_genuine && r.md5_check_passed),
            completed_rate: rate(&results, |r| r.completed),
        })
        .collect()
}

/// The E7 report body: the defence matrix at `reps` replications per
/// row, and whether each defence defeats the attack.
pub fn report_body(reps: usize, seed: Seed) -> String {
    let mut t = Table::new(&[
        "defence",
        "captured",
        "deceived",
        "protected",
        "defeats attack",
    ]);
    for r in &defense_matrix_extended(reps, seed) {
        t.row(&[
            r.policy.label().to_string(),
            pct(r.captured_rate),
            pct(r.deceived_rate),
            pct(r.protected_rate),
            yn(r.deceived_rate == 0.0 && r.protected_rate > 0.0),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_layer_defences_fail_vpn_survives() {
        let rows = defense_matrix_extended(1, Seed(71));
        assert_eq!(rows.len(), 7);
        for r in &rows {
            match r.policy {
                ClientPolicy::VpnAll(_) => {
                    assert_eq!(r.deceived_rate, 0.0, "{r:?}");
                    assert!(r.protected_rate > 0.99, "{r:?}");
                }
                _ => {
                    assert!(r.captured_rate > 0.99, "{r:?}");
                    assert!(r.deceived_rate > 0.99, "{r:?}");
                    assert_eq!(r.protected_rate, 0.0, "{r:?}");
                }
            }
        }
        let table = report_body(1, Seed(71));
        assert!(table.contains("wep+macfilter"));
        assert!(table.contains("vpn-all (udp)"));
        assert!(table.contains("vpn-all (tcp)"));
    }
}
