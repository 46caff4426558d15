//! One test per headline claim of the paper, phrased as the paper
//! phrases it. These are the assertions EXPERIMENTS.md's summary column
//! is generated from.

use rogue_core::experiments::e1_association::capture_with_deauth;
use rogue_core::experiments::e2_download::{
    run_download_mitm, DownloadMitmConfig, DOWNLOAD_START, DOWNLOAD_TIMEOUT, RUN_TIME,
};
use rogue_core::experiments::e3_vpn::{run_vpn_defense, VpnMode};
use rogue_core::experiments::e4_wep::{crack_once, random_key};
use rogue_core::experiments::e5_tcp_over_tcp::{tunnel_comparison, InnerFlow};
use rogue_core::experiments::e6_detection::run_detection_once;
use rogue_core::experiments::e7_matrix::{defense_matrix_extended, scenario_for};
use rogue_core::policy::ClientPolicy;
use rogue_core::scenario::{addrs, build_corp};
use rogue_dot11::MacAddr;
use rogue_services::apps::DownloadClient;
use rogue_sim::{Seed, SimDuration, SimRng, SimTime};
use rogue_vpn::Transport;

/// §1: "wireless networks are particularly vulnerable to a simple MITM
/// that can make even rudimentary web surfing dangerous."
#[test]
fn claim_simple_mitm_vs_web_surfing() {
    let r = run_download_mitm(&DownloadMitmConfig::paper(), Seed(1));
    assert!(r.victim_got_trojan && r.md5_check_passed);
}

/// §2.1: WEP "provides no protection what so ever" in this scenario —
/// the attack succeeds identically with and without WEP.
#[test]
fn claim_wep_provides_no_protection() {
    let with_wep = run_download_mitm(
        &DownloadMitmConfig {
            scenario: scenario_for(ClientPolicy::Wep),
        },
        Seed(2),
    );
    let without = run_download_mitm(
        &DownloadMitmConfig {
            scenario: scenario_for(ClientPolicy::Open),
        },
        Seed(2),
    );
    assert_eq!(with_wep.victim_got_trojan, without.victim_got_trojan);
    assert!(with_wep.victim_got_trojan);
}

/// §2.1: MAC filtering "accomplishes nothing more than perhaps keeping
/// honest people honest."
#[test]
fn claim_mac_filtering_is_defeated_by_cloning() {
    let r = run_download_mitm(
        &DownloadMitmConfig {
            scenario: scenario_for(ClientPolicy::WepMacFilter),
        },
        Seed(3),
    );
    assert!(r.victim_got_trojan && r.md5_check_passed);
}

/// §4: "he could force the client's disassociation from the legitimate
/// AP until the client associates with the Rogue AP."
#[test]
fn claim_forced_deauth_roaming() {
    let rows = capture_with_deauth(2, Seed(4));
    assert_eq!(rows[0].capture_rate, 0.0, "no deauth, no late capture");
    assert!(rows[1].capture_rate > 0.9, "deauth forces the roam");
}

/// §4 premise: the WEP key is recoverable from passive capture.
#[test]
fn claim_airsnort_recovers_wep_keys() {
    let mut rng = SimRng::new(Seed(5));
    let key = random_key(&mut rng, 5);
    assert!(crack_once(&key, 240));
}

/// §5: the VPN makes the compromised segment harmless.
#[test]
fn claim_vpn_defeats_the_mitm() {
    let r = run_vpn_defense(VpnMode::Udp, Seed(6));
    assert!(r.victim_on_rogue, "still on the rogue…");
    assert!(!r.victim_got_trojan, "…but untouchable");
    assert!(r.victim_got_genuine && r.md5_check_passed);
}

/// §5.3: "any UDP traffic is subject to unnecessary retransmission by
/// TCP" under the PPP-over-SSH transport.
#[test]
fn claim_tcp_encap_retransmits_udp() {
    let rows = tunnel_comparison(InnerFlow::UdpCbr, &[0.05], 2, Seed(7));
    let udp = rows.iter().find(|r| r.transport == Transport::Udp).unwrap();
    let tcp = rows.iter().find(|r| r.transport == Transport::Tcp).unwrap();
    assert!(udp.udp_delivery < 0.995, "raw loss shows through UDP encap");
    assert!(
        tcp.udp_delivery > udp.udp_delivery,
        "TCP encap 'recovers' the loss…"
    );
    assert!(
        tcp.udp_max_latency_ms > 10.0 * udp.udp_max_latency_ms.max(0.5),
        "…by head-of-line-blocking retransmission (udp {udp:?}, tcp {tcp:?})"
    );
}

/// §2.3: sequence-control monitoring and site audits detect the rogue;
/// wired-side monitoring does not. No frame crosses the corp switch
/// during E6, so the wired half is also checked where traffic does
/// cross it, under the paper's download MITM: the gateway relays the
/// victim across the corp LAN under the cloned, registered employee MAC
/// (§2.1), and the monitor stays silent. Without MAC filtering the
/// uplink keeps its own address, and that address is the one stranger.
#[test]
fn claim_detection_asymmetry() {
    let o = run_detection_once(
        SimDuration::from_millis(250),
        SimTime::from_secs(15),
        Seed(8),
    );
    assert!(o.audit_latency_secs.is_some());
    assert!(o.seqmon_latency_secs.is_some());
    assert!(!o.wired_alarmed);

    let (inspected, strangers) = wired_census_under_download(true);
    assert!(inspected > 0, "the download must cross the corp LAN");
    assert!(strangers.is_empty(), "{strangers:?}");
    let (_, strangers) = wired_census_under_download(false);
    let only: Vec<MacAddr> = strangers.iter().map(|&(_, mac)| mac).collect();
    assert_eq!(only, [MacAddr::local(60)], "the uplink's own MAC");
}

/// Frames the corp switch's wired monitor inspected, and the strangers
/// it found, over the paper's download MITM at `Seed(8)`, with or
/// without MAC filtering (which makes the gateway's uplink clone the
/// employee MAC).
fn wired_census_under_download(mac_filter: bool) -> (u64, Vec<(SimTime, MacAddr)>) {
    let mut scenario = DownloadMitmConfig::paper().scenario;
    scenario.wired_monitor = true;
    scenario.mac_filter = mac_filter;
    let mut sc = build_corp(&scenario, Seed(8));
    sc.world.add_app(
        sc.victim,
        Box::new(DownloadClient::new(
            addrs::TARGET,
            "/download.html",
            DOWNLOAD_START,
            DOWNLOAD_TIMEOUT,
        )),
    );
    sc.world.run_until(RUN_TIME);
    let census = sc.wired_census().expect("wired monitor deployed");
    (census.inspected, census.strangers)
}

/// The thesis, in one table: only the VPN rows defeat the attack,
/// over either encapsulation.
#[test]
fn claim_defense_matrix_shape() {
    for row in defense_matrix_extended(1, Seed(9)) {
        let is_vpn = matches!(row.policy, ClientPolicy::VpnAll(_));
        assert_eq!(
            row.deceived_rate == 0.0,
            is_vpn,
            "only VPN avoids deception: {row:?}"
        );
    }
}
