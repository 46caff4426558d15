//! The compiler: lowering a validated [`Scenario`] onto a
//! `rogue-core` [`World`].
//!
//! The generic topology is one bridged LAN: every `[[ap]]` bridges
//! 802.11 onto a single switch, every `[[server]]` is a wired host on
//! it, and all addresses share one /8, so ARP resolves station ↔ server
//! without routers. Populations are expanded by [`crate::generate`],
//! their mobile clients registered as [`MobilityPlan`] walkers, and
//! traffic templates become the ordinary `rogue-services` apps. Rogues
//! are cloned from the AP they impersonate ([`clone_ap`], exactly as an
//! attacker would from a captured beacon) and brought on air at their
//! activation time; the optional deauth flood uses the same timing
//! offsets the hand-coded §4 attack does.

use rogue_attack::{clone_ap, DeauthFlooder};
use rogue_core::wids::WidsDeployment;
use rogue_core::world::{SwitchId, World};
use rogue_dot11::frame::MgmtInfo;
use rogue_dot11::{MacAddr, StaConfig};
use rogue_netstack::{IfIndex, Ipv4Addr};
use rogue_services::apps::{DownloadClient, HttpServerApp};
use rogue_services::site::{download_portal, make_binary, news_site};
use rogue_services::traffic::{PingApp, UdpCbrSource, UdpSink};
use rogue_sim::{SimDuration, SimRng, SimTime};
use rogue_wids::WidsConfig;

use crate::generate::{expand_all, ClientSpec};
use crate::mobility::{MobilityModel, MobilityPlan, Walker};
use crate::spec::{FlowSpec, MobilitySpec, ReportKind, Scenario, ServerContent};
use crate::toml::{Error, Span};

/// UDP sink port on every server.
pub const UDP_PORT: u16 = 5000;

/// One compiled client.
pub struct ClientHandle {
    /// The generated spec it came from.
    pub spec: ClientSpec,
    /// Node id.
    pub node: rogue_core::NodeId,
    /// Station radio index on the node.
    pub radio: usize,
    /// Station interface.
    pub iface: IfIndex,
    /// UDP datagrams this client's sources will send (for summaries).
    pub udp_source_apps: Vec<usize>,
    /// Browser app indices.
    pub browser_apps: Vec<usize>,
    /// Download app indices.
    pub download_apps: Vec<usize>,
    /// Ping app indices.
    pub ping_apps: Vec<usize>,
}

/// One compiled server.
pub struct ServerHandle {
    /// Node id.
    pub node: rogue_core::NodeId,
    /// Bytes of the page clients verify against (News servers).
    pub expected_body: bytes::Bytes,
    /// UDP sink app index.
    pub sink_app: usize,
}

/// One compiled rogue.
pub struct RogueHandle {
    /// Node id.
    pub node: rogue_core::NodeId,
    /// Rogue AP radio index.
    pub ap_radio: usize,
    /// Deauth injector radio index, if armed.
    pub injector_radio: Option<usize>,
}

/// A scenario lowered onto a world, ready to run.
pub struct Compiled {
    /// The world.
    pub world: World,
    /// Walkers to step each tick.
    pub mobility: MobilityPlan,
    /// Clients, in generation order.
    pub clients: Vec<ClientHandle>,
    /// Servers, in file order.
    pub servers: Vec<ServerHandle>,
    /// Rogues, in file order.
    pub rogues: Vec<RogueHandle>,
    /// WIDS deployment, if the file asks for one.
    pub wids: Option<WidsDeployment>,
    /// The LAN switch everything bridges onto.
    pub lan: SwitchId,
}

/// Lower `sc` onto a fresh world.
pub fn compile(sc: &Scenario) -> Result<Compiled, Error> {
    if sc.report.kind != ReportKind::Summary {
        return Err(Error::at(
            Span { line: 1, col: 1 },
            "only summary scenarios compile to a world; e1/e10 kinds run \
             through their experiment drivers",
        ));
    }
    let mut world = World::new(sc.seed, sc.medium.clone());
    let mut rng = SimRng::new(sc.seed.fork(0xC0DE));
    let lan = world.add_switch(SimDuration::from_micros(10));

    // --- infrastructure APs -------------------------------------------
    let mut ap_radios = Vec::new();
    for (i, ap) in sc.aps.iter().enumerate() {
        let node = world.add_node(&format!("ap-{}-{i}", ap.ssid));
        let cfg = rogue_dot11::ApConfig::typical(ap.bssid, &ap.ssid, ap.channel, ap.wep_key());
        let radio = world.add_ap_bridge(node, ap.pos, ap.tx_power_dbm, cfg, Some(lan));
        ap_radios.push((node, radio));
    }

    // --- servers -------------------------------------------------------
    let mut servers = Vec::new();
    for (i, srv) in sc.servers.iter().enumerate() {
        let node = world.add_node(&format!("srv-{}", srv.name));
        world.add_wired_iface(node, lan, MacAddr::local(0xFE00 + i as u64), srv.ip, 8);
        let (site, expected_body) = match &srv.content {
            ServerContent::News => {
                let site = news_site();
                let body = site.get("/index.html").expect("news page").1.clone();
                (site, body)
            }
            ServerContent::Download { file_len } => {
                let portal = download_portal(make_binary(&mut rng, *file_len));
                let body = portal
                    .site
                    .get("/download.html")
                    .expect("portal page")
                    .1
                    .clone();
                (portal.site, body)
            }
        };
        world.add_app(node, Box::new(HttpServerApp::new(80, site)));
        let sink_app = world.add_app(node, Box::new(UdpSink::new(UDP_PORT)));
        servers.push(ServerHandle {
            node,
            expected_body,
            sink_app,
        });
    }

    // --- populations ---------------------------------------------------
    let mut mobility = MobilityPlan::new();
    let mut clients = Vec::new();
    for spec in expand_all(sc) {
        let pop = &sc.populations[spec.population];
        let node = world.add_node(&spec.name);
        let wep = pop
            .wep
            .as_deref()
            .map(rogue_crypto::wep::WepKey::from_passphrase_40);
        let sta = StaConfig::typical(spec.mac, &pop.ssid, wep);
        let (radio, iface) = world.add_sta(node, spec.pos, 15.0, sta, spec.ip, 8);
        if let MobilitySpec::Waypoint { speed_mps, pause } = pop.mobility {
            mobility.add(Walker::new(
                world.radio_id(node, radio),
                spec.pos,
                MobilityModel::RandomWaypoint {
                    area: pop.area,
                    speed_mps,
                    pause,
                },
                spec.seed,
            ));
        }
        let mut handle = ClientHandle {
            node,
            radio,
            iface,
            udp_source_apps: Vec::new(),
            browser_apps: Vec::new(),
            download_apps: Vec::new(),
            ping_apps: Vec::new(),
            spec,
        };
        for &fi in &handle.spec.flows {
            let t = &pop.traffic[fi];
            let srv_index = sc
                .servers
                .iter()
                .position(|s| s.name == t.server)
                .expect("validated reference");
            let srv = &servers[srv_index];
            let dst = sc.servers[srv_index].ip;
            match &t.flow {
                FlowSpec::Http { path, period } => {
                    let app = world.add_app(
                        node,
                        Box::new(rogue_services::apps::BrowserApp::new(
                            dst,
                            path,
                            srv.expected_body.clone(),
                            t.start,
                            *period,
                        )),
                    );
                    handle.browser_apps.push(app);
                }
                FlowSpec::Download => {
                    let app = world.add_app(
                        node,
                        Box::new(DownloadClient::new(
                            dst,
                            "/download.html",
                            t.start,
                            SimDuration::from_secs(25),
                        )),
                    );
                    handle.download_apps.push(app);
                }
                FlowSpec::Udp {
                    rate_pps,
                    payload,
                    profile,
                } => {
                    let end = SimTime::ZERO + sc.duration;
                    // Compile the diurnal profile into back-to-back CBR
                    // windows; a scale of 0 leaves the window silent.
                    let windows: Vec<(SimTime, SimTime, f64)> = if profile.is_empty() {
                        vec![(t.start, end, 1.0)]
                    } else {
                        profile
                            .iter()
                            .enumerate()
                            .map(|(wi, &(from, scale))| {
                                let until =
                                    profile.get(wi + 1).map(|&(next, _)| next).unwrap_or(end);
                                (from.max(t.start), until.min(end), scale)
                            })
                            .collect()
                    };
                    for (from, until, scale) in windows {
                        if scale <= 0.0 || until <= from {
                            continue;
                        }
                        let pps = (*rate_pps as f64 * scale).max(0.001);
                        let interval = SimDuration::from_nanos((1e9 / pps).round().max(1.0) as u64);
                        let app = world.add_app(
                            node,
                            Box::new(UdpCbrSource::new(
                                (dst, UDP_PORT),
                                *payload,
                                interval,
                                from,
                                until,
                            )),
                        );
                        handle.udp_source_apps.push(app);
                    }
                }
                FlowSpec::Ping { period } => {
                    let app = world.add_app(node, Box::new(PingApp::new(dst, t.start, *period)));
                    handle.ping_apps.push(app);
                }
            }
        }
        clients.push(handle);
    }

    // --- rogues --------------------------------------------------------
    let mut rogues = Vec::new();
    for (i, r) in sc.rogues.iter().enumerate() {
        let cloned = sc
            .aps
            .iter()
            .find(|ap| ap.ssid == r.clone_of)
            .expect("validated reference");
        let node = world.add_node(&format!("rogue-{i}"));
        // What the attacker would have sniffed from the victim network.
        let observed = MgmtInfo {
            timestamp: 0,
            beacon_interval_tu: 100,
            capability: 0, // unused by clone_ap
            ssid: cloned.ssid.clone(),
            channel: cloned.channel,
        };
        let cfg = clone_ap(&observed, cloned.bssid, r.channel, cloned.wep_key());
        let (ap_radio, _iface) = world.add_ap_local_starting_at(
            node,
            r.pos,
            r.tx_power_dbm,
            cfg,
            Ipv4Addr::new(10, 66, 66, 1 + i as u8),
            8,
            r.start,
        );
        let injector_radio = if r.deauth {
            // Same cadence as the §4 hand-coded attack: flood starts
            // 700 ms after the rogue is on air, on the victim channel.
            let flooder = DeauthFlooder::steady(
                cloned.bssid,
                r.deauth_target,
                r.start + SimDuration::from_millis(700),
                SimDuration::from_millis(150),
                r.start + SimDuration::from_secs(60),
            );
            Some(world.add_injector(node, r.pos, 18.0, cloned.channel, flooder))
        } else {
            None
        };
        rogues.push(RogueHandle {
            node,
            ap_radio,
            injector_radio,
        });
    }

    // --- WIDS ----------------------------------------------------------
    let wids = sc.wids.as_ref().map(|w| {
        let node = world.add_node("wids-defender");
        let cfg = WidsConfig {
            authorized_aps: sc.aps.iter().map(|ap| (ap.bssid, ap.channel)).collect(),
            trusted_bindings: sc
                .servers
                .iter()
                .enumerate()
                .map(|(i, s)| (s.ip, MacAddr::local(0xFE00 + i as u64)))
                .collect(),
            ..WidsConfig::default()
        };
        WidsDeployment::new(&mut world, node, w.pos, &w.channels, Some(lan), cfg)
    });

    Ok(Compiled {
        world,
        mobility,
        clients,
        servers,
        rogues,
        wids,
        lan,
    })
}
