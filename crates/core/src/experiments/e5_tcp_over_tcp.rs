//! **E5 — §5.3: the TCP-encapsulation penalty.**
//!
//! "For testing purposes we have utilized a PPP through SSH VPN … This of
//! course has drawbacks since any UDP traffic is subject to unnecessary
//! retransmission by TCP."
//!
//! Topology: client ── lossy segment ── VPN endpoint ── clean LAN ──
//! server. The client tunnels everything; the lossy segment stands in
//! for the flaky wireless hop. Two encapsulations are compared under a
//! swept loss rate:
//!
//! * **UDP encapsulation** — lost records are simply lost; UDP flows see
//!   the raw loss but latency stays flat.
//! * **TCP encapsulation** (PPP-over-SSH) — the outer TCP dutifully
//!   retransmits every lost record: UDP "reliability" the application
//!   never asked for, paid in head-of-line-blocking latency; and for
//!   inner TCP flows, two stacked retransmission loops.

use rogue_dot11::MacAddr;
use rogue_netstack::netfilter::SnatRule;
use rogue_netstack::Ipv4Addr;
use rogue_phy::MediumParams;
use rogue_services::apps::DownloadClient;
use rogue_services::apps::HttpServerApp;
use rogue_services::site::{download_portal, make_binary};
use rogue_services::traffic::{UdpCbrSource, UdpSink};
use rogue_sim::{Seed, SimDuration, SimRng, SimTime};
use rogue_vpn::client::VpnClientConfig;
use rogue_vpn::server::{ClientAccount, VpnServerConfig};
use rogue_vpn::{Transport, VpnClient, VpnServer, PSK_LEN};

use super::{mean_or_nan, rate, replicate};
use crate::report::{pct, Table};
use crate::world::World;

const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 2);
const ENDPOINT_LOSSY_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 1);
const ENDPOINT_LAN_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const CLIENT_TUN: Ipv4Addr = Ipv4Addr::new(10, 8, 0, 2);
const ENDPOINT_TUN: Ipv4Addr = Ipv4Addr::new(10, 8, 0, 1);

/// Which inner workload runs through the tunnel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InnerFlow {
    /// Constant-bit-rate UDP (one datagram / 20 ms for 10 s).
    UdpCbr,
    /// A bulk HTTP download (64 KiB).
    TcpBulk,
}

/// One measurement row.
#[derive(Clone, Debug)]
pub struct TunnelPoint {
    /// Encapsulation.
    pub transport: Transport,
    /// Inner workload.
    pub flow: InnerFlow,
    /// Lossy-segment frame drop probability.
    pub loss: f64,
    /// Replications.
    pub reps: usize,
    /// UDP: fraction of datagrams delivered (NaN for TcpBulk).
    pub udp_delivery: f64,
    /// UDP: mean one-way latency, ms (NaN for TcpBulk).
    pub udp_mean_latency_ms: f64,
    /// UDP: worst latency, ms (NaN for TcpBulk).
    pub udp_max_latency_ms: f64,
    /// TCP: mean download completion time, s (NaN for UdpCbr or if no
    /// run completed).
    pub tcp_completion_secs: f64,
    /// TCP: fraction of downloads that completed in time.
    pub tcp_completion_rate: f64,
}

#[derive(Debug)]
struct RunMetrics {
    udp_delivery: f64,
    udp_mean_ms: f64,
    udp_max_ms: f64,
    tcp_secs: Option<f64>,
}

fn run_once(transport: Transport, flow: InnerFlow, loss: f64, seed: Seed) -> RunMetrics {
    let mut world = World::new(seed, MediumParams::default());
    let lossy = world.add_switch_lossy(SimDuration::from_micros(500), loss);
    let clean = world.add_switch(SimDuration::from_micros(10));
    let mut rng = SimRng::new(seed.fork(0xE5));

    // Client.
    let client = world.add_node("client");
    let c_wired = world.add_wired_iface(client, lossy, MacAddr::local(1), CLIENT_IP, 24);
    let c_tun = world.add_tun_iface(client, MacAddr::local(101), CLIENT_TUN, 24);
    world
        .host_mut(client)
        .routes
        .add_default(ENDPOINT_TUN, c_tun);
    let _ = c_wired;

    // Endpoint.
    let ep = world.add_node("endpoint");
    world.add_wired_iface(ep, lossy, MacAddr::local(2), ENDPOINT_LOSSY_IP, 24);
    let ep_lan = world.add_wired_iface(ep, clean, MacAddr::local(3), ENDPOINT_LAN_IP, 8);
    let ep_tun = world.add_tun_iface(ep, MacAddr::local(102), ENDPOINT_TUN, 24);
    {
        let host = world.host_mut(ep);
        host.ip_forward = true;
        host.netfilter.add_snat(SnatRule {
            out_ifindex: ep_lan,
            src_net: Some((Ipv4Addr::new(10, 8, 0, 0), 24)),
            to_ip: None,
        });
    }

    // Server.
    let server = world.add_node("server");
    world.add_wired_iface(server, clean, MacAddr::local(4), SERVER_IP, 8);

    // VPN pair.
    let psk = [0x5Au8; PSK_LEN];
    let vpn_client = VpnClient::new(
        VpnClientConfig {
            server: (ENDPOINT_LOSSY_IP, 4500),
            psk,
            client_id: 1,
            transport,
            tun_ifindex: c_tun,
            tun_gateway_ip: ENDPOINT_TUN,
            tun_gateway_mac: MacAddr::local(102),
            start_at: SimTime::from_millis(10),
        },
        rng.fork(1),
    );
    world.attach_vpn_client(client, c_tun, vpn_client);
    let vpn_server = VpnServer::new(
        VpnServerConfig {
            port: 4500,
            transport,
            accounts: [(
                1,
                ClientAccount {
                    psk,
                    tun_ip: CLIENT_TUN,
                },
            )]
            .into_iter()
            .collect(),
            tun_ifindex: ep_tun,
            tun_peer_mac: MacAddr::local(101),
        },
        rng.fork(2),
    );
    world.attach_vpn_server(ep, ep_tun, vpn_server);

    match flow {
        InnerFlow::UdpCbr => {
            let src = UdpCbrSource::new(
                (SERVER_IP, 5000),
                64,
                SimDuration::from_millis(20),
                SimTime::from_secs(1),
                SimTime::from_secs(11),
            );
            let src_app = world.add_app(client, Box::new(src));
            let sink_app = world.add_app(server, Box::new(UdpSink::new(5000)));
            world.run_until(SimTime::from_secs(14));
            let sent = world.app::<UdpCbrSource>(client, src_app).sent;
            let sink = world.app::<UdpSink>(server, sink_app);
            RunMetrics {
                udp_delivery: if sent == 0 {
                    0.0
                } else {
                    sink.received as f64 / sent as f64
                },
                udp_mean_ms: sink.mean_latency_ms(),
                udp_max_ms: sink.latency_max_ns as f64 / 1e6,
                tcp_secs: None,
            }
        }
        InnerFlow::TcpBulk => {
            let portal = download_portal(make_binary(&mut rng, 64 * 1024));
            world.add_app(
                server,
                Box::new(HttpServerApp::new(80, portal.site.clone())),
            );
            let start = SimTime::from_secs(1);
            let dl = world.add_app(
                client,
                Box::new(DownloadClient::new(
                    SERVER_IP,
                    "/download.html",
                    start,
                    SimDuration::from_secs(60),
                )),
            );
            world.run_until(SimTime::from_secs(70));
            let outcome = world.app::<DownloadClient>(client, dl).outcome.clone();
            RunMetrics {
                udp_delivery: f64::NAN,
                udp_mean_ms: f64::NAN,
                udp_max_ms: f64::NAN,
                tcp_secs: outcome.and_then(|o| {
                    (o.error.is_none() && o.verified)
                        .then(|| o.completed_at.map(|t| t.since(start).as_secs_f64()))
                        .flatten()
                }),
            }
        }
    }
}

/// Sweep loss for both encapsulations and one inner flow.
pub fn tunnel_comparison(
    flow: InnerFlow,
    losses: &[f64],
    reps: usize,
    seed: Seed,
) -> Vec<TunnelPoint> {
    let cells: Vec<(Transport, f64)> = [Transport::Udp, Transport::Tcp]
        .into_iter()
        .flat_map(|transport| losses.iter().map(move |&loss| (transport, loss)))
        .collect();
    let runs = replicate(&cells, reps, |&(transport, loss), rep| {
        run_once(
            transport,
            flow,
            loss,
            seed.fork(
                (loss * 1e4) as u64 * 100
                    + rep as u64
                    + matches!(transport, Transport::Tcp) as u64 * 7_777,
            ),
        )
    });
    cells
        .into_iter()
        .zip(runs)
        .map(|((transport, loss), runs)| {
            let n = runs.len().max(1) as f64;
            let completed: Vec<f64> = runs.iter().filter_map(|r| r.tcp_secs).collect();
            TunnelPoint {
                transport,
                flow,
                loss,
                reps: runs.len(),
                udp_delivery: runs.iter().map(|r| r.udp_delivery).sum::<f64>() / n,
                udp_mean_latency_ms: runs.iter().map(|r| r.udp_mean_ms).sum::<f64>() / n,
                udp_max_latency_ms: runs
                    .iter()
                    .map(|r| r.udp_max_ms)
                    .fold(f64::NEG_INFINITY, f64::max),
                tcp_completion_secs: mean_or_nan(&completed),
                tcp_completion_rate: rate(&runs, |r| r.tcp_secs.is_some()),
            }
        })
        .collect()
}

/// Table label of an encapsulation.
fn encap_label(transport: Transport) -> String {
    match transport {
        Transport::Udp => "udp".to_string(),
        Transport::Tcp => "tcp (ppp/ssh)".to_string(),
    }
}

/// The E5 report body: the UDP flow's delivery and latency, then the
/// bulk download's completion, through both encapsulations at each
/// loss rate.
pub fn report_body(reps: usize, seed: Seed) -> String {
    let losses = [0.0, 0.02, 0.05, 0.10];
    let mut t = Table::new(&["encap", "loss", "delivery", "mean lat ms", "max lat ms"]);
    for p in &tunnel_comparison(InnerFlow::UdpCbr, &losses, reps, seed) {
        t.row(&[
            encap_label(p.transport),
            pct(p.loss),
            pct(p.udp_delivery),
            format!("{:.1}", p.udp_mean_latency_ms),
            format!("{:.1}", p.udp_max_latency_ms),
        ]);
    }
    let mut body = t.render();
    body.push('\n');
    let mut t = Table::new(&["encap", "loss", "dl completed", "mean completion s"]);
    for p in &tunnel_comparison(InnerFlow::TcpBulk, &losses, reps, seed) {
        t.row(&[
            encap_label(p.transport),
            pct(p.loss),
            pct(p.tcp_completion_rate),
            format!("{:.2}", p.tcp_completion_secs),
        ]);
    }
    body.push_str(&t.render());
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_both_transports_deliver() {
        for transport in [Transport::Udp, Transport::Tcp] {
            let m = run_once(transport, InnerFlow::UdpCbr, 0.0, Seed(51));
            assert!(
                m.udp_delivery > 0.95,
                "{transport:?}: delivery {}",
                m.udp_delivery
            );
        }
    }

    #[test]
    fn lossy_udp_encap_drops_tcp_encap_recovers() {
        let udp = run_once(Transport::Udp, InnerFlow::UdpCbr, 0.08, Seed(52));
        let tcp = run_once(Transport::Tcp, InnerFlow::UdpCbr, 0.08, Seed(52));
        // UDP encap: inner datagrams share the raw loss (two lossy
        // crossings: record out, nothing back — one crossing each way).
        assert!(
            udp.udp_delivery < 0.99,
            "udp encap delivery {}",
            udp.udp_delivery
        );
        // TCP encap: "unnecessary retransmission" delivers nearly all…
        assert!(
            tcp.udp_delivery > udp.udp_delivery,
            "udp {udp:?} tcp {tcp:?}"
        );
        // …at a latency cost.
        assert!(
            tcp.udp_max_ms > udp.udp_max_ms,
            "head-of-line blocking must show: udp {udp:?} tcp {tcp:?}"
        );
    }

    #[test]
    fn bulk_download_completes_through_both() {
        for transport in [Transport::Udp, Transport::Tcp] {
            let m = run_once(transport, InnerFlow::TcpBulk, 0.02, Seed(53));
            assert!(
                m.tcp_secs.is_some(),
                "{transport:?}: download must complete under mild loss"
            );
        }
    }
}
