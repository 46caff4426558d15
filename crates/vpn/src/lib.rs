//! # rogue-vpn — the paper's countermeasure
//!
//! Section 5 of *Countering Rogues in Wireless Networks*: "require all
//! traffic to pass through a VPN to a trusted, secure, wired network",
//! with four explicit requirements (§5.2):
//!
//! 1. **Provided by a trustworthy entity** — the endpoint lives on the
//!    wired corporate network in the scenarios;
//! 2. **Authentication information preestablished** — a pre-shared key
//!    provisioned out of band; the handshake HMACs the DH transcript
//!    under it, so a rogue AP that terminates the tunnel itself fails
//!    authentication (there is a test for exactly that);
//! 3. **VPN endpoint in secure wired network** — enforced by scenario
//!    topology;
//! 4. **Must handle all client traffic** — the client host's default
//!    route points into the tunnel device; only the encapsulated
//!    transport bypasses it via a host route.
//!
//! Two encapsulations are provided:
//!
//! * [`Transport::Udp`] — one record per datagram (IPsec-style),
//! * [`Transport::Tcp`] — records framed over a TCP stream, reproducing
//!   the paper's PPP-over-SSH testbed and its admitted drawback: "any
//!   UDP traffic is subject to unnecessary retransmission by TCP"
//!   (experiment E5 measures the resulting TCP-over-TCP penalty).

#![forbid(unsafe_code)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::VpnClient;
pub use protocol::{Transport, PSK_LEN};
pub use server::VpnServer;
