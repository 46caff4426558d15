//! # rogue-services — the application layer of the reproduction
//!
//! Everything Section 4.1 of the paper runs on top of the gateway:
//!
//! * [`http`] — a minimal HTTP/1.0 server and client (close-delimited
//!   bodies, exactly the semantics that let netsed change a page's length
//!   without anyone noticing),
//! * [`site`] — the "sample target download web page … a downloadable
//!   binary, a link to that binary and an MD5SUM of that binary",
//! * [`apps`] — the poll-driven application trait and scripted clients:
//!   the victim's download workflow (fetch page → follow link → verify
//!   MD5) and a repeated page-fetch browser for the §5.1 "CNN" scenario,
//! * [`netsed`] — the stream editor: a TCP proxy applying
//!   search/replace rules **per chunk**, reproducing both the attack and
//!   its admitted limitation ("netsed will not match strings that cross
//!   packet boundaries"),
//! * [`parprouted`] — the proxy-ARP bridge daemon that makes the two-NIC
//!   gateway transparent (Appendix A),
//! * [`traffic`] — ping and UDP constant-bit-rate generators/sinks used
//!   by the connectivity and VPN-overhead experiments.

#![forbid(unsafe_code)]

pub mod apps;
pub mod http;
pub mod netsed;
pub mod parprouted;
pub mod site;
pub mod traffic;

pub use apps::{App, AppEvent, DownloadClient, DownloadOutcome, HttpServerApp};
pub use netsed::{Netsed, NetsedRule};
pub use parprouted::Parprouted;
