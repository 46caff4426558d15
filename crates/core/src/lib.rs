//! # rogue-core — the reproduction of *Countering Rogues in Wireless
//! Networks* (ICPP 2003)
//!
//! This crate composes the substrates (`rogue-phy`, `rogue-dot11`,
//! `rogue-netstack`, `rogue-services`, `rogue-vpn`, `rogue-attack`,
//! `rogue-wids`) into runnable worlds and implements the paper's
//! experiments:
//!
//! * [`world`] — the discrete-event composition: radios + MAC entities +
//!   hosts + wired switches + applications, driven deterministically
//!   from one seed,
//! * [`scenario`] — prefabricated topologies: the Figure 1/2 corporate
//!   network with a two-NIC MITM gateway, and the hostile hotspot,
//! * [`policy`] — client security policies compared by the defence
//!   matrix (Open, WEP, WEP+MAC-filter, VPN-everything),
//! * [`experiments`] — E1–E10, one module per paper artifact (see
//!   DESIGN.md §4), each returning a plain result struct that the
//!   benches, examples and EXPERIMENTS.md tables are generated from,
//! * [`wids`] — the defender's WIDS deployment: monitor radios and a
//!   span-port tap feeding one `rogue-wids` pipeline,
//! * [`report`] — fixed-width table rendering for harness output.
//!
//! ## Quick start
//!
//! ```
//! use rogue_core::experiments::e2_download::{run_download_mitm, DownloadMitmConfig};
//! use rogue_sim::Seed;
//!
//! // The paper's Section 4 proof of concept, end to end.
//! let result = run_download_mitm(&DownloadMitmConfig::paper(), Seed(7));
//! assert!(result.victim_got_trojan, "the rewrite must land");
//! assert!(result.md5_check_passed, "and the victim's MD5 check must pass");
//! ```

#![forbid(unsafe_code)]

pub mod experiments;
pub mod policy;
pub mod report;
pub mod scenario;
pub mod wids;
pub mod world;

pub use policy::ClientPolicy;
pub use world::{NodeId, World};
