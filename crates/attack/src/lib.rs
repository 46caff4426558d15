//! # rogue-attack — the Section 4 attacker toolbox
//!
//! "This Rogue AP could be created by a valid user, using the
//! authentication information he was given for his personal use. It could
//! also be created by an outside attacker who has retrieved the WEP key
//! via Airsnort and a MAC address that he has observed by sniffing
//! network traffic." (§4)
//!
//! * [`airsnort`] — passive WEP key recovery driving the real FMS
//!   mathematics in `rogue-crypto` (the client-MAC harvest for the ACL
//!   bypass is `Sniffer::client_macs` on the same capture),
//! * [`deauth`] — forged deauthentication ("if the attacker knows the
//!   target client's MAC address he could force the client's
//!   disassociation from the legitimate AP"), steady or in pulses,
//! * [`rogue`] — cloning an observed AP's SSID/BSSID/privacy into a
//!   rogue [`rogue_dot11::ApConfig`] (Figure 1),
//! * [`gateway`] — the Appendix A bridge recipe: IP forwarding, proxy
//!   ARP, host routes, the DNAT rule and the netsed invocation, bundled
//!   into one reproducible setup,
//! * [`inject`] — the [`inject::FrameInjector`] trait every raw-frame
//!   schedule implements (the world's single injection attachment),
//! * [`evasion`] — WIDS-evading attacker variants: MAC-randomizing and
//!   karma/cloaked rogues and low-power spoof beaconing (the pulsed
//!   deauth flood is [`DeauthFlooder::pulsed`]).

#![forbid(unsafe_code)]

pub mod airsnort;
pub mod arpspoof;
pub mod deauth;
pub mod evasion;
pub mod gateway;
pub mod inject;
pub mod rogue;

pub use airsnort::Airsnort;
pub use arpspoof::ArpSpoofer;
pub use deauth::DeauthFlooder;
pub use evasion::{KarmaProbeRogue, MacRandomizingRogue, SpoofBeaconer};
pub use gateway::MitmGatewayConfig;
pub use inject::FrameInjector;
pub use rogue::clone_ap;
