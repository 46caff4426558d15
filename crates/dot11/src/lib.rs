//! # rogue-dot11 — the 802.11 MAC layer
//!
//! Everything the paper's attack manipulates lives here:
//!
//! * [`addr`] — MAC addresses ("valid MACs can be sniffed from the network",
//!   §2.1 — and cloned, which is why MAC filtering "accomplishes nothing
//!   more than perhaps keeping honest people honest"),
//! * [`frame`] — wire codecs for management/control/data frames, including
//!   the cleartext SSID, BSSID and sequence-control fields a sniffer and a
//!   detector both read,
//! * [`sta`] — the client state machine: passive scan → auth → assoc, with
//!   RSSI-best AP selection and **no authentication of the network**, the
//!   root cause the paper identifies (§3.1),
//! * [`ap`] — the access-point state machine: beaconing, association
//!   tables, WEP, MAC-address ACLs; a rogue AP is just this struct
//!   configured with a cloned SSID/BSSID/key (Figure 1),
//! * [`monitor`] — promiscuous capture (what Airsnort and the §2.3
//!   sequence-number detector consume).
//!
//! The MAC entities are poll-style state machines: the embedding world
//! feeds received frames in and drains [`MacOutput`]s (transmissions,
//! upward deliveries, events). Nothing here talks to the scheduler
//! directly, which keeps the layer unit-testable frame by frame.

#![forbid(unsafe_code)]

pub mod addr;
pub mod ap;
pub mod frame;
pub mod monitor;
pub mod output;
pub mod sta;
pub mod txq;

pub use addr::MacAddr;
pub use ap::{ApConfig, ApMac};
pub use frame::{Frame, FrameBody, LLC_SNAP_LEN};
pub use output::{MacEvent, MacOutput};
pub use sta::{StaConfig, StaMac, StaState};

/// Ethertype for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;
/// Ethertype for ARP.
pub const ETHERTYPE_ARP: u16 = 0x0806;
