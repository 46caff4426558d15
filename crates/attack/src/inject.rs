//! Raw-frame injection strategies.
//!
//! Everything the §4 attacker transmits outside a real MAC association —
//! forged deauths, spoofed beacons, karma probe responses — is an
//! *injector*: a pure schedule of raw frames driven like a MAC entity.
//! The world polls each injector at [`FrameInjector::next_wake`] and
//! transmits whatever [`FrameInjector::poll`] emits on the attacker's
//! radio, so one world-side attachment point covers every injection
//! attack, present and future.

use rogue_dot11::output::MacOutput;
use rogue_sim::SimTime;

/// A raw-frame injection schedule.
///
/// `Send`, so that a world holding injectors is `Send` too.
pub trait FrameInjector: Send {
    /// Earliest instant this injector needs a poll
    /// ([`SimTime::FOREVER`] when done).
    ///
    /// Contract: a poll before this instant does nothing — it emits no
    /// output and leaves this value unchanged. The world skips such
    /// polls after a radio completion (an injector hears no frame, so it
    /// never has input); debug builds poll anyway and assert the
    /// contract.
    fn next_wake(&self) -> SimTime;

    /// Emit every frame due at or before `now`.
    fn poll(&mut self, now: SimTime, out: &mut Vec<MacOutput>);
}
