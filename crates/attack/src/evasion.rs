//! Evasion-grade rogues: attackers built to slip past the WIDS.
//!
//! The §4 rogue is loud — it clones the corporate BSSID, beacons every
//! 100 ms, floods deauths five a second. These variants are the quiet
//! counterparts, each aimed at one detector's blind spot:
//!
//! * [`MacRandomizingRogue`] — advertises the owned SSID from a fresh
//!   locally-administered BSSID every rotation period, so no single
//!   address ever accumulates enough evidence;
//! * [`KarmaProbeRogue`] — beacons only *cloaked* (empty SSID) and
//!   advertises real names exclusively in directed probe responses,
//!   answering whatever the victim asks for (the karma attack);
//! * [`SpoofBeaconer`] — a bare beacon forger cloning an owned network,
//!   meant to run at low transmit power with a long beacon interval so
//!   the monitors barely hear it;
//! * [`crate::DeauthFlooder::pulsed`] — deauth bursts sized and spaced to stay
//!   under the flood detector's short window.
//!
//! All four are [`FrameInjector`]s: pure, deterministic frame schedules
//! the world transmits from the attacker's radio.

use rogue_dot11::frame::{Frame, FrameBody, MgmtInfo, CAP_ESS};
use rogue_dot11::output::MacOutput;
use rogue_dot11::MacAddr;
use rogue_phy::Bitrate;
use rogue_sim::{SimDuration, SimTime};

use crate::inject::FrameInjector;

/// Deterministic "randomized" locally-administered BSSID for rotation
/// `i` (splitmix-style mix of the salt and index).
pub fn rotated_bssid(salt: u64, i: u64) -> MacAddr {
    let mut x = salt ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    let b = x.to_le_bytes();
    // 0x02 in the first octet: locally administered, unicast.
    MacAddr([0x02, b[0], b[1], b[2], b[3], b[4]])
}

fn tx(frame: Frame) -> MacOutput {
    MacOutput::Tx {
        bytes: frame.encode(),
        bitrate: Bitrate::B1,
    }
}

fn beacon_body(ssid: &str, channel: u8, at: SimTime) -> MgmtInfo {
    MgmtInfo {
        timestamp: at.0 / 1_000, // TSF is µs
        beacon_interval_tu: 100,
        capability: CAP_ESS,
        ssid: ssid.to_string(),
        channel,
    }
}

/// A rogue that re-randomizes its BSSID faster than per-address
/// evidence can accumulate, while continuously advertising an owned
/// SSID to lure clients.
pub struct MacRandomizingRogue {
    /// SSID advertised (an owned network name).
    pub ssid: String,
    channel: u8,
    beacon_period: SimDuration,
    rotate_period: SimDuration,
    salt: u64,
    start_at: SimTime,
    next_tx: SimTime,
    stop_at: SimTime,
    /// Beacons transmitted.
    pub beacons_sent: u64,
}

impl MacRandomizingRogue {
    /// Advertise `ssid` on `channel`, beaconing every `beacon_period`
    /// and rotating to a fresh BSSID every `rotate_period`.
    pub fn new(
        ssid: &str,
        channel: u8,
        beacon_period: SimDuration,
        rotate_period: SimDuration,
        salt: u64,
        start_at: SimTime,
        stop_at: SimTime,
    ) -> MacRandomizingRogue {
        MacRandomizingRogue {
            ssid: ssid.to_string(),
            channel,
            beacon_period,
            rotate_period,
            salt,
            start_at,
            next_tx: start_at,
            stop_at,
            beacons_sent: 0,
        }
    }

    /// BSSID in use at `at`.
    pub fn bssid_at(&self, at: SimTime) -> MacAddr {
        let elapsed = at.since(self.start_at).0;
        rotated_bssid(self.salt, elapsed / self.rotate_period.0.max(1))
    }
}

impl FrameInjector for MacRandomizingRogue {
    fn next_wake(&self) -> SimTime {
        if self.next_tx < self.stop_at {
            self.next_tx
        } else {
            SimTime::FOREVER
        }
    }

    fn poll(&mut self, now: SimTime, out: &mut Vec<MacOutput>) {
        while now >= self.next_tx && self.next_tx < self.stop_at {
            let bssid = self.bssid_at(self.next_tx);
            let mut frame = Frame::new(
                MacAddr::BROADCAST,
                bssid,
                bssid,
                FrameBody::Beacon(beacon_body(&self.ssid, self.channel, self.next_tx)),
            );
            frame.seq = (self.beacons_sent % 4096) as u16;
            out.push(tx(frame));
            self.beacons_sent += 1;
            self.next_tx += self.beacon_period;
        }
    }
}

/// A cloaked karma responder: broadcast beacons carry an empty SSID,
/// and every advertised name travels only in directed probe responses —
/// cycling through a list of lure SSIDs, answering "yes" to everyone.
pub struct KarmaProbeRogue {
    /// The responder's (stable) BSSID.
    pub bssid: MacAddr,
    channel: u8,
    /// Names probe-responded, cycled one per response.
    ssids: Vec<String>,
    beacon_period: SimDuration,
    resp_period: SimDuration,
    next_beacon: SimTime,
    next_resp: SimTime,
    stop_at: SimTime,
    /// Probe responses transmitted.
    pub responses_sent: u64,
    /// Cloaked beacons transmitted.
    pub beacons_sent: u64,
}

impl KarmaProbeRogue {
    /// Respond with each of `ssids` in turn every `resp_period`,
    /// beaconing cloaked every `beacon_period`.
    pub fn new(
        bssid: MacAddr,
        channel: u8,
        ssids: Vec<String>,
        beacon_period: SimDuration,
        resp_period: SimDuration,
        start_at: SimTime,
        stop_at: SimTime,
    ) -> KarmaProbeRogue {
        assert!(!ssids.is_empty(), "karma responder needs lure SSIDs");
        KarmaProbeRogue {
            bssid,
            channel,
            ssids,
            beacon_period,
            resp_period,
            next_beacon: start_at,
            next_resp: start_at,
            stop_at,
            responses_sent: 0,
            beacons_sent: 0,
        }
    }
}

impl FrameInjector for KarmaProbeRogue {
    fn next_wake(&self) -> SimTime {
        let next = self.next_beacon.min(self.next_resp);
        if next < self.stop_at {
            next
        } else {
            SimTime::FOREVER
        }
    }

    fn poll(&mut self, now: SimTime, out: &mut Vec<MacOutput>) {
        // Interleave the two schedules in time order so the emitted
        // stream is deterministic and time-sorted.
        loop {
            let next = self.next_beacon.min(self.next_resp);
            if next > now || next >= self.stop_at {
                break;
            }
            if self.next_beacon <= self.next_resp {
                let mut frame = Frame::new(
                    MacAddr::BROADCAST,
                    self.bssid,
                    self.bssid,
                    FrameBody::Beacon(beacon_body("", self.channel, self.next_beacon)),
                );
                frame.seq = ((self.beacons_sent + self.responses_sent) % 4096) as u16;
                out.push(tx(frame));
                self.beacons_sent += 1;
                self.next_beacon += self.beacon_period;
            } else {
                let ssid = &self.ssids[(self.responses_sent as usize) % self.ssids.len()];
                // Directed at a (fictitious) probing station; the WIDS
                // sensors only care that the response is on the air.
                let mut frame = Frame::new(
                    MacAddr::local(0x5A),
                    self.bssid,
                    self.bssid,
                    FrameBody::ProbeResp(beacon_body(ssid, self.channel, self.next_resp)),
                );
                frame.seq = ((self.beacons_sent + self.responses_sent) % 4096) as u16;
                out.push(tx(frame));
                self.responses_sent += 1;
                self.next_resp += self.resp_period;
            }
        }
    }
}

/// A bare beacon forger cloning an owned network's BSSID and SSID.
/// Attach it at low transmit power with a long `period` for the
/// low-power stealth variant: few, faint beacons, maximal dwell-time
/// evasion against sweeping monitors.
pub struct SpoofBeaconer {
    /// Cloned BSSID.
    pub bssid: MacAddr,
    /// Cloned SSID.
    pub ssid: String,
    /// Channel claimed in the DS parameter set.
    pub claimed_channel: u8,
    period: SimDuration,
    next_tx: SimTime,
    stop_at: SimTime,
    /// Beacons transmitted.
    pub beacons_sent: u64,
}

impl SpoofBeaconer {
    /// Clone (`bssid`, `ssid`) claiming `claimed_channel`, beaconing
    /// every `period` between `start_at` and `stop_at`.
    pub fn new(
        bssid: MacAddr,
        ssid: &str,
        claimed_channel: u8,
        period: SimDuration,
        start_at: SimTime,
        stop_at: SimTime,
    ) -> SpoofBeaconer {
        SpoofBeaconer {
            bssid,
            ssid: ssid.to_string(),
            claimed_channel,
            period,
            next_tx: start_at,
            stop_at,
            beacons_sent: 0,
        }
    }
}

impl FrameInjector for SpoofBeaconer {
    fn next_wake(&self) -> SimTime {
        if self.next_tx < self.stop_at {
            self.next_tx
        } else {
            SimTime::FOREVER
        }
    }

    fn poll(&mut self, now: SimTime, out: &mut Vec<MacOutput>) {
        while now >= self.next_tx && self.next_tx < self.stop_at {
            let mut frame = Frame::new(
                MacAddr::BROADCAST,
                self.bssid,
                self.bssid,
                FrameBody::Beacon(beacon_body(&self.ssid, self.claimed_channel, self.next_tx)),
            );
            frame.seq = (self.beacons_sent % 4096) as u16;
            out.push(tx(frame));
            self.beacons_sent += 1;
            self.next_tx += self.period;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeauthFlooder;
    use rogue_dot11::frame::Frame as F;

    fn drain(inj: &mut dyn FrameInjector) -> Vec<F> {
        let mut out = Vec::new();
        let mut now = inj.next_wake();
        while now != SimTime::FOREVER {
            inj.poll(now, &mut out);
            now = inj.next_wake();
        }
        out.iter()
            .map(|o| {
                let MacOutput::Tx { bytes, .. } = o else {
                    panic!("expected Tx");
                };
                F::decode(bytes).unwrap()
            })
            .collect()
    }

    #[test]
    fn randomizing_rogue_rotates_bssids_on_schedule() {
        let mut r = MacRandomizingRogue::new(
            "CORP",
            6,
            SimDuration::from_millis(100),
            SimDuration::from_millis(500),
            7,
            SimTime::ZERO,
            SimTime::from_secs(3),
        );
        let frames = drain(&mut r);
        assert_eq!(frames.len(), 30);
        let mut distinct: Vec<MacAddr> = frames.iter().map(|f| f.addr2).collect();
        distinct.dedup();
        assert_eq!(distinct.len(), 6, "one rotation every 500 ms over 3 s");
        let mut sorted = distinct.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 6, "rotations never reuse an address");
        for f in &frames {
            assert_eq!(f.addr2.0[0], 0x02, "locally administered");
            let FrameBody::Beacon(info) = &f.body else {
                panic!("beacons only");
            };
            assert_eq!(info.ssid, "CORP");
        }
    }

    #[test]
    fn karma_rogue_cloaks_beacons_and_cycles_names() {
        let mut r = KarmaProbeRogue::new(
            MacAddr::local(0xEE),
            6,
            vec!["HOME".into(), "AIRPORT".into(), "CORP".into()],
            SimDuration::from_millis(100),
            SimDuration::from_millis(150),
            SimTime::ZERO,
            SimTime::from_millis(900),
        );
        let frames = drain(&mut r);
        let mut beacons = 0;
        let mut names = Vec::new();
        for f in &frames {
            match &f.body {
                FrameBody::Beacon(info) => {
                    assert!(info.ssid.is_empty(), "beacons must be cloaked");
                    beacons += 1;
                }
                FrameBody::ProbeResp(info) => names.push(info.ssid.clone()),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(beacons, 9);
        assert_eq!(
            names,
            ["HOME", "AIRPORT", "CORP", "HOME", "AIRPORT", "CORP"]
        );
    }

    #[test]
    fn pulsed_flooder_bursts_then_pauses() {
        let mut p = DeauthFlooder::pulsed(
            MacAddr::local(1),
            Some(MacAddr::local(50)),
            4,
            SimDuration::from_millis(100),
            SimDuration::from_secs(4),
            SimTime::ZERO,
            SimTime::from_secs(9),
        );
        let mut times = Vec::new();
        let mut out = Vec::new();
        let mut now = p.next_wake();
        while now != SimTime::FOREVER {
            times.push(now);
            p.poll(now, &mut out);
            now = p.next_wake();
        }
        // Bursts at 0,.1,.2,.3 then 4,4.1,4.2,4.3 then 8,8.1,8.2,8.3.
        assert_eq!(p.injected, 12);
        assert_eq!(times[0], SimTime::ZERO);
        assert_eq!(times[3], SimTime::from_millis(300));
        assert_eq!(times[4], SimTime::from_secs(4));
        assert_eq!(times[11], SimTime::from_millis(8300));
        // No 2-second window ever holds 5 frames.
        for w in times.windows(5) {
            assert!(w[4].since(w[0]) > SimDuration::from_secs(2));
        }
    }

    #[test]
    fn spoof_beaconer_clones_the_target() {
        let corp = MacAddr::local(1);
        let mut s = SpoofBeaconer::new(
            corp,
            "CORP",
            6,
            SimDuration::from_millis(800),
            SimTime::ZERO,
            SimTime::from_secs(4),
        );
        let frames = drain(&mut s);
        assert_eq!(frames.len(), 5);
        for f in &frames {
            assert_eq!(f.addr2, corp);
            let FrameBody::Beacon(info) = &f.body else {
                panic!("beacons only");
            };
            assert_eq!(info.channel, 6);
            assert_eq!(info.ssid, "CORP");
        }
    }
}
