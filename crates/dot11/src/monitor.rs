//! Promiscuous ("monitor mode") capture.
//!
//! A sniffer is nothing but a radio that keeps every frame it can decode.
//! Two consumers in the reproduction:
//!
//! * the attacker (`rogue-attack`): harvests WEP FMS samples and valid
//!   client MACs for the ACL bypass,
//! * the defender (`rogue-wids`): watches BSSIDs, channels and sequence
//!   numbers for rogue-AP fingerprints.

use bytes::Bytes;
use rogue_crypto::fms::Sample;
use rogue_crypto::wep;
use rogue_sim::SimTime;

use crate::addr::MacAddr;
use crate::frame::{Frame, FrameBody};

/// One captured frame with radio metadata.
#[derive(Clone, Debug)]
pub struct Capture {
    /// Capture timestamp.
    pub at: SimTime,
    /// RSSI at the sniffer, dBm.
    pub rssi_dbm: f64,
    /// Channel the sniffer was tuned to.
    pub channel: u8,
    /// Parsed frame.
    pub frame: Frame,
}

/// A passive capture buffer.
#[derive(Default)]
pub struct Sniffer {
    /// All decodable frames seen, in order.
    pub captures: Vec<Capture>,
    /// Frames that failed to parse (corrupt FCS slips through PHY rarely;
    /// counted for completeness).
    pub undecodable: u64,
}

impl Sniffer {
    /// Fresh, empty sniffer.
    pub fn new() -> Sniffer {
        Sniffer::default()
    }

    /// Feed a PHY delivery.
    pub fn on_receive(&mut self, at: SimTime, bytes: &Bytes, rssi_dbm: f64, channel: u8) {
        match Frame::decode(bytes) {
            Ok(frame) => self.captures.push(Capture {
                at,
                rssi_dbm,
                channel,
                frame,
            }),
            Err(_) => self.undecodable += 1,
        }
    }

    /// Number of captures.
    pub fn len(&self) -> usize {
        self.captures.len()
    }

    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.captures.is_empty()
    }

    /// FMS samples from every protected data frame seen — IV plus first
    /// ciphertext byte, with the LLC/SNAP known-plaintext assumption.
    pub fn wep_samples(&self) -> Vec<Sample> {
        self.captures
            .iter()
            .filter_map(|c| match &c.frame.body {
                FrameBody::Data { payload } if c.frame.protected => {
                    let iv = wep::peek_iv(payload)?;
                    let ct0 = wep::peek_first_ct_byte(payload)?;
                    Some(Sample::from_capture(iv, ct0))
                }
                _ => None,
            })
            .collect()
    }

    /// Distinct transmitter addresses observed sending to-DS data to
    /// `bssid` — the "valid MACs can be sniffed" harvest used to defeat
    /// MAC filtering.
    pub fn client_macs(&self, bssid: MacAddr) -> Vec<MacAddr> {
        let mut out: Vec<MacAddr> = self
            .captures
            .iter()
            .filter(|c| {
                matches!(c.frame.body, FrameBody::Data { .. })
                    && c.frame.to_ds
                    && c.frame.addr1 == bssid
            })
            .map(|c| c.frame.addr2)
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_llc;
    use rogue_crypto::wep::WepKey;

    #[test]
    fn captures_and_counts() {
        let mut s = Sniffer::new();
        let f = Frame::new(
            MacAddr::local(1),
            MacAddr::local(2),
            MacAddr::local(3),
            FrameBody::Deauth { reason: 1 },
        );
        s.on_receive(SimTime::ZERO, &f.encode(), -40.0, 1);
        s.on_receive(SimTime::ZERO, &Bytes::from_static(b"garbage????"), -40.0, 1);
        assert_eq!(s.len(), 1);
        assert_eq!(s.undecodable, 1);
    }

    #[test]
    fn harvests_wep_samples() {
        let key = WepKey::new(b"AB#12");
        let mut s = Sniffer::new();
        for i in 0..5u8 {
            let body = wep::seal(&key, [i, 0xFF, 3], 0, &encode_llc(0x0800, b"x"));
            let mut f = Frame::new(
                MacAddr::local(1),
                MacAddr::local(2),
                MacAddr::local(3),
                FrameBody::Data {
                    payload: Bytes::from(body),
                },
            );
            f.to_ds = true;
            f.protected = true;
            s.on_receive(SimTime::ZERO, &f.encode(), -40.0, 1);
        }
        let samples = s.wep_samples();
        assert_eq!(samples.len(), 5);
        assert_eq!(samples[2].iv, [2, 0xFF, 3]);
    }

    #[test]
    fn harvests_client_macs() {
        let bssid = MacAddr::local(1);
        let mut s = Sniffer::new();
        for n in [10u64, 11, 10] {
            let mut f = Frame::new(
                bssid,
                MacAddr::local(n),
                MacAddr::local(99),
                FrameBody::Data {
                    payload: Bytes::from(encode_llc(0x0800, b"x")),
                },
            );
            f.to_ds = true;
            s.on_receive(SimTime::ZERO, &f.encode(), -40.0, 1);
        }
        let macs = s.client_macs(bssid);
        assert_eq!(macs, vec![MacAddr::local(10), MacAddr::local(11)]);
        assert!(s.client_macs(MacAddr::local(42)).is_empty());
    }
}
