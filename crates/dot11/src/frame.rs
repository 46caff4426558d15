//! 802.11 frame wire format.
//!
//! Frames serialize to real byte buffers and re-parse on reception: the
//! attacker's sniffer, the WEP cracker and the sequence-control detector
//! all consume the same bytes a real NIC would hand them.
//!
//! Layout (management/data):
//!
//! ```text
//! | FC (2, LE) | Duration (2) | Addr1 (6) | Addr2 (6) | Addr3 (6) |
//! | SeqCtrl (2, LE) | Body (...) | FCS (4, CRC-32 LE) |
//! ```
//!
//! ACK control frames are the short form `FC | Duration | Addr1 | FCS`.
//!
//! Frame-control bit assignments follow IEEE 802.11-1999 §7.1.3.1; the
//! subset implemented is exactly what the reproduction's scenarios
//! exercise (plus FCS validation, which real MACs do in hardware).

use bytes::{BufMut, Bytes, BytesMut};
use rogue_crypto::crc32;

use crate::addr::MacAddr;

/// Length of the LLC/SNAP header prefixed to data payloads.
pub const LLC_SNAP_LEN: usize = 8;

/// Management/data header length (before the body).
pub const HEADER_LEN: usize = 24;

/// FCS trailer length.
pub const FCS_LEN: usize = 4;

/// Frame type+subtype, decoded.
#[derive(Clone, Debug, PartialEq)]
pub enum FrameBody {
    /// Beacon (mgmt subtype 8).
    Beacon(MgmtInfo),
    /// Probe request (mgmt subtype 4); `ssid: None` is the wildcard probe.
    ProbeReq {
        /// Requested SSID, or `None` for "any".
        ssid: Option<String>,
    },
    /// Probe response (mgmt subtype 5) — same body as a beacon.
    ProbeResp(MgmtInfo),
    /// Authentication (mgmt subtype 11). Open System only: the paper-era
    /// "Shared Key" variant leaked keystream and was already deprecated.
    Auth {
        /// 0 = Open System.
        algorithm: u16,
        /// Transaction sequence (1 = request, 2 = response).
        seq: u16,
        /// 0 = success.
        status: u16,
    },
    /// Association request (mgmt subtype 0).
    AssocReq {
        /// Capability field (bit 0 ESS, bit 4 privacy).
        capability: u16,
        /// SSID the station is joining.
        ssid: String,
    },
    /// Association response (mgmt subtype 1).
    AssocResp {
        /// Capability field.
        capability: u16,
        /// 0 = success.
        status: u16,
        /// Association ID.
        aid: u16,
    },
    /// Deauthentication (mgmt subtype 12) — famously unauthenticated,
    /// which is what lets the attacker "force the client's disassociation
    /// from the legitimate AP" (§4).
    Deauth {
        /// Reason code.
        reason: u16,
    },
    /// Disassociation (mgmt subtype 10).
    Disassoc {
        /// Reason code.
        reason: u16,
    },
    /// ACK control frame (no body; short header).
    Ack,
    /// Data frame; `payload` is the raw body — LLC/SNAP plaintext, or a
    /// WEP-sealed blob when the `protected` flag is set.
    Data {
        /// Frame body bytes.
        payload: Bytes,
    },
}

/// Beacon / probe-response contents.
#[derive(Clone, Debug, PartialEq)]
pub struct MgmtInfo {
    /// TSF timestamp (µs).
    pub timestamp: u64,
    /// Beacon interval in time units (1 TU = 1024 µs).
    pub beacon_interval_tu: u16,
    /// Capability field; bit 4 = privacy (WEP required).
    pub capability: u16,
    /// Network name.
    pub ssid: String,
    /// DS parameter set: the channel the AP claims to operate on.
    pub channel: u8,
}

/// Capability bit: ESS (infrastructure network).
pub const CAP_ESS: u16 = 1 << 0;
/// Capability bit: privacy (WEP).
pub const CAP_PRIVACY: u16 = 1 << 4;

/// A parsed 802.11 frame.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// Destination / receiver address (Addr1).
    pub addr1: MacAddr,
    /// Source / transmitter address (Addr2; zero for ACK).
    pub addr2: MacAddr,
    /// BSSID / third address (zero for ACK).
    pub addr3: MacAddr,
    /// 12-bit sequence number (0 for ACK).
    pub seq: u16,
    /// 4-bit fragment number.
    pub frag: u8,
    /// To-DS flag (station → AP).
    pub to_ds: bool,
    /// From-DS flag (AP → station).
    pub from_ds: bool,
    /// Retry flag.
    pub retry: bool,
    /// Protected (WEP) flag.
    pub protected: bool,
    /// Decoded body.
    pub body: FrameBody,
}

/// The leading fields of a frame, read without checking the FCS: what a
/// NIC's receive filter looks at before it hands a frame to the host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Frame type (0 management, 1 control, 2 data).
    pub typ: u8,
    /// Frame subtype.
    pub subtype: u8,
    /// Receiver address (Addr1).
    pub addr1: MacAddr,
}

impl Header {
    /// Peek the header of wire bytes; `None` when they are too short to
    /// hold Addr1.
    pub fn peek(bytes: &[u8]) -> Option<Header> {
        let addr1 = MacAddr(bytes.get(4..10)?.try_into().ok()?);
        let fc = u16::from_le_bytes([bytes[0], bytes[1]]);
        Some(Header {
            typ: ((fc >> 2) & 0x3) as u8,
            subtype: ((fc >> 4) & 0xF) as u8,
            addr1,
        })
    }
}

/// A radio's receive filter: which decodable frames its NIC hands to the
/// MAC. It reads only the peeked [`Header`] and a configured address, so
/// the answer for given bytes never changes, and a `Copy` value can
/// stand in for the MAC wherever frames are routed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RxFilter {
    /// Monitor mode: every frame.
    All,
    /// A raw injector, whose receive path drops every frame.
    Nothing,
    /// A managed-mode station with this address: frames addressed to it
    /// or to a group, plus beacons and probe responses, which are learned
    /// passively whoever they are addressed to.
    Station(MacAddr),
    /// An access point with this BSSID: frames addressed to it, plus
    /// probe requests, which are broadcast.
    Ap(MacAddr),
}

impl RxFilter {
    /// Does the filter pass `bytes`? A header too short to peek passes
    /// (decoding rejects it).
    pub fn hears(self, bytes: &[u8]) -> bool {
        let own = match self {
            RxFilter::All => return true,
            RxFilter::Nothing => return false,
            RxFilter::Station(own) | RxFilter::Ap(own) => own,
        };
        let Some(h) = Header::peek(bytes) else {
            return true;
        };
        h.addr1 == own
            || match self {
                // Group address, probe response (5) or beacon (8).
                RxFilter::Station(_) => {
                    h.addr1.is_multicast() || matches!((h.typ, h.subtype), (0, 5) | (0, 8))
                }
                // Probe request: management subtype 4.
                _ => (h.typ, h.subtype) == (0, 4),
            }
    }
}

/// Frame parse failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Too short to hold the claimed structure.
    Truncated,
    /// FCS mismatch (corrupt frame).
    BadFcs,
    /// Unsupported type/subtype.
    Unsupported,
    /// Malformed information elements.
    BadElements,
}

impl Frame {
    /// Construct a management/data frame with common defaults.
    pub fn new(addr1: MacAddr, addr2: MacAddr, addr3: MacAddr, body: FrameBody) -> Frame {
        Frame {
            addr1,
            addr2,
            addr3,
            seq: 0,
            frag: 0,
            to_ds: false,
            from_ds: false,
            retry: false,
            protected: false,
            body,
        }
    }

    /// Shorthand for an ACK to `ra`.
    pub fn ack(ra: MacAddr) -> Frame {
        Frame::new(ra, MacAddr::ZERO, MacAddr::ZERO, FrameBody::Ack)
    }

    /// The BSSID of this frame given its DS bits (Addr3 for no-DS and
    /// mgmt, Addr1 for to-DS, Addr2 for from-DS).
    pub fn bssid(&self) -> MacAddr {
        if self.to_ds {
            self.addr1
        } else if self.from_ds {
            self.addr2
        } else {
            self.addr3
        }
    }

    /// Logical source address.
    pub fn sa(&self) -> MacAddr {
        if self.from_ds {
            self.addr3
        } else {
            self.addr2
        }
    }

    /// Logical destination address.
    pub fn da(&self) -> MacAddr {
        if self.to_ds {
            self.addr3
        } else {
            self.addr1
        }
    }

    fn type_subtype(&self) -> (u8, u8) {
        match &self.body {
            FrameBody::AssocReq { .. } => (0, 0),
            FrameBody::AssocResp { .. } => (0, 1),
            FrameBody::ProbeReq { .. } => (0, 4),
            FrameBody::ProbeResp(_) => (0, 5),
            FrameBody::Beacon(_) => (0, 8),
            FrameBody::Disassoc { .. } => (0, 10),
            FrameBody::Auth { .. } => (0, 11),
            FrameBody::Deauth { .. } => (0, 12),
            FrameBody::Ack => (1, 13),
            FrameBody::Data { .. } => (2, 0),
        }
    }

    /// Serialize to wire bytes (appends a valid FCS).
    pub fn encode(&self) -> Bytes {
        let (typ, subtype) = self.type_subtype();
        let mut fc: u16 = ((typ as u16) << 2) | ((subtype as u16) << 4);
        if self.to_ds {
            fc |= 1 << 8;
        }
        if self.from_ds {
            fc |= 1 << 9;
        }
        if self.retry {
            fc |= 1 << 11;
        }
        if self.protected {
            fc |= 1 << 14;
        }

        let mut buf = BytesMut::with_capacity(64);
        buf.put_u16_le(fc);
        buf.put_u16_le(0); // duration: not modelled
        buf.put_slice(&self.addr1.0);
        if self.body != FrameBody::Ack {
            buf.put_slice(&self.addr2.0);
            buf.put_slice(&self.addr3.0);
            buf.put_u16_le((self.seq << 4) | (self.frag as u16 & 0xF));
            self.encode_body(&mut buf);
        }
        let fcs = crc32(&buf);
        buf.put_u32_le(fcs);
        buf.freeze()
    }

    fn encode_body(&self, buf: &mut BytesMut) {
        match &self.body {
            FrameBody::Beacon(info) | FrameBody::ProbeResp(info) => {
                buf.put_u64_le(info.timestamp);
                buf.put_u16_le(info.beacon_interval_tu);
                buf.put_u16_le(info.capability);
                put_ie(buf, 0, info.ssid.as_bytes());
                put_ie(buf, 1, &[0x82, 0x84, 0x8B, 0x96]); // 1,2,5.5,11 basic
                put_ie(buf, 3, &[info.channel]);
            }
            FrameBody::ProbeReq { ssid } => {
                let s = ssid.as_deref().unwrap_or("");
                put_ie(buf, 0, s.as_bytes());
            }
            FrameBody::Auth {
                algorithm,
                seq,
                status,
            } => {
                buf.put_u16_le(*algorithm);
                buf.put_u16_le(*seq);
                buf.put_u16_le(*status);
            }
            FrameBody::AssocReq { capability, ssid } => {
                buf.put_u16_le(*capability);
                buf.put_u16_le(10); // listen interval
                put_ie(buf, 0, ssid.as_bytes());
            }
            FrameBody::AssocResp {
                capability,
                status,
                aid,
            } => {
                buf.put_u16_le(*capability);
                buf.put_u16_le(*status);
                buf.put_u16_le(*aid);
            }
            FrameBody::Deauth { reason } | FrameBody::Disassoc { reason } => {
                buf.put_u16_le(*reason);
            }
            FrameBody::Ack => unreachable!("ACK handled in encode"),
            FrameBody::Data { payload } => buf.put_slice(payload),
        }
    }

    /// Parse wire bytes, verifying the FCS. Takes the refcounted buffer
    /// (not a plain slice) so a data payload is a zero-copy view of it.
    pub fn decode(bytes: &Bytes) -> Result<Frame, FrameError> {
        if bytes.len() < 2 + 2 + 6 + FCS_LEN {
            return Err(FrameError::Truncated);
        }
        let body_end = bytes.len() - FCS_LEN;
        let fcs = u32::from_le_bytes(bytes[body_end..].try_into().unwrap());
        if crc32(&bytes[..body_end]) != fcs {
            return Err(FrameError::BadFcs);
        }
        let fc = u16::from_le_bytes([bytes[0], bytes[1]]);
        let typ = ((fc >> 2) & 0x3) as u8;
        let subtype = ((fc >> 4) & 0xF) as u8;
        let to_ds = fc & (1 << 8) != 0;
        let from_ds = fc & (1 << 9) != 0;
        let retry = fc & (1 << 11) != 0;
        let protected = fc & (1 << 14) != 0;

        let addr1 = MacAddr(bytes[4..10].try_into().unwrap());

        if typ == 1 {
            // Control: only ACK is modelled.
            if subtype != 13 {
                return Err(FrameError::Unsupported);
            }
            return Ok(Frame {
                addr1,
                addr2: MacAddr::ZERO,
                addr3: MacAddr::ZERO,
                seq: 0,
                frag: 0,
                to_ds,
                from_ds,
                retry,
                protected,
                body: FrameBody::Ack,
            });
        }

        if body_end < HEADER_LEN {
            return Err(FrameError::Truncated);
        }
        let addr2 = MacAddr(bytes[10..16].try_into().unwrap());
        let addr3 = MacAddr(bytes[16..22].try_into().unwrap());
        let seq_ctrl = u16::from_le_bytes([bytes[22], bytes[23]]);
        let seq = seq_ctrl >> 4;
        let frag = (seq_ctrl & 0xF) as u8;
        let body = &bytes[HEADER_LEN..body_end];

        let body = match (typ, subtype) {
            (0, 8) => FrameBody::Beacon(parse_mgmt_info(body)?),
            (0, 5) => FrameBody::ProbeResp(parse_mgmt_info(body)?),
            (0, 4) => FrameBody::ProbeReq {
                ssid: ssid_element(&parse_ies(body)?)?.filter(|s| !s.is_empty()),
            },
            (0, 11) => {
                if body.len() < 6 {
                    return Err(FrameError::Truncated);
                }
                FrameBody::Auth {
                    algorithm: u16::from_le_bytes([body[0], body[1]]),
                    seq: u16::from_le_bytes([body[2], body[3]]),
                    status: u16::from_le_bytes([body[4], body[5]]),
                }
            }
            (0, 0) => {
                if body.len() < 4 {
                    return Err(FrameError::Truncated);
                }
                let capability = u16::from_le_bytes([body[0], body[1]]);
                let ssid = ssid_element(&parse_ies(&body[4..])?)?.ok_or(FrameError::BadElements)?;
                FrameBody::AssocReq { capability, ssid }
            }
            (0, 1) => {
                if body.len() < 6 {
                    return Err(FrameError::Truncated);
                }
                FrameBody::AssocResp {
                    capability: u16::from_le_bytes([body[0], body[1]]),
                    status: u16::from_le_bytes([body[2], body[3]]),
                    aid: u16::from_le_bytes([body[4], body[5]]),
                }
            }
            (0, 12) => {
                if body.len() < 2 {
                    return Err(FrameError::Truncated);
                }
                FrameBody::Deauth {
                    reason: u16::from_le_bytes([body[0], body[1]]),
                }
            }
            (0, 10) => {
                if body.len() < 2 {
                    return Err(FrameError::Truncated);
                }
                FrameBody::Disassoc {
                    reason: u16::from_le_bytes([body[0], body[1]]),
                }
            }
            (2, 0) => FrameBody::Data {
                // A view of the receive buffer — the whole point of
                // threading `Bytes` down here.
                payload: bytes.slice(HEADER_LEN..body_end),
            },
            _ => return Err(FrameError::Unsupported),
        };

        Ok(Frame {
            addr1,
            addr2,
            addr3,
            seq,
            frag,
            to_ds,
            from_ds,
            retry,
            protected,
            body,
        })
    }
}

fn put_ie(buf: &mut BytesMut, id: u8, value: &[u8]) {
    debug_assert!(value.len() <= 255);
    buf.put_u8(id);
    buf.put_u8(value.len() as u8);
    buf.put_slice(value);
}

fn parse_ies(mut body: &[u8]) -> Result<Vec<(u8, Vec<u8>)>, FrameError> {
    let mut out = Vec::new();
    while !body.is_empty() {
        if body.len() < 2 {
            return Err(FrameError::BadElements);
        }
        let id = body[0];
        let len = body[1] as usize;
        if body.len() < 2 + len {
            return Err(FrameError::BadElements);
        }
        out.push((id, body[2..2 + len].to_vec()));
        body = &body[2 + len..];
    }
    Ok(out)
}

/// The SSID element's text, if the element is present. SSIDs are kept
/// as `String`, so one that is not UTF-8 is rejected, not replaced
/// lossily: a lossy copy can outgrow the element's 255-byte limit and
/// would not re-encode to the frame that carried it.
fn ssid_element(ies: &[(u8, Vec<u8>)]) -> Result<Option<String>, FrameError> {
    match ies.iter().find(|(id, _)| *id == 0) {
        Some((_, v)) => String::from_utf8(v.clone())
            .map(Some)
            .map_err(|_| FrameError::BadElements),
        None => Ok(None),
    }
}

fn parse_mgmt_info(body: &[u8]) -> Result<MgmtInfo, FrameError> {
    if body.len() < 12 {
        return Err(FrameError::Truncated);
    }
    let timestamp = u64::from_le_bytes(body[0..8].try_into().unwrap());
    let beacon_interval_tu = u16::from_le_bytes([body[8], body[9]]);
    let capability = u16::from_le_bytes([body[10], body[11]]);
    let ies = parse_ies(&body[12..])?;
    let ssid = ssid_element(&ies)?.ok_or(FrameError::BadElements)?;
    let channel = ies
        .iter()
        .find(|(id, _)| *id == 3)
        .and_then(|(_, v)| v.first().copied())
        .ok_or(FrameError::BadElements)?;
    Ok(MgmtInfo {
        timestamp,
        beacon_interval_tu,
        capability,
        ssid,
        channel,
    })
}

/// Prefix `payload` with an LLC/SNAP header carrying `ethertype`.
pub fn encode_llc(ethertype: u16, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(LLC_SNAP_LEN + payload.len());
    out.extend_from_slice(&[0xAA, 0xAA, 0x03, 0x00, 0x00, 0x00]);
    out.extend_from_slice(&ethertype.to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Split an LLC/SNAP-framed body into (ethertype, payload).
pub fn decode_llc(body: &[u8]) -> Option<(u16, &[u8])> {
    if body.len() < LLC_SNAP_LEN || body[0] != 0xAA || body[1] != 0xAA || body[2] != 0x03 {
        return None;
    }
    let ethertype = u16::from_be_bytes([body[6], body[7]]);
    Some((ethertype, &body[LLC_SNAP_LEN..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u64) -> MacAddr {
        MacAddr::local(n)
    }

    fn roundtrip(f: &Frame) -> Frame {
        Frame::decode(&f.encode()).expect("decode")
    }

    #[test]
    fn rx_filter_modes() {
        let ack_to_9 = Frame::new(a(9), MacAddr::ZERO, MacAddr::ZERO, FrameBody::Ack).encode();
        for bytes in [&ack_to_9[..], &[0x80, 0, 0][..]] {
            assert!(RxFilter::All.hears(bytes), "monitor mode passes everything");
            assert!(!RxFilter::Nothing.hears(bytes), "an injector hears nothing");
        }
        assert!(RxFilter::Station(a(9)).hears(&ack_to_9));
        assert!(!RxFilter::Station(a(8)).hears(&ack_to_9));
        assert!(RxFilter::Ap(a(9)).hears(&ack_to_9));
        assert!(!RxFilter::Ap(a(8)).hears(&ack_to_9));
        // Too short to peek: passed on, for decoding to reject.
        assert!(RxFilter::Station(a(8)).hears(&[0x80, 0, 0]));
    }

    #[test]
    fn beacon_roundtrip() {
        let mut f = Frame::new(
            MacAddr::BROADCAST,
            a(1),
            a(1),
            FrameBody::Beacon(MgmtInfo {
                timestamp: 123456,
                beacon_interval_tu: 100,
                capability: CAP_ESS | CAP_PRIVACY,
                ssid: "CORP".into(),
                channel: 6,
            }),
        );
        f.seq = 777;
        let g = roundtrip(&f);
        assert_eq!(f, g);
        assert_eq!(g.bssid(), a(1));
    }

    #[test]
    fn probe_req_wildcard_and_named() {
        let f = Frame::new(
            MacAddr::BROADCAST,
            a(2),
            MacAddr::BROADCAST,
            FrameBody::ProbeReq { ssid: None },
        );
        assert_eq!(roundtrip(&f).body, FrameBody::ProbeReq { ssid: None });

        let f = Frame::new(
            MacAddr::BROADCAST,
            a(2),
            MacAddr::BROADCAST,
            FrameBody::ProbeReq {
                ssid: Some("CORP".into()),
            },
        );
        assert_eq!(
            roundtrip(&f).body,
            FrameBody::ProbeReq {
                ssid: Some("CORP".into())
            }
        );
    }

    #[test]
    fn auth_assoc_roundtrip() {
        let f = Frame::new(
            a(1),
            a(2),
            a(1),
            FrameBody::Auth {
                algorithm: 0,
                seq: 1,
                status: 0,
            },
        );
        assert_eq!(roundtrip(&f), f);

        let f = Frame::new(
            a(1),
            a(2),
            a(1),
            FrameBody::AssocReq {
                capability: CAP_ESS,
                ssid: "CORP".into(),
            },
        );
        assert_eq!(roundtrip(&f), f);

        let f = Frame::new(
            a(2),
            a(1),
            a(1),
            FrameBody::AssocResp {
                capability: CAP_ESS,
                status: 0,
                aid: 1,
            },
        );
        assert_eq!(roundtrip(&f), f);
    }

    #[test]
    fn deauth_roundtrip() {
        let f = Frame::new(a(2), a(1), a(1), FrameBody::Deauth { reason: 7 });
        assert_eq!(roundtrip(&f), f);
    }

    #[test]
    fn ack_is_short() {
        let f = Frame::ack(a(5));
        let bytes = f.encode();
        assert_eq!(bytes.len(), 14);
        let g = Frame::decode(&bytes).unwrap();
        assert_eq!(g.body, FrameBody::Ack);
        assert_eq!(g.addr1, a(5));
    }

    #[test]
    fn data_frame_roundtrip_with_flags() {
        let mut f = Frame::new(
            a(9),
            a(3),
            a(4),
            FrameBody::Data {
                payload: Bytes::from_static(b"\xAA\xAA\x03\x00\x00\x00\x08\x00hello"),
            },
        );
        f.to_ds = true;
        f.protected = true;
        f.retry = true;
        f.seq = 4095;
        let g = roundtrip(&f);
        assert_eq!(f, g);
        assert_eq!(g.bssid(), a(9), "to-DS: addr1 is BSSID");
        assert_eq!(g.sa(), a(3));
        assert_eq!(g.da(), a(4));
    }

    #[test]
    fn from_ds_addressing() {
        let mut f = Frame::new(
            a(7),
            a(8),
            a(9),
            FrameBody::Data {
                payload: Bytes::from_static(b"\xAA\xAA\x03\x00\x00\x00\x08\x00x"),
            },
        );
        f.from_ds = true;
        assert_eq!(f.bssid(), a(8));
        assert_eq!(f.sa(), a(9));
        assert_eq!(f.da(), a(7));
    }

    #[test]
    fn corrupt_fcs_rejected() {
        let f = Frame::new(a(1), a(2), a(3), FrameBody::Deauth { reason: 1 });
        let mut bytes = f.encode().to_vec();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        assert_eq!(Frame::decode(&bytes.into()), Err(FrameError::BadFcs));
    }

    #[test]
    fn corrupt_header_rejected_by_fcs() {
        let f = Frame::new(a(1), a(2), a(3), FrameBody::Deauth { reason: 1 });
        let mut bytes = f.encode().to_vec();
        bytes[5] ^= 0x01; // flip an addr1 bit
        assert_eq!(Frame::decode(&bytes.into()), Err(FrameError::BadFcs));
    }

    #[test]
    fn header_peek_skips_the_fcs() {
        let f = Frame::new(a(1), a(2), a(3), FrameBody::Deauth { reason: 1 });
        let mut bytes = f.encode().to_vec();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        let want = Header {
            typ: 0,
            subtype: 12,
            addr1: a(1),
        };
        assert_eq!(Header::peek(&bytes), Some(want));
        assert_eq!(Header::peek(&bytes[..10]), Some(want));
        assert_eq!(Header::peek(&bytes[..9]), None);
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            Frame::decode(&Bytes::from_static(&[1, 2, 3])),
            Err(FrameError::Truncated)
        );
    }

    #[test]
    fn llc_roundtrip() {
        let framed = encode_llc(0x0800, b"ip packet");
        assert_eq!(
            framed[0], 0xAA,
            "SNAP first byte is the FMS known-plaintext"
        );
        let (et, payload) = decode_llc(&framed).unwrap();
        assert_eq!(et, 0x0800);
        assert_eq!(payload, b"ip packet");
        assert!(decode_llc(b"\x00\x01\x02").is_none());
    }

    #[test]
    fn seq_field_width() {
        let mut f = Frame::new(a(1), a(2), a(3), FrameBody::Deauth { reason: 1 });
        f.seq = 4095;
        f.frag = 15;
        let g = roundtrip(&f);
        assert_eq!(g.seq, 4095);
        assert_eq!(g.frag, 15);
    }
}
