//! Handshake messages, record protection and replay defense.
//!
//! Handshake (3 messages, PSK-authenticated ephemeral DH):
//!
//! ```text
//! C -> S  ClientHello { client_id, nonce_c, g^x }
//! S -> C  ServerHello { nonce_s, g^y, HMAC(psk, "server-auth" ∥ T) }
//! C -> S  ClientAuth  { HMAC(psk, "client-auth" ∥ T) }
//! ```
//!
//! where `T = client_id ∥ nonce_c ∥ nonce_s ∥ g^x ∥ g^y`. Both sides
//! derive directional ChaCha20 and HMAC-SHA1 keys from `g^xy` bound to
//! the nonces. A man in the middle relaying the handshake unchanged
//! learns nothing; one substituting its own DH shares cannot produce the
//! PSK-bound authenticators.
//!
//! Records: `seq ∥ tag ∥ ChaCha20(key, nonce=seq, payload)` with
//! `tag = HMAC-SHA1-96(mac_key, seq ∥ ciphertext)` and a 64-entry
//! sliding replay window on receive.
//!
//! The record path is zero-copy (DESIGN.md §12): `seal_record` builds
//! the encoded wire record in a single buffer, encrypts the payload
//! region in place and MACs it by resuming precomputed HMAC midstates;
//! `Message::decode` hands the ciphertext back as a [`Bytes`] slice of
//! the received buffer, and `open` decrypts in place whenever it holds
//! the last reference to that buffer.

use bytes::Bytes;
use rogue_crypto::chacha20::ChaCha20;
use rogue_crypto::dh::{DhKeyPair, ELEMENT_LEN, EXPONENT_LEN};
use rogue_crypto::hmac::{derive_key, hmac_sha1, verify_tag, HmacSha1};
use rogue_sim::SimRng;

/// Pre-shared key length used by the reproduction.
pub const PSK_LEN: usize = 32;

/// Encoded `Data` record header: kind (1) ∥ seq (8) ∥ tag (12).
const DATA_HEADER: usize = 21;

/// Upper bound on one framed record over the TCP transport. A length
/// prefix beyond this is stream desynchronization or tampering, not a
/// record — receivers reset the stream buffer instead of waiting
/// forever for bytes that never come.
pub const MAX_RECORD: usize = 64 * 1024;

/// One record as it travels over the TCP transport: a 4-byte big-endian
/// length, then the record. This is the one place the stream framing
/// forces a copy.
pub fn frame_record(rec: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(4 + rec.len());
    framed.extend_from_slice(&(rec.len() as u32).to_be_bytes());
    framed.extend_from_slice(rec);
    framed
}

/// The receive half of the TCP transport: takes the stream in whatever
/// chunks TCP delivers and yields each [`frame_record`]ed record whole,
/// in order. The peer controls every byte, so a length prefix above
/// [`MAX_RECORD`] drops the buffer instead of waiting forever for bytes
/// that never come.
#[derive(Default)]
pub struct RecordStream {
    buf: Vec<u8>,
}

impl RecordStream {
    /// Append bytes received from the stream.
    pub fn push(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// The next whole record, or `None` until more bytes arrive.
    pub fn next_record(&mut self) -> Option<Bytes> {
        let prefix = self.buf.get(..4)?.try_into().expect("a 4-byte slice");
        let len = u32::from_be_bytes(prefix) as usize;
        if len > MAX_RECORD {
            // Stream desync or tampering: no valid record is this large.
            self.buf.clear();
            return None;
        }
        let rec = Bytes::copy_from_slice(self.buf.get(4..4 + len)?);
        self.buf.drain(..4 + len);
        Some(rec)
    }
}

/// Which encapsulation carries the records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// One record per UDP datagram.
    Udp,
    /// Length-prefixed records over a TCP stream (PPP-over-SSH style).
    Tcp,
}

/// Handshake / data messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// C→S opener.
    ClientHello {
        /// Client identity (indexes the PSK on the server).
        client_id: u32,
        /// Client nonce.
        nonce: [u8; 16],
        /// Client DH public value.
        dh_pub: Vec<u8>,
    },
    /// S→C response.
    ServerHello {
        /// Server nonce.
        nonce: [u8; 16],
        /// Server DH public value.
        dh_pub: Vec<u8>,
        /// `HMAC(psk, "server-auth" ∥ transcript)`.
        auth: [u8; 20],
    },
    /// C→S authenticator.
    ClientAuth {
        /// `HMAC(psk, "client-auth" ∥ transcript)`.
        auth: [u8; 20],
    },
    /// Protected data record.
    Data {
        /// Record sequence number.
        seq: u64,
        /// Truncated HMAC tag over `seq ∥ ciphertext`.
        tag: [u8; 12],
        /// ChaCha20 ciphertext of the inner IP packet — a zero-copy
        /// slice of the received record when produced by
        /// [`Message::decode`].
        ciphertext: Bytes,
    },
}

impl Message {
    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// Serialize, appending to `out` (no intermediate allocation).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Message::ClientHello {
                client_id,
                nonce,
                dh_pub,
            } => {
                out.push(1);
                out.extend_from_slice(&client_id.to_be_bytes());
                out.extend_from_slice(nonce);
                out.extend_from_slice(dh_pub);
            }
            Message::ServerHello {
                nonce,
                dh_pub,
                auth,
            } => {
                out.push(2);
                out.extend_from_slice(nonce);
                out.extend_from_slice(dh_pub);
                out.extend_from_slice(auth);
            }
            Message::ClientAuth { auth } => {
                out.push(3);
                out.extend_from_slice(auth);
            }
            Message::Data {
                seq,
                tag,
                ciphertext,
            } => {
                out.push(4);
                out.extend_from_slice(&seq.to_be_bytes());
                out.extend_from_slice(tag);
                out.extend_from_slice(ciphertext);
            }
        }
    }

    /// Parse. Handshake messages are fixed-size and any length mismatch
    /// (truncation *or* trailing garbage) is rejected; `Data` records
    /// keep their ciphertext as a zero-copy slice of `bytes`.
    pub fn decode(bytes: &Bytes) -> Option<Message> {
        let (&kind, rest) = bytes.split_first()?;
        match kind {
            1 => {
                if rest.len() != 4 + 16 + ELEMENT_LEN {
                    return None;
                }
                Some(Message::ClientHello {
                    client_id: u32::from_be_bytes(rest[0..4].try_into().unwrap()),
                    nonce: rest[4..20].try_into().unwrap(),
                    dh_pub: rest[20..].to_vec(),
                })
            }
            2 => {
                if rest.len() != 16 + ELEMENT_LEN + 20 {
                    return None;
                }
                Some(Message::ServerHello {
                    nonce: rest[0..16].try_into().unwrap(),
                    dh_pub: rest[16..16 + ELEMENT_LEN].to_vec(),
                    auth: rest[16 + ELEMENT_LEN..].try_into().unwrap(),
                })
            }
            3 => {
                if rest.len() != 20 {
                    return None;
                }
                Some(Message::ClientAuth {
                    auth: rest.try_into().unwrap(),
                })
            }
            4 => {
                if rest.len() < 8 + 12 {
                    return None;
                }
                Some(Message::Data {
                    seq: u64::from_be_bytes(rest[0..8].try_into().unwrap()),
                    tag: rest[8..20].try_into().unwrap(),
                    ciphertext: bytes.slice(DATA_HEADER..),
                })
            }
            _ => None,
        }
    }
}

/// The handshake transcript both authenticators bind to.
pub fn transcript(
    client_id: u32,
    nonce_c: &[u8; 16],
    nonce_s: &[u8; 16],
    pub_c: &[u8],
    pub_s: &[u8],
) -> Vec<u8> {
    let mut t = Vec::with_capacity(4 + 32 + 2 * ELEMENT_LEN);
    t.extend_from_slice(&client_id.to_be_bytes());
    t.extend_from_slice(nonce_c);
    t.extend_from_slice(nonce_s);
    t.extend_from_slice(pub_c);
    t.extend_from_slice(pub_s);
    t
}

/// PSK authenticator for one role.
pub fn authenticator(psk: &[u8], role: &str, transcript: &[u8]) -> [u8; 20] {
    let mut msg = Vec::with_capacity(role.len() + transcript.len());
    msg.extend_from_slice(role.as_bytes());
    msg.extend_from_slice(transcript);
    hmac_sha1(psk, &msg)
}

/// Generate an ephemeral DH keypair from the simulation RNG.
pub fn gen_keypair(rng: &mut SimRng) -> DhKeyPair {
    let mut seed = [0u8; EXPONENT_LEN];
    rng.fill_bytes(&mut seed);
    DhKeyPair::generate(&seed)
}

/// Directional record protection for one established session side.
pub struct SessionCrypto {
    enc_tx: [u8; 32],
    /// Transmit-MAC midstates: the HMAC ipad/opad compressions are paid
    /// once here, at key derivation, and resumed per record.
    mac_tx: HmacSha1,
    enc_rx: [u8; 32],
    mac_rx: HmacSha1,
    seq_tx: u64,
    replay: ReplayWindow,
    /// Records rejected for bad tags (tampering / wrong keys).
    pub integrity_failures: u64,
    /// Records rejected as replays.
    pub replay_drops: u64,
    /// Records sealed (wire records produced).
    pub records_sealed: u64,
    /// Records opened (verified, decrypted, accepted).
    pub records_opened: u64,
    /// Payload bytes that had to be copied on `open` because the record
    /// buffer was still shared — 0 on the steady-state path, where the
    /// receiver holds the last reference and decrypts in place.
    pub bytes_copied: u64,
}

impl SessionCrypto {
    /// Derive directional keys. `is_client` selects which derived pair is
    /// used for transmit.
    pub fn derive(shared: &[u8], nonce_c: &[u8; 16], nonce_s: &[u8; 16], is_client: bool) -> Self {
        let mut context = Vec::with_capacity(32);
        context.extend_from_slice(nonce_c);
        context.extend_from_slice(nonce_s);
        let mut c2s_enc = [0u8; 32];
        let mut c2s_mac = [0u8; 32];
        let mut s2c_enc = [0u8; 32];
        let mut s2c_mac = [0u8; 32];
        derive_key(shared, "c2s-enc", &context, &mut c2s_enc);
        derive_key(shared, "c2s-mac", &context, &mut c2s_mac);
        derive_key(shared, "s2c-enc", &context, &mut s2c_enc);
        derive_key(shared, "s2c-mac", &context, &mut s2c_mac);
        let (enc_tx, mac_tx, enc_rx, mac_rx) = if is_client {
            (c2s_enc, c2s_mac, s2c_enc, s2c_mac)
        } else {
            (s2c_enc, s2c_mac, c2s_enc, c2s_mac)
        };
        SessionCrypto {
            enc_tx,
            mac_tx: HmacSha1::new(&mac_tx),
            enc_rx,
            mac_rx: HmacSha1::new(&mac_rx),
            seq_tx: 0,
            replay: ReplayWindow::new(),
            integrity_failures: 0,
            replay_drops: 0,
            records_sealed: 0,
            records_opened: 0,
            bytes_copied: 0,
        }
    }

    fn record_nonce(seq: u64) -> [u8; 12] {
        let mut n = [0u8; 12];
        n[..8].copy_from_slice(&seq.to_le_bytes());
        n
    }

    /// Protect one inner packet, producing the fully-encoded wire record
    /// in a single buffer: the payload is laid down once at its final
    /// offset, encrypted in place, and the tag (MAC'd by resuming the
    /// derivation-time midstates over `seq ∥ ciphertext`, no scratch
    /// buffer) is patched into the header.
    pub fn seal_record(&mut self, payload: &[u8]) -> Bytes {
        let seq = self.seq_tx;
        self.seq_tx += 1;
        let mut rec = Vec::with_capacity(DATA_HEADER + payload.len());
        rec.push(4);
        rec.extend_from_slice(&seq.to_be_bytes());
        rec.extend_from_slice(&[0u8; 12]); // tag, patched below
        rec.extend_from_slice(payload);
        ChaCha20::new(&self.enc_tx, &Self::record_nonce(seq), 0)
            .apply_keystream(&mut rec[DATA_HEADER..]);
        let mut mac = self.mac_tx.begin();
        mac.update(&seq.to_be_bytes());
        mac.update(&rec[DATA_HEADER..]);
        let tag = mac.finalize_96();
        rec[9..DATA_HEADER].copy_from_slice(&tag);
        self.records_sealed += 1;
        Bytes::from(rec)
    }

    /// Verify and decrypt one record. Returns the inner packet, or `None`
    /// (counting the reason) for forgeries and replays. When `ciphertext`
    /// is the sole reference to its buffer — the steady state for a
    /// just-received record — decryption happens in place and the
    /// returned plaintext aliases the received allocation.
    pub fn open(&mut self, seq: u64, tag: &[u8; 12], mut ciphertext: Bytes) -> Option<Bytes> {
        let mut mac = self.mac_rx.begin();
        mac.update(&seq.to_be_bytes());
        mac.update(&ciphertext);
        let expect = mac.finalize_96();
        if !verify_tag(&expect, tag) {
            self.integrity_failures += 1;
            return None;
        }
        if !self.replay.accept(seq) {
            self.replay_drops += 1;
            return None;
        }
        let mut cipher = ChaCha20::new(&self.enc_rx, &Self::record_nonce(seq), 0);
        let pt = if let Some(buf) = ciphertext.try_mut() {
            cipher.apply_keystream(buf);
            ciphertext
        } else {
            self.bytes_copied += ciphertext.len() as u64;
            let mut v = ciphertext.to_vec();
            cipher.apply_keystream(&mut v);
            Bytes::from(v)
        };
        self.records_opened += 1;
        Some(pt)
    }
}

/// 64-entry sliding window replay filter.
struct ReplayWindow {
    max_seq: u64,
    bitmap: u64,
    any: bool,
}

impl ReplayWindow {
    fn new() -> ReplayWindow {
        ReplayWindow {
            max_seq: 0,
            bitmap: 0,
            any: false,
        }
    }

    /// Accept `seq` exactly once; false for replays / too-old records.
    fn accept(&mut self, seq: u64) -> bool {
        if !self.any {
            self.any = true;
            self.max_seq = seq;
            self.bitmap = 1;
            return true;
        }
        if seq > self.max_seq {
            let shift = seq - self.max_seq;
            self.bitmap = if shift >= 64 { 0 } else { self.bitmap << shift };
            self.bitmap |= 1;
            self.max_seq = seq;
            true
        } else {
            let offset = self.max_seq - seq;
            if offset >= 64 {
                return false; // too old
            }
            let bit = 1u64 << offset;
            if self.bitmap & bit != 0 {
                return false; // replay
            }
            self.bitmap |= bit;
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rogue_sim::Seed;

    fn established_pair() -> (SessionCrypto, SessionCrypto) {
        let mut rng = SimRng::new(Seed(1));
        let ckp = gen_keypair(&mut rng);
        let skp = gen_keypair(&mut rng);
        let shared_c = ckp.agree(&skp.public).unwrap();
        let shared_s = skp.agree(&ckp.public).unwrap();
        assert_eq!(shared_c, shared_s);
        let nc = [1u8; 16];
        let ns = [2u8; 16];
        (
            SessionCrypto::derive(&shared_c, &nc, &ns, true),
            SessionCrypto::derive(&shared_s, &nc, &ns, false),
        )
    }

    /// Seal `payload` and decode the record into its [`Message`].
    fn seal(crypto: &mut SessionCrypto, payload: &[u8]) -> Message {
        Message::decode(&crypto.seal_record(payload)).expect("self-encoded record parses")
    }

    #[test]
    fn message_codecs_roundtrip() {
        let mut rng = SimRng::new(Seed(2));
        let kp = gen_keypair(&mut rng);
        let msgs = vec![
            Message::ClientHello {
                client_id: 7,
                nonce: [9u8; 16],
                dh_pub: kp.public.clone(),
            },
            Message::ServerHello {
                nonce: [8u8; 16],
                dh_pub: kp.public.clone(),
                auth: [3u8; 20],
            },
            Message::ClientAuth { auth: [4u8; 20] },
            Message::Data {
                seq: 42,
                tag: [5u8; 12],
                ciphertext: Bytes::copy_from_slice(b"packet bytes"),
            },
        ];
        for m in msgs {
            assert_eq!(Message::decode(&Bytes::from(m.encode())).unwrap(), m);
        }
        assert!(Message::decode(&Bytes::new()).is_none());
        assert!(Message::decode(&Bytes::copy_from_slice(&[9, 1, 2])).is_none());
    }

    #[test]
    fn handshake_length_mismatch_rejected() {
        // Handshake messages are fixed-size: truncation AND trailing
        // garbage must both fail, not be silently accepted.
        let mut rng = SimRng::new(Seed(5));
        let kp = gen_keypair(&mut rng);
        let msgs = vec![
            Message::ClientHello {
                client_id: 1,
                nonce: [0u8; 16],
                dh_pub: kp.public.clone(),
            },
            Message::ServerHello {
                nonce: [0u8; 16],
                dh_pub: kp.public.clone(),
                auth: [0u8; 20],
            },
            Message::ClientAuth { auth: [0u8; 20] },
        ];
        for m in msgs {
            let good = m.encode();
            assert!(Message::decode(&Bytes::from(good.clone())).is_some());
            let mut longer = good.clone();
            longer.push(0xEE);
            assert!(
                Message::decode(&Bytes::from(longer)).is_none(),
                "trailing garbage accepted for {m:?}"
            );
            let shorter = Bytes::from(good).slice(..m.encode().len() - 1);
            assert!(
                Message::decode(&shorter).is_none(),
                "truncation accepted for {m:?}"
            );
        }
        // A Data record shorter than its fixed header is rejected too.
        let mut stub = vec![4u8];
        stub.extend_from_slice(&[0u8; 19]); // 1 byte short of seq ∥ tag
        assert!(Message::decode(&Bytes::from(stub)).is_none());
    }

    #[test]
    fn encode_into_appends_without_reset() {
        let m = Message::ClientAuth { auth: [4u8; 20] };
        let mut out = vec![0xAB, 0xCD];
        m.encode_into(&mut out);
        assert_eq!(&out[..2], &[0xAB, 0xCD]);
        assert_eq!(&out[2..], &m.encode()[..]);
    }

    #[test]
    fn seal_record_aliases_one_buffer() {
        let (mut c, _) = established_pair();
        let (mut c2, _) = established_pair(); // same keys, fresh seq
        let rec = c.seal_record(b"one buffer");
        let m = Message::decode(&rec).unwrap();
        let Message::Data { ciphertext, .. } = &m else {
            unreachable!()
        };
        // The decoded ciphertext is a view of the record allocation,
        // not a copy.
        assert_eq!(ciphertext.as_ptr(), rec[DATA_HEADER..].as_ptr());
        // The record is the message's encoding, and the same keys at the
        // same seq produce the same wire bytes.
        assert_eq!(m.encode(), &rec[..]);
        assert_eq!(&c2.seal_record(b"one buffer")[..], &rec[..]);
        assert_eq!(c.records_sealed, 1);
    }

    #[test]
    fn open_unique_buffer_decrypts_in_place() {
        let (mut c, mut s) = established_pair();
        let rec = c.seal_record(b"decrypt me in place");
        let base = rec.as_ptr() as usize;
        let len = rec.len();
        let Message::Data {
            seq,
            tag,
            ciphertext,
        } = Message::decode(&rec).unwrap()
        else {
            unreachable!()
        };
        drop(rec); // receiver now holds the only reference
        let pt = s.open(seq, &tag, ciphertext).unwrap();
        assert_eq!(pt, b"decrypt me in place"[..]);
        let p = pt.as_ptr() as usize;
        assert!(
            (base..base + len).contains(&p),
            "plaintext must alias the received record buffer"
        );
        assert_eq!(s.bytes_copied, 0);
        assert_eq!(s.records_opened, 1);
    }

    #[test]
    fn open_shared_buffer_falls_back_to_copy() {
        let (mut c, mut s) = established_pair();
        let rec = c.seal_record(b"shared buffer");
        let Message::Data {
            seq,
            tag,
            ciphertext,
        } = Message::decode(&rec).unwrap()
        else {
            unreachable!()
        };
        // `rec` still alive: the buffer is shared, so open must not
        // mutate it — and must count the copy it takes instead.
        let pt = s.open(seq, &tag, ciphertext).unwrap();
        assert_eq!(pt, b"shared buffer"[..]);
        assert_eq!(s.bytes_copied, b"shared buffer".len() as u64);
        let Message::Data { ciphertext, .. } = Message::decode(&rec).unwrap() else {
            unreachable!()
        };
        assert_ne!(pt, ciphertext, "record bytes must be untouched");
    }

    #[test]
    fn seal_open_roundtrip_both_directions() {
        let (mut c, mut s) = established_pair();
        let m = seal(&mut c, b"client to server");
        let Message::Data {
            seq,
            tag,
            ciphertext,
        } = m
        else {
            unreachable!()
        };
        assert_ne!(&ciphertext[..], b"client to server");
        assert_eq!(
            s.open(seq, &tag, ciphertext).unwrap(),
            b"client to server"[..]
        );

        let m = seal(&mut s, b"server to client");
        let Message::Data {
            seq,
            tag,
            ciphertext,
        } = m
        else {
            unreachable!()
        };
        assert_eq!(
            c.open(seq, &tag, ciphertext).unwrap(),
            b"server to client"[..]
        );
    }

    #[test]
    fn tampering_detected() {
        let (mut c, mut s) = established_pair();
        let Message::Data {
            seq,
            tag,
            ciphertext,
        } = seal(&mut c, b"do not touch")
        else {
            unreachable!()
        };
        let mut tampered = ciphertext.to_vec();
        tampered[0] ^= 0x01;
        assert!(s.open(seq, &tag, Bytes::from(tampered)).is_none());
        assert_eq!(s.integrity_failures, 1);
    }

    #[test]
    fn replay_rejected() {
        let (mut c, mut s) = established_pair();
        let Message::Data {
            seq,
            tag,
            ciphertext,
        } = seal(&mut c, b"once only")
        else {
            unreachable!()
        };
        assert!(s.open(seq, &tag, ciphertext.clone()).is_some());
        assert!(s.open(seq, &tag, ciphertext).is_none());
        assert_eq!(s.replay_drops, 1);
    }

    #[test]
    fn out_of_order_within_window_accepted() {
        let (mut c, mut s) = established_pair();
        let records: Vec<_> = (0..5)
            .map(|i| seal(&mut c, format!("r{i}").as_bytes()))
            .collect();
        // Deliver 4, 2, 0, 1, 3.
        for idx in [4usize, 2, 0, 1, 3] {
            let Message::Data {
                seq,
                tag,
                ciphertext,
            } = &records[idx]
            else {
                unreachable!()
            };
            assert!(
                s.open(*seq, tag, ciphertext.clone()).is_some(),
                "record {idx} must be accepted"
            );
        }
        assert_eq!(s.replay_drops, 0);
    }

    #[test]
    fn replay_window_edges() {
        let mut w = ReplayWindow::new();
        assert!(w.accept(5));
        assert!(!w.accept(5));
        assert!(w.accept(4));
        assert!(w.accept(100));
        assert!(!w.accept(36), "slid out of window");
        assert!(w.accept(37), "exactly at window edge");
    }

    #[test]
    fn wrong_psk_authenticators_differ() {
        let t = transcript(1, &[1; 16], &[2; 16], &[3; 128], &[4; 128]);
        let a = authenticator(&[7u8; PSK_LEN], "server-auth", &t);
        let b = authenticator(&[8u8; PSK_LEN], "server-auth", &t);
        assert_ne!(a, b);
        // Role separation too.
        let c = authenticator(&[7u8; PSK_LEN], "client-auth", &t);
        assert_ne!(a, c);
    }

    #[test]
    fn directional_keys_differ() {
        let (mut c, _s) = established_pair();
        let Message::Data {
            ciphertext: ct1, ..
        } = seal(&mut c, b"same plaintext")
        else {
            unreachable!()
        };
        // Re-derive as server and seal the same plaintext with seq 0: the
        // c2s and s2c streams must differ.
        let (_, mut s) = established_pair();
        let Message::Data {
            ciphertext: ct2, ..
        } = seal(&mut s, b"same plaintext")
        else {
            unreachable!()
        };
        assert_ne!(ct1, ct2);
    }
}
