//! Hostile input for the VPN layer: whatever bytes an attacker puts on
//! the wire, the record codec, the record opener and the DH agreement
//! must answer with `None` or a well-formed value, never a panic.
//!
//! - `Message::decode` on arbitrary bytes, biased towards the four kind
//!   bytes at their exact lengths so the accepting branches run too;
//!   every accepted message re-encodes to its input.
//! - `SessionCrypto::open` on arbitrary `(seq, tag, ciphertext)` rejects
//!   the forgery and leaves the session able to open genuine records.
//! - `DhKeyPair::agree` on arbitrary peer values rejects wrong lengths
//!   and the degenerate values 0, 1, p − 1 and everything ≥ p, and
//!   otherwise returns `peer^x mod p` computed by a square-and-multiply
//!   reference written here.
//! - `RecordStream`, the TCP transport's receive half, yields framed
//!   records whole and in order however the stream is split, drops its
//!   buffer on a length prefix above `MAX_RECORD`, and takes arbitrary
//!   bytes without panicking.

use bytes::Bytes;
use proptest::prelude::*;
use rogue_crypto::bigint::BigUint;
use rogue_crypto::dh::{DhKeyPair, ELEMENT_LEN, EXPONENT_LEN, MODP_1024};
use rogue_sim::{Seed, SimRng};
use rogue_vpn::protocol::{
    frame_record, gen_keypair, Message, RecordStream, SessionCrypto, MAX_RECORD,
};

/// Encoded length of each handshake kind; `Data` has a 21-byte minimum.
fn exact_len(kind: u8) -> Option<usize> {
    match kind {
        1 => Some(1 + 4 + 16 + ELEMENT_LEN),
        2 => Some(1 + 16 + ELEMENT_LEN + 20),
        3 => Some(1 + 20),
        4 => Some(1 + 8 + 12),
        _ => None,
    }
}

/// A client/server session pair keyed by a real DH agreement.
fn established(seed: u64) -> (SessionCrypto, SessionCrypto) {
    let mut rng = SimRng::new(Seed(seed));
    let c = gen_keypair(&mut rng);
    let s = gen_keypair(&mut rng);
    let shared = c
        .agree(&s.public)
        .expect("generated public values are valid");
    let (nc, ns) = ([1u8; 16], [2u8; 16]);
    (
        SessionCrypto::derive(&shared, &nc, &ns, true),
        SessionCrypto::derive(&shared, &nc, &ns, false),
    )
}

/// p − 1 as wire bytes: p is odd, so clear its low bit.
fn p_minus_one() -> Vec<u8> {
    let mut pm1 = MODP_1024.to_vec();
    pm1[ELEMENT_LEN - 1] &= 0xFE;
    pm1
}

/// `base^exp mod m` by square-and-multiply over `mul` and `mod_reduce`.
fn pow_mod_reference(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
    let mut acc = BigUint::one();
    for i in (0..exp.bit_len()).rev() {
        acc = acc.mul(&acc).mod_reduce(m);
        if exp.bit(i) {
            acc = acc.mul(base).mod_reduce(m);
        }
    }
    acc
}

/// Big-endian `a + delta` over a fixed width (no overflow for the
/// values used here: p + 2⁶⁴ < 2¹⁰²⁴).
fn add_u64_be(a: &[u8], delta: u64) -> Vec<u8> {
    let mut out = a.to_vec();
    let mut carry = delta as u128;
    for b in out.iter_mut().rev() {
        let s = *b as u128 + (carry & 0xFF);
        *b = s as u8;
        carry = (carry >> 8) + (s >> 8);
    }
    assert_eq!(carry, 0, "sum overflowed the width");
    out
}

/// Every whole record `stream` holds now.
fn drain(stream: &mut RecordStream) -> Vec<Vec<u8>> {
    std::iter::from_fn(|| stream.next_record())
        .map(|r| r.to_vec())
        .collect()
}

proptest! {
    /// Decoding never panics, and whatever it accepts re-encodes to the
    /// exact input bytes (no silently ignored trailing data).
    #[test]
    fn decode_arbitrary_bytes_never_panics(kind_sel in 0u8..6,
                                           len_sel in 0u8..4,
                                           raw_kind in any::<u8>(),
                                           body in proptest::collection::vec(any::<u8>(), 0..=300)) {
        let kind = if kind_sel < 4 { kind_sel + 1 } else { raw_kind };
        // The input is `body` with its first byte replaced by `kind`
        // (0..=300 bytes), or the kind padded or cut to exactly its
        // encoded length, one byte over, or one byte under.
        let mut input = vec![kind];
        input.extend_from_slice(&body);
        match (len_sel, exact_len(kind)) {
            (1, Some(n)) => input.resize(n, 0xA5),
            (2, Some(n)) => input.resize(n + 1, 0xA5),
            (3, Some(n)) => input.resize(n - 1, 0xA5),
            _ => input.truncate(body.len()),
        }
        let bytes = Bytes::from(input.clone());
        if let Some(m) = Message::decode(&bytes) {
            prop_assert_eq!(m.encode(), input);
        } else {
            prop_assert!(len_sel != 1 || exact_len(kind).is_none(), "exact-length kind {kind} rejected");
        }
    }

    /// Forged records are refused, counted, and do not disturb the
    /// session: a genuine record still opens afterwards.
    #[test]
    fn open_arbitrary_record_returns_none(seq in any::<u64>(),
                                          tag in any::<[u8; 12]>(),
                                          ciphertext in proptest::collection::vec(any::<u8>(), 0..=300)) {
        let (mut client, mut server) = established(seq % 4);
        prop_assert!(server.open(seq, &tag, Bytes::from(ciphertext)).is_none());
        prop_assert_eq!(server.integrity_failures, 1);
        prop_assert_eq!(server.records_opened, 0);
        let genuine = Message::decode(&client.seal_record(b"genuine"));
        let Some(Message::Data { seq, tag, ciphertext }) = genuine else {
            unreachable!("seal_record returns a data record")
        };
        prop_assert_eq!(server.open(seq, &tag, ciphertext), Some(Bytes::from_static(b"genuine")));
    }

    /// `agree` rejects wrong lengths and degenerate values, and returns
    /// the reference `peer^x mod p` for every other peer value.
    #[test]
    fn agree_arbitrary_peer_values(seed in any::<[u8; EXPONENT_LEN]>(),
                                   kind in 0u8..8,
                                   delta in any::<u64>(),
                                   peer_len in 0usize..=300,
                                   raw in proptest::collection::vec(any::<u8>(), ELEMENT_LEN)) {
        let p = BigUint::from_be_bytes(MODP_1024);
        let peer: Vec<u8> = match kind {
            0 => vec![0; ELEMENT_LEN],
            1 => BigUint::one().to_be_bytes(ELEMENT_LEN),
            2 => p_minus_one(),
            3 => MODP_1024.to_vec(),
            4 => add_u64_be(MODP_1024, delta),
            5 => (0..peer_len).map(|i| raw[i % ELEMENT_LEN]).collect(),
            _ => raw.clone(),
        };
        let kp = DhKeyPair::generate(&seed);
        let got = kp.agree(&peer);
        let value = BigUint::from_be_bytes(&peer);
        let degenerate = value.is_zero()
            || value == BigUint::one()
            || value == BigUint::from_be_bytes(&p_minus_one())
            || value >= p;
        if peer.len() != ELEMENT_LEN || degenerate {
            prop_assert!(got.is_none(), "accepted a {}-byte peer value {:?}", peer.len(), value);
        } else {
            // The private exponent is the seed with its top bit forced.
            let mut x = seed;
            x[0] |= 0x80;
            let want = pow_mod_reference(&value, &BigUint::from_be_bytes(&x), &p);
            prop_assert_eq!(got, Some(want.to_be_bytes(ELEMENT_LEN)));
        }
    }

    /// Framed records split at arbitrary points come out whole and in
    /// order, and no stray byte is left: a record framed after them
    /// comes out next.
    #[test]
    fn framed_records_survive_any_split(records in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..=300), 0..8),
                                        cuts in proptest::collection::vec(any::<u16>(), 0..12)) {
        let wire: Vec<u8> = records.iter().flat_map(|r| frame_record(r)).collect();
        let mut at: Vec<usize> = cuts.iter().map(|&c| c as usize % (wire.len() + 1)).collect();
        at.extend([0, wire.len()]);
        at.sort_unstable();
        let mut stream = RecordStream::default();
        let mut got = Vec::new();
        for w in at.windows(2) {
            stream.push(&wire[w[0]..w[1]]);
            got.extend(drain(&mut stream));
        }
        prop_assert_eq!(got, records);
        stream.push(&frame_record(b"next"));
        prop_assert_eq!(drain(&mut stream), vec![b"next".to_vec()]);
    }

    /// A length prefix above `MAX_RECORD` drops the buffer: the records
    /// framed before it come out, the bytes after it are gone, and a
    /// record framed afresh comes out whole. A prefix of exactly
    /// `MAX_RECORD` is legal: it waits for its bytes.
    #[test]
    fn oversized_length_prefix_clears_the_buffer(before in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..=64), 0..4),
                                                  sel in 0u8..4,
                                                  raw_len in any::<u32>(),
                                                  tail in proptest::collection::vec(any::<u8>(), 0..=300),
                                                  after in proptest::collection::vec(any::<u8>(), 0..=64)) {
        let max = MAX_RECORD as u32;
        let len = match sel {
            0 => max,
            1 => max + 1,
            _ => raw_len.max(max + 1),
        };
        let mut wire: Vec<u8> = before.iter().flat_map(|r| frame_record(r)).collect();
        wire.extend_from_slice(&len.to_be_bytes());
        wire.extend_from_slice(&tail);
        let mut stream = RecordStream::default();
        stream.push(&wire);
        prop_assert_eq!(drain(&mut stream), before);
        if len == max {
            prop_assert!(stream.next_record().is_none());
            stream.push(&vec![0xA5; MAX_RECORD - tail.len()]);
            let rec = stream.next_record().expect("a maximal record is legal");
            prop_assert_eq!(rec.len(), MAX_RECORD);
            prop_assert_eq!(&rec[..tail.len()], &tail[..]);
        } else {
            stream.push(&frame_record(&after));
            prop_assert_eq!(drain(&mut stream), vec![after]);
        }
    }

    /// Arbitrary bytes in arbitrary chunks, with small length prefixes
    /// mixed in so whole records form too, never panic, never yield a
    /// record above `MAX_RECORD`, and never yield more bytes than were
    /// pushed.
    #[test]
    fn arbitrary_stream_bytes_never_panic(chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..=64), 0..8),
                                          small in proptest::collection::vec(0u32..=80, 0..8)) {
        let mut stream = RecordStream::default();
        let (mut pushed, mut taken) = (0, 0);
        for (i, chunk) in chunks.iter().enumerate() {
            if let Some(len) = small.get(i) {
                stream.push(&len.to_be_bytes());
                pushed += 4;
            }
            stream.push(chunk);
            pushed += chunk.len();
            for rec in drain(&mut stream) {
                prop_assert!(rec.len() <= MAX_RECORD);
                taken += 4 + rec.len();
            }
            prop_assert!(taken <= pushed);
        }
    }
}
