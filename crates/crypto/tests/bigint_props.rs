//! Property tests for the DH big-integer arithmetic — the division
//! algorithm (Knuth D) and the Montgomery limb loops behind `pow_mod` are
//! the classic places for carry bugs, and a wrong digit here would
//! silently corrupt every VPN handshake.

use proptest::prelude::*;
use rogue_crypto::bigint::BigUint;
use rogue_crypto::dh::{DhKeyPair, EXPONENT_LEN, MODP_1024};

/// Schoolbook big-endian byte addition (test oracle only).
fn add_be(a: &[u8], b: &[u8]) -> Vec<u8> {
    let n = a.len().max(b.len()) + 1;
    let mut out = vec![0u8; n];
    let mut carry = 0u16;
    for i in 0..n {
        let da = if i < a.len() {
            a[a.len() - 1 - i] as u16
        } else {
            0
        };
        let db = if i < b.len() {
            b[b.len() - 1 - i] as u16
        } else {
            0
        };
        let s = da + db + carry;
        out[n - 1 - i] = s as u8;
        carry = s >> 8;
    }
    out
}

/// Square-and-multiply from `mul` and `mod_reduce` alone: the reference
/// the Montgomery `pow_mod` must agree with.
fn pow_mod_reference(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
    let base = base.mod_reduce(m);
    let mut acc = BigUint::one().mod_reduce(m);
    for i in (0..exp.bit_len()).rev() {
        acc = acc.mul(&acc).mod_reduce(m);
        if exp.bit(i) {
            acc = acc.mul(&base).mod_reduce(m);
        }
    }
    acc
}

/// Little-endian u32 digits to a `BigUint`.
fn from_digits(digits: &[u32]) -> BigUint {
    let bytes: Vec<u8> = digits.iter().rev().flat_map(|d| d.to_be_bytes()).collect();
    BigUint::from_be_bytes(&bytes)
}

/// An odd modulus of exactly `words.len()` u32 digits. Each word yields
/// one digit: all ones, zero, or random, so carry chains that run the
/// full width and limbs that vanish both come up often.
fn odd_modulus(words: &[u64]) -> BigUint {
    let mut digits: Vec<u32> = words
        .iter()
        .map(|&w| match w & 3 {
            0 => u32::MAX,
            1 => 0,
            _ => (w >> 32) as u32,
        })
        .collect();
    digits[0] |= 1;
    let top = digits.len() - 1;
    if digits[top] == 0 {
        digits[top] = (words[top] >> 40) as u32 | 1;
    }
    from_digits(&digits)
}

/// `m - 1` for an odd `m`: clear the low bit.
fn odd_minus_one(m: &BigUint) -> BigUint {
    let len = m.bit_len().div_ceil(8);
    let mut bytes = m.to_be_bytes(len);
    bytes[len - 1] &= 0xFE;
    BigUint::from_be_bytes(&bytes)
}

/// A base of one of five kinds: 0, 1, m − 1, m + r (≥ m), or r.
fn pick_base(kind: u8, m: &BigUint, bytes: &[u8]) -> BigUint {
    match kind {
        0 => BigUint::zero(),
        1 => BigUint::one(),
        2 => odd_minus_one(m),
        3 => BigUint::from_be_bytes(&add_be(&m.to_be_bytes(m.bit_len().div_ceil(8)), bytes)),
        _ => BigUint::from_be_bytes(bytes),
    }
}

/// An exponent of one of four kinds: 0, 1, random up to 256 bits, or
/// random at the modulus's full width.
fn pick_exp(kind: u8, m: &BigUint, bytes: &[u8]) -> BigUint {
    match kind {
        0 => BigUint::zero(),
        1 => BigUint::one(),
        2 => BigUint::from_be_bytes(&bytes[..bytes.len().min(32)]),
        _ => {
            let len = m.bit_len().div_ceil(8);
            let mut full: Vec<u8> = bytes.iter().cycle().take(len).copied().collect();
            if let Some(top) = full.first_mut() {
                *top |= 0x80;
            }
            BigUint::from_be_bytes(&full)
        }
    }
}

proptest! {
    /// Montgomery `pow_mod` equals the reference for odd moduli of 1–32
    /// digits, every base kind and every exponent kind.
    #[test]
    fn pow_mod_matches_reference(m_words in proptest::collection::vec(any::<u64>(), 1..=32),
                                 base_kind in 0u8..5,
                                 exp_kind in 0u8..4,
                                 bytes in proptest::collection::vec(any::<u8>(), 1..=48)) {
        let m = odd_modulus(&m_words);
        let base = pick_base(base_kind, &m, &bytes);
        let exp = pick_exp(exp_kind, &m, &bytes);
        let got = base.pow_mod(&exp, &m);
        prop_assert!(got < m, "result not reduced");
        prop_assert_eq!(got, pow_mod_reference(&base, &exp, &m), "{:?}^{:?} mod {:?}", base, exp, m);
    }

    /// The same over the MODP group prime, where the DH handshake runs.
    #[test]
    fn pow_mod_matches_reference_modp(base_kind in 0u8..5,
                                      exp_kind in 0u8..3,
                                      bytes in proptest::collection::vec(any::<u8>(), 1..=160)) {
        let p = BigUint::from_be_bytes(MODP_1024);
        let base = pick_base(base_kind, &p, &bytes);
        let exp = pick_exp(exp_kind, &p, &bytes);
        prop_assert_eq!(base.pow_mod(&exp, &p), pow_mod_reference(&base, &exp, &p));
    }

    /// a = q·b + r with r < b, for arbitrary operands.
    #[test]
    fn div_rem_invariant(a in proptest::collection::vec(any::<u8>(), 0..48),
                         b in proptest::collection::vec(any::<u8>(), 1..24)) {
        let a_n = BigUint::from_be_bytes(&a);
        let b_n = BigUint::from_be_bytes(&b);
        prop_assume!(!b_n.is_zero());
        let (q, r) = a_n.div_rem(&b_n);
        prop_assert!(r < b_n, "remainder must be reduced");
        // Reconstruct via the byte-level oracle.
        let qb = q.mul(&b_n);
        let len = a.len().max(1) + b.len() + 2;
        let sum = add_be(&qb.to_be_bytes(len), &r.to_be_bytes(len));
        let sum_n = BigUint::from_be_bytes(&sum);
        prop_assert_eq!(sum_n, a_n, "q*b + r != a");
    }

    /// mod_reduce agrees with div_rem's remainder.
    #[test]
    fn mod_reduce_consistent(a in proptest::collection::vec(any::<u8>(), 0..40),
                             m in proptest::collection::vec(any::<u8>(), 1..16)) {
        let a_n = BigUint::from_be_bytes(&a);
        let m_n = BigUint::from_be_bytes(&m);
        prop_assume!(!m_n.is_zero());
        prop_assert_eq!(a_n.mod_reduce(&m_n), a_n.div_rem(&m_n).1);
    }

    /// pow_mod agrees with a u128 reference for word-sized inputs.
    #[test]
    fn pow_mod_matches_u128(b in 0u64..=u64::MAX, e in 0u64..4096, m in 2u32..=u32::MAX) {
        let m64 = m as u64;
        let mut want: u128 = 1;
        let mut base = (b % m64) as u128;
        let mut exp = e;
        while exp > 0 {
            if exp & 1 == 1 {
                want = want * base % m64 as u128;
            }
            base = base * base % m64 as u128;
            exp >>= 1;
        }
        let got = BigUint::from_u64(b).pow_mod(&BigUint::from_u64(e), &BigUint::from_u64(m64));
        prop_assert_eq!(got, BigUint::from_u64(want as u64));
    }

    /// Byte serialization round-trips at any sufficient width.
    #[test]
    fn byte_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..64),
                      pad in 0usize..16) {
        let n = BigUint::from_be_bytes(&bytes);
        let width = bytes.len() + pad;
        if width > 0 {
            let out = n.to_be_bytes(width);
            prop_assert_eq!(BigUint::from_be_bytes(&out), n);
        }
    }
}

/// A full-width (1024-bit) exponent over the MODP prime agrees with the
/// reference, and Fermat's little theorem holds for it.
#[test]
fn pow_mod_full_width_exponent_modp() {
    let p = BigUint::from_be_bytes(MODP_1024);
    let pm1 = odd_minus_one(&p);
    let base = BigUint::from_be_bytes(&[0xA7; 100]);
    assert_eq!(base.pow_mod(&pm1, &p), BigUint::one());
    let exp = BigUint::from_be_bytes(&[0x5C; 128]);
    assert_eq!(base.pow_mod(&exp, &p), pow_mod_reference(&base, &exp, &p));
}

fn from_hex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// Known answers, recorded from the division-based `pow_mod` that the
/// Montgomery kernel replaced: every VPN digest downstream depends on
/// these exact bytes.
#[test]
fn dh_known_answers() {
    let a = DhKeyPair::generate(&[0x42; EXPONENT_LEN]);
    assert_eq!(
        a.public,
        from_hex(concat!(
            "a399b4f3f893230dee342dc557c08ff079b6a30d14f92943937768e09f8ad4ff",
            "9e4e5127b6492ecb13cc0f533b171723ff1bb5e51d2754f2ceb3a188437dcad7",
            "44740817318f7a80989f58d9f66adb4db76e673c8672fbf42614f1c9694a079b",
            "1babc992a06fb7b0d3442212ee04a47c843c5023b9c83de020399ee5e2afb626",
        ))
    );
    let b = DhKeyPair::generate(&[0x17; EXPONENT_LEN]);
    assert_eq!(
        a.agree(&b.public).unwrap(),
        from_hex(concat!(
            "19f9fac4e78479ae93f89687bfe42e426532e78e7aa88dea2d396fc9149aa754",
            "2502d9aa6759012e565524e8f1b85df119da6686266543a04a2eef4a824062a4",
            "3bdde5ad33c7706c653c948fec766cbe33a2c0c4919b9a85b71b900a332a7402",
            "1122f677f91e76a68346c65d8a3b768325f524c3222d879c19bcac1e348380fb",
        ))
    );
}

/// Full-width DH agreement symmetry across random keypairs (few cases —
/// each is a pair of 1024-bit exponentiations).
#[test]
fn dh_agreement_symmetry_random() {
    for i in 0..4u8 {
        let mut ra = [i; EXPONENT_LEN];
        ra[0] = i.wrapping_mul(37).wrapping_add(1);
        let mut rb = [i.wrapping_add(100); EXPONENT_LEN];
        rb[5] = i.wrapping_mul(11).wrapping_add(3);
        let a = DhKeyPair::generate(&ra);
        let b = DhKeyPair::generate(&rb);
        assert_eq!(a.agree(&b.public).unwrap(), b.agree(&a.public).unwrap());
    }
}
