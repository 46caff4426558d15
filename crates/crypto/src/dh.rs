//! Finite-field Diffie–Hellman key agreement.
//!
//! The VPN handshake (Section 5 of the paper) needs a fresh shared secret
//! per session so that a rogue gateway relaying packets learns nothing.
//! We use the classic 1024-bit MODP group (RFC 2409 "Oakley Group 2",
//! generator 2) — period-correct for a 2003 PPP-over-SSH deployment —
//! with 256-bit private exponents (standard short-exponent practice).
//!
//! Note the paper's crucial caveat (§5.2): DH alone is anonymous, so the
//! tunnel must *also* authenticate the endpoint against pre-established
//! credentials — otherwise the rogue AP can simply terminate the VPN
//! itself. `rogue-vpn` binds this exchange to a pre-shared key via HMAC,
//! and `rogue-vpn`'s tests include the MITM-without-auth failure case.
//!
//! Every exponentiation here is over an odd modulus, so `pow_mod` runs
//! in Montgomery form (see [`crate::bigint`]): about 0.25 ms per
//! `generate` or `agree` in a release build. The group values p and
//! p − 1 are parsed once per process, not per call.

use crate::bigint::BigUint;
use std::sync::OnceLock;

/// RFC 2409 Oakley Group 2: 1024-bit safe prime, generator 2.
pub const MODP_1024: &[u8] = &[
    0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xC9, 0x0F, 0xDA, 0xA2, 0x21, 0x68, 0xC2, 0x34,
    0xC4, 0xC6, 0x62, 0x8B, 0x80, 0xDC, 0x1C, 0xD1, 0x29, 0x02, 0x4E, 0x08, 0x8A, 0x67, 0xCC, 0x74,
    0x02, 0x0B, 0xBE, 0xA6, 0x3B, 0x13, 0x9B, 0x22, 0x51, 0x4A, 0x08, 0x79, 0x8E, 0x34, 0x04, 0xDD,
    0xEF, 0x95, 0x19, 0xB3, 0xCD, 0x3A, 0x43, 0x1B, 0x30, 0x2B, 0x0A, 0x6D, 0xF2, 0x5F, 0x14, 0x37,
    0x4F, 0xE1, 0x35, 0x6D, 0x6D, 0x51, 0xC2, 0x45, 0xE4, 0x85, 0xB5, 0x76, 0x62, 0x5E, 0x7E, 0xC6,
    0xF4, 0x4C, 0x42, 0xE9, 0xA6, 0x37, 0xED, 0x6B, 0x0B, 0xFF, 0x5C, 0xB6, 0xF4, 0x06, 0xB7, 0xED,
    0xEE, 0x38, 0x6B, 0xFB, 0x5A, 0x89, 0x9F, 0xA5, 0xAE, 0x9F, 0x24, 0x11, 0x7C, 0x4B, 0x1F, 0xE6,
    0x49, 0x28, 0x66, 0x51, 0xEC, 0xE6, 0x53, 0x81, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
];

/// Byte length of a group element on the wire.
pub const ELEMENT_LEN: usize = 128;

/// Private exponent length in bytes (256-bit short exponents).
pub const EXPONENT_LEN: usize = 32;

/// The group modulus p and p − 1, parsed from [`MODP_1024`] on first use.
fn group() -> &'static (BigUint, BigUint) {
    static GROUP: OnceLock<(BigUint, BigUint)> = OnceLock::new();
    GROUP.get_or_init(|| {
        // p − 1 is p with the low bit cleared (p is odd).
        let mut pm1 = MODP_1024.to_vec();
        pm1[ELEMENT_LEN - 1] &= 0xFE;
        (
            BigUint::from_be_bytes(MODP_1024),
            BigUint::from_be_bytes(&pm1),
        )
    })
}

/// One side's ephemeral DH keypair.
pub struct DhKeyPair {
    private: BigUint,
    /// Public value `g^x mod p`, serialized to [`ELEMENT_LEN`] bytes.
    pub public: Vec<u8>,
}

impl DhKeyPair {
    /// Generate a keypair from caller-supplied randomness (the simulator's
    /// deterministic RNG provides it).
    pub fn generate(random: &[u8; EXPONENT_LEN]) -> DhKeyPair {
        let (p, _) = group();
        let g = BigUint::from_u64(2);
        let mut exp_bytes = *random;
        // Clamp: force the top bit so the exponent has full length, and
        // avoid trivial exponents.
        exp_bytes[0] |= 0x80;
        let private = BigUint::from_be_bytes(&exp_bytes);
        let public_n = g.pow_mod(&private, p);
        DhKeyPair {
            private,
            public: public_n.to_be_bytes(ELEMENT_LEN),
        }
    }

    /// Combine with the peer's public value, producing the shared secret
    /// (fixed [`ELEMENT_LEN`] bytes). Returns `None` for degenerate peer
    /// values (0, 1, p-1, or ≥ p) — accepting those would let an in-path
    /// attacker force a known secret.
    pub fn agree(&self, peer_public: &[u8]) -> Option<Vec<u8>> {
        if peer_public.len() != ELEMENT_LEN {
            return None;
        }
        let (p, pm1) = group();
        let peer = BigUint::from_be_bytes(peer_public);
        if peer.is_zero() || peer == BigUint::one() || peer == *pm1 || peer >= *p {
            return None;
        }
        let shared = peer.pow_mod(&self.private, p);
        Some(shared.to_be_bytes(ELEMENT_LEN))
    }
}

impl std::fmt::Debug for DhKeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the private exponent.
        write!(f, "DhKeyPair {{ public: {} bytes }}", self.public.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keypair(tag: u8) -> DhKeyPair {
        let mut r = [tag; EXPONENT_LEN];
        r[31] = tag.wrapping_add(1);
        DhKeyPair::generate(&r)
    }

    #[test]
    fn agreement_matches() {
        let alice = keypair(0xA1);
        let bob = keypair(0xB2);
        let s1 = alice.agree(&bob.public).expect("valid peer");
        let s2 = bob.agree(&alice.public).expect("valid peer");
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), ELEMENT_LEN);
    }

    #[test]
    fn different_peers_different_secrets() {
        let alice = keypair(1);
        let bob = keypair(2);
        let carol = keypair(3);
        let ab = alice.agree(&bob.public).unwrap();
        let ac = alice.agree(&carol.public).unwrap();
        assert_ne!(ab, ac);
    }

    #[test]
    fn rejects_degenerate_public_values() {
        let alice = keypair(9);
        let zero = vec![0u8; ELEMENT_LEN];
        assert!(alice.agree(&zero).is_none(), "0 must be rejected");
        let mut one = vec![0u8; ELEMENT_LEN];
        one[ELEMENT_LEN - 1] = 1;
        assert!(alice.agree(&one).is_none(), "1 must be rejected");
        let p = MODP_1024.to_vec();
        assert!(alice.agree(&p).is_none(), "p must be rejected");
        let mut pm1 = MODP_1024.to_vec();
        pm1[ELEMENT_LEN - 1] &= 0xFE;
        assert!(alice.agree(&pm1).is_none(), "p-1 must be rejected");
        assert!(alice.agree(&[1, 2, 3]).is_none(), "short input rejected");
    }

    #[test]
    fn public_value_is_in_range() {
        let kp = keypair(0x55);
        let p = BigUint::from_be_bytes(MODP_1024);
        let pubv = BigUint::from_be_bytes(&kp.public);
        assert!(pubv < p);
        assert!(!pubv.is_zero());
    }

    #[test]
    fn deterministic_from_randomness() {
        let a = DhKeyPair::generate(&[7u8; EXPONENT_LEN]);
        let b = DhKeyPair::generate(&[7u8; EXPONENT_LEN]);
        assert_eq!(a.public, b.public);
    }

    #[test]
    fn debug_hides_private_key() {
        let kp = keypair(4);
        assert!(!format!("{kp:?}").contains("private"));
    }
}
