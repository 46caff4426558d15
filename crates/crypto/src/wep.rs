//! WEP ("Wired Equivalent Privacy") encapsulation — the broken link-layer
//! cipher the paper's attack shrugs off ("in the attack scenarios we
//! present here it provides no protection what so ever").
//!
//! Frame body format (IEEE 802.11-1999 §8.2.1):
//!
//! ```text
//! | IV (3 bytes) | KeyID (1 byte) | RC4(payload ∥ ICV) |
//! ```
//!
//! where `ICV = CRC32(payload)` (little-endian) and the RC4 key is
//! `IV ∥ secret` — the key structure the FMS attack exploits. Both the
//! 64-bit flavour (40-bit secret) and the 128-bit flavour (104-bit secret)
//! are supported.

use crate::crc32::crc32;
use crate::rc4::Rc4;

/// A WEP shared secret: 5 bytes ("40-bit"/"64-bit WEP") or
/// 13 bytes ("104-bit"/"128-bit WEP").
#[derive(Clone, PartialEq, Eq)]
pub struct WepKey {
    bytes: Vec<u8>,
}

/// Errors from [`open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WepError {
    /// Body shorter than IV + KeyID + ICV.
    TooShort,
    /// The decrypted ICV did not match — wrong key or corrupted frame.
    BadIcv,
}

impl WepKey {
    /// Construct from raw bytes; panics unless the length is 5 or 13.
    pub fn new(bytes: &[u8]) -> WepKey {
        assert!(
            bytes.len() == 5 || bytes.len() == 13,
            "WEP keys are 5 (WEP-40) or 13 (WEP-104) bytes, got {}",
            bytes.len()
        );
        WepKey {
            bytes: bytes.to_vec(),
        }
    }

    /// The classic vendor convention of deriving a 5-byte key from an
    /// ASCII passphrase by truncation/padding — how "SECRET" in the paper's
    /// Figure 1 becomes key material. (Real vendors used this and worse.)
    pub fn from_passphrase_40(pass: &str) -> WepKey {
        let mut bytes = [0u8; 5];
        for (i, b) in pass.bytes().enumerate() {
            bytes[i % 5] ^= b;
        }
        WepKey::new(&bytes)
    }

    /// Secret length in bytes (5 or 13).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True for zero-length (never: constructor forbids it) — included for
    /// API completeness per Rust conventions.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Raw secret bytes (the attacker-recovered value is compared to this).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    fn rc4_key(&self, iv: [u8; 3]) -> Vec<u8> {
        let mut k = Vec::with_capacity(3 + self.bytes.len());
        k.extend_from_slice(&iv);
        k.extend_from_slice(&self.bytes);
        k
    }
}

impl std::fmt::Debug for WepKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WepKey({}-bit)", self.bytes.len() * 8)
    }
}

/// Per-frame overhead added by WEP (IV + KeyID + ICV).
pub const WEP_OVERHEAD: usize = 8;

/// Encrypt `payload` into a WEP frame body.
///
/// ```
/// use rogue_crypto::wep::{seal, open, WepKey};
/// let key = WepKey::from_passphrase_40("SECRET");
/// let body = seal(&key, [0x01, 0x02, 0x03], 0, b"hello");
/// assert_eq!(open(&key, &body).unwrap(), b"hello");
/// assert!(open(&WepKey::new(b"WRONG"), &body).is_err());
/// ```
pub fn seal(key: &WepKey, iv: [u8; 3], key_id: u8, payload: &[u8]) -> Vec<u8> {
    // Single buffer: header + plaintext + ICV assembled in place, then
    // encrypted in place — no intermediate plaintext-∥-ICV vector.
    let mut body = Vec::with_capacity(payload.len() + WEP_OVERHEAD);
    body.extend_from_slice(&iv);
    body.push((key_id & 0x03) << 6);
    body.extend_from_slice(payload);
    body.extend_from_slice(&crc32(payload).to_le_bytes());
    Rc4::new(&key.rc4_key(iv)).apply_keystream(&mut body[4..]);
    body
}

/// Decrypt a WEP frame body, verifying the ICV.
pub fn open(key: &WepKey, body: &[u8]) -> Result<Vec<u8>, WepError> {
    if body.len() < WEP_OVERHEAD {
        return Err(WepError::TooShort);
    }
    let iv = [body[0], body[1], body[2]];
    let mut data = body[4..].to_vec();
    Rc4::new(&key.rc4_key(iv)).apply_keystream(&mut data);
    let icv_off = data.len() - 4;
    let got = u32::from_le_bytes(data[icv_off..].try_into().expect("4 bytes"));
    let payload = &data[..icv_off];
    if crc32(payload) != got {
        return Err(WepError::BadIcv);
    }
    // Shed the ICV in place; the decrypt copy doubles as the result.
    data.truncate(icv_off);
    Ok(data)
}

/// Extract the IV from a sealed body without decrypting (what a passive
/// sniffer sees).
pub fn peek_iv(body: &[u8]) -> Option<[u8; 3]> {
    if body.len() < WEP_OVERHEAD {
        return None;
    }
    Some([body[0], body[1], body[2]])
}

/// First ciphertext byte of a sealed body (sniffer view). Combined with a
/// known first plaintext byte (0xAA for LLC/SNAP data frames) this yields
/// the first keystream byte — the FMS observable.
pub fn peek_first_ct_byte(body: &[u8]) -> Option<u8> {
    if body.len() < WEP_OVERHEAD {
        return None;
    }
    Some(body[4])
}

/// Classic FMS weak IV for secret-key byte index `a` (0-based): IVs of the
/// form `(a+3, 0xFF, x)`. Sequentially counting cards emit these
/// periodically, which is why Airsnort worked on passive captures.
pub fn is_weak_iv(iv: [u8; 3], key_byte_index: usize) -> bool {
    iv[0] as usize == key_byte_index + 3 && iv[1] == 0xFF
}

/// IV generation policies for simulated stations.
#[derive(Clone, Debug)]
pub enum IvPolicy {
    /// Little-endian counter starting from a seed — the behaviour of most
    /// period cards, which is what made passive FMS collection practical.
    Sequential(u32),
    /// Uniformly random per frame (requires caller-provided entropy).
    Random,
    /// Emit only FMS-weak IVs `(a+3, 0xFF, x)`, cycling positions for a
    /// key of the given length. This is an **accelerated capture model**:
    /// a sequential card emits one weak IV per position every 65 536
    /// frames, so `N` weak-only frames stand in for `N × 65 536` real
    /// ones (see DESIGN.md, experiment E4). Used by tests and the
    /// full-stack crack demo to keep runtimes sane.
    WeakOnly {
        /// Internal counter.
        counter: u32,
        /// Secret key length in bytes (5 or 13).
        key_len: u8,
    },
}

/// Stateful IV source for one transmitter.
#[derive(Clone, Debug)]
pub struct IvSource {
    policy: IvPolicy,
}

impl IvSource {
    /// New source with the given policy.
    pub fn new(policy: IvPolicy) -> IvSource {
        IvSource { policy }
    }

    /// Produce the next IV. `entropy` is consulted only by `Random`.
    pub fn next_iv(&mut self, entropy: u32) -> [u8; 3] {
        match &mut self.policy {
            IvPolicy::Sequential(c) => {
                let iv = [
                    (*c & 0xFF) as u8,
                    ((*c >> 8) & 0xFF) as u8,
                    ((*c >> 16) & 0xFF) as u8,
                ];
                *c = c.wrapping_add(1);
                iv
            }
            IvPolicy::Random => [
                (entropy & 0xFF) as u8,
                ((entropy >> 8) & 0xFF) as u8,
                ((entropy >> 16) & 0xFF) as u8,
            ],
            IvPolicy::WeakOnly { counter, key_len } => {
                let pos = (*counter % *key_len as u32) as u8;
                let x = (*counter / *key_len as u32 % 256) as u8;
                *counter = counter.wrapping_add(1);
                [pos + 3, 0xFF, x]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key40() -> WepKey {
        WepKey::new(b"AB#12")
    }

    fn key104() -> WepKey {
        WepKey::new(b"thirteen-byte")
    }

    #[test]
    fn seal_open_roundtrip_40() {
        let body = seal(&key40(), [1, 2, 3], 0, b"hello wireless");
        assert_eq!(body.len(), 14 + WEP_OVERHEAD);
        let out = open(&key40(), &body).unwrap();
        assert_eq!(out, b"hello wireless");
    }

    #[test]
    fn seal_open_roundtrip_104() {
        let body = seal(&key104(), [9, 9, 9], 2, b"x");
        let out = open(&key104(), &body).unwrap();
        assert_eq!(out, b"x");
    }

    #[test]
    fn wrong_key_fails_icv() {
        let body = seal(&key40(), [1, 2, 3], 0, b"payload");
        let wrong = WepKey::new(b"WRONG");
        assert_eq!(open(&wrong, &body), Err(WepError::BadIcv));
    }

    #[test]
    fn corrupted_body_fails_icv() {
        let mut body = seal(&key40(), [4, 5, 6], 0, b"payload");
        let n = body.len();
        body[n - 1] ^= 0x01;
        assert_eq!(open(&key40(), &body), Err(WepError::BadIcv));
    }

    #[test]
    fn too_short_rejected() {
        assert_eq!(open(&key40(), &[1, 2, 3]), Err(WepError::TooShort));
    }

    #[test]
    fn iv_is_cleartext() {
        let body = seal(&key40(), [0xAA, 0xBB, 0xCC], 0, b"data");
        assert_eq!(peek_iv(&body), Some([0xAA, 0xBB, 0xCC]));
    }

    #[test]
    fn bitflip_forgery_passes_icv() {
        // The CRC-linearity attack end to end: modify ciphertext so the
        // decrypted plaintext changes in a chosen way yet the ICV still
        // verifies. This is why WEP "integrity" never protected anyone.
        use crate::crc32::bitflip_patch;
        let payload = b"amount=0010".to_vec();
        let body = seal(&key40(), [7, 7, 7], 0, &payload);

        // Attacker flips plaintext "0010" -> "9910" without the key.
        let mut delta = vec![0u8; payload.len()];
        delta[7] = b'0' ^ b'9';
        delta[8] = b'0' ^ b'9';
        let patch = bitflip_patch(&delta, payload.len()).to_le_bytes();

        let mut forged = body.clone();
        for (i, d) in delta.iter().enumerate() {
            forged[4 + i] ^= d;
        }
        for (i, p) in patch.iter().enumerate() {
            forged[4 + payload.len() + i] ^= p;
        }
        let out = open(&key40(), &forged).expect("forged frame must verify");
        assert_eq!(out, b"amount=9910");
    }

    #[test]
    fn keystream_reuse_leaks_xor() {
        // Same IV + same key = same keystream: the classic two-time pad.
        let a = seal(&key40(), [1, 1, 1], 0, b"attack at dawn!!");
        let b = seal(&key40(), [1, 1, 1], 0, b"defend at dusk!!");
        let xor_ct: Vec<u8> = a[4..].iter().zip(&b[4..]).map(|(x, y)| x ^ y).collect();
        let xor_pt: Vec<u8> = b"attack at dawn!!"
            .iter()
            .zip(b"defend at dusk!!")
            .map(|(x, y)| x ^ y)
            .collect();
        assert_eq!(&xor_ct[..xor_pt.len()], &xor_pt[..]);
    }

    #[test]
    fn weak_iv_classification() {
        assert!(is_weak_iv([3, 255, 7], 0));
        assert!(is_weak_iv([7, 255, 200], 4));
        assert!(!is_weak_iv([3, 254, 7], 0));
        assert!(!is_weak_iv([4, 255, 7], 0));
    }

    #[test]
    fn sequential_iv_hits_weak_values() {
        let mut src = IvSource::new(IvPolicy::Sequential(0xFF00));
        // Counter 0xFF00 => iv (0x00, 0xFF, 0x00); advancing 3 reaches
        // (0x03, 0xFF, 0x00), weak for key byte 0.
        let mut found = false;
        for _ in 0..16 {
            if is_weak_iv(src.next_iv(0), 0) {
                found = true;
            }
        }
        assert!(found);
    }

    #[test]
    fn passphrase_derivation_is_deterministic() {
        let a = WepKey::from_passphrase_40("SECRET");
        let b = WepKey::from_passphrase_40("SECRET");
        assert_eq!(a.bytes(), b.bytes());
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn debug_hides_key_material() {
        let k = WepKey::new(b"AB#12");
        assert!(!format!("{k:?}").contains("AB#12"));
    }
}
