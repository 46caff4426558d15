//! **E4 — the §4 premise: WEP key recovery ("retrieved the WEP key via
//! Airsnort").**
//!
//! The FMS attack recovers one secret byte at a time from "resolved"
//! weak-IV frames. This experiment measures the success probability of
//! full-key recovery as a function of captured weak IVs per key-byte
//! position, for both WEP-40 and WEP-104 — the crack-feasibility curve
//! behind the paper's one-line assumption.
//!
//! Frame-count conversion: a sequentially-counting card emits exactly one
//! weak IV of the classic form `(a+3, 0xFF, x)` per position every
//! 65 536 frames, so `W` weak IVs per position correspond to
//! `W × 65 536` captured frames — the millions-of-packets figure
//! contemporary reports quote for Airsnort.

use rogue_attack::airsnort::{Airsnort, CrackOutcome};
use rogue_crypto::fms::{targeted_weak_ivs, Sample};
use rogue_crypto::rc4::Rc4;
use rogue_crypto::wep::WepKey;
use rogue_sim::{Seed, SimRng};

use super::{rate, replicate};
use crate::report::{pct, Table};

/// One row of the crack curve.
#[derive(Clone, Debug)]
pub struct CrackPoint {
    /// Secret key length in bytes (5 or 13).
    pub key_len: usize,
    /// Weak IVs captured per key-byte position.
    pub weak_ivs_per_position: usize,
    /// Equivalent passively captured frames (sequential-IV card).
    pub equivalent_frames: u64,
    /// Replications (distinct random keys).
    pub reps: usize,
    /// Fraction of keys fully recovered.
    pub success_rate: f64,
}

/// Generate a random WEP key of `len` bytes.
pub fn random_key(rng: &mut SimRng, len: usize) -> WepKey {
    let mut bytes = vec![0u8; len];
    rng.fill_bytes(&mut bytes);
    WepKey::new(&bytes)
}

/// First-keystream-byte oracle: what a sniffer recovers from a captured
/// frame given the LLC/SNAP known plaintext. Uses the real cipher.
pub fn oracle_sample(key: &WepKey, iv: [u8; 3]) -> Sample {
    let mut k = Vec::with_capacity(3 + key.len());
    k.extend_from_slice(&iv);
    k.extend_from_slice(key.bytes());
    let ks0 = Rc4::new(&k).next_byte();
    Sample { iv, ks0 }
}

/// Attempt a crack with `weak_per_position` weak IVs per byte position.
/// Returns whether the true key was recovered.
pub fn crack_once(key: &WepKey, weak_per_position: usize) -> bool {
    let mut snort = Airsnort::new();
    for iv in targeted_weak_ivs(key.len(), weak_per_position) {
        snort.absorb_sample(oracle_sample(key, iv));
    }
    match snort.crack(key.len()) {
        CrackOutcome::Recovered(k) => k.bytes() == key.bytes(),
        _ => false,
    }
}

/// The success-vs-samples curve for the given key length.
pub fn crack_curve(
    key_len: usize,
    weak_counts: &[usize],
    reps: usize,
    seed: Seed,
) -> Vec<CrackPoint> {
    let cracked = replicate(weak_counts, reps, |&w, rep| {
        let mut rng = SimRng::new(seed.fork((key_len * 1_000_000 + w * 1000 + rep) as u64));
        let key = random_key(&mut rng, key_len);
        crack_once(&key, w)
    });
    weak_counts
        .iter()
        .zip(cracked)
        .map(|(&w, cracked)| CrackPoint {
            key_len,
            weak_ivs_per_position: w,
            equivalent_frames: w as u64 * 65_536,
            reps,
            success_rate: rate(&cracked, |&c| c),
        })
        .collect()
}

/// The E4 report body: both key lengths' crack curves. Success rates
/// need a replication floor to mean anything, so a cell runs at least
/// 4 keys whatever `reps` asks for.
pub fn report_body(reps: usize, seed: Seed) -> String {
    let weak = [10usize, 20, 40, 60, 100, 160, 240];
    let mut t = Table::new(&["key", "weak IVs/pos", "≈ frames", "success"]);
    for key_len in [5usize, 13] {
        for p in crack_curve(key_len, &weak, reps.max(4), seed) {
            t.row(&[
                format!("WEP-{}", key_len * 8),
                p.weak_ivs_per_position.to_string(),
                format!("{:.1}M", p.equivalent_frames as f64 / 1e6),
                pct(p.success_rate),
            ]);
        }
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plenty_of_samples_cracks_reliably() {
        let mut rng = SimRng::new(Seed(41));
        let key = random_key(&mut rng, 5);
        assert!(crack_once(&key, 256));
    }

    #[test]
    fn starved_attack_fails() {
        let mut rng = SimRng::new(Seed(42));
        let key = random_key(&mut rng, 5);
        assert!(
            !crack_once(&key, 2),
            "2 weak IVs per byte cannot vote reliably"
        );
    }

    #[test]
    fn curve_is_monotone_ish() {
        let points = crack_curve(5, &[5, 240], 4, Seed(43));
        assert_eq!(points.len(), 2);
        assert!(
            points[0].success_rate <= points[1].success_rate,
            "{points:?}"
        );
        assert!(points[1].success_rate >= 0.75, "{points:?}");
        assert_eq!(points[0].equivalent_frames, 5 * 65_536);
    }

    #[test]
    fn wep104_cracks_with_enough_samples() {
        let mut rng = SimRng::new(Seed(44));
        let key = random_key(&mut rng, 13);
        assert!(crack_once(&key, 256));
    }
}
