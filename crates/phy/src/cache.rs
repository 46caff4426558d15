//! Lazily-filled symmetric pairwise path-loss cache for the estimate API.
//!
//! `path_loss_db` runs a `sqrt` + `powi` + `log10` chain. This cache keys
//! its result on the unordered radio pair plus each end's *position
//! epoch* (a per-radio counter bumped by `set_pos`), recomputing only
//! when either end has actually moved. Channel changes do not touch
//! positions and therefore never invalidate an entry.
//!
//! It serves [`crate::Medium::rssi_estimate_dbm`] and with it site-audit
//! range predictions, which ask about the same (AP, sensor) pairs audit
//! after audit. The frame path does not use it: an audible row is
//! rebuilt only after the geometry changed, so its pairs rarely repeat,
//! and at city scale the lookups cost more than the path loss they saved
//! while the entries dominated the medium's memory.
//!
//! Lookups fill the cache from `&self` through a `Mutex` and atomic
//! counters, so `Medium` stays `Sync` and may be read from several
//! threads at once. Every fill is a pure function of its key.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::propagation::{path_loss_db, Pos};

/// One cache endpoint: radio index, current position, position epoch.
pub(crate) type End = (u32, Pos, u64);

#[derive(Debug)]
struct Entry {
    /// Position epochs of the (lower, higher) radio index at fill time.
    epochs: (u64, u64),
    loss_db: f64,
}

/// The pairwise gain matrix, filled on demand.
#[derive(Debug, Default)]
pub(crate) struct PathLossCache {
    entries: Mutex<HashMap<(u32, u32), Entry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PathLossCache {
    /// Path loss between radios `a` and `b`, cached per (pair, position
    /// epochs). Bit-identical to calling [`path_loss_db`] directly:
    /// Euclidean distance is exactly symmetric, so the unordered key
    /// cannot change the value.
    pub fn loss_db(&self, a: End, b: End, ref_loss_db: f64, exponent: f64) -> f64 {
        let (lo, hi) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        let key = (lo.0, hi.0);
        let epochs = (lo.2, hi.2);
        if let Some(e) = self.entries.lock().unwrap().get(&key) {
            if e.epochs == epochs {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return e.loss_db;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let loss_db = path_loss_db(lo.1.distance(hi.1), ref_loss_db, exponent);
        self.entries
            .lock()
            .unwrap()
            .insert(key, Entry { epochs, loss_db });
        loss_db
    }

    /// (cached pairs, lookup hits, lookup misses).
    pub fn stats(&self) -> (usize, u64, u64) {
        (
            self.entries.lock().unwrap().len(),
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_and_is_symmetric() {
        let c = PathLossCache::default();
        let a = (0u32, Pos::new(0.0, 0.0), 0u64);
        let b = (1u32, Pos::new(30.0, 40.0), 0u64);
        let fresh = path_loss_db(50.0, 40.0, 3.0);
        assert_eq!(c.loss_db(a, b, 40.0, 3.0).to_bits(), fresh.to_bits());
        assert_eq!(c.loss_db(b, a, 40.0, 3.0).to_bits(), fresh.to_bits());
        let (len, hits, misses) = c.stats();
        assert_eq!((len, hits, misses), (1, 1, 1), "second lookup must hit");
    }

    #[test]
    fn position_epoch_invalidates() {
        let c = PathLossCache::default();
        let a = (0u32, Pos::new(0.0, 0.0), 0u64);
        let near = c.loss_db(a, (1, Pos::new(10.0, 0.0), 0), 40.0, 3.0);
        // Radio 1 moved: same pair, new epoch → recompute, not the stale
        // cached value.
        let far = c.loss_db(a, (1, Pos::new(100.0, 0.0), 1), 40.0, 3.0);
        assert!(far > near);
        assert_eq!(
            far.to_bits(),
            path_loss_db(100.0, 40.0, 3.0).to_bits(),
            "stale entry must not be served after a move"
        );
    }
}
