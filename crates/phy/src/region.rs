//! Spatial regions: the shard-ownership partition of the event queue.
//!
//! The sharded event queue (DESIGN.md §15) partitions the world into
//! vertical stripes built on the same grid-cell quantisation as
//! [`crate::grid`]: a radio's region is a pure function of its position,
//! so region assignment is deterministic and free of tie-breaking. A
//! transmission *belongs* to the region of its source; its audible disc
//! may spill into neighbouring stripes, in which case it is a *boundary*
//! event — still executed in global `(time, seq)` order like everything
//! else (correctness never depends on the partition), but counted in the
//! `sim.boundary_crossings` metric so shard quality is observable.

use crate::propagation::Pos;

/// Stripe width quantum, matched to the spatial grid's cell edge so a
/// stripe boundary never bisects a grid cell.
const STRIPE_QUANTUM_M: f64 = 64.0;

/// A fixed vertical-stripe partition of the world's x-extent.
#[derive(Clone, Debug)]
pub struct RegionMap {
    regions: usize,
    min_x: f64,
    stripe_m: f64,
}

impl RegionMap {
    /// Partition `[min_x, max_x]` into `regions` stripes of equal width
    /// (rounded up to the grid quantum). One region means "everything
    /// is local" — the serial degenerate case.
    pub fn new(regions: usize, min_x: f64, max_x: f64) -> RegionMap {
        assert!(regions >= 1, "need at least one region");
        let extent = (max_x - min_x).max(STRIPE_QUANTUM_M);
        let raw = extent / regions as f64;
        let stripe_m = (raw / STRIPE_QUANTUM_M).ceil().max(1.0) * STRIPE_QUANTUM_M;
        RegionMap {
            regions,
            min_x,
            stripe_m,
        }
    }

    /// Number of regions in the partition.
    pub fn regions(&self) -> usize {
        self.regions
    }

    /// The region owning `pos`. Positions left of `min_x` clamp into the
    /// first stripe, positions past the last stripe into the final one —
    /// mobility may carry radios outside the initial bounding box.
    pub fn region_of(&self, pos: Pos) -> usize {
        let idx = ((pos.x - self.min_x) / self.stripe_m).floor();
        (idx.max(0.0) as usize).min(self.regions - 1)
    }

    /// The x-interval `[lo, hi)` owned by `region`. The first stripe
    /// extends to `-inf` and the last to `+inf` (mirroring the clamp in
    /// [`Self::region_of`]); interior edges are exact multiples of the
    /// stripe width. Tests use this to *place* radios just inside or
    /// across a boundary rather than probing for one.
    pub fn stripe_span(&self, region: usize) -> (f64, f64) {
        assert!(region < self.regions, "region out of range");
        let lo = if region == 0 {
            f64::NEG_INFINITY
        } else {
            self.min_x + region as f64 * self.stripe_m
        };
        let hi = if region == self.regions - 1 {
            f64::INFINITY
        } else {
            self.min_x + (region + 1) as f64 * self.stripe_m
        };
        (lo, hi)
    }

    /// Does a disc of `range_m` around `center` reach outside the stripe
    /// owning `center`? True means an event sourced there is a boundary
    /// event: its audible set may span regions.
    pub fn disc_crosses_region(&self, center: Pos, range_m: f64) -> bool {
        if self.regions == 1 {
            return false;
        }
        let home = self.region_of(center);
        let lo = self.region_of(Pos::new(center.x - range_m, center.y));
        let hi = self.region_of(Pos::new(center.x + range_m, center.y));
        lo != home || hi != home
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_region_owns_everything() {
        let map = RegionMap::new(1, 0.0, 1000.0);
        assert_eq!(map.region_of(Pos::new(-1e6, 0.0)), 0);
        assert_eq!(map.region_of(Pos::new(1e6, 0.0)), 0);
        assert!(!map.disc_crosses_region(Pos::new(500.0, 0.0), 1e9));
    }

    #[test]
    fn stripes_partition_the_extent() {
        let map = RegionMap::new(4, 0.0, 1024.0);
        // 1024 m / 4 = 256 m stripes (already on the 64 m quantum).
        assert_eq!(map.region_of(Pos::new(0.0, 50.0)), 0);
        assert_eq!(map.region_of(Pos::new(255.0, 0.0)), 0);
        assert_eq!(map.region_of(Pos::new(256.0, 0.0)), 1);
        assert_eq!(map.region_of(Pos::new(1023.0, 0.0)), 3);
        // Out-of-bounds clamps, never panics.
        assert_eq!(map.region_of(Pos::new(-50.0, 0.0)), 0);
        assert_eq!(map.region_of(Pos::new(5000.0, 0.0)), 3);
    }

    #[test]
    fn boundary_disc_detection() {
        let map = RegionMap::new(4, 0.0, 1024.0);
        let mid_stripe = Pos::new(128.0, 0.0);
        assert!(!map.disc_crosses_region(mid_stripe, 100.0));
        assert!(map.disc_crosses_region(mid_stripe, 200.0));
        let near_edge = Pos::new(250.0, 0.0);
        assert!(map.disc_crosses_region(near_edge, 10.0));
    }

    #[test]
    fn stripe_span_agrees_with_region_of() {
        let map = RegionMap::new(4, 0.0, 1024.0);
        for r in 0..4 {
            let (lo, hi) = map.stripe_span(r);
            let probe_lo = if lo.is_finite() { lo } else { -1e6 };
            let probe_hi = if hi.is_finite() { hi } else { 1e6 };
            assert_eq!(map.region_of(Pos::new(probe_lo, 0.0)), r);
            assert_eq!(map.region_of(Pos::new(probe_hi - 1e-6, 0.0)), r);
            if hi.is_finite() {
                assert_eq!(map.region_of(Pos::new(hi, 0.0)), r + 1);
            }
        }
    }

    #[test]
    fn region_is_pure_function_of_position() {
        let map = RegionMap::new(8, -512.0, 512.0);
        for i in -20..20 {
            let p = Pos::new(i as f64 * 37.5, i as f64);
            assert_eq!(map.region_of(p), map.region_of(p));
        }
    }
}
