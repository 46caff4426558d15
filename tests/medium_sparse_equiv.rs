//! The sparse/culled medium fast path must be *bit-identical* to the
//! dense reference.
//!
//! With `shadowing_sigma_db == 0.0` the medium stores per-transmission
//! power sparsely (audible radios only), culls receivers through the
//! spatial grid, and scans interference through the per-channel overlap
//! index. [`Medium::force_dense`] routes `begin_tx` through the
//! historical dense O(registry) fill instead. This suite drives random
//! topologies, channel plans, bitrates, mobility, radios registered
//! mid-run and overlapping schedules through both modes and requires
//! exactly the same deliveries (receiver, payload length, bit-exact
//! RSSI, channel, rate — in the same order), the same `frames_sent` /
//! `halfduplex_misses` / `sinr_drops` counters, and the same
//! carrier-sense answers. A third mode flips `force_dense` mid-run, so
//! dense and sparse transmissions interfere within one completion, and
//! must match too. After every op the retained-transmission count must
//! equal what the prune rule keeps — a completed tx is dropped once it
//! ends at or before the earliest in-flight start, checked by walking
//! every retained tx at each `begin_tx` — so the medium frees exactly
//! the transmissions that rule frees.

use proptest::prelude::*;
use rogue_phy::{Bitrate, Medium, MediumParams, Pos};
use rogue_sim::{Seed, SimTime};

/// One delivery, reduced to comparable scalars (RSSI as raw bits: the
/// fast path must not differ even in the last ulp).
type DeliverySig = (u32, usize, u64, u8, u64);

/// Everything observable from one scripted run.
#[derive(PartialEq, Eq, Debug)]
struct RunSig {
    deliveries: Vec<DeliverySig>,
    frames_sent: u64,
    halfduplex_misses: u64,
    sinr_drops: u64,
    busy_probes: Vec<bool>,
    /// `tx_backlog()` after every op.
    backlog: Vec<usize>,
}

/// How a run lays out its power maps.
#[derive(Clone, Copy, PartialEq)]
enum Layout {
    /// Sparse rows throughout.
    Sparse,
    /// `force_dense` throughout: the reference.
    Dense,
    /// Sparse at first, `force_dense` flipped by the toggle ops.
    Toggled,
}

/// The prune rule, walked over every retained tx: at each `begin_tx`,
/// drop each completed tx ending at or before the earliest in-flight
/// start. Indexed by begin order: `(start, end, completed)` while
/// retained.
#[derive(Default)]
struct SlabWalk(Vec<Option<(SimTime, SimTime, bool)>>);

impl SlabWalk {
    fn begin(&mut self, now: SimTime, end: SimTime) {
        self.0.push(Some((now, end, false)));
        let horizon = self
            .0
            .iter()
            .flatten()
            .filter(|t| !t.2)
            .map(|t| t.0)
            .min()
            .unwrap_or(now);
        for slot in &mut self.0 {
            if slot.is_some_and(|(_, end, done)| done && end <= horizon) {
                *slot = None;
            }
        }
    }

    fn complete(&mut self, order: u64) {
        self.0[order as usize].as_mut().unwrap().2 = true;
    }

    fn retained(&self) -> usize {
        self.0.iter().flatten().count()
    }
}

fn radio_from_word(w: u64) -> (Pos, u8, f64) {
    // Positions span ~820 m — several audible horizons, so every run
    // mixes in-range, marginal, and culled pairs.
    let x = (w & 0x3FFF) as f64 * 0.05;
    let y = ((w >> 14) & 0x3FFF) as f64 * 0.05;
    let channel = 1 + ((w >> 32) % 14) as u8;
    let tx_power = 10.0 + ((w >> 40) % 12) as f64;
    (Pos::new(x, y), channel, tx_power)
}

/// Interpret the op words against a fresh medium. Every layout sees
/// exactly the same call sequence, but for the toggles.
fn run(radios: &[u64], ops: &[u64], layout: Layout) -> RunSig {
    let mut m = Medium::new(MediumParams::default(), Seed(99));
    let mut dense = layout == Layout::Dense;
    m.force_dense(dense);
    let mut ids: Vec<_> = radios
        .iter()
        .map(|&w| {
            let (pos, channel, power) = radio_from_word(w);
            m.add_radio(pos, channel, power)
        })
        .collect();

    let rates = [Bitrate::B1, Bitrate::B2, Bitrate::B5_5, Bitrate::B11];
    let mut t = SimTime::ZERO;
    // In-flight txs as (end, insertion order, handle); completed at
    // exactly their end time, earliest (end, order) first.
    let mut pending: Vec<(SimTime, u64, rogue_phy::TxHandle)> = Vec::new();
    let mut next_order = 0u64;
    let mut walk = SlabWalk::default();
    let mut sig = RunSig {
        deliveries: Vec::new(),
        frames_sent: 0,
        halfduplex_misses: 0,
        sinr_drops: 0,
        busy_probes: Vec::new(),
        backlog: Vec::new(),
    };

    // Returns the completion's instant.
    let complete_next = |m: &mut Medium,
                         pending: &mut Vec<(SimTime, u64, rogue_phy::TxHandle)>,
                         walk: &mut SlabWalk,
                         sig: &mut RunSig| {
        let Some(best) = pending
            .iter()
            .enumerate()
            .min_by_key(|(_, &(end, order, _))| (end, order))
            .map(|(i, _)| i)
        else {
            return SimTime::ZERO;
        };
        let (end, order, h) = pending.remove(best);
        walk.complete(order);
        for d in m.complete_tx(end, h) {
            sig.deliveries.push((
                d.to.0,
                d.bytes.len(),
                d.rssi_dbm.to_bits(),
                d.channel,
                d.bitrate.bits_per_sec(),
            ));
        }
        end
    };

    for &w in ops {
        match w % 6 {
            // Transmit: random source, rate, length; time advances by
            // 0–400 µs so frames overlap often (airtime ≥ 192 µs).
            0 | 1 => {
                let src = ids[(w >> 8) as usize % ids.len()];
                let rate = rates[(w >> 16) as usize % 4];
                let len = 10 + ((w >> 24) % 500) as usize;
                let payload = bytes::Bytes::from(vec![0x5Au8; len]);
                let (h, end) = m.begin_tx(t, src, payload, rate);
                walk.begin(t, end);
                pending.push((end, next_order, h));
                next_order += 1;
                t = SimTime(t.as_nanos() + (w >> 48) % 400_000);
            }
            // Complete the earliest-ending in-flight frame; the clock
            // moves to it, so a frame may begin the instant another ends.
            2 => t = t.max(complete_next(&mut m, &mut pending, &mut walk, &mut sig)),
            // Mobility plus a carrier-sense probe.
            3 => {
                let mover = ids[(w >> 8) as usize % ids.len()];
                let (pos, _, _) = radio_from_word(w >> 16);
                m.set_pos(mover, pos);
                let probe = ids[(w >> 32) as usize % ids.len()];
                sig.busy_probes.push(m.channel_busy(t, probe));
            }
            // A radio registered mid-run: invisible to every tx already
            // in flight, a candidate of later ones.
            4 => {
                let (pos, channel, power) = radio_from_word(w >> 8);
                ids.push(m.add_radio(pos, channel, power));
            }
            // Flip the layout of later transmissions.
            _ => {
                if layout == Layout::Toggled {
                    dense = !dense;
                    m.force_dense(dense);
                }
            }
        }
        sig.backlog.push(m.tx_backlog());
        assert_eq!(
            m.tx_backlog(),
            walk.retained(),
            "prune freed a different set"
        );
    }
    while !pending.is_empty() {
        complete_next(&mut m, &mut pending, &mut walk, &mut sig);
    }

    sig.frames_sent = m.frames_sent;
    sig.halfduplex_misses = m.halfduplex_misses;
    sig.sinr_drops = m.sinr_drops;
    sig
}

proptest! {
    #[test]
    fn sparse_path_is_bit_identical_to_dense(
        radios in proptest::collection::vec(any::<u64>(), 2..24),
        ops in proptest::collection::vec(any::<u64>(), 0..80),
    ) {
        let dense = run(&radios, &ops, Layout::Dense);
        prop_assert_eq!(&run(&radios, &ops, Layout::Sparse), &dense);
        prop_assert_eq!(&run(&radios, &ops, Layout::Toggled), &dense);
    }
}

/// A directed worst case on top of the random sweep: a dense cluster
/// (every pair audible, constant collisions) with mid-flight mobility —
/// the regime where a culling bug would show up as counter drift.
#[test]
fn contended_cluster_with_mobility_matches_dense() {
    let radios: Vec<u64> = (0..12)
        .map(|i| (i * 97 % 256) << 6 | (i * 53 % 256) << 20 | (i % 3) << 32)
        .collect();
    let ops: Vec<u64> = (0..200u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
        .collect();
    let dense = run(&radios, &ops, Layout::Dense);
    assert_eq!(run(&radios, &ops, Layout::Sparse), dense);
    assert_eq!(run(&radios, &ops, Layout::Toggled), dense);
}
