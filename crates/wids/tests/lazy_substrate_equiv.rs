//! The bounded substrates allocate on first write, and must behave bit
//! for bit like the eager ones they replaced.
//!
//! [`EagerTable`] and [`EagerWindow`] are the reference: the
//! set-associative table with its whole `groups × ways` slot array and
//! the sliding-window count-min ring with every counter, both zero-filled
//! at construction. Random sequences of `entry` (whose closure mutates the
//! value), `get_touch` and `remove` over 1–8 groups × 1–4 ways, with keys
//! that share hashes and are reused after removal and timestamps that run
//! backwards as well as forwards, must return the same values, count the
//! same evictions and track the same entries after every op. Random
//! `observe` sequences, with gaps longer than the window, must give the
//! same estimate on every call. The unit tests pin the resident
//! accounting: a fresh table holds its directory alone, lookups and
//! removals allocate nothing, and a group's first insert allocates
//! exactly that group.

use proptest::prelude::*;
use rogue_sim::{SimDuration, SimTime};
use rogue_wids::sketch::{mix64, BoundedTable, WindowCounter};

struct EagerSlot<K, V> {
    key: K,
    touched: SimTime,
    value: V,
}

/// The eager set-associative table: one flat slot array, allocated and
/// filled with `None` at construction.
struct EagerTable<K, V> {
    groups: usize,
    ways: usize,
    slots: Vec<Option<EagerSlot<K, V>>>,
    evictions: u64,
}

impl<K: Eq + Copy, V> EagerTable<K, V> {
    fn new(groups: usize, ways: usize) -> EagerTable<K, V> {
        assert!(groups.is_power_of_two(), "groups must be 2^k");
        let mut slots = Vec::new();
        slots.resize_with(groups * ways, || None);
        EagerTable {
            groups,
            ways,
            slots,
            evictions: 0,
        }
    }

    fn group_of(&self, key_hash: u64) -> core::ops::Range<usize> {
        let base = (key_hash & (self.groups as u64 - 1)) as usize * self.ways;
        base..base + self.ways
    }

    fn tracked(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    fn bytes(&self) -> usize {
        self.slots.len() * core::mem::size_of::<Option<EagerSlot<K, V>>>()
    }

    fn entry(&mut self, at: SimTime, key_hash: u64, key: K, default: impl FnOnce() -> V) -> &mut V {
        let group = self.group_of(key_hash);
        let slots = &mut self.slots[group];
        let mut empty: Option<usize> = None;
        let mut victim = 0usize;
        let mut victim_touched = SimTime::FOREVER;
        let mut hit: Option<usize> = None;
        for (w, s) in slots.iter().enumerate() {
            match s {
                Some(slot) if slot.key == key => {
                    hit = Some(w);
                    break;
                }
                Some(slot) => {
                    if slot.touched < victim_touched {
                        victim_touched = slot.touched;
                        victim = w;
                    }
                }
                None => {
                    if empty.is_none() {
                        empty = Some(w);
                    }
                }
            }
        }
        let w = match (hit, empty) {
            (Some(w), _) => {
                let slot = slots[w].as_mut().expect("a hit is an occupied slot");
                slot.touched = at;
                return &mut slot.value;
            }
            (None, Some(w)) => w,
            (None, None) => {
                self.evictions += 1;
                victim
            }
        };
        &mut slots[w]
            .insert(EagerSlot {
                key,
                touched: at,
                value: default(),
            })
            .value
    }

    fn get_touch(&mut self, at: SimTime, key_hash: u64, key: K) -> Option<&mut V> {
        let group = self.group_of(key_hash);
        for s in self.slots[group].iter_mut().flatten() {
            if s.key == key {
                s.touched = at;
                return Some(&mut s.value);
            }
        }
        None
    }

    fn remove(&mut self, key_hash: u64, key: K) -> Option<V> {
        let group = self.group_of(key_hash);
        self.slots[group]
            .iter_mut()
            .find(|s| s.as_ref().is_some_and(|s| s.key == key))?
            .take()
            .map(|s| s.value)
    }
}

/// The eager count-min sketch: every counter allocated and zeroed at
/// construction.
#[derive(Clone)]
struct EagerCountMin {
    width_mask: u64,
    depth: u32,
    counts: Vec<u32>,
}

impl EagerCountMin {
    fn new(width: usize, depth: u32) -> EagerCountMin {
        assert!(width.is_power_of_two(), "sketch width must be 2^k");
        EagerCountMin {
            width_mask: width as u64 - 1,
            depth,
            counts: vec![0; width * depth as usize],
        }
    }

    fn row_col(&self, row: u32, key_hash: u64) -> usize {
        let h2 = (key_hash >> 32) | 1;
        let col = key_hash.wrapping_add(h2.wrapping_mul(row as u64)) & self.width_mask;
        row as usize * (self.width_mask as usize + 1) + col as usize
    }

    fn add(&mut self, key_hash: u64) {
        for row in 0..self.depth {
            let idx = self.row_col(row, key_hash);
            self.counts[idx] = self.counts[idx].saturating_add(1);
        }
    }

    fn estimate(&self, key_hash: u64) -> u32 {
        let mut est = u32::MAX;
        for row in 0..self.depth {
            est = est.min(self.counts[self.row_col(row, key_hash)]);
        }
        est
    }

    fn clear(&mut self) {
        self.counts.fill(0);
    }

    fn bytes(&self) -> usize {
        self.counts.len() * core::mem::size_of::<u32>()
    }
}

/// The eager sliding-window counter over a ring of [`EagerCountMin`]s.
struct EagerWindow {
    bucket_len_ns: u64,
    buckets: Vec<EagerCountMin>,
    epochs: Vec<u64>,
}

impl EagerWindow {
    fn new(window: SimDuration, buckets: usize, width: usize, depth: u32) -> EagerWindow {
        assert!(buckets >= 1);
        let bucket_len_ns = (window.as_nanos() / buckets as u64).max(1);
        EagerWindow {
            bucket_len_ns,
            buckets: vec![EagerCountMin::new(width, depth); buckets + 1],
            epochs: vec![u64::MAX; buckets + 1],
        }
    }

    fn observe(&mut self, at: SimTime, key_hash: u64) -> u32 {
        let epoch = at.as_nanos() / self.bucket_len_ns;
        let n = self.buckets.len();
        let slot = (epoch % n as u64) as usize;
        if self.epochs[slot] != epoch {
            self.buckets[slot].clear();
            self.epochs[slot] = epoch;
        }
        self.buckets[slot].add(key_hash);
        let oldest_live = epoch.saturating_sub(n as u64 - 1);
        let mut total = 0u32;
        for s in 0..n {
            if self.epochs[s] != u64::MAX
                && self.epochs[s] >= oldest_live
                && self.epochs[s] <= epoch
            {
                total = total.saturating_add(self.buckets[s].estimate(key_hash));
            }
        }
        total
    }

    fn bytes(&self) -> usize {
        self.buckets.iter().map(|b| b.bytes()).sum()
    }
}

/// Keys 0..16 over 5 distinct hashes (keys 0, 5, 10 and 15 share one),
/// so at most 8 groups see many keys collide and evict.
fn key_hash(key: u64) -> u64 {
    mix64(key % 5)
}

/// Step the clock by 0–3 µs, backwards one time in four. Equal stamps
/// are common, so victim choice often falls to the way-index tie-break.
fn step_clock(now: u64, x: u64) -> u64 {
    let delta = (x >> 8) % 4 * 1_000;
    if x & 3 == 0 {
        now.saturating_sub(delta)
    } else {
        now + delta
    }
}

proptest! {
    #[test]
    fn lazy_table_matches_eager(
        groups_log in 0usize..4,
        ways in 1usize..5,
        ops in proptest::collection::vec(any::<u64>(), 0..300),
    ) {
        let groups = 1 << groups_log;
        let mut lazy: BoundedTable<u64, u64> = BoundedTable::new(groups, ways);
        let mut eager: EagerTable<u64, u64> = EagerTable::new(groups, ways);
        prop_assert_eq!(lazy.bytes(), eager.bytes());
        prop_assert_eq!(lazy.capacity(), groups * ways);
        let mut now = 0u64;
        for (i, &x) in ops.iter().enumerate() {
            now = step_clock(now, x);
            let at = SimTime(now);
            let key = (x >> 24) % 16;
            let h = key_hash(key);
            let arg = x >> 40;
            let (got, want) = match (x >> 4) % 3 {
                0 => {
                    let bump = |v: &mut u64| {
                        *v = v.wrapping_mul(31).wrapping_add(arg);
                        *v
                    };
                    (
                        Some(bump(lazy.entry(at, h, key, || arg ^ key))),
                        Some(bump(eager.entry(at, h, key, || arg ^ key))),
                    )
                }
                1 => (
                    lazy.get_touch(at, h, key).map(|v| *v),
                    eager.get_touch(at, h, key).map(|v| *v),
                ),
                _ => (lazy.remove(h, key), eager.remove(h, key)),
            };
            prop_assert_eq!(got, want, "op {} value", i);
            prop_assert_eq!(lazy.evictions, eager.evictions, "op {} evictions", i);
            prop_assert_eq!(lazy.tracked(), eager.tracked(), "op {} tracked", i);
        }
        prop_assert_eq!(lazy.bytes(), eager.bytes());
    }

    #[test]
    fn lazy_window_matches_eager(
        buckets in 1usize..9,
        width_log in 0usize..7,
        depth in 1u32..5,
        window_ms in 1u64..2_000,
        ops in proptest::collection::vec(any::<u64>(), 0..300),
    ) {
        let window = SimDuration::from_millis(window_ms);
        let mut lazy = WindowCounter::new(window, buckets, 1 << width_log, depth);
        let mut eager = EagerWindow::new(window, buckets, 1 << width_log, depth);
        prop_assert_eq!(lazy.bytes(), eager.bytes());
        let mut now = 0u64;
        for (i, &x) in ops.iter().enumerate() {
            // Mostly steps inside the window, some far beyond it, a few
            // backwards.
            now = match x % 8 {
                0 => now + window.as_nanos() * (2 + (x >> 8) % 3),
                1 => now.saturating_sub((x >> 8) % window.as_nanos()),
                _ => now + (x >> 8) % (window.as_nanos() / 4 + 1),
            };
            let h = mix64((x >> 32) % 12);
            let at = SimTime(now);
            prop_assert_eq!(lazy.observe(at, h), eager.observe(at, h), "observe {}", i);
            prop_assert!(lazy.resident_bytes() <= lazy.bytes());
        }
        prop_assert_eq!(lazy.bytes(), eager.bytes());
    }
}

/// One directory entry: a (fat) pointer to a group's slots, or `None`.
const DIRECTORY_ENTRY: usize = core::mem::size_of::<Option<Box<[u64]>>>();

#[test]
fn fresh_table_holds_its_directory_alone() {
    let tbl: BoundedTable<u64, [u64; 4]> = BoundedTable::new(64, 4);
    assert_eq!(tbl.resident_bytes(), 64 * DIRECTORY_ENTRY);
    assert_eq!(tbl.tracked(), 0);
}

#[test]
fn lookups_and_removals_allocate_nothing() {
    let mut tbl: BoundedTable<u64, u64> = BoundedTable::new(8, 4);
    let fresh = tbl.resident_bytes();
    for key in 0..64 {
        let h = mix64(key);
        assert!(tbl.get_touch(SimTime(key), h, key).is_none());
        assert!(tbl.remove(h, key).is_none());
    }
    assert_eq!(tbl.resident_bytes(), fresh, "untouched groups stay empty");
}

#[test]
fn first_entry_into_a_group_allocates_exactly_that_group() {
    let groups = 8;
    let mut tbl: BoundedTable<u64, u64> = BoundedTable::new(groups, 4);
    let group = tbl.bytes() / groups;
    let fresh = tbl.resident_bytes();
    *tbl.entry(SimTime(1), 3, 100, || 0) = 1;
    assert_eq!(tbl.resident_bytes(), fresh + group);
    // A second key in the same group, a lookup and a removal there, and a
    // lookup in a still-untouched group allocate nothing more.
    *tbl.entry(SimTime(2), 3 + groups as u64, 200, || 0) = 2;
    assert_eq!(tbl.get_touch(SimTime(3), 3, 100).copied(), Some(1));
    assert_eq!(tbl.remove(3, 100), Some(1));
    assert!(tbl.get_touch(SimTime(4), 5, 300).is_none());
    assert_eq!(tbl.resident_bytes(), fresh + group);
    // A removal frees the slot, not the group.
    assert_eq!(tbl.remove(3 + groups as u64, 200), Some(2));
    assert_eq!(tbl.tracked(), 0);
    assert_eq!(tbl.resident_bytes(), fresh + group);
    *tbl.entry(SimTime(5), 4, 400, || 0) = 4;
    assert_eq!(tbl.resident_bytes(), fresh + 2 * group);
}

#[test]
fn a_saturated_table_holds_its_bound_plus_the_directory() {
    let mut tbl: BoundedTable<u64, u64> = BoundedTable::new(16, 2);
    for key in 0..10_000 {
        *tbl.entry(SimTime(key), mix64(key), key, || 0) += 1;
    }
    assert_eq!(tbl.tracked(), tbl.capacity());
    assert_eq!(tbl.resident_bytes(), tbl.bytes() + 16 * DIRECTORY_ENTRY);
}

#[test]
fn fresh_window_holds_no_counters() {
    let w = WindowCounter::new(SimDuration::from_secs(10), 10, 512, 4);
    assert_eq!(w.resident_bytes(), 0);
    assert_eq!(w.bytes(), 11 * 512 * 4 * 4);
}
