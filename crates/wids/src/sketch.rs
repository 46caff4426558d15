//! Bounded-memory state substrates for per-source detector bookkeeping.
//!
//! Every per-transmitter map in the original detector suite
//! (`HashMap<MacAddr, TaState>` and friends) grows with the number of
//! *distinct sources observed* — which an attacker controls outright by
//! randomizing MAC addresses. The structures here fix a cap on that at
//! configuration time, and allocate the storage under the cap on first
//! write: a table or sketch that the traffic has barely touched holds
//! little more than its group directory.
//!
//! * [`WindowCounter`] — sliding-window event counts per key, kept as a
//!   ring of count-min-sketch buckets. Memory is at most O(buckets ×
//!   width × depth) no matter how many distinct keys appear, and a
//!   bucket holds no counters until its first event; estimates can only
//!   over-count (sketch collisions, plus up to one bucket of
//!   quantization slack at the trailing window edge), never under-count.
//! * [`BoundedTable`] — a set-associative table (`groups × ways`
//!   entries) with deterministic least-recently-touched eviction inside
//!   a group. Per-key state (sequence counters, last-RSSI) lives here;
//!   under a cardinality attack old entries are recycled instead of the
//!   table growing. A group's `ways` slots are allocated when the first
//!   key lands in it.
//!
//! Both are deterministic functions of the (simulated-time-stamped)
//! event stream: eviction reads simulated time, never wall time or
//! allocation order, so a replayed stream recycles the same slots.
//! Each reports two sizes: `bytes()`, the bound (what the structure
//! holds once every group and counter is written), and
//! `resident_bytes()`, what it holds now.

use rogue_sim::{SimDuration, SimTime};

/// SplitMix64-style finalizer: the one hash every keyed structure here
/// shares, so a key's group assignment and sketch rows agree everywhere.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash a MAC address (6 bytes packed little-endian) into the shared
/// key-hash domain.
#[inline]
pub fn hash_mac(mac: &[u8; 6]) -> u64 {
    let mut x = 0u64;
    for (i, b) in mac.iter().enumerate() {
        x |= (*b as u64) << (8 * i);
    }
    mix64(x)
}

/// A count-min sketch: `depth` rows of `width` counters; an increment
/// bumps one counter per row, an estimate takes the row minimum. The
/// counters are allocated by the first increment; until then every
/// estimate is 0, as over a zero-filled sketch.
#[derive(Clone)]
struct CountMin {
    width_mask: u64,
    depth: u32,
    /// Empty until the first [`CountMin::add`], then `width × depth`.
    counts: Vec<u32>,
}

impl CountMin {
    fn new(width: usize, depth: u32) -> CountMin {
        assert!(width.is_power_of_two(), "sketch width must be 2^k");
        assert!(depth >= 1, "sketch depth must be at least 1");
        CountMin {
            width_mask: width as u64 - 1,
            depth,
            counts: Vec::new(),
        }
    }

    /// Counters a fully allocated sketch holds.
    fn len(&self) -> usize {
        (self.width_mask as usize + 1) * self.depth as usize
    }

    #[inline]
    fn row_col(&self, row: u32, key_hash: u64) -> usize {
        // Double hashing: row i probes h1 + i*h2 (both derived from the
        // one mixed key hash).
        let h2 = (key_hash >> 32) | 1;
        let col = key_hash.wrapping_add(h2.wrapping_mul(row as u64)) & self.width_mask;
        row as usize * (self.width_mask as usize + 1) + col as usize
    }

    #[inline]
    fn add(&mut self, key_hash: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; self.len()];
        }
        for row in 0..self.depth {
            let idx = self.row_col(row, key_hash);
            self.counts[idx] = self.counts[idx].saturating_add(1);
        }
    }

    #[inline]
    fn estimate(&self, key_hash: u64) -> u32 {
        if self.counts.is_empty() {
            return 0;
        }
        let mut est = u32::MAX;
        for row in 0..self.depth {
            est = est.min(self.counts[self.row_col(row, key_hash)]);
        }
        est
    }

    /// Zero the counters in place (a no-op before the first add).
    fn clear(&mut self) {
        self.counts.fill(0);
    }

    fn bytes(&self) -> usize {
        self.len() * core::mem::size_of::<u32>()
    }

    fn resident_bytes(&self) -> usize {
        self.counts.len() * core::mem::size_of::<u32>()
    }
}

/// Sliding-window per-key event counter over a ring of count-min
/// buckets. [`WindowCounter::observe`] records one event and returns the
/// estimated count for that key over (at least) the trailing window —
/// exact while the sketch is collision-free, quantized to bucket
/// boundaries at the trailing edge.
pub struct WindowCounter {
    bucket_len_ns: u64,
    buckets: Vec<CountMin>,
    /// Which absolute bucket epoch each ring slot currently holds
    /// (`u64::MAX` = never written).
    epochs: Vec<u64>,
}

impl WindowCounter {
    /// Counter covering at least `window`, split into `buckets` ring
    /// slots plus one extra that absorbs the partial leading bucket, so
    /// the covered span never falls below `window`.
    pub fn new(window: SimDuration, buckets: usize, width: usize, depth: u32) -> WindowCounter {
        assert!(buckets >= 1);
        let bucket_len_ns = (window.as_nanos() / buckets as u64).max(1);
        WindowCounter {
            bucket_len_ns,
            buckets: vec![CountMin::new(width, depth); buckets + 1],
            epochs: vec![u64::MAX; buckets + 1],
        }
    }

    /// Record one event for `key_hash` at `at`; returns the estimated
    /// event count for that key over the trailing window (including this
    /// event).
    pub fn observe(&mut self, at: SimTime, key_hash: u64) -> u32 {
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

    /// Bound on the sketch ring's counter memory, in bytes: every
    /// bucket allocated.
    pub fn bytes(&self) -> usize {
        self.buckets.iter().map(|b| b.bytes()).sum()
    }

    /// Counter memory allocated so far, in bytes: the buckets that have
    /// taken an event. At most [`WindowCounter::bytes`].
    pub fn resident_bytes(&self) -> usize {
        self.buckets.iter().map(|b| b.resident_bytes()).sum()
    }
}

/// One occupied slot of a [`BoundedTable`].
struct Slot<K, V> {
    key: K,
    /// Simulated time of the last touch (lookup or insert) — the
    /// eviction clock. Deterministic because it is sim time, not wall
    /// time.
    touched: SimTime,
    value: V,
}

/// One group's `ways` slots.
type Group<K, V> = Box<[Option<Slot<K, V>>]>;

/// Set-associative bounded map: `groups × ways` slots, deterministic
/// least-recently-touched eviction within a group (ties broken by way
/// index). A group's slots are allocated by the first
/// [`BoundedTable::entry`] that lands in it; lookups and removals never
/// allocate.
pub struct BoundedTable<K, V> {
    ways: usize,
    /// One entry per group (a power of two of them); `None` until the
    /// group's first insert.
    groups: Vec<Option<Group<K, V>>>,
    /// Entries recycled under pressure (cardinality-attack telemetry).
    pub evictions: u64,
}

impl<K: Eq + Copy, V> BoundedTable<K, V> {
    /// Table with `groups` (a power of two) times `ways` slots.
    pub fn new(groups: usize, ways: usize) -> BoundedTable<K, V> {
        assert!(groups.is_power_of_two(), "groups must be 2^k");
        BoundedTable {
            ways,
            groups: (0..groups).map(|_| None).collect(),
            evictions: 0,
        }
    }

    /// Total slot capacity.
    pub fn capacity(&self) -> usize {
        self.groups.len() * self.ways
    }

    /// The group a key hash belongs to.
    #[inline]
    fn group_of(&self, key_hash: u64) -> usize {
        (key_hash & (self.groups.len() as u64 - 1)) as usize
    }

    /// Occupied slots (bounded by [`BoundedTable::capacity`] forever).
    pub fn tracked(&self) -> usize {
        self.groups
            .iter()
            .flatten()
            .map(|g| g.iter().filter(|s| s.is_some()).count())
            .sum()
    }

    /// Bound on the slot memory, in bytes: every group allocated.
    pub fn bytes(&self) -> usize {
        self.capacity() * core::mem::size_of::<Option<Slot<K, V>>>()
    }

    /// Memory allocated so far, in bytes: the group directory plus the
    /// groups that have taken an insert. Exceeds [`BoundedTable::bytes`]
    /// by the directory once every group is written.
    pub fn resident_bytes(&self) -> usize {
        let allocated = self.groups.iter().flatten().count();
        self.groups.len() * core::mem::size_of::<Option<Group<K, V>>>()
            + allocated * self.ways * core::mem::size_of::<Option<Slot<K, V>>>()
    }

    /// Lookup-or-insert; `key_hash` must come from [`mix64`]/[`hash_mac`]
    /// over `key`. A miss takes the group's first empty slot, or else
    /// evicts its least recently touched entry.
    pub fn entry(
        &mut self,
        at: SimTime,
        key_hash: u64,
        key: K,
        default: impl FnOnce() -> V,
    ) -> &mut V {
        let g = self.group_of(key_hash);
        let ways = self.ways;
        let slots = self.groups[g].get_or_insert_with(|| (0..ways).map(|_| None).collect());
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
            .insert(Slot {
                key,
                touched: at,
                value: default(),
            })
            .value
    }

    /// Lookup without insert; refreshes the entry's eviction clock on a
    /// hit (a consulted binding is a binding worth keeping).
    pub fn get_touch(&mut self, at: SimTime, key_hash: u64, key: K) -> Option<&mut V> {
        let g = self.group_of(key_hash);
        for s in self.groups[g].as_deref_mut()?.iter_mut().flatten() {
            if s.key == key {
                s.touched = at;
                return Some(&mut s.value);
            }
        }
        None
    }

    /// Take `key`'s entry out of the table, freeing its slot.
    pub fn remove(&mut self, key_hash: u64, key: K) -> Option<V> {
        let g = self.group_of(key_hash);
        self.groups[g]
            .as_deref_mut()?
            .iter_mut()
            .find(|s| s.as_ref().is_some_and(|s| s.key == key))?
            .take()
            .map(|s| s.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn window_counter_counts_within_window() {
        let mut w = WindowCounter::new(SimDuration::from_secs(2), 8, 256, 4);
        let k = mix64(42);
        for i in 0..4u64 {
            let est = w.observe(t(i * 100), k);
            assert_eq!(est, i as u32 + 1);
        }
        // 10 seconds later the old events have aged out entirely.
        assert_eq!(w.observe(t(12_000), k), 1);
    }

    #[test]
    fn window_counter_never_undercounts() {
        let mut w = WindowCounter::new(SimDuration::from_secs(2), 8, 64, 4);
        let keys: Vec<u64> = (0..200).map(mix64).collect();
        for (i, k) in keys.iter().enumerate() {
            w.observe(t(i as u64), *k);
        }
        for k in &keys {
            // The probe's own observation contributes 1; the original
            // sighting is still inside the window.
            let est = w.observe(t(250), *k);
            assert!(est >= 2, "undercount for key {k:#x}: {est}");
        }
    }

    #[test]
    fn window_counter_memory_is_fixed() {
        let mut w = WindowCounter::new(SimDuration::from_secs(2), 8, 256, 4);
        let before = w.bytes();
        for i in 0..100_000u64 {
            w.observe(t(i / 10), mix64(i));
        }
        assert_eq!(w.bytes(), before, "sketch must not grow with keys");
        assert_eq!(w.resident_bytes(), before, "every bucket was written");
    }

    #[test]
    fn window_counter_allocates_a_bucket_per_written_epoch() {
        let mut w = WindowCounter::new(SimDuration::from_secs(2), 8, 256, 4);
        let bucket = w.bytes() / 9;
        assert_eq!(w.resident_bytes(), 0);
        w.observe(t(0), mix64(1));
        w.observe(t(100), mix64(2));
        assert_eq!(w.resident_bytes(), bucket, "one epoch, one bucket");
        w.observe(t(300), mix64(1));
        assert_eq!(w.resident_bytes(), 2 * bucket);
    }

    #[test]
    fn count_min_without_counters_estimates_zero() {
        let mut cm = CountMin::new(64, 4);
        assert_eq!(cm.resident_bytes(), 0);
        assert_eq!(cm.estimate(mix64(7)), 0, "as over a zero-filled sketch");
        cm.clear();
        assert_eq!(cm.resident_bytes(), 0, "clearing allocates nothing");
        cm.add(mix64(7));
        assert_eq!(cm.resident_bytes(), cm.bytes());
        assert_eq!(cm.estimate(mix64(7)), 1);
        cm.clear();
        assert_eq!(cm.resident_bytes(), cm.bytes(), "cleared in place");
        assert_eq!(cm.estimate(mix64(7)), 0);
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn count_min_needs_a_row() {
        CountMin::new(64, 0);
    }

    #[test]
    fn bounded_table_hits_and_evicts_lru() {
        // One group, two ways: inserting a third key evicts the LRU.
        let mut tbl: BoundedTable<u64, u32> = BoundedTable::new(1, 2);
        *tbl.entry(t(10), 0, 100, || 0) = 1;
        *tbl.entry(t(20), 0, 200, || 0) = 2;
        assert_eq!(tbl.tracked(), 2);
        // Touch 100 so 200 becomes the LRU victim.
        assert_eq!(*tbl.entry(t(30), 0, 100, || 9), 1);
        *tbl.entry(t(40), 0, 300, || 0) = 3;
        assert_eq!(tbl.evictions, 1);
        assert_eq!(*tbl.entry(t(50), 0, 100, || 9), 1, "100 survived");
        assert_eq!(*tbl.entry(t(60), 0, 200, || 9), 9, "200 was evicted");
    }

    #[test]
    fn bounded_table_capacity_is_hard() {
        let mut tbl: BoundedTable<u64, u64> = BoundedTable::new(64, 4);
        for i in 0..100_000u64 {
            let h = mix64(i);
            let _ = tbl.entry(t(i), h, i, || i);
        }
        assert_eq!(tbl.tracked(), tbl.capacity(), "full but never beyond");
        assert!(tbl.evictions > 0);
    }

    #[test]
    fn removed_entry_frees_its_slot() {
        let mut tbl: BoundedTable<u64, u32> = BoundedTable::new(1, 2);
        *tbl.entry(t(10), 0, 100, || 0) = 1;
        *tbl.entry(t(20), 0, 200, || 0) = 2;
        assert_eq!(tbl.remove(0, 100), Some(1));
        assert_eq!(tbl.remove(0, 100), None);
        assert_eq!(tbl.tracked(), 1);
        // The freed slot takes the next key without evicting 200.
        *tbl.entry(t(30), 0, 300, || 0) = 3;
        assert_eq!(tbl.evictions, 0);
        assert_eq!(*tbl.entry(t(40), 0, 200, || 9), 2);
    }
}
