//! The pending-event set.
//!
//! A deterministic priority queue: events are ordered by
//! `(fire_time, sequence_number)`, where the sequence number is assigned at
//! scheduling time. Two events scheduled for the same instant therefore fire
//! in the order they were scheduled — a property the reproduction's
//! association-race experiment (E1) depends on, because a victim that hears
//! a rogue beacon and a legitimate beacon "simultaneously" must resolve the
//! tie the same way on every run.
//!
//! ## Structure (PR 9)
//!
//! The queue used to be a `BinaryHeap` plus two SipHash `HashSet`s for
//! cancellation — three hash/heap operations per event on the hottest path
//! in the simulator. It is now a **hierarchical timer wheel over a slab**:
//!
//! * Every scheduled event owns a **slab slot** holding `(seq, at, event)`.
//!   Cancellation looks the slot up by index, takes the payload, and frees
//!   the slot — O(1), no hashing. A reused slot gets a new (strictly larger)
//!   seq, so a stale wheel reference `(slot, old_seq)` can never alias a
//!   newer event: the seq comparison at pop time rejects it.
//! * Fire order comes from a 6-level × 64-slot wheel of `Node { at, seq,
//!   slot }` references at 1024 ns tick granularity, with a `u64` occupancy
//!   bitmap per level and an overflow list for deltas beyond the wheel
//!   horizon (~19.5 h). A cursor walks occupied ticks via bitmap scans;
//!   each visited tick's nodes are drained into a `current` run sorted by
//!   `(at, seq)` and consumed front-to-back.
//!
//! **Pop-order identity argument** (see DESIGN.md §16 for the long form):
//! ticks partition time, and the wheel invariants guarantee (a) every node
//! outside `current` has tick strictly greater than the cursor, (b) within
//! a level, occupied slots all lie strictly ahead of the cursor's position,
//! so bitmap `trailing_zeros` visits ticks in increasing order, and (c) a
//! cascade or overflow pull only moves nodes downward relative to a cursor
//! that never decreases. Hence ticks are drained in increasing order, and
//! inside one drain the explicit `(at, seq)` sort gives exactly the
//! `BinaryHeap` order. Same-tick inserts that arrive while the tick is
//! being consumed (tick ≤ cursor, legal because `at ≥ now`) binary-search
//! into the unconsumed suffix of `current`, preserving the sort. The
//! differential proptest in `tests/queue_props.rs` pins this against a
//! reference `BinaryHeap` implementation for arbitrary interleavings.

use crate::time::SimTime;

/// log2(nanoseconds per wheel tick): 1024 ns.
const LOG_G: u32 = 10;
/// log2(slots per wheel level).
const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS;
/// Levels in the hierarchy. 6 × 6 bits = 2^36 ticks ≈ 19.5 h of horizon;
/// anything further out waits in `overflow`.
const LEVELS: usize = 6;
/// Don't bother compacting tombstones below this resident count.
const COMPACT_FLOOR: usize = 64;

/// Opaque handle returned by [`EventQueue::schedule`], usable to cancel.
///
/// Identity (equality/hashing) is the sequence number alone — the slot is a
/// private O(1) lookup hint. Seqs come only from the queue's own counter,
/// so no two scheduled events share one.
#[derive(Clone, Copy, Debug)]
pub struct EventId {
    slot: u32,
    seq: u64,
}

impl PartialEq for EventId {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for EventId {}
impl std::hash::Hash for EventId {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.seq.hash(state);
    }
}

/// A wheel reference to a slab entry. 20 bytes; copied freely.
#[derive(Clone, Copy)]
struct Node {
    at: SimTime,
    seq: u64,
    slot: u32,
}

/// Slab entry. `event == None` marks a free (or cancelled-and-reclaimed)
/// slot; `seq` stays behind so stale wheel nodes are recognised.
struct Slot<E> {
    seq: u64,
    at: SimTime,
    event: Option<E>,
}

/// Deterministic future-event list.
///
/// ```
/// use rogue_sim::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(2), "later");
/// q.schedule(SimTime::from_millis(1), "sooner");
/// assert_eq!(q.pop().unwrap().1, "sooner");
/// assert_eq!(q.now(), SimTime::from_millis(1));
/// ```
pub struct EventQueue<E> {
    slab: Vec<Slot<E>>,
    free: Vec<u32>,
    /// Exact number of pending (non-cancelled) events.
    live: usize,
    /// Cancelled nodes still resident in the wheel structures.
    stale: usize,
    /// Sorted `(at, seq)` run of nodes with tick ≤ `cursor`; consumed from
    /// `head` forward. Reused across ticks.
    current: Vec<Node>,
    head: usize,
    /// `LEVELS × SLOTS` buckets, flattened.
    levels: Vec<Vec<Node>>,
    /// Per-level occupancy bitmap (bit s ↔ slot s non-empty).
    occ: [u64; LEVELS],
    /// Nodes beyond the wheel horizon. Always in a strictly later aligned
    /// 2^36-tick window than `cursor`, hence later than every wheel node.
    overflow: Vec<Node>,
    overflow_min_tick: u64,
    /// Current wheel tick: every node outside `current` has tick > cursor.
    cursor: u64,
    next_seq: u64,
    now: SimTime,
    dispatched: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn tick_of(at: SimTime) -> u64 {
    at.0 >> LOG_G
}

impl<E> EventQueue<E> {
    /// An empty queue positioned at time zero.
    pub fn new() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: Vec::new(),
            live: 0,
            stale: 0,
            current: Vec::new(),
            head: 0,
            levels: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occ: [0; LEVELS],
            overflow: Vec::new(),
            overflow_min_tick: u64::MAX,
            cursor: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            dispatched: 0,
        }
    }

    /// Current simulation time: the fire time of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events dispatched so far (monotone run statistic).
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Diagnostic: nodes resident in the wheel structures — pending events
    /// plus cancelled tombstones not yet reclaimed. Tombstone compaction
    /// keeps this ≤ `2·len() + O(1)`; the cancel-storm proptest pins that.
    pub fn resident(&self) -> usize {
        (self.current.len() - self.head)
            + self.levels.iter().map(Vec::len).sum::<usize>()
            + self.overflow.len()
    }

    #[inline]
    fn alloc_slot(&mut self, at: SimTime, seq: u64, event: E) -> u32 {
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slab[slot as usize];
            s.seq = seq;
            s.at = at;
            s.event = Some(event);
            slot
        } else {
            let slot = self.slab.len() as u32;
            self.slab.push(Slot {
                seq,
                at,
                event: Some(event),
            });
            slot
        }
    }

    /// Place a node whose tick is strictly beyond `cursor` into the wheel
    /// (or overflow). Level = position of the highest differing bit group
    /// between the node's tick and the cursor.
    #[inline]
    fn wheel_insert(&mut self, n: Node) {
        let t = tick_of(n.at);
        let x = t ^ self.cursor;
        debug_assert!(t >= self.cursor);
        let level = if x == 0 {
            0
        } else {
            ((63 - x.leading_zeros()) / SLOT_BITS) as usize
        };
        if level >= LEVELS {
            self.overflow_min_tick = self.overflow_min_tick.min(t);
            self.overflow.push(n);
            return;
        }
        let slot = ((t >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.levels[level * SLOTS + slot].push(n);
        self.occ[level] |= 1 << slot;
    }

    /// Insert a freshly scheduled node: same-or-past tick (legal while the
    /// cursor's tick is being consumed, since `at ≥ now`) merges into the
    /// unconsumed suffix of `current`; future ticks go to the wheel.
    fn insert_node(&mut self, n: Node) {
        if tick_of(n.at) <= self.cursor {
            let key = (n.at, n.seq);
            let tail = &self.current[self.head..];
            let pos = self.head + tail.partition_point(|m| (m.at, m.seq) < key);
            self.current.insert(pos, n);
        } else {
            self.wheel_insert(n);
        }
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in the caller and panics:
    /// silently clamping would hide causality bugs in protocol code.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "attempted to schedule event in the past ({at:?} < {:?})",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.alloc_slot(at, seq, event);
        self.live += 1;
        self.insert_node(Node { at, seq, slot });
        EventId { slot, seq }
    }

    /// Cancel a previously scheduled event. Returns true if it was still
    /// pending. The slab entry is reclaimed immediately — O(1), no hash —
    /// while the wheel node becomes a tombstone, skipped at pop time and
    /// swept out when tombstones outnumber live events.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(s) = self.slab.get_mut(id.slot as usize) else {
            return false;
        };
        if s.seq != id.seq || s.event.is_none() {
            return false;
        }
        s.event = None;
        self.free.push(id.slot);
        self.live -= 1;
        self.stale += 1;
        self.maybe_compact();
        true
    }

    /// True when the wheel node still refers to a pending slab entry.
    #[inline]
    fn node_live(slab: &[Slot<E>], n: &Node) -> bool {
        let s = &slab[n.slot as usize];
        s.seq == n.seq && s.event.is_some()
    }

    /// Advance `head` past tombstones; if `current` runs dry, pull the
    /// next occupied tick out of the wheel. Returns false when the whole
    /// queue is empty. Afterwards `current[head]` is the live minimum.
    fn ensure_head(&mut self) -> bool {
        loop {
            while self.head < self.current.len() {
                if Self::node_live(&self.slab, &self.current[self.head]) {
                    return true;
                }
                self.head += 1;
                self.stale -= 1;
            }
            if !self.next_tick() {
                return false;
            }
        }
    }

    /// Move the cursor to the next occupied tick and drain that tick's
    /// nodes into `current`, sorted by `(at, seq)`. Cascades upper-level
    /// slots downward as the cursor enters them; jumps to the overflow
    /// window only once the wheel is empty (overflow nodes live in a
    /// strictly later aligned window, hence after every wheel node).
    fn next_tick(&mut self) -> bool {
        self.current.clear();
        self.head = 0;
        loop {
            if self.occ[0] != 0 {
                let s = self.occ[0].trailing_zeros() as u64;
                self.cursor = (self.cursor >> SLOT_BITS << SLOT_BITS) + s;
                self.occ[0] &= !(1u64 << s);
                let bucket = &mut self.levels[s as usize];
                self.current.append(bucket);
                self.current.sort_unstable_by_key(|n| (n.at, n.seq));
                return true;
            }
            let Some(level) = (1..LEVELS).find(|&l| self.occ[l] != 0) else {
                if self.overflow.is_empty() {
                    return false;
                }
                // Wheel empty: jump to the overflow window and pull in
                // every node that now fits; the rest stay overflow with a
                // refreshed minimum.
                self.cursor = self.overflow_min_tick;
                self.overflow_min_tick = u64::MAX;
                let pulled = std::mem::take(&mut self.overflow);
                for n in pulled {
                    self.wheel_insert(n);
                }
                continue;
            };
            let s = self.occ[level].trailing_zeros();
            let span = 1u64 << (SLOT_BITS * level as u32);
            let group_bits = SLOT_BITS * (level as u32 + 1);
            let group = self.cursor >> group_bits << group_bits;
            self.cursor = group + s as u64 * span;
            self.occ[level] &= !(1u64 << s);
            let nodes = std::mem::take(&mut self.levels[level * SLOTS + s as usize]);
            for n in nodes {
                // Re-lands at a level strictly below `level`.
                self.wheel_insert(n);
            }
        }
    }

    /// Fire time of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.ensure_head() {
            Some(self.current[self.head].at)
        } else {
            None
        }
    }

    /// Pop the next event, advancing `now` to its fire time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if !self.ensure_head() {
            return None;
        }
        let n = self.current[self.head];
        self.head += 1;
        let s = &mut self.slab[n.slot as usize];
        let event = s.event.take().expect("ensure_head checked liveness");
        self.free.push(n.slot);
        self.live -= 1;
        debug_assert!(n.at >= self.now);
        self.now = n.at;
        self.dispatched += 1;
        Some((n.at, event))
    }

    /// Pop the next event only if it fires **at or before** `deadline`.
    ///
    /// The boundary is inclusive (`t <= deadline`) and that inclusivity
    /// is load-bearing, not incidental:
    ///
    /// - `World::run_until(deadline)` promises that after it returns,
    ///   every effect scheduled up to and including `deadline` has been
    ///   applied. The scenario tick loop (`run_summary`) relies on this:
    ///   it advances in `tick`-sized slices and steps mobility/WIDS
    ///   *after* `run_until(now)`, so a TX that completes exactly on a
    ///   tick boundary must be delivered before the detector samples —
    ///   an exclusive boundary would defer it one whole tick.
    /// - Consecutive calls therefore partition the timeline: a slice
    ///   `(prev, deadline]` owns events with `t <= deadline`, and the next
    ///   slice starts strictly after, so no event falls between slices.
    ///
    /// Callers audited for off-by-one window assumptions (PR 8):
    /// `World::run_until` is the only non-test caller; the medium's
    /// horizon pruning uses `now()` snapshots, not deadlines, and is
    /// unaffected by the boundary convention.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => None,
        }
    }

    /// Lazy tombstone compaction: once cancelled nodes outnumber live
    /// ones, sweep every wheel structure and drop stale nodes, so cancel
    /// storms keep resident memory O(live). Amortized O(1) per cancel.
    fn maybe_compact(&mut self) {
        if self.stale <= self.live || self.stale <= COMPACT_FLOOR {
            return;
        }
        self.current.drain(..self.head);
        self.head = 0;
        let slab = &self.slab;
        self.current.retain(|n| Self::node_live(slab, n));
        for (i, bucket) in self.levels.iter_mut().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            bucket.retain(|n| Self::node_live(slab, n));
            if bucket.is_empty() {
                self.occ[i / SLOTS] &= !(1u64 << (i % SLOTS));
            }
        }
        self.overflow.retain(|n| Self::node_live(slab, n));
        self.overflow_min_tick = self
            .overflow
            .iter()
            .map(|n| tick_of(n.at))
            .min()
            .unwrap_or(u64::MAX);
        self.stale = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        q.schedule(t, "a");
        q.schedule(t, "b");
        q.schedule(t, "c");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn time_ordering() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), 3);
        q.schedule(SimTime::from_millis(10), 1);
        q.schedule(SimTime::from_millis(20), 2);
        assert_eq!(q.pop().unwrap(), (SimTime::from_millis(10), 1));
        assert_eq!(q.pop().unwrap(), (SimTime::from_millis(20), 2));
        assert_eq!(q.pop().unwrap(), (SimTime::from_millis(30), 3));
        assert!(q.pop().is_none());
    }

    #[test]
    fn now_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(1));
        assert_eq!(q.dispatched(), 1);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        q.pop();
        q.schedule(SimTime::from_secs(5), ());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_millis(1), "doomed");
        q.schedule(SimTime::from_millis(2), "kept");
        assert!(q.cancel(id));
        assert!(!q.cancel(id), "double cancel must be false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "kept");
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId {
            slot: 999,
            seq: 999
        }));
    }

    #[test]
    fn cancel_after_fire_is_false() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_millis(1), "fired");
        assert_eq!(q.pop().unwrap().1, "fired");
        assert!(!q.cancel(id), "already-fired event is not pending");
        assert!(q.is_empty());
    }

    #[test]
    fn len_stays_exact_under_cancel_storm() {
        // A deauth-flood shape: many schedules, half cancelled, with
        // interleaved pops. len() must stay exact throughout.
        let mut q = EventQueue::new();
        let mut ids = Vec::new();
        for i in 0..200u64 {
            ids.push(q.schedule(SimTime::from_millis(i + 1), i));
        }
        for id in ids.iter().step_by(2) {
            assert!(q.cancel(*id));
        }
        assert_eq!(q.len(), 100);
        let mut seen = 0;
        while let Some((_, e)) = q.pop() {
            assert!(e % 2 == 1, "only odd (uncancelled) events fire");
            seen += 1;
            assert_eq!(q.len(), 100 - seen);
        }
        assert_eq!(seen, 100);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), 1);
        q.schedule(SimTime::from_millis(20), 2);
        assert_eq!(q.pop_until(SimTime::from_millis(15)).unwrap().1, 1);
        assert!(q.pop_until(SimTime::from_millis(15)).is_none());
        assert_eq!(q.pop_until(SimTime::from_millis(25)).unwrap().1, 2);
    }

    #[test]
    fn pop_until_deadline_is_inclusive() {
        // An event at exactly the deadline fires in THIS window; one
        // nanosecond later belongs to the next. Both sides of the
        // boundary are pinned because the scenario tick loop partitions
        // time on this convention.
        let t = SimTime::from_millis(10);
        let mut q = EventQueue::new();
        q.schedule(t, "on-boundary");
        q.schedule(t + SimDuration::from_nanos(1), "past-boundary");
        assert_eq!(
            q.pop_until(t).unwrap(),
            (t, "on-boundary"),
            "t == deadline must fire"
        );
        assert!(
            q.pop_until(t).is_none(),
            "t == deadline + 1ns must NOT fire"
        );
        assert_eq!(
            q.pop_until(t + SimDuration::from_nanos(1)).unwrap().1,
            "past-boundary"
        );
    }

    #[test]
    fn pop_until_drains_same_instant_ties_in_seq_order() {
        // Several events at exactly the deadline: repeated pop_until
        // calls must drain them all, in scheduling order, before
        // returning None.
        let t = SimTime::from_millis(7);
        let mut q = EventQueue::new();
        q.schedule(t, "a");
        q.schedule(t, "b");
        q.schedule(t, "c");
        let drained: Vec<&str> = std::iter::from_fn(|| q.pop_until(t).map(|(_, e)| e)).collect();
        assert_eq!(drained, vec!["a", "b", "c"]);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_until_with_cancelled_head_at_boundary() {
        // A tombstoned head exactly at the deadline must be skipped, not
        // counted, and must not mask a live event at the same instant.
        let t = SimTime::from_millis(3);
        let mut q = EventQueue::new();
        let doomed = q.schedule(t, "doomed");
        q.schedule(t, "live");
        q.cancel(doomed);
        assert_eq!(q.pop_until(t).unwrap().1, "live");
        assert!(q.pop_until(t).is_none());
        assert_eq!(q.dispatched(), 1, "cancelled event never dispatches");
    }

    #[test]
    fn peek_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_millis(1), 1);
        q.schedule(SimTime::from_millis(2), 2);
        q.cancel(id);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(2)));
    }

    #[test]
    fn heavy_interleaving_is_stable() {
        let mut q = EventQueue::new();
        let base = SimTime::from_millis(1) + SimDuration::ZERO;
        for i in 0..1000u64 {
            q.schedule(base, i);
        }
        let got: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(got, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_into_consumed_tick_preserves_order() {
        // A handler firing at t schedules follow-ups at t (and at t+1ns,
        // same wheel tick): they must land after the already-consumed
        // prefix and fire in (at, seq) order within the tick.
        let t = SimTime::from_micros(100);
        let mut q = EventQueue::new();
        q.schedule(t, "first");
        q.schedule(t + SimDuration::from_nanos(2), "third");
        assert_eq!(q.pop().unwrap().1, "first");
        q.schedule(t, "second-same-instant");
        q.schedule(t + SimDuration::from_nanos(3), "fourth");
        assert_eq!(q.pop().unwrap().1, "second-same-instant");
        assert_eq!(q.pop().unwrap().1, "third");
        assert_eq!(q.pop().unwrap().1, "fourth");
        assert!(q.is_empty());
    }

    #[test]
    fn cross_tick_and_level_ordering() {
        // Spread events across wheel levels (ns, µs, ms, s, minutes) in
        // scrambled insertion order; pops must come back time-sorted.
        let times: Vec<u64> = vec![
            90_061_000_000_000, // ~25 h -> overflow
            1,
            1_023,
            1_024,
            65_536,
            1_000_000,
            4_194_304,
            268_435_456,
            1_000_000_000,
            17_179_869_184,
            3_600_000_000_000,
        ];
        let mut scrambled = times.clone();
        scrambled.reverse();
        scrambled.swap(0, 5);
        let mut q = EventQueue::new();
        for &t in &scrambled {
            q.schedule(SimTime(t), t);
        }
        let mut sorted = times.clone();
        sorted.sort_unstable();
        let got: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(got, sorted);
    }

    #[test]
    fn peek_does_not_block_earlier_late_insert() {
        // peek may advance the cursor past empty ticks; a subsequent
        // schedule for an earlier (but still >= now) time must still fire
        // first.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), "late");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(10)));
        q.schedule(SimTime(SimTime::from_millis(10).0 - 1), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        assert_eq!(q.pop().unwrap().1, "late");
    }

    #[test]
    fn compaction_bounds_resident_nodes() {
        // Cancel storm with nothing popped: tombstones must be swept so
        // resident wheel nodes stay O(live).
        let mut q = EventQueue::new();
        let mut ids = Vec::new();
        for i in 0..10_000u64 {
            ids.push(q.schedule(SimTime::from_micros(i + 1), i));
        }
        for id in ids.drain(..).take(9_900) {
            assert!(q.cancel(id));
        }
        assert_eq!(q.len(), 100);
        assert!(
            q.resident() <= 2 * q.len() + COMPACT_FLOOR,
            "resident {} vs live {}",
            q.resident(),
            q.len()
        );
        let mut seen = 0;
        while q.pop().is_some() {
            seen += 1;
        }
        assert_eq!(seen, 100);
    }
}
