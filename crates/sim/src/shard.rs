//! Per-shard event queues with a deterministic k-way merge.
//!
//! The sharded loop partitions the world into spatial regions and gives
//! each region its own [`EventQueue`]. Determinism survives because all
//! shards draw sequence numbers from **one global counter** and the
//! merge pop always selects the shard whose head has the smallest
//! `(fire_time, seq)` pair. Since `(time, seq)` totally orders events —
//! seqs are unique — the merged pop sequence is *provably identical* to
//! what a single [`EventQueue`] would produce for the same schedule
//! history (see DESIGN.md §15 for the proof sketch; the property test
//! in `tests/queue_props.rs` checks it empirically under arbitrary
//! schedule/cancel/pop interleavings).
//!
//! Sharding changes the queue's layout, never the event order: the
//! world pops the merged queue one event at a time and dispatches
//! serially at any shard count.

use crate::queue::{EventId, EventQueue};
use crate::time::SimTime;

/// A fixed set of [`EventQueue`] shards sharing one global seq counter.
///
/// ```
/// use rogue_sim::{ShardedQueue, SimTime};
/// let mut q = ShardedQueue::new(2);
/// q.schedule(1, SimTime::from_millis(5), "east");
/// q.schedule(0, SimTime::from_millis(5), "west");
/// // Same instant: the globally-first scheduled event pops first,
/// // regardless of which shard holds it.
/// assert_eq!(q.pop().unwrap().1, "east");
/// assert_eq!(q.pop().unwrap().1, "west");
/// ```
pub struct ShardedQueue<E> {
    shards: Vec<EventQueue<E>>,
    next_seq: u64,
    now: SimTime,
    dispatched: u64,
}

impl<E> ShardedQueue<E> {
    /// `num_shards` queues positioned at time zero. At least one.
    pub fn new(num_shards: usize) -> Self {
        assert!(num_shards >= 1, "need at least one shard");
        ShardedQueue {
            shards: (0..num_shards).map(|_| EventQueue::new()).collect(),
            next_seq: 0,
            now: SimTime::ZERO,
            dispatched: 0,
        }
    }

    /// Number of shards (fixed at construction).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Global simulation time: fire time of the last merged pop.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events dispatched through the merge so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Total pending events across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// True when every shard is drained.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// Pending events on one shard (the occupancy metric).
    pub fn shard_len(&self, shard: usize) -> usize {
        self.shards[shard].len()
    }

    /// Schedule `event` on `shard` at absolute time `at`, drawing the
    /// seq from the global counter. Returns an id valid for
    /// [`Self::cancel`].
    pub fn schedule(&mut self, shard: usize, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "attempted to schedule event in the past ({at:?} < {:?})",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.shards[shard].schedule_at_seq(at, seq, event)
    }

    /// Schedule with an externally preserved sequence number — the
    /// resharding hook: entries migrated from another queue keep their
    /// seqs, so the merged dispatch order is unchanged by the move. The
    /// global counter is bumped past `seq`.
    pub fn schedule_at_seq(&mut self, shard: usize, at: SimTime, seq: u64, event: E) -> EventId {
        self.next_seq = self.next_seq.max(seq + 1);
        self.shards[shard].schedule_at_seq(at, seq, event)
    }

    /// Consume the queue, yielding every pending event as
    /// `(fire_time, seq, event)` in unspecified order (for resharding).
    pub fn into_entries(self) -> Vec<(SimTime, u64, E)> {
        self.shards
            .into_iter()
            .flat_map(|s| s.into_entries())
            .collect()
    }

    /// Cancel a pending event wherever it lives. O(shards) — cancels
    /// are rare in this codebase (no non-test caller as of PR 8), so a
    /// seq→shard side table is not worth its memory.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.shards.iter_mut().any(|s| s.cancel(id))
    }

    /// Cancel a pending event when the caller already knows its shard —
    /// O(1), no scan. The world tracks `(shard, EventId)` for node poll
    /// events precisely so deduplication can use this path.
    pub fn cancel_on(&mut self, shard: usize, id: EventId) -> bool {
        self.shards[shard].cancel(id)
    }

    /// Fire time of the globally next pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek_shard().map(|(_, t, _)| t)
    }

    /// `(shard, time, seq)` of the head that the next pop will take.
    fn peek_shard(&mut self) -> Option<(usize, SimTime, u64)> {
        let mut best: Option<(usize, SimTime, u64)> = None;
        for (i, shard) in self.shards.iter_mut().enumerate() {
            if let Some((t, seq)) = shard.peek_next() {
                let better = match best {
                    None => true,
                    Some((_, bt, bseq)) => (t, seq) < (bt, bseq),
                };
                if better {
                    best = Some((i, t, seq));
                }
            }
        }
        best
    }

    /// Pop the globally next event in `(time, seq)` order, advancing
    /// the merged clock. Also returns the owning shard so the caller
    /// can attribute work (and route follow-up schedules).
    pub fn pop(&mut self) -> Option<(SimTime, E, usize)> {
        let (shard, _, _) = self.peek_shard()?;
        let (t, event) = self.shards[shard].pop().expect("peeked head vanished");
        debug_assert!(t >= self.now);
        self.now = t;
        self.dispatched += 1;
        Some((t, event, shard))
    }

    /// Pop the globally next event only if it fires **at or before**
    /// `deadline` — the same inclusive boundary as
    /// [`EventQueue::pop_until`].
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E, usize)> {
        match self.peek_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn merge_order_matches_global_schedule_order() {
        // Events at the same instant fire in global scheduling order
        // even when they land on different shards.
        let mut q = ShardedQueue::new(3);
        let t = SimTime::from_millis(1);
        q.schedule(2, t, "first");
        q.schedule(0, t, "second");
        q.schedule(1, t, "third");
        q.schedule(0, t + SimDuration::ZERO, "fourth");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e, _)| e)).collect();
        assert_eq!(order, vec!["first", "second", "third", "fourth"]);
        assert_eq!(q.dispatched(), 4);
    }

    #[test]
    fn pop_reports_owning_shard() {
        let mut q = ShardedQueue::new(2);
        q.schedule(1, SimTime::from_millis(1), "a");
        q.schedule(0, SimTime::from_millis(2), "b");
        assert_eq!(q.pop().unwrap().2, 1);
        assert_eq!(q.pop().unwrap().2, 0);
    }

    #[test]
    fn pop_until_is_inclusive_across_shards() {
        let t = SimTime::from_millis(10);
        let mut q = ShardedQueue::new(2);
        q.schedule(0, t, "on");
        q.schedule(1, t + SimDuration::from_nanos(1), "past");
        assert_eq!(q.pop_until(t).unwrap().1, "on");
        assert!(q.pop_until(t).is_none());
        assert_eq!(q.now(), t);
    }

    #[test]
    fn cancel_finds_event_on_any_shard() {
        let mut q = ShardedQueue::new(4);
        let id = q.schedule(3, SimTime::from_millis(1), "doomed");
        q.schedule(1, SimTime::from_millis(2), "kept");
        assert!(q.cancel(id));
        assert!(!q.cancel(id));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "kept");
    }

    #[test]
    fn cancel_on_is_shard_targeted() {
        let mut q = ShardedQueue::new(4);
        let id = q.schedule(2, SimTime::from_millis(1), "doomed");
        q.schedule(2, SimTime::from_millis(2), "kept");
        // Wrong shard: same id does not resolve there.
        assert!(!q.cancel_on(0, id));
        assert!(q.cancel_on(2, id));
        assert!(!q.cancel_on(2, id), "double cancel is a no-op");
        assert_eq!(q.pop().unwrap().1, "kept");
    }

    #[test]
    fn single_shard_degenerates_to_plain_queue() {
        let mut sharded = ShardedQueue::new(1);
        let mut plain = EventQueue::new();
        for i in 0..50u64 {
            let t = SimTime::from_millis(i % 7);
            // Interleave schedule times non-monotonically within the
            // pre-pop phase to exercise the heap, then drain both.
            sharded.schedule(0, t + SimDuration::from_millis(10), i);
            plain.schedule(t + SimDuration::from_millis(10), i);
        }
        loop {
            match (sharded.pop(), plain.pop()) {
                (Some((ts, es, _)), Some((tp, ep))) => {
                    assert_eq!((ts, es), (tp, ep));
                }
                (None, None) => break,
                _ => panic!("queues diverged in length"),
            }
        }
    }
}
