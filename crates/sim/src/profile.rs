//! Always-on cycle profiler for the event hot path.
//!
//! The dispatch loop needs to know where its microseconds go — per event
//! kind and per phase (queue ops, medium plan/commit, netstack delivery)
//! — without slowing itself down enough to distort the answer. The
//! design:
//!
//! * [`now`] reads the TSC (`rdtsc` on x86_64, `cntvct` on aarch64) —
//!   a handful of cycles, no syscall. Other targets fall back to a
//!   monotonic [`std::time::Instant`] anchored at first use.
//! * Spans are accumulated into fixed arrays indexed by [`Phase`] — one
//!   add + one increment per probe, no branching on labels.
//! * Cycle→nanosecond conversion is *calibrated at snapshot time* from
//!   an `Instant`/counter pair recorded at construction, so the profiler
//!   itself never calls into the OS on the hot path.
//! * The profiler measures its own probe cost once per process (a tight
//!   loop of empty probes: a start read plus a [`Profiler::record`]) and
//!   reports estimated total overhead with every snapshot, so the ≤ 2 %
//!   overhead budget is *checked*, not assumed.
//!
//! Profiler output is wall-clock and therefore nondeterministic; it is
//! surfaced only through `sim.prof.*` metrics and bench JSON breakdowns,
//! which are never rendered into golden report tables.

use std::sync::OnceLock;
use std::time::Instant;

/// Phases of one event dispatch, in the order they appear in the loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Queue pop / peek / merge work.
    QueuePop = 0,
    /// Scheduling follow-up events (queue inserts, cancels).
    QueueSchedule = 1,
    /// `Medium::plan_complete` — SINR/interference planning.
    MediumPlan = 2,
    /// `Medium::commit_complete` / `complete_tx` — state mutation.
    MediumCommit = 3,
    /// Frame delivery into radios/MACs/switches.
    Deliver = 4,
    /// Netstack polls (host timers, MAC state machines, apps).
    Poll = 5,
    /// Applying deferred ops (medium mutations, queue inserts, switch
    /// forwarding) at the commit point, in canonical order.
    OpCommit = 6,
    /// Wall-clock time of parallel dispatch regions. The dispatcher is
    /// serial, so nothing records this phase and it reads 0; it stays
    /// because the repository benchmark still reports it
    /// (`core.exec_wall_s`).
    ExecWall = 7,
}

/// Number of `Phase` variants (array sizing).
pub const NUM_PHASES: usize = 8;

/// Static labels, indexed by `Phase as usize`.
pub const PHASE_NAMES: [&str; NUM_PHASES] = [
    "queue_pop",
    "queue_schedule",
    "medium_plan",
    "medium_commit",
    "deliver",
    "poll",
    "op_commit",
    "exec_wall",
];

/// Read the cycle counter. Monotonic-enough for span accumulation; the
/// unit is calibrated against wall-clock at snapshot time.
#[inline(always)]
pub fn now() -> u64 {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(target_arch = "aarch64")]
    unsafe {
        let v: u64;
        core::arch::asm!("mrs {v}, cntvct_el0", v = out(reg) v, options(nomem, nostack));
        v
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        use std::sync::OnceLock;
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// One accumulator cell: total cycles and probe count.
#[derive(Clone, Copy, Default)]
struct Cell {
    cycles: u64,
    count: u64,
}

/// A snapshot row: `(label, total_ns, count)`.
pub type SnapshotRow = (&'static str, u64, u64);

/// Converted, wall-clock-calibrated view of the accumulated spans.
pub struct Snapshot {
    /// Per-phase `(label, ns, count)` rows, in `Phase` order.
    pub phases: Vec<SnapshotRow>,
    /// Per-event-kind `(label, ns, count)` rows, in registration order.
    pub kinds: Vec<SnapshotRow>,
    /// Estimated profiler self-cost across all probes, in ns.
    pub overhead_ns: u64,
    /// Total ns attributed to event kinds (the dispatch denominator).
    pub dispatch_ns: u64,
}

impl Snapshot {
    /// Overhead as a permille of dispatch time (0 when nothing ran).
    /// The acceptance budget is ≤ 20 ‰ (2 %).
    pub fn overhead_permille(&self) -> u64 {
        (self.overhead_ns * 1000)
            .checked_div(self.dispatch_ns)
            .unwrap_or(0)
    }
}

/// Cycle-count profiler with fixed phase cells and caller-registered
/// event-kind cells.
pub struct Profiler {
    phases: [Cell; NUM_PHASES],
    kinds: Vec<(&'static str, Cell)>,
    /// Actual probes taken. Distinct from cell counts since
    /// [`Self::record_many`]: one probe can account for many events.
    probes: u64,
    anchor_instant: Instant,
    anchor_cycles: u64,
    /// Measured cost of one probe, in cycles: see [`probe_cost_cycles`].
    probe_cost_cycles: u64,
}

/// What one probe adds to the code it wraps, in cycles: the caller's
/// start read plus a [`Profiler::record`], whose end read and cell
/// update are part of the cost too. Measured once per process, as the
/// median of several batches of empty probes, so a batch that an
/// interrupt lands in does not set the figure.
fn probe_cost_cycles() -> u64 {
    static COST: OnceLock<u64> = OnceLock::new();
    *COST.get_or_init(|| {
        const BATCHES: usize = 9;
        const PROBES: u64 = 512;
        let mut p = Profiler::with_probe_cost(0);
        let mut batches = [0u64; BATCHES];
        for batch in &mut batches {
            let t0 = now();
            for _ in 0..PROBES {
                let start = now();
                std::hint::black_box(&mut p).record(Phase::QueuePop, start);
            }
            *batch = now().wrapping_sub(t0) / PROBES;
        }
        batches.sort_unstable();
        batches[BATCHES / 2]
    })
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    /// Build a profiler charging the process's calibrated probe cost.
    pub fn new() -> Self {
        Self::with_probe_cost(probe_cost_cycles())
    }

    fn with_probe_cost(probe_cost_cycles: u64) -> Self {
        Profiler {
            phases: [Cell::default(); NUM_PHASES],
            kinds: Vec::new(),
            probes: 0,
            anchor_instant: Instant::now(),
            anchor_cycles: now(),
            probe_cost_cycles,
        }
    }

    /// Register an event-kind cell; returns its index for [`Self::record_kind`].
    pub fn register_kind(&mut self, label: &'static str) -> usize {
        self.kinds.push((label, Cell::default()));
        self.kinds.len() - 1
    }

    /// Attribute `now() - t0` to `phase`.
    #[inline(always)]
    pub fn record(&mut self, phase: Phase, t0: u64) {
        let c = &mut self.phases[phase as usize];
        c.cycles = c.cycles.wrapping_add(now().wrapping_sub(t0));
        c.count += 1;
        self.probes += 1;
    }

    /// Attribute `now() - t0` to `phase`, counting `n` items under the
    /// single probe — the bulk variant: committing an event's `n` ops
    /// takes one probe, and the cell counts ops, not probes.
    #[inline(always)]
    pub fn record_many(&mut self, phase: Phase, t0: u64, n: u64) {
        let c = &mut self.phases[phase as usize];
        c.cycles = c.cycles.wrapping_add(now().wrapping_sub(t0));
        c.count += n;
        self.probes += 1;
    }

    /// Attribute `now() - t0` to the registered kind `idx`.
    #[inline(always)]
    pub fn record_kind(&mut self, idx: usize, t0: u64) {
        let c = &mut self.kinds[idx].1;
        c.cycles = c.cycles.wrapping_add(now().wrapping_sub(t0));
        c.count += 1;
        self.probes += 1;
    }

    /// Calibrate cycles→ns against the wall clock and convert every cell.
    ///
    /// Reads the clock *now*, so the calibration window spans the whole
    /// profiled run — long enough that `Instant` granularity is noise.
    pub fn snapshot(&self) -> Snapshot {
        let elapsed_ns = self.anchor_instant.elapsed().as_nanos() as u64;
        let elapsed_cycles = now().wrapping_sub(self.anchor_cycles).max(1);
        let to_ns = |cycles: u64| -> u64 {
            // u128 to survive cycles * ns products at hour scale.
            ((cycles as u128 * elapsed_ns as u128) / elapsed_cycles as u128) as u64
        };
        let phases: Vec<SnapshotRow> = self
            .phases
            .iter()
            .enumerate()
            .map(|(i, c)| (PHASE_NAMES[i], to_ns(c.cycles), c.count))
            .collect();
        let kinds: Vec<SnapshotRow> = self
            .kinds
            .iter()
            .map(|(label, c)| (*label, to_ns(c.cycles), c.count))
            .collect();
        let overhead_ns = to_ns(self.probes.saturating_mul(self.probe_cost_cycles));
        let dispatch_ns = kinds.iter().map(|(_, ns, _)| ns).sum();
        Snapshot {
            phases,
            kinds,
            overhead_ns,
            dispatch_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_monotonic_enough() {
        let a = now();
        let mut x = 0u64;
        for i in 0..10_000u64 {
            x = x.wrapping_add(i);
        }
        std::hint::black_box(x);
        let b = now();
        assert!(b.wrapping_sub(a) > 0, "time must pass across real work");
    }

    #[test]
    fn spans_accumulate_and_convert() {
        let mut p = Profiler::new();
        let k = p.register_kind("test_kind");
        for _ in 0..100 {
            let t0 = now();
            let mut x = 0u64;
            for i in 0..1000u64 {
                x = x.wrapping_add(i * i);
            }
            std::hint::black_box(x);
            p.record(Phase::Poll, t0);
            p.record_kind(k, t0);
        }
        // Let the calibration window accumulate some wall time.
        std::thread::sleep(std::time::Duration::from_millis(5));
        let s = p.snapshot();
        assert_eq!(s.phases[Phase::Poll as usize].2, 100);
        assert_eq!(s.kinds[0].2, 100);
        assert_eq!(s.kinds[0].0, "test_kind");
        assert!(s.kinds[0].1 > 0, "real work must convert to nonzero ns");
        assert!(s.dispatch_ns >= s.kinds[0].1);
    }

    #[test]
    fn record_many_counts_items_not_probes() {
        let mut p = Profiler::new();
        let t0 = now();
        p.record_many(Phase::QueuePop, t0, 37);
        let before = p.probes;
        p.record_many(Phase::QueuePop, now(), 3);
        assert_eq!(p.probes, before + 1, "one probe per bulk record");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let s = p.snapshot();
        assert_eq!(s.phases[Phase::QueuePop as usize].2, 40);
    }

    #[test]
    fn overhead_estimate_is_reported() {
        // An empty span records only part of its own probe: the time
        // from the start read to `record`'s end read. The estimate
        // charges the whole probe, so it must cover every recorded span.
        // An interrupt landing inside one span inflates that trial's
        // total past any honest estimate, so the claim must hold in a
        // majority of five trials, not in every one.
        const PROBES: u64 = 2_000;
        let trials: Vec<(u64, u64)> = (0..5)
            .map(|_| {
                let mut p = Profiler::new();
                let k = p.register_kind("busy");
                for _ in 0..PROBES {
                    let t0 = now();
                    p.record_kind(k, t0);
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
                let s = p.snapshot();
                assert_eq!(s.kinds[0].2, PROBES);
                (s.kinds[0].1, s.overhead_ns)
            })
            .collect();
        assert!(trials.iter().all(|&(recorded, _)| recorded > 0));
        let covered = trials.iter().filter(|&&(rec, est)| est >= rec).count();
        assert!(
            covered >= 3,
            "(recorded ns, estimated ns) of {PROBES} empty probes per trial: {trials:?}"
        );
    }
}
