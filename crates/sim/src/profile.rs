//! Always-on cycle profiler for the event hot path.
//!
//! The dispatch loop needs to know where its microseconds go — per event
//! kind and per phase (queue ops, medium begin/complete, netstack delivery)
//! — without slowing itself down enough to distort the answer. The
//! design:
//!
//! * [`now`] reads the TSC (`rdtsc` on x86_64, `cntvct` on aarch64) —
//!   a handful of cycles, no syscall. Other targets fall back to a
//!   monotonic [`std::time::Instant`] anchored at first use.
//! * The profiler is a chain of boundaries. [`Profiler::enter`] reads
//!   the clock once: the read closes the open phase, charging it the
//!   cycles since the boundary that opened it, and opens the next one.
//!   [`Profiler::stop`] closes the chain. Every cycle between a chain's
//!   first and last read lands in exactly one phase, so the phases
//!   partition the profiled time: none nests in another, and none counts
//!   what another counts.
//! * An event kind is charged from two boundary reads the caller already
//!   took ([`Profiler::charge_kind`]), and a phase can be counted without
//!   being timed ([`Profiler::count`]); neither reads the clock.
//! * Cells are fixed arrays indexed by [`Phase`] — a few adds per
//!   boundary, no branching on labels.
//! * Cycle→nanosecond conversion is *calibrated at snapshot time* from
//!   an `Instant`/counter pair recorded at construction, so the profiler
//!   itself never calls into the OS on the hot path.
//! * The profiler measures the cost of one boundary once per process (a
//!   tight loop of empty boundaries) and reports estimated total overhead
//!   with every snapshot, so the ≤ 2 % overhead budget is *checked*, not
//!   assumed.
//!
//! Profiler output is wall-clock and therefore nondeterministic; it is
//! surfaced only through snapshots and bench JSON breakdowns, which are
//! never rendered into golden report tables.

use std::sync::OnceLock;
use std::time::Instant;

/// Phases of one event dispatch. A dispatch runs its phases one after
/// another, so they partition its time (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Popping the next event, and the loop's own work between two
    /// events.
    QueuePop = 0,
    /// Scheduling follow-up events. Counted, never timed: a schedule's
    /// time stays in the phase that made it.
    QueueSchedule = 1,
    /// `Medium::complete_tx` — the SINR decisions and the completion's
    /// bookkeeping.
    MediumPlan = 2,
    /// Never entered: a completion is one call, timed whole under
    /// `MediumPlan`, so this phase reads 0. Kept only because the frozen
    /// repository benchmark still reports it (`phy.medium_commit_s`);
    /// the benchmark re-cut of ROADMAP item 2 deletes it.
    MediumCommit = 3,
    /// Frame delivery into radios/MACs/switches and wired taps.
    Deliver = 4,
    /// Netstack polls (host timers, MAC state machines, apps).
    Poll = 5,
    /// Applying an event's deferred ops (queue inserts, retunes, switch
    /// forwarding, logs) at the commit point, in canonical order — all
    /// but the frames they begin, which are `MediumBegin`.
    OpCommit = 6,
    /// Wall-clock time of parallel dispatch regions. A world dispatches
    /// on one thread, so nothing records this phase and it reads 0. Kept
    /// only because the frozen repository benchmark still reports it
    /// (`core.exec_wall_s`); the benchmark re-cut of ROADMAP item 2
    /// deletes it.
    ExecWall = 7,
    /// `Medium::begin_tx` for each frame an event's ops begin: the
    /// audible row (or dense power map) and the prune.
    MediumBegin = 8,
}

/// Number of `Phase` variants (array sizing).
pub const NUM_PHASES: usize = 9;

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
    "medium_begin",
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

/// One accumulator cell: total cycles and span count.
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
    /// Estimated profiler self-cost across all clock reads, in ns.
    pub overhead_ns: u64,
    /// Total ns attributed to event kinds (the dispatch denominator).
    /// When each kind span runs from the boundary that opens an event's
    /// first phase to the one that closes its last, as in
    /// `World::run_until`, this is the sum of every phase but
    /// `queue_pop`, up to the rounding of each row's conversion.
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

    /// Do the phases other than `queue_pop` sum to `dispatch_ns`, up to
    /// the 1 ns that converting each summed row can round away?
    pub fn phases_partition_dispatch(&self) -> bool {
        let all: u64 = self.phases.iter().map(|r| r.1).sum();
        let ns = all - self.phases[Phase::QueuePop as usize].1;
        let rows = (self.phases.len() - 1 + self.kinds.len()) as u64;
        ns.abs_diff(self.dispatch_ns) <= rows
    }
}

/// Cycle-count profiler with fixed phase cells and caller-registered
/// event-kind cells.
pub struct Profiler {
    phases: [Cell; NUM_PHASES],
    kinds: Vec<(&'static str, Cell)>,
    /// The open phase and the clock read that opened it; `None` before
    /// the first [`Self::enter`] and after a [`Self::stop`].
    open: Option<(Phase, u64)>,
    /// Clock reads taken: one per boundary, [`Self::stop`] included.
    reads: u64,
    anchor_instant: Instant,
    anchor_cycles: u64,
    /// Measured cost of one boundary, in cycles: see
    /// [`boundary_cost_cycles`].
    boundary_cost_cycles: u64,
}

/// What one boundary adds to the code around it, in cycles: its clock
/// read and its cell updates. Measured once per process, as the median
/// of several batches of back-to-back boundaries, so a batch that an
/// interrupt lands in does not set the figure.
fn boundary_cost_cycles() -> u64 {
    static COST: OnceLock<u64> = OnceLock::new();
    *COST.get_or_init(|| {
        const BATCHES: usize = 9;
        const BOUNDARIES: u64 = 512;
        let mut p = Profiler::with_boundary_cost(0);
        let mut batches = [0u64; BATCHES];
        for batch in &mut batches {
            let t0 = now();
            for _ in 0..BOUNDARIES {
                std::hint::black_box(&mut p).enter(Phase::QueuePop);
            }
            *batch = now().wrapping_sub(t0) / BOUNDARIES;
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
    /// Build a profiler charging the process's calibrated boundary cost.
    pub fn new() -> Self {
        Self::with_boundary_cost(boundary_cost_cycles())
    }

    fn with_boundary_cost(boundary_cost_cycles: u64) -> Self {
        Profiler {
            phases: [Cell::default(); NUM_PHASES],
            kinds: Vec::new(),
            open: None,
            reads: 0,
            anchor_instant: Instant::now(),
            anchor_cycles: now(),
            boundary_cost_cycles,
        }
    }

    /// Register an event-kind cell; returns its index for
    /// [`Self::charge_kind`].
    pub fn register_kind(&mut self, label: &'static str) -> usize {
        self.kinds.push((label, Cell::default()));
        self.kinds.len() - 1
    }

    /// Charge the open phase, if any, the cycles up to `t`.
    #[inline(always)]
    fn close(&mut self, t: u64) {
        if let Some((phase, since)) = self.open {
            let c = &mut self.phases[phase as usize];
            c.cycles = c.cycles.wrapping_add(t.wrapping_sub(since));
        }
    }

    /// A boundary: read the clock once, close the open phase there and
    /// open `phase`. Returns the read, for [`Self::charge_kind`].
    #[inline(always)]
    pub fn enter(&mut self, phase: Phase) -> u64 {
        let t = now();
        self.close(t);
        self.phases[phase as usize].count += 1;
        self.open = Some((phase, t));
        self.reads += 1;
        t
    }

    /// The last boundary of a chain: close the open phase and open none,
    /// so the time until the next [`Self::enter`] is charged to nothing.
    /// Returns the read.
    #[inline(always)]
    pub fn stop(&mut self) -> u64 {
        let t = now();
        self.close(t);
        self.open = None;
        self.reads += 1;
        t
    }

    /// Charge the registered kind `idx` one span from `start` to `end`,
    /// two reads that [`Self::enter`] returned.
    #[inline(always)]
    pub fn charge_kind(&mut self, idx: usize, start: u64, end: u64) {
        let c = &mut self.kinds[idx].1;
        c.cycles = c.cycles.wrapping_add(end.wrapping_sub(start));
        c.count += 1;
    }

    /// Count one occurrence of `phase` without timing it.
    #[inline(always)]
    pub fn count(&mut self, phase: Phase) {
        self.phases[phase as usize].count += 1;
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
        let overhead_ns = to_ns(self.reads.saturating_mul(self.boundary_cost_cycles));
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

    /// A little real work between two boundaries.
    fn busy() {
        let mut x = 0u64;
        for i in 0..1000u64 {
            x = x.wrapping_add(i * i);
        }
        std::hint::black_box(x);
    }

    #[test]
    fn counter_is_monotonic_enough() {
        let a = now();
        busy();
        let b = now();
        assert!(b.wrapping_sub(a) > 0, "time must pass across real work");
    }

    #[test]
    fn boundaries_partition_the_elapsed_cycles() {
        let mut p = Profiler::new();
        let k = p.register_kind("event");
        let t0 = p.enter(Phase::QueuePop);
        busy();
        let t1 = p.enter(Phase::Poll);
        p.count(Phase::QueueSchedule);
        busy();
        let t2 = p.enter(Phase::MediumBegin);
        busy();
        let t3 = p.enter(Phase::QueuePop);
        p.charge_kind(k, t1, t3);
        busy();
        let t4 = p.stop();
        // The gap after a stop is charged to nothing.
        busy();
        let t5 = p.enter(Phase::Poll);
        busy();
        let t6 = p.stop();

        let d = |a: u64, b: u64| b.wrapping_sub(a);
        let cell = |ph: Phase| p.phases[ph as usize];
        assert_eq!(
            cell(Phase::QueuePop).cycles,
            d(t0, t1).wrapping_add(d(t3, t4))
        );
        assert_eq!(cell(Phase::Poll).cycles, d(t1, t2).wrapping_add(d(t5, t6)));
        assert_eq!(cell(Phase::MediumBegin).cycles, d(t2, t3));
        let charged = p.phases.iter().fold(0u64, |s, c| s.wrapping_add(c.cycles));
        assert_eq!(charged, d(t0, t4).wrapping_add(d(t5, t6)));
        assert_eq!((p.kinds[0].1.cycles, p.kinds[0].1.count), (d(t1, t3), 1));
        // Counts are spans opened; a count-only bump reads no clock.
        let counts: Vec<u64> = p.phases.iter().map(|c| c.count).collect();
        assert_eq!(counts, [2, 1, 0, 0, 0, 2, 0, 0, 1]);
        assert_eq!(cell(Phase::QueueSchedule).cycles, 0);
        assert_eq!(p.reads, 7);
    }

    #[test]
    fn spans_accumulate_and_convert() {
        let mut p = Profiler::new();
        let k = p.register_kind("test_kind");
        p.enter(Phase::QueuePop);
        for _ in 0..100 {
            let start = p.enter(Phase::Poll);
            busy();
            let end = p.enter(Phase::QueuePop);
            p.charge_kind(k, start, end);
        }
        p.stop();
        // Let the calibration window accumulate some wall time.
        std::thread::sleep(std::time::Duration::from_millis(5));
        let s = p.snapshot();
        assert_eq!(s.phases[Phase::Poll as usize].2, 100);
        assert_eq!(s.phases[Phase::QueuePop as usize].2, 101);
        assert_eq!(s.kinds[0].2, 100);
        assert_eq!(s.kinds[0].0, "test_kind");
        assert!(s.kinds[0].1 > 0, "real work must convert to nonzero ns");
        // Same cycles, same conversion: the kind equals the poll phase.
        assert_eq!(s.kinds[0].1, s.phases[Phase::Poll as usize].1);
        assert_eq!(s.dispatch_ns, s.kinds[0].1);
        assert!(s.phases_partition_dispatch());
    }

    #[test]
    fn overhead_estimate_is_reported() {
        // A chain of empty boundaries charges nothing but the profiler's
        // own cost, which is what the estimate claims to report. An
        // interrupt landing inside one trial inflates its charge past
        // any honest estimate, so the two must agree within a factor of
        // two in a majority of five trials, not in every one.
        const BOUNDARIES: u64 = 2_000;
        let trials: Vec<(u64, u64)> = (0..5)
            .map(|_| {
                let mut p = Profiler::new();
                for _ in 0..BOUNDARIES {
                    p.enter(Phase::QueuePop);
                }
                p.stop();
                std::thread::sleep(std::time::Duration::from_millis(2));
                let s = p.snapshot();
                assert_eq!(s.phases[Phase::QueuePop as usize].2, BOUNDARIES);
                (s.phases[Phase::QueuePop as usize].1, s.overhead_ns)
            })
            .collect();
        assert!(trials.iter().all(|&(charged, est)| charged > 0 && est > 0));
        let agree = trials
            .iter()
            .filter(|&&(charged, est)| charged <= 2 * est && est <= 2 * charged)
            .count();
        assert!(
            agree >= 3,
            "(charged ns, estimated ns) of {BOUNDARIES} empty boundaries per trial: {trials:?}"
        );
    }
}
