//! The per-layer metrics: their names and units, and how they are read
//! from the counters a finished `World` already exposes.
//!
//! The profiler phases (`World::profile_snapshot`) are inclusive and
//! overlap: `op_commit` contains medium and queue work that other phases
//! also count. They are recorded as read and must never be summed.

use rogue_core::world::World;
use rogue_sim::profile::Phase;

/// Every per-layer metric, `(name, unit)`, in report order. A workload
/// that does not reach a layer reports 0 for it.
pub const METRICS: &[(&str, &str)] = &[
    ("scenario.load_s", "s"),
    ("scenario.compile_s", "s"),
    ("scenario.mobility_step_s", "s"),
    ("scenario.moves", "count"),
    ("scenario.tick_self_s", "s"),
    ("scenario.tick_ms_p50", "ms"),
    ("scenario.tick_ms_p90", "ms"),
    ("core.build_s", "s"),
    ("core.run_until_s", "s"),
    ("core.dispatch_s", "s"),
    ("core.ns_per_event", "ns"),
    ("core.events", "count"),
    ("core.events_per_s", "events/s"),
    ("core.op_commit_s", "s"),
    ("core.deliver_s", "s"),
    ("core.poll_s", "s"),
    ("core.exec_wall_s", "s"),
    ("core.parallel_efficiency", "ratio"),
    ("core.tx_complete_s", "s"),
    ("core.node_poll_s", "s"),
    ("sim.queue_pop_s", "s"),
    ("sim.queue_schedule_s", "s"),
    ("sim.schedules", "count"),
    ("sim.windows", "count"),
    ("sim.plans_parallel", "count"),
    ("sim.plans_stale", "count"),
    ("sim.plan_useful_ratio", "ratio"),
    ("sim.prof_overhead_permille", "permille"),
    ("phy.medium_plan_s", "s"),
    ("phy.medium_commit_s", "s"),
    ("phy.frames_sent", "count"),
    ("phy.halfduplex_misses", "count"),
    ("phy.sinr_drops", "count"),
    ("phy.pathloss_cache_hit_ratio", "ratio"),
    ("phy.pathloss_cache_pairs", "count"),
    ("phy.audible_rows_reused", "count"),
    ("dot11.mac_events", "count"),
    ("dot11.associated", "count"),
    ("dot11.tx_failed", "count"),
    ("dot11.deauth_forced", "count"),
    ("wids.drain_s", "s"),
    ("wids.step_s", "s"),
    ("wids.events", "count"),
    ("wids.ring_dropped", "count"),
    ("wids.alerts_raw", "count"),
    ("wids.incidents", "count"),
    ("paper.e1_s", "s"),
    ("paper.e2_s", "s"),
    ("paper.e3_s", "s"),
    ("paper.e4_s", "s"),
    ("paper.e5_s", "s"),
    ("paper.e6_s", "s"),
    ("paper.e7_s", "s"),
    ("paper.e8_s", "s"),
    ("paper.e9_s", "s"),
    ("paper.e10_s", "s"),
    ("trace_overhead_pct", "%"),
];

/// Per-layer values of one pass, by metric name.
pub type Layers = Vec<(&'static str, f64)>;

/// `num / den`, or 0 when there is nothing to divide.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The `core`, `sim`, `phy` and `dot11` values of a finished world.
/// `run_until_s` is the traced time spent in `World::run_until`.
pub fn world(w: &World, run_until_s: f64) -> Layers {
    let p = w.profile_snapshot();
    let phase = |ph: Phase| p.phases[ph as usize].1 as f64 / 1e9;
    let kind = |label: &str| {
        p.kinds
            .iter()
            .find(|k| k.0 == label)
            .map_or(0.0, |k| k.1 as f64 / 1e9)
    };
    let counter = |key: &str| w.metrics.counter(key) as f64;
    let events = w.events_dispatched() as f64;
    let dispatch_s = p.dispatch_ns as f64 / 1e9;
    let (deliver, poll, plan) = (
        phase(Phase::Deliver),
        phase(Phase::Poll),
        phase(Phase::MediumPlan),
    );
    let (pairs, hits, misses) = w.medium.pathloss_cache_stats();
    let planned = counter("sim.plans_parallel");
    vec![
        ("core.run_until_s", run_until_s),
        ("core.dispatch_s", dispatch_s),
        ("core.ns_per_event", ratio(dispatch_s * 1e9, events)),
        ("core.events", events),
        ("core.events_per_s", ratio(events, run_until_s)),
        ("core.op_commit_s", phase(Phase::OpCommit)),
        ("core.deliver_s", deliver),
        ("core.poll_s", poll),
        ("core.exec_wall_s", phase(Phase::ExecWall)),
        (
            "core.parallel_efficiency",
            ratio(phase(Phase::ExecWall), deliver + poll + plan),
        ),
        ("core.tx_complete_s", kind("tx_complete")),
        ("core.node_poll_s", kind("node_poll")),
        ("sim.queue_pop_s", phase(Phase::QueuePop)),
        ("sim.queue_schedule_s", phase(Phase::QueueSchedule)),
        (
            "sim.schedules",
            p.phases[Phase::QueueSchedule as usize].2 as f64,
        ),
        ("sim.windows", counter("sim.windows")),
        ("sim.plans_parallel", planned),
        ("sim.plans_stale", counter("sim.plans_stale")),
        (
            "sim.plan_useful_ratio",
            if planned > 0.0 {
                1.0 - counter("sim.plans_stale") / planned
            } else {
                0.0
            },
        ),
        ("sim.prof_overhead_permille", p.overhead_permille() as f64),
        ("phy.medium_plan_s", plan),
        ("phy.medium_commit_s", phase(Phase::MediumCommit)),
        ("phy.frames_sent", w.medium.frames_sent as f64),
        ("phy.halfduplex_misses", w.medium.halfduplex_misses as f64),
        ("phy.sinr_drops", w.medium.sinr_drops as f64),
        (
            "phy.pathloss_cache_hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        ),
        ("phy.pathloss_cache_pairs", pairs as f64),
        (
            "phy.audible_rows_reused",
            w.medium.audible_rows_reused() as f64,
        ),
        ("dot11.mac_events", w.mac_events.len() as f64),
        ("dot11.associated", counter("mac.associated")),
        ("dot11.tx_failed", counter("mac.tx_failed")),
        ("dot11.deauth_forced", counter("mac.deauth_forced")),
    ]
}

/// The MAC-event fingerprint and medium counters of a finished world:
/// what the sharded loop must reproduce bit for bit.
pub fn fingerprint(w: &World, out: &mut impl std::fmt::Write) {
    for (t, n, e) in &w.mac_events {
        write!(out, "{} {} {e:?};", t.as_nanos(), n.0).expect("hashing cannot fail");
    }
    write!(
        out,
        "events={} frames={} halfduplex={} sinr={}",
        w.events_dispatched(),
        w.medium.frames_sent,
        w.medium.halfduplex_misses,
        w.medium.sinr_drops
    )
    .expect("hashing cannot fail");
}
