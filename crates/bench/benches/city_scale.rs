//! city_scale — the event loop at city scale (≥100k radios), repeated.
//!
//! City-wide topology: radios on a uniform 30 m grid covering ~9.5 km
//! per side. Every 25th grid position (a 150 m AP lattice) carries an
//! AP on a channel drawn round-robin from the non-overlapping
//! {1, 6, 11} set; every other position is a station scanning for the
//! city SSID and associating with whichever AP beacons loudest. The
//! first simulated seconds are the busiest this world ever gets: every
//! station sweeps channels, then the auth/assoc exchanges pile onto the
//! APs while beacons keep firing in 100 ms lockstep.
//!
//! Protocol: build and run the same world [`REPEATS`] times and **assert
//! that every repeat's MAC trace and medium counters equal the first's
//! before reporting any number**. A repeat that differs by one bit is a
//! determinism bug, not a data point. Each repeat's profile must also
//! partition dispatch time (the phases other than `queue_pop` sum to the
//! event kinds), and at full size its estimated overhead must stay within
//! the 20 ‰ budget and the process's peak RSS within its ceiling. Then
//! print each repeat's wall time, CPU time (`rogue_bench::Stopwatch`) and
//! events/s, the median and quartiles of events/s beside the peak RSS,
//! and the last repeat's profiler breakdown.
//!
//! A full run writes `BENCH_city_scale.json` at the workspace root, the
//! committed recording. `-- --test` runs a downscaled smoke sweep (same
//! assertions, ~2k radios) and writes its JSON to `target/tmp` instead.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::net::Ipv4Addr;

use rogue_bench::{record, sample, spread, Row, Stopwatch};
use rogue_core::world::World;
use rogue_dot11::{ApConfig, MacAddr, StaConfig};
use rogue_phy::{MediumParams, Pos};
use rogue_sim::profile::Snapshot;
use rogue_sim::{Seed, SimTime};

/// Grid pitch in metres (decode horizon at 15 dBm is ~200 m).
const PITCH_M: f64 = 30.0;

/// AP lattice stride in grid cells: one AP per 5x5 block (150 m pitch).
const AP_STRIDE: usize = 5;

/// Runs of the same world per invocation; three fit a full-size run in
/// about a minute on a 2-vCPU host.
const REPEATS: usize = 3;

/// The profiler's overhead budget, in permille of dispatch time. Only the
/// full size is held to it: the smoke's events are short enough that even
/// one clock read per phase boundary costs more.
const OVERHEAD_BUDGET_PERMILLE: u64 = 20;

/// The full size's peak RSS ceiling, in MiB: about 30 % over the
/// recording (243 MiB, DESIGN §16.5). Each repeat drops its world, so the
/// peak is one world's. The smoke is not held to it.
const PEAK_RSS_CEILING_MIB: f64 = 320.0;

/// What one repeat leaves behind.
struct Repeat {
    events: u64,
    fingerprint: (u64, usize, u64, u64, u64),
    profile: Snapshot,
}

/// Build the city: `side * side` radios, APs on the lattice, stations
/// everywhere else.
fn build(side: usize, seed: Seed) -> World {
    let mut w = World::new(seed, MediumParams::default());
    let mut idx = 0u64;
    for gy in 0..side {
        for gx in 0..side {
            let pos = Pos::new(gx as f64 * PITCH_M, gy as f64 * PITCH_M);
            let is_ap = gx % AP_STRIDE == 2 && gy % AP_STRIDE == 2;
            let ip = Ipv4Addr::new(10, (idx >> 16) as u8, (idx >> 8) as u8, idx as u8);
            let mac = MacAddr::local(idx + 1);
            if is_ap {
                let channel = [1u8, 6, 11][(gx / AP_STRIDE + gy / AP_STRIDE) % 3];
                let n = w.add_node(&format!("ap{idx}"));
                // Independent beacon phases, as on a real street: APs
                // come up spread across one beacon interval (97 is
                // coprime to 100, so the offsets cover it uniformly).
                // Perfectly synchronized beacons would make every AP in
                // the city a time-overlapping interferer of every other
                // — a quadratic blowup no deployment exhibits.
                let start = SimTime::from_millis((idx * 97) % 100);
                w.add_ap_local_starting_at(
                    n,
                    pos,
                    15.0,
                    ApConfig::typical(mac, "CITY", channel, None),
                    ip,
                    8,
                    start,
                );
            } else {
                let n = w.add_node(&format!("sta{idx}"));
                // Stations power on spread across two scan-dwell
                // cycles (719 is coprime to 720) for the same reason
                // the APs stagger: devices joining a city network do
                // not finish their channel sweeps in unison, and a
                // synchronized association storm would make every
                // in-flight frame an interferer of every other.
                let start = SimTime::from_millis((idx * 719) % 720);
                w.add_sta_starting_at(
                    n,
                    pos,
                    15.0,
                    StaConfig::typical(mac, "CITY", None),
                    ip,
                    8,
                    start,
                );
            }
            idx += 1;
        }
    }
    w
}

/// Build the world, run it to `horizon` timed on `clock`, and
/// fingerprint everything observable: the full MAC event trace plus the
/// medium's counters.
fn run(side: usize, horizon: SimTime, seed: Seed, clock: &mut Stopwatch) -> Repeat {
    let mut w = build(side, seed);
    clock.time(|| w.run_until(horizon));

    let mut h = DefaultHasher::new();
    for (t, n, e) in &w.mac_events {
        (t.as_nanos(), n.0, format!("{e:?}")).hash(&mut h);
    }
    Repeat {
        events: w.events_dispatched(),
        fingerprint: (
            h.finish(),
            w.mac_events.len(),
            w.medium.frames_sent,
            w.medium.halfduplex_misses,
            w.medium.sinr_drops,
        ),
        profile: w.profile_snapshot(),
    }
}

/// A profiler snapshot as a JSON object: per-phase and per-kind
/// `{ns, count}` rows plus the measured clock-read overhead. The phases
/// are exclusive: all but `queue_pop` sum to `dispatch_ns`. A world
/// dispatches on one thread and completes a frame in one call, so
/// `exec_wall` and `medium_commit` read 0.
fn profile_row(p: &Snapshot) -> Row {
    let rows = |rows: &[(&'static str, u64, u64)]| {
        rows.iter()
            .fold(Row::default(), |row, &(label, ns, count)| {
                row.obj(label, Row::default().int("ns", ns).int("count", count))
            })
    };
    Row::default()
        .obj("phases", rows(&p.phases))
        .obj("kinds", rows(&p.kinds))
        .int("overhead_ns", p.overhead_ns)
        .int("dispatch_ns", p.dispatch_ns)
        .int("overhead_permille", p.overhead_permille())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    // 317^2 = 100,489 radios (~4k APs) for the real run — the first
    // half-second of a city powering on, the densest join wave the
    // world model produces. The smoke sweep keeps the same shape at
    // 45^2 = 2,025 radios.
    let (side, horizon_ms) = if smoke { (45, 600) } else { (317, 500) };
    let horizon = SimTime::from_millis(horizon_ms);
    let radios = side * side;
    let seed = Seed(0xC17);

    println!(
        "city_scale ({radios} radios, {PITCH_M} m pitch, {horizon_ms} ms simulated, {REPEATS} repeats)"
    );
    let runs = sample(REPEATS, |clock| run(side, horizon, seed, clock));
    let first = &runs[0].out;
    for (k, r) in runs.iter().enumerate() {
        // The gate: no number is reported unless every repeat is
        // byte-for-byte the first and its profile accounts for every
        // dispatched nanosecond exactly once.
        assert_eq!(
            r.out.fingerprint, first.fingerprint,
            "repeat {k} diverged from repeat 0: the run must be deterministic"
        );
        assert_eq!(r.out.events, first.events, "event counts diverged");
        let p = &r.out.profile;
        assert!(
            p.phases_partition_dispatch(),
            "repeat {k}: phases {:?} do not partition dispatch ({} ns)",
            p.phases,
            p.dispatch_ns
        );
        assert!(
            smoke || p.overhead_permille() <= OVERHEAD_BUDGET_PERMILLE,
            "repeat {k}: profiler overhead {} ‰ exceeds the {OVERHEAD_BUDGET_PERMILLE} ‰ budget",
            p.overhead_permille()
        );
    }
    let peak_rss_mib = rogue_bench::peak_rss_mib();
    assert!(
        smoke || peak_rss_mib <= PEAK_RSS_CEILING_MIB,
        "peak RSS {peak_rss_mib:.1} MiB exceeds the {PEAK_RSS_CEILING_MIB} MiB ceiling"
    );
    let events_per_sec = |r: &rogue_bench::Rep<Repeat>| r.out.events as f64 / r.wall_s;
    for (k, r) in runs.iter().enumerate() {
        println!(
            "  repeat {k}: {:>9} events in {:>6.2}s wall, {:>6.2}s CPU   {:>10.0} events/s",
            r.out.events,
            r.wall_s,
            r.cpu_s,
            events_per_sec(r),
        );
    }
    println!("    fingerprint: {:?}", first.fingerprint);
    let eps = spread(&runs, events_per_sec);
    println!(
        "  median {:.0} events/s [{:.0}, {:.0}]; peak RSS {peak_rss_mib:.1} MiB",
        eps.0, eps.1, eps.2
    );
    let last = &runs[REPEATS - 1].out.profile;
    println!("  last repeat's profile:");
    for &(label, ns, count) in last.phases.iter().chain(&last.kinds) {
        if count > 0 {
            println!(
                "    {label:<22} {:>9.3} ms  ({count} spans)",
                ns as f64 / 1e6
            );
        }
    }
    println!(
        "    dispatch {:.3} ms; profiler overhead: {} ‰ of it (budget ≤ {OVERHEAD_BUDGET_PERMILLE} ‰{})",
        last.dispatch_ns as f64 / 1e6,
        last.overhead_permille(),
        if smoke { ", asserted at full size only" } else { "" }
    );

    let per_run: Vec<Row> = runs
        .iter()
        .map(|r| {
            Row::default()
                .num("wall_s", r.wall_s, 3)
                .num("cpu_s", r.cpu_s, 3)
                .num("events_per_sec", events_per_sec(r), 0)
        })
        .collect();
    let result = Row::default()
        .int("events", first.events)
        .rate("events_per_sec", eps, 0)
        .timing(&runs)
        .num("peak_rss_mib", peak_rss_mib, 1)
        .list("runs", &per_run)
        .obj("profile", profile_row(last));
    let head = Row::default()
        .int("radios", radios as u64)
        .num("pitch_m", PITCH_M, 0)
        .int("sim_horizon_ms", horizon_ms);
    let path = rogue_bench::bench_json_path!("city_scale", smoke);
    record(&path, "city_scale", REPEATS, head, &[result]);
}
