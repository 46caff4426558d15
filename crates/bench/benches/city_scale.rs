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
//! determinism bug, not a data point. Then print the median and
//! quartiles of wall time, CPU time (this process's threads, from
//! `/proc/self/task/*/schedstat`) and events/s, each repeat's sampled
//! `queue_schedule` phase, and the median repeat's profiler breakdown.
//!
//! A full run writes `BENCH_city_scale.json` at the workspace root, the
//! committed recording. `-- --test` runs a downscaled smoke sweep (same
//! assertions, ~2k radios) and writes its JSON to `target/tmp` instead.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::net::Ipv4Addr;
use std::time::Instant;

use rogue_bench::quartiles;
use rogue_core::world::World;
use rogue_dot11::{ApConfig, MacAddr, StaConfig};
use rogue_phy::{MediumParams, Pos};
use rogue_sim::profile::{Phase, Snapshot};
use rogue_sim::{Seed, SimTime};

/// Grid pitch in metres (decode horizon at 15 dBm is ~200 m).
const PITCH_M: f64 = 30.0;

/// AP lattice stride in grid cells: one AP per 5x5 block (150 m pitch).
const AP_STRIDE: usize = 5;

/// Runs of the same world per invocation; three fit a full-size run in
/// about a minute on a 2-vCPU host.
const REPEATS: usize = 3;

/// One measured run.
struct Repeat {
    events: u64,
    elapsed_s: f64,
    cpu_s: f64,
    events_per_sec: f64,
    fingerprint: (u64, usize, u64, u64, u64),
    profile: Snapshot,
}

impl Repeat {
    /// The sampled queue-schedule phase, extrapolated to every schedule.
    fn queue_schedule_ns(&self) -> u64 {
        self.profile.phases[Phase::QueueSchedule as usize].1
    }
}

/// CPU time of every live thread of this process, in ns: the sum of the
/// first field of `/proc/self/task/*/schedstat` (0 where that is absent).
fn cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
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

/// Build the world, run it to `horizon` and fingerprint everything
/// observable: the full MAC event trace plus the medium's counters.
fn run(side: usize, horizon: SimTime, seed: Seed) -> Repeat {
    let mut w = build(side, seed);
    let cpu0 = cpu_ns();
    let start = Instant::now();
    w.run_until(horizon);
    let elapsed_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_ns().saturating_sub(cpu0) as f64 / 1e9;

    let mut h = DefaultHasher::new();
    for (t, n, e) in &w.mac_events {
        (t.as_nanos(), n.0, format!("{e:?}")).hash(&mut h);
    }
    let events = w.events_dispatched();
    Repeat {
        events,
        elapsed_s,
        cpu_s,
        events_per_sec: events as f64 / elapsed_s,
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

/// Render a profiler snapshot as a JSON object: per-phase and per-kind
/// `{ns, count}` rows plus the measured probe overhead (the acceptance
/// budget is overhead_permille ≤ 20, i.e. ≤ 2 % of dispatch time).
/// A world dispatches on one thread, so `exec_wall` reads 0.
fn profile_json(p: &Snapshot) -> String {
    let row_set = |rows: &[(&'static str, u64, u64)]| -> String {
        rows.iter()
            .map(|(label, ns, count)| format!("\"{label}\": {{\"ns\": {ns}, \"count\": {count}}}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        concat!(
            "{{\"phases\": {{{}}}, \"kinds\": {{{}}}, ",
            "\"overhead_ns\": {}, \"dispatch_ns\": {}, \"overhead_permille\": {}}}"
        ),
        row_set(&p.phases),
        row_set(&p.kinds),
        p.overhead_ns,
        p.dispatch_ns,
        p.overhead_permille(),
    )
}

/// Median, first and third quartile of `f` over every repeat.
fn spread(runs: &[Repeat], f: fn(&Repeat) -> f64) -> (f64, f64, f64) {
    quartiles(&runs.iter().map(f).collect::<Vec<_>>())
}

/// `"<key>": median, "<key>_q1": …, "<key>_q3": …` over every repeat.
fn spread_json(key: &str, runs: &[Repeat], f: fn(&Repeat) -> f64, digits: usize) -> String {
    let (median, q1, q3) = spread(runs, f);
    format!(
        "\"{key}\": {median:.digits$}, \"{key}_q1\": {q1:.digits$}, \"{key}_q3\": {q3:.digits$}"
    )
}

/// The median repeat by wall time: the one whose profile is reported.
fn median_repeat(runs: &[Repeat]) -> &Repeat {
    let mut order: Vec<&Repeat> = runs.iter().collect();
    order.sort_by(|a, b| a.elapsed_s.total_cmp(&b.elapsed_s));
    order[order.len() / 2]
}

fn write_json(path: &std::path::Path, radios: usize, horizon_ms: u64, runs: &[Repeat]) {
    let per_run: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "{{\"elapsed_s\": {:.3}, \"cpu_s\": {:.3}, ",
                    "\"events_per_sec\": {:.0}, \"queue_schedule_ns\": {}}}"
                ),
                r.elapsed_s,
                r.cpu_s,
                r.events_per_sec,
                r.queue_schedule_ns(),
            )
        })
        .collect();
    let result = format!(
        concat!(
            "    {{\"mode\": \"serial\", \"events\": {}, {}, {}, {}, ",
            "\"repeats_identical\": true,\n",
            "     \"runs\": [{}],\n",
            "     \"profile\": {}}}"
        ),
        runs[0].events,
        spread_json("elapsed_s", runs, |r| r.elapsed_s, 3),
        spread_json("cpu_s", runs, |r| r.cpu_s, 3),
        spread_json("events_per_sec", runs, |r| r.events_per_sec, 0),
        per_run.join(", "),
        profile_json(&median_repeat(runs).profile),
    );
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"city_scale\",\n",
            "  \"radios\": {},\n  \"pitch_m\": {},\n",
            "  \"sim_horizon_ms\": {},\n  \"host_cpus\": {},\n",
            "  \"repeats\": {},\n",
            "  \"results\": [\n{}\n  ]\n}}\n"
        ),
        radios,
        PITCH_M,
        horizon_ms,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        runs.len(),
        result,
    );
    std::fs::write(path, json).expect("write BENCH_city_scale.json");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    // 317^2 = 100,489 radios (~4k APs) for the real run — the first
    // half-second of a city powering on, the densest join wave the
    // world model produces. The smoke sweep keeps the same shape at
    // 45^2 = 2,025 radios.
    let (side, horizon_ms) = if smoke { (45, 600) } else { (317, 500) };
    // Calibration overrides for sizing runs on slow hosts.
    let side = std::env::var("CITY_SIDE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(side);
    let horizon_ms = std::env::var("CITY_HORIZON_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(horizon_ms);
    let horizon = SimTime::from_millis(horizon_ms);
    let radios = side * side;
    let seed = Seed(0xC17);

    println!(
        "city_scale ({radios} radios, {PITCH_M} m pitch, {horizon_ms} ms simulated, {REPEATS} repeats)"
    );
    let mut runs: Vec<Repeat> = Vec::with_capacity(REPEATS);
    for k in 0..REPEATS {
        let r = run(side, horizon, seed);
        if let Some(first) = runs.first() {
            // The gate: no number is reported unless every repeat is
            // byte-for-byte the first.
            assert_eq!(
                r.fingerprint, first.fingerprint,
                "repeat {k} diverged from repeat 0: the run must be deterministic"
            );
            assert_eq!(r.events, first.events, "event counts diverged");
        }
        println!(
            "  repeat {k}: {:>9} events in {:>6.2}s wall, {:>6.2}s CPU   {:>10.0} events/s   queue_schedule {:>8.3} ms",
            r.events,
            r.elapsed_s,
            r.cpu_s,
            r.events_per_sec,
            r.queue_schedule_ns() as f64 / 1e6,
        );
        runs.push(r);
    }
    println!("    fingerprint: {:?}", runs[0].fingerprint);
    let (wall, wall_q1, wall_q3) = spread(&runs, |r| r.elapsed_s);
    let (cpu, cpu_q1, cpu_q3) = spread(&runs, |r| r.cpu_s);
    let (eps, eps_q1, eps_q3) = spread(&runs, |r| r.events_per_sec);
    println!("  median wall {wall:.3}s [{wall_q1:.3}, {wall_q3:.3}]   CPU {cpu:.3}s [{cpu_q1:.3}, {cpu_q3:.3}]");
    println!("  median {eps:.0} events/s [{eps_q1:.0}, {eps_q3:.0}]");
    let mid = median_repeat(&runs);
    println!("  median repeat's profile:");
    for &(label, ns, count) in mid.profile.phases.iter().chain(&mid.profile.kinds) {
        if count > 0 {
            println!(
                "    {label:<22} {:>9.3} ms  ({count} spans)",
                ns as f64 / 1e6
            );
        }
    }
    println!(
        "    profiler overhead: {} ‰ of dispatch time (budget ≤ 20 ‰)",
        mid.profile.overhead_permille()
    );

    let path = rogue_bench::bench_json_path!("city_scale", smoke);
    write_json(&path, radios, horizon_ms, &runs);
    println!("wrote {}", path.display());
}
