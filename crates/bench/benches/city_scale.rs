//! city_scale — the event loop at city scale (≥100k radios), serial and
//! sharded.
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
//! Protocol: run the world on one shard, then re-run it under 2 and 8
//! shards and **assert the MAC trace and medium counters are
//! bit-identical before reporting any number**. Only then print
//! events/s for each mode and the sharded-vs-serial ratio. Every shard
//! count runs the same serial dispatcher, so the ratio measures what
//! the shard layout costs; a sharded run that diverges by one bit is a
//! correctness bug, not a data point (DESIGN.md §15).
//!
//! A full run writes `BENCH_city_scale.json` at the workspace root, the
//! committed recording. `-- --test` runs a downscaled smoke sweep (same
//! assertions, ~2k radios) and writes its JSON to `target/tmp` instead.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::net::Ipv4Addr;
use std::time::Instant;

use rogue_core::world::World;
use rogue_dot11::{ApConfig, MacAddr, StaConfig};
use rogue_phy::{MediumParams, Pos};
use rogue_sim::{Seed, SimDuration, SimTime};

/// Grid pitch in metres (decode horizon at 15 dBm is ~200 m).
const PITCH_M: f64 = 30.0;

/// AP lattice stride in grid cells: one AP per 5x5 block (150 m pitch).
const AP_STRIDE: usize = 5;

/// One measured run.
struct Mode {
    label: String,
    shards: usize,
    events: u64,
    elapsed_s: f64,
    events_per_sec: f64,
    windows: u64,
    fingerprint: (u64, usize, u64, u64, u64),
    profile: rogue_sim::profile::Snapshot,
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

/// Run one mode to `horizon` and fingerprint everything observable:
/// the full MAC event trace plus the medium's counters.
fn run(side: usize, shards: usize, horizon: SimTime, seed: Seed) -> Mode {
    let mut w = build(side, seed);
    if shards > 1 {
        w.set_shards(shards);
        w.set_shard_window(SimDuration::from_millis(1));
    }
    let start = Instant::now();
    w.run_until(horizon);
    let elapsed = start.elapsed().as_secs_f64();

    let mut h = DefaultHasher::new();
    for (t, n, e) in &w.mac_events {
        (t.as_nanos(), n.0, format!("{e:?}")).hash(&mut h);
    }
    let events = w.events_dispatched();
    let windows = w.metrics.counter("sim.windows");
    Mode {
        label: if shards > 1 {
            format!("sharded x{shards}")
        } else {
            "serial".to_string()
        },
        shards,
        events,
        elapsed_s: elapsed,
        events_per_sec: events as f64 / elapsed,
        windows,
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
/// Dispatch is serial at every shard count, so `exec_wall` reads 0.
fn profile_json(p: &rogue_sim::profile::Snapshot) -> String {
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

fn write_json(path: &std::path::Path, radios: usize, horizon_ms: u64, modes: &[Mode]) {
    let serial_eps = modes[0].events_per_sec;
    let rows: Vec<String> = modes
        .iter()
        .map(|m| {
            format!(
                concat!(
                    "    {{\"mode\": \"{}\", \"shards\": {}, \"events\": {}, ",
                    "\"elapsed_s\": {:.3}, \"events_per_sec\": {:.0}, ",
                    "\"speedup_vs_serial\": {:.2}, \"bit_identical\": true,\n",
                    "     \"profile\": {}}}"
                ),
                m.label,
                m.shards,
                m.events,
                m.elapsed_s,
                m.events_per_sec,
                m.events_per_sec / serial_eps,
                profile_json(&m.profile),
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"city_scale\",\n",
            "  \"radios\": {},\n  \"pitch_m\": {},\n",
            "  \"sim_horizon_ms\": {},\n  \"host_threads\": {},\n",
            "  \"host_cpus\": {},\n",
            "  \"results\": [\n{}\n  ]\n}}\n"
        ),
        radios,
        PITCH_M,
        horizon_ms,
        rayon::current_num_threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        rows.join(",\n")
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

    println!("city_scale ({radios} radios, {PITCH_M} m pitch, {horizon_ms} ms simulated)");
    let serial = run(side, 1, horizon, seed);
    println!(
        "  {:<11} {:>9} events in {:>6.2}s   {:>10.0} events/s",
        serial.label, serial.events, serial.elapsed_s, serial.events_per_sec
    );
    println!("    fingerprint: {:?}", serial.fingerprint);
    for &(label, ns, count) in serial.profile.phases.iter().chain(&serial.profile.kinds) {
        if count > 0 {
            println!(
                "    {label:<22} {:>9.3} ms  ({count} spans)",
                ns as f64 / 1e6
            );
        }
    }
    println!(
        "    profiler overhead: {} ‰ of dispatch time (budget ≤ 20 ‰)",
        serial.profile.overhead_permille()
    );

    let mut modes = vec![serial];
    let shard_counts: &[usize] = &[2, 8];
    for &shards in shard_counts {
        let m = run(side, shards, horizon, seed);
        // The gate: no number is reported unless the sharded trace is
        // byte-for-byte the serial trace.
        assert_eq!(
            m.fingerprint, modes[0].fingerprint,
            "shards={shards} diverged from serial — sharding must be bit-identical"
        );
        assert_eq!(m.events, modes[0].events, "event counts diverged");
        println!(
            "  {:<11} {:>9} events in {:>6.2}s   {:>10.0} events/s   {:.2}x vs serial (bit-identical; {} windows)",
            m.label,
            m.events,
            m.elapsed_s,
            m.events_per_sec,
            m.events_per_sec / modes[0].events_per_sec,
            m.windows,
        );
        modes.push(m);
    }

    let path = rogue_bench::bench_json_path!("city_scale", smoke);
    write_json(&path, radios, horizon_ms, &modes);
    println!("wrote {}", path.display());
}
