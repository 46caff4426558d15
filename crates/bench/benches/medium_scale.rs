//! medium_scale — medium throughput as the radio registry grows.
//!
//! Campus-floor topology: `R` radios on a uniform grid (30 m spacing,
//! channels round-robin over the non-overlapping {1, 6, 11} set), with 16
//! transmitter stations spread evenly across the floor streaming
//! back-to-back 256-byte data frames. This is the shape the dense-hotspot
//! scenarios (E8, and site-scale WIDS coverage) converge to: thousands of
//! registered radios, of which only the ones within decode range of a
//! given transmitter can possibly hear a frame.
//!
//! Figures per sweep point, each the median of the reps with its
//! quartiles:
//!
//! * **frames/sec** — wall-clock cost of one `begin_tx` →
//!   `channel_busy` → `complete_tx` cycle, and **ns/frame** at the median
//!   rate. Sub-linear ns/frame growth vs. radio count is the point of the
//!   spatial cull.
//! * **power-map entries/tx** — `(radio, dBm)` pairs retained per
//!   transmission: O(R) for the dense pre-change medium, O(audible)
//!   after the sparse cull.
//!
//! A full run records the results, beside the committed pre-change
//! baseline, in `BENCH_medium_scale.json` at the workspace root.
//! `-- --test` runs a shortened smoke sweep and writes its JSON to
//! `target/tmp` instead.

use std::hint::black_box;

use bytes::Bytes;
use rogue_bench::{record, sample, spread, Row, Stopwatch};
use rogue_phy::{Bitrate, Medium, MediumParams, Pos};
use rogue_sim::{Seed, SimTime};

/// Payload bytes per frame (a small data frame).
const PAYLOAD_LEN: usize = 256;

/// Grid spacing in metres. At 15 dBm / default propagation the decode
/// horizon is ~200 m, so each transmitter can reach a bounded
/// neighbourhood (~140 radios) regardless of how big the floor grows.
const SPACING_M: f64 = 30.0;

/// Transmitters streaming concurrently, spread evenly over the floor.
const SOURCES: usize = 16;

/// The radio counts swept, with the pre-change baseline, the best of 4
/// reps measured on this machine at the commit that introduced this
/// bench (dense O(R) power maps, linear tx lookup):
/// (radios, frames_per_sec, power_map_entries_per_tx).
const BASELINE: [(usize, f64, f64); 4] = [
    (50, 1093102.0, 50.0),
    (200, 295698.0, 200.0),
    (1000, 58784.0, 1000.0),
    (5000, 11740.0, 5000.0),
];

/// Build the campus grid: `radios` radios at `SPACING_M` pitch, channels
/// round-robin over {1, 6, 11}.
fn build(radios: usize) -> (Medium, Vec<rogue_phy::RadioId>) {
    let mut m = Medium::new(MediumParams::default(), Seed(42));
    let side = (radios as f64).sqrt().ceil() as usize;
    let mut ids = Vec::with_capacity(radios);
    for i in 0..radios {
        let (gx, gy) = (i % side, i / side);
        let pos = Pos::new(gx as f64 * SPACING_M, gy as f64 * SPACING_M);
        let channel = [1u8, 6, 11][i % 3];
        ids.push(m.add_radio(pos, channel, 15.0));
    }
    (m, ids)
}

/// One rep: `frames` back-to-back data frames from `SOURCES` rotating
/// transmitters, timed on `clock`. Returns (deliveries, power-map entries
/// per tx).
fn run(radios: usize, frames: usize, clock: &mut Stopwatch) -> (u64, f64) {
    let (mut m, ids) = build(radios);
    let sources: Vec<_> = (0..SOURCES.min(radios))
        .map(|s| ids[s * radios / SOURCES.min(radios)])
        .collect();
    let payload = Bytes::from(vec![0xA5u8; PAYLOAD_LEN]);

    let mut entries = 0u64;
    let mut entry_samples = 0u64;
    let mut deliveries = 0u64;
    clock.time(|| {
        let mut t = SimTime::ZERO;
        for i in 0..frames {
            let src = sources[i % sources.len()];
            let busy = m.channel_busy(t, src);
            black_box(busy);
            let (h, end) = m.begin_tx(t, src, payload.clone(), Bitrate::B11);
            if m.tx_backlog() > 0 {
                entries += m.power_map_entries() as u64 / m.tx_backlog() as u64;
                entry_samples += 1;
            }
            deliveries += m.complete_tx(end, h).len() as u64;
            t = end;
        }
    });
    black_box(&m);
    (deliveries, entries as f64 / entry_samples.max(1) as f64)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let (frames, reps) = if smoke { (500, 2) } else { (4000, 4) };

    println!("medium_scale ({PAYLOAD_LEN}-byte payloads, {frames} frames/run, {SOURCES} sources, median of {reps} reps [q1, q3])");
    let mut results = Vec::new();
    for (radios, base_fps, base_entries) in BASELINE {
        let runs = sample(reps, |clock| run(radios, frames, clock));
        let (deliveries, entries) = runs[0].out;
        let fps = spread(&runs, |r| frames as f64 / r.wall_s);
        println!(
            "  radios={radios:<5} {:>10.0} frames/s [{:.0}, {:.0}]   {:>6.0} ns/frame   {entries:>8.1} power-map entries/tx   {deliveries} deliveries",
            fps.0,
            fps.1,
            fps.2,
            1e9 / fps.0,
        );
        results.push(
            Row::default()
                .int("radios", radios as u64)
                .rate("frames_per_sec", fps, 0)
                .num("ns_per_frame", 1e9 / fps.0, 0)
                .timing(&runs)
                .int("deliveries", deliveries)
                .num("power_map_entries_per_tx", entries, 1)
                .num("baseline_frames_per_sec", base_fps, 0)
                .num("baseline_power_map_entries_per_tx", base_entries, 1)
                .num("speedup", fps.0 / base_fps, 2),
        );
    }

    let head = Row::default()
        .int("payload_len", PAYLOAD_LEN as u64)
        .num("spacing_m", SPACING_M, 0)
        .int("sources", SOURCES as u64)
        .int("frames_per_run", frames as u64)
        .text(
            "baseline",
            "best of 4 reps at the commit that introduced this bench: dense O(R) power maps, linear tx lookup",
        );
    let path = rogue_bench::bench_json_path!("medium_scale", smoke);
    record(&path, "medium_scale", reps, head, &results);
}
