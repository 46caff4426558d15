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
//! Figures per sweep point:
//!
//! * **frames/sec** and **ns/frame** — wall-clock cost of one
//!   `begin_tx` → `channel_busy` → `complete_tx` cycle. Sub-linear
//!   ns/frame growth vs. radio count is the point of the spatial cull.
//! * **power-map entries/tx** — `(radio, dBm)` pairs retained per
//!   transmission: O(R) for the dense pre-change medium, O(audible)
//!   after the sparse cull.
//!
//! A full run writes the results (plus the committed pre-change
//! baseline) to `BENCH_medium_scale.json` at the workspace root.
//! `-- --test` runs a shortened smoke sweep and writes its JSON to
//! `target/tmp` instead.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
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

/// Radio counts swept.
const RADIOS: [usize; 4] = [50, 200, 1000, 5000];

/// Pre-change baseline, measured on this machine at the commit that
/// introduced this bench (dense O(R) power maps, linear tx lookup):
/// (radios, frames_per_sec, power_map_entries_per_tx).
const BASELINE: [(usize, f64, f64); 4] = [
    (50, 1093102.0, 50.0),
    (200, 295698.0, 200.0),
    (1000, 58784.0, 1000.0),
    (5000, 11740.0, 5000.0),
];

struct Sweep {
    radios: usize,
    frames_per_sec: f64,
    ns_per_frame: f64,
    deliveries: u64,
    power_map_entries_per_tx: f64,
}

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

/// One timed run: `frames` back-to-back data frames from `SOURCES`
/// rotating transmitters. Returns (elapsed seconds, deliveries,
/// power-map entries per tx).
fn run(radios: usize, frames: usize) -> (f64, u64, f64) {
    let (mut m, ids) = build(radios);
    let sources: Vec<_> = (0..SOURCES.min(radios))
        .map(|s| ids[s * radios / SOURCES.min(radios)])
        .collect();
    let payload = Bytes::from(vec![0xA5u8; PAYLOAD_LEN]);

    let mut entries = 0u64;
    let mut entry_samples = 0u64;
    let start = Instant::now();
    let mut t = SimTime::ZERO;
    let mut deliveries = 0u64;
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
    let elapsed = start.elapsed().as_secs_f64();
    black_box(&m);
    (
        elapsed,
        deliveries,
        entries as f64 / entry_samples.max(1) as f64,
    )
}

fn sweep(frames: usize, reps: usize) -> Vec<Sweep> {
    RADIOS
        .iter()
        .map(|&radios| {
            let mut best = f64::INFINITY;
            let mut deliveries = 0;
            let mut entries = 0.0;
            for _ in 0..reps {
                let (elapsed, d, e) = run(radios, frames);
                best = best.min(elapsed);
                deliveries = d;
                entries = e;
            }
            Sweep {
                radios,
                frames_per_sec: frames as f64 / best,
                ns_per_frame: best * 1e9 / frames as f64,
                deliveries,
                power_map_entries_per_tx: entries,
            }
        })
        .collect()
}

fn write_json(path: &std::path::Path, frames: usize, results: &[Sweep]) {
    let mut rows = Vec::new();
    for s in results {
        let (_, base_fps, base_entries) = BASELINE
            .iter()
            .find(|(r, _, _)| *r == s.radios)
            .copied()
            .unwrap_or((s.radios, 0.0, 0.0));
        let speedup = if base_fps > 0.0 {
            s.frames_per_sec / base_fps
        } else {
            0.0
        };
        rows.push(format!(
            concat!(
                "    {{\"radios\": {}, \"frames_per_sec\": {:.0}, ",
                "\"ns_per_frame\": {:.0}, \"deliveries\": {}, ",
                "\"power_map_entries_per_tx\": {:.1}, ",
                "\"baseline_frames_per_sec\": {:.0}, ",
                "\"baseline_power_map_entries_per_tx\": {:.1}, ",
                "\"speedup\": {:.2}}}"
            ),
            s.radios,
            s.frames_per_sec,
            s.ns_per_frame,
            s.deliveries,
            s.power_map_entries_per_tx,
            base_fps,
            base_entries,
            speedup,
        ));
    }
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"medium_scale\",\n",
            "  \"payload_len\": {},\n  \"spacing_m\": {},\n",
            "  \"sources\": {},\n  \"frames_per_run\": {},\n",
            "  \"results\": [\n{}\n  ]\n}}\n"
        ),
        PAYLOAD_LEN,
        SPACING_M,
        SOURCES,
        frames,
        rows.join(",\n")
    );
    std::fs::write(path, json).expect("write BENCH_medium_scale.json");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let (frames, reps) = if smoke { (500, 2) } else { (4000, 4) };

    let results = sweep(frames, reps);
    println!("medium_scale ({PAYLOAD_LEN}-byte payloads, {frames} frames/run, {SOURCES} sources)");
    for s in &results {
        println!(
            "  radios={:<5} {:>10.0} frames/s   {:>9.0} ns/frame   {:>8.1} power-map entries/tx   {} deliveries",
            s.radios, s.frames_per_sec, s.ns_per_frame, s.power_map_entries_per_tx, s.deliveries
        );
    }

    let path = rogue_bench::bench_json_path!("medium_scale", smoke);
    write_json(&path, frames, &results);
    println!("wrote {}", path.display());
}
