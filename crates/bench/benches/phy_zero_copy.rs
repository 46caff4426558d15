//! phy_zero_copy — frames/sec and bytes-copied through the delivery path.
//!
//! Dense-monitor topology (the E10 WIDS deployment shape): one
//! transmitter streams back-to-back data frames while 1 / 3 / 8
//! monitor-mode sniffers on the same channel capture every delivery.
//! Two figures per sweep point:
//!
//! * **frames/sec** — wall-clock throughput of `begin_tx` →
//!   `complete_tx` → per-monitor `Sniffer::on_receive` (decode+capture).
//! * **bytes copied / frame** — payload bytes that landed in a *fresh*
//!   allocation instead of a refcounted view of the transmit buffer,
//!   detected by pointer containment of each capture's payload within
//!   the transmitted `Bytes` allocation.
//!
//! A full run writes the results (plus the committed pre-refactor
//! baseline) to `BENCH_phy_zero_copy.json` at the workspace root.
//! `-- --test` runs a shortened smoke sweep and writes its JSON to
//! `target/tmp` instead.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use rogue_dot11::frame::{Frame, FrameBody};
use rogue_dot11::monitor::Sniffer;
use rogue_dot11::MacAddr;
use rogue_phy::{Bitrate, Medium, MediumParams, Pos};
use rogue_sim::{Seed, SimTime};

/// Data payload per frame (LLC + app bytes — a small data frame, the
/// dense-traffic shape a WIDS deployment actually chews through).
const PAYLOAD_LEN: usize = 256;

/// Monitor counts swept (the dense-monitor E10 axis).
const MONITORS: [usize; 3] = [1, 3, 8];

/// Pre-refactor baseline, measured on this machine at the commit that
/// introduced this bench (before zero-copy delivery + tx pruning):
/// (monitors, frames_per_sec, bytes_copied_per_frame).
const BASELINE: [(usize, f64, f64); 3] = [
    (1, 590882.0, 256.0),
    (3, 243569.0, 768.0),
    (8, 94430.0, 2048.0),
];

struct Sweep {
    monitors: usize,
    frames_per_sec: f64,
    bytes_copied_per_frame: f64,
    deliveries: u64,
}

/// One timed run: `frames` back-to-back data frames through a medium
/// with `monitors` same-channel sniffers 10 m out. Returns (elapsed
/// seconds, deliveries, payload bytes copied).
fn run(monitors: usize, frames: usize) -> (f64, u64, u64) {
    let mut m = Medium::new(MediumParams::default(), Seed(42));
    let tx = m.add_radio(Pos::new(0.0, 0.0), 6, 15.0);
    for i in 0..monitors {
        // A ring of sniffers around the transmitter.
        let ang = i as f64 / monitors as f64 * std::f64::consts::TAU;
        m.add_radio(Pos::new(10.0 * ang.cos(), 10.0 * ang.sin()), 6, 15.0);
    }
    let mut sniffers: Vec<Sniffer> = (0..monitors).map(|_| Sniffer::new()).collect();

    let frame_bytes = Frame::new(
        MacAddr::BROADCAST,
        MacAddr::local(1),
        MacAddr::local(1),
        FrameBody::Data {
            payload: Bytes::from(vec![0xA5u8; PAYLOAD_LEN]),
        },
    )
    .encode();
    let tx_base = frame_bytes.as_ptr() as usize;
    let tx_range = tx_base..tx_base + frame_bytes.len();

    let start = Instant::now();
    let mut t = SimTime::ZERO;
    let mut deliveries = 0u64;
    for _ in 0..frames {
        let (h, end) = m.begin_tx(t, tx, frame_bytes.clone(), Bitrate::B11);
        for d in m.complete_tx(end, h) {
            let idx = d.to.0 as usize - 1;
            sniffers[idx].on_receive(end, &d.bytes, d.rssi_dbm, d.channel);
            deliveries += 1;
        }
        t = end;
    }
    let elapsed = start.elapsed().as_secs_f64();

    // Copy audit: a capture payload that does not point into the
    // transmit allocation was copied on the way in.
    let mut copied = 0u64;
    for s in &sniffers {
        for c in &s.captures {
            if let FrameBody::Data { payload } = &c.frame.body {
                let p = payload.as_ptr() as usize;
                if !tx_range.contains(&p) {
                    copied += payload.len() as u64;
                }
            }
        }
    }
    black_box(&sniffers);
    (elapsed, deliveries, copied)
}

fn sweep(frames: usize, reps: usize) -> Vec<Sweep> {
    MONITORS
        .iter()
        .map(|&monitors| {
            let mut best = f64::INFINITY;
            let mut deliveries = 0;
            let mut copied = 0;
            for _ in 0..reps {
                let (elapsed, d, c) = run(monitors, frames);
                best = best.min(elapsed);
                deliveries = d;
                copied = c;
            }
            Sweep {
                monitors,
                frames_per_sec: frames as f64 / best,
                bytes_copied_per_frame: copied as f64 / frames as f64,
                deliveries,
            }
        })
        .collect()
}

fn write_json(path: &std::path::Path, frames: usize, results: &[Sweep]) {
    let mut rows = Vec::new();
    for s in results {
        let (_, base_fps, base_copied) = BASELINE
            .iter()
            .find(|(m, _, _)| *m == s.monitors)
            .copied()
            .unwrap_or((s.monitors, 0.0, 0.0));
        let speedup = if base_fps > 0.0 {
            s.frames_per_sec / base_fps
        } else {
            0.0
        };
        rows.push(format!(
            concat!(
                "    {{\"monitors\": {}, \"frames_per_sec\": {:.0}, ",
                "\"bytes_copied_per_frame\": {:.1}, \"deliveries\": {}, ",
                "\"baseline_frames_per_sec\": {:.0}, ",
                "\"baseline_bytes_copied_per_frame\": {:.1}, ",
                "\"speedup\": {:.2}}}"
            ),
            s.monitors,
            s.frames_per_sec,
            s.bytes_copied_per_frame,
            s.deliveries,
            base_fps,
            base_copied,
            speedup,
        ));
    }
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"phy_zero_copy\",\n",
            "  \"payload_len\": {},\n  \"frames_per_run\": {},\n",
            "  \"results\": [\n{}\n  ]\n}}\n"
        ),
        PAYLOAD_LEN,
        frames,
        rows.join(",\n")
    );
    std::fs::write(path, json).expect("write BENCH_phy_zero_copy.json");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let (frames, reps) = if smoke { (500, 2) } else { (4000, 5) };

    let results = sweep(frames, reps);
    println!("phy_zero_copy ({PAYLOAD_LEN}-byte payloads, {frames} frames/run)");
    for s in &results {
        println!(
            "  monitors={}  {:>10.0} frames/s   {:>7.1} bytes copied/frame   {} deliveries",
            s.monitors, s.frames_per_sec, s.bytes_copied_per_frame, s.deliveries
        );
    }

    let path = rogue_bench::bench_json_path!("phy_zero_copy", smoke);
    write_json(&path, frames, &results);
    println!("wrote {}", path.display());
}
