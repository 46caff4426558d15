//! phy_zero_copy — frames/sec and bytes-copied through the delivery path.
//!
//! Dense-monitor topology (the E10 WIDS deployment shape): one
//! transmitter streams back-to-back data frames while 1 / 3 / 8
//! monitor-mode sniffers on the same channel capture every delivery.
//! Two figures per sweep point:
//!
//! * **frames/sec** — wall-clock throughput of `begin_tx` →
//!   `complete_tx` → per-monitor `Sniffer::on_receive` (decode+capture),
//!   the median of the reps with its quartiles.
//! * **bytes copied / frame** — payload bytes that landed in a *fresh*
//!   allocation instead of a refcounted view of the transmit buffer,
//!   detected by pointer containment of each capture's payload within
//!   the transmitted `Bytes` allocation.
//!
//! Every rep must copy 0 payload bytes and deliver each frame to every
//! monitor; the bench fails before recording anything otherwise.
//!
//! A full run records the results, beside the committed pre-refactor
//! baseline, in `BENCH_phy_zero_copy.json` at the workspace root.
//! `-- --test` runs a shortened smoke sweep and writes its JSON to
//! `target/tmp` instead.

use std::hint::black_box;

use bytes::Bytes;
use rogue_bench::{record, sample, spread, Row, Stopwatch};
use rogue_dot11::frame::{Frame, FrameBody};
use rogue_dot11::monitor::Sniffer;
use rogue_dot11::MacAddr;
use rogue_phy::{Bitrate, Medium, MediumParams, Pos};
use rogue_sim::{Seed, SimTime};

/// Data payload per frame (LLC + app bytes — a small data frame, the
/// dense-traffic shape a WIDS deployment actually chews through).
const PAYLOAD_LEN: usize = 256;

/// The monitor counts swept (the dense-monitor E10 axis), with the
/// pre-refactor baseline, the best of 5 reps measured on this machine at
/// the commit that introduced this bench (before zero-copy delivery + tx
/// pruning): (monitors, frames_per_sec, bytes_copied_per_frame).
const BASELINE: [(usize, f64, f64); 3] = [
    (1, 590882.0, 256.0),
    (3, 243569.0, 768.0),
    (8, 94430.0, 2048.0),
];

/// One rep: `frames` back-to-back data frames through a medium with
/// `monitors` same-channel sniffers 10 m out, timed on `clock`. Returns
/// (deliveries, payload bytes copied).
fn run(monitors: usize, frames: usize, clock: &mut Stopwatch) -> (u64, u64) {
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

    let mut deliveries = 0u64;
    clock.time(|| {
        let mut t = SimTime::ZERO;
        for _ in 0..frames {
            let (h, end) = m.begin_tx(t, tx, frame_bytes.clone(), Bitrate::B11);
            for d in m.complete_tx(end, h) {
                let idx = d.to.0 as usize - 1;
                sniffers[idx].on_receive(end, &d.bytes, d.rssi_dbm, d.channel);
                deliveries += 1;
            }
            t = end;
        }
    });

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
    (deliveries, copied)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let (frames, reps) = if smoke { (500, 2) } else { (4000, 5) };

    println!("phy_zero_copy ({PAYLOAD_LEN}-byte payloads, {frames} frames/run, median of {reps} reps [q1, q3])");
    let mut results = Vec::new();
    for (monitors, base_fps, base_copied) in BASELINE {
        let runs = sample(reps, |clock| run(monitors, frames, clock));
        for (k, r) in runs.iter().enumerate() {
            assert_eq!(
                r.out,
                ((frames * monitors) as u64, 0),
                "monitors={monitors} rep {k}: (deliveries, payload bytes copied)"
            );
        }
        let (deliveries, copied) = runs[0].out;
        let copied_per_frame = copied as f64 / frames as f64;
        let fps = spread(&runs, |r| frames as f64 / r.wall_s);
        println!(
            "  monitors={monitors}  {:>10.0} frames/s [{:.0}, {:.0}]   {copied_per_frame:>7.1} bytes copied/frame   {deliveries} deliveries",
            fps.0, fps.1, fps.2
        );
        results.push(
            Row::default()
                .int("monitors", monitors as u64)
                .rate("frames_per_sec", fps, 0)
                .timing(&runs)
                .num("bytes_copied_per_frame", copied_per_frame, 1)
                .int("deliveries", deliveries)
                .num("baseline_frames_per_sec", base_fps, 0)
                .num("baseline_bytes_copied_per_frame", base_copied, 1)
                .num("speedup", fps.0 / base_fps, 2),
        );
    }

    let head = Row::default()
        .int("payload_len", PAYLOAD_LEN as u64)
        .int("frames_per_run", frames as u64)
        .text(
            "baseline",
            "best of 5 reps at the commit that introduced this bench: before zero-copy delivery and tx pruning",
        );
    let path = rogue_bench::bench_json_path!("phy_zero_copy", smoke);
    record(&path, "phy_zero_copy", reps, head, &results);
}
