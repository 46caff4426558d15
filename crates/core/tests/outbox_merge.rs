//! Property test of shard- and thread-count invariance (DESIGN.md §15,
//! §17): every shard count runs the one serial dispatch loop, and a
//! shard count changes only how the event queue is laid out, so for ANY
//! traffic pattern a run at (2 shards, 1 thread), (2, 4) or (3, 4)
//! must produce exactly the fingerprint of the (1, 1) run. The golden
//! reports pin a handful of curated scenarios; this test lets the
//! generator hunt for a pattern whose outcome depends on the queue's
//! shard layout or the pool size — same-instant bursts in different
//! regions, frames whose audible disc straddles a stripe boundary, and
//! kicks that mutate the poll queue between run segments. (The file and
//! test names predate the single dispatch loop.)
//!
//! Each random `u64` word contributes one station (position, home AP,
//! staggered start) and one run segment (length + which node gets
//! kicked mid-stream), so a 6..14-word case exercises 6..14 segments
//! of mixed association, DHCP/ARP chatter and poll churn. Stations are
//! anchored near their AP so every case has live traffic, and two extra
//! stations are pinned just inside each side of the stripe boundary
//! (via [`RegionMap::stripe_span`]) so events land in both regions in
//! every case, not just when the generator gets lucky.

use proptest::prelude::*;
use rogue_core::world::{with_default_shards, World};
use rogue_dot11::{ApConfig, MacAddr, StaConfig};
use rogue_phy::{MediumParams, Pos, RegionMap};
use rogue_sim::{Seed, SimDuration, SimTime};
use std::net::Ipv4Addr;

/// Three fixed-channel BSSes, one per third of the x-extent. 500 m of
/// separation keeps the APs mutually inaudible while the ~200 m audible
/// disc of the middle AP reaches across both 2-region and 3-region
/// stripe edges.
const AP_X: [f64; 3] = [100.0, 600.0, 1100.0];
const AP_CHANNEL: [u8; 3] = [1, 6, 11];
const SSID: [&str; 3] = ["NET-A", "NET-B", "NET-C"];
const EXTENT: (f64, f64) = (0.0, 1200.0);

/// Everything the serial and sharded runs must agree on, bit for bit.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    mac_trace: Vec<String>,
    frames_sent: u64,
    halfduplex_misses: u64,
    sinr_drops: u64,
    events_dispatched: u64,
    app_events: usize,
}

/// Build the word-derived world and run it segment by segment with
/// mid-window kicks, under `threads` rayon workers and `shards` queue
/// shards (1 = the serial reference loop).
fn run(words: &[u64], shards: usize, threads: usize) -> Fingerprint {
    rayon::with_num_threads(threads, || {
        with_default_shards(shards, || {
            let mut w = World::new(Seed(0xB0C5), MediumParams::default());
            if shards > 1 {
                // Narrow windows so segments span many window barriers.
                w.set_shard_window(SimDuration::from_micros(500));
            }
            for i in 0..3 {
                let ap = w.add_node(SSID[i]);
                w.add_ap_local_starting_at(
                    ap,
                    Pos::new(AP_X[i], 0.0),
                    15.0,
                    ApConfig::typical(MacAddr::local(1 + i as u64), SSID[i], AP_CHANNEL[i], None),
                    Ipv4Addr::new(10, 0, i as u8, 1),
                    24,
                    SimTime::from_micros(137 * i as u64),
                );
            }
            // Two stations hugging the first interior stripe edge of the
            // 2-region partition (the map is an approximation of the
            // world's own radio-extent-derived partition — close enough
            // that their traffic provably crosses stripes either way).
            let map = RegionMap::new(2, EXTENT.0, EXTENT.1);
            let (_, edge) = map.stripe_span(0);
            let mut stas = Vec::new();
            for (j, x) in [edge - 1.0, edge + 1.0].into_iter().enumerate() {
                let n = w.add_node("edge-sta");
                w.add_sta(
                    n,
                    Pos::new(x, 4.0),
                    15.0,
                    StaConfig::typical(MacAddr::local(50 + j as u64), SSID[1], None),
                    Ipv4Addr::new(10, 0, 1, 50 + j as u8),
                    24,
                );
                stas.push(n);
            }
            for (i, &word) in words.iter().enumerate() {
                let home = (word % 3) as usize;
                let dx = ((word >> 2) & 0x7F) as f64 - 64.0; // within earshot
                let dy = ((word >> 9) & 0x1F) as f64 - 16.0;
                let start_us = (word >> 14) & 0x1FFF; // 0..8 ms stagger
                let n = w.add_node("sta");
                w.add_sta_starting_at(
                    n,
                    Pos::new(AP_X[home] + dx, dy),
                    15.0,
                    StaConfig::typical(MacAddr::local(100 + i as u64), SSID[home], None),
                    Ipv4Addr::new(10, 0, home as u8, 100 + i as u8),
                    24,
                    SimTime::from_micros(start_us),
                );
                stas.push(n);
            }
            // Segmented run: each word picks a segment length and a node
            // to kick *between* run_until calls, i.e. mid-window from the
            // sharded loop's point of view.
            let mut t_us = 0u64;
            for &word in words {
                t_us += 20_000 + ((word >> 27) & 0xFFFF); // 20..85 ms
                w.run_until(SimTime::from_micros(t_us));
                let victim = ((word >> 43) as usize) % stas.len();
                w.kick(stas[victim]);
            }
            w.run_until(SimTime::from_micros(t_us + 300_000)); // settle
            Fingerprint {
                mac_trace: w
                    .mac_events
                    .iter()
                    .map(|(t, n, e)| format!("{} {} {:?}", t.as_nanos(), n.0, e))
                    .collect(),
                frames_sent: w.medium.frames_sent,
                halfduplex_misses: w.medium.halfduplex_misses,
                sinr_drops: w.medium.sinr_drops,
                events_dispatched: w.events_dispatched(),
                app_events: w.app_events.len(),
            }
        })
    })
}

proptest! {
    #[test]
    fn outbox_merge_matches_serial_dispatch_order(
        words in proptest::collection::vec(any::<u64>(), 6..14),
    ) {
        let baseline = run(&words, 1, 1);
        // Liveness floor: a case with no MAC milestones or no frames on
        // the air would make the equality below vacuous.
        prop_assert!(
            !baseline.mac_trace.is_empty() && baseline.frames_sent > 0,
            "inert world: {:?}",
            baseline
        );
        for (shards, threads) in [(2, 1), (2, 4), (3, 4)] {
            let sharded = run(&words, shards, threads);
            prop_assert_eq!(&baseline, &sharded, "shards={} threads={}", shards, threads);
        }
    }
}
