//! `city` and `city_sharded`: the `city_scale` topology, smaller. APs on
//! a 150 m lattice, stations on a 30 m grid everywhere else, all powering
//! on in the first 720 ms: the sparse, cached medium path, the event
//! queue and the MAC association storm, with no hosts, apps or WIDS.

use std::net::Ipv4Addr;
use std::time::Instant;

use rogue_core::world::World;
use rogue_dot11::{ApConfig, MacAddr, StaConfig};
use rogue_phy::{MediumParams, Pos};
use rogue_sim::{Seed, SimDuration, SimTime};

use crate::host::{Digest, Meter};
use crate::layers;
use crate::trace::Tracer;
use crate::Pass;

/// Grid pitch in metres.
const PITCH_M: f64 = 30.0;
/// One AP per 5x5 block of grid cells.
const AP_STRIDE: usize = 5;

/// Radios per side and simulated horizon. The full size is about a sixth
/// of `city_scale`'s 317 x 317, so a pass takes about a second, not ten,
/// and a run has many passes to take the median of; the smoke size is
/// `city_scale --test`'s.
pub struct Size {
    pub side: usize,
    pub horizon_ms: u64,
}

pub fn size(smoke: bool) -> Size {
    if smoke {
        Size {
            side: 45,
            horizon_ms: 600,
        }
    } else {
        Size {
            side: 128,
            horizon_ms: 500,
        }
    }
}

/// Build the city exactly as `city_scale` does.
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
                // Beacon phases spread over one interval, as in city_scale.
                let start = SimTime::from_millis((idx * 97) % 100);
                let cfg = ApConfig::typical(mac, "CITY", channel, None);
                w.add_ap_local_starting_at(n, pos, 15.0, cfg, ip, 8, start);
            } else {
                let n = w.add_node(&format!("sta{idx}"));
                // Power-on spread over two scan-dwell cycles, as in city_scale.
                let start = SimTime::from_millis((idx * 719) % 720);
                let cfg = StaConfig::typical(mac, "CITY", None);
                w.add_sta_starting_at(n, pos, 15.0, cfg, ip, 8, start);
            }
            idx += 1;
        }
    }
    w
}

/// One pass: build the city (the set-up), shard it when `shards > 1`,
/// and run it to the horizon.
pub fn pass(size: Size, seed: u64, shards: usize, tr: &mut Tracer) -> Pass {
    let meter = Meter::start();
    let t = Instant::now();
    let span = tr.enter("core.build");
    let mut w = build(size.side, Seed(seed));
    tr.exit(span);
    if shards > 1 {
        w.set_shards(shards);
        w.set_shard_window(SimDuration::from_millis(1));
    }
    let setup_s = t.elapsed().as_secs_f64();
    let span = tr.enter("core.run_until");
    w.run_until(SimTime::from_millis(size.horizon_ms));
    tr.exit(span);
    let (wall_s, cpu_s) = meter.stop();

    let mut digest = Digest::new();
    layers::fingerprint(&w, &mut digest);
    let mut layers = layers::world(&w, tr.total_s("core.run_until"));
    layers.push(("core.build_s", tr.total_s("core.build")));
    Pass {
        wall_s,
        cpu_s,
        setup_s: vec![setup_s],
        digest: digest.finish(),
        checks: vec![(
            "city: stations associate",
            w.metrics.counter("mac.associated") > 0,
        )],
        layers,
    }
}
