//! `campus`: one dense scenario world with mobility, rogues and the WIDS,
//! run through `rogue_scenario::run_summary`. Shadowing (σ > 0) takes the
//! medium's dense path, and every waypoint move writes the medium's
//! geometry; the path-loss cache is never consulted.

use std::fmt::Write;
use std::time::Instant;

use rogue_dot11::MacEvent;
use rogue_scenario::{compile, load_source, run_summary, Compiled, Scenario};
use rogue_services::traffic::UdpSink;
use rogue_sim::{Seed, SimDuration, SimTime};

use crate::host::{median, percentile, Digest, Meter};
use crate::layers;
use crate::trace::Tracer;
use crate::Pass;

const SRC: &str = include_str!("campus.toml");

/// Set-up samples per pass; one takes a few milliseconds.
const SETUP_SAMPLES: usize = 9;

/// The frozen scenario at `seed`; `--smoke` shrinks it the way
/// `scenario_run --smoke` does.
fn load(seed: u64, smoke: bool) -> Scenario {
    let mut sc = load_source(SRC, &[]).expect("the frozen campus scenario is valid");
    sc.seed = Seed(seed);
    if smoke {
        sc.duration = sc.duration.min(SimDuration::from_secs(5));
        let horizon = SimTime::ZERO + sc.duration;
        for p in &mut sc.populations {
            p.count = p.count.min(20);
        }
        for r in &mut sc.rogues {
            if r.start >= horizon {
                r.start = SimTime::ZERO + SimDuration::from_nanos(sc.duration.0 / 2);
            }
        }
    }
    sc
}

pub fn pass(seed: u64, smoke: bool, tr: &mut Tracer) -> Pass {
    if tr.on() {
        return traced_pass(seed, smoke, tr);
    }
    // Set-up as `run_summary` does it before its first tick, timed on
    // its own because `run_summary` does not expose the split.
    let setup_s = (0..SETUP_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            let compiled = compile(&load(seed, smoke)).expect("the campus scenario compiles");
            let dt = t.elapsed().as_secs_f64();
            drop(compiled);
            dt
        })
        .collect();

    let meter = Meter::start();
    let run = run_summary(&load(seed, smoke)).expect("the campus scenario runs");
    let (wall_s, cpu_s) = meter.stop();

    let checks = sanity(&run.compiled);
    // The finished world must tell the same story as `run_summary`'s own
    // totals, or the checks above would be reading the wrong counters.
    let s = &run.stats;
    let (associations, forced, udp_received) = totals(&run.compiled);
    let agree = (associations, forced, udp_received)
        == (s.associations, s.forced_disassociations, s.udp_received);
    Pass {
        wall_s,
        cpu_s,
        setup_s,
        digest: digest(&run.compiled),
        checks: [("campus: the totals match run_summary's", agree)]
            .into_iter()
            .chain(checks)
            .collect(),
        layers: campus_layers(&run.compiled, tr),
    }
}

/// Associations, forced disassociations and datagrams received in a
/// finished run, counted as `run_summary` counts them.
fn totals(c: &Compiled) -> (usize, usize, u64) {
    let (mut associations, mut forced) = (0, 0);
    for (_, _, ev) in &c.world.mac_events {
        match ev {
            MacEvent::Associated { .. } => associations += 1,
            MacEvent::Disassociated { forced: true, .. } => forced += 1,
            _ => {}
        }
    }
    let udp_received = c
        .servers
        .iter()
        .map(|srv| c.world.app::<UdpSink>(srv.node, srv.sink_app).received)
        .sum();
    (associations, forced, udp_received)
}

/// What every campus run must show, traced or not.
fn sanity(c: &Compiled) -> Vec<(&'static str, bool)> {
    let (associations, forced, udp_received) = totals(c);
    let incidents = c.wids.as_ref().map_or(0, |w| w.pipe.incidents().len());
    vec![
        (
            "campus: the clients associate",
            associations >= c.clients.len(),
        ),
        ("campus: datagrams reach the server", udp_received > 0),
        (
            "campus: the deauth-flooding rogue forces disassociations",
            forced > 0,
        ),
        ("campus: the WIDS opens incidents", incidents > 0),
        ("campus: the walkers move", c.mobility.moves_applied > 0),
    ]
}

/// The tick loop of `rogue_scenario::run_summary`, copied so each layer
/// call gets its own span. Its digest must equal the untraced pass's.
fn traced_pass(seed: u64, smoke: bool, tr: &mut Tracer) -> Pass {
    let meter = Meter::start();
    let span = tr.enter("scenario.load");
    let sc = load(seed, smoke);
    tr.exit(span);
    let span = tr.enter("scenario.compile");
    let mut c = compile(&sc).expect("the campus scenario compiles");
    tr.exit(span);

    let end = SimTime::ZERO + sc.duration;
    let mut now = SimTime::ZERO;
    while now < end {
        let tick = tr.enter("scenario.tick");
        now = (now + sc.tick).min(end);
        let span = tr.enter("core.run_until");
        c.world.run_until(now);
        tr.exit(span);
        let span = tr.enter("scenario.mobility_step");
        c.mobility.step(now, sc.tick, &mut c.world.medium);
        tr.exit(span);
        if let Some(w) = &mut c.wids {
            let span = tr.enter("wids.drain");
            for (sensor, &mon) in w.radio_sensors.iter_mut().zip(&w.monitors) {
                sensor.drain(c.world.sniffer(w.node, mon), &mut w.pipe.ring);
            }
            if let Some(tap) = c.world.wire_tap(w.node) {
                for (at, bytes) in &tap.frames[w.wired_cursor..] {
                    w.wired_sensor.ingest(*at, bytes, &mut w.pipe.ring);
                }
                w.wired_cursor = tap.frames.len();
            }
            tr.exit(span);
            let span = tr.enter("wids.step");
            w.pipe.step(now);
            tr.exit(span);
        }
        tr.exit(tick);
    }
    let (wall_s, cpu_s) = meter.stop();
    Pass {
        wall_s,
        cpu_s,
        setup_s: Vec::new(),
        digest: digest(&c),
        checks: sanity(&c),
        layers: campus_layers(&c, tr),
    }
}

/// Events, the MAC-event fingerprint, the medium counters, the moves and
/// the WIDS incidents of a finished run.
fn digest(c: &Compiled) -> u64 {
    let mut d = Digest::new();
    layers::fingerprint(&c.world, &mut d);
    let incidents = c.wids.as_ref().map_or(0, |w| w.pipe.incidents().len());
    write!(
        d,
        " moves={} incidents={incidents}",
        c.mobility.moves_applied
    )
    .expect("hashing cannot fail");
    d.finish()
}

fn campus_layers(c: &Compiled, tr: &Tracer) -> layers::Layers {
    let mut l = layers::world(&c.world, tr.total_s("core.run_until"));
    let ticks_ms: Vec<f64> = tr
        .durations_s("scenario.tick")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    l.extend([
        ("scenario.load_s", tr.total_s("scenario.load")),
        ("scenario.compile_s", tr.total_s("scenario.compile")),
        (
            "scenario.mobility_step_s",
            tr.total_s("scenario.mobility_step"),
        ),
        ("scenario.moves", c.mobility.moves_applied as f64),
        ("scenario.tick_self_s", tr.self_s("scenario.tick")),
        ("scenario.tick_ms_p50", median(&ticks_ms)),
        ("scenario.tick_ms_p90", percentile(&ticks_ms, 0.9)),
        ("wids.drain_s", tr.total_s("wids.drain")),
        ("wids.step_s", tr.total_s("wids.step")),
    ]);
    if let Some(w) = &c.wids {
        let m = w.pipe.metrics();
        l.extend([
            ("wids.events", m.counter("wids.events") as f64),
            ("wids.ring_dropped", m.counter("wids.ring_dropped") as f64),
            ("wids.alerts_raw", m.counter("wids.alerts_raw") as f64),
            ("wids.incidents", w.pipe.incidents().len() as f64),
        ]);
    }
    l
}
