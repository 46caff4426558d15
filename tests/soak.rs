//! Soak: a ten-minute campus run whose working sets stay bounded.
//!
//! `scenarios/campus_waypoint_500.toml` with 20 walkers for 600 s of
//! simulated time: association, web, UDP and ping traffic, mobility, and
//! from t = 30 s three rogues (one flooding deauths) under the WIDS. The
//! test drives the scenario's own tick loop ([`run_tick`], the body of
//! `run_summary`) and every 30 simulated seconds samples the medium's
//! retained transmissions, the world's pending events and the WIDS
//! detector state. The WIDS must drop nothing from its ring.
//!
//! Every ceiling sits a few times above the run as recorded at the
//! commit before the WIDS tables allocated on first write (the same
//! simulation, sample for sample):
//!
//! | sample                        | recorded max    | ceiling    |
//! |-------------------------------|-----------------|------------|
//! | `Medium::tx_backlog`          | 4 (7 per tick)  | 16         |
//! | `World::pending_events`       | 28              | 112        |
//! | sequence-stage sources        | 24 (20 at 30 s) | 96         |
//! | WIDS resident bytes           | 6,332,864       | the bound  |
//!
//! That commit allocated every table and sketch counter at
//! construction, so its resident bytes were its bound, 6,332,864 B,
//! from the first sample on. Allocating on first write, the run holds
//! 468,848 B at 30 s and 1,097,200 B at the end (the deauth sketches are
//! written once the flooding rogue starts), so resident bytes also have
//! a ceiling of their own, 3 MiB, that a return to eager tables would
//! break.
//!
//! The test samples table memory rather than process RSS: the world's
//! sniffers and span-port tap keep every frame they capture, which
//! grows RSS with simulated time whatever the tables do.

use rogue_scenario::{compile, load_source, run_tick};
use rogue_sim::{SimDuration, SimTime};

const SAMPLE_EVERY: SimDuration = SimDuration::from_secs(30);
const TX_BACKLOG_CEILING: usize = 16;
const PENDING_EVENTS_CEILING: usize = 112;
const TRACKED_SOURCES_CEILING: usize = 96;
const WIDS_RESIDENT_CEILING: usize = 3 * 1024 * 1024;

/// One 30 s sample.
#[derive(Debug)]
struct Sample {
    at: SimTime,
    tx_backlog: usize,
    pending_events: usize,
    tracked_sources: usize,
    resident: usize,
    bound: usize,
    wids_events: u64,
    ring_dropped: u64,
}

#[test]
fn ten_minute_campus_keeps_every_working_set_bounded() {
    let path = format!(
        "{}/../../scenarios/campus_waypoint_500.toml",
        env!("CARGO_MANIFEST_DIR")
    );
    let src = std::fs::read_to_string(path).expect("scenario file");
    let overrides = ["population.0.count=20", "duration=600s"].map(String::from);
    let sc = load_source(&src, &overrides).expect("valid scenario");
    assert_eq!(sc.duration, SimDuration::from_secs(600));
    let mut c = compile(&sc).expect("compiles");

    let end = SimTime::ZERO + sc.duration;
    let mut now = SimTime::ZERO;
    let mut next_sample = SimTime::ZERO + SAMPLE_EVERY;
    let mut samples = Vec::new();
    while now < end {
        now = (now + sc.tick).min(end);
        run_tick(&mut c, now, sc.tick);
        if now >= next_sample {
            next_sample += SAMPLE_EVERY;
            let w = c.wids.as_ref().expect("the scenario deploys a WIDS");
            samples.push(Sample {
                at: now,
                tx_backlog: c.world.medium.tx_backlog(),
                pending_events: c.world.pending_events(),
                tracked_sources: w.pipe.tracked_sources(),
                resident: w.pipe.detector_resident_bytes(),
                bound: w.pipe.detector_state_bytes(),
                wids_events: w.pipe.metrics().counter("wids.events"),
                ring_dropped: w.pipe.metrics().counter("wids.ring_dropped"),
            });
        }
    }

    assert_eq!(samples.len(), 20, "one sample per 30 s");
    let bound = samples[0].bound;
    let mut events_before = 0;
    for s in &samples {
        assert!(s.tx_backlog <= TX_BACKLOG_CEILING, "{s:?}");
        assert!(s.pending_events <= PENDING_EVENTS_CEILING, "{s:?}");
        assert!(s.tracked_sources <= TRACKED_SOURCES_CEILING, "{s:?}");
        assert_eq!(s.bound, bound, "the bound moved: {s:?}");
        assert!(s.resident <= s.bound, "{s:?}");
        assert!(s.resident <= WIDS_RESIDENT_CEILING, "{s:?}");
        assert_eq!(s.ring_dropped, 0, "the WIDS ring dropped events: {s:?}");
        assert!(
            s.wids_events > events_before,
            "the WIDS saw no traffic in the window ending {:?}",
            s.at
        );
        events_before = s.wids_events;
    }
}
