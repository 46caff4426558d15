//! Reproducibility: every run is a pure function of its seed.
//!
//! EXPERIMENTS.md records concrete numbers; these tests guarantee that
//! re-running the harness regenerates them bit for bit.

use rogue_core::experiments::e10_wids::{run_wids_once, wids_table, WidsScenario};
use rogue_core::experiments::e2_download::{run_download_mitm, DownloadMitmConfig};
use rogue_core::experiments::e4_wep::crack_curve;
use rogue_core::scenario::{build_corp, CorpScenarioCfg};
use rogue_dot11::output::MacEvent;
use rogue_sim::{Seed, SimTime};

#[test]
fn same_seed_same_world_trace() {
    let run = |seed: Seed| {
        let cfg = CorpScenarioCfg::paper_attack();
        let mut sc = build_corp(&cfg, seed);
        sc.world.run_until(SimTime::from_secs(5));
        // A trace fingerprint: (time, event discriminant) for every MAC
        // milestone, plus medium statistics.
        let events: Vec<(u64, String)> = sc
            .world
            .mac_events
            .iter()
            .map(|(t, n, e)| (t.as_nanos() ^ n.0 as u64, format!("{e:?}")))
            .collect();
        (
            events,
            sc.world.medium.frames_sent,
            sc.world.medium.halfduplex_misses,
            sc.world.medium.sinr_drops,
        )
    };
    let a = run(Seed(77));
    let b = run(Seed(77));
    assert_eq!(a.0, b.0, "identical seeds must give identical event traces");
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3);
}

#[test]
fn different_seeds_diverge() {
    let fingerprint = |seed: Seed| {
        let cfg = CorpScenarioCfg::paper_attack();
        let mut sc = build_corp(&cfg, seed);
        sc.world.run_until(SimTime::from_secs(3));
        sc.world
            .mac_events
            .iter()
            .map(|(t, _, _)| t.as_nanos())
            .sum::<u64>()
            ^ sc.world.medium.frames_sent
    };
    // Backoff randomization alone must perturb timings.
    assert_ne!(fingerprint(Seed(1)), fingerprint(Seed(2)));
}

#[test]
fn experiment_results_are_reproducible() {
    let cfg = DownloadMitmConfig::paper();
    let a = run_download_mitm(&cfg, Seed(12345));
    let b = run_download_mitm(&cfg, Seed(12345));
    assert_eq!(a.victim_got_trojan, b.victim_got_trojan);
    assert_eq!(a.md5_check_passed, b.md5_check_passed);
    assert_eq!(a.netsed_replacements, b.netsed_replacements);
    assert_eq!(a.download_secs, b.download_secs, "bit-identical timing");
    assert_eq!(a.link_seen, b.link_seen);
}

#[test]
fn wids_incidents_are_reproducible() {
    // The full pipeline — multi-sensor batching, correlation, scoring —
    // must be a pure function of the master seed.
    for scenario in [WidsScenario::RogueApDeauth, WidsScenario::ArpSpoof] {
        let a = run_wids_once(scenario, Seed(0xE10));
        let b = run_wids_once(scenario, Seed(0xE10));
        assert_eq!(
            a.incident_log, b.incident_log,
            "{scenario:?}: identical seeds must open identical incidents"
        );
        assert_eq!(a.events, b.events);
        assert_eq!(a.eval.true_positives, b.eval.true_positives);
        assert_eq!(a.eval.false_positives, b.eval.false_positives);
        assert_eq!(a.eval.false_negatives, b.eval.false_negatives);
        assert_eq!(a.eval.latencies_secs, b.eval.latencies_secs);
    }
}

#[test]
fn parallel_replication_is_bit_identical_to_serial() {
    // The drivers were written for this: every replication forks its own
    // seed and all merges run over index-ordered buffers, so the thread
    // count must be unobservable in the results — down to the f64 bits.
    let serial = rayon::with_num_threads(1, || crack_curve(5, &[5, 40], 4, Seed(0xD47)));
    for threads in [2, 4, 8] {
        let parallel =
            rayon::with_num_threads(threads, || crack_curve(5, &[5, 40], 4, Seed(0xD47)));
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.weak_ivs_per_position, p.weak_ivs_per_position);
            assert_eq!(s.equivalent_frames, p.equivalent_frames);
            assert_eq!(
                s.success_rate.to_bits(),
                p.success_rate.to_bits(),
                "threads={threads}: success rate diverged at w={}",
                s.weak_ivs_per_position
            );
        }
    }
}

#[test]
fn wids_table_is_bit_identical_across_thread_counts() {
    // E10 exercises the deepest pipeline (sensors → ring → detectors →
    // correlator); its table under forced parallelism must match serial.
    let render = |rows: Vec<rogue_core::experiments::e10_wids::WidsRow>| {
        rows.iter()
            .map(|r| {
                format!(
                    "{}|{}|{}|{}|{}|{:?}|{}",
                    r.scenario,
                    r.reps,
                    r.eval.true_positives,
                    r.eval.false_positives,
                    r.eval.false_negatives,
                    r.eval.latencies_secs,
                    r.ring_dropped
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    let serial = render(rayon::with_num_threads(1, || wids_table(3, Seed(0xE10))));
    for threads in [2, 4] {
        let parallel = render(rayon::with_num_threads(threads, || {
            wids_table(3, Seed(0xE10))
        }));
        assert_eq!(serial, parallel, "threads={threads}");
    }
}

#[test]
fn association_events_are_ordered() {
    let cfg = CorpScenarioCfg::paper_attack();
    let mut sc = build_corp(&cfg, Seed(9));
    sc.world.run_until(SimTime::from_secs(5));
    // Events must come out in nondecreasing time order.
    let times: Vec<u64> = sc
        .world
        .mac_events
        .iter()
        .map(|(t, _, _)| t.as_nanos())
        .collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
    // And the victim must associate before any client shows up on the
    // rogue AP (causality).
    let victim_assoc = sc
        .world
        .mac_events
        .iter()
        .position(|(_, n, e)| *n == sc.victim && matches!(e, MacEvent::Associated { .. }));
    assert!(victim_assoc.is_some());
}
