//! `paper`: the ten E1–E10 experiment drivers over the parameter grids of
//! `rogue_bench::report_e1..e10`. Thousands of small worlds; the only
//! workload that spends real time in the VPN, crypto, TCP and netsed
//! layers.
//!
//! The experiments run one after another, each spreading its
//! replications over the pool, as `rogue_bench::render_reports` runs
//! them. The `harness` binary also overlaps the ten reports; that
//! overlap made the peak RSS depend on which experiments happened to run
//! together, and would make a span per experiment include its waiting.

use std::fmt::Write;
use std::time::Instant;

use rogue_core::experiments::{
    e10_wids, e1_association, e2_download, e3_vpn, e4_wep, e5_tcp_over_tcp, e6_detection,
    e7_matrix, e8_hotspot, e9_containment,
};
use rogue_core::policy::ClientPolicy;
use rogue_core::scenario::{build_corp, CorpScenarioCfg};
use rogue_sim::Seed;

use crate::host::{Digest, Meter};
use crate::layers::Layers;
use crate::trace::Tracer;
use crate::Pass;

/// One span per experiment and the per-layer metric that reports it.
const EXPERIMENTS: [(&str, &str); 10] = [
    ("paper.e1", "paper.e1_s"),
    ("paper.e2", "paper.e2_s"),
    ("paper.e3", "paper.e3_s"),
    ("paper.e4", "paper.e4_s"),
    ("paper.e5", "paper.e5_s"),
    ("paper.e6", "paper.e6_s"),
    ("paper.e7", "paper.e7_s"),
    ("paper.e8", "paper.e8_s"),
    ("paper.e9", "paper.e9_s"),
    ("paper.e10", "paper.e10_s"),
];

/// Set-up samples per pass. One sample builds the corporate world under
/// each client policy: what a round of E7 replications builds first, and
/// the world every E1–E3, E6, E9 and E10 replication starts from.
const SETUP_SAMPLES: usize = 9;

/// One experiment's output: the `Debug` of its driver results and the
/// paper claims checked on them.
struct Outcome {
    debug: String,
    checks: Vec<(&'static str, bool)>,
}

fn outcome(results: impl std::fmt::Debug) -> Outcome {
    Outcome {
        debug: format!("{results:?}"),
        checks: Vec::new(),
    }
}

/// Run experiment `i` (0 = E1) exactly as its report builder does.
fn experiment(i: usize, reps: usize, seed: Seed) -> Outcome {
    let base = CorpScenarioCfg::paper_attack();
    match i {
        0 => {
            let params = e1_association::E1Params::default();
            outcome((
                e1_association::capture_vs_power_with(&base, &params, reps, seed),
                e1_association::capture_with_deauth_with(&base, &params, reps, seed),
            ))
        }
        1 => {
            let attack =
                e2_download::run_download_mitm(&e2_download::DownloadMitmConfig::paper(), seed);
            let sweep =
                e2_download::boundary_miss_sweep(&[64, 96, 128, 256, 512, 1400], reps, seed);
            let captured = attack.victim_on_rogue && attack.victim_got_trojan;
            let mut o = outcome((&attack, sweep));
            o.checks.push((
                "paper.e2: the rogue serves the trojan and its MD5SUM passes",
                captured && attack.md5_check_passed,
            ));
            o
        }
        2 => {
            let rows = e3_vpn::vpn_defense_comparison(reps, seed);
            let refused = e3_vpn::rogue_endpoint_refused(seed);
            let mut o = outcome((rows, refused));
            o.checks.push((
                "paper.e3: a rogue VPN endpoint without the key is refused",
                refused.0,
            ));
            o
        }
        3 => {
            let weak = [10usize, 20, 40, 60, 100, 160, 240];
            // The report applies a replication floor of 4 to E4.
            outcome(
                [5usize, 13].map(|key_len| e4_wep::crack_curve(key_len, &weak, reps.max(4), seed)),
            )
        }
        4 => {
            let losses = [0.0, 0.02, 0.05, 0.10];
            outcome(
                [
                    e5_tcp_over_tcp::InnerFlow::UdpCbr,
                    e5_tcp_over_tcp::InnerFlow::TcpBulk,
                ]
                .map(|flow| e5_tcp_over_tcp::tunnel_comparison(flow, &losses, reps, seed)),
            )
        }
        5 => {
            let rows = e6_detection::detection_vs_dwell(&[100, 250, 500, 1000], reps, seed);
            let seen = rows.iter().all(|r| r.seqmon_detection_rate > 0.0);
            let mut o = outcome(rows);
            o.checks.push((
                "paper.e6: sequence-control monitoring detects the clone at every dwell",
                seen,
            ));
            o
        }
        6 => {
            let rows = e7_matrix::defense_matrix_extended(reps, seed);
            let vpn_rows = rows
                .iter()
                .filter(|r| matches!(r.policy, ClientPolicy::VpnAll(_)))
                .count();
            let only_vpn_defeats = rows.iter().all(|r| {
                let defeated = r.deceived_rate == 0.0 && r.protected_rate > 0.0;
                defeated == matches!(r.policy, ClientPolicy::VpnAll(_))
            });
            let mut o = outcome(rows);
            o.checks.push((
                "paper.e7: exactly the two vpn-all rows defeat the attack",
                vpn_rows == 2 && only_vpn_defeats,
            ));
            o
        }
        7 => outcome(e8_hotspot::hotspot_comparison(reps, seed)),
        8 => outcome(e9_containment::containment_comparison(reps, seed)),
        _ => outcome(e10_wids::wids_table_with(
            &base,
            &e10_wids::E10Params::default(),
            reps,
            seed,
        )),
    }
}

/// One pass: all ten experiments at `reps` replications, one span each.
pub fn pass(reps: usize, seed: u64, tr: &mut Tracer) -> Pass {
    let seed = Seed(seed);
    let setup_s = (0..SETUP_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            let worlds = ClientPolicy::all().map(|p| build_corp(&e7_matrix::scenario_for(p), seed));
            let dt = t.elapsed().as_secs_f64();
            drop(worlds);
            dt
        })
        .collect();

    let meter = Meter::start();
    let outcomes: Vec<Outcome> = EXPERIMENTS
        .iter()
        .enumerate()
        .map(|(i, &(span, _))| {
            let span = tr.enter(span);
            let o = experiment(i, reps, seed);
            tr.exit(span);
            o
        })
        .collect();
    let (wall_s, cpu_s) = meter.stop();

    let mut digest = Digest::new();
    let mut checks = Vec::new();
    for o in outcomes {
        digest.write_str(&o.debug).expect("hashing cannot fail");
        checks.extend(o.checks);
    }
    let layers: Layers = EXPERIMENTS
        .iter()
        .map(|&(span, metric)| (metric, tr.total_s(span)))
        .collect();
    Pass {
        wall_s,
        cpu_s,
        setup_s,
        digest: digest.finish(),
        checks,
        layers,
    }
}
