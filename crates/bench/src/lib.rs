//! The report list of the reproduction harness, and helpers the layer
//! benches share.
//!
//! Every table of the paper's evaluation is rendered by its experiment
//! driver in `rogue-core` (`report_body`); this crate only names the ten
//! reports, in order, with the paper artifact each reproduces. The
//! `harness` binary prints them, and the golden and determinism suites
//! compare [`render_reports`] and [`render_report`] bytes.

use rogue_core::experiments::{
    e10_evasion, e10_wids, e1_association, e2_download, e3_vpn, e4_wep, e5_tcp_over_tcp,
    e6_detection, e7_matrix, e8_hotspot, e9_containment,
};
use rogue_core::scenario::CorpScenarioCfg;
use rogue_sim::Seed;

/// Deterministic master seed for all reports.
pub const REPORT_SEED: Seed = Seed(0x2003_1CC9);

/// One report: its id, the paper artifact it reproduces, and its body
/// at `reps` replications per cell.
pub struct Report {
    /// Experiment id ("E1" …).
    pub id: &'static str,
    /// Paper artifact it reproduces.
    pub artifact: &'static str,
    /// The driver's table at [`REPORT_SEED`].
    pub body: fn(usize) -> String,
}

/// The ten reports, in the order the harness prints them.
pub static REPORTS: [Report; 10] = [
    Report {
        id: "E1",
        artifact: "Figure 1 — rogue-AP association capture",
        body: |reps| {
            e1_association::report_body(
                &CorpScenarioCfg::paper_attack(),
                &e1_association::E1Params::default(),
                reps,
                REPORT_SEED,
            )
        },
    },
    Report {
        id: "E2",
        artifact: "Figure 2 / §4.1 — software-download MITM",
        body: |reps| e2_download::report_body(reps, REPORT_SEED),
    },
    Report {
        id: "E3",
        artifact: "Figure 3 / §5 — VPN-everything defence",
        body: |reps| e3_vpn::report_body(reps, REPORT_SEED),
    },
    Report {
        id: "E4",
        artifact: "§4 premise — Airsnort/FMS WEP key recovery",
        body: |reps| e4_wep::report_body(reps, REPORT_SEED),
    },
    Report {
        id: "E5",
        artifact: "§5.3 — TCP-over-TCP encapsulation penalty",
        body: |reps| e5_tcp_over_tcp::report_body(reps, REPORT_SEED),
    },
    Report {
        id: "E6",
        artifact: "§2.3 — rogue-AP detection",
        body: |reps| e6_detection::report_body(reps, REPORT_SEED),
    },
    Report {
        id: "E7",
        artifact: "§§1–3 — the defence matrix",
        body: |reps| e7_matrix::report_body(reps, REPORT_SEED),
    },
    Report {
        id: "E8",
        artifact: "extension: §1.2.2 / §5.1 — the hostile hotspot",
        body: |reps| e8_hotspot::report_body(reps, REPORT_SEED),
    },
    Report {
        id: "E9",
        artifact: "extension: §6 future work — detect-then-contain",
        body: |reps| e9_containment::report_body(reps, REPORT_SEED),
    },
    Report {
        id: "E10",
        artifact: "extension: streaming WIDS precision / recall",
        body: |reps| {
            e10_wids::report_body(
                &CorpScenarioCfg::paper_attack(),
                &e10_wids::E10Params::default(),
                reps,
                REPORT_SEED,
            )
        },
    },
];

/// E10-evasion — the WIDS scored against the adversarial evasion
/// suite. A deliberate extension *of* an extension, so it stays out of
/// [`REPORTS`]: the ten-report harness output (and its golden bytes)
/// stays frozen while the evasion score card gets its own golden and
/// its own determinism leg.
pub static E10_EVASION: Report = Report {
    id: "E10-evasion",
    artifact: "extension: WIDS vs. adversarial evasion suite",
    body: |reps| {
        e10_evasion::report_body(
            &CorpScenarioCfg::paper_attack(),
            &e10_evasion::E10EvasionParams::default(),
            reps,
            REPORT_SEED,
        )
    },
};

const RULE: &str = "────────────────────────────────────────────────────────────";

/// Render one report at `reps` replications exactly as the `harness`
/// binary prints it.
pub fn render_report(report: &Report, reps: usize) -> String {
    format!(
        "{RULE}\n{}: {}\n{RULE}\n{}\n",
        report.id,
        report.artifact,
        (report.body)(reps)
    )
}

/// The harness binary's complete stdout for `reps` replications —
/// deterministic bytes (timing goes to stderr), which is what the
/// golden-file test diffs against the checked-in copy.
pub fn render_reports(reps: usize) -> String {
    let mut out = format!(
        "Countering Rogues in Wireless Networks — reproduction harness\nreplications per cell: {reps}\n\n"
    );
    for report in &REPORTS {
        out.push_str(&render_report(report, reps));
    }
    out
}

/// Where a layer bench writes `BENCH_<name>.json`: the committed
/// recording at the repository root after a full run, and cargo's
/// scratch directory for bench targets (`target/tmp`) after a `-- --test`
/// smoke run, so a smoke never replaces the full-size numbers. A macro
/// because cargo sets `CARGO_TARGET_TMPDIR` only while it compiles a
/// bench or an integration test, not this library.
#[macro_export]
macro_rules! bench_json_path {
    ($name:literal, $smoke:expr) => {
        std::path::Path::new(if $smoke {
            env!("CARGO_TARGET_TMPDIR")
        } else {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../..")
        })
        .join(concat!("BENCH_", $name, ".json"))
    };
}

/// Median, first and third quartile of `v`, by the method of Python's
/// `statistics.quantiles(v, n=4)` (the default, "exclusive"), so a layer
/// bench's spreads match those computed from its JSON with Python. A
/// single value is its own quartiles; an empty slice reads 0.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut d = v.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    match n {
        0 => (0.0, 0.0, 0.0),
        1 => (d[0], d[0], d[0]),
        _ => {
            let q = |i: usize| {
                let m = i * (n + 1);
                let j = (m / 4).clamp(1, n - 1);
                let delta = m as f64 / 4.0 - j as f64;
                d[j - 1] + (d[j] - d[j - 1]) * delta
            };
            let median = if n % 2 == 1 {
                d[n / 2]
            } else {
                (d[n / 2 - 1] + d[n / 2]) / 2.0
            };
            (median, q(1), q(3))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::quartiles;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([...], n=4) and statistics.median.
        assert_eq!(quartiles(&[]), (0.0, 0.0, 0.0));
        assert_eq!(quartiles(&[2.0]), (2.0, 2.0, 2.0));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (2.0, 1.0, 3.0));
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (2.5, 1.25, 3.75));
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (3.0, 1.5, 4.5));
    }
}
