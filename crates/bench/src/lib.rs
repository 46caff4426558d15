//! Shared helpers for the benchmark harness and the table generator.
//!
//! Every table and figure-equivalent of the paper's evaluation is
//! regenerated by [`all_reports`]; the `harness` binary prints them, and
//! each Criterion bench times its experiment's core run while printing
//! the corresponding table once at startup (so `cargo bench` output
//! doubles as the reproduction record).

use rogue_core::experiments::{
    e10_evasion, e10_wids, e1_association, e2_download, e3_vpn, e4_wep, e5_tcp_over_tcp,
    e6_detection, e7_matrix, e8_hotspot, e9_containment,
};
use rogue_core::report::{pct, yn, Table};
use rogue_core::scenario::CorpScenarioCfg;
use rogue_sim::Seed;
use rogue_vpn::Transport;

/// Deterministic master seed for all reports.
pub const REPORT_SEED: Seed = Seed(0x2003_1CC9);

/// One rendered report.
pub struct Report {
    /// Experiment id ("E1" …).
    pub id: &'static str,
    /// Paper artifact it reproduces.
    pub artifact: &'static str,
    /// Rendered table.
    pub body: String,
}

/// E1 — Figure 1: association capture. The body is rendered by the
/// parameterized driver in `rogue-core` (shared with the scenario
/// compiler) at its paper defaults.
pub fn report_e1(reps: usize) -> Report {
    Report {
        id: "E1",
        artifact: "Figure 1 — rogue-AP association capture",
        body: e1_association::report_body(
            &CorpScenarioCfg::paper_attack(),
            &e1_association::E1Params::default(),
            reps,
            REPORT_SEED,
        ),
    }
}

/// E2 — Figure 2: the download MITM and the boundary-miss sweep.
pub fn report_e2(reps: usize) -> Report {
    let attack =
        e2_download::run_download_mitm(&e2_download::DownloadMitmConfig::paper(), REPORT_SEED);
    let mut body = format!(
        "paper attack (1 run): on_rogue={} trojaned={} md5_passed={} file_from={:?} netsed_hits={}\n\n",
        attack.victim_on_rogue,
        attack.victim_got_trojan,
        attack.md5_check_passed,
        attack.file_server,
        attack.netsed_replacements
    );
    let points =
        e2_download::boundary_miss_sweep(&[64, 96, 128, 256, 512, 1400], reps, REPORT_SEED);
    let mut t = Table::new(&[
        "server MSS",
        "reps",
        "link rewritten",
        "fully deceived",
        "any rule missed",
    ]);
    for p in &points {
        t.row(&[
            p.server_mss.to_string(),
            p.reps.to_string(),
            pct(p.link_rewrite_rate),
            pct(p.full_deception_rate),
            pct(p.any_miss_rate),
        ]);
    }
    body.push_str(&t.render());
    Report {
        id: "E2",
        artifact: "Figure 2 / §4.1 — software-download MITM",
        body,
    }
}

/// E3 — Figure 3: the VPN defence comparison.
pub fn report_e3(reps: usize) -> Report {
    let rows = e3_vpn::vpn_defense_comparison(reps, REPORT_SEED);
    let mut t = Table::new(&[
        "mode",
        "on rogue",
        "completed",
        "trojaned",
        "genuine+verified",
        "mean dl s",
    ]);
    for r in &rows {
        t.row(&[
            r.mode.label().to_string(),
            pct(r.on_rogue_rate),
            pct(r.completed_rate),
            pct(r.trojan_rate),
            pct(r.genuine_verified_rate),
            format!("{:.2}", r.mean_download_secs),
        ]);
    }
    let mut body = t.render();
    let (refused, fails) = e3_vpn::rogue_endpoint_refused(REPORT_SEED);
    body.push_str(&format!(
        "\nrogue endpoint without PSK: refused={refused}, bad authenticators={fails}\n"
    ));
    Report {
        id: "E3",
        artifact: "Figure 3 / §5 — VPN-everything defence",
        body,
    }
}

/// E4 — WEP/FMS crack curves.
pub fn report_e4(reps: usize) -> Report {
    let weak = [10usize, 20, 40, 60, 100, 160, 240];
    let mut t = Table::new(&["key", "weak IVs/pos", "≈ frames", "success"]);
    for key_len in [5usize, 13] {
        for p in e4_wep::crack_curve(key_len, &weak, reps, REPORT_SEED) {
            t.row(&[
                format!("WEP-{}", key_len * 8),
                p.weak_ivs_per_position.to_string(),
                format!("{:.1}M", p.equivalent_frames as f64 / 1e6),
                pct(p.success_rate),
            ]);
        }
    }
    Report {
        id: "E4",
        artifact: "§4 premise — Airsnort/FMS WEP key recovery",
        body: t.render(),
    }
}

/// E5 — tunnel transport comparison under loss.
pub fn report_e5(reps: usize) -> Report {
    let losses = [0.0, 0.02, 0.05, 0.10];
    let udp = e5_tcp_over_tcp::tunnel_comparison(
        e5_tcp_over_tcp::InnerFlow::UdpCbr,
        &losses,
        reps,
        REPORT_SEED,
    );
    let mut t = Table::new(&["encap", "loss", "delivery", "mean lat ms", "max lat ms"]);
    for p in &udp {
        t.row(&[
            match p.transport {
                Transport::Udp => "udp".to_string(),
                Transport::Tcp => "tcp (ppp/ssh)".to_string(),
            },
            pct(p.loss),
            pct(p.udp_delivery),
            format!("{:.1}", p.udp_mean_latency_ms),
            format!("{:.1}", p.udp_max_latency_ms),
        ]);
    }
    let mut body = t.render();
    body.push('\n');
    let bulk = e5_tcp_over_tcp::tunnel_comparison(
        e5_tcp_over_tcp::InnerFlow::TcpBulk,
        &losses,
        reps,
        REPORT_SEED,
    );
    let mut t = Table::new(&["encap", "loss", "dl completed", "mean completion s"]);
    for p in &bulk {
        t.row(&[
            match p.transport {
                Transport::Udp => "udp".to_string(),
                Transport::Tcp => "tcp (ppp/ssh)".to_string(),
            },
            pct(p.loss),
            pct(p.tcp_completion_rate),
            format!("{:.2}", p.tcp_completion_secs),
        ]);
    }
    body.push_str(&t.render());
    Report {
        id: "E5",
        artifact: "§5.3 — TCP-over-TCP encapsulation penalty",
        body,
    }
}

/// E6 — detection.
pub fn report_e6(reps: usize) -> Report {
    let rows = e6_detection::detection_vs_dwell(&[100, 250, 500, 1000], reps, REPORT_SEED);
    let mut t = Table::new(&[
        "dwell ms",
        "audit detect",
        "audit latency s",
        "seqmon detect",
        "wired alarm",
    ]);
    for r in &rows {
        t.row(&[
            r.dwell_ms.to_string(),
            pct(r.audit_detection_rate),
            format!("{:.2}", r.mean_audit_latency_secs),
            pct(r.seqmon_detection_rate),
            pct(r.wired_alarm_rate),
        ]);
    }
    Report {
        id: "E6",
        artifact: "§2.3 — rogue-AP detection",
        body: t.render(),
    }
}

/// E7 — the defence matrix.
pub fn report_e7(reps: usize) -> Report {
    let rows = e7_matrix::defense_matrix_extended(reps, REPORT_SEED);
    let mut t = Table::new(&[
        "defence",
        "captured",
        "deceived",
        "protected",
        "defeats attack",
    ]);
    for r in &rows {
        t.row(&[
            r.policy.label().to_string(),
            pct(r.captured_rate),
            pct(r.deceived_rate),
            pct(r.protected_rate),
            yn(r.deceived_rate == 0.0 && r.protected_rate > 0.0),
        ]);
    }
    Report {
        id: "E7",
        artifact: "§§1–3 — the defence matrix",
        body: t.render(),
    }
}

/// E8 — the hostile hotspot (extension).
pub fn report_e8(reps: usize) -> Report {
    let rows = e8_hotspot::hotspot_comparison(reps, REPORT_SEED);
    let mut t = Table::new(&["scenario", "reps", "pages/run", "tamper rate"]);
    for r in &rows {
        t.row(&[
            r.label.to_string(),
            r.reps.to_string(),
            format!("{:.1}", r.mean_pages),
            pct(r.tamper_rate),
        ]);
    }
    Report {
        id: "E8",
        artifact: "extension: §1.2.2 / §5.1 — the hostile hotspot",
        body: t.render(),
    }
}

/// E9 — active containment (extension).
pub fn report_e9(reps: usize) -> Report {
    let rows = e9_containment::containment_comparison(reps, REPORT_SEED);
    let mut t = Table::new(&[
        "containment",
        "reps",
        "detected",
        "attack success",
        "mean victim kicks",
    ]);
    for r in &rows {
        t.row(&[
            r.containment.to_string(),
            r.reps.to_string(),
            pct(r.detection_rate),
            pct(r.attack_success_rate),
            format!("{:.0}", r.mean_victim_kicks),
        ]);
    }
    Report {
        id: "E9",
        artifact: "extension: §6 future work — detect-then-contain",
        body: t.render(),
    }
}

/// E10 — the streaming WIDS score card (extension). Rendered as
/// Markdown (by the parameterized driver in `rogue-core`, shared with
/// the scenario compiler) so the table drops straight into
/// EXPERIMENTS.md.
pub fn report_e10(reps: usize) -> Report {
    Report {
        id: "E10",
        artifact: "extension: streaming WIDS precision / recall",
        body: e10_wids::report_body(
            &CorpScenarioCfg::paper_attack(),
            &e10_wids::E10Params::default(),
            reps,
            REPORT_SEED,
        ),
    }
}

/// E10-evasion — the WIDS scored against the adversarial evasion
/// suite. A deliberate extension *of* an extension, so it rides outside
/// [`report_builders`]: the ten-report harness contract (and its golden
/// bytes) stays frozen while the evasion score card gets its own golden
/// and its own determinism leg.
pub fn report_e10_evasion(reps: usize) -> Report {
    Report {
        id: "E10-evasion",
        artifact: "extension: WIDS vs. adversarial evasion suite",
        body: e10_evasion::report_body(
            &CorpScenarioCfg::paper_attack(),
            &e10_evasion::E10EvasionParams::default(),
            reps,
            REPORT_SEED,
        ),
    }
}

/// E4 needs a replication floor for its success rates to be meaningful;
/// kept here so every caller of the full suite applies the same floor.
fn report_e4_floored(reps: usize) -> Report {
    report_e4(reps.max(4))
}

/// The report builders, in order — one per experiment. Callers that
/// want per-report timing (the harness binary, the scaling bench, the
/// determinism suite) iterate these instead of [`all_reports`].
pub fn report_builders() -> [fn(usize) -> Report; 10] {
    [
        report_e1,
        report_e2,
        report_e3,
        report_e4_floored,
        report_e5,
        report_e6,
        report_e7,
        report_e8,
        report_e9,
        report_e10,
    ]
}

/// All reports, in order. `reps` trades precision for runtime.
pub fn all_reports(reps: usize) -> Vec<Report> {
    report_builders().iter().map(|build| build(reps)).collect()
}

const RULE: &str = "────────────────────────────────────────────────────────────";

/// Render one report exactly as the `harness` binary prints it.
pub fn render_report(report: &Report) -> String {
    format!(
        "{RULE}\n{}: {}\n{RULE}\n{}\n",
        report.id, report.artifact, report.body
    )
}

/// The harness binary's complete stdout for `reps` replications —
/// deterministic bytes (timing goes to stderr), which is what the
/// golden-file test diffs against the checked-in copy.
pub fn render_reports(reps: usize) -> String {
    let mut out = format!(
        "Countering Rogues in Wireless Networks — reproduction harness\nreplications per cell: {reps}\n\n"
    );
    for build in report_builders() {
        out.push_str(&render_report(&build(reps)));
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
