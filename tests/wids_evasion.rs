//! The evasion acceptance suite: every `scenarios/evasion/*.toml` runs
//! the WIDS against one adversarial variant, and every rendered row must
//! clear its pinned precision/recall floor (the `pass` column). The
//! single-variant files are also held byte-identical to the matching row
//! of the hand-coded E10-evasion table — per-variant scoring is
//! independent (each variant forks the same per-replication seeds), so
//! splitting the suite across files must not move any number.

use rogue_bench::REPORT_SEED;
use rogue_core::experiments::e10_evasion;
use rogue_core::scenario::CorpScenarioCfg;
use rogue_scenario::{load_source, run_scenario, ReportKind};

const VARIANT_FILES: [(&str, &str); 4] = [
    ("evasion/mac_randomizing.toml", "mac-randomizing"),
    ("evasion/karma_cloaked.toml", "karma-cloaked"),
    ("evasion/low_power_stealth.toml", "low-power-stealth"),
    ("evasion/pulsed_deauth.toml", "pulsed-deauth"),
];

fn scenario_path(file: &str) -> String {
    format!("{}/../../scenarios/{file}", env!("CARGO_MANIFEST_DIR"))
}

fn run_file(file: &str) -> (rogue_scenario::Scenario, String) {
    let src = std::fs::read_to_string(scenario_path(file)).expect("scenario file");
    let sc = load_source(&src, &[]).expect("valid scenario");
    let report = run_scenario(&sc).expect("run");
    (sc, report)
}

/// The table row whose first cell is `variant`, from a Markdown table.
fn row_for<'a>(table: &'a str, variant: &str) -> &'a str {
    table
        .lines()
        .find(|l| l.starts_with(&format!("| {variant} |")))
        .unwrap_or_else(|| panic!("no row for {variant} in:\n{table}"))
}

#[test]
fn every_evasion_scenario_clears_its_floor() {
    for (file, variant) in VARIANT_FILES {
        let (sc, body) = run_file(file);
        assert_eq!(sc.report.kind, ReportKind::E10Evasion, "{file}");
        assert_eq!(sc.seed.0, 0x2003_1CC9, "{file} must pin the report seed");
        let row = row_for(&body, variant);
        assert!(
            row.ends_with("| yes |"),
            "{file}: {variant} fell under its precision/recall floor:\n{row}"
        );
    }
}

#[test]
fn evasion_scenarios_match_the_hand_coded_rows() {
    let hand_coded = e10_evasion::report_body(
        &CorpScenarioCfg::paper_attack(),
        &e10_evasion::E10EvasionParams::default(),
        2,
        REPORT_SEED,
    );
    for (file, variant) in VARIANT_FILES {
        let (_, body) = run_file(file);
        assert_eq!(
            row_for(&body, variant),
            row_for(&hand_coded, variant),
            "{file} drifted from the hand-coded E10-evasion row"
        );
    }
}
