//! The tentpole equivalence claim: the checked-in `.toml` re-expressions
//! of E1 and E10 produce *byte-identical* report tables to the
//! hand-coded drivers the `rogue-bench` harness runs. Both paths funnel
//! into the same `report_body` formatter in `rogue-core`, so this holds
//! exactly — any drift in the scenario front end (a default that no
//! longer matches the paper value, a seed plumbed differently) breaks
//! these assertions.

use rogue_bench::REPORT_SEED;
use rogue_core::experiments::{e10_wids, e1_association};
use rogue_core::scenario::CorpScenarioCfg;
use rogue_scenario::{load_source, run_scenario, ReportKind};

fn scenario_path(file: &str) -> String {
    format!("{}/../../scenarios/{file}", env!("CARGO_MANIFEST_DIR"))
}

fn run_file(file: &str, overrides: &[String]) -> (rogue_scenario::Scenario, String) {
    let src = std::fs::read_to_string(scenario_path(file)).expect("scenario file");
    let sc = load_source(&src, overrides).expect("valid scenario");
    let report = run_scenario(&sc).expect("run");
    (sc, report)
}

#[test]
fn e1_toml_matches_the_hand_coded_report() {
    let (sc, body) = run_file("e1_association.toml", &[]);
    assert_eq!(sc.report.kind, ReportKind::E1);
    assert_eq!(sc.seed.0, 0x2003_1CC9, "file must pin the report seed");
    let hand_coded = e1_association::report_body(
        &CorpScenarioCfg::paper_attack(),
        &e1_association::E1Params::default(),
        sc.report.reps,
        REPORT_SEED,
    );
    assert_eq!(body, hand_coded, "E1 .toml must be byte-identical");
}

#[test]
fn e10_toml_matches_the_hand_coded_report() {
    let (sc, body) = run_file("e10_wids.toml", &[]);
    assert_eq!(sc.report.kind, ReportKind::E10);
    assert_eq!(sc.seed.0, 0x2003_1CC9);
    let hand_coded = e10_wids::report_body(
        &CorpScenarioCfg::paper_attack(),
        &e10_wids::E10Params::default(),
        sc.report.reps,
        REPORT_SEED,
    );
    assert_eq!(body, hand_coded, "E10 .toml must be byte-identical");
}

#[test]
fn overrides_change_the_tables_they_claim_to_change() {
    // Sanity that the equivalence above is not vacuous: nudging a
    // parameter through --override must produce a different table.
    let (_, base) = run_file("e1_association.toml", &[]);
    let (_, nudged) = run_file("e1_association.toml", &["e1.powers_dbm=[18.0]".to_string()]);
    assert_ne!(base, nudged);
    assert!(nudged.lines().count() < base.lines().count());
}
