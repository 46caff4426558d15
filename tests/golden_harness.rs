//! Golden-file test: the harness tables at low reps must match the
//! checked-in copy byte for byte. Catches accidental numeric drift in
//! any experiment — the tables are pure functions of (seed, reps).
//!
//! When a change *intentionally* moves the numbers, bless the new
//! golden (and regenerate the full-reps `harness_output.txt` to match):
//!
//! ```text
//! BLESS=1 cargo test --offline -p rogue-bench --test golden_harness
//! cargo run --release --offline -p rogue-bench --bin harness 10 > harness_output.txt
//! ```

use std::path::PathBuf;

const GOLDEN_REPS: usize = 2;

fn golden_path() -> PathBuf {
    // crates/bench → repo root → tests/golden.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/harness_reps2.txt")
}

fn evasion_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/e10_evasion_reps2.txt")
}

#[test]
fn harness_tables_match_golden() {
    let rendered = rogue_bench::render_reports(GOLDEN_REPS);
    let path = golden_path();
    if std::env::var("BLESS").as_deref() == Ok("1") {
        std::fs::write(&path, &rendered).expect("write blessed golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        rendered, golden,
        "harness output drifted from tests/golden/harness_reps2.txt; if the change is \
         intentional, re-bless with: BLESS=1 cargo test --offline -p rogue-bench --test golden_harness"
    );
}

#[test]
fn evasion_table_matches_golden() {
    // The E10-evasion score card has its own golden: it sits outside the
    // frozen ten-report harness output but its numbers are pinned the
    // same way — a pure function of (seed, reps).
    let rendered = rogue_bench::render_report(&rogue_bench::E10_EVASION, GOLDEN_REPS);
    let path = evasion_golden_path();
    if std::env::var("BLESS").as_deref() == Ok("1") {
        std::fs::write(&path, &rendered).expect("write blessed golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        rendered, golden,
        "evasion table drifted from tests/golden/e10_evasion_reps2.txt; if the change is \
         intentional, re-bless with: BLESS=1 cargo test --offline -p rogue-bench --test golden_harness"
    );
}
