//! Run a declarative scenario file.
//!
//! ```text
//! cargo run --release -p rogue-scenario --example scenario_run -- \
//!     scenarios/campus_waypoint_500.toml \
//!     --override duration=10s --override population.0.count=50
//!
//! # smoke mode: load, downscale, and run every .toml in a directory
//! cargo run --release -p rogue-scenario --example scenario_run -- \
//!     --smoke scenarios
//! ```
//!
//! `--override key.path=value` patches the parsed file before
//! validation; numeric path segments index `[[array]]` tables. Values
//! parse as TOML when they can (`42`, `true`, `[1, 6]`) and fall back to
//! bare strings (`30s`) so durations need no inner quotes.

use std::process::ExitCode;

use rogue_scenario::{load_source, run_scenario};

fn usage() -> ExitCode {
    eprintln!(
        "usage: scenario_run <file.toml> [--override key.path=value]...\n\
         \x20      scenario_run --smoke <dir>"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut file: Option<String> = None;
    let mut smoke_dir: Option<String> = None;
    let mut overrides: Vec<String> = Vec::new();

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--override" => match it.next() {
                Some(o) => overrides.push(o),
                None => return usage(),
            },
            "--smoke" => match it.next() {
                Some(d) => smoke_dir = Some(d),
                None => return usage(),
            },
            "--help" | "-h" => return usage(),
            _ if file.is_none() => file = Some(arg),
            _ => return usage(),
        }
    }

    let ok = match (file, smoke_dir) {
        (Some(path), None) => run_one(&path, &overrides, false),
        (None, Some(dir)) => smoke(&dir, &overrides),
        _ => return usage(),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Load, run, print. In smoke mode the scenario is downscaled first so a
/// CI leg can cover every checked-in file in seconds.
fn run_one(path: &str, overrides: &[String], smoke: bool) -> bool {
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{path}: {e}");
            return false;
        }
    };
    let sc = match load_source(&src, overrides) {
        Ok(sc) => sc,
        Err(e) => {
            eprintln!("{path}: {e}");
            return false;
        }
    };
    let sc = if smoke { downscale(sc) } else { sc };
    let report = match run_scenario(&sc) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{path}: {e}");
            return false;
        }
    };
    println!("== {path} ==");
    println!("{report}");
    true
}

/// Shrink a scenario to smoke-test size without touching its structure:
/// every section still compiles and runs, just briefly.
fn downscale(mut sc: rogue_scenario::Scenario) -> rogue_scenario::Scenario {
    use rogue_sim::{SimDuration, SimTime};
    sc.report.reps = 1;
    sc.duration = sc.duration.min(SimDuration::from_secs(5));
    let horizon = SimTime::ZERO + sc.duration;
    for p in &mut sc.populations {
        p.count = p.count.min(20);
    }
    // Keep timed rogues inside the shortened horizon so activation still
    // happens (a rogue that never powers on tests nothing).
    for r in &mut sc.rogues {
        if r.start >= horizon {
            r.start = SimTime::ZERO + SimDuration::from_nanos(sc.duration.0 / 2);
        }
    }
    if let Some(e1) = &mut sc.e1 {
        e1.powers_dbm.truncate(2);
    }
    if let Some(e10) = &mut sc.e10 {
        e10.scenarios.truncate(2);
    }
    if let Some(ev) = &mut sc.e10_evasion {
        ev.variants.truncate(2);
    }
    sc
}

/// Collect every `.toml` under `dir`, recursively (the tree groups
/// related scenarios in subdirectories, e.g. `scenarios/evasion/`).
fn collect_tomls(dir: &str, paths: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_tomls(&path.display().to_string(), paths)?;
        } else if path.display().to_string().ends_with(".toml") {
            paths.push(path.display().to_string());
        }
    }
    Ok(())
}

/// Run every `.toml` under `dir`, downscaled; fail if any file fails.
fn smoke(dir: &str, overrides: &[String]) -> bool {
    let mut paths = Vec::new();
    if let Err(e) = collect_tomls(dir, &mut paths) {
        eprintln!("{dir}: {e}");
        return false;
    }
    paths.sort();
    if paths.is_empty() {
        eprintln!("{dir}: no .toml files found");
        return false;
    }
    for p in &paths {
        if !run_one(p, overrides, true) {
            return false;
        }
    }
    println!("smoke: {} scenario(s) ran clean", paths.len());
    true
}
