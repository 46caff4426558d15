//! # rogue-scenario — a declarative scenario language
//!
//! Experiments so far were hand-coded Rust: `build_corp` wires the §3
//! corporate network, each E-series driver scripts its own attack. This
//! crate adds the layer the paper's *operational* sections imply — a way
//! to describe a deployment (AP layout, client populations, mobility,
//! traffic mix, rogue placement and activation timing) as data, and run
//! it without writing a new driver:
//!
//! ```text
//!   .toml text ──parse──▶ toml::Table ──validate──▶ spec::Scenario
//!        (overrides patch the Table here)               │
//!                                      ┌───────────────┴──────────────┐
//!                               report.kind = summary          e1 / e10
//!                                      │                             │
//!                    generate::expand_all (populations)     experiment drivers
//!                    compile::compile  (World + walkers)    in rogue-core, at
//!                    run::run_summary  (tick loop)          the file's params
//! ```
//!
//! Everything forks from the file's `seed`, so a scenario is a pure
//! function of its text: same file + same seed ⇒ byte-identical report,
//! regardless of thread count. The `e1`/`e10` report kinds call the same
//! formatting code the `rogue-bench` harness uses, so a file encoding
//! the paper defaults reproduces the checked-in tables byte-for-byte.
//!
//! The parser is hand-rolled ([`toml`]) — the reproduction takes no new
//! dependencies — and every error carries the line/column it came from.

#![forbid(unsafe_code)]

pub mod compile;
pub mod generate;
pub mod mobility;
pub mod run;
pub mod spec;
pub mod toml;

pub use compile::{compile, Compiled};
pub use run::{apply_override, run_scenario, run_summary, run_tick, SummaryStats};
pub use spec::{parse_scenario, ReportKind, Scenario};
pub use toml::{parse, parse_value_or_str, Error};

/// Parse a scenario source, apply `--override` specs, validate, run, and
/// return the report — the whole front door in one call.
pub fn run_source(src: &str, overrides: &[String]) -> Result<String, Error> {
    let sc = load_source(src, overrides)?;
    run::run_scenario(&sc)
}

/// Parse + patch + validate, without running (tests and tools use this
/// to inspect the typed scenario). An error on a value an override
/// wrote names that override.
pub fn load_source(src: &str, overrides: &[String]) -> Result<Scenario, Error> {
    let mut root = toml::parse(src)?;
    let named = |e| run::name_override(e, overrides);
    for (nth, o) in overrides.iter().enumerate() {
        run::apply_nth_override(&mut root, o, nth).map_err(named)?;
    }
    spec::from_table(&root).map_err(named)
}
