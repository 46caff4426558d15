//! The streaming WIDS watching the paper's attack live.
//!
//! Three fixed monitor radios (channels 1 / 6 / 11) and a span-port tap
//! on the corporate switch feed the `rogue-wids` pipeline while each
//! scripted scenario plays out; the correlator's incidents are scored
//! against ground truth (E10).
//!
//! ```text
//! cargo run --release --example wids_live
//! ```

use rogue_core::experiments::e10_wids::{report_body, run_wids_once, E10Params, WidsScenario};
use rogue_core::report::Table;
use rogue_core::scenario::CorpScenarioCfg;
use rogue_sim::Seed;

fn main() {
    for scenario in WidsScenario::all() {
        let o = run_wids_once(scenario, Seed(0xE10));
        println!("== {} ==\n", scenario.name());
        println!(
            "events seen: {}   ring drops: {}   incidents opened: {}",
            o.events, o.ring_dropped, o.incidents
        );
        if o.incident_log.is_empty() {
            println!("(no incidents — every frame looked legitimate)");
        } else {
            let mut t = Table::new(&["incident", "subject", "opened at", "score"]);
            for (category, subject, opened_at, score) in &o.incident_log {
                t.row(&[
                    format!("{category:?}"),
                    subject.to_string(),
                    format!("{:.3} s", opened_at.as_secs_f64()),
                    format!("{score:.2}"),
                ]);
            }
            println!("{}", t.render());
        }
        println!(
            "precision {:.2}   recall {:.2}   median latency {}\n",
            o.eval.precision(),
            o.eval.recall(),
            if o.eval.latencies_secs.is_empty() {
                "—".to_string()
            } else {
                format!("{:.2} s", o.eval.median_latency_secs())
            }
        );
    }

    println!("== E10 score card (3 reps per scenario, Markdown) ==\n");
    let body = report_body(
        &CorpScenarioCfg::paper_attack(),
        &E10Params::default(),
        3,
        Seed(0xE10),
    );
    println!("{body}");
    println!("\nThe wired tap never fires in the rogue-ap scenario: the client-side");
    println!("rogue leaves no wired footprint (§1) — only the radio sensors see it.");
}
