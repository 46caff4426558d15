//! Figure 2 in detail: the software-download MITM, with the gateway's
//! internals exposed, plus the §4.2 boundary-miss limitation.
//!
//! ```text
//! cargo run --release --example download_mitm
//! ```

use rogue_core::experiments::e2_download::{self, run_download_mitm, DownloadMitmConfig};
use rogue_core::report::Table;
use rogue_sim::Seed;

fn main() {
    println!("== Figure 2: Software Download MITM Detail ==\n");

    // One run with the paper's exact configuration, and the healthy
    // baseline next to it.
    let attack = run_download_mitm(&DownloadMitmConfig::paper(), Seed(42));
    let baseline = run_download_mitm(&DownloadMitmConfig::baseline(), Seed(42));

    let mut t = Table::new(&["", "healthy network", "through rogue gateway"]);
    let row = |name: &str, a: String, b: String| [name.to_string(), a, b];
    t.row(&row(
        "on rogue AP",
        baseline.victim_on_rogue.to_string(),
        attack.victim_on_rogue.to_string(),
    ));
    t.row(&row(
        "link on page",
        baseline.link_seen.clone().unwrap_or_default(),
        attack.link_seen.clone().unwrap_or_default(),
    ));
    t.row(&row(
        "file server",
        baseline
            .file_server
            .map(|i| i.to_string())
            .unwrap_or_default(),
        attack
            .file_server
            .map(|i| i.to_string())
            .unwrap_or_default(),
    ));
    t.row(&row(
        "got trojan",
        baseline.victim_got_trojan.to_string(),
        attack.victim_got_trojan.to_string(),
    ));
    t.row(&row(
        "md5 check passed",
        baseline.md5_check_passed.to_string(),
        attack.md5_check_passed.to_string(),
    ));
    t.row(&row(
        "netsed hits",
        baseline.netsed_replacements.to_string(),
        attack.netsed_replacements.to_string(),
    ));
    println!("{}", t.render());

    // §4.2: "netsed will not match strings that cross packet boundaries."
    println!("\n== §4.2 limitation: rewrite success vs server segment size ==\n");
    println!("{}", e2_download::report_body(12, Seed(7)));
    println!("Small segments split the target strings across TCP boundaries, and the");
    println!("per-chunk editor misses them — the paper's own caveat, quantified.");
}
