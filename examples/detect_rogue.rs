//! §2.3: detecting the rogue — site audit, sequence-control monitoring,
//! and the wired monitor's silence.
//!
//! ```text
//! cargo run --release --example detect_rogue
//! ```

use rogue_core::experiments::e1_association::{self, E1Params};
use rogue_core::experiments::e6_detection::{self, run_detection_once};
use rogue_core::scenario::CorpScenarioCfg;
use rogue_sim::{Seed, SimDuration, SimTime};

fn main() {
    println!("== One detection run (rogue appears at t = 2 s) ==\n");
    let o = run_detection_once(
        SimDuration::from_millis(250),
        SimTime::from_secs(15),
        Seed(8),
    );
    println!("beacons captured by the sweep  : {}", o.beacons_captured);
    println!(
        "site audit (dup BSSID) latency : {}",
        o.audit_latency_secs
            .map(|s| format!("{s:.2} s"))
            .unwrap_or_else(|| "not detected".into())
    );
    println!(
        "sequence monitor latency       : {}",
        o.seqmon_latency_secs
            .map(|s| format!("{s:.2} s"))
            .unwrap_or_else(|| "not detected".into())
    );
    println!(
        "wired monitor alarmed          : {} (no frame crosses the corp switch during the sweep)\n",
        o.wired_alarmed
    );

    println!("== Detection vs sweep dwell ==\n");
    println!("{}", e6_detection::report_body(3, Seed(9)));
    println!("\n== And the attack the detectors are racing: the scan race, then forced deauth roaming ==\n");
    let body = e1_association::report_body(
        &CorpScenarioCfg::paper_attack(),
        &E1Params::default(),
        3,
        Seed(10),
    );
    println!("{body}");
    println!("The louder AP wins the scan race. A late-arriving rogue captures nobody until it");
    println!("forges deauthentication — then the sticky association breaks and the stronger");
    println!("signal wins in seconds.");
}
