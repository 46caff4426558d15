//! §2.3: detecting the rogue — site audit, sequence-control monitoring,
//! and the wired monitor's silence.
//!
//! ```text
//! cargo run --release --example detect_rogue
//! ```

use rogue_core::experiments::e1_association::capture_with_deauth;
use rogue_core::experiments::e6_detection::{detection_vs_dwell, run_detection_once};
use rogue_core::report::{pct, Table};
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
    let rows = detection_vs_dwell(&[100, 250, 500, 1000], 3, Seed(9));
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
    println!("{}", t.render());

    println!("\n== And the attack the detectors are racing: forced deauth roaming ==\n");
    let rows = capture_with_deauth(3, Seed(10));
    let mut t = Table::new(&["forged deauth", "capture rate", "mean time to capture s"]);
    for r in &rows {
        t.row(&[
            r.deauth.to_string(),
            pct(r.capture_rate),
            format!("{:.2}", r.mean_capture_after_start_secs),
        ]);
    }
    println!("{}", t.render());
    println!("A late-arriving rogue captures nobody until it forges deauthentication —");
    println!("then the sticky association breaks and the stronger signal wins in seconds.");
}
