//! Ablations over the attacker's design choices — the knobs the paper's
//! Figure 1 fixes without comment, measured:
//!
//! * **Rogue channel** — the paper puts the rogue on channel 6 while the
//!   valid AP sits on 1. Co-channel and adjacent-channel placements make
//!   the rogue's own uplink fight its victims for air.
//! * **Rogue transmit power** — the attack's only analogue knob.
//!
//! ```text
//! cargo bench -p rogue-bench --bench ablations
//! ```

use rogue_core::experiments::e2_download::{run_download_mitm, DownloadMitmConfig};
use rogue_core::report::{pct, Table};
use rogue_core::scenario::{CorpScenarioCfg, RogueCfg};
use rogue_sim::Seed;

fn channel_ablation() -> String {
    let mut t = Table::new(&["rogue channel", "note", "attack success"]);
    for (ch, note) in [
        (1u8, "co-channel with valid AP"),
        (2, "adjacent"),
        (4, "partial overlap"),
        (6, "non-overlapping (paper)"),
        (11, "non-overlapping, far"),
    ] {
        let reps = 5;
        let ok = (0..reps)
            .filter(|&rep| {
                let mut cfg = CorpScenarioCfg::paper_attack();
                cfg.rogue = Some(RogueCfg {
                    channel: ch,
                    ..RogueCfg::default()
                });
                let r = run_download_mitm(
                    &DownloadMitmConfig { scenario: cfg },
                    Seed(0xAB1 + ch as u64 * 100 + rep),
                );
                r.victim_got_trojan && r.md5_check_passed
            })
            .count();
        t.row(&[
            ch.to_string(),
            note.to_string(),
            pct(ok as f64 / reps as f64),
        ]);
    }
    t.render()
}

fn power_ablation() -> String {
    let mut t = Table::new(&["rogue tx dBm", "attack success"]);
    for p in [-5.0f64, 5.0, 18.0] {
        let reps = 5;
        let ok = (0..reps)
            .filter(|&rep| {
                let mut cfg = CorpScenarioCfg::paper_attack();
                cfg.shadowing_sigma_db = 6.0;
                cfg.rogue = Some(RogueCfg {
                    tx_power_dbm: p,
                    ..RogueCfg::default()
                });
                let r = run_download_mitm(
                    &DownloadMitmConfig { scenario: cfg },
                    Seed((0xAB2 + (p as i64 as u64)) << 8 | rep),
                );
                r.victim_got_trojan && r.md5_check_passed
            })
            .count();
        t.row(&[format!("{p:+.0}"), pct(ok as f64 / reps as f64)]);
    }
    t.render()
}

fn main() {
    println!(
        "\n== Ablation: rogue channel choice ==\n{}",
        channel_ablation()
    );
    println!(
        "== Ablation: rogue power (6 dB shadowing) ==\n{}",
        power_ablation()
    );
}
