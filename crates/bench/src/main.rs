//! `harness` — regenerate every table of the reproduction.
//!
//! ```text
//! cargo run --release -p rogue-bench --bin harness [reps]
//! ```
//!
//! Prints the E1–E10 tables recorded in EXPERIMENTS.md. `reps` (default 5)
//! controls Monte-Carlo replications per cell.
//!
//! Tables go to **stdout** and are bit-deterministic for a given `reps`
//! (regardless of thread count — see DESIGN.md §9); wall-clock timing and
//! the thread count go to **stderr**, so `harness 10 > harness_output.txt`
//! captures a byte-stable record. Parallelism is controlled by
//! `RAYON_NUM_THREADS`.
//!
//! The reports render one after another, as `rogue_bench::render_reports`
//! renders them; each spreads its whole table of replications over the
//! pool as one batch.

use std::time::Instant;

use rogue_bench::{render_report, REPORTS};

fn main() {
    let reps: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(5);
    println!("Countering Rogues in Wireless Networks — reproduction harness");
    println!("replications per cell: {reps}\n");
    eprintln!("threads: {}", rayon::current_num_threads());
    let t0 = Instant::now();
    for report in &REPORTS {
        let r0 = Instant::now();
        print!("{}", render_report(report, reps));
        eprintln!("[{}] {:.2} s", report.id, r0.elapsed().as_secs_f64());
    }
    eprintln!(
        "total wall time: {:.1} s on {} thread(s)",
        t0.elapsed().as_secs_f64(),
        rayon::current_num_threads()
    );
}
