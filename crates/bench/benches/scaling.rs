//! Thread-scaling sweep for the replication executor: threads ∈
//! {1, 2, 4, 8} × a reps sweep, timed over E4 (WEP crack — pure
//! CPU-bound crypto) and E10 (WIDS pipeline — allocation-heavy event
//! processing). Reported as wall-clock plus speedup over the 1-thread
//! run of the same workload.
//!
//! ```text
//! cargo bench --offline -p rogue-bench --bench scaling
//! ```
//!
//! Determinism note: every cell of this sweep produces byte-identical
//! report tables (that is what `tests/report_determinism.rs` asserts);
//! only the wall-clock changes with the thread count. On hosts with
//! fewer hardware threads than a row requests, the pool oversubscribes
//! and the speedup column shows it — the table prints the hardware
//! parallelism so such rows are interpretable.

use std::hint::black_box;
use std::time::Instant;

use rogue_bench::{Report, REPORTS};
use rogue_core::report::Table;

struct Workload {
    name: &'static str,
    report: &'static Report,
    reps_sweep: &'static [usize],
}

fn main() {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("hardware threads: {hw}");
    if hw < 4 {
        println!("note: <4 hardware threads — speedups above {hw}x are not reachable here");
    }
    let workloads = [
        Workload {
            name: "E4 WEP crack (CPU-bound)",
            report: &REPORTS[3],
            reps_sweep: &[4, 8],
        },
        Workload {
            name: "E10 WIDS pipeline",
            report: &REPORTS[9],
            reps_sweep: &[5, 10],
        },
    ];
    for w in &workloads {
        println!("\n{}", w.name);
        let mut table = Table::new(&["threads", "reps", "wall s", "speedup vs 1T"]);
        for &reps in w.reps_sweep {
            // Warm-up outside the timed region: first use spawns pool
            // workers and faults in code paths.
            let run = |reps| black_box((w.report.body)(reps));
            rayon::with_num_threads(2, || run(reps.min(2)));
            let mut baseline = f64::NAN;
            for threads in [1usize, 2, 4, 8] {
                let t0 = Instant::now();
                rayon::with_num_threads(threads, || run(reps));
                let secs = t0.elapsed().as_secs_f64();
                if threads == 1 {
                    baseline = secs;
                }
                table.row(&[
                    threads.to_string(),
                    reps.to_string(),
                    format!("{secs:.3}"),
                    format!("{:.2}x", baseline / secs),
                ]);
            }
        }
        print!("{}", table.render());
    }
}
