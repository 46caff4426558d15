//! The paper's experiments, one module per artifact (DESIGN.md §4).
//!
//! | module | paper artifact |
//! |---|---|
//! | [`e1_association`] | Figure 1 — rogue-AP association capture |
//! | [`e2_download`] | Figure 2 / §4.1 — software-download MITM |
//! | [`e3_vpn`] | Figure 3 / §5 — VPN-everything defence |
//! | [`e4_wep`] | §4 premise — Airsnort/FMS WEP key recovery |
//! | [`e5_tcp_over_tcp`] | §5.3 — TCP-encapsulation penalty |
//! | [`e6_detection`] | §2.3 — sequence-control rogue detection |
//! | [`e7_matrix`] | §§1–3 — the defence matrix |
//! | [`e8_hotspot`] | extension: §1.2.2 / §5.1 — the hostile hotspot |
//! | [`e9_containment`] | extension: §6 future work — active rogue containment |
//! | [`e10_wids`] | extension: streaming WIDS precision / recall harness |
//!
//! Each module's `report_body` is the only formatter of its table: the
//! `rogue-bench` harness, the examples and the scenario compiler all
//! print what it renders.

pub mod e1_association;
pub mod e2_download;
pub mod e3_vpn;
pub mod e4_wep;
pub mod e5_tcp_over_tcp;
pub mod e6_detection;
pub mod e7_matrix;
pub mod e8_hotspot;
pub mod e9_containment;

pub mod e10_evasion;
pub mod e10_wids;

/// Run `run(cell, rep)` for replications `0..reps` of every cell as one
/// flat batch on the pool, and return each cell's outcomes in
/// replication order. Every E1–E10 table fans out through here; a
/// replication is a pure function of its cell and its forked seed, so
/// the outcomes are the same at any thread count.
pub(crate) fn replicate<C: Sync, O: Send>(
    cells: &[C],
    reps: usize,
    run: impl Fn(&C, usize) -> O + Sync,
) -> Vec<Vec<O>> {
    let batch = cells
        .iter()
        .flat_map(|cell| (0..reps).map(move |rep| (cell, rep)))
        .collect();
    let mut outcomes = rayon::map(batch, |(cell, rep)| run(cell, rep)).into_iter();
    cells
        .iter()
        .map(|_| outcomes.by_ref().take(reps).collect())
        .collect()
}

/// Fraction of `outcomes` for which `pred` holds (0 over no outcomes).
pub(crate) fn rate<T>(outcomes: &[T], pred: impl Fn(&T) -> bool) -> f64 {
    outcomes.iter().filter(|o| pred(o)).count() as f64 / outcomes.len().max(1) as f64
}

/// Mean of `values`, NaN when there are none.
pub(crate) fn mean_or_nan(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::replicate;
    use std::time::Duration;

    #[test]
    fn replicate_keeps_cell_and_replication_order() {
        let (cells, reps) = ([0usize, 1, 2], 4);
        let expected: Vec<Vec<usize>> = cells
            .iter()
            .map(|cell| (0..reps).map(|rep| cell * 100 + rep).collect())
            .collect();
        for threads in [1, 2, 4] {
            let out = rayon::with_num_threads(threads, || {
                replicate(&cells, reps, |&cell, rep| {
                    // The earliest items sleep longest, so finish last.
                    let item = cell * reps + rep;
                    std::thread::sleep(Duration::from_millis((cells.len() * reps - item) as u64));
                    cell * 100 + rep
                })
            });
            assert_eq!(out, expected, "threads={threads}");
        }
        // `harness 0`: no replications, but still one (empty) row per cell.
        assert_eq!(replicate(&cells, 0, |&cell, _| cell), vec![vec![]; 3]);
    }
}
