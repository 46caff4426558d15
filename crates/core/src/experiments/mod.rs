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
