//! The report list of the reproduction harness, and the one way a layer
//! bench times and records itself.
//!
//! Every table of the paper's evaluation is rendered by its experiment
//! driver in `rogue-core` (`report_body`); this crate only names the ten
//! reports, in order, with the paper artifact each reproduces. The
//! `harness` binary prints them, and the golden and determinism suites
//! compare [`render_reports`] and [`render_report`] bytes.
//!
//! A layer bench runs each row's body through [`sample`], which times
//! the part under test with a [`Stopwatch`] (wall and CPU seconds), takes
//! each rate's median and quartiles over the reps with [`spread`], and
//! writes `BENCH_<name>.json` with [`record`]: `host_cpus`, `reps`, and
//! per row every rate's median beside its `_q1` and `_q3`, then the
//! median wall and CPU seconds ([`Row::timing`]). [`peak_rss_mib`] reads
//! the process's peak resident set for a bench that records its memory.

use std::path::Path;
use std::time::Instant;

use rogue_core::experiments::{
    e10_evasion, e10_wids, e1_association, e2_download, e3_vpn, e4_wep, e5_tcp_over_tcp,
    e6_detection, e7_matrix, e8_hotspot, e9_containment,
};
use rogue_core::scenario::CorpScenarioCfg;
use rogue_sim::Seed;

/// Deterministic master seed for all reports.
pub const REPORT_SEED: Seed = Seed(0x2003_1CC9);

/// One report: its id, the paper artifact it reproduces, and its body
/// at `reps` replications per cell.
pub struct Report {
    /// Experiment id ("E1" …).
    pub id: &'static str,
    /// Paper artifact it reproduces.
    pub artifact: &'static str,
    /// The driver's table at [`REPORT_SEED`].
    pub body: fn(usize) -> String,
}

/// The ten reports, in the order the harness prints them.
pub static REPORTS: [Report; 10] = [
    Report {
        id: "E1",
        artifact: "Figure 1 — rogue-AP association capture",
        body: |reps| {
            e1_association::report_body(
                &CorpScenarioCfg::paper_attack(),
                &e1_association::E1Params::default(),
                reps,
                REPORT_SEED,
            )
        },
    },
    Report {
        id: "E2",
        artifact: "Figure 2 / §4.1 — software-download MITM",
        body: |reps| e2_download::report_body(reps, REPORT_SEED),
    },
    Report {
        id: "E3",
        artifact: "Figure 3 / §5 — VPN-everything defence",
        body: |reps| e3_vpn::report_body(reps, REPORT_SEED),
    },
    Report {
        id: "E4",
        artifact: "§4 premise — Airsnort/FMS WEP key recovery",
        body: |reps| e4_wep::report_body(reps, REPORT_SEED),
    },
    Report {
        id: "E5",
        artifact: "§5.3 — TCP-over-TCP encapsulation penalty",
        body: |reps| e5_tcp_over_tcp::report_body(reps, REPORT_SEED),
    },
    Report {
        id: "E6",
        artifact: "§2.3 — rogue-AP detection",
        body: |reps| e6_detection::report_body(reps, REPORT_SEED),
    },
    Report {
        id: "E7",
        artifact: "§§1–3 — the defence matrix",
        body: |reps| e7_matrix::report_body(reps, REPORT_SEED),
    },
    Report {
        id: "E8",
        artifact: "extension: §1.2.2 / §5.1 — the hostile hotspot",
        body: |reps| e8_hotspot::report_body(reps, REPORT_SEED),
    },
    Report {
        id: "E9",
        artifact: "extension: §6 future work — detect-then-contain",
        body: |reps| e9_containment::report_body(reps, REPORT_SEED),
    },
    Report {
        id: "E10",
        artifact: "extension: streaming WIDS precision / recall",
        body: |reps| {
            e10_wids::report_body(
                &CorpScenarioCfg::paper_attack(),
                &e10_wids::E10Params::default(),
                reps,
                REPORT_SEED,
            )
        },
    },
];

/// E10-evasion — the WIDS scored against the adversarial evasion
/// suite. A deliberate extension *of* an extension, so it stays out of
/// [`REPORTS`]: the ten-report harness output (and its golden bytes)
/// stays frozen while the evasion score card gets its own golden and
/// its own determinism leg.
pub static E10_EVASION: Report = Report {
    id: "E10-evasion",
    artifact: "extension: WIDS vs. adversarial evasion suite",
    body: |reps| {
        e10_evasion::report_body(
            &CorpScenarioCfg::paper_attack(),
            &e10_evasion::E10EvasionParams::default(),
            reps,
            REPORT_SEED,
        )
    },
};

const RULE: &str = "────────────────────────────────────────────────────────────";

/// Render one report at `reps` replications exactly as the `harness`
/// binary prints it.
pub fn render_report(report: &Report, reps: usize) -> String {
    format!(
        "{RULE}\n{}: {}\n{RULE}\n{}\n",
        report.id,
        report.artifact,
        (report.body)(reps)
    )
}

/// The harness binary's complete stdout for `reps` replications —
/// deterministic bytes (timing goes to stderr), which is what the
/// golden-file test diffs against the checked-in copy.
pub fn render_reports(reps: usize) -> String {
    let mut out = format!(
        "Countering Rogues in Wireless Networks — reproduction harness\nreplications per cell: {reps}\n\n"
    );
    for report in &REPORTS {
        out.push_str(&render_report(report, reps));
    }
    out
}

/// Where a layer bench writes `BENCH_<name>.json`: the committed
/// recording at the repository root after a full run, and cargo's
/// scratch directory for bench targets (`target/tmp`) after a `-- --test`
/// smoke run, so a smoke never replaces the full-size numbers. A macro
/// because cargo sets `CARGO_TARGET_TMPDIR` only while it compiles a
/// bench or an integration test, not this library.
#[macro_export]
macro_rules! bench_json_path {
    ($name:literal, $smoke:expr) => {
        std::path::Path::new(if $smoke {
            env!("CARGO_TARGET_TMPDIR")
        } else {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../..")
        })
        .join(concat!("BENCH_", $name, ".json"))
    };
}

/// Median, first and third quartile of `v`, by the method of Python's
/// `statistics.quantiles(v, n=4)` (the default, "exclusive"), so a layer
/// bench's spreads match those computed from its JSON with Python. A
/// single value is its own quartiles; an empty slice reads 0.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut d = v.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    match n {
        0 => (0.0, 0.0, 0.0),
        1 => (d[0], d[0], d[0]),
        _ => {
            let q = |i: usize| {
                let m = i * (n + 1);
                let j = (m / 4).clamp(1, n - 1);
                let delta = m as f64 / 4.0 - j as f64;
                d[j - 1] + (d[j] - d[j - 1]) * delta
            };
            let median = if n % 2 == 1 {
                d[n / 2]
            } else {
                (d[n / 2 - 1] + d[n / 2]) / 2.0
            };
            (median, q(1), q(3))
        }
    }
}

/// CPU time of every live thread of this process, in ns: the sum of the
/// first field of `/proc/self/task/*/schedstat` (0 where that is absent).
/// The kernel brings a running thread's figure up to date only at a
/// scheduler tick or switch, so the caller yields first; without that its
/// own figure reads up to one tick (4 ms at 250 Hz) stale.
fn cpu_ns() -> u64 {
    std::thread::yield_now();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Peak resident set of this process so far, in MiB: `VmHWM` from
/// `/proc/self/status` (0 where that is absent).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB")?.trim().parse::<u64>().ok())
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// What one rep of a layer bench times: the sections its body runs
/// through [`Stopwatch::time`], and nothing else (building the input,
/// digesting and checking the output stay outside). A section's CPU
/// seconds also carry part of its two `schedstat` reads, about 30 µs on
/// a 2-vCPU VM, which shows only on sub-millisecond sections.
pub struct Stopwatch {
    wall_s: f64,
    cpu_s: f64,
}

impl Stopwatch {
    /// Run `f`, adding its wall and CPU seconds to this rep's.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let cpu0 = cpu_ns();
        let t0 = Instant::now();
        let out = f();
        self.wall_s += t0.elapsed().as_secs_f64();
        self.cpu_s += cpu_ns().saturating_sub(cpu0) as f64 / 1e9;
        out
    }
}

/// One rep of a layer bench: what its body returned, and the wall and CPU
/// seconds of the sections it timed.
pub struct Rep<T> {
    /// The body's output.
    pub out: T,
    /// Wall-clock seconds of the timed sections.
    pub wall_s: f64,
    /// CPU seconds of every thread of the process over the timed sections.
    pub cpu_s: f64,
}

/// Run `body` `reps` times, each with a fresh [`Stopwatch`], and return
/// every rep in order.
pub fn sample<T>(reps: usize, mut body: impl FnMut(&mut Stopwatch) -> T) -> Vec<Rep<T>> {
    (0..reps)
        .map(|_| {
            let mut clock = Stopwatch {
                wall_s: 0.0,
                cpu_s: 0.0,
            };
            let out = body(&mut clock);
            Rep {
                out,
                wall_s: clock.wall_s,
                cpu_s: clock.cpu_s,
            }
        })
        .collect()
}

/// Median, first and third quartile ([`quartiles`]) of a per-rep figure.
/// For a rate such as `|r| events / r.wall_s`, each rep's rate is taken
/// first and the rates are ranked; inverting the quartiles of the times
/// would give other values whenever they interpolate.
pub fn spread<T>(reps: &[Rep<T>], figure: impl Fn(&Rep<T>) -> f64) -> (f64, f64, f64) {
    quartiles(&reps.iter().map(figure).collect::<Vec<_>>())
}

/// One JSON object of a layer-bench recording, on one line, keys in the
/// order they were added.
#[derive(Default)]
pub struct Row(Vec<(String, String)>);

impl Row {
    fn put(mut self, key: &str, json: String) -> Row {
        self.0.push((key.to_string(), json));
        self
    }

    /// An integer: a count, a size, a configuration value.
    pub fn int(self, key: &str, v: u64) -> Row {
        self.put(key, v.to_string())
    }

    /// A number with `digits` decimals; `null` if it is not finite.
    pub fn num(self, key: &str, v: f64, digits: usize) -> Row {
        let json = if v.is_finite() {
            format!("{v:.digits$}")
        } else {
            "null".to_string()
        };
        self.put(key, json)
    }

    /// A string.
    pub fn text(self, key: &str, v: &str) -> Row {
        let escaped = v.replace('\\', "\\\\").replace('"', "\\\"");
        self.put(key, format!("\"{escaped}\""))
    }

    /// A [`spread`]: the median under `key`, its quartiles under
    /// `key_q1` and `key_q3`.
    pub fn rate(self, key: &str, (median, q1, q3): (f64, f64, f64), digits: usize) -> Row {
        self.num(key, median, digits)
            .num(&format!("{key}_q1"), q1, digits)
            .num(&format!("{key}_q3"), q3, digits)
    }

    /// The median wall and CPU seconds of `reps`, as `wall_s` and `cpu_s`.
    pub fn timing<T>(self, reps: &[Rep<T>]) -> Row {
        self.num("wall_s", spread(reps, |r| r.wall_s).0, 6).num(
            "cpu_s",
            spread(reps, |r| r.cpu_s).0,
            6,
        )
    }

    /// A nested object.
    pub fn obj(self, key: &str, v: Row) -> Row {
        self.put(key, v.render())
    }

    /// A list of objects.
    pub fn list(self, key: &str, v: &[Row]) -> Row {
        let items: Vec<String> = v.iter().map(Row::render).collect();
        self.put(key, format!("[{}]", items.join(", ")))
    }

    fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The text of `BENCH_<bench>.json`: the bench's name, the host's CPU
/// count and the reps per row, then `head`'s fields one per line, then one
/// line per row under `results`.
fn render(bench: &str, host_cpus: usize, reps: usize, head: &Row, results: &[Row]) -> String {
    let mut lines: Vec<String> = Row::default()
        .text("bench", bench)
        .int("host_cpus", host_cpus as u64)
        .int("reps", reps as u64)
        .0
        .into_iter()
        .chain(head.0.iter().cloned())
        .map(|(k, v)| format!("  \"{k}\": {v},"))
        .collect();
    let rows: Vec<String> = results
        .iter()
        .map(|r| format!("    {}", r.render()))
        .collect();
    lines.push(format!("  \"results\": [\n{}\n  ]", rows.join(",\n")));
    format!("{{\n{}\n}}\n", lines.join("\n"))
}

/// Write a layer bench's recording to `path` (from [`bench_json_path!`])
/// and say where it went.
pub fn record(path: &Path, bench: &str, reps: usize, head: Row, results: &[Row]) {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::fs::write(path, render(bench, host_cpus, reps, &head, results))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::{peak_rss_mib, quartiles, render, sample, spread, Rep, Row};

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([...], n=4) and statistics.median.
        assert_eq!(quartiles(&[]), (0.0, 0.0, 0.0));
        assert_eq!(quartiles(&[2.0]), (2.0, 2.0, 2.0));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (2.0, 1.0, 3.0));
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (2.5, 1.25, 3.75));
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (3.0, 1.5, 4.5));
    }

    #[test]
    fn sample_runs_the_body_once_per_rep_and_times_only_its_sections() {
        let mut calls = 0;
        let reps = sample(4, |clock| {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(2));
            if calls % 2 == 0 {
                clock.time(|| std::thread::sleep(std::time::Duration::from_millis(1)));
            }
            calls
        });
        assert_eq!(reps.iter().map(|r| r.out).collect::<Vec<_>>(), [1, 2, 3, 4]);
        for r in &reps {
            if r.out % 2 == 0 {
                assert!(r.wall_s >= 0.001, "the timed sleep: {}", r.wall_s);
            } else {
                assert_eq!((r.wall_s, r.cpu_s), (0.0, 0.0), "nothing timed");
            }
        }
        assert!(sample(0, |_| ()).is_empty());
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_covers_pages_the_process_touched() {
        let before = peak_rss_mib();
        let touched = vec![1u8; 32 << 20];
        let after = peak_rss_mib();
        std::hint::black_box(&touched);
        assert!(before > 0.0, "VmHWM read {before}");
        assert!(after >= before.max(32.0), "{before} MiB, then {after} MiB");
    }

    #[test]
    fn a_rates_quartiles_rank_the_per_rep_rates() {
        let reps: Vec<Rep<()>> = [1.0, 2.0, 4.0, 8.0]
            .into_iter()
            .map(|wall_s| Rep {
                out: (),
                wall_s,
                cpu_s: wall_s,
            })
            .collect();
        // Per-rep rates 8, 4, 2, 1 have quartiles (3, 1.25, 7); inverting
        // the times' quartiles (3, 1.25, 7) would read (2.67, 1.14, 6.4).
        assert_eq!(spread(&reps, |r| 8.0 / r.wall_s), (3.0, 1.25, 7.0));
        assert_eq!(spread(&reps, |r| r.wall_s), (3.0, 1.25, 7.0));
    }

    #[test]
    fn a_recording_renders_to_fixed_text() {
        let reps: Vec<Rep<()>> = [0.5, 0.25, 1.0]
            .into_iter()
            .map(|wall_s| Rep {
                out: (),
                wall_s,
                cpu_s: wall_s / 2.0,
            })
            .collect();
        let head = Row::default()
            .int("payload_len", 256)
            .text("baseline", "best of 5 \"reps\"");
        let rows = [
            Row::default()
                .int("monitors", 1)
                .rate("frames_per_sec", spread(&reps, |r| 100.0 / r.wall_s), 0)
                .timing(&reps)
                .num("speedup", f64::INFINITY, 2),
            Row::default()
                .list("runs", &[Row::default().num("wall_s", 0.5, 3)])
                .obj("profile", Row::default().int("overhead_permille", 26)),
        ];
        assert_eq!(
            render("phy_zero_copy", 2, 3, &head, &rows),
            concat!(
                "{\n",
                "  \"bench\": \"phy_zero_copy\",\n",
                "  \"host_cpus\": 2,\n",
                "  \"reps\": 3,\n",
                "  \"payload_len\": 256,\n",
                "  \"baseline\": \"best of 5 \\\"reps\\\"\",\n",
                "  \"results\": [\n",
                "    {\"monitors\": 1, \"frames_per_sec\": 200, \"frames_per_sec_q1\": 100, ",
                "\"frames_per_sec_q3\": 400, \"wall_s\": 0.500000, \"cpu_s\": 0.250000, ",
                "\"speedup\": null},\n",
                "    {\"runs\": [{\"wall_s\": 0.500}], ",
                "\"profile\": {\"overhead_permille\": 26}}\n",
                "  ]\n",
                "}\n",
            )
        );
    }
}
