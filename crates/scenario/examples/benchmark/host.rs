//! Host accounting and the small statistics every run reports.

use std::fs;
use std::time::Instant;

/// CPU time of every live thread of this process, in ns: the sum of the
/// first field of `/proc/self/task/*/schedstat`. The pool's workers live
/// as long as the process, so no thread's time is lost between reads.
pub fn cpu_ns() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Wall and CPU time of one measured region.
pub struct Meter {
    wall: Instant,
    cpu_ns: u64,
}

impl Meter {
    pub fn start() -> Meter {
        Meter {
            cpu_ns: cpu_ns(),
            wall: Instant::now(),
        }
    }

    /// `(wall_s, cpu_s)` since [`Meter::start`].
    pub fn stop(&self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        (wall, cpu_ns().saturating_sub(self.cpu_ns) as f64 / 1e9)
    }
}

/// Median, first and third quartile of `v`, by the method of Python's
/// `statistics.quantiles(v, n=4)` (the default, "exclusive"), so the
/// spreads printed here match those computed from the JSON results with
/// Python. A single value is its own quartiles.
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

pub fn median(v: &[f64]) -> f64 {
    quartiles(v).0
}

/// The `q` quantile of `v` by the nearest-rank method (0 when empty).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    let mut d = v.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => 0.0,
        n => d[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
    }
}

/// 64-bit FNV-1a over formatted text. Output digests must stay equal
/// across toolchains, which `DefaultHasher` does not promise.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}
