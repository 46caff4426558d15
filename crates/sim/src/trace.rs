//! Run metrics: named counters.
//!
//! A world keeps one [`Metrics`] sink for its MAC-layer tallies, and each
//! WIDS pipeline keeps one for its event, alert and incident counts.

use std::collections::BTreeMap;
use std::fmt;

/// Counters keyed by static strings.
#[derive(Default, Clone)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
}

impl Metrics {
    /// Increment a counter by 1.
    pub fn incr(&mut self, key: &'static str) {
        self.add(key, 1);
    }

    /// Increment a counter by `n`.
    pub fn add(&mut self, key: &'static str, n: u64) {
        *self.counters.entry(key).or_insert(0) += n;
    }

    /// Counter value (0 if never touched).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }
}

impl fmt::Debug for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Metrics {{")?;
        for (k, v) in &self.counters {
            writeln!(f, "  {k}: {v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_set() {
        let mut m = Metrics::default();
        m.incr("pkts");
        m.add("pkts", 9);
        assert_eq!(m.counter("pkts"), 10);
        assert_eq!(m.counter("missing"), 0);
        m.add("bytes", 7);
        assert_eq!(format!("{m:?}"), "Metrics {\n  bytes: 7\n  pkts: 10\n}");
    }
}
