//! Sequence-control anomaly detection (Wright's MAC-spoof detector),
//! generalized to the streaming [`Detector`] interface.
//!
//! This is the same counter-tracking state machine as
//! `rogue_detect::seqmon::SeqMonitor`, re-hosted on the pipeline's
//! bounded per-source state substrate: each transmitter's counter state
//! lives in a [`BoundedTable`] slot instead of an unbounded `HashMap`
//! entry, so an attacker cycling through randomized source addresses
//! recycles slots instead of growing the detector.
//!
//! One refinement over the raw monitor: channel divergence is only
//! evidence against an *AP* transmitter (a BSS cannot move channels
//! without its stations noticing), while a client station hopping
//! channels is just roaming. Divergence alerts are therefore suppressed
//! for transmitters never seen acting as a BSSID.

use rogue_detect::seqmon::SeqMonConfig;
use rogue_dot11::MacAddr;
use rogue_sim::SimTime;

use crate::detector::{AlertKind, Detector, RawAlert};
use crate::event::{Dot11Kind, SensorEvent};
use crate::sketch::{hash_mac, BoundedTable};

const TA_GROUPS: usize = 4096;
const TA_WAYS: usize = 4;

/// Per-transmitter counter state (one bounded slot).
struct SeqEntry {
    last_seq: Option<u16>,
    last_channel: Option<u8>,
    /// Most recent anomaly times, capped at the alarm threshold — the
    /// alarm only ever needs the newest `threshold` sightings.
    anomaly_times: Vec<SimTime>,
    alarmed_seq: bool,
    alarmed_chan: bool,
    /// Seen with `ta == bssid` — an AP-side radio.
    is_ap: bool,
}

impl SeqEntry {
    fn new() -> SeqEntry {
        SeqEntry {
            last_seq: None,
            last_channel: None,
            anomaly_times: Vec::new(),
            alarmed_seq: false,
            alarmed_chan: false,
            is_ap: false,
        }
    }
}

/// Streaming sequence-control monitor over bounded per-source state.
pub struct SeqControlDetector {
    cfg: SeqMonConfig,
    table: BoundedTable<MacAddr, SeqEntry>,
    observed: u64,
}

impl SeqControlDetector {
    /// Detector with the given tuning.
    pub fn new(cfg: SeqMonConfig) -> SeqControlDetector {
        SeqControlDetector {
            cfg,
            table: BoundedTable::new(TA_GROUPS, TA_WAYS),
            observed: 0,
        }
    }

    /// Frames observed so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Transmitters currently tracked (bounded by the table capacity).
    pub fn tracked_sources(&self) -> usize {
        self.table.tracked()
    }

    /// Fixed per-source state footprint, in bytes.
    pub fn state_bytes(&self) -> usize {
        self.table.bytes()
    }

    /// Entries recycled under source-cardinality pressure.
    pub fn evictions(&self) -> u64 {
        self.table.evictions
    }
}

impl Default for SeqControlDetector {
    fn default() -> Self {
        SeqControlDetector::new(SeqMonConfig::default())
    }
}

impl Detector for SeqControlDetector {
    fn name(&self) -> &'static str {
        "seq-control"
    }

    fn on_event(&mut self, ev: &SensorEvent, out: &mut Vec<RawAlert>) {
        let SensorEvent::Dot11(e) = ev else { return };
        if e.kind == Dot11Kind::Ack {
            return; // no sequence counter, no transmitter address
        }
        self.observed += 1;
        let cfg = &self.cfg;
        let (at, ta, channel) = (e.at, e.ta, e.channel);
        let st = self.table.entry(at, hash_mac(&ta.0), ta, SeqEntry::new);
        st.is_ap |= ta == e.bssid;

        // Channel divergence is immediate, unambiguous evidence — against
        // an AP. The alarmed flag latches either way (matching the raw
        // monitor), so a roaming client later seen as an AP does not
        // retroactively alarm.
        if let Some(prev) = st.last_channel {
            if prev != channel && !st.alarmed_chan {
                st.alarmed_chan = true;
                if st.is_ap {
                    out.push(RawAlert {
                        at,
                        detector: "seq-control",
                        subject: ta,
                        kind: AlertKind::ChannelDivergence,
                        weight: 0.9,
                        detail: format!("heard on channel {prev} and {channel}"),
                    });
                }
            }
        }
        st.last_channel = Some(channel);

        if let Some(last) = st.last_seq {
            // Wright's spoof signature: the merged stream of two radios
            // behind one address either repeats a counter value outright
            // (a non-retry exact duplicate — ARQ retransmissions repeat
            // the number but set the retry flag) or jumps backward by more
            // than capture reordering can explain. All arithmetic is
            // modulo 4096, so the 0x0FFF -> 0x000 wrap shows as a small
            // forward delta and stays clean.
            let delta = e.seq.wrapping_sub(last) & 0x0FFF;
            let is_anomaly = (delta == 0 && !e.retry)
                || (delta > cfg.max_normal_gap && delta < 4096 - cfg.reorder_tolerance);
            if is_anomaly {
                if st.anomaly_times.len() >= cfg.alarm_threshold as usize {
                    st.anomaly_times.remove(0);
                }
                st.anomaly_times.push(at);
                let window_start = SimTime(at.as_nanos().saturating_sub(cfg.window.as_nanos()));
                st.anomaly_times.retain(|&t| t >= window_start);
                if st.anomaly_times.len() as u32 >= cfg.alarm_threshold && !st.alarmed_seq {
                    st.alarmed_seq = true;
                    out.push(RawAlert {
                        at,
                        detector: "seq-control",
                        subject: ta,
                        kind: AlertKind::SequenceAnomaly,
                        weight: 0.7,
                        detail: format!(
                            "{} interleaved-counter jumps within {}",
                            st.anomaly_times.len(),
                            cfg.window
                        ),
                    });
                }
            }
        }
        st.last_seq = Some(e.seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Dot11Event, SensorId};
    use rogue_dot11::MacAddr;
    use rogue_sim::SimTime;

    fn frame(ms: u64, seq: u16, channel: u8) -> SensorEvent {
        SensorEvent::Dot11(Dot11Event {
            sensor: SensorId(0),
            at: SimTime::from_millis(ms),
            channel,
            rssi_dbm: -40.0,
            ta: MacAddr::local(1),
            ra: MacAddr::BROADCAST,
            bssid: MacAddr::local(1),
            seq,
            retry: false,
            kind: Dot11Kind::Mgmt,
        })
    }

    #[test]
    fn interleaved_counters_raise_sequence_alerts() {
        let mut d = SeqControlDetector::default();
        let mut out = Vec::new();
        let (mut a, mut b) = (100u16, 3000u16);
        for i in 0..40u64 {
            let seq = if i % 2 == 0 {
                a += 1;
                a
            } else {
                b += 1;
                b
            };
            d.on_event(&frame(i * 50, seq % 4096, 1), &mut out);
        }
        assert!(out.iter().any(|a| a.kind == AlertKind::SequenceAnomaly));
    }

    #[test]
    fn channel_divergence_is_immediate_and_strong() {
        let mut d = SeqControlDetector::default();
        let mut out = Vec::new();
        d.on_event(&frame(0, 1, 1), &mut out);
        d.on_event(&frame(10, 2, 6), &mut out);
        let alert = out
            .iter()
            .find(|a| a.kind == AlertKind::ChannelDivergence)
            .expect("divergence alert");
        assert!(alert.weight > 0.8);
        assert_eq!(alert.subject, MacAddr::local(1));
    }

    #[test]
    fn roaming_client_does_not_diverge() {
        // ta != bssid: a station moving from its old AP's channel to a
        // new one. Roaming is legitimate — no divergence alert.
        let mut d = SeqControlDetector::default();
        let mut out = Vec::new();
        let sta = MacAddr::local(50);
        let mk = |ms: u64, seq: u16, channel: u8, bssid: MacAddr| {
            SensorEvent::Dot11(Dot11Event {
                sensor: SensorId(0),
                at: SimTime::from_millis(ms),
                channel,
                rssi_dbm: -40.0,
                ta: sta,
                ra: bssid,
                bssid,
                seq,
                retry: false,
                kind: Dot11Kind::Data { protected: false },
            })
        };
        d.on_event(&mk(0, 1, 1, MacAddr::local(1)), &mut out);
        d.on_event(&mk(500, 2, 6, MacAddr::local(9)), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn clean_counter_stays_silent() {
        let mut d = SeqControlDetector::default();
        let mut out = Vec::new();
        for i in 0..300u64 {
            d.on_event(&frame(i * 10, (i % 4096) as u16, 1), &mut out);
        }
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(d.observed(), 300);
    }

    #[test]
    fn state_stays_bounded_under_randomized_sources() {
        let mut d = SeqControlDetector::default();
        let mut out = Vec::new();
        let cap = TA_GROUPS * TA_WAYS;
        for i in 0..200_000u64 {
            let mut e = frame(i / 100, (i % 4096) as u16, 1);
            if let SensorEvent::Dot11(ev) = &mut e {
                ev.ta = MacAddr::local(i + 10);
                ev.bssid = ev.ta;
            }
            d.on_event(&e, &mut out);
        }
        assert!(d.tracked_sources() <= cap);
        assert!(d.evictions() > 0, "pressure must recycle slots");
        assert!(out.is_empty(), "single-frame sources are clean");
    }
}
