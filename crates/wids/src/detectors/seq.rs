//! Sequence-control anomaly detection (Wright's MAC-spoof detector),
//! on the streaming [`Detector`] interface.
//!
//! Every 802.11 transmitter stamps frames from a single modulo-4096
//! counter. Two radios sharing one address — the legitimate AP and the
//! BSSID-cloning rogue — cannot share a counter, so an observer sees the
//! merged stream jump backward over and over. Occasional backward jumps
//! happen legitimately (counter wrap, reordered capture), so the detector
//! requires several anomalies within a window before alerting.
//!
//! Each transmitter's counter state lives in a [`BoundedTable`] slot, so
//! an attacker cycling through randomized source addresses recycles
//! slots instead of growing the detector.
//!
//! Channel divergence is only evidence against an *AP* transmitter (a
//! BSS cannot move channels without its stations noticing), while a
//! client station hopping channels is just roaming. Divergence alerts
//! are therefore suppressed for transmitters never seen acting as a
//! BSSID.

use rogue_dot11::MacAddr;
use rogue_sim::{SimDuration, SimTime};

use crate::detector::{AlertKind, Detector, RawAlert};
use crate::event::{Dot11Kind, SensorEvent};
use crate::sketch::{hash_mac, BoundedTable};

const TA_GROUPS: usize = 4096;
const TA_WAYS: usize = 4;

/// Detector tuning.
#[derive(Clone, Debug)]
pub struct SeqMonConfig {
    /// Forward deltas up to this are normal (allows missed frames).
    pub max_normal_gap: u16,
    /// Backward steps of at most this many counts are tolerated as
    /// reordered captures rather than counted as anomalies.
    pub reorder_tolerance: u16,
    /// Anomalies within [`SeqMonConfig::window`] needed to alert.
    pub alarm_threshold: u32,
    /// Sliding evidence window.
    pub window: SimDuration,
}

impl Default for SeqMonConfig {
    fn default() -> Self {
        SeqMonConfig {
            max_normal_gap: 64,
            reorder_tolerance: 8,
            alarm_threshold: 3,
            window: SimDuration::from_secs(2),
        }
    }
}

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
        // an AP. The alarmed flag latches either way, so a roaming client
        // later seen as an AP does not retroactively alarm.
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

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// A management frame from AP `ta`, which is also its BSSID.
    fn frame_from(ta: MacAddr, ms: u64, seq: u16, channel: u8, retry: bool) -> SensorEvent {
        SensorEvent::Dot11(Dot11Event {
            sensor: SensorId(0),
            at: t(ms),
            channel,
            rssi_dbm: -40.0,
            ta,
            ra: MacAddr::BROADCAST,
            bssid: ta,
            seq,
            retry,
            kind: Dot11Kind::Mgmt,
        })
    }

    fn frame(ms: u64, seq: u16, channel: u8) -> SensorEvent {
        frame_from(MacAddr::local(1), ms, seq, channel, false)
    }

    /// The alerts a fresh detector tuned by `cfg` raises over `(ms, seq,
    /// retry)` frames from one AP on channel 1.
    fn alerts_with(
        cfg: SeqMonConfig,
        frames: impl IntoIterator<Item = (u64, u16, bool)>,
    ) -> Vec<RawAlert> {
        let mut d = SeqControlDetector::new(cfg);
        let mut out = Vec::new();
        for (ms, seq, retry) in frames {
            d.on_event(&frame_from(MacAddr::local(1), ms, seq, 1, retry), &mut out);
        }
        out
    }

    fn alerts(frames: impl IntoIterator<Item = (u64, u16, bool)>) -> Vec<RawAlert> {
        alerts_with(SeqMonConfig::default(), frames)
    }

    fn first(out: &[RawAlert], kind: AlertKind) -> Option<&RawAlert> {
        out.iter().find(|a| a.kind == kind)
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
        let alert = first(&out, AlertKind::ChannelDivergence).expect("divergence alert");
        assert!(alert.weight > 0.8);
        assert_eq!(alert.subject, MacAddr::local(1));
    }

    #[test]
    fn single_counter_is_clean() {
        let out = alerts((0..500u16).map(|i| (u64::from(i) * 10, i % 4096, false)));
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn interleaved_counters_alarm() {
        // Legit AP around seq 100+, rogue around seq 3000+: merged stream.
        let (mut legit, mut rogue) = (100u16, 3000u16);
        let out = alerts((0..40u64).map(|i| {
            let seq = if i % 2 == 0 {
                legit += 1;
                legit
            } else {
                rogue += 1;
                rogue
            };
            (i * 50, seq % 4096, false)
        }));
        let alert = first(&out, AlertKind::SequenceAnomaly).expect("interleaving must alert");
        assert!(alert.at <= t(2000), "detected quickly, got {}", alert.at);
    }

    #[test]
    fn channel_divergence_alarms_immediately() {
        let mut d = SeqControlDetector::default();
        let mut out = Vec::new();
        d.on_event(&frame(0, 1, 1), &mut out);
        d.on_event(&frame(10, 2, 6), &mut out);
        let alert = first(&out, AlertKind::ChannelDivergence).expect("divergence alert");
        assert_eq!(alert.at, t(10));
        // Only alerted once.
        d.on_event(&frame(20, 3, 1), &mut out);
        let divergences = out
            .iter()
            .filter(|a| a.kind == AlertKind::ChannelDivergence)
            .count();
        assert_eq!(divergences, 1);
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
    fn counter_wrap_is_not_an_anomaly() {
        let out = alerts((0..200u16).map(|i| (u64::from(i) * 10, (4000 + i) % 4096, false)));
        assert!(out.is_empty(), "wrap must not alert: {out:?}");
    }

    #[test]
    fn wrap_at_0x0fff_boundary_is_clean() {
        // 0x0FFE, 0x0FFF, 0x000, 0x001 is one healthy counter crossing
        // the modulo-4096 wrap.
        let seqs = [0x0FFEu16, 0x0FFF, 0x000, 0x001];
        let out = alerts((0u64..).zip(seqs).map(|(i, seq)| (i * 10, seq, false)));
        assert!(out.is_empty(), "wrap must not alert: {out:?}");
    }

    #[test]
    fn gaps_from_missed_frames_tolerated() {
        // A monitor that misses most frames sees forward deltas up to
        // `max_normal_gap`; one count more is an anomaly.
        let gap = SeqMonConfig::default().max_normal_gap;
        let stream =
            |step: u16| (0..100u16).map(move |i| (u64::from(i) * 100, (i * step) & 0x0FFF, false));
        for step in [40, gap] {
            let out = alerts(stream(step));
            assert!(out.is_empty(), "step {step}: {out:?}");
        }
        assert!(first(&alerts(stream(gap + 1)), AlertKind::SequenceAnomaly).is_some());
    }

    #[test]
    fn nonretry_duplicates_alarm() {
        // Two radios that collide on counter values repeat sequence
        // numbers without the retry flag — Wright's duplicate signature.
        let out = alerts((0..10u64).map(|i| (i * 20, 100, false)));
        let alert = first(&out, AlertKind::SequenceAnomaly).expect("duplicates must alert");
        assert!(alert.at <= t(200));
    }

    #[test]
    fn retry_duplicates_are_clean() {
        // An ARQ retransmission repeats the number with retry set: normal.
        let mut seq = 0u16;
        let out = alerts((0..60u64).map(|i| {
            let retry = i % 3 == 2;
            if !retry {
                seq = (seq + 1) & 0x0FFF;
            }
            (i * 10, seq, retry)
        }));
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn anomalies_outside_window_do_not_accumulate() {
        // One big jump every second: three within the default 2 s window
        // alert, but never three within 100 ms.
        let jumps = || (0..20u64).map(|i| (i * 1000, ((i * 2000) % 4096) as u16, false));
        assert!(first(&alerts(jumps()), AlertKind::SequenceAnomaly).is_some());
        let cfg = SeqMonConfig {
            window: SimDuration::from_millis(100),
            ..SeqMonConfig::default()
        };
        let out = alerts_with(cfg, jumps());
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn backward_jumps_near_wrap_still_alarm() {
        // Jumping from low numbers back up close to 0x0FFF is a backward
        // step (delta ≈ 4096 - jump), anomalous while it stays outside
        // the reorder tolerance band.
        let (mut low, mut high) = (5u16, 0x0FF0u16);
        let out = alerts((0..12u64).map(|i| {
            let seq = if i % 2 == 0 {
                low += 1;
                low
            } else {
                high = (high + 1) & 0x0FFF;
                high
            };
            (i * 20, seq, false)
        }));
        assert!(
            first(&out, AlertKind::SequenceAnomaly).is_some(),
            "interleaving across the wrap must alert"
        );
    }

    #[test]
    fn distinct_transmitters_tracked_separately() {
        // Two different transmitters at wildly different counters: fine.
        let mut d = SeqControlDetector::default();
        let mut out = Vec::new();
        for i in 0..50u16 {
            let ms = u64::from(i) * 10;
            for (ta, at, seq) in [(1, ms, 100 + i), (2, ms + 5, 3000 + i)] {
                d.on_event(&frame_from(MacAddr::local(ta), at, seq, 1, false), &mut out);
            }
        }
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(d.tracked_sources(), 2);
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
