//! rogue-wids: a streaming wireless intrusion detection subsystem.
//!
//! The paper's countermeasures chapter assumes an administrator who
//! *notices* the rogue — good record keeping, a site auditor walking the
//! halls, a wired-side MAC census. This crate turns those one-shot
//! audits into an always-on pipeline over the live simulation:
//!
//! ```text
//!  radio sniffers ──> RadioSensor ─┐
//!                                  ├─> SensorRing ─> time sort ─> 6 detectors ─> Correlator ─> Incidents
//!  switch span ────> WiredSensor ──┘   (bounded)     (stable)     (per event)    (dedup+fuse)    (scored)
//! ```
//!
//! * [`event`] — the unified [`event::SensorEvent`] stream and the
//!   bounded, drop-counting [`event::SensorRing`] between sensors and
//!   the pipeline.
//! * [`sensors`] — taps that digest capture substrates into events:
//!   [`sensors::RadioSensor`] over monitor-mode sniffer buffers,
//!   [`sensors::WiredSensor`] over a switch span port, and the
//!   [`sensors::WiredMonitor`] MAC census on the same port.
//! * [`detector`] — the per-event [`detector::Detector`] interface and
//!   the [`detector::RawAlert`] evidence type.
//! * [`detectors`] — the built-in suite: sequence-control anomalies,
//!   beacon/BSSID auditing (incl. churn), deauth floods (burst and
//!   pulsed), RSSI consistency, ARP spoof, probe-response auditing
//!   (cloaked twins, karma responders).
//! * [`sketch`] — the bounded state substrates (windowed count-min
//!   sketches, set-associative tables) keeping detector and correlator
//!   memory fixed under address-randomizing attackers.
//! * [`correlate`] — dedup and noisy-or fusion of raw alerts into
//!   scored [`correlate::Incident`]s.
//! * [`eval`] — precision / recall / latency scoring against scripted
//!   ground truth, for the E10 harness.
//! * [`pipeline`] — [`pipeline::WidsPipeline`] wiring it all together,
//!   stepped in lockstep with the simulation: each step time-sorts the
//!   ring and runs every event through the suite, one event at a time.

#![forbid(unsafe_code)]

pub mod correlate;
pub mod detector;
pub mod detectors;
pub mod eval;
pub mod event;
pub mod pipeline;
pub mod sensors;
pub mod sketch;

pub use correlate::{Correlator, CorrelatorConfig, Incident, IncidentCategory};
pub use detector::{AlertKind, Detector, RawAlert};
pub use detectors::{
    ArpSpoofDetector, BeaconDetector, DeauthFloodDetector, ProbeAuditDetector, RssiSplitDetector,
    SeqControlDetector,
};
pub use eval::{evaluate, EvalOutcome, TruthLabel};
pub use event::{ArpEvent, Dot11Event, Dot11Kind, SensorEvent, SensorId, SensorRing};
pub use pipeline::{WidsConfig, WidsPipeline};
pub use sensors::{RadioSensor, WiredMonitor, WiredSensor};
