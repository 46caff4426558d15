//! With shadowing on, the medium must be bit-identical to an eager dense
//! fill.
//!
//! A shadowed (`shadowing_sigma_db > 0`) `begin_tx` advances the medium
//! RNG through two draws per registered radio, in registration order, but
//! evaluates a received-power sample only when a completion or a
//! carrier-sense probe first reads it. [`Eager`] is the reference: every
//! sample drawn and stored at begin time, interference summed over every
//! other overlapping transmission in ascending id order under the uniform
//! audible-floor cutoff, candidate by candidate. Random topologies,
//! channel plans, bitrates, overlapping schedules, radios registered
//! mid-run and mid-flight `set_pos` / `set_channel` / `set_enabled` must
//! give both the same deliveries (in order, bit-exact RSSI), the same
//! counters and the same carrier-sense answers. After every op the
//! medium must retain exactly the transmissions the reference's prune
//! rule keeps. Each run ends with a probe frame between two radios
//! registered last: its RSSI is the receiver's shadowing sample, so it
//! checks that the RNG stream advanced exactly as the eager fill
//! advances it. The same runs at σ = 0, where `force_dense` flips
//! mid-run, mix sparse and dense transmissions in one completion.

use bytes::Bytes;
use proptest::prelude::*;
use rogue_phy::propagation::{aci_rejection_db, dbm_to_mw, path_loss_db};
use rogue_phy::{Bitrate, Delivery, Medium, MediumParams, Pos, RadioId, TxHandle};
use rogue_sim::{Seed, SimRng, SimTime};

/// The property runs these, σ = 0 being the sparse path with
/// `force_dense` flipped by the toggle ops.
const RUN_SIGMAS: [f64; 3] = [0.0, 4.0, 6.0];

const RATES: [Bitrate; 4] = [Bitrate::B1, Bitrate::B2, Bitrate::B5_5, Bitrate::B11];

/// One delivery as comparable scalars: receiver, payload length, RSSI
/// bits, channel, bit rate.
type DeliverySig = (u32, usize, u64, u8, u64);

/// Everything observable from one scripted run.
#[derive(PartialEq, Eq, Debug, Default)]
struct RunSig {
    deliveries: Vec<DeliverySig>,
    frames_sent: u64,
    halfduplex_misses: u64,
    sinr_drops: u64,
    busy_probes: Vec<bool>,
    /// Retained transmissions after every op.
    backlog: Vec<usize>,
}

fn params(sigma: f64) -> MediumParams {
    MediumParams {
        shadowing_sigma_db: sigma,
        ..MediumParams::default()
    }
}

fn sigs(ds: &[Delivery]) -> Vec<DeliverySig> {
    ds.iter()
        .map(|d| {
            (
                d.to.0,
                d.bytes.len(),
                d.rssi_dbm.to_bits(),
                d.channel,
                d.bitrate.bits_per_sec(),
            )
        })
        .collect()
}

struct EagerRadio {
    pos: Pos,
    channel: u8,
    tx_power_dbm: f64,
    enabled: bool,
}

struct EagerTx {
    src: usize,
    channel: u8,
    bitrate: Bitrate,
    start: SimTime,
    end: SimTime,
    len: usize,
    /// Received power at every radio registered at begin time.
    power: Vec<f64>,
    completed: bool,
    /// Not yet dropped by the prune rule.
    retained: bool,
}

impl EagerTx {
    fn overlaps(&self, o: &EagerTx) -> bool {
        o.start < self.end && self.start < o.end
    }
}

/// The reference medium: an eager dense fill with no indices. Its SINR
/// scan ignores pruning (a completed tx that can no longer overlap
/// anything fails every overlap test anyway); the prune rule only marks
/// what the medium may drop. A tx's index is its id.
struct Eager {
    params: MediumParams,
    floor_dbm: f64,
    radios: Vec<EagerRadio>,
    txs: Vec<EagerTx>,
    rng: SimRng,
    sig: RunSig,
}

impl Eager {
    fn new(params: MediumParams, seed: Seed) -> Eager {
        Eager {
            floor_dbm: Bitrate::MIN_SENSITIVITY_DBM.min(params.cca_threshold_dbm),
            params,
            radios: Vec::new(),
            txs: Vec::new(),
            // The medium's shadowing stream.
            rng: SimRng::new(seed.fork(0x9097)),
            sig: RunSig::default(),
        }
    }

    fn add_radio(&mut self, pos: Pos, channel: u8, tx_power_dbm: f64) {
        self.radios.push(EagerRadio {
            pos,
            channel,
            tx_power_dbm,
            enabled: true,
        });
    }

    fn begin_tx(&mut self, now: SimTime, src: usize, len: usize, bitrate: Bitrate) {
        let s = &self.radios[src];
        let mut power = Vec::with_capacity(self.radios.len());
        for r in &self.radios {
            let mut p = s.tx_power_dbm
                - path_loss_db(
                    s.pos.distance(r.pos),
                    self.params.ref_loss_db,
                    self.params.path_loss_exponent,
                );
            p += self.rng.gaussian(0.0, self.params.shadowing_sigma_db);
            power.push(p);
        }
        self.txs.push(EagerTx {
            src,
            channel: s.channel,
            bitrate,
            start: now,
            end: now + bitrate.airtime(len),
            len,
            power,
            completed: false,
            retained: true,
        });
        self.sig.frames_sent += 1;
        // The prune rule, walked over every retained tx: drop each
        // completed tx ending at or before the earliest in-flight start.
        let horizon = self
            .txs
            .iter()
            .filter(|t| t.retained && !t.completed)
            .map(|t| t.start)
            .min()
            .unwrap_or(now);
        for t in &mut self.txs {
            if t.retained && t.completed && t.end <= horizon {
                t.retained = false;
            }
        }
    }

    fn backlog(&self) -> usize {
        self.txs.iter().filter(|t| t.retained).count()
    }

    fn complete_tx(&mut self, i: usize) {
        self.txs[i].completed = true;
        let tx = &self.txs[i];
        let noise_mw = dbm_to_mw(self.params.noise_floor_dbm);
        for (ri, &signal_dbm) in tx.power.iter().enumerate() {
            let r = &self.radios[ri];
            if ri == tx.src || !r.enabled || r.channel != tx.channel {
                continue;
            }
            if signal_dbm < tx.bitrate.sensitivity_dbm() {
                continue;
            }
            let others = self
                .txs
                .iter()
                .enumerate()
                .filter(|&(j, o)| j != i && tx.overlaps(o))
                .map(|(_, o)| o);
            if others.clone().any(|o| o.src == ri) {
                self.sig.halfduplex_misses += 1;
                continue;
            }
            let mut interf_mw = 0.0;
            for o in others {
                let Some(rej) = aci_rejection_db(o.channel.abs_diff(r.channel)) else {
                    continue;
                };
                let Some(&p) = o.power.get(ri) else {
                    continue;
                };
                if p < self.floor_dbm {
                    continue;
                }
                interf_mw += dbm_to_mw(p - rej);
            }
            let sinr_db = signal_dbm - 10.0 * (noise_mw + interf_mw).log10();
            if sinr_db < tx.bitrate.sinr_threshold_db() {
                self.sig.sinr_drops += 1;
                continue;
            }
            self.sig.deliveries.push((
                ri as u32,
                tx.len,
                signal_dbm.to_bits(),
                tx.channel,
                tx.bitrate.bits_per_sec(),
            ));
        }
    }

    fn channel_busy(&self, now: SimTime, radio: usize) -> bool {
        let r = &self.radios[radio];
        self.txs.iter().any(|t| {
            t.start <= now
                && now < t.end
                && t.src != radio
                && aci_rejection_db(t.channel.abs_diff(r.channel)).is_some_and(|rej| {
                    t.power
                        .get(radio)
                        .is_some_and(|&p| p - rej >= self.params.cca_threshold_dbm)
                })
        })
    }
}

fn radio_from_word(w: u64) -> (Pos, u8, f64) {
    // Positions span ~330 m, about one audible horizon, so most frames
    // meet interferers; channels 1–7 mix co- and adjacent-channel energy.
    let x = (w & 0x3FFF) as f64 * 0.02;
    let y = ((w >> 14) & 0x3FFF) as f64 * 0.02;
    let channel = 1 + ((w >> 32) % 7) as u8;
    let tx_power = 10.0 + ((w >> 40) % 12) as f64;
    (Pos::new(x, y), channel, tx_power)
}

/// In-flight frames: (end, index in the reference, handle).
type Pending = Vec<(SimTime, usize, TxHandle)>;

/// Complete the in-flight frame with the earliest (end, begin order) on
/// both media; returns its end.
fn complete_next(
    m: &mut Medium,
    e: &mut Eager,
    pending: &mut Pending,
    lazy: &mut RunSig,
) -> SimTime {
    let Some(k) = (0..pending.len()).min_by_key(|&k| (pending[k].0, pending[k].1)) else {
        return SimTime::ZERO;
    };
    let (end, i, h) = pending.remove(k);
    lazy.deliveries.extend(sigs(&m.complete_tx(end, h)));
    e.complete_tx(i);
    end
}

/// Drive the medium and the reference through the same calls; returns
/// (medium, reference) observations and the probe frame's receiver.
fn run(sigma: f64, seed: u64, radios: &[u64], ops: &[u64]) -> (RunSig, RunSig, u32) {
    let mut m = Medium::new(params(sigma), Seed(seed));
    let mut e = Eager::new(params(sigma), Seed(seed));
    for &w in radios {
        let (pos, channel, power) = radio_from_word(w);
        m.add_radio(pos, channel, power);
        e.add_radio(pos, channel, power);
    }
    let mut n = radios.len();
    let mut lazy = RunSig::default();
    let mut t = SimTime::ZERO;
    let mut pending = Pending::new();
    let mut dense = false;
    for &w in ops {
        let r = (w >> 8) as usize % n;
        let id = RadioId(r as u32);
        match w % 8 {
            // Transmit from a powered radio; time advances 0–400 µs so
            // frames overlap often (airtime ≥ 192 µs).
            0 | 1 => {
                if e.radios[r].enabled {
                    let rate = RATES[(w >> 16) as usize % 4];
                    let len = 10 + ((w >> 24) % 500) as usize;
                    let (h, end) = m.begin_tx(t, id, Bytes::from(vec![0x5A; len]), rate);
                    pending.push((end, e.txs.len(), h));
                    e.begin_tx(t, r, len, rate);
                }
                t = SimTime(t.as_nanos() + (w >> 48) % 400_000);
            }
            // The clock moves to the completion, so a frame may begin
            // the instant another ends.
            2 => t = t.max(complete_next(&mut m, &mut e, &mut pending, &mut lazy)),
            3 => {
                let (pos, _, _) = radio_from_word(w >> 16);
                m.set_pos(id, pos);
                e.radios[r].pos = pos;
            }
            4 => {
                let channel = 1 + ((w >> 16) % 7) as u8;
                m.set_channel(id, channel);
                e.radios[r].channel = channel;
            }
            5 => {
                let on = !e.radios[r].enabled;
                m.set_enabled(id, on);
                e.radios[r].enabled = on;
            }
            // A radio registered mid-run: no tx in flight holds a sample
            // for it, later ones do.
            6 => {
                let (pos, channel, power) = radio_from_word(w >> 16);
                m.add_radio(pos, channel, power);
                e.add_radio(pos, channel, power);
                n += 1;
            }
            // Flip the layout of later transmissions; it changes only
            // the sparse path at σ = 0.
            _ => {
                dense = !dense;
                m.force_dense(dense);
            }
        }
        lazy.backlog.push(m.tx_backlog());
        e.sig.backlog.push(e.backlog());
        // Carrier sense after every mid-flight change.
        if w % 8 >= 3 {
            let probe = (w >> 40) as usize % n;
            lazy.busy_probes
                .push(m.channel_busy(t, RadioId(probe as u32)));
            e.sig.busy_probes.push(e.channel_busy(t, probe));
        }
    }
    while !pending.is_empty() {
        complete_next(&mut m, &mut e, &mut pending, &mut lazy);
    }

    // The probe: two radios registered last, 10 km from the rest, one
    // second after every other frame.
    for x in [10_000.0, 10_003.0] {
        m.add_radio(Pos::new(x, 0.0), 1, 15.0);
        e.add_radio(Pos::new(x, 0.0), 1, 15.0);
    }
    let later = SimTime(t.as_nanos() + 1_000_000_000);
    let payload = Bytes::from(vec![0x5A; 100]);
    let (h, end) = m.begin_tx(later, RadioId(n as u32), payload, Bitrate::B1);
    lazy.backlog.push(m.tx_backlog());
    pending.push((end, e.txs.len(), h));
    e.begin_tx(later, n, 100, Bitrate::B1);
    e.sig.backlog.push(e.backlog());
    complete_next(&mut m, &mut e, &mut pending, &mut lazy);

    lazy.frames_sent = m.frames_sent;
    lazy.halfduplex_misses = m.halfduplex_misses;
    lazy.sinr_drops = m.sinr_drops;
    (lazy, e.sig, n as u32 + 1)
}

proptest! {
    #[test]
    fn lazy_shadowing_is_bit_identical_to_the_eager_fill(
        seed in any::<u64>(),
        radios in proptest::collection::vec(any::<u64>(), 2..24),
        ops in proptest::collection::vec(any::<u64>(), 0..120),
    ) {
        for sigma in RUN_SIGMAS {
            let (lazy, eager, probe_rx) = run(sigma, seed, &radios, &ops);
            prop_assert!(
                lazy.deliveries.last().is_some_and(|d| d.0 == probe_rx),
                "the probe frame must decode (sigma {})",
                sigma
            );
            prop_assert_eq!(lazy, eager, "sigma {}", sigma);
        }
    }
}
