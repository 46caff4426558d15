//! The shared broadcast medium.
//!
//! Protocol flow per transmission:
//!
//! 1. A MAC hands bytes to [`Medium::begin_tx`]; the medium computes the
//!    airtime and fixes the received power at every radio that can
//!    possibly hear the frame (drawing shadowing deterministically from
//!    the medium RNG when enabled; a sample is evaluated when first read).
//! 2. The world schedules a completion event at the returned end time and
//!    then calls [`Medium::complete_tx`], which decides per radio whether
//!    the frame decodes: on-channel, above sensitivity, and with
//!    sufficient SINR against every time-overlapping transmission
//!    (collisions, including adjacent-channel leakage).
//! 3. Each successful [`Delivery`] carries the bytes and measured RSSI —
//!    the exact observables of a real NIC, whether it belongs to the
//!    addressed station or to an attacker sniffing in monitor mode.
//!
//! # Scaling: per-frame cost is O(audible), not O(registry)
//!
//! With shadowing disabled (`shadowing_sigma_db == 0.0`, every experiment
//! except E1) received power is a pure function of geometry, so the
//! medium takes two shortcuts that keep a campus-scale registry out of
//! the per-frame path:
//!
//! * a **uniform spatial grid** plus per-source **audible-row cache**, so
//!   `begin_tx` stores a sparse `(radio, dBm)` list covering only radios
//!   inside the decode/CCA horizon ([`crate::grid`],
//!   [`propagation::max_range_m`]); a row is rebuilt, straight from
//!   [`path_loss_db`], only after the geometry changed;
//! * in-flight transmissions live in a **generation-checked slab** (a
//!   [`TxHandle`] resolves with a bounds check, no hashing) and are
//!   indexed **by channel** (only channels within the 5-channel
//!   interaction span can exchange energy) and **by source** (the
//!   half-duplex check), both as dense slot vectors.
//!
//! The pairwise path-loss cache ([`crate::cache`]) serves only the
//! estimate API, [`Medium::rssi_estimate_dbm`]; the frame path never
//! consults it.
//!
//! The audible floor is a **uniform far-field cutoff**: a signal below
//! it can neither decode, nor trip CCA, nor contribute to an
//! interference sum. The sparse path is bit-identical to the dense map
//! under that cutoff: a sparse row omits exactly the entries the dense
//! path's explicit floor comparison rejects, and interference sums run in
//! the same ascending-id order. A radio that moves mid-flight changes
//! neither path: a dense map reads the begin-era position snapshot, a
//! sparse row keeps its begin-era samples, and a radio missing from the
//! row was below the floor at begin, which every reader treats as no
//! sample.
//! The cutoff is also what makes city-scale interference tractable: a
//! completion's interferer set is culled to transmitters whose audible
//! disc can reach the candidate set at all (`plan_complete`), instead
//! of recomputing provably sub-floor far-field power per pair.
//!
//! # Shadowing: a lazy dense map
//!
//! With `sigma > 0` the medium RNG stream is part of the reproducible
//! contract — every E1 shadowing result depends on it: each `begin_tx`
//! draws two values per registered radio, in registration order. It
//! still does, but keeps only what regenerates a draw: an RNG checkpoint
//! every `CHECKPOINT_EVERY` radios, and the begin-era positions, one
//! `Arc` shared by every tx begun under the same geometry. A sample's
//! dBm is computed when a completion or carrier-sense probe first reads
//! it and is memoized per (tx, radio), as is its same-channel
//! interference power in mW; most samples are never read. The memo cells
//! are atomics: planners on different threads may race to fill one, but
//! each stores the same pure function of frozen inputs, so concurrent
//! plans equal serial ones and `Medium` stays `Sync`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use rogue_sim::{Seed, SimRng, SimTime};

use crate::cache::PathLossCache;
use crate::grid::SpatialGrid;
use crate::propagation::{
    aci_rejection_db, dbm_to_mw, max_range_m, path_loss_db, Bitrate, Pos,
    CHANNEL_SPACING_NONOVERLAP,
};

/// Identifies a registered radio.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RadioId(pub u32);

/// Handle to an in-flight transmission: a slab slot plus the slot's
/// generation at allocation time. Both lookups and liveness checks are
/// a bounds check + compare — no hashing anywhere on the per-frame path.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TxHandle {
    slot: u32,
    gen: u32,
}

/// Tunable propagation / receiver parameters.
#[derive(Clone, Debug)]
pub struct MediumParams {
    /// Path-loss exponent (2.0 free space … 3.5 dense indoor).
    pub path_loss_exponent: f64,
    /// Reference loss at 1 m, dB.
    pub ref_loss_db: f64,
    /// Log-normal shadowing standard deviation, dB (0 disables).
    pub shadowing_sigma_db: f64,
    /// Thermal-plus-card noise floor, dBm.
    pub noise_floor_dbm: f64,
    /// Clear-channel-assessment threshold, dBm.
    pub cca_threshold_dbm: f64,
}

impl Default for MediumParams {
    fn default() -> Self {
        MediumParams {
            path_loss_exponent: 3.0,
            ref_loss_db: 40.0,
            shadowing_sigma_db: 0.0,
            noise_floor_dbm: -100.0,
            cca_threshold_dbm: -85.0,
        }
    }
}

#[derive(Clone, Debug)]
struct Radio {
    pos: Pos,
    channel: u8,
    tx_power_dbm: f64,
    enabled: bool,
    /// Bumped by every position change; keys the path-loss cache.
    pos_epoch: u64,
}

/// A source's audible set: `(radio index, received dBm)` sorted by
/// index, shared between the per-source row cache and every sparse tx
/// begun while the geometry holds.
type AudibleRow = Arc<Vec<(u32, f64)>>;

/// Radios per medium-RNG checkpoint in a shadowed transmission: reading
/// a sample replays at most `2 * (CHECKPOINT_EVERY - 1)` draws, and a
/// 32-byte checkpoint costs two bytes per radio.
const CHECKPOINT_EVERY: usize = 16;

/// An empty [`LazyPower`] cell. Arithmetic on finite inputs never yields
/// this NaN payload; a value that did would just be recomputed on every
/// read.
const UNSET: u64 = u64::MAX;

/// The dense received-power map of one transmission: a sample for every
/// radio registered at begin time, each evaluated on first read.
#[derive(Debug)]
struct LazyPower {
    /// Begin-era radio positions, shared by every tx begun under the same
    /// `geom_epoch`.
    positions: Arc<[Pos]>,
    /// σ > 0 only: at index `k`, the medium RNG before the shadowing
    /// draws of radio `k * CHECKPOINT_EVERY`.
    checkpoints: Vec<SimRng>,
    /// Per radio, `[dBm, same-channel interference mW]` as f64 bits, or
    /// [`UNSET`]. Relaxed ordering suffices: a cell publishes nothing but
    /// its own value, and every writer stores the same one.
    cells: Box<[[AtomicU64; 2]]>,
}

/// Received power samples of one transmission.
#[derive(Debug)]
enum TxPower {
    /// Power at every radio registered at begin time, by index — the
    /// σ > 0 shadowing path, whose registration-order RNG draws cover
    /// the whole registry (and `force_dense` at σ == 0).
    Dense(LazyPower),
    /// Only the radios at or above the audible floor at begin time,
    /// sorted by index (shared with the per-source row cache).
    Sparse(AudibleRow),
}

#[derive(Debug)]
struct Transmission {
    id: u64,
    src: RadioId,
    channel: u8,
    bitrate: Bitrate,
    start: SimTime,
    end: SimTime,
    bytes: Bytes,
    /// Transmitter geometry frozen at begin time: the shard-routing key
    /// for the completion event, and the anchor of the far-field
    /// interferer cull in [`Medium::plan_complete`].
    src_pos: Pos,
    tx_power_dbm: f64,
    /// [`max_range_m`] down to the audible floor: the radius of the
    /// far-field interferer cull and of shard-boundary classification.
    audible_range_m: f64,
    /// Radios registered later are treated as out of range.
    radios_at_start: u32,
    /// Geometry epoch at begin time. While it still equals the medium's
    /// current epoch, no radio has been added or moved since this tx
    /// began — the precondition for the far-field interferer cull.
    geom_epoch_at_start: u64,
    power: TxPower,
    completed: bool,
}

/// One transmission slab slot: the slot's reuse generation plus the
/// resident transmission (`None` while free). The generation bump on
/// free makes every outstanding [`TxHandle`] to the old occupant stale.
struct TxSlot {
    gen: u32,
    tx: Option<Transmission>,
}

/// The precomputed outcome of completing one transmission: the pure,
/// read-only half of [`Medium::complete_tx`], produced by
/// [`Medium::plan_complete`] and applied by [`Medium::commit_complete`].
/// A plan is only valid against the medium state it was computed from:
/// any mutation in between (a new overlapping transmission, a retune, a
/// power toggle) can change the outcome, so the dispatcher commits each
/// plan right after making it.
#[derive(Debug)]
pub struct TxPlan {
    handle: TxHandle,
    end: SimTime,
    deliveries: Vec<Delivery>,
    halfduplex_misses: u64,
    sinr_drops: u64,
}

impl TxPlan {
    /// The deliveries this plan will produce when committed.
    pub fn deliveries(&self) -> &[Delivery] {
        &self.deliveries
    }
}

/// A successfully decoded frame at one radio.
#[derive(Clone, Debug)]
pub struct Delivery {
    /// The receiving radio.
    pub to: RadioId,
    /// Frame bytes (shared, zero-copy).
    pub bytes: Bytes,
    /// Received signal strength, dBm.
    pub rssi_dbm: f64,
    /// Channel the frame was received on.
    pub channel: u8,
    /// Rate it was decoded at.
    pub bitrate: Bitrate,
}

/// Channels whose transmissions can exchange energy with `channel`
/// (within the 5-channel non-overlap spacing), clamped to 1..=14.
fn interacting_channels(channel: u8) -> std::ops::RangeInclusive<usize> {
    let lo = channel
        .saturating_sub(CHANNEL_SPACING_NONOVERLAP - 1)
        .max(1);
    let hi = (channel + CHANNEL_SPACING_NONOVERLAP - 1).min(14);
    lo as usize..=hi as usize
}

/// The broadcast medium: all registered radios, all in-flight and recent
/// transmissions.
pub struct Medium {
    params: MediumParams,
    /// `min(weakest sensitivity, CCA threshold)`: below this received
    /// power a radio can neither decode a frame nor sense the channel
    /// busy, so `begin_tx` need not store it.
    audible_floor_dbm: f64,
    radios: Vec<Radio>,
    /// Transmission slab: a [`TxHandle`]'s slot indexes here directly.
    /// `None` marks a free slot; the generation is bumped on every free
    /// so stale handles can never alias a reused slot.
    txs: Vec<TxSlot>,
    free_tx: Vec<u32>,
    /// Min-heap of `(start, slot, gen)` of every transmission begun and
    /// not yet completed; its top is the prune horizon. An entry whose
    /// tx has since completed (or whose slot was freed) is dropped when
    /// it reaches the top.
    inflight_starts: BinaryHeap<Reverse<(SimTime, u32, u32)>>,
    /// Min-heap of `(end, slot)` of every completed transmission still
    /// retained: prune pops exactly the ones ending at or before the
    /// horizon.
    completed_ends: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// Retained tx slots bucketed by channel (index 1..=14). Only
    /// buckets within the interaction span are walked by the decode /
    /// CCA paths; interferers are explicitly id-sorted before any float
    /// sum, so bucket order itself carries no meaning.
    by_channel: [Vec<u32>; 15],
    /// Retained tx slots by source radio index — the half-duplex check.
    /// Dense (one entry per radio, nearly all empty), no hashing.
    by_src: Vec<Vec<u32>>,
    grid: SpatialGrid,
    cache: PathLossCache,
    /// Per-source audible rows, valid while `geom_epoch` is unchanged.
    /// Dense, indexed by radio.
    audible_rows: Vec<Option<(u64, AudibleRow)>>,
    /// Every radio's position, shared by the dense txs begun while
    /// `geom_epoch` (the first field) holds.
    begin_positions: Option<(u64, Arc<[Pos]>)>,
    /// Scratch for the grid query in [`Self::audible_row`] (reused).
    cand_scratch: Vec<u32>,
    /// Scratch for the freed-source list in [`Self::prune`] (reused).
    prune_src_scratch: Vec<u32>,
    /// Bumped whenever the radio set or any position changes.
    geom_epoch: u64,
    row_reuses: u64,
    force_dense: bool,
    rng: SimRng,
    next_tx_id: u64,
    /// Collision/decode statistics.
    pub frames_sent: u64,
    /// Receptions lost because the radio was itself transmitting during
    /// the frame's airtime (half-duplex deafness).
    pub halfduplex_misses: u64,
    /// Receptions destroyed by insufficient SINR against overlapping
    /// transmissions (true collisions, incl. adjacent-channel leakage).
    pub sinr_drops: u64,
}

impl Medium {
    /// New medium with the given parameters; `seed` drives shadowing.
    pub fn new(params: MediumParams, seed: Seed) -> Medium {
        let audible_floor_dbm = Bitrate::MIN_SENSITIVITY_DBM.min(params.cca_threshold_dbm);
        Medium {
            params,
            audible_floor_dbm,
            radios: Vec::new(),
            txs: Vec::new(),
            free_tx: Vec::new(),
            inflight_starts: BinaryHeap::new(),
            completed_ends: BinaryHeap::new(),
            by_channel: std::array::from_fn(|_| Vec::new()),
            by_src: Vec::new(),
            grid: SpatialGrid::default(),
            cache: PathLossCache::default(),
            audible_rows: Vec::new(),
            begin_positions: None,
            cand_scratch: Vec::new(),
            prune_src_scratch: Vec::new(),
            geom_epoch: 0,
            row_reuses: 0,
            force_dense: false,
            rng: SimRng::new(seed.fork(0x9097)),
            next_tx_id: 0,
            frames_sent: 0,
            halfduplex_misses: 0,
            sinr_drops: 0,
        }
    }

    /// Total destroyed receptions, either cause (the pre-split counter).
    pub fn collisions(&self) -> u64 {
        self.halfduplex_misses + self.sinr_drops
    }

    /// Register a radio. Radios are half-duplex and initially enabled.
    pub fn add_radio(&mut self, pos: Pos, channel: u8, tx_power_dbm: f64) -> RadioId {
        assert!((1..=14).contains(&channel), "invalid 802.11b channel");
        let idx = self.radios.len() as u32;
        self.radios.push(Radio {
            pos,
            channel,
            tx_power_dbm,
            enabled: true,
            pos_epoch: 0,
        });
        self.grid.insert(idx, pos);
        self.by_src.push(Vec::new());
        self.audible_rows.push(None);
        self.geom_epoch += 1;
        RadioId(idx)
    }

    /// Move a radio (client mobility). Invalidates the cached path
    /// losses and audible rows involving this radio; transmissions
    /// already in flight keep their begin-time power samples.
    pub fn set_pos(&mut self, id: RadioId, pos: Pos) {
        let ri = id.0 as usize;
        let old = self.radios[ri].pos;
        if old == pos {
            return;
        }
        self.grid.relocate(id.0, old, pos);
        self.radios[ri].pos = pos;
        self.radios[ri].pos_epoch += 1;
        self.geom_epoch += 1;
    }

    /// Current position of a radio.
    pub fn pos(&self, id: RadioId) -> Pos {
        self.radios[id.0 as usize].pos
    }

    /// Position-change epoch of a radio. Bumped by every [`set_pos`]
    /// call that actually moves the radio; the pairwise path-loss cache
    /// keys on it, so a bump proves the cached losses were invalidated.
    ///
    /// [`set_pos`]: Medium::set_pos
    pub fn pos_epoch(&self, id: RadioId) -> u64 {
        self.radios[id.0 as usize].pos_epoch
    }

    /// Retune a radio (channel hopping during scans / site audits).
    /// Pure frequency change: path-loss cache and audible rows stay
    /// valid.
    pub fn set_channel(&mut self, id: RadioId, channel: u8) {
        assert!((1..=14).contains(&channel), "invalid 802.11b channel");
        self.radios[id.0 as usize].channel = channel;
    }

    /// Channel a radio is currently tuned to.
    pub fn channel(&self, id: RadioId) -> u8 {
        self.radios[id.0 as usize].channel
    }

    /// Enable or disable (power off) a radio.
    pub fn set_enabled(&mut self, id: RadioId, enabled: bool) {
        self.radios[id.0 as usize].enabled = enabled;
    }

    /// Deterministic (shadowing-free) received power estimate of `from`'s
    /// transmitter at `to`'s position — used by tooling (site-audit range
    /// predictions), not by the decode path. Served from the shared
    /// path-loss cache.
    pub fn rssi_estimate_dbm(&self, from: RadioId, to: RadioId) -> f64 {
        let f = &self.radios[from.0 as usize];
        let t = &self.radios[to.0 as usize];
        f.tx_power_dbm
            - self.cache.loss_db(
                (from.0, f.pos, f.pos_epoch),
                (to.0, t.pos, t.pos_epoch),
                self.params.ref_loss_db,
                self.params.path_loss_exponent,
            )
    }

    /// The audible set of `src` at its current position: every other
    /// radio whose received power clears the audible floor, sorted by
    /// index. Served from the per-source row cache while the geometry is
    /// unchanged; rebuilt from the spatial grid otherwise. `range` is the
    /// source's audible radius.
    fn audible_row(&mut self, src: u32, src_pos: Pos, tx_power_dbm: f64, range: f64) -> AudibleRow {
        if let Some((epoch, row)) = &self.audible_rows[src as usize] {
            if *epoch == self.geom_epoch {
                self.row_reuses += 1;
                return Arc::clone(row);
            }
        }
        let floor = self.audible_floor_dbm;
        let mut cand = std::mem::take(&mut self.cand_scratch);
        cand.clear();
        if range.is_finite() {
            // The pad only absorbs float rounding in the range solve;
            // membership is re-checked exactly below.
            self.grid
                .collect_in_square(src_pos, range * (1.0 + 1e-9) + 0.5, &mut cand);
        } else {
            cand.extend(0..self.radios.len() as u32);
        }
        let (ref_loss, exponent) = (self.params.ref_loss_db, self.params.path_loss_exponent);
        let mut audible = Vec::with_capacity(cand.len());
        for &ri in &cand {
            if ri == src {
                continue;
            }
            let d = src_pos.distance(self.radios[ri as usize].pos);
            let p = tx_power_dbm - path_loss_db(d, ref_loss, exponent);
            if p >= floor {
                audible.push((ri, p));
            }
        }
        self.cand_scratch = cand;
        audible.sort_unstable_by_key(|e| e.0);
        let row = Arc::new(audible);
        self.audible_rows[src as usize] = Some((self.geom_epoch, Arc::clone(&row)));
        row
    }

    /// A lazy dense map for a tx beginning now. At σ > 0 this advances
    /// the medium RNG past every registered radio's two shadowing draws,
    /// in registration order, keeping a checkpoint every
    /// `CHECKPOINT_EVERY` radios to replay them from.
    fn lazy_power(&mut self) -> LazyPower {
        let n = self.radios.len();
        let positions = match &self.begin_positions {
            Some((epoch, p)) if *epoch == self.geom_epoch => Arc::clone(p),
            _ => {
                let p: Arc<[Pos]> = self.radios.iter().map(|r| r.pos).collect();
                self.begin_positions = Some((self.geom_epoch, Arc::clone(&p)));
                p
            }
        };
        let mut checkpoints = Vec::new();
        if self.params.shadowing_sigma_db > 0.0 {
            checkpoints.reserve(n.div_ceil(CHECKPOINT_EVERY));
            for first in (0..n).step_by(CHECKPOINT_EVERY) {
                checkpoints.push(self.rng.clone());
                self.rng.skip_gaussians(CHECKPOINT_EVERY.min(n - first));
            }
        }
        LazyPower {
            positions,
            checkpoints,
            cells: (0..n)
                .map(|_| [AtomicU64::new(UNSET), AtomicU64::new(UNSET)])
                .collect(),
        }
    }

    /// Begin transmitting `bytes` from `src` at `bitrate` on the radio's
    /// current channel. Returns a handle and the airtime-end instant at
    /// which the caller must invoke [`Medium::complete_tx`].
    pub fn begin_tx(
        &mut self,
        now: SimTime,
        src: RadioId,
        bytes: Bytes,
        bitrate: Bitrate,
    ) -> (TxHandle, SimTime) {
        let radio = &self.radios[src.0 as usize];
        assert!(radio.enabled, "transmitting on a disabled radio");
        let end = now + bitrate.airtime(bytes.len());
        let channel = radio.channel;
        let tx_power = radio.tx_power_dbm;
        let src_pos = radio.pos;

        let audible_range_m = max_range_m(
            tx_power,
            self.audible_floor_dbm,
            self.params.ref_loss_db,
            self.params.path_loss_exponent,
        );
        let power = if self.params.shadowing_sigma_db > 0.0 || self.force_dense {
            TxPower::Dense(self.lazy_power())
        } else {
            TxPower::Sparse(self.audible_row(src.0, src_pos, tx_power, audible_range_m))
        };

        let id = self.next_tx_id;
        self.next_tx_id += 1;
        self.frames_sent += 1;
        let tx = Transmission {
            id,
            src,
            channel,
            bitrate,
            start: now,
            end,
            bytes,
            src_pos,
            tx_power_dbm: tx_power,
            audible_range_m,
            radios_at_start: self.radios.len() as u32,
            geom_epoch_at_start: self.geom_epoch,
            power,
            completed: false,
        };
        // Reuse a freed slab slot when one exists. Safe because prune
        // removes freed slots from every bucket before returning, so a
        // reused slot can never already sit in a channel/source bucket.
        let slot = match self.free_tx.pop() {
            Some(s) => {
                self.txs[s as usize].tx = Some(tx);
                s
            }
            None => {
                self.txs.push(TxSlot {
                    gen: 0,
                    tx: Some(tx),
                });
                (self.txs.len() - 1) as u32
            }
        };
        let gen = self.txs[slot as usize].gen;
        self.by_channel[channel as usize].push(slot);
        self.by_src[src.0 as usize].push(slot);
        self.inflight_starts.push(Reverse((now, slot, gen)));
        self.prune(now);
        (TxHandle { slot, gen }, end)
    }

    /// Resolve a handle against the slab, panicking on a stale or freed
    /// slot exactly where the old id→slot map would have panicked.
    #[inline]
    fn tx_ref(&self, h: TxHandle) -> &Transmission {
        let s = &self.txs[h.slot as usize];
        assert_eq!(s.gen, h.gen, "unknown or pruned transmission");
        s.tx.as_ref().expect("unknown or pruned transmission")
    }

    /// The transmission in a slot that a channel or source bucket lists:
    /// prune removes a freed slot from both before it can be reused.
    #[inline]
    fn retained(&self, slot: u32) -> &Transmission {
        self.txs[slot as usize]
            .tx
            .as_ref()
            .expect("a bucketed slot holds a retained tx")
    }

    /// Complete a transmission, returning all successful deliveries. Must
    /// be called exactly once, at the end time returned by `begin_tx`.
    ///
    /// Equivalent to [`Self::plan_complete`] followed immediately by
    /// [`Self::commit_complete`], which is how the world's dispatcher
    /// runs it, timing the two halves separately.
    pub fn complete_tx(&mut self, now: SimTime, handle: TxHandle) -> Vec<Delivery> {
        let plan = self.plan_complete(now, handle);
        self.commit_complete(plan)
    }

    /// The pure half of [`Self::complete_tx`]: compute every delivery
    /// and counter delta for the transmission ending at `now`, without
    /// mutating anything. `&self` only, so plans may be computed on any
    /// thread.
    ///
    /// Interferer-major: the candidates are narrowed first, then each
    /// overlapping interferer is visited once and adds its power at
    /// every candidate, and only then is each candidate's SINR decided.
    /// Every candidate's sum takes its terms in ascending interferer id
    /// order, so it equals, bit for bit, what a per-candidate loop over
    /// the same interferers computes.
    pub fn plan_complete(&self, now: SimTime, handle: TxHandle) -> TxPlan {
        let tx = self.tx_ref(handle);
        assert!(!tx.completed, "complete_tx called twice");
        assert_eq!(tx.end, now, "complete_tx at wrong time");
        // The lists live in a per-thread scratch: plan_complete takes
        // `&self` and may run on several threads at once, so the scratch
        // must not be medium state.
        PLAN_SCRATCH.with(|cell| {
            let s = &mut *cell.borrow_mut();
            self.collect_interferers(tx, handle.slot, &mut s.interferers);
            let halfduplex_misses = self.narrow_candidates(tx, handle.slot, &mut s.candidates);
            s.interf_mw.clear();
            s.interf_mw.resize(s.candidates.len(), 0.0);
            if !s.candidates.is_empty() {
                for &oslot in &s.interferers {
                    let o = self.retained(oslot);
                    self.add_interference(o, tx.channel, &s.candidates, &mut s.interf_mw);
                }
            }

            let noise_mw = dbm_to_mw(self.params.noise_floor_dbm);
            let mut deliveries = Vec::new();
            let mut sinr_drops = 0;
            for (&(ri, signal_dbm), &interf_mw) in s.candidates.iter().zip(&s.interf_mw) {
                let sinr_db = signal_dbm - 10.0 * (noise_mw + interf_mw).log10();
                if sinr_db < tx.bitrate.sinr_threshold_db() {
                    sinr_drops += 1;
                    continue;
                }
                deliveries.push(Delivery {
                    to: RadioId(ri),
                    bytes: tx.bytes.clone(),
                    rssi_dbm: signal_dbm,
                    channel: tx.channel,
                    bitrate: tx.bitrate,
                });
            }
            TxPlan {
                handle,
                end: now,
                deliveries,
                halfduplex_misses,
                sinr_drops,
            }
        })
    }

    /// Collect into `out` the slots of the transmissions that overlap
    /// `tx` in time on channels close enough to interact, in ascending
    /// id order — the order every interference sum takes its terms in
    /// (float addition order is observable).
    ///
    /// Far-field cull: every candidate receiver of a sparse tx lies
    /// within the tx's audible radius of its (frozen) source, and a
    /// sparse interferer's stored samples cover only radios within *its*
    /// audible radius of *its* source. If those two discs cannot
    /// intersect, the interferer holds no sample above the audible floor
    /// for any candidate and contributes nothing (the uniform cutoff,
    /// see [`Self::add_interference`]), so it is skipped wholesale.
    /// Valid only while no radio has been added or moved since either tx
    /// began (`geom_epoch` guard): both discs hold begin-era positions,
    /// so a radio that moved between the two begins can be a candidate
    /// from its new position and hold an above-floor interferer sample
    /// from its old one, however far apart the discs are. In a
    /// city-scale world this one distance check removes ~99% of the
    /// interferer set per plan.
    fn collect_interferers(&self, tx: &Transmission, tx_slot: u32, out: &mut Vec<u32>) {
        let cull_radius = (self.geom_epoch == tx.geom_epoch_at_start
            && matches!(tx.power, TxPower::Sparse(_))
            && tx.audible_range_m.is_finite())
        .then_some(tx.audible_range_m);
        out.clear();
        for ch in interacting_channels(tx.channel) {
            for &oslot in &self.by_channel[ch] {
                if oslot == tx_slot {
                    continue;
                }
                let o = self.retained(oslot);
                if o.start >= tx.end || tx.start >= o.end {
                    continue;
                }
                if let Some(r_tx) = cull_radius {
                    if self.geom_epoch == o.geom_epoch_at_start
                        && matches!(o.power, TxPower::Sparse(_))
                    {
                        // The pad mirrors the audible-row build's
                        // rounding absorption; it only ever keeps an
                        // interferer the exact check would drop.
                        let reach = (r_tx + o.audible_range_m) * (1.0 + 1e-9) + 1.0;
                        if reach.is_finite() && o.src_pos.distance(tx.src_pos) > reach {
                            continue;
                        }
                    }
                }
                out.push(oslot);
            }
        }
        out.sort_unstable_by_key(|&s| self.retained(s).id);
    }

    /// Collect into `out` the radios that can decode `tx` but for
    /// interference, as `(radio index, signal dBm)` in ascending index
    /// order: every begin-time radio for a dense map, the audible set for
    /// a sparse one, narrowed to those that [listen](Self::listens)
    /// (before a dense sample is evaluated), clear the rate's
    /// sensitivity, and were not transmitting during any part of its
    /// airtime. Returns the half-duplex misses.
    fn narrow_candidates(&self, tx: &Transmission, tx_slot: u32, out: &mut Vec<(u32, f64)>) -> u64 {
        out.clear();
        let mut halfduplex_misses = 0;
        let mut admit = |ri: usize, signal_dbm: f64| {
            if signal_dbm < tx.bitrate.sensitivity_dbm() {
                return;
            }
            let was_transmitting = self.by_src[ri].iter().any(|&oslot| {
                if oslot == tx_slot {
                    return false;
                }
                let o = self.retained(oslot);
                o.start < tx.end && tx.start < o.end
            });
            if was_transmitting {
                halfduplex_misses += 1;
            } else {
                out.push((ri as u32, signal_dbm));
            }
        };
        match &tx.power {
            TxPower::Dense(lp) => {
                for ri in 0..lp.cells.len() {
                    if self.listens(ri, tx) {
                        admit(ri, self.lazy_dbm(tx, lp, ri));
                    }
                }
            }
            TxPower::Sparse(audible) => {
                for &(ri, p) in audible.iter() {
                    if self.listens(ri as usize, tx) {
                        admit(ri as usize, p);
                    }
                }
            }
        }
        halfduplex_misses
    }

    /// Add the interference, in mW, that `o` puts on each candidate of a
    /// completion on `channel` to that candidate's sum. A term is zero —
    /// and skipping it leaves the non-negative sum's bits unchanged —
    /// when the channels cannot interact, when `o` holds no sample for
    /// the radio (a sparse miss, or a radio registered after `o` began),
    /// or when the sample sits below the audible floor: the uniform
    /// cutoff that keeps the dense and sparse paths bit-identical, since
    /// a sparse row omits exactly the entries this comparison rejects.
    ///
    /// A dense `o` is read by index into its memo cells; a same-channel
    /// term is memoized per radio, since every completion `o` overlaps
    /// adds the same one. A sparse `o` is merged along its sorted audible
    /// row, both lists ascending by radio index. No candidate is `o`'s
    /// own source: that radio transmitted during the airtime, so
    /// [`Self::narrow_candidates`] dropped it.
    fn add_interference(
        &self,
        o: &Transmission,
        channel: u8,
        candidates: &[(u32, f64)],
        sums: &mut [f64],
    ) {
        let offset = o.channel.abs_diff(channel);
        let Some(rej) = aci_rejection_db(offset) else {
            return;
        };
        let floor = self.audible_floor_dbm;
        match &o.power {
            TxPower::Dense(lp) => {
                for (&(ri, _), sum) in candidates.iter().zip(sums.iter_mut()) {
                    debug_assert_ne!(ri, o.src.0, "an interferer's source is deaf");
                    let ri = ri as usize;
                    if ri >= lp.cells.len() {
                        break;
                    }
                    if offset == 0 {
                        *sum += self.same_channel_mw(o, lp, ri);
                        continue;
                    }
                    let p = self.lazy_dbm(o, lp, ri);
                    if p < floor {
                        continue;
                    }
                    *sum += dbm_to_mw(p - rej);
                }
            }
            TxPower::Sparse(audible) => {
                let mut k = 0;
                for (&(ri, _), sum) in candidates.iter().zip(sums.iter_mut()) {
                    debug_assert_ne!(ri, o.src.0, "an interferer's source is deaf");
                    if ri >= o.radios_at_start {
                        break;
                    }
                    while k < audible.len() && audible[k].0 < ri {
                        k += 1;
                    }
                    if k == audible.len() || audible[k].0 != ri {
                        continue;
                    }
                    let p = audible[k].1;
                    if p < floor {
                        continue;
                    }
                    *sum += dbm_to_mw(p - rej);
                }
            }
        }
    }

    /// Can radio `ri` receive `tx` at all: not its source, powered on,
    /// and tuned to its channel?
    fn listens(&self, ri: usize, tx: &Transmission) -> bool {
        let r = &self.radios[ri];
        ri as u32 != tx.src.0 && r.enabled && r.channel == tx.channel
    }

    /// The begin-era power sample `tx` holds for radio `ri`, if any. A
    /// sparse miss means the radio sat below the audible floor at begin
    /// time; a radio registered mid-flight has no sample on either path.
    fn rx_dbm(&self, tx: &Transmission, ri: usize) -> Option<f64> {
        if ri as u32 >= tx.radios_at_start {
            return None;
        }
        match &tx.power {
            TxPower::Dense(lp) => Some(self.lazy_dbm(tx, lp, ri)),
            TxPower::Sparse(audible) => audible
                .binary_search_by_key(&(ri as u32), |e| e.0)
                .ok()
                .map(|k| audible[k].1),
        }
    }

    /// Sample `ri` of the dense map `lp` of `tx`, evaluated on first
    /// read: begin-era path loss plus, at σ > 0, the radio's shadowing
    /// draw replayed from the nearest checkpoint — the same draws and the
    /// same f64 expression as an eager registration-order fill.
    fn lazy_dbm(&self, tx: &Transmission, lp: &LazyPower, ri: usize) -> f64 {
        let cell = &lp.cells[ri][0];
        let bits = cell.load(Ordering::Relaxed);
        if bits != UNSET {
            return f64::from_bits(bits);
        }
        let mut p = tx.tx_power_dbm
            - path_loss_db(
                tx.src_pos.distance(lp.positions[ri]),
                self.params.ref_loss_db,
                self.params.path_loss_exponent,
            );
        let sigma = self.params.shadowing_sigma_db;
        if sigma > 0.0 {
            let mut rng = lp.checkpoints[ri / CHECKPOINT_EVERY].clone();
            rng.skip_gaussians(ri % CHECKPOINT_EVERY);
            p += rng.gaussian(0.0, sigma);
        }
        cell.store(p.to_bits(), Ordering::Relaxed);
        p
    }

    /// Same-channel interference, in mW, that the dense `tx` puts on
    /// radio `ri` (zero below the audible floor), memoized in the
    /// radio's second cell: every completion `tx` overlaps adds the same
    /// term.
    fn same_channel_mw(&self, tx: &Transmission, lp: &LazyPower, ri: usize) -> f64 {
        let cell = &lp.cells[ri][1];
        let bits = cell.load(Ordering::Relaxed);
        if bits != UNSET {
            return f64::from_bits(bits);
        }
        // No rejection on the same channel: `p - rej` is `p`.
        let p = self.lazy_dbm(tx, lp, ri);
        let mw = if p < self.audible_floor_dbm {
            0.0
        } else {
            dbm_to_mw(p)
        };
        cell.store(mw.to_bits(), Ordering::Relaxed);
        mw
    }

    /// The mutating half of [`Self::complete_tx`]: mark the transmission
    /// completed, fold the counter deltas in, and hand back the
    /// deliveries. Trusts the plan: the caller must not mutate the
    /// medium between [`Self::plan_complete`] and this call.
    pub fn commit_complete(&mut self, plan: TxPlan) -> Vec<Delivery> {
        let s = &mut self.txs[plan.handle.slot as usize];
        assert_eq!(s.gen, plan.handle.gen, "unknown or pruned transmission");
        let t = s.tx.as_mut().expect("unknown or pruned transmission");
        assert!(!t.completed, "complete_tx called twice");
        assert_eq!(t.end, plan.end, "commit at wrong time");
        t.completed = true;
        self.completed_ends.push(Reverse((t.end, plan.handle.slot)));
        self.halfduplex_misses += plan.halfduplex_misses;
        self.sinr_drops += plan.sinr_drops;
        plan.deliveries
    }

    /// Carrier sense: is any in-flight transmission audible at `radio`
    /// above the CCA threshold (including adjacent-channel energy)?
    /// Walks only the channel buckets within the interaction span; a
    /// sparse tx with no stored sample for `radio` is below the audible
    /// floor and can never trip CCA.
    pub fn channel_busy(&self, now: SimTime, radio: RadioId) -> bool {
        let r = &self.radios[radio.0 as usize];
        for ch in interacting_channels(r.channel) {
            for &oslot in &self.by_channel[ch] {
                let t = self.retained(oslot);
                if t.start <= now && now < t.end && t.src != radio {
                    let Some(rej) = aci_rejection_db(t.channel.abs_diff(r.channel)) else {
                        continue;
                    };
                    if self
                        .rx_dbm(t, radio.0 as usize)
                        .is_some_and(|p| p - rej >= self.params.cca_threshold_dbm)
                    {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Number of registered radios.
    pub fn radio_count(&self) -> usize {
        self.radios.len()
    }

    /// Source position of an in-flight transmission, frozen at begin
    /// time — the shard-routing key for its completion event.
    pub fn tx_src_pos(&self, handle: TxHandle) -> Pos {
        self.tx_ref(handle).src_pos
    }

    /// Conservative audible radius of an in-flight transmission: the
    /// distance at which its received power falls to the audible floor.
    /// Infinite when the floor is unreachable (degenerate parameters).
    /// Used with [`crate::RegionMap::disc_crosses_region`] to classify
    /// boundary events.
    pub fn tx_audible_range_m(&self, handle: TxHandle) -> f64 {
        self.tx_ref(handle).audible_range_m
    }

    /// Transmission records currently retained (in-flight plus completed
    /// ones that still overlap an in-flight frame) — the working-set the
    /// `complete_tx` scans walk. Exposed for tests and benches.
    pub fn tx_backlog(&self) -> usize {
        self.txs.iter().filter(|s| s.tx.is_some()).count()
    }

    /// Total `(radio, dBm)` received-power entries stored across all
    /// retained transmissions — the per-tx power-map memory footprint:
    /// O(registry) per dense tx, O(audible) per sparse tx. Exposed for
    /// tests and benches.
    pub fn power_map_entries(&self) -> usize {
        self.txs
            .iter()
            .filter_map(|s| s.tx.as_ref())
            .map(|t| match &t.power {
                TxPower::Dense(lp) => lp.cells.len(),
                TxPower::Sparse(audible) => audible.len(),
            })
            .sum()
    }

    /// Pairwise path-loss cache statistics: (pairs cached, hits,
    /// misses). Exposed for tests and metrics mirroring.
    pub fn pathloss_cache_stats(&self) -> (usize, u64, u64) {
        self.cache.stats()
    }

    /// `begin_tx` calls served by a cached audible row (sparse path
    /// only). Exposed for tests and metrics mirroring.
    pub fn audible_rows_reused(&self) -> u64 {
        self.row_reuses
    }

    /// Validation hook: route every subsequent `begin_tx` through the
    /// dense O(registry) map even at σ == 0, as the pre-cull medium did.
    /// The sparse fast path is required to be delivery- and
    /// counter-identical to this reference (see the
    /// `medium_sparse_equiv` property suite).
    pub fn force_dense(&mut self, on: bool) {
        self.force_dense = on;
    }

    /// Drop completed transmissions that can no longer overlap anything.
    ///
    /// A completed record matters only while it can interfere with a
    /// frame still in the air (or one begun later — which starts at
    /// `now` or after). Both are bounded below by `horizon`: the
    /// earliest in-flight start, or `now` when the air is clear. A
    /// completed tx ending at or before `horizon` can never satisfy
    /// the overlap test again, so dropping it cannot change any SINR
    /// sum. Both bounds come off min-heaps, so a prune costs what it
    /// frees, not what the slab holds.
    fn prune(&mut self, now: SimTime) {
        let horizon = loop {
            let Some(&Reverse((start, slot, gen))) = self.inflight_starts.peek() else {
                break now;
            };
            let s = &self.txs[slot as usize];
            if s.gen == gen && s.tx.as_ref().is_some_and(|t| !t.completed) {
                break start;
            }
            self.inflight_starts.pop();
        };
        // Free prunable slots, remembering which channel buckets and
        // source vecs they sat in — only those get swept, never the
        // whole (O(radios)) bucket table.
        let mut touched_ch: u16 = 0;
        let mut srcs = std::mem::take(&mut self.prune_src_scratch);
        srcs.clear();
        while let Some(&Reverse((end, slot))) = self.completed_ends.peek() {
            if end > horizon {
                break;
            }
            self.completed_ends.pop();
            let s = &mut self.txs[slot as usize];
            let t =
                s.tx.take()
                    .expect("a completed tx is retained until pruned");
            debug_assert!(t.completed && t.end == end);
            s.gen = s.gen.wrapping_add(1);
            touched_ch |= 1 << t.channel;
            srcs.push(t.src.0);
            self.free_tx.push(slot);
        }
        if touched_ch != 0 {
            // A freed slot has `tx == None` and cannot have been reused
            // yet (reuse only happens in a later begin_tx, after this
            // sweep), so is_some() exactly separates live from freed.
            // Bucket order is preserved for the survivors.
            let txs = &self.txs;
            for ch in 1..=14usize {
                if touched_ch & (1 << ch) != 0 {
                    self.by_channel[ch].retain(|&slot| txs[slot as usize].tx.is_some());
                }
            }
            for &src in &srcs {
                self.by_src[src as usize].retain(|&slot| txs[slot as usize].tx.is_some());
            }
        }
        self.prune_src_scratch = srcs;
    }
}

/// Per-thread scratch lists of [`Medium::plan_complete`], which takes
/// `&self` and may run on several threads at once.
#[derive(Default)]
struct PlanScratch {
    /// Overlapping interferer slots, ascending by tx id.
    interferers: Vec<u32>,
    /// Narrowed candidates: `(radio index, signal dBm)`, ascending.
    candidates: Vec<(u32, f64)>,
    /// Per candidate, its interference sum in mW.
    interf_mw: Vec<f64>,
}

thread_local! {
    static PLAN_SCRATCH: std::cell::RefCell<PlanScratch> =
        std::cell::RefCell::new(PlanScratch::default());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn medium() -> Medium {
        Medium::new(MediumParams::default(), Seed(1))
    }

    fn bytes(n: usize) -> Bytes {
        Bytes::from(vec![0xA5u8; n])
    }

    #[test]
    fn nearby_radio_receives() {
        let mut m = medium();
        let a = m.add_radio(Pos::new(0.0, 0.0), 1, 15.0);
        let b = m.add_radio(Pos::new(10.0, 0.0), 1, 15.0);
        let (h, end) = m.begin_tx(SimTime::ZERO, a, bytes(100), Bitrate::B11);
        let ds = m.complete_tx(end, h);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].to, b);
        assert_eq!(ds[0].bytes.len(), 100);
        // 15 dBm - (40 + 30·log10(10)) = 15 - 70 = -55 dBm.
        assert!((ds[0].rssi_dbm - -55.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_radio_misses() {
        let mut m = medium();
        let a = m.add_radio(Pos::new(0.0, 0.0), 1, 15.0);
        let _far = m.add_radio(Pos::new(2000.0, 0.0), 1, 15.0);
        let (h, end) = m.begin_tx(SimTime::ZERO, a, bytes(100), Bitrate::B11);
        assert!(m.complete_tx(end, h).is_empty());
    }

    #[test]
    fn off_channel_radio_misses_but_nonoverlap_no_interference() {
        let mut m = medium();
        let a = m.add_radio(Pos::new(0.0, 0.0), 1, 15.0);
        let _b = m.add_radio(Pos::new(10.0, 0.0), 6, 15.0);
        let (h, end) = m.begin_tx(SimTime::ZERO, a, bytes(100), Bitrate::B11);
        assert!(
            m.complete_tx(end, h).is_empty(),
            "channel 6 cannot decode channel 1"
        );
    }

    #[test]
    fn broadcast_reaches_all_on_channel() {
        let mut m = medium();
        let a = m.add_radio(Pos::new(0.0, 0.0), 6, 15.0);
        let _b = m.add_radio(Pos::new(10.0, 0.0), 6, 15.0);
        let _c = m.add_radio(Pos::new(0.0, 20.0), 6, 15.0);
        let _sniffer = m.add_radio(Pos::new(30.0, 30.0), 6, 15.0);
        let (h, end) = m.begin_tx(SimTime::ZERO, a, bytes(64), Bitrate::B1);
        let ds = m.complete_tx(end, h);
        assert_eq!(
            ds.len(),
            3,
            "everyone in range hears broadcast, incl. sniffer"
        );
    }

    #[test]
    fn same_channel_overlap_collides() {
        let mut m = medium();
        let a = m.add_radio(Pos::new(0.0, 0.0), 1, 15.0);
        let b = m.add_radio(Pos::new(20.0, 0.0), 1, 15.0);
        let _victim = m.add_radio(Pos::new(10.0, 0.0), 1, 15.0);
        // Two equal-power transmissions fully overlapping at the victim.
        let (h1, e1) = m.begin_tx(SimTime::ZERO, a, bytes(200), Bitrate::B11);
        let (h2, e2) = m.begin_tx(SimTime::ZERO, b, bytes(200), Bitrate::B11);
        let d1 = m.complete_tx(e1, h1);
        let d2 = m.complete_tx(e2, h2);
        // Equal power => SINR ≈ 0 dB < 10 dB threshold: both die at victim.
        // (a and b themselves were transmitting, so receive nothing either.)
        assert!(d1.is_empty() && d2.is_empty());
        // The victim's two losses are SINR kills; a and b were deaf
        // because they were transmitting — distinct counters.
        assert_eq!(m.sinr_drops, 2, "victim loses both frames to SINR");
        assert_eq!(m.halfduplex_misses, 2, "each tx radio deaf to the other");
        assert_eq!(m.collisions(), 4, "total preserves the pre-split sum");
    }

    #[test]
    fn capture_effect_stronger_frame_survives() {
        let mut m = medium();
        let strong = m.add_radio(Pos::new(1.0, 0.0), 1, 20.0);
        let weak = m.add_radio(Pos::new(200.0, 0.0), 1, 10.0);
        let victim = m.add_radio(Pos::new(0.0, 0.0), 1, 15.0);
        let (h1, e1) = m.begin_tx(SimTime::ZERO, strong, bytes(100), Bitrate::B11);
        let (h2, e2) = m.begin_tx(SimTime::ZERO, weak, bytes(100), Bitrate::B11);
        let d1 = m.complete_tx(e1, h1);
        let d2 = m.complete_tx(e2, h2);
        assert!(d1.iter().any(|d| d.to == victim), "strong frame captures");
        assert!(!d2.iter().any(|d| d.to == victim), "weak frame lost");
    }

    #[test]
    fn half_duplex_transmitter_hears_nothing() {
        let mut m = medium();
        let a = m.add_radio(Pos::new(0.0, 0.0), 1, 15.0);
        let b = m.add_radio(Pos::new(5.0, 0.0), 1, 15.0);
        let (h1, e1) = m.begin_tx(SimTime::ZERO, a, bytes(1000), Bitrate::B1);
        // b transmits briefly during a's long frame.
        let (h2, e2) = m.begin_tx(SimTime::ZERO, b, bytes(10), Bitrate::B11);
        let d2 = m.complete_tx(e2, h2);
        assert!(
            !d2.iter().any(|d| d.to == a),
            "a is mid-transmission, cannot receive"
        );
        let d1 = m.complete_tx(e1, h1);
        assert!(
            !d1.iter().any(|d| d.to == b),
            "b transmitted during a's frame"
        );
    }

    #[test]
    fn channel_busy_reflects_inflight_tx() {
        let mut m = medium();
        let a = m.add_radio(Pos::new(0.0, 0.0), 1, 15.0);
        let b = m.add_radio(Pos::new(10.0, 0.0), 1, 15.0);
        let off = m.add_radio(Pos::new(10.0, 0.0), 11, 15.0);
        assert!(!m.channel_busy(SimTime::ZERO, b));
        let (_h, end) = m.begin_tx(SimTime::ZERO, a, bytes(500), Bitrate::B1);
        let mid = SimTime(end.as_nanos() / 2);
        assert!(m.channel_busy(mid, b));
        assert!(!m.channel_busy(mid, off), "channel 11 clear of channel 1");
        assert!(!m.channel_busy(end, b), "ended tx no longer busy");
    }

    #[test]
    fn disabled_radio_neither_sends_nor_receives() {
        let mut m = medium();
        let a = m.add_radio(Pos::new(0.0, 0.0), 1, 15.0);
        let b = m.add_radio(Pos::new(10.0, 0.0), 1, 15.0);
        m.set_enabled(b, false);
        let (h, end) = m.begin_tx(SimTime::ZERO, a, bytes(10), Bitrate::B1);
        assert!(m.complete_tx(end, h).is_empty());
    }

    #[test]
    fn retune_changes_reception() {
        let mut m = medium();
        let a = m.add_radio(Pos::new(0.0, 0.0), 6, 15.0);
        let b = m.add_radio(Pos::new(10.0, 0.0), 1, 15.0);
        m.set_channel(b, 6);
        assert_eq!(m.channel(b), 6);
        let (h, end) = m.begin_tx(SimTime::ZERO, a, bytes(10), Bitrate::B1);
        assert_eq!(m.complete_tx(end, h).len(), 1);
    }

    #[test]
    fn mobility_changes_rssi() {
        let mut m = medium();
        let a = m.add_radio(Pos::new(0.0, 0.0), 1, 15.0);
        let b = m.add_radio(Pos::new(10.0, 0.0), 1, 15.0);
        let near = m.rssi_estimate_dbm(a, b);
        m.set_pos(b, Pos::new(40.0, 0.0));
        let far = m.rssi_estimate_dbm(a, b);
        assert!(near > far);
    }

    #[test]
    #[should_panic(expected = "complete_tx called twice")]
    fn double_complete_panics() {
        let mut m = medium();
        let a = m.add_radio(Pos::new(0.0, 0.0), 1, 15.0);
        let (h, end) = m.begin_tx(SimTime::ZERO, a, bytes(10), Bitrate::B1);
        m.complete_tx(end, h);
        m.complete_tx(end, h);
    }

    #[test]
    fn adjacent_channel_interference_corrupts() {
        // A strong adjacent-channel (offset 1) interferer leaks enough
        // energy past the 12 dB rejection to destroy a marginal frame.
        let mut m = medium();
        let tx = m.add_radio(Pos::new(0.0, 0.0), 6, 15.0);
        let victim_rx = m.add_radio(Pos::new(60.0, 0.0), 6, 15.0); // ~ -68 dBm
        let jammer = m.add_radio(Pos::new(61.0, 0.0), 7, 20.0); // loud, next door
        let _ = victim_rx;
        let (h1, e1) = m.begin_tx(SimTime::ZERO, tx, bytes(200), Bitrate::B11);
        let (h2, e2) = m.begin_tx(SimTime::ZERO, jammer, bytes(200), Bitrate::B11);
        let d1 = m.complete_tx(e1, h1);
        let _ = m.complete_tx(e2, h2);
        assert!(
            d1.is_empty(),
            "adjacent-channel leakage must swamp the marginal frame"
        );
        // Without the jammer the same frame decodes.
        let mut m2 = medium();
        let tx = m2.add_radio(Pos::new(0.0, 0.0), 6, 15.0);
        let _rx = m2.add_radio(Pos::new(60.0, 0.0), 6, 15.0);
        let (h, e) = m2.begin_tx(SimTime::ZERO, tx, bytes(200), Bitrate::B11);
        assert_eq!(m2.complete_tx(e, h).len(), 1);
    }

    #[test]
    fn nonoverlapping_channel_never_interferes() {
        // Channels 1 and 6 (the paper's Figure 1 split): even a blaring
        // co-located transmitter cannot corrupt the other channel.
        let mut m = medium();
        let tx = m.add_radio(Pos::new(0.0, 0.0), 1, 15.0);
        let _rx = m.add_radio(Pos::new(60.0, 0.0), 1, 15.0);
        let blaster = m.add_radio(Pos::new(60.0, 1.0), 6, 30.0);
        let (h1, e1) = m.begin_tx(SimTime::ZERO, tx, bytes(200), Bitrate::B11);
        let (h2, e2) = m.begin_tx(SimTime::ZERO, blaster, bytes(200), Bitrate::B11);
        let d1 = m.complete_tx(e1, h1);
        let _ = m.complete_tx(e2, h2);
        assert_eq!(d1.len(), 1, "channel-6 energy must not touch channel 1");
    }

    #[test]
    fn midflight_registered_radio_hears_nothing() {
        let mut m = medium();
        let a = m.add_radio(Pos::new(0.0, 0.0), 1, 15.0);
        let (h, end) = m.begin_tx(SimTime::ZERO, a, bytes(500), Bitrate::B1);
        // A radio appears mid-flight: no rx power was sampled for it.
        let late = m.add_radio(Pos::new(5.0, 0.0), 1, 15.0);
        let ds = m.complete_tx(end, h);
        assert!(
            !ds.iter().any(|d| d.to == late),
            "mid-flight radio heard a frame it has no sampled power for"
        );
        assert_eq!(m.halfduplex_misses, 0, "no counter corruption");
        assert_eq!(m.sinr_drops, 0, "no counter corruption");
        assert_eq!(m.frames_sent, 1);
    }

    #[test]
    fn completed_txs_are_pruned_and_do_not_interfere() {
        let mut m = medium();
        let a = m.add_radio(Pos::new(0.0, 0.0), 1, 15.0);
        let b = m.add_radio(Pos::new(10.0, 0.0), 1, 15.0);
        // A long run of back-to-back frames: the working set must stay
        // bounded instead of accumulating completed records.
        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            let (h, end) = m.begin_tx(t, a, bytes(100), Bitrate::B11);
            let ds = m.complete_tx(end, h);
            assert_eq!(ds.len(), 1, "sequential frames never collide");
            assert_eq!(ds[0].to, b);
            t = end;
        }
        assert!(
            m.tx_backlog() <= 2,
            "completed txs must be pruned, kept {}",
            m.tx_backlog()
        );
        assert_eq!(
            m.sinr_drops, 0,
            "non-overlapping history is not interference"
        );
        // And pruning must not rewrite physics: a completed frame that
        // still overlaps an in-flight one keeps interfering.
        let (h1, e1) = m.begin_tx(t, a, bytes(1000), Bitrate::B1);
        let t2 = SimTime(t.as_nanos() + 1000);
        let (h2, e2) = m.begin_tx(t2, b, bytes(10), Bitrate::B11);
        let _ = m.complete_tx(e2, h2);
        let d1 = m.complete_tx(e1, h1);
        assert!(
            !d1.iter().any(|d| d.to == b),
            "b transmitted during a's frame: still half-duplex deaf"
        );
    }

    #[test]
    fn shadowing_perturbs_rssi_deterministically() {
        let mk = || {
            let p = MediumParams {
                shadowing_sigma_db: 6.0,
                ..MediumParams::default()
            };
            let mut m = Medium::new(p, Seed(7));
            let a = m.add_radio(Pos::new(0.0, 0.0), 1, 15.0);
            let _b = m.add_radio(Pos::new(10.0, 0.0), 1, 15.0);
            let (h, end) = m.begin_tx(SimTime::ZERO, a, bytes(10), Bitrate::B1);
            m.complete_tx(end, h)
        };
        let d1 = mk();
        let d2 = mk();
        assert_eq!(d1.len(), d2.len());
        if let (Some(x), Some(y)) = (d1.first(), d2.first()) {
            assert_eq!(x.rssi_dbm, y.rssi_dbm, "same seed, same shadowing");
            assert_ne!(x.rssi_dbm, -55.0, "shadowing actually applied");
        }
    }

    // ------------------------------------------------------------------
    // Sparse fast-path regression tests (cache / cull / overlap index)
    // ------------------------------------------------------------------

    #[test]
    fn sparse_power_maps_stay_o_audible() {
        let mut m = medium();
        // A 40×40 grid at 100 m pitch: ~4 km on a side, far beyond the
        // ~200 m decode horizon of any single transmitter.
        let mut ids = Vec::new();
        for i in 0..1600u32 {
            let pos = Pos::new((i % 40) as f64 * 100.0, (i / 40) as f64 * 100.0);
            ids.push(m.add_radio(pos, 1, 15.0));
        }
        let (h, end) = m.begin_tx(SimTime::ZERO, ids[0], bytes(100), Bitrate::B1);
        let stored = m.power_map_entries();
        assert!(
            stored < 32,
            "corner radio must store a neighbourhood, not the registry ({stored})"
        );
        let ds = m.complete_tx(end, h);
        assert!(!ds.is_empty(), "neighbours still decode at 1 Mbps");
    }

    #[test]
    fn audible_rows_are_reused_until_geometry_changes() {
        let mut m = medium();
        let a = m.add_radio(Pos::new(0.0, 0.0), 1, 15.0);
        let b = m.add_radio(Pos::new(10.0, 0.0), 1, 15.0);
        let mut t = SimTime::ZERO;
        for _ in 0..10 {
            let (h, end) = m.begin_tx(t, a, bytes(10), Bitrate::B11);
            m.complete_tx(end, h);
            t = end;
        }
        assert_eq!(m.audible_rows_reused(), 9, "row rebuilt only once");
        m.set_pos(b, Pos::new(20.0, 0.0));
        let (h, end) = m.begin_tx(t, a, bytes(10), Bitrate::B11);
        m.complete_tx(end, h);
        assert_eq!(m.audible_rows_reused(), 9, "move must invalidate the row");
    }

    #[test]
    fn set_pos_invalidates_cache_and_deliveries_track_the_move() {
        let mut m = medium();
        let a = m.add_radio(Pos::new(0.0, 0.0), 1, 15.0);
        let b = m.add_radio(Pos::new(2000.0, 0.0), 1, 15.0);
        let fire = |m: &mut Medium, t: SimTime| {
            let (h, end) = m.begin_tx(t, a, bytes(10), Bitrate::B11);
            (m.complete_tx(end, h), end)
        };
        let (ds, t1) = fire(&mut m, SimTime::ZERO);
        assert!(ds.is_empty(), "b starts out of range");
        // Walk b into range: the cached loss for (a, b) must refresh.
        m.set_pos(b, Pos::new(10.0, 0.0));
        assert!((m.rssi_estimate_dbm(a, b) - -55.0).abs() < 1e-9);
        let (ds, t2) = fire(&mut m, t1);
        assert_eq!(ds.len(), 1, "after the move b decodes");
        assert_eq!(ds[0].to, b);
        // And back out again.
        m.set_pos(b, Pos::new(2000.0, 0.0));
        let (ds, _) = fire(&mut m, t2);
        assert!(ds.is_empty(), "stale cache must not deliver to a far radio");
    }

    #[test]
    fn midflight_move_keeps_begin_time_power() {
        // Dense semantics: power is sampled at begin_tx. A radio that
        // walks out of range mid-flight still decodes; one that walks
        // into range mid-flight still misses.
        let mut m = medium();
        let a = m.add_radio(Pos::new(0.0, 0.0), 1, 15.0);
        let near = m.add_radio(Pos::new(10.0, 0.0), 1, 15.0);
        let far = m.add_radio(Pos::new(2000.0, 0.0), 1, 15.0);
        let (h, end) = m.begin_tx(SimTime::ZERO, a, bytes(500), Bitrate::B1);
        m.set_pos(near, Pos::new(2000.0, 100.0));
        m.set_pos(far, Pos::new(10.0, 10.0));
        let ds = m.complete_tx(end, h);
        assert!(
            ds.iter().any(|d| d.to == near),
            "begin-time power decodes even after walking away"
        );
        assert!(
            !ds.iter().any(|d| d.to == far),
            "begin-time power still out of range after walking in"
        );
    }

    #[test]
    fn midflight_move_pins_interference_sample() {
        // An interferer's victim-side power is read at complete time; a
        // mid-flight move of the victim must not rewrite the begin-era
        // sample. Run the same schedule sparse and forced-dense and
        // require bit-identical deliveries and counters.
        let run = |force_dense: bool| {
            let mut m = medium();
            let a = m.add_radio(Pos::new(0.0, 0.0), 1, 15.0);
            let b = m.add_radio(Pos::new(20.0, 0.0), 1, 15.0);
            let victim = m.add_radio(Pos::new(10.0, 0.0), 1, 15.0);
            m.force_dense(force_dense);
            let (h1, e1) = m.begin_tx(SimTime::ZERO, a, bytes(200), Bitrate::B11);
            let (h2, e2) = m.begin_tx(SimTime::ZERO, b, bytes(200), Bitrate::B11);
            m.set_pos(victim, Pos::new(11.0, 3.0));
            let d1 = m.complete_tx(e1, h1);
            let d2 = m.complete_tx(e2, h2);
            let sig: Vec<(u32, u64)> = d1
                .iter()
                .chain(d2.iter())
                .map(|d| (d.to.0, d.rssi_dbm.to_bits()))
                .collect();
            (sig, m.halfduplex_misses, m.sinr_drops)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn midflight_registered_then_moved_radio_stays_out_of_range() {
        let mut m = medium();
        let a = m.add_radio(Pos::new(0.0, 0.0), 1, 15.0);
        let (h, end) = m.begin_tx(SimTime::ZERO, a, bytes(500), Bitrate::B1);
        // Registered mid-flight, then moved mid-flight: still invisible
        // to the in-flight tx (no begin-time sample).
        let late = m.add_radio(Pos::new(5.0, 0.0), 1, 15.0);
        m.set_pos(late, Pos::new(3.0, 0.0));
        let ds = m.complete_tx(end, h);
        assert!(!ds.iter().any(|d| d.to == late));
        assert_eq!((m.halfduplex_misses, m.sinr_drops), (0, 0));
    }

    #[test]
    fn plan_commit_matches_complete_and_staleness_is_detected() {
        // A plan made before a conflicting begin_tx differs from one
        // made after it; planning + committing at completion time must
        // reproduce exactly what a pure serial complete_tx computes in
        // an identical world.
        let run_serial = || {
            let mut m = medium();
            let a = m.add_radio(Pos::new(0.0, 0.0), 1, 15.0);
            let b = m.add_radio(Pos::new(20.0, 0.0), 1, 15.0);
            let _victim = m.add_radio(Pos::new(10.0, 0.0), 1, 15.0);
            let (h1, e1) = m.begin_tx(SimTime::ZERO, a, bytes(200), Bitrate::B11);
            let (h2, e2) = m.begin_tx(SimTime::ZERO, b, bytes(200), Bitrate::B11);
            let d1 = m.complete_tx(e1, h1);
            let d2 = m.complete_tx(e2, h2);
            let sig: Vec<(u32, u64)> = d1
                .iter()
                .chain(d2.iter())
                .map(|d| (d.to.0, d.rssi_dbm.to_bits()))
                .collect();
            (sig, m.halfduplex_misses, m.sinr_drops)
        };
        let run_planned = || {
            let mut m = medium();
            let a = m.add_radio(Pos::new(0.0, 0.0), 1, 15.0);
            let b = m.add_radio(Pos::new(20.0, 0.0), 1, 15.0);
            let _victim = m.add_radio(Pos::new(10.0, 0.0), 1, 15.0);
            let (h1, e1) = m.begin_tx(SimTime::ZERO, a, bytes(200), Bitrate::B11);
            let early = m.plan_complete(e1, h1);
            // b's overlapping same-channel tx deafens b and drowns the
            // victim: the early plan (which saw no interferer) is stale.
            let (h2, e2) = m.begin_tx(SimTime::ZERO, b, bytes(200), Bitrate::B11);
            let current = m.plan_complete(e1, h1);
            assert_eq!(early.deliveries().len(), 2, "b and the victim");
            assert!(
                current.deliveries().is_empty(),
                "a conflicting begin_tx must change the outcome"
            );
            let d1 = m.commit_complete(current);
            let d2 = m.commit_complete(m.plan_complete(e2, h2));
            let sig: Vec<(u32, u64)> = d1
                .iter()
                .chain(d2.iter())
                .map(|d| (d.to.0, d.rssi_dbm.to_bits()))
                .collect();
            (sig, m.halfduplex_misses, m.sinr_drops)
        };
        assert_eq!(run_serial(), run_planned());
    }

    #[test]
    fn medium_is_sync_for_the_parallel_plan_phase() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<Medium>();
        assert_sync::<TxPlan>();
    }

    #[test]
    fn rssi_estimate_serves_from_cache() {
        let mut m = medium();
        let a = m.add_radio(Pos::new(0.0, 0.0), 1, 15.0);
        let b = m.add_radio(Pos::new(10.0, 0.0), 1, 15.0);
        let first = m.rssi_estimate_dbm(a, b);
        let (_, hits0, _) = m.pathloss_cache_stats();
        let second = m.rssi_estimate_dbm(b, a);
        let (_, hits1, _) = m.pathloss_cache_stats();
        assert_eq!(first.to_bits(), second.to_bits(), "symmetric estimate");
        assert!(hits1 > hits0, "reverse direction must hit the cache");
    }
}
