//! Propagation primitives: positions, path loss, channels, bitrates and
//! airtime.

use rogue_sim::SimDuration;

/// 2-D position in metres.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Pos {
    /// X coordinate, metres.
    pub x: f64,
    /// Y coordinate, metres.
    pub y: f64,
}

impl Pos {
    /// Construct a position.
    pub const fn new(x: f64, y: f64) -> Pos {
        Pos { x, y }
    }

    /// Euclidean distance to `other`, metres.
    pub fn distance(self, other: Pos) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// Channels this far apart (or more) do not interfere at all. In 2.4 GHz
/// 802.11b the classic non-overlapping set {1, 6, 11} is spaced by 5.
pub const CHANNEL_SPACING_NONOVERLAP: u8 = 5;

/// Adjacent-channel rejection in dB for channel offsets 0..=4. Offsets ≥ 5
/// are treated as infinite rejection. Values follow the usual spectral-mask
/// staircase; exact numbers only shift where interference becomes
/// negligible.
pub const ACI_REJECTION_DB: [f64; 5] = [0.0, 12.0, 28.0, 45.0, 60.0];

/// Attenuation applied to an interferer `offset` channels away, or `None`
/// when it cannot interfere.
pub fn aci_rejection_db(offset: u8) -> Option<f64> {
    if offset >= CHANNEL_SPACING_NONOVERLAP {
        None
    } else {
        Some(ACI_REJECTION_DB[offset as usize])
    }
}

/// 802.11b data rates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Bitrate {
    /// 1 Mbps DBPSK — mandatory rate, used for management frames.
    B1,
    /// 2 Mbps DQPSK.
    B2,
    /// 5.5 Mbps CCK.
    B5_5,
    /// 11 Mbps CCK — the paper-era "full speed".
    B11,
}

impl Bitrate {
    /// Data rate in bits per second.
    pub const fn bits_per_sec(self) -> u64 {
        match self {
            Bitrate::B1 => 1_000_000,
            Bitrate::B2 => 2_000_000,
            Bitrate::B5_5 => 5_500_000,
            Bitrate::B11 => 11_000_000,
        }
    }

    /// Minimum SINR (dB) to decode at this rate. Higher rates need cleaner
    /// signal — which is why management traffic runs at 1 Mbps.
    pub const fn sinr_threshold_db(self) -> f64 {
        match self {
            Bitrate::B1 => 4.0,
            Bitrate::B2 => 6.0,
            Bitrate::B5_5 => 8.0,
            Bitrate::B11 => 10.0,
        }
    }

    /// Receiver sensitivity (dBm): below this RSSI the frame is noise even
    /// with zero interference. Typical Prism-era card figures.
    pub const fn sensitivity_dbm(self) -> f64 {
        match self {
            Bitrate::B1 => -94.0,
            Bitrate::B2 => -91.0,
            Bitrate::B5_5 => -87.0,
            Bitrate::B11 => -82.0,
        }
    }

    /// The weakest sensitivity across all rates (1 Mbps DBPSK): below
    /// this RSSI a frame is undecodable at *any* rate.
    pub const MIN_SENSITIVITY_DBM: f64 = Bitrate::B1.sensitivity_dbm();

    /// Long-preamble PLCP overhead: 144 µs preamble + 48 µs header, always
    /// at 1 Mbps.
    pub const PLCP_OVERHEAD: SimDuration = SimDuration(192_000);

    /// Total airtime for a frame of `len` bytes at this rate.
    pub fn airtime(self, len: usize) -> SimDuration {
        Self::PLCP_OVERHEAD + SimDuration::for_bits(len as u64 * 8, self.bits_per_sec())
    }
}

/// Free-space-referenced log-distance path loss.
///
/// `loss_db = ref_loss_db + 10 · exponent · log10(max(d, 1m))`
///
/// With the defaults (40 dB at 1 m, exponent 3.0 — indoor office) an AP at
/// +15 dBm is decodable at 11 Mbps out to roughly 45 m and at 1 Mbps to
/// roughly 115 m, matching period deployment guidance.
pub fn path_loss_db(distance_m: f64, ref_loss_db: f64, exponent: f64) -> f64 {
    let d = distance_m.max(1.0);
    ref_loss_db + 10.0 * exponent * d.log10()
}

/// Maximum distance at which a transmitter at `tx_power_dbm` is still
/// received at or above `floor_dbm` under log-distance path loss — the
/// radius the spatial cull scans. Returns `f64::INFINITY` when the model
/// cannot attenuate below the floor (non-positive exponent) and `0.0`
/// when even the 1 m reference loss leaves the signal below the floor.
pub fn max_range_m(tx_power_dbm: f64, floor_dbm: f64, ref_loss_db: f64, exponent: f64) -> f64 {
    let budget_db = tx_power_dbm - ref_loss_db - floor_dbm;
    if budget_db < 0.0 {
        return 0.0;
    }
    if exponent <= 0.0 {
        return f64::INFINITY;
    }
    10f64.powf(budget_db / (10.0 * exponent)).max(1.0)
}

/// dBm → milliwatts.
pub fn dbm_to_mw(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Pos::new(0.0, 0.0);
        let b = Pos::new(3.0, 4.0);
        assert!((a.distance(b) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn path_loss_monotone_in_distance() {
        let l10 = path_loss_db(10.0, 40.0, 3.0);
        let l20 = path_loss_db(20.0, 40.0, 3.0);
        assert!(l20 > l10);
        // Doubling distance at exponent 3 adds ~9 dB.
        assert!((l20 - l10 - 9.03).abs() < 0.05);
    }

    #[test]
    fn path_loss_clamps_below_1m() {
        assert_eq!(path_loss_db(0.0, 40.0, 3.0), 40.0);
        assert_eq!(path_loss_db(0.5, 40.0, 3.0), 40.0);
    }

    #[test]
    fn dbm_mw_round_trip() {
        assert!((dbm_to_mw(0.0) - 1.0).abs() < 1e-12);
        assert!((dbm_to_mw(10.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn airtime_includes_preamble() {
        // Zero-length frame still costs the PLCP preamble.
        assert_eq!(Bitrate::B1.airtime(0), SimDuration::from_micros(192));
        // 1375 bytes at 11 Mbps = 1 ms payload + 192 µs preamble.
        let t = Bitrate::B11.airtime(1375);
        assert_eq!(t, SimDuration::from_micros(192 + 1000));
        // Same frame at 1 Mbps takes 11x the payload time.
        let slow = Bitrate::B1.airtime(1375);
        assert_eq!(slow, SimDuration::from_micros(192 + 11_000));
    }

    #[test]
    fn aci_staircase() {
        assert_eq!(aci_rejection_db(0), Some(0.0));
        assert_eq!(aci_rejection_db(1), Some(12.0));
        assert_eq!(aci_rejection_db(4), Some(60.0));
        assert_eq!(aci_rejection_db(5), None);
        // Channels 1 and 6: the paper's Figure 1 configuration — no mutual
        // interference.
        assert_eq!(aci_rejection_db(6 - 1), None);
    }

    #[test]
    fn max_range_inverts_path_loss() {
        // At the computed range the signal sits exactly on the floor;
        // one metre past it, below.
        let r = max_range_m(15.0, -94.0, 40.0, 3.0);
        assert!((15.0 - path_loss_db(r, 40.0, 3.0) - -94.0).abs() < 1e-6);
        assert!(15.0 - path_loss_db(r + 1.0, 40.0, 3.0) < -94.0);
        // Degenerate cases: no budget → 0; no attenuation → unbounded;
        // budget inside the 1 m clamp → clamped to 1 m.
        assert_eq!(max_range_m(15.0, 20.0, 40.0, 3.0), 0.0);
        assert_eq!(max_range_m(15.0, -94.0, 40.0, 0.0), f64::INFINITY);
        assert_eq!(max_range_m(15.0, -25.0, 40.0, 3.0), 1.0);
    }

    #[test]
    fn min_sensitivity_is_the_weakest_rate() {
        for r in [Bitrate::B1, Bitrate::B2, Bitrate::B5_5, Bitrate::B11] {
            assert!(Bitrate::MIN_SENSITIVITY_DBM <= r.sensitivity_dbm());
        }
    }

    #[test]
    fn rate_thresholds_are_ordered() {
        let rates = [Bitrate::B1, Bitrate::B2, Bitrate::B5_5, Bitrate::B11];
        for w in rates.windows(2) {
            assert!(w[0].sinr_threshold_db() < w[1].sinr_threshold_db());
            assert!(w[0].sensitivity_dbm() < w[1].sensitivity_dbm());
            assert!(w[0].bits_per_sec() < w[1].bits_per_sec());
        }
    }
}
