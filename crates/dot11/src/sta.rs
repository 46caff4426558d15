//! Station (client) state machine.
//!
//! The joining logic is deliberately faithful to what 2003-era clients
//! did — and therein lies the paper's point (§3.1): the station
//! authenticates *to* the network, but nothing authenticates the network
//! to the station. A station scans, collects beacons whose SSID (and
//! privacy capability) match its profile, and associates with the
//! **strongest signal**. A rogue AP that clones the SSID — and, as in
//! Figure 1, even the BSSID and WEP key — is indistinguishable and wins
//! whenever its RSSI is higher or the client is deauth-forced off the
//! legitimate AP.

use std::collections::HashMap;

use bytes::Bytes;
use rogue_crypto::wep::{self, IvPolicy, IvSource, WepKey};
use rogue_phy::Bitrate;
use rogue_sim::{SimDuration, SimRng, SimTime};

use crate::addr::MacAddr;
use crate::frame::{
    decode_llc, encode_llc, Frame, FrameBody, RxFilter, CAP_ESS, CAP_PRIVACY, LLC_SNAP_LEN,
};
use crate::output::{MacEvent, MacOutput};
use crate::txq::TxQueue;

/// Station configuration.
#[derive(Clone, Debug)]
pub struct StaConfig {
    /// Our MAC address.
    pub mac: MacAddr,
    /// Network name to join.
    pub ssid: String,
    /// WEP key, if the profile uses privacy.
    pub wep: Option<WepKey>,
    /// IV generation policy (sequential = period-card default).
    pub iv_policy: IvPolicy,
    /// Channels to scan.
    pub channels: Vec<u8>,
}

impl StaConfig {
    /// A typical corporate-laptop profile for network `ssid`.
    pub fn typical(mac: MacAddr, ssid: &str, wep: Option<WepKey>) -> StaConfig {
        StaConfig {
            mac,
            ssid: ssid.to_string(),
            wep,
            iv_policy: IvPolicy::Sequential(0),
            channels: vec![1, 6, 11],
        }
    }
}

/// Station association state.
#[derive(Clone, Debug, PartialEq)]
pub enum StaState {
    /// Sweeping channels, collecting beacons.
    Scanning,
    /// Sent Auth, awaiting response.
    Authenticating,
    /// Sent AssocReq, awaiting response.
    Associating,
    /// Joined a BSS.
    Associated,
}

#[derive(Clone, Debug)]
struct Candidate {
    bssid: MacAddr,
    channel: u8,
    rssi_dbm: f64,
    failures: u8,
}

/// Dwell time per channel while scanning (must exceed the beacon
/// interval to hear every AP).
const SCAN_DWELL: SimDuration = SimDuration::from_millis(120);
/// Ignore APs weaker than this, dBm.
const MIN_RSSI_DBM: f64 = -88.0;
/// While associated, this many consecutive beacons below [`MIN_RSSI_DBM`]
/// trigger a voluntary roam (rescan) — the behaviour real drivers use so
/// a walking client reattaches before losing the link entirely.
const ROAM_WEAK_BEACONS: u32 = 8;
/// How long to wait for an Auth/Assoc response before abandoning an AP.
const JOIN_TIMEOUT: SimDuration = SimDuration::from_millis(100);
/// Beacon-loss threshold: no beacon from our BSS for this long means the
/// AP is gone.
const BEACON_LOSS: SimDuration = SimDuration::from_millis(1_200);
/// Candidates with this many join failures are ignored.
const MAX_JOIN_FAILURES: u8 = 2;

/// The station MAC entity.
pub struct StaMac {
    cfg: StaConfig,
    state: StaState,
    /// Channel the radio is currently tuned to.
    channel: u8,
    scan_idx: usize,
    state_deadline: SimTime,
    candidates: Vec<Candidate>,
    target: Option<Candidate>,
    bssid: Option<MacAddr>,
    last_beacon: SimTime,
    txq: TxQueue,
    iv: IvSource,
    rng: SimRng,
    /// (last seq, retry) per transmitter for duplicate suppression.
    dedup: HashMap<MacAddr, u16>,
    /// Consecutive weak beacons from our own BSS (roam trigger).
    weak_beacons: u32,
    /// A voluntary roam was triggered; executed at the next poll.
    pending_roam: bool,
    /// Count of beacons heard matching our SSID.
    pub beacons_heard: u64,
    /// Data frames delivered upward.
    pub data_rx: u64,
    /// Data frames queued downward.
    pub data_tx: u64,
    /// Protected frames that failed to decrypt.
    pub wep_failures: u64,
}

impl StaMac {
    /// Create a station and begin scanning. The caller must tune the
    /// radio to the first scan channel (an initial `SetChannel` is also
    /// emitted from the first poll).
    pub fn new(cfg: StaConfig, mut rng: SimRng, now: SimTime) -> StaMac {
        assert!(!cfg.channels.is_empty(), "station needs channels to scan");
        let txq = TxQueue::new(rng.fork(1));
        let iv = IvSource::new(cfg.iv_policy.clone());
        let channel = cfg.channels[0];
        StaMac {
            cfg,
            state: StaState::Scanning,
            channel,
            scan_idx: 0,
            state_deadline: now + SCAN_DWELL,
            candidates: Vec::new(),
            target: None,
            bssid: None,
            last_beacon: now,
            txq,
            iv,
            rng,
            dedup: HashMap::new(),
            weak_beacons: 0,
            pending_roam: false,
            beacons_heard: 0,
            data_rx: 0,
            data_tx: 0,
            wep_failures: 0,
        }
    }

    /// Our MAC address.
    pub fn mac(&self) -> MacAddr {
        self.cfg.mac
    }

    /// Current state.
    pub fn state(&self) -> &StaState {
        &self.state
    }

    /// BSSID of the current association, if any.
    pub fn bssid(&self) -> Option<MacAddr> {
        self.bssid
    }

    /// Channel the radio should be tuned to.
    pub fn channel(&self) -> u8 {
        self.channel
    }

    /// Earliest instant this entity needs a poll.
    pub fn next_wake(&self) -> SimTime {
        if self.pending_roam {
            return SimTime::ZERO; // immediately (clamped to now by callers)
        }
        let mut wake = self.txq.next_wake();
        match self.state {
            StaState::Scanning | StaState::Authenticating | StaState::Associating => {
                wake = wake.min(self.state_deadline);
            }
            StaState::Associated => {
                wake = wake.min(self.last_beacon.saturating_add(BEACON_LOSS));
            }
        }
        wake
    }

    /// Queue a data payload to `dst` (via the AP). Returns false (and
    /// drops) when not associated.
    pub fn send_data(
        &mut self,
        now: SimTime,
        dst: MacAddr,
        ethertype: u16,
        payload: &[u8],
    ) -> bool {
        let Some(bssid) = self.bssid else {
            return false;
        };
        if self.state != StaState::Associated {
            return false;
        }
        let body = encode_llc(ethertype, payload);
        let (body, protected) = match &self.cfg.wep {
            Some(key) => {
                let entropy = self.rng.next_u32();
                let iv = self.iv.next_iv(entropy);
                (wep::seal(key, iv, 0, &body), true)
            }
            None => (body, false),
        };
        let mut f = Frame::new(
            bssid,
            self.cfg.mac,
            dst,
            FrameBody::Data {
                payload: Bytes::from(body),
            },
        );
        f.to_ds = true;
        f.protected = protected;
        self.txq.push(now, f, Bitrate::B11, true);
        self.data_tx += 1;
        true
    }

    /// The station's receive filter, [`RxFilter::Station`] on its
    /// configured address.
    pub fn rx_filter(&self) -> RxFilter {
        RxFilter::Station(self.cfg.mac)
    }

    /// Would [`Self::on_receive`] act on `bytes`? False only for a
    /// unicast frame addressed to another station that is neither a
    /// beacon nor a probe response: a managed-mode NIC drops those before
    /// the host sees them (see [`Self::rx_filter`]).
    pub fn hears(&self, bytes: &[u8]) -> bool {
        self.rx_filter().hears(bytes)
    }

    /// Handle a decoded PHY delivery.
    pub fn on_receive(
        &mut self,
        now: SimTime,
        bytes: &Bytes,
        rssi_dbm: f64,
        channel: u8,
        out: &mut Vec<MacOutput>,
    ) {
        if !self.hears(bytes) {
            return;
        }
        let Ok(frame) = Frame::decode(bytes) else {
            return;
        };
        match &frame.body {
            FrameBody::Ack => {
                if frame.addr1 == self.cfg.mac {
                    self.txq.on_ack(now);
                }
                return;
            }
            FrameBody::Beacon(info) | FrameBody::ProbeResp(info) => {
                self.on_beacon(
                    now,
                    &frame,
                    info.ssid.clone(),
                    info.capability,
                    channel,
                    rssi_dbm,
                );
                return;
            }
            _ => {}
        }

        // Heard, so addressed to us or to a group. Unicast frames
        // addressed to us get an ACK (even duplicates).
        if frame.addr1 == self.cfg.mac {
            self.txq.emit_ack(now, frame.addr2, out);
            // Duplicate suppression on retransmissions.
            if frame.retry {
                if let Some(&last) = self.dedup.get(&frame.addr2) {
                    if last == frame.seq {
                        return;
                    }
                }
            }
            self.dedup.insert(frame.addr2, frame.seq);
        }

        match frame.body.clone() {
            FrameBody::Auth { seq: 2, status, .. } => self.on_auth_resp(now, &frame, status, out),
            FrameBody::AssocResp { status, .. } => self.on_assoc_resp(now, &frame, status, out),
            FrameBody::Deauth { .. } | FrameBody::Disassoc { .. }
                // A deauth claiming to be from our BSS — no way to verify,
                // so the station obeys. (This is the §4 forced-roam lever.)
                if (Some(frame.bssid()) == self.bssid || frame.addr2 == self.cfg.mac) => {
                    self.lose_association(now, true, out);
                }
            FrameBody::Data { payload } => self.on_data(&frame, payload, out),
            _ => {}
        }
    }

    fn on_beacon(
        &mut self,
        now: SimTime,
        frame: &Frame,
        ssid: String,
        capability: u16,
        channel: u8,
        rssi_dbm: f64,
    ) {
        if ssid != self.cfg.ssid {
            return;
        }
        self.beacons_heard += 1;
        // Privacy must match the profile: a WEP profile ignores open APs
        // and vice versa (matching real supplicant behaviour).
        let wants_privacy = self.cfg.wep.is_some();
        if (capability & CAP_PRIVACY != 0) != wants_privacy {
            return;
        }
        if Some(frame.bssid()) == self.bssid && self.state == StaState::Associated {
            self.last_beacon = now;
            // Voluntary roam: a run of weak beacons means we are walking
            // out of this AP's useful range — rescan before the link
            // dies outright.
            if rssi_dbm < MIN_RSSI_DBM {
                self.weak_beacons += 1;
                if self.weak_beacons >= ROAM_WEAK_BEACONS {
                    self.weak_beacons = 0;
                    // Mark pending roam; executed below (needs &mut out).
                    self.pending_roam = true;
                }
            } else {
                self.weak_beacons = 0;
            }
        }
        if rssi_dbm < MIN_RSSI_DBM {
            return;
        }
        let bssid = frame.bssid();
        match self
            .candidates
            .iter_mut()
            .find(|c| c.bssid == bssid && c.channel == channel)
        {
            Some(c) => c.rssi_dbm = rssi_dbm,
            None => self.candidates.push(Candidate {
                bssid,
                channel,
                rssi_dbm,
                failures: 0,
            }),
        }
    }

    fn on_auth_resp(&mut self, now: SimTime, frame: &Frame, status: u16, out: &mut Vec<MacOutput>) {
        if self.state != StaState::Authenticating {
            return;
        }
        let Some(t) = &self.target else { return };
        if frame.addr2 != t.bssid {
            return;
        }
        if status != 0 {
            self.fail_target(now, out);
            return;
        }
        let mut cap = CAP_ESS;
        if self.cfg.wep.is_some() {
            cap |= CAP_PRIVACY;
        }
        let f = Frame::new(
            t.bssid,
            self.cfg.mac,
            t.bssid,
            FrameBody::AssocReq {
                capability: cap,
                ssid: self.cfg.ssid.clone(),
            },
        );
        self.txq.push(now, f, Bitrate::B1, true);
        self.state = StaState::Associating;
        self.state_deadline = now + JOIN_TIMEOUT;
    }

    fn on_assoc_resp(
        &mut self,
        now: SimTime,
        frame: &Frame,
        status: u16,
        out: &mut Vec<MacOutput>,
    ) {
        if self.state != StaState::Associating {
            return;
        }
        let Some(t) = self.target.clone() else { return };
        if frame.addr2 != t.bssid {
            return;
        }
        if status != 0 {
            self.fail_target(now, out);
            return;
        }
        self.state = StaState::Associated;
        self.bssid = Some(t.bssid);
        self.last_beacon = now;
        out.push(MacOutput::Event(MacEvent::Associated {
            bssid: t.bssid,
            channel: t.channel,
            rssi_dbm: t.rssi_dbm,
        }));
    }

    fn on_data(&mut self, frame: &Frame, payload: Bytes, out: &mut Vec<MacOutput>) {
        if !frame.from_ds {
            return;
        }
        if self.state != StaState::Associated || Some(frame.bssid()) != self.bssid {
            return;
        }
        // WEP genuinely decrypts into a fresh buffer; plaintext stays a
        // zero-copy view of the receive allocation.
        let plain: Bytes = if frame.protected {
            let Some(key) = &self.cfg.wep else {
                self.wep_failures += 1;
                return;
            };
            match wep::open(key, &payload) {
                Ok(p) => Bytes::from(p),
                Err(_) => {
                    self.wep_failures += 1;
                    out.push(MacOutput::Event(MacEvent::WepDecryptFailed {
                        from: frame.addr2,
                    }));
                    return;
                }
            }
        } else {
            if self.cfg.wep.is_some() {
                // Cleartext data on a privacy BSS: drop.
                return;
            }
            payload
        };
        let Some((ethertype, _)) = decode_llc(&plain) else {
            return;
        };
        self.data_rx += 1;
        out.push(MacOutput::DeliverData {
            src: frame.sa(),
            dst: frame.da(),
            ethertype,
            payload: plain.slice(LLC_SNAP_LEN..),
        });
    }

    fn fail_target(&mut self, now: SimTime, out: &mut Vec<MacOutput>) {
        if let Some(t) = self.target.take() {
            if let Some(c) = self
                .candidates
                .iter_mut()
                .find(|c| c.bssid == t.bssid && c.channel == t.channel)
            {
                c.failures += 1;
            }
        }
        self.txq.flush();
        self.start_scan(now, out);
    }

    fn lose_association(&mut self, now: SimTime, forced: bool, out: &mut Vec<MacOutput>) {
        self.pending_roam = false;
        self.weak_beacons = 0;
        let bssid = self.bssid.take().unwrap_or(MacAddr::ZERO);
        self.txq.flush();
        out.push(MacOutput::Event(MacEvent::Disassociated { bssid, forced }));
        self.candidates.clear();
        self.start_scan(now, out);
    }

    fn start_scan(&mut self, now: SimTime, out: &mut Vec<MacOutput>) {
        self.state = StaState::Scanning;
        self.scan_idx = 0;
        self.channel = self.cfg.channels[0];
        self.state_deadline = now + SCAN_DWELL;
        out.push(MacOutput::SetChannel(self.channel));
    }

    /// Drive timers: scan progression, join timeouts, beacon loss, and the
    /// transmit queue.
    pub fn poll(&mut self, now: SimTime, out: &mut Vec<MacOutput>) {
        self.txq.poll(now, out);
        if self.pending_roam {
            self.pending_roam = false;
            if self.state == StaState::Associated {
                self.lose_association(now, false, out);
                return;
            }
        }
        match self.state {
            StaState::Scanning => {
                if now >= self.state_deadline {
                    self.scan_idx += 1;
                    if self.scan_idx < self.cfg.channels.len() {
                        self.channel = self.cfg.channels[self.scan_idx];
                        self.state_deadline = now + SCAN_DWELL;
                        out.push(MacOutput::SetChannel(self.channel));
                    } else {
                        self.finish_scan(now, out);
                    }
                }
            }
            StaState::Authenticating | StaState::Associating => {
                if now >= self.state_deadline {
                    self.fail_target(now, out);
                }
            }
            StaState::Associated => {
                if now >= self.last_beacon.saturating_add(BEACON_LOSS) {
                    self.lose_association(now, false, out);
                }
            }
        }
    }

    fn finish_scan(&mut self, now: SimTime, out: &mut Vec<MacOutput>) {
        // Pick the strongest usable candidate — the cloned-SSID rogue AP
        // wins exactly when its signal beats the legitimate AP's.
        let best = self
            .candidates
            .iter()
            .filter(|c| c.failures < MAX_JOIN_FAILURES)
            .cloned()
            .max_by(|a, b| a.rssi_dbm.partial_cmp(&b.rssi_dbm).expect("no NaN rssi"));
        match best {
            Some(c) => {
                self.channel = c.channel;
                out.push(MacOutput::SetChannel(c.channel));
                let f = Frame::new(
                    c.bssid,
                    self.cfg.mac,
                    c.bssid,
                    FrameBody::Auth {
                        algorithm: 0,
                        seq: 1,
                        status: 0,
                    },
                );
                self.txq.push(now, f, Bitrate::B1, true);
                self.target = Some(c);
                self.state = StaState::Authenticating;
                self.state_deadline = now + JOIN_TIMEOUT;
            }
            None => {
                // Nothing heard: sweep again.
                self.candidates.retain(|c| c.failures < MAX_JOIN_FAILURES);
                self.start_scan(now, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rogue_sim::Seed;

    fn cfg() -> StaConfig {
        StaConfig::typical(MacAddr::local(10), "CORP", None)
    }

    fn beacon(bssid: MacAddr, ssid: &str, cap: u16, channel: u8) -> Bytes {
        Frame::new(
            MacAddr::BROADCAST,
            bssid,
            bssid,
            FrameBody::Beacon(crate::frame::MgmtInfo {
                timestamp: 0,
                beacon_interval_tu: 100,
                capability: cap,
                ssid: ssid.into(),
                channel,
            }),
        )
        .encode()
    }

    /// Drive a station through its timers until `pred` or the deadline.
    fn run_until(
        sta: &mut StaMac,
        mut now: SimTime,
        deadline: SimTime,
        mut on_out: impl FnMut(SimTime, &MacOutput) -> bool,
    ) -> SimTime {
        loop {
            let wake = sta.next_wake();
            if wake > deadline || wake == SimTime::FOREVER {
                return now;
            }
            now = wake;
            let mut out = Vec::new();
            sta.poll(now, &mut out);
            for o in &out {
                if on_out(now, o) {
                    return now;
                }
            }
        }
    }

    #[test]
    fn scans_all_channels_then_rescans() {
        let mut sta = StaMac::new(cfg(), SimRng::new(Seed(1)), SimTime::ZERO);
        let mut channels = Vec::new();
        run_until(&mut sta, SimTime::ZERO, SimTime::from_secs(1), |_, o| {
            if let MacOutput::SetChannel(c) = o {
                channels.push(*c);
            }
            channels.len() >= 4
        });
        // After sweeping 1, 6, 11 with no beacons it starts over at 1.
        assert_eq!(&channels[..4], &[6, 11, 1, 6]);
    }

    #[test]
    fn associates_with_beaconing_ap() {
        let ap = MacAddr::local(99);
        let mut sta = StaMac::new(cfg(), SimRng::new(Seed(2)), SimTime::ZERO);
        let b = beacon(ap, "CORP", CAP_ESS, 1);
        let mut out = Vec::new();
        sta.on_receive(SimTime::from_millis(10), &b, -50.0, 1, &mut out);
        assert_eq!(sta.beacons_heard, 1);

        // Walk the state machine manually: scan finishes, Auth goes out.
        let mut auth_seen = false;
        let mut now = SimTime::from_millis(10);
        for _ in 0..64 {
            let wake = sta.next_wake();
            if wake == SimTime::FOREVER {
                break;
            }
            now = wake;
            let mut out = Vec::new();
            sta.poll(now, &mut out);
            for o in out {
                if let MacOutput::Tx { bytes, .. } = o {
                    let f = Frame::decode(&bytes).unwrap();
                    if matches!(f.body, FrameBody::Auth { seq: 1, .. }) {
                        auth_seen = true;
                        assert_eq!(f.addr1, ap);
                    }
                }
            }
            if auth_seen {
                break;
            }
        }
        assert!(auth_seen, "station must try to authenticate");
        assert_eq!(*sta.state(), StaState::Authenticating);

        // AP responds: auth success, then assoc success.
        let mut out = Vec::new();
        let auth_ok = Frame::new(
            sta.mac(),
            ap,
            ap,
            FrameBody::Auth {
                algorithm: 0,
                seq: 2,
                status: 0,
            },
        )
        .encode();
        sta.on_receive(now, &auth_ok, -50.0, 1, &mut out);
        assert_eq!(*sta.state(), StaState::Associating);

        let assoc_ok = Frame::new(
            sta.mac(),
            ap,
            ap,
            FrameBody::AssocResp {
                capability: CAP_ESS,
                status: 0,
                aid: 1,
            },
        )
        .encode();
        let mut out = Vec::new();
        sta.on_receive(now, &assoc_ok, -50.0, 1, &mut out);
        assert_eq!(*sta.state(), StaState::Associated);
        assert_eq!(sta.bssid(), Some(ap));
        assert!(out
            .iter()
            .any(|o| matches!(o, MacOutput::Event(MacEvent::Associated { .. }))));
    }

    #[test]
    fn prefers_stronger_ap_with_same_ssid() {
        // Two APs, same SSID — the rogue is stronger. The station picks it.
        let legit = MacAddr::local(1);
        let rogue = MacAddr::local(666);
        let mut sta = StaMac::new(cfg(), SimRng::new(Seed(3)), SimTime::ZERO);
        let mut out = Vec::new();
        sta.on_receive(
            SimTime::from_millis(5),
            &beacon(legit, "CORP", CAP_ESS, 1),
            -70.0,
            1,
            &mut out,
        );
        sta.on_receive(
            SimTime::from_millis(6),
            &beacon(rogue, "CORP", CAP_ESS, 6),
            -45.0,
            6,
            &mut out,
        );

        let mut target = None;
        for _ in 0..64 {
            let wake = sta.next_wake();
            if wake == SimTime::FOREVER {
                break;
            }
            let mut out = Vec::new();
            sta.poll(wake, &mut out);
            for o in out {
                if let MacOutput::Tx { bytes, .. } = o {
                    let f = Frame::decode(&bytes).unwrap();
                    if matches!(f.body, FrameBody::Auth { .. }) {
                        target = Some(f.addr1);
                    }
                }
            }
            if target.is_some() {
                break;
            }
        }
        assert_eq!(target, Some(rogue), "strongest AP wins the join");
    }

    #[test]
    fn privacy_mismatch_filters_candidates() {
        // A WEP-profile station ignores an open AP with the right SSID.
        let key = WepKey::new(b"AB#12");
        let cfg = StaConfig::typical(MacAddr::local(10), "CORP", Some(key));
        let mut sta = StaMac::new(cfg, SimRng::new(Seed(4)), SimTime::ZERO);
        let open_ap = MacAddr::local(1);
        let mut out = Vec::new();
        sta.on_receive(
            SimTime::from_millis(5),
            &beacon(open_ap, "CORP", CAP_ESS, 1),
            -40.0,
            1,
            &mut out,
        );
        // Complete a full scan; station should go back to scanning, not auth.
        let t = run_until(&mut sta, SimTime::ZERO, SimTime::from_secs(1), |_, o| {
            matches!(o, MacOutput::Tx { .. })
        });
        assert_eq!(*sta.state(), StaState::Scanning, "no join attempted by {t}");
    }

    #[test]
    fn wrong_ssid_ignored() {
        let mut sta = StaMac::new(cfg(), SimRng::new(Seed(5)), SimTime::ZERO);
        let mut out = Vec::new();
        sta.on_receive(
            SimTime::from_millis(5),
            &beacon(MacAddr::local(1), "COFFEE", CAP_ESS, 1),
            -40.0,
            1,
            &mut out,
        );
        assert_eq!(sta.beacons_heard, 0);
    }

    #[test]
    fn deauth_forces_rescan() {
        let ap = MacAddr::local(99);
        let mut sta = associated_station(ap);
        let mut out = Vec::new();
        // Forged deauth: addr2/addr3 = BSSID (what the attacker spoofs).
        let deauth = Frame::new(sta.mac(), ap, ap, FrameBody::Deauth { reason: 7 }).encode();
        sta.on_receive(SimTime::from_secs(1), &deauth, -60.0, 1, &mut out);
        assert!(out.iter().any(|o| matches!(
            o,
            MacOutput::Event(MacEvent::Disassociated { forced: true, .. })
        )));
        assert_eq!(*sta.state(), StaState::Scanning);
        assert_eq!(sta.bssid(), None);
    }

    #[test]
    fn beacon_loss_triggers_rescan() {
        let ap = MacAddr::local(99);
        let mut sta = associated_station(ap);
        let mut out = Vec::new();
        // No beacons for > BEACON_LOSS.
        let late = SimTime::from_secs(5);
        sta.poll(late, &mut out);
        assert!(out.iter().any(|o| matches!(
            o,
            MacOutput::Event(MacEvent::Disassociated { forced: false, .. })
        )));
        assert_eq!(*sta.state(), StaState::Scanning);
    }

    #[test]
    fn sends_and_receives_data_when_associated() {
        let ap = MacAddr::local(99);
        let mut sta = associated_station(ap);
        assert!(sta.send_data(SimTime::from_secs(1), MacAddr::local(50), 0x0800, b"ping"));
        assert_eq!(sta.data_tx, 1);

        // Downlink data from the AP.
        let mut f = Frame::new(
            sta.mac(),
            ap,
            MacAddr::local(50),
            FrameBody::Data {
                payload: Bytes::from(encode_llc(0x0800, b"pong")),
            },
        );
        f.from_ds = true;
        f.seq = 7;
        let mut out = Vec::new();
        sta.on_receive(SimTime::from_secs(1), &f.encode(), -50.0, 1, &mut out);
        let delivered = out.iter().find_map(|o| match o {
            MacOutput::DeliverData {
                src,
                ethertype,
                payload,
                ..
            } => Some((*src, *ethertype, payload.clone())),
            _ => None,
        });
        let (src, et, payload) = delivered.expect("data delivered");
        assert_eq!(src, MacAddr::local(50));
        assert_eq!(et, 0x0800);
        assert_eq!(&payload[..], b"pong");
        // And an ACK went back.
        assert!(out.iter().any(|o| matches!(o, MacOutput::Tx { .. })));
    }

    #[test]
    fn cannot_send_when_not_associated() {
        let mut sta = StaMac::new(cfg(), SimRng::new(Seed(7)), SimTime::ZERO);
        assert!(!sta.send_data(SimTime::ZERO, MacAddr::local(50), 0x0800, b"x"));
    }

    #[test]
    fn wep_data_roundtrip_and_tamper_detection() {
        let key = WepKey::new(b"AB#12");
        let ap = MacAddr::local(99);
        let c = StaConfig::typical(MacAddr::local(10), "CORP", Some(key.clone()));
        let mut sta = associated_station_with(c, ap);

        // Valid protected downlink frame.
        let body = wep::seal(&key, [1, 2, 3], 0, &encode_llc(0x0800, b"secret"));
        let mut f = Frame::new(
            sta.mac(),
            ap,
            MacAddr::local(50),
            FrameBody::Data {
                payload: Bytes::from(body),
            },
        );
        f.from_ds = true;
        f.protected = true;
        f.seq = 1;
        let mut out = Vec::new();
        sta.on_receive(SimTime::from_secs(1), &f.encode(), -50.0, 1, &mut out);
        assert_eq!(sta.data_rx, 1);

        // Tampered protected frame (bad ICV after bit flips w/o patch).
        let mut body = wep::seal(&key, [1, 2, 4], 0, &encode_llc(0x0800, b"secret"));
        let blen = body.len();
        body[blen - 1] ^= 0xFF;
        let mut f = Frame::new(
            sta.mac(),
            ap,
            MacAddr::local(50),
            FrameBody::Data {
                payload: Bytes::from(body),
            },
        );
        f.from_ds = true;
        f.protected = true;
        f.seq = 2;
        let mut out = Vec::new();
        sta.on_receive(SimTime::from_secs(1), &f.encode(), -50.0, 1, &mut out);
        assert_eq!(sta.wep_failures, 1);
        assert!(out
            .iter()
            .any(|o| matches!(o, MacOutput::Event(MacEvent::WepDecryptFailed { .. }))));
    }

    #[test]
    fn duplicate_retransmission_suppressed() {
        let ap = MacAddr::local(99);
        let mut sta = associated_station(ap);
        let mut f = Frame::new(
            sta.mac(),
            ap,
            MacAddr::local(50),
            FrameBody::Data {
                payload: Bytes::from(encode_llc(0x0800, b"once")),
            },
        );
        f.from_ds = true;
        f.seq = 42;
        let bytes = f.encode();
        let mut out = Vec::new();
        sta.on_receive(SimTime::from_secs(1), &bytes, -50.0, 1, &mut out);
        // Same frame again, retry flag set.
        f.retry = true;
        let bytes_retry = f.encode();
        sta.on_receive(SimTime::from_secs(1), &bytes_retry, -50.0, 1, &mut out);
        assert_eq!(sta.data_rx, 1, "duplicate dropped");
    }

    // --- helpers -------------------------------------------------------

    fn associated_station(ap: MacAddr) -> StaMac {
        associated_station_with(cfg(), ap)
    }

    fn associated_station_with(c: StaConfig, ap: MacAddr) -> StaMac {
        let wants_privacy = c.wep.is_some();
        let cap = if wants_privacy {
            CAP_ESS | CAP_PRIVACY
        } else {
            CAP_ESS
        };
        let mut sta = StaMac::new(c, SimRng::new(Seed(42)), SimTime::ZERO);
        let mut out = Vec::new();
        sta.on_receive(
            SimTime::from_millis(5),
            &beacon(ap, "CORP", cap, 1),
            -50.0,
            1,
            &mut out,
        );
        // March through scan -> auth -> assoc.
        let mut now;
        for _ in 0..128 {
            if *sta.state() == StaState::Associated {
                break;
            }
            let wake = sta.next_wake();
            assert_ne!(wake, SimTime::FOREVER, "stuck");
            now = wake;
            let mut out = Vec::new();
            sta.poll(now, &mut out);
            let mut inject = Vec::new();
            for o in &out {
                if let MacOutput::Tx { bytes, .. } = o {
                    let f = Frame::decode(bytes).unwrap();
                    match f.body {
                        FrameBody::Auth { seq: 1, .. } => {
                            inject.push(
                                Frame::new(
                                    sta.mac(),
                                    ap,
                                    ap,
                                    FrameBody::Auth {
                                        algorithm: 0,
                                        seq: 2,
                                        status: 0,
                                    },
                                )
                                .encode(),
                            );
                        }
                        FrameBody::AssocReq { .. } => {
                            inject.push(
                                Frame::new(
                                    sta.mac(),
                                    ap,
                                    ap,
                                    FrameBody::AssocResp {
                                        capability: cap,
                                        status: 0,
                                        aid: 1,
                                    },
                                )
                                .encode(),
                            );
                        }
                        _ => {}
                    }
                }
            }
            for bytes in inject {
                let mut out = Vec::new();
                sta.on_receive(now, &bytes, -50.0, 1, &mut out);
            }
        }
        assert_eq!(
            *sta.state(),
            StaState::Associated,
            "helper failed to associate"
        );
        sta
    }
}
