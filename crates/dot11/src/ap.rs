//! Access-point state machine.
//!
//! A *rogue* AP is not special code: it is this same state machine
//! configured with a cloned SSID — and, as in the paper's Figure 1, a
//! cloned BSSID and WEP key. "It will emulate a valid AP as best it can"
//! (§4); here the emulation is perfect because it *is* the same machine.

use std::collections::{HashMap, HashSet};

use bytes::Bytes;
use rogue_crypto::wep::{self, IvPolicy, IvSource, WepKey};
use rogue_phy::Bitrate;
use rogue_sim::{SimDuration, SimRng, SimTime};

use crate::addr::MacAddr;
use crate::frame::{
    decode_llc, encode_llc, Frame, FrameBody, MgmtInfo, RxFilter, CAP_ESS, CAP_PRIVACY,
    LLC_SNAP_LEN,
};
use crate::output::{MacEvent, MacOutput};
use crate::txq::TxQueue;

/// Access-point configuration.
#[derive(Clone, Debug)]
pub struct ApConfig {
    /// BSSID to advertise. A legitimate AP uses its own address; the
    /// paper's rogue clones the victim network's (`AP MAC: AA:BB:CC:DD`
    /// on *both* APs in Figure 1).
    pub bssid: MacAddr,
    /// Network name.
    pub ssid: String,
    /// Operating channel (Figure 1: valid AP on 1, rogue on 6).
    pub channel: u8,
    /// Beacon period.
    pub beacon_interval: SimDuration,
    /// WEP key, if privacy is enabled.
    pub wep: Option<WepKey>,
    /// MAC-address allow list; `None` disables filtering. ("MAC Address
    /// filtering … accomplishes nothing more than perhaps keeping honest
    /// people honest", §2.1 — the reproduction measures exactly that.)
    pub acl: Option<HashSet<MacAddr>>,
}

impl ApConfig {
    /// A typical AP for network `ssid` on `channel`.
    pub fn typical(bssid: MacAddr, ssid: &str, channel: u8, wep: Option<WepKey>) -> ApConfig {
        ApConfig {
            bssid,
            ssid: ssid.to_string(),
            channel,
            beacon_interval: SimDuration::from_millis(100),
            wep,
            acl: None,
        }
    }
}

/// The AP MAC entity.
pub struct ApMac {
    cfg: ApConfig,
    txq: TxQueue,
    iv: IvSource,
    rng: SimRng,
    clients: HashMap<MacAddr, u16>,
    authed: HashSet<MacAddr>,
    next_beacon: SimTime,
    active_from: SimTime,
    next_aid: u16,
    dedup: HashMap<MacAddr, u16>,
    /// Data frames delivered upward (toward the bridge / router).
    pub data_rx: u64,
    /// Data frames queued downward to stations.
    pub data_tx: u64,
    /// Stations rejected by the ACL.
    pub acl_rejections: u64,
    /// Protected frames that failed to decrypt.
    pub wep_failures: u64,
}

impl ApMac {
    /// Create an AP that stays silent (no beacons, no responses) until
    /// `start_at`, and beacons from then on: pass the current time to
    /// start at once, or a later one for a rogue brought up mid-run.
    pub fn new(cfg: ApConfig, mut rng: SimRng, start_at: SimTime) -> ApMac {
        let txq = TxQueue::new(rng.fork(2));
        ApMac {
            iv: IvSource::new(IvPolicy::Sequential(0)),
            cfg,
            txq,
            rng,
            clients: HashMap::new(),
            authed: HashSet::new(),
            next_beacon: start_at,
            active_from: start_at,
            next_aid: 1,
            dedup: HashMap::new(),
            data_rx: 0,
            data_tx: 0,
            acl_rejections: 0,
            wep_failures: 0,
        }
    }

    /// Advertised BSSID.
    pub fn bssid(&self) -> MacAddr {
        self.cfg.bssid
    }

    /// Operating channel.
    pub fn channel(&self) -> u8 {
        self.cfg.channel
    }

    /// Currently associated client MACs.
    pub fn clients(&self) -> impl Iterator<Item = MacAddr> + '_ {
        self.clients.keys().copied()
    }

    /// Is `mac` associated?
    pub fn is_associated(&self, mac: MacAddr) -> bool {
        self.clients.contains_key(&mac)
    }

    fn capability(&self) -> u16 {
        let mut cap = CAP_ESS;
        if self.cfg.wep.is_some() {
            cap |= CAP_PRIVACY;
        }
        cap
    }

    fn mgmt_info(&self, now: SimTime) -> MgmtInfo {
        MgmtInfo {
            timestamp: now.as_micros(),
            beacon_interval_tu: (self.cfg.beacon_interval.as_micros() / 1024).max(1) as u16,
            capability: self.capability(),
            ssid: self.cfg.ssid.clone(),
            channel: self.cfg.channel,
        }
    }

    /// Earliest instant this entity needs a poll.
    pub fn next_wake(&self) -> SimTime {
        self.txq.next_wake().min(self.next_beacon)
    }

    /// Queue a data payload toward a station (or broadcast). Returns false
    /// when `dst` is unicast but not associated — the caller (bridge)
    /// forwards it to the wired side instead.
    pub fn send_data(
        &mut self,
        now: SimTime,
        src: MacAddr,
        dst: MacAddr,
        ethertype: u16,
        payload: &[u8],
    ) -> bool {
        let multicast = dst.is_multicast();
        if !multicast && !self.clients.contains_key(&dst) {
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
            dst,
            self.cfg.bssid,
            src,
            FrameBody::Data {
                payload: Bytes::from(body),
            },
        );
        f.from_ds = true;
        f.protected = protected;
        self.txq.push(now, f, Bitrate::B11, !multicast);
        self.data_tx += 1;
        true
    }

    /// The AP's receive filter, [`RxFilter::Ap`] on its configured
    /// BSSID.
    pub fn rx_filter(&self) -> RxFilter {
        RxFilter::Ap(self.cfg.bssid)
    }

    /// Would [`Self::on_receive`] act on `bytes`? False for anything not
    /// addressed to our BSSID, except probe requests, which are
    /// broadcast (see [`Self::rx_filter`]).
    pub fn hears(&self, bytes: &[u8]) -> bool {
        self.rx_filter().hears(bytes)
    }

    /// Handle a decoded PHY delivery.
    pub fn on_receive(
        &mut self,
        now: SimTime,
        bytes: &Bytes,
        _rssi_dbm: f64,
        _channel: u8,
        out: &mut Vec<MacOutput>,
    ) {
        if !self.hears(bytes) {
            return;
        }
        let Ok(frame) = Frame::decode(bytes) else {
            return;
        };
        if now < self.active_from {
            return; // not powered up yet
        }
        // Heard, so a probe request or addressed to our BSSID.
        if let FrameBody::Ack = frame.body {
            self.txq.on_ack(now);
            return;
        }
        if let FrameBody::ProbeReq { ssid } = &frame.body {
            let matches = ssid.as_deref().is_none_or(|s| s == self.cfg.ssid);
            if matches {
                let f = Frame::new(
                    frame.addr2,
                    self.cfg.bssid,
                    self.cfg.bssid,
                    FrameBody::ProbeResp(self.mgmt_info(now)),
                );
                self.txq.push(now, f, Bitrate::B1, true);
            }
            return;
        }

        // ACK unicast frames addressed to us, with duplicate suppression.
        self.txq.emit_ack(now, frame.addr2, out);
        if frame.retry {
            if let Some(&last) = self.dedup.get(&frame.addr2) {
                if last == frame.seq {
                    return;
                }
            }
        }
        self.dedup.insert(frame.addr2, frame.seq);

        match frame.body.clone() {
            FrameBody::Auth { seq: 1, .. } => self.on_auth(now, frame.addr2, out),
            FrameBody::AssocReq { capability, ssid } => {
                self.on_assoc(now, frame.addr2, capability, &ssid, out)
            }
            FrameBody::Deauth { .. } | FrameBody::Disassoc { .. } => {
                self.clients.remove(&frame.addr2);
                self.authed.remove(&frame.addr2);
            }
            FrameBody::Data { payload } => self.on_data(&frame, payload, out),
            _ => {}
        }
    }

    fn acl_allows(&self, mac: MacAddr) -> bool {
        self.cfg.acl.as_ref().is_none_or(|acl| acl.contains(&mac))
    }

    fn on_auth(&mut self, now: SimTime, sta: MacAddr, out: &mut Vec<MacOutput>) {
        let status = if self.acl_allows(sta) {
            self.authed.insert(sta);
            0
        } else {
            self.acl_rejections += 1;
            out.push(MacOutput::Event(MacEvent::ClientRejected {
                client: sta,
                status: 1,
            }));
            1
        };
        let f = Frame::new(
            sta,
            self.cfg.bssid,
            self.cfg.bssid,
            FrameBody::Auth {
                algorithm: 0,
                seq: 2,
                status,
            },
        );
        self.txq.push(now, f, Bitrate::B1, true);
    }

    fn on_assoc(
        &mut self,
        now: SimTime,
        sta: MacAddr,
        capability: u16,
        ssid: &str,
        out: &mut Vec<MacOutput>,
    ) {
        let privacy_ok = (capability & CAP_PRIVACY != 0) == self.cfg.wep.is_some();
        let status = if !self.authed.contains(&sta) {
            1 // must authenticate first
        } else if ssid != self.cfg.ssid || !privacy_ok {
            10 // capability mismatch
        } else {
            0
        };
        let aid = if status == 0 {
            let aid = *self.clients.entry(sta).or_insert_with(|| {
                let a = self.next_aid;
                self.next_aid += 1;
                a
            });
            out.push(MacOutput::Event(MacEvent::ClientAssociated { client: sta }));
            aid
        } else {
            out.push(MacOutput::Event(MacEvent::ClientRejected {
                client: sta,
                status,
            }));
            0
        };
        let f = Frame::new(
            sta,
            self.cfg.bssid,
            self.cfg.bssid,
            FrameBody::AssocResp {
                capability: self.capability(),
                status,
                aid,
            },
        );
        self.txq.push(now, f, Bitrate::B1, true);
    }

    fn on_data(&mut self, frame: &Frame, payload: Bytes, out: &mut Vec<MacOutput>) {
        if !frame.to_ds || !self.clients.contains_key(&frame.addr2) {
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

    /// Drive timers: beacons and the transmit queue.
    pub fn poll(&mut self, now: SimTime, out: &mut Vec<MacOutput>) {
        self.txq.poll(now, out);
        while now >= self.next_beacon {
            let f = Frame::new(
                MacAddr::BROADCAST,
                self.cfg.bssid,
                self.cfg.bssid,
                FrameBody::Beacon(self.mgmt_info(now)),
            );
            self.txq.push(now, f, Bitrate::B1, false);
            self.next_beacon += self.cfg.beacon_interval;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rogue_sim::Seed;

    fn ap() -> ApMac {
        ApMac::new(
            ApConfig::typical(MacAddr::local(1), "CORP", 1, None),
            SimRng::new(Seed(1)),
            SimTime::ZERO,
        )
    }

    fn drive(ap: &mut ApMac, until: SimTime) -> Vec<MacOutput> {
        let mut all = Vec::new();
        loop {
            let wake = ap.next_wake();
            if wake > until || wake == SimTime::FOREVER {
                break;
            }
            let mut out = Vec::new();
            ap.poll(wake, &mut out);
            all.extend(out);
        }
        all
    }

    fn tx_frames(out: &[MacOutput]) -> Vec<Frame> {
        out.iter()
            .filter_map(|o| match o {
                MacOutput::Tx { bytes, .. } => Frame::decode(bytes).ok(),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn beacons_periodically() {
        let mut a = ap();
        let out = drive(&mut a, SimTime::from_millis(550));
        let beacons = tx_frames(&out)
            .into_iter()
            .filter(|f| matches!(f.body, FrameBody::Beacon(_)))
            .count();
        assert!((5..=7).contains(&beacons), "got {beacons} beacons in 550ms");
    }

    #[test]
    fn beacon_carries_ssid_channel_privacy() {
        let key = WepKey::new(b"AB#12");
        let mut a = ApMac::new(
            ApConfig::typical(MacAddr::local(1), "CORP", 6, Some(key)),
            SimRng::new(Seed(2)),
            SimTime::ZERO,
        );
        let out = drive(&mut a, SimTime::from_millis(150));
        let f = tx_frames(&out)
            .into_iter()
            .find(|f| matches!(f.body, FrameBody::Beacon(_)))
            .expect("a beacon");
        let FrameBody::Beacon(info) = f.body else {
            unreachable!()
        };
        assert_eq!(info.ssid, "CORP");
        assert_eq!(info.channel, 6);
        assert_ne!(info.capability & CAP_PRIVACY, 0);
    }

    #[test]
    fn full_join_handshake() {
        let mut a = ap();
        let sta = MacAddr::local(10);
        let mut out = Vec::new();

        let auth = Frame::new(
            a.bssid(),
            sta,
            a.bssid(),
            FrameBody::Auth {
                algorithm: 0,
                seq: 1,
                status: 0,
            },
        );
        a.on_receive(SimTime::from_millis(1), &auth.encode(), -50.0, 1, &mut out);
        let resp = drive(&mut a, SimTime::from_millis(50));
        let auth_resp = tx_frames(&resp)
            .into_iter()
            .find(|f| matches!(f.body, FrameBody::Auth { seq: 2, .. }))
            .expect("auth response");
        assert!(matches!(auth_resp.body, FrameBody::Auth { status: 0, .. }));

        let mut out = Vec::new();
        let assoc = Frame::new(
            a.bssid(),
            sta,
            a.bssid(),
            FrameBody::AssocReq {
                capability: CAP_ESS,
                ssid: "CORP".into(),
            },
        );
        a.on_receive(
            SimTime::from_millis(60),
            &assoc.encode(),
            -50.0,
            1,
            &mut out,
        );
        assert!(a.is_associated(sta));
        assert!(out
            .iter()
            .any(|o| matches!(o, MacOutput::Event(MacEvent::ClientAssociated { .. }))));
    }

    #[test]
    fn acl_refuses_unknown_macs_but_cloned_mac_passes() {
        let allowed = MacAddr::local(10);
        let mut cfg = ApConfig::typical(MacAddr::local(1), "CORP", 1, None);
        cfg.acl = Some([allowed].into_iter().collect());
        let mut a = ApMac::new(cfg, SimRng::new(Seed(3)), SimTime::ZERO);

        // Unknown MAC: refused.
        let outsider = MacAddr::local(66);
        let mut out = Vec::new();
        let auth = Frame::new(
            a.bssid(),
            outsider,
            a.bssid(),
            FrameBody::Auth {
                algorithm: 0,
                seq: 1,
                status: 0,
            },
        );
        a.on_receive(SimTime::from_millis(1), &auth.encode(), -50.0, 1, &mut out);
        assert_eq!(a.acl_rejections, 1);

        // The same attacker after sniffing and cloning the allowed MAC:
        // indistinguishable, passes. (§2.1's point.)
        let mut out = Vec::new();
        let auth = Frame::new(
            a.bssid(),
            allowed,
            a.bssid(),
            FrameBody::Auth {
                algorithm: 0,
                seq: 1,
                status: 0,
            },
        );
        a.on_receive(SimTime::from_millis(2), &auth.encode(), -50.0, 1, &mut out);
        assert!(a.authed.contains(&allowed));
    }

    #[test]
    fn assoc_requires_auth_first() {
        let mut a = ap();
        let sta = MacAddr::local(10);
        let mut out = Vec::new();
        let assoc = Frame::new(
            a.bssid(),
            sta,
            a.bssid(),
            FrameBody::AssocReq {
                capability: CAP_ESS,
                ssid: "CORP".into(),
            },
        );
        a.on_receive(SimTime::from_millis(1), &assoc.encode(), -50.0, 1, &mut out);
        assert!(!a.is_associated(sta));
        assert!(out
            .iter()
            .any(|o| matches!(o, MacOutput::Event(MacEvent::ClientRejected { .. }))));
    }

    #[test]
    fn probe_request_answered() {
        let mut a = ap();
        let mut out = Vec::new();
        let probe = Frame::new(
            MacAddr::BROADCAST,
            MacAddr::local(10),
            MacAddr::BROADCAST,
            FrameBody::ProbeReq { ssid: None },
        );
        a.on_receive(SimTime::from_millis(1), &probe.encode(), -50.0, 1, &mut out);
        let resp = drive(&mut a, SimTime::from_millis(50));
        assert!(tx_frames(&resp)
            .iter()
            .any(|f| matches!(f.body, FrameBody::ProbeResp(_))));
    }

    #[test]
    fn probe_for_other_ssid_ignored() {
        let mut a = ap();
        let mut out = Vec::new();
        let probe = Frame::new(
            MacAddr::BROADCAST,
            MacAddr::local(10),
            MacAddr::BROADCAST,
            FrameBody::ProbeReq {
                ssid: Some("OTHER".into()),
            },
        );
        a.on_receive(SimTime::from_millis(1), &probe.encode(), -50.0, 1, &mut out);
        let resp = drive(&mut a, SimTime::from_millis(50));
        assert!(!tx_frames(&resp)
            .iter()
            .any(|f| matches!(f.body, FrameBody::ProbeResp(_))));
    }

    #[test]
    fn uplink_data_from_associated_client_delivered() {
        let mut a = ap();
        let sta = join(&mut a, MacAddr::local(10));
        let mut f = Frame::new(
            a.bssid(),
            sta,
            MacAddr::local(77),
            FrameBody::Data {
                payload: Bytes::from(encode_llc(0x0800, b"uplink")),
            },
        );
        f.to_ds = true;
        f.seq = 3;
        let mut out = Vec::new();
        a.on_receive(SimTime::from_millis(100), &f.encode(), -50.0, 1, &mut out);
        let d = out.iter().find_map(|o| match o {
            MacOutput::DeliverData {
                src, dst, payload, ..
            } => Some((*src, *dst, payload.clone())),
            _ => None,
        });
        let (src, dst, payload) = d.expect("delivered");
        assert_eq!(src, sta);
        assert_eq!(dst, MacAddr::local(77));
        assert_eq!(&payload[..], b"uplink");
    }

    #[test]
    fn uplink_from_stranger_dropped() {
        let mut a = ap();
        let mut f = Frame::new(
            a.bssid(),
            MacAddr::local(66),
            MacAddr::local(77),
            FrameBody::Data {
                payload: Bytes::from(encode_llc(0x0800, b"evil")),
            },
        );
        f.to_ds = true;
        let mut out = Vec::new();
        a.on_receive(SimTime::from_millis(1), &f.encode(), -50.0, 1, &mut out);
        assert!(!out
            .iter()
            .any(|o| matches!(o, MacOutput::DeliverData { .. })));
    }

    #[test]
    fn downlink_unknown_dst_returns_false() {
        let mut a = ap();
        assert!(!a.send_data(
            SimTime::from_millis(1),
            MacAddr::local(50),
            MacAddr::local(10),
            0x0800,
            b"x"
        ));
        // Broadcast always accepted.
        assert!(a.send_data(
            SimTime::from_millis(1),
            MacAddr::local(50),
            MacAddr::BROADCAST,
            0x0806,
            b"arp"
        ));
    }

    fn join(a: &mut ApMac, sta: MacAddr) -> MacAddr {
        let mut out = Vec::new();
        let auth = Frame::new(
            a.bssid(),
            sta,
            a.bssid(),
            FrameBody::Auth {
                algorithm: 0,
                seq: 1,
                status: 0,
            },
        );
        a.on_receive(SimTime::from_millis(1), &auth.encode(), -50.0, 1, &mut out);
        let mut assoc = Frame::new(
            a.bssid(),
            sta,
            a.bssid(),
            FrameBody::AssocReq {
                capability: CAP_ESS,
                ssid: "CORP".into(),
            },
        );
        assoc.seq = 1;
        a.on_receive(SimTime::from_millis(2), &assoc.encode(), -50.0, 1, &mut out);
        assert!(a.is_associated(sta));
        sta
    }
}
