//! The defender's WIDS deployment (§2.3: watch the air and the wire).
//!
//! A [`WidsDeployment`] is monitor radios and an optional span-port tap
//! on one defender node, the [`WidsPipeline`] they feed, and one sensor
//! per capture source. [`WidsDeployment::feed`] is the one place that
//! reads captures into the pipeline: E9, E10, E10-evasion and the
//! scenario tick loop all deploy and feed the WIDS through this type.

use rogue_phy::Pos;
use rogue_sim::SimTime;
use rogue_wids::{RadioSensor, WidsConfig, WidsPipeline, WiredSensor};

use crate::world::{NodeId, SwitchId, World};

/// A live WIDS deployment: sensors on one node feeding one pipeline.
pub struct WidsDeployment {
    /// The defender node.
    pub node: NodeId,
    /// Monitor radio indices, one per channel.
    pub monitors: Vec<usize>,
    /// The pipeline.
    pub pipe: WidsPipeline,
    /// One radio sensor per monitor.
    pub radio_sensors: Vec<RadioSensor>,
    /// The span-port sensor (idle when the node has no tap).
    pub wired_sensor: WiredSensor,
    /// Frames already ingested from the tap.
    pub wired_cursor: usize,
}

impl WidsDeployment {
    /// Deploy on `node`: a monitor radio at `pos` per entry of
    /// `channels`, then a span-port tap on `tap` if given, then a
    /// pipeline built from `cfg`. The radio sensors take the first
    /// sensor ids, in channel order, and the wired sensor the next.
    pub fn new(
        world: &mut World,
        node: NodeId,
        pos: Pos,
        channels: &[u8],
        tap: Option<SwitchId>,
        cfg: WidsConfig,
    ) -> WidsDeployment {
        let monitors: Vec<usize> = channels
            .iter()
            .map(|&ch| world.add_monitor(node, pos, ch))
            .collect();
        if let Some(switch) = tap {
            world.add_wire_tap(node, switch);
        }
        let mut pipe = WidsPipeline::new(cfg);
        let radio_sensors = monitors
            .iter()
            .map(|_| RadioSensor::new(pipe.new_sensor_id()))
            .collect();
        let wired_sensor = WiredSensor::new(pipe.new_sensor_id());
        WidsDeployment {
            node,
            monitors,
            pipe,
            radio_sensors,
            wired_sensor,
            wired_cursor: 0,
        }
    }

    /// Push what the sensors captured since the last feed into the
    /// pipeline — every monitor in order, then the tap frames past
    /// [`wired_cursor`](WidsDeployment::wired_cursor) — and step the
    /// pipeline at `now`.
    pub fn feed(&mut self, world: &World, now: SimTime) {
        for (sensor, &mon) in self.radio_sensors.iter_mut().zip(&self.monitors) {
            sensor.drain(world.sniffer(self.node, mon), &mut self.pipe.ring);
        }
        if let Some(tap) = world.wire_tap(self.node) {
            for (at, bytes) in &tap.frames[self.wired_cursor..] {
                self.wired_sensor.ingest(*at, bytes, &mut self.pipe.ring);
            }
            self.wired_cursor = tap.frames.len();
        }
        self.pipe.step(now);
    }
}

#[cfg(test)]
mod tests {
    use rogue_services::apps::DownloadClient;
    use rogue_sim::{Seed, SimDuration};

    use super::*;
    use crate::scenario::{addrs, build_corp, corp_bssid, CorpScenario, CorpScenarioCfg};

    /// The paper attack with the victim browsing from 1 s, watched by
    /// monitors on the rogue's channel and the corp AP's, with a span
    /// port on the corp switch if `tap`.
    fn deployed(tap: bool) -> (CorpScenario, WidsDeployment) {
        let mut sc = build_corp(&CorpScenarioCfg::paper_attack(), Seed(26));
        sc.world.add_app(
            sc.victim,
            Box::new(DownloadClient::new(
                addrs::TARGET,
                "/download.html",
                SimTime::from_secs(1),
                SimDuration::from_secs(25),
            )),
        );
        let node = sc.world.add_node("defender");
        let switch = tap.then_some(sc.corp_switch);
        let cfg = WidsConfig {
            authorized_aps: vec![(corp_bssid(), 1)],
            ..WidsConfig::default()
        };
        let wids = WidsDeployment::new(
            &mut sc.world,
            node,
            Pos::new(20.0, 10.0),
            &[6, 1],
            switch,
            cfg,
        );
        (sc, wids)
    }

    /// Run to 4 s, feeding every 250 ms.
    fn run_fed(sc: &mut CorpScenario, wids: &mut WidsDeployment) {
        for step in 1..=16 {
            let now = SimTime::from_millis(250 * step);
            sc.world.run_until(now);
            wids.feed(&sc.world, now);
        }
    }

    /// Captures buffered on each monitor.
    fn captures(world: &World, wids: &WidsDeployment) -> Vec<u64> {
        wids.monitors
            .iter()
            .map(|&m| world.sniffer(wids.node, m).captures.len() as u64)
            .collect()
    }

    fn events(wids: &WidsDeployment) -> u64 {
        wids.pipe.metrics().counter("wids.events")
    }

    #[test]
    fn a_second_feed_at_one_instant_pushes_nothing() {
        let (mut sc, mut wids) = deployed(true);
        let now = SimTime::from_secs(3);
        sc.world.run_until(now);
        wids.feed(&sc.world, now);
        let fed = (events(&wids), wids.wired_sensor.frames_seen);
        assert!(
            fed.0 > 0 && fed.1 > 0,
            "both sources carry traffic: {fed:?}"
        );
        wids.feed(&sc.world, now);
        assert_eq!((events(&wids), wids.wired_sensor.frames_seen), fed);
    }

    #[test]
    fn every_capture_and_tap_frame_is_pushed_once() {
        let (mut sc, mut wids) = deployed(true);
        run_fed(&mut sc, &mut wids);
        let per_monitor = captures(&sc.world, &wids);
        assert!(per_monitor.iter().all(|&n| n > 0), "{per_monitor:?}");
        let digested: Vec<u64> = wids.radio_sensors.iter().map(|s| s.digested).collect();
        assert_eq!(digested, per_monitor);
        let tap = sc.world.wire_tap(wids.node).expect("a span port");
        assert_eq!(wids.wired_sensor.frames_seen, tap.frames.len() as u64);
        assert!(wids.wired_sensor.arp_seen > 0, "ARP crosses the corp LAN");
        // A capture is one event; a tap frame is one event if it is ARP.
        let pushed = per_monitor.iter().sum::<u64>() + wids.wired_sensor.arp_seen;
        assert_eq!(events(&wids), pushed);
    }

    #[test]
    fn without_a_tap_only_radio_events_are_pushed() {
        let (mut sc, mut wids) = deployed(false);
        run_fed(&mut sc, &mut wids);
        assert!(sc.world.wire_tap(wids.node).is_none());
        assert_eq!(wids.wired_sensor.frames_seen, 0);
        let per_monitor = captures(&sc.world, &wids);
        assert!(per_monitor.iter().all(|&n| n > 0), "{per_monitor:?}");
        assert_eq!(events(&wids), per_monitor.iter().sum::<u64>());
    }
}
