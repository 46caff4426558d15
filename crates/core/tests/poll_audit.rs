//! The completion poll skip and its debug audit (DESIGN.md §17.7).
//!
//! A completion polls only the nodes that heard its frame or whose poll
//! is due at that instant. Every other poll it skips is one the
//! `next_wake` contract makes a no-op: a poll before a component's next
//! wake, with no input since the last poll, does nothing. Debug builds
//! poll each skipped node anyway and assert that contract.
//!
//! - An eavesdropping station, tuned to the channel where another
//!   station joins an AP, has the join's unicast frames filtered. With
//!   a ticker app whose `next_wake` names its next tick the run is
//!   clean and every tick lands on time; with an app that acts on every
//!   poll while `next_wake()` returns `FOREVER` (`#[cfg(debug_assertions)]`,
//!   `should_panic`), the audit fires at the first skipped poll.
//! - A node made due again by input at the very instant of a
//!   completion it only overhears is still polled at the completion's
//!   position.

use std::any::Any;

use bytes::Bytes;
use rogue_attack::FrameInjector;
use rogue_core::world::{NodeId, World};
use rogue_dot11::output::MacOutput;
use rogue_dot11::{ApConfig, Frame, FrameBody, MacAddr, StaConfig};
use rogue_netstack::{Host, Ipv4Addr, SocketHandle};
use rogue_phy::{Bitrate, MediumParams, Pos};
use rogue_services::apps::{App, AppEvent};
use rogue_sim::{Seed, SimDuration, SimTime};

/// Emits one event per tick and says when the next one is due.
struct Ticker {
    next: SimTime,
    period: SimDuration,
}

impl App for Ticker {
    fn poll(&mut self, now: SimTime, _host: &mut Host, out: &mut Vec<AppEvent>) {
        while now >= self.next {
            out.push(AppEvent::PageFailed);
            self.next += self.period;
        }
    }

    fn next_wake(&self) -> SimTime {
        self.next
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Acts on every poll but never asks for one: breaks the contract.
#[cfg(debug_assertions)]
struct Chatty;

#[cfg(debug_assertions)]
impl App for Chatty {
    fn poll(&mut self, _now: SimTime, _host: &mut Host, out: &mut Vec<AppEvent>) {
        out.push(AppEvent::PageFailed);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// An AP and a joining station on channel 1, plus an eavesdropping
/// station carrying `app`. The eavesdropper looks for another network,
/// so it never joins and keeps sweeping 1/6/11 in step with the joiner:
/// both reach channel 1 again at 360 ms, when the join starts.
fn overheard_join(app: Box<dyn App>) -> (World, NodeId, NodeId) {
    let mut w = World::new(Seed(23), MediumParams::default());
    let ap = w.add_node("ap");
    let ap_cfg = ApConfig::typical(MacAddr::local(1), "NET", 1, None);
    w.add_ap_bridge(ap, Pos::new(0.0, 0.0), 15.0, ap_cfg, None);
    let joiner = w.add_node("joiner");
    let cfg = StaConfig::typical(MacAddr::local(9), "NET", None);
    let ip = Ipv4Addr::new(10, 0, 0, 9);
    w.add_sta(joiner, Pos::new(10.0, 0.0), 15.0, cfg, ip, 24);
    let eaves = w.add_node("eavesdropper");
    let cfg = StaConfig::typical(MacAddr::local(10), "ELSEWHERE", None);
    let ip = Ipv4Addr::new(10, 0, 0, 10);
    w.add_sta(eaves, Pos::new(0.0, 10.0), 15.0, cfg, ip, 24);
    w.add_app(eaves, app);
    w.run_until(SimTime::from_secs(1));
    (w, joiner, eaves)
}

#[test]
fn honest_app_runs_clean_and_on_time() {
    let period = SimDuration::from_millis(50);
    let (w, joiner, eaves) = overheard_join(Box::new(Ticker {
        next: SimTime::ZERO,
        period,
    }));
    assert!(
        w.sta(joiner, 0).bssid().is_some(),
        "the join the eavesdropper overhears must happen"
    );
    let ticks: Vec<SimTime> = w
        .app_events
        .iter()
        .filter(|(_, n, _)| *n == eaves)
        .map(|(t, _, _)| *t)
        .collect();
    let want: Vec<SimTime> = (0..=20).map(|k| SimTime::from_millis(50 * k)).collect();
    assert_eq!(ticks, want, "every tick polled exactly when due");
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "poll skip")]
fn app_that_hides_its_wake_trips_the_audit() {
    overheard_join(Box::new(Chatty));
}

const PORT: u16 = 9000;
const X_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
/// Switch latency: a datagram sent at `SEND_AT` arrives at `ARRIVE_AT`.
const WIRE: SimDuration = SimDuration::from_millis(10);
const SEND_AT: SimTime = SimTime::from_millis(100);
const ARRIVE_AT: SimTime = SimTime::from_millis(110);

/// Reads a datagram on one poll and acts on it on the next, asking for
/// that second poll at once: input at `t` makes its node due at `t`.
#[derive(Default)]
struct TwoPhase {
    sock: Option<SocketHandle>,
    pending: bool,
    received_at: Vec<SimTime>,
}

impl App for TwoPhase {
    fn poll(&mut self, now: SimTime, host: &mut Host, out: &mut Vec<AppEvent>) {
        let sock = *self.sock.get_or_insert_with(|| host.udp_bind(PORT));
        if std::mem::take(&mut self.pending) {
            out.push(AppEvent::PageFailed);
        }
        while host.udp_recv(sock).is_some() {
            self.pending = true;
            self.received_at.push(now);
        }
    }

    fn next_wake(&self) -> SimTime {
        if self.pending {
            SimTime::ZERO
        } else {
            SimTime::FOREVER
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Sends one datagram to `X_IP` at each instant of `at` (latest first).
struct Sender {
    sock: Option<SocketHandle>,
    at: Vec<SimTime>,
}

impl App for Sender {
    fn poll(&mut self, now: SimTime, host: &mut Host, _out: &mut Vec<AppEvent>) {
        let sock = *self.sock.get_or_insert_with(|| host.udp_bind(PORT));
        while self.at.last().is_some_and(|&t| t <= now) {
            self.at.pop();
            host.udp_send(now, sock, X_IP, PORT, b"go");
        }
    }

    fn next_wake(&self) -> SimTime {
        self.at.last().copied().unwrap_or(SimTime::FOREVER)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Transmits one frame, timed to complete at `ARRIVE_AT`.
struct OneShot {
    at: SimTime,
    frame: Option<Bytes>,
}

impl FrameInjector for OneShot {
    fn next_wake(&self) -> SimTime {
        match self.frame {
            Some(_) => self.at,
            None => SimTime::FOREVER,
        }
    }

    fn poll(&mut self, now: SimTime, out: &mut Vec<MacOutput>) {
        if now >= self.at {
            if let Some(bytes) = self.frame.take() {
                let bitrate = Bitrate::B1;
                out.push(MacOutput::Tx { bytes, bitrate });
            }
        }
    }
}

/// At `ARRIVE_AT`, in `(time, seq)` order: a datagram reaches node X
/// over the wire and makes X due again at once; a data frame for a
/// third station completes at X's radio, which filters it; two tickers
/// poll. X's second phase must run at the completion's position, as
/// the poll-everyone dispatcher ran it, not at its own later poll
/// entry. Returns the app events at `ARRIVE_AT`.
fn due_at_completion() -> Vec<NodeId> {
    let mut w = World::new(Seed(29), MediumParams::default());
    let sw = w.add_switch(WIRE);
    let x = w.add_node("x");
    w.add_wired_iface(x, sw, MacAddr::local(1), X_IP, 24);
    let cfg = StaConfig {
        channels: vec![1],
        ..StaConfig::typical(MacAddr::local(2), "NOBODY", None)
    };
    let ip = Ipv4Addr::new(10, 0, 1, 1);
    w.add_sta(x, Pos::new(0.0, 0.0), 15.0, cfg, ip, 24);
    let y = w.add_node("y");
    w.add_wired_iface(y, sw, MacAddr::local(3), Ipv4Addr::new(10, 0, 0, 2), 24);
    // The first datagram resolves ARP; the second is timed.
    let at = vec![SEND_AT, SimTime::from_millis(1)];
    w.add_app(y, Box::new(Sender { sock: None, at }));
    let z = w.add_node("z");
    let payload = Bytes::from(vec![0xAA; 20]);
    let body = FrameBody::Data { payload };
    let (them, me) = (MacAddr::local(4), MacAddr::local(5));
    let frame = Frame::new(them, me, me, body).encode();
    let airtime = Bitrate::B1.airtime(frame.len()).as_nanos();
    let tx_at = SimTime::ZERO + SimDuration::from_nanos(ARRIVE_AT.as_nanos() - airtime);
    let shot = OneShot {
        at: tx_at,
        frame: Some(frame),
    };
    w.add_injector(z, Pos::new(5.0, 0.0), 15.0, 1, shot);
    // Tickers faster than the frame's airtime: their polls at
    // ARRIVE_AT are scheduled after the frame began, so they follow
    // the completion at that instant.
    for name in ["w", "v"] {
        let n = w.add_node(name);
        let period = SimDuration::from_micros(100);
        let next = SimTime::ZERO;
        w.add_app(n, Box::new(Ticker { next, period }));
    }
    let two_phase = w.add_app(x, Box::<TwoPhase>::default());
    w.run_until(ARRIVE_AT + SimDuration::from_millis(5));
    let received = &w.app::<TwoPhase>(x, two_phase).received_at;
    assert_eq!(received.last(), Some(&ARRIVE_AT), "the timed datagram");
    w.app_events
        .iter()
        .filter(|(t, _, _)| *t == ARRIVE_AT)
        .map(|(_, n, _)| *n)
        .collect()
}

#[test]
fn node_due_at_a_completion_is_polled_in_place() {
    let names: Vec<usize> = due_at_completion().iter().map(|n| n.0).collect();
    // Nodes: x = 0, y = 1, z = 2, w = 3, v = 4.
    assert_eq!(names, vec![0, 3, 4], "x acts at the completion, first");
}
