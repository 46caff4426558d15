//! A retune that shares an instant with later-seq completions.
//!
//! A scripted injector retunes its radio at the instant three
//! transmissions on channels 1, 6 and 11 complete, with a lower seq than
//! their completions, so the retune commits before any of them is
//! planned: the world dispatches in `(time, seq)` order, and the retune
//! must neither drop nor duplicate a frame.

use rogue_attack::{DeauthFlooder, FrameInjector};
use rogue_core::world::World;
use rogue_dot11::output::MacOutput;
use rogue_dot11::MacAddr;
use rogue_phy::{Bitrate, MediumParams, Pos};
use rogue_sim::{Seed, SimTime};

/// One deauth-sized frame at 1 Mbps.
fn frame() -> bytes::Bytes {
    DeauthFlooder::forge(MacAddr::local(1), MacAddr::BROADCAST).encode()
}

/// The transmitters' start instant; their completions land at
/// `TX_AT + airtime`.
const TX_AT: SimTime = SimTime::from_micros(1_000);

/// Either one transmission or one retune, at a fixed instant.
struct Scripted {
    at: SimTime,
    retune_to: Option<u8>,
    done: bool,
}

impl FrameInjector for Scripted {
    fn next_wake(&self) -> SimTime {
        if self.done {
            SimTime::FOREVER
        } else {
            self.at
        }
    }

    fn poll(&mut self, now: SimTime, out: &mut Vec<MacOutput>) {
        if self.done || now < self.at {
            return;
        }
        self.done = true;
        out.push(match self.retune_to {
            Some(ch) => MacOutput::SetChannel(ch),
            None => MacOutput::Tx {
                bytes: frame(),
                bitrate: Bitrate::B1,
            },
        });
    }
}

/// Three transmitters on channels 1/6/11, each heard by a monitor on
/// its channel, plus the retuning injector. The retuner is added first
/// and polls at t = 0, so its poll at the completion instant carries a
/// lower seq than the completions scheduled at `TX_AT`.
fn run() -> (u64, Vec<usize>) {
    let mut w = World::new(Seed(17), MediumParams::default());
    let done_at = TX_AT + Bitrate::B1.airtime(frame().len());
    let retuner = w.add_node("retuner");
    w.add_injector(
        retuner,
        Pos::new(0.0, 50.0),
        15.0,
        1,
        Scripted {
            at: done_at,
            retune_to: Some(6),
            done: false,
        },
    );
    let mut monitors = Vec::new();
    for (i, ch) in [1u8, 6, 11].into_iter().enumerate() {
        let x = 400.0 * i as f64;
        let tx = w.add_node("tx");
        w.add_injector(
            tx,
            Pos::new(x, 0.0),
            15.0,
            ch,
            Scripted {
                at: TX_AT,
                retune_to: None,
                done: false,
            },
        );
        let mon = w.add_node("mon");
        w.add_monitor(mon, Pos::new(x + 5.0, 0.0), ch);
        monitors.push(mon);
    }
    w.run_until(SimTime::from_micros(10_000));
    let captured = monitors.iter().map(|&m| w.sniffer(m, 0).len()).collect();
    (w.medium.frames_sent, captured)
}

#[test]
fn retune_at_a_completion_instant_keeps_every_delivery() {
    let (frames_sent, captured) = run();
    assert_eq!(frames_sent, 3, "all three frames went on the air");
    assert_eq!(captured, vec![1, 1, 1], "each monitor heard its channel");
}
