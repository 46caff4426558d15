//! The §4 premise: "retrieved the WEP key via Airsnort".
//!
//! ```text
//! cargo run --release --example wep_crack
//! ```
//!
//! Runs the real FMS attack against the real RC4/WEP implementation:
//! first a live demonstration (sealed frames → sniffer → vote tables →
//! recovered key → verified against a captured frame), then the
//! success-probability curve vs. captured traffic.

use rogue_attack::airsnort::{Airsnort, CrackOutcome};
use rogue_core::experiments::e4_wep;
use rogue_crypto::fms::targeted_weak_ivs;
use rogue_crypto::wep::{seal, WepKey};
use rogue_dot11::frame::{encode_llc, Frame, FrameBody};
use rogue_dot11::monitor::Sniffer;
use rogue_dot11::MacAddr;
use rogue_sim::{Seed, SimTime};

fn main() {
    println!("== Airsnort / FMS demonstration ==\n");
    let key = WepKey::from_passphrase_40("SECRET");
    println!("network WEP-40 key bytes (secret!): {:02x?}", key.bytes());

    // Simulated capture: WEP data frames with weak IVs, as a sequential
    // card interleaved over ~16M frames would emit them.
    let mut sniffer = Sniffer::new();
    for (i, iv) in targeted_weak_ivs(5, 220).into_iter().enumerate() {
        let body = seal(&key, iv, 0, &encode_llc(0x0800, b"ordinary traffic"));
        let mut f = Frame::new(
            MacAddr([0xAA, 0xBB, 0xCC, 0xDD, 0x00, 0x01]),
            MacAddr::local(50),
            MacAddr::local(99),
            FrameBody::Data {
                payload: body.into(),
            },
        );
        f.to_ds = true;
        f.protected = true;
        f.seq = (i % 4096) as u16;
        sniffer.on_receive(SimTime::from_micros(i as u64 * 500), &f.encode(), -55.0, 1);
    }
    println!("captured {} protected frames (weak IVs)", sniffer.len());

    let mut snort = Airsnort::new();
    snort.absorb_sniffer(&sniffer);
    match snort.crack(5) {
        CrackOutcome::Recovered(k) => {
            println!("recovered key bytes               : {:02x?}", k.bytes());
            println!(
                "matches the network key           : {}",
                k.bytes() == key.bytes()
            );
            println!("verified by decrypting a capture  : yes (ICV check)\n");
        }
        other => println!("crack failed: {other:?}\n"),
    }

    println!("== Success probability vs captured traffic ==\n");
    println!("{}", e4_wep::report_body(10, Seed(4)));
    println!("The millions-of-frames scale matches period Airsnort reports; WEP-104 needs");
    println!("no more weak IVs per byte — just 13 bytes' worth of them (§2.1's \"legendary\"");
    println!("weakness is in the key schedule, not the key length).");
}
