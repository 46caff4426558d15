//! vpn_throughput — records/sec through the full VPN record path.
//!
//! Drives one established client/server session pair exactly the way
//! the tunnel does in steady state: `seal_record` produces the encoded
//! wire record in a single buffer, the receiver `Message::decode`s it
//! (ciphertext as a zero-copy slice) and `open`s it in place. Three
//! figures per payload size:
//!
//! * **records/sec** — wall-clock seal → decode → open throughput, the
//!   median of the reps with its quartiles.
//! * **MB/sec** — the median, scaled by payload size.
//! * **bytes copied / record** — payload bytes `open` had to copy
//!   because the record buffer was still shared, straight from the
//!   `SessionCrypto::bytes_copied` counter; the steady-state path
//!   decrypts in place and reports 0. A pointer-containment audit
//!   cross-checks that the returned plaintext aliases the wire buffer.
//!
//! A full run records the results, beside the committed
//! pre-optimization baseline, in `BENCH_vpn_throughput.json` at the
//! workspace root.
//! `-- --test` runs a shortened smoke sweep and writes its JSON to
//! `target/tmp` instead.

use std::hint::black_box;

use rogue_bench::{record, sample, spread, Row, Stopwatch};
use rogue_sim::{Seed, SimRng};
use rogue_vpn::protocol::{gen_keypair, Message, SessionCrypto};

/// The inner-packet sizes swept — tiny (ACK-ish), small data, and the
/// near-MTU size that dominates a bulk download through the tunnel —
/// with the pre-optimization baseline, the best of 5 reps measured on
/// this machine at the commit that introduced this bench (byte-at-a-time
/// ChaCha20/HMAC, per-record ipad/opad hashing, seal→Vec→encode→Vec copy
/// chain): (payload_len, records_per_sec, bytes_copied_per_record). The
/// old path copied the payload at seal (`to_vec`), at encode (ciphertext
/// into the wire Vec) and at open (ciphertext into the plaintext Vec).
const BASELINE: [(usize, f64, f64); 3] = [
    (64, 296184.0, 192.0),
    (256, 175631.0, 768.0),
    (1400, 50520.0, 4200.0),
];

fn established_pair() -> (SessionCrypto, SessionCrypto) {
    let mut rng = SimRng::new(Seed(1));
    let ckp = gen_keypair(&mut rng);
    let skp = gen_keypair(&mut rng);
    let shared = ckp.agree(&skp.public).unwrap();
    let nc = [1u8; 16];
    let ns = [2u8; 16];
    (
        SessionCrypto::derive(&shared, &nc, &ns, true),
        SessionCrypto::derive(&shared, &nc, &ns, false),
    )
}

/// One rep: `records` records sealed by the client and opened by the
/// server, timed on `clock`. Returns the bytes copied at open.
fn run(payload_len: usize, records: usize, clock: &mut Stopwatch) -> u64 {
    let (mut c, mut s) = established_pair();
    let payload = vec![0xA5u8; payload_len];
    clock.time(|| {
        for i in 0..records {
            let rec = c.seal_record(&payload);
            let base = rec.as_ptr() as usize;
            let Some(Message::Data {
                seq,
                tag,
                ciphertext,
            }) = Message::decode(&rec)
            else {
                unreachable!()
            };
            drop(rec); // receiver owns the record now — steady state
            let pt = s.open(seq, &tag, ciphertext).expect("valid record");
            // Cross-check the counter: the plaintext must alias the single
            // record allocation (in-place decrypt), never a fresh copy.
            if i == 0 && payload_len > 0 {
                let p = pt.as_ptr() as usize;
                assert!(
                    (base..base + 21 + payload_len).contains(&p),
                    "open copied despite unique ownership"
                );
            }
            black_box(&pt);
        }
    });
    s.bytes_copied
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let (records, reps) = if smoke { (500, 2) } else { (20000, 5) };

    println!("vpn_throughput ({records} records/run, median of {reps} reps [q1, q3])");
    let mut results = Vec::new();
    for (payload_len, base_rps, base_copied) in BASELINE {
        let runs = sample(reps, |clock| run(payload_len, records, clock));
        let copied_per_record = runs[0].out as f64 / records as f64;
        let rps = spread(&runs, |r| records as f64 / r.wall_s);
        let mb_per_sec = rps.0 * payload_len as f64 / 1e6;
        println!(
            "  payload={payload_len:5}  {:>10.0} records/s [{:.0}, {:.0}]   {mb_per_sec:>8.1} MB/s   {copied_per_record:>6.1} bytes copied/record",
            rps.0, rps.1, rps.2
        );
        results.push(
            Row::default()
                .int("payload_len", payload_len as u64)
                .rate("records_per_sec", rps, 0)
                .timing(&runs)
                .num("mb_per_sec", mb_per_sec, 1)
                .num("bytes_copied_per_record", copied_per_record, 1)
                .num("baseline_records_per_sec", base_rps, 0)
                .num("baseline_bytes_copied_per_record", base_copied, 1)
                .num("speedup", rps.0 / base_rps, 2),
        );
    }

    let head = Row::default().int("records_per_run", records as u64).text(
        "baseline",
        "best of 5 reps at the commit that introduced this bench: byte-at-a-time ChaCha20/HMAC, per-record pad hashing, three payload copies",
    );
    let path = rogue_bench::bench_json_path!("vpn_throughput", smoke);
    record(&path, "vpn_throughput", reps, head, &results);
}
