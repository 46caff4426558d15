//! vpn_throughput — records/sec through the full VPN record path.
//!
//! Drives one established client/server session pair exactly the way
//! the tunnel does in steady state: `seal_record` produces the encoded
//! wire record in a single buffer, the receiver `Message::decode`s it
//! (ciphertext as a zero-copy slice) and `open`s it in place. Three
//! figures per payload size:
//!
//! * **records/sec** — wall-clock seal → decode → open throughput.
//! * **MB/sec** — the same, scaled by payload size.
//! * **bytes copied / record** — payload bytes `open` had to copy
//!   because the record buffer was still shared, straight from the
//!   `SessionCrypto::bytes_copied` counter; the steady-state path
//!   decrypts in place and reports 0. A pointer-containment audit
//!   cross-checks that the returned plaintext aliases the wire buffer.
//!
//! A full run writes the results (plus the committed pre-optimization
//! baseline) to `BENCH_vpn_throughput.json` at the workspace root.
//! `-- --test` runs a shortened smoke sweep and writes its JSON to
//! `target/tmp` instead.

use std::time::Instant;

use criterion::black_box;
use rogue_sim::{Seed, SimRng};
use rogue_vpn::protocol::{gen_keypair, Message, SessionCrypto};

/// Inner-packet sizes swept: tiny (ACK-ish), small data, and the
/// near-MTU size that dominates a bulk download through the tunnel.
const PAYLOAD_LENS: [usize; 3] = [64, 256, 1400];

/// Pre-optimization baseline, measured on this machine at the commit
/// that introduced this bench (byte-at-a-time ChaCha20/HMAC, per-record
/// ipad/opad hashing, seal→Vec→encode→Vec copy chain):
/// (payload_len, records_per_sec, bytes_copied_per_record). The old
/// path copied the payload at seal (`to_vec`), at encode (ciphertext
/// into the wire Vec) and at open (ciphertext into the plaintext Vec).
const BASELINE: [(usize, f64, f64); 3] = [
    (64, 296184.0, 192.0),
    (256, 175631.0, 768.0),
    (1400, 50520.0, 4200.0),
];

struct Sweep {
    payload_len: usize,
    records_per_sec: f64,
    mb_per_sec: f64,
    bytes_copied_per_record: f64,
}

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

/// One timed run: `records` records sealed by the client and opened by
/// the server. Returns (elapsed seconds, bytes copied at open).
fn run(payload_len: usize, records: usize) -> (f64, u64) {
    let (mut c, mut s) = established_pair();
    let payload = vec![0xA5u8; payload_len];
    let start = Instant::now();
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
    (start.elapsed().as_secs_f64(), s.bytes_copied)
}

fn sweep(records: usize, reps: usize) -> Vec<Sweep> {
    PAYLOAD_LENS
        .iter()
        .map(|&payload_len| {
            let mut best = f64::INFINITY;
            let mut copied = 0u64;
            for _ in 0..reps {
                let (elapsed, c) = run(payload_len, records);
                best = best.min(elapsed);
                copied = c;
            }
            let records_per_sec = records as f64 / best;
            Sweep {
                payload_len,
                records_per_sec,
                mb_per_sec: records_per_sec * payload_len as f64 / 1e6,
                bytes_copied_per_record: copied as f64 / records as f64,
            }
        })
        .collect()
}

fn write_json(path: &std::path::Path, records: usize, results: &[Sweep]) {
    let mut rows = Vec::new();
    for s in results {
        let (_, base_rps, base_copied) = BASELINE
            .iter()
            .find(|(l, _, _)| *l == s.payload_len)
            .copied()
            .unwrap_or((s.payload_len, 0.0, 0.0));
        let speedup = if base_rps > 0.0 {
            s.records_per_sec / base_rps
        } else {
            0.0
        };
        rows.push(format!(
            concat!(
                "    {{\"payload_len\": {}, \"records_per_sec\": {:.0}, ",
                "\"mb_per_sec\": {:.1}, \"bytes_copied_per_record\": {:.1}, ",
                "\"baseline_records_per_sec\": {:.0}, ",
                "\"baseline_bytes_copied_per_record\": {:.1}, ",
                "\"speedup\": {:.2}}}"
            ),
            s.payload_len,
            s.records_per_sec,
            s.mb_per_sec,
            s.bytes_copied_per_record,
            base_rps,
            base_copied,
            speedup,
        ));
    }
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"vpn_throughput\",\n",
            "  \"records_per_run\": {},\n",
            "  \"results\": [\n{}\n  ]\n}}\n"
        ),
        records,
        rows.join(",\n")
    );
    std::fs::write(path, json).expect("write BENCH_vpn_throughput.json");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let (records, reps) = if smoke { (500, 2) } else { (20000, 5) };

    let results = sweep(records, reps);
    println!("vpn_throughput ({records} records/run)");
    for s in &results {
        println!(
            "  payload={:5}  {:>10.0} records/s   {:>8.1} MB/s   {:>6.1} bytes copied/record",
            s.payload_len, s.records_per_sec, s.mb_per_sec, s.bytes_copied_per_record
        );
    }

    let path = rogue_bench::bench_json_path!("vpn_throughput", smoke);
    write_json(&path, records, &results);
    println!("wrote {}", path.display());
}
