//! Substrate microbenches: the from-scratch crypto, the TCP stack, the
//! radio medium and the event queue — the pieces whose throughput
//! bounds how fast the experiments run.
//!
//! ```text
//! cargo bench -p rogue-bench --bench substrate_micro            # 20 samples per row
//! cargo bench -p rogue-bench --bench substrate_micro -- --test  # 1 sample per row
//! ```
//!
//! Each row times one call of its body per sample, after two warm-up
//! calls, and prints the median and quartiles of the samples (and, for
//! rows over a fixed buffer, the throughput at the median).

use std::hint::black_box;
use std::time::Instant;

use rogue_bench::quartiles;
use rogue_crypto::chacha20::ChaCha20;
use rogue_crypto::wep::{open, seal, WepKey};
use rogue_crypto::{crc32, md5, sha1, Rc4};
use rogue_netstack::tcp::{flags, TcpSegment};
use rogue_netstack::Ipv4Addr;
use rogue_sim::{EventQueue, Seed, SimRng, SimTime};

/// Samples per row in a full run.
const SAMPLES: usize = 20;

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Time `body` `samples` times and print the row `id`; `bytes` is the
/// buffer one call processes, if the row has a throughput.
fn row<O>(id: &str, samples: usize, bytes: Option<u64>, mut body: impl FnMut() -> O) {
    for _ in 0..2 {
        black_box(body());
    }
    let ns: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            black_box(body());
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    let (median, q1, q3) = quartiles(&ns);
    let rate = match bytes {
        Some(b) if median > 0.0 => {
            format!("  {:>10.1} MiB/s", b as f64 / (median / 1e9) / 1048576.0)
        }
        _ => String::new(),
    };
    println!(
        "{id:<40} median {:>12}  q1 {:>12}  q3 {:>12}{rate}",
        fmt_ns(median),
        fmt_ns(q1),
        fmt_ns(q3)
    );
}

fn main() {
    let n = if std::env::args().any(|a| a == "--test") {
        1
    } else {
        SAMPLES
    };

    let data = vec![0xA5u8; 1500];
    let b = Some(1500);
    row("crypto_1500B/rc4", n, b, || Rc4::process(b"SECRET", &data));
    row("crypto_1500B/crc32", n, b, || crc32(&data));
    row("crypto_1500B/md5", n, b, || md5(&data));
    row("crypto_1500B/sha1", n, b, || sha1(&data));
    let (key, nonce) = ([7u8; 32], [9u8; 12]);
    row("crypto_1500B/chacha20", n, b, || {
        ChaCha20::process(&key, &nonce, 0, &data)
    });
    let wep = WepKey::new(b"AB#12");
    row("crypto_1500B/wep_seal", n, b, || {
        seal(&wep, [1, 2, 3], 0, &data)
    });
    let sealed = seal(&wep, [1, 2, 3], 0, &data);
    row("crypto_1500B/wep_open", n, b, || {
        open(&wep, &sealed).unwrap()
    });

    {
        use rogue_crypto::dh::DhKeyPair;
        row("dh_1024/keypair_generate", n, None, || {
            DhKeyPair::generate(&[0x42u8; 32])
        });
        let a = DhKeyPair::generate(&[1u8; 32]);
        let peer = DhKeyPair::generate(&[2u8; 32]);
        row("dh_1024/agree", n, None, || a.agree(&peer.public).unwrap());
    }

    let (src, dst) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    let seg = TcpSegment {
        src_port: 1,
        dst_port: 80,
        seq: 1,
        ack: 2,
        flags: flags::ACK | flags::PSH,
        window: 65535,
        payload: bytes::Bytes::from(vec![0u8; 1400]),
    };
    let wire = seg.encode(src, dst);
    row("tcp_codec_1400B/encode", n, Some(1400), || {
        seg.encode(src, dst)
    });
    row("tcp_codec_1400B/decode", n, Some(1400), || {
        TcpSegment::decode(src, dst, &wire).unwrap()
    });

    row("sim_kernel/event_queue_push_pop_1k", n, None, || {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.schedule(SimTime(i * 1000), i);
        }
        let mut acc = 0u64;
        while let Some((_, e)) = q.pop() {
            acc = acc.wrapping_add(e);
        }
        acc
    });
    let mut rng = SimRng::new(Seed(1));
    row("sim_kernel/xoshiro_1k_draws", n, None, || {
        let mut acc = 0u64;
        for _ in 0..1000 {
            acc = acc.wrapping_add(rng.next_u64());
        }
        acc
    });

    {
        use rogue_crypto::fms::{targeted_weak_ivs, KeyRecovery, Sample};
        let key = b"AB#12";
        let mut kr = KeyRecovery::new();
        for iv in targeted_weak_ivs(5, 240) {
            let mut k = iv.to_vec();
            k.extend_from_slice(key);
            kr.absorb(Sample {
                iv,
                ks0: Rc4::new(&k).next_byte(),
            });
        }
        row("fms/crack_wep40_1200_samples", n, None, || kr.crack(5));
    }
}
