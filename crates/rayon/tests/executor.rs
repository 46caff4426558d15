//! Executor contract tests: ordering, edge cases, panic propagation.
//!
//! Every test that pins a thread count goes through `with_num_threads`,
//! which serializes concurrent scopes on a global lock — so these tests
//! stay deterministic under cargo's parallel test runner, and they
//! exercise real multi-threading even on a single-core host (the pool
//! oversubscribes happily; correctness never depends on core count).

use rayon::prelude::*;
use rayon::with_num_threads;
use std::collections::HashSet;
use std::panic;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Duration;

#[test]
fn empty_input_yields_empty_output() {
    for threads in [1, 4] {
        let out: Vec<u32> = with_num_threads(threads, || {
            Vec::<u32>::new().into_par_iter().map(|x| x + 1).collect()
        });
        assert!(out.is_empty());
        let out: Vec<u32> = with_num_threads(threads, || (0..0u32).into_par_iter().collect());
        assert!(out.is_empty());
    }
}

#[test]
fn single_item_round_trips() {
    for threads in [1, 4] {
        let out: Vec<String> = with_num_threads(threads, || {
            vec![41u32]
                .into_par_iter()
                .map(|x| (x + 1).to_string())
                .collect()
        });
        assert_eq!(out, vec!["42".to_string()]);
    }
}

#[test]
fn input_larger_than_chunk_times_threads() {
    // 10_000 items across 4 threads: the chunk cursor must hand out many
    // more chunks than there are workers, each item exactly once.
    let seq: Vec<u64> = (0..10_000u64).map(|x| x.wrapping_mul(x) ^ 0xA5).collect();
    let par: Vec<u64> = with_num_threads(4, || {
        (0..10_000u64)
            .into_par_iter()
            .map(|x| x.wrapping_mul(x) ^ 0xA5)
            .collect()
    });
    assert_eq!(par, seq);
}

#[test]
fn collect_is_input_ordered_under_sleep_jitter() {
    // Adversarial schedule: later items finish *earlier* (sleep shrinks
    // with index), so any completion-order collection would reverse the
    // tail. The executor must still return input order.
    let participants: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
    let out: Vec<usize> = with_num_threads(4, || {
        (0..24usize)
            .into_par_iter()
            .map(|i| {
                participants
                    .lock()
                    .unwrap()
                    .insert(std::thread::current().id());
                std::thread::sleep(Duration::from_millis((24 - i) as u64));
                i
            })
            .collect()
    });
    assert_eq!(out, (0..24).collect::<Vec<_>>());
    // With 10+ms of sleep per item the parked workers have ample time to
    // claim chunks: this must not have run on the caller alone.
    assert!(
        participants.lock().unwrap().len() >= 2,
        "expected multiple pool threads to participate"
    );
}

#[test]
fn panicking_closure_propagates_and_pool_survives() {
    let result = panic::catch_unwind(|| {
        with_num_threads(4, || {
            (0..256u32)
                .into_par_iter()
                .map(|i| {
                    if i == 97 {
                        panic!("poisoned replication");
                    }
                    i
                })
                .collect::<Vec<u32>>()
        })
    });
    let payload = result.expect_err("worker panic must propagate to the caller");
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .map(str::to_owned)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(msg.contains("poisoned replication"), "payload: {msg:?}");

    // The pool must not deadlock or lose workers: the next computation
    // over the same pool completes normally.
    let out: Vec<u64> = with_num_threads(4, || (0..1000u64).into_par_iter().collect());
    assert_eq!(out, (0..1000u64).collect::<Vec<_>>());
}

#[test]
fn float_sums_are_bit_identical_across_thread_counts() {
    // Float addition is not associative, so this only holds because the
    // reduction runs sequentially over the index-ordered buffer.
    let value = |i: u64| ((i as f64) * 0.1).sin() / ((i + 1) as f64);
    let sum = |threads| -> f64 {
        let values: Vec<f64> = with_num_threads(threads, || {
            (0..10_000u64).into_par_iter().map(value).collect()
        });
        values.iter().sum()
    };
    let serial = sum(1);
    for threads in [2, 4, 8] {
        let par = sum(threads);
        assert_eq!(
            serial.to_bits(),
            par.to_bits(),
            "threads={threads}: {serial:?} vs {par:?}"
        );
    }
}

#[test]
fn nested_parallelism_does_not_deadlock() {
    // Outer replications each fan out again; the caller-participation
    // rule guarantees progress even with every pool worker occupied.
    let out: Vec<u64> = with_num_threads(4, || {
        (0..8u64)
            .into_par_iter()
            .map(|outer| {
                let inner: Vec<u64> = (0..100u64)
                    .into_par_iter()
                    .map(|inner| outer * 1000 + inner)
                    .collect();
                inner.iter().sum()
            })
            .collect()
    });
    let expected: Vec<u64> = (0..8u64)
        .map(|outer| (0..100u64).map(|inner| outer * 1000 + inner).sum())
        .collect();
    assert_eq!(out, expected);
}

#[test]
fn borrowed_captures_and_slice_par_iter() {
    // Closures borrowing stack data must work (the executor blocks until
    // every job drains before the borrow ends).
    let table: Vec<u64> = (0..64).map(|i| i * i).collect();
    let looked_up: Vec<u64> = with_num_threads(4, || {
        (0..64usize).into_par_iter().map(|i| table[i]).collect()
    });
    assert_eq!(looked_up, table);
    let doubled: Vec<u64> = with_num_threads(4, || table.par_iter().map(|&x| x * 2).collect());
    assert_eq!(doubled, table.iter().map(|&x| x * 2).collect::<Vec<_>>());
}
