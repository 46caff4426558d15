//! Executor contract tests: ordering, edge cases, panic propagation.
//!
//! Every test that pins a thread count goes through `with_num_threads`,
//! which serializes concurrent scopes on a global lock — so these tests
//! stay deterministic under cargo's parallel test runner, and they
//! exercise real multi-threading even on a single-core host (the pool
//! oversubscribes happily; correctness never depends on core count).

use rayon::{map, with_num_threads};
use std::collections::HashSet;
use std::panic;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Duration;

#[test]
fn empty_input_yields_empty_output() {
    for threads in [1, 4] {
        let out: Vec<u32> = with_num_threads(threads, || map(Vec::<u32>::new(), |x| x + 1));
        assert!(out.is_empty());
    }
}

#[test]
fn single_item_round_trips() {
    for threads in [1, 4] {
        let out = with_num_threads(threads, || map(vec![41u32], |x| (x + 1).to_string()));
        assert_eq!(out, vec!["42".to_string()]);
    }
}

#[test]
fn input_larger_than_chunk_times_threads() {
    // 10_000 items across 4 threads: the claims hand out far more items
    // than there are participants, each item exactly once.
    let seq: Vec<u64> = (0..10_000u64).map(|x| x.wrapping_mul(x) ^ 0xA5).collect();
    let par = with_num_threads(4, || {
        map((0..10_000u64).collect(), |x| x.wrapping_mul(x) ^ 0xA5)
    });
    assert_eq!(par, seq);
}

#[test]
fn collect_is_input_ordered_under_sleep_jitter() {
    // Adversarial schedule: later items finish *earlier* (sleep shrinks
    // with index), so any completion-order collection would reverse the
    // tail. The executor must still return input order.
    let participants: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
    let out = with_num_threads(4, || {
        map((0..24usize).collect(), |i| {
            participants
                .lock()
                .unwrap()
                .insert(std::thread::current().id());
            std::thread::sleep(Duration::from_millis((24 - i) as u64));
            i
        })
    });
    assert_eq!(out, (0..24).collect::<Vec<_>>());
    // With 10+ms of sleep per item the parked workers have ample time to
    // claim items: this must not have run on the caller alone.
    assert!(
        participants.lock().unwrap().len() >= 2,
        "expected multiple pool threads to participate"
    );
}

#[test]
fn panicking_closure_propagates_and_pool_survives() {
    let result = panic::catch_unwind(|| {
        with_num_threads(4, || {
            map((0..256u32).collect(), |i| {
                if i == 97 {
                    panic!("poisoned replication");
                }
                i
            })
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
    let out = with_num_threads(4, || map((0..1000u64).collect(), |x| x));
    assert_eq!(out, (0..1000u64).collect::<Vec<_>>());
}

#[test]
fn float_sums_are_bit_identical_across_thread_counts() {
    // Float addition is not associative, so this only holds because the
    // reduction runs sequentially over the index-ordered results.
    let value = |i: u64| ((i as f64) * 0.1).sin() / ((i + 1) as f64);
    let sum = |threads| -> f64 {
        let values = with_num_threads(threads, || map((0..10_000u64).collect(), value));
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
    // A `map` inside a running `map` runs inline on its thread, so the
    // outer items finish even with every pool worker occupied.
    let out = with_num_threads(4, || {
        map((0..8u64).collect(), |outer| {
            let inner = map((0..100u64).collect(), |inner| outer * 1000 + inner);
            inner.iter().sum::<u64>()
        })
    });
    let expected: Vec<u64> = (0..8u64)
        .map(|outer| (0..100u64).map(|inner| outer * 1000 + inner).sum())
        .collect();
    assert_eq!(out, expected);
}

#[test]
fn borrowed_captures_and_borrowed_items() {
    // Closures and items borrowing stack data must work (the caller
    // waits for every job before the borrow ends).
    let table: Vec<u64> = (0..64).map(|i| i * i).collect();
    let looked_up = with_num_threads(4, || map((0..64usize).collect(), |i| table[i]));
    assert_eq!(looked_up, table);
    let doubled = with_num_threads(4, || map(table.iter().collect(), |&x| x * 2));
    assert_eq!(doubled, table.iter().map(|&x| x * 2).collect::<Vec<_>>());
}
