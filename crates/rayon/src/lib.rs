//! Vendored replacement for `rayon`'s parallel-iterator entry points,
//! with a real multi-threaded executor.
//!
//! The sandbox has no registry access, so this crate reimplements the
//! slice of rayon the experiment drivers use — `par_iter()`,
//! `into_par_iter()`, `map` and `collect` — on top of a
//! lazily-initialized global `std::thread` pool ([`pool`]).
//!
//! **Determinism contract.** Results are collected in *input order*
//! regardless of which worker finishes when, so a reduction over the
//! collected values runs sequentially in that order. Combined with the drivers'
//! per-replication `Seed::fork` streams, every experiment table is
//! byte-identical whether it runs on 1 thread or N — the determinism
//! suite (`tests/report_determinism.rs`) proves it.
//!
//! Thread count: `RAYON_NUM_THREADS` overrides the hardware default;
//! [`with_num_threads`] pins it for a scope (tests, scaling benches).

mod iter;
pub mod pool;

pub use pool::{current_num_threads, set_num_threads, with_num_threads};

/// The traits and types the experiment drivers import.
pub mod prelude {
    pub use crate::iter::ParIter;

    /// `into_par_iter()` for any owned iterable (ranges, vectors).
    pub trait IntoParallelIterator: Sized {
        /// The element type.
        type Item: Send;
        /// Materialize the input and hand it to the parallel executor.
        fn into_par_iter<'a>(self) -> ParIter<'a, Self::Item, Self::Item>
        where
            Self::Item: 'a;
    }

    impl<I: IntoIterator> IntoParallelIterator for I
    where
        I::Item: Send,
    {
        type Item = I::Item;
        fn into_par_iter<'a>(self) -> ParIter<'a, I::Item, I::Item>
        where
            I::Item: 'a,
        {
            ParIter::from_vec(self.into_iter().collect())
        }
    }

    /// `par_iter()` for anything iterable by reference (slices, vectors).
    pub trait IntoParallelRefIterator<'data> {
        /// The borrowed element type.
        type Item: Send + 'data;
        /// Parallel iterator over `&self`'s elements.
        fn par_iter(&'data self) -> ParIter<'data, Self::Item, Self::Item>;
    }

    impl<'data, C: ?Sized + 'data> IntoParallelRefIterator<'data> for C
    where
        &'data C: IntoIterator,
        <&'data C as IntoIterator>::Item: Send,
    {
        type Item = <&'data C as IntoIterator>::Item;
        fn par_iter(&'data self) -> ParIter<'data, Self::Item, Self::Item> {
            ParIter::from_vec(self.into_iter().collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_and_slices_iterate_in_order() {
        let doubled: Vec<usize> = (0..5usize).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![0, 2, 4, 6, 8]);
        let v = vec![10, 20, 30];
        let seen: Vec<&i32> = v.par_iter().collect();
        assert_eq!(seen, [&10, &20, &30]);
    }

    #[test]
    fn adapter_chain_matches_sequential() {
        let par: Vec<u64> = (0..1000u64)
            .into_par_iter()
            .map(|x| x * 3)
            .map(|x| (x % 2 == 0).then_some(x * 7))
            .collect::<Vec<_>>()
            .into_iter()
            .flatten()
            .collect();
        let seq: Vec<u64> = (0..1000u64)
            .map(|x| x * 3)
            .filter_map(|x| (x % 2 == 0).then_some(x * 7))
            .collect();
        assert_eq!(par, seq);
    }
}
