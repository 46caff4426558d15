//! The parallel-iterator surface the experiment drivers use.
//!
//! A [`ParIter`] owns its input items plus a fused per-item operation
//! built up by the adapters (`map`, `filter`, `filter_map`). Nothing
//! runs until a consumer (`collect`, `count`, `sum`) calls into the
//! executor, which applies the fused operation to every item in
//! parallel and hands back results in input order — so consumers see
//! exactly the sequence a serial run would produce.

use crate::pool;

/// A pending parallel computation: items of type `T`, producing values
/// of type `R` (items may be dropped by `filter`/`filter_map`).
pub struct ParIter<'a, T: Send, R: Send> {
    items: Vec<T>,
    /// The fused adapter chain; `None` means the item was filtered out.
    op: Box<dyn Fn(T) -> Option<R> + Sync + 'a>,
    min_len: usize,
}

impl<'a, T: Send + 'a> ParIter<'a, T, T> {
    pub(crate) fn from_vec(items: Vec<T>) -> Self {
        ParIter {
            items,
            op: Box::new(Some),
            min_len: 1,
        }
    }
}

impl<'a, T: Send + 'a, R: Send + 'a> ParIter<'a, T, R> {
    /// Transform every value.
    pub fn map<S, G>(self, g: G) -> ParIter<'a, T, S>
    where
        S: Send + 'a,
        G: Fn(R) -> S + Sync + 'a,
    {
        let op = self.op;
        ParIter {
            items: self.items,
            op: Box::new(move |item| op(item).map(&g)),
            min_len: self.min_len,
        }
    }

    /// Keep only values satisfying `pred` (relative order preserved).
    pub fn filter<P>(self, pred: P) -> ParIter<'a, T, R>
    where
        P: Fn(&R) -> bool + Sync + 'a,
    {
        let op = self.op;
        ParIter {
            items: self.items,
            op: Box::new(move |item| op(item).filter(|value| pred(value))),
            min_len: self.min_len,
        }
    }

    /// Transform and filter in one step.
    pub fn filter_map<S, G>(self, g: G) -> ParIter<'a, T, S>
    where
        S: Send + 'a,
        G: Fn(R) -> Option<S> + Sync + 'a,
    {
        let op = self.op;
        ParIter {
            items: self.items,
            op: Box::new(move |item| op(item).and_then(&g)),
            min_len: self.min_len,
        }
    }

    /// Floor the number of items a worker claims at a time. Use on loops
    /// whose per-item work is too cheap to justify fine-grained chunks;
    /// chunk geometry never affects results, only scheduling.
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.min_len = self.min_len.max(min_len.max(1));
        self
    }

    /// Run the computation; results come back in input order.
    fn run(self) -> Vec<R> {
        pool::run_ordered(self.items, self.min_len, self.op)
            .into_iter()
            .flatten()
            .collect()
    }

    /// Collect into any `FromIterator` container, in input order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        self.run().into_iter().collect()
    }

    /// Number of values surviving the adapter chain.
    pub fn count(self) -> usize {
        self.run().len()
    }

    /// Sum the values. The reduction itself runs sequentially over the
    /// index-ordered buffer, so float sums are bit-identical to serial.
    pub fn sum<S: std::iter::Sum<R>>(self) -> S {
        self.run().into_iter().sum()
    }
}
