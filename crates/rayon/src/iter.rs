//! The parallel-iterator surface the experiment drivers use.
//!
//! A [`ParIter`] owns its input items plus a fused per-item operation
//! built up by `map`. Nothing runs until `collect` calls into the
//! executor, which applies the fused operation to every item in parallel
//! and hands back results in input order — so the caller sees exactly
//! the sequence a serial run would produce.

use crate::pool;

/// A pending parallel computation: items of type `T`, producing values
/// of type `R`.
pub struct ParIter<'a, T: Send, R: Send> {
    items: Vec<T>,
    /// The fused `map` chain.
    op: Box<dyn Fn(T) -> R + Sync + 'a>,
}

impl<'a, T: Send + 'a> ParIter<'a, T, T> {
    pub(crate) fn from_vec(items: Vec<T>) -> Self {
        ParIter {
            items,
            op: Box::new(|item| item),
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
            op: Box::new(move |item| g(op(item))),
        }
    }

    /// Collect into any `FromIterator` container, in input order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        pool::run_ordered(self.items, self.op).into_iter().collect()
    }
}
