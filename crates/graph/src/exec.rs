//! Pluggable execution strategy for independent work items.
//!
//! Both simulation engines of `lcl_local` (`run_views`, `run_rounds`; that
//! crate re-exports this module's items) iterate over nodes whose
//! computations are independent by construction — the LOCAL model *is*
//! embarrassingly parallel within a round, and randomness comes from
//! per-`(run seed, node)` counter-mode streams rather than one shared
//! generator. The sharded store's writer
//! ([`crate::ShardedSnapshotWriter::finish_with`]) fans its independent
//! image jobs out the same way. A [`NodeExecutor`] decides how that work
//! is scheduled. The crate ships [`Sequential`]; `lcl-bench` provides a
//! rayon-backed executor. Because every executor must write result `i` to
//! slot `i` and node RNG streams never interleave, **any** executor yields
//! bit-identical outcomes to [`Sequential`] — the experiment engine's
//! determinism test enforces this.

/// Schedules independent per-node work items.
pub trait NodeExecutor {
    /// Computes `f(0), …, f(len - 1)` and returns the results in index
    /// order. `f` must be safe to call concurrently for distinct indices.
    fn map_nodes<T, F>(&self, len: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync;

    /// Applies `f(i, &mut items[i])` for every index. `f` must be safe to
    /// call concurrently for distinct indices.
    fn update_nodes<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync;

    /// [`NodeExecutor::map_nodes`] with per-worker scratch: each worker
    /// calls `init()` once and threads the value through its share of the
    /// indices. The scratch must be a pure accelerator (a cache, an
    /// arena): `f`'s results must not depend on how indices are grouped
    /// onto workers, or the bit-identical-under-any-executor guarantee is
    /// lost. The default creates a fresh scratch per index — correct for
    /// any conforming `f`, just without amortization; executors override
    /// it with real worker-scoped reuse.
    fn map_nodes_init<T, S, I, F>(&self, len: usize, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        self.map_nodes(len, |i| f(&mut init(), i))
    }
}

/// Runs every work item on the calling thread, in index order.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sequential;

impl NodeExecutor for Sequential {
    fn map_nodes<T, F>(&self, len: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        (0..len).map(f).collect()
    }

    fn update_nodes<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
    }

    fn map_nodes_init<T, S, I, F>(&self, len: usize, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        // One scratch for the whole sweep: the sequential executor is the
        // best case for cache-style scratch reuse.
        let mut scratch = init();
        (0..len).map(|i| f(&mut scratch, i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_maps_in_order() {
        let out = Sequential.map_nodes(5, |i| i * i);
        assert_eq!(out, vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn sequential_updates_in_place() {
        let mut items = vec![10u32, 20, 30];
        Sequential.update_nodes(&mut items, |i, x| *x += i as u32);
        assert_eq!(items, vec![10, 21, 32]);
    }

    #[test]
    fn map_nodes_init_shares_one_scratch_sequentially() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let out = Sequential.map_nodes_init(
            5,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u32
            },
            |scratch, i| {
                *scratch += 1; // scratch persists across items...
                i * 2 // ...but never leaks into results
            },
        );
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
        assert_eq!(inits.load(Ordering::Relaxed), 1);
    }
}
