//! Pluggable execution strategy for independent work items.
//!
//! `lcl_local`'s round engine (`run_rounds`; that crate re-exports this
//! module's items) and the executor-threaded algorithm runners iterate
//! over nodes whose computations are independent by construction — the
//! LOCAL model *is* embarrassingly parallel within a round, and randomness
//! comes from per-`(run seed, LOCAL id)` counter-mode streams rather than
//! one shared generator. The sharded store's writer
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
}
