//! Buffer-pool integration: loader-side glue for [`minato_pool`].
//!
//! With a pool configured (builder knob
//! [`pool_budget_bytes`](crate::loader::MinatoLoaderBuilder::pool_budget_bytes)
//! or a shared [`PoolSet`] via
//! [`pool`](crate::loader::MinatoLoaderBuilder::pool)), the loader's
//! delivery path stops paying the allocator per sample per stage:
//!
//! * loader and slow workers run the pipeline **in place**
//!   ([`Transform::apply_mut`](crate::transform::Transform::apply_mut)),
//!   with shape-changing stages drawing output buffers from the pool
//!   and recycling the buffers they replace;
//! * delivered batches carry a [`SampleRecycler`]: when the training
//!   loop drops a [`Batch`](crate::batch::Batch), every unconsumed
//!   sample hands its buffers back (the [`Reclaim`] impl of the sample
//!   type), closing the recycle loop — steady state, sample memory
//!   recirculates instead of churning through malloc/free.
//!
//! The pool keeps a returned buffer only where an acquire will take it
//! back (see [`minato_pool`]'s retention rule): with a cropping
//! pipeline, the crop outputs that dropped batches return are kept for
//! the next crops, while the source volumes the crop discards and the
//! cache-hit copies go back to the allocator. Resident pool memory thus
//! tracks the samples in flight, not the budget.
//!
//! Interaction with the cross-epoch sample cache: the cache stores
//! *clones* of delivered samples (fresh heap memory counted by the
//! cache's own byte budget), never the pool-backed buffers themselves,
//! so pool bytes and cache bytes are disjoint — enabling both never
//! double-counts a buffer.
//!
//! The pool is off by default; an unpooled loader executes the exact
//! by-value path and is byte-identical to builds that predate pooling.

pub use minato_pool::{
    AcquireObserver, BufferPool, PoolConfig, PoolGuard, PoolSet, PoolSetStats, PoolStats, Reclaim,
};

use std::sync::Arc;

/// The delivery-side recycle hook: consumes a dropped sample and
/// returns its buffers to wherever they came from.
///
/// Attached to every [`Batch`](crate::batch::Batch) the loader emits
/// when pooling is on; custom implementations can route buffers to
/// other allocators or count drops in tests.
pub trait SampleRecycler<S>: Send + Sync + 'static {
    /// Reclaims one sample's buffers.
    fn reclaim(&self, sample: S);
}

impl<S, F> SampleRecycler<S> for F
where
    F: Fn(S) + Send + Sync + 'static,
{
    fn reclaim(&self, sample: S) {
        self(sample)
    }
}

/// [`SampleRecycler`] over a [`PoolSet`], reclaiming via the sample
/// type's [`Reclaim`] implementation.
pub struct PoolRecycler {
    pools: Arc<PoolSet>,
}

impl PoolRecycler {
    /// Creates a recycler feeding `pools`.
    pub fn new(pools: Arc<PoolSet>) -> PoolRecycler {
        PoolRecycler { pools }
    }

    /// The pool set this recycler feeds.
    pub fn pools(&self) -> &Arc<PoolSet> {
        &self.pools
    }
}

impl<S: Reclaim> SampleRecycler<S> for PoolRecycler {
    fn reclaim(&self, sample: S) {
        sample.reclaim(&self.pools);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_recycler_routes_through_reclaim() {
        let pools = Arc::new(PoolSet::new(1 << 20));
        let r = PoolRecycler::new(Arc::clone(&pools));
        let _out = pools.f32s().acquire(256); // Demand for the return.
        SampleRecycler::<Vec<f32>>::reclaim(&r, vec![0.0; 256]);
        assert_eq!(pools.stats().f32s.recycled, 1);
    }

    #[test]
    fn closure_recycler_counts() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = Arc::clone(&n);
        let r = move |_s: u32| {
            n2.fetch_add(1, Ordering::Relaxed);
        };
        r.reclaim(7);
        assert_eq!(n.load(Ordering::Relaxed), 1);
    }
}
