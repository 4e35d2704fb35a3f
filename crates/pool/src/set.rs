//! The typed pool bundle the loader threads through its hot path, and
//! the [`Reclaim`] trait closing the recycle loop on the consumer side.

use crate::buffer::{AcquireObserver, BufferPool, PoolConfig, PoolStats};
use std::sync::Arc;

/// The buffer pools a preprocessing pipeline draws from: one for `f32`
/// payloads (pixels, voxels, waveforms, feature matrices) and one for
/// `u8` payloads (label masks, encoded bytes).
///
/// Built with a single byte budget that is split 7:1 between the `f32`
/// and `u8` pools (mirroring the voxel:label byte ratio of the
/// volumetric workload); use [`PoolSet::with_configs`] for custom
/// splits.
pub struct PoolSet {
    f32s: BufferPool<f32>,
    u8s: BufferPool<u8>,
}

impl PoolSet {
    /// Creates a pool set with `budget_bytes` of total capacity
    /// (0 = disabled).
    pub fn new(budget_bytes: u64) -> PoolSet {
        let u8_budget = budget_bytes / 8;
        PoolSet {
            f32s: BufferPool::new(PoolConfig::with_budget(budget_bytes - u8_budget)),
            u8s: BufferPool::new(PoolConfig::with_budget(u8_budget)),
        }
    }

    /// Creates a pool set from explicit per-pool configurations.
    pub fn with_configs(f32_cfg: PoolConfig, u8_cfg: PoolConfig) -> PoolSet {
        PoolSet {
            f32s: BufferPool::new(f32_cfg),
            u8s: BufferPool::new(u8_cfg),
        }
    }

    /// A pool set that recycles nothing (acquires allocate, recycles
    /// drop). Useful to engage in-place pipeline execution without
    /// retaining memory.
    pub fn disabled() -> PoolSet {
        PoolSet::new(0)
    }

    /// Whether any member pool can retain buffers.
    pub fn enabled(&self) -> bool {
        self.f32s.enabled() || self.u8s.enabled()
    }

    /// The `f32` buffer pool.
    pub fn f32s(&self) -> &BufferPool<f32> {
        &self.f32s
    }

    /// The `u8` buffer pool.
    pub fn u8s(&self) -> &BufferPool<u8> {
        &self.u8s
    }

    /// Installs an [`AcquireObserver`] on both member pools (tracing
    /// sees every acquire regardless of element type). First setter
    /// wins per pool; later calls are ignored.
    pub fn set_observer(&self, obs: Arc<dyn AcquireObserver>) {
        self.f32s.set_observer(Arc::clone(&obs));
        self.u8s.set_observer(obs);
    }

    /// Counter snapshot across both pools.
    pub fn stats(&self) -> PoolSetStats {
        PoolSetStats {
            f32s: self.f32s.stats(),
            u8s: self.u8s.stats(),
        }
    }
}

impl std::fmt::Debug for PoolSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolSet")
            .field("f32s", &self.f32s)
            .field("u8s", &self.u8s)
            .finish()
    }
}

/// Per-pool counter snapshots of a [`PoolSet`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolSetStats {
    /// Counters of the `f32` pool.
    pub f32s: PoolStats,
    /// Counters of the `u8` pool.
    pub u8s: PoolStats,
}

impl PoolSetStats {
    /// Both pools summed into one counter set.
    pub fn combined(&self) -> PoolStats {
        self.f32s.merged(&self.u8s)
    }
}

/// Hands a value's heap buffers back to the pools it (or its successors
/// in the pipeline) drew them from.
///
/// Implemented by sample types so the loader's delivery path can close
/// the recycle loop: when the training loop drops a delivered batch,
/// each unconsumed sample is reclaimed and its buffers become the next
/// samples' scratch memory. Types without poolable buffers implement
/// this as a no-op — reclaiming is always safe, never required.
pub trait Reclaim: Send + 'static {
    /// Consumes the value, recycling whatever buffers it owns.
    fn reclaim(self, pools: &PoolSet);
}

macro_rules! noop_reclaim {
    ($($t:ty),* $(,)?) => {$(
        impl Reclaim for $t {
            fn reclaim(self, _pools: &PoolSet) {}
        }
    )*};
}

noop_reclaim!(
    (),
    bool,
    char,
    u8,
    u16,
    u32,
    u64,
    u128,
    usize,
    i8,
    i16,
    i32,
    i64,
    i128,
    isize,
    f32,
    f64,
);

impl Reclaim for Vec<f32> {
    fn reclaim(self, pools: &PoolSet) {
        pools.f32s().recycle(self);
    }
}

impl Reclaim for Vec<u8> {
    fn reclaim(self, pools: &PoolSet) {
        pools.u8s().recycle(self);
    }
}

impl Reclaim for String {
    fn reclaim(self, pools: &PoolSet) {
        pools.u8s().recycle(self.into_bytes());
    }
}

impl<T: Reclaim> Reclaim for Option<T> {
    fn reclaim(self, pools: &PoolSet) {
        if let Some(v) = self {
            v.reclaim(pools);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_split_favors_f32() {
        let s = PoolSet::new(80);
        assert_eq!(s.f32s().config().budget_bytes, 70);
        assert_eq!(s.u8s().config().budget_bytes, 10);
        assert!(s.enabled());
        assert!(!PoolSet::disabled().enabled());
    }

    #[test]
    fn reclaim_routes_buffers_by_type() {
        let s = PoolSet::new(1 << 20);
        // Buffers out of both pools: demand for the returns below.
        let _out = (
            s.f32s().acquire(256),
            s.f32s().acquire(256),
            s.u8s().acquire(256),
        );
        vec![0.0f32; 256].reclaim(&s);
        vec![0u8; 256].reclaim(&s);
        7u32.reclaim(&s);
        Some(vec![0.0f32; 256]).reclaim(&s);
        let st = s.stats();
        assert_eq!(st.f32s.recycled, 2);
        assert_eq!(st.u8s.recycled, 1);
        assert_eq!(st.combined().recycled, 3);
    }

    #[test]
    fn disabled_set_reclaims_to_nowhere() {
        let s = PoolSet::disabled();
        vec![0.0f32; 256].reclaim(&s);
        assert_eq!(s.stats().combined().recycled, 0);
        assert_eq!(s.stats().combined().dropped, 1);
    }
}
