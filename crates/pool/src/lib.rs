//! # minato-pool
//!
//! Buffer recycling for the zero-allocation hot path.
//!
//! Every pipeline stage that materializes a fresh `Vec<f32>`/`Vec<u8>`
//! payload pays the allocator once per sample per stage — a k-stage
//! pipeline churns O(k) heap buffers per delivered sample, and the batch
//! consumer drops them all on the floor. This crate makes that memory
//! *recirculate* instead:
//!
//! * [`BufferPool<T>`] — size-classed, lock-striped free-lists of raw
//!   buffers with per-class byte budgets, thread-local fast slots, and
//!   hit / miss / recycled / dropped counters. Retention is bounded by
//!   demand: a returned buffer is kept only if its size class has a
//!   buffer out (acquired and not yet returned) that it can stand in
//!   for, so the pool holds what its acquires will take back and never
//!   more buffers per class than it has allocated. Everything else —
//!   a crop's discarded source, a copy of a size nobody acquires — is
//!   freed at once and counted in [`PoolStats::dropped`], as are returns
//!   refused by the byte budgets, which stay upper caps.
//! * [`Recycled`] (alias [`PoolGuard`]) — an RAII handle that derefs to
//!   the underlying `Vec<T>` and returns the memory to its pool on drop.
//! * [`PoolSet`] — the typed bundle (`f32` voxels/pixels/features plus
//!   `u8` label masks) the loader threads through
//!   `TransformCtx`, so kernels acquire scratch and return their old
//!   buffers without knowing which pool instance serves them.
//! * [`Reclaim`] — how a delivered sample hands its buffers back when
//!   the training loop drops the batch (the consumer side of the
//!   recycle loop).
//!
//! A pool with `budget_bytes == 0` is *disabled*: every acquire falls
//! through to a plain allocation and every recycle drops the buffer, so
//! default-off behavior is byte-identical to an unpooled build.

mod buffer;
mod set;

pub use buffer::{AcquireObserver, BufferPool, PoolConfig, PoolGuard, PoolStats, Recycled};
pub use set::{PoolSet, PoolSetStats, Reclaim};
