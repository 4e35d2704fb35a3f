//! The zero-allocation hot path: buffer pooling + in-place transform
//! execution on the volumetric segmentation pipeline.
//!
//! With `pool_budget_bytes` set, the loader runs every stage through
//! `Transform::apply_mut` (shape-changing stages draw output buffers
//! from the pool), and each delivered batch hands its sample buffers
//! back when the training loop drops it — so at steady state sample
//! memory recirculates instead of churning through malloc/free.
//!
//! The pool keeps a returned buffer only where an acquire will take it
//! back: the crop's outputs come back with each dropped batch and are
//! kept, while the big source volumes the crop discards go straight to
//! the allocator. So the pool holds a few in-flight batches' worth of
//! memory, far below its budget.
//!
//! Run with: `cargo run --release --example pooled_hot_path`

use minato::core::prelude::*;
use minato::data::volume::{segmentation_pipeline, Volume3D};

fn main() {
    let n = 96usize;
    let epochs = 3usize;
    let budget = 256u64 << 20;
    let dataset = FnDataset::new(n, |i| {
        // Variable-sized CT volumes: 16³ – 40³ voxels (§3.2 size spread).
        let d = 16 + (i % 4) * 8;
        Ok(Volume3D::generate([d, d, d], i as u64))
    });
    let loader = MinatoLoader::builder(dataset, segmentation_pipeline([12, 12, 12]))
        .batch_size(8)
        .epochs(epochs)
        .initial_workers(3)
        .max_workers(4)
        .pool_budget_bytes(budget) // The knob that turns pooling on.
        .build()
        .expect("valid configuration");

    let mut samples = 0usize;
    let mut voxel_bytes = 0u64;
    for batch in loader.iter() {
        samples += batch.len();
        voxel_bytes += batch.samples.iter().map(Volume3D::nbytes).sum::<u64>();
        // The batch drops here — its buffers flow back into the pool and
        // become the next samples' memory.
    }
    assert_eq!(samples, n * epochs);

    let stats = loader.stats();
    let pools = stats.pool.expect("pooling enabled");
    let pool = pools.combined();
    println!(
        "delivered {samples} samples ({:.1} MiB of voxels)",
        voxel_bytes as f64 / (1 << 20) as f64
    );
    println!(
        "pool: {:.1}% hit rate, {} buffers recycled, {} dropped, {:.2} MiB resident of a {} MiB budget",
        pool.hit_rate() * 100.0,
        pool.recycled,
        pool.dropped,
        pool.bytes as f64 / (1 << 20) as f64,
        budget >> 20,
    );
    println!(
        "trace: pool hit% {}",
        loader.trace().pool_hit_pct.sparkline(40)
    );
    assert!(
        pool.recycled > 0,
        "the recycle loop must turn: dropped batches return the crop outputs"
    );
    assert!(
        pool.hit_rate() >= 0.5,
        "the crop must run mostly on returned outputs: {pool:?}"
    );
    // Every buffer the pool holds is a crop output it once allocated
    // (12³ voxels, served from the 2048-element class), none of the
    // discarded source volumes.
    assert!(
        pools.f32s.bytes <= pools.f32s.misses * 2048 * 4
            && pools.u8s.bytes <= pools.u8s.misses * 2048,
        "the pool must hold no more than the crop allocated: {pools:?}"
    );
}
