//! Regression tests for the fast/slow split at the loader level:
//!
//! * the adaptive cutoff is enforced over the same interval it is
//!   measured on (the pipeline run, not load + pipeline), so a costly
//!   `load` does not push every sample down the slow path;
//! * once the sampler is drained, fast-role workers complete deferred
//!   samples instead of leaving the backlog to the slow workers alone;
//! * dropping a loader releases its runtime (dataset included).
//!
//! Every cost is a sleep, so the bounds hold on any core count.

use minato_core::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn sleep_step(name: &'static str, cost: Duration) -> Arc<dyn Transform<u32>> {
    fn_transform(name, move |x: u32| {
        std::thread::sleep(cost);
        Ok(x)
    })
}

/// A dataset whose `load` costs about as much as its uniform pipeline.
/// The P75 cutoff is profiled on pipeline time alone; enforcing it on
/// load + pipeline defers nearly every sample.
#[test]
fn costly_load_does_not_push_samples_down_the_slow_path() {
    let load_cost = Duration::from_micros(1200);
    let ds = FnDataset::new(240, move |i| {
        std::thread::sleep(load_cost);
        Ok(i as u32)
    });
    let step = Duration::from_micros(400);
    let p = Pipeline::new(vec![
        sleep_step("a", step),
        sleep_step("b", step),
        sleep_step("c", step),
    ]);
    let loader = MinatoLoader::builder(ds, p)
        .batch_size(8)
        .initial_workers(4)
        .max_workers(4)
        .slow_workers(1)
        .adaptive_workers(false)
        .shuffle(false)
        .build()
        .expect("valid configuration");
    let delivered: usize = loader.iter().map(|b| b.len()).sum();
    assert_eq!(delivered, 240);
    let stats = loader.stats();
    assert_eq!(stats.errors, 0);
    assert!(
        stats.timeout.is_some(),
        "the adaptive cutoff must be active after warm-up"
    );
    assert!(
        stats.slow_fraction <= 0.35,
        "a uniform pipeline must not be misclassified slow: slow_fraction {:.3} \
         (cutoff {:?})",
        stats.slow_fraction,
        stats.timeout
    );
}

/// Every sample is deferred after its cheap head step; the costly tail
/// step then runs on the slow path. One slow worker alone needs
/// `N × tail` to drain the backlog; with fast workers helping once the
/// sampler is drained, five workers share it.
#[test]
fn fast_workers_drain_the_deferred_backlog_at_the_epoch_tail() {
    const N: usize = 48;
    let head = Duration::from_millis(1);
    let tail = Duration::from_millis(8);
    let ds = VecDataset::new((0..N as u32).collect::<Vec<_>>());
    let p = Pipeline::new(vec![sleep_step("head", head), sleep_step("tail", tail)]);
    let t0 = Instant::now();
    let loader = MinatoLoader::builder(ds, p)
        .batch_size(4)
        .initial_workers(4)
        .max_workers(4)
        .slow_workers(1)
        .adaptive_workers(false)
        // Large enough that no producer ever blocks on the temp queue,
        // so the only helping is the tail drain under test.
        .queue_capacity(2 * N)
        .timeout_policy(TimeoutPolicy::Fixed(Duration::from_nanos(1)))
        .build()
        .expect("valid configuration");
    let mut seen = [0u32; N];
    for b in loader.iter() {
        for &s in &b.samples {
            seen[s as usize] += 1;
        }
    }
    let took = t0.elapsed();
    assert!(seen.iter().all(|&c| c == 1), "exactly-once delivery");
    let stats = loader.stats();
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.slow_flagged, N as u64, "every sample was deferred");
    let serial = tail * N as u32;
    assert!(
        took < serial / 2,
        "tail drain took {took:?}; one slow worker alone needs {serial:?}"
    );
}

/// Sets its flag when dropped.
struct DropFlag(Arc<AtomicBool>);

impl Drop for DropFlag {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Dropping a loader must release its runtime. The runtime's executor
/// handle reaches the registered roles, whose steps hold the runtime, so
/// an owned pool has to let go of its role table once its threads are
/// joined.
#[test]
fn dropped_loader_releases_its_dataset() {
    let modes = [
        ("fixed", ExecutorConfig::Fixed),
        ("elastic", ExecutorConfig::Elastic { threads: 3 }),
    ];
    for (mode, exec) in modes {
        for consume in [true, false] {
            let dropped = Arc::new(AtomicBool::new(false));
            let flag = DropFlag(Arc::clone(&dropped));
            let ds = FnDataset::new(64, move |i| {
                let _keep = &flag;
                Ok(i as u32)
            });
            let p = Pipeline::new(vec![fn_transform("id", |x: u32| Ok(x))]);
            let mut loader = MinatoLoader::builder(ds, p)
                .batch_size(8)
                .initial_workers(2)
                .max_workers(2)
                .executor(exec.clone())
                .build()
                .expect("valid configuration");
            if consume {
                let n: usize = loader.iter().map(|b| b.len()).sum();
                assert_eq!(n, 64, "[{mode}]");
                loader.shutdown();
                let exec_stats = loader.stats().exec.expect("owned pool stats");
                assert_eq!(
                    exec_stats.roles.len(),
                    3,
                    "[{mode}] stats after shutdown still list the roles"
                );
            }
            assert!(!dropped.load(Ordering::SeqCst), "[{mode}] loader alive");
            drop(loader);
            assert!(
                dropped.load(Ordering::SeqCst),
                "[{mode}] consume={consume}: dropping the loader leaked its dataset"
            );
        }
    }
}
