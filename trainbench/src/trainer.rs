//! The closed-loop simulated trainer and its delivery check.
//!
//! One thread stands in for one GPU: it calls `next_batch`, checks the
//! batch, then sleeps for a fixed step that stands in for accelerator
//! compute, and only then asks for the next batch. A slow loader therefore
//! shows up as time the trainer spends blocked in `next_batch`.

use crate::spans::{End, Layer, SpanLog};
use crate::sys;
use minato_baselines::torch::{TorchConfig, TorchLoader};
use minato_bench::alloc_counter;
use minato_core::prelude::{
    Batch, Dataset, LoaderError, LoaderStats, MinatoLoader, MonitorTrace, SampleMeta,
};
use std::time::{Duration, Instant};

/// Shape of one loader lifetime: what the trainer should receive.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub len: usize,
    pub epochs: usize,
    pub batch_size: usize,
    pub step: Duration,
    pub seed: u64,
}

impl Plan {
    pub fn samples(&self) -> u64 {
        (self.len * self.epochs) as u64
    }

    /// The plan of measured round `round`: same inputs, the shuffle seed
    /// derived from the run's seed and the round number.
    pub fn for_round(&self, round: usize) -> Plan {
        Plan {
            seed: crate::workloads::mix(self.seed ^ (round as u64 + 1).rotate_left(32)),
            ..*self
        }
    }
}

/// Checks that a round delivers every dataset index exactly once per
/// epoch, in batches of the planned size, each sample fully preprocessed.
struct Checker {
    plan: Plan,
    /// `seen[epoch * len + index]`.
    seen: Vec<bool>,
    duplicates: u64,
    bad_content: u64,
    bad_meta: u64,
    odd_sized_batches: Vec<usize>,
}

impl Checker {
    fn new(plan: Plan) -> Checker {
        Checker {
            plan,
            seen: vec![false; plan.len * plan.epochs],
            duplicates: 0,
            bad_content: 0,
            bad_meta: 0,
            odd_sized_batches: Vec::new(),
        }
    }

    fn batch<S>(
        &mut self,
        samples: &[S],
        meta: &[SampleMeta],
        ok: &dyn Fn(&S, &SampleMeta) -> bool,
    ) {
        if samples.len() != self.plan.batch_size {
            self.odd_sized_batches.push(samples.len());
        }
        if samples.len() != meta.len() {
            self.bad_meta += samples.len().abs_diff(meta.len()) as u64;
        }
        for (s, m) in samples.iter().zip(meta) {
            if m.index >= self.plan.len || m.epoch >= self.plan.epochs {
                self.bad_meta += 1;
                continue;
            }
            let slot = &mut self.seen[m.epoch * self.plan.len + m.index];
            if *slot {
                self.duplicates += 1;
            }
            *slot = true;
            if !ok(s, m) {
                self.bad_content += 1;
            }
        }
    }

    /// Failed samples: missing, duplicated, malformed or wrongly batched.
    fn failures(&self) -> u64 {
        let missing = self.seen.iter().filter(|s| !**s).count() as u64;
        // Only the final batch of a round may be short, and only by the
        // remainder of the sample count.
        let remainder = (self.plan.len * self.plan.epochs) % self.plan.batch_size;
        let bad_batches = match self.odd_sized_batches.as_slice() {
            [] => 0,
            [n] if *n == remainder => 0,
            all => all.len() as u64,
        };
        missing + self.duplicates + self.bad_content + self.bad_meta + bad_batches
    }
}

/// What one loader lifetime measured.
pub struct Round {
    pub setup_s: f64,
    pub wall_s: f64,
    pub samples: u64,
    pub waits_ms: Vec<f64>,
    pub idle_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mib: f64,
    /// Resident set after the loader was dropped minus before it was
    /// built: memory one loader lifetime leaves behind.
    pub rss_growth_mib: f64,
    pub allocs: u64,
    pub shutdown_ms: f64,
    pub failures: u64,
    pub stats: Option<LoaderStats>,
    pub monitor: Option<MonitorTrace>,
}

impl Round {
    pub fn samples_per_s(&self) -> f64 {
        self.samples as f64 / self.wall_s
    }

    pub fn idle_frac(&self) -> f64 {
        self.idle_s / self.wall_s
    }

    pub fn cpu_ms_per_sample(&self) -> f64 {
        self.cpu_s * 1e3 / self.samples as f64
    }

    fn failed(plan: &Plan, setup_s: f64) -> Round {
        Round {
            setup_s,
            wall_s: f64::NAN,
            samples: 0,
            waits_ms: Vec::new(),
            idle_s: 0.0,
            cpu_s: 0.0,
            peak_rss_mib: 0.0,
            rss_growth_mib: 0.0,
            allocs: 0,
            shutdown_ms: 0.0,
            failures: plan.samples(),
            stats: None,
            monitor: None,
        }
    }
}

/// Process counters sampled at the start of a round.
struct Start {
    cpu_s: f64,
    rss_mib: f64,
    allocs: u64,
}

impl Start {
    fn now() -> Start {
        sys::reset_peak_rss();
        Start {
            cpu_s: sys::process_cpu_s(),
            rss_mib: sys::rss_mib(),
            allocs: alloc_counter::allocations(),
        }
    }
}

/// The trainer's side of one round: pops until the loader is exhausted.
struct Consumed {
    t0: Instant,
    last_batch: Instant,
    samples: u64,
    waits_ms: Vec<f64>,
    idle: Duration,
    checker: Checker,
}

fn consume<S: 'static>(
    plan: &Plan,
    mut next: impl FnMut() -> Option<Batch<S>>,
    ok: &dyn Fn(&S, &SampleMeta) -> bool,
    spans: Option<&SpanLog>,
) -> Consumed {
    let t0 = Instant::now();
    let mut c = Consumed {
        t0,
        last_batch: t0,
        samples: 0,
        waits_ms: Vec::with_capacity(plan.samples() as usize / plan.batch_size + 1),
        idle: Duration::ZERO,
        checker: Checker::new(*plan),
    };
    loop {
        let w0 = Instant::now();
        let batch = next();
        let wait = w0.elapsed();
        if let Some(log) = spans {
            log.record(
                Layer::NextBatch,
                0,
                0,
                c.waits_ms.len() as u64,
                w0,
                End::Done,
            );
        }
        let Some(batch) = batch else { break };
        c.last_batch = Instant::now();
        c.idle += wait;
        c.waits_ms.push(wait.as_secs_f64() * 1e3);
        c.samples += batch.len() as u64;
        c.checker.batch(&batch.samples, &batch.meta, ok);
        // Dropping the batch hands pooled buffers back, as a training
        // step that is done with its inputs would.
        drop(batch);
        if !plan.step.is_zero() {
            std::thread::sleep(plan.step);
        }
    }
    c
}

/// Runs one `MinatoLoader` lifetime: `build` is timed as set-up, the
/// trainer consumes every batch, then the loader is dropped.
pub fn minato_round<D: Dataset>(
    plan: &Plan,
    build: impl FnOnce() -> minato_core::prelude::Result<MinatoLoader<D>>,
    ok: &dyn Fn(&D::Sample, &SampleMeta) -> bool,
    spans: Option<&SpanLog>,
) -> Round {
    let start = Start::now();
    let b0 = Instant::now();
    let built = build();
    let setup_s = b0.elapsed().as_secs_f64();
    if let Some(log) = spans {
        log.record(Layer::Build, 0, 0, 0, b0, End::Done);
    }
    let loader = match built {
        Ok(l) => l,
        Err(e) => {
            eprintln!("minato build failed: {e}");
            return Round::failed(plan, setup_s);
        }
    };
    let c = consume(plan, || loader.next_batch(0), ok, spans);
    let stats = loader.stats();
    let monitor = loader.trace();
    let errors = loader_errors("minato", stats.errors, loader.first_error());
    let d0 = Instant::now();
    drop(loader);
    let shutdown_ms = d0.elapsed().as_secs_f64() * 1e3;
    if let Some(log) = spans {
        log.record(Layer::Drop, 0, 0, 0, d0, End::Done);
    }
    Round {
        setup_s,
        wall_s: c.last_batch.duration_since(c.t0).as_secs_f64(),
        samples: c.samples,
        idle_s: c.idle.as_secs_f64(),
        cpu_s: sys::process_cpu_s() - start.cpu_s,
        peak_rss_mib: sys::peak_rss_mib(),
        rss_growth_mib: sys::rss_mib() - start.rss_mib,
        allocs: alloc_counter::allocations() - start.allocs,
        shutdown_ms,
        failures: c.checker.failures() + errors,
        waits_ms: c.waits_ms,
        stats: Some(stats),
        monitor: Some(monitor),
    }
}

/// Runs one `TorchLoader` lifetime on the same inputs, seed and step.
pub fn torch_round<D: Dataset>(
    plan: &Plan,
    dataset: D,
    pipeline: minato_core::prelude::Pipeline<D::Sample>,
    workers: usize,
    ok: &dyn Fn(&D::Sample, &SampleMeta) -> bool,
) -> Round {
    let start = Start::now();
    let b0 = Instant::now();
    let cfg = TorchConfig {
        batch_size: plan.batch_size,
        num_workers: workers,
        epochs: plan.epochs,
        seed: plan.seed,
        ..TorchConfig::default()
    };
    let built = TorchLoader::new(dataset, pipeline, cfg);
    let setup_s = b0.elapsed().as_secs_f64();
    let loader = match built {
        Ok(l) => l,
        Err(e) => {
            eprintln!("torch build failed: {e}");
            return Round::failed(plan, setup_s);
        }
    };
    let c = consume(plan, || loader.next_batch(), ok, None);
    let errors = loader_errors("torch", loader.errors(), loader.first_error());
    let d0 = Instant::now();
    drop(loader);
    let shutdown_ms = d0.elapsed().as_secs_f64() * 1e3;
    Round {
        setup_s,
        wall_s: c.last_batch.duration_since(c.t0).as_secs_f64(),
        samples: c.samples,
        idle_s: c.idle.as_secs_f64(),
        cpu_s: sys::process_cpu_s() - start.cpu_s,
        peak_rss_mib: sys::peak_rss_mib(),
        rss_growth_mib: sys::rss_mib() - start.rss_mib,
        allocs: alloc_counter::allocations() - start.allocs,
        shutdown_ms,
        failures: c.checker.failures() + errors,
        waits_ms: c.waits_ms,
        stats: None,
        monitor: None,
    }
}

/// Errors a loader reported: its skipped-error count, or 1 when only a
/// first error was kept. The first error is printed.
fn loader_errors(loader: &str, counted: u64, first: Option<LoaderError>) -> u64 {
    if let Some(e) = &first {
        eprintln!("{loader} loader error: {e}");
    }
    counted.max(u64::from(first.is_some()))
}
