//! Benchmark-owned spans around the calls into each layer's public API.
//!
//! The traced run wraps the workload's `Dataset` and every `Transform` of
//! its pipeline, and the trainer times `build`, `next_batch` and drop. The
//! program's own code is not instrumented: these wrappers forward every
//! trait method, so the loader takes the same code path (pooled in-place
//! execution included) as in the untraced run.
//!
//! Exact per-layer totals live in atomics; the spans themselves are kept
//! in memory up to [`SPAN_CAP`] and written out as JSON lines when the run
//! ends. A sample span is keyed by `(epoch, index)`, where `epoch` is how
//! many times that index was loaded before in the round; it equals the
//! sampler epoch whenever every epoch loads every index, which holds
//! unless the sample cache serves some of them.

use minato_core::error::Result;
use minato_core::prelude::{CostClass, Dataset, InPlace, Outcome, Transform, TransformCtx};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Spans retained per traced round; totals stay exact beyond it.
pub const SPAN_CAP: usize = 1 << 16;

/// The layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Build,
    NextBatch,
    Drop,
    DatasetLoad,
    TransformApply,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Build => "loader.build",
            Layer::NextBatch => "loader.next_batch",
            Layer::Drop => "loader.drop",
            Layer::DatasetLoad => "dataset.load",
            Layer::TransformApply => "transform.apply",
        }
    }
}

/// How the spanned call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    Done,
    Interrupted,
    Error,
}

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    /// Pipeline step for transform spans, 0 otherwise.
    step: u32,
    epoch: u32,
    index: u64,
    start_ns: u64,
    dur_ns: u64,
    end: End,
}

/// One traced round's spans and per-layer totals.
pub struct SpanLog {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
    /// Loads so far per dataset index: the `epoch` key of the next load.
    loads_of: Vec<AtomicU32>,
    loads: AtomicU64,
    load_ns: AtomicU64,
    applies: AtomicU64,
    apply_ns: AtomicU64,
    interrupted: AtomicU64,
    interrupted_ns: AtomicU64,
}

/// Exact per-layer totals of one traced round.
#[derive(Debug, Clone, Copy)]
pub struct Totals {
    pub loads: u64,
    pub load_ns: u64,
    pub applies: u64,
    pub apply_ns: u64,
    pub interrupted: u64,
    pub interrupted_ns: u64,
}

impl SpanLog {
    /// An empty log for a dataset of `len` samples.
    pub fn new(len: usize) -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(SPAN_CAP)),
            dropped: AtomicU64::new(0),
            loads_of: (0..len).map(|_| AtomicU32::new(0)).collect(),
            loads: AtomicU64::new(0),
            load_ns: AtomicU64::new(0),
            applies: AtomicU64::new(0),
            apply_ns: AtomicU64::new(0),
            interrupted: AtomicU64::new(0),
            interrupted_ns: AtomicU64::new(0),
        }
    }

    /// Records a span that started at `t0` and ends now.
    pub fn record(&self, layer: Layer, step: u32, epoch: u32, index: u64, t0: Instant, end: End) {
        let dur = t0.elapsed();
        let span = Span {
            layer,
            step,
            epoch,
            index,
            start_ns: nanos(t0.saturating_duration_since(self.origin)),
            dur_ns: nanos(dur),
            end,
        };
        let mut spans = self.spans.lock().expect("span log poisoned by a panic");
        if spans.len() < SPAN_CAP {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn totals(&self) -> Totals {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        Totals {
            loads: get(&self.loads),
            load_ns: get(&self.load_ns),
            applies: get(&self.applies),
            apply_ns: get(&self.apply_ns),
            interrupted: get(&self.interrupted),
            interrupted_ns: get(&self.interrupted_ns),
        }
    }

    /// Spans that did not fit in memory.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The `epoch` key of the most recent load of `index`.
    fn epoch_of(&self, index: usize) -> u32 {
        self.loads_of
            .get(index)
            .map_or(0, |n| n.load(Ordering::Relaxed).saturating_sub(1))
    }

    /// Writes every retained span to `path` as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let spans = self.spans.lock().expect("span log poisoned by a panic");
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"layer\":\"{}\",\"step\":{},\"epoch\":{},\"index\":{},\"start_us\":{:.3},\"dur_us\":{:.3},\"end\":\"{}\"}}",
                s.layer.name(),
                s.step,
                s.epoch,
                s.index,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                match s.end {
                    End::Done => "done",
                    End::Interrupted => "interrupted",
                    End::Error => "error",
                }
            )?;
        }
        out.flush()
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A `Dataset` that spans every `load` and forwards every method.
pub struct TracedDataset<D> {
    pub inner: D,
    pub log: Arc<SpanLog>,
}

impl<D: Dataset> Dataset for TracedDataset<D> {
    type Sample = D::Sample;

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn load(&self, index: usize) -> Result<D::Sample> {
        let epoch = self
            .log
            .loads_of
            .get(index)
            .map_or(0, |n| n.fetch_add(1, Ordering::Relaxed));
        let t0 = Instant::now();
        let r = self.inner.load(index);
        let ns = nanos(t0.elapsed());
        self.log.loads.fetch_add(1, Ordering::Relaxed);
        self.log.load_ns.fetch_add(ns, Ordering::Relaxed);
        let end = if r.is_ok() { End::Done } else { End::Error };
        self.log
            .record(Layer::DatasetLoad, 0, epoch, index as u64, t0, end);
        r
    }

    fn size_hint_bytes(&self, index: usize) -> Option<u64> {
        self.inner.size_hint_bytes(index)
    }
}

/// A `Transform` that spans every `apply`/`apply_mut` and forwards every
/// method. `index_of` recovers the dataset index from a sample, for the
/// span key.
pub struct TracedTransform<T> {
    pub inner: Arc<dyn Transform<T>>,
    pub step: u32,
    pub log: Arc<SpanLog>,
    pub index_of: fn(&T) -> usize,
}

impl<T: Send + 'static> TracedTransform<T> {
    fn finish(&self, index: usize, t0: Instant, end: End) {
        let ns = nanos(t0.elapsed());
        self.log.applies.fetch_add(1, Ordering::Relaxed);
        self.log.apply_ns.fetch_add(ns, Ordering::Relaxed);
        if end == End::Interrupted {
            self.log.interrupted.fetch_add(1, Ordering::Relaxed);
            self.log.interrupted_ns.fetch_add(ns, Ordering::Relaxed);
        }
        let epoch = self.log.epoch_of(index);
        self.log.record(
            Layer::TransformApply,
            self.step,
            epoch,
            index as u64,
            t0,
            end,
        );
    }
}

impl<T: Send + 'static> Transform<T> for TracedTransform<T> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn apply(&self, input: T, ctx: &TransformCtx) -> Result<Outcome<T>> {
        let index = (self.index_of)(&input);
        let t0 = Instant::now();
        let r = self.inner.apply(input, ctx);
        let end = match &r {
            Ok(Outcome::Done(_)) => End::Done,
            Ok(Outcome::Interrupted(_)) => End::Interrupted,
            Err(_) => End::Error,
        };
        self.finish(index, t0, end);
        r
    }

    fn apply_mut(&self, sample: &mut T, ctx: &TransformCtx) -> Result<InPlace> {
        let index = (self.index_of)(sample);
        let t0 = Instant::now();
        let r = self.inner.apply_mut(sample, ctx);
        let end = match &r {
            // No in-place implementation: the pipeline calls `apply`
            // next, which records the span.
            Ok(InPlace::ByValue) => return r,
            Ok(InPlace::Done) => End::Done,
            Ok(InPlace::Interrupted) => End::Interrupted,
            Err(_) => End::Error,
        };
        self.finish(index, t0, end);
        r
    }

    fn cost_class(&self) -> CostClass {
        self.inner.cost_class()
    }

    fn is_barrier(&self) -> bool {
        self.inner.is_barrier()
    }
}
