//! trainbench: a closed-loop trainer driving `MinatoLoader` and the
//! `TorchLoader` baseline on the same generated inputs.
//!
//! ```text
//! cargo run --release --manifest-path trainbench/Cargo.toml -- \
//!     --workload speech_tail --seed 1 --seconds 45 --trace 0
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with tracing off;
//! with `--trace 1` it adds traced rounds and reports per-layer metrics.
//! Every metric is printed with its unit, the run's settings are printed
//! above them, and the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Any delivery or
//! content failure, loader error or panic makes the exit code non-zero.

mod report;
mod spans;
mod sys;
mod trainer;
mod workloads;

use minato_bench::bench_all::queue_stress;
use minato_core::prelude::{
    Dataset, LoaderStats, MinatoLoader, MinatoLoaderBuilder, Pipeline, QueueCore, SampleMeta,
    TraceConfig, Transform,
};
use report::{median, quantile, tail_permille, Metric};
use spans::{SpanLog, Totals, TracedDataset, TracedTransform};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trainer::{minato_round, torch_round, Plan, Round};
use workloads::{KitsVolumes, SpeechTail, Workers, Workload};

/// Counts heap allocations for `mem.allocs_per_sample`. It is the global
/// allocator of the whole process, so untraced and traced rounds and both
/// loaders pay the same counter updates.
#[global_allocator]
static ALLOC: minato_bench::alloc_counter::CountingAlloc =
    minato_bench::alloc_counter::CountingAlloc;

/// Panics seen on any thread, loader pool threads included.
static PANICS: AtomicU64 = AtomicU64::new(0);

/// Measured round pairs (or triples when traced) a run makes at least,
/// however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// Loaders built and dropped unused after each measured Minato round, so
/// the set-up median rests on many builds.
const SETUP_REPS: usize = 3;

/// A run still measuring this long after its `--seconds` has stalled.
const STALL_GRACE: Duration = Duration::from_secs(120);

/// Raw MPMC operations per `queue_stress` repetition.
const QUEUE_STRESS_OPS: u64 = 200_000;

const USAGE: &str = "usage: trainbench --workload <speech_tail|kits_volumes> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn install_panic_hook() {
    std::panic::set_hook(Box::new(|info| {
        PANICS.fetch_add(1, Ordering::SeqCst);
        let thread = std::thread::current();
        eprintln!(
            "panic on thread '{}': {info}",
            thread.name().unwrap_or("<unnamed>")
        );
    }));
}

/// Ends the process with a failure if it has not finished by `limit`: a
/// loader that never delivers its last batch (the in-order baseline waits
/// forever for a batch whose worker panicked) must not hang the run. The
/// thread is not joined; returning from `main` ends it.
fn arm_watchdog(limit: Duration) {
    std::thread::Builder::new()
        .name("trainbench-watchdog".into())
        .spawn(move || {
            std::thread::sleep(limit);
            eprintln!(
                "trainbench: no result after {limit:?}: a loader stalled ({} panics so far)",
                PANICS.load(Ordering::SeqCst)
            );
            std::process::exit(3);
        })
        .expect("spawn the watchdog thread");
}

fn main() -> ExitCode {
    install_panic_hook();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("trainbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    arm_watchdog(Duration::from_secs_f64(args.seconds) + STALL_GRACE);
    let result = match args.workload.as_str() {
        "speech_tail" => run(&SpeechTail::new(args.seed), &args),
        "kits_volumes" => run(&KitsVolumes::new(args.seed), &args),
        other => {
            eprintln!("trainbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let panics = PANICS.load(Ordering::SeqCst);
    let unmeasured = result
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .count() as u64;
    let failed = result.failed + panics + unmeasured;
    println!(
        "{:<34} {:>16} {:<10} {} of {} samples attempted failed; {} panics; {} unmeasured metrics",
        "failed_frac",
        format!("{:.6}", failed as f64 / result.attempted.max(1) as f64),
        "fraction",
        result.failed,
        result.attempted,
        panics,
        unmeasured
    );
    let correct = failed == 0;
    report::print(&result.metrics, result.attempted, failed, correct);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

struct RunResult {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

/// The builder every Minato round starts from: shared settings plus the
/// workload's own layers. Shared executor pools are not used: dropping
/// the last handle from a pool thread can make it join itself.
fn builder<W: Workload, D: Dataset<Sample = W::S>>(
    w: &W,
    dataset: D,
    pipeline: Pipeline<W::S>,
    plan: &Plan,
    workers: Workers,
) -> MinatoLoaderBuilder<D> {
    w.layers(
        MinatoLoader::builder(dataset, pipeline)
            .batch_size(plan.batch_size)
            .epochs(plan.epochs)
            .seed(plan.seed)
            .initial_workers(workers.loader)
            .max_workers(workers.loader)
            .slow_workers(workers.slow)
            .batch_workers(workers.batch),
    )
}

/// One traced Minato round: benchmark-owned spans around the dataset, every
/// transform and the loader calls, plus the loader's histogram tracing.
fn traced_round<W: Workload>(
    w: &W,
    dataset: Arc<dyn Dataset<Sample = W::S>>,
    pipeline: &Pipeline<W::S>,
    plan: &Plan,
    workers: Workers,
    ok: &dyn Fn(&W::S, &SampleMeta) -> bool,
) -> (Round, Arc<SpanLog>) {
    let log = Arc::new(SpanLog::new(plan.len));
    let dataset = TracedDataset {
        inner: dataset,
        log: Arc::clone(&log),
    };
    let steps = pipeline
        .steps()
        .iter()
        .enumerate()
        .map(|(i, inner)| {
            Arc::new(TracedTransform {
                inner: Arc::clone(inner),
                step: i as u32,
                log: Arc::clone(&log),
                index_of: W::index_of,
            }) as Arc<dyn Transform<W::S>>
        })
        .collect();
    let round = minato_round(
        plan,
        || {
            builder(w, dataset, Pipeline::new(steps), plan, workers)
                .trace(TraceConfig::histograms_only())
                .build()
        },
        ok,
        Some(&log),
    );
    (round, log)
}

fn run<W: Workload>(w: &W, args: &Args) -> RunResult {
    let nproc = sys::nproc();
    let workers = Workers::for_cores(nproc);
    let plan = w.plan();
    let dataset = w.dataset();
    let pipeline = w.pipeline();
    let ok = |s: &W::S, m: &SampleMeta| w.check(s, m);
    println!(
        "trainbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "settings nproc={nproc} executor=fixed minato_initial_workers={} minato_max_workers={} \
         minato_slow_workers={} minato_batch_workers={} torch_num_workers={} {}",
        workers.loader,
        workers.loader,
        workers.slow,
        workers.batch,
        workers.loader,
        w.settings()
    );

    let minato = |plan: &Plan| {
        minato_round(
            plan,
            || builder(w, Arc::clone(&dataset), pipeline.clone(), plan, workers).build(),
            &ok,
            None,
        )
    };
    let torch = |plan: &Plan| {
        torch_round(
            plan,
            Arc::clone(&dataset),
            pipeline.clone(),
            workers.loader,
            &ok,
        )
    };

    let mut tally = RunResult {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let count = |r: Round, tally: &mut RunResult| {
        tally.attempted += plan.samples();
        tally.failed += r.failures;
        r
    };
    // Warm-up, one round of each loader: lazy set-up and allocator growth
    // happen here. The first Minato round of the process is also the only
    // one whose resident set no earlier loader lifetime can have inflated,
    // so peak RSS is taken from it.
    let first = count(minato(&plan), &mut tally);
    let first_torch = count(torch(&plan), &mut tally);
    // Torch rounds repeat so both loaders get similar measured time.
    let torch_reps = (first.wall_s / first_torch.wall_s).round().clamp(1.0, 8.0) as usize;
    let mut setups = vec![first.setup_s];
    let mut untraced = Vec::new();
    let mut baseline = Vec::new();
    let mut traced = Vec::new();
    let mut totals = Vec::new();
    let mut last_log = None;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut i = 0;
    while i < MIN_ROUNDS || Instant::now() < deadline {
        // Each round shuffles in its own order, so a run's medians average
        // over orders instead of hanging on the one its seed picks. Both
        // loaders see the same order in a round.
        let plan = plan.for_round(i);
        // Alternate which loader runs first, so drift over the run
        // affects both alike.
        if i % 2 == 1 {
            baseline.extend((0..torch_reps).map(|_| count(torch(&plan), &mut tally)));
        }
        let r = count(minato(&plan), &mut tally);
        setups.push(r.setup_s);
        untraced.push(r);
        if i % 2 == 0 {
            baseline.extend((0..torch_reps).map(|_| count(torch(&plan), &mut tally)));
        }
        // Extra set-ups: the loader is dropped as soon as it is built.
        for _ in 0..SETUP_REPS {
            let b0 = Instant::now();
            let built = builder(w, Arc::clone(&dataset), pipeline.clone(), &plan, workers).build();
            setups.push(b0.elapsed().as_secs_f64());
            if let Err(e) = built {
                eprintln!("minato build failed: {e}");
                tally.failed += 1;
            }
        }
        if args.trace {
            let (r, log) = traced_round(w, Arc::clone(&dataset), &pipeline, &plan, workers, &ok);
            totals.push(log.totals());
            traced.push(count(r, &mut tally));
            last_log = Some(log);
        }
        i += 1;
    }
    println!(
        "rounds minato={} torch={} traced={} setups={} (plus one warm-up round of each loader)",
        untraced.len(),
        baseline.len(),
        traced.len(),
        setups.len()
    );

    let metrics = if args.trace {
        let log = last_log.expect("traced rounds ran");
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}.spans.jsonl", args.workload));
        match log.write_jsonl(&path) {
            Ok(()) => println!(
                "spans of the last traced round written to {} ({} beyond the in-memory cap not kept)",
                path.display(),
                log.dropped()
            ),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
        print_stages(traced.last().expect("traced rounds ran"));
        layer_metrics(w, nproc, workers, &untraced, &traced, &totals, &baseline)
    } else {
        end_to_end_metrics(&plan, &first, &untraced, &baseline, &setups)
    };
    tally.metrics = metrics;
    tally
}

/// The loader's own per-stage latency rows (histogram tracing) of one
/// traced round.
fn print_stages(r: &Round) {
    let rows = r.stats.as_ref().and_then(|s| s.latency.as_ref());
    for row in rows
        .iter()
        .flat_map(|l| l.stages.iter().chain(&l.end_to_end))
    {
        println!(
            "stage {:<24} count {:>8}  p50 {:.4} ms  p95 {:.4} ms  p99 {:.4} ms",
            row.stage, row.count, row.p50_ms, row.p95_ms, row.p99_ms
        );
    }
}

fn per_round(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

fn tail_ms(r: &Round) -> f64 {
    quantile(&r.waits_ms, tail_permille(r.waits_ms.len()) as f64 / 1000.0)
}

fn end_to_end_metrics(
    plan: &Plan,
    first: &Round,
    minato: &[Round],
    torch: &[Round],
    setups: &[f64],
) -> Vec<Metric> {
    let n = minato.len();
    let batches = (plan.samples() as usize).div_ceil(plan.batch_size);
    let tail_pm = tail_permille(batches);
    let med = format!("median of {n} rounds");
    let sps = per_round(minato, Round::samples_per_s);
    let torch_sps = per_round(torch, Round::samples_per_s);
    vec![
        Metric::new(
            "samples_per_s",
            sps,
            "samples/s",
            format!("{med}; build() return to last batch"),
        ),
        Metric::new(
            "trainer_idle_frac",
            per_round(minato, Round::idle_frac),
            "fraction",
            format!("{med}; time blocked in next_batch / wall"),
        ),
        Metric::new(
            "batch_wait_p50_ms",
            per_round(minato, |r| median(&r.waits_ms)),
            "ms",
            format!("{med}; per-round median of {batches} batch waits"),
        ),
        Metric::new(
            "batch_wait_tail_ms",
            per_round(minato, tail_ms),
            "ms",
            format!(
                "{med}; per-round p{} of {batches} batch waits",
                tail_pm as f64 / 10.0
            ),
        ),
        Metric::new(
            "cpu_ms_per_sample",
            per_round(minato, Round::cpu_ms_per_sample),
            "ms",
            format!("{med}; process user+sys CPU, build to drop"),
        ),
        Metric::new(
            "setup_s",
            median(setups),
            "s",
            format!(
                "median of {} builds; builder() to build() return",
                setups.len()
            ),
        ),
        Metric::new(
            "peak_rss_mb",
            first.peak_rss_mib,
            "MiB",
            "VmHWM over the process's first Minato round, reset before it",
        ),
        Metric::new(
            "speedup_vs_torch",
            sps / torch_sps,
            "ratio",
            format!(
                "samples_per_s / torch median {torch_sps:.3} samples/s over {} rounds",
                torch.len()
            ),
        ),
    ]
}

fn layer_metrics<W: Workload>(
    w: &W,
    nproc: usize,
    workers: Workers,
    untraced: &[Round],
    traced: &[Round],
    totals: &[Totals],
    torch: &[Round],
) -> Vec<Metric> {
    let n = traced.len();
    let med = format!("median of {n} traced rounds");
    // Every traced round carries loader stats; `per_round` over a field
    // that a layer does not report yields 0 for that layer.
    let stat = |f: &dyn Fn(&LoaderStats, f64) -> f64| {
        per_round(traced, |r| {
            let stats = r.stats.as_ref().expect("minato rounds keep stats");
            f(stats, r.samples as f64)
        })
    };
    let stage_p99 = |stage: &str| {
        stat(&|s, _| {
            s.latency
                .as_ref()
                .and_then(|l| l.stage(stage))
                .map_or(0.0, |row| row.p99_ms)
        })
    };
    let monitor = |f: &dyn Fn(&[f64]) -> f64| {
        per_round(traced, |r| {
            f(r.monitor
                .as_ref()
                .expect("minato rounds keep a monitor trace")
                .workers
                .values())
        })
    };
    let traced_sps = per_round(traced, Round::samples_per_s);
    let untraced_sps = per_round(untraced, Round::samples_per_s);
    let mpmc_ns = median(
        &(0..3)
            .map(|_| {
                let row = queue_stress(QueueCore::LockFree.from_env_or(), nproc, QUEUE_STRESS_OPS);
                1e9 / row.ops_per_s
            })
            .collect::<Vec<_>>(),
    );
    let sim = w.sim_speedup(nproc, workers);
    let mib = |bytes: u64| bytes as f64 / (1u64 << 20) as f64;
    // Span totals per delivered sample, and ratios of span totals.
    let per_sample = |f: &dyn Fn(&Totals) -> f64| {
        median(
            &traced
                .iter()
                .zip(totals)
                .map(|(r, t)| f(t) / r.samples as f64)
                .collect::<Vec<_>>(),
        )
    };
    let share = |num: &dyn Fn(&Totals) -> u64, den: &dyn Fn(&Totals) -> u64| {
        median(
            &totals
                .iter()
                .map(|t| {
                    if den(t) == 0 {
                        0.0
                    } else {
                        num(t) as f64 / den(t) as f64
                    }
                })
                .collect::<Vec<_>>(),
        )
    };
    vec![
        Metric::new(
            "dataset.loads_per_sample",
            per_sample(&|t| t.loads as f64),
            "count",
            format!("{med}; Dataset::load calls / delivered samples"),
        ),
        Metric::new(
            "dataset.load_us_per_sample",
            per_sample(&|t| t.load_ns as f64 / 1e3),
            "us",
            format!("{med}; time in Dataset::load / delivered samples"),
        ),
        Metric::new(
            "transform.busy_us_per_sample",
            per_sample(&|t| t.apply_ns as f64 / 1e3),
            "us",
            format!("{med}; time in Transform::apply(_mut) / delivered samples"),
        ),
        Metric::new(
            "transform.interrupted_frac",
            share(&|t| t.interrupted, &|t| t.applies),
            "fraction",
            format!("{med}; applies that returned Interrupted / all applies"),
        ),
        Metric::new(
            "transform.wasted_frac",
            share(&|t| t.interrupted_ns, &|t| t.apply_ns),
            "fraction",
            format!("{med}; time in interrupted applies / all apply time"),
        ),
        Metric::new(
            "balancer.slow_frac",
            stat(&|s, _| s.slow_fraction),
            "fraction",
            med.clone(),
        ),
        Metric::new(
            "balancer.cutoff_ms",
            stat(&|s, _| s.timeout.map_or(0.0, |t| t.as_secs_f64() * 1e3)),
            "ms",
            format!("{med}; cutoff at the end of the round, 0 = none"),
        ),
        Metric::new(
            "scheduler.mean_workers",
            monitor(&|v| {
                if v.is_empty() {
                    0.0
                } else {
                    v.iter().sum::<f64>() / v.len() as f64
                }
            }),
            "count",
            format!("{med}; mean of MonitorTrace.workers"),
        ),
        Metric::new(
            "scheduler.worker_changes",
            monitor(&|v| v.windows(2).filter(|p| p[0] != p[1]).count() as f64),
            "count",
            format!("{med}; changes in MonitorTrace.workers"),
        ),
        Metric::new(
            "queue.locks_per_sample",
            stat(&|s, n| s.queue_lock_acquisitions as f64 / n),
            "count",
            med.clone(),
        ),
        Metric::new(
            "queue.cas_retries_per_sample",
            stat(&|s, n| s.queue_cas_retries as f64 / n),
            "count",
            med.clone(),
        ),
        Metric::new(
            "queue.fast_wait_p99_ms",
            stage_p99("fast_q_wait"),
            "ms",
            format!("{med}; loader trace histogram, 0 = no row"),
        ),
        Metric::new(
            "queue.temp_wait_p99_ms",
            stage_p99("temp_q_wait"),
            "ms",
            format!("{med}; loader trace histogram, 0 = no row"),
        ),
        Metric::new(
            "queue.batch_wait_p99_ms",
            stage_p99("batch_q[0]_wait"),
            "ms",
            format!("{med}; loader trace histogram, 0 = no row"),
        ),
        Metric::new(
            "queue.mpmc_ns_per_op",
            mpmc_ns,
            "ns",
            format!("median of 3 queue_stress runs, {nproc} threads, default core"),
        ),
        Metric::new(
            "exec.steals_per_sample",
            stat(&|s, n| s.exec.as_ref().map_or(0.0, |e| e.steals as f64 / n)),
            "count",
            med.clone(),
        ),
        Metric::new(
            "exec.role_switches",
            stat(&|s, _| s.exec.as_ref().map_or(0.0, |e| e.role_switches as f64)),
            "count",
            med.clone(),
        ),
        Metric::new(
            "loader.delivery_p50_ms",
            stat(&|s, _| s.delivery_ms.median),
            "ms",
            format!("{med}; LoaderStats.delivery_ms"),
        ),
        Metric::new(
            "loader.delivery_p99_ms",
            stat(&|s, _| s.delivery_ms.p99),
            "ms",
            format!("{med}; LoaderStats.delivery_ms"),
        ),
        Metric::new(
            "loader.shutdown_ms",
            per_round(traced, |r| r.shutdown_ms),
            "ms",
            format!("{med}; time to drop the loader"),
        ),
        Metric::new(
            "cache.hit_rate",
            stat(&|s, _| s.cache.as_ref().map_or(0.0, |c| c.hit_rate())),
            "fraction",
            format!("{med}; 0 = cache off"),
        ),
        Metric::new(
            "cache.insertions_per_sample",
            stat(&|s, n| s.cache.as_ref().map_or(0.0, |c| c.insertions as f64 / n)),
            "count",
            format!("{med}; 0 = cache off"),
        ),
        Metric::new(
            "cache.evictions_per_sample",
            stat(&|s, n| s.cache.as_ref().map_or(0.0, |c| c.evictions as f64 / n)),
            "count",
            format!("{med}; 0 = cache off"),
        ),
        Metric::new(
            "cache.resident_mb",
            stat(&|s, _| s.cache.as_ref().map_or(0.0, |c| mib(c.bytes))),
            "MiB",
            format!("{med}; 0 = cache off"),
        ),
        Metric::new(
            "pool.hit_rate",
            stat(&|s, _| s.pool.as_ref().map_or(0.0, |p| p.combined().hit_rate())),
            "fraction",
            format!("{med}; 0 = pool off"),
        ),
        Metric::new(
            "pool.resident_mb",
            stat(&|s, _| s.pool.as_ref().map_or(0.0, |p| mib(p.combined().bytes))),
            "MiB",
            format!("{med}; 0 = pool off"),
        ),
        Metric::new(
            "mem.allocs_per_sample",
            per_round(untraced, |r| r.allocs as f64 / r.samples as f64),
            "count",
            format!(
                "median of {} untraced rounds; heap allocations, build to drop",
                untraced.len()
            ),
        ),
        Metric::new(
            "mem.rss_growth_mb_per_round",
            per_round(untraced, |r| r.rss_growth_mib),
            "MiB",
            format!(
                "median of {} untraced rounds; VmRSS after drop minus before build",
                untraced.len()
            ),
        ),
        Metric::new(
            "trace.overhead_frac",
            1.0 - traced_sps / untraced_sps,
            "fraction",
            format!("1 - traced/untraced samples_per_s ({traced_sps:.3} / {untraced_sps:.3})"),
        ),
        Metric::new(
            "trace.dropped",
            per_round(traced, |r| {
                r.stats
                    .as_ref()
                    .and_then(|s| s.trace.as_ref())
                    .map_or(0.0, |t| t.total_dropped() as f64)
            }),
            "count",
            format!("{med}; loader trace events lost to full rings"),
        ),
        Metric::new(
            "baselines.torch_samples_per_s",
            per_round(torch, Round::samples_per_s),
            "samples/s",
            format!("median of {} torch rounds", torch.len()),
        ),
        Metric::new(
            "baselines.torch_batch_wait_tail_ms",
            per_round(torch, tail_ms),
            "ms",
            format!("median of {} torch rounds", torch.len()),
        ),
        Metric::new(
            "sim.predicted_speedup_vs_torch",
            sim.unwrap_or(0.0),
            "ratio",
            match sim {
                Some(_) => format!(
                    "minato-sim at this run's cores, workers and step ratio; live in this run: {:.4}",
                    untraced_sps / per_round(torch, Round::samples_per_s)
                ),
                None => "not modelled for this workload (0)".to_string(),
            },
        ),
    ]
}
