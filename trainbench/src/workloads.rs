//! The benchmark's workloads: generated inputs, pipeline, loader layers
//! and the per-sample correctness check.
//!
//! Every input is generated from the workload seed; the loaders see only
//! the resulting `Dataset`. Sizes are fixed here and printed with each
//! result.

use crate::trainer::Plan;
use minato_core::prelude::{Dataset, FnDataset, MinatoLoaderBuilder, Pipeline, SampleMeta};
use minato_data::volume::{segmentation_pipeline, Volume3D};
use minato_data::{
    synthetic_dataset, work_pipeline_with_mode, SyntheticSample, TrainLength, WorkMode,
    WorkloadSpec,
};
use minato_sim::{simulate_inorder, simulate_minato, ClassifyMode, SimConfig};
use std::sync::Arc;
use std::time::Duration;

/// Loader thread counts, derived from the core count and never above it.
#[derive(Debug, Clone, Copy)]
pub struct Workers {
    /// `initial_workers` = `max_workers` of Minato, and Torch's
    /// `num_workers`.
    pub loader: usize,
    pub slow: usize,
    pub batch: usize,
}

impl Workers {
    pub fn for_cores(nproc: usize) -> Workers {
        Workers {
            loader: nproc.max(1),
            slow: (nproc / 2).max(1),
            batch: 1,
        }
    }
}

/// One workload of the benchmark.
pub trait Workload {
    type S: Send + 'static;

    /// What one loader lifetime delivers, and the trainer step.
    fn plan(&self) -> Plan;
    fn dataset(&self) -> Arc<dyn Dataset<Sample = Self::S>>;
    fn pipeline(&self) -> Pipeline<Self::S>;
    /// Loader layers this workload turns on beyond the shared settings.
    fn layers<D: Dataset<Sample = Self::S>>(
        &self,
        b: MinatoLoaderBuilder<D>,
    ) -> MinatoLoaderBuilder<D> {
        b
    }
    /// Whether a delivered sample is fully and correctly preprocessed.
    fn check(&self, s: &Self::S, m: &SampleMeta) -> bool;
    /// Dataset index a sample was loaded from (span key).
    fn index_of(s: &Self::S) -> usize;
    /// Workload settings recorded with each result.
    fn settings(&self) -> String;
    /// The simulator's predicted Minato-over-Torch speedup for this run's
    /// cores, GPU count, workers and step-to-preprocess ratio.
    fn sim_speedup(&self, _nproc: usize, _workers: Workers) -> Option<f64> {
        None
    }
}

/// Seed mixer (splitmix64 finalizer): spreads nearby workload seeds.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Speech-3s (Table 2) with CPU-burning transforms: every fifth sample
/// carries the 3 s HeavyStep, the paper's head-of-line case.
pub struct SpeechTail {
    spec: WorkloadSpec,
    seed: u64,
}

impl SpeechTail {
    const SAMPLES: usize = 4800;
    const BATCH: usize = 24;
    /// Paper milliseconds to benchmark milliseconds: the mean sample
    /// (~1 s in the paper) burns ~0.5 ms.
    const TIME_SCALE: f64 = 1.0 / 2000.0;
    /// Trainer step near balance with the loader: with 2 cores the trainer
    /// spends about 45% of its time blocked in `next_batch`. A smaller
    /// step would time only the loader; a larger one would hide it.
    const STEP: Duration = Duration::from_micros(3500);

    pub fn new(seed: u64) -> SpeechTail {
        let mut spec = WorkloadSpec::speech(3.0);
        spec.seed = mix(seed);
        spec.n_samples = Self::SAMPLES;
        spec.batch_size = Self::BATCH;
        spec.length = TrainLength::Epochs(1);
        SpeechTail { spec, seed }
    }
}

impl Workload for SpeechTail {
    type S = SyntheticSample;

    fn plan(&self) -> Plan {
        Plan {
            len: Self::SAMPLES,
            epochs: 1,
            batch_size: Self::BATCH,
            step: Self::STEP,
            seed: self.seed,
        }
    }

    fn dataset(&self) -> Arc<dyn Dataset<Sample = SyntheticSample>> {
        Arc::new(synthetic_dataset(&self.spec, Self::TIME_SCALE))
    }

    fn pipeline(&self) -> Pipeline<SyntheticSample> {
        work_pipeline_with_mode(&self.spec, WorkMode::Burn)
    }

    fn check(&self, s: &SyntheticSample, m: &SampleMeta) -> bool {
        s.index == m.index && s.steps_done == self.spec.steps.len()
    }

    fn index_of(s: &SyntheticSample) -> usize {
        s.index
    }

    fn settings(&self) -> String {
        format!(
            "profile=speech-3s work=burn time_scale={} mean_preprocess_ms={:.4} step_ms={} batch_size={} samples={} epochs=1",
            Self::TIME_SCALE,
            self.spec.mean_preprocess_ms(Self::SAMPLES) * Self::TIME_SCALE,
            Self::STEP.as_secs_f64() * 1e3,
            Self::BATCH,
            Self::SAMPLES
        )
    }

    fn sim_speedup(&self, nproc: usize, workers: Workers) -> Option<f64> {
        let mut wl = self.spec.clone();
        // The simulator runs at paper scale; dividing the step by the
        // time scale keeps the live step-to-preprocess ratio.
        wl.gpu_step_ms_a100 = Self::STEP.as_secs_f64() * 1e3 / Self::TIME_SCALE;
        let mut cfg = SimConfig::config_a(wl);
        cfg.n_gpus = 1;
        cfg.cpu_cores = nproc;
        cfg.workers_per_gpu = workers.loader;
        cfg.inorder_workers_total = workers.loader;
        cfg.minato.slow_workers_per_gpu = workers.slow;
        cfg.seed = self.seed;
        let torch = simulate_inorder("PyTorch", &cfg, None);
        let minato = simulate_minato("Minato", &cfg, ClassifyMode::Timeout);
        Some(torch.train_time_s / minato.train_time_s)
    }
}

/// KiTS19-like 3D volumes of varying size through the real segmentation
/// pipeline, several epochs, with the sample cache holding about half the
/// working set and the buffer pool on.
///
/// Volumes are small (9-53 KB) so one sample's working set stays in a
/// core's cache: with 20-36 voxel sides, round-to-round throughput on a
/// shared 2-core host moved by up to 15% with other processes' memory
/// traffic, which no run length averaged out.
pub struct KitsVolumes {
    seed: u64,
}

impl KitsVolumes {
    const SAMPLES: usize = 1280;
    const EPOCHS: usize = 10;
    const BATCH: usize = 32;
    const TARGET: [usize; 3] = [10, 10, 10];
    /// Source volumes have sides in `MIN_SIDE..MIN_SIDE + SIDE_SPREAD`.
    const MIN_SIDE: usize = 12;
    const SIDE_SPREAD: u64 = 11;
    /// Room for the source buffers of the samples a round keeps in
    /// flight (queues of 100 at up to 53 KB each).
    const POOL_BYTES: u64 = 8 << 20;

    pub fn new(seed: u64) -> KitsVolumes {
        KitsVolumes { seed }
    }

    /// Bytes of one preprocessed (cropped) volume: what the cache holds.
    fn crop_bytes() -> u64 {
        let [d, h, w] = Self::TARGET;
        (d * h * w * 5) as u64
    }

    fn cache_bytes() -> u64 {
        Self::SAMPLES as u64 * Self::crop_bytes() / 2
    }
}

/// The low 32 bits of a volume's seed are its dataset index.
const INDEX_BITS: u64 = 0xFFFF_FFFF;

impl Workload for KitsVolumes {
    type S = Volume3D;

    fn plan(&self) -> Plan {
        Plan {
            len: Self::SAMPLES,
            epochs: Self::EPOCHS,
            batch_size: Self::BATCH,
            step: Duration::ZERO,
            seed: self.seed,
        }
    }

    fn dataset(&self) -> Arc<dyn Dataset<Sample = Volume3D>> {
        let base = mix(self.seed) & !INDEX_BITS;
        Arc::new(FnDataset::new(Self::SAMPLES, move |i| {
            let h = mix(base ^ i as u64);
            let side = |shift: u32| Self::MIN_SIDE + ((h >> shift) % Self::SIDE_SPREAD) as usize;
            Ok(Volume3D::generate(
                [side(0), side(16), side(32)],
                base | i as u64,
            ))
        }))
    }

    fn pipeline(&self) -> Pipeline<Volume3D> {
        segmentation_pipeline(Self::TARGET)
    }

    fn layers<D: Dataset<Sample = Volume3D>>(
        &self,
        b: MinatoLoaderBuilder<D>,
    ) -> MinatoLoaderBuilder<D> {
        b.cache_budget_bytes(Self::cache_bytes())
            .cache_weigher(|v: &Volume3D| v.nbytes())
            .pool_budget_bytes(Self::POOL_BYTES)
    }

    fn check(&self, v: &Volume3D, m: &SampleMeta) -> bool {
        let n: usize = Self::TARGET.iter().product();
        v.dims == Self::TARGET
            && v.voxels.len() == n
            && v.labels.len() == n
            && Self::index_of(v) == m.index
    }

    fn index_of(v: &Volume3D) -> usize {
        (v.seed & INDEX_BITS) as usize
    }

    fn settings(&self) -> String {
        format!(
            "pipeline=segmentation target={:?} source_sides={}..{} step_ms=0 batch_size={} samples={} epochs={} cache_budget_bytes={} cache_weigher=nbytes pool_budget_bytes={}",
            Self::TARGET,
            Self::MIN_SIDE,
            Self::MIN_SIDE + Self::SIDE_SPREAD as usize,
            Self::BATCH,
            Self::SAMPLES,
            Self::EPOCHS,
            Self::cache_bytes(),
            Self::POOL_BYTES
        )
    }
}
