//! The named workloads and their sizes.

use cord_bench::sweep::{CoherenceOpt, ScaleClassOpt, SweepOptions};
use cord_detectors::DetectorConfig;
use cord_sim::config::MachineConfig;
use cord_trace::program::Workload;
use cord_workloads::{all_apps, kernel, lockfree_apps, AppKind};

/// Pool workers for every parallel phase (the benchmark host has 2 CPUs).
pub const JOBS: usize = 2;

/// Injected runs per app in one timed sweep repetition.
pub const INJECTIONS: usize = 4;

/// Injected runs per app and kernel seed in the detection sample.
pub const MODEL_INJECTIONS: usize = 24;

/// Kernel seeds in the model sample (clean runs and detection sample).
pub const MODEL_SEEDS: u64 = 8;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 31;

/// One named workload: which apps on which simulated machine.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name as given to `--workload`.
    pub name: &'static str,
    /// Applications, in sweep order.
    pub apps: Vec<AppKind>,
    /// Kernel size class.
    pub scale: ScaleClassOpt,
    /// Simulated threads (= cores).
    pub threads: usize,
    /// Coherence backend of the simulated machine.
    pub backend: CoherenceOpt,
}

impl Spec {
    /// The workload called `name`, at benchmark size.
    pub fn named(name: &str) -> Option<Spec> {
        let wide_apps = {
            let mut v = lockfree_apps().to_vec();
            v.extend([AppKind::Fft, AppKind::WaterN2, AppKind::Barnes]);
            v
        };
        let spec = match name {
            "sweep-splash4" => Spec {
                name: "sweep-splash4",
                apps: all_apps().to_vec(),
                scale: ScaleClassOpt::Small,
                threads: 4,
                backend: CoherenceOpt::Snooping,
            },
            "wide16-dir" => Spec {
                name: "wide16-dir",
                apps: wide_apps,
                scale: ScaleClassOpt::Small,
                threads: 16,
                backend: CoherenceOpt::Directory,
            },
            _ => return None,
        };
        Some(spec)
    }

    /// Every workload name, in `BENCHMARK.json` order.
    pub fn names() -> [&'static str; 2] {
        ["sweep-splash4", "wide16-dir"]
    }

    /// The same workload shrunk for the self-test: Tiny kernels, two
    /// apps.
    pub fn tiny(mut self) -> Spec {
        self.scale = ScaleClassOpt::Tiny;
        self.apps.truncate(2);
        self
    }

    /// Sweep options for this workload under the workload seed.
    pub fn sweep_options(&self, seed: u64) -> SweepOptions {
        SweepOptions {
            injections_per_app: INJECTIONS,
            scale: self.scale,
            threads: self.threads,
            cores: self.threads,
            backend: self.backend,
            seed,
            ..SweepOptions::default()
        }
    }

    /// The machine a configuration runs on in this workload.
    pub fn machine(&self, seed: u64, config: DetectorConfig) -> MachineConfig {
        self.sweep_options(seed).machine_for(config)
    }

    /// The kernel seeds of the model sample, derived from the workload
    /// seed: the model metrics average over them, because how a run
    /// times and which races a removal exposes depend on the kernel's
    /// data as much as on the detector.
    pub fn model_seeds(seed: u64) -> impl Iterator<Item = u64> {
        (0..MODEL_SEEDS).map(move |k| seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }

    /// Builds every app's kernel under `seed`.
    pub fn kernels(&self, seed: u64) -> Vec<Workload> {
        self.apps
            .iter()
            .map(|&a| kernel(a, self.scale.into(), self.threads, seed))
            .collect()
    }
}

/// Every figure configuration, Ideal included, in metric-name order:
/// what each sweep cell runs (8 simulations).
pub const ALL_CONFIGS: [DetectorConfig; 8] = [
    DetectorConfig::Cord { d: 1 },
    DetectorConfig::Cord { d: 4 },
    DetectorConfig::Cord { d: 16 },
    DetectorConfig::Cord { d: 256 },
    DetectorConfig::Ideal,
    DetectorConfig::VcInfCache,
    DetectorConfig::VcL2Cache,
    DetectorConfig::VcL1Cache,
];

/// The metric-name key of a configuration (`det.<key>.*`).
pub fn config_key(config: DetectorConfig) -> String {
    match config {
        DetectorConfig::Cord { d } => format!("cord_d{d}"),
        DetectorConfig::Ideal => "ideal".into(),
        DetectorConfig::VcInfCache => "vc_inf".into(),
        DetectorConfig::VcL2Cache => "vc_l2".into(),
        DetectorConfig::VcL1Cache => "vc_l1".into(),
        DetectorConfig::PanicProbe => "panic_probe".into(),
    }
}
