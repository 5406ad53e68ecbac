//! The in-process sweep driver: [`SweepRunner`].
//!
//! A sweep is a matrix of (application × injected run) simulations. A
//! `SweepRunner` is one session object, built once and queried many
//! times. It drives the [sweep pipeline](crate::sweep) in one process:
//! it plans the apps a checkpoint does not already hold, runs their
//! cells on a pool, and assembles each app once its last run lands.
//! What it adds to the pipeline is the session: the app subset, the
//! checkpoint, progress callbacks and the observability outputs.
//!
//! ```no_run
//! use cord_bench::configs::DetectorConfig;
//! use cord_bench::runner::SweepRunner;
//! use cord_bench::sweep::SweepOptions;
//!
//! let results = SweepRunner::new(SweepOptions::default())
//!     .jobs(8)
//!     .checkpoint("results/ckpt.json")
//!     .progress(|p| eprintln!("{}/{} runs", p.jobs_done, p.jobs_total))
//!     .run(&DetectorConfig::all_for_sweep())
//!     .expect("checkpoint I/O");
//! # let _ = results;
//! ```
//!
//! # Parallel execution and determinism
//!
//! `jobs(n)` fans the run matrix across a [`cord_pool::Pool`] of `n`
//! workers. Every run already has a deterministic seed derived from
//! its index ([`run_seed`](crate::sweep::run_seed)) and results are
//! collected by submission index, never completion order, so the
//! output of `jobs(8)` is **bit-identical** to `jobs(1)`: same
//! [`SweepResults`], same JSON rendering, same final checkpoint bytes.
//!
//! # Checkpoint compatibility
//!
//! The worker count lives on the runner, not on [`SweepOptions`], so
//! it is structurally excluded from the checkpoint
//! [`options_hash`](crate::checkpoint::options_hash): a checkpoint
//! written by a serial sweep resumes under a parallel one and vice
//! versa. The checkpoint is rewritten after every application
//! completes (all of its runs merged, apps in canonical order), so an
//! interrupted parallel sweep loses at most the in-flight apps.

use crate::checkpoint::{options_hash, Checkpoint};
use crate::configs::DetectorConfig;
use crate::obs::{ObsSink, DEFAULT_TRACE_CAPACITY};
use crate::sweep::{
    cells_of, plan_apps, run_cells, run_config_impl, run_injection, run_seed, sweep_workload,
    AppSweep, CellObs, Detection, PlannedApp, RunRecord, SweepInputs, SweepOptions, SweepResults,
};
use cord_core::CordError;
use cord_inject::InjectionTarget;
use cord_pool::{lock_unpoisoned, BatchProgress, Pool};
use cord_sim::engine::{InjectionPlan, SimError};
use cord_trace::program::Workload;
use cord_workloads::{all_apps, AppKind};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A progress snapshot delivered to the callback installed with
/// [`SweepRunner::progress`]. Snapshots are emitted from worker
/// threads as jobs finish; the callback must be `Send + Sync`.
#[derive(Debug, Clone)]
pub struct SweepProgress {
    /// The sweep phase: `"plan"` while campaigns are being drawn (one
    /// job per app), `"run"` while the injection matrix executes (one
    /// job per injected run).
    pub phase: &'static str,
    /// Jobs finished in the current phase (including failed ones).
    pub jobs_done: usize,
    /// Total jobs in the current phase.
    pub jobs_total: usize,
    /// Jobs in the current phase whose worker captured a panic. Note
    /// that detector panics are caught *inside* the run (becoming
    /// [`RunStatus::Panicked`](crate::sweep::RunStatus::Panicked)
    /// records), so this stays zero unless the
    /// sweep machinery itself fails.
    pub jobs_failed: usize,
    /// Applications fully swept so far (resumed ones count).
    pub apps_done: usize,
    /// Applications in this sweep.
    pub apps_total: usize,
    /// Wall-clock time since the current phase's batch started.
    pub elapsed: Duration,
    /// Mean worker utilization over the batch so far, in `[0, 1]`.
    pub utilization: f64,
    /// Estimated time to batch completion, `None` until the first job
    /// finishes.
    pub eta: Option<Duration>,
}

impl SweepProgress {
    fn of(phase: &'static str, bp: &BatchProgress, apps_done: usize, apps_total: usize) -> Self {
        SweepProgress {
            phase,
            jobs_done: bp.done,
            jobs_total: bp.total,
            jobs_failed: bp.failed,
            apps_done,
            apps_total,
            elapsed: bp.elapsed,
            utilization: bp.utilization(),
            eta: bp.eta(),
        }
    }
}

type ProgressFn = Box<dyn Fn(&SweepProgress) + Send + Sync>;

/// A configured sweep session. See the [module docs](self) for the
/// builder walkthrough and the determinism/checkpoint contracts.
pub struct SweepRunner {
    opts: SweepOptions,
    jobs: usize,
    apps: Vec<AppKind>,
    checkpoint: Option<PathBuf>,
    progress: Option<ProgressFn>,
    trace_dir: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    trace_capacity: usize,
}

impl std::fmt::Debug for SweepRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepRunner")
            .field("opts", &self.opts)
            .field("jobs", &self.jobs)
            .field("apps", &self.apps)
            .field("checkpoint", &self.checkpoint)
            .field("progress", &self.progress.as_ref().map(|_| "<callback>"))
            .field("trace_dir", &self.trace_dir)
            .field("metrics_out", &self.metrics_out)
            .field("trace_capacity", &self.trace_capacity)
            .finish()
    }
}

impl SweepRunner {
    /// A serial (one-worker) session over every application, with no
    /// checkpoint and no progress callback.
    pub fn new(opts: SweepOptions) -> SweepRunner {
        SweepRunner {
            opts,
            jobs: 1,
            apps: all_apps().to_vec(),
            checkpoint: None,
            progress: None,
            trace_dir: None,
            metrics_out: None,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
        }
    }

    /// Sets the worker count for [`run`](Self::run). Clamped to at
    /// least 1; results are bit-identical for every value.
    pub fn jobs(mut self, jobs: usize) -> SweepRunner {
        self.jobs = jobs.max(1);
        self
    }

    /// Restricts the sweep to the given applications, in the given
    /// order (default: [`all_apps`] in canonical figure order).
    pub fn apps(mut self, apps: &[AppKind]) -> SweepRunner {
        self.apps = apps.to_vec();
        self
    }

    /// Enables checkpoint/resume against `path`: a matching checkpoint
    /// is loaded and its apps skipped, and the file is atomically
    /// rewritten after each app completes.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> SweepRunner {
        self.checkpoint = Some(path.into());
        self
    }

    /// Installs a progress callback, invoked from worker threads as
    /// jobs finish. Panics inside the callback are swallowed by the
    /// pool; they never disturb the sweep.
    pub fn progress(mut self, cb: impl Fn(&SweepProgress) + Send + Sync + 'static) -> SweepRunner {
        self.progress = Some(Box::new(cb));
        self
    }

    /// Enables per-run event tracing: every completed simulation's
    /// trace ring is written into `dir` as one JSON file per
    /// (app, run, configuration) cell. Tracing is out-of-band — sweep
    /// results and checkpoint bytes are identical with it on or off.
    pub fn trace_dir(mut self, dir: impl Into<PathBuf>) -> SweepRunner {
        self.trace_dir = Some(dir.into());
        self
    }

    /// Writes the sweep's aggregate metrics (simulator and detector
    /// counters summed over completed runs, pool utilization, and the
    /// job/flush wall-clock profile) to `path` as JSON when the sweep
    /// finishes.
    pub fn metrics_out(mut self, path: impl Into<PathBuf>) -> SweepRunner {
        self.metrics_out = Some(path.into());
        self
    }

    /// Sets the per-run trace ring capacity (events kept per
    /// simulation; oldest drop first). Clamped to at least 1.
    pub fn trace_capacity(mut self, events: usize) -> SweepRunner {
        self.trace_capacity = events.max(1);
        self
    }

    /// The options this session runs with.
    pub fn options(&self) -> &SweepOptions {
        &self.opts
    }

    /// Sweeps every configured application against `configs`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if a checkpoint write fails (simulation
    /// results are never silently dropped), or a
    /// [`CordError::Pool`]-wrapped error if the worker pool loses a
    /// run — which per-run panic capture makes unreachable in
    /// practice.
    pub fn run(&self, configs: &[DetectorConfig]) -> io::Result<SweepResults> {
        self.run_filtered(configs, &self.apps, self.checkpoint.as_deref())
    }

    /// Sweeps a single application (never checkpointed: single-app
    /// sweeps are cheap and the checkpoint hash covers the full app
    /// set).
    pub fn run_app(&self, app: AppKind, configs: &[DetectorConfig]) -> AppSweep {
        let mut results = self
            .run_filtered(configs, &[app], None)
            .unwrap_or_else(|e| panic!("checkpoint-less sweep cannot fail: {e}"));
        results.apps.swap_remove(0)
    }

    /// Runs one detector configuration over one workload — the
    /// innermost cell of the sweep matrix.
    ///
    /// # Errors
    ///
    /// Propagates the [`SimError`] when the simulated machine
    /// deadlocks or its watchdog fires.
    pub fn run_detector(
        &self,
        config: DetectorConfig,
        workload: &Workload,
        seed: u64,
        plan: InjectionPlan,
    ) -> Result<Detection, SimError> {
        run_config_impl(config, workload, seed, plan, &self.opts, None)
    }

    /// Re-executes one recorded run exactly as the sweep did — used to
    /// check that a non-completed run's failure is deterministic.
    pub fn rerun(
        &self,
        app: AppKind,
        target: InjectionTarget,
        run_index: usize,
        configs: &[DetectorConfig],
    ) -> RunRecord {
        let workload = sweep_workload(app, &self.opts);
        run_injection(
            target,
            configs,
            &workload,
            run_seed(&self.opts, run_index),
            &self.opts,
            None,
        )
    }

    fn run_filtered(
        &self,
        configs: &[DetectorConfig],
        apps: &[AppKind],
        checkpoint: Option<&Path>,
    ) -> io::Result<SweepResults> {
        let opts = self.opts;
        let hash = options_hash(&opts, configs);
        // Observability is opt-in and fully out-of-band: with neither
        // output configured there is no sink, no trace rings are
        // allocated, and every emit site stays on its disabled path.
        let obs: Option<ObsSink> = (self.trace_dir.is_some() || self.metrics_out.is_some())
            .then(|| ObsSink::new(self.trace_dir.clone(), self.trace_capacity));

        // Resume: split a matching checkpoint into apps this sweep
        // covers (kept, skipped) and foreign apps (preserved in the
        // file, excluded from the results).
        let mut resumed: Vec<AppSweep> = Vec::new();
        let mut extra: Vec<AppSweep> = Vec::new();
        if let Some(path) = checkpoint {
            if let Some(cp) = Checkpoint::load_matching(path, hash) {
                for a in cp.apps {
                    if apps.iter().any(|k| k.name() == a.app) {
                        resumed.push(a);
                    } else {
                        extra.push(a);
                    }
                }
            }
        }
        let todo: Vec<AppKind> = apps
            .iter()
            .copied()
            .filter(|k| !resumed.iter().any(|a| a.app == k.name()))
            .collect();

        let pool = Pool::new(self.jobs);
        let apps_total = apps.len();

        // Phase 1: plan the injection campaigns (one watchdogged dry
        // run per app), fanned across the pool.
        let workloads: Vec<Workload> = todo.iter().map(|&a| sweep_workload(a, &opts)).collect();
        let apps_resumed = resumed.len();
        let planned = plan_apps(&pool, &todo, &workloads, &opts, |bp| {
            if let Some(cb) = &self.progress {
                cb(&SweepProgress::of("plan", bp, apps_resumed, apps_total));
            }
        });
        let cells = cells_of(&planned);
        let state = Mutex::new(SweepState {
            resumed,
            extra,
            apps: planned.into_iter().map(AppCell::new).collect(),
            flush_err: None,
        });
        let writer = checkpoint.map(|path| CheckpointWriter {
            path,
            hash,
            opts,
            order: apps,
            io: Mutex::new(()),
            obs: obs.as_ref(),
        });

        // Flush once before the run batch so apps with zero runs
        // (failed dry runs) and resumed apps are on disk even if every
        // in-flight job is lost to a crash.
        if let Some(w) = &writer {
            if !todo.is_empty() {
                w.flush(&state);
            }
        }

        // Phase 2: the (app × run) injection matrix. Each record lands
        // in its app's slot; the checkpoint is rewritten when an app's
        // last run lands.
        let inputs = SweepInputs {
            workloads: &workloads,
            configs,
            opts: &opts,
        };
        let cell_obs = obs.as_ref().map_or(CellObs::Off, CellObs::Shared);
        let on_batch = |bp: &BatchProgress| {
            if let Some(cb) = &self.progress {
                let apps_done = lock_unpoisoned(&state).apps_done();
                cb(&SweepProgress::of("run", bp, apps_done, apps_total));
            }
        };
        run_cells(
            &pool,
            &inputs,
            &cells,
            cell_obs,
            on_batch,
            |k, record, _| {
                let (ai, ri, _) = cells[k];
                let app_complete = lock_unpoisoned(&state).record(ai, ri, record);
                if app_complete {
                    if let Some(w) = &writer {
                        w.flush(&state);
                    }
                }
            },
        );

        let mut state = state.into_inner().unwrap_or_else(PoisonError::into_inner);
        if let Some(e) = state.flush_err.take() {
            return Err(e);
        }

        if let Some(sink) = &obs {
            sink.finalize(self.metrics_out.as_deref())?;
        }

        let mut out = state.resumed;
        for cell in &state.apps {
            let app = cell.finished().ok_or_else(|| {
                io::Error::other(CordError::Pool(format!(
                    "worker pool lost a run of app {}",
                    cell.plan.app
                )))
            })?;
            out.push(app);
        }
        sort_canonical(&mut out, apps);
        Ok(SweepResults {
            options: opts,
            apps: out,
        })
    }
}

/// One planned application and a slot per injected run.
struct AppCell {
    plan: PlannedApp,
    records: Vec<Option<RunRecord>>,
}

impl AppCell {
    fn new(plan: PlannedApp) -> AppCell {
        AppCell {
            records: vec![None; plan.targets.len()],
            plan,
        }
    }

    fn is_complete(&self) -> bool {
        self.records.iter().all(Option::is_some)
    }

    /// The finished [`AppSweep`], once every run has landed.
    fn finished(&self) -> Option<AppSweep> {
        let runs = self.records.iter().cloned().collect::<Option<Vec<_>>>()?;
        Some(self.plan.assemble(runs))
    }
}

/// Mutex-shared sweep state: results land here from worker threads.
struct SweepState {
    resumed: Vec<AppSweep>,
    extra: Vec<AppSweep>,
    apps: Vec<AppCell>,
    flush_err: Option<io::Error>,
}

impl SweepState {
    /// Stores run `ri` of app `ai` unless its slot is already filled;
    /// `true` when this record was the app's last missing run.
    fn record(&mut self, ai: usize, ri: usize, record: RunRecord) -> bool {
        let cell = &mut self.apps[ai];
        if cell.records[ri].is_some() {
            return false;
        }
        cell.records[ri] = Some(record);
        cell.is_complete()
    }

    fn apps_done(&self) -> usize {
        self.resumed.len() + self.apps.iter().filter(|c| c.is_complete()).count()
    }

    /// The apps a checkpoint written now should carry: resumed +
    /// completed, in canonical order, with foreign apps appended.
    fn checkpoint_apps(&self, order: &[AppKind]) -> Vec<AppSweep> {
        let mut out = self.resumed.clone();
        out.extend(self.apps.iter().filter_map(AppCell::finished));
        sort_canonical(&mut out, order);
        out.extend(self.extra.iter().cloned());
        out
    }
}

/// Rewrites a sweep's checkpoint file as its apps complete.
struct CheckpointWriter<'a> {
    path: &'a Path,
    hash: u64,
    opts: SweepOptions,
    order: &'a [AppKind],
    /// Serializes concurrent flushes (they share a temp file) and makes
    /// later snapshots land later, so the file on disk is always the
    /// most complete one.
    io: Mutex<()>,
    obs: Option<&'a ObsSink>,
}

impl CheckpointWriter<'_> {
    /// Snapshots [`SweepState::checkpoint_apps`] under the state lock,
    /// then writes the file atomically with the lock *released*, so a
    /// slow disk never blocks sibling workers' `record()` calls. The
    /// first write error is kept in the state (and returned after the
    /// batch) rather than aborting in-flight simulation work.
    fn flush(&self, state: &Mutex<SweepState>) {
        let started = Instant::now();
        let _io = lock_unpoisoned(&self.io);
        let cp = Checkpoint {
            options_hash: self.hash,
            options: self.opts,
            apps: lock_unpoisoned(state).checkpoint_apps(self.order),
        };
        if let Err(e) = cp.store(self.path) {
            lock_unpoisoned(state).flush_err.get_or_insert(e);
        }
        // The sample includes waiting on the I/O lock: that wait is real
        // flush latency the worker could have spent running jobs.
        if let Some(sink) = self.obs {
            sink.record_flush(started.elapsed().as_secs_f64());
        }
    }
}

/// Sorts apps into the sweep's canonical order (unknown names last,
/// preserving their relative order).
fn sort_canonical(apps: &mut [AppSweep], order: &[AppKind]) {
    apps.sort_by_key(|a| {
        order
            .iter()
            .position(|k| k.name() == a.app)
            .unwrap_or(usize::MAX)
    });
}
