//! The sweep workloads: repeated `SweepRunner::run` calls over the
//! (app × injected run) matrix.

use crate::cells::{self, Cell, LayerAcc};
use crate::checks;
use crate::model;
use crate::report::{fnv64, Outcome, Tally};
use crate::serve;
use crate::spec::{config_key, Spec, ALL_CONFIGS, JOBS, SETUP_REPS};
use crate::timing::{calibrate_clock_ns, median, peak_rss_mb, Spans, StealMeter};
use cord_bench::runner::{SweepProgress, SweepRunner};
use cord_bench::sweep::{run_seed, RunStatus, SweepResults};
use cord_core::Detector;
use cord_detectors::DetectorConfig;
use cord_inject::{Campaign, InjectionTarget};
use cord_json::{Json, ToJson};
use cord_pool::Pool;
use cord_trace::program::Workload;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Fewest timed repetitions in a run, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Runs a sweep workload: timed end-to-end metrics when `traced` is
/// false, per-layer metrics when it is true.
pub fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let runner = SweepRunner::new(spec.sweep_options(seed))
        .jobs(JOBS)
        .apps(&spec.apps);
    if traced {
        run_traced(spec, seed, seconds, &runner, &mut out);
    } else {
        run_timed(spec, seed, seconds, &runner, &mut out);
    }
    out
}

/// One set-up: every app's kernel under each model seed, the workload
/// seed's own first, built on the pool (one job per seed, so that both
/// CPUs share the work). Built [`SETUP_REPS`] times; returns the last
/// build and the median build time in seconds.
fn setup(spec: &Spec, seed: u64) -> (Vec<Vec<Workload>>, f64) {
    let pool = Pool::new(JOBS);
    let mut times = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPS {
        // Freed first, so that later builds reuse the first one's pages.
        drop(std::mem::take(&mut inputs));
        let jobs: Vec<_> = Spec::model_seeds(seed)
            .map(|k| move || spec.kernels(k))
            .collect();
        let t = Instant::now();
        let built = pool.run_ordered(jobs);
        times.push(t.elapsed().as_secs_f64());
        inputs = built
            .into_iter()
            .map(|r| r.unwrap_or_else(|p| panic!("kernel build panicked: {}", p.message)))
            .collect();
    }
    (inputs, median(&mut times))
}

/// One sweep repetition: its wall time, results and results digest.
struct Rep {
    secs: f64,
    results: SweepResults,
    digest: u64,
}

fn rep(runner: &SweepRunner, configs: &[DetectorConfig]) -> Result<Rep, String> {
    let t = Instant::now();
    let results = runner.run(configs).map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    let digest = fnv64(results.to_json().to_string_compact().as_bytes());
    Ok(Rep {
        secs,
        results,
        digest,
    })
}

/// Repeats `rep` until `seconds` have passed (at least [`MIN_REPS`]
/// times), checking each repetition's runs and that every digest
/// equals the first. Returns the repetitions' times and first results.
fn repeat(
    runner: &SweepRunner,
    configs: &[DetectorConfig],
    seconds: f64,
    tally: &mut Tally,
) -> Option<(Vec<f64>, SweepResults, u64)> {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut first: Option<(SweepResults, u64)> = None;
    while times.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let r = match rep(runner, configs) {
            Ok(r) => r,
            Err(e) => {
                tally.op(false, || format!("sweep failed: {e}"));
                return None;
            }
        };
        times.push(r.secs);
        checks::no_panicked_runs(tally, &r.results);
        match &first {
            None => first = Some((r.results, r.digest)),
            Some((_, d)) => tally.op(*d == r.digest, || {
                format!(
                    "repetition {} digest {:016x} != {d:016x}",
                    times.len(),
                    r.digest
                )
            }),
        }
    }
    first.map(|(res, d)| (times, res, d))
}

fn run_timed(spec: &Spec, seed: u64, seconds: f64, runner: &SweepRunner, out: &mut Outcome) {
    let configs = ALL_CONFIGS;
    let steal = StealMeter::start();
    let Some((mut times, results, digest)) = repeat(runner, &configs, seconds, &mut out.tally)
    else {
        return;
    };
    let steal_pct = steal.pct();
    // The mark of the sweeps alone: the set-up's inputs, verification
    // and the model sample below would raise it.
    let peak_mb = peak_rss_mb().unwrap_or(0.0);
    let (inputs, setup_s) = setup(spec, seed);
    verify(spec, seed, &inputs[0], &results, &mut out.tally);

    let m = &mut out.metrics;
    let cells = results.apps.iter().map(|a| a.runs.len()).sum::<usize>() as f64;
    m.set("cells_per_s", cells / median(&mut times), "1/s");
    m.set("peak_rss_mb", peak_mb, "MB");
    m.set("setup_s", setup_s, "s");
    let stats = model::measure(spec, seed, &inputs, &mut out.tally, m);

    out.digest = vec![
        ("workload".into(), Json::Str(spec.name.into())),
        ("seed".into(), Json::UInt(seed)),
        ("results_digest".into(), Json::Str(format!("{digest:016x}"))),
        ("cells_per_repetition".into(), Json::UInt(cells as u64)),
        ("sweep".into(), sweep_summary(&results)),
        (
            "cord_only_cross_run".into(),
            Json::UInt(checks::cross_run_cord_only(&results)),
        ),
    ];
    out.digest.extend(stats);
    out.samples = vec![
        ("repetitions".into(), Json::UInt(times.len() as u64)),
        ("host_steal_pct".into(), Json::Float(steal_pct)),
    ];
}

/// Detections and run outcomes of a sweep, per configuration.
fn sweep_summary(results: &SweepResults) -> Json {
    let mut fields: Vec<(String, Json)> = Vec::new();
    let manifested: usize = results.apps.iter().map(|a| a.manifested().count()).sum();
    let completed: usize = results.apps.iter().map(|a| a.completed().count()).sum();
    fields.push(("completed".into(), Json::UInt(completed as u64)));
    fields.push(("manifested".into(), Json::UInt(manifested as u64)));
    let labels: Vec<String> = results
        .apps
        .iter()
        .flat_map(|a| a.runs.iter().flat_map(|r| r.detections.keys().cloned()))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    for label in labels {
        let found: usize = results.apps.iter().map(|a| a.problems_found(&label)).sum();
        let races: u64 = results.apps.iter().map(|a| a.races_found(&label)).sum();
        fields.push((
            label,
            cord_json::obj(vec![
                ("problems_found", Json::UInt(found as u64)),
                ("races", Json::UInt(races)),
            ]),
        ));
    }
    Json::Object(fields)
}

/// Re-runs every completed cell of `results` under every configuration
/// with a capture tee: the capture's race count must equal the sweep's
/// and a detector-only replay of the capture must drain to the inline
/// report's bytes.
fn verify(
    spec: &Spec,
    seed: u64,
    workloads: &[Workload],
    results: &SweepResults,
    tally: &mut Tally,
) {
    let configs = ALL_CONFIGS;
    let jobs: Vec<_> = results
        .apps
        .iter()
        .zip(workloads)
        .flat_map(|(app, w)| app.runs.iter().enumerate().map(move |(ri, r)| (w, ri, r)))
        .filter(|(_, _, r)| r.status.is_completed())
        .map(|(w, ri, record)| {
            let configs = &configs;
            move || {
                let mut t = Tally::default();
                let cell = Cell {
                    workload: w,
                    seed: run_seed(&spec.sweep_options(seed), ri),
                    plan: record.target.plan(),
                };
                for &config in configs {
                    let machine = spec.machine(seed, config);
                    let what = format!("{} {} {}", w.name(), record.target, config.label());
                    let Some(c) = cells::checked_capture(&cell, &machine, config, &mut t) else {
                        t.op(false, || format!("{what}: capture run aborted"));
                        continue;
                    };
                    let want = record
                        .detections
                        .get(&config.label())
                        .map_or(0, |d| d.races);
                    t.op(c.replayed.race_count == want, || {
                        format!(
                            "{what}: capture found {} races, sweep {want}",
                            c.replayed.race_count
                        )
                    });
                }
                t
            }
        })
        .collect();
    for r in Pool::new(JOBS).run_ordered(jobs) {
        match r {
            Ok(t) => tally.merge(t),
            Err(p) => tally.op(false, || format!("verification panicked: {}", p.message)),
        }
    }
}

/// Progress snapshots of one sweep: (phase, jobs done, elapsed, busy).
type Snapshots = Arc<Mutex<Vec<(&'static str, usize, Duration, Duration)>>>;

fn run_traced(spec: &Spec, seed: u64, seconds: f64, runner: &SweepRunner, out: &mut Outcome) {
    let configs = ALL_CONFIGS;
    let clock_ns = calibrate_clock_ns();

    // Untraced repetitions and traced replicas, interleaved so that
    // drift in the host's speed hits both alike.
    let start = Instant::now();
    let (mut ref_times, mut replica_times, mut attributed) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<SweepResults> = None;
    let mut last = None;
    while ref_times.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds / 2.0 {
        let r = match rep(runner, &configs) {
            Ok(r) => r,
            Err(e) => return out.tally.op(false, || format!("sweep failed: {e}")),
        };
        ref_times.push(r.secs);
        checks::no_panicked_runs(&mut out.tally, &r.results);
        let results = first.get_or_insert_with(|| r.results.clone());
        out.tally.op(*results == r.results, || {
            format!("repetition {} differs from the first", ref_times.len())
        });
        let replica = replica(spec, seed, results, &mut out.tally);
        replica_times.push(replica.wall_s);
        attributed.push(replica.attributed_s);
        last = Some(replica);
    }
    let (Some(results), Some(replica)) = (first, last) else {
        return;
    };
    let ref_s = median(&mut ref_times);
    let replica_s = median(&mut replica_times);
    let attributed_s = median(&mut attributed);

    // Pool phases, from the sweep's own progress callback.
    let snaps: Snapshots = Arc::default();
    let sink = Arc::clone(&snaps);
    let observed = SweepRunner::new(*runner.options())
        .jobs(JOBS)
        .apps(&spec.apps)
        .progress(move |p: &SweepProgress| {
            let busy = p.elapsed.mul_f64(p.utilization * JOBS as f64);
            if let Ok(mut v) = sink.lock() {
                v.push((p.phase, p.jobs_done, p.elapsed, busy));
            }
        })
        .run(&configs);
    out.tally
        .op(observed.as_ref().is_ok_and(|r| *r == results), || {
            "sweep with a progress callback gave different results".into()
        });
    let snaps = snaps.lock().map(|v| v.clone()).unwrap_or_default();
    let phases = pool_phases(&snaps);

    // The layer split of every completed cell.
    let mut acc = LayerAcc::default();
    let opts = spec.sweep_options(seed);
    let jobs: Vec<_> = results
        .apps
        .iter()
        .zip(&replica.workloads)
        .flat_map(|(app, w)| app.runs.iter().enumerate().map(move |(ri, r)| (w, ri, r)))
        .filter(|(_, _, r)| r.status.is_completed())
        .map(|(w, ri, record)| {
            move || {
                let mut acc = LayerAcc::default();
                let cell = Cell {
                    workload: w,
                    seed: run_seed(&opts, ri),
                    plan: record.target.plan(),
                };
                cells::decompose(&cell, |c| opts.machine_for(c), &mut acc);
                acc
            }
        })
        .collect();
    for r in Pool::new(JOBS).run_ordered(jobs) {
        match r {
            Ok(a) => acc.merge(a),
            Err(p) => out
                .tally
                .op(false, || format!("decomposition panicked: {}", p.message)),
        }
    }
    out.tally.merge(std::mem::take(&mut acc.tally));

    let m = &mut out.metrics;
    cells::emit(&acc, m);
    let sp = &replica.spans;
    m.set(
        "workloads.kernel_ms",
        sp.secs("workloads.kernel") * 1e3,
        "ms",
    );
    m.set("inject.plan_ms", sp.secs("inject.plan") * 1e3, "ms");
    m.set(
        "inject.removable_instances",
        replica.removable as f64,
        "count",
    );
    m.set("sweep.plan_s", phases.plan_s, "s");
    m.set("sweep.run_s", phases.run_s, "s");
    m.set("pool.utilization", phases.utilization, "ratio");
    m.set("sweep.tail_idle_s", phases.tail_idle_s, "s");

    // The daemon layer, on the first completed injected run of each app.
    let mut caps = Vec::new();
    for (app, w) in results.apps.iter().zip(&replica.workloads) {
        let first = app
            .runs
            .iter()
            .enumerate()
            .find(|(_, r)| r.status.is_completed());
        if let Some((ri, r)) = first {
            let cell = Cell {
                workload: w,
                seed: run_seed(&opts, ri),
                plan: r.target.plan(),
            };
            caps.extend(serve::captures_of(spec, seed, &cell));
        }
    }
    let mut serve_spans = Spans::default();
    serve::measure(&caps, &mut out.tally, &mut serve_spans, m);
    m.set("trace.clock_ns", clock_ns, "ns");
    // Each span reads the clock twice; spread over the two workers.
    let clock_reads_s = 2.0 * clock_ns * 1e-9 * replica.spans.count() as f64 / JOBS as f64;
    m.set("trace.overhead_pct", 100.0 * clock_reads_s / ref_s, "%");
    m.set(
        "trace.unattributed_pct",
        100.0 * (ref_s - attributed_s) / ref_s,
        "%",
    );
    m.set(
        "trace.replica_gap_pct",
        100.0 * (replica_s - ref_s) / ref_s,
        "%",
    );
    let mut all = replica.spans.clone();
    all.merge(&acc.spans);
    all.merge(&serve_spans);
    m.set(
        "trace.clock_share_pct",
        100.0 * 2.0 * clock_ns * 1e-9 * all.count() as f64 / all.total_secs(),
        "%",
    );
}

/// The sweep's pool phases as its progress callback saw them.
struct Phases {
    plan_s: f64,
    run_s: f64,
    utilization: f64,
    tail_idle_s: f64,
}

fn pool_phases(snaps: &[(&'static str, usize, Duration, Duration)]) -> Phases {
    let mut p = Phases {
        plan_s: 0.0,
        run_s: 0.0,
        utilization: 0.0,
        tail_idle_s: 0.0,
    };
    let (mut busy, mut avail) = (0.0, 0.0);
    for phase in ["plan", "run"] {
        let mut v: Vec<_> = snaps.iter().filter(|s| s.0 == phase).collect();
        v.sort_by_key(|s| s.1);
        let Some(last) = v.last() else { continue };
        let elapsed = last.2.as_secs_f64();
        busy += last.3.as_secs_f64();
        avail += elapsed * JOBS as f64;
        // Once the queue drains, each completion but the last leaves
        // its worker idle until the batch ends.
        p.tail_idle_s += v
            .iter()
            .rev()
            .skip(1)
            .take(JOBS - 1)
            .map(|s| elapsed - s.2.as_secs_f64())
            .sum::<f64>();
        if phase == "plan" {
            p.plan_s = elapsed;
        } else {
            p.run_s = elapsed;
        }
    }
    p.utilization = if avail > 0.0 { busy / avail } else { 0.0 };
    p
}

/// One repetition re-executed through the crates' public functions,
/// shaped like `SweepRunner::run` (kernels built serially, campaigns
/// planned and the injection matrix run on a pool), with a span around
/// every call into a layer.
struct Replica {
    workloads: Vec<Workload>,
    spans: Spans,
    removable: u64,
    wall_s: f64,
    /// Wall time the spans cover: the serial kernel span plus the pool
    /// phases' spans over the worker count.
    attributed_s: f64,
}

fn replica(spec: &Spec, seed: u64, results: &SweepResults, tally: &mut Tally) -> Replica {
    let opts = spec.sweep_options(seed);
    let configs = ALL_CONFIGS;
    let pool = Pool::new(JOBS);
    let start = Instant::now();
    let mut spans = Spans::default();
    let workloads = spans.time("workloads.kernel", || spec.kernels(seed));

    let dry = opts.machine_for(DetectorConfig::Cord { d: 16 });
    let plan_jobs: Vec<_> = spec
        .apps
        .iter()
        .zip(&workloads)
        .map(|(&app, w)| {
            let dry = &dry;
            move || {
                let t = Instant::now();
                let c = Campaign::plan(dry, w, opts.injections_per_app, opts.seed ^ app as u64);
                (c, t.elapsed())
            }
        })
        .collect();
    let planned = pool.run_ordered(plan_jobs);
    let mut removable = 0;
    let mut matrix: Vec<(usize, usize, InjectionTarget)> = Vec::new();
    for (ai, p) in planned.into_iter().enumerate() {
        let Ok((c, d)) = p else {
            tally.op(false, || "campaign planning panicked".into());
            continue;
        };
        spans.add("inject.plan", d);
        if let Ok(c) = c {
            removable += c.counts.acquires;
            matrix.extend(c.targets.iter().enumerate().map(|(ri, &t)| (ai, ri, t)));
        }
    }

    let run_jobs: Vec<_> = matrix
        .iter()
        .map(|&(ai, ri, target)| {
            let (w, configs) = (&workloads[ai], &configs);
            move || {
                let mut sp = Spans::default();
                let cell = Cell {
                    workload: w,
                    seed: run_seed(&opts, ri),
                    plan: target.plan(),
                };
                // Ideal first, as the sweep runs it, then the rest.
                let order = std::iter::once(DetectorConfig::Ideal).chain(
                    configs
                        .iter()
                        .copied()
                        .filter(|&c| c != DetectorConfig::Ideal),
                );
                let mut found = Vec::new();
                for config in order {
                    let machine = opts.machine_for(config);
                    let races = sp.time(&format!("replica.{}", config_key(config)), || {
                        cells::inline_run(&cell, &machine, config).map(|d| d.race_count())
                    });
                    let Some(races) = races else { break };
                    found.push((config.label(), races));
                }
                (ai, ri, found, sp)
            }
        })
        .collect();
    for r in pool.run_ordered(run_jobs) {
        let Ok((ai, ri, found, sp)) = r else {
            tally.op(false, || "replica cell panicked".into());
            continue;
        };
        spans.merge(&sp);
        let record = &results.apps[ai].runs[ri];
        let same = match record.status {
            RunStatus::Completed => {
                found.len() == configs.len()
                    && found.iter().all(|(label, races)| {
                        record
                            .detections
                            .get(label)
                            .is_some_and(|d| d.races == *races)
                    })
            }
            _ => found.len() < configs.len(),
        };
        tally.op(same, || {
            format!(
                "replica of {} {} disagrees with the sweep",
                results.apps[ai].app, record.target
            )
        });
    }
    let wall_s = start.elapsed().as_secs_f64();
    let pooled = spans.secs("inject.plan") + spans.secs_prefixed("replica.");
    Replica {
        attributed_s: spans.secs("workloads.kernel") + pooled / JOBS as f64,
        workloads,
        spans,
        removable,
        wall_s,
    }
}
