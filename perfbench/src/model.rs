//! The simulated (deterministic) end-to-end metrics: CORD's relative
//! execution time (Fig 11), its problem detection relative to Ideal
//! (Fig 12), and its order-log density. A pure speed change must leave
//! all three unchanged.

use crate::checks;
use crate::report::{Metrics, Tally};
use crate::spec::{Spec, JOBS, MODEL_INJECTIONS};
use cord_bench::runner::SweepRunner;
use cord_bench::sweep::SweepOptions;
use cord_core::{CordConfig, ExperimentHarness};
use cord_detectors::DetectorConfig;
use cord_json::{obj, Json};
use cord_pool::Pool;
use cord_sim::engine::InjectionPlan;
use cord_trace::program::Workload;

const CORD16: DetectorConfig = DetectorConfig::Cord { d: 16 };

/// Clean-run figures of one app under one kernel seed.
struct Clean {
    base_cycles: u64,
    cord_cycles: u64,
    log_bytes: u64,
    instructions: u64,
}

/// Measures the simulated metrics into `m`, counting each run and
/// check in `tally`, and returns the statistics behind them for the
/// digest. `inputs` holds the spec's kernels under each of
/// [`Spec::model_seeds`]`(seed)`, in that order.
pub fn measure(
    spec: &Spec,
    seed: u64,
    inputs: &[Vec<Workload>],
    tally: &mut Tally,
    m: &mut Metrics,
) -> Vec<(String, Json)> {
    let cfg = CordConfig::with_d(16);
    let harnesses: Vec<ExperimentHarness> = Spec::model_seeds(seed)
        .map(|k| ExperimentHarness::new(spec.machine(k, CORD16)).with_seed(k))
        .collect();
    let jobs: Vec<_> = harnesses
        .iter()
        .zip(inputs)
        .flat_map(|(h, ws)| ws.iter().map(move |w| (h, w)))
        .map(|(harness, w)| {
            let cfg = &cfg;
            move || -> Result<Clean, String> {
                let base = harness.run_baseline(w).map_err(|e| e.to_string())?;
                let cord = harness.run_cord(w, cfg).map_err(|e| e.to_string())?;
                harness
                    .verify_replay(w, cfg, InjectionPlan::none())
                    .map_err(|e| format!("order log does not replay: {e}"))?;
                Ok(Clean {
                    base_cycles: base.stats.cycles,
                    cord_cycles: cord.sim.stats.cycles,
                    log_bytes: cord.log_bytes,
                    instructions: cord.sim.stats.instr_counts.iter().sum(),
                })
            }
        })
        .collect();
    let mut clean = Vec::new();
    let runs = Spec::model_seeds(seed)
        .zip(inputs)
        .flat_map(|(k, ws)| ws.iter().map(move |w| (k, w)))
        .zip(Pool::new(JOBS).run_ordered(jobs));
    for ((k, w), r) in runs {
        match r
            .map_err(|p| format!("panicked: {}", p.message))
            .and_then(|r| r)
        {
            Ok(c) => {
                tally.op(true, String::new);
                clean.push((k, w.name(), c));
            }
            Err(e) => tally.op(false, || format!("{} clean CORD-D16 run: {e}", w.name())),
        }
    }
    let rel_time = clean
        .iter()
        .map(|(_, _, c)| c.cord_cycles as f64 / c.base_cycles as f64)
        .sum::<f64>()
        / clean.len() as f64;
    let log_bytes: u64 = clean.iter().map(|(_, _, c)| c.log_bytes).sum();
    let instructions: u64 = clean.iter().map(|(_, _, c)| c.instructions).sum();

    let (mut found, mut manifested, mut completed, mut cross) = (0u64, 0u64, 0u64, 0u64);
    for k in Spec::model_seeds(seed) {
        let opts = SweepOptions {
            injections_per_app: MODEL_INJECTIONS,
            seed: k,
            ..spec.sweep_options(seed)
        };
        let sample = SweepRunner::new(opts)
            .jobs(JOBS)
            .apps(&spec.apps)
            .run(&[CORD16, DetectorConfig::Ideal]);
        match &sample {
            Ok(results) => {
                checks::no_panicked_runs(tally, results);
                cross += checks::cross_run_cord_only(results);
                for app in &results.apps {
                    found += app.problems_found(&CORD16.label()) as u64;
                    manifested += app.manifested().count() as u64;
                    completed += app.completed().count() as u64;
                }
            }
            Err(e) => tally.op(false, || format!("detection sample sweep failed: {e}")),
        }
    }

    m.set("cord_rel_time_pct", 100.0 * rel_time, "%");
    m.set(
        "cord_detect_pct",
        100.0 * found as f64 / manifested as f64,
        "%",
    );
    m.set(
        "log_bytes_per_kinstr",
        1e3 * log_bytes as f64 / instructions as f64,
        "B/kinstr",
    );
    let per_app: Vec<Json> = clean
        .iter()
        .map(|(k, name, c)| {
            obj(vec![
                ("kernel_seed", Json::UInt(*k)),
                ("app", Json::Str((*name).into())),
                ("base_cycles", Json::UInt(c.base_cycles)),
                ("cord_cycles", Json::UInt(c.cord_cycles)),
                ("log_bytes", Json::UInt(c.log_bytes)),
                ("instructions", Json::UInt(c.instructions)),
            ])
        })
        .collect();
    vec![
        ("clean_runs".into(), Json::Array(per_app)),
        (
            "detection_sample".into(),
            obj(vec![
                ("injections_per_app", Json::UInt(MODEL_INJECTIONS as u64)),
                ("completed", Json::UInt(completed)),
                ("manifested", Json::UInt(manifested)),
                ("cord_d16_found", Json::UInt(found)),
                ("cord_only_cross_run", Json::UInt(cross)),
            ]),
        ),
    ]
}
