//! Fast self-test of the benchmark at Tiny size: every metric
//! `BENCHMARK.json` names is emitted with its unit on every workload,
//! and the correctness checks really fail on wrong output.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use cord_detectors::DetectorConfig;
use cord_json::Json;
use cord_perfbench::cells::{self, Cell};
use cord_perfbench::checks;
use cord_perfbench::report::Tally;
use cord_perfbench::serve::Served;
use cord_perfbench::spec::Spec;
use cord_sim::engine::InjectionPlan;
use std::collections::BTreeMap;

/// `(name, unit)` of every metric in the `BENCHMARK.json` list `key`.
fn declared(key: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let Ok(Json::Array(list)) = doc.field(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    list.iter()
        .map(|m| {
            let s = |f: &str| match m.field(f) {
                Ok(Json::Str(s)) => s.clone(),
                other => panic!("{key} entry without {f}: {other:?}"),
            };
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn declared_workloads_are_the_runnable_ones() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let Ok(Json::Array(list)) = doc.field("workloads") else {
        panic!("no workloads list");
    };
    let names: Vec<String> = list
        .iter()
        .map(|w| match w.field("name") {
            Ok(Json::Str(s)) => s.clone(),
            other => panic!("workload without a name: {other:?}"),
        })
        .collect();
    assert_eq!(names, Spec::names());
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(key);
        for name in Spec::names() {
            let spec = Spec::named(name).expect("named workload").tiny();
            let out = cord_perfbench::run(&spec, 7, 0.0, traced);
            assert!(
                out.correct(),
                "{name} trace={traced}: {:?}",
                out.tally.failures
            );
            assert!(out.tally.attempted > 0, "{name}: nothing attempted");
            let got: BTreeMap<String, String> = out
                .metrics
                .0
                .iter()
                .map(|(k, &(_, unit))| (k.clone(), unit.to_string()))
                .collect();
            assert_eq!(
                got, want,
                "{name} trace={traced}: metric names or units differ"
            );
            assert!(
                out.metrics.0.values().all(|(v, _)| v.is_finite()),
                "{name}: non-finite metric"
            );
            let line = out.result_line();
            assert!(
                Json::parse(&line).is_ok(),
                "result line is not JSON: {line}"
            );
        }
    }
}

/// A clean Tiny run of the first sweep app under `config`: its
/// captured stream and inline report.
fn tiny_capture(config: DetectorConfig) -> (Vec<cord_obs::StreamEvent>, Vec<u8>, usize) {
    let spec = Spec::named("sweep-splash4").unwrap().tiny();
    let workloads = spec.kernels(3);
    let cell = Cell {
        workload: &workloads[0],
        seed: 3,
        plan: InjectionPlan::none(),
    };
    let machine = spec.machine(3, config);
    let (events, inline) = cells::capture_run(&cell, &machine, config).expect("clean run");
    (events, inline, machine.cores)
}

#[test]
fn a_mutated_serve_report_is_counted_failed() {
    let config = DetectorConfig::Ideal;
    let (events, inline, _) = tiny_capture(config);
    let spec = Spec::named("sweep-splash4").unwrap().tiny();
    let workload = &spec.kernels(3)[0];
    let capture = cells::encode(workload, &spec.machine(3, config), config, 3, &events);
    let mut served = Served::start().expect("daemon starts");
    let report = served.replay(&capture).expect("daemon replays the capture");
    served.stop();

    let mut ok = Tally::default();
    checks::same_report(&mut ok, "faithful", &inline, &report);
    assert_eq!((ok.attempted, ok.failed), (1, 0));

    let mut mutated = report.clone();
    let last = mutated.len() - 2;
    mutated[last] ^= 1;
    let mut bad = Tally::default();
    checks::same_report(&mut bad, "mutated", &inline, &mutated);
    assert_eq!((bad.attempted, bad.failed), (1, 1));
}

#[test]
fn a_forged_cord_only_race_is_counted_failed() {
    let config = DetectorConfig::Cord { d: 16 };
    let (events, _, cores) = tiny_capture(config);
    let cord = cells::replay(config, 4, cores, 3, &events).race_count;
    let ideal = cells::replay(DetectorConfig::Ideal, 4, cores, 3, &events).race_count;

    let mut ok = Tally::default();
    checks::no_cord_only_race(&mut ok, "clean", cord, ideal);
    assert_eq!((ok.attempted, ok.failed), (1, 0));

    // The same stream, with CORD claiming a race Ideal does not see.
    assert_eq!(ideal, 0, "the clean Tiny run is race-free");
    let mut bad = Tally::default();
    checks::no_cord_only_race(&mut bad, "forged", cord + 1, ideal);
    assert_eq!((bad.attempted, bad.failed), (1, 1));
}
