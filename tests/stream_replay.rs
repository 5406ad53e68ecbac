//! Capture→replay byte identity for every detector configuration: a
//! captured, wire-encoded stream replayed into a fresh detector must
//! drain to exactly the report inline detection produced.

use cord::inject::Campaign;
use cord::sim::engine::{InjectionPlan, Machine};
use cord::stream::{
    apply_stream_event, decode_capture, encode_capture, CaptureObserver, Detector, DetectorConfig,
    ObsCtx, StreamGeometry, StreamHeader,
};
use cord::trace::program::Workload;
use cord::workloads::{kernel, AppKind, ScaleClass};

const SEED: u64 = 42;

/// Runs `config` inline on its own machine and returns the drained
/// report bytes.
fn inline_bytes(config: DetectorConfig, w: &Workload, plan: InjectionPlan) -> Vec<u8> {
    let machine = config.machine();
    let det = config.build_sink(w.num_threads(), machine.cores, SEED, ObsCtx::disabled());
    let (_, mut det) = Machine::new(machine, w, det, SEED, plan)
        .run()
        .expect("run completes");
    det.drain().to_bytes()
}

/// Captures `config`'s run, wire-encodes and decodes the stream, and
/// replays it into a detector built from the decoded header.
fn replayed_bytes(config: DetectorConfig, w: &Workload, plan: InjectionPlan) -> Vec<u8> {
    let machine = config.machine();
    let det = config.build_sink(w.num_threads(), machine.cores, SEED, ObsCtx::disabled());
    let obs = CaptureObserver::new(det);
    let (_, obs) = Machine::new(machine.clone(), w, obs, SEED, plan)
        .run()
        .expect("run completes");
    let (_, events) = obs.into_parts();
    let geometry = StreamGeometry::new(w.num_threads(), machine.cores, w.layout());
    let header = StreamHeader::new(w.name(), &config.label(), SEED, geometry);
    let (header, events) =
        decode_capture(&encode_capture(&header, &events)).expect("capture decodes");
    let mut det = DetectorConfig::from_label(&header.detector)
        .expect("header names a detector")
        .build_sink(
            header.geometry.threads as usize,
            header.geometry.cores as usize,
            header.seed,
            ObsCtx::disabled(),
        );
    for ev in &events {
        apply_stream_event(&mut det, ev);
    }
    det.drain().to_bytes()
}

#[test]
fn capture_replay_is_byte_identical_for_every_configuration() {
    let configs = DetectorConfig::all_for_sweep()
        .into_iter()
        .chain([DetectorConfig::Ideal]);
    for config in configs {
        for app in [AppKind::Fft, AppKind::WaterN2] {
            let w = kernel(app, ScaleClass::Tiny, 4, SEED);
            let campaign = Campaign::plan(&config.machine(), &w, 1, SEED).expect("dry run");
            let injected = campaign.targets.first().expect("one acquire target").plan();
            for (what, plan) in [("clean", InjectionPlan::none()), ("injected", injected)] {
                let inline = inline_bytes(config, &w, plan);
                let replayed = replayed_bytes(config, &w, plan);
                assert!(
                    inline == replayed,
                    "{} {} {what}: replay drained {} bytes, inline {} bytes",
                    config.label(),
                    w.name(),
                    replayed.len(),
                    inline.len()
                );
            }
        }
    }
}
