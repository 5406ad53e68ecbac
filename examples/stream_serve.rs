//! Streaming detection: capture a run's event stream, hand it to the
//! cord-serve daemon, and check the daemon's verdict is byte-identical
//! to detecting inline.
//!
//! ```text
//! cargo run --release --example stream_serve [app]
//! ```
//!
//! The pipeline demonstrated here is the detector-as-a-service redesign:
//!
//! 1. run the simulator with a `CaptureObserver` tee, producing the
//!    reified `StreamEvent` sequence the detector saw;
//! 2. encode it with the versioned wire codec (`encode_capture`) — a
//!    self-describing stream whose header names the detector and the
//!    machine geometry;
//! 3. start a `Daemon` on a Unix socket and replay the capture through
//!    it with `ServeClient`;
//! 4. compare the daemon's drained report bytes against the inline
//!    detector's — they must match exactly.

use cord::prelude::*;
use cord::stream::{
    encode_capture, CaptureObserver, DetectorConfig, ObsCtx, Query, ServeClient, StreamGeometry,
    StreamHeader,
};
use cord::workloads::{all_apps, kernel, AppKind, ScaleClass};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let app_name = args.get(1).map(String::as_str).unwrap_or("fft");
    let app = all_apps()
        .into_iter()
        .find(|a| a.name() == app_name)
        .unwrap_or(AppKind::Fft);

    let threads = 4;
    let seed = 42;
    let workload = kernel(app, ScaleClass::Small, threads, seed);
    let machine = MachineConfig::paper_4core();
    let config = DetectorConfig::Cord { d: 16 };

    // 1. Inline detection with a capture tee.
    let det = config.build_sink(threads, machine.cores, seed, ObsCtx::disabled());
    let obs = CaptureObserver::new(det);
    let m = Machine::new(
        machine.clone(),
        &workload,
        obs,
        seed,
        cord::sim::engine::InjectionPlan::none(),
    );
    let (_, obs) = m.run().expect("simulation completes");
    let (mut det, events) = obs.into_parts();
    let inline = det.drain();
    let inline_bytes = inline.to_bytes();
    println!(
        "{}: captured {} events, inline {} found {} races",
        workload.name(),
        events.len(),
        inline.detector,
        inline.race_count
    );

    // 2. Encode the capture (this is also the on-disk capture format).
    let geometry = StreamGeometry::new(threads, machine.cores, workload.layout());
    let header = StreamHeader::new(workload.name(), &config.label(), seed, geometry);
    let capture = encode_capture(&header, &events);
    println!("capture: {} bytes on the wire", capture.len());

    // 3. Replay through a daemon over a Unix socket.
    let socket =
        std::env::temp_dir().join(format!("cord-stream-serve-{}.sock", std::process::id()));
    let daemon = cord::serve::Daemon::new(cord::serve::DaemonConfig {
        socket: socket.clone(),
        snapshot: None,
        ..Default::default()
    });
    let handle = std::thread::spawn(move || daemon.run());
    let client = ServeClient::new(&socket);
    assert!(client.wait_ready(250), "daemon did not come up");
    let daemon_bytes = client.replay_capture(&capture).expect("daemon replay");

    // 4. The contract.
    assert_eq!(
        daemon_bytes, inline_bytes,
        "daemon report diverged from inline detection"
    );
    println!(
        "daemon report is byte-identical to inline ({} bytes)",
        daemon_bytes.len()
    );

    let status = client.query(Query::Status).expect("status");
    println!("daemon status: {status}");
    client.shutdown().expect("shutdown");
    handle
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");
    let _ = std::fs::remove_file(&socket);
}
