//! Command-line driver for streaming detection (`cord-serve`).
//!
//! ```text
//! cargo run --release -p cord-bench --bin serve -- daemon --socket /tmp/cord.sock
//! cargo run --release -p cord-bench --bin serve -- capture --app fft --config CORD-D16 --out fft.stream
//! cargo run --release -p cord-bench --bin serve -- replay --socket /tmp/cord.sock --capture fft.stream
//! cargo run --release -p cord-bench --bin serve -- status --socket /tmp/cord.sock
//! cargo run --release -p cord-bench --bin serve -- smoke
//! ```
//!
//! * `daemon` runs the detection service in the foreground until a
//!   `shutdown` query arrives.
//! * `capture` simulates a workload with a capture tee and writes the
//!   wire-encoded event stream; the file is exactly what a daemon
//!   session consumes.
//! * `replay` streams a capture through a running daemon and prints the
//!   drained race report (canonical bytes) to stdout.
//! * `status` / `races` / `metrics` / `shutdown` are one-shot queries.
//! * `smoke` is the CI gate: it spawns a daemon as a child process,
//!   captures a small workload matrix, replays every capture, and
//!   byte-compares each daemon report against inline detection,
//!   exiting non-zero on any divergence.

use cord_bench::parse_flag;
use cord_core::{CaptureObserver, Detector, ObsCtx};
use cord_detectors::DetectorConfig;
use cord_obs::wire::{encode_capture, StreamGeometry};
use cord_obs::{StreamEvent, StreamHeader};
use cord_serve::{Daemon, DaemonConfig, Query, ServeClient};
use cord_sim::config::MachineConfig;
use cord_sim::engine::{InjectionPlan, Machine};
use cord_trace::program::Workload;
use cord_workloads::{all_apps, kernel, ScaleClass};
use std::error::Error;
use std::io::Write;
use std::path::PathBuf;

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("serve: {msg}");
    std::process::exit(2);
}

/// Parses one subcommand's flags, each `--name VALUE`, in one loop and
/// returns the values of `names` in order. An unknown argument, or a
/// flag whose value is missing or is itself a flag, exits 2.
fn flags<const N: usize>(args: &[String], names: [&str; N]) -> [Option<String>; N] {
    let mut values = std::array::from_fn(|_| None);
    let mut it = args.iter().cloned();
    while let Some(a) = it.next() {
        let Some(i) = names.iter().position(|n| *n == a) else {
            fail(format!("unknown argument {a:?}"))
        };
        let value = it.next().filter(|v| !v.starts_with("--"));
        values[i] = Some(value.unwrap_or_else(|| fail(format!("{a} needs a value"))));
    }
    values
}

/// The parsed `value` of flag `name`, or `default` when it is absent.
fn num<T: std::str::FromStr>(name: &str, value: Option<String>, default: T) -> Result<T, String> {
    value.map_or(Ok(default), |v| parse_flag(name, Some(v)))
}

/// The value of a required flag (`usage` names it), or exit 2.
fn required(value: Option<String>, usage: &str) -> String {
    value.unwrap_or_else(|| fail(format!("{usage} is required")))
}

fn workload_for(app_name: &str, threads: usize, seed: u64) -> Workload {
    let app = all_apps()
        .into_iter()
        .find(|a| a.name() == app_name)
        .unwrap_or_else(|| fail(format!("unknown app `{app_name}`")));
    kernel(app, ScaleClass::Small, threads, seed)
}

/// Runs `workload` under `config` with a capture tee; returns the
/// captured events and the inline report's canonical bytes.
fn capture_run(
    workload: &Workload,
    machine: &MachineConfig,
    config: DetectorConfig,
    seed: u64,
) -> Result<(Vec<StreamEvent>, Vec<u8>), Box<dyn Error>> {
    let threads = workload.num_threads();
    let det = config.build_sink(threads, machine.cores, seed, ObsCtx::disabled());
    let obs = CaptureObserver::new(det);
    let m = Machine::new(machine.clone(), workload, obs, seed, InjectionPlan::none());
    let (_, obs) = m.run()?;
    let (mut det, events) = obs.into_parts();
    let inline = det.drain().to_bytes();
    Ok((events, inline))
}

fn encode_run(
    workload: &Workload,
    machine: &MachineConfig,
    config: DetectorConfig,
    seed: u64,
    events: &[StreamEvent],
) -> Vec<u8> {
    let geometry = StreamGeometry::new(workload.num_threads(), machine.cores, workload.layout());
    let header = StreamHeader::new(workload.name(), &config.label(), seed, geometry);
    encode_capture(&header, events)
}

fn cmd_daemon(args: &[String]) -> Result<(), Box<dyn Error>> {
    let [socket, snapshot, every] = flags(args, ["--socket", "--snapshot", "--snapshot-every"]);
    let mut cfg = DaemonConfig {
        socket: required(socket, "--socket PATH").into(),
        snapshot: snapshot.map(PathBuf::from),
        ..DaemonConfig::default()
    };
    cfg.snapshot_every = num("--snapshot-every", every, cfg.snapshot_every)?;
    eprintln!("serve: listening on {}", cfg.socket.display());
    Daemon::new(cfg).run()?;
    Ok(())
}

fn cmd_capture(args: &[String]) -> Result<(), Box<dyn Error>> {
    let [app, label, seed, threads, out] =
        flags(args, ["--app", "--config", "--seed", "--threads", "--out"]);
    let app = app.unwrap_or_else(|| "fft".to_owned());
    let label = label.unwrap_or_else(|| "CORD-D16".to_owned());
    let seed = num("--seed", seed, 42)?;
    let threads = num("--threads", threads, 4)?;
    let out = required(out, "--out FILE");
    let config = DetectorConfig::from_label(&label)
        .unwrap_or_else(|| fail(format!("unknown detector label `{label}`")));

    let workload = workload_for(&app, threads, seed);
    let machine = MachineConfig::paper_4core();
    let (events, inline) = capture_run(&workload, &machine, config, seed)?;
    let bytes = encode_run(&workload, &machine, config, seed, &events);
    std::fs::write(&out, &bytes)?;
    eprintln!(
        "serve: {app} under {label}: {} events, {} bytes -> {out} (inline report {} bytes)",
        events.len(),
        bytes.len(),
        inline.len()
    );
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), Box<dyn Error>> {
    let [socket, capture] = flags(args, ["--socket", "--capture"]);
    let client = ServeClient::new(required(socket, "--socket PATH"));
    let path = required(capture, "--capture FILE");
    let capture = std::fs::read(&path)?;
    let report = client.replay_capture(&capture)?;
    std::io::stdout().write_all(&report)?;
    println!();
    Ok(())
}

fn cmd_query(args: &[String], q: Query) -> Result<(), Box<dyn Error>> {
    let [socket] = flags(args, ["--socket"]);
    let client = ServeClient::new(required(socket, "--socket PATH"));
    println!("{}", client.query(q)?);
    Ok(())
}

/// The CI gate: a daemon child process must reproduce inline detection
/// byte-for-byte across a small (app × config × seed) matrix.
fn cmd_smoke(args: &[String]) -> Result<(), Box<dyn Error>> {
    let [apps] = flags(args, ["--apps"]);
    let apps: Vec<String> = apps
        .unwrap_or_else(|| "fft,lu".to_owned())
        .split(',')
        .map(str::to_owned)
        .collect();
    let labels = ["CORD-D16", "Ideal", "L2Cache(VC)"];
    let seeds = [42u64, 1007];
    let socket = std::env::temp_dir().join(format!("cord-serve-smoke-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);

    let exe = std::env::current_exe()?;
    let mut child = std::process::Command::new(&exe)
        .args(["daemon", "--socket"])
        .arg(&socket)
        .stderr(std::process::Stdio::null())
        .spawn()?;
    let client = ServeClient::new(&socket);
    if !client.wait_ready(500) {
        let _ = child.kill();
        fail("daemon child never came up");
    }

    let machine = MachineConfig::paper_4core();
    let mut checked = 0;
    let mut failed = 0;
    for app in &apps {
        for label in labels {
            for seed in seeds {
                let config = DetectorConfig::from_label(label).expect("known label");
                let workload = workload_for(app, 4, seed);
                let (events, inline) = capture_run(&workload, &machine, config, seed)?;
                let capture = encode_run(&workload, &machine, config, seed, &events);
                let via_daemon = client.replay_capture(&capture)?;
                checked += 1;
                if via_daemon == inline {
                    eprintln!(
                        "serve: ok {app} {label} seed={seed} ({} bytes)",
                        inline.len()
                    );
                } else {
                    failed += 1;
                    eprintln!(
                        "serve: MISMATCH {app} {label} seed={seed}: daemon {} bytes vs inline {} bytes",
                        via_daemon.len(),
                        inline.len()
                    );
                }
            }
        }
    }
    client.shutdown()?;
    let _ = child.wait();
    let _ = std::fs::remove_file(&socket);
    println!("serve smoke: {checked} replays, {failed} mismatches");
    if failed > 0 {
        std::process::exit(1);
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let rest = if args.is_empty() {
        &args[..]
    } else {
        &args[1..]
    };
    let result = match cmd {
        "daemon" => cmd_daemon(rest),
        "capture" => cmd_capture(rest),
        "replay" => cmd_replay(rest),
        "status" => cmd_query(rest, Query::Status),
        "races" => cmd_query(rest, Query::Races),
        "metrics" => cmd_query(rest, Query::Metrics),
        "shutdown" => cmd_query(rest, Query::Shutdown),
        "smoke" => cmd_smoke(rest),
        _ => {
            eprintln!(
                "usage: serve <daemon|capture|replay|status|races|metrics|shutdown|smoke> [flags]\n\
                 see the module docs at the top of crates/bench/src/bin/serve.rs"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        fail(e);
    }
}
