//! The daemon layer: captured streams replayed through a `cord-serve`
//! daemon on a thread of this process, closed loop, one connection at
//! a time. Measured in the traced run of each sweep.

use crate::cells::{self, Cell};
use crate::checks;
use crate::report::{Metrics, Tally};
use crate::spec::Spec;
use crate::timing::Spans;
use cord_detectors::DetectorConfig;
use cord_json::Json;
use cord_obs::wire::decode_capture;
use cord_serve::{Daemon, DaemonConfig, Query, ServeClient};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;

/// The detectors the daemon serves.
const SERVED_CONFIGS: [DetectorConfig; 3] = [
    DetectorConfig::Cord { d: 16 },
    DetectorConfig::Ideal,
    DetectorConfig::VcL2Cache,
];

/// One wire-encoded capture and the inline report it must reproduce.
pub struct Capture {
    /// What was captured, for failure messages.
    pub what: String,
    /// The detector the stream's header names.
    pub config: DetectorConfig,
    /// The capture, exactly as a session sends it.
    pub bytes: Vec<u8>,
    /// Inline detection's report of the same run.
    pub inline: Vec<u8>,
}

/// Captures `cell` under every served detector on `spec`'s machines.
/// A run that does not complete yields no capture.
pub fn captures_of(spec: &Spec, seed: u64, cell: &Cell<'_>) -> Vec<Capture> {
    SERVED_CONFIGS
        .iter()
        .filter_map(|&config| {
            let machine = spec.machine(seed, config);
            let (events, inline) = cells::capture_run(cell, &machine, config)?;
            Some(Capture {
                what: format!(
                    "{} {:?} {}",
                    cell.workload.name(),
                    cell.plan,
                    config.label()
                ),
                config,
                bytes: cells::encode(cell.workload, &machine, config, cell.seed, &events),
                inline,
            })
        })
        .collect()
}

/// A daemon serving on a socket in the working directory, on a thread
/// of this process.
pub struct Served {
    client: ServeClient,
    handle: Option<JoinHandle<Result<(), cord_serve::ServeError>>>,
    socket: PathBuf,
}

impl Served {
    /// Starts a daemon with the default configuration (no snapshots)
    /// and waits until it accepts connections.
    pub fn start() -> Result<Served, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let socket = PathBuf::from(format!(".perfbench-{}-{n}.sock", std::process::id()));
        let daemon = Daemon::new(DaemonConfig {
            socket: socket.clone(),
            snapshot: None,
            ..DaemonConfig::default()
        });
        let handle = std::thread::spawn(move || daemon.run());
        let client = ServeClient::new(&socket);
        let mut served = Served {
            client,
            handle: Some(handle),
            socket,
        };
        if !served.client.wait_ready(500) {
            served.stop();
            return Err("daemon never accepted a connection".into());
        }
        Ok(served)
    }

    /// Streams one capture through a fresh session; returns the report.
    pub fn replay(&self, capture: &[u8]) -> Result<Vec<u8>, cord_serve::ServeError> {
        self.client.replay_capture(capture)
    }

    /// Events the daemon has ingested so far.
    fn events(&self) -> Result<u64, String> {
        let status = self
            .client
            .query(Query::Status)
            .map_err(|e| e.to_string())?;
        match status.field("events") {
            Ok(Json::UInt(n)) => Ok(*n),
            _ => Err(format!("status without an event count: {status}")),
        }
    }

    /// Shuts the daemon down and waits for its thread.
    pub fn stop(&mut self) {
        if let Some(h) = self.handle.take() {
            let _ = self.client.shutdown();
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Streams every capture through a daemon, one session at a time,
/// checking each report against inline detection; then times
/// `decode_capture` and a detector-only replay of each capture, so the
/// daemon's own share of a session shows as
/// `serve.self_ms_per_session`. `serve.events` is what the daemon's
/// status query counted per session.
pub fn measure(caps: &[Capture], tally: &mut Tally, spans: &mut Spans, m: &mut Metrics) {
    let mut served = match Served::start() {
        Ok(s) => s,
        Err(e) => return tally.op(false, || e),
    };
    let before = served.events();
    for c in caps {
        match spans.time("serve.session", || served.replay(&c.bytes)) {
            Ok(got) => {
                checks::same_report(tally, &format!("{} via daemon", c.what), &c.inline, &got)
            }
            Err(e) => tally.op(false, || format!("{}: {e}", c.what)),
        }
    }
    let after = served.events();
    served.stop();
    for c in caps {
        let Ok((header, ev)) = spans.time("serve.decode", || decode_capture(&c.bytes)) else {
            tally.op(false, || format!("{}: capture does not decode", c.what));
            continue;
        };
        let g = &header.geometry;
        let report = spans.time("serve.detect", || {
            cells::replay(
                c.config,
                g.threads as usize,
                g.cores as usize,
                header.seed,
                &ev,
            )
        });
        checks::same_report(tally, &c.what, &c.inline, &report.to_bytes());
    }
    let n = caps.len() as f64;
    let own = spans.secs("serve.session") - spans.secs("serve.decode") - spans.secs("serve.detect");
    m.set("serve.self_ms_per_session", own / n * 1e3, "ms");
    let ingested = match (before, after) {
        (Ok(b), Ok(a)) => a.saturating_sub(b) as f64 / n,
        _ => 0.0,
    };
    m.set("serve.events", ingested, "count");
}
