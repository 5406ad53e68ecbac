//! The daemon: accept loop, ingest sessions, queries, and snapshots.

use crate::protocol::{encode_response, encode_response_bytes, Query, ServeError, FRAME_QUERY};
use cord_core::{apply_stream_event, Detector, ObsCtx};
use cord_detectors::{DetectorConfig, DetectorEnum};
use cord_json::durable::{self, RecoveryEvent};
use cord_json::{obj, Json, ToJson};
use cord_obs::wire::{
    decode_events, read_frame, write_frame, StreamGeometry, FRAME_EVENTS, FRAME_HEADER,
};
use cord_obs::{AccessPath, CoreId, Histogram, MetricsRegistry, StreamEvent, StreamHeader};
use cord_pool::lock_unpoisoned;
use std::io::{BufReader, BufWriter, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread;

/// How a daemon runs: where it listens and how it snapshots.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Unix-domain socket path. A stale file at this path is removed at
    /// startup.
    pub socket: PathBuf,
    /// Durable snapshot document path; `None` disables snapshots.
    pub snapshot: Option<PathBuf>,
    /// Events between periodic snapshots (a final snapshot is always
    /// written when a session drains); `0` keeps only final snapshots.
    pub snapshot_every: u64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            socket: PathBuf::from("cord-serve.sock"),
            snapshot: None,
            snapshot_every: 100_000,
        }
    }
}

/// Daemon-wide state behind the queries.
#[derive(Debug, Default)]
struct DaemonState {
    sessions_started: u64,
    sessions_completed: u64,
    events_ingested: u64,
    races_reported: u64,
    snapshots_written: u64,
    /// Abnormal recoveries: snapshot generations skipped at startup.
    recovery: Vec<RecoveryEvent>,
    /// All races from drained sessions, in drain order.
    races: Vec<Json>,
    /// Merged metrics of drained sessions.
    metrics: MetricsRegistry,
    /// Per-access ingest latency across drained sessions (how long the
    /// detector spent on each Access event), merged pointwise.
    ingest_latency: Histogram,
    /// Header info of the most recent session.
    last_workload: String,
    last_detector: String,
}

struct Shared {
    cfg: DaemonConfig,
    state: Mutex<DaemonState>,
    shutdown: AtomicBool,
}

/// A streaming race-detection daemon on a Unix-domain socket.
pub struct Daemon {
    shared: Shared,
}

impl Daemon {
    /// A daemon with the given configuration (not yet listening).
    pub fn new(cfg: DaemonConfig) -> Daemon {
        let mut state = DaemonState::default();
        // Surface prior-snapshot recovery immediately: a corrupt primary
        // generation is a structured status fact, not a stderr line.
        if let Some(path) = &cfg.snapshot {
            let load = durable::load_checkpoint(path);
            state.recovery = load.warnings;
        }
        Daemon {
            shared: Shared {
                cfg,
                state: Mutex::new(state),
                shutdown: AtomicBool::new(false),
            },
        }
    }

    /// Binds the socket and serves until a `shutdown` query arrives.
    /// Each connection is one thread, which is the whole session. The
    /// loop keeps no handle to it: a finished session's thread is
    /// released at once, and the scope still waits for every session
    /// before `run` returns.
    pub fn run(&self) -> Result<(), ServeError> {
        let shared = &self.shared;
        let socket = &shared.cfg.socket;
        let _ = std::fs::remove_file(socket);
        let listener = UnixListener::bind(socket)?;
        thread::scope(|scope| {
            for conn in listener.incoming() {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                // A failed or panicking session must not take the daemon
                // down; the error is the client's problem (their
                // connection drops).
                scope.spawn(move || {
                    let _ =
                        panic::catch_unwind(AssertUnwindSafe(|| handle_connection(stream, shared)));
                });
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
        });
        let _ = std::fs::remove_file(socket);
        Ok(())
    }
}

fn handle_connection(stream: UnixStream, shared: &Shared) -> Result<(), ServeError> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let first = match read_frame(&mut reader)? {
        Some(f) => f,
        None => return Ok(()),
    };
    match first.split_first() {
        Some((&FRAME_HEADER, _)) => {
            let header = StreamHeader::decode(&first)?;
            run_session(header, reader, stream, shared)
        }
        Some((&FRAME_QUERY, _)) => {
            let q = Query::decode(&first)?;
            let mut writer = BufWriter::new(stream);
            answer_query(q, shared, None, &mut writer)
        }
        Some((&tag, _)) => Err(ServeError::BadFrame { tag }),
        None => Err(ServeError::Protocol("empty first frame".into())),
    }
}

/// One ingest session's detector and progress. The connection's thread
/// owns it: it decodes a frame, applies it, and only then reads the
/// next, so a detector that falls behind stops the reads, the socket
/// buffer fills, and the producer's writes block.
struct Session {
    header: StreamHeader,
    det: DetectorEnum,
    /// Per-access ingest latency since the last drain.
    ingest_latency: Histogram,
    events: u64,
    since_snapshot: u64,
    drained: bool,
}

fn run_session(
    header: StreamHeader,
    mut reader: BufReader<UnixStream>,
    stream: UnixStream,
    shared: &Shared,
) -> Result<(), ServeError> {
    let config = DetectorConfig::from_label(&header.detector).ok_or_else(|| {
        ServeError::Protocol(format!("unknown detector label `{}`", header.detector))
    })?;
    {
        let mut st = lock_unpoisoned(&shared.state);
        st.sessions_started += 1;
        st.last_workload = header.workload.clone();
        st.last_detector = header.detector.clone();
    }
    let geometry = header.geometry;
    let mut session = Session {
        det: config.build_sink(
            geometry.threads as usize,
            geometry.cores as usize,
            header.seed,
            ObsCtx::disabled(),
        ),
        header,
        ingest_latency: Histogram::new(),
        events: 0,
        since_snapshot: 0,
        drained: false,
    };

    let mut writer = BufWriter::new(stream);
    let result = (|| -> Result<(), ServeError> {
        while let Some(payload) = read_frame(&mut reader)? {
            match payload.split_first() {
                Some((&FRAME_EVENTS, body)) => {
                    let events = decode_events(body)?;
                    if let Some(bad) = events.iter().find(|ev| !in_geometry(ev, &geometry)) {
                        return Err(ServeError::Protocol(format!(
                            "event outside the header's {} threads and {} cores: {bad:?}",
                            geometry.threads, geometry.cores
                        )));
                    }
                    session.ingest(&events, shared);
                }
                Some((&FRAME_QUERY, _)) => {
                    let q = Query::decode(&payload)?;
                    answer_query(q, shared, Some(&mut session), &mut writer)?;
                }
                Some((&tag, _)) => return Err(ServeError::BadFrame { tag }),
                None => return Err(ServeError::Protocol("empty frame".into())),
            }
        }
        Ok(())
    })();
    if !session.drained {
        // Client vanished without draining: bank the session's findings
        // anyway so daemon-wide queries still see them.
        session.drain(shared);
    }
    lock_unpoisoned(&shared.state).sessions_completed += 1;
    result
}

/// Whether every thread and core `ev` names lies inside `geometry`.
/// Detectors index per-thread and per-core state unchecked, so the
/// session rejects anything else before it reaches one.
fn in_geometry(ev: &StreamEvent, geometry: &StreamGeometry) -> bool {
    let thread = |t: u16| u32::from(t) < geometry.threads;
    let core = |c: CoreId| u32::from(c.0) < geometry.cores;
    match ev {
        StreamEvent::Access(a) => {
            let sibling_ok = match a.path {
                AccessPath::FillFromSibling(sib) => core(sib),
                _ => true,
            };
            thread(a.thread.0) && core(a.core) && sibling_ok
        }
        StreamEvent::LineFilled { core: c, .. } => core(*c),
        StreamEvent::LineRemoved(r) => core(r.core),
        StreamEvent::ThreadMigrated {
            thread: t,
            from,
            to,
        } => thread(t.0) && core(*from) && core(*to),
        StreamEvent::RunEnd { instr_counts } => instr_counts.len() <= geometry.threads as usize,
        StreamEvent::Trace(_) => true,
    }
}

impl Session {
    /// Feeds one decoded batch to the detector in order, then writes a
    /// periodic snapshot when one is due.
    fn ingest(&mut self, batch: &[StreamEvent], shared: &Shared) {
        for ev in batch {
            if matches!(ev, StreamEvent::Access(_)) {
                let start = std::time::Instant::now();
                apply_stream_event(&mut self.det, ev);
                self.ingest_latency
                    .record_ns(start.elapsed().as_nanos() as u64);
            } else {
                apply_stream_event(&mut self.det, ev);
            }
        }
        let n = batch.len() as u64;
        self.events += n;
        self.since_snapshot += n;
        lock_unpoisoned(&shared.state).events_ingested += n;
        let every = shared.cfg.snapshot_every;
        if every > 0 && self.since_snapshot >= every {
            self.since_snapshot = 0;
            self.write_snapshot(shared);
        }
    }

    /// Drains the detector, banks its report in the daemon-wide state,
    /// writes the final snapshot, and returns the report's canonical
    /// bytes.
    fn drain(&mut self, shared: &Shared) -> Vec<u8> {
        let report = self.det.drain();
        {
            let mut st = lock_unpoisoned(&shared.state);
            st.races_reported += report.race_count;
            st.races.extend(report.races.iter().cloned());
            st.metrics.merge(&report.metrics);
            st.ingest_latency.merge(&self.ingest_latency);
        }
        self.ingest_latency = Histogram::new();
        self.drained = true;
        self.write_snapshot(shared);
        report.to_bytes()
    }

    /// Writes the durable snapshot document: session progress and the
    /// current race report.
    fn write_snapshot(&mut self, shared: &Shared) {
        let Some(path) = &shared.cfg.snapshot else {
            return;
        };
        let doc = obj(vec![
            ("workload", Json::Str(self.header.workload.clone())),
            ("detector", Json::Str(self.header.detector.clone())),
            ("seed", Json::UInt(self.header.seed)),
            ("events", Json::UInt(self.events)),
            ("report", self.det.drain().to_json()),
        ]);
        if durable::write_checkpoint(path, &doc).is_ok() {
            lock_unpoisoned(&shared.state).snapshots_written += 1;
        }
    }
}

/// Answers one query. `session` is the connection's ingest session
/// (drain needs it); daemon-wide queries work on any connection.
fn answer_query(
    q: Query,
    shared: &Shared,
    session: Option<&mut Session>,
    writer: &mut BufWriter<UnixStream>,
) -> Result<(), ServeError> {
    let payload = match q {
        Query::Status => encode_response(&status_doc(shared)),
        Query::Races => {
            let st = lock_unpoisoned(&shared.state);
            encode_response(&Json::Array(st.races.clone()))
        }
        Query::Metrics => {
            let st = lock_unpoisoned(&shared.state);
            // Registry shape (counters/gauges) plus the per-access
            // ingest-latency distribution as a sibling field.
            let mut doc = st.metrics.to_json();
            if let Json::Object(fields) = &mut doc {
                fields.push(("ingest_latency".into(), st.ingest_latency.to_json()));
            }
            encode_response(&doc)
        }
        Query::Drain => {
            let session = session
                .ok_or_else(|| ServeError::Protocol("drain outside an ingest session".into()))?;
            encode_response_bytes(&session.drain(shared))
        }
        Query::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            // Nudge the accept loop so it observes the flag.
            let _ = UnixStream::connect(&shared.cfg.socket);
            encode_response(&obj(vec![("ok", Json::Bool(true))]))
        }
    };
    write_frame(writer, &payload)?;
    writer.flush()?;
    Ok(())
}

fn status_doc(shared: &Shared) -> Json {
    let st = lock_unpoisoned(&shared.state);
    obj(vec![
        ("sessions_started", Json::UInt(st.sessions_started)),
        ("sessions_completed", Json::UInt(st.sessions_completed)),
        ("events", Json::UInt(st.events_ingested)),
        ("races", Json::UInt(st.races_reported)),
        ("snapshots", Json::UInt(st.snapshots_written)),
        ("workload", Json::Str(st.last_workload.clone())),
        ("detector", Json::Str(st.last_detector.clone())),
        (
            "recovery",
            Json::Array(st.recovery.iter().map(|e| e.to_json()).collect()),
        ),
    ])
}
