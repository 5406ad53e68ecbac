//! End-to-end daemon tests: a replayed stream must drain to bytes
//! identical to inline detection, and queries must reflect what was
//! ingested.

use cord_core::{apply_stream_event, Detector, ObsCtx};
use cord_detectors::DetectorConfig;
use cord_obs::wire;
use cord_obs::{AccessEvent, AccessKind, AccessPath, CoreId, Level, StreamEvent, StreamHeader};
use cord_serve::{Daemon, DaemonConfig, Query, ServeClient};
use cord_trace::layout::AddressLayout;
use cord_trace::types::{Addr, ThreadId, WORD_BYTES};
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("cord-serve-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("temp dir");
    d
}

/// A synthetic but detector-meaningful stream: two threads on two
/// cores racing on word 0 with no synchronization, plus line fills so
/// cache-resident history exists.
fn racy_events() -> Vec<StreamEvent> {
    let w0 = Addr::new(0);
    let line = w0.line();
    let mut events = Vec::new();
    let mut cycle = 0u64;
    let mut retired = [0u64; 2];
    let mut access = |core: u8, thread: u16, addr: Addr, kind: AccessKind, path: AccessPath| {
        cycle += 10;
        retired[thread as usize] += 1;
        StreamEvent::Access(AccessEvent {
            core: CoreId(core),
            thread: ThreadId(thread),
            addr,
            kind,
            path,
            instr_index: retired[thread as usize],
            cycle,
        })
    };
    events.push(StreamEvent::LineFilled {
        core: CoreId(0),
        level: Level::L2,
        line,
    });
    events.push(access(
        0,
        0,
        w0,
        AccessKind::DataWrite,
        AccessPath::FillFromMemory,
    ));
    events.push(StreamEvent::LineFilled {
        core: CoreId(1),
        level: Level::L2,
        line,
    });
    events.push(access(
        1,
        1,
        w0,
        AccessKind::DataWrite,
        AccessPath::FillFromSibling(CoreId(0)),
    ));
    events.push(access(
        0,
        0,
        Addr::new(WORD_BYTES),
        AccessKind::DataRead,
        AccessPath::L2Hit,
    ));
    events.push(StreamEvent::LineRemoved(cord_obs::LineRemoval {
        core: CoreId(1),
        level: Level::L2,
        line,
        cause: cord_obs::RemovalCause::Capacity,
        dirty: true,
    }));
    events.push(StreamEvent::RunEnd {
        instr_counts: vec![2, 1],
    });
    events
}

fn header(detector: &str) -> StreamHeader {
    let layout = AddressLayout::new(2, 2, 1, 64);
    let geometry = wire::StreamGeometry::new(2, 2, &layout);
    StreamHeader::new("synthetic", detector, 7, geometry)
}

fn inline_bytes(config: DetectorConfig, events: &[StreamEvent]) -> Vec<u8> {
    let mut det = config.build_sink(2, 2, 7, ObsCtx::disabled());
    for ev in events {
        apply_stream_event(&mut det, ev);
    }
    det.drain().to_bytes()
}

#[test]
fn daemon_replay_matches_inline_bytes() {
    let dir = tmpdir("roundtrip");
    let socket = dir.join("serve.sock");
    let snapshot = dir.join("snapshot.json");
    let daemon = Daemon::new(DaemonConfig {
        socket: socket.clone(),
        snapshot: Some(snapshot.clone()),
        snapshot_every: 2,
    });
    let handle = std::thread::spawn(move || daemon.run());
    let client = ServeClient::new(&socket);
    assert!(client.wait_ready(250), "daemon came up");

    let events = racy_events();
    for label in ["CORD-D16", "Ideal", "L2Cache(VC)"] {
        let config = DetectorConfig::from_label(label).expect("known label");
        let inline = inline_bytes(config, &events);
        let via_daemon = client
            .replay_events(&header(label), &events)
            .expect("daemon replay");
        assert_eq!(
            via_daemon, inline,
            "daemon report for {label} must be byte-identical to inline"
        );
        assert!(
            String::from_utf8_lossy(&inline).contains(label),
            "report names its detector"
        );
    }

    let status = client.query(Query::Status).expect("status");
    let events_seen: u64 =
        cord_json::FromJson::from_json(status.field("events").expect("events field"))
            .expect("uint");
    assert_eq!(events_seen, 3 * events.len() as u64);
    let races = client.query(Query::Races).expect("races");
    assert!(
        !races.as_array().expect("array").is_empty(),
        "the unsynchronized writes race"
    );
    let metrics = client.query(Query::Metrics).expect("metrics");
    assert!(metrics.field("counters").is_ok(), "{metrics:?}");
    assert!(snapshot.exists(), "periodic snapshots landed");

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshot_recovery_surfaces_in_status() {
    let dir = tmpdir("recovery");
    let socket = dir.join("serve.sock");
    let snapshot = dir.join("snapshot.json");
    // Two generations, then a corrupted primary: the daemon must load
    // past it and say so in status, structurally.
    cord_json::durable::write_checkpoint(&snapshot, &cord_json::Json::UInt(1)).expect("gen 1");
    cord_json::durable::write_checkpoint(&snapshot, &cord_json::Json::UInt(2)).expect("gen 2");
    std::fs::write(&snapshot, "garbage{{{").expect("corrupt");

    let daemon = Daemon::new(DaemonConfig {
        socket: socket.clone(),
        snapshot: Some(snapshot),
        ..DaemonConfig::default()
    });
    let handle = std::thread::spawn(move || daemon.run());
    let client = ServeClient::new(&socket);
    assert!(client.wait_ready(250), "daemon came up");

    let status = client.query(Query::Status).expect("status");
    let recovery = status.field("recovery").expect("recovery field");
    let events = recovery.as_array().expect("array");
    assert!(!events.is_empty(), "recovery events surfaced: {status:?}");
    let first: cord_json::durable::RecoveryEvent =
        cord_json::FromJson::from_json(&events[0]).expect("structured");
    assert_eq!(first.kind, "corrupt-primary");

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_detector_label_is_rejected_cleanly() {
    let dir = tmpdir("badlabel");
    let socket = dir.join("serve.sock");
    let daemon = Daemon::new(DaemonConfig {
        socket: socket.clone(),
        snapshot: None,
        ..DaemonConfig::default()
    });
    let handle = std::thread::spawn(move || daemon.run());
    let client = ServeClient::new(&socket);
    assert!(client.wait_ready(250), "daemon came up");

    let bad = client.replay_events(&header("NoSuchDetector"), &racy_events());
    assert!(bad.is_err(), "unknown label must not produce a report");

    // The daemon survives the bad session and still answers.
    let status = client
        .query(Query::Status)
        .expect("status after bad session");
    assert!(status.field("sessions_started").is_ok());

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Starts a daemon without snapshots in a fresh temp dir.
fn start_daemon(
    tag: &str,
) -> (
    PathBuf,
    ServeClient,
    std::thread::JoinHandle<Result<(), cord_serve::ServeError>>,
) {
    let dir = tmpdir(tag);
    let socket = dir.join("serve.sock");
    let daemon = Daemon::new(DaemonConfig {
        socket: socket.clone(),
        snapshot: None,
        ..DaemonConfig::default()
    });
    let handle = std::thread::spawn(move || daemon.run());
    let client = ServeClient::new(&socket);
    assert!(client.wait_ready(250), "daemon came up");
    (dir, client, handle)
}

#[test]
fn hostile_header_geometry_is_rejected_and_the_daemon_keeps_serving() {
    let (dir, client, handle) = start_daemon("hostile");
    // Four billion threads: building the detector for this header would
    // try to allocate per-thread state for every one of them.
    let mut hostile = header("CORD-D16");
    hostile.geometry.threads = 4_000_000_000;
    let capture = wire::encode_capture(&hostile, &racy_events());
    assert!(
        client.replay_capture(&capture).is_err(),
        "an out-of-range geometry must not produce a report"
    );

    let status = client
        .query(Query::Status)
        .expect("status after hostile header");
    let started: u64 =
        cord_json::FromJson::from_json(status.field("sessions_started").unwrap()).expect("uint");
    assert_eq!(started, 0, "the header was refused before a session began");

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn events_outside_the_header_geometry_are_rejected() {
    let (dir, client, handle) = start_daemon("outside");
    let racy = racy_events();
    let bad_thread = StreamEvent::ThreadMigrated {
        thread: ThreadId(2),
        from: CoreId(0),
        to: CoreId(1),
    };
    let bad_core = StreamEvent::LineFilled {
        core: CoreId(2),
        level: Level::L1,
        line: Addr::new(0).line(),
    };
    let bad_sibling = StreamEvent::Access(AccessEvent {
        core: CoreId(0),
        thread: ThreadId(0),
        addr: Addr::new(0),
        kind: AccessKind::DataRead,
        path: AccessPath::FillFromSibling(CoreId(9)),
        instr_index: 1,
        cycle: 1,
    });
    let bad_run_end = StreamEvent::RunEnd {
        instr_counts: vec![1, 1, 1],
    };
    for bad in [bad_thread, bad_core, bad_sibling, bad_run_end] {
        let mut events = racy[..2].to_vec();
        events.push(bad.clone());
        assert!(
            client.replay_events(&header("CORD-D16"), &events).is_err(),
            "{bad:?} lies outside 2 threads on 2 cores"
        );
    }

    // The daemon survives every rejected session and still detects.
    let via_daemon = client
        .replay_events(&header("CORD-D16"), &racy)
        .expect("a well-formed stream still replays");
    assert_eq!(
        via_daemon,
        inline_bytes(DetectorConfig::Cord { d: 16 }, &racy)
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_bit_flipped_event_frame_ends_the_session_and_the_daemon_keeps_serving() {
    let (dir, client, handle) = start_daemon("bitflip");
    let mut payload = vec![wire::FRAME_EVENTS];
    payload.extend_from_slice(&wire::encode_events(&racy_events()));
    // The first single-bit flip of the event body that the decoder
    // rejects; the daemon must reject the frame the same way.
    let flipped = (8..payload.len() * 8)
        .map(|bit| {
            let mut p = payload.clone();
            p[bit / 8] ^= 1 << (bit % 8);
            p
        })
        .find(|p| wire::decode_events(&p[1..]).is_err())
        .expect("some bit flip breaks the event body");
    let mut capture = wire::encode_frame(&header("CORD-D16").encode());
    capture.extend_from_slice(&wire::encode_frame(&flipped));
    assert!(
        client.replay_capture(&capture).is_err(),
        "a corrupt event frame must not produce a report"
    );

    let status = client
        .query(Query::Status)
        .expect("status after a corrupt frame");
    for field in ["sessions_started", "sessions_completed"] {
        let n: u64 = cord_json::FromJson::from_json(status.field(field).unwrap()).expect("uint");
        assert_eq!(n, 1, "{field}: {status:?}");
    }

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Lines of this process's memory map: each live thread adds its stack
/// and guard page.
#[cfg(target_os = "linux")]
fn mapping_count() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("read /proc/self/maps")
        .lines()
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn finished_sessions_release_their_threads() {
    let (dir, client, handle) = start_daemon("release");
    let status = || client.query(Query::Status).expect("status");
    for _ in 0..20 {
        status();
    }
    let warm = mapping_count();
    for _ in 0..300 {
        status();
    }
    let after = mapping_count();
    // A kept thread costs two mappings, so 300 kept sessions would add
    // 600; the slack covers the other tests' threads in this process.
    assert!(
        after <= warm + 40,
        "memory map grew from {warm} to {after} lines over 300 finished sessions"
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
    let _ = std::fs::remove_dir_all(&dir);
}
