//! Per-layer attribution of one simulated cell, measured from outside.
//!
//! For every detector configuration a cell is run several ways, each
//! timed as one batch: the bare simulator (`Machine::run` with a
//! `NullObserver`), inline detection (`Machine<SinkObserver<_>>`, what
//! the sweep executes), and — from the inline run's captured stream —
//! a detector-only replay through `apply_stream_event`, a wire
//! encode/decode round trip, every access replayed through
//! `MemorySystem::access` at its recorded cycle, and every access
//! replayed through `GroundTruth::commit`.

use crate::checks;
use crate::report::{Metrics, Tally};
use crate::spec::{config_key, ALL_CONFIGS};
use crate::timing::Spans;
use cord_core::{
    apply_stream_event, CaptureObserver, DetectorSink, ObsCtx, SinkObserver, SinkReport,
};
use cord_detectors::{DetectorConfig, DetectorEnum};
use cord_obs::wire::{decode_capture, encode_capture, StreamGeometry};
use cord_obs::{MetricsRegistry, StreamEvent, StreamHeader};
use cord_sim::config::MachineConfig;
use cord_sim::engine::{InjectionPlan, Machine};
use cord_sim::memsys::MemorySystem;
use cord_sim::observer::NullObserver;
use cord_sim::truth::GroundTruth;
use cord_trace::program::Workload;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One simulated cell: a workload under a seed and an injection plan.
#[derive(Debug, Clone, Copy)]
pub struct Cell<'a> {
    /// The kernel.
    pub workload: &'a Workload,
    /// Scheduling seed.
    pub seed: u64,
    /// The injected removal (or none).
    pub plan: InjectionPlan,
}

/// What the decomposition of some cells accumulated.
#[derive(Debug, Default)]
pub struct LayerAcc {
    /// Batch spans by layer.
    pub spans: Spans,
    /// Work counts by layer.
    pub counts: MetricsRegistry,
    /// Checks made along the way.
    pub tally: Tally,
}

impl LayerAcc {
    /// Folds `other` in.
    pub fn merge(&mut self, other: LayerAcc) {
        self.spans.merge(&other.spans);
        self.counts.merge(&other.counts);
        self.tally.merge(other.tally);
    }
}

/// Runs `config` inline on `machine` with a capture tee; returns the
/// captured stream and the drained report bytes, or `None` when the
/// simulated run deadlocks or times out (a model outcome).
pub fn capture_run(
    cell: &Cell<'_>,
    machine: &MachineConfig,
    config: DetectorConfig,
) -> Option<(Vec<StreamEvent>, Vec<u8>)> {
    let sink = config.build_sink(
        cell.workload.num_threads(),
        machine.cores,
        cell.seed,
        ObsCtx::disabled(),
    );
    let obs = CaptureObserver::new(SinkObserver::new(sink));
    let m = Machine::new(machine.clone(), cell.workload, obs, cell.seed, cell.plan);
    let (_, obs) = m.run().ok()?;
    let (mut adapter, events) = obs.into_parts();
    Some((events, adapter.sink_mut().drain().to_bytes()))
}

/// Runs `config` inline (no tee), as the sweep does; returns the
/// detector after the run, or `None` on a deadlock or timeout.
pub fn inline_run(
    cell: &Cell<'_>,
    machine: &MachineConfig,
    config: DetectorConfig,
) -> Option<DetectorEnum> {
    let sink = config.build_sink(
        cell.workload.num_threads(),
        machine.cores,
        cell.seed,
        ObsCtx::disabled(),
    );
    let m = Machine::new(
        machine.clone(),
        cell.workload,
        SinkObserver::new(sink),
        cell.seed,
        cell.plan,
    );
    let (_, obs) = m.run().ok()?;
    Some(obs.into_inner())
}

/// The wire encoding of a captured stream, as a daemon session gets it.
pub fn encode(
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

/// Replays `events` into a fresh sink for `config`; returns the drained
/// report.
pub fn replay(
    config: DetectorConfig,
    threads: usize,
    cores: usize,
    seed: u64,
    events: &[StreamEvent],
) -> SinkReport {
    let mut det = config.build_sink(threads, cores, seed, ObsCtx::disabled());
    for ev in events {
        apply_stream_event(&mut det, ev);
    }
    det.drain()
}

/// A captured run, checked.
pub struct Checked {
    /// The captured stream.
    pub events: Vec<StreamEvent>,
    /// The inline report's bytes.
    pub inline: Vec<u8>,
    /// The report of a detector-only replay of `events`.
    pub replayed: SinkReport,
    /// How long that replay took.
    pub replay_time: Duration,
}

/// Captures `config`'s run of `cell` and replays the capture into a
/// fresh sink. Checks that the replay drains to the inline report's
/// bytes and, for CORD-D16, that Ideal judging the same stream finds a
/// race wherever CORD does. `None` when the run does not complete.
pub fn checked_capture(
    cell: &Cell<'_>,
    machine: &MachineConfig,
    config: DetectorConfig,
    tally: &mut Tally,
) -> Option<Checked> {
    let (events, inline) = capture_run(cell, machine, config)?;
    let threads = cell.workload.num_threads();
    let t = Instant::now();
    let replayed = replay(config, threads, machine.cores, cell.seed, &events);
    let replay_time = t.elapsed();
    let what = format!(
        "{} {:?} {}",
        cell.workload.name(),
        cell.plan,
        config.label()
    );
    checks::same_report(tally, &what, &inline, &replayed.to_bytes());
    if config == (DetectorConfig::Cord { d: 16 }) {
        let ideal = replay(
            DetectorConfig::Ideal,
            threads,
            machine.cores,
            cell.seed,
            &events,
        );
        checks::no_cord_only_race(tally, &what, replayed.race_count, ideal.race_count);
    }
    Some(Checked {
        events,
        inline,
        replayed,
        replay_time,
    })
}

/// Decomposes one cell under every configuration, `machine_for` giving
/// each configuration's machine. A cell whose run does not complete is
/// skipped: under injection that is a model outcome.
pub fn decompose(
    cell: &Cell<'_>,
    machine_for: impl Fn(DetectorConfig) -> MachineConfig,
    acc: &mut LayerAcc,
) {
    let name = cell.workload.name();
    for config in ALL_CONFIGS {
        let machine = machine_for(config);
        let key = config_key(config);

        let t = Instant::now();
        let bare = Machine::new(
            machine.clone(),
            cell.workload,
            NullObserver,
            cell.seed,
            cell.plan,
        )
        .run();
        let bare_d = t.elapsed();
        let Ok((out, _)) = bare else { return };
        acc.spans.add(&format!("sim.bare.{key}"), bare_d);
        out.stats.record_into(&mut acc.counts);

        let t = Instant::now();
        let inline = inline_run(cell, &machine, config);
        acc.spans.add(&format!("det.{key}.inline"), t.elapsed());
        let Some(mut inline) = inline else { return };
        let inline = inline.drain().to_bytes();

        let Some(checked) = checked_capture(cell, &machine, config, &mut acc.tally) else {
            return;
        };
        checks::same_report(
            &mut acc.tally,
            &format!("{name} {key} capture tee"),
            &inline,
            &checked.inline,
        );
        let events = checked.events;
        acc.spans
            .add(&format!("det.{key}.replay"), checked.replay_time);
        acc.counts
            .add(&format!("det.{key}.events"), events.len() as u64);
        if config == (DetectorConfig::Cord { d: 16 }) {
            acc.counts.merge(&checked.replayed.metrics);
        }

        let bytes = encode(cell.workload, &machine, config, cell.seed, &events);
        let t = Instant::now();
        let decoded = decode_capture(&bytes);
        acc.spans.add("wire.decode", t.elapsed());
        acc.counts.add("wire.bytes", bytes.len() as u64);
        acc.counts.add("wire.events", events.len() as u64);
        acc.tally
            .op(decoded.as_ref().is_ok_and(|(_, ev)| *ev == events), || {
                format!("{name} {key}: wire round trip changed the stream")
            });
        drop(decoded);

        let accesses: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                StreamEvent::Access(a) => Some(*a),
                _ => None,
            })
            .collect();
        drop(events);

        let mut ms = MemorySystem::new(machine.clone());
        let mut transactions = 0u64;
        let t = Instant::now();
        for a in &accesses {
            let r = ms.access(a.core, a.addr, a.kind.is_write(), a.cycle);
            transactions += u64::from(r.path.has_bus_transaction());
            black_box(&r);
        }
        acc.spans.add("memsys.replay", t.elapsed());
        let coh = ms.coherence_stats();
        acc.counts.add("memsys.accesses", accesses.len() as u64);
        acc.counts.add("coherence.transactions", transactions);
        acc.counts
            .add("coherence.directory_lookups", coh.directory_lookups);
        acc.counts
            .add("coherence.directory_home_wait", coh.home_wait_cycles);

        let mut truth = GroundTruth::new(cell.workload.num_threads(), false);
        let t = Instant::now();
        for a in &accesses {
            truth.commit(a.thread, a.instr_index, a.addr, a.kind);
        }
        black_box(truth.into_summary());
        acc.spans.add("truth.replay", t.elapsed());
    }
}

/// Simulator counters reported per layer (summed over bare runs).
const SIM_COUNTS: [&str; 11] = [
    "sim.instructions",
    "sim.cycles",
    "sim.l1_hits",
    "sim.l2_hits",
    "sim.memory_fills",
    "sim.sibling_fills",
    "sim.upgrades",
    "sim.sync_reads",
    "sim.sync_writes",
    "sim.addr_bus_wait",
    "sim.data_bus_wait",
];

/// CORD-D16 detector counters reported per layer.
const CORD_COUNTS: [&str; 6] = [
    "cord.filter_hits",
    "cord.race_check_broadcasts",
    "cord.memts_broadcasts",
    "cord.walker_evictions",
    "cord.clock_updates",
    "cord.suppressed_mem_detections",
];

/// Emits the simulator, memory-system, coherence, ground-truth,
/// detector and wire metrics of the decomposed cells.
pub fn emit(acc: &LayerAcc, m: &mut Metrics) {
    let c = |k: &str| acc.counts.counter(k) as f64;
    let sim_s = acc.spans.secs_prefixed("sim.bare.");
    let memsys_s = acc.spans.secs("memsys.replay");
    let truth_s = acc.spans.secs("truth.replay");
    m.set("sim.run_ms", sim_s * 1e3, "ms");
    m.set(
        "sim.minstr_per_s",
        c("sim.instructions") / sim_s / 1e6,
        "Minstr/s",
    );
    for k in SIM_COUNTS {
        m.set(k, c(k), "count");
    }
    m.set("sim.other_ms", (sim_s - memsys_s - truth_s) * 1e3, "ms");
    m.set(
        "memsys.ns_per_access",
        memsys_s * 1e9 / c("memsys.accesses"),
        "ns",
    );
    m.set(
        "truth.ns_per_commit",
        truth_s * 1e9 / c("memsys.accesses"),
        "ns",
    );
    for k in [
        "memsys.accesses",
        "coherence.transactions",
        "coherence.directory_lookups",
        "coherence.directory_home_wait",
    ] {
        m.set(k, c(k), "count");
    }
    for config in ALL_CONFIGS {
        let key = config_key(config);
        let replay_s = acc.spans.secs(&format!("det.{key}.replay"));
        let extra_s = acc.spans.secs(&format!("det.{key}.inline"))
            - acc.spans.secs(&format!("sim.bare.{key}"));
        m.set(
            format!("det.{key}.ns_per_event"),
            replay_s * 1e9 / c(&format!("det.{key}.events")),
            "ns",
        );
        m.set(format!("det.{key}.inline_extra_ms"), extra_s * 1e3, "ms");
    }
    for k in CORD_COUNTS {
        m.set(k, c(k), "count");
    }
    m.set(
        "wire.decode_ns_per_event",
        acc.spans.secs("wire.decode") * 1e9 / c("wire.events"),
        "ns",
    );
    m.set(
        "wire.bytes_per_event",
        c("wire.bytes") / c("wire.events"),
        "B",
    );
}
