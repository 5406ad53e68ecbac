//! The differential oracle battery.
//!
//! One workload, one scheduling seed, several referees. Every invariant
//! checked here is a *per-run* theorem — each detector is compared
//! against the happens-before ground truth computed from **its own**
//! run's recorded access stream, never against a different run's
//! (different cache configurations interleave differently, so
//! cross-run race-set comparisons are not sound):
//!
//! * CORD-D16 (shipping `CordConfig::paper()`): reported racy words ⊆
//!   ground truth (a scalar-clock detector may miss races, never invent
//!   them), `window16_mismatches == 0` (§2.7.5 audit),
//!   `window_violations == 0` (the D-window rule held), and the order
//!   log replays the run exactly (§3.3).
//! * Ideal: racy words == ground truth, both directions (it *is* a
//!   vector-clock detector, so disagreement in either direction is a
//!   bug in one of the two implementations).
//! * VC-limited (L2-sized clock memory): racy words ⊆ ground truth.
//! * Race-free mode: a workload built by the race-free generator must
//!   have an empty ground truth under every configuration.
//! * Metamorphic: suppressing a synchronization event's happens-before
//!   edges in the recorded stream never shrinks the racy-word set, and
//!   re-running the same seed is bit-identical.
//! * Injection: removing acquire-side sync instances via `cord-inject`
//!   and re-running the CORD battery (deadlock/livelock aborts are an
//!   expected outcome of removing synchronization, not violations).

use crate::truthhb::{racy_words, sync_event_indices, RecordedAccess, Tandem};
use cord_core::replay::replay_and_verify;
use cord_core::{apply_stream_event, CaptureObserver, CordConfig, CordDetector, Detector, ObsCtx};
use cord_detectors::ideal::IdealDetector;
use cord_detectors::vc_limited::{VcConfig, VcLimitedDetector};
use cord_detectors::DetectorConfig;
use cord_inject::count_instances;
use cord_obs::wire::{self, StreamHeader};
use cord_obs::StreamEvent;
use cord_sim::config::{CoherenceKind, MachineConfig, Watchdog};
use cord_sim::engine::{InjectionPlan, Machine, SimError};
use cord_trace::program::Workload;
use std::collections::BTreeSet;
use std::fmt;

/// Knobs for one oracle evaluation.
#[derive(Debug, Clone)]
pub struct OracleOptions {
    /// Scheduling seed for every simulated run.
    pub sim_seed: u64,
    /// Re-run the CORD configuration and require bit-identical results.
    pub check_rerun: bool,
    /// How many synchronization events to suppress (one at a time) in
    /// the metamorphic stream check.
    pub max_suppressions: usize,
    /// How many acquire-side `cord-inject` removals to re-run through
    /// the CORD battery.
    pub max_injections: usize,
    /// Round-trip the base CORD run's event stream through the wire
    /// codec and replay it into a fresh detector built from the stream
    /// header: the drained report must be byte-identical to the inline
    /// detector's (the daemon contract).
    pub check_capture_replay: bool,
    /// The workload came from the race-free generator: ground truth
    /// must be empty.
    pub expect_race_free: bool,
    /// Watchdog cycle budget for every run (fuzzed workloads must
    /// terminate; a hang is an engine or generator bug).
    pub max_cycles: u64,
    /// Core count for every timed run (the Ideal referee keeps its
    /// infinite cache but shares the topology).
    pub cores: usize,
    /// Coherence backend for every timed run.
    pub backend: CoherenceKind,
}

impl Default for OracleOptions {
    fn default() -> Self {
        OracleOptions {
            sim_seed: 1,
            check_rerun: true,
            max_suppressions: 3,
            max_injections: 2,
            check_capture_replay: true,
            expect_race_free: false,
            max_cycles: 50_000_000,
            cores: 4,
            backend: CoherenceKind::SnoopingBus,
        }
    }
}

impl OracleOptions {
    /// A cheaper battery for inner-loop use (shrinking): no rerun, no
    /// metamorphic pass, no injections.
    #[must_use]
    pub fn fast(&self) -> Self {
        OracleOptions {
            check_rerun: false,
            max_suppressions: 0,
            max_injections: 0,
            check_capture_replay: false,
            ..self.clone()
        }
    }
}

/// One oracle invariant that did not hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A run aborted ([`SimError`]) outside fault injection.
    SimAborted {
        /// Which configuration was running.
        config: &'static str,
        /// The simulator's error, rendered.
        detail: String,
    },
    /// CORD reported a racy word the ground truth does not contain.
    CordFalsePositive {
        /// The offending word address.
        addr: u64,
    },
    /// The VC-limited detector reported a word the truth doesn't have.
    VcFalsePositive {
        /// The offending word address.
        addr: u64,
    },
    /// The Ideal detector missed a ground-truth racy word.
    IdealMissedRace {
        /// The missed word address.
        addr: u64,
    },
    /// The Ideal detector reported a word the ground truth rejects.
    IdealFalsePositive {
        /// The offending word address.
        addr: u64,
    },
    /// The window16 audit disagreed with full-width timestamps (§2.7.5).
    Window16Mismatch {
        /// `CordStats::window16_mismatches` after the run.
        count: u64,
    },
    /// A race check fell outside the D-window (§2.6).
    WindowViolation {
        /// `CordStats::window_violations` after the run.
        count: u64,
    },
    /// The order log failed to replay the recorded run (§3.3).
    ReplayFailed {
        /// The replay error, rendered.
        detail: String,
    },
    /// Re-running the same seed produced a different result.
    NondeterministicRerun {
        /// What differed.
        detail: String,
    },
    /// A race-free-by-construction workload had ground-truth races.
    RaceFreeHadRaces {
        /// Which configuration's run exposed them.
        config: &'static str,
        /// Number of racy words.
        count: usize,
        /// The lowest racy word address.
        first_addr: u64,
    },
    /// Replaying the captured event stream through the wire codec and
    /// a header-built detector did not reproduce the inline report
    /// byte-for-byte — the daemon contract is broken.
    CaptureReplayDiverged {
        /// What diverged (codec failure, unknown label, or byte diff).
        detail: String,
    },
    /// Suppressing a sync event's happens-before edges *shrank* the
    /// racy-word set — monotonicity broken in the truth analysis.
    MetamorphicShrunk {
        /// Index of the suppressed event in the recorded stream.
        event_index: usize,
        /// A word racy in the base analysis but not the suppressed one.
        lost_addr: u64,
    },
}

impl Violation {
    /// Stable short name, used by the shrinker to decide whether a
    /// candidate workload still fails "the same way".
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::SimAborted { .. } => "sim-aborted",
            Violation::CordFalsePositive { .. } => "cord-false-positive",
            Violation::VcFalsePositive { .. } => "vc-false-positive",
            Violation::IdealMissedRace { .. } => "ideal-missed-race",
            Violation::IdealFalsePositive { .. } => "ideal-false-positive",
            Violation::Window16Mismatch { .. } => "window16-mismatch",
            Violation::WindowViolation { .. } => "window-violation",
            Violation::ReplayFailed { .. } => "replay-failed",
            Violation::NondeterministicRerun { .. } => "nondeterministic-rerun",
            Violation::CaptureReplayDiverged { .. } => "capture-replay-diverged",
            Violation::RaceFreeHadRaces { .. } => "race-free-had-races",
            Violation::MetamorphicShrunk { .. } => "metamorphic-shrunk",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::SimAborted { config, detail } => {
                write!(f, "{config} run aborted: {detail}")
            }
            Violation::CordFalsePositive { addr } => {
                write!(f, "CORD reported non-race word {addr:#x}")
            }
            Violation::VcFalsePositive { addr } => {
                write!(f, "VC-limited reported non-race word {addr:#x}")
            }
            Violation::IdealMissedRace { addr } => {
                write!(f, "Ideal missed ground-truth racy word {addr:#x}")
            }
            Violation::IdealFalsePositive { addr } => {
                write!(f, "Ideal reported non-race word {addr:#x}")
            }
            Violation::Window16Mismatch { count } => {
                write!(f, "window16 audit mismatches: {count}")
            }
            Violation::WindowViolation { count } => {
                write!(f, "D-window violations: {count}")
            }
            Violation::ReplayFailed { detail } => write!(f, "order-log replay failed: {detail}"),
            Violation::NondeterministicRerun { detail } => {
                write!(f, "same-seed rerun differed: {detail}")
            }
            Violation::CaptureReplayDiverged { detail } => {
                write!(f, "capture→replay diverged from inline detection: {detail}")
            }
            Violation::RaceFreeHadRaces {
                config,
                count,
                first_addr,
            } => write!(
                f,
                "race-free workload had {count} ground-truth racy words under {config} \
                 (first {first_addr:#x})"
            ),
            Violation::MetamorphicShrunk {
                event_index,
                lost_addr,
            } => write!(
                f,
                "suppressing sync event #{event_index} removed racy word {lost_addr:#x}"
            ),
        }
    }
}

/// What one full oracle evaluation found.
#[derive(Debug, Clone, Default)]
pub struct OracleReport {
    /// Every invariant that failed, in check order.
    pub violations: Vec<Violation>,
    /// Ground-truth racy words of the base CORD run.
    pub truth_races: usize,
    /// Racy words CORD reported on the base run.
    pub cord_races: usize,
    /// Racy words the Ideal detector reported on its run.
    pub ideal_races: usize,
    /// Racy words the VC-limited detector reported on its run.
    pub vc_races: usize,
    /// Recorded accesses in the base CORD run.
    pub events: usize,
    /// Injection re-runs that completed and were checked.
    pub injections_checked: usize,
    /// Injection re-runs that aborted (deadlock/livelock after removing
    /// synchronization — expected, not a violation).
    pub injections_aborted: usize,
}

impl OracleReport {
    /// `true` when every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

fn watchdogged(machine: MachineConfig, opts: &OracleOptions) -> MachineConfig {
    let window = (opts.max_cycles / 8).max(1);
    machine
        .with_cores(opts.cores)
        .with_coherence(opts.backend)
        .with_watchdog(Watchdog::new(opts.max_cycles, window))
}

struct CordRun {
    events: Vec<RecordedAccess>,
    racy: BTreeSet<u64>,
    window16_mismatches: u64,
    window_violations: u64,
    thread_hashes: Vec<u64>,
    replay_error: Option<String>,
    /// The reified stream the detector saw, as a daemon would see it.
    captured: Vec<StreamEvent>,
    /// The inline detector's drained report, canonical bytes.
    inline_report: Vec<u8>,
    /// The inline detector's configuration label.
    label: String,
    cores: usize,
}

fn run_cord(
    workload: &Workload,
    plan: InjectionPlan,
    opts: &OracleOptions,
) -> Result<CordRun, SimError> {
    let machine = watchdogged(MachineConfig::paper_4core(), opts).with_resolved_capture();
    let threads = workload.num_threads();
    let cores = machine.cores;
    let det = CordDetector::new(CordConfig::paper(), threads, cores);
    let obs = CaptureObserver::new(Tandem::new(det));
    let m = Machine::new(machine, workload, obs, opts.sim_seed, plan);
    let (sim, obs) = m.run()?;
    let (tandem, captured) = obs.into_parts();
    let mut det = tandem.det;
    let label = det.label();
    let inline_report = det.drain().to_bytes();
    let (races, recorder, stats) = det.into_parts();
    let racy = races.iter().map(|r| r.addr.byte()).collect();
    let replay_error = match &sim.truth.resolved {
        Some(resolved) => replay_and_verify(
            recorder.entries(),
            resolved,
            &sim.stats.instr_counts,
            &sim.truth.thread_hashes,
        )
        .err()
        .map(|e| e.to_string()),
        None => Some("resolved streams missing from capture run".to_owned()),
    };
    Ok(CordRun {
        events: tandem.rec.events,
        racy,
        window16_mismatches: stats.window16_mismatches,
        window_violations: stats.window_violations,
        thread_hashes: sim.truth.thread_hashes,
        replay_error,
        captured,
        inline_report,
        label,
        cores,
    })
}

/// The daemon contract, checked in-process: encode the captured stream
/// with the wire codec, decode it back, build a fresh detector from the
/// decoded header (exactly as `cord-serve` does), replay every event,
/// and require the drained report to be byte-identical to the inline
/// detector's.
fn capture_replay_check(
    base: &CordRun,
    workload: &Workload,
    opts: &OracleOptions,
    out: &mut Vec<Violation>,
) {
    let threads = workload.num_threads();
    let geometry = wire::StreamGeometry::new(threads, base.cores, workload.layout());
    let header = StreamHeader::new(workload.name(), &base.label, opts.sim_seed, geometry);
    let bytes = wire::encode_capture(&header, &base.captured);
    let (decoded, events) = match wire::decode_capture(&bytes) {
        Ok(x) => x,
        Err(e) => {
            out.push(Violation::CaptureReplayDiverged {
                detail: format!("capture failed to decode: {e}"),
            });
            return;
        }
    };
    let Some(config) = DetectorConfig::from_label(&decoded.detector) else {
        out.push(Violation::CaptureReplayDiverged {
            detail: format!("header label `{}` names no detector", decoded.detector),
        });
        return;
    };
    let mut det = config.build_sink(
        decoded.geometry.threads as usize,
        decoded.geometry.cores as usize,
        decoded.seed,
        ObsCtx::disabled(),
    );
    for ev in &events {
        apply_stream_event(&mut det, ev);
    }
    let replayed = det.drain().to_bytes();
    if replayed != base.inline_report {
        out.push(Violation::CaptureReplayDiverged {
            detail: format!(
                "report bytes differ: replay {} bytes vs inline {} bytes",
                replayed.len(),
                base.inline_report.len()
            ),
        });
    }
}

fn check_cord_run(run: &CordRun, threads: usize, out: &mut Vec<Violation>) -> BTreeSet<u64> {
    let truth = racy_words(&run.events, threads, &BTreeSet::new());
    for &addr in run.racy.difference(&truth) {
        out.push(Violation::CordFalsePositive { addr });
    }
    if run.window16_mismatches != 0 {
        out.push(Violation::Window16Mismatch {
            count: run.window16_mismatches,
        });
    }
    if run.window_violations != 0 {
        out.push(Violation::WindowViolation {
            count: run.window_violations,
        });
    }
    if let Some(detail) = &run.replay_error {
        out.push(Violation::ReplayFailed {
            detail: detail.clone(),
        });
    }
    truth
}

fn race_free_check(
    truth: &BTreeSet<u64>,
    config: &'static str,
    opts: &OracleOptions,
    out: &mut Vec<Violation>,
) {
    if opts.expect_race_free && !truth.is_empty() {
        out.push(Violation::RaceFreeHadRaces {
            config,
            count: truth.len(),
            first_addr: truth.iter().next().copied().unwrap_or(0),
        });
    }
}

/// Evenly spread `want` sample indices over `0..total`.
fn spread(total: usize, want: usize) -> Vec<usize> {
    if total == 0 || want == 0 {
        return Vec::new();
    }
    let want = want.min(total);
    let mut picked: Vec<usize> = (0..want).map(|k| k * total / want).collect();
    picked.dedup();
    picked
}

/// Runs the full differential battery on one workload.
///
/// Never panics on workload content: simulator aborts become
/// [`Violation::SimAborted`] (or tolerated skips on injection runs).
/// The caller is expected to pass a workload that already satisfies
/// [`Workload::validate`].
///
/// [`Workload::validate`]: cord_trace::program::Workload::validate
pub fn check_workload(workload: &Workload, opts: &OracleOptions) -> OracleReport {
    let threads = workload.num_threads();
    let mut report = OracleReport::default();

    // --- CORD-D16, base run -------------------------------------------------
    let base = match run_cord(workload, InjectionPlan::none(), opts) {
        Ok(run) => run,
        Err(e) => {
            report.violations.push(Violation::SimAborted {
                config: "cord-d16",
                detail: e.to_string(),
            });
            return report;
        }
    };
    let truth = check_cord_run(&base, threads, &mut report.violations);
    report.truth_races = truth.len();
    report.cord_races = base.racy.len();
    report.events = base.events.len();
    race_free_check(&truth, "cord-d16", opts, &mut report.violations);

    // --- Capture→replay byte-identity (the daemon contract) -----------------
    if opts.check_capture_replay {
        capture_replay_check(&base, workload, opts, &mut report.violations);
    }

    // --- Same-seed rerun must be bit-identical ------------------------------
    if opts.check_rerun {
        match run_cord(workload, InjectionPlan::none(), opts) {
            Ok(rerun) => {
                let detail = if rerun.events != base.events {
                    Some("recorded access stream".to_owned())
                } else if rerun.racy != base.racy {
                    Some("CORD racy-word set".to_owned())
                } else if rerun.thread_hashes != base.thread_hashes {
                    Some("thread outcome hashes".to_owned())
                } else {
                    None
                };
                if let Some(detail) = detail {
                    report
                        .violations
                        .push(Violation::NondeterministicRerun { detail });
                }
            }
            Err(e) => report.violations.push(Violation::NondeterministicRerun {
                detail: format!("rerun aborted: {e}"),
            }),
        }
    }

    // --- Metamorphic: sync suppression is monotone --------------------------
    if opts.max_suppressions > 0 {
        let sync_idx = sync_event_indices(&base.events);
        for pick in spread(sync_idx.len(), opts.max_suppressions) {
            let i = sync_idx[pick];
            let suppressed = racy_words(&base.events, threads, &BTreeSet::from([i]));
            if let Some(&lost) = truth.difference(&suppressed).next() {
                report.violations.push(Violation::MetamorphicShrunk {
                    event_index: i,
                    lost_addr: lost,
                });
            }
        }
    }

    // --- Ideal on an infinite cache (different timing, same program) --------
    let ideal_machine = watchdogged(MachineConfig::infinite_cache(), opts);
    let det = IdealDetector::new(threads);
    let m = Machine::new(
        ideal_machine,
        workload,
        Tandem::new(det),
        opts.sim_seed,
        InjectionPlan::none(),
    );
    match m.run() {
        Ok((_, tandem)) => {
            let ideal: BTreeSet<u64> = tandem
                .det
                .raced_words()
                .into_iter()
                .map(|a| a.byte())
                .collect();
            report.ideal_races = ideal.len();
            let truth2 = racy_words(&tandem.rec.events, threads, &BTreeSet::new());
            for &addr in truth2.difference(&ideal) {
                report.violations.push(Violation::IdealMissedRace { addr });
            }
            for &addr in ideal.difference(&truth2) {
                report
                    .violations
                    .push(Violation::IdealFalsePositive { addr });
            }
            race_free_check(&truth2, "ideal", opts, &mut report.violations);
        }
        Err(e) => report.violations.push(Violation::SimAborted {
            config: "ideal",
            detail: e.to_string(),
        }),
    }

    // --- VC-limited (L2-sized clock memory) ---------------------------------
    let vc_machine = watchdogged(MachineConfig::paper_4core(), opts);
    let cores = vc_machine.cores;
    let det = VcLimitedDetector::new(VcConfig::l2_cache(), threads, cores);
    let m = Machine::new(
        vc_machine,
        workload,
        Tandem::new(det),
        opts.sim_seed,
        InjectionPlan::none(),
    );
    match m.run() {
        Ok((_, tandem)) => {
            let vc: BTreeSet<u64> = tandem.det.races().iter().map(|r| r.addr.byte()).collect();
            report.vc_races = vc.len();
            let truth3 = racy_words(&tandem.rec.events, threads, &BTreeSet::new());
            for &addr in vc.difference(&truth3) {
                report.violations.push(Violation::VcFalsePositive { addr });
            }
            race_free_check(&truth3, "vc-limited", opts, &mut report.violations);
        }
        Err(e) => report.violations.push(Violation::SimAborted {
            config: "vc-limited",
            detail: e.to_string(),
        }),
    }

    // --- cord-inject removals re-run through the CORD battery ---------------
    if opts.max_injections > 0 {
        let machine = watchdogged(MachineConfig::paper_4core(), opts);
        match count_instances(&machine, workload, opts.sim_seed) {
            Ok(counts) => {
                for n in spread(counts.acquires as usize, opts.max_injections) {
                    match run_cord(workload, InjectionPlan::remove_nth(n as u64), opts) {
                        Ok(run) => {
                            report.injections_checked += 1;
                            let t = check_cord_run(&run, threads, &mut report.violations);
                            // Removing an acquire can only lose order:
                            // injected truth must be ⊇-monotone is NOT
                            // a cross-run theorem, so only the per-run
                            // CORD invariants above are checked here.
                            let _ = t;
                        }
                        // Removing synchronization may deadlock or
                        // livelock; the watchdog abort is the expected
                        // outcome, not an oracle failure.
                        Err(_) => report.injections_aborted += 1,
                    }
                }
            }
            Err(e) => report.violations.push(Violation::SimAborted {
                config: "inject-dry-run",
                detail: e.to_string(),
            }),
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use cord_trace::builder::WorkloadBuilder;

    #[test]
    fn race_free_seeds_pass_the_full_battery() {
        let cfg = GenConfig::race_free().short();
        for seed in 0..8 {
            let w = generate(&cfg, seed);
            let opts = OracleOptions {
                expect_race_free: true,
                ..OracleOptions::default()
            };
            let report = check_workload(&w, &opts);
            assert!(report.passed(), "seed {seed}: {:?}", report.violations);
        }
    }

    #[test]
    fn mixed_seeds_pass_the_full_battery() {
        let cfg = GenConfig::default().short();
        for seed in 100..106 {
            let w = generate(&cfg, seed);
            let report = check_workload(&w, &OracleOptions::default());
            assert!(report.passed(), "seed {seed}: {:?}", report.violations);
        }
    }

    #[test]
    fn racy_workload_is_seen_by_truth_and_ideal() {
        // Two threads hammer the same word with no synchronization.
        let mut b = WorkloadBuilder::new("oracle-racy", 2);
        let region = b.alloc_words(4);
        for t in 0..2 {
            let mut h = b.thread_mut(t);
            for _ in 0..4 {
                h.write(region.word(0));
                h.read(region.word(0));
            }
        }
        let w = b.build();
        let report = check_workload(&w, &OracleOptions::default());
        assert!(report.passed(), "{:?}", report.violations);
        assert!(report.truth_races > 0, "truth saw no race");
        assert!(report.ideal_races > 0, "ideal saw no race");
    }

    #[test]
    fn spread_is_even_and_deduped() {
        assert_eq!(spread(10, 2), vec![0, 5]);
        assert_eq!(spread(1, 3), vec![0]);
        assert!(spread(0, 3).is_empty());
        assert!(spread(5, 0).is_empty());
    }
}
