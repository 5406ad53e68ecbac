//! The CORD detector: scalar-clock order-recording and data race
//! detection as a [`MemoryObserver`] plugged into the CMP simulator.
//!
//! Mechanism summary (paper §2):
//!
//! * Each thread has a scalar logical clock; each core's L2-resident
//!   lines carry up to two timestamp entries with per-word read/write
//!   bits ([`LineHistory`]).
//! * An access compares the thread's clock against **remote** cores'
//!   histories for the word: snooped automatically when the access
//!   already performs a bus transaction (miss or upgrade), or via an
//!   explicit *race check broadcast* on a local hit whose access bit is
//!   clear and whose line check-filter does not grant permission
//!   (§2.7.2).
//! * `clock <= ts` is a race outcome: recorded (clock update `ts + 1`,
//!   log entry) and — for data accesses — reported as a data race.
//!   `ts < clock < ts + D` is ordered for recording but still a data
//!   race for DRD (§2.6).
//! * Synchronization reads jump the clock to `ts_write + D`;
//!   synchronization writes increment it afterwards; migrations add `D`.
//! * Displaced history entries fold into the whole-memory read/write
//!   timestamps (§2.5); memory-sourced fills compare against those,
//!   update the clock, and are never *reported* (no false positives).

use crate::config::CordConfig;
use crate::history::LineHistory;
use crate::memts::MemTimestamps;
use crate::record::OrderRecorder;
use crate::shadow::LineTable;
use crate::sink::SinkReport;
use cord_clocks::scalar::ScalarTime;
use cord_clocks::window16::{self, WINDOW};
use cord_obs::{EventKind, MetricsRegistry, TraceEvent, TraceHandle, NO_THREAD};
use cord_sim::observer::{
    AccessEvent, AccessKind, CoreId, Level, LineRemoval, MemoryObserver, ObserverOutcome,
    RemovalCause,
};
use cord_trace::types::{Addr, LineAddr, ThreadId};
use std::collections::HashSet;

/// A detected data race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceReport {
    /// The thread whose access detected the race (the second access).
    pub thread: ThreadId,
    /// The racing word.
    pub addr: Addr,
    /// The detecting access's kind.
    pub kind: AccessKind,
    /// The core whose cached timestamp conflicted.
    pub other_core: CoreId,
    /// The detecting thread's clock before any update.
    pub my_clock: ScalarTime,
    /// The conflicting timestamp.
    pub other_ts: ScalarTime,
    /// Instruction index of the detecting access.
    pub instr_index: u64,
    /// Cycle of the detecting access.
    pub cycle: u64,
}

/// Counters the CORD detector accumulates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CordStats {
    /// Data races reported (after memory-timestamp suppression and
    /// deduplication).
    pub data_races: u64,
    /// Ordering races between synchronization accesses (these are what
    /// the order log exists to capture).
    pub sync_races: u64,
    /// Clock updates of any kind (= order-log race/jump entries).
    pub clock_updates: u64,
    /// Explicit race-check broadcasts issued on local hits.
    pub race_check_broadcasts: u64,
    /// Memory-timestamp update broadcasts on displacements.
    pub memts_broadcasts: u64,
    /// Would-be data-race reports suppressed because they compared
    /// against a main-memory timestamp (§2.5).
    pub suppressed_mem_detections: u64,
    /// Accesses that skipped the race check thanks to a check-filter bit.
    pub filter_hits: u64,
    /// Check-filter grants.
    pub filter_grants: u64,
    /// Accesses that skipped the race check because the word's access
    /// bit was already set at the current timestamp.
    pub bit_hits: u64,
    /// Sliding-window violations observed (0 when the walker keeps up,
    /// §2.7.5).
    pub window_violations: u64,
    /// Comparisons audited through the 16-bit hardware encoding
    /// (truncated clocks + wrapped comparison, §2.7.5).
    pub window16_audits: u64,
    /// Audited comparisons whose 16-bit result disagreed with the
    /// unbounded reference (must be 0 while the walker keeps the window
    /// invariant).
    pub window16_mismatches: u64,
    /// History entries evicted by the cache walker.
    pub walker_evictions: u64,
    /// Clock bumps due to thread migration (§2.7.4).
    pub migration_bumps: u64,
    /// 16-bit epoch boundaries (multiples of 2^16 ticks) crossed by
    /// committed clock updates — each one is a hardware-counter
    /// rollover the windowed comparisons must survive. Grows with
    /// synchronization intensity, i.e. with core count.
    pub clock_rollovers: u64,
}

impl CordStats {
    /// Accumulates every counter into `reg` under the `cord.` prefix.
    pub fn record_into(&self, reg: &mut MetricsRegistry) {
        reg.add("cord.data_races", self.data_races);
        reg.add("cord.sync_races", self.sync_races);
        reg.add("cord.clock_updates", self.clock_updates);
        reg.add("cord.race_check_broadcasts", self.race_check_broadcasts);
        reg.add("cord.memts_broadcasts", self.memts_broadcasts);
        reg.add(
            "cord.suppressed_mem_detections",
            self.suppressed_mem_detections,
        );
        reg.add("cord.filter_hits", self.filter_hits);
        reg.add("cord.filter_grants", self.filter_grants);
        reg.add("cord.bit_hits", self.bit_hits);
        reg.add("cord.window_violations", self.window_violations);
        reg.add("cord.window16_audits", self.window16_audits);
        reg.add("cord.window16_mismatches", self.window16_mismatches);
        reg.add("cord.walker_evictions", self.walker_evictions);
        reg.add("cord.migration_bumps", self.migration_bumps);
        // Rollovers only show up on long or wide (high-core-count)
        // runs; emitting the counter conditionally keeps the key set of
        // existing registries — and the fixtures that pin their bytes —
        // unchanged.
        if self.clock_rollovers > 0 {
            reg.add("cord.clock_rollovers", self.clock_rollovers);
        }
    }
}

/// The CORD mechanism, attached to a machine as its observer.
#[derive(Debug)]
pub struct CordDetector {
    cfg: CordConfig,
    clocks: Vec<ScalarTime>,
    last_instr: Vec<u64>,
    /// Per core: CORD state of L2-resident lines, indexed by the dense
    /// interleaved line index (no hashing on the access path).
    hist: Vec<LineTable<LineHistory<ScalarTime>>>,
    memts: MemTimestamps,
    /// Largest stamp each core's cache has recorded; a thread scheduled
    /// onto a core orders after this (co-resident threads' conflicts
    /// flow through the shared cache and are exempt from race checks, so
    /// the schedule-in update carries the ordering instead).
    core_max_stamp: Vec<ScalarTime>,
    recorder: OrderRecorder,
    races: Vec<RaceReport>,
    reported: HashSet<(u16, u64, u64, u8)>,
    stats: CordStats,
    accesses_since_walk: u64,
    /// Reusable buffer for entries displaced by line removals and walker
    /// passes, so neither path allocates in steady state.
    fold_scratch: Vec<crate::history::HistEntry<ScalarTime>>,
    trace: TraceHandle,
    /// Cycle of the most recent access, stamped onto events the
    /// detector raises outside an access context (walker passes).
    last_cycle: u64,
}

impl CordDetector {
    /// Initial thread clock. Starting at 1 (not 0) means untouched
    /// state — history entries never created, memory timestamps still at
    /// their initial 0 — always compares as "already ordered" rather
    /// than as a race with the beginning of time.
    pub const INITIAL_CLOCK: ScalarTime = ScalarTime::new(1);

    /// A detector for `threads` threads on `cores` cores.
    pub fn new(cfg: CordConfig, threads: usize, cores: usize) -> Self {
        cfg.validate();
        CordDetector {
            cfg,
            clocks: vec![Self::INITIAL_CLOCK; threads],
            last_instr: vec![0; threads],
            hist: (0..cores).map(|_| LineTable::new()).collect(),
            memts: MemTimestamps::new(),
            core_max_stamp: vec![ScalarTime::ZERO; cores],
            recorder: OrderRecorder::starting_at(threads, Self::INITIAL_CLOCK),
            races: Vec::new(),
            reported: HashSet::new(),
            stats: CordStats::default(),
            accesses_since_walk: 0,
            fold_scratch: Vec::new(),
            trace: TraceHandle::disabled(),
            last_cycle: 0,
        }
    }

    /// Data races reported so far.
    pub fn races(&self) -> &[RaceReport] {
        &self.races
    }

    /// Detector counters.
    pub fn stats(&self) -> &CordStats {
        &self.stats
    }

    /// The order-recording log.
    pub fn recorder(&self) -> &OrderRecorder {
        &self.recorder
    }

    /// The current logical clock of a thread.
    pub fn clock_of(&self, thread: ThreadId) -> ScalarTime {
        self.clocks[thread.index()]
    }

    /// The main-memory timestamps.
    pub fn mem_timestamps(&self) -> MemTimestamps {
        self.memts
    }

    /// Consumes the detector, returning `(races, recorder, stats)`.
    pub fn into_parts(self) -> (Vec<RaceReport>, OrderRecorder, CordStats) {
        (self.races, self.recorder, self.stats)
    }

    /// Attaches a run-event trace sink. Prefer passing the handle at
    /// construction time through [`crate::sink::ObsCtx`]; this exists
    /// for callers that build the detector directly.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// The detector label used in reports and sweep tables.
    pub fn label(&self) -> String {
        format!("CORD-D{}", self.cfg.policy.d())
    }

    /// Order-recording race test, shadow-audited through the 16-bit
    /// hardware datapath when the walker is enabled: the comparison the
    /// real CORD would perform on truncated clocks must agree with the
    /// unbounded reference (the `window16` property tests prove this
    /// holds while the window invariant does; this audits it on real
    /// runs). Operands more than a window apart are skipped — the
    /// wrapped comparison is only exact within `WINDOW`, and hardware
    /// never sees such pairs (the walker evicts stale timestamps; our
    /// unbounded reference keeps them for fidelity of detection).
    fn audited_is_race(&mut self, clk: ScalarTime, ts: ScalarTime) -> bool {
        let wide = clk.is_race_with(ts);
        if self.cfg.window_walker {
            use cord_clocks::window16::{self, WINDOW};
            if clk.ticks().abs_diff(ts.ticks()) <= u64::from(WINDOW) {
                let narrow = window16::is_race_with(
                    window16::truncate(clk.ticks()),
                    window16::truncate(ts.ticks()),
                );
                self.stats.window16_audits += 1;
                if narrow != wide {
                    self.stats.window16_mismatches += 1;
                }
            }
        }
        wide
    }

    /// DRD synchronization test with the same 16-bit shadow audit. The
    /// audit is skipped when `clk` and `ts` are more than a window apart
    /// (the walker would have evicted such stale timestamps in hardware;
    /// our unbounded reference keeps them for fidelity of detection).
    fn audited_is_synchronized(&mut self, clk: ScalarTime, ts: ScalarTime) -> bool {
        let wide = self.cfg.policy.is_synchronized(clk, ts);
        if self.cfg.window_walker {
            use cord_clocks::window16::{self, WINDOW};
            let d = self.cfg.policy.d();
            // The 16-bit comparison is only exact for `d` strictly below
            // the window and operands within `WINDOW - d` of each other
            // (`ts + d` must stay inside the wrapped half-range from
            // `clk`). Oversized `d` skips the audit entirely rather than
            // logging mismatches the hardware encoding cannot represent;
            // the subtraction form cannot overflow, unlike the previous
            // `abs_diff + d` guard.
            if d < u64::from(WINDOW) && clk.ticks().abs_diff(ts.ticks()) <= u64::from(WINDOW) - d {
                let narrow = window16::is_synchronized_after(
                    window16::truncate(clk.ticks()),
                    window16::truncate(ts.ticks()),
                    d as u16,
                );
                self.stats.window16_audits += 1;
                if narrow != wide {
                    self.stats.window16_mismatches += 1;
                }
            }
        }
        wide
    }

    fn report_race(&mut self, report: RaceReport) {
        let key = (
            report.thread.0,
            report.addr.byte(),
            report.other_ts.ticks(),
            report.other_core.0,
        );
        if self.reported.insert(key) {
            self.trace.emit(|| TraceEvent {
                cycle: report.cycle,
                thread: report.thread.0,
                kind: EventKind::Race {
                    addr: report.addr.byte(),
                    other_core: report.other_core.0,
                },
            });
            self.races.push(report);
            self.stats.data_races += 1;
        }
    }

    fn fold_entries_to_memts(&mut self, entries: &[crate::history::HistEntry<ScalarTime>]) -> bool {
        if !self.cfg.mem_ts {
            return false;
        }
        let mut changed = false;
        for e in entries {
            changed |= self.memts.fold(e);
        }
        changed
    }

    /// Periodic cache-walker pass (§2.7.5): evicts history entries that
    /// risk leaving the 16-bit sliding window and records violations.
    fn walk(&mut self) {
        let max_clock = self.clocks.iter().map(|c| c.ticks()).max().unwrap_or(0);
        if max_clock <= u64::from(WINDOW) / 2 {
            return; // plenty of headroom
        }
        let bound = max_clock - u64::from(WINDOW) / 2;
        let mut folded = std::mem::take(&mut self.fold_scratch);
        folded.clear();
        let mut min_live = u64::MAX;
        for core_hist in &mut self.hist {
            for h in core_hist.values_mut() {
                // Single order-preserving partition: stale entries move
                // to `folded` with their bits intact, survivors keep
                // their push order, and resident-line metadata (check
                // filters, shed-write bound) is untouched.
                h.take_entries_into(|e| e.stamp.ticks() < bound, &mut folded);
                for e in h.entries() {
                    min_live = min_live.min(e.stamp.ticks());
                }
            }
        }
        self.stats.walker_evictions += folded.len() as u64;
        let evicted = folded.len() as u64;
        self.trace.emit(|| TraceEvent {
            cycle: self.last_cycle,
            thread: NO_THREAD,
            kind: EventKind::WalkerPass { evicted, bound },
        });
        if self.fold_entries_to_memts(&folded) {
            self.stats.memts_broadcasts += 1;
        }
        self.fold_scratch = folded;
        if min_live != u64::MAX && max_clock - min_live > u64::from(WINDOW) {
            self.stats.window_violations += 1;
        }
    }
}

/// A race detector: a [`MemoryObserver`] that can report what it found.
///
/// This is the only detector interface. Events reach a detector only
/// through the observer callbacks: a live
/// [`Machine`](cord_sim::engine::Machine) calls them directly, and
/// capture replay calls them through
/// [`apply_stream_event`](crate::sink::apply_stream_event), so both
/// run the same code on the same events.
///
/// `Send` is a supertrait because detectors are built on one thread and
/// driven on another (sweep workers, daemon sessions). The trace handle
/// arrives at construction time via [`crate::sink::ObsCtx`].
pub trait Detector: MemoryObserver + Send {
    /// Number of data races reported so far.
    fn race_count(&self) -> u64;

    /// The race report and counters accumulated so far. Does not reset
    /// the detector; draining twice yields the same report.
    fn drain(&mut self) -> SinkReport;
}

impl Detector for CordDetector {
    fn race_count(&self) -> u64 {
        self.races.len() as u64
    }

    fn drain(&mut self) -> SinkReport {
        use cord_json::ToJson;
        let mut report = SinkReport::new(self.label());
        report.race_count = self.races.len() as u64;
        report.races = self.races.iter().map(|r| r.to_json()).collect();
        self.stats.record_into(&mut report.metrics);
        report
    }
}

/// Stable serialization of a race report, used by
/// [`crate::sink::SinkReport`] for the capture→replay byte-identity
/// contract. Kind names are [`cord_obs::kind_name`]'s
/// (`data-read`/`data-write`/`sync-read`/`sync-write`).
impl cord_json::ToJson for RaceReport {
    fn to_json(&self) -> cord_json::Json {
        let kind = cord_obs::kind_name(self.kind);
        cord_json::obj(vec![
            ("thread", cord_json::Json::UInt(u64::from(self.thread.0))),
            ("addr", cord_json::Json::UInt(self.addr.byte())),
            ("kind", cord_json::Json::Str(kind.to_string())),
            (
                "other_core",
                cord_json::Json::UInt(u64::from(self.other_core.0)),
            ),
            ("my_clock", cord_json::Json::UInt(self.my_clock.ticks())),
            ("other_ts", cord_json::Json::UInt(self.other_ts.ticks())),
            ("instr_index", cord_json::Json::UInt(self.instr_index)),
            ("cycle", cord_json::Json::UInt(self.cycle)),
        ])
    }
}

impl MemoryObserver for CordDetector {
    fn on_access(&mut self, ev: &AccessEvent) -> ObserverOutcome {
        let t = ev.thread.index();
        let my_core = ev.core.index();
        let line = ev.addr.line();
        let word = ev.addr.word_in_line();
        let is_write = ev.kind.is_write();
        let is_sync = ev.kind.is_sync();
        let is_data = !is_sync;
        let orig_clk = self.clocks[t];
        let mut checks: u32 = 0;
        let mut posted: u32 = 0;
        self.last_cycle = self.last_cycle.max(ev.cycle);

        // -- 1. Decide whether remote histories get checked. Misses and
        // upgrades snoop for free; local hits need a broadcast unless a
        // filter bit or the word's own access bit says it's covered.
        let mut need_remote_check = ev.path.has_bus_transaction();
        if !need_remote_check && self.cfg.drd {
            let h = self.hist[my_core].entry_or_default(line);
            if self.cfg.check_filters && h.filter_allows(is_write) {
                self.stats.filter_hits += 1;
            } else {
                // The word is covered if *any* resident entry records it
                // in this mode — the older timestamp "can provide access
                // history for words that are not yet accessed with the
                // newest timestamp" (Figure 2's rationale), so a
                // timestamp change must not trigger a fresh broadcast
                // per word.
                let bit_set = h.entries().iter().any(|e| {
                    if is_write {
                        e.written(word)
                    } else {
                        e.read(word)
                    }
                });
                if bit_set {
                    self.stats.bit_hits += 1;
                } else {
                    need_remote_check = true;
                    checks += 1;
                    self.stats.race_check_broadcasts += 1;
                }
            }
        }

        // -- 2. Compare against remote histories.
        let mut new_clk = orig_clk;
        let mut line_max_ts: Option<ScalarTime> = None;
        if need_remote_check {
            for core in 0..self.hist.len() {
                if core == my_core {
                    continue;
                }
                let Some(h) = self.hist[core].get(line) else {
                    continue;
                };
                let mut max_conflict_ts: Option<ScalarTime> = None;
                let mut max_write_ts: Option<ScalarTime> = None;
                for e in h.entries() {
                    line_max_ts = Some(line_max_ts.map_or(e.stamp, |m| m.max(e.stamp)));
                    if e.conflicts_with(word, is_write) {
                        max_conflict_ts = Some(max_conflict_ts.map_or(e.stamp, |m| m.max(e.stamp)));
                    }
                    if ev.kind == AccessKind::SyncRead && e.written(word) {
                        max_write_ts = Some(max_write_ts.map_or(e.stamp, |m| m.max(e.stamp)));
                    }
                }
                if ev.kind == AccessKind::SyncRead {
                    // The variable's latest write may have been displaced
                    // from the two-entry history by newer spin-read
                    // stamps; the line's shed-write bound covers it.
                    if let Some(shed) = h.shed_write_stamp {
                        max_write_ts = Some(max_write_ts.map_or(shed, |m| m.max(shed)));
                    }
                }
                if let Some(ts) = max_conflict_ts {
                    let is_race = self.audited_is_race(orig_clk, ts);
                    if is_race {
                        if is_sync {
                            self.stats.sync_races += 1;
                        }
                        if is_sync || self.cfg.policy.updates_on_data_races() {
                            new_clk = new_clk.max(self.cfg.policy.race_update(orig_clk, ts));
                        }
                    }
                    // DRD: report when both are data accesses and the
                    // gap is under D (covers both clk <= ts and the
                    // Figure 9 window ts < clk < ts + D).
                    if self.cfg.drd && is_data && !self.audited_is_synchronized(orig_clk, ts) {
                        self.report_race(RaceReport {
                            thread: ev.thread,
                            addr: ev.addr,
                            kind: ev.kind,
                            other_core: CoreId(core as u8),
                            my_clock: orig_clk,
                            other_ts: ts,
                            instr_index: ev.instr_index,
                            cycle: ev.cycle,
                        });
                    }
                }
                if let Some(wts) = max_write_ts {
                    // Sync read: jump to ts_write + D (§2.6).
                    new_clk = new_clk.max(self.cfg.policy.sync_read_update(orig_clk, wts));
                }
            }
            // Remote activity invalidates other cores' check filters —
            // mode-aware: any access voids remote *write* filters (their
            // premise is "no remote bits at all"), but only a write
            // voids remote *read* filters (premise: "no remote write
            // bits").
            for core in 0..self.hist.len() {
                if core != my_core {
                    if let Some(h) = self.hist[core].get_mut(line) {
                        h.write_filter = false;
                        if is_write {
                            h.read_filter = false;
                        }
                    }
                }
            }
        }

        // -- 3. Unconditional ordering from the response tag (§2.7.2:
        // "Data responses are tagged with the data's timestamp and
        // result in a clock update on the requesting processor"). A
        // transfer or upgrade orders the requester after the *line's*
        // newest remote timestamp; because displacement always removes
        // the line's lowest stamp, the line maximum dominates every
        // stamp the line ever shed, which is what makes the recorded
        // order sound (see DESIGN.md).
        if matches!(
            ev.path,
            cord_sim::observer::AccessPath::FillFromSibling(_)
                | cord_sim::observer::AccessPath::UpgradeHit
        ) {
            if let Some(ts) = line_max_ts {
                // Ordering only (+1); a sync read's +D jump over the
                // latest write stamp (visible or shed) was applied in
                // the remote scan above.
                if self.audited_is_race(orig_clk, ts) {
                    new_clk = new_clk.max(self.cfg.policy.race_update(orig_clk, ts));
                }
            }
            // A write also orders against reads whose history left every
            // cache for memory (capacity evictions fold read stamps into
            // the memory read timestamp; nothing reported).
            if is_write && self.cfg.mem_ts {
                let ts = self.memts.read();
                if orig_clk.is_race_with(ts) {
                    self.stats.suppressed_mem_detections += u64::from(is_data);
                    new_clk = new_clk.max(self.cfg.policy.race_update(orig_clk, ts));
                }
            }
        }

        // -- 4. Memory responses use the main memory timestamps instead
        // (§2.5): the clock update keeps order recording correct, but
        // the detection is never reported — "we can simply ignore (and
        // not report) any data race detections that used a main memory
        // timestamp". A synchronization read takes the +D jump over the
        // memory *write* timestamp, because the displaced lock write it
        // is ordering against folded into it (Figure 6); without the
        // jump, data the lock protected would sit inside the DRD window.
        if ev.path.from_memory() && self.cfg.mem_ts {
            if ev.kind == AccessKind::SyncRead && self.memts.write() > ScalarTime::ZERO {
                new_clk = new_clk.max(
                    self.cfg
                        .policy
                        .sync_read_update(orig_clk, self.memts.write()),
                );
            }
            let ts = self.memts.relevant_for(is_write);
            if orig_clk.is_race_with(ts) {
                if is_data {
                    if self.cfg.suppress_mem_ts_reports {
                        self.stats.suppressed_mem_detections += 1;
                    } else {
                        self.report_race(RaceReport {
                            thread: ev.thread,
                            addr: ev.addr,
                            kind: ev.kind,
                            other_core: ev.core, // no specific core: memory
                            my_clock: orig_clk,
                            other_ts: ts,
                            instr_index: ev.instr_index,
                            cycle: ev.cycle,
                        });
                    }
                }
                new_clk = new_clk.max(self.cfg.policy.race_update(orig_clk, ts));
            }
        }

        // -- 5. Commit the clock update and timestamp the access with
        // the *updated* clock (this is what makes conflicting pairs
        // strictly clock-ordered, the invariant replay relies on).
        if new_clk != orig_clk {
            self.recorder
                .record_change(ev.thread, new_clk, ev.instr_index);
            self.clocks[t] = new_clk;
            self.stats.clock_updates += 1;
            self.stats.clock_rollovers +=
                window16::rollovers_crossed(orig_clk.ticks(), new_clk.ticks());
        }
        let stamp = self.clocks[t];

        // -- 6. Update the local line history; displacement removes the
        // lower timestamp (§2.7.2) and folds it into memory (§2.5).
        let ts_per_line = self.cfg.ts_per_line;
        let h = self.hist[my_core].entry_or_default(line);
        let displaced = if h.newest().map(|e| e.stamp) == Some(stamp) {
            None
        } else {
            h.push_stamp_displace_min(stamp, ts_per_line)
        };
        h.newest_mut()
            .expect("entry just ensured")
            .set(word, is_write);
        self.core_max_stamp[my_core] = self.core_max_stamp[my_core].max(stamp);
        if let Some(old) = displaced {
            if old.any_written() {
                let stamp = old.stamp;
                self.hist[my_core]
                    .get_mut(line)
                    .expect("line history just touched")
                    .note_shed_write(stamp);
            }
            if self.fold_entries_to_memts(&[old]) {
                posted += 1;
                self.stats.memts_broadcasts += 1;
            }
        }

        // -- 7. Check-filter grant: a race check that found no
        // *potential* conflict anywhere in the line grants line-wide
        // permission for this mode (§2.7.2). A remote entry is a
        // potential conflict only while its timestamp could still race
        // with this thread under the D window — stamps the thread is
        // already synchronized past (e.g. through the barrier that
        // ordered a producer's writes before this consumer's reads) can
        // never produce a detection and do not block the grant.
        if need_remote_check && self.cfg.check_filters {
            let clk_now = self.clocks[t].max(new_clk);
            let line_clear = (0..self.hist.len()).filter(|&c| c != my_core).all(|c| {
                match self.hist[c].get(line) {
                    None => true,
                    Some(h) => h.entries().iter().all(|e| {
                        let conflicts = if is_write {
                            e.any_read() || e.any_written()
                        } else {
                            e.any_written()
                        };
                        !conflicts || self.cfg.policy.is_synchronized(clk_now, e.stamp)
                    }),
                }
            });
            if line_clear {
                let h = self.hist[my_core].entry_or_default(line);
                h.grant_filter(is_write);
                self.stats.filter_grants += 1;
            }
        }

        // -- 8. Post-synchronization-write increment (Fig 4), or the
        // increment-on-everything ablation (Fig 5).
        if ev.kind == AccessKind::SyncWrite || self.cfg.policy.increments_on_all_accesses() {
            let cur = self.clocks[t];
            let next = self.cfg.policy.post_sync_write(cur);
            self.recorder
                .record_change(ev.thread, next, ev.instr_index + 1);
            self.clocks[t] = next;
            self.stats.clock_updates += 1;
            self.stats.clock_rollovers += window16::rollovers_crossed(cur.ticks(), next.ticks());
        }

        self.last_instr[t] = ev.instr_index + 1;

        // -- 9. Periodic cache-walker pass.
        if self.cfg.window_walker {
            self.accesses_since_walk += 1;
            if self.accesses_since_walk >= 4096 {
                self.accesses_since_walk = 0;
                self.walk();
            }
        }

        ObserverOutcome {
            race_check_requests: checks,
            posted_transactions: posted,
        }
    }

    fn on_line_filled(&mut self, core: CoreId, level: Level, line: LineAddr) {
        if level == Level::L2 {
            // Revive-and-reset: a previously parked arena slot hands its
            // entry buffer back instead of allocating a fresh history.
            self.hist[core.index()].entry_or_default(line).reset();
        }
    }

    fn on_line_removed(&mut self, removal: &LineRemoval) -> ObserverOutcome {
        if removal.level != Level::L2 {
            return ObserverOutcome::NONE;
        }
        let mut entries = std::mem::take(&mut self.fold_scratch);
        entries.clear();
        match self.hist[removal.core.index()].vacate(removal.line) {
            Some(h) => h.drain_into(&mut entries),
            None => {
                self.fold_scratch = entries;
                return ObserverOutcome::NONE;
            }
        }
        // Capacity evictions fold into the memory timestamps (§2.5).
        // Invalidations do not: the requesting writer's response-tag
        // clock update already ordered it after the line's maximum
        // stamp, and its new history entry dominates the dropped ones
        // from then on.
        let outcome =
            if removal.cause == RemovalCause::Capacity && self.fold_entries_to_memts(&entries) {
                self.stats.memts_broadcasts += 1;
                ObserverOutcome::posted(1)
            } else {
                ObserverOutcome::NONE
            };
        self.fold_scratch = entries;
        outcome
    }

    fn on_thread_migrated(&mut self, thread: ThreadId, _from: CoreId, to: CoreId) {
        // "Synchronize" the migrating thread with its prior execution on
        // the old processor so stale same-thread timestamps can't flag
        // self-races (§2.7.4) — and with everything the destination
        // core's cache has stamped, because conflicts with co-resident
        // threads' cached accesses are exempt from race checks (local
        // histories are never compared) and must be ordered here for
        // replay to stay exact.
        let t = thread.index();
        let prev = self.clocks[t];
        let next = self
            .cfg
            .policy
            .migration_update(prev)
            .max(self.core_max_stamp[to.index()].succ());
        self.recorder
            .record_change(thread, next, self.last_instr[t]);
        self.clocks[t] = next;
        self.stats.migration_bumps += 1;
        self.stats.clock_updates += 1;
        self.stats.clock_rollovers += window16::rollovers_crossed(prev.ticks(), next.ticks());
    }

    fn on_run_end(&mut self, final_instr_counts: &[u64]) {
        self.recorder.flush(final_instr_counts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cord_sim::config::MachineConfig;
    use cord_sim::engine::{InjectionPlan, Machine};
    use cord_trace::builder::WorkloadBuilder;
    use cord_trace::program::Workload;

    fn run(
        w: &Workload,
        cfg: CordConfig,
        seed: u64,
        plan: InjectionPlan,
    ) -> (cord_sim::engine::RunOutput, CordDetector) {
        let mc = MachineConfig::paper_4core();
        let det = CordDetector::new(cfg, w.num_threads(), mc.cores);
        let m = Machine::new(mc, w, det, seed, plan);
        m.run().expect("no deadlock")
    }

    /// Producer/consumer through a flag: properly synchronized, no races.
    fn flag_workload() -> Workload {
        let mut b = WorkloadBuilder::new("sync-ok", 2);
        let g = b.alloc_flag();
        let d = b.alloc_words(1);
        b.thread_mut(0).write(d.word(0)).flag_set(g);
        b.thread_mut(1).flag_wait(g).read(d.word(0));
        b.build()
    }

    #[test]
    fn no_false_positives_on_synchronized_flag() {
        let (_, det) = run(
            &flag_workload(),
            CordConfig::paper(),
            1,
            InjectionPlan::none(),
        );
        assert!(det.races().is_empty(), "false positives: {:?}", det.races());
        // Ordering was recorded: the consumer's clock advanced past the
        // producer's.
        assert!(det.clock_of(ThreadId(1)) > ScalarTime::ZERO);
        assert!(det.recorder().is_flushed());
    }

    #[test]
    fn removed_flag_wait_yields_data_race() {
        // Removing the flag wait (the only removable instance) leaves
        // the read racing with the write.
        let mut b = WorkloadBuilder::new("sync-broken", 2);
        let g = b.alloc_flag();
        let d = b.alloc_words(1);
        // Producer computes first so the consumer really runs ahead.
        b.thread_mut(0).compute(20_000).write(d.word(0)).flag_set(g);
        b.thread_mut(1).flag_wait(g).compute(30_000).read(d.word(0));
        let w = b.build();
        let (out, det) = run(&w, CordConfig::paper(), 1, InjectionPlan::remove_nth(0));
        assert!(out.stats.injection_applied);
        assert!(
            !det.races().is_empty(),
            "expected a data race on the shared word"
        );
        let r = det.races()[0];
        assert_eq!(r.addr, Addr::new(0));
        assert_eq!(r.kind, AccessKind::DataRead);
    }

    #[test]
    fn lock_ordering_prevents_false_positives() {
        let mut b = WorkloadBuilder::new("lock-ok", 2);
        let l = b.alloc_lock();
        let d = b.alloc_words(4);
        for t in 0..2 {
            for i in 0..4 {
                b.thread_mut(t)
                    .lock(l)
                    .update(d.word(i))
                    .unlock(l)
                    .compute(200);
            }
        }
        let w = b.build();
        let (_, det) = run(&w, CordConfig::paper(), 3, InjectionPlan::none());
        assert!(det.races().is_empty(), "false positives: {:?}", det.races());
        assert!(det.stats().sync_races > 0, "lock handoffs are sync races");
    }

    #[test]
    fn removed_lock_yields_data_race() {
        let mut b = WorkloadBuilder::new("lock-broken", 2);
        let l = b.alloc_lock();
        let d = b.alloc_words(1);
        for t in 0..2 {
            b.thread_mut(t)
                .compute(t as u32 * 500)
                .lock(l)
                .update(d.word(0))
                .unlock(l);
        }
        let w = b.build();
        // Remove thread 0's acquire (instance 0).
        let (out, det) = run(&w, CordConfig::paper(), 5, InjectionPlan::remove_nth(0));
        assert!(out.stats.injection_applied);
        assert!(!det.races().is_empty(), "expected race on the counter");
    }

    #[test]
    fn order_log_entries_partition_instructions() {
        let mut b = WorkloadBuilder::new("log", 2);
        let l = b.alloc_lock();
        let d = b.alloc_words(2);
        for t in 0..2 {
            for i in 0..3 {
                b.thread_mut(t)
                    .lock(l)
                    .update(d.word(i % 2))
                    .unlock(l)
                    .compute(50);
            }
        }
        let w = b.build();
        let (out, det) = run(&w, CordConfig::paper(), 7, InjectionPlan::none());
        let total_logged: u64 = det
            .recorder()
            .entries()
            .iter()
            .map(|e| e.instructions)
            .sum();
        let total_instr: u64 = out.stats.instr_counts.iter().sum();
        assert_eq!(total_logged, total_instr);
        assert!(det.recorder().bytes() > 0);
    }

    #[test]
    fn barrier_workload_is_race_free() {
        let mut b = WorkloadBuilder::new("barrier-ok", 4);
        let bar = b.alloc_barrier();
        let d = b.alloc_line_aligned(16);
        for t in 0..4 {
            let tb = &mut b.thread_mut(t);
            for round in 0..3u64 {
                tb.write(d.word(t as u64 * 4 + round % 4));
                tb.barrier(bar);
                tb.read(d.word(((t as u64 + 1) % 4) * 4 + round % 4));
                tb.barrier(bar);
            }
        }
        let w = b.build();
        let (_, det) = run(&w, CordConfig::paper(), 11, InjectionPlan::none());
        assert!(det.races().is_empty(), "false positives: {:?}", det.races());
    }

    #[test]
    fn migration_does_not_self_race() {
        let mut b = WorkloadBuilder::new("mig", 4);
        let bar = b.alloc_barrier();
        let d = b.alloc_line_aligned(64);
        for t in 0..4 {
            let tb = &mut b.thread_mut(t);
            // Private per-thread region accessed before and after
            // migration: without the +D bump, the post-migration access
            // would race with the thread's own stale timestamps.
            for i in 0..16 {
                tb.update(d.word(t as u64 * 16 + i));
            }
            tb.barrier(bar);
            for i in 0..16 {
                tb.update(d.word(t as u64 * 16 + i));
            }
        }
        let w = b.build();
        let mc = MachineConfig::paper_4core().with_barrier_migration();
        let det = CordDetector::new(CordConfig::paper(), 4, mc.cores);
        let m = Machine::new(mc, &w, det, 13, InjectionPlan::none());
        let (out, det) = m.run().expect("no deadlock");
        assert!(out.stats.migrations > 0);
        assert!(det.stats().migration_bumps > 0);
        assert!(
            det.races().is_empty(),
            "self-races after migration: {:?}",
            det.races()
        );
    }

    #[test]
    fn sync_write_storm_counts_rollovers() {
        // Enough synchronization writes to push the single thread's
        // clock across at least one 2^16 epoch boundary. With a
        // monotone clock the per-commit rollover increments telescope
        // to the final clock's epoch.
        let mut b = WorkloadBuilder::new("rollover", 1);
        let g = b.alloc_flag();
        for _ in 0..70_000 {
            b.thread_mut(0).flag_set(g);
        }
        let w = b.build();
        let (_, det) = run(&w, CordConfig::paper(), 17, InjectionPlan::none());
        let stats = *det.stats();
        assert!(stats.clock_rollovers >= 1, "the clock never wrapped");
        assert_eq!(
            stats.clock_rollovers,
            det.clock_of(ThreadId(0)).ticks() >> 16
        );
        // Nonzero counts reach the registry; all-zero stats leave the
        // key out entirely (fixture byte-compatibility).
        let mut reg = MetricsRegistry::default();
        stats.record_into(&mut reg);
        assert_eq!(reg.counter("cord.clock_rollovers"), stats.clock_rollovers);
        let mut reg0 = MetricsRegistry::default();
        CordStats::default().record_into(&mut reg0);
        assert!(reg0.counters().keys().all(|k| k != "cord.clock_rollovers"));
    }

    #[test]
    fn d_window_detects_figure8_style_race() {
        // Figure 8's problem: synchronization writes occur at about the
        // same rate in both threads, so a naive scalar clock (D=1) sees
        // the later thread as "already ordered" after the earlier one's
        // write even though no synchronization connects them. The two
        // threads here use *disjoint* locks, so nothing orders them; the
        // reader's clock has ticked a little past the writer's
        // timestamp. D=1 misses the race, D=16 catches it.
        let build = || {
            let mut b = WorkloadBuilder::new("fig8", 2);
            let l0 = b.alloc_lock();
            let l1 = b.alloc_lock();
            let x = b.alloc_line_aligned(1);
            let private = b.alloc_line_aligned(2);
            // Thread 0: two private critical sections, then write X.
            // Clock ends around 1 + 2 sync-write ticks = 3.
            b.thread_mut(0)
                .lock(l0)
                .update(private.word(0))
                .unlock(l0)
                .write(x.word(0));
            // Thread 1: four private critical sections (clock ~5), then
            // read X — entirely unsynchronized with thread 0's write.
            let tb = &mut b.thread_mut(1);
            tb.compute(50_000);
            for _ in 0..2 {
                tb.lock(l1).update(private.word(1)).unlock(l1);
            }
            tb.read(x.word(0));
            b.build()
        };
        let count_x_races = |det: &CordDetector| {
            det.races()
                .iter()
                .filter(|r| r.addr == Addr::new(0))
                .count()
        };
        let (_, det_d1) = run(&build(), CordConfig::with_d(1), 17, InjectionPlan::none());
        let (_, det_d16) = run(&build(), CordConfig::with_d(16), 17, InjectionPlan::none());
        assert_eq!(
            count_x_races(&det_d1),
            0,
            "D=1 treats the slightly-later reader as ordered (the miss)"
        );
        assert!(
            count_x_races(&det_d16) > 0,
            "D=16 should catch the unsynchronized read of X; clocks: {:?} {:?}",
            det_d16.clock_of(ThreadId(0)),
            det_d16.clock_of(ThreadId(1)),
        );
    }

    #[test]
    fn check_filters_reduce_broadcasts() {
        let mut b = WorkloadBuilder::new("filters", 1);
        let d = b.alloc_line_aligned(16);
        // Sequential sweep over one private line: after the first word's
        // race check finds nothing, the filter covers the rest.
        for i in 0..16 {
            b.thread_mut(0).read(d.word(i));
        }
        let w = b.build();
        let (_, with_filters) = run(&w, CordConfig::paper(), 19, InjectionPlan::none());
        let mut no_filters_cfg = CordConfig::paper();
        no_filters_cfg.check_filters = false;
        let (_, without_filters) = run(&w, no_filters_cfg, 19, InjectionPlan::none());
        assert!(
            with_filters.stats().race_check_broadcasts
                < without_filters.stats().race_check_broadcasts
        );
        assert!(with_filters.stats().filter_grants > 0);
        assert!(with_filters.stats().filter_hits > 0);
    }

    #[test]
    fn memts_suppression_avoids_false_positive_through_memory() {
        // A word written, displaced to memory by cache pressure, then
        // read by another thread *after* proper synchronization would be
        // a false positive if memory detections were reported.
        let mut b = WorkloadBuilder::new("memts", 2);
        let g = b.alloc_flag();
        let x = b.alloc_line_aligned(1);
        // Enough lines to blow the 32 KB L2 (512 lines).
        let filler = b.alloc_line_aligned(16 * 1024);
        b.thread_mut(0).write(x.word(0));
        {
            let tb = &mut b.thread_mut(0);
            for i in 0..1024u64 {
                tb.write(filler.word(i * 16));
            }
        }
        b.thread_mut(0).flag_set(g);
        b.thread_mut(1).flag_wait(g).read(x.word(0));
        let w = b.build();
        let (_, det) = run(&w, CordConfig::paper(), 23, InjectionPlan::none());
        assert!(
            det.races().is_empty(),
            "memory-path detections must not be reported: {:?}",
            det.races()
        );
        assert!(det.stats().memts_broadcasts > 0, "displacements folded");
    }

    #[test]
    fn window16_audit_skipped_for_oversized_d() {
        // d = WINDOW and d = WINDOW + 1 cannot be represented by the
        // 16-bit wrapped comparison; the audit must be skipped entirely
        // instead of logging spurious mismatches.
        for d in [u64::from(WINDOW), u64::from(WINDOW) + 1] {
            let mut det = CordDetector::new(CordConfig::with_d(d), 2, 4);
            let _ = det.audited_is_synchronized(ScalarTime::new(100), ScalarTime::new(90));
            let _ = det.audited_is_synchronized(ScalarTime::new(100_000), ScalarTime::new(99_999));
            assert_eq!(det.stats().window16_audits, 0, "d={d} must skip the audit");
            assert_eq!(
                det.stats().window16_mismatches,
                0,
                "d={d} must not mismatch"
            );
        }
    }

    #[test]
    fn window16_audit_guard_boundaries() {
        // Default d = 16: operands within WINDOW - d of each other are
        // audited and must agree with the unbounded reference; one tick
        // past that the audit is skipped.
        let mut det = CordDetector::new(CordConfig::paper(), 2, 4);
        let edge = u64::from(WINDOW) - 16;
        let _ = det.audited_is_synchronized(ScalarTime::new(100_000), ScalarTime::new(99_970));
        assert_eq!(det.stats().window16_audits, 1);
        let _ =
            det.audited_is_synchronized(ScalarTime::new(200_000), ScalarTime::new(200_000 - edge));
        let _ =
            det.audited_is_synchronized(ScalarTime::new(200_000 - edge), ScalarTime::new(200_000));
        assert_eq!(
            det.stats().window16_audits,
            3,
            "abs_diff == WINDOW - d is audited"
        );
        let _ = det.audited_is_synchronized(
            ScalarTime::new(200_000),
            ScalarTime::new(200_000 - edge - 1),
        );
        assert_eq!(
            det.stats().window16_audits,
            3,
            "abs_diff > WINDOW - d is skipped"
        );
        assert_eq!(det.stats().window16_mismatches, 0);
    }

    #[test]
    fn window16_race_audit_skips_operands_over_a_window_apart() {
        // A thread clock lagging a cached timestamp by more than WINDOW
        // (or vice versa) is a pairing the hardware walker makes
        // impossible; the wrapped comparison is not exact there and the
        // audit must skip it instead of logging a mismatch.
        let mut det = CordDetector::new(CordConfig::paper(), 2, 4);
        let w = u64::from(WINDOW);
        let _ = det.audited_is_race(ScalarTime::new(100_000), ScalarTime::new(100_000 - w));
        let _ = det.audited_is_race(ScalarTime::new(100_000 - w), ScalarTime::new(100_000));
        assert_eq!(det.stats().window16_audits, 2, "abs_diff == WINDOW audited");
        let _ = det.audited_is_race(ScalarTime::new(100_000), ScalarTime::new(100_000 - w - 1));
        let _ = det.audited_is_race(ScalarTime::new(100_000 - w - 1), ScalarTime::new(100_000));
        assert_eq!(
            det.stats().window16_audits,
            2,
            "abs_diff > WINDOW is skipped"
        );
        assert_eq!(det.stats().window16_mismatches, 0);
    }

    #[test]
    fn walker_pass_preserves_surviving_state_and_verdicts() {
        use cord_sim::observer::{AccessEvent, AccessPath};
        // Two detectors with identical state; one takes a walker pass.
        // The pass must evict only the stale entry and leave surviving
        // entries (order, bits) and resident-line metadata (filters,
        // shed-write bound) untouched, so verdicts on later accesses
        // are identical.
        let line_addr = Addr::new(4096);
        let setup = || {
            let mut det = CordDetector::new(CordConfig::paper(), 2, 4);
            det.clocks[0] = ScalarTime::new(39_990);
            det.clocks[1] = ScalarTime::new(40_000); // stamped the live entry
            let h = det.hist[1].entry_or_default(line_addr.line());
            h.push_stamp(ScalarTime::new(10), 2); // stale: < 39_990 - WINDOW/2
            h.newest_mut().unwrap().set(0, true);
            h.push_stamp(ScalarTime::new(39_995), 2); // live
            h.newest_mut().unwrap().set(1, true);
            h.grant_filter(false);
            h.note_shed_write(ScalarTime::new(39_980));
            det
        };
        let mut walked = setup();
        let mut unwalked = setup();
        walked.walk();

        let h = walked.hist[1].get(line_addr.line()).expect("line resident");
        assert_eq!(h.entries().len(), 1);
        assert_eq!(h.newest().unwrap().stamp, ScalarTime::new(39_995));
        assert!(h.newest().unwrap().written(1), "surviving bits intact");
        assert!(
            h.filter_allows(false),
            "walker must not clear check filters"
        );
        assert_eq!(
            h.shed_write_stamp,
            Some(ScalarTime::new(39_980)),
            "walker must not lose the shed-write bound"
        );
        assert_eq!(walked.stats().walker_evictions, 1);
        // The evicted write folded into the memory write timestamp.
        assert_eq!(walked.mem_timestamps().write(), ScalarTime::new(10));

        // Identical verdict on a later access touching the live entry:
        // thread 0 (clock 39_990) reads word 1, which core 1 wrote at
        // 39_995 — a race in both detectors, evicted entry or not.
        let ev = AccessEvent {
            core: CoreId(0),
            thread: ThreadId(0),
            addr: line_addr.offset_words(1),
            kind: AccessKind::DataRead,
            path: AccessPath::L2Hit,
            instr_index: 0,
            cycle: 100,
        };
        walked.on_access(&ev);
        unwalked.on_access(&ev);
        assert_eq!(
            walked.races(),
            unwalked.races(),
            "verdict parity after walk"
        );
        assert_eq!(walked.races().len(), 1);
    }

    #[test]
    fn walker_eviction_keeps_memts_suppression() {
        // §2.5 end-to-end: thread 0 writes x, pumps its clock past the
        // half-window with a private flag (forcing mid-run walker
        // evictions), blows the L2 so x also reaches memory, then
        // releases g. Thread 1 waits on g and reads x — properly
        // synchronized, so the run must stay report-free with the
        // walker folding histories into the memory timestamps, exactly
        // as it is without the walker.
        let build = || {
            let mut b = WorkloadBuilder::new("walker-memts", 2);
            let g = b.alloc_flag();
            let p = b.alloc_flag();
            let x = b.alloc_line_aligned(1);
            let filler = b.alloc_line_aligned(16 * 1024);
            b.thread_mut(0).write(x.word(0));
            {
                let tb = &mut b.thread_mut(0);
                // Well past WINDOW/2 sync writes: each bumps the clock
                // by one, and the surplus beyond 16383 leaves enough
                // accesses for a walker pass (every 4096) to fire after
                // the clock crosses the half-window.
                for _ in 0..22_000u64 {
                    tb.flag_set(p);
                }
                for i in 0..1024u64 {
                    tb.write(filler.word(i * 16));
                }
            }
            b.thread_mut(0).flag_set(g);
            b.thread_mut(1).flag_wait(g).read(x.word(0));
            b.build()
        };
        let mut no_walker = CordConfig::paper();
        no_walker.window_walker = false;
        let (_, with_w) = run(&build(), CordConfig::paper(), 29, InjectionPlan::none());
        let (_, without_w) = run(&build(), no_walker, 29, InjectionPlan::none());
        assert!(
            with_w.stats().walker_evictions > 0,
            "walker must evict mid-run"
        );
        assert_eq!(with_w.stats().window16_mismatches, 0);
        assert!(
            with_w.races().is_empty(),
            "memory-path detections must stay suppressed: {:?}",
            with_w.races()
        );
        assert_eq!(
            with_w.races(),
            without_w.races(),
            "report parity with the no-walker run"
        );
    }

    #[test]
    fn into_parts_hands_back_everything() {
        let (_, det) = run(
            &flag_workload(),
            CordConfig::paper(),
            1,
            InjectionPlan::none(),
        );
        let updates = det.stats().clock_updates;
        let (races, recorder, stats) = det.into_parts();
        assert!(races.is_empty());
        assert!(recorder.is_flushed());
        assert_eq!(stats.clock_updates, updates);
    }
}

#[cfg(test)]
mod record_only_tests {
    use super::*;
    use crate::config::CordConfig;
    use crate::replay::replay_and_verify;
    use cord_sim::config::MachineConfig;
    use cord_sim::engine::{InjectionPlan, Machine};
    use cord_trace::builder::WorkloadBuilder;

    /// A record-only CORD (the FDR-style configuration of §5) still
    /// replays exactly, reports nothing, and issues no race-check
    /// broadcasts.
    #[test]
    fn record_only_replays_without_drd_traffic() {
        let mut b = WorkloadBuilder::new("rec-only", 4);
        let l = b.alloc_lock();
        let bar = b.alloc_barrier();
        let d = b.alloc_line_aligned(64);
        for t in 0..4 {
            let tb = &mut b.thread_mut(t);
            for i in 0..8u64 {
                tb.lock(l).update(d.word((t as u64 * 8 + i) % 64)).unlock(l);
            }
            tb.barrier(bar);
            tb.read(d.word(((t as u64 + 1) % 4) * 8));
        }
        let w = b.build();
        let cfg = CordConfig::paper().record_only();
        // Even with an injected bug, a record-only run reports nothing
        // but its log still replays the (buggy) execution exactly.
        for plan in [InjectionPlan::none(), InjectionPlan::remove_nth(1)] {
            let mc = MachineConfig::paper_4core().with_resolved_capture();
            let det = CordDetector::new(cfg.clone(), 4, mc.cores);
            let m = Machine::new(mc, &w, det, 3, plan);
            let (out, det) = m.run().expect("no deadlock");
            assert!(det.races().is_empty(), "record-only must not report");
            assert_eq!(det.stats().race_check_broadcasts, 0);
            let resolved = out.truth.resolved.as_ref().expect("captured");
            replay_and_verify(
                det.recorder().entries(),
                resolved,
                &out.stats.instr_counts,
                &out.truth.thread_hashes,
            )
            .expect("record-only log replays exactly");
        }
    }

    /// Record-only CORD generates no more timestamp-bus traffic than the
    /// full mechanism.
    #[test]
    fn record_only_costs_no_more_than_full_cord() {
        let mut b = WorkloadBuilder::new("rec-cost", 4);
        let l = b.alloc_lock();
        let d = b.alloc_line_aligned(128);
        for t in 0..4 {
            let tb = &mut b.thread_mut(t);
            for i in 0..32u64 {
                tb.lock(l)
                    .update(d.word((t as u64 * 32 + i) % 128))
                    .unlock(l);
                tb.compute(40);
            }
        }
        let w = b.build();
        let run = |cfg: CordConfig| {
            let det = CordDetector::new(cfg, 4, 4);
            let m = Machine::new(
                MachineConfig::paper_4core(),
                &w,
                det,
                5,
                InjectionPlan::none(),
            );
            let (out, _) = m.run().expect("ok");
            out.stats.observer_addr_transactions
        };
        assert!(run(CordConfig::paper().record_only()) <= run(CordConfig::paper()));
    }
}
