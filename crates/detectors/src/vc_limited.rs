//! Vector-clock detectors with realistic buffering limits (§4.3).
//!
//! These are "CORD-like schemes that use vector clocks": the same
//! two-timestamps-per-line structure with per-word access bits, the same
//! cache-residency coupling, and the same clock updates on all races —
//! but with exact happens-before comparisons instead of scalar
//! less-than. The paper sweeps three capacities:
//!
//! * **InfCache** — unlimited cache (history never evicted), still only
//!   two timestamps per line (Figure 14/15 show this alone misses 18% of
//!   raw races);
//! * **L2Cache** — history only for L2-resident lines (the baseline the
//!   Figure 16/17 clock sweeps are normalized to);
//! * **L1Cache** — history only for L1-resident lines (the severe
//!   constraint that visibly hurts problem detection).
//!
//! Displaced entries fold into whole-memory read/write *vector*
//! timestamps (the vector analogue of §2.5), comparisons against which
//! are never reported.

use cord_clocks::vector::VectorClock;
use cord_core::history::LineHistory;
use cord_core::LineTable;
use cord_sim::observer::{
    AccessEvent, AccessKind, CoreId, Level, LineRemoval, MemoryObserver, ObserverOutcome,
};
use cord_trace::types::{Addr, LineAddr, ThreadId};
use std::collections::HashSet;

/// How much cache backs the timestamp storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CapacityMode {
    /// History never evicted (the paper's InfCache; pair with
    /// [`MachineConfig::infinite_cache`](cord_sim::config::MachineConfig::infinite_cache)).
    Unlimited,
    /// History exists only for lines resident at this cache level.
    Level(Level),
}

/// Configuration of a vector-clock limited detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcConfig {
    /// Timestamp entries per line (2 in all paper configurations).
    pub ts_per_line: usize,
    /// Cache capacity backing the history.
    pub capacity: CapacityMode,
    /// Join the accessor's clock with the conflicting timestamp on every
    /// race (CORD's update-on-all-races choice, Figure 3). The Ideal
    /// oracle instead never updates on data races.
    pub join_on_races: bool,
}

impl VcConfig {
    /// The InfCache configuration of §4.3.
    pub fn inf_cache() -> Self {
        VcConfig {
            ts_per_line: 2,
            capacity: CapacityMode::Unlimited,
            join_on_races: true,
        }
    }

    /// The L2Cache configuration of §4.3 (also the "vector clock"
    /// reference of Figures 12–13 and 16–17).
    pub fn l2_cache() -> Self {
        VcConfig {
            capacity: CapacityMode::Level(Level::L2),
            ..Self::inf_cache()
        }
    }

    /// The L1Cache configuration of §4.3.
    pub fn l1_cache() -> Self {
        VcConfig {
            capacity: CapacityMode::Level(Level::L1),
            ..Self::inf_cache()
        }
    }
}

/// A data race found by a vector-clock limited detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcRace {
    /// The thread whose access detected the race.
    pub thread: ThreadId,
    /// The racing word.
    pub addr: Addr,
    /// The detecting access's kind.
    pub kind: AccessKind,
    /// The core whose cached timestamp conflicted.
    pub other_core: CoreId,
    /// Instruction index of the detecting access.
    pub instr_index: u64,
}

/// Vector-clock detector with CORD's buffering structure.
#[derive(Debug)]
pub struct VcLimitedDetector {
    cfg: VcConfig,
    vcs: Vec<VectorClock>,
    hist: Vec<LineTable<LineHistory<VectorClock>>>,
    mem_read_vc: VectorClock,
    mem_write_vc: VectorClock,
    races: Vec<VcRace>,
    reported: HashSet<(u16, u64, u8, u64)>,
    /// Per core: version counter of the line's latest stamp, indexed by
    /// the dense line index.
    stamp_versions: Vec<LineTable<u64>>,
    /// Per-core running join of every stamp the core's cache recorded;
    /// a thread scheduled onto the core joins it (§2.7.4's "synchronize
    /// on migration", which "also applies to vector-clock schemes").
    core_join: Vec<VectorClock>,
    /// Per core, per line: join of all *write-carrying* stamps displaced
    /// from that line's two-entry history while it stayed resident — the
    /// vector analogue of CORD's shed-write bound. A sync read must join
    /// this too, or a release displaced by spin-read stamps would be
    /// lost and lock-protected data would look concurrent.
    shed_writes: Vec<LineTable<VectorClock>>,
    next_version: u64,
    /// Reusable buffer for entries drained on line removal, so evictions
    /// do not allocate in steady state.
    fold_scratch: Vec<cord_core::history::HistEntry<VectorClock>>,
}

impl VcLimitedDetector {
    /// A detector for `threads` threads on `cores` cores.
    pub fn new(cfg: VcConfig, threads: usize, cores: usize) -> Self {
        assert!(cfg.ts_per_line >= 1);
        VcLimitedDetector {
            cfg,
            // Own component starts at 1 (first epoch) so unsynchronized
            // cross-thread accesses compare as concurrent, not ordered.
            vcs: (0..threads)
                .map(|t| {
                    let mut vc = VectorClock::new(threads);
                    vc.tick(t);
                    vc
                })
                .collect(),
            hist: (0..cores).map(|_| LineTable::new()).collect(),
            mem_read_vc: VectorClock::new(threads),
            mem_write_vc: VectorClock::new(threads),
            core_join: (0..cores).map(|_| VectorClock::new(threads)).collect(),
            races: Vec::new(),
            reported: HashSet::new(),
            stamp_versions: (0..cores).map(|_| LineTable::new()).collect(),
            shed_writes: (0..cores).map(|_| LineTable::new()).collect(),
            next_version: 0,
            fold_scratch: Vec::new(),
        }
    }

    /// All data races detected.
    pub fn races(&self) -> &[VcRace] {
        &self.races
    }

    /// Number of (deduplicated) data races detected.
    pub fn data_race_count(&self) -> u64 {
        self.races.len() as u64
    }

    /// `true` iff at least one data race was detected.
    pub fn found_any(&self) -> bool {
        !self.races.is_empty()
    }

    /// The current vector clock of a thread.
    pub fn clock_of(&self, thread: ThreadId) -> &VectorClock {
        &self.vcs[thread.index()]
    }

    /// The figure label of this configuration (`InfCache`,
    /// `L2Cache(VC)`, or `L1Cache(VC)`).
    pub fn label(&self) -> &'static str {
        match self.cfg.capacity {
            CapacityMode::Unlimited => "InfCache",
            CapacityMode::Level(Level::L2) => "L2Cache(VC)",
            CapacityMode::Level(Level::L1) => "L1Cache(VC)",
        }
    }

    fn tracks_level(&self, level: Level) -> bool {
        match self.cfg.capacity {
            CapacityMode::Unlimited => level == Level::L2,
            CapacityMode::Level(l) => level == l,
        }
    }
}

impl cord_core::Detector for VcLimitedDetector {
    fn race_count(&self) -> u64 {
        self.data_race_count()
    }

    fn drain(&mut self) -> cord_core::SinkReport {
        use cord_json::ToJson;
        let mut report = cord_core::SinkReport::new(self.label());
        report.race_count = self.data_race_count();
        report.races = self.races.iter().map(|r| r.to_json()).collect();
        report
    }
}

impl cord_json::ToJson for VcRace {
    fn to_json(&self) -> cord_json::Json {
        cord_json::obj(vec![
            ("thread", cord_json::Json::UInt(u64::from(self.thread.0))),
            ("addr", cord_json::Json::UInt(self.addr.byte())),
            (
                "kind",
                cord_json::Json::Str(cord_obs::kind_name(self.kind).to_string()),
            ),
            (
                "other_core",
                cord_json::Json::UInt(u64::from(self.other_core.0)),
            ),
            ("instr_index", cord_json::Json::UInt(self.instr_index)),
        ])
    }
}

impl MemoryObserver for VcLimitedDetector {
    fn on_access(&mut self, ev: &AccessEvent) -> ObserverOutcome {
        let t = ev.thread.index();
        let my_core = ev.core.index();
        let line = ev.addr.line();
        let word = ev.addr.word_in_line();
        let is_write = ev.kind.is_write();
        let is_sync = ev.kind.is_sync();

        // -- Remote comparisons. The hardware cost model (race-check
        // broadcasts, filters) is evaluated on the CORD detector; here
        // we check remote histories on every access so the comparison
        // isolates the effect of the *clocking scheme and buffering*,
        // which is what §4.3/§4.4 vary.
        // Unlike CORD, the vector-clock configurations join only on
        // actual conflicts and synchronization: exact happens-before
        // needs no conservative response-tag ordering, which is exactly
        // why the paper's VC baseline detects *more* than CORD.
        let mut joins: Vec<VectorClock> = Vec::new();
        let mut found: Vec<(u8, u64)> = Vec::new();
        {
            let my_vc = &self.vcs[t];
            for core in 0..self.hist.len() {
                if core == my_core {
                    continue;
                }
                let Some(h) = self.hist[core].get(line) else {
                    continue;
                };
                for e in h.entries() {
                    let conflict = e.conflicts_with(word, is_write);
                    // A sync read joins every entry of the variable's
                    // line.
                    let sync_order = ev.kind == AccessKind::SyncRead;
                    if (conflict || sync_order) && !e.stamp.le(my_vc) {
                        if conflict && !is_sync {
                            let version = self.stamp_versions[core].get(line).copied().unwrap_or(0);
                            found.push((core as u8, version));
                        }
                        joins.push(e.stamp.clone());
                    }
                }
                if ev.kind == AccessKind::SyncRead {
                    // ...plus any displaced release stamps.
                    if let Some(shed) = self.shed_writes[core].get(line) {
                        if !shed.le(my_vc) {
                            joins.push(shed.clone());
                        }
                    }
                }
            }
        }
        for (core, version) in found {
            let key = (ev.thread.0, ev.addr.byte(), core, version);
            if self.reported.insert(key) {
                self.races.push(VcRace {
                    thread: ev.thread,
                    addr: ev.addr,
                    kind: ev.kind,
                    other_core: CoreId(core),
                    instr_index: ev.instr_index,
                });
            }
        }

        // -- Memory path: the vector analogue of the main-memory
        // timestamps (§2.5). Never reported; joined on memory responses.
        if ev.path.from_memory() {
            let mem = if is_write {
                let mut m = self.mem_write_vc.clone();
                m.join(&self.mem_read_vc);
                m
            } else {
                self.mem_write_vc.clone()
            };
            if !mem.le(&self.vcs[t]) {
                joins.push(mem);
            }
        }

        // -- Clock updates.
        if is_sync || self.cfg.join_on_races {
            for j in &joins {
                self.vcs[t].join(j);
            }
        } else {
            // Only synchronization-induced joins apply.
            for j in &joins {
                if ev.kind == AccessKind::SyncRead {
                    self.vcs[t].join(j);
                }
            }
        }

        // -- Update local history with the (possibly joined) clock. The
        // clock is only cloned when a new stamp entry is actually
        // pushed; repeat accesses under an unchanged clock stay
        // allocation-free.
        let ts_per_line = if self.cfg.ts_per_line == usize::MAX {
            usize::MAX
        } else {
            self.cfg.ts_per_line
        };
        let h = self.hist[my_core].entry_or_default(line);
        let displaced = if h.newest().map(|e| &e.stamp) == Some(&self.vcs[t]) {
            None
        } else {
            h.push_stamp(self.vcs[t].clone(), ts_per_line)
        };
        h.newest_mut().expect("just ensured").set(word, is_write);
        self.core_join[my_core].join(&self.vcs[t]);
        self.next_version += 1;
        self.stamp_versions[my_core].insert(line, self.next_version);
        if let Some(old) = displaced {
            if old.any_read() {
                self.mem_read_vc.join(&old.stamp);
            }
            if old.any_written() {
                self.mem_write_vc.join(&old.stamp);
                match self.shed_writes[my_core].get_mut(line) {
                    Some(vc) => vc.join(&old.stamp),
                    None => {
                        self.shed_writes[my_core].insert(line, old.stamp);
                    }
                }
            }
        }

        // -- Tick after synchronization writes.
        if ev.kind == AccessKind::SyncWrite {
            self.vcs[t].tick(t);
        }

        ObserverOutcome::NONE
    }

    fn on_thread_migrated(
        &mut self,
        thread: cord_trace::types::ThreadId,
        _from: CoreId,
        to: CoreId,
    ) {
        let join = self.core_join[to.index()].clone();
        self.vcs[thread.index()].join(&join);
    }

    fn on_line_filled(&mut self, core: CoreId, level: Level, line: LineAddr) {
        if self.tracks_level(level) && self.cfg.capacity != CapacityMode::Unlimited {
            // Revive-and-reset a parked arena slot rather than allocating
            // a fresh history per fill.
            self.hist[core.index()].entry_or_default(line).reset();
        }
    }

    fn on_line_removed(&mut self, removal: &LineRemoval) -> ObserverOutcome {
        if self.cfg.capacity == CapacityMode::Unlimited || !self.tracks_level(removal.level) {
            return ObserverOutcome::NONE;
        }
        self.shed_writes[removal.core.index()].remove(removal.line);
        let mut drained = std::mem::take(&mut self.fold_scratch);
        drained.clear();
        if let Some(h) = self.hist[removal.core.index()].vacate(removal.line) {
            h.drain_into(&mut drained);
            // Capacity evictions fold into the memory vector timestamps;
            // invalidations are already covered by the requester's
            // response-tag join.
            if removal.cause == cord_sim::observer::RemovalCause::Capacity {
                for e in &drained {
                    if e.any_read() {
                        self.mem_read_vc.join(&e.stamp);
                    }
                    if e.any_written() {
                        self.mem_write_vc.join(&e.stamp);
                    }
                }
            }
        }
        drained.clear();
        self.fold_scratch = drained;
        ObserverOutcome::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cord_sim::config::MachineConfig;
    use cord_sim::engine::{InjectionPlan, Machine};
    use cord_trace::builder::WorkloadBuilder;
    use cord_trace::program::Workload;

    fn run_cfg(
        w: &Workload,
        cfg: VcConfig,
        mc: MachineConfig,
        plan: InjectionPlan,
        seed: u64,
    ) -> VcLimitedDetector {
        let det = VcLimitedDetector::new(cfg, w.num_threads(), mc.cores);
        let m = Machine::new(mc, w, det, seed, plan);
        let (_, det) = m.run().expect("no deadlock");
        det
    }

    fn flag_workload() -> Workload {
        let mut b = WorkloadBuilder::new("flag", 2);
        let g = b.alloc_flag();
        let d = b.alloc_words(1);
        b.thread_mut(0).compute(10_000).write(d.word(0)).flag_set(g);
        b.thread_mut(1).flag_wait(g).read(d.word(0));
        b.build()
    }

    #[test]
    fn synchronized_flag_clean_under_all_capacities() {
        for cfg in [
            VcConfig::inf_cache(),
            VcConfig::l2_cache(),
            VcConfig::l1_cache(),
        ] {
            let mc = if cfg.capacity == CapacityMode::Unlimited {
                MachineConfig::infinite_cache()
            } else {
                MachineConfig::paper_4core()
            };
            let det = run_cfg(&flag_workload(), cfg, mc, InjectionPlan::none(), 1);
            assert!(det.races().is_empty(), "{cfg:?}: {:?}", det.races());
        }
    }

    #[test]
    fn removed_wait_detected_by_inf_cache() {
        let det = run_cfg(
            &flag_workload(),
            VcConfig::inf_cache(),
            MachineConfig::infinite_cache(),
            InjectionPlan::remove_nth(0),
            3,
        );
        assert!(det.found_any());
    }

    #[test]
    fn removed_wait_detected_by_l2_cache() {
        let det = run_cfg(
            &flag_workload(),
            VcConfig::l2_cache(),
            MachineConfig::paper_4core(),
            InjectionPlan::remove_nth(0),
            3,
        );
        assert!(det.found_any());
    }

    #[test]
    fn capacity_pressure_hurts_detection() {
        // A racy pair separated by a large streaming working set: with
        // history limited to the L1 the writer's timestamp is displaced
        // (folded into memory, unreported) before the reader arrives,
        // while InfCache still catches it.
        let mut b = WorkloadBuilder::new("pressure", 2);
        let x = b.alloc_line_aligned(1);
        let filler = b.alloc_line_aligned(8 * 1024);
        b.thread_mut(0).write(x.word(0));
        {
            let tb = &mut b.thread_mut(0);
            for i in 0..512u64 {
                tb.write(filler.word(i * 16));
            }
        }
        b.thread_mut(1).compute(2_000_000).read(x.word(0));
        let w = b.build();
        let inf = run_cfg(
            &w,
            VcConfig::inf_cache(),
            MachineConfig::infinite_cache(),
            InjectionPlan::none(),
            5,
        );
        assert!(inf.found_any(), "InfCache must catch the race");
        let l1 = run_cfg(
            &w,
            VcConfig::l1_cache(),
            MachineConfig::paper_4core(),
            InjectionPlan::none(),
            5,
        );
        assert!(
            !l1.found_any(),
            "L1-limited history loses the displaced timestamp: {:?}",
            l1.races()
        );
    }

    #[test]
    fn join_on_races_suppresses_dependent_races() {
        // Figure 3: after the first race joins the clocks, the second
        // racy pair looks ordered. With join_on_races = false (oracle
        // behaviour) both are found.
        let mut b = WorkloadBuilder::new("fig3", 2);
        let x = b.alloc_line_aligned(1);
        let y = b.alloc_line_aligned(1);
        b.thread_mut(0).write(x.word(0)).write(y.word(0));
        b.thread_mut(1)
            .compute(100_000)
            .read(x.word(0))
            .read(y.word(0));
        let w = b.build();
        let joined = run_cfg(
            &w,
            VcConfig::inf_cache(),
            MachineConfig::infinite_cache(),
            InjectionPlan::none(),
            7,
        );
        let mut no_join_cfg = VcConfig::inf_cache();
        no_join_cfg.join_on_races = false;
        let independent = run_cfg(
            &w,
            no_join_cfg,
            MachineConfig::infinite_cache(),
            InjectionPlan::none(),
            7,
        );
        assert_eq!(joined.data_race_count(), 1);
        assert_eq!(independent.data_race_count(), 2);
    }
}
