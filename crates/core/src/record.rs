//! The order-recording log (§2.7.1).
//!
//! "When a thread's clock changes, it appends to the log an entry that
//! contains the previous clock value, the thread ID and the number of
//! instructions executed with that clock value. We use 16-bit thread IDs
//! and clock values and 32-bit instruction counts, for a total of eight
//! bytes per log entry."
//!
//! The recorder tracks, per thread, the instruction index at which the
//! current clock value took effect; every clock change (race-outcome
//! update, sync-read `+D` jump, post-sync-write increment, migration
//! bump) closes the current segment. A final flush at run end closes
//! each thread's last segment so the log covers the entire execution.
//! Segments longer than `u32::MAX` instructions are split by forced
//! clock increments, exactly as the paper prevents instruction-count
//! overflow.

use cord_clocks::scalar::ScalarTime;
use cord_trace::types::ThreadId;

/// Hardware size of one log entry in bytes (16-bit clock + 16-bit thread
/// ID + 32-bit instruction count).
pub const LOG_ENTRY_BYTES: u64 = 8;

/// One log entry: `thread` executed `instructions` instructions while its
/// clock held `clock`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEntry {
    /// The clock value of this execution segment.
    pub clock: ScalarTime,
    /// The thread the segment belongs to.
    pub thread: ThreadId,
    /// Instructions retired during the segment (fits the hardware's
    /// 32-bit field by construction).
    pub instructions: u64,
}

#[derive(Debug, Clone, Copy)]
struct ThreadRec {
    segment_start: u64,
    clock: ScalarTime,
}

/// Accumulates the execution-order log during a run.
#[derive(Debug, Clone)]
pub struct OrderRecorder {
    threads: Vec<ThreadRec>,
    entries: Vec<LogEntry>,
    forced_increments: u64,
    flushed: bool,
}

impl OrderRecorder {
    /// A recorder for `num_threads` threads, all starting at clock 0 and
    /// instruction 0.
    pub fn new(num_threads: usize) -> Self {
        Self::starting_at(num_threads, ScalarTime::ZERO)
    }

    /// A recorder whose threads start at `initial` (the CORD detector
    /// starts clocks at 1 so untouched state — timestamp 0 — never
    /// compares as a race).
    pub fn starting_at(num_threads: usize, initial: ScalarTime) -> Self {
        OrderRecorder {
            threads: vec![
                ThreadRec {
                    segment_start: 0,
                    clock: initial,
                };
                num_threads
            ],
            entries: Vec::new(),
            forced_increments: 0,
            flushed: false,
        }
    }

    /// Records that `thread`'s clock changes to `new_clock` effective at
    /// instruction index `at_instr` (the old clock covered instructions
    /// `[segment_start, at_instr)`).
    ///
    /// # Panics
    ///
    /// Panics if the clock does not advance or `at_instr` precedes the
    /// current segment start.
    pub fn record_change(&mut self, thread: ThreadId, new_clock: ScalarTime, at_instr: u64) {
        let rec = &mut self.threads[thread.index()];
        assert!(
            new_clock > rec.clock,
            "{thread} clock must advance ({} -> {})",
            rec.clock,
            new_clock
        );
        assert!(
            at_instr >= rec.segment_start,
            "{thread} segment boundary {at_instr} before start {}",
            rec.segment_start
        );
        let mut remaining = at_instr - rec.segment_start;
        let mut clock = rec.clock;
        // Split overlong segments with forced increments (§2.7.1).
        while remaining > u64::from(u32::MAX) {
            self.entries.push(LogEntry {
                clock,
                thread,
                instructions: u64::from(u32::MAX),
            });
            remaining -= u64::from(u32::MAX);
            clock = clock.succ();
            self.forced_increments += 1;
        }
        self.entries.push(LogEntry {
            clock,
            thread,
            instructions: remaining,
        });
        rec.segment_start = at_instr;
        rec.clock = new_clock;
    }

    /// Closes every thread's final segment; `final_instrs[t]` is thread
    /// `t`'s total retired instruction count.
    ///
    /// # Panics
    ///
    /// Panics if called twice or if a final count precedes a segment
    /// start.
    pub fn flush(&mut self, final_instrs: &[u64]) {
        assert!(!self.flushed, "order log flushed twice");
        self.flushed = true;
        for (t, &total) in final_instrs.iter().enumerate() {
            let rec = self.threads[t];
            assert!(total >= rec.segment_start);
            let thread = ThreadId(t as u16);
            self.entries.push(LogEntry {
                clock: rec.clock,
                thread,
                instructions: total - rec.segment_start,
            });
        }
    }

    /// All entries, in append order.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Log size in bytes at the hardware encoding.
    pub fn bytes(&self) -> u64 {
        self.entries.len() as u64 * LOG_ENTRY_BYTES
    }

    /// Forced clock increments due to instruction-count overflow (zero in
    /// realistic runs).
    pub fn forced_increments(&self) -> u64 {
        self.forced_increments
    }

    /// `true` once [`OrderRecorder::flush`] has run.
    pub fn is_flushed(&self) -> bool {
        self.flushed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u16) -> ThreadId {
        ThreadId(i)
    }

    fn ts(n: u64) -> ScalarTime {
        ScalarTime::new(n)
    }

    #[test]
    fn segments_cover_the_execution() {
        let mut r = OrderRecorder::new(2);
        r.record_change(t(0), ts(3), 100); // clock 0 for instrs [0,100)
        r.record_change(t(0), ts(4), 250); // clock 3 for [100,250)
        r.flush(&[400, 50]);
        let e = r.entries();
        assert_eq!(e.len(), 4);
        assert_eq!(
            (e[0].clock, e[0].instructions, e[0].thread),
            (ts(0), 100, t(0))
        );
        assert_eq!((e[1].clock, e[1].instructions), (ts(3), 150));
        // Flush entries: t0 with clock 4 for [250,400), t1 clock 0 for 50.
        assert_eq!(
            (e[2].clock, e[2].instructions, e[2].thread),
            (ts(4), 150, t(0))
        );
        assert_eq!(
            (e[3].clock, e[3].instructions, e[3].thread),
            (ts(0), 50, t(1))
        );
        // Total instructions match.
        let total: u64 = e.iter().map(|e| e.instructions).sum();
        assert_eq!(total, 450);
        assert_eq!(r.bytes(), 32);
    }

    #[test]
    fn zero_length_segments_are_legal() {
        // Two clock changes at the same instruction (e.g. a race update
        // followed by a post-sync-write increment).
        let mut r = OrderRecorder::new(1);
        r.record_change(t(0), ts(5), 10);
        r.record_change(t(0), ts(6), 10);
        assert_eq!(r.entries()[1].instructions, 0);
    }

    #[test]
    #[should_panic(expected = "must advance")]
    fn non_advancing_clock_rejected() {
        let mut r = OrderRecorder::new(1);
        r.record_change(t(0), ts(0), 10);
    }

    #[test]
    fn overflow_splits_with_forced_increments() {
        let mut r = OrderRecorder::new(1);
        let huge = u64::from(u32::MAX) * 2 + 5;
        r.record_change(t(0), ts(100), huge);
        let e = r.entries();
        assert_eq!(e.len(), 3);
        assert_eq!(e[0].instructions, u64::from(u32::MAX));
        assert_eq!(e[0].clock, ts(0));
        assert_eq!(e[1].instructions, u64::from(u32::MAX));
        assert_eq!(e[1].clock, ts(1)); // forced increment
        assert_eq!(e[2].instructions, 5);
        assert_eq!(e[2].clock, ts(2));
        assert_eq!(r.forced_increments(), 2);
        // All entries fit the 32-bit hardware field.
        assert!(e.iter().all(|e| e.instructions <= u64::from(u32::MAX)));
    }

    #[test]
    #[should_panic(expected = "flushed twice")]
    fn double_flush_rejected() {
        let mut r = OrderRecorder::new(1);
        r.flush(&[0]);
        r.flush(&[0]);
    }
}
