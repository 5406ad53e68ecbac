//! Correctness checks. Each one counts as an operation in the
//! [`Tally`]; a wrong output counts as a failed one.

use crate::report::Tally;
use cord_bench::sweep::{RunStatus, SweepResults};

/// A replayed or daemon report must be byte-identical to the inline
/// report of the same run.
pub fn same_report(tally: &mut Tally, what: &str, inline: &[u8], got: &[u8]) {
    tally.op(inline == got, || {
        format!(
            "{what}: report differs from inline detection ({} vs {} bytes)",
            got.len(),
            inline.len()
        )
    });
}

/// CORD-D16 must never report a race on a run where Ideal, judging
/// the same execution, reports none: CORD has no false positives.
/// `cord` is CORD-D16's race count on a run and `ideal` the Ideal
/// oracle's on CORD-D16's captured stream of that run.
///
/// The two must judge one stream. In the sweep, Ideal simulates its
/// own run on the infinite-cache machine, and an injected removal can
/// interleave differently there; a race CORD then catches that Ideal's
/// run never exhibits is a real race, not a false positive (see
/// [`cross_run_cord_only`]).
pub fn no_cord_only_race(tally: &mut Tally, what: &str, cord: u64, ideal: u64) {
    tally.op(cord == 0 || ideal > 0, || {
        format!("{what}: CORD-D16 reports {cord} races, Ideal none on the same stream")
    });
}

/// Completed sweep runs where CORD-D16 found races and Ideal, in its
/// own simulated run, found none — reported, not failed.
pub fn cross_run_cord_only(results: &SweepResults) -> u64 {
    results
        .apps
        .iter()
        .flat_map(|a| a.completed())
        .filter(|r| {
            r.detections.get("CORD-D16").is_some_and(|d| d.races > 0)
                && r.ideal.is_some_and(|d| d.races == 0)
        })
        .count() as u64
}

/// A run that panicked is a failed operation. A deadlock or watchdog
/// timeout under injection is a model outcome and counts as done.
pub fn no_panicked_runs(tally: &mut Tally, results: &SweepResults) {
    for app in &results.apps {
        tally.op(app.dry_run_error.is_none(), || {
            format!("{}: dry run failed", app.app)
        });
        for run in &app.runs {
            let ok = !matches!(
                run.status,
                RunStatus::Panicked { .. } | RunStatus::Abandoned { .. }
            );
            tally.op(ok, || {
                format!(
                    "{} {}: run ended {}",
                    app.app,
                    run.target,
                    run.status.kind()
                )
            });
        }
    }
}
