//! Clock calibration, batch spans, and order statistics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The cost of one `Instant::now()` read, in nanoseconds: the median
/// over batches of back-to-back reads of each batch's time per read.
pub fn calibrate_clock_ns() -> f64 {
    const READS: u32 = 1_000;
    let mut per_read: Vec<f64> = (0..201)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(Instant::now());
            }
            t.elapsed().as_nanos() as f64 / f64::from(READS)
        })
        .collect();
    median(&mut per_read)
}

/// Accumulated durations of named spans. A span times one batch of
/// calls into a layer — a whole simulation, a whole stream replay —
/// never a single event, so the clock read amortises.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    map: BTreeMap<String, (Duration, u64)>,
}

impl Spans {
    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, t.elapsed());
        out
    }

    /// Adds one span of length `d`.
    pub fn add(&mut self, name: &str, d: Duration) {
        let e = self.map.entry(name.to_string()).or_default();
        e.0 += d;
        e.1 += 1;
    }

    /// Folds `other` in.
    pub fn merge(&mut self, other: &Spans) {
        for (k, &(d, n)) in &other.map {
            let e = self.map.entry(k.clone()).or_default();
            e.0 += d;
            e.1 += n;
        }
    }

    /// Total seconds under `name` (0 when never recorded).
    pub fn secs(&self, name: &str) -> f64 {
        self.map.get(name).map_or(0.0, |e| e.0.as_secs_f64())
    }

    /// Total seconds over every span whose name starts with `prefix`.
    pub fn secs_prefixed(&self, prefix: &str) -> f64 {
        self.map
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, e)| e.0.as_secs_f64())
            .sum()
    }

    /// Spans recorded, over every name.
    pub fn count(&self) -> u64 {
        self.map.values().map(|e| e.1).sum()
    }

    /// Total seconds over every name.
    pub fn total_secs(&self) -> f64 {
        self.map.values().map(|e| e.0.as_secs_f64()).sum()
    }
}

/// The median of `v` (sorted in place); 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v` (sorted in place); 0 for an
/// empty slice.
fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The process's resident-set high-water mark in MiB (`VmHWM`), or
/// `None` where `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Cumulative `(steal, total)` CPU ticks of this machine from
/// `/proc/stat`. Steal is time a hypervisor ran something else while
/// these CPUs wanted to run.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .take(8)
        .map(|t| t.parse().unwrap_or(0))
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Share of CPU time stolen by the hypervisor while it runs: explains
/// timing drift on a shared virtual machine.
#[derive(Debug, Clone, Copy)]
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    /// Starts measuring.
    pub fn start() -> StealMeter {
        StealMeter(cpu_ticks())
    }

    /// Percent of CPU ticks stolen since [`StealMeter::start`] (0 where
    /// `/proc/stat` is unavailable).
    pub fn pct(&self) -> f64 {
        match (self.0, cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }
}
