//! What one invocation reports: operations attempted and failed,
//! named metrics with units, and the results digest.

use cord_json::{obj, Json};
use std::collections::BTreeMap;

/// Operations attempted and failed. Every timed cell or session and
/// every correctness check is one operation.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; `ok == false` counts it failed, with the
    /// reason `why` produces.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(why());
        }
    }

    /// Folds `other` in.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// Named metrics, each a value with its unit.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Sets `name` to `value` in `unit`. Non-finite values (a ratio
    /// over an empty denominator) are recorded as 0.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let v = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name.into(), (v, unit));
    }
}

/// The full result of one invocation.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations and failures.
    pub tally: Tally,
    /// The metrics this mode reports.
    pub metrics: Metrics,
    /// The results digest and every simulated statistic: identical
    /// for every run with one seed.
    pub digest: Vec<(String, Json)>,
    /// Sample counts behind the timings (these vary run to run).
    pub samples: Vec<(String, Json)>,
}

impl Outcome {
    /// `true` when no operation failed.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// The digest line: `{"digest": {...}}`.
    pub fn digest_line(&self) -> String {
        Self::line("digest", &self.digest)
    }

    /// The sample-count line: `{"samples": {...}}`.
    pub fn samples_line(&self) -> String {
        Self::line("samples", &self.samples)
    }

    fn line(key: &str, fields: &[(String, Json)]) -> String {
        obj(vec![(key, Json::Object(fields.to_vec()))]).to_string_compact()
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = Json::Object(
            self.metrics
                .0
                .iter()
                .map(|(k, &(v, unit))| {
                    (
                        k.clone(),
                        obj(vec![
                            ("value", Json::Float(v)),
                            ("unit", Json::Str(unit.into())),
                        ]),
                    )
                })
                .collect(),
        );
        obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::UInt(self.tally.attempted)),
            ("failed", Json::UInt(self.tally.failed)),
            ("metrics", metrics),
        ])
        .to_string_compact()
    }
}

/// 64-bit FNV-1a over `bytes`, the digest of a results document.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
