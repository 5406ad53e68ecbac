//! The repository benchmark: named workloads driven through the
//! crates' public APIs, end-to-end metrics from untraced runs, and a
//! per-layer split from a separate traced run. See `README.md` beside
//! this crate for the workloads, metrics and the traced-run recipe.

#![warn(missing_docs)]

pub mod cells;
pub mod checks;
pub mod model;
pub mod report;
pub mod serve;
pub mod spec;
pub mod sweep;
pub mod timing;

pub use sweep::run;
