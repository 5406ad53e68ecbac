//! Command-line driver for differential fuzz campaigns (`cord-fuzz`).
//!
//! ```text
//! cargo run --release -p cord-bench --bin fuzz -- --seed 1 --count 200
//! cargo run --release -p cord-bench --bin fuzz -- --mode race-free --jobs 8
//! cargo run --release -p cord-bench --bin fuzz -- --corpus-dir fuzz-corpus
//! cargo run --release -p cord-bench --bin fuzz -- replay crates/fuzz/corpus
//! ```
//!
//! Default command runs a campaign: `--seed S` (master seed), `--count
//! N` (cases), `--jobs N` (worker threads; the report is bit-identical
//! for every value), `--mode mixed|race-free`, `--corpus-dir DIR`
//! (write shrunk reproducers for failing cases), `--budget-secs N`
//! (wall-clock safety valve; when it fires the report says so),
//! `--no-inject` / `--no-rerun` (trim the battery), `--lockfree`
//! (restrict generation to the atomic/CAS-loop sync vocabulary so
//! the campaign exercises lock-free topologies only). The `replay DIR`
//! subcommand loads every reproducer in DIR and re-runs the full
//! oracle battery on each.
//!
//! The report goes to stdout and is deterministic; progress chatter
//! goes to stderr. Exit status is non-zero when any oracle invariant
//! failed.

use cord_bench::parse_flag;
use cord_fuzz::campaign::{run_campaign, CampaignConfig, GenMode};
use cord_fuzz::corpus;
use cord_fuzz::gen::GenConfig;
use cord_fuzz::oracle::OracleOptions;
use std::error::Error;
use std::path::PathBuf;

struct Args {
    command: String,
    replay_dir: Option<String>,
    seed: u64,
    count: usize,
    jobs: usize,
    mode: GenMode,
    corpus_dir: Option<String>,
    budget_secs: Option<u64>,
    inject: bool,
    rerun: bool,
    lockfree: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: "campaign".to_string(),
        replay_dir: None,
        seed: 1,
        count: 200,
        jobs: cord_pool::Pool::available_parallelism(),
        mode: GenMode::Mixed,
        corpus_dir: None,
        budget_secs: None,
        inject: true,
        rerun: true,
        lockfree: false,
    };
    let mut it = std::env::args().skip(1);
    let mut first = true;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => args.seed = parse_flag("--seed", it.next())?,
            "--count" => args.count = parse_flag("--count", it.next())?,
            "--jobs" => {
                args.jobs = parse_flag("--jobs", it.next())?;
                if args.jobs == 0 {
                    return Err("--jobs needs a positive number".into());
                }
            }
            "--mode" => {
                let m = it.next().ok_or("--mode needs mixed|race-free")?;
                args.mode = GenMode::parse(&m).ok_or(format!("unknown mode {m:?}"))?;
            }
            "--corpus-dir" => {
                args.corpus_dir = Some(it.next().ok_or("--corpus-dir needs a path")?);
            }
            "--budget-secs" => args.budget_secs = Some(parse_flag("--budget-secs", it.next())?),
            "--no-inject" => args.inject = false,
            "--no-rerun" => args.rerun = false,
            "--lockfree" => args.lockfree = true,
            other if first && !other.starts_with("--") => {
                args.command = other.to_string();
                if args.command == "replay" {
                    args.replay_dir = Some(it.next().ok_or("replay needs a directory")?);
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        first = false;
    }
    Ok(args)
}

fn campaign(args: &Args) -> Result<i32, Box<dyn Error>> {
    let mut oracle = OracleOptions::default();
    if !args.inject {
        oracle.max_injections = 0;
    }
    if !args.rerun {
        oracle.check_rerun = false;
    }
    let cfg = CampaignConfig {
        master_seed: args.seed,
        count: args.count,
        jobs: args.jobs,
        mode: args.mode,
        gen: GenConfig {
            lockfree: args.lockfree,
            ..GenConfig::default()
        },
        oracle,
        corpus_dir: args.corpus_dir.clone().map(PathBuf::from),
        budget_secs: args.budget_secs,
        ..CampaignConfig::default()
    };
    eprintln!(
        "fuzzing: {} cases, mode {}, {} jobs, master seed {:#x}",
        cfg.count,
        cfg.mode.name(),
        cfg.jobs,
        cfg.master_seed
    );
    let report = run_campaign(&cfg, |done, total| {
        eprintln!("  {done}/{total} cases");
    });
    print!("{}", report.render());
    Ok(if report.failures() == 0 { 0 } else { 1 })
}

fn replay(dir: &str) -> Result<i32, Box<dyn Error>> {
    let entries = corpus::load_dir(std::path::Path::new(dir))?;
    eprintln!("replaying {} reproducers from {dir}", entries.len());
    let opts = OracleOptions::default();
    let mut failures = 0usize;
    for (path, rep) in &entries {
        let report = corpus::replay(rep, &opts);
        let name = path
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        if report.passed() {
            println!(
                "PASS {name} (events {}, truth races {})",
                report.events, report.truth_races
            );
        } else {
            failures += 1;
            println!("FAIL {name}");
            for v in &report.violations {
                println!("  {v}");
            }
        }
    }
    println!("replay: {} reproducers, {failures} failures", entries.len());
    Ok(if failures == 0 { 0 } else { 1 })
}

fn main() -> Result<(), Box<dyn Error>> {
    let args = parse_args().map_err(|e| format!("{e} (see the doc comment atop fuzz.rs)"))?;
    let code = match args.command.as_str() {
        "campaign" => campaign(&args)?,
        "replay" => {
            let dir = args
                .replay_dir
                .as_deref()
                .ok_or("replay needs a directory")?;
            replay(dir)?
        }
        other => return Err(format!("unknown command {other:?}").into()),
    };
    std::process::exit(code);
}
