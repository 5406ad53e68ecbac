//! `shard` — crash-resilient multi-process campaign driver.
//!
//! ```text
//! shard fuzz   --dir DIR [--seed N] [--count N] [--mode mixed|race-free]
//!              [--short] [--no-inject] [--no-rerun] [--corpus]
//!              [--shards K] [--worker-jobs J] [supervision flags]
//! shard sweep  --dir DIR [--apps a,b,c] [--injections N]
//!              [--scale tiny|small|paper] [--threads T] [--seed N]
//!              [--shards K] [--worker-jobs J] [supervision flags]
//! shard resume --dir DIR [supervision flags]
//! shard worker --dir DIR --shard S        (internal: spawned by the coordinator)
//! shard status --dir DIR
//! ```
//!
//! Supervision flags (never affect merged output bytes):
//! `--workers N`, `--max-retries N`, `--heartbeat-timeout-ms MS`,
//! `--poll-ms MS`, `--chaos kill-rate=P[,budget=B][,seed=S]`.
//!
//! Exit codes: 0 complete and clean; 1 complete but the campaign found
//! failures; 2 shards abandoned (merged output partial; resumable);
//! 4 drained via the `DRAIN` marker (resumable).

use cord_bench::parse_flag;
use cord_bench::shard::{
    coordinate, status_summary, worker_main, CampaignDir, CampaignSpec, CoordinatorOptions,
    FuzzSpec, SweepSpec,
};
use cord_bench::sweep::{ScaleClassOpt, SweepOptions};
use cord_fuzz::GenMode;
use cord_shard::parse_chaos_spec;
use cord_workloads::all_apps;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: shard <fuzz|sweep|resume|worker|status> --dir DIR [options]\n\
         run `shard fuzz --dir d` or `shard sweep --dir d` to start a campaign;\n\
         re-run the same command (or `shard resume --dir d`) to resume it."
    );
    std::process::exit(64);
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    parse_flag(flag, v).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(64);
    })
}

struct Cli {
    dir: Option<PathBuf>,
    shard: Option<usize>,
    shards: usize,
    worker_jobs: usize,
    coord: CoordinatorOptions,
    // fuzz
    seed: u64,
    count: usize,
    mode: GenMode,
    short: bool,
    inject: bool,
    rerun: bool,
    corpus: bool,
    // sweep
    apps: Option<Vec<String>>,
    injections: usize,
    scale: ScaleClassOpt,
    threads: usize,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            dir: None,
            shard: None,
            shards: 4,
            worker_jobs: 1,
            coord: CoordinatorOptions::default(),
            seed: 1,
            count: 200,
            mode: GenMode::Mixed,
            short: false,
            inject: true,
            rerun: true,
            corpus: false,
            apps: None,
            injections: 2,
            scale: ScaleClassOpt::Tiny,
            threads: 4,
        }
    }
}

fn parse_cli(args: impl Iterator<Item = String>) -> Cli {
    let mut cli = Cli::default();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dir" => cli.dir = Some(PathBuf::from(parse_num::<String>("--dir", args.next()))),
            "--shard" => cli.shard = Some(parse_num("--shard", args.next())),
            "--shards" => cli.shards = parse_num("--shards", args.next()),
            "--workers" => cli.coord.max_workers = Some(parse_num("--workers", args.next())),
            "--worker-jobs" => cli.worker_jobs = parse_num("--worker-jobs", args.next()),
            "--max-retries" => cli.coord.max_retries = parse_num("--max-retries", args.next()),
            "--heartbeat-timeout-ms" => {
                cli.coord.heartbeat_timeout =
                    Duration::from_millis(parse_num("--heartbeat-timeout-ms", args.next()));
            }
            "--poll-ms" => {
                cli.coord.poll_interval =
                    Duration::from_millis(parse_num("--poll-ms", args.next()));
            }
            "--chaos" => {
                let spec: String = parse_num("--chaos", args.next());
                match parse_chaos_spec(&spec) {
                    Ok(c) => cli.coord.chaos = Some(c),
                    Err(e) => {
                        eprintln!("error: --chaos {spec:?}: {e}");
                        std::process::exit(64);
                    }
                }
            }
            "--seed" => cli.seed = parse_num("--seed", args.next()),
            "--count" => cli.count = parse_num("--count", args.next()),
            "--mode" => {
                let name: String = parse_num("--mode", args.next());
                match GenMode::parse(&name) {
                    Some(m) => cli.mode = m,
                    None => {
                        eprintln!("error: unknown mode {name:?} (mixed, race-free)");
                        std::process::exit(64);
                    }
                }
            }
            "--short" => cli.short = true,
            "--no-inject" => cli.inject = false,
            "--no-rerun" => cli.rerun = false,
            "--corpus" => cli.corpus = true,
            "--apps" => {
                let list: String = parse_num("--apps", args.next());
                cli.apps = Some(list.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--injections" => cli.injections = parse_num("--injections", args.next()),
            "--scale" => {
                let name: String = parse_num("--scale", args.next());
                match ScaleClassOpt::from_name(&name) {
                    Some(s) => cli.scale = s,
                    None => {
                        eprintln!("error: unknown scale {name:?} (tiny, small, paper)");
                        std::process::exit(64);
                    }
                }
            }
            "--threads" => cli.threads = parse_num("--threads", args.next()),
            other => {
                eprintln!("error: unknown flag {other:?}");
                usage();
            }
        }
    }
    cli
}

fn require_dir(cli: &Cli) -> CampaignDir {
    match &cli.dir {
        Some(d) => CampaignDir::new(d.clone()),
        None => {
            eprintln!("error: --dir is required");
            usage();
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else { usage() };
    let cli = parse_cli(args);
    let dir = require_dir(&cli);

    let spec = match cmd.as_str() {
        "fuzz" => Some(CampaignSpec::Fuzz(FuzzSpec {
            seed: cli.seed,
            count: cli.count,
            mode: cli.mode,
            short: cli.short,
            inject: cli.inject,
            rerun: cli.rerun,
            corpus: cli.corpus,
            shards: cli.shards,
            worker_jobs: cli.worker_jobs,
        })),
        "sweep" => {
            let apps = match &cli.apps {
                None => all_apps().to_vec(),
                Some(names) => {
                    let mut apps = Vec::new();
                    for name in names {
                        match all_apps().into_iter().find(|a| a.name() == name) {
                            Some(a) => apps.push(a),
                            None => {
                                eprintln!("error: unknown app {name:?}");
                                std::process::exit(64);
                            }
                        }
                    }
                    apps
                }
            };
            Some(CampaignSpec::Sweep(SweepSpec {
                opts: SweepOptions {
                    injections_per_app: cli.injections,
                    scale: cli.scale,
                    threads: cli.threads,
                    seed: cli.seed,
                    ..SweepOptions::default()
                },
                apps,
                shards: cli.shards,
                worker_jobs: cli.worker_jobs,
            }))
        }
        "resume" => None,
        "worker" => {
            let Some(shard) = cli.shard else {
                eprintln!("error: worker needs --shard");
                usage();
            };
            return match worker_main(&dir, shard) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("worker shard {shard} failed: {e}");
                    ExitCode::from(3)
                }
            };
        }
        "status" => {
            return match status_summary(&dir) {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => usage(),
    };

    match coordinate(&dir, spec, &cli.coord) {
        Ok(outcome) => {
            if outcome.drained {
                eprintln!("campaign drained (exit 4)");
            } else if outcome.abandoned.is_empty() {
                eprintln!(
                    "campaign complete: merged outputs in {}",
                    dir.root().join("merged").display()
                );
            } else {
                eprintln!(
                    "campaign complete with abandoned shards {:?}: merged outputs are partial",
                    outcome.abandoned
                );
            }
            ExitCode::from(outcome.exit_code.clamp(0, 255) as u8)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
