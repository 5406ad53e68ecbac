//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints the sample counts and the results digest, then as the last
//! line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits 1 when a
//! correctness check failed, 2 on bad arguments.

use cord_perfbench::spec::Spec;
use std::process::ExitCode;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("{flag} is required"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let spec = Spec::named(name).ok_or(format!(
        "unknown workload {name:?}; expected one of {:?}",
        Spec::names()
    ))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    let traced = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        spec,
        seed,
        seconds,
        traced,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let out = cord_perfbench::run(&args.spec, args.seed, args.seconds, args.traced);
    for f in out.tally.failures.iter().take(20) {
        eprintln!("perfbench: FAILED {f}");
    }
    if !out.samples.is_empty() {
        println!("{}", out.samples_line());
    }
    if !out.digest.is_empty() {
        println!("{}", out.digest_line());
    }
    println!("{}", out.result_line());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
