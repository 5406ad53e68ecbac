//! Race hunt: inject a missing-synchronization bug into a Splash-2-style
//! kernel (the paper's §3.4 methodology) and watch CORD and the Ideal
//! oracle find it.
//!
//! ```text
//! cargo run --release --example race_hunt [app] [injections]
//! ```

use cord::inject::Campaign;
use cord::prelude::*;
use cord::stream::{DetectorConfig, ObsCtx};
use cord::workloads::{all_apps, kernel, AppKind, ScaleClass};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let app_name = args.get(1).map(String::as_str).unwrap_or("barnes");
    let injections: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(12);
    let app = all_apps()
        .into_iter()
        .find(|a| a.name() == app_name)
        .unwrap_or(AppKind::Barnes);

    let workload = kernel(app, ScaleClass::Small, 4, 42);
    let machine = MachineConfig::paper_4core();
    let campaign = Campaign::plan(&machine, &workload, injections, 7).expect("dry run completes");
    println!(
        "{}: {} removable sync instances, removing {} of them one run at a time",
        workload.name(),
        campaign.counts.acquires,
        campaign.len()
    );
    println!(
        "{:>12} {:>12} {:>12} {:>10}",
        "target", "ideal races", "cord races", "verdict"
    );

    let mut manifested = 0;
    let mut detected = 0;
    for (i, target) in campaign.targets.iter().enumerate() {
        let plan = target.plan();
        let seed = 1000 + i as u64;

        // Detectors are built from a config and observe the machine
        // directly; a capture replay or the cord-serve daemon drives the
        // same callbacks from a recorded stream.
        let ideal_machine = MachineConfig::infinite_cache();
        let det =
            DetectorConfig::Ideal.build_sink(4, ideal_machine.cores, seed, ObsCtx::disabled());
        let m = Machine::new(ideal_machine, &workload, det, seed, plan);
        let (_, mut det) = m.run().expect("run ok");
        let ideal = det.drain();

        let det =
            DetectorConfig::Cord { d: 16 }.build_sink(4, machine.cores, seed, ObsCtx::disabled());
        let m = Machine::new(machine.clone(), &workload, det, seed, plan);
        let (_, mut det) = m.run().expect("run ok");
        let cord = det.drain();

        let verdict = match (ideal.race_count > 0, cord.race_count > 0) {
            (true, true) => "CAUGHT",
            (true, false) => "missed",
            (false, false) => "benign",
            (false, true) => "caught*", // different interleaving (§4.2)
        };
        if ideal.race_count > 0 {
            manifested += 1;
        }
        if cord.race_count > 0 {
            detected += 1;
        }
        println!(
            "{:>12} {:>12} {:>12} {:>10}",
            target.to_string(),
            ideal.race_count,
            cord.race_count,
            verdict
        );
    }
    println!(
        "\n{manifested}/{} injections manifested a data race (per Ideal); CORD flagged {detected}",
        campaign.len()
    );
    if manifested > 0 {
        println!(
            "problem detection rate: {:.0}% (paper average: 77%)",
            100.0 * detected as f64 / manifested as f64
        );
    }
}
