//! `tacker-perfbench --workload grid|colocate|fleet [--seed N]
//! [--seconds S] [--trace 0|1]`
//!
//! Prints provenance, digests and every metric with its unit; the last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`).

use tacker_perfbench::common::{own_setup, Args, Workload, USAGE};
use tacker_perfbench::host::{self, Pacer};
use tacker_perfbench::{colocate, fleet, grid};

fn run(args: &Args, pacer: &Pacer) -> Result<(), String> {
    if args.setup_only {
        match args.workload {
            Workload::Grid => grid::setup(args).map(drop),
            Workload::Colocate => colocate::setup(args).map(drop),
            Workload::Fleet => fleet::setup(args).map(drop),
        }?;
        println!("setup_s {:?}", own_setup(pacer));
        return Ok(());
    }
    match (args.workload, args.trace) {
        (Workload::Grid, false) => grid::run(args, pacer),
        (Workload::Grid, true) => grid::run_traced(args),
        (Workload::Colocate, false) => colocate::run(args, pacer),
        (Workload::Colocate, true) => colocate::run_traced(args),
        (Workload::Fleet, false) => fleet::run(args, pacer),
        (Workload::Fleet, true) => fleet::run_traced(args),
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // A serial workload runs pinned to one CPU, and the pacer probes that
    // CPU; a parallel one may use every CPU, and the pacer probes each in
    // turn. Started before set-up, so set-up is timed from here.
    let mut cpus = host::allowed_cpus();
    if args.workload.serial() && host::pin_to(cpus[0]) {
        cpus.truncate(1);
    }
    let pacer = Pacer::start(cpus);
    let result = run(&args, &pacer);
    drop(pacer);
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
