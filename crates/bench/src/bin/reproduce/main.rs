//! Regenerates the paper's tables and figures:
//!
//! ```sh
//! cargo run --release -p tacker-bench --bin reproduce -- [--out DIR] [NAME...]
//! ```
//!
//! Each figure renders its body from one shared [`Ctx`] and is written to
//! `DIR/<name>.txt` (default `results/`); with no names, every figure in
//! [`FIGURES`] is written. Worker threads come from `TACKER_JOBS` (`0` or
//! unset = every core), and every body but `overheads` (host times) is
//! identical at any jobs count.
//!
//! One process is what lets the figures share work: Figs. 14, 16 and 19
//! are views of one co-location grid per GPU (§VIII), so the 2080Ti grid
//! runs once and all three read it.

mod colocation;
mod design;
mod motivation;
mod platform;
mod predictor;

use std::fmt;
use std::sync::{Arc, OnceLock};

use tacker::prelude::*;
use tacker_fuser::FusedKernel;
use tacker_sim::{Device, ExecutablePlan};
use tacker_workloads::dnn::DnnModel;
use tacker_workloads::{BeApp, LcService, WorkloadKernel};

const USAGE: &str = "usage: reproduce [--out DIR] [NAME...]";

/// A figure: renders its body into the string.
type Figure = fn(&Ctx, &mut String) -> fmt::Result;

/// Every figure by name, in the order a full run writes them. Each name
/// is the stem of a committed `results/<name>.txt`.
const FIGURES: [(&str, Figure); 21] = [
    ("table1", motivation::table1),
    ("table2", platform::table2),
    ("table3", platform::table3),
    ("fig01", motivation::fig01),
    ("fig02", motivation::fig02),
    ("fig03", motivation::fig03),
    ("fig10", predictor::fig10),
    ("fig11", predictor::fig11),
    ("fig14", colocation::fig14),
    ("fig15", colocation::fig15),
    ("fig16", colocation::fig16),
    ("fig17", predictor::fig17),
    ("fig18", predictor::fig18),
    ("fig19", colocation::fig19),
    ("fig20", design::fig20),
    ("fig21", platform::fig21),
    ("fig22", platform::fig22),
    ("fig_batch", colocation::fig_batch),
    ("multi_lc", colocation::multi_lc),
    ("overheads", design::overheads),
    ("ablation", design::ablation),
];

/// One row of an improvement sweep: `(lc, be, improvement %, baymax
/// report, tacker report)`.
type SweepRow = (String, String, f64, RunReport, RunReport);

/// What the figures share.
struct Ctx {
    /// The main GPU (Table II).
    rtx: Arc<Device>,
    /// The alternative GPU (Fig. 19).
    v100: Arc<Device>,
    /// The evaluation configuration.
    config: ExperimentConfig,
    /// The Table II LC services, compiled on the 2080Ti.
    lcs: Vec<LcService>,
    /// The BE applications.
    bes: Vec<BeApp>,
    /// Worker threads for every parallel part.
    jobs: usize,
    /// The 2080Ti improvement sweep over `lcs` × `bes`, run on first use.
    rtx_sweep: OnceLock<Vec<SweepRow>>,
}

impl Ctx {
    fn new() -> Self {
        let rtx = tacker_bench::rtx2080ti();
        Ctx {
            lcs: DnnModel::ALL.iter().map(|m| m.lc_service(&rtx)).collect(),
            bes: tacker_workloads::be_apps(),
            v100: Arc::new(Device::new(GpuSpec::v100())),
            config: tacker_bench::eval_config(),
            // An unparseable `TACKER_JOBS` means every core.
            jobs: tacker_par::env_jobs(None).unwrap_or(0),
            rtx_sweep: OnceLock::new(),
            rtx,
        }
    }

    /// The Table II service `name`.
    fn lc(&self, name: &str) -> &LcService {
        self.lcs
            .iter()
            .find(|lc| lc.name() == name)
            .expect("a Table II service")
    }

    /// The BE application `name`.
    fn be(&self, name: &str) -> &BeApp {
        self.bes
            .iter()
            .find(|be| be.name() == name)
            .expect("a BE application")
    }

    /// One run of `lcs` with the BE application `be` on the 2080Ti.
    fn colocate(
        &self,
        config: &ExperimentConfig,
        lcs: &[LcService],
        be: &str,
        policy: Policy,
    ) -> RunReport {
        ColocationRun::new(&self.rtx, config, lcs, std::slice::from_ref(self.be(be)))
            .and_then(|run| run.policy(policy).run())
            .expect("co-location run")
    }

    /// The 2080Ti grid: Tacker against Baymax for every Table II service
    /// × BE application, in LC-major grid order.
    fn rtx_sweep(&self) -> &[SweepRow] {
        self.rtx_sweep.get_or_init(|| {
            run_improvement_sweep(&self.rtx, &self.lcs, &self.bes, &self.config, self.jobs)
                .expect("2080Ti sweep")
        })
    }
}

/// The mean of `v` (0 when empty).
fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// The duration of `fused` over `tc`'s grid and `cd_grid` blocks of `cd`.
fn fused_duration(
    device: &Device,
    fused: &FusedKernel,
    tc: &WorkloadKernel,
    cd: &WorkloadKernel,
    cd_grid: u64,
) -> SimTime {
    let launch = fused.launch(tc.grid, cd_grid, &tc.bindings, &cd.bindings);
    let plan = ExecutablePlan::from_launch(device.spec(), &launch).expect("plan");
    device.run_plan(&plan).expect("fused run").duration
}

/// A parsed command line.
struct Args {
    out: String,
    figures: Vec<(&'static str, Figure)>,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = "results".to_string();
    let mut names = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                let path = args.next().filter(|p| !p.starts_with('-'));
                out = path.ok_or("--out needs a path")?;
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            name if FIGURES.iter().any(|(n, _)| *n == name) => names.push(arg),
            name => return Err(format!("unknown figure {name}")),
        }
    }
    let figures = FIGURES
        .into_iter()
        .filter(|(n, _)| names.is_empty() || names.iter().any(|m| m == n))
        .collect();
    Ok(Args { out, figures })
}

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(1);
    });
    std::fs::create_dir_all(&args.out).expect("create the output directory");
    let ctx = Ctx::new();
    for (name, figure) in args.figures {
        let mut body = String::new();
        figure(&ctx, &mut body).expect("render into a string");
        let path = format!("{}/{name}.txt", args.out);
        std::fs::write(&path, body).expect("write the figure");
        eprintln!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Args, String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parser_rejects_malformed_command_lines() {
        for bad in [
            &["fig99"][..],
            &["fig14", "--check"],
            &["--out"],
            &["--out", "--out"],
            &["fig14", "--out"],
        ] {
            assert!(parse_strs(bad).is_err(), "{bad:?} parsed");
        }
        let names = |a: &Args| a.figures.iter().map(|(n, _)| *n).collect::<Vec<_>>();
        let args = parse_strs(&["fig19", "--out", "/tmp/r", "fig14"]).expect("valid");
        assert_eq!(
            (args.out.as_str(), names(&args)),
            ("/tmp/r", vec!["fig14", "fig19"])
        );
        let args = parse_strs(&[]).expect("valid");
        assert_eq!(
            (args.out.as_str(), args.figures.len()),
            ("results", FIGURES.len())
        );
    }

    #[test]
    fn every_figure_has_its_committed_results_file() {
        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let mut committed: Vec<String> = std::fs::read_dir(results)
            .expect("read results/")
            .filter_map(|e| {
                let name = e.expect("results/ entry").file_name();
                name.to_str()?.strip_suffix(".txt").map(str::to_string)
            })
            .collect();
        committed.sort();
        let mut names: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        assert_eq!(committed, names);
    }
}
