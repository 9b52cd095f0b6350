//! Figure 15: active timelines of the two core types *with Tacker* for
//! Resnet50+sgemm and Resnet50+fft.
//!
//! Paper: Tacker's fused kernels keep both core types active at once, and
//! the compute-intensive partner (fft) overlaps for longer than the
//! memory-intensive one (sgemm).

use tacker::prelude::*;
use tacker_bench::rtx2080ti;
use tacker_kernel::SimTime;

fn main() {
    let device = rtx2080ti();
    let config = tacker_bench::eval_config().with_queries(40).with_timeline();
    let lc = tacker_workloads::lc_service("Resnet50", &device).expect("LC service");
    println!("# Figure 15: active timelines with Tacker");
    let be_names = ["sgemm", "fft"];
    // The two co-locations are independent runs; execute them on the pool
    // and print in name order.
    let reports = tacker_bench::pool_map(
        tacker_bench::bench_jobs(),
        be_names.to_vec(),
        move |_, be_name| {
            let be = vec![tacker_workloads::be_app(be_name).expect("BE app")];
            ColocationRun::new(&device, &config, std::slice::from_ref(&lc), &be)
                .expect("tacker run")
                .policy(Policy::Tacker)
                .run()
                .expect("tacker run")
        },
    );
    let mut overlaps: Vec<(String, SimTime)> = Vec::new();
    for (be_name, report) in be_names.iter().zip(reports) {
        let tl = report.timeline.expect("timeline recorded");
        println!(
            "\n## Resnet50 + {be_name} (fused launches: {})",
            report.fused_launches
        );
        print!("{}", tl.render_ascii(100));
        let both = tl.both_active_time();
        println!("both core types active simultaneously: {both}");
        overlaps.push((be_name.to_string(), both));
    }
    println!();
    assert!(overlaps.iter().all(|(_, t)| t.as_nanos() > 0));
    assert!(
        overlaps[1].1 > overlaps[0].1,
        "fft (compute-intensive) should co-run longer than sgemm (paper §VIII-C)"
    );
    println!(
        "co-run time: fft {} > sgemm {}  (paper: same ordering)",
        overlaps[1].1, overlaps[0].1
    );
}
