//! Figure 16: average and 99%-ile latencies of the LC services across all
//! 72 co-location pairs under Tacker.
//!
//! Paper: QoS (50 ms) is met in every pair; 99%-ile latencies are close to
//! the target (headroom is used up), averages are similar across
//! co-locations.
//!
//! The 72 runs fan out over the `tacker-par` work pool; rows are joined in
//! grid order so the table is identical at any jobs count.

use std::sync::Arc;

use tacker::prelude::*;
use tacker_bench::{bench_jobs, eval_config, eval_lc_services, rtx2080ti, try_pool_map};

fn main() {
    let device = rtx2080ti();
    let config = eval_config();
    let be_apps = tacker_workloads::be_apps();
    let lcs = eval_lc_services(&device);
    let mut pairs = Vec::new();
    for lc in &lcs {
        for be in &be_apps {
            pairs.push((lc.clone(), be.clone()));
        }
    }
    let pairs = Arc::new(pairs);
    let reports: Vec<RunReport> = {
        let (device, config, pairs) = (Arc::clone(&device), config.clone(), Arc::clone(&pairs));
        try_pool_map(bench_jobs(), (0..pairs.len()).collect(), move |_, &i| {
            let (lc, be) = &pairs[i];
            ColocationRun::new(
                &device,
                &config,
                std::slice::from_ref(lc),
                std::slice::from_ref(be),
            )?
            .policy(Policy::Tacker)
            .run()
        })
        .expect("tacker run")
    };

    println!(
        "# Figure 16: LC latencies under Tacker (QoS target {})",
        config.qos_target
    );
    println!(
        "{:<10} {:>8} {:>10} {:>10} {:>6}",
        "LC", "BE", "avg(ms)", "p99(ms)", "QoS"
    );
    let mut all_ok = true;
    for ((lc, be), r) in pairs.iter().zip(&reports) {
        let p99 = r.p99_latency().expect("queries completed");
        let ok = p99 <= config.qos_target.mul_f64(1.02);
        all_ok &= ok;
        println!(
            "{:<10} {:>8} {:>10.2} {:>10.2} {:>6}",
            lc.name(),
            be.name(),
            r.mean_latency().expect("queries completed").as_millis_f64(),
            p99.as_millis_f64(),
            if ok { "met" } else { "MISS" }
        );
    }
    println!();
    assert!(all_ok, "every pair must meet QoS");
    println!("QoS met in all 72 co-locations (paper: same).");
}
