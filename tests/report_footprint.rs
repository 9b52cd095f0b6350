//! Retained memory of a finished fleet report.
//!
//! Long benchmarks and fleet sweeps keep every `FleetReport` they produce,
//! so the bytes one report holds on to set how fast resident memory grows
//! with repetitions. A counting global allocator measures them exactly:
//! the live heap bytes released by dropping a report are the bytes it
//! retained. This file holds a single test so no other test allocates
//! concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use tacker::fleet::{DispatchPolicy, FleetRun};
use tacker::prelude::*;
use tacker::ServiceLoad;
use tacker_workloads::gemm::{gemm_workload, GemmShape};
use tacker_workloads::LcService;

struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call forwards to the system allocator unchanged; the
// wrapper only tallies the sizes it hands out and takes back.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn lc_service(i: u64) -> LcService {
    let gemm = tacker_workloads::dnn::compile::shared_gemm();
    let m = 256 * (i + 1);
    LcService::new(
        format!("svc-{i}"),
        8,
        vec![
            gemm_workload(&gemm, GemmShape::new(m, 512, 256)),
            tacker_workloads::dnn::elementwise::elementwise_workload(
                &tacker_workloads::dnn::elementwise::relu(),
                500_000,
            ),
            gemm_workload(&gemm, GemmShape::new(m / 2, 512, 256)),
        ],
    )
}

/// The benchmark fleet's shape — six LC services, 12,000 queries each,
/// LC-only over four alternating 2080Ti/V100 nodes with QoS-headroom
/// dispatch — keeps at most 128 KiB per report. Per-device services keep
/// their exact latency samples below the retention limit at four bytes
/// each, every spilled quantile sketch keeps only its occupied bucket
/// range, and no latency histogram rides along beside the statistics.
#[test]
fn one_fleet_report_retains_at_most_128_kib() {
    const SERVICES: u64 = 6;
    const QUERIES: usize = 12_000;
    let lcs: Vec<LcService> = (0..SERVICES).map(lc_service).collect();
    // Fixed loads, so the test calibrates nothing.
    let loads: Vec<ServiceLoad> = lcs
        .iter()
        .enumerate()
        .map(|(i, lc)| ServiceLoad {
            lc: lc.clone(),
            mean_interarrival: SimTime::from_micros(400 + 40 * i as u64),
            seed: 77 + i as u64,
        })
        .collect();
    let config = ExperimentConfig::default()
        .with_queries(QUERIES)
        .with_seed(5)
        .with_jobs(1);
    let run = FleetRun::new(heterogeneous_fleet(4), &config, &lcs)
        .expect("fleet")
        .device_policy(Policy::LcOnly)
        .dispatch_policy(DispatchPolicy::QosHeadroom)
        .with_loads(&loads);
    let report = run.run().expect("fleet run");
    assert_eq!(report.query_count(), SERVICES as usize * QUERIES);

    let live = LIVE.load(Ordering::SeqCst);
    drop(report);
    let retained = live - LIVE.load(Ordering::SeqCst);
    eprintln!("one FleetReport retains {retained} bytes");
    assert!(
        retained <= 128 * 1024,
        "one FleetReport retains {retained} bytes (> 128 KiB)"
    );
}
