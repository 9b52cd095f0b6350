//! Sweep gate: the reduced LC × BE sweep timed at `jobs = 1` and at
//! `jobs = N`, each sweep on a fresh device. The speedup only means
//! something because the parallel reports are bit-equal to the serial
//! ones, so that is a gate too. When the adaptive pool resolves the
//! parallel request to one worker (`jobs_used = 1`), both modes run the
//! identical serial code path and the speedup is 1.0 by construction: a
//! ratio of two timings of the same code would only measure noise. The
//! JSON records every cell's expected-event weight, so shard balance is
//! auditable from the artifact alone.

use tacker::prelude::*;

use crate::Bound::{Above, AtLeast};
use crate::{best_time, cache_json, Gate, ReducedSweep, Report, SWEEP_POLICIES};

const LC_NAMES: [&str; 2] = ["Resnet50", "VGG16"];
const BE_NAMES: [&str; 3] = ["fft", "sgemm", "cutcp"];
const QUERIES: usize = 40;
const HIT_RATE_FLOOR: f64 = 0.5;

pub fn run() -> Report {
    let host_cores = tacker_par::available_jobs();
    let jobs_requested = host_cores.max(4);
    // Seconds per sweep at `jobs`, each on a fresh device, with the last
    // sweep's cells and the sweep it ran on.
    let fresh = || ReducedSweep::new(&LC_NAMES, &BE_NAMES, QUERIES);
    let timed = |jobs| best_time(fresh, |sweep| (sweep.run(jobs), sweep));

    eprintln!("timing jobs=1 ...");
    let (serial_s, (serial_cells, sweep)) = timed(1);
    let jobs_used = sweep_jobs_used(
        jobs_requested,
        &sweep.lcs,
        &sweep.bes,
        &SWEEP_POLICIES,
        &sweep.config,
    );
    let serial_fallback = jobs_used <= 1;
    eprintln!("timing jobs={jobs_requested} (used: {jobs_used}) ...");
    let (parallel_s, (parallel_cells, parallel)) = timed(jobs_requested);

    let identical = serial_cells.len() == parallel_cells.len()
        && serial_cells.iter().zip(&parallel_cells).all(|(s, p)| {
            (s.lc.as_str(), s.be.as_str()) == (p.lc.as_str(), p.be.as_str())
                && s.report.query_latencies() == p.report.query_latencies()
                && s.report.fused_launches == p.report.fused_launches
                && s.report.be_work == p.report.be_work
                && s.expected_events == p.expected_events
        });
    let speedup = if serial_fallback {
        1.0
    } else {
        serial_s / parallel_s.max(1e-12)
    };
    let floor = if host_cores >= 4 { 2.0 } else { 1.0 };
    let cells: Vec<_> = serial_cells
        .iter()
        .map(|c| {
            let policy = format!("{:?}", c.policy);
            obj! {"lc": c.lc.as_str(), "be": c.be.as_str(), "policy": policy,
            "expected_events": c.expected_events}
        })
        .collect();
    let device = &parallel.device;
    let hit_rate = device.cache_hit_rate();
    Report {
        jobs: (jobs_requested, jobs_used),
        gates: vec![
            Gate("speedup", speedup, AtLeast(floor)),
            Gate::holds("results_identical", identical),
            Gate("device_hit_rate", hit_rate, Above(HIT_RATE_FLOOR)),
        ],
        fields: members![
            "grid": sweep.describe(),
            "serial_fallback": serial_fallback,
            "wall_ms_serial": serial_s * 1e3,
            "wall_ms_parallel": parallel_s * 1e3,
            "cells": cells,
            "device_cache": cache_json(device.cache_stats()),
            "fused_cache": cache_json(device.fused_cache_stats()),
        ],
    }
}
