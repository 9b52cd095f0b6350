//! The repository benchmark: end-to-end host cost and simulated outcome
//! of three workloads (`grid`, `colocate`, `fleet`), plus a traced mode
//! that attributes host time to the repository's layers from outside.
//! See `README.md` next to this crate for the workloads, the metrics and
//! how to run it.

pub mod attrib;
pub mod colocate;
pub mod common;
pub mod fleet;
pub mod grid;
pub mod host;
pub mod layers;

use attrib::Attribution;
use common::LayerValues;

/// Records the per-layer numbers a traced measurement's attribution
/// gives: `wall` is the traced host wall time, `refits` the report's
/// refit counter and `replay_s` the fleet's per-device replay tail (0
/// elsewhere). `serve.other_s` is whatever no layer claimed, so the
/// attributed times plus `serve.other_s` add up to `wall`.
pub fn traced_layers(v: &mut LayerValues, a: &Attribution, wall: f64, refits: u64, replay_s: f64) {
    const REJECT_NAMES: [&str; 6] = [
        "manager.rejects.no_orientation",
        "manager.rejects.not_prepared",
        "manager.rejects.blacklisted",
        "manager.rejects.parallel_loses",
        "manager.rejects.exceeds_headroom",
        "manager.rejects.no_gain",
    ];
    v.set("predictor.refits", refits as f64);
    v.set("predictor.refit_s", a.predictor_s);
    v.set("predictor.refit_share", a.predictor_s / wall);
    v.set("manager.decisions", a.decisions as f64);
    v.set("manager.fused", a.fused as f64);
    v.set("manager.reordered", a.reordered as f64);
    v.set("manager.decide_s", a.manager_s);
    for (name, n) in REJECT_NAMES.into_iter().zip(a.rejects) {
        v.set(name, n as f64);
    }
    let attempts = a.fused + a.rejected();
    v.set(
        "manager.fuse_accept_ratio",
        if attempts > 0 {
            a.fused as f64 / attempts as f64
        } else {
            0.0
        },
    );
    v.set("sim.device.run_s", a.device_s);
    v.set("serve.account_s", a.serve_s);
    v.set("fleet.prepare_s", a.fleet_prepare_s);
    v.set("fleet.dispatch_s", a.fleet_dispatch_s);
    // The first dispatch closes the preparation gap; the rest are routing.
    let routed = a.dispatched.saturating_sub(1);
    v.set(
        "fleet.dispatch_ns",
        if routed > 0 {
            a.fleet_dispatch_s * 1e9 / routed as f64
        } else {
            0.0
        },
    );
    v.set("fleet.replay_s", replay_s);
    let attributed = a.attributed_s() + replay_s;
    v.set("serve.other_s", wall - attributed);
    v.set("trace.wall_s", wall);
    v.set("trace.attributed_share", attributed / wall);
    println!(
        "attribution (share of traced wall {wall:.3} s): manager={:.3} sim.device={:.3} \
         predictor={:.3} serve={:.3} fleet.prepare={:.3} fleet.dispatch={:.3} fleet.replay={:.3} \
         other={:.3}",
        a.manager_s / wall,
        a.device_s / wall,
        a.predictor_s / wall,
        a.serve_s / wall,
        a.fleet_prepare_s / wall,
        a.fleet_dispatch_s / wall,
        replay_s / wall,
        (wall - attributed) / wall,
    );
}
