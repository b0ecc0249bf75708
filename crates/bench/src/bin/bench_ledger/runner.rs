//! Scenario-runner suite: three registered harnesses run serially
//! (`--jobs=1`, the base side) and on the work-stealing pool
//! (`--jobs=N`, the fast side), N = max(2, host parallelism), so the
//! pool is exercised even on a single-core host.
//!
//! * `table3_grid` — `table3_udr`: the ten Table 3 transfers.
//! * `resilience_quick_grid` — `exp_resilience --quick`: 4 cells of
//!   120-minute campaigns.
//! * `gluster_trials_grid` — `exp_gluster_mirroring`: 60 mirroring-bug
//!   trials (3 configs × 20 seeds).
//!
//! Both sides must print byte-identical stdout, the determinism contract
//! of the runner; a difference exits 1. The honest parallel speedup
//! cannot exceed the host's core count, so the group's ceiling is
//! [`ceiling`] of the *checking* host: a baseline from a big box never
//! demands more than this host can give, and a single-core host must
//! still keep the pool near-free (≥ ~0.64x).

use osdc_bench::gate::{self, Side, Snapshot};
use osdc_sim::available_jobs;

use crate::harness_stdout;

pub const GROUP: &str = "grid";
/// Fraction of the ideal (core-limited) speedup the gate demands.
const EFFICIENCY_FLOOR: f64 = 0.8;

/// The runner rows' speedup ceiling on a host with `cores` cores.
pub fn ceiling(cores: usize) -> f64 {
    EFFICIENCY_FLOOR * cores as f64
}

pub fn measure(snap: &mut Snapshot) {
    let jobs = available_jobs().max(2);
    println!(
        "host parallelism: {} core(s); runner rows use --jobs={jobs}",
        available_jobs()
    );
    let jobs_arg = format!("--jobs={jobs}");
    // (name, harness, args, cells per run).
    let scenarios: [(&str, &str, &[&str], f64); 3] = [
        ("table3_grid", "table3_udr", &[], 10.0),
        ("resilience_quick_grid", "exp_resilience", &["--quick"], 4.0),
        ("gluster_trials_grid", "exp_gluster_mirroring", &[], 60.0),
    ];
    let mut grids = snap.group(GROUP, "cells/s");
    for (name, harness, args, cells) in scenarios {
        let serial = [args, &["--jobs=1"]].concat();
        let pooled = [args, &[jobs_arg.as_str()]].concat();
        let (mut serial_out, mut pooled_out) = (Vec::new(), Vec::new());
        grids.measure(name, cells, 3, |side| match side {
            Side::Base => serial_out = harness_stdout(harness, &serial),
            Side::Fast => pooled_out = harness_stdout(harness, &pooled),
        });
        if serial_out != pooled_out {
            gate::fail(format!(
                "FAIL: {harness}: --jobs=1 and {jobs_arg} printed different stdout"
            ));
        }
    }
}
