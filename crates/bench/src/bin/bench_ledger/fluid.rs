//! Fluid-solver suite: every scenario under the reference per-tick
//! solver (the base side) and the default epoch solver (the fast side).
//!
//! * `table3_e2e` and `resilience_quick_e2e` — the registered
//!   `table3_udr --jobs=1` and `exp_resilience --quick --jobs=1`
//!   harnesses, the end-to-end runs the epoch rework is meant to
//!   accelerate; the base side adds `--reference-solver`. One worker,
//!   because co-scheduled cells contend for cores and blur the solver
//!   comparison.
//! * `mixed_cc_4000_ticks`, `constant_run_until_90m`, `link_flap_partial`
//!   — the solver microbenches of [`osdc_bench::fluid`].

use osdc_bench::fluid::{constant_run_until_90m, link_flap_partial, mixed_cc_4000_ticks};
use osdc_bench::gate::{Side, Snapshot};
use osdc_net::{SolverMode, SolverStats};

use crate::harness_stdout;

pub fn measure(snap: &mut Snapshot) {
    // (name, harness, args): the end-to-end pair.
    for (name, harness, args) in [
        ("table3_e2e", "table3_udr", &["--jobs=1"][..]),
        (
            "resilience_quick_e2e",
            "exp_resilience",
            &["--quick", "--jobs=1"],
        ),
    ] {
        let reference = [args, &["--reference-solver"]].concat();
        snap.group("e2e", "runs/s").measure(name, 1.0, 4, |side| {
            let args = match side {
                Side::Base => &reference[..],
                Side::Fast => args,
            };
            harness_stdout(harness, args);
        });
    }
    // (name, workload, runs per timed sample). Micro scenarios
    // (sub-millisecond) repeat 20 times per sample so a sample is tens of
    // milliseconds and timer/scheduler noise averages out.
    type Scenario = (&'static str, fn(SolverMode) -> SolverStats, u32);
    let scenarios: [Scenario; 3] = [
        ("mixed_cc_4000_ticks", mixed_cc_4000_ticks, 20),
        ("constant_run_until_90m", constant_run_until_90m, 1),
        ("link_flap_partial", link_flap_partial, 20),
    ];
    for (name, run, inner) in scenarios {
        let runs = f64::from(inner);
        snap.group("solver", "runs/s")
            .measure(name, runs, 4, |side| {
                let mode = match side {
                    Side::Base => SolverMode::Reference,
                    Side::Fast => SolverMode::DEFAULT,
                };
                for _ in 0..inner {
                    run(mode);
                }
            });
    }
}
