//! The perf ledger: re-measure every seed-speedup claim of the
//! reproduction and write or check one snapshot, `BENCH.json`.
//!
//! Four suites, each a module here, time a *base* side against a *fast*
//! side through [`osdc_bench::gate`]:
//!
//! * [`fluid`] — the reference per-tick solver vs the epoch solver, on
//!   the solver microbenches and two registered harnesses;
//! * [`hotpath`] — verbatim seed copies vs today's scheduler, cipher
//!   kernels and delta scan;
//! * [`runner`] — three registered harnesses serial (`--jobs=1`) vs on
//!   the work-stealing pool;
//! * [`scale`] — sweep-based billing and monitoring vs the event-driven
//!   paths, plus peak live bytes per tenant.
//!
//! The end-to-end rows run the harnesses of the `osdc_bench::harness`
//! registry in-process, so the ledger times exactly what `table3_udr`,
//! `exp_resilience --quick` and `exp_gluster_mirroring` run. A harness
//! run that fails exits 1: a timing of a failing run gates nothing.
//!
//! `counting_alloc` is the global allocator of the whole ledger, because
//! the scale suite reads its live-byte high-water mark. Both sides of
//! every row pay the same per-allocation cost.
//!
//! Flags: `--out` and `--check` as in [`osdc_bench::gate`]; a run without
//! flags writes `BENCH.json`.

mod fluid;
mod hotpath;
mod runner;
mod scale;

use counting_alloc::CountingAlloc;
use osdc_bench::gate::{self, Baseline, Cli, GateError, Snapshot};
use osdc_bench::harness::{self, Failure, HarnessSpec};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// A group's speedup cap: measured speedups are clamped here before the
/// ratio check, because beyond it the fast side takes milliseconds and
/// the exact ratio is timer noise. The runner grids have at most ~8
/// usefully parallel heavyweight cells. The scale cap saturates the
/// relative floor at `12.5 / 1.25`, exactly the scale-pass bar.
fn cap(group: &str) -> f64 {
    match group {
        runner::GROUP => 8.0,
        scale::BILLING | scale::MONITOR => 12.5,
        // The fluid and hot-path groups.
        _ => 10.0,
    }
}

/// Stdout of one in-process run of `spec`, or why the run failed.
fn captured_stdout(spec: &HarnessSpec, args: &[&str]) -> Result<Vec<u8>, String> {
    let owned = args.iter().map(|a| a.to_string()).collect();
    let run = harness::run_captured(spec, owned, None);
    match run.outcome {
        Ok(()) => Ok(run.raw.into_iter().next().expect("stdout comes first").1),
        Err(Failure(message)) => Err(format!("{} {}: {message}", spec.name, args.join(" "))),
    }
}

/// Stdout of the registered harness `name` run in-process with `args`;
/// exits 1 when the run fails.
fn harness_stdout(name: &str, args: &[&str]) -> Vec<u8> {
    let spec = harness::find(name).expect("the ledger names registered harnesses");
    captured_stdout(spec, args).unwrap_or_else(|e| gate::fail(format!("FAIL: {e}")))
}

/// Every gate: the ratio check under the group caps and the runner's
/// core ceiling on a host with `cores` cores, then the suite rules.
fn check(baseline: &Baseline, snap: &Snapshot, cores: usize) -> Result<Vec<String>, GateError> {
    let ceiling = |group: &str| match group {
        runner::GROUP => runner::ceiling(cores),
        _ => f64::INFINITY,
    };
    let mut failures = gate::check_speedups(baseline, snap, cap, ceiling);
    failures.extend(hotpath::fast_groups_rule(&snap.rows));
    failures.extend(scale::scale_floor_rule(&snap.rows));
    failures.extend(scale::memory_rule(baseline.memory()?, &snap.memory));
    Ok(failures)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = Cli::from_args(&args, "BENCH.json");

    let mut snap =
        Snapshot::new("perf ledger: seed, serial or per-tick path (base) vs today's path (fast)");
    fluid::measure(&mut snap);
    hotpath::measure(&mut snap);
    runner::measure(&mut snap);
    scale::measure(&mut snap);
    let cores = osdc_sim::available_jobs();
    cli.finish(&snap, |baseline, snap| check(baseline, snap, cores));
}

#[cfg(test)]
mod tests {
    use super::*;
    use osdc_bench::harness::{fail, HarnessCtx, RunResult};

    #[test]
    fn checked_in_baseline_passes_its_own_check() {
        let base = Baseline::parse(include_str!("../../../../../BENCH.json")).expect("parses");
        for cores in [1, 2] {
            assert_eq!(check(&base, &base.replay(), cores), Ok(vec![]));
        }
    }

    #[test]
    fn captured_stdout_is_the_output_or_the_failure() {
        fn failing(_: &mut HarnessCtx) -> RunResult {
            fail("acceptance bar missed")
        }
        fn panicking(_: &mut HarnessCtx) -> RunResult {
            panic!("assertion tripped")
        }
        let spec = |run| HarnessSpec {
            name: "probe",
            title: "",
            quick_args: &[],
            run,
        };
        let err = captured_stdout(&spec(failing), &["--jobs=1"]).expect_err("fails");
        assert_eq!(err, "probe --jobs=1: acceptance bar missed");
        let err = captured_stdout(&spec(panicking), &[]).expect_err("fails");
        assert!(err.contains("assertion tripped"), "{err}");
        let table2 = harness::find("table2_resources").expect("registered");
        let out = captured_stdout(table2, &[]).expect("runs");
        assert!(String::from_utf8_lossy(&out).contains("Table 2"));
    }
}
