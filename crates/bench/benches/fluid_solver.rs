//! Fluid-solver microbenches: the reference per-tick max-min allocator vs
//! the epoch solver, on the scenarios of [`osdc_bench::fluid`], which
//! mirror the shapes the paper's harnesses actually run.
//!
//! `bench_ledger`'s fluid suite times the same scenarios into `BENCH.json`
//! (checked in at the repo root) for CI regression checks.

use criterion::{criterion_group, criterion_main, Criterion};
use osdc_bench::fluid::{constant_run_until_90m, link_flap_partial, mixed_cc_4000_ticks};
use osdc_net::{SolverMode, SolverStats};

/// (scenario, workload, solver modes to time it under).
type Scenario<'a> = (
    &'a str,
    fn(SolverMode) -> SolverStats,
    &'a [(&'a str, SolverMode)],
);

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("fluid_solver");
    let epoch_vs_reference = [
        ("reference", SolverMode::Reference),
        ("epoch", SolverMode::DEFAULT),
    ];
    let scenarios: [Scenario; 3] = [
        (
            "mixed_cc_4000_ticks",
            mixed_cc_4000_ticks,
            &[
                ("reference", SolverMode::Reference),
                ("tick_compat", SolverMode::TICK_COMPAT),
                ("epoch", SolverMode::DEFAULT),
            ],
        ),
        (
            "constant_run_until",
            constant_run_until_90m,
            &epoch_vs_reference,
        ),
        ("link_flap_partial", link_flap_partial, &epoch_vs_reference),
    ];
    for (name, run, modes) in scenarios {
        for &(label, mode) in modes {
            group.bench_function(format!("{name}/{label}"), |b| b.iter(|| run(mode)));
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_solver
}
criterion_main!(benches);
