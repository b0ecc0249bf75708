//! The repo's perf baseline: wall-time the fluid-solver scenarios in both
//! solver modes and snapshot the result as `BENCH_fluid.json`.
//!
//! Five scenarios, mirroring `benches/fluid_solver.rs` plus the two
//! end-to-end harnesses the epoch rework is meant to accelerate:
//!
//! * `table3_e2e` — the full Table 3 grid (5 protocol×cipher rows × 2
//!   transfer sizes) through `TransferEngine`.
//! * `resilience_quick_e2e` — the `exp_resilience --quick` sweep (4 cells
//!   × 120-minute campaigns).
//! * `mixed_cc_4000_ticks`, `constant_run_until_90m`, `link_flap_partial`
//!   — the solver-level microbenches.
//!
//! Each scenario runs under the reference per-tick solver (the base
//! side) and the default epoch solver (the fast side), and `--check`
//! gates the speedups through [`osdc_bench::gate`] with a 10x cap:
//! beyond it the epoch side is sub-10ms and the ratio is timer noise; the
//! gate's job is to catch the epoch path degrading back toward 1x, not to
//! police a 300x ratio.
//!
//! Flags: `--out` and `--check` as in [`osdc_bench::gate`], and `--jobs
//! <N>` to run the e2e grid workloads on N runner workers. It defaults to
//! 1, unlike the experiment harnesses, because this binary's product is
//! wall-clock time: co-scheduled cells contend for cores and corrupt the
//! per-scenario measurements.

use osdc_bench::gate::{self, Baseline, Cli, GateError, Side, Snapshot};
use osdc_bench::jobs_from;
use osdc_chaos::{run_campaigns, CampaignConfig, RetryPolicy};
use osdc_crypto::CipherKind;
use osdc_net::{
    osdc_wan, CongestionControl, FlowSpec, FluidNet, NodeId, OsdcSite, SolverMode, Topology,
};
use osdc_sim::{Runner, SimDuration, SimTime};
use osdc_storage::GlusterVersion;
use osdc_telemetry::Telemetry;
use osdc_transfer::{Protocol, TransferEngine, TransferSpec};

const SEED: u64 = 2012;
/// Speedups are compared after clamping here: ratios above this are all
/// "epoch time is negligible" and their exact value is timer noise.
const SPEEDUP_CAP: f64 = 10.0;

fn table3_e2e(mode: SolverMode, jobs: usize) {
    let rows = [
        (Protocol::Udr, CipherKind::None),
        (Protocol::Rsync, CipherKind::None),
        (Protocol::Udr, CipherKind::Blowfish),
        (Protocol::Rsync, CipherKind::Blowfish),
        (Protocol::Rsync, CipherKind::TripleDes),
    ];
    Runner::new(jobs).run(
        rows.into_iter()
            .flat_map(|(protocol, cipher)| {
                [(108_000_000_000u64, SEED), (1_100_000_000_000, SEED + 1)].map(|(bytes, seed)| {
                    move |_i: usize| {
                        let wan = osdc_wan(0.9e-7);
                        let src = wan.node(OsdcSite::ChicagoKenwood);
                        let dst = wan.node(OsdcSite::Lvoc);
                        let mut engine =
                            TransferEngine::new(FluidNet::with_solver(wan.topology, seed, mode));
                        engine.run(
                            &TransferSpec {
                                protocol,
                                cipher,
                                bytes,
                                files: 1,
                                src,
                                dst,
                            },
                            SimDuration::from_days(2),
                        );
                    }
                })
            })
            .collect(),
    );
}

fn resilience_quick_e2e(mode: SolverMode, jobs: usize) {
    let v31 = GlusterVersion::V3_1 {
        replica_drop_prob: 0.15,
    };
    let cells = [
        (v31, RetryPolicy::None),
        (v31, RetryPolicy::exponential(12)),
        (GlusterVersion::V3_3, RetryPolicy::fixed_30s(4)),
        (GlusterVersion::V3_3, RetryPolicy::exponential(12)),
    ];
    let cfgs: Vec<CampaignConfig> = cells
        .into_iter()
        .map(|(gluster, retry)| {
            CampaignConfig::osdc(gluster, retry, SEED, 120, 2.0).with_solver(mode)
        })
        .collect();
    run_campaigns(&cfgs, jobs, &Telemetry::disabled());
}

fn mixed_cc_4000_ticks(mode: SolverMode) {
    let wan = osdc_wan(1e-7);
    let src = wan.node(OsdcSite::ChicagoKenwood);
    let dst = wan.node(OsdcSite::Lvoc);
    let mut net = FluidNet::with_solver(wan.topology, 42, mode);
    for cc in [
        CongestionControl::reno(0.104),
        CongestionControl::udt(10e9),
        CongestionControl::Constant { rate_bps: 1.5e9 },
    ] {
        net.start_flow(FlowSpec {
            src,
            dst,
            bytes: u64::MAX / 4,
            cc,
            app_limit_bps: 3e9,
        })
        .expect("route");
    }
    for _ in 0..4000 {
        net.step();
    }
}

fn constant_run_until_90m(mode: SolverMode) {
    let wan = osdc_wan(1.2e-7);
    let src = wan.node(OsdcSite::ChicagoKenwood);
    let dst = wan.node(OsdcSite::Lvoc);
    let mut net = FluidNet::with_solver(wan.topology, 7, mode);
    net.start_flow(FlowSpec {
        src,
        dst,
        bytes: u64::MAX / 4,
        cc: CongestionControl::Constant { rate_bps: 4e9 },
        app_limit_bps: f64::INFINITY,
    })
    .expect("route");
    net.run_until(SimTime::ZERO + SimDuration::from_mins(90));
}

fn link_flap_partial(mode: SolverMode) {
    let mut topo = Topology::new();
    let nodes: Vec<_> = (0..6).map(|i| topo.add_node(format!("n{i}"))).collect();
    let mut hot = None;
    for w in nodes.windows(2) {
        let (a, _) = topo.add_duplex_link(w[0], w[1], 10e9, SimDuration::from_millis(10), 0.0);
        hot.get_or_insert(a);
    }
    let hot = hot.expect("line has links");
    let mut net = FluidNet::with_solver(topo, 11, mode);
    for (s, d) in [(0usize, 5usize), (1, 4), (2, 5), (0, 3)] {
        net.start_flow(FlowSpec {
            src: NodeId(s),
            dst: NodeId(d),
            bytes: u64::MAX / 8,
            cc: CongestionControl::Constant { rate_bps: 2e9 },
            app_limit_bps: f64::INFINITY,
        })
        .expect("route");
    }
    for i in 0..200 {
        net.set_link_up(hot, i % 2 == 1);
        for _ in 0..20 {
            net.step();
        }
    }
}

fn check(baseline: &Baseline, snap: &Snapshot) -> Result<Vec<String>, GateError> {
    let failures = gate::check_speedups(baseline, snap, SPEEDUP_CAP, f64::INFINITY);
    Ok(failures)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = Cli::from_args(&args, "BENCH_fluid.json");
    // Timing binary: serial by default; see the --jobs note above.
    let jobs = jobs_from(&args, 1);

    let mut snap =
        Snapshot::new("fluid-solver perf baseline: reference (base) vs epoch (fast) solver");
    let table3 = move |mode: SolverMode| table3_e2e(mode, jobs);
    let resilience = move |mode: SolverMode| resilience_quick_e2e(mode, jobs);
    // (name, group, workload, runs per timed sample). Micro scenarios
    // (sub-millisecond) repeat 20 times per sample so a sample is tens of
    // milliseconds and timer/scheduler noise averages out.
    type Scenario<'a> = (&'static str, &'static str, &'a dyn Fn(SolverMode), u32);
    let scenarios: [Scenario; 5] = [
        ("table3_e2e", "e2e", &table3, 1),
        ("resilience_quick_e2e", "e2e", &resilience, 1),
        ("mixed_cc_4000_ticks", "solver", &mixed_cc_4000_ticks, 20),
        (
            "constant_run_until_90m",
            "solver",
            &constant_run_until_90m,
            1,
        ),
        ("link_flap_partial", "solver", &link_flap_partial, 20),
    ];
    for (name, group, run, inner) in scenarios {
        let runs = f64::from(inner);
        snap.group(group, "runs/s").measure(name, runs, 4, |side| {
            let mode = match side {
                Side::Base => SolverMode::Reference,
                Side::Fast => SolverMode::DEFAULT,
            };
            for _ in 0..inner {
                run(mode);
            }
        });
    }
    cli.finish(&snap, check);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_in_baseline_passes_its_own_check() {
        let base = Baseline::parse(include_str!("../../../../BENCH_fluid.json")).expect("parses");
        assert_eq!(check(&base, &base.replay()), Ok(vec![]));
    }
}
