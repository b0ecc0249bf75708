//! The fluid-solver microbench scenarios, timed under each
//! [`SolverMode`] by `bench_ledger`'s fluid suite and by
//! `benches/fluid_solver.rs`. Each returns the solver's counters.
//!
//! * [`mixed_cc_4000_ticks`] — Reno + UDT + constant flows stepping
//!   through loss, the Table 3 pipeline shape. Epoch mode wins by
//!   skipping solves while desires hold within tolerance.
//! * [`constant_run_until_90m`] — one long-lived constant-rate bulk flow
//!   driven by `run_until`, the resilience-campaign shape. Epoch mode
//!   wins by jumping analytically between allocation-changing events.
//! * [`link_flap_partial`] — chaos-style link flaps on a background flow
//!   set; the epoch solver re-solves only flows crossing the dirtied
//!   link.

use osdc_net::{
    osdc_wan, CongestionControl, FlowSpec, FluidNet, NodeId, OsdcSite, SolverMode, SolverStats,
    Topology,
};
use osdc_sim::{SimDuration, SimTime};

/// Chicago → LVOC over the real WAN: a Reno flow, a UDT flow and an
/// app-limited constant, stepped 4000 ticks.
pub fn mixed_cc_4000_ticks(mode: SolverMode) -> SolverStats {
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
    net.solver_stats()
}

/// One 4 Gbit/s constant flow Chicago → LVOC, run until 90 minutes.
pub fn constant_run_until_90m(mode: SolverMode) -> SolverStats {
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
    net.solver_stats()
}

/// Four constant flows on a 6-node line whose first link flaps 200
/// times, 20 ticks apart.
pub fn link_flap_partial(mode: SolverMode) -> SolverStats {
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
    net.solver_stats()
}
