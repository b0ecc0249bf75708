//! `tenant_scale`: the community control plane.
//!
//! Each job is one cell of 10³–10⁵ tenants. It replays the cell's churn
//! and ingest schedule through event-driven billing (`record_cores_id`,
//! `record_stored_id`, `close_month_at`) and ticks the Nagios due-time
//! wheel over a drifting, flapping fleet of one host per hundred
//! tenants. No net or crypto code runs. Cell sizes are fixed by the
//! job's position; the seed draws the schedules and the fleet's drift.

use std::collections::BTreeMap;

use counting_alloc::measure_peak;
use osdc_audit::{drive, BillingOp, BillingOracle};
use osdc_bench::scale::{
    build_schedule, monitor_fleet, Delta, Schedule, NANOS_PER_DAY, NANOS_PER_MIN,
};
use osdc_monitor::nagios::{NagiosMaster, Notification};
use osdc_monitor::nrpe::HostAgent;
use osdc_sim::{derive_seed, SimRng, SimTime};
use osdc_tukey::billing::{BillingService, Invoice, Rates};

use crate::{Cx, Hash, Workload};

/// (tenants per cell, number of such cells): 100 cells, 752k tenants.
/// The 90th percentile falls inside the block of 10⁴-tenant cells.
const CELLS: [(usize, usize); 7] = [
    (100_000, 2),
    (50_000, 3),
    (20_000, 3),
    (10_000, 16),
    (5_000, 20),
    (2_000, 26),
    (1_000, 30),
];
/// Two days and a half hour: storage billing crosses two day boundaries.
const HORIZON_MIN: u64 = 2 * 24 * 60 + 30;
const TENANTS_PER_HOST: usize = 100;
const SERVICES_PER_HOST: usize = 4;
const TICK_SECS: u64 = 15;
const MONITOR_SECS: u64 = 1_800;
/// Cells whose index is a multiple of this get the oracle re-bill.
const ORACLE_EVERY: usize = 10;
const ORACLE_TENANTS: usize = 8;
const ORACLE_WINDOW_MIN: u64 = 120;

/// One pre-drawn change to the monitored fleet.
enum FleetOp {
    Set(u32, &'static str, f64),
    Down(u32),
    Up(u32),
}

pub struct Cell {
    schedule: Schedule,
    hosts: usize,
    /// Fleet changes applied before each tick.
    ticks: Vec<Vec<FleetOp>>,
}

pub struct TenantScale {
    cells: Vec<Cell>,
}

/// The drift and flap plan `exp_scale` draws while it ticks, drawn here
/// ahead of time so the job only applies it.
fn fleet_plan(hosts: usize, seed: u64) -> Vec<Vec<FleetOp>> {
    let mut rng = SimRng::new(derive_seed(seed, 0x4A6));
    let mut down: Vec<u32> = Vec::new();
    let mut reachable = vec![true; hosts];
    (0..=MONITOR_SECS)
        .step_by(TICK_SECS as usize)
        .map(|_| {
            let mut ops = Vec::new();
            for _ in 0..(hosts / 50).max(1) {
                let h = rng.below(hosts as u64) as u32;
                ops.push(match rng.below(4) {
                    0 => FleetOp::Set(h, "disk_used_pct", 30.0 + rng.below(70) as f64),
                    1 => FleetOp::Set(h, "load1", rng.below(20) as f64),
                    2 => FleetOp::Set(h, "free_mb", 500.0 + rng.below(120_000) as f64),
                    _ => FleetOp::Set(h, "net_errs", rng.below(300) as f64),
                });
            }
            if rng.chance(0.05) {
                let h = rng.below(hosts as u64) as usize;
                if reachable[h] {
                    reachable[h] = false;
                    down.push(h as u32);
                    ops.push(FleetOp::Down(h as u32));
                }
            }
            if !down.is_empty() && rng.chance(0.3) {
                let h = down.remove(0);
                reachable[h as usize] = true;
                ops.push(FleetOp::Up(h));
            }
            ops
        })
        .collect()
}

impl TenantScale {
    pub fn setup(seed: u64) -> Self {
        let mut sizes: Vec<usize> = CELLS
            .iter()
            .flat_map(|&(tenants, n)| std::iter::repeat_n(tenants, n))
            .collect();
        // A fixed order, the same for every seed.
        SimRng::new(0x7E4A_4175).shuffle(&mut sizes);
        let cells = sizes
            .into_iter()
            .enumerate()
            .map(|(i, tenants)| {
                let cell_seed = derive_seed(seed, i as u64);
                let hosts = tenants / TENANTS_PER_HOST;
                Cell {
                    schedule: build_schedule(tenants, HORIZON_MIN, cell_seed),
                    hosts,
                    ticks: fleet_plan(hosts, cell_seed),
                }
            })
            .collect();
        TenantScale { cells }
    }
}

pub struct Out {
    invoices: Vec<Vec<Invoice>>,
    notifications: Vec<Notification>,
}

/// Event-driven billing of one schedule, one span per phase.
fn bill(cx: &mut Cx, s: &Schedule) -> Vec<Vec<Invoice>> {
    let t = &mut cx.t;
    let mut svc = t.span("billing.intern", || BillingService::new(Rates::default()));
    let ids: Vec<_> = t.span("billing.intern", || {
        s.names.iter().map(|n| svc.user_id(n)).collect()
    });
    let mut di = 0;
    let mut record_upto = |svc: &mut BillingService, upto: u64| {
        while di < s.deltas.len() && s.deltas[di].0 <= upto {
            let (at, u, ref d) = s.deltas[di];
            match *d {
                Delta::Cores(c) => svc.record_cores_id(ids[u as usize], c, SimTime(at)),
                Delta::Bytes(b) => svc.record_stored_id(ids[u as usize], b, SimTime(at)),
            }
            di += 1;
        }
    };
    let end = s.horizon_min * NANOS_PER_MIN;
    let mut batches = Vec::with_capacity(s.closes.len() + 1);
    for close in s.closes.iter().copied().chain([end + 1]) {
        t.span("billing.record", || record_upto(&mut svc, close.min(end)));
        batches.push(t.span("billing.close", || svc.close_month_at(SimTime(close))));
    }
    t.span("billing.teardown", || drop(svc));
    batches
}

/// The Nagios leg: build the fleet, then apply each tick's drift and
/// flaps and tick the wheel.
fn monitor(cx: &mut Cx, cell: &Cell) -> Vec<Notification> {
    let t = &mut cx.t;
    let (agents, mut master) = t.span("nagios.setup", || {
        let (agents, defs) = monitor_fleet(cell.hosts, SERVICES_PER_HOST, 60);
        let mut master = NagiosMaster::new();
        for def in defs {
            master.add_service(def);
        }
        (agents, master)
    });
    let agent_map: BTreeMap<String, &HostAgent> = t.span("nagios.setup", || {
        agents.iter().map(|a| (a.hostname.clone(), a)).collect()
    });
    for (k, ops) in cell.ticks.iter().enumerate() {
        t.span("nagios.agents", || {
            for op in ops {
                match *op {
                    FleetOp::Set(h, metric, v) => agents[h as usize].metrics.set(metric, v),
                    FleetOp::Down(h) => agents[h as usize].set_reachable(false),
                    FleetOp::Up(h) => agents[h as usize].set_reachable(true),
                }
            }
        });
        let now = SimTime(k as u64 * TICK_SECS * 1_000_000_000);
        t.span("nagios.tick", || master.tick(now, &agent_map));
    }
    let notifications = std::mem::take(&mut master.notifications);
    t.enter("nagios.teardown");
    drop(agent_map);
    drop(master);
    drop(agents);
    t.exit();
    notifications
}

/// `exp_scale`'s oracle leg: the first tenants' deltas over a short
/// window, replayed poll by poll against the from-scratch re-bill.
fn oracle(s: &Schedule) -> Result<(), String> {
    let n = ORACLE_TENANTS.min(s.names.len());
    let mut cores = vec![0u32; n];
    let mut bytes = vec![0u64; n];
    let mut ops = Vec::new();
    let mut di = 0;
    for m in 0..=ORACLE_WINDOW_MIN {
        let t = m * NANOS_PER_MIN;
        while di < s.deltas.len() && s.deltas[di].0 <= t {
            let (_, u, ref d) = s.deltas[di];
            if (u as usize) < n {
                match *d {
                    Delta::Cores(c) => cores[u as usize] = c,
                    Delta::Bytes(b) => bytes[u as usize] = b,
                }
            }
            di += 1;
        }
        for (u, name) in s.names.iter().take(n).enumerate() {
            ops.push(BillingOp::Poll {
                user: name.clone(),
                cores: cores[u],
                at: SimTime(t),
            });
            if t.is_multiple_of(NANOS_PER_DAY) {
                ops.push(BillingOp::Sweep {
                    user: name.clone(),
                    bytes: bytes[u],
                    at: SimTime(t),
                });
            }
        }
    }
    ops.push(BillingOp::Close);
    let (mut service, mut oracle) = BillingOracle::paired(Rates::default());
    let report = drive(&mut oracle, &mut service, &ops);
    if report.is_clean() {
        Ok(())
    } else {
        Err(report.summary())
    }
}

impl Workload for TenantScale {
    type Out = Out;
    type Kept = ();

    fn job_count(&self) -> usize {
        self.cells.len()
    }

    fn kind(&self, _i: usize) -> &'static str {
        "cell"
    }

    fn run(&self, i: usize, cx: &mut Cx) -> Out {
        let cell = &self.cells[i];
        let (peak, invoices) = measure_peak(|| bill(cx, &cell.schedule));
        let tenants = cell.schedule.names.len() as f64;
        cx.counts.add("tenant.tenants", tenants);
        cx.counts.add("tenant.peak_bytes", peak as f64);
        cx.counts
            .add("billing.deltas", cell.schedule.deltas.len() as f64);
        let notifications = monitor(cx, cell);
        cx.counts
            .add("nagios.host_ticks", (cell.hosts * cell.ticks.len()) as f64);
        cx.counts
            .add("nagios.notifications", notifications.len() as f64);
        Out {
            invoices,
            notifications,
        }
    }

    fn settle(&self, _i: usize, out: Out) -> ([u8; 16], ()) {
        let mut h = Hash::default();
        for (b, batch) in out.invoices.iter().enumerate() {
            for inv in batch {
                h.str(&inv.user)
                    .u64(b as u64)
                    .u64(inv.month as u64)
                    .f64(inv.core_hours)
                    .f64(inv.tb_days)
                    .f64(inv.billable_core_hours)
                    .f64(inv.billable_tb_days)
                    .f64(inv.total_usd);
            }
        }
        for n in &out.notifications {
            h.u64(n.at.as_nanos())
                .str(&n.host)
                .str(&n.service)
                .str(&n.message)
                .str(&format!("{:?}", n.status))
                .u64(n.problem as u64);
        }
        (h.finish(), ())
    }

    fn check(&self, i: usize, _kept: &()) -> Result<(), String> {
        if i.is_multiple_of(ORACLE_EVERY) {
            oracle(&self.cells[i].schedule)
        } else {
            Ok(())
        }
    }
}
