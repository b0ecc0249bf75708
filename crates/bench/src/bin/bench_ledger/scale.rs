//! Scale suite: the tenant-sharded billing and the Nagios due-time
//! wheel vs the sweep-based implementations they replaced (the base
//! side).
//!
//! * **Billing** — the O(deltas) increment mode
//!   (`record_cores_id`/`record_stored_id` + `close_month_at`) vs the
//!   per-minute poll + daily sweep cadence, over the same seeded
//!   schedule, at 10³/10⁴/10⁵ tenants. Metric: samples/s — the
//!   per-tenant-minute samples the sweep cadence performs and the
//!   increment mode retires. Both sides must produce byte-identical
//!   invoice batches, or the ledger panics before writing a snapshot.
//! * **Monitor** — `NagiosMaster`'s wheel scheduler vs a verbatim copy
//!   of the scan-everything tick (host list rebuilt and every service
//!   visited per tick) over a healthy fleet, so the cost compared is
//!   pure scheduling. Metric: scheduling decisions/s.
//! * **Memory** — the peak live-byte high-water mark (the
//!   `counting_alloc` shim's RSS proxy) of building and billing a full
//!   tenant population, divided per tenant. The gate bounds
//!   bytes/tenant both absolutely ([`RSS_HARD_CAP_BYTES`]) and
//!   relatively against the checked-in snapshot.
//!
//! On top of the ratio check, the scale-pass acceptance rule itself: at
//! 10⁴+ tenants the event-driven paths must hold at least a **10x**
//! speedup over their sweep baselines, compared unclamped.

use std::collections::BTreeMap;

use counting_alloc::measure_peak;
use osdc_bench::gate::{MemoryPoint, Row, Side, Snapshot};
use osdc_bench::scale::{
    build_schedule, incremental_invoices, monitor_fleet, sweep_event_count, sweep_invoices,
};
use osdc_monitor::check::CheckStatus;
use osdc_monitor::nagios::{NagiosMaster, Notification, ServiceDefinition, ServiceState};
use osdc_monitor::nrpe::HostAgent;
use osdc_sim::{derive_seed, SimTime};
use osdc_tukey::billing::Rates;

pub const BILLING: &str = "billing";
pub const MONITOR: &str = "monitor";
const SEED: u64 = 2013;
/// The scale-pass acceptance floor at 10⁴+ tenants/services.
const MIN_SCALE_SPEEDUP: f64 = 10.0;
/// Scenarios the 10x floor applies to.
const SCALE_GATED: [&str; 3] = ["billing_1e4", "billing_1e5", "monitor_1e4"];
/// Absolute ceiling on billing state per tenant, in bytes: sharded slab
/// slot + interner entry + invoice output, with generous slack.
const RSS_HARD_CAP_BYTES: f64 = 4096.0;
/// Allowed growth of bytes/tenant over the checked-in snapshot.
const RSS_REGRESSION_FACTOR: f64 = 1.25;

// ---- Baseline: the pre-wheel scan-everything Nagios tick ------------------

/// Verbatim copy of the seed `NagiosMaster::tick`: rebuild + sort +
/// dedup the host list, then visit every service, on every tick.
struct ScanMaster {
    services: Vec<(ServiceDefinition, ServiceState)>,
    notifications: Vec<Notification>,
    hosts_down: std::collections::BTreeSet<String>,
}

impl ScanMaster {
    fn new() -> Self {
        ScanMaster {
            services: Vec::new(),
            notifications: Vec::new(),
            hosts_down: std::collections::BTreeSet::new(),
        }
    }

    fn add_service(&mut self, def: ServiceDefinition) {
        let state = ServiceState {
            last_status: CheckStatus::Ok,
            attempts: 0,
            hard_problem: false,
            next_check_at: SimTime::ZERO,
            last_message: String::new(),
        };
        self.services.push((def, state));
    }

    fn tick(&mut self, now: SimTime, agents: &BTreeMap<String, &HostAgent>) {
        let mut hosts: Vec<String> = self.services.iter().map(|(d, _)| d.host.clone()).collect();
        hosts.sort_unstable();
        hosts.dedup();
        for host in hosts {
            let reachable = agents.get(&host).map(|a| a.is_reachable()).unwrap_or(false);
            if !reachable && !self.hosts_down.contains(&host) {
                self.hosts_down.insert(host.clone());
                self.notifications.push(Notification {
                    at: now,
                    host: host.clone(),
                    service: "HOST".into(),
                    status: CheckStatus::Critical,
                    message: format!("host {host} DOWN"),
                    problem: true,
                });
            } else if reachable && self.hosts_down.remove(&host) {
                self.notifications.push(Notification {
                    at: now,
                    host: host.clone(),
                    service: "HOST".into(),
                    status: CheckStatus::Ok,
                    message: format!("host {host} UP"),
                    problem: false,
                });
            }
        }
        for (def, state) in &mut self.services {
            if self.hosts_down.contains(&def.host) {
                continue;
            }
            if now < state.next_check_at {
                continue;
            }
            let result = match agents.get(&def.host) {
                Some(agent) => agent.run_check(&def.check),
                None => def.check.evaluate(None),
            };
            state.last_message = result.message.clone();
            let ok = result.status == CheckStatus::Ok;
            if ok {
                if state.hard_problem {
                    self.notifications.push(Notification {
                        at: now,
                        host: def.host.clone(),
                        service: def.check.name.clone(),
                        status: CheckStatus::Ok,
                        message: result.message.clone(),
                        problem: false,
                    });
                }
                state.hard_problem = false;
                state.attempts = 0;
                state.last_status = CheckStatus::Ok;
                state.next_check_at = now + def.check_interval;
            } else {
                state.attempts += 1;
                state.last_status = result.status;
                if state.attempts >= def.max_check_attempts {
                    if !state.hard_problem {
                        state.hard_problem = true;
                        self.notifications.push(Notification {
                            at: now,
                            host: def.host.clone(),
                            service: def.check.name.clone(),
                            status: result.status,
                            message: result.message.clone(),
                            problem: true,
                        });
                    }
                    state.next_check_at = now + def.check_interval;
                } else {
                    state.next_check_at = now + def.retry_interval;
                }
            }
        }
    }
}

// ---- The gate -------------------------------------------------------------

/// The scale-pass acceptance rule: the [`SCALE_GATED`] cells hold
/// [`MIN_SCALE_SPEEDUP`], unclamped.
pub fn scale_floor_rule(rows: &[Row]) -> Vec<String> {
    let mut failures = Vec::new();
    for name in SCALE_GATED {
        let Some(r) = rows.iter().find(|r| r.name == name) else {
            failures.push(format!("scale-gated scenario {name} not measured"));
            continue;
        };
        if r.speedup() < MIN_SCALE_SPEEDUP {
            failures.push(format!(
                "{name}: speedup {:.2}x below the {MIN_SCALE_SPEEDUP}x scale-pass floor",
                r.speedup()
            ));
        }
    }
    failures
}

/// Bytes per tenant stay within [`RSS_REGRESSION_FACTOR`] of the
/// baseline's and under [`RSS_HARD_CAP_BYTES`].
pub fn memory_rule(baseline: &[(String, f64)], memory: &[MemoryPoint]) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, base_bpt) in baseline {
        let Some(p) = memory.iter().find(|p| &p.name == name) else {
            failures.push(format!("memory point {name} in baseline but not measured"));
            continue;
        };
        let ceiling = base_bpt * RSS_REGRESSION_FACTOR;
        if p.bytes_per_tenant() > ceiling {
            failures.push(format!(
                "{name}: {:.1} bytes/tenant exceeds {ceiling:.1} (baseline {base_bpt:.1} x {RSS_REGRESSION_FACTOR})",
                p.bytes_per_tenant()
            ));
        }
    }
    for p in memory {
        if p.bytes_per_tenant() > RSS_HARD_CAP_BYTES {
            failures.push(format!(
                "{}: {:.1} bytes/tenant exceeds the {RSS_HARD_CAP_BYTES:.0}-byte hard cap",
                p.name,
                p.bytes_per_tenant()
            ));
        }
    }
    failures
}

pub fn measure(snap: &mut Snapshot) {
    // Billing: the 10⁴ cell keeps a shorter horizon so the baseline's
    // O(tenant-minutes) replay stays cheap, but the 10⁵ gate cell runs
    // the full two-day window: increment mode's cost is dominated by
    // horizon-independent per-tenant work (interning, close folds), so
    // a short window would understate the steady-state speedup the gate
    // is protecting. The 10⁵ sweep takes seconds per pass, so that cell
    // runs 2 rounds.
    let rates = Rates::default();
    let billing_cells: [(&str, usize, u64, u32); 3] = [
        ("billing_1e3", 1_000, 2 * 24 * 60 + 360, 3),
        ("billing_1e4", 10_000, 24 * 60 + 30, 3),
        ("billing_1e5", 100_000, 2 * 24 * 60 + 360, 2),
    ];
    let mut rss = Vec::new();
    for (name, tenants, horizon_min, rounds) in billing_cells {
        let s = build_schedule(tenants, horizon_min, derive_seed(SEED, tenants as u64));
        let (mut sweep, mut inc) = (Vec::new(), Vec::new());
        let work = sweep_event_count(&s) as f64;
        snap.group(BILLING, "samples/s")
            .measure(name, work, rounds, |side| match side {
                Side::Base => sweep = sweep_invoices(&s, rates),
                Side::Fast => inc = incremental_invoices(&s, rates),
            });
        assert_eq!(inc, sweep, "{name}: increment mode diverged from sweeps");
        if tenants >= 10_000 {
            let (peak, _) = measure_peak(|| incremental_invoices(&s, rates));
            rss.push((format!("billing_rss_1e{}", tenants.ilog10()), tenants, peak));
        }
    }

    // Monitor: pure scheduling cost over a healthy fleet. The 10⁴ scan
    // takes seconds per pass, so that cell runs 2 rounds.
    for (name, hosts, per_host, ticks, rounds) in [
        ("monitor_1e3", 250usize, 4usize, 3600u64, 3),
        ("monitor_1e4", 1_000, 10, 1_800, 2),
    ] {
        let (agents, defs) = monitor_fleet(hosts, per_host, 300);
        let agent_map: BTreeMap<String, &HostAgent> =
            agents.iter().map(|a| (a.hostname.clone(), a)).collect();
        let work = (hosts * per_host) as f64 * ticks as f64;
        // The two masters share the `add_service` / `tick` /
        // `notifications` surface.
        macro_rules! drive {
            ($master:expr) => {{
                let mut master = $master;
                for def in &defs {
                    master.add_service(def.clone());
                }
                for s in 0..ticks {
                    master.tick(SimTime(s * 1_000_000_000), &agent_map);
                }
                master.notifications.len()
            }};
        }
        let mut monitor = snap.group(MONITOR, "decisions/s");
        monitor.measure(name, work, rounds, |side| {
            let notified = match side {
                Side::Base => drive!(ScanMaster::new()),
                Side::Fast => drive!(NagiosMaster::new()),
            };
            assert_eq!(notified, 0, "healthy fleet notified");
        });
    }

    println!();
    for (name, tenants, peak) in rss {
        snap.record_memory(&name, tenants, peak);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(speedups: &[(&str, f64)]) -> Vec<Row> {
        speedups
            .iter()
            .map(|&(name, speedup)| Row::new(name, "billing", "samples/s", 1e6, speedup, 1.0))
            .collect()
    }

    fn memory(bytes_per_tenant: f64) -> Vec<MemoryPoint> {
        [("billing_rss_1e4", 10_000), ("billing_rss_1e5", 100_000)]
            .map(|(name, tenants)| MemoryPoint {
                name: name.into(),
                tenants,
                peak_bytes: (bytes_per_tenant * tenants as f64) as i64,
            })
            .into()
    }

    fn base(bytes_per_tenant: f64) -> Vec<(String, f64)> {
        let name = |p: MemoryPoint| (p.name, bytes_per_tenant);
        memory(bytes_per_tenant).into_iter().map(name).collect()
    }

    #[test]
    fn scale_floor_is_enforced() {
        let full = [
            ("billing_1e4", 60.0),
            ("billing_1e5", 80.0),
            ("monitor_1e4", 25.0),
        ];
        assert!(scale_floor_rule(&rows(&full)).is_empty());
        // billing_1e4 falls under the 10x floor and monitor_1e4 is unmeasured.
        let failures = scale_floor_rule(&rows(&[("billing_1e4", 9.9), ("billing_1e5", 80.0)]));
        assert_eq!(failures.len(), 2, "{failures:?}");
        let floor = "billing_1e4: speedup 9.90x below the 10x scale-pass floor";
        assert_eq!(failures[0], floor);
    }

    #[test]
    fn rss_growth_is_flagged() {
        assert!(memory_rule(&base(600.0), &memory(740.0)).is_empty());
        let failures = memory_rule(&base(600.0), &memory(900.0));
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(
            failures[0].contains("bytes/tenant exceeds 750.0"),
            "{failures:?}"
        );
    }

    #[test]
    fn rss_hard_cap_is_enforced_even_if_baseline_agrees() {
        let failures = memory_rule(&base(5000.0), &memory(5000.0));
        assert!(
            failures.iter().any(|f| f.contains("hard cap")),
            "{failures:?}"
        );
    }
}
