//! The perf gate of `bench_ledger`, the one binary that re-measures
//! every seed-speedup claim into `BENCH.json`.
//!
//! Each scenario is timed on a *base* side (the seed reference, the
//! serial run, or the per-tick solver) and a *fast* side (the optimized
//! path). Wall times vary across machines, so `--check` compares
//! **speedups**, which divide the machine out: a scenario regresses when
//! its measured speedup, clamped to its group's cap, falls below
//! `min(baseline, cap, ceiling) / REGRESSION_FACTOR`. Beyond the cap the
//! fast side takes milliseconds and the exact ratio is timer noise. The
//! ceiling is a limit of the checking host (the runner's core count),
//! infinite for most groups. Rules that belong to one suite stay in the
//! ledger's suite modules and add failure lines.
//!
//! The ledger takes two flags, `--out <path>` (where to write the
//! snapshot) and `--check <baseline>` (gate against a baseline). A run
//! without `--check` writes to the checked-in file; a `--check` run
//! writes only where `--out` points, and reads its baseline before it
//! measures anything. It exits 1 on a regression, an unwritable snapshot
//! or an unreadable baseline, and 2 on an unknown flag or one that lacks
//! its value.
//!
//! Snapshot schema 2; `memory` is present only when a suite records it,
//! and `work` is what one timed sample does, in `unit` × seconds:
//!
//! ```text
//! {
//!   "schema": 2,
//!   "title": "...",
//!   "scenarios": [
//!     {"name": .., "group": .., "unit": "MB/s", "work": 4, "base_ms": .., "fast_ms": .., "speedup": 1.68}
//!   ],
//!   "memory": [
//!     {"name": .., "tenants": 10000, "peak_bytes": .., "bytes_per_tenant": 688.2}
//!   ]
//! }
//! ```

use std::fmt;
use std::time::Instant;

use serde_json::Value;

/// Allowed speedup shrinkage before `--check` fails.
const REGRESSION_FACTOR: f64 = 1.25;

/// Which side of a scenario a sample runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    Base,
    Fast,
}

/// Time one scenario: warm each side up once, then run `rounds`
/// interleaved rounds and keep each side's minimum, in milliseconds.
/// Background load only ever adds time, and interleaving stops a load
/// burst from landing on one side. One closure runs both sides, so they
/// can share a buffer.
pub fn sample(rounds: u32, mut run: impl FnMut(Side)) -> (f64, f64) {
    run(Side::Base);
    run(Side::Fast);
    let mut best = [f64::INFINITY; 2];
    for _ in 0..rounds {
        for (slot, side) in best.iter_mut().zip([Side::Base, Side::Fast]) {
            let t0 = Instant::now();
            run(side);
            *slot = slot.min(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    (best[0], best[1])
}

/// One measured scenario.
#[derive(Debug)]
pub struct Row {
    pub name: String,
    pub group: String,
    /// Throughput unit, e.g. `MB/s`.
    pub unit: String,
    /// Work one sample does, in `unit` × seconds.
    pub work: f64,
    pub base_ms: f64,
    pub fast_ms: f64,
}

impl Row {
    pub fn new(name: &str, group: &str, unit: &str, work: f64, base_ms: f64, fast_ms: f64) -> Row {
        Row {
            name: name.into(),
            group: group.into(),
            unit: unit.into(),
            work,
            base_ms,
            fast_ms,
        }
    }

    pub fn speedup(&self) -> f64 {
        self.base_ms / self.fast_ms.max(1e-6)
    }
}

/// Peak live bytes of building and serving a tenant population.
#[derive(Debug)]
pub struct MemoryPoint {
    pub name: String,
    pub tenants: usize,
    pub peak_bytes: i64,
}

impl MemoryPoint {
    pub fn bytes_per_tenant(&self) -> f64 {
        self.peak_bytes as f64 / self.tenants as f64
    }
}

/// A suite's measurements, printed as they are taken.
#[derive(Debug)]
pub struct Snapshot {
    pub title: String,
    pub rows: Vec<Row>,
    pub memory: Vec<MemoryPoint>,
}

impl Snapshot {
    /// Start a snapshot and print its title and table header.
    pub fn new(title: &str) -> Snapshot {
        println!("{title}");
        println!(
            "{:<24} {:>12} {:>12} {:>9}  rate",
            "scenario", "base_ms", "fast_ms", "speedup"
        );
        Snapshot {
            title: title.into(),
            rows: Vec::new(),
            memory: Vec::new(),
        }
    }

    /// A handle that measures rows of one `group`, whose rates are in
    /// `unit`.
    pub fn group<'s>(&'s mut self, group: &'s str, unit: &'s str) -> Group<'s> {
        Group {
            snap: self,
            group,
            unit,
        }
    }

    /// Keep one memory point and print it.
    pub fn record_memory(&mut self, name: &str, tenants: usize, peak_bytes: i64) {
        let p = MemoryPoint {
            name: name.into(),
            tenants,
            peak_bytes,
        };
        let bpt = p.bytes_per_tenant();
        println!(
            "{:<24} peak {peak_bytes:>12} bytes over {tenants} tenants = {bpt:.1} bytes/tenant",
            p.name
        );
        self.memory.push(p);
    }

    /// The snapshot file's contents (schema in the module docs).
    pub fn to_json(&self) -> String {
        let q = |s: &str| serde_json::to_string(s).expect("strings serialize");
        let array = |lines: Vec<String>| format!("[\n    {}\n  ]", lines.join(",\n    "));
        let rows = self.rows.iter().map(|r| {
            format!(
                "{{\"name\": {}, \"group\": {}, \"unit\": {}, \"work\": {}, \"base_ms\": {:.3}, \"fast_ms\": {:.3}, \"speedup\": {:.2}}}",
                q(&r.name), q(&r.group), q(&r.unit), r.work, r.base_ms, r.fast_ms, r.speedup()
            )
        });
        let mut out = format!(
            "{{\n  \"schema\": 2,\n  \"title\": {},\n  \"scenarios\": {}",
            q(&self.title),
            array(rows.collect())
        );
        if !self.memory.is_empty() {
            let points = self.memory.iter().map(|p| {
                format!(
                    "{{\"name\": {}, \"tenants\": {}, \"peak_bytes\": {}, \"bytes_per_tenant\": {:.1}}}",
                    q(&p.name), p.tenants, p.peak_bytes, p.bytes_per_tenant()
                )
            });
            out += &format!(",\n  \"memory\": {}", array(points.collect()));
        }
        out + "\n}\n"
    }
}

/// Rows of one group of a [`Snapshot`]; see [`Snapshot::group`].
pub struct Group<'s> {
    snap: &'s mut Snapshot,
    group: &'s str,
    unit: &'s str,
}

impl Group<'_> {
    /// Time one scenario with [`sample`], print its row and keep it.
    /// `work` is what one run of a side does, in `unit` × seconds.
    pub fn measure(&mut self, name: &str, work: f64, rounds: u32, run: impl FnMut(Side)) {
        let (base_ms, fast_ms) = sample(rounds, run);
        let r = Row::new(name, self.group, self.unit, work, base_ms, fast_ms);
        let rate = |ms: f64| match work / (ms / 1e3) {
            x if x < 100.0 => format!("{x:.2}"),
            x => format!("{x:.0}"),
        };
        let (base, fast) = (rate(base_ms), rate(fast_ms));
        println!(
            "{name:<24} {base_ms:>12.3} {fast_ms:>12.3} {:>8.2}x  {base} → {fast} {}",
            r.speedup(),
            self.unit
        );
        self.snap.rows.push(r);
    }
}

/// Why a baseline snapshot cannot be checked.
#[derive(Debug, PartialEq)]
pub enum GateError {
    /// The text does not parse as JSON.
    NotJson(String),
    /// `what` lacks the field `field`, or it has the wrong type.
    Missing { what: String, field: &'static str },
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::NotJson(e) => write!(f, "baseline is not JSON: {e}"),
            GateError::Missing { what, field } => write!(f, "{what} lacks {field}"),
        }
    }
}

fn missing(what: &str, field: &'static str) -> GateError {
    GateError::Missing {
        what: what.into(),
        field,
    }
}

/// The array under `key`: `None` when absent, an error when not an array.
fn array<'v>(value: &'v Value, key: &'static str) -> Result<Option<&'v Vec<Value>>, GateError> {
    let array = |v: &'v Value| v.as_array().ok_or_else(|| missing("baseline", key));
    value.get(key).map(array).transpose()
}

fn str_field(entry: &Value, what: &str, field: &'static str) -> Result<String, GateError> {
    let text = entry.get(field).and_then(Value::as_str);
    text.map(str::to_string).ok_or_else(|| missing(what, field))
}

fn num_field(entry: &Value, what: &str, field: &'static str) -> Result<f64, GateError> {
    let num = entry.get(field).and_then(Value::as_f64);
    num.ok_or_else(|| missing(what, field))
}

/// One scenario of a baseline: what the checks read.
#[derive(Debug)]
pub struct BaselineScenario {
    pub name: String,
    pub group: String,
    pub speedup: f64,
}

/// A parsed baseline snapshot.
#[derive(Debug)]
pub struct Baseline {
    pub scenarios: Vec<BaselineScenario>,
    /// `(name, bytes_per_tenant)` of each memory point, when present.
    memory: Option<Vec<(String, f64)>>,
}

impl Baseline {
    pub fn parse(text: &str) -> Result<Baseline, GateError> {
        let value: Value =
            serde_json::from_str(text).map_err(|e| GateError::NotJson(e.to_string()))?;
        let scenarios = array(&value, "scenarios")?
            .ok_or_else(|| missing("baseline", "scenarios"))?
            .iter()
            .map(|e| {
                let name = str_field(e, "a scenario", "name")?;
                let what = format!("scenario {name}");
                Ok(BaselineScenario {
                    group: str_field(e, &what, "group")?,
                    speedup: num_field(e, &what, "speedup")?,
                    name,
                })
            })
            .collect::<Result<_, GateError>>()?;
        let memory = array(&value, "memory")?
            .map(|points| {
                let point = |e: &Value| {
                    let name = str_field(e, "a memory point", "name")?;
                    let what = format!("memory point {name}");
                    Ok((name, num_field(e, &what, "bytes_per_tenant")?))
                };
                points.iter().map(point).collect::<Result<_, GateError>>()
            })
            .transpose()?;
        Ok(Baseline { scenarios, memory })
    }

    /// `(name, bytes_per_tenant)` of each memory point; an error when the
    /// baseline has no memory array.
    pub fn memory(&self) -> Result<&[(String, f64)], GateError> {
        self.memory
            .as_deref()
            .ok_or_else(|| missing("baseline", "memory"))
    }

    /// A snapshot whose speedups and bytes per tenant equal this
    /// baseline's: what `--check` sees on a host that reproduces it.
    pub fn replay(&self) -> Snapshot {
        let row = |s: &BaselineScenario| Row::new(&s.name, &s.group, "", 1.0, s.speedup, 1.0);
        let point = |(name, bpt): &(String, f64)| MemoryPoint {
            name: name.clone(),
            tenants: 10,
            peak_bytes: (bpt * 10.0).round() as i64,
        };
        Snapshot {
            title: String::new(),
            rows: self.scenarios.iter().map(row).collect(),
            memory: self.memory.iter().flatten().map(point).collect(),
        }
    }
}

/// The ratio check. Every baseline scenario must be measured, and its
/// measured speedup, clamped to its group's `cap`, must reach
/// `min(baseline, cap, ceiling) / REGRESSION_FACTOR`; `ceiling` returns
/// `f64::INFINITY` for a group without one. Returns one failure line per
/// regression (empty = pass).
pub fn check_speedups(
    baseline: &Baseline,
    snap: &Snapshot,
    cap: impl Fn(&str) -> f64,
    ceiling: impl Fn(&str) -> f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for BaselineScenario {
        name,
        group,
        speedup,
    } in &baseline.scenarios
    {
        let Some(row) = snap.rows.iter().find(|r| &r.name == name) else {
            failures.push(format!("scenario {name} in baseline but not measured"));
            continue;
        };
        let cap = cap(group);
        let limit = cap.min(ceiling(group));
        let floor = speedup.min(limit) / REGRESSION_FACTOR;
        let measured = row.speedup();
        if measured.min(cap) < floor {
            failures.push(format!(
                "{name}: speedup {measured:.2}x fell below {floor:.2}x (baseline {speedup:.2}x capped at {limit:.2}x / {REGRESSION_FACTOR})"
            ));
        }
    }
    failures
}

/// Print `message` and exit 1: the gate's failure exit.
pub fn fail(message: String) -> ! {
    eprintln!("{message}");
    std::process::exit(1);
}

/// The ledger's flags: `--out <path>` and `--check <baseline>`, with the
/// baseline read before anything is measured.
#[derive(Debug)]
pub struct Cli {
    out: Option<String>,
    check: Option<(String, Baseline)>,
}

/// `(out, check)` paths from the argument list. A run without `--check`
/// writes to `default_out`; a `--check` run writes only where `--out`
/// points, so it can never overwrite the baseline it checks against.
fn parse_flags(
    args: &[String],
    default_out: &str,
) -> Result<(Option<String>, Option<String>), String> {
    let (mut out, mut check) = (None, None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag, Some(value)),
            None => (arg.as_str(), None),
        };
        let slot = match flag {
            "--out" => &mut out,
            "--check" => &mut check,
            _ => {
                return Err(format!(
                    "unknown argument {arg:?}: the flags are --out <path> and --check <baseline>"
                ))
            }
        };
        let value = inline.or_else(|| it.next().map(String::as_str));
        *slot = Some(
            value
                .ok_or(format!("{flag} requires a path argument"))?
                .to_string(),
        );
    }
    if check.is_none() {
        out.get_or_insert_with(|| default_out.to_string());
    }
    Ok((out, check))
}

impl Cli {
    /// Parse the flags, exiting 2 on a usage error, then read and parse
    /// the `--check` baseline, exiting 1 when that fails.
    pub fn from_args(args: &[String], default_out: &str) -> Cli {
        let (out, check) = parse_flags(args, default_out).unwrap_or_else(crate::usage_error);
        let check = check.map(|path| {
            let baseline = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read baseline {path}: {e}"))
                .and_then(|text| {
                    Baseline::parse(&text).map_err(|e| format!("cannot check baseline {path}: {e}"))
                })
                .unwrap_or_else(|e| fail(e));
            (path, baseline)
        });
        Cli { out, check }
    }

    /// Write the snapshot where `--out` points, then, with `--check`, run
    /// `check` against the baseline. Prints each failure as a
    /// `REGRESSION:` line; exits 1 on any failure or an unwritable
    /// snapshot.
    pub fn finish(
        &self,
        snapshot: &Snapshot,
        check: impl FnOnce(&Baseline, &Snapshot) -> Result<Vec<String>, GateError>,
    ) {
        if let Some(out) = &self.out {
            if let Err(e) = std::fs::write(out, snapshot.to_json()) {
                fail(format!("cannot write {out}: {e}"));
            }
            println!("\nsnapshot written to {out}");
        }
        let Some((path, baseline)) = &self.check else {
            return;
        };
        let failures = check(baseline, snapshot)
            .unwrap_or_else(|e| fail(format!("cannot check baseline {path}: {e}")));
        for f in &failures {
            eprintln!("REGRESSION: {f}");
        }
        if !failures.is_empty() {
            std::process::exit(1);
        }
        println!("check vs {path}: every gate holds");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(rows: &[(&str, f64)]) -> Snapshot {
        let row = |&(name, speedup): &(&str, f64)| Row::new(name, "g", "MB/s", 4.0, speedup, 1.0);
        Snapshot {
            title: String::new(),
            rows: rows.iter().map(row).collect(),
            memory: Vec::new(),
        }
    }

    /// Failure lines of `measured` against a baseline written from `base`.
    fn gate(base: &[(&str, f64)], measured: &[(&str, f64)], cap: f64, ceiling: f64) -> Vec<String> {
        let baseline = Baseline::parse(&snapshot(base).to_json()).expect("parses");
        check_speedups(&baseline, &snapshot(measured), |_| cap, |_| ceiling)
    }

    const NONE: f64 = f64::INFINITY;

    #[test]
    fn snapshot_round_trips_through_check() {
        let mut snap = snapshot(&[("a", 10.0), ("b", 2.5)]);
        snap.memory.push(MemoryPoint {
            name: "rss".into(),
            tenants: 10_000,
            peak_bytes: 6_881_730,
        });
        let base = Baseline::parse(&snap.to_json()).expect("parses");
        assert_eq!(
            (base.scenarios[1].speedup, &*base.scenarios[1].group),
            (2.5, "g")
        );
        assert_eq!(base.memory(), Ok(&[("rss".to_string(), 688.2)][..]));
        assert!(check_speedups(&base, &snap, |_| 10.0, |_| NONE).is_empty());
        assert!(check_speedups(&base, &base.replay(), |_| 10.0, |_| NONE).is_empty());
    }

    #[test]
    fn regression_is_flagged() {
        // 10x baseline vs 5x measured: below 10 / 1.25 = 8x.
        let failures = gate(&[("a", 10.0)], &[("a", 5.0)], 10.0, NONE);
        assert_eq!(failures.len(), 1);
        assert!(
            failures[0].starts_with("a: speedup 5.00x fell below 8.00x"),
            "{failures:?}"
        );
    }

    #[test]
    fn speedups_above_the_cap_compare_clamped() {
        // 300x baseline vs 40x measured: both beyond the cap, so the swing
        // is timer noise and passes; a fall below the capped floor fails.
        assert!(gate(&[("a", 300.0)], &[("a", 40.0)], 10.0, NONE).is_empty());
        assert_eq!(gate(&[("a", 300.0)], &[("a", 7.9)], 10.0, NONE).len(), 1);
    }

    #[test]
    fn missing_scenario_is_flagged() {
        let failures = gate(&[("a", 2.0), ("b", 2.0)], &[("a", 2.0)], 10.0, NONE);
        assert_eq!(failures, ["scenario b in baseline but not measured"]);
    }

    #[test]
    fn malformed_baselines_are_typed_errors() {
        let parse = |text: &str| Baseline::parse(text).map(|_| ());
        assert!(matches!(parse("{not json"), Err(GateError::NotJson(_))));
        assert_eq!(
            parse("{\"schema\": 2}"),
            Err(missing("baseline", "scenarios"))
        );
        assert_eq!(
            parse("{\"scenarios\": [{\"name\": \"a\", \"group\": \"g\"}]}"),
            Err(missing("scenario a", "speedup"))
        );
        assert_eq!(
            parse("{\"scenarios\": [], \"memory\": [{\"name\": \"m\"}]}"),
            Err(missing("memory point m", "bytes_per_tenant"))
        );
        let no_memory = Baseline::parse(&snapshot(&[]).to_json()).expect("parses");
        assert_eq!(no_memory.memory(), Err(missing("baseline", "memory")));
    }

    #[test]
    fn runner_floor_tracks_host_cores() {
        // The runner rows' shape: cap 8x, ceiling 0.8 x host cores.
        let runner = |base, measured, cores: f64| {
            gate(&[("grid", base)], &[("grid", measured)], 8.0, 0.8 * cores)
        };
        // 4-core host: floor = min(3.57, 0.8 * 4) / 1.25 = 2.56x.
        assert!(runner(3.57, 3.57, 4.0).is_empty());
        assert_eq!(runner(3.57, 1.1, 4.0).len(), 1);
        // 1-core host vs a 6x baseline from a big box: floor = 0.8 / 1.25
        // = 0.64x, so ~1x passes but a 2x pool slowdown still fails.
        assert!(runner(6.0, 1.0, 1.0).is_empty());
        assert_eq!(runner(6.0, 0.5, 1.0).len(), 1);
    }

    #[test]
    fn cli_flags_parse_and_require_values() {
        let parse = |v: &[&str]| {
            let args: Vec<String> = v.iter().map(|s| s.to_string()).collect();
            parse_flags(&args, "BENCH_x.json")
        };
        let some = |s: &str| Some(s.to_string());
        assert_eq!(parse(&[]), Ok((some("BENCH_x.json"), None)));
        assert_eq!(
            parse(&["--out=o.json", "--check", "b.json"]),
            Ok((some("o.json"), some("b.json")))
        );
        // A check run writes nowhere unless --out says where.
        assert_eq!(parse(&["--check", "b.json"]), Ok((None, some("b.json"))));
        assert!(parse(&["--check"]).is_err());
        assert!(parse(&["--check", "b.json", "--out"]).is_err());
        assert!(parse(&["--jobs", "2"]).is_err());
    }

    #[test]
    fn sampler_warms_up_then_interleaves() {
        let mut calls = Vec::new();
        let (base, fast) = sample(2, |side| calls.push(side));
        use Side::{Base, Fast};
        assert_eq!(calls, [Base, Fast, Base, Fast, Base, Fast]);
        assert!(base.is_finite() && fast.is_finite());
    }
}
