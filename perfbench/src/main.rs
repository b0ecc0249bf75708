//! The repository benchmark: three seeded closed-loop workloads driven
//! through the crates' public APIs on `osdc_telemetry::run_sharded`.
//!
//! ```text
//! perfbench --workload <wan_transfer|tenant_scale|federation_ops>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--jobs <workers>] [--digests <file>] [--spans-out <file>]
//! ```
//!
//! A run generates the workload's job list from the seed (`setup_s`),
//! then runs rounds of the whole list until `--seconds` have passed.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs rounds
//! of an untraced and a traced pass in turn (plus a telemetry-off pass
//! where the workload runs with telemetry on) and reports the per-layer
//! metrics. Timed metrics read CPU clocks (see `cpu`), so
//! other processes and hypervisor steal do not count, and are scaled by
//! the host's speed as a reference kernel measures it (see `speed`);
//! `--seconds` is wall time. Output checks and digests run outside the timed
//! rounds. The last stdout line is one JSON object; a failed check or a
//! digest that differs from the recorded one makes the exit status 1.
//! See `perfbench/README.md` for what each metric means.

mod cpu;
mod federation;
mod speed;
mod tenant;
mod trace;
mod wan;

use std::collections::{BTreeMap, HashMap};
use std::process::ExitCode;
use std::thread::ThreadId;
use std::time::Instant;

use counting_alloc::{measure_peak, CountingAlloc};
use osdc_crypto::sha256::{to_hex, Sha256};
use osdc_telemetry::Telemetry;

use trace::{Counts, LayerTimes, Span, Tracer};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

extern "C" {
    /// glibc: give the heap's free memory back to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Set-up is repeated at least `SETUP_MIN_REPEATS` times and until
/// `SETUP_MIN_SECONDS` of wall time have passed, and the median CPU
/// time reported.
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MIN_SECONDS: f64 = 1.0;
/// Probes run before and after each set-up, to scale it by host speed.
const SETUP_PROBES: usize = 4;

/// What a job gets from the harness: its tracer, its counters and the
/// telemetry shard `run_sharded` gave it.
pub struct Cx<'a> {
    pub t: Tracer,
    pub counts: Counts,
    pub tele: &'a Telemetry,
}

/// A fast two-lane 128-bit hash of simulated results; floats enter as
/// their bit patterns, so a one-ulp change shows. Cheap enough to run on
/// the worker right after each job.
pub struct Hash(u64, u64);

impl Default for Hash {
    fn default() -> Self {
        Hash(0x243F_6A88_85A3_08D3, 0x1319_8A2E_0370_7344)
    }
}

impl Hash {
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
        self.1 = (self.1.wrapping_add(v) ^ (self.1 >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        self
    }
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.u64(u64::from_le_bytes(w));
        }
        self
    }
    pub fn finish(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.0.to_le_bytes());
        out[8..].copy_from_slice(&self.1.to_le_bytes());
        out
    }
}

/// One workload: a fixed job list built from a seed.
pub trait Workload: Sync {
    /// What a job returns.
    type Out: Send;
    /// What the output checks need of it.
    type Kept: Send;
    fn job_count(&self) -> usize;
    /// Job kind, for the host-time split printed with every run.
    fn kind(&self, i: usize) -> &'static str;
    /// Whether the program's telemetry is on, as operators run it.
    fn telemetry(&self) -> bool {
        false
    }
    /// Run job `i`; in a traced pass the tracer records each call.
    fn run(&self, i: usize, cx: &mut Cx) -> Self::Out;
    /// Runs on the worker after the job's clock stops: hash the job's
    /// simulated results (never wall times) and keep what `check` needs.
    fn settle(&self, i: usize, out: Self::Out) -> ([u8; 16], Self::Kept);
    /// Output check, run after the timed rounds.
    fn check(&self, i: usize, kept: &Self::Kept) -> Result<(), String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    jobs: usize,
    digests: Option<String>,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let Some(name) = k.strip_prefix("--") else {
            return Err(format!("unexpected argument {k:?}"));
        };
        let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        kv.insert(name.to_string(), v);
    }
    let take = |k: &str| kv.get(k).cloned();
    let num = |k: &str| -> Result<Option<f64>, String> {
        take(k)
            .map(|v| {
                v.parse::<f64>()
                    .map_err(|_| format!("--{k}: not a number: {v:?}"))
            })
            .transpose()
    };
    for k in kv.keys() {
        if ![
            "workload",
            "seed",
            "seconds",
            "trace",
            "jobs",
            "digests",
            "spans-out",
        ]
        .contains(&k.as_str())
        {
            return Err(format!("unknown option --{k}"));
        }
    }
    let seconds = num("seconds")?.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let jobs = num("jobs")?
        .map(|j| j as usize)
        .unwrap_or_else(osdc_sim::available_jobs);
    Ok(Args {
        workload: take("workload").ok_or("--workload is required")?,
        seed: take("seed")
            .map(|s| s.parse::<u64>().map_err(|_| format!("--seed: {s:?}")))
            .transpose()?
            .unwrap_or(1),
        seconds,
        trace: match take("trace").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("--trace must be 0 or 1, got {v:?}")),
        },
        jobs: jobs.max(1),
        digests: take("digests"),
        spans_out: take("spans-out"),
    })
}

/// One job's record from one round. `end` is in wall nanoseconds since
/// the timed section began; `cpu` is the job's thread CPU time, `probe`
/// the thread CPU time of the speed probe run just before it, and
/// `cpu_after` the worker thread's CPU clock once the job settled.
struct JobRec<O> {
    kind: &'static str,
    end: u64,
    cpu: u64,
    probe: u64,
    cpu_after: u64,
    worker: ThreadId,
    peak: i64,
    digest: [u8; 16],
    kept: O,
    spans: Vec<Span>,
    counts: Counts,
}

/// Everything one timed pass (a sequence of rounds) measured.
struct Pass<O> {
    rounds: usize,
    wall_s: f64,
    /// Per round: CPU nanoseconds on the round's critical path.
    round_cpu_ns: Vec<u64>,
    /// Per round: how many times slower than its reference the host ran.
    slowdown: Vec<f64>,
    /// Thread CPU nanoseconds of every job of every round, round by
    /// round, each round in job order.
    job_ns: Vec<u64>,
    /// Per job index: the largest marginal heap peak over the rounds.
    peaks: Vec<i64>,
    /// Outputs and digests of the first round, for checks.
    first: Vec<O>,
    digests: Vec<[u8; 16]>,
    /// Jobs whose digest differed from the first round's.
    drifted: usize,
    host_by_kind: BTreeMap<&'static str, u64>,
    layers: LayerTimes,
    counts: Counts,
    runner_busy_ns: u64,
    tail_idle_ns: u64,
    export_s: f64,
    events: u64,
    dropped: u64,
    spans: Vec<(usize, Vec<Span>)>,
}

/// What one round measured.
struct Round<O> {
    /// Job records in job order.
    recs: Vec<JobRec<O>>,
    wall_ns: u64,
    /// Wall time since the timed section began at which the last job
    /// ended.
    jobs_end: u64,
    /// The round's critical path in CPU time: the main thread's own
    /// work (spawning workers, merging shards, exporting) plus the
    /// busiest worker's CPU time. With no other process and no steal
    /// this is the round's wall time, less the speed probes.
    cpu_ns: u64,
    slowdown: f64,
    export_s: f64,
    events: u64,
    dropped: u64,
}

/// Run one round of every job on `workers` workers.
fn round<W: Workload>(
    w: &W,
    workers: usize,
    traced: bool,
    tele_on: bool,
    origin: Instant,
) -> Round<W::Kept> {
    let main_cpu0 = cpu::thread_ns();
    let parent = if tele_on {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    };
    let t0 = origin.elapsed().as_nanos() as u64;
    let tasks: Vec<_> = (0..w.job_count())
        .map(|i| {
            move |tele: &Telemetry, _: usize| {
                let probe = speed::probe();
                let cpu0 = cpu::thread_ns();
                let (peak, (out, t, counts)) = measure_peak(|| {
                    let mut cx = Cx {
                        t: Tracer::new(traced, origin),
                        counts: Counts::default(),
                        tele,
                    };
                    cx.t.enter("job");
                    let out = w.run(i, &mut cx);
                    cx.t.exit();
                    (out, cx.t, cx.counts)
                });
                let cpu1 = cpu::thread_ns();
                let end = origin.elapsed().as_nanos() as u64;
                let (digest, kept) = w.settle(i, out);
                JobRec {
                    kind: w.kind(i),
                    end,
                    cpu: cpu1 - cpu0,
                    probe,
                    cpu_after: cpu::thread_ns(),
                    worker: std::thread::current().id(),
                    peak,
                    digest,
                    kept,
                    spans: t.into_spans(),
                    counts,
                }
            }
        })
        .collect();
    let recs = osdc_telemetry::run_sharded(workers, &parent, tasks);
    let jobs_end = recs.iter().map(|r| r.end).max().unwrap_or(t0);
    // With telemetry on, `run_sharded` merges the shards after the last
    // job ends; that merge and the round's export close the round. They
    // count toward throughput, not toward any job's latency.
    let (mut export_s, mut events, mut dropped) = (0.0, 0, 0);
    if tele_on {
        let merged = origin.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let jsonl = std::hint::black_box(parent.export_jsonl());
        let report = std::hint::black_box(parent.ops_report());
        export_s = t.elapsed().as_secs_f64() + (merged - jobs_end) as f64 / 1e9;
        events = parent.trace_len() as u64;
        dropped = dropped_events(&jsonl);
        drop(report);
    }
    let end = origin.elapsed().as_nanos() as u64;
    // A spawned worker's CPU clock starts at zero, so its last reading is
    // all the CPU it used this round. With one worker the jobs run on the
    // main thread, whose own clock already covers them. The probes are
    // the benchmark's, not the program's: they leave the critical path.
    let main = std::thread::current().id();
    let mut worker_cpu: HashMap<ThreadId, (u64, u64)> = HashMap::new();
    let mut main_probes = 0;
    for r in &recs {
        if r.worker == main {
            main_probes += r.probe;
            continue;
        }
        let c = worker_cpu.entry(r.worker).or_default();
        c.0 = c.0.max(r.cpu_after);
        c.1 += r.probe;
    }
    let busiest = worker_cpu.values().map(|&(c, p)| c - p).max().unwrap_or(0);
    let cpu_ns = cpu::thread_ns() - main_cpu0 - main_probes + busiest;
    let slowdown = speed::slowdown(recs.iter().map(|r| r.probe).sum(), recs.len());
    Round {
        recs,
        wall_ns: end - t0,
        jobs_end,
        cpu_ns,
        slowdown,
        export_s,
        events,
        dropped,
    }
}

/// The `dropped_events` figure of an exported trace.
fn dropped_events(jsonl: &str) -> u64 {
    let key = "\"dropped_events\":";
    jsonl
        .find(key)
        .map(|p| {
            jsonl[p + key.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
        })
        .and_then(|d| d.parse().ok())
        .unwrap_or(0)
}

impl<O> Pass<O> {
    fn new(jobs: usize) -> Self {
        Pass {
            rounds: 0,
            wall_s: 0.0,
            round_cpu_ns: Vec::new(),
            slowdown: Vec::new(),
            job_ns: Vec::new(),
            peaks: vec![0; jobs],
            first: Vec::new(),
            digests: Vec::new(),
            drifted: 0,
            host_by_kind: BTreeMap::new(),
            layers: LayerTimes::default(),
            counts: Counts::default(),
            runner_busy_ns: 0,
            tail_idle_ns: 0,
            export_s: 0.0,
            events: 0,
            dropped: 0,
            spans: Vec::new(),
        }
    }

    fn add_round(&mut self, r: Round<O>, workers: usize, keep_spans: bool) {
        let p = self;
        let jobs = r.recs.len();
        p.wall_s += r.wall_ns as f64 / 1e9;
        p.round_cpu_ns.push(r.cpu_ns);
        p.slowdown.push(r.slowdown);
        p.export_s += r.export_s;
        p.events += r.events;
        p.dropped += r.dropped;
        let mut last_end: HashMap<ThreadId, u64> = HashMap::new();
        for (i, r) in r.recs.into_iter().enumerate() {
            let ns = r.cpu;
            p.job_ns.push(ns);
            p.runner_busy_ns += ns;
            *p.host_by_kind.entry(r.kind).or_default() += ns;
            p.peaks[i] = p.peaks[i].max(r.peak);
            let e = last_end.entry(r.worker).or_default();
            *e = (*e).max(r.end);
            p.layers.add_job(&r.spans);
            p.counts.merge(&r.counts);
            if keep_spans && p.rounds == 0 {
                p.spans.push((i, r.spans));
            }
            if p.rounds == 0 {
                p.digests.push(r.digest);
                p.first.push(r.kept);
            } else if p.digests[i] != r.digest {
                p.drifted += 1;
            }
        }
        let idle_workers = workers.min(jobs).saturating_sub(last_end.len()) as u64;
        p.tail_idle_ns += last_end
            .values()
            .map(|&e| r.jobs_end.saturating_sub(e))
            .sum::<u64>()
            + idle_workers * r.wall_ns;
        p.rounds += 1;
    }
}

/// How one pass runs its rounds.
#[derive(Clone, Copy)]
struct Mode {
    traced: bool,
    tele_on: bool,
    keep_spans: bool,
}

/// Run one round of each pass in turn until the rounds' wall time adds
/// up to `seconds`. Interleaving the passes puts the ones a traced run
/// compares under the same host conditions.
fn run_passes<W: Workload>(
    w: &W,
    workers: usize,
    seconds: f64,
    modes: &[Mode],
) -> Vec<Pass<W::Kept>> {
    let origin = Instant::now();
    let mut passes: Vec<Pass<W::Kept>> = modes.iter().map(|_| Pass::new(w.job_count())).collect();
    while passes[0].rounds == 0 || passes.iter().map(|p| p.wall_s).sum::<f64>() < seconds {
        for (m, p) in modes.iter().zip(&mut passes) {
            let r = round(w, workers, m.traced, m.tele_on, origin);
            p.add_round(r, workers, m.keep_spans);
        }
    }
    passes
}

fn percentile(sorted: &[u64], q: f64) -> f64 {
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx] as f64
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Digests recorded with the benchmark: `workload seed hex` per line.
fn recorded_digest(path: &str, workload: &str, seed: u64) -> Result<Option<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() == 3 && f[0] == workload && f[1] == seed.to_string()).then(|| f[2].to_string())
        })
        .next())
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
fn emit(correct: bool, attempted: usize, failed: usize, metrics: &[(String, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        "wan_transfer" => bench(&args, wan::Wan::setup),
        "tenant_scale" => bench(&args, tenant::TenantScale::setup),
        "federation_ops" => bench(&args, federation::Federation::setup),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            ExitCode::from(2)
        }
    }
}

fn bench<W: Workload>(args: &Args, setup: fn(u64) -> W) -> ExitCode {
    let name = args.workload.as_str();
    let mut setup_times = Vec::new();
    let mut w = None;
    let started = Instant::now();
    while setup_times.len() < SETUP_MIN_REPEATS
        || started.elapsed().as_secs_f64() < SETUP_MIN_SECONDS
    {
        drop(w.take());
        // Every set-up starts from a cold heap, as the one in a fresh
        // process does; otherwise whether the last one's freed pages
        // are still mapped hangs on allocation order, and a set-up
        // costs half as much or twice as much from one build to the next.
        // SAFETY: glibc's `malloc_trim` only returns free memory.
        unsafe { malloc_trim(0) };
        let before: u64 = (0..SETUP_PROBES).map(|_| speed::probe()).sum();
        let t = cpu::process_ns();
        w = Some(std::hint::black_box(setup(args.seed)));
        let cpu_s = (cpu::process_ns() - t) as f64 / 1e9;
        let after: u64 = (0..SETUP_PROBES).map(|_| speed::probe()).sum();
        setup_times.push(cpu_s / speed::slowdown(before + after, 2 * SETUP_PROBES));
    }
    let w = w.expect("set up at least once");
    let setup_s = median(setup_times);
    println!(
        "workload {name}: seed {}, {} jobs per round, {} workers",
        args.seed,
        w.job_count(),
        args.jobs
    );

    let tele_on = w.telemetry();
    // A traced run adds a traced pass and, where the workload runs with
    // telemetry on, a pass of the same jobs with telemetry off.
    let mut modes = vec![Mode {
        traced: false,
        tele_on,
        keep_spans: false,
    }];
    if args.trace {
        modes.push(Mode {
            traced: true,
            tele_on,
            keep_spans: args.spans_out.is_some(),
        });
        if tele_on {
            modes.push(Mode {
                traced: false,
                tele_on: false,
                keep_spans: false,
            });
        }
    }
    let mut passes = run_passes(&w, args.jobs, args.seconds, &modes).into_iter();
    let main = passes.next().expect("the untraced pass");
    let traced = passes.next();
    let tele_off = passes.next();

    // ---- output checks (outside every timed round) ----
    let mut failed_jobs = 0usize;
    let mut check_pass = |p: &Pass<W::Kept>, label: &str| {
        let mut bad = 0usize;
        for (i, out) in p.first.iter().enumerate() {
            if let Err(why) = w.check(i, out) {
                eprintln!(
                    "{name}: {label} job {i} ({}) failed its check: {why}",
                    w.kind(i)
                );
                bad += 1;
            }
        }
        if p.drifted > 0 {
            eprintln!(
                "{name}: {label}: {} job result(s) changed between rounds",
                p.drifted
            );
        }
        failed_jobs += bad * p.rounds + p.drifted;
    };
    check_pass(&main, "untraced pass");
    if let Some(t) = &traced {
        check_pass(t, "traced pass");
        // The traced pass drives some jobs through finer-grained calls;
        // their simulated results must equal the product path's.
        for (i, (a, b)) in main.digests.iter().zip(&t.digests).enumerate() {
            if a != b {
                eprintln!(
                    "{name}: job {i} ({}): traced decomposition differs from the product call",
                    w.kind(i)
                );
                failed_jobs += 1;
            }
        }
    }
    let mut h = Sha256::new();
    for d in &main.digests {
        h.update(d);
    }
    let digest = to_hex(&h.finalize());
    println!("digest {name} seed {}: {digest}", args.seed);
    let mut digest_ok = true;
    if let Some(path) = &args.digests {
        match recorded_digest(path, name, args.seed) {
            Ok(Some(want)) if want != digest => {
                eprintln!(
                    "{name}: digest mismatch for seed {}: recorded {want}, got {digest}",
                    args.seed
                );
                digest_ok = false;
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!("{name}: cannot read recorded digests: {e}");
                digest_ok = false;
            }
        }
    }

    let attempted = main.job_ns.len() + traced.as_ref().map_or(0, |t| t.job_ns.len());
    let failed = failed_jobs.min(attempted);
    let correct = failed == 0 && digest_ok;
    let failed_ratio = failed as f64 / attempted as f64;

    let host: u64 = main.host_by_kind.values().sum();
    let split: Vec<String> = main
        .host_by_kind
        .iter()
        .map(|(k, ns)| format!("{k} {:.0}%", 100.0 * *ns as f64 / host as f64))
        .collect();
    println!(
        "{} rounds, {} jobs, {:.3} s timed, {:.3} s of it on the CPU critical path; host time by job kind: {}",
        main.rounds,
        main.job_ns.len(),
        main.wall_s,
        main.round_cpu_ns.iter().sum::<u64>() as f64 / 1e9,
        split.join(", ")
    );
    println!("failed_ratio: {failed_ratio} (fraction)");
    let (raw_rate, raw_p50, raw_p90) = timings(&main, false);
    println!(
        "host slowdown {:.3} (median over rounds); unscaled CPU-clock figures: jobs_per_s {raw_rate:.4}, job_p50_ms {raw_p50:.4}, job_p90_ms {raw_p90:.4}",
        median(main.slowdown.clone())
    );

    let metrics = match &traced {
        None => end_to_end(&main, args.jobs, setup_s),
        Some(t) => {
            if let Some(path) = &args.spans_out {
                if let Err(e) = write_spans(path, name, t) {
                    eprintln!("{name}: cannot write spans to {path}: {e}");
                }
            }
            // Same jobs, telemetry on and off: the tracing cost ratio.
            let overhead = tele_off.map_or(0.0, |off| mean_job_ns(&main) / mean_job_ns(&off));
            per_layer(&main, t, args.jobs, overhead)
        }
    };
    for (n, v, u) in &metrics {
        println!("  {n} = {v} {u}");
    }
    emit(correct, attempted, failed, &metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `jobs_per_s`, `job_p50_ms` and `job_p90_ms` of a pass. With `scaled`
/// every round's times are divided by that round's host slowdown.
fn timings<O>(p: &Pass<O>, scaled: bool) -> (f64, f64, f64) {
    let n = p.job_ns.len() / p.rounds;
    let f = |r: usize| if scaled { p.slowdown[r] } else { 1.0 };
    // Every round runs the same job list: jobs per second of a round's
    // critical path, median over the rounds.
    let round_s = (0..p.rounds)
        .map(|r| p.round_cpu_ns[r] as f64 / 1e9 / f(r))
        .collect();
    let jobs_per_s = n as f64 / median(round_s);
    // A job's time is its median over the rounds, so host noise that
    // hits fewer than half of the rounds moves no job.
    let mut ns: Vec<u64> = (0..n)
        .map(|i| {
            median(
                (0..p.rounds)
                    .map(|r| p.job_ns[r * n + i] as f64 / f(r))
                    .collect(),
            ) as u64
        })
        .collect();
    ns.sort_unstable();
    (
        jobs_per_s,
        percentile(&ns, 0.50) / 1e6,
        percentile(&ns, 0.90) / 1e6,
    )
}

/// Mean job time, scaled by each round's host slowdown.
fn mean_job_ns<O>(p: &Pass<O>) -> f64 {
    let n = p.job_ns.len() / p.rounds;
    p.job_ns
        .iter()
        .enumerate()
        .map(|(k, &ns)| ns as f64 / p.slowdown[k / n])
        .sum::<f64>()
        / p.job_ns.len() as f64
}

fn end_to_end<O>(p: &Pass<O>, workers: usize, setup_s: f64) -> Vec<(String, f64, &'static str)> {
    let (jobs_per_s, p50_ms, p90_ms) = timings(p, true);
    let mut peaks = p.peaks.clone();
    peaks.sort_unstable_by(|a, b| b.cmp(a));
    // Up to `workers` jobs are live at once; their largest peaks bound
    // the concurrent working heap.
    let peak: i64 = peaks.iter().take(workers).sum();
    vec![
        ("jobs_per_s".into(), jobs_per_s, "jobs/s"),
        ("job_p50_ms".into(), p50_ms, "ms"),
        ("job_p90_ms".into(), p90_ms, "ms"),
        (
            "peak_live_mb".into(),
            peak as f64 / (1024.0 * 1024.0),
            "MiB",
        ),
        ("setup_s".into(), setup_s, "s"),
    ]
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Every per-layer metric; a layer the workload never calls reads 0.
fn per_layer<O>(
    untraced: &Pass<O>,
    t: &Pass<O>,
    workers: usize,
    telemetry_overhead: f64,
) -> Vec<(String, f64, &'static str)> {
    let l = &t.layers;
    let c = &t.counts;
    let r = t.rounds as f64;
    let busy = |p: &str| l.busy_s(p) / r;
    let count = |k: &str| c.get(k) / r;
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |n: &str, v: f64, u: &'static str| m.push((n.to_string(), v, u));

    put("runner.busy_s", t.runner_busy_ns as f64 / 1e9 / r, "s");
    put(
        "runner.efficiency",
        ratio(t.runner_busy_ns as f64 / 1e9, workers as f64 * t.wall_s),
        "ratio",
    );
    put("runner.tail_idle_s", t.tail_idle_ns as f64 / 1e9 / r, "s");

    put("session.calls", count("session.calls"), "count");
    put("session.busy_s", busy("session."), "s");
    put(
        "session.ns_per_sim_s",
        ratio(l.busy_s("session.") * 1e9, c.get("session.sim_s")),
        "ns/sim_s",
    );

    put("sync.plan.busy_s", busy("sync.plan"), "s");
    put("sync.signatures.busy_s", busy("sync.signatures"), "s");
    put(
        "sync.signatures.mb_s",
        ratio(c.get("sync.basis_bytes") / 1e6, l.busy_s("sync.signatures")),
        "MB/s",
    );
    put("sync.delta.busy_s", busy("sync.delta"), "s");
    put(
        "sync.delta.mb_s",
        ratio(c.get("sync.scanned_bytes") / 1e6, l.busy_s("sync.delta")),
        "MB/s",
    );
    put(
        "sync.delta.match_ratio",
        ratio(c.get("sync.copied_bytes"), c.get("sync.scanned_bytes")),
        "ratio",
    );
    put("sync.apply.busy_s", busy("sync.apply"), "s");
    put(
        "sync.wire_ratio",
        ratio(c.get("sync.wire_bytes"), c.get("sync.full_bytes")),
        "ratio",
    );

    put("crypto.wire.busy_s", busy("crypto."), "s");
    put(
        "crypto.blowfish.mb_s",
        ratio(
            c.get("crypto.blowfish_bytes") / 1e6,
            l.busy_s("crypto.blowfish"),
        ),
        "MB/s",
    );
    put(
        "crypto.tdes.mb_s",
        ratio(c.get("crypto.tdes_bytes") / 1e6, l.busy_s("crypto.tdes")),
        "MB/s",
    );

    put("billing.intern.busy_s", busy("billing.intern"), "s");
    put(
        "billing.record.ns_per_delta",
        ratio(l.busy_s("billing.record") * 1e9, c.get("billing.deltas")),
        "ns",
    );
    put("billing.close.busy_s", busy("billing.close"), "s");
    put(
        "tenant.bytes_per_tenant",
        ratio(c.get("tenant.peak_bytes"), c.get("tenant.tenants")),
        "bytes",
    );

    put("nagios.tick.busy_s", busy("nagios.tick"), "s");
    put(
        "nagios.tick.us_per_host",
        ratio(l.busy_s("nagios.tick") * 1e6, c.get("nagios.host_ticks")),
        "us",
    );
    put(
        "nagios.notifications",
        count("nagios.notifications"),
        "count",
    );

    put("router.busy_s", busy("router."), "s");
    put(
        "router.us_per_op",
        ratio(l.busy_s("router.") * 1e6, c.get("router.ops")),
        "us",
    );
    put("router.reroutes", count("router.reroutes"), "count");
    put(
        "router.orphans_recorded",
        count("router.orphans_recorded"),
        "count",
    );
    put(
        "router.placed_ratio",
        ratio(c.get("router.placed"), c.get("router.requested")),
        "ratio",
    );

    put("sharing.busy_s", busy("sharing."), "s");
    put(
        "sharing.messages_delivered",
        count("sharing.messages_delivered"),
        "count",
    );
    put(
        "sharing.copies_failed",
        count("sharing.copies_failed"),
        "count",
    );

    put("volume.write.busy_s", busy("volume.write"), "s");
    put("volume.read.busy_s", busy("volume.read"), "s");
    put("volume.heal.busy_s", busy("volume.heal"), "s");
    put(
        "volume.write_failed_ratio",
        ratio(c.get("volume.writes_failed"), c.get("volume.writes")),
        "ratio",
    );

    put("campaign.busy_s", busy("campaign."), "s");
    put(
        "campaign.ns_per_sim_min",
        ratio(l.busy_s("campaign.") * 1e9, c.get("campaign.sim_min")),
        "ns",
    );
    put(
        "campaign.faults_injected",
        count("campaign.faults_injected"),
        "count",
    );

    put("console.busy_s", busy("console."), "s");
    put(
        "console.us_per_call",
        ratio(l.busy_s("console.") * 1e6, c.get("console.calls")),
        "us",
    );
    put("console.errors", count("console.errors"), "count");

    put("telemetry.export_s", t.export_s / r, "s");
    put("telemetry.events", t.events as f64 / r, "count");
    put("telemetry.dropped_events", t.dropped as f64 / r, "count");
    put("telemetry.record_overhead", telemetry_overhead, "ratio");

    put(
        "bench.span_overhead",
        ratio(timings(t, true).0, timings(untraced, true).0),
        "ratio",
    );
    put(
        "bench.host_slowdown",
        median(untraced.slowdown.clone()),
        "ratio",
    );
    put(
        "bench.span_coverage",
        ratio(l.covered_ns as f64, l.job_ns as f64),
        "ratio",
    );
    m
}

/// Write the traced pass's first round of spans, one JSON object per
/// span: job id, span id within the job, parent, name, start and end
/// in ns since the timed section began.
fn write_spans<O>(path: &str, workload: &str, t: &Pass<O>) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (job, spans) in &t.spans {
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"workload\":\"{workload}\",\"job\":{job},\"span\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start, s.end
            )?;
        }
    }
    f.flush()
}
