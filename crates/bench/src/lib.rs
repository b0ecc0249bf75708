//! The table/figure harnesses and the perf gates of the reproduction.
//!
//! [`harness`] holds one module per paper table, figure or experiment;
//! the `src/bin/*` wrappers run them through [`harness::HarnessCtx`],
//! which owns banners, shared flags, `--trace` output and manifests.
//! [`gate`] is the perf gate shared by the four seed-speedup baselines
//! (`bench_fluid`, `bench_hotpath`, `bench_runner`, `bench_scale`).
//! [`scale`] holds the shared tenant-scale workload driven by both
//! `exp_scale` (correctness + determinism) and `bench_scale` (wall
//! clock + peak memory).

pub mod gate;
pub mod harness;
pub mod manifest;
pub mod scale;

/// Render one row of a fixed-width table.
pub fn row(cells: &[&str], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// The value of `--flag <v>` or `--flag=v` in an argument list; an error
/// saying the flag requires `what` when it is last with no value.
pub(crate) fn flag_value<'a>(
    args: &'a [String],
    flag: &str,
    what: &str,
) -> Result<Option<&'a str>, String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            let v = it.next().ok_or(format!("{flag} requires {what}"))?;
            return Ok(Some(v));
        }
        if let Some(v) = a.strip_prefix(flag).and_then(|v| v.strip_prefix('=')) {
            return Ok(Some(v));
        }
    }
    Ok(None)
}

/// Print a usage error and exit with status 2.
pub(crate) fn usage_error<T>(message: String) -> T {
    eprintln!("{message}");
    std::process::exit(2);
}

/// Parse `--trace <path>` out of an argument list (the harnesses' shared
/// flag for emitting a telemetry JSONL artifact).
pub fn trace_path_from(args: &[String]) -> Option<std::path::PathBuf> {
    let path = flag_value(args, "--trace", "a path argument").unwrap_or_else(usage_error);
    path.map(std::path::PathBuf::from)
}

/// Parse the harnesses' shared `--jobs <N>` flag out of an argument list.
///
/// `N` is the worker count for the deterministic scenario runner
/// (`osdc_sim::Runner`); artifacts are byte-identical for any value.
/// Absent the flag, harnesses default to the host's parallelism
/// ([`osdc_sim::available_jobs`]); timing-sensitive benches default to 1.
pub fn jobs_from(args: &[String], default: usize) -> usize {
    let jobs = flag_value(args, "--jobs", "a worker count argument").unwrap_or_else(usage_error);
    let parse = |s: &str| -> usize {
        s.parse().unwrap_or_else(|_| {
            usage_error(format!("--jobs requires a positive integer, got {s:?}"))
        })
    };
    jobs.map_or(default, parse).max(1)
}

/// Parse the harnesses' shared fluid-solver flags out of an argument list:
/// `--tick-compat` selects the epoch solver pinned to byte-identical
/// pre-epoch output, `--reference-solver` the original per-tick solver,
/// and neither selects the default epoch mode.
pub fn solver_mode_from(args: &[String]) -> osdc_net::SolverMode {
    if args.iter().any(|a| a == "--reference-solver") {
        osdc_net::SolverMode::Reference
    } else if args.iter().any(|a| a == "--tick-compat") {
        osdc_net::SolverMode::TICK_COMPAT
    } else {
        osdc_net::SolverMode::DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_alignment() {
        let r = row(&["a", "bb"], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }

    #[test]
    fn jobs_flag_parses() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(jobs_from(&args(&["--jobs", "4"]), 1), 4);
        assert_eq!(jobs_from(&args(&["--jobs=8"]), 1), 8);
        assert_eq!(
            jobs_from(&args(&["--jobs", "0"]), 7),
            1,
            "clamped, not defaulted"
        );
        assert_eq!(jobs_from(&args(&["--quick"]), 3), 3, "default when absent");
        assert_eq!(jobs_from(&[], 0), 1, "default itself is clamped");
    }

    #[test]
    fn trace_flag_parses() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            trace_path_from(&args(&["--trace", "/tmp/t.jsonl"])),
            Some(std::path::PathBuf::from("/tmp/t.jsonl"))
        );
        assert_eq!(
            trace_path_from(&args(&["--trace=/tmp/t.jsonl"])),
            Some(std::path::PathBuf::from("/tmp/t.jsonl"))
        );
        assert_eq!(trace_path_from(&args(&["--other"])), None);
        assert_eq!(trace_path_from(&[]), None);
    }
}
