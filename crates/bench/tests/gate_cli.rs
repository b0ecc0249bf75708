//! `bench_ledger` rejects bad flags (exit 2) and an unreadable baseline
//! (exit 1) before it measures anything. A dropped flag value used to
//! read as "no check requested", so the gate silently passed; a missing
//! baseline used to surface only after the whole suite had run.

use std::process::Command;

#[test]
fn bad_flags_and_baselines_exit_before_measuring() {
    for (args, code, message) in [
        (&["--check"][..], 2, "requires a path argument"),
        (
            &["--check", "b.json", "--out"],
            2,
            "requires a path argument",
        ),
        (&["--jobs", "2"], 2, "unknown argument"),
        (
            &["--check", "no/such/BENCH.json"],
            1,
            "cannot read baseline",
        ),
    ] {
        let bin = env!("CARGO_BIN_EXE_bench_ledger");
        let out = Command::new(bin).args(args).output().expect("spawns");
        assert_eq!(out.status.code(), Some(code), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{stderr}");
        assert!(out.stdout.is_empty(), "measured before rejecting {args:?}");
    }
}
