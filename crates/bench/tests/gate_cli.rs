//! The perf-gate binaries reject a `--out` or `--check` flag that has no
//! value with exit status 2, before measuring anything. A dropped value
//! used to read as "no check requested", so the gate silently passed.

use std::process::Command;

#[test]
fn gate_flag_without_a_value_exits_2() {
    for bin in [
        env!("CARGO_BIN_EXE_bench_fluid"),
        env!("CARGO_BIN_EXE_bench_hotpath"),
        env!("CARGO_BIN_EXE_bench_runner"),
        env!("CARGO_BIN_EXE_bench_scale"),
    ] {
        for args in [&["--check"][..], &["--check", "BENCH_x.json", "--out"]] {
            let out = Command::new(bin).args(args).output().expect("spawns");
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("requires a path argument"), "{stderr}");
            assert!(out.stdout.is_empty(), "{bin} measured before rejecting");
        }
    }
}
