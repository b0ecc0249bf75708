#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <wan_transfer|tenant_scale|federation_ops> \
        --seed <n> --seconds <s> --trace <0|1> [--jobs <workers>]

The script builds the `perfbench` package (release, offline) into
`$CARGO_TARGET_DIR`, or `perfbench/target` when that is unset, then runs
it with the given arguments plus the recorded digests. The benchmark's
last stdout line is its JSON result; build output goes to stderr. With
`--trace 1` the traced pass's spans are written next to the binary as
`perfbench-spans-<workload>.jsonl`. The exit status is the benchmark's,
or 1 when the build fails.
"""

import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    here = Path(__file__).resolve().parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", here / "target")).resolve()
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(here / "Cargo.toml"),
            "--target-dir",
            str(target),
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    args = sys.argv[1:]
    extra = ["--digests", str(here / "digests.txt")]
    if "--trace" in args and args[args.index("--trace") + 1 :][:1] == ["1"]:
        workload = args[args.index("--workload") + 1] if "--workload" in args else "unknown"
        extra += ["--spans-out", str(target / f"perfbench-spans-{workload}.jsonl")]
    sys.stdout.flush()
    return subprocess.run([str(target / "release" / "perfbench"), *args, *extra]).returncode


if __name__ == "__main__":
    sys.exit(main())
