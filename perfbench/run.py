#!/usr/bin/env python3
"""Build rhpl and the benchmark binary from source, then run one workload.

    python3 perfbench/run.py --workload hpl64-1x1 --seed 42 --seconds 20 --trace 0

Run from the repository root. Workloads: hpl64-1x1, mxp32-1x1,
launch-tcp-2x1 (see perfbench/README.md). `--trace 0` prints the
end-to-end metrics, `--trace 1` the per-layer ones; the last stdout line
is the result JSON. `--traced-solves` (sensitivity checks only) runs the
end-to-end solves with tracing on.

Builds go to $CARGO_TARGET_DIR (default .bench_build); scratch files go
to <target dir>/perfbench-work. Exits non-zero without a result when the
sources or the build are missing.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("hpl64-1x1", "mxp32-1x1", "launch-tcp-2x1")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def cargo_build(target_dir, *args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Build output goes to stderr so stdout stays the benchmark's own.
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--traced-solves", action="store_true")
    a = ap.parse_args()

    root = os.getcwd()
    for need in ("Cargo.toml", "crates/cli/Cargo.toml", "perfbench/Cargo.toml"):
        if not os.path.isfile(os.path.join(root, need)):
            fail(f"{need} not found: run from the repository root of a full checkout")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cargo_build(target, "-p", "rhpl-cli", "--bin", "rhpl")
    cargo_build(target, "--manifest-path", "perfbench/Cargo.toml")
    release = os.path.join(target, "release")
    work = os.path.join(target, "perfbench-work")
    os.makedirs(work, exist_ok=True)
    cmd = [
        os.path.join(release, "rhpl-perfbench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", a.trace,
        "--rhpl", os.path.join(release, "rhpl"),
        "--work-dir", work,
    ]
    if a.traced_solves:
        cmd.append("--traced-solves")
    # Anything the program puts in the temporary directory stays in the
    # checkout.
    env = dict(os.environ, TMPDIR=work)
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
