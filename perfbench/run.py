#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fine_zipf --seed 1 --seconds 20 --trace 0

pipebench (perfbench/pipebench.cpp) is configured and built under
.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench when that variable is
set) on first use; later runs only re-check the build. Build output goes to
stderr. Its stdout is passed through unchanged, so the last line is
the JSON result object. With --trace 1 the spans are written to
<build dir>/traces/<workload>-<seed>.json.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/; "
             "run from a full checkout of the repository")
    os.makedirs(out_dir, exist_ok=True)
    # Runs started side by side in one checkout build one at a time.
    with open(os.path.join(out_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "--target", "pipebench",
                      "-j", "4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr,
                              stderr=sys.stderr).returncode:
                fail("build failed: " + " ".join(cmd))
    exe = os.path.join(out_dir, "pipebench")
    if not os.access(exe, os.X_OK):
        fail(f"build produced no pipebench at {exe}")
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--short", action="store_true",
                    help="run 1/20 of the request counts (tests only)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    out_dir = build_dir()
    exe = build(out_dir)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.short:
        cmd.append("--short")
    if args.trace == 1:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"pipebench did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"pipebench exited with code {proc.returncode}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
