#!/usr/bin/env python3
"""Build and run the host-time benchmark.

    python3 hostbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first call configures and
builds the libraries under src/ together with the benchmark program
(Release, into $CARGO_TARGET_DIR or .bench_build); later calls only
rebuild what changed. The program's standard output is passed through, so
the last line is the result JSON. Checkpoints go to a working directory
that is removed afterwards; a traced run's span file is kept under
<build dir>/traces/. Extra arguments after the four above (--records,
--inject-mismatch) are handed to the program unchanged.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(f"hostbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the program; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no library sources under {ROOT}/src; cannot build")
        return None
    out = os.path.join(build_dir, "hostbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("cmake configure failed")
            return None
    cmd = ["cmake", "--build", out, "--target", "hostbench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("build failed")
        return None
    return os.path.join(out, "hostbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = ap.parse_known_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(build_dir)
    if exe is None:
        return 2

    work = os.path.join(build_dir, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work] + extra
        rc = subprocess.run(cmd).returncode
        spans = os.path.join(work, f"{args.workload}.spans.json")
        if os.path.isfile(spans):
            traces = os.path.join(build_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            dest = os.path.join(
                traces, f"{args.workload}.seed{args.seed}.spans.json")
            shutil.move(spans, dest)
            log(f"spans written to {os.path.relpath(dest, ROOT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
