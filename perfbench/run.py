#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload revoke_1m --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Builds the library from the checkout's src/ plus the benchmark into
$CARGO_TARGET_DIR (default .bench_build) with CMake, then runs it. The
benchmark's stdout passes through unchanged: "# " lines, then one JSON
result line. The exit code is the benchmark's (1 = a check failed).
"""
import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("revoke_1m", "join_1m", "trace_wire")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def source_rev():
    """The git revision when there is one, else a digest of src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per tree
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", build_dir, "--parallel", str(os.cpu_count() or 1)],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests instead")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(src) or not any(
            f.endswith(".cpp") for _, _, fs in os.walk(src) for f in fs):
        log(f"no library sources under {src}: run from a full checkout")
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = target if os.path.isabs(target) else os.path.join(ROOT, target)
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 2

    if args.selftest:
        cmd = [os.path.join(build_dir, "perfbench_selftest")]
    else:
        cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--rev", source_rev()]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 3


if __name__ == "__main__":
    sys.exit(main())
