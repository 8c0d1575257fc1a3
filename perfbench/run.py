#!/usr/bin/env python3
"""Builds the planner benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload warm-hits --seed 1 --seconds 15 --trace 0

perfbench/ is a CMake project that compiles the planner libraries and
karma-pland from the source tree above it. This script configures it in
Release under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
builds it (a no-op when nothing changed), then runs the perfbench program
from the checkout root. Its stdout passes through unchanged: its
last line is the result object. A failed build or run exits non-zero and
prints no result.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("warm-hits", "cold-plan")
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> bool:
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT).returncode:
                break
        else:
            return True
    # A failed configure must not leave a cache that skips it next time.
    (build_dir / "CMakeCache.txt").unlink(missing_ok=True)
    sys.stderr.write(log_path.read_text()[-4000:])
    sys.stderr.write(f"perfbench: build failed; full log in {log_path}\n")
    return False


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    if not build(build_dir):
        return 2

    # Relative to the checkout root, the run's working directory: the
    # daemon's unix socket lives in the work dir and its path must stay
    # short.
    rel = Path(os.path.relpath(build_dir, ROOT))
    command = [str(build_dir / "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--pland", str(build_dir / "karma" / "karma-pland"),
               "--work-dir", str(rel / "work"),
               "--out-dir", str(rel / "results"),
               "--git-sha", git_sha()]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 124


if __name__ == "__main__":
    sys.exit(main())
