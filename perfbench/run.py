#!/usr/bin/env python3
"""Placement benchmark runner (see perfbench/README.md).

    python3 perfbench/run.py --workload hier-congested --seed 1 --seconds 50 --trace 0

Builds the harness from source into .bench_build/ (first run only), runs the
harness self-check once per build, generates the workload's design into a
temporary directory (untimed, in its own process), then runs one measuring
process. The quality of every run is compared bit for bit with the other
runs of the same design and options in this checkout (recorded under
.bench_build/quality/). The last stdout line is the result JSON; everything
else goes to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build" / "perfbench"
HARNESS = BUILD / "perfbench_harness"
QUALITY_DIR = ROOT / ".bench_build" / "quality"
RUN_TIMEOUT_S = 170


def sh(cmd, **kw):
    """Run cmd with stdout sent to stderr; raise on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, **kw)


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        sh(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    sh(["cmake", "--build", str(BUILD), "-j", jobs])
    # The replay must still reproduce PlacementFlow::run; check once per build.
    marker = BUILD / "selfcheck.ok"
    if not marker.exists() or marker.stat().st_mtime < HARNESS.stat().st_mtime:
        sh([str(HARNESS), "selfcheck"], timeout=RUN_TIMEOUT_S)
        marker.touch()


def check_quality(key, quality):
    """True when quality equals the first recorded run of the same key."""
    QUALITY_DIR.mkdir(parents=True, exist_ok=True)
    path = QUALITY_DIR / (key + ".json")
    if not path.exists():
        path.write_text(json.dumps(quality, sort_keys=True) + "\n")
        return True
    expected = json.loads(path.read_text())
    if expected != quality:
        print(f"FAILED quality check for {key}: {quality} != recorded {expected}",
              file=sys.stderr)
        return False
    return True


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True,
                    help="seeds the host-calibration probe; the design seed is fixed per workload")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--design-seed", type=int,
                    help="override the workload's design seed (held-out checks)")
    a = ap.parse_args()

    build()
    design_args = [] if a.design_seed is None else ["--design-seed", str(a.design_seed)]
    work = ROOT / ".bench_build" / f"inputs-{os.getpid()}"
    try:
        sh([str(HARNESS), "prepare", "--workload", a.workload, "--dir", str(work)]
           + design_args, timeout=RUN_TIMEOUT_S)
        out = subprocess.run(
            [str(HARNESS), "run", "--workload", a.workload, "--dir", str(work),
             "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace)]
            + design_args,
            check=True, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S).stdout
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = json.loads(out.strip().splitlines()[-1])
    if set(result["metrics"]) != expected_metrics(a.trace):
        sys.exit("harness metrics do not match BENCHMARK.json")
    if not check_quality(result.pop("quality_key"), result.pop("quality")):
        result["failed"] += 1
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: {e}")
