#!/usr/bin/env python3
"""Determinism gate for the parallel + SIMD kernels.

Runs the full flow on the same generated design across the configuration
matrix the determinism contract covers, and demands that everything
observable is IDENTICAL between every pair:

  run_1: --threads 1,     RP_SIMD=off
  run_n: --threads <max>, RP_SIMD=auto, --profile
  run_s: --threads 1,     RP_SIMD=auto,
         RP_CHECK_INCREMENTAL=1 (every cached/trialed detailed-placement
         cost self-verifies against a from-scratch recompute and aborts on
         a bit mismatch)

run_1 vs run_n proves thread- AND vector- AND profiler-invariance in one
comparison; run_1 vs run_s isolates the SIMD axis at a fixed thread count
with the detailed placer's recompute reference armed. Identical means:

1. the .pl placement files are byte-identical;
2. every snapshot artifact (manifests, grids, convergence history) is
   byte-identical;
3. rp_report_diff reports zero differences between the run reports (its
   default ignore list covers the "parallel" and "simd" provenance blocks,
   the only sections allowed to differ);
4. a strict Python comparison of the reports after dropping only the
   documented volatile keys (timings, RSS, build stamp, output paths,
   parallel + simd + profile blocks) — so a new thread- or dispatch-
   dependent field can't hide behind a loose tolerance;
5. the --progress-ndjson event streams match line for line once the two
   documented volatile fields per line ("seq", "t_ms") are dropped —
   event PAYLOADS are part of the determinism contract
   (util/event_bus.hpp). Interleaved "rp_resource" sampler lines are
   wall-clock telemetry and excluded (the sampler stays ENABLED in these
   runs precisely to prove it cannot perturb placement).

Usage: check_threads_determinism.py <routplace> <rp_report_diff> [threads]
Exit code 0 on success. `threads` defaults to max(4, hardware).
"""

import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FAILURES = []

# Keys that legitimately differ between two identical runs (mirrors
# report_diff_default_ignores() in src/core/report_diff.cpp). "profile" is
# here because only run_n is profiled — the block's presence itself must be
# ignorable; "simd" carries the requested/active dispatch level, which
# differs across the matrix by construction.
VOLATILE_KEYS = {"stage_times", "stage_total_sec", "peak_rss_kb", "build",
                 "snapshot_dir", "parallel", "simd", "profile", "resources"}


def check(cond, what):
    if not cond:
        FAILURES.append(what)
    return cond


def scrub(doc):
    """Drop volatile keys (top level + counter names with a volatile prefix)."""
    out = {k: v for k, v in doc.items() if k not in VOLATILE_KEYS}
    for section in ("counters", "gauges"):
        if section in out:
            out[section] = {k: v for k, v in out[section].items()
                            if not k.startswith("parallel.")}
    return out


NDJSON_VOLATILE = {"seq", "t_ms"}  # stamped by emit(); everything else is payload


def ndjson_payloads(path):
    """Parse an NDJSON stream into per-line dicts with the volatile stamp
    fields removed — what the determinism contract says must match. Lines
    from other schemas ("rp_resource", the wall-clock resource sampler) are
    interleaved by a background thread and excluded from the contract."""
    lines = []
    for raw in Path(path).read_text().splitlines():
        obj = json.loads(raw)
        if obj.get("schema") != "rp_progress":
            continue
        lines.append({k: v for k, v in obj.items() if k not in NDJSON_VOLATILE})
    return lines


def run_flow(routplace, outdir, threads, profile=False, env=None,
             extra_args=()):
    outdir.mkdir()
    report = outdir / "run.report.json"
    snap = outdir / "snapshots"
    cmd = [str(routplace), "--gen", "700", "--seed", "13", "--rounds", "2",
           "--threads", str(threads), "--out", str(outdir / "out.pl"),
           "--report-json", str(report), "--snapshot-dir", str(snap),
           "--progress-ndjson", str(outdir / "progress.ndjson")]
    cmd += list(extra_args)
    if profile:
        cmd.append("--profile")
    run_env = dict(os.environ)
    run_env.update(env or {})
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=280,
                          env=run_env)
    label = outdir.name
    if not check(proc.returncode == 0,
                 f"routplace [{label}] exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}"):
        return None
    check(report.exists(), f"[{label}]: report not written")
    check((snap / "manifest.json").exists(),
          f"[{label}]: snapshots not written")
    return outdir


def compare_trees(dir_a, dir_b):
    """Byte-compare every file present in either tree (recursive)."""
    files_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    check(files_a == files_b,
          f"file sets differ ({dir_a.name} vs {dir_b.name}): "
          f"only-a={sorted(map(str, files_a - files_b))} "
          f"only-b={sorted(map(str, files_b - files_a))}")
    for rel in sorted(files_a & files_b):
        if rel.name == "run.report.json" or rel.suffix == ".ndjson":
            continue  # reports/streams are compared semantically below
        check(filecmp.cmp(dir_a / rel, dir_b / rel, shallow=False),
              f"'{rel}' differs between {dir_a.name} and {dir_b.name}")


def compare_runs(report_diff, run_a, run_b):
    """Apply checks 1-5 of the contract to one pair of runs."""
    pair = f"{run_a.name} vs {run_b.name}"
    compare_trees(run_a, run_b)

    # rp_report_diff must see zero differences (reports + snapshots).
    proc = subprocess.run(
        [str(report_diff), str(run_a / "run.report.json"),
         str(run_b / "run.report.json"),
         "--snapshots", str(run_a / "snapshots"), str(run_b / "snapshots")],
        capture_output=True, text=True, timeout=120)
    check(proc.returncode == 0,
          f"rp_report_diff [{pair}] exited {proc.returncode}:\n"
          f"{proc.stdout[-2000:]}")
    check("identical" in proc.stdout,
          f"rp_report_diff [{pair}] did not report 'identical':\n"
          f"{proc.stdout[-2000:]}")

    # Strict comparison: everything outside the documented volatile keys
    # must match EXACTLY (no tolerance).
    doc_a = scrub(json.loads((run_a / "run.report.json").read_text()))
    doc_b = scrub(json.loads((run_b / "run.report.json").read_text()))
    check(doc_a == doc_b,
          f"scrubbed reports differ [{pair}] exactly where they must not "
          "(run with rp_report_diff for details)")

    # Event-stream determinism: identical payload sequences (the stream is
    # written by the flow's main thread, so the configuration must not
    # change what — or in which order — events are emitted).
    ev_a = ndjson_payloads(run_a / "progress.ndjson")
    ev_b = ndjson_payloads(run_b / "progress.ndjson")
    check(len(ev_a) == len(ev_b),
          f"progress streams differ in length [{pair}]: "
          f"{len(ev_a)} vs {len(ev_b)}")
    if len(ev_a) == len(ev_b):
        for i, (a, b) in enumerate(zip(ev_a, ev_b)):
            if not check(a == b,
                         f"progress line {i + 1} payload differs [{pair}]:\n"
                         f"  a: {a}\n  b: {b}"):
                break
    check(len(ev_a) > 0, f"progress stream is empty [{pair}]")


def main():
    if len(sys.argv) not in (3, 4):
        print(__doc__)
        return 2
    routplace, report_diff = Path(sys.argv[1]), Path(sys.argv[2])
    for p in (routplace, report_diff):
        if not p.exists():
            print(f"check_threads_determinism: '{p}' not found")
            return 2
    max_threads = int(sys.argv[3]) if len(sys.argv) == 4 \
        else max(4, os.cpu_count() or 1)

    with tempfile.TemporaryDirectory(prefix="rp_threads_det_") as tmp:
        tmp = Path(tmp)
        run_1 = run_flow(routplace, tmp / "t1", 1, env={"RP_SIMD": "off"})
        run_n = run_flow(routplace, tmp / "tN", max_threads, profile=True,
                         env={"RP_SIMD": "auto"})
        run_s = run_flow(routplace, tmp / "t1simd", 1,
                         env={"RP_SIMD": "auto", "RP_CHECK_INCREMENTAL": "1"})
        if run_1 is None or run_n is None or run_s is None:
            print("\n".join(FAILURES))
            return 1

        compare_runs(report_diff, run_1, run_n)
        compare_runs(report_diff, run_1, run_s)

        # Sanity: the runs really exercised the asymmetric configurations
        # (the asymmetry is the point).
        rep_1 = json.loads((run_1 / "run.report.json").read_text())
        rep_n = json.loads((run_n / "run.report.json").read_text())
        check(rep_n["parallel"]["threads"] == max_threads,
              f"report says threads={rep_n['parallel']['threads']}, "
              f"expected {max_threads}")
        check("profile" in rep_n, "tN run has no 'profile' block")
        check("profile" not in rep_1, "t1 run unexpectedly has a 'profile' block")
        check(rep_1["simd"]["requested"] == "off"
              and rep_1["simd"]["active"] == "scalar",
              f"t1 run did not run scalar kernels: {rep_1['simd']}")
        check(rep_n["simd"]["requested"] == "auto",
              f"tN run did not request auto dispatch: {rep_n['simd']}")

    if FAILURES:
        print("check_threads_determinism: FAILED")
        for f in FAILURES:
            print(f"  - {f}")
        return 1
    print(f"check_threads_determinism: OK (threads 1/{max_threads} x "
          f"RP_SIMD off/auto, DP recompute reference armed: placement, "
          f"snapshots, and report all identical)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
