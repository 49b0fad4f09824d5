#!/usr/bin/env python3
"""Telemetry contract check for the routplace binary.

Runs `routplace --gen ... --profile --report-json ... --trace-json ...
--snapshot-dir` on a small generated design and validates:
  * the run report against the schema documented in DESIGN.md
    ("Observability"), including cross-checks between the report and the
    summary the binary printed; any NaN/Inf anywhere in the report is an
    error (the C++ JSON writer must emit null for non-finite values, and no
    metric is allowed to be null);
  * the "profile" block (schema v2): enough regions, per-region histogram
    bucket monotonicity, quantile ordering p50<=p95<=p99<=max, and per-worker
    busy+wait summing to the pool's region wall time;
  * the "resources" block (schema v5, resource timeline sampler): monotone
    sample timestamps, peaks dominating every kept sample, pool_busy a
    fraction in [0,1], and samples_taken >= the kept (downsampled) count;
  * the trace file as a loadable Chrome trace-event document with one span
    per flow stage, exactly one per multilevel level and one per routability
    round, plus per-worker pool/chunk spans on named worker lanes; every
    main-lane span name must be a report stage_times key and every
    stage_times key must have at least one span (both come from RP_SPAN);
    every pool/chunk event has category "pool" and every span "flow",
    whichever lane it rides;
  * the snapshot directory: manifest schema, grid-file sizes matching the
    declared dimensions, and the convergence history schema;
  * the failure contract (schema v3): a malformed Bookshelf benchmark must
    exit 3 (ParseError) and still write a report whose "error" block carries
    code/message/where (file:line)/stage/exit_code, plus a "parse" block with
    the parse mode and repair counters.

Usage: check_report.py /path/to/routplace [--keep]
Exit code 0 on success; prints every failed expectation otherwise.
"""

import json
import math
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

FAILURES = []


def load_json_strict(path, what):
    """json.loads that rejects NaN/Infinity literals instead of accepting
    them (Python's default is more lenient than the JSON spec)."""
    def bad_constant(name):
        FAILURES.append(f"{what}: non-finite constant '{name}' in JSON")
        return 0.0
    try:
        return json.loads(Path(path).read_text(), parse_constant=bad_constant)
    except json.JSONDecodeError as e:
        FAILURES.append(f"{what}: not valid JSON: {e}")
        return None


def check_finite(obj, where):
    """Recursively fail on NaN/Inf floats anywhere in a parsed document."""
    if isinstance(obj, float):
        check(math.isfinite(obj), f"{where}: non-finite value {obj!r}")
    elif isinstance(obj, dict):
        for k, v in obj.items():
            check_finite(v, f"{where}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            check_finite(v, f"{where}[{i}]")


def check(cond, what):
    if not cond:
        FAILURES.append(what)
    return cond


def expect_keys(obj, keys, where):
    for k in keys:
        check(k in obj, f"{where}: missing key '{k}'")


def validate_report(report, stdout_text):
    expect_keys(report, [
        "schema_version", "tool", "build", "design", "mode", "parallel",
        "options", "eval", "gp", "gp_trace", "macro_legal", "legal", "dp",
        "stage_times", "stage_total_sec", "counters", "gauges", "peak_rss_kb",
        "snapshot_dir",
    ], "report")
    if FAILURES:
        return

    check(report["schema_version"] == 5, "report: schema_version != 5")
    check(report["tool"] == "routplace", "report: tool != routplace")

    # v4: the event-bus totals block.
    events = report.get("events")
    if check(isinstance(events, dict), "report.events missing or not an object"):
        expect_keys(events, ["emitted", "flight_capacity"], "report.events")
        check(events.get("emitted", 0) > 0, "report.events.emitted not positive")
        check(events.get("flight_capacity", 0) > 0,
              "report.events.flight_capacity not positive")
    check_finite(report, "report")

    build = report["build"]
    expect_keys(build, ["git_describe", "compiler", "build_type", "flags",
                        "cxx_standard"], "report.build")
    check(bool(build.get("git_describe")), "report.build.git_describe empty")
    check(bool(build.get("compiler")), "report.build.compiler empty")
    check(build.get("cxx_standard", 0) >= 202002,
          "report.build.cxx_standard is not C++20 or later")

    par = report["parallel"]
    expect_keys(par, ["threads", "hardware_threads", "regions", "chunks"],
                "report.parallel")
    check(par.get("threads", 0) >= 1, "report.parallel.threads < 1")
    check(par.get("hardware_threads", 0) >= 1,
          "report.parallel.hardware_threads < 1")
    check(par.get("regions", 0) > 0,
          "report.parallel.regions not positive (kernels never used the pool)")
    check(par.get("chunks", 0) >= par.get("regions", 0),
          "report.parallel.chunks < regions")

    design = report["design"]
    expect_keys(design, ["name", "source", "seed", "cells", "nets", "macros",
                         "die_w", "die_h", "row_height"], "report.design")
    check(design["cells"] > 0, "report.design.cells not positive")

    ev = report["eval"]
    expect_keys(ev, ["hpwl", "scaled_hpwl", "congestion", "route", "legality"],
                "report.eval")
    expect_keys(ev["congestion"], ["rc", "ace_005", "ace_1", "ace_2", "ace_5",
                                   "total_overflow", "overflowed_edges",
                                   "peak_utilization"], "report.eval.congestion")
    check(ev["hpwl"] > 0, "report.eval.hpwl not positive")
    check(ev["scaled_hpwl"] >= ev["hpwl"] - 1e-9,
          "report.eval.scaled_hpwl < hpwl")
    check(ev["legality"]["ok"] is True, "report.eval.legality.ok is not true")

    # Cross-check the report against the human-readable summary: the binary
    # prints HPWL/scaled HPWL/RC with %.4e / %.1f — the JSON must round to
    # the same strings.
    m = re.search(r"HPWL\s+([0-9.e+-]+)", stdout_text)
    if check(m is not None, "stdout: no HPWL line"):
        check(f"{ev['hpwl']:.4e}" == m.group(1),
              f"HPWL mismatch: report {ev['hpwl']:.4e} vs printed {m.group(1)}")
    m = re.search(r"scaled HPWL\s+([0-9.e+-]+)", stdout_text)
    if check(m is not None, "stdout: no scaled HPWL line"):
        check(f"{ev['scaled_hpwl']:.4e}" == m.group(1),
              f"scaled HPWL mismatch: report {ev['scaled_hpwl']:.4e} "
              f"vs printed {m.group(1)}")
    m = re.search(r"RC\s+([0-9.]+)", stdout_text)
    if check(m is not None, "stdout: no RC line"):
        check(f"{ev['congestion']['rc']:.1f}" == m.group(1),
              f"RC mismatch: report {ev['congestion']['rc']:.1f} "
              f"vs printed {m.group(1)}")

    gp = report["gp"]
    expect_keys(gp, ["final_hpwl", "final_overflow", "total_outer", "levels",
                     "inflation_rounds", "mean_inflation"], "report.gp")
    check(gp["total_outer"] > 0, "report.gp.total_outer not positive")
    check(len(report["gp_trace"]) >= gp["levels"],
          "report.gp_trace shorter than the level count")
    for pt in report["gp_trace"][:3]:
        expect_keys(pt, ["level", "outer", "hpwl", "overflow", "lambda",
                         "inflation"], "report.gp_trace[i]")

    check(report["counters"].get("gp.outer_iters", 0) > 0,
          "report.counters.gp.outer_iters not positive")
    check(report["counters"].get("solver.cg_iters", 0) > 0,
          "report.counters.solver.cg_iters not positive")
    check(report["stage_total_sec"] > 0, "report.stage_total_sec not positive")
    check(report["peak_rss_kb"] > 0, "report.peak_rss_kb not positive")
    for stage in ("global", "legal", "eval"):
        check(stage in report["stage_times"],
              f"report.stage_times missing '{stage}'")


def validate_trace(trace, stage_times, gp_levels, rounds, threads):
    check("traceEvents" in trace, "trace: missing traceEvents")
    events = trace.get("traceEvents", [])
    check(len(events) > 0, "trace: no events")
    names = set()
    span_counts = {}  # main-lane span name -> number of spans
    chunk_tids = set()
    thread_names = {}
    bad_cats = {}  # (event kind, wrong cat) -> count
    for e in events:
        if e.get("ph") == "M":
            expect_keys(e, ["name", "ph", "pid", "tid", "args"], "trace metadata")
            if e.get("name") == "thread_name":
                thread_names[e.get("tid")] = e.get("args", {}).get("name", "")
            continue
        expect_keys(e, ["name", "ph", "ts", "dur", "pid", "tid"], "trace event")
        if "ph" in e:
            check(e["ph"] == "X", f"trace event '{e.get('name')}' not a complete event")
        # The category follows the event, not its lane (worker 0 runs
        # chunks on lane 0 beside the spans).
        want_cat = "pool" if e.get("name") == "pool/chunk" else "flow"
        if e.get("cat") != want_cat:
            key = (e.get("name") if want_cat == "pool" else "span", e.get("cat"))
            bad_cats[key] = bad_cats.get(key, 0) + 1
        if e.get("name") == "pool/chunk":
            chunk_tids.add(e.get("tid"))
        else:
            check(e.get("tid") == 0,
                  f"trace: main-thread span '{e.get('name')}' on lane {e.get('tid')}")
            span_counts[e.get("name")] = span_counts.get(e.get("name"), 0) + 1
        names.add(e.get("name"))
    for (kind, cat), n in sorted(bad_cats.items()):
        check(False, f"trace: {n} '{kind}' events in category {cat!r} "
                     f"(pool/chunk must be 'pool', spans 'flow')")
    for stage in ("global", "macro_legal", "legal", "detailed", "eval"):
        check(stage in names, f"trace: missing flow-stage span '{stage}'")
    for lvl in range(gp_levels):
        n = span_counts.get(f"global/level{lvl}", 0)
        check(n == 1, f"trace: {n} spans 'global/level{lvl}' (expected 1)")
    n = span_counts.get("global/level0/routability", 0)
    check(n == rounds,
          f"trace: {n} spans 'global/level0/routability' (expected {rounds}, "
          f"the report's inflation_rounds)")
    # One span primitive feeds both: the trace and stage_times must agree.
    for name in sorted(span_counts):
        check(name in stage_times,
              f"trace: main-lane span '{name}' is not a stage_times key")
    for key in sorted(stage_times):
        check(key in span_counts,
              f"report.stage_times key '{key}' has no trace span")
    # Worker-lane contract: chunk spans ride real per-worker tids and every
    # lane is named by a thread_name metadata event (worker-0..N-1).
    check("pool/chunk" in names, "trace: no pool/chunk spans")
    check(any(t >= 1 for t in chunk_tids),
          f"trace: all pool/chunk spans on lane(s) {sorted(chunk_tids)} — "
          f"worker tids were collapsed (ran with {threads} threads)")
    check(all(0 <= t < threads for t in chunk_tids),
          f"trace: chunk tid out of range {sorted(chunk_tids)}")
    for t in sorted(chunk_tids):
        check(t in thread_names, f"trace: lane {t} has no thread_name metadata")
    check(thread_names.get(0, "").startswith("main"),
          "trace: lane 0 not named 'main (worker-0)'")
    for t in sorted(chunk_tids):
        if t >= 1:
            check(thread_names.get(t) == f"worker-{t}",
                  f"trace: lane {t} named '{thread_names.get(t)}'")


def validate_histogram(h, where):
    expect_keys(h, ["samples", "total_ms", "mean_us", "min_us", "p50_us",
                    "p95_us", "p99_us", "max_us", "buckets"], where)
    if FAILURES:
        return
    check(h["samples"] > 0, f"{where}: no samples")
    check(h["min_us"] <= h["mean_us"] <= h["max_us"] + 1e-9,
          f"{where}: mean outside [min, max]")
    check(h["min_us"] - 1e-9 <= h["p50_us"] <= h["p95_us"] + 1e-9,
          f"{where}: p50 > p95")
    check(h["p95_us"] <= h["p99_us"] + 1e-9, f"{where}: p95 > p99")
    check(h["p99_us"] <= h["max_us"] + 1e-9, f"{where}: p99 > max")
    buckets = h["buckets"]
    check(len(buckets) > 0, f"{where}: histogram has no buckets")
    total = 0
    prev_hi = -1.0
    for i, b in enumerate(buckets):
        expect_keys(b, ["lo_us", "hi_us", "count"], f"{where}.buckets[{i}]")
        if FAILURES:
            return
        check(b["lo_us"] < b["hi_us"], f"{where}.buckets[{i}]: lo >= hi")
        check(b["lo_us"] >= prev_hi - 1e-12,
              f"{where}.buckets[{i}]: overlaps previous bucket")
        check(b["count"] > 0, f"{where}.buckets[{i}]: empty bucket emitted")
        prev_hi = b["hi_us"]
        total += b["count"]
    check(total == h["samples"],
          f"{where}: bucket counts sum {total} != samples {h['samples']}")


def validate_profile(report, threads):
    if not check("profile" in report,
                 "report: no 'profile' block despite --profile"):
        return
    prof = report["profile"]
    expect_keys(prof, ["enabled", "regions", "pool"], "report.profile")
    if FAILURES:
        return
    check(prof["enabled"] is True, "report.profile.enabled is not true")

    regions = prof["regions"]
    check(len(regions) >= 6,
          f"report.profile: only {len(regions)} regions (expected >= 6)")
    for name in ("global", "kernel/wirelength", "kernel/density", "kernel/cg",
                 "kernel/objective", "detailed/estimate"):
        check(name in regions, f"report.profile.regions missing '{name}'")
    for name, h in regions.items():
        validate_histogram(h, f"report.profile.regions[{name}]")

    pool = prof["pool"]
    expect_keys(pool, ["threads", "regions", "wall_ms", "busy_ms",
                       "efficiency_mean", "efficiency_min", "imbalance_max",
                       "workers", "chunk"], "report.profile.pool")
    if FAILURES:
        return
    check(pool["threads"] == threads,
          f"report.profile.pool.threads {pool['threads']} != --threads {threads}")
    check(pool["regions"] > 0, "report.profile.pool.regions not positive")
    check(len(pool["workers"]) == threads,
          "report.profile.pool.workers length != threads")
    check(0.0 < pool["efficiency_mean"] <= 1.0 + 1e-9,
          "report.profile.pool.efficiency_mean outside (0, 1]")
    check(pool["imbalance_max"] >= 1.0 - 1e-9,
          "report.profile.pool.imbalance_max < 1")
    # wait := region_wall - busy by construction, so busy+wait sums to the
    # total region wall time exactly, for every worker.
    for wkr in pool["workers"]:
        expect_keys(wkr, ["worker", "busy_ms", "wait_ms", "chunks"],
                    "report.profile.pool.workers[i]")
        if FAILURES:
            return
        total = wkr["busy_ms"] + wkr["wait_ms"]
        check(abs(total - pool["wall_ms"]) <= 1e-6 * pool["wall_ms"] + 1e-3,
              f"worker {wkr['worker']}: busy+wait {total:.3f} ms != "
              f"pool wall {pool['wall_ms']:.3f} ms")
        check(wkr["chunks"] >= 0, f"worker {wkr['worker']}: negative chunks")
    validate_histogram(pool["chunk"], "report.profile.pool.chunk")


def validate_resources(report):
    """Schema v5 'resources' block written by the resource timeline sampler
    (on by default; --sample-resources 0 drops the block entirely)."""
    if not check("resources" in report,
                 "report: no 'resources' block (sampler is on by default)"):
        return
    res = report["resources"]
    expect_keys(res, ["tick_ms", "effective_tick_ms", "downsample_rounds",
                      "samples_taken", "peak_rss_kb", "peak_pool_busy",
                      "cpu_utime_ms", "cpu_stime_ms", "samples"],
                "report.resources")
    if FAILURES:
        return
    check(res["tick_ms"] > 0, "report.resources.tick_ms not positive")
    check(res["effective_tick_ms"] >= res["tick_ms"],
          "report.resources.effective_tick_ms < tick_ms")
    check(res["downsample_rounds"] >= 0,
          "report.resources.downsample_rounds negative")
    samples = res["samples"]
    check(isinstance(samples, list) and len(samples) >= 2,
          "report.resources.samples has fewer than 2 samples "
          "(first + final are force-kept)")
    check(res["samples_taken"] >= len(samples),
          "report.resources.samples_taken < kept sample count")
    check(res["peak_rss_kb"] > 0, "report.resources.peak_rss_kb not positive")
    check(0.0 <= res["peak_pool_busy"] <= 1.0,
          "report.resources.peak_pool_busy outside [0,1]")
    check(res["cpu_utime_ms"] >= 0 and res["cpu_stime_ms"] >= 0,
          "report.resources: negative CPU time")
    prev_t = -math.inf
    for i, s in enumerate(samples):
        where = f"report.resources.samples[{i}]"
        expect_keys(s, ["t_ms", "rss_kb", "utime_ms", "stime_ms", "pool_busy"],
                    where)
        if FAILURES:
            return
        check(s["t_ms"] >= prev_t, f"{where}: t_ms not monotone")
        prev_t = s["t_ms"]
        # The peaks are tracked over EVERY sample taken, kept or not — they
        # must dominate the whole kept series.
        check(s["rss_kb"] <= res["peak_rss_kb"],
              f"{where}: rss_kb {s['rss_kb']} > peak {res['peak_rss_kb']}")
        check(0.0 <= s["pool_busy"] <= 1.0,
              f"{where}: pool_busy {s['pool_busy']} outside [0,1]")
        check(s["pool_busy"] <= res["peak_pool_busy"] + 1e-12,
              f"{where}: pool_busy above peak_pool_busy")
    # The report-level peak_rss_kb (getrusage high-water mark) can never be
    # below what the sampler observed mid-run.
    check(res["peak_rss_kb"] <= report.get("peak_rss_kb", 0),
          "report.resources.peak_rss_kb exceeds the process high-water mark")


def validate_parse_block(report, expect_mode):
    """Schema v3 'parse' block: Bookshelf mode + lenient-repair counters."""
    if not check("parse" in report,
                 "report: no 'parse' block for Bookshelf input"):
        return
    parse = report["parse"]
    expect_keys(parse, ["mode", "repairs"], "report.parse")
    if FAILURES:
        return
    check(parse["mode"] == expect_mode,
          f"report.parse.mode '{parse['mode']}' != '{expect_mode}'")
    repairs = parse["repairs"]
    fields = ["dangling_pins", "empty_nets", "duplicate_nodes",
              "synthesized_net_names", "clamped_fixed_cells",
              "count_mismatches", "unknown_pl_nodes", "total"]
    expect_keys(repairs, fields, "report.parse.repairs")
    if FAILURES:
        return
    for f in fields:
        check(isinstance(repairs[f], int) and repairs[f] >= 0,
              f"report.parse.repairs.{f} not a non-negative integer")
    check(repairs["total"] == sum(repairs[f] for f in fields[:-1]),
          "report.parse.repairs.total != sum of the individual counters")


def validate_error_block(report, expect_code, expect_exit):
    """Schema v3 'error' block written by failed runs."""
    if not check("error" in report, "failed run report: no 'error' block"):
        return
    err = report["error"]
    expect_keys(err, ["code", "message", "where", "stage", "exit_code"],
                "report.error")
    if FAILURES:
        return
    check(err["code"] == expect_code,
          f"report.error.code '{err['code']}' != '{expect_code}'")
    check(err["exit_code"] == expect_exit,
          f"report.error.exit_code {err['exit_code']} != {expect_exit}")
    check(bool(err["message"]), "report.error.message empty")
    check(re.search(r":\d+$", err["where"]) is not None,
          f"report.error.where '{err['where']}' is not file:line")
    check(bool(err["stage"]), "report.error.stage empty")


def run_negative_path(binary, tmp):
    """A malformed benchmark must exit 3 (ParseError) and still write a
    schema-valid report whose 'error' block points at the failing file:line."""
    bench = tmp / "badbench"
    bench.mkdir()
    (bench / "m.aux").write_text(
        "RowBasedPlacement : m.nodes m.nets m.wts m.pl m.scl\n")
    # Truncated node record: width present, height missing.
    (bench / "m.nodes").write_text(
        "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\n  a 4 8\n  b 6\n")
    (bench / "m.nets").write_text(
        "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\n"
        "NetDegree : 2 n0\n  a I : 0 0\n  b O : 0 0\n")
    (bench / "m.wts").write_text("UCLA wts 1.0\n")
    (bench / "m.pl").write_text("UCLA pl 1.0\na 0 0 : N\nb 20 0 : N\n")
    (bench / "m.scl").write_text(
        "UCLA scl 1.0\nNumRows : 1\n"
        "CoreRow Horizontal\n Coordinate : 0\n Height : 8\n Sitewidth : 1\n"
        " SubrowOrigin : 0 NumSites : 100\nEnd\n")

    report_path = tmp / "bad.report.json"
    cmd = [str(binary), "--aux", str(bench / "m.aux"),
           "--out", str(tmp / "bad.pl"), "--report-json", str(report_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    check(proc.returncode == 3,
          f"malformed input: exit {proc.returncode}, expected 3 (ParseError)")
    check("ParseError" in proc.stderr,
          "malformed input: stderr does not mention ParseError")
    if not check(report_path.exists(),
                 "malformed input: no report written on failure"):
        return
    report = load_json_strict(report_path, "failed-run report")
    if report is None:
        return
    check(report.get("schema_version") == 5,
          "failed-run report: schema_version != 5")
    validate_error_block(report, "ParseError", 3)
    validate_parse_block(report, "strict")
    if "error" in report:
        check("m.nodes" in report["error"].get("where", ""),
              "failed-run report: error.where does not name m.nodes")


def validate_snapshots(snap_dir, rounds_ran):
    manifest = load_json_strict(snap_dir / "manifest.json", "manifest")
    if manifest is None:
        return
    expect_keys(manifest, ["schema_version", "tool", "convergence",
                           "num_points", "num_rounds", "maps"], "manifest")
    if FAILURES:
        return
    check(manifest["schema_version"] == 1, "manifest: schema_version != 1")
    check(manifest["tool"] == "routplace-snapshot",
          "manifest: tool != routplace-snapshot")
    check_finite(manifest, "manifest")

    maps = manifest["maps"]
    check(len(maps) > 0, "manifest: no maps captured")
    names_by_stage = {}
    for i, m in enumerate(maps):
        expect_keys(m, ["seq", "stage", "name", "grid", "nx", "ny", "min",
                        "max", "mean", "non_finite"], f"manifest.maps[{i}]")
        if FAILURES:
            return
        check(m["non_finite"] == 0,
              f"manifest.maps[{i}] ({m['stage']}/{m['name']}): "
              f"{m['non_finite']} non-finite grid cells")
        grid_path = snap_dir / m["grid"]
        if check(grid_path.exists(), f"manifest: grid file '{m['grid']}' missing"):
            raw = grid_path.read_bytes()
            check(raw[:4] == b"RPG1", f"{m['grid']}: bad magic")
            nx, ny = struct.unpack_from("<II", raw, 4)
            check((nx, ny) == (m["nx"], m["ny"]),
                  f"{m['grid']}: dims {nx}x{ny} != manifest {m['nx']}x{m['ny']}")
            check(len(raw) == 12 + 8 * nx * ny, f"{m['grid']}: truncated payload")
            vals = struct.unpack_from(f"<{nx * ny}d", raw, 12)
            check(all(math.isfinite(v) for v in vals),
                  f"{m['grid']}: non-finite cell values")
        if "ppm" in m:
            check((snap_dir / m["ppm"]).exists(),
                  f"manifest: ppm file '{m['ppm']}' missing")
        names_by_stage.setdefault(m["stage"], set()).add(m["name"])

    # Acceptance contract: density/overflow/inflation per routability round.
    for rnd in range(1, rounds_ran + 1):
        for name in ("density", "overflow", "inflation", "congestion",
                     "demand", "capacity"):
            check(name in names_by_stage.get(f"round{rnd}", set()),
                  f"manifest: round{rnd} missing '{name}' map")
    for name in ("demand", "capacity", "overflow", "congestion", "displacement"):
        check(name in names_by_stage.get("final", set()),
              f"manifest: final stage missing '{name}' map")

    conv = load_json_strict(snap_dir / manifest["convergence"], "convergence")
    if conv is None:
        return
    expect_keys(conv, ["schema_version", "points", "rounds"], "convergence")
    if FAILURES:
        return
    check_finite(conv, "convergence")
    points = conv["points"]
    check(len(points) == manifest["num_points"],
          "convergence: point count != manifest.num_points")
    check(len(points) > 0, "convergence: no points")
    for pt in points[:3]:
        expect_keys(pt, ["level", "round", "outer", "hpwl", "overflow",
                         "lambda", "gamma", "inflation"], "convergence.points[i]")
    check(len(conv["rounds"]) == manifest["num_rounds"],
          "convergence: round count != manifest.num_rounds")
    for r in conv["rounds"][:3]:
        expect_keys(r, ["round", "rc", "ace_005", "ace_1", "ace_2", "ace_5",
                        "total_overflow", "cells_inflated", "mean_inflation"],
                    "convergence.rounds[i]")


def main():
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    binary = Path(sys.argv[1])
    if not binary.exists():
        print(f"check_report: binary '{binary}' not found")
        return 2

    rounds = 2
    threads = 2  # >= 2 so worker lanes and busy/wait accounting are exercised
    with tempfile.TemporaryDirectory(prefix="rp_check_report_") as tmp:
        tmp = Path(tmp)
        report_path = tmp / "run.report.json"
        trace_path = tmp / "run.trace.json"
        snap_dir = tmp / "snapshots"
        cmd = [str(binary), "--gen", "600", "--seed", "7", "--rounds",
               str(rounds), "--threads", str(threads), "--profile",
               "--out", str(tmp / "out.pl"),
               "--report-json", str(report_path),
               "--trace-json", str(trace_path),
               "--snapshot-dir", str(snap_dir)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=280)
        if not check(proc.returncode == 0,
                     f"routplace exited {proc.returncode}:\n{proc.stderr[-2000:]}"):
            print("\n".join(FAILURES))
            return 1
        if not check(report_path.exists(), "report file not written") or \
           not check(trace_path.exists(), "trace file not written"):
            print("\n".join(FAILURES))
            return 1

        report = load_json_strict(report_path, "report")
        trace = load_json_strict(trace_path, "trace")
        if report is None or trace is None:
            print("\n".join(FAILURES))
            return 1

        validate_report(report, proc.stdout)
        validate_profile(report, threads)
        validate_resources(report)
        # Inflation may converge early; only require the rounds that ran.
        ran_rounds = min(rounds, report.get("gp", {}).get("inflation_rounds", 0))
        validate_trace(trace, report.get("stage_times", {}),
                       report.get("gp", {}).get("levels", 0),
                       report.get("gp", {}).get("inflation_rounds", 0), threads)
        if check(snap_dir.is_dir(), "snapshot dir not created"):
            validate_snapshots(snap_dir, ran_rounds)
        check("parse" not in report,
              "report: 'parse' block present for generated (non-Bookshelf) input")
        check("error" not in report,
              "report: 'error' block present on a successful run")
        run_negative_path(binary, tmp)

    if FAILURES:
        print("check_report: FAILED")
        for f in FAILURES:
            print(f"  - {f}")
        return 1
    print("check_report: OK (report + trace schema-valid and consistent)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
