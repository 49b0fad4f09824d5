#!/usr/bin/env python3
"""Aggregate bench JSONL into a dated trend file and gate perf regressions.

The bench binaries append machine-readable JSONL rows to $RP_BENCH_JSON:

  * full run reports   (one ``{"schema_version": ..., "design": ...}`` object
    per flow run, same schema as ``routplace --report-json``),
  * kernel speedups    (``{"schema": "kernel_speedup", ...}`` from
    bench_micro_kernels' thread sweep),
  * SIMD speedups      (``{"schema": "simd_speedup", ...}``: scalar vs
    dispatched kernel time at one thread),
  * DP candidate cost  (``{"schema": "dp_candidate_speedup", ...}``:
    mutate-and-measure vs incremental-delta move scoring),
  * profiler regions   (``{"schema": "profile_region", ...}`` when the run
    was profiled via RP_PROFILE=1),
  * event-bus overhead (``{"schema": "event_bus_overhead", ...}`` from
    bench_micro_kernels: emit cost, events/sec, and the stream-on vs
    stream-off flow wall-time ratio),
  * sampler overhead   (``{"schema": "resource_sampler_overhead", ...}``:
    flow wall time with the resource timeline sampler off vs on — gated by
    the same <= 1.02 absolute ceiling as the event bus),
  * campaign medians   (``{"schema": "campaign_cell", ...}`` emitted by
    ``render_report.py --campaign`` into campaign_trend.jsonl: per-grid-cell
    medians over seeds, so rp_sweep campaigns feed the same trend gate).

``aggregate`` flattens those rows into a BENCH_<YYYYMMDD>.json trajectory
file: a flat ``metrics`` map keyed

  flow.<design>.<mode>.<metric>      hpwl / scaled_hpwl / rc / stage_total_sec
  kernel.<kernel>.t<threads>.<m>     sec_per_iter / speedup_vs_1
  kernel.simd.<kernel>.t1.<m>        off_sec / auto_sec / speedup_vs_off
  kernel.dp_candidate_eval.t1.<m>    full_sec / incremental_sec / speedup_vs_full
  region.<bench>.<flow>.<region>.<m> total_ms / p50_us / p95_us / p99_us
  campaign.<cell>.<m>                hpwl_median / rc_median / overflow_median
                                     / runtime_median_sec

Each metric records its value (mean over rows), sample count, and a *kind*
that decides the regression direction and default noise tolerance:

  info           reported, never gated: profiler region quantiles
                 (region.*), many over sub-millisecond regions, move by more
                 than any tolerance on noise alone
  time           lower is better; noisy     -> default tolerance 15%
  higher_better  higher is better; noisy    -> default tolerance 15%
  quality        lower is better; exact     -> default tolerance 1%
  limit          absolute ceiling; the CURRENT value must stay under a fixed
                 limit regardless of the baseline (eventbus.overhead_ratio
                 <= 1.02: the event bus may not cost a flow more than 2%)
  speedup        higher is better AND floored at 1.0: the current value must
                 not drop below 1.0 - tol regardless of the baseline (a SIMD
                 kernel may never run slower than the scalar path it
                 replaces; incremental scoring may never lose to the full
                 re-evaluation it shortcuts)

``aggregate`` also stamps a ``build`` block (compiler, flags, build_type,
git_describe) taken from the run-report rows, so a trend file says what
binary produced it; ``compare`` prints both stamps when they differ.

``compare`` checks a current trend file against a committed baseline and
exits nonzero if any shared gated metric regressed beyond its tolerance —
this is the CI gate (see the bench_smoke ctest). Individual metrics present
on only one side are reported but never fail the gate (benches come and
go) — but a whole gated METRIC FAMILY (the first key segment: flow, kernel,
eventbus, sampler, campaign, ...) that the baseline has and the fresh file
lacks fails with a clear message: a family vanishing wholesale means a
producer stopped emitting, not that one bench was renamed. New unbaselined
families are reported as NEW FAMILY.

stdlib only; no third-party dependencies.
"""

import argparse
import json
import sys
import time

TIME_SUFFIXES = ("_sec", "_ms", "_us", "_ns", "sec_per_iter", "stage_total_sec")
HIGHER_BETTER_SUFFIXES = ("speedup_vs_1", "events_per_sec")

# Speedup-vs-reference metrics: trajectory-gated like higher_better, plus an
# absolute floor — the current value must stay >= 1.0 - tol even when the
# baseline predates the metric.
SPEEDUP_SUFFIXES = ("speedup_vs_off", "speedup_vs_full")
SPEEDUP_FLOOR = 1.0

# Absolute ceilings: key suffix -> max allowed CURRENT value. These gate a
# contract ("streaming may not cost >2% flow time"), not a trajectory, so
# they fail on the current measurement alone.
LIMIT_METRICS = {"overhead_ratio": 1.02}


def metric_limit(key):
    for suffix, limit in LIMIT_METRICS.items():
        if key.endswith(suffix):
            return limit
    return None

# Flow-report metrics worth tracking (quality is deterministic per design,
# runtime is the thing PRs move).
FLOW_METRICS = ("hpwl", "scaled_hpwl", "rc", "stage_total_sec")
REGION_METRICS = ("total_ms", "p50_us", "p95_us", "p99_us")


def metric_family(key):
    """First key segment: the producer group a metric belongs to."""
    return key.split(".", 1)[0]


# Families kept in the trend file as information only (kind "info").
INFO_FAMILIES = ("region",)

# The run report's "build" fields stamped into a trend file.
BUILD_FIELDS = ("compiler", "flags", "build_type", "git_describe")


def metric_kind(key):
    if metric_family(key) in INFO_FAMILIES:
        return "info"
    if metric_limit(key) is not None:
        return "limit"
    if key.endswith(SPEEDUP_SUFFIXES):
        return "speedup"
    if key.endswith(HIGHER_BETTER_SUFFIXES):
        return "higher_better"
    if key.endswith(TIME_SUFFIXES):
        return "time"
    return "quality"


def fail(msg):
    print("bench_trend: %s" % msg, file=sys.stderr)
    sys.exit(2)


# ----------------------------------------------------------------- aggregate


def rows_from_jsonl(path):
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            for ln, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rows.append(json.loads(line))
                except json.JSONDecodeError as e:
                    fail("%s:%d: bad JSON line: %s" % (path, ln, e))
    except OSError as e:
        fail("cannot read '%s': %s" % (path, e))
    if not rows:
        fail("'%s' contains no JSONL rows" % path)
    return rows


def metrics_from_rows(rows):
    """Flatten JSONL rows into {key: [values]}."""
    acc = {}

    def add(key, value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return
        acc.setdefault(key, []).append(float(value))

    for row in rows:
        schema = row.get("schema")
        if schema == "kernel_speedup":
            base = "kernel.%s.t%d" % (row.get("kernel", "?"), int(row.get("threads", 0)))
            add(base + ".sec_per_iter", row.get("sec_per_iter"))
            add(base + ".speedup_vs_1", row.get("speedup_vs_1"))
        elif schema == "simd_speedup":
            base = "kernel.simd.%s.t%d" % (
                row.get("kernel", "?"), int(row.get("threads", 1)))
            add(base + ".off_sec", row.get("off_sec"))
            add(base + ".auto_sec", row.get("auto_sec"))
            add(base + ".speedup_vs_off", row.get("speedup_vs_off"))
        elif schema == "dp_candidate_speedup":
            base = "kernel.dp_candidate_eval.t%d" % int(row.get("threads", 1))
            add(base + ".full_sec", row.get("full_sec"))
            add(base + ".incremental_sec", row.get("incremental_sec"))
            add(base + ".speedup_vs_full", row.get("speedup_vs_full"))
        elif schema == "profile_region":
            base = "region.%s.%s.%s" % (
                row.get("bench", "?"), row.get("flow", "?"), row.get("region", "?"))
            for m in REGION_METRICS:
                add("%s.%s" % (base, m), row.get(m))
        elif schema == "event_bus_overhead":
            for m in ("events_per_sec", "emit_ns", "emit_streamed_ns",
                      "flow_off_sec", "flow_on_sec", "overhead_ratio"):
                add("eventbus.%s" % m, row.get(m))
        elif schema == "resource_sampler_overhead":
            # samples_taken stays in the raw row but is not trended — the
            # count tracks wall time, which run-to-run noise moves freely.
            for m in ("flow_off_sec", "flow_on_sec", "overhead_ratio"):
                add("sampler.%s" % m, row.get(m))
        elif schema == "campaign_cell":
            base = "campaign.%s" % row.get("cell", "?")
            for m in ("hpwl_median", "rc_median", "overflow_median",
                      "runtime_median_sec"):
                add("%s.%s" % (base, m), row.get(m))
        elif "schema_version" in row and "design" in row:
            base = "flow.%s.%s" % (row["design"].get("name", "?"), row.get("mode", "?"))
            ev = row.get("eval", {})
            add(base + ".hpwl", ev.get("hpwl"))
            add(base + ".scaled_hpwl", ev.get("scaled_hpwl"))
            add(base + ".rc", ev.get("congestion", {}).get("rc"))
            add(base + ".stage_total_sec", row.get("stage_total_sec"))
        # Unknown rows are skipped: the JSONL stream is append-only and a
        # newer producer must not break an older aggregator.
    return acc


def build_from_rows(rows):
    """The build stamp of the run-report rows (None when there are none)."""
    stamps = []
    for row in rows:
        if "schema_version" in row and isinstance(row.get("build"), dict):
            stamp = {f: row["build"].get(f, "") for f in BUILD_FIELDS}
            if stamp not in stamps:
                stamps.append(stamp)
    if len(stamps) > 1:
        print("bench_trend: warning — rows come from %d different builds; "
              "stamping the first" % len(stamps), file=sys.stderr)
    return stamps[0] if stamps else None


def cmd_aggregate(args):
    date = args.date or time.strftime("%Y%m%d")
    rows = rows_from_jsonl(args.input)
    acc = metrics_from_rows(rows)
    if not acc:
        fail("no recognized metrics in '%s'" % args.input)
    metrics = {
        key: {
            "value": sum(vals) / len(vals),
            "kind": metric_kind(key),
            "n": len(vals),
        }
        for key, vals in sorted(acc.items())
    }
    doc = {
        "schema": "bench_trend",
        "version": 1,
        "date": date,
        "rows": len(rows),
        "metrics": metrics,
    }
    build = build_from_rows(rows)
    if build is not None:
        doc["build"] = build
    out = args.out or ("BENCH_%s.json" % date)
    with open(out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print("bench_trend: wrote %s (%d metrics from %d rows)" % (out, len(metrics), len(rows)))
    return 0


# ------------------------------------------------------------------- compare


def load_trend(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail("cannot load trend file '%s': %s" % (path, e))
    if doc.get("schema") != "bench_trend" or "metrics" not in doc:
        fail("'%s' is not a bench_trend file" % path)
    # Validate up front so a malformed entry fails with a named metric, not
    # a KeyError traceback deep inside the comparison loop.
    for key, entry in doc["metrics"].items():
        if not isinstance(entry, dict) or isinstance(entry.get("value"), bool) \
                or not isinstance(entry.get("value"), (int, float)):
            fail("'%s': metric '%s' has no numeric 'value'" % (path, key))
    return doc


def cmd_compare(args):
    base = load_trend(args.baseline)
    cur = load_trend(args.current)
    bm, cm = base["metrics"], cur["metrics"]

    regressions, improvements, checked = [], [], 0
    info_only = sum(1 for k in cm if metric_kind(k) == "info")

    # Absolute-limit metrics gate on the current file alone (and are checked
    # even when the baseline predates them).
    for key in sorted(cm):
        limit = metric_limit(key)
        if limit is None:
            continue
        c = cm[key]["value"]
        checked += 1
        if c > limit:
            regressions.append((key, limit, c, c / limit))

    # Speedup metrics carry an absolute floor on the current file alone: a
    # dispatched kernel that lost to its scalar/full reference fails even if
    # the baseline never measured it.
    for key in sorted(cm):
        if metric_kind(key) != "speedup":
            continue
        c = cm[key]["value"]
        checked += 1
        if c < SPEEDUP_FLOOR - args.time_tol:
            regressions.append((key, SPEEDUP_FLOOR, c, c / SPEEDUP_FLOOR))

    for key in sorted(set(bm) & set(cm)):
        b, c = bm[key]["value"], cm[key]["value"]
        kind = metric_kind(key)
        if kind != "info":
            kind = bm[key].get("kind", kind)
        if kind in ("limit", "info"):
            continue  # limits are gated absolutely above; info is never gated
        if kind == "time" and args.scale_time != 1.0:
            c *= args.scale_time  # testing aid: synthetic slowdown injection
        tol = args.quality_tol if kind == "quality" else args.time_tol
        checked += 1
        if b == 0.0:
            continue
        ratio = c / b
        if kind in ("higher_better", "speedup"):
            if ratio < 1.0 - tol:
                regressions.append((key, b, c, ratio))
            elif ratio > 1.0 + tol:
                improvements.append((key, b, c, ratio))
        else:  # time / quality: lower is better
            if ratio > 1.0 + tol:
                regressions.append((key, b, c, ratio))
            elif ratio < 1.0 - tol:
                improvements.append((key, b, c, ratio))

    only_base = sorted(set(bm) - set(cm))
    only_cur = sorted(set(cm) - set(bm))
    missing_families = sorted({metric_family(k) for k in bm}
                              - {metric_family(k) for k in cm}
                              - set(INFO_FAMILIES))
    new_families = sorted({metric_family(k) for k in cm}
                          - {metric_family(k) for k in bm})

    print("bench_trend: %s (%s) vs %s (%s): %d shared metrics "
          "(%d info-only, not gated)" %
          (args.baseline, base.get("date", "?"), args.current, cur.get("date", "?"),
           checked, info_only))
    if base.get("build") != cur.get("build"):
        for label, doc in (("baseline", base), ("current", cur)):
            stamp = doc.get("build")
            print("  BUILD      %-8s %s" % (label, "(none)" if stamp is None else
                  ", ".join("%s=%s" % (f, stamp.get(f, "")) for f in BUILD_FIELDS)))
    for key, b, c, ratio in improvements:
        print("  IMPROVED   %-55s %.4g -> %.4g (%.2fx)" % (key, b, c, ratio))
    for fam in new_families:
        print("  NEW FAMILY %s.* (not in the baseline; will be gated once "
              "baselined)" % fam)
    for key in only_base:
        print("  DROPPED    %s" % key)
    for key in only_cur:
        print("  NEW        %s" % key)
    for key, b, c, ratio in regressions:
        print("  REGRESSED  %-55s %.4g -> %.4g (%.2fx)" % (key, b, c, ratio))

    if missing_families:
        print("bench_trend: FAIL — baseline metric family(ies) missing from "
              "the fresh file: %s. A whole family vanishing means its "
              "producer stopped emitting rows (bench not run, schema "
              "renamed, or $RP_BENCH_JSON truncated) — re-run the bench or "
              "re-baseline deliberately." % ", ".join(missing_families),
              file=sys.stderr)
        return 1
    if checked == 0:
        print("bench_trend: FAIL — no shared metrics to compare", file=sys.stderr)
        return 1
    if regressions:
        print("bench_trend: FAIL — %d metric(s) regressed beyond tolerance "
              "(time ±%.0f%%, quality ±%.0f%%)" %
              (len(regressions), args.time_tol * 100, args.quality_tol * 100),
              file=sys.stderr)
        return 1
    print("bench_trend: OK — no regressions (%d improved, %d new, %d dropped)" %
          (len(improvements), len(only_cur), len(only_base)))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)

    agg = sub.add_parser("aggregate", help="bench JSONL -> BENCH_<date>.json")
    agg.add_argument("--input", required=True, help="JSONL file ($RP_BENCH_JSON)")
    agg.add_argument("--out", help="output path (default BENCH_<date>.json)")
    agg.add_argument("--date", help="override the date stamp (YYYYMMDD)")
    agg.set_defaults(fn=cmd_aggregate)

    cmp_ = sub.add_parser("compare", help="gate a trend file against a baseline")
    cmp_.add_argument("--baseline", required=True)
    cmp_.add_argument("--current", required=True)
    cmp_.add_argument("--time-tol", type=float, default=0.15,
                      help="relative tolerance for time/ratio metrics (default 0.15)")
    cmp_.add_argument("--quality-tol", type=float, default=0.01,
                      help="relative tolerance for quality metrics (default 0.01)")
    cmp_.add_argument("--scale-time", type=float, default=1.0,
                      help="multiply current time metrics (smoke-test injection)")
    cmp_.set_defaults(fn=cmd_compare)

    args = ap.parse_args()
    sys.exit(args.fn(args))


if __name__ == "__main__":
    main()
