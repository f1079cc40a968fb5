#!/usr/bin/env python3
"""End-to-end benchmark of ldpmda.

Run one workload (builds the program from the checkout's sources first):

  python3 perfbench/run.py --workload adhoc --seed 1 --seconds 10 --trace 0

prints the metrics by name with their units, writes a result file with
provenance under .bench_build/results/, and prints as its last line one JSON
object {"correct", "attempted", "failed", "metrics"}. --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer ones (see perfbench/README.md).

Compare two sets of result files (parent and change, paired by seed):

  python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # write nothing outside .bench_build
sys.path.insert(0, HERE)
import stats  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("ingest-live", "adhoc", "dashboard")
PROGRAM_TIMEOUT_S = 170

# What one operation of each workload is, and what its throughput counts.
OPERATION = {
    "ingest-live": ("ingest_batch", "ingest_reports_per_s", "frames/s"),
    "adhoc": ("query", "queries_per_s", "queries/s"),
    "dashboard": ("refresh", "refreshes_per_s", "rounds/s"),
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail(message):
    log("perfbench: " + message)
    raise SystemExit(1)


# --------------------------------------------------------------------------
# Build and run


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under " + os.path.join(ROOT, "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD_DIR, "-j", jobs,
                 "--target", "perfbench"]):
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            fail("build failed: " + " ".join(cmd))


def run_program(workload, seed, seconds, trace):
    raw_dir = os.path.join(BUILD_DIR, "raw")
    os.makedirs(raw_dir, exist_ok=True)
    raw_path = os.path.join(raw_dir, "%s-%d-%d.json" % (workload, seed, trace))
    work_dir = os.path.join(ROOT, ".bench_build", "work",
                            "%s-%d" % (workload, os.getpid()))
    spans_path = raw_path + ".spans.tsv"
    for path in (raw_path, spans_path):
        if os.path.exists(path):
            os.remove(path)
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", raw_path, "--work_dir", work_dir]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("perfbench timed out")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not os.path.exists(raw_path):
        fail("perfbench exited %d without results" % code)
    with open(raw_path) as f:
        raw = json.load(f)
    spans = load_spans(spans_path) if trace else []
    return code, raw, spans


def load_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            i, parent, request, name, start, end, items = line.split("\t")
            spans.append({"id": int(i), "parent": int(parent),
                          "request": int(request), "name": name,
                          "start": int(start), "end": int(end),
                          "items": int(items)})
    return spans


def provenance(raw):
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"workload": raw["workload"], "seed": int(raw["seed"]),
            "seconds": raw["seconds"], "traced": raw["traced"],
            "nproc": os.cpu_count(), "threads": int(raw["threads"]),
            "build_type": raw["build_type"],
            "simd_active_level": raw["simd_level"], "git_commit": commit}


# --------------------------------------------------------------------------
# Metrics


def end_to_end(raw):
    """The BENCHMARK.json end-to-end metrics: {name: (value, unit)}.

    The p50 is the median over one-second windows of each window's median
    (see stats.windowed_percentile)."""
    return {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "peak_rss_mb": (raw["peak_rss_kib"] / 1024.0, "MiB"),
        "op_p50_ms": (stats.windowed_percentile(raw["op_end_s"],
                                                raw["op_ms"], 50), "ms"),
    }


def workload_metrics(raw, e2e):
    """The metrics a workload names for itself: {name: (value, unit)}.

    Untraced runs add the workload's throughput and tail latencies under its
    own names. They have no bound (see README.md)."""
    w = raw["workload"]
    op_name, rate_name, rate_unit = OPERATION[w]
    out = {"op_failure_ratio": (raw["failed"] / max(1, raw["attempted"]),
                                "failed/attempted")}
    if e2e:
        op, end_s = raw["op_ms"], raw["op_end_s"]
        out[rate_name] = (stats.windowed_rate(end_s, raw["op_units"]),
                          rate_unit)
        out[op_name + "_p90_ms"] = (
            stats.windowed_percentile(end_s, op, 90), "ms")
        out[op_name + "_p99_ms"] = (stats.percentile(op, 99), "ms")
    if w == "ingest-live":
        out["recovery_s"] = (statistics.median(raw["recovery_s"]), "s")
        out["poll_p50_ms"] = (stats.percentile(raw["poll_ms"], 50), "ms")
    if w == "adhoc":
        out["query_mnae"] = (stats.mnae(raw["accuracy"]), "MNAE")
    return out


def span_table(spans, self_ns):
    """{name: {"count", "items", "dur_ns", "self_ns"}} over all spans."""
    table = {}
    for s in spans:
        row = table.setdefault(s["name"], {"count": 0, "items": 0,
                                           "dur_ns": 0, "self_ns": 0})
        row["count"] += 1
        row["items"] += s["items"]
        row["dur_ns"] += s["end"] - s["start"]
        row["self_ns"] += self_ns[s["id"]]
    return table


def per_layer(raw, spans):
    """The BENCHMARK.json per-layer metrics: {name: (value, unit)}."""
    w = raw["workload"]
    sc = raw["scalars"]
    tc = raw["traced_counters"]
    bc = raw["batch_counters"]
    self_ns = stats.self_times(spans)
    table = span_table(spans, self_ns)

    def col(name, key):
        return table.get(name, {}).get(key, 0)

    def per(num, den):
        return num / den if den else 0.0

    root = {"ingest-live": "pass", "adhoc": "ExecuteSql",
            "dashboard": "round"}[w]
    roots = [s for s in spans if s["parent"] < 0 and s["name"] == root]
    root_ids = {s["id"] for s in roots}
    traced_ops = len(roots)
    # Estimation work is counted per query: per EstimateBox poll on
    # ingest-live, per tile query on dashboard (a round asks each tile twice,
    # once in the batch and once as SQL; only the SQL pass adds ie_terms).
    if w == "ingest-live":
        queries = profiled = col("EstimateBox", "count")
        estimate_ns = col("EstimateBox", "dur_ns")
        estimate_ops = col("poll", "count")
    else:
        per_op = sc.get("queries_per_round", 1)
        queries = raw["traced_ops"] * per_op
        profiled = queries / 2 if w == "dashboard" else queries
        estimate_ns = col("estimate", "self_ns")
        estimate_ops = traced_ops

    def stage_us(name):
        return per(col(name, "self_ns"), traced_ops) / 1e3

    est_probes = tc["estimate_cache.hits"] + tc["estimate_cache.misses"]
    fo_probes = (tc["fo_cache.hits"] + tc["fo_cache.builds"] +
                 tc["fo_cache.stale_rebuilds"])
    plan_probes = tc["plan_cache.hits"] + tc["plan_cache.misses"]
    batch_tasks = bc["plan.batch_dedup_hits"] + bc["plan.estimate_calls"]
    wc = raw["window_counters"]
    passes = sc.get("passes", 0)
    frame_bytes = sc.get("frame_bytes_per_pass", 0) * passes
    mem_ms = per(col("IngestBatch.memory", "dur_ns"),
                 col("IngestBatch.memory", "items")) / 1e6
    queue = raw["queue_wait_buckets"]
    untraced_p50 = stats.percentile(raw["op_ms"], 50)
    traced_p50 = stats.percentile(raw["traced_op_ms"], 50)
    wm = workload_metrics(raw, None)

    m = {
        "engine.encode_ns_per_report": (
            per(col("EncodeUser", "dur_ns"), col("EncodeUser", "items")),
            "ns"),
        "engine.create_ms": (statistics.median(raw["create_ms"]), "ms"),
        "engine.decode_ns_per_frame": (
            per(col("DecodeFrame", "dur_ns"), col("DecodeFrame", "items")),
            "ns"),
        "engine.ingest_mem_ms_per_batch": (mem_ms, "ms"),
        "engine.ingest_accepted": (sc.get("ingest_accepted", 0), "count"),
        "engine.ingest_duplicate": (sc.get("ingest_duplicate", 0), "count"),
        "engine.ingest_quarantined": (sc.get("ingest_quarantined", 0),
                                      "count"),
        "storage.overhead_ms_per_batch": (
            statistics.mean(raw["traced_op_ms"]) - mem_ms
            if w == "ingest-live" else 0.0, "ms"),
        "storage.wal_append_ns_per_frame": (
            per(col("Wal::Append", "dur_ns"), col("Wal::Append", "items")),
            "ns"),
        "storage.snapshot_stall_ms": (sc.get("snapshot_stall_ms", 0), "ms"),
        "storage.fsyncs": (per(wc.get("storage.fsyncs", 0), passes),
                           "count/pass"),
        "storage.wal_bytes_per_frame_byte": (
            per(wc.get("storage.wal_bytes", 0), frame_bytes), "B/B"),
        "storage.recovery_snapshot_entries": (
            sc.get("recovery_snapshot_entries", 0), "count"),
        "storage.recovery_replayed_frames": (
            sc.get("recovery_replayed_frames", 0), "count"),
        "mech.accumulate_ns_per_report": (
            per(col("AddReport", "dur_ns"), col("AddReport", "items")), "ns"),
        "mech.estimate_us": (per(estimate_ns, estimate_ops) / 1e3, "us"),
        "mech.estimate_cache_hit_ratio": (per(tc["estimate_cache.hits"],
                                              est_probes), "ratio"),
        "mech.estimate_cache_probes": (per(est_probes, queries), "count"),
        "mech.estimate_cache_epoch_drops": (
            per(tc["estimate_cache.epoch_drops"], queries), "count"),
        "hierarchy.nodes_per_query": (per(est_probes, queries), "count"),
        "fo.report_values_per_query": (
            per(tc["estimate.report_values"], queries), "count"),
        "fo.ns_per_report_value": (per(estimate_ns,
                                       tc["estimate.report_values"]), "ns"),
        "fo.cache_hit_ratio": (per(tc["fo_cache.hits"], fo_probes), "ratio"),
        "fo.cache_probes": (per(fo_probes, queries), "count"),
        "exec.queue_wait_p50_us": (
            stats.histogram_quantile(queue, 0.5) / 1e3, "us"),
        "exec.queue_wait_p99_us": (
            stats.histogram_quantile(queue, 0.99) / 1e3, "us"),
        "exec.chunks_per_query": (
            per(tc["exec.chunks"],
                raw["traced_ops"] if w == "ingest-live" else queries),
            "count"),
        "query.parse_us": (stage_us("parse"), "us"),
        "query.rewrite_us": (stage_us("rewrite"), "us"),
        "query.ie_terms_per_query": (per(sc.get("ie_terms", 0), profiled),
                                     "count"),
        "plan.plan_us": (stage_us("plan"), "us"),
        "plan.fanout_us": (stage_us("fanout"), "us"),
        "plan.aggregate_us": (stage_us("aggregate"), "us"),
        "plan.cache_hit_ratio": (per(tc["plan_cache.hits"], plan_probes),
                                 "ratio"),
        "plan.cache_probes": (per(plan_probes, queries), "count"),
        "plan.estimate_calls_per_query": (
            per(tc["plan.estimate_calls"], queries), "count"),
        "plan.batch_dedup_ratio": (per(bc["plan.batch_dedup_hits"],
                                       batch_tasks), "ratio"),
        "plan.batch_tasks": (per(batch_tasks, raw["traced_ops"]), "count"),
        "obs.trace_overhead_ratio": (per(traced_p50, untraced_p50), "ratio"),
        "obs.traced_op_us": (
            per(sum(s["end"] - s["start"] for s in roots), traced_ops) / 1e3,
            "us"),
        "unattributed_us": (
            per(sum(self_ns[i] for i in root_ids), traced_ops) / 1e3, "us"),
        "op_failure_ratio": wm["op_failure_ratio"],
        "recovery_s": wm.get("recovery_s", (0.0, "s")),
        "poll_p50_ms": wm.get("poll_p50_ms", (0.0, "ms")),
        "query_mnae": wm.get("query_mnae", (0.0, "MNAE")),
    }
    return m, table


# --------------------------------------------------------------------------
# One run


def run_workload(args):
    build()
    code, raw, spans = run_program(args.workload, args.seed, args.seconds,
                                   args.trace)
    failures = list(raw["failures"])
    if raw["status"] != "OK":
        failures.append(raw["status"])
    tail = stats.tail_percentile(len(raw["op_ms"]))
    if not args.trace and (tail is None or tail < 99.0):
        failures.append("too few operations (%d) for a p99"
                        % len(raw["op_ms"]))
    correct = code == 0 and raw["failed"] == 0 and not failures

    prov = provenance(raw)
    if args.trace:
        metrics, table = per_layer(raw, spans)
    else:
        metrics, table = end_to_end(raw), {}
    wm = workload_metrics(raw, None if args.trace else metrics)

    print("perfbench " + " ".join("%s=%s" % kv for kv in prov.items()))
    print("  operations: %d untraced, %d traced; tail percentile p%s"
          % (len(raw["op_ms"]), len(raw["traced_op_ms"]), tail))
    extra = [kv for kv in wm.items() if kv[0] not in metrics]
    for name, (value, unit) in list(metrics.items()) + extra:
        print("  %-36s %16.6g %s" % (name, value, unit))
    if not args.trace:
        value, unit = metrics["op_p50_ms"]
        print("  %-36s %16.6g %s (= op_p50_ms)"
              % (OPERATION[args.workload][0] + "_p50_ms", value, unit))
    for f in failures:
        print("  FAILURE: " + f)

    result = {"provenance": prov, "correct": correct,
              "attempted": int(raw["attempted"]), "failed": int(raw["failed"]),
              "failures": failures,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()},
              "workload_metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in wm.items()},
              "program_counts": raw["scalars"],
              "spans": table}
    results_dir = args.results or RESULTS_DIR
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    # The last line carries exactly the metrics BENCHMARK.json lists. A
    # failed run still counts as attempted; at least one failure is reported
    # when the correctness check (and nothing else) failed.
    with open(BENCHMARK_JSON) as f:
        listed = json.load(f)["per_layer" if args.trace else "end_to_end"]
    failed = int(raw["failed"]) + (0 if raw["failed"] or correct else 1)
    print(json.dumps({"correct": correct,
                      "attempted": max(1, int(raw["attempted"])),
                      "failed": failed,
                      "metrics": {m["name"]: result["metrics"][m["name"]]
                                  for m in listed}}))
    return 0 if correct else 1


# --------------------------------------------------------------------------
# Compare mode


def load_results(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            r = json.load(f)
        p = r["provenance"]
        runs[(p["workload"], bool(p["traced"]), p["seed"])] = r
    return runs


def compare(parent_dir, change_dir):
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    specs = {False: spec["end_to_end"], True: spec["per_layer"]}
    parent, change = load_results(parent_dir), load_results(change_dir)
    print("%-12s %-34s %-28s %-28s %-6s %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "won", "verdict"))
    worst = 0
    for workload in WORKLOADS:
        for traced in (False, True):
            seeds = sorted(s for (w, t, s) in parent
                           if w == workload and t == traced
                           and (w, t, s) in change)
            if not seeds:
                continue
            first = parent[(workload, traced, seeds[0])]
            # The workload's own metrics (p99 among them) have no bound; a
            # rate is better higher, everything else lower.
            own = [{"name": n, "key": "workload_metrics",
                    "better": "higher" if n.endswith("_per_s") else "lower"}
                   for n in first["workload_metrics"]
                   if n not in first["metrics"]]
            for m in specs[traced] + own:
                name, key = m["name"], m.get("key", "metrics")
                pv = [parent[(workload, traced, s)][key][name]["value"]
                      for s in seeds]
                cv = [change[(workload, traced, s)][key][name]["value"]
                      for s in seeds]
                v = stats.verdict(pv, cv, m["better"], m.get("bound"))
                if v["verdict"] == "regressed" and "bound" in m:
                    worst = 1
                print("%-12s %-34s %-28s %-28s %-6s %s" % (
                    workload, name, fmt(v["parent"]), fmt(v["change"]),
                    "%d/%d" % (v["wins"], v["pairs"]), v["verdict"]))
    return worst


def fmt(q):
    return "%.4g [%.4g, %.4g]" % (q["median"], q["q1"], q["q3"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="directory for the result file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload or --compare is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
