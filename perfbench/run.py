#!/usr/bin/env python3
"""Builds and runs the bloomRF LSM benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (and the library from src/) under $CARGO_TARGET_DIR,
default .bench_build, runs the statistics self-test, then one workload.
An end-to-end run (--trace 0) splits --seconds over PROCESSES fresh
processes, each setting up its own store, and reports for every metric
the median of all their slices (or set-ups): part of the noise on a
shared host comes from what a process is dealt at start (memory
placement, the neighbours of the moment), so a run samples several. Prints the host,
build, notes and every metric by name with its unit; the last stdout
line is the JSON result. Exits non-zero without a result when the
build, the self-test or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("point_leveled_hot", "range_l0_cold", "ingest_mixed")
# Never used while the benchmark or a change is tuned; a claimed gain
# must also hold at this seed.
HELD_OUT_SEED = 90001
RUN_TIMEOUT_S = 170
PROCESSES = 8

END_TO_END = (
    "get_p50_us", "get_ops_s", "multiget_keys_s",
    "scan_p50_us", "scan_ranges_s", "put_p99_us",
    "ingest_keys_s", "point_fpr", "range_fpr", "bits_per_key", "space_amp",
    "setup_s",
)
PER_LAYER = (
    "lsm.db.get_p99_us", "lsm.db.scan_p99_us", "lsm.db.get_self_ns", "lsm.db.get_traced_p50_ns",
    "lsm.db.get_layers_sum_ns", "lsm.db.tables_checked_per_get",
    "lsm.db.scan_merge_ns", "lsm.db.scan_traced_p50_ns",
    "lsm.db.scan_layers_sum_ns", "lsm.db.put_self_ns",
    "lsm.db.put_traced_p50_ns", "lsm.db.put_layers_sum_ns",
    "core.bloomrf.point_probe_ns", "core.bloomrf.point_probes_per_get",
    "core.bloomrf.point_true_negative_ratio", "core.bloomrf.range_probe_ns",
    "core.bloomrf.range_probes_per_range",
    "core.bloomrf.range_true_negative_ratio", "core.bloomrf.build_ns_per_key",
    "lsm.table_reader.find_ns", "lsm.table_reader.blocks_per_get",
    "lsm.table_reader.blocks_per_range", "lsm.block_cache.lookup_ns",
    "lsm.block_cache.hit_ratio", "lsm.block_cache.evictions_per_op",
    "lsm.block.read_ns", "lsm.block.parse_ns", "lsm.block.bytes_read_per_op",
    "lsm.memtable.insert_ns", "lsm.memtable.find_ns", "lsm.wal.append_ns",
    "lsm.wal.group_size", "lsm.table_builder.flushes",
    "lsm.table_builder.flush_s", "lsm.compaction.busy_s",
    "lsm.compaction.jobs", "lsm.compaction.write_amp",
    "lsm.version.files_per_level.L0", "lsm.version.files_per_level.L1",
    "lsm.version.files_per_level.L2", "lsm.version.files_per_level.L3",
    "lsm.version.files_per_level.L4", "lsm.version.files_per_level.L5",
    "trace.get_overhead_ratio", "trace.scan_overhead_ratio",
)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def call(cmd, **kwargs):
    """Runs cmd with its output on stderr; raises on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                   **kwargs)


def build(out):
    cmake_dir = os.path.join(out, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        call(["cmake", "-S", HERE, "-B", cmake_dir,
              "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    call(["cmake", "--build", cmake_dir, "-j", jobs])
    call([os.path.join(cmake_dir, "stats_test")])
    return os.path.join(cmake_dir, "lsm_bench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if res.returncode == 0:
            return "git " + res.stdout.strip()
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256 " + digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_times():
    """(steal, total) jiffies of all CPUs; steal is time the hypervisor
    gave this host's CPUs to someone else."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
        return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        return 0, 0


def check_shapes(out, workload, seed, shapes_seen):
    """Read workloads must reach one tree shape per seed: in every process
    of a run, and run after run. Returns the failure notes."""
    if workload == "ingest_mixed":
        return []
    path = os.path.join(out, "shapes.json")
    pinned = {}
    if os.path.exists(path):
        with open(path) as f:
            pinned = json.load(f)
    key = "%s/%d" % (workload, seed)
    pinned.setdefault(key, shapes_seen[0])
    with open(path, "w") as f:
        json.dump(pinned, f, indent=1, sort_keys=True)
    return ["FAIL tree shape %s differs from %s, pinned for this seed" % (
        shape, pinned[key]) for shape in shapes_seen if shape != pinned[key]]


def run_process(cmd, deadline):
    """Runs one lsm_bench process; returns its JSON result or None."""
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        log("lsm_bench exited with", proc.returncode)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(ROOT, target)
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        log("build or self-test failed:", e)
        return 1

    run_dir = os.path.join(out, "run", args.workload)
    trace_dir = os.path.join(out, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    # A traced run is one process doing the work of one end-to-end one.
    processes = 1 if args.trace else PROCESSES
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds / PROCESSES),
           "--trace", str(args.trace), "--dir", run_dir]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s.spans" % args.workload)]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    steal_before = cpu_times()
    results = []
    try:
        for _ in range(processes):
            result = run_process(cmd, deadline)
            if result is None:
                return 1
            results.append(result)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    wanted = PER_LAYER if args.trace else END_TO_END
    missing = [m for m in wanted
               if any(m not in r["metrics"] for r in results)]
    if missing:
        log("lsm_bench did not report:", ", ".join(missing))
        return 1
    notes = []
    for i, r in enumerate(results):
        notes += ["[%d] %s" % (i + 1, n) for n in r["notes"]]
    notes += check_shapes(out, args.workload, args.seed,
                          [r["shape"] for r in results])
    metrics = {}
    for name in wanted:
        values = [v for r in results for v in r["metrics"][name]["values"]]
        metrics[name] = {"value": statistics.median(values),
                         "unit": results[0]["metrics"][name]["unit"]}
    result = {
        "correct": all(r["correct"] for r in results) and
                   not any(n.startswith("FAIL") for n in notes),
        "attempted": sum(int(r["attempted"]) for r in results),
        "failed": sum(int(r["failed"]) for r in results),
        "shape": results[0]["shape"], "notes": notes,
        "build": results[0]["build"], "metrics": metrics,
    }

    steal_after = cpu_times()
    host = {
        "steal_pct": round(100.0 * (steal_after[0] - steal_before[0]) /
                           max(1, steal_after[1] - steal_before[1]), 1),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "source": source_id(),
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        **result["build"],
    }
    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "host": host, **result}
    os.makedirs(os.path.join(out, "results"), exist_ok=True)
    with open(os.path.join(out, "results", "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    attempted = max(1, int(result["attempted"]))
    failed = int(result["failed"])
    print("workload %s, seed %d, %g s, trace %d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("host: " + ", ".join("%s=%s" % kv for kv in sorted(host.items())))
    for note in notes:
        print("  " + note)
    print("fail_frac %.6g (%d wrong or failed of %d attempted)" % (
        failed / attempted, failed, attempted))
    for name, m in metrics.items():
        print("%-40s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": result["correct"] and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
