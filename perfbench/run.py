"""rmtlab benchmark: times CLI commands and public-API calls end to end and,
in a traced run, layer by layer.

Usage (from the root of a source checkout):
  python3 perfbench/run.py --workload finite_n|limits|ensembles \
      --seed N --seconds S --trace 0|1

Each pass runs the workload's jobs, in a fixed order, in one fresh Python
process (one closed-loop client, --workers 1, BLAS pinned to one thread).
Passes repeat until the next one would overrun --seconds; at least one
pass runs (two with --trace 1: one untraced, one traced).  Every job's
output is checked.  The times of a pass are reported at the nominal speed
of the host-speed probe (hostprobe.py) that runs between its jobs; the
measured times are printed beside them.  The last line of standard output
is a JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import checks
import hostprobe
import spantrace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
HARD_LIMIT_S = 170.0
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END = [("setup_s", "s"), ("jobs_s", "s"), ("group_a_s", "s"),
              ("group_b_s", "s"), ("peak_rss_mb", "MB"), ("oracle_digits", "digits")]
TRACE_METRICS = [("trace.wall_s", "s"), ("trace.overhead_s", "s"),
                 ("trace.accounted_frac", "ratio"), ("trace.spans", "count"),
                 ("cli.bytes_written", "bytes"), ("cli.exit_nonzero", "count")]


def environment(args, jobs):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_vendor(),
        "blas_threads": PINNED_ENV["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": _mem_total_mb(),
        "commit": _commit(),
        "workers": 1,
        "workload": args.workload,
        "seed": args.seed,
        "job_order": [j["id"] for j in jobs],
    }


def _blas_vendor():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def _mem_total_mb():
    try:
        with open("/proc/meminfo") as fh:
            return int(fh.readline().split()[1]) // 1024
    except (OSError, ValueError, IndexError):
        return None


def _commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


# ---------------------------------------------------------------------------
# passes

def run_pass(jobs, pass_dir, trace, deadline):
    """Run the jobs in one fresh process; returns the child's record."""
    pass_dir.mkdir(parents=True)
    spec = pass_dir / "spec.json"
    result = pass_dir / "result.json"
    spec.write_text(json.dumps({"src": str(SRC), "jobs": jobs, "trace": trace}))
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "RMTLAB_CACHE")}
    env.update(PINNED_ENV)
    spawned = time.time()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec), str(result)],
                            cwd=pass_dir, env=env, stdout=sys.stderr)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("benchmark pass exceeded the time limit")
    if proc.returncode != 0 or not result.exists():
        raise SystemExit(f"benchmark pass process exited with {proc.returncode}")
    rec = json.loads(result.read_text())
    rec["trace"] = trace
    # every time of the pass is also given at the probe's nominal speed
    rec["scale"] = hostprobe.speed_scale(rec["probe_s"])
    rec["setup_raw_s"] = rec["ready"] - spawned
    rec["setup_s"] = rec["setup_raw_s"] * rec["scale"]
    for job in rec["jobs"]:
        job["scaled_s"] = job["seconds"] * rec["scale"]
    return rec


def check_pass(jobs, rec, pass_dir, ref_cache):
    for job, res in zip(jobs, rec["jobs"]):
        ok, digits, detail = checks.run_check(job, res, pass_dir, ref_cache)
        res.update(ok=bool(ok), digits=digits, detail=detail)


def schedule(jobs, seconds, trace, run_dir):
    """Passes until the next would overrun `seconds`; with tracing the
    passes alternate untraced, traced."""
    start = time.monotonic()
    hard_deadline = start + HARD_LIMIT_S
    passes, ref_cache = [], {}
    while True:
        kind = bool(trace) and len(passes) % 2 == 1
        t0 = time.monotonic()
        pass_dir = run_dir / f"pass{len(passes)}"
        rec = run_pass(jobs, pass_dir, kind, hard_deadline)
        check_pass(jobs, rec, pass_dir, ref_cache)
        shutil.rmtree(pass_dir)
        rec["duration"] = time.monotonic() - t0
        passes.append(rec)
        next_kind = bool(trace) and len(passes) % 2 == 1
        same = [p["duration"] for p in passes if p["trace"] == next_kind]
        next_cost = statistics.median(same) if same else rec["duration"]
        if len(passes) >= (2 if trace else 1) \
                and time.monotonic() + next_cost > start + seconds:
            return passes


# ---------------------------------------------------------------------------
# metrics

def _median(values):
    return float(statistics.median(values)) if values else 0.0


def job_medians(jobs, passes, key="scaled_s"):
    """Median over passes of each job's time: at nominal probe speed
    (scaled_s) or as measured (seconds)."""
    return [_median([p["jobs"][i][key] for p in passes]) for i in range(len(jobs))]


def tally(passes):
    """Jobs attempted and failed (nonzero exit, exception or failed check)."""
    results = [r for p in passes for r in p["jobs"]]
    return len(results), sum(not r["ok"] for r in results)


def end_to_end(jobs, passes):
    plain = [p for p in passes if not p["trace"]]
    med = job_medians(jobs, plain)
    digits = [r["digits"] for p in passes for job, r in zip(jobs, p["jobs"])
              if job["check"]["name"] in checks.ORACLE_CHECKS]
    return {
        "setup_s": _median([p["setup_s"] for p in passes]),
        "jobs_s": sum(med),
        "group_a_s": sum(t for t, j in zip(med, jobs) if j["group"] == "a"),
        "group_b_s": sum(t for t, j in zip(med, jobs) if j["group"] == "b"),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in plain]),
        "oracle_digits": min((d if d is not None else 0.0) for d in digits)
        if digits else checks.MAX_DIGITS,
    }


def per_layer(jobs, passes):
    traced = [p for p in passes if p["trace"]]
    untraced_jobs = end_to_end(jobs, passes)["jobs_s"]
    rows = []
    for p in traced:
        spans = p["spans"]
        m = spantrace.layer_metrics(spans)
        wall = sum(r["seconds"] for r in p["jobs"])
        m["trace.wall_s"] = wall
        m["trace.overhead_s"] = sum(r["scaled_s"] for r in p["jobs"]) - untraced_jobs
        m["trace.accounted_frac"] = spantrace.root_time(spans) / wall
        m["trace.spans"] = len(spans)
        m["cli.bytes_written"] = sum(r["bytes_written"] for r in p["jobs"])
        m["cli.exit_nonzero"] = sum(1 for j, r in zip(jobs, p["jobs"])
                                    if "argv" in j and r["rc"] != 0)
        rows.append(m)
    return {k: _median([r[k] for r in rows]) for k in rows[0]}


def write_spans(path, jobs, rec):
    with open(path, "w") as fh:
        for name, start, end, parent, job, ok, info in rec["spans"]:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "job": jobs[job]["id"],
                                 "ok": ok, "info": info}) + "\n")


# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "rmtlab" / "cli.py").is_file():
        print(f"run.py: no rmtlab source tree at {SRC}", file=sys.stderr)
        return 2

    jobs = workloads.jobs_for(args.workload, args.seed)
    env = environment(args, jobs)
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        passes = schedule(jobs, args.seconds, args.trace, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed = tally(passes)
    e2e = end_to_end(jobs, passes)
    group_names = workloads.GROUPS[args.workload]
    plain = [p for p in passes if not p["trace"]]
    med = job_medians(jobs, plain)
    raw = job_medians(jobs, plain, key="seconds")

    print(f"# rmtlab benchmark, workload {args.workload}, seed {args.seed}, "
          f"{len(plain)} untraced / {len(passes) - len(plain)} traced passes")
    print("# env " + json.dumps(env))
    print("# job times: at nominal probe speed, as measured (medians over passes)")
    for i, (job, t, r) in enumerate(zip(jobs, med, raw)):
        status = "ok" if all(p["jobs"][i]["ok"] for p in passes) else "FAIL"
        detail = passes[-1]["jobs"][i]["detail"]
        print(f"#   {job['id']:<24} {job['group'] or '-'} {t:9.4f} s {r:9.4f} s  "
              f"{status}  {detail}")
    shown = [("setup_s", "s"), ("jobs_s", "s"), ("fail_frac", "ratio"),
             ("peak_rss_mb", "MB"), ("oracle_digits", "digits"),
             (group_names[0], "s"), (group_names[1], "s"),
             ("wall_s", "s"), ("setup_wall_s", "s"), ("speed_scale", "ratio")]
    values = dict(e2e, fail_frac=failed / attempted, wall_s=sum(raw),
                  setup_wall_s=_median([p["setup_raw_s"] for p in passes]),
                  speed_scale=_median([p["scale"] for p in plain]))
    values[group_names[0]], values[group_names[1]] = e2e["group_a_s"], e2e["group_b_s"]
    for name, unit in shown:
        print(f"# {name:<16} {values[name]:.6g} {unit}")

    OUT.mkdir(exist_ok=True)
    if args.trace:
        layers = per_layer(jobs, passes)
        units = dict(spantrace.metric_names() + TRACE_METRICS)
        for name, value in layers.items():
            print(f"#   {name:<40} {value:.6g} {units[name]}")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
        # the spans of the last traced pass; each traced run overwrites them
        write_spans(OUT / f"spans-{args.workload}.jsonl", jobs,
                    [p for p in passes if p["trace"]][-1])
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report = dict(result, env=env, all_metrics=values,
                  jobs=[{"id": j["id"], "median_s": t} for j, t in zip(jobs, med)],
                  passes=[{k: v for k, v in p.items() if k != "spans"} for p in passes])
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
