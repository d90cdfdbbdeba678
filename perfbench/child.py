"""One benchmark pass in a fresh process.

Usage: python3 child.py SPEC.json RESULT.json

SPEC names the source tree, the jobs and whether to trace.  The process
imports rmtlab.cli, notes the wall-clock time at which it is ready (the
parent started the clock before spawning it), then runs every job in
order in the current directory, timing each one.  The host-speed probe
runs before the first job and after every job.  RESULT receives the per-job
records, the probe times, the peak resident memory and, when tracing,
the spans.
"""

import json
import os
import resource
import sys
import time
import traceback


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import rmtlab.cli
    ready = time.time()
    if not os.path.realpath(rmtlab.cli.__file__).startswith(
            os.path.realpath(spec["src"]) + os.sep):
        raise SystemExit(f"imported rmtlab from {rmtlab.cli.__file__}")

    import hostprobe
    hostprobe.probe()  # warm-up: first calls into scipy.special and LAPACK
    probes = [hostprobe.probe()]

    tracer = None
    if spec["trace"]:
        import spantrace
        tracer = spantrace.Tracer().install()
    kernels = rmtlab.kernels
    records = []
    for i, job in enumerate(spec["jobs"]):
        before = set(os.listdir("."))
        rec = {"rc": None, "value": None, "error": None}
        if tracer:
            tracer.job = i
        start = time.perf_counter()
        try:
            if "argv" in job:
                rec["rc"] = rmtlab.cli.run(job["argv"])
            else:
                api = job["api"]
                handle = kernels.KernelHandle(api["family"])
                rec["value"] = getattr(kernels, api["fn"])(handle, api["points"])
                rec["rc"] = 0
        except Exception:  # a crash is a failed job, not a failed pass
            rec["error"] = traceback.format_exc()
        rec["seconds"] = time.perf_counter() - start
        rec["bytes_written"] = sum(os.path.getsize(f)
                                   for f in set(os.listdir(".")) - before)
        records.append(rec)
        probes += hostprobe.probes_after(rec["seconds"])
    out = {"ready": ready, "jobs": records, "probe_s": probes,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "spans": tracer.spans if tracer else None}
    with open(result_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
