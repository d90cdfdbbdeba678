"""Job lists of the benchmark workloads.

A job is a dict:
  id     unique name; CLI output files are named after it
  group  "a", "b" or None: the end-to-end time group the job counts in
  argv   rmtlab.cli.run arguments (CLI job), or
  api    {"fn", "family", "points"} for a public-API call (correlations)
  check  name of the output check in checks.py, with its parameters

Inputs depend only on the workload name and the seed.  finite_n has no
random inputs: the seed is recorded and changes nothing.
"""

from __future__ import annotations

import math
import random

# what group_a_s / group_b_s stand for on each workload
GROUPS = {
    "finite_n": ("converge_s", "oppoly_s"),
    "limits": ("kernel_s", "correlation_s"),
    "ensembles": ("sample_dense_s", "sample_mcmc_s"),
}
GROUPS["finite_n_full"] = GROUPS["finite_n"]

HERMITE = "0,0,0.5"
CRITICAL_QUARTIC = "0,0,-1,0,0.25"
QUARTIC = "0,0,0,0,0.25"
LAGUERRE = "0,1"


def _cli(job_id, group, argv, check, ext="csv", **params):
    argv = list(argv) + ["--out", f"{job_id}.{ext}", "--workers", "1"]
    return {"id": job_id, "group": group, "argv": argv,
            "check": dict(params, name=check)}


def _eqm(job_id, potential):
    return _cli(job_id, None, ["eqm", "--potential", potential], "eqm",
                ext="json", potential=potential)


def _oppoly(job_id, potential, n, hard_edge=False, kernel_grid=None):
    argv = ["oppoly", "--potential", potential, "--N", str(n), "--nmax", str(n)]
    if hard_edge:
        argv.append("--hard-edge")
    if kernel_grid:
        argv += ["--kernel-n", str(n), f"--kernel-grid={kernel_grid}",
                 "--kernel-out", f"{job_id}_kernel.csv"]
    return _cli(job_id, "b", argv, "recurrence", potential=potential, N=n,
                hard_edge=hard_edge, kernel_grid=kernel_grid)


def _converge(job_id, mode, ns, potential=HERMITE, extra=()):
    argv = ["converge", "--potential", potential, "--mode", mode,
            "--n", ",".join(str(n) for n in ns), *extra]
    return _cli(job_id, "a", argv, "converge", mode=mode, ns=list(ns))


def finite_n_jobs():
    return [
        _eqm("eqm_hermite", HERMITE),
        _eqm("eqm_critical_quartic", CRITICAL_QUARTIC),
        _oppoly("oppoly_hermite_256", HERMITE, 256, kernel_grid="-2:2:121"),
        _oppoly("oppoly_hermite_320", HERMITE, 320),
        _oppoly("oppoly_laguerre_128", LAGUERRE, 128, hard_edge=True),
        _converge("converge_bulk", "bulk", (64, 128, 256)),
        _converge("converge_edge", "edge", (64, 128, 256)),
        _converge("converge_hard", "hard", (32, 64, 128), LAGUERRE, ["--hard-edge"]),
        _converge("converge_origin", "origin", (64, 128), extra=["--alpha", "1"]),
    ]


def finite_n_full_jobs():
    """finite_n plus the two documented-range tables that fail today
    (exit 3).  Not a timed workload of BENCHMARK.json: it shows the
    defect in fail_frac."""
    return finite_n_jobs() + [
        _oppoly("oppoly_hermite_384", HERMITE, 384),
        _oppoly("oppoly_laguerre_256", LAGUERRE, 256, hard_edge=True),
    ]


def _kernel(job_id, family, grid, **extra):
    argv = ["kernel", "--family", family, f"--grid={grid}"]
    for key, val in extra.items():
        argv += [f"--{key}", str(val)]
    return _cli(job_id, "a", argv, "kernel_table", family=family, **extra)


def _points(rng, k, lo, hi):
    """One point near the centre of each of k equal cells of [lo, hi],
    moved by at most 5% of the cell.  The cost of the Airy evaluations
    depends on where the points lie (a point anywhere in its cell changed
    the k = 4 airy_beta1 Pfaffian from 1.7 s to 2.6 s), so the points
    vary with the seed only that little."""
    cell = (hi - lo) / k
    return [round(lo + cell * (i + 0.5 + 0.1 * (rng.random() - 0.5)), 6)
            for i in range(k)]


def _correlation(job_id, fn, family, points):
    return {"id": job_id, "group": "b",
            "api": {"fn": fn, "family": family, "points": points},
            "check": {"name": "correlation"}}


def limits_jobs(seed):
    rng = random.Random(f"limits-{seed}")
    # the k = 2 sets are taken from the k = 4 sets, so airy_beta1 computes
    # the tail integrals of four y values and airy_beta4 reuses them
    edge4 = _points(rng, 4, -4.0, 2.0)
    edge2 = edge4[1::2]
    bulk4 = _points(rng, 4, -2.0, 2.0)
    bulk2 = bulk4[1::2]
    airy4, airy8 = _points(rng, 4, -4.0, 2.0), _points(rng, 8, -4.0, 2.0)
    sine4, sine8 = _points(rng, 4, -3.0, 3.0), _points(rng, 8, -3.0, 3.0)
    jobs = [
        _kernel("kernel_sine", "sine", "-3:3:121"),
        _kernel("kernel_airy", "airy", "-4:2:33"),
        _kernel("kernel_bessel_hard", "bessel_hard", "0.5:8:21", alpha=0.5),
        _kernel("kernel_sine_beta1", "sine_beta1", "-2:2:41"),
        _kernel("kernel_airy_beta1", "airy_beta1", "-3:1:2"),
        _kernel("kernel_airy_beta4", "airy_beta4", "-3:1:2"),
        _kernel("kernel_pearcey", "pearcey", "-0.5:0.5:2", s=1),
    ]
    for family in ("airy_beta1", "airy_beta4"):
        for pts in (edge2, edge4):
            jobs.append(_correlation(f"pf_{family}_k{len(pts)}",
                                     "correlation_pfaffian", family, pts))
    for pts in (bulk2, bulk4):
        jobs.append(_correlation(f"pf_sine_beta1_k{len(pts)}",
                                 "correlation_pfaffian", "sine_beta1", pts))
    for family, sets in (("airy", (airy4, airy8)), ("sine", (sine4, sine8))):
        for pts in sets:
            jobs.append(_correlation(f"det_{family}_k{len(pts)}",
                                     "correlation_det", family, pts))
    jobs.append(_cli("rh_hermite", None,
                     ["rh", "--potential", HERMITE, "--n", "64,128,256"], "rh"))
    return jobs


def _sample(job_id, group, beta, n, count, seed, density="semicircle",
            window=None, extra=()):
    argv = ["sample", "--beta", str(beta), "--n", str(n), "--count", str(count),
            "--seed", str(seed), *extra]
    if window:
        argv += ["--window", ":".join(str(v) for v in window)]
    return _cli(job_id, group, argv, "sample", ext="bin", beta=beta, n=n,
                count=count, density=density, window=window)


def ensembles_jobs(seed):
    rng = random.Random(f"ensembles-{seed}")
    seeds = [rng.randrange(1, 2 ** 31) for _ in range(4)]
    return [
        _eqm("eqm_quartic", QUARTIC),
        _sample("sample_gue", "a", 2, 256, 100, seeds[0],
                window=(0.0, 0.5, 1.0 / math.pi)),
        _sample("sample_goe", "a", 1, 256, 100, seeds[1]),
        _sample("sample_gse", "a", 4, 128, 100, seeds[2]),
        _sample("sample_metropolis", "b", 2, 32, 128, seeds[3], density="quartic",
                extra=["--metropolis", "--potential", QUARTIC, "--steps", "400"]),
    ]


WORKLOADS = {
    "finite_n": lambda seed: finite_n_jobs(),
    "limits": limits_jobs,
    "ensembles": ensembles_jobs,
    "finite_n_full": lambda seed: finite_n_full_jobs(),
}


def jobs_for(workload, seed):
    return WORKLOADS[workload](seed)
