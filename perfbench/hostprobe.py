"""Host-speed probe: a fixed piece of work, timed between benchmark jobs.

The benchmark runs on a shared host whose speed drifts by up to 40% over
minutes, while the work of a job does not change.  The probe does the
same work every time, in the same mix as rmtlab (interpreted loops, small
numpy operations, vectorised special functions, a small dense
eigenproblem, matrix-vector products on a matrix larger than the L2
cache), so its time tracks how fast the host runs the process at
that moment.  It calls nothing in rmtlab: no change to the program can
move it.

A pass runs the probe before its first job and after every job, more
often after a long job (probes worth PROBE_SHARE of the job's time), so
the probes sample the pass evenly in time.  Job times are then scaled by
PROBE_NOMINAL_S / (mean probe time of the pass, without its fastest and
slowest fifth): the figure is the job's time at the probe's nominal speed.
"""

import math
import time

import numpy as np
from scipy import special

# About the fastest probe time seen on a 2.1 GHz Xeon vCPU (0.0317 s in 600
# calls; Python 3.11, numpy 2.4, scipy 1.17, one OpenBLAS thread).
PROBE_NOMINAL_S = 0.032
PROBE_SHARE = 0.05

_RNG = np.random.default_rng(20110330)
_MAT = _RNG.standard_normal((64, 64))
_MAT = _MAT + _MAT.T
_XS = np.linspace(-4.0, 2.0, 200)
_ROW = np.linspace(-2.0, 2.0, 32)
_WIDE = _RNG.standard_normal((256, 2048))  # 4 MB, more than a core's L2
_VEC = _RNG.standard_normal(2048)


def _work():
    acc = 0.0
    for i in range(60000):  # interpreter-bound
        acc += (i % 7) * 0.5
    rngs = [np.random.default_rng(s) for s in range(8)]
    for _ in range(500):  # per-element Python calls on small arrays
        p = np.array([r.normal(0.0, 0.1) for r in rngs])
        acc += float(np.sum(np.log(np.abs(_ROW[:, None] - p[None, :]) + 1.0)))
    for _ in range(100):  # vectorised special functions
        acc += float(special.airy(_XS)[0].sum())
    for _ in range(50):  # dense symmetric eigenproblem
        acc += float(np.linalg.eigvalsh(_MAT)[0])
    for _ in range(20):  # memory-bound matrix-vector products
        acc += float(_WIDE.T @ (_WIDE @ _VEC) @ _VEC)
    return acc


def probe():
    """Seconds taken by one fixed probe."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def probes_after(job_seconds):
    """Probe times after a job: as many probes as take PROBE_SHARE of its
    time at nominal speed, at least one."""
    count = max(1, math.ceil(PROBE_SHARE * job_seconds / PROBE_NOMINAL_S))
    return [probe() for _ in range(count)]


def speed_scale(probe_times):
    """Factor that takes times measured alongside `probe_times` to the
    probe's nominal speed.  The fastest and slowest fifth of the probes are
    left out, so that one probe caught by a stall does not move it."""
    times = sorted(probe_times)
    cut = len(times) // 5
    kept = times[cut:len(times) - cut]
    return PROBE_NOMINAL_S / (sum(kept) / len(kept))
