"""Hostile input for the library API, the counterpart of the CLI's
test_hostile_input_and_documented_corner: every public function of
specfun, kernels and rh that has a documented range, called at NaN, +-inf,
just past each bound and (difference kernels) at finite x, y whose
difference overflows, raises ValueError naming the function, with
RuntimeWarnings turned into errors.  The corners of Pearcey's range give
finite values."""

import math
import sys
import warnings

import numpy as np
import pytest

from rmtlab import equilibrium as eq
from rmtlab import kernels as kr
from rmtlab import rh
from rmtlab import specfun as sf

NAN, INF = math.nan, math.inf
NON_FINITE = (NAN, INF, -INF)


def past(bound, direction=INF):
    """The double next to bound, on the side of direction."""
    return math.nextafter(bound, direction)


def row(fn, *args, name=None, **kw):
    """fn(*args, **kw) as a row that must raise ValueError naming `name`
    (fn's own name by default); rh rows take the DescentContext first."""
    shown = ", ".join([*map(repr, args), *(f"{k}={v!r}" for k, v in kw.items())])
    return pytest.param(fn, args, kw, name or fn.__name__, id=f"{fn.__name__}({shown})")


SPECFUN = [
    *(row(sf.airy, v) for v in NON_FINITE + (complex(NAN, 1.0), complex(1.0, INF),
                                             past(1.1e3), -past(1.1e3))),
    *(row(sf.airy_tail, v) for v in NON_FINITE + (past(-40.01, -INF), past(1e3), 2000.0)),
    *(row(sf.bessel_j, alpha, 1.0) for alpha in NON_FINITE + (-1.0,)),
    *(row(sf.bessel_j, 0.5, v) for v in NON_FINITE + (-5e-324, past(1.001e3), 0j,
                                                       complex(-1.0, 0.0), complex(NAN, 1.0),
                                                       complex(1.0, NAN))),
    *(row(sf.sinc_integral, v) for v in NON_FINITE),
]

# each Bessel kernel's argument reaches bessel_j's range 1e3 at its bound
BESSEL_HARD_MAX, BESSEL_ORIGIN_MAX = 1e3 ** 2, 1e3 / math.pi

KERNELS = [
    *(row(fn, x, y) for fn in (kr.sine_kernel, kr.sine_kernel_dx, kr.airy_kernel,
                               kr.airy_kernel_dy)
      for x, y in [(NAN, 0.0), (INF, 0.0), (-INF, 0.0), (0.0, NAN)]),
    # finite x and y whose difference overflows, or lies past 1e307
    *(row(fn, x, y) for fn in (kr.sine_kernel, kr.sine_kernel_dx)
      for x, y in [(1e308, -1e308), (-1e308, 1e308), (past(1e307), 0.0), (0.0, past(1e307))]),
    *(row(kr.matrix_kernel_bulk, beta, x, y) for beta in (1, 4)
      for x, y in [(1e308, -1e308), (0.0, past(1e307))]),
    *(row(fn, x, y) for fn in (kr.airy_kernel, kr.airy_kernel_dy)
      for x, y in [(past(1e3), 0.0), (-past(1e3), 0.0), (0.0, past(1e3)), (0.0, -past(1e3)),
                   (2000.0, 0.0)]),
    *(row(kr.bessel_hard_kernel, alpha, 1.0, 2.0)
      for alpha in NON_FINITE + (-1.0, past(100.0), 100.000001, 1000.0)),
    *(row(kr.bessel_hard_kernel, 0.5, x, 2.0)
      for x in NON_FINITE + (0.0, -5e-324, past(BESSEL_HARD_MAX), 2e6)),
    *(row(kr.bessel_hard_kernel, 0.5, 1.0, y) for y in (NAN, past(BESSEL_HARD_MAX))),
    *(row(kr.bessel_origin_kernel, alpha, 1.0, 2.0) for alpha in (NAN, -0.5, past(100.0))),
    *(row(kr.bessel_origin_kernel, 0.5, x, 2.0)
      for x in NON_FINITE + (0.0, past(BESSEL_ORIGIN_MAX), 400.0)),
    row(kr.bessel_origin_kernel, 0.5, 2.0, past(BESSEL_ORIGIN_MAX)),
    *(row(kr.pearcey_kernel, x, 0.0, 0.0) for x in NON_FINITE + (past(20.0), -past(20.0))),
    row(kr.pearcey_kernel, 0.0, NAN, 0.0),
    *(row(kr.pearcey_kernel, 0.0, 0.0, s) for s in NON_FINITE + (past(10.0), -past(10.0))),
    *(row(fn, v, 0.0) for fn in (kr.pearcey_p, kr.pearcey_q) for v in (NAN, past(20.0))),
    *(row(fn, 0.0, s) for fn in (kr.pearcey_p, kr.pearcey_q) for s in (NAN, past(10.0))),
    *(row(kr.matrix_kernel_bulk, 1, x, 0.0) for x in NON_FINITE),
    row(kr.matrix_kernel_bulk, 4, 0.0, NAN),
    *(row(kr.matrix_kernel_edge, 1, x, 0.0)
      for x in NON_FINITE + (past(-30.0, -INF), past(1e3), 2000.0)),
    *(row(kr.matrix_kernel_edge, 4, 0.0, y) for y in (NAN, past(1e3))),
    *(row(kr.KernelHandle, "bessel_hard", alpha=v, name="bessel_hard_kernel")
      for v in (NAN, INF, -1.0, 100.000001)),
    row(kr.KernelHandle, "bessel_origin", alpha=-0.5, name="bessel_origin_kernel"),
    *(row(kr.KernelHandle, "pearcey", s=v, name="pearcey_kernel")
      for v in (NAN, -INF, past(10.0))),
    *(row(kr.correlation_det, kr.KernelHandle("sine"), pts) for pts in ([], [0.1] * 13)),
    *(row(kr.correlation_pfaffian, kr.KernelHandle("sine_beta1"), pts)
      for pts in ([], [0.1] * 9)),
    # a matrix kernel's beta other than 1 or 4, and a handle of the wrong arity
    *(row(fn, beta, 0.0, 0.5) for fn in (kr.matrix_kernel_bulk, kr.matrix_kernel_edge)
      for beta in (2, 3)),
    row(kr.correlation_det, kr.KernelHandle("sine_beta1"), [0.1]),
    row(kr.correlation_pfaffian, kr.KernelHandle("sine"), [0.1]),
]

# the semicircle's support is [-2, 2] and the disk radius 0.1
RH = [
    *(row(rh.g_function, z) for z in NON_FINITE + (complex(NAN, 1.0), complex(3.0, NAN),
                                                   0.0, complex(1.0, 1e-11))),
    *(row(rh.outer_parametrix, z) for z in NON_FINITE + (complex(NAN, 1.0), -2.0, 2.0)),
    *(row(rh.airy_model, z) for z in NON_FINITE + (complex(NAN, 1.0), complex(1.0, INF), 1.0,
                                                   -1.0)),
    *(row(rh.local_parametrix, z) for z in NON_FINITE + (complex(NAN, 0.05), 2.1 + 1e-9)),
    *(row(rh.bulk_kernel_approx, x, 0.0) for x in NON_FINITE + (-2.0, 2.0)),
    row(rh.bulk_kernel_approx, 0.0, NAN),
    *(row(rh.edge_kernel_from_A, x, 0.5) for x in NON_FINITE + (0.5,)),
    row(rh.edge_kernel_from_A, 0.5, NAN),
]
RH_TAKES_CONTEXT = (rh.g_function, rh.outer_parametrix, rh.local_parametrix,
                    rh.bulk_kernel_approx)


@pytest.fixture(scope="module")
def ctx():
    c = rh.DescentContext(eq.solve_equilibrium(eq.Potential((0.0, 0.0, 0.5))), n=8, delta=0.1)
    assert c.support == (-2.0, 2.0)
    return c


def _raised(fn, args, kw):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError) as info:
            fn(*args, **kw)
    return str(info.value)


@pytest.mark.parametrize("fn, args, kw, name", SPECFUN + KERNELS + RH)
def test_out_of_range_raises_naming_the_function(ctx, fn, args, kw, name):
    if fn in RH_TAKES_CONTEXT:
        args = (ctx,) + args
    assert name in _raised(fn, args, kw)


KERNEL_OF = {"bessel_hard": lambda v: kr.bessel_hard_kernel(v, 1.0, 2.0),
             "bessel_origin": lambda v: kr.bessel_origin_kernel(v, 1.0, 2.0),
             "pearcey": lambda v: kr.pearcey_kernel(0.0, 0.0, v)}


@pytest.mark.parametrize("family, kw, v", [
    ("bessel_hard", "alpha", 100.000001), ("bessel_hard", "alpha", NAN),
    ("bessel_hard", "alpha", -1.0), ("bessel_origin", "alpha", -0.5),
    ("bessel_origin", "alpha", INF), ("pearcey", "s", 10.000001), ("pearcey", "s", NAN)])
def test_handle_and_kernel_give_the_same_message(family, kw, v):
    assert _raised(kr.KernelHandle, (family,), {kw: v}) == _raised(KERNEL_OF[family], (v,), {})


def test_bounds_themselves_are_in_range():
    # a pair 1e-5 apart at an upper bound takes the Cauchy mean, whose circle
    # reaches past the bound but stays inside airy's and bessel_j's guards
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = [kr.bessel_hard_kernel(100.0, 1.0, 2.0),
                  kr.bessel_origin_kernel(100.0, 1.0, 2.0), kr.matrix_kernel_edge(1, -30.0, 0.0),
                  sf.airy_tail(-40.0), sf.airy(1e3).value,
                  sf.bessel_j(past(-1.0), 1e3).value, sf.sinc_integral(-1e6),
                  sf.sinc_integral(np.array([-1.0, 1.0]) * sys.float_info.max),
                  kr.sine_kernel(1e307, 0.0), kr.sine_kernel_dx(-5e306, 5e306),
                  kr.sine_kernel_dx(1e308, 1e308), kr.matrix_kernel_bulk(4, 0.0, 1e307),
                  kr.matrix_kernel_bulk(1, -1e308, -1e308),
                  kr.airy_kernel(1e3, -1e3), kr.airy_kernel(1e3, 1e3 - 1e-5),
                  kr.airy_kernel_dy(-1e3, 1e3), kr.airy_kernel_dy(1e3 - 1e-5, 1e3),
                  sf.airy_tail(1e3), kr.matrix_kernel_edge(4, 1e3, 1e3 - 1e-5),
                  kr.matrix_kernel_edge(1, -30.0, 1e3),
                  kr.bessel_hard_kernel(0.5, BESSEL_HARD_MAX, BESSEL_HARD_MAX - 1e-5),
                  kr.bessel_hard_kernel(100.0, 1.0, BESSEL_HARD_MAX),
                  kr.bessel_origin_kernel(0.5, BESSEL_ORIGIN_MAX, BESSEL_ORIGIN_MAX - 1e-5),
                  kr.bessel_origin_kernel(100.0, BESSEL_ORIGIN_MAX, 1.0)]
    assert np.isfinite(np.concatenate([np.ravel(v) for v in values])).all()
    assert sf.sinc_integral(-sys.float_info.max) == -0.5


# the corners of Pearcey's documented range, |x| = |y| = 20 and |s| = 10,
# and the kernel's edges there: a finite value without a RuntimeWarning
PEARCEY_CORNERS = [pytest.param(x, y, s, id=f"pearcey_kernel({x!r}, {y!r}, {s!r})")
                   for s in (-10.0, 10.0) for x in (-20.0, 20.0) for y in (-20.0, 0.0, 20.0)]


@pytest.mark.parametrize("x, y, s", PEARCEY_CORNERS)
def test_pearcey_documented_corner(x, y, s):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert math.isfinite(kr.pearcey_kernel(x, y, s))
