"""Command line front end.

Subcommands: eqm (equilibrium solve + classification), kernel (universal
kernel tables), oppoly (recurrence tables and finite-n kernels), converge
(rescaled-kernel vs universal-kernel error tables over n), rh (parametrix
diagnostics), sample (Monte Carlo batches, histograms, spacings).

Conventions: grids are lo:hi:count with finite lo < hi and 2 <= count
<= 1000, potentials are comma-separated ascending coefficients, and a
sample seed lies in [0, 2**63), the int64 of the batch record.  Exit
codes: 0 success, 2 invalid input (any ValueError, an unwritable output
path), 3 numerical failure (any ArithmeticError, which every error class
of the package is, or a LinAlgError).  Inputs are checked before any
solve or draw, and a command that exits 2 or 3 leaves no file.  Every
output file starts with a header block carrying the arguments as given;
the timestamp sits on its own line so that repeated runs differ in
exactly that line.  CSV tables are written column by column
(rmtlab._table), numbers as Python's shortest round-trip repr, so
parsing a cell gives back the exact double.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from functools import cache, partial

import numpy as np

from . import __version__
from . import equilibrium as eqm
from . import kernels as kr
from . import mc
from . import orthopoly as op
from . import rh
from ._table import table_text
from .equilibrium import Potential

__all__ = ["main", "run"]


def _parse_grid(text):
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise ValueError(f"bad grid {text!r}, expected lo:hi:count") from exc
    if not (2 <= count <= 1000 and lo < hi and hi - lo < np.inf):  # so lo, hi are finite
        raise ValueError(f"bad grid {text!r}: need lo < hi, finite hi - lo, 2 <= count <= 1000")
    return np.linspace(lo, hi, count)


def _parse_potential(args):
    try:
        coeffs = tuple(float(v) for v in args.potential.split(","))
    except ValueError as exc:
        raise ValueError(f"bad potential {args.potential!r}") from exc
    return Potential(coeffs, hard_edge=getattr(args, "hard_edge", False),
                     singularity_alpha=getattr(args, "alpha", 0.0) or 0.0)


def _parse_ns(text, top):
    try:
        ns = [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad n list {text!r}") from exc
    if not all(1 <= n <= top for n in ns):
        raise ValueError(f"bad n list {text!r}: each n must lie in [1, {top}]")
    return ns


def _csv_text(config, table, diagnostics=()):
    """The header block, then table: the text of table_text or a to_csv.
    diagnostics are (name, value) pairs, written as '# diag.name = value'."""
    lines = [f"# rmtlab {__version__}",
             f"# timestamp = {time.strftime('%Y-%m-%dT%H:%M:%S')}"]
    lines += [f"# {key} = {config[key]}" for key in sorted(config)]
    lines += [f"# diag.{name} = {value!r}" for name, value in diagnostics]
    return "\n".join(lines) + "\n" + table


def _json_text(config, results, diagnostics):
    diagnostics = dict(diagnostics)
    diagnostics["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    obj = {"config": config, "results": results, "diagnostics": diagnostics}
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ArithmeticError(f"non-finite value in the JSON output: {exc}") from exc


def _config_dict(args, keys):
    return {"command": args.command, "version": __version__, **{k: getattr(args, k) for k in keys}}


# ---------------------------------------------------------------------------
# subcommands

def _cmd_eqm(args):
    pot = _parse_potential(args)
    config = _config_dict(args, ["potential", "hard_edge", "alpha", "out"])
    mu = eqm.solve_equilibrium(pot)
    cls = eqm.classify(mu, pot)
    results = {
        "support": [mu.support[0], mu.support[1]],
        "h": [float(v) for v in mu.h],
        "moments": [float(v) for v in mu.moments],
        "ell": mu.ell,
        "classification": [
            {"location": loc, "kind": kind, "k": int(k)} for loc, kind, k in cls],
    }
    diag = {"iterations": mu.iterations, "residual": mu.residual,
            "solver": mu.solver, "margin": mu.margin}
    return [(args.out, _json_text(config, results, diag))]


def _cmd_kernel(args):
    handle = kr.KernelHandle(args.family, alpha=args.alpha, s=args.s)
    grid = _parse_grid(args.grid)
    config = _config_dict(args, ["family", "alpha", "s", "grid", "out"])
    cols = ["x", "y"] + (["value"] if handle.arity == "scalar"
                         else ["k11", "k12", "k21", "k22"])
    k = np.reshape(handle.evaluate(grid[:, None], grid[None, :]), (grid.size ** 2, -1))
    return [(args.out, _csv_text(config, table_text(
        cols, *np.meshgrid(grid, grid, indexing="ij"), *k.T)))]


def _cmd_oppoly(args):
    pot = _parse_potential(args)
    if args.kernel_out:
        if not args.kernel_n or not args.kernel_grid:
            raise ValueError("--kernel-out needs --kernel-n and --kernel-grid")
        if not 1 <= args.kernel_n <= args.nmax:
            raise ValueError("--kernel-n must be between 1 and --nmax")
        grid = _parse_grid(args.kernel_grid)
    w = op.WeightSpec(pot, N=args.N, truncation=args.truncation)
    table = op.recurrence_table(w, args.nmax)
    config = _config_dict(args, ["potential", "hard_edge", "alpha", "N",
                                 "nmax", "truncation", "out"])
    outputs = [(args.out, _csv_text(config, table_text(
        ["k", "a", "b", "gamma_sq"], range(args.nmax + 1),
        np.concatenate([[0.0], table.a]), table.b, table.gamma_sq),
        [("recurrence_delta", table.verify_delta)]))]
    if args.kernel_out:
        kmat = op.cd_kernel_grid(table, w, args.kernel_n, grid, grid)
        config.update(kernel_n=args.kernel_n, kernel_grid=args.kernel_grid,
                      kernel_out=args.kernel_out)
        outputs.append((args.kernel_out, _csv_text(config, table_text(
            ["x", "y", "value"], *np.meshgrid(grid, grid, indexing="ij"), kmat))))
    return outputs


_CONVERGE_DEFAULTS = {
    "bulk": "-2:2:41",
    "edge": "-4:4:33",
    "hard": "0.4:8:20",
    "origin": "0.15:3:20",
}


def _cmd_converge(args):
    pot = _parse_potential(args)
    ns = sorted(_parse_ns(args.n, 512))
    if args.mode == "hard" and not pot.hard_edge:
        raise ValueError("hard mode needs --hard-edge")
    grid = _parse_grid(args.grid or _CONVERGE_DEFAULTS[args.mode])
    alpha = args.alpha or 0.0
    config = _config_dict(args, ["potential", "hard_edge", "alpha", "mode",
                                 "n", "grid", "workers", "out", "grid_out"])
    # the measure, the window and the universal target do not depend on n
    mu = eqm.solve_equilibrium(pot)
    if args.mode == "bulk":
        win, kernel = op.bulk_window(mu, 0.0, grid), kr.sine_kernel
    elif args.mode == "edge":
        win, kernel = op.soft_edge_window(mu, grid), kr.airy_kernel
    elif args.mode == "hard":
        win, kernel = op.hard_edge_window(mu, grid), partial(kr.bessel_hard_kernel, alpha)
    else:
        win, kernel = op.origin_window(mu, grid), partial(kr.bessel_origin_kernel, alpha)
    ref = kernel(grid[:, None], grid[None, :])
    span, rows, delta = grid[-1] - grid[0], [], 0.0
    for n in ns:
        # the rescaled kernel against the universal one; N = n_max = n, so
        # mu, the measure of V, is every table's window measure, unless
        # |x|^e moves the window to degree n + e/2 and so to its own measure
        start = time.perf_counter()
        w = op.WeightSpec(pot, N=n)
        table = op.recurrence_table(w, n, None if w.exponent else mu)
        delta = max(delta, table.verify_delta)
        got = op.rescaled_kernel(table, w, n, win)
        diff = np.abs(got - ref)
        rows.append((n, args.mode, float(diff.max()), float(diff.mean() * span * span),
                     time.perf_counter() - start))
    outputs = [(args.out, _csv_text(config, table_text(
        ["n", "mode", "sup_error", "l1_error", "runtime_seconds"], *zip(*rows)),
        [("recurrence_delta", delta)]))]
    if args.grid_out:
        # rescaled-kernel grid of the largest n, next to the universal target
        outputs.append((args.grid_out, _csv_text(config, table_text(
            ["u", "v", "value", "universal_value"],
            *np.meshgrid(grid, grid, indexing="ij"), got, ref))))
    return outputs


def _cmd_rh(args):
    pot = _parse_potential(args)
    ns = _parse_ns(args.n, 4096)  # the critical quartic's Airy overflows at 8192
    config = _config_dict(args, ["potential", "n", "delta", "out"])
    rows = rh.diagnostics(eqm.solve_equilibrium(pot), ns, args.delta)
    return [(args.out, _csv_text(config, table_text(["check", "param", "value"], *zip(*rows))))]


def _parse_floats(text, count, what):
    try:
        vals = tuple(float(v) for v in text.split(":"))
    except ValueError as exc:
        raise ValueError(f"bad {what} {text!r}") from exc
    if len(vals) != count or not np.isfinite(vals).all():
        raise ValueError(f"bad {what} {text!r}: expected {count} finite values")
    return vals


def _cmd_sample(args):
    config = _config_dict(args, ["beta", "n", "N", "count", "seed", "steps",
                                 "metropolis", "potential", "bins", "range",
                                 "window", "workers", "out"])
    lo, hi, _ = _parse_floats(args.range, 3, "range")
    window = args.window and _parse_floats(args.window, 3, "window")
    if window:
        mc._window_bounds(None, window)  # a bad triple fails before any draw
    if not 1 <= args.bins <= 1000 or not hi > lo:
        raise ValueError("need 1 <= --bins <= 1000 and a range with hi > lo")
    if not args.metropolis and (args.potential or args.N is not None or args.hard_edge
                                or args.alpha is not None):
        raise ValueError("--potential, --N, --hard-edge and --alpha need --metropolis")
    if args.N is not None and args.N < 1:
        raise ValueError("--N must be at least 1")
    if not 0 <= args.seed < 2 ** 63:
        raise ValueError("--seed must lie in [0, 2**63)")
    if args.metropolis:
        if not args.potential:
            raise ValueError("--metropolis needs --potential")
        sample = partial(mc.sample_invariant, _parse_potential(args), args.beta,
                         args.n, args.N or args.n, args.count, args.steps)
        if args.hard_edge or args.alpha is not None:
            config.update(hard_edge=args.hard_edge, alpha=args.alpha)
    else:
        sample = partial(mc.sample_gaussian, args.beta, args.n, args.count)
    # resolved only here, so the headers record --workers as given
    batch = sample(args.seed, workers=min(4, os.cpu_count() or 1)
                   if args.workers is None else args.workers)
    hist = mc.empirical_density(batch, args.bins, (lo, hi))
    # the raw CSV's header carries no Metropolis statistics
    base = os.path.splitext(args.out)[0]
    outputs = [(args.out, batch.to_bytes())]
    if args.csv:
        outputs.append((base + ".csv", _csv_text(config, batch.to_csv())))
    if batch.acceptance_rates is not None:
        for name, vals in (("acceptance_rate", batch.acceptance_rates),
                           ("proposal_width", batch.proposal_widths)):
            for stat, fn in (("min", np.min), ("median", np.median), ("max", np.max)):
                config[f"{name}_{stat}"] = repr(float(fn(vals)))
    outputs.append((base + "_hist.csv", _csv_text(config, hist.to_csv())))
    if window:
        outputs.append((base + "_spacing.csv", _csv_text(config, table_text(
            ["unfolded_spacing"], mc.local_statistics(batch, window)))))
    return outputs


# ---------------------------------------------------------------------------

@cache
def _build_parser():
    """Built at the first run; parse_args fills a new namespace each call."""
    p = argparse.ArgumentParser(
        prog="rmtlab",
        description="random-matrix universality laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    def positive_int(text):
        n = int(text)
        if n < 1:
            raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
        return n

    def add_common(sp):
        sp.add_argument("--out", required=True, help="output file")
        sp.add_argument("--workers", type=positive_int, default=None,
                        help="worker processes of sample, by default min(4, CPU "
                             "count); other commands run in one process "
                             "(results are worker-independent)")

    sp = sub.add_parser("eqm", help="solve an equilibrium measure")
    sp.add_argument("--potential", required=True,
                    help="ascending comma-separated coefficients, e.g. 0,0,0.5")
    sp.add_argument("--hard-edge", dest="hard_edge", action="store_true")
    sp.add_argument("--alpha", type=float, default=0.0,
                    help="hard-edge / singularity exponent")
    add_common(sp)

    sp = sub.add_parser("kernel", help="tabulate a universal kernel")
    sp.add_argument("--family", required=True,
                    choices=kr._SCALAR_FAMILIES + kr._MATRIX_FAMILIES)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--s", type=float, default=None)
    sp.add_argument("--grid", required=True, help="lo:hi:count")
    add_common(sp)

    sp = sub.add_parser("oppoly", help="recurrence table and finite-n kernel")
    sp.add_argument("--potential", required=True)
    sp.add_argument("--hard-edge", dest="hard_edge", action="store_true")
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--nmax", type=int, required=True)
    sp.add_argument("--truncation", type=float, default=None)
    sp.add_argument("--kernel-n", dest="kernel_n", type=int, default=None)
    sp.add_argument("--kernel-grid", dest="kernel_grid", default=None)
    sp.add_argument("--kernel-out", dest="kernel_out", default=None)
    add_common(sp)

    sp = sub.add_parser("converge",
                        help="rescaled-kernel vs universal-kernel errors")
    sp.add_argument("--potential", required=True)
    sp.add_argument("--hard-edge", dest="hard_edge", action="store_true")
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--mode", required=True,
                    choices=["bulk", "edge", "hard", "origin"])
    sp.add_argument("--n", required=True, help="comma list, e.g. 32,64,128")
    sp.add_argument("--grid", default=None, help="lo:hi:count")
    sp.add_argument("--grid-out", dest="grid_out", default=None,
                    help="also write the rescaled grid (u, v, value) at the largest n")
    add_common(sp)

    sp = sub.add_parser("rh", help="parametrix diagnostics")
    sp.add_argument("--potential", required=True)
    sp.add_argument("--n", required=True, help="comma list, each n in [1, 4096]")
    sp.add_argument("--delta", type=float, default=0.1)
    add_common(sp)

    sp = sub.add_parser("sample", help="Monte Carlo eigenvalue batches")
    sp.add_argument("--beta", type=int, required=True, choices=[1, 2, 4])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--metropolis", action="store_true")
    sp.add_argument("--potential", default=None)
    sp.add_argument("--hard-edge", dest="hard_edge", action="store_true")
    sp.add_argument("--alpha", type=float, default=None,
                    help="hard-edge / singularity exponent")
    sp.add_argument("--steps", type=int, default=400)
    sp.add_argument("--bins", type=int, default=25)
    sp.add_argument("--range", default="-2.125:2.125:0",
                    help="lo:hi:unused, the histogram's range; the third field "
                         "must be finite and is ignored (the bins come from --bins)")
    sp.add_argument("--window", default=None, help="x0:half_width:density")
    sp.add_argument("--csv", action="store_true", help="also export raw CSV")
    add_common(sp)
    return p


_DISPATCH = {
    "eqm": _cmd_eqm,
    "kernel": _cmd_kernel,
    "oppoly": _cmd_oppoly,
    "converge": _cmd_converge,
    "rh": _cmd_rh,
    "sample": _cmd_sample,
}


def run(argv) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    try:
        outputs = _DISPATCH[args.command](args)
    # LinAlgError is a ValueError, so it is caught first
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"rmtlab: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"rmtlab: {exc}", file=sys.stderr)
        return 2
    opened = []
    for path, data in outputs:
        try:
            with open(path, "wb" if isinstance(data, bytes) else "w") as fh:
                opened.append(path)
                fh.write(data)
        except OSError as exc:
            # no partial result: this also removes a file that existed
            # before this command truncated it
            for done in opened:
                with contextlib.suppress(OSError):
                    os.remove(done)
            print(f"rmtlab: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    return 0


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
