"""Monte Carlo eigenvalue ensembles.

Gaussian ensembles (GOE / GUE / GSE, beta = 1, 2, 4) drawn from the
Dumitriu-Edelman tridiagonal beta-Hermite model (J. Math. Phys. 43, 5830,
2002): H = tridiag(d, e) / sqrt(beta n) with d_k ~ N(0, 2) on the diagonal
and e_k ~ chi_{beta k}, k = n-1, ..., 1, off it.  Its eigenvalues have the
same joint law as those of the dense ensembles, so no n x n (or 2n x 2n)
matrix is ever formed.  A Metropolis random-walk sampler covers general
invariant eigenvalue densities with log-density

    beta sum_{i<j} log|x_i - x_j| - N sum_j V(x_j)
        + alpha sum_j log x_j        (hard edge, x_j > 0)
        + 2 alpha sum_j log|x_j|     (singularity on the line),

together with the empirical statistics (histograms, unfolded spacings,
Poisson contrast) used to cross-check the kernel predictions.  The
constant term of V is left out of the log-density, so however large it
is, it cannot round away the x-dependence.

Variances are normalized so every Gaussian ensemble has limiting density
supported on [-2, 2] (diagonal variance 2 / (beta n)); that keeps the
beta in {1, 2, 4} spacing comparisons on a common local density.

Reproducibility: each matrix draw / chain owns a child of
numpy.random.SeedSequence(seed), so batches are byte-identical for a fixed
seed and independent of any worker partitioning.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import equilibrium as eqm
from ._table import table_text
from .equilibrium import Potential
from .orthopoly import WeightSpec

__all__ = [
    "SampleBatch",
    "Histogram",
    "AcceptanceRateError",
    "sample_gaussian",
    "sample_invariant",
    "empirical_density",
    "local_statistics",
    "poisson_contrast",
    "compare_to_kernel",
]


class AcceptanceRateError(ArithmeticError):
    """Metropolis proposal tuning left the [0.1, 0.6] band."""


@dataclass
class SampleBatch:
    """Sorted eigenvalue sets drawn from one ensemble."""

    beta: int
    n: int
    N: int
    seed: int
    eigenvalue_sets: np.ndarray  # shape (count, n), each row sorted
    # Metropolis diagnostics, one per chain; not part of the RMTB record
    acceptance_rates: np.ndarray | None = None
    proposal_widths: np.ndarray | None = None

    @property
    def count(self) -> int:
        return self.eigenvalue_sets.shape[0]

    def to_bytes(self) -> bytes:
        head = struct.pack("<4sHiiiqi", b"RMTB", 1, self.beta, self.n, self.N,
                           self.seed, self.count)
        body = self.eigenvalue_sets.astype("<f8").tobytes()
        return head + body

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SampleBatch":
        magic, ver, beta, n, bign, seed, count = struct.unpack_from("<4sHiiiqi", blob)
        if magic != b"RMTB" or ver != 1:
            raise ValueError("unrecognized sample batch record")
        off = struct.calcsize("<4sHiiiqi")
        data = np.frombuffer(blob, dtype="<f8", offset=off).reshape(count, n)
        return cls(beta=beta, n=n, N=bign, seed=seed,
                   eigenvalue_sets=data.copy())

    def to_csv(self) -> str:
        count, n = self.eigenvalue_sets.shape
        return table_text(["set_index", "eigenvalue"], np.repeat(range(count), n).tolist(),
                          self.eigenvalue_sets)


@dataclass
class Histogram:
    centers: np.ndarray
    density: np.ndarray
    edges: np.ndarray

    @property
    def mass(self) -> float:
        return float(np.sum(self.density * np.diff(self.edges)))

    def to_csv(self) -> str:
        return table_text(["bin_center", "density"], self.centers, self.density)


def _map_blocks(fn, items, workers):
    """[fn(block)] over consecutive blocks of items: one block per worker
    process, with at most one worker per item and per CPU, or all items in
    this process for one worker.  fn must pickle (a module-level function
    or a partial of one)."""
    workers = min(workers, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(items)]
    from concurrent.futures import ProcessPoolExecutor

    blocks = np.array_split(np.arange(len(items)), workers)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, [[items[i] for i in blk] for blk in blocks]))


# ---------------------------------------------------------------------------
# Gaussian ensembles

def _gaussian_draws(beta, n, children):
    from scipy.linalg.lapack import dsterf  # here, so no other command loads scipy.linalg

    scale = 1.0 / math.sqrt(beta * n)
    df = beta * np.arange(n - 1, 0, -1)
    out = np.empty((len(children), n))
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        d = rng.normal(scale=math.sqrt(2.0), size=n)
        e = np.sqrt(rng.chisquare(df))
        # ascending; the wrapper wants an off-diagonal entry even at n = 1
        out[i], info = dsterf(scale * d, scale * e if n > 1 else np.zeros(1))
        if info > 0:
            raise np.linalg.LinAlgError(f"dsterf: {info} off-diagonal entries did not converge")
    return out


def sample_gaussian(beta: int, n: int, count: int, seed: int,
                    workers: int = 1) -> SampleBatch:
    """Eigenvalue batches of GOE (beta 1), GUE (2) or GSE (4), scaled so
    the limiting density is the semicircle on [-2, 2].

    Each draw is the spectrum of a Dumitriu-Edelman tridiagonal
    beta-Hermite matrix (O(n) memory, O(n^2) time), which has the same
    eigenvalue law as the dense ensemble.  Supported: 1 <= n <= 512,
    1 <= count <= 1e4.  Each draw owns a spawned substream, so the batch
    does not depend on `workers`."""
    if beta not in (1, 2, 4):
        raise ValueError("beta must be 1, 2 or 4")
    if not (1 <= n <= 512 and 1 <= count <= 10_000):
        raise ValueError("supported ranges: 1 <= n <= 512, 1 <= count <= 1e4")
    children = np.random.SeedSequence(seed).spawn(count)
    out = np.concatenate(_map_blocks(partial(_gaussian_draws, beta, n), children,
                                     workers if count > 8 else 1))
    return SampleBatch(beta=beta, n=n, N=n, seed=seed, eigenvalue_sets=out)


# ---------------------------------------------------------------------------
# Metropolis sampler for invariant densities

def log_density(V: Potential, beta: int, n: int, N: int, x: np.ndarray):
    """log of the unnormalized eigenvalue density
    beta sum_{i<j} log|x_i-x_j| - N sum (V(x_j) - V(0)) (+ singularity
    factors)."""
    x = np.asarray(x, dtype=float)
    d = np.abs(x[:, None] - x[None, :])
    iu = np.triu_indices(n, 1)
    return beta * np.sum(np.log(d[iu])) + np.sum(WeightSpec(V, N).log_weight(x))


def _sweeper(V: Potential, beta: int, N: int, x, lw=None):
    """Sweep engine over chain states x (n, chains) and log-weights lw
    (computed when None), buffers and rows made once.  Returns the step
    buffer s and sweep(log_u): in place, x_i takes x_i + s_i in turn where
    |R_i| = |prod_{j != i} (1 + s_i / (x_i - x_j))| > exp((log_u_i - gain_i)
    / beta); returns the mask, |R| and the gains (log-weight changes)."""
    log_weight = WeightSpec(V, N).log_weight
    lw = log_weight(x) if lw is None else lw  # carried with x through every sweep
    step, prop, bound, ratio, d, take = (np.empty(x.shape, t) for t in [float] * 5 + [bool])
    rows = list(zip(range(len(x)), x, step, prop, bound, ratio, take))
    sub, div, add, prod, absolute, greater, copyto, inf = (
        np.subtract, np.divide, np.add, np.multiply.reduce, np.abs, np.greater, np.copyto, np.inf)

    def sweep(log_u):
        # x_i only changes at step i: every proposal and its gain are known up front
        lw_prop = log_weight(add(x, step, prop))
        gain = lw_prop - lw
        # R = 0 (a proposal on another coordinate) or nan fails, as its log-sum would
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            np.exp(div(sub(log_u, gain, bound), beta, bound), bound)
            for i, xi, si, pi, bi, ri, ki in rows:
                sub(xi, x, d)
                d[i] = inf  # 1 + s_i / inf = 1 drops j = i
                div(si, d, d)
                add(d, 1.0, d)
                prod(d, 0, None, ri)
                absolute(ri, ri)
                greater(ri, bi, ki)
                copyto(xi, pi, "same_kind", ki)
            copyto(lw, lw_prop, where=take)
        return take, ratio, gain

    return step, sweep


def _sweep(V: Potential, beta: int, N: int, x, step, log_u, lw=None):
    """One engine sweep with the given steps: the mask, beta log|R_i| and the gains."""
    buf, sweep = _sweeper(V, beta, N, x, lw)
    buf[...] = step
    take, ratio, gain = sweep(log_u)
    with np.errstate(divide="ignore"):
        return take, beta * np.log(ratio), gain


def _run_chains(V: Potential, beta: int, n: int, N: int, per: int, burn: int,
                spacing: int, support, seeds):
    """Advance a block of independent Metropolis chains (one spawned seed
    each, proposal width tuned per chain) and record `per` sorted states
    per chain at the given sweep spacing.  Returns the records in
    (chain, record) order, the frozen acceptance rates and the widths."""
    chains = len(seeds)
    rngs = [np.random.default_rng(s) for s in seeds]
    a, b = support
    base = np.linspace(a + 0.05 * (b - a), b - 0.05 * (b - a), n)
    # chain states by coordinate: row i holds x_i of every chain
    x = np.stack([base + 0.01 * (b - a) * r.standard_normal(n) for r in rngs], axis=1)
    if V.hard_edge:
        x = np.abs(x) + 1e-6
    width = np.full(chains, 0.5 * (b - a) / math.sqrt(n))
    step, sweep = _sweeper(V, beta, N, x)
    z, log_u = np.empty((2, chains, max(1, 1024 // n), n))  # per chain, a block of sweeps

    def sweeps():
        while True:
            for r, zc, uc in zip(rngs, z, log_u):
                r.standard_normal(out=zc)
                r.random(out=uc)
            np.log(log_u, out=log_u)
            for zt, ut in zip(z.transpose(1, 2, 0), log_u.transpose(1, 2, 0)):
                np.multiply(width, zt, step)
                yield sweep(ut)[0]

    draws = sweeps()
    for t in range(burn):
        width *= np.exp((next(draws).mean(axis=0) - 0.3) / math.sqrt(1.0 + t))
    # frozen-rate check averaged over enough sweeps to beat binomial noise
    rate = np.mean([next(draws).mean(axis=0) for _ in range(max(8, 256 // n))], axis=0)
    if rate.min() < 0.1 or rate.max() > 0.6:
        raise AcceptanceRateError(
            f"tuned acceptance rate in [{rate.min():.3f}, {rate.max():.3f}] "
            "leaves the [0.1, 0.6] band")
    records = []
    for _ in range(per):
        for _ in range(spacing):
            next(draws)
        records.append(np.sort(x, axis=0).T)
    # (chain, record) ordering so chain blocks concatenate cleanly
    return np.stack(records, axis=1).reshape(chains * per, n), rate, width


def sample_invariant(V: Potential, beta: int, n: int, N: int, count: int,
                     steps: int, seed: int, workers: int = 1) -> SampleBatch:
    """Metropolis sampling of the invariant eigenvalue density (module
    docstring) at 1 <= n <= 128, 1 <= count <= 1e4, 1 <= steps <= 1e5.

    min(count, 64) independent chains run systematic-scan sweeps of
    single-coordinate Gaussian proposals over states stored by coordinate,
    with one pair-ratio product per coordinate and the log-weights carried
    between sweeps.  Each chain owns a spawned substream, writes the normals
    and uniforms of max(1, 1024 // n) sweeps into one buffer, and tunes
    its own width by Robbins-Monro (target acceptance 0.3 during the
    burn-in of max(steps/2, 20) sweeps, frozen after; AcceptanceRateError
    if a frozen rate leaves [0.1, 0.6]).  Records are spaced over the
    remaining sweep budget.  The returned batch carries the frozen
    per-chain acceptance rates and proposal widths.  Chain blocks may be
    distributed over processes; results are independent of `workers`."""
    if beta not in (1, 2, 4):
        raise ValueError("beta must be 1, 2 or 4")
    if not (1 <= n <= 128 and 1 <= count <= 10_000 and 1 <= steps <= 100_000):
        raise ValueError("sample_invariant supports 1 <= n <= 128, "
                         "1 <= count <= 1e4, 1 <= steps <= 1e5")
    chains = min(count, 64)
    per = -(-count // chains)
    seeds = np.random.SeedSequence(seed).spawn(chains)
    mu = eqm.solve_equilibrium(V)
    burn = max(steps // 2, 20)
    spacing = max(1, (steps - burn) // max(per, 1))
    parts = _map_blocks(partial(_run_chains, V, beta, n, N, per, burn, spacing, mu.support),
                        seeds, workers if chains > 1 else 1)
    sets, rates, widths = (np.concatenate(p) for p in zip(*parts))
    return SampleBatch(beta=beta, n=n, N=N, seed=seed,
                       eigenvalue_sets=_interleave_trim(sets, chains, per, count),
                       acceptance_rates=rates, proposal_widths=widths)


def _interleave_trim(sets, chains, per, count):
    """Reorder chain-major records (chain c at rows [c*per, (c+1)*per))
    round-robin across chains, so truncation to `count` drops late records
    evenly."""
    n = sets.shape[1]
    return sets.reshape(chains, per, n).transpose(1, 0, 2).reshape(-1, n)[:count]


# ---------------------------------------------------------------------------
# empirical statistics

def empirical_density(batch: SampleBatch, bins: int, range_: tuple) -> Histogram:
    """Normalized histogram of all eigenvalues (integrates to 1 over the
    range); ValueError when the range holds no eigenvalue."""
    if bins > 1000:
        raise ValueError("bins must not exceed 1000")
    vals = batch.eigenvalue_sets.ravel()
    if not np.any((vals >= range_[0]) & (vals <= range_[1])):
        raise ValueError(f"no eigenvalue in the histogram range {tuple(range_)}")
    counts, edges = np.histogram(vals, bins=bins, range=range_, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return Histogram(centers=centers, density=counts, edges=edges)


def _window_bounds(batch: SampleBatch, window):
    """(lo, hi, local density) of a local_statistics window; a plain
    triple needs no batch."""
    if hasattr(window, "x_star"):
        x0, c = window.x_star, window.c
        half = float(np.max(np.abs(window.grid))) / window.c_n(batch.n)
    else:
        x0, half, c = window
    lo, hi = float(x0) - float(half), float(x0) + float(half)
    if not (-math.inf < lo and hi < math.inf and 0.0 < half and 0.0 < c < math.inf):
        raise ValueError(f"window needs finite ends, half-width and density > 0: {x0}, {half}, {c}")
    return lo, hi, c


def local_statistics(batch: SampleBatch, window) -> np.ndarray:
    """Consecutive spacings inside a window around a bulk point, unfolded
    by the local density so the mean spacing is 1.

    window: an orthopoly.ScalingWindow (x_star, c = local density, grid
    extent interpreted at scale c*n) or a plain (x_star, half_width,
    density) triple."""
    lo, hi, c = _window_bounds(batch, window)
    E = batch.eigenvalue_sets
    m = (E >= lo) & (E <= hi)  # rows are sorted: consecutive in-window pairs
    out = np.diff(E, axis=1)[m[:, 1:] & m[:, :-1]] * batch.n * c
    if not out.size:
        raise ValueError("no eigenvalues found in the window")
    return out


def poisson_contrast(batch: SampleBatch, window, seed: int = 0) -> np.ndarray:
    """Unfolded spacings of a Poisson resample: per set, the same number
    of points dropped uniformly in the window (the null model against
    which eigenvalue repulsion is judged)."""
    lo, hi, c = _window_bounds(batch, window)
    rng = np.random.default_rng(np.random.SeedSequence([seed, batch.seed & 0x7FFFFFFF]))
    k = ((batch.eigenvalue_sets >= lo) & (batch.eigenvalue_sets <= hi)).sum(axis=1)
    row = np.repeat(np.arange(k.size), np.where(k >= 2, k, 0))
    if not row.size:
        raise ValueError("no eigenvalues found in the window")
    pts = rng.uniform(lo, hi, row.size)  # the same stream as one draw per set
    pts = pts[np.lexsort((pts, row))]
    return np.diff(pts)[row[1:] == row[:-1]] * batch.n * c


def compare_to_kernel(empirical: Histogram, predicted: np.ndarray):
    """Sup and integrated-L1 distances between an empirical histogram and
    a prediction evaluated on the same bin centers."""
    predicted = np.asarray(predicted, dtype=float)
    if predicted.shape != empirical.density.shape:
        raise ValueError("prediction grid does not match the histogram bins")
    diff = np.abs(empirical.density - predicted)
    widths = np.diff(empirical.edges)
    return float(diff.max()), float(np.sum(diff * widths))
