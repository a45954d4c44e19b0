"""Brute-force reference implementations used only by the test suite.

Everything here is quadratic or worse and exists to cross-check the fast
paths: dense realizations of the circulant operator, exact constrained least
squares via the stationarity system, Monte-Carlo simulation of the
mass-smearing process, bisection for the drain threshold, and the iterative
form of the rounding adjustment.  The package itself never imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dpprofile.circulant import generator_vector
from dpprofile.params import ReconstructionConfig
from dpprofile.reconstruct import Profile

__all__ = [
    "DenseOperator",
    "dense_operator",
    "dense_solve",
    "equality_constrained_ls",
    "sample_truncated_dlap",
    "monte_carlo_generator",
    "bisection_tau",
    "iterated_adjustment",
]

# Guard against accidentally materializing production-sized matrices.
_MAX_DENSE = 4096
_MAX_KKT = 1024


@dataclass(frozen=True)
class DenseOperator:
    """Explicit m-by-m realization of the deconvolution operator."""

    entries: np.ndarray
    n: int
    B: int

    def __post_init__(self):
        self.entries.flags.writeable = False

    @property
    def m(self) -> int:
        return len(self.entries)


def dense_operator(cfg: ReconstructionConfig) -> DenseOperator:
    """Materialize the operator row by row from its generator vector.

    Row k is the k-fold right cyclic shift of the first row, so entry (k, l)
    is e^{-eps * ring_distance(k, l)} / P for ring distances up to B and zero
    beyond.
    """
    m = cfg.m
    if m > _MAX_DENSE:
        raise ValueError(f"dense realization refused for m={m} > {_MAX_DENSE}")
    gen = generator_vector(cfg.epsilon, cfg.n, cfg.B)
    entries = np.empty((m, m))
    for k in range(m):
        entries[k] = np.roll(gen, k)
    return DenseOperator(entries=entries, n=cfg.n, B=cfg.B)


def dense_solve(dense: DenseOperator, x: np.ndarray) -> np.ndarray:
    """Solve A y = x with a pivoted dense factorization and check the residual."""
    x = np.asarray(x, dtype=np.float64)
    if dense.m > _MAX_DENSE:
        raise ValueError(f"dense solve refused for m={dense.m}")
    try:
        y = np.linalg.solve(dense.entries, x)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular dense operator: {exc}") from exc
    resid = float(np.max(np.abs(dense.entries @ y - x)))
    if resid > 1e-10 * max(1.0, float(np.max(np.abs(x)))):
        raise AssertionError(f"dense solve residual {resid:.3e} too large")
    return y


def equality_constrained_ls(dense: DenseOperator, f_tilde: np.ndarray) -> np.ndarray:
    """Exact minimizer of ||A r - f||_2 subject to the window sum being one.

    Solves the stationarity system [2 A^T A, e; e^T, 0] [r; lam] = [2 A^T f; 1]
    densely, where e is the indicator of the count window.  A is invertible,
    so the minimizer is unique.
    """
    m = dense.m
    if m > _MAX_KKT:
        raise ValueError(f"constrained solve refused for m={m} > {_MAX_KKT}")
    f = np.asarray(f_tilde, dtype=np.float64)
    if f.shape != (m,):
        raise ValueError(f"profile has shape {f.shape}, expected ({m},)")
    A = dense.entries
    ones = np.zeros(m)
    ones[dense.B : dense.B + dense.n + 1] = 1.0
    system = np.zeros((m + 1, m + 1))
    system[:m, :m] = 2.0 * A.T @ A
    system[:m, m] = ones
    system[m, :m] = ones
    rhs = np.concatenate([2.0 * A.T @ f, [1.0]])
    try:
        solution = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular stationarity system: {exc}") from exc
    return solution[:m]


def sample_truncated_dlap(
    epsilon: float, B: int, rng: np.random.Generator, size=None
):
    """Two-sided exponential noise conditioned on magnitude at most B.

    Sampled by inverse CDF over the 2B+1 support points, which realizes the
    conditional distribution exactly without rejection.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if B < 0:
        raise ValueError("B must be non-negative")
    support = np.arange(-B, B + 1)
    pmf = np.exp(-epsilon * np.abs(support))
    cdf = np.cumsum(pmf / pmf.sum())
    u = rng.random(size)
    idx = np.searchsorted(cdf, u, side="right")
    out = support[np.minimum(idx, 2 * B)]
    if size is None:
        return int(out)
    return out.astype(np.int64)


def monte_carlo_generator(
    r: Profile,
    cfg: ReconstructionConfig,
    d: int,
    trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Empirical mean of the mass-smearing process applied to a profile.

    Each trial places r[t] * d items at count t, moves every item by an
    independent truncated noise draw, and bins the result into the window
    [-B, n+B]; the mean over trials estimates the operator image of the
    padded profile.
    """
    if trials < 1 or d < 1:
        raise ValueError("trials and d must be >= 1")
    if r.n != cfg.n:
        raise ValueError(f"profile covers counts 0..{r.n}, config expects 0..{cfg.n}")
    scaled = r.values * d
    counts = np.rint(scaled).astype(np.int64)
    if np.max(np.abs(scaled - counts)) > 1e-6:
        raise ValueError("profile entries must be integer multiples of 1/d")
    if counts.sum() != d:
        raise ValueError("profile mass does not correspond to d items")
    items = np.repeat(np.arange(len(counts)), counts)
    m = cfg.m
    acc = np.zeros(m)
    for _ in range(trials):
        noise = sample_truncated_dlap(cfg.epsilon, cfg.B, rng, size=d)
        acc += np.bincount(items + noise + cfg.B, minlength=m)
    return acc / (trials * d)


def bisection_tau(r: np.ndarray, s: float) -> float:
    """Solve sum_t min(tau, r[t]) = s by bisection on the monotone drain map."""
    r = np.asarray(r, dtype=np.float64)
    total = float(r.sum())
    if s < 0 or s > total + 1e-9:
        raise ValueError(f"target s={s} outside [0, sum r = {total}]")
    if s <= 0:
        return 0.0

    def drained(tau: float) -> float:
        return float(np.minimum(tau, r).sum())

    lo, hi = 0.0, max(1.0, float(r.max()))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if drained(mid) < s:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12:
            break
    return 0.5 * (lo + hi)


def iterated_adjustment(r: np.ndarray, s: float) -> np.ndarray:
    """Drain total mass s from r by repeated uniform decrements.

    Works on the ascending order: at step t it lowers every still-active
    entry by the largest uniform amount that neither exhausts the smallest
    active entry nor overshoots the remaining target.  Equivalent to the
    single-threshold drain, and returned in the original entry order.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.min() < 0 or r.max() > 1:
        raise ValueError("entries must lie in [0, 1]")
    total = float(r.sum())
    if s < 0 or s > total + 1e-9:
        raise ValueError(f"target s={s} outside [0, sum r = {total}]")
    order = np.argsort(r, kind="stable")
    work = r[order].copy()
    k = len(work)
    t = 0
    remaining = s
    while t < k and remaining > 0:
        step = min(work[t], remaining / (k - t))
        work[t:] -= step
        remaining -= step * (k - t)
        t += 1
    out = np.empty_like(work)
    out[order] = work
    return out
