"""Evaluation harness: synthetic histograms, error measurement, and sweeps.

Runs the privatize-and-reconstruct pipeline over parameter grids, measures
the l1/l2/linf reconstruction errors against ground truth, evaluates the
analytic error bounds for comparison, and fits the error-versus-domain-size
scaling law from swept results.

Reconstruction reads only the binned noisy profile f~, so a trial draws f~
by one of two routes with the same law.  The class route draws it from its
sufficient statistic: the k_c items at true count c bin as
Multinomial(k_c, window_pmf row of c), one multinomial per count value
present, at O(classes * m) per trial.  The per-item route privatizes all d
counts and bins them, at O(d).  A cell takes the class route when its pmf
table, classes * m entries, is no larger than d, which also bounds the
table's memory by the histogram's.

A sweep runs class-route trials on the calling thread and per-item trials
on a thread pool as large as the number of CPUs this process may run on.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import circulant
from ._util import NORMS, derive_seed, lp_norm
from .circulant import CirculantOperator
from .mechanism import (
    Histogram,
    _bins,
    empirical_profile,
    privatize,
    window_pmf,
)
from .params import (
    ReconstructionConfig, _Frozen, check_fit, check_integer, check_seed, check_trials,
)
from .reconstruct import Profile, _profile_from_product, cached_operator

__all__ = [
    "ErrorReport",
    "SynthSpec",
    "synth_histogram",
    "true_profile",
    "theoretical_bounds",
    "sweep",
    "rows_to_csv",
    "fit_scaling",
]

EVAL_CSV_HEADER = "d,n,epsilon,eta,trial,p,err,bound,seconds"


class ErrorReport(_Frozen):
    """One (trial, norm) outcome: measured error and analytic bound."""

    __slots__ = ("d", "n", "epsilon", "eta", "p", "trial", "err", "bound")

    def __init__(self, d: int, n: int, epsilon: float, eta: float, p: str, trial: int,
                 err: float, bound: float):
        self._set(d=d, n=n, epsilon=epsilon, eta=eta, p=p, trial=trial, err=err, bound=bound)


class SynthSpec(_Frozen):
    """Recipe for a synthetic histogram.

    distribution is one of "point_mass" (every count equals `param`),
    "uniform_counts" (counts i.i.d. uniform on [0, n]), or "zipf" (counts
    decay as rank^-param, scaled into [0, n], then shuffled).
    """

    __slots__ = ("distribution", "d", "n", "seed", "param")

    def __init__(self, distribution: str, d: int, n: int, seed: int, param: float = 0.0):
        if distribution not in ("point_mass", "uniform_counts", "zipf"):
            raise ValueError(f"unknown distribution {distribution!r}")
        d, n = check_integer(d, "d"), check_integer(n, "n")
        if d < 1 or n < 1:
            raise ValueError("d and n must be >= 1")
        seed = check_seed(seed)
        # written so that NaN fails both checks
        if distribution == "point_mass" and not (
            0 <= param <= n and float(param).is_integer()
        ):
            raise ValueError(
                f"point mass must be an integer count in [0, {n}], got {param!r}"
            )
        if distribution == "zipf" and not (math.isfinite(param) and param > 0):
            raise ValueError(
                f"zipf exponent must be a finite number > 0, got {param!r}"
            )
        self._set(distribution=distribution, d=d, n=n, seed=seed, param=param)


def synth_histogram(spec: SynthSpec) -> Histogram:
    counts = _synth_counts(spec)
    _shuffle(spec, counts)
    return Histogram(counts=counts, n=spec.n)


def _synth_counts(spec: SynthSpec) -> np.ndarray:
    """The counts of synth_histogram(spec) before _shuffle orders them."""
    if spec.distribution == "point_mass":
        return np.full(spec.d, int(spec.param), dtype=np.int64)
    if spec.distribution == "uniform_counts":
        return np.random.default_rng(spec.seed).integers(0, spec.n + 1, size=spec.d)
    return _zipf_counts(spec, np.arange(1, spec.d + 1, dtype=np.float64))


def _zipf_counts(spec: SynthSpec, ranks: np.ndarray) -> np.ndarray:
    """The zipf counts rint(n r^-alpha) at the float64 ranks r in 1..d."""
    return np.rint(spec.n * ranks ** -float(spec.param)).astype(np.int64)


def _zipf_class_sizes(spec: SynthSpec) -> np.ndarray | None:
    """np.bincount(_synth_counts(spec), minlength=n + 1) of a zipf spec in
    O(n) work, or None where that is no cheaper or not certain to be exact.

    The counts do not rise with the rank, so for each c in 1..n the ranks
    with a count >= c are 1..end[c].  A float estimate of each end is moved
    until the counts themselves, evaluated by _zipf_counts at the end and
    the rank after it, bracket c; rint thus decides every tie as it does
    over the whole domain.
    """
    n, d, alpha = spec.n, spec.d, float(spec.param)
    # n r^-alpha falls by a factor of about 1 - alpha / r from one rank to
    # the next, far more than the few ulps the power rounds by while
    # alpha > d 2^-40, so the computed counts cannot rise with the rank
    if not (n < d and alpha * 2**40 > d):
        return None
    c = np.arange(1, n + 1)
    # the count is >= c for n r^-alpha >= c - 1/2, i.e. r <= (n / (c - 1/2))^(1/alpha)
    with np.errstate(over="ignore"):
        end = np.exp(np.log1p((n - c + 0.5) / (c - 0.5)) / alpha)
    end = np.floor(np.minimum(end, d)).astype(np.int64)
    while True:
        low = (end > 0) & (_zipf_counts(spec, np.maximum(end, 1.0)) < c)
        high = (end < d) & (_zipf_counts(spec, np.minimum(end + 1.0, d)) >= c)
        if not (low.any() or high.any()):
            break
        end += high.astype(np.int64) - low
    # class c holds the ranks end[c + 1] + 1 .. end[c]; every count is >= 0
    ends = np.concatenate(([d], end, [0]))
    return ends[:-1] - ends[1:]


def _shuffle(spec: SynthSpec, counts: np.ndarray) -> None:
    """Shuffle zipf counts in place, which are drawn sorted by rank."""
    if spec.distribution == "zipf":
        np.random.default_rng(spec.seed).shuffle(counts)


def true_profile(h: Histogram) -> Profile:
    """Exact frequency-of-frequencies of a histogram."""
    bins = _bins(h.counts, 0, h.n)
    bins /= h.d
    return Profile(values=bins)


class BoundTriple(_Frozen):
    __slots__ = ("b1", "b2", "binf")

    def __init__(self, b1: float, b2: float, binf: float):
        self._set(b1=b1, b2=b2, binf=binf)

    def for_norm(self, p: str) -> float:
        return {"l1": self.b1, "l2": self.b2, "linf": self.binf}[p]


def theoretical_bounds(
    cfg: ReconstructionConfig, f: Profile, op: CirculantOperator
) -> BoundTriple:
    """High-probability error bounds for the pipeline on this instance.

    Each norm combines twice the analytic operator-norm bound of the inverse
    with the corresponding concentration bound on how far the observed noisy
    profile strays from its expectation (valid with probability >= 1 - eta).
    The expectation is A applied to the true profile padded by B zeros on
    each side; the window m = (n + 1) + (2B + 1) - 1 is exactly the length
    of the profile's linear convolution with A's 2B + 1 taps, so no tap
    wraps and that convolution is the expectation itself.
    """
    bounds = circulant.norm_bounds(op)
    d = cfg.d
    expected = np.clip(np.convolve(f.values, circulant._kernel_taps(cfg.epsilon, cfg.B)), 0.0, None)
    log_eta = math.log(1.0 / cfg.eta)
    log_n_eta = math.log(cfg.n / cfg.eta)
    dev1 = float(np.sum(np.sqrt(expected))) / math.sqrt(d) + math.sqrt(
        2.0 * log_eta / d
    )
    dev2 = math.sqrt(1.0 / d) + math.sqrt(log_eta / d)
    devinf = math.sqrt(2.0 * log_n_eta / op.p_norm_const / d) + log_n_eta / (3.0 * d)
    return BoundTriple(
        b1=2.0 * bounds.bound_1_inf * dev1,
        b2=2.0 * bounds.bound_2 * dev2,
        binf=2.0 * bounds.bound_1_inf * devinf,
    )


class _Cell(_Frozen):
    """What every trial of one grid cell shares: the exact profile of its
    histogram, the operator and the analytic bounds.

    On the class route, classes[r] items share one true count and pmf[r] is
    the law of its binned noisy count, and h is None; on the per-item route
    h is the histogram and classes and pmf are None.
    """

    __slots__ = ("h", "f", "op", "bounds", "classes", "pmf")

    def __init__(
        self,
        h: Histogram | None,
        f: Profile,
        op: CirculantOperator,
        bounds: BoundTriple,
        classes: np.ndarray | None,
        pmf: np.ndarray | None,
    ):
        self._set(h=h, f=f, op=op, bounds=bounds, classes=classes, pmf=pmf)


def _prepare_cell(spec: SynthSpec, cfg: ReconstructionConfig) -> _Cell:
    # the profile and the class sizes do not depend on the order of the
    # counts, so they are binned before the shuffle, which only the per-item
    # route needs; a zipf cell may take them without forming its d counts
    counts = None
    by_count = _zipf_class_sizes(spec) if spec.distribution == "zipf" else None
    if by_count is None:
        counts = _synth_counts(spec)
        by_count = np.bincount(counts, minlength=spec.n + 1)  # items at each count
    f = Profile(values=by_count / spec.d)
    op = cached_operator(cfg)
    values = np.flatnonzero(by_count)
    h = classes = pmf = None
    # the table holds len(values) * m entries; past d it would outgrow the
    # histogram it summarises, and drawing per item is then the cheaper route
    if len(values) * cfg.m <= cfg.d:
        classes = by_count[values]
        pmf = window_pmf(values, cfg.epsilon, cfg.n, cfg.B)
    else:
        if counts is None:
            counts = _synth_counts(spec)
        _shuffle(spec, counts)
        h = Histogram(counts=counts, n=spec.n)
    return _Cell(h=h, f=f, op=op, bounds=theoretical_bounds(cfg, f, op),
                 classes=classes, pmf=pmf)


def _noisy_profile(cell: _Cell, cfg: ReconstructionConfig, rng) -> np.ndarray:
    """One draw of the binned noisy profile f~ of the cell's histogram."""
    if cell.pmf is None:
        sketch = privatize(cell.h, cfg.epsilon, clip=False, rng=rng)
        return empirical_profile(sketch, cfg).values
    return rng.multinomial(cell.classes, cell.pmf).sum(axis=0) / cfg.d


def _run_cell_trial(
    cell: _Cell, cfg: ReconstructionConfig, seed: int, trial: int
) -> list[ErrorReport]:
    """One pipeline run per norm on a fresh noisy profile; three reports.

    f~ is drawn once, by the cell's route, and reconstructed once with each
    norm objective; each error is measured in its own norm.  The norms share
    the product A^{-1} f~, and each corrects and rounds a copy of it in
    place, as reconstruct_profile does its own.
    """
    f_tilde = _noisy_profile(cell, cfg, np.random.default_rng(seed))
    u = circulant.apply_inverse(cell.op, f_tilde)
    reports = []
    for p in NORMS:
        rounded = _profile_from_product(cell.op, u.copy(), p)
        err = lp_norm(rounded.values - cell.f.values, p)
        reports.append(ErrorReport(d=cfg.d, n=cfg.n, epsilon=cfg.epsilon, eta=cfg.eta, p=p,
                                   trial=trial, err=err, bound=cell.bounds.for_norm(p)))
    return reports


def sweep(
    grid: list[tuple[SynthSpec, ReconstructionConfig]],
    trials: int,
    master_seed: int,
) -> list[ErrorReport]:
    """Run every grid cell `trials` times with independently derived seeds.

    The per-trial seed is a stable 64-bit mix of (master_seed, cell index,
    trial index), so the report set is reproducible regardless of scheduling;
    rows come back in (cell, trial, norm) order.  The histogram, its profile
    and the bounds are fixed per cell, so they are built once per cell, on
    the calling thread.

    A class-route trial is Python dispatch over m-entry arrays that holds
    the GIL throughout, so threads would only pass it back and forth: those
    trials run on the calling thread.  Per-item trials spend their time in
    O(d) numpy passes that release the GIL; they go to a pool with one
    worker per CPU in this process's affinity mask (os.cpu_count() where
    the platform reports no mask), capped at their number, when that pool
    has more than one worker.
    """
    if not grid:
        raise ValueError("sweep grid is empty")
    trials = check_trials(trials)
    master_seed = check_seed(master_seed, "master_seed")
    for ci, (spec, cfg) in enumerate(grid):  # before any cell is built
        if (spec.d, spec.n) != (cfg.d, cfg.n):
            raise ValueError(f"grid cell {ci}: the spec has (d, n) = ({spec.d}, {spec.n}), "
                             f"the config ({cfg.d}, {cfg.n})")
    cells = [_prepare_cell(spec, cfg) for spec, cfg in grid]
    tasks = [(ci, ti) for ci in range(len(grid)) for ti in range(trials)]

    def _run(task):
        ci, ti = task
        return _run_cell_trial(cells[ci], grid[ci][1], derive_seed(master_seed, ci, ti), ti)

    per_item = [task for task in tasks if cells[task[0]].pmf is None]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(cpus, len(per_item))
    pooled = {}
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            pooled = dict(zip(per_item, pool.map(_run, per_item)))
    return [row for task in tasks for row in (pooled[task] if task in pooled else _run(task))]


def rows_to_csv(reports: list[ErrorReport], slopes: dict[str, float] | None = None) -> str:
    """Render reports as CSV text.

    The seconds column is written as 0.0: output files must be byte-identical
    across reruns with the same seed, and wall-clock is not, so no trial is
    timed.
    """
    lines = [EVAL_CSV_HEADER]
    for r in reports:
        lines.append(
            f"{r.d},{r.n},{float(r.epsilon)!r},{float(r.eta)!r},"
            f"{r.trial},{r.p},{float(r.err)!r},{float(r.bound)!r},0.0"
        )
    if slopes is not None:
        for p in NORMS:
            lines.append(f"# slope_{p}={float(slopes[p])!r}")
    return "\n".join(lines) + "\n"


def fit_scaling(reports: list[ErrorReport], p: str) -> float:
    """Least-squares slope of log(mean error) versus log(domain size).

    Requires the rows that params.check_fit asks for, and a finite mean
    error > 0 at every d, whose logarithm the fit takes; a slope near -1/2
    indicates the expected error decay.  The slope is the centred closed
    form sum((x - mean x)(y - mean y)) / sum((x - mean x)^2), with x = log d
    and y = log(mean error): elementwise passes over a few points, with no
    linear-algebra call.
    """
    if p not in NORMS:
        raise ValueError(f"unknown norm selector {p!r}")
    by_d: dict[int, list[float]] = {}
    for r in reports:
        if r.p == p:
            by_d.setdefault(r.d, []).append(r.err)
    check_fit({d: len(errs) for d, errs in by_d.items()})
    ds = np.array(sorted(by_d))
    means = np.array([np.mean(by_d[d]) for d in ds])
    for d, mean in zip(ds, means):
        if not (math.isfinite(mean) and mean > 0):  # NaN fails both
            raise ValueError(f"the {p} mean error at d={d} is {float(mean)!r}; "
                             "the log-log fit needs a finite mean error > 0 at every d")
    x = np.log(ds)
    x -= x.mean()
    y = np.log(means)
    y -= y.mean()
    return float(np.sum(x * y) / np.sum(x * x))
