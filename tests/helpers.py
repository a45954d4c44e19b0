"""Shared statistical helpers for the test suite."""

import numpy as np
from scipy import stats

from dpprofile import evaluation


def pool_counts(counts_a: np.ndarray, counts_b: np.ndarray, floor: float = 20.0):
    """Merge adjacent bins until each pooled cell holds at least `floor` total."""
    pooled = []
    acc_a = acc_b = 0.0
    for a, b in zip(counts_a, counts_b):
        acc_a += a
        acc_b += b
        if acc_a + acc_b >= floor:
            pooled.append((acc_a, acc_b))
            acc_a = acc_b = 0.0
    if acc_a + acc_b > 0:
        if pooled:
            last_a, last_b = pooled[-1]
            pooled[-1] = (last_a + acc_a, last_b + acc_b)
        else:
            pooled.append((acc_a, acc_b))
    return np.array([c[0] for c in pooled]), np.array([c[1] for c in pooled])


def two_sample_chi2_pvalue(samples_a: np.ndarray, samples_b: np.ndarray) -> float:
    """Homogeneity test for two integer samples on a shared support."""
    lo = int(min(samples_a.min(), samples_b.min()))
    hi = int(max(samples_a.max(), samples_b.max()))
    counts_a = np.bincount(samples_a - lo, minlength=hi - lo + 1).astype(float)
    counts_b = np.bincount(samples_b - lo, minlength=hi - lo + 1).astype(float)
    ka, kb = pool_counts(counts_a, counts_b)
    na, nb = ka.sum(), kb.sum()
    shared = (ka + kb) / (na + nb)
    ea, eb = na * shared, nb * shared
    stat = float(np.sum((ka - ea) ** 2 / ea) + np.sum((kb - eb) ** 2 / eb))
    dof = len(ka) - 1
    return float(stats.chi2.sf(stat, dof))


def gof_chi2_pvalue(samples: np.ndarray, support: np.ndarray, pmf: np.ndarray) -> float:
    """Goodness-of-fit of integer samples against an exact pmf on a support.

    Samples outside the support are pooled into the nearest end bin.
    """
    clipped = np.clip(samples, support[0], support[-1])
    counts = np.bincount(clipped - support[0], minlength=len(support)).astype(float)
    n = counts.sum()
    expected = pmf * n
    # pool cells with tiny expectation into neighbors
    keep_c, keep_e = [], []
    acc_c = acc_e = 0.0
    for c, e in zip(counts, expected):
        acc_c += c
        acc_e += e
        if acc_e >= 5.0:
            keep_c.append(acc_c)
            keep_e.append(acc_e)
            acc_c = acc_e = 0.0
    if acc_e > 0:
        keep_c[-1] += acc_c
        keep_e[-1] += acc_e
    keep_c, keep_e = np.array(keep_c), np.array(keep_e)
    stat = float(np.sum((keep_c - keep_e) ** 2 / keep_e))
    dof = len(keep_c) - 1
    return float(stats.chi2.sf(stat, dof))


def random_profile(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """A valid profile over 0..n whose entries are multiples of 1/d."""
    weights = rng.dirichlet(np.ones(n + 1))
    counts = rng.multinomial(d, weights)
    return counts / d


def run_trial(spec, cfg, seed: int, trial: int = 0):
    """One sweep trial of (spec, cfg) on its own: its three ErrorReports."""
    return evaluation._run_cell_trial(evaluation._prepare_cell(spec, cfg), cfg, seed, trial)


def random_feasible(m: int, n: int, B: int, rng: np.random.Generator) -> np.ndarray:
    """A vector on the window whose core entries sum to one."""
    v = rng.normal(size=m)
    core = v[B : B + n + 1]
    core += (1.0 - core.sum()) / (n + 1)
    return v
