"""Tests for the synthetic-data and error-measurement harness."""

import math
import os
import threading
from dataclasses import replace

import numpy as np
import pytest

from dpprofile import circulant, evaluation
from dpprofile._util import derive_seed
from dpprofile.evaluation import (
    ErrorReport,
    SynthSpec,
    fit_scaling,
    pad_profile,
    rows_to_csv,
    sweep,
    synth_histogram,
    theoretical_bounds,
    true_profile,
)
from dpprofile.mechanism import (
    Histogram,
    PrivateSketch,
    empirical_profile,
    privatize,
)
from dpprofile.params import ReconstructionConfig
from dpprofile.reconstruct import cached_operator, fast_inversion, rounding
from dpprofile._util import lp_norm

from helpers import run_trial


# --- synthetic histograms -----------------------------------------------------

def test_point_mass_histogram():
    spec = SynthSpec("point_mass", d=4, n=5, seed=0, param=1)
    h = synth_histogram(spec)
    np.testing.assert_array_equal(h.counts, [1, 1, 1, 1])
    f = true_profile(h)
    np.testing.assert_array_equal(f.values, [0, 1, 0, 0, 0, 0])


def test_point_mass_rejects_large_count():
    with pytest.raises(ValueError):
        synth_histogram(SynthSpec("point_mass", d=4, n=5, seed=0, param=9))


def test_uniform_counts_concentration():
    d, n = 40000, 1
    spec = SynthSpec("uniform_counts", d=d, n=n, seed=3)
    f = true_profile(synth_histogram(spec))
    np.testing.assert_allclose(f.values, [0.5, 0.5], atol=4 / math.sqrt(d))


def test_zipf_counts_in_range_and_deterministic():
    spec = SynthSpec("zipf", d=500, n=10, seed=5, param=1.1)
    h1, h2 = synth_histogram(spec), synth_histogram(spec)
    np.testing.assert_array_equal(h1.counts, h2.counts)
    assert h1.counts.min() >= 0 and h1.counts.max() <= 10
    assert h1.counts.max() == 10  # rank 1 hits the cap


def test_unknown_distribution_rejected():
    with pytest.raises(ValueError):
        SynthSpec("beta", d=10, n=5, seed=0)


@pytest.mark.parametrize(
    "distribution, param",
    [("zipf", math.nan), ("zipf", math.inf), ("zipf", 0.0), ("zipf", -1.0),
     ("point_mass", math.nan), ("point_mass", 1.5), ("point_mass", -1), ("point_mass", 6)],
)
def test_synth_spec_rejects_a_parameter_with_no_histogram(distribution, param):
    # written so that NaN fails: it compares false with every bound
    with pytest.raises(ValueError, match="must be"):
        SynthSpec(distribution, d=10, n=5, seed=0, param=param)


def test_zipf_class_sizes_equal_the_binned_counts():
    # the O(n) sizes decide every class boundary as rint does over all d
    # ranks, ties included
    rng = np.random.default_rng(17)
    grid = [(d, n, alpha) for d in (2, 7, 1000, 12345) for n in (1, 2, 5, 32, 999)
            for alpha in (0.5, 0.7, 1.0, 1.1, 2.0, 3.7, 40.0) if n < d]
    grid += [(int(d), int(rng.integers(1, min(d, 3000))), float(rng.uniform(0.01, 5)))
             for d in rng.integers(2, 10**5, size=100)]
    for d, n, alpha in grid:
        spec = SynthSpec("zipf", d=d, n=n, seed=0, param=alpha)
        want = np.bincount(evaluation._synth_counts(spec), minlength=n + 1)
        assert evaluation._zipf_class_sizes(spec).tolist() == want.tolist(), (d, n, alpha)
    # no cheaper than binning with n >= d; not certain to be exact when the
    # counts of neighbouring ranks lie within rounding of each other
    for d, n, alpha in ((10, 10, 1.1), (10, 50, 1.1), (10**6, 32, 1e-7)):
        assert evaluation._zipf_class_sizes(SynthSpec("zipf", d=d, n=n, seed=0, param=alpha)) is None


# --- true profile ----------------------------------------------------------------

def test_true_profile_counts():
    h = Histogram(counts=np.array([0, 2, 2, 5]), n=5)
    f = true_profile(h)
    np.testing.assert_array_equal(f.values, [0.25, 0, 0.5, 0, 0, 0.25])


def test_true_profile_permutation_invariant():
    rng = np.random.default_rng(7)
    counts = rng.integers(0, 6, size=200)
    f1 = true_profile(Histogram(counts=counts, n=5))
    f2 = true_profile(Histogram(counts=rng.permutation(counts), n=5))
    np.testing.assert_array_equal(f1.values, f2.values)


# --- analytic bounds ----------------------------------------------------------------

def make_reference():
    cfg = ReconstructionConfig(epsilon=1.0, eta=0.05, n=32, d=10**4)
    h = synth_histogram(SynthSpec("point_mass", d=10**4, n=32, seed=1, param=1))
    return cfg, true_profile(h), cached_operator(cfg)


def test_expected_profile_preserves_mass():
    cfg, f, op = make_reference()
    expected = circulant.apply(op, pad_profile(f, cfg.B))
    assert float(expected.sum()) == pytest.approx(1.0, abs=1e-9)


def test_l2_bound_composition():
    cfg, f, op = make_reference()
    bounds = theoretical_bounds(cfg, f, op)
    d = cfg.d
    dev = math.sqrt(1.0 / d) + math.sqrt(math.log(1.0 / cfg.eta) / d)
    want = 2.0 * circulant.norm_bounds(op).bound_2 * dev
    assert bounds.b2 == pytest.approx(want, rel=1e-12)


def test_bounds_decrease_with_domain_size():
    prev = None
    for d in (10**3, 10**4, 10**5):
        cfg = ReconstructionConfig(epsilon=1.0, eta=0.05, n=32, d=d, B=12)
        h = synth_histogram(SynthSpec("point_mass", d=d, n=32, seed=1, param=1))
        op = cached_operator(cfg)
        b = theoretical_bounds(cfg, true_profile(h), op)
        if prev is not None:
            assert b.b1 < prev.b1 and b.b2 < prev.b2 and b.binf < prev.binf
        prev = b


# --- trials ---------------------------------------------------------------------

def test_run_trial_noiseless():
    d = 2000
    spec = SynthSpec("point_mass", d=d, n=6, seed=2, param=1)
    cfg = ReconstructionConfig(epsilon=50.0, eta=0.05, n=6, d=d)
    reports = run_trial(spec, cfg, seed=11)
    assert [r.p for r in reports] == ["l1", "l2", "linf"]
    for r in reports:
        assert r.err <= 1e-6
        assert r.seconds >= 0.0
        assert r.bound >= 0.0


def test_error_invariant_under_joint_permutation():
    # permuting histogram and noise together leaves the noisy profile, and
    # hence every norm of the reconstruction error, unchanged
    d = 3000
    rng = np.random.default_rng(13)
    counts = rng.integers(0, 9, size=d)
    noise = rng.integers(-3, 4, size=d)
    perm = rng.permutation(d)
    cfg = ReconstructionConfig(epsilon=1.0, eta=0.1, n=8, d=d, B=5)
    op = cached_operator(cfg)
    errs = []
    for c, z in (
        (counts, noise),
        (counts[perm], noise[perm]),
    ):
        sketch = PrivateSketch(counts=c + z, epsilon=1.0, n=8, clipped=False)
        f = true_profile(Histogram(counts=c, n=8))
        prof = rounding(fast_inversion(op, empirical_profile(sketch, cfg), "l2"), 8)
        errs.append(lp_norm(prof.values - f.values, "l2"))
    assert errs[0] == pytest.approx(errs[1], abs=1e-12)


def test_norm_inequality_sanity():
    d = 10**4
    spec = SynthSpec("uniform_counts", d=d, n=16, seed=3)
    cfg = ReconstructionConfig(epsilon=1.0, eta=0.05, n=16, d=d, B=12)
    for trial in range(5):
        reports = {r.p: r for r in run_trial(spec, cfg, seed=derive_seed(4, trial))}
        m = cfg.m
        assert reports["l1"].err <= math.sqrt(m) * reports["l2"].err + 1e-12


# --- sweep ---------------------------------------------------------------------

def small_grid():
    d = 500
    spec = SynthSpec("point_mass", d=d, n=6, seed=1, param=2)
    cfg = ReconstructionConfig(epsilon=2.0, eta=0.2, n=6, d=d)
    return [(spec, cfg)]


def test_sweep_cardinality_and_order():
    reports = sweep(small_grid(), trials=3, master_seed=0)
    assert len(reports) == 9
    assert [r.trial for r in reports] == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    assert [r.p for r in reports[:3]] == ["l1", "l2", "linf"]


def test_sweep_deterministic_csv():
    a = rows_to_csv(sweep(small_grid(), trials=3, master_seed=7))
    b = rows_to_csv(sweep(small_grid(), trials=3, master_seed=7))
    assert a == b
    assert a.splitlines()[0] == "d,n,epsilon,eta,trial,p,err,bound,seconds"


def test_sweep_distinct_seeds_distinct_errors():
    reports = sweep(small_grid(), trials=30, master_seed=1)
    l2_errs = [r.err for r in reports if r.p == "l2"]
    assert len(set(l2_errs)) > 25


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        sweep([], trials=2, master_seed=0)


def mixed_grid():
    """A class-route cell, then a per-item cell: uniform counts up to
    n = 1000 need a table of some 1e6 entries against d = 1e4 items."""
    d = 10**4
    return [
        (SynthSpec(dist, d=d, n=n, seed=3, param=param),
         ReconstructionConfig(epsilon=1.0, eta=0.05, n=n, d=d))
        for dist, n, param in (("zipf", 32, 1.1), ("uniform_counts", 1000, 0.0))
    ]


def spy_trial_threads(monkeypatch):
    """(cell takes the class route, trial ran on the calling thread) per trial."""
    seen = []
    run = evaluation._run_cell_trial

    def spy(cell, cfg, seed, trial):
        seen.append((cell.pmf is not None, threading.current_thread() is threading.main_thread()))
        return run(cell, cfg, seed, trial)

    monkeypatch.setattr(evaluation, "_run_cell_trial", spy)
    return seen


def spy_pool_sizes(monkeypatch):
    """max_workers of every thread pool a sweep starts."""
    import concurrent.futures

    sizes = []
    real = concurrent.futures.ThreadPoolExecutor

    def spy(max_workers):
        sizes.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", spy)
    return sizes


def test_sweep_threaded_matches_serial(monkeypatch):
    # only the per-item trials go to the pool, one worker per CPU of the
    # affinity mask; the rows, seeds and order do not depend on where a
    # trial ran
    seen = spy_trial_threads(monkeypatch)
    sizes = spy_pool_sizes(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    sweep(mixed_grid(), trials=3, master_seed=3)
    assert sizes == [3]  # capped at the 3 per-item trials
    seen.clear()
    threaded = sweep(mixed_grid(), trials=4, master_seed=3)
    assert sizes == [3, 4]
    assert sorted(seen) == [(False, False)] * 4 + [(True, True)] * 4
    seen.clear()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    serial = sweep(mixed_grid(), trials=4, master_seed=3)
    assert sizes == [3, 4]
    assert sorted(seen) == [(False, True)] * 4 + [(True, True)] * 4
    assert [(r.n, r.trial, r.p) for r in threaded] == [
        (n, trial, p) for n in (32, 1000) for trial in range(4) for p in ("l1", "l2", "linf")
    ]
    assert [replace(r, seconds=0.0) for r in threaded] == [
        replace(r, seconds=0.0) for r in serial
    ]


def test_sweep_pool_falls_back_to_cpu_count_without_an_affinity_mask(monkeypatch):
    sizes = spy_pool_sizes(monkeypatch)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    sweep(mixed_grid(), trials=2, master_seed=3)
    assert sizes == [2]
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one thread
    seen = spy_trial_threads(monkeypatch)
    sweep(mixed_grid(), trials=2, master_seed=3)
    assert sizes == [2] and all(main for _, main in seen)


# --- noise routes -----------------------------------------------------------------

def spy_privatize(monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return privatize(*args, **kwargs)

    monkeypatch.setattr(evaluation, "privatize", spy)
    return calls


def test_class_route_draws_no_per_item_noise(monkeypatch):
    # 10 count values on a window of m = 57 make a table of 570 <= d entries
    d = 10**4
    spec = SynthSpec("zipf", d=d, n=32, seed=3, param=1.1)
    cfg = ReconstructionConfig(epsilon=1.0, eta=0.05, n=32, d=d)
    calls = spy_privatize(monkeypatch)
    reports = sweep([(spec, cfg)], trials=4, master_seed=5)
    assert calls == [] and len(reports) == 12


def test_per_item_route_privatizes_once_per_trial(monkeypatch):
    # about 1000 count values on a window of m = 1025: the table would hold
    # some 1e6 entries, far more than the d = 1e4 items
    d = 10**4
    spec = SynthSpec("uniform_counts", d=d, n=1000, seed=3)
    cfg = ReconstructionConfig(epsilon=1.0, eta=0.05, n=1000, d=d)
    calls = spy_privatize(monkeypatch)
    sweep([(spec, cfg)], trials=3, master_seed=5)
    assert len(calls) == 3


def test_only_the_per_item_route_shuffles_the_histogram(monkeypatch):
    # the shuffle leaves the binned counts as they are, so a class-route cell
    # bins the counts as drawn and never orders them
    shuffled = []
    shuffle = evaluation._shuffle

    def spy(spec, counts):
        shuffled.append(spec.d)
        shuffle(spec, counts)

    monkeypatch.setattr(evaluation, "_shuffle", spy)
    grid = [
        (SynthSpec("zipf", d=d, n=n, seed=3, param=1.1),
         ReconstructionConfig(epsilon=1.0, eta=0.05, n=n, d=d))
        for d, n in ((10**4, 32), (2000, 1000))  # class route, then per item
    ]
    cells = [evaluation._prepare_cell(spec, cfg) for spec, cfg in grid]
    assert [cell.pmf is not None for cell in cells] == [True, False]
    assert shuffled == [2000]
    # the per-item cell holds the very histogram synth_histogram gives
    assert cells[1].h.counts.tolist() == synth_histogram(grid[1][0]).counts.tolist()
    for (spec, _), cell in zip(grid, cells):
        assert cell.f.values.tolist() == true_profile(synth_histogram(spec)).values.tolist()


def test_per_item_route_replays_the_per_item_pipeline():
    # the trial body of the per-item route, written out: seeded rows on this
    # route are those of an eval that privatizes every trial
    d, n, trials = 10**4, 1000, 3
    spec = SynthSpec("uniform_counts", d=d, n=n, seed=3)
    cfg = ReconstructionConfig(epsilon=1.0, eta=0.05, n=n, d=d)
    got = rows_to_csv(sweep([(spec, cfg)], trials=trials, master_seed=5))
    h = synth_histogram(spec)
    f = true_profile(h)
    op = cached_operator(cfg)
    bounds = theoretical_bounds(cfg, f, op)
    want = []
    for trial in range(trials):
        rng = np.random.default_rng(derive_seed(5, 0, trial))
        f_tilde = empirical_profile(privatize(h, cfg.epsilon, clip=False, rng=rng), cfg)
        for p in ("l1", "l2", "linf"):
            err = lp_norm(rounding(fast_inversion(op, f_tilde, p), n).values - f.values, p)
            want.append(ErrorReport(d=d, n=n, epsilon=1.0, eta=0.05, p=p, trial=trial,
                                    err=err, bound=bounds.for_norm(p), seconds=0.0))
    assert got == rows_to_csv(want)


def test_class_route_matches_binned_noise_in_law():
    # the class route's f~ has the mean and the variance of the per-item
    # route's, which are sums over items of the window pmf's moments
    d = 2000
    spec = SynthSpec("zipf", d=d, n=8, seed=4, param=0.7)
    cfg = ReconstructionConfig(epsilon=0.5, eta=0.05, n=8, d=d, B=6)
    cell = evaluation._prepare_cell(spec, cfg)
    assert cell.pmf is not None
    rng = np.random.default_rng(8)
    draws = np.array([evaluation._noisy_profile(cell, cfg, rng) for _ in range(3000)])
    weight = cell.classes[:, None] * cell.pmf
    mean = weight.sum(axis=0) / d
    var = (weight * (1.0 - cell.pmf)).sum(axis=0) / d**2
    z = (draws.mean(axis=0) - mean) / np.sqrt(var / len(draws))
    assert np.all(np.abs(z[mean * d >= 5]) < 4.5)
    np.testing.assert_allclose(draws.var(axis=0)[mean * d >= 5], var[mean * d >= 5], rtol=0.2)
    np.testing.assert_allclose(draws.sum(axis=1), 1.0, rtol=0, atol=1e-12)


# --- scaling fit ------------------------------------------------------------------

def synthetic_reports(err_of_d):
    reports = []
    for d in (10**3, 10**4, 10**5):
        for trial in range(20):
            for p in ("l1", "l2", "linf"):
                reports.append(
                    ErrorReport(
                        d=d, n=8, epsilon=1.0, eta=0.05, p=p, trial=trial,
                        err=err_of_d(d), bound=1.0, seconds=0.0,
                    )
                )
    return reports


def test_fit_scaling_exact_power_law():
    reports = synthetic_reports(lambda d: 3.0 / math.sqrt(d))
    assert fit_scaling(reports, "l2") == pytest.approx(-0.5, abs=1e-9)


def test_fit_scaling_scale_invariant():
    base = synthetic_reports(lambda d: 3.0 / math.sqrt(d))
    doubled = synthetic_reports(lambda d: 6.0 / math.sqrt(d))
    assert fit_scaling(base, "l1") == pytest.approx(fit_scaling(doubled, "l1"), abs=1e-9)


def test_fit_scaling_requires_enough_data():
    reports = synthetic_reports(lambda d: 1.0 / d)
    only_two = [r for r in reports if r.d != 10**5]
    with pytest.raises(ValueError, match="distinct d"):
        fit_scaling(only_two, "l2")
    thin = [r for r in reports if r.trial < 5]
    with pytest.raises(ValueError, match="trials"):
        fit_scaling(thin, "l2")


# --- seed derivation -----------------------------------------------------------------

def test_derive_seed_stable_and_distinct():
    assert derive_seed(0, 1, 2) == derive_seed(0, 1, 2)
    seen = {derive_seed(5, cell, trial) for cell in range(20) for trial in range(50)}
    assert len(seen) == 1000
    assert derive_seed(1, 0, 0) != derive_seed(2, 0, 0)
