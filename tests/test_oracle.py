"""Tests for the brute-force reference implementations themselves."""

import math

import numpy as np
import pytest

from dpprofile import circulant
from dpprofile.params import ReconstructionConfig
from dpprofile.reconstruct import Profile

from helpers import random_profile
from oracle import (
    bisection_tau,
    circular_apply,
    dense_operator,
    dense_solve,
    equality_constrained_ls,
    generator_vector,
    iterated_adjustment,
    monte_carlo_generator,
    sample_truncated_dlap,
)


def make_cfg(n, B, eps, d=1000):
    return ReconstructionConfig(epsilon=eps, eta=0.05, n=n, d=d, B=B)


# --- dense operator ----------------------------------------------------------

def test_dense_identity_at_zero_radius():
    cfg = make_cfg(6, 0, 50.0)
    dense = dense_operator(cfg)
    np.testing.assert_array_equal(dense.entries, np.eye(7))


def test_dense_first_row_is_generator():
    cfg = make_cfg(16, 3, 0.9)
    dense = dense_operator(cfg)
    gen = generator_vector(cfg.epsilon, cfg.n, cfg.B)
    np.testing.assert_array_equal(dense.entries[0], gen)


def test_dense_matches_ring_distance_formula():
    cfg = make_cfg(10, 2, 1.1)
    dense = dense_operator(cfg)
    m = cfg.m
    p_norm = circulant.kernel_normalizer(cfg.epsilon, cfg.B)
    for k in range(m):
        for l in range(m):
            dist = min((l - k) % m, (k - l) % m)
            want = math.exp(-cfg.epsilon * dist) / p_norm if dist <= cfg.B else 0.0
            assert dense.entries[k, l] == pytest.approx(want, rel=1e-15)


def test_dense_size_guard():
    cfg = ReconstructionConfig(
        epsilon=1.0, eta=0.05, n=5000, d=10**6, B=14
    )
    with pytest.raises(ValueError, match="refused"):
        dense_operator(cfg)


def test_dense_solve_basics():
    cfg = make_cfg(12, 3, 1.0)
    dense = dense_operator(cfg)
    ones = np.ones(cfg.m)
    np.testing.assert_allclose(dense_solve(dense, ones), ones, atol=1e-10)
    e0 = np.zeros(cfg.m)
    e0[0] = 1.0
    inv = np.linalg.inv(dense.entries)
    np.testing.assert_allclose(dense_solve(dense, e0), inv[:, 0], atol=1e-10)


def test_dense_solve_round_trips_dense_product():
    cfg = make_cfg(12, 3, 1.0)
    dense = dense_operator(cfg)
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = rng.normal(size=cfg.m)
        np.testing.assert_allclose(dense_solve(dense, dense.entries @ z), z, atol=1e-8)


@pytest.mark.parametrize("n, B, eps", [(6, 0, 50.0), (1, 2, 1.0), (12, 3, 1.0), (7, 6, 0.5), (40, 9, 0.3)])
def test_circular_apply_matches_dense(n, B, eps):
    cfg = ReconstructionConfig(epsilon=eps, eta=0.05, n=n, d=1000, B=B, allow_small_n=True)
    dense = dense_operator(cfg)
    x = np.random.default_rng(4).normal(size=cfg.m)
    np.testing.assert_allclose(circular_apply(cfg, x), dense.entries @ x, rtol=0, atol=1e-14)


# --- constrained least squares -------------------------------------------------

def test_ecls_recovers_exact_solution():
    cfg = make_cfg(16, 3, 1.0)
    dense = dense_operator(cfg)
    rng = np.random.default_rng(5)
    f = np.pad(random_profile(16, 400, rng), cfg.B)
    f_tilde = dense.entries @ f
    np.testing.assert_allclose(equality_constrained_ls(dense, f_tilde), f, atol=1e-9)


def test_ecls_beats_random_feasible_vectors():
    cfg = make_cfg(10, 2, 0.8)
    dense = dense_operator(cfg)
    rng = np.random.default_rng(7)
    f_tilde = np.abs(rng.normal(size=cfg.m))
    f_tilde /= f_tilde.sum()
    star = equality_constrained_ls(dense, f_tilde)
    best = np.linalg.norm(dense.entries @ star - f_tilde)
    for _ in range(100):
        v = rng.normal(size=cfg.m)
        core = v[cfg.B : cfg.B + cfg.n + 1]
        core += (1.0 - core.sum()) / (cfg.n + 1)
        assert best <= np.linalg.norm(dense.entries @ v - f_tilde) + 1e-9


def test_ecls_size_guard():
    cfg = ReconstructionConfig(epsilon=1.0, eta=0.05, n=1200, d=10**6, B=14)
    dense_entries = np.eye(cfg.m)
    from oracle import DenseOperator

    with pytest.raises(ValueError, match="refused"):
        equality_constrained_ls(
            DenseOperator(entries=dense_entries, n=cfg.n, B=cfg.B), np.ones(cfg.m)
        )


# --- truncated sampling ----------------------------------------------------------

def test_truncated_dlap_degenerate_support():
    rng = np.random.default_rng(1)
    assert np.all(sample_truncated_dlap(1.0, 0, rng, size=1000) == 0)


def test_truncated_dlap_frequencies_at_ln2():
    rng = np.random.default_rng(2)
    draws = sample_truncated_dlap(math.log(2), 1, rng, size=10**6)
    n = len(draws)
    # normalizer is 2, so pmf is (1/4, 1/2, 1/4) on (-1, 0, 1)
    for t, p in ((-1, 0.25), (0, 0.5), (1, 0.25)):
        freq = np.mean(draws == t)
        assert abs(freq - p) < 4 * math.sqrt(p * (1 - p) / n)
    assert draws.min() >= -1 and draws.max() <= 1


def test_truncated_dlap_symmetric_mean():
    rng = np.random.default_rng(6)
    draws = sample_truncated_dlap(0.5, 6, rng, size=10**6)
    var = float(np.var(draws))
    assert abs(draws.mean()) < 3 * math.sqrt(var / len(draws))


def test_truncated_dlap_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_truncated_dlap(0.0, 2, rng)
    with pytest.raises(ValueError):
        sample_truncated_dlap(1.0, -1, rng)


# --- Monte-Carlo smearing ----------------------------------------------------------

def test_monte_carlo_single_run_conserves_mass():
    cfg = make_cfg(8, 2, 1.0, d=200)
    rng = np.random.default_rng(9)
    prof = Profile(values=random_profile(8, 200, rng))
    out = monte_carlo_generator(prof, cfg, 200, 1, rng)
    assert float(out.sum()) == pytest.approx(1.0, abs=1e-12)
    scaled = out * 200
    np.testing.assert_allclose(scaled, np.rint(scaled), atol=1e-9)


def test_monte_carlo_noiseless_limit():
    cfg = ReconstructionConfig(epsilon=50.0, eta=0.05, n=8, d=100, B=0)
    rng = np.random.default_rng(10)
    prof = Profile(values=random_profile(8, 100, rng))
    out = monte_carlo_generator(prof, cfg, 100, 3, rng)
    np.testing.assert_allclose(out, prof.values, atol=1e-12)


def test_monte_carlo_converges_to_operator_image():
    cfg = make_cfg(12, 4, 1.0, d=2000)
    rng = np.random.default_rng(11)
    prof = Profile(values=random_profile(12, 2000, rng))
    trials = 500
    mean = monte_carlo_generator(prof, cfg, 2000, trials, rng)
    target = dense_operator(cfg).entries @ np.pad(prof.values, cfg.B)
    tol = 5.0 * math.sqrt(math.log(2 * cfg.m) / (2 * trials * 2000))
    assert float(np.max(np.abs(mean - target))) <= tol


def test_monte_carlo_rejects_mismatched_profile():
    cfg = make_cfg(8, 2, 1.0, d=100)
    rng = np.random.default_rng(0)
    prof = Profile(values=np.array([0.5, 0.5]))  # n = 1, config expects n = 8
    with pytest.raises(ValueError):
        monte_carlo_generator(prof, cfg, 100, 1, rng)


# --- threshold search oracles --------------------------------------------------------

def test_bisection_edges():
    r = np.array([0.2, 0.7, 0.1])
    assert bisection_tau(r, 0.0) == 0.0
    assert bisection_tau(r, float(r.sum())) == pytest.approx(0.7, abs=1e-9)
    with pytest.raises(ValueError):
        bisection_tau(r, 2.0)


def test_iterated_adjustment_properties():
    rng = np.random.default_rng(12)
    r = rng.uniform(0, 1, size=20)
    np.testing.assert_array_equal(iterated_adjustment(r, 0.0), r)
    s = 0.4 * float(r.sum())
    out = iterated_adjustment(r, s)
    assert np.all(out <= r + 1e-12)
    assert float(out.sum()) == pytest.approx(float(r.sum()) - s, abs=1e-9)
