"""Tests for the banded-taps deconvolution operator against dense oracles."""

import math

import numpy as np
import pytest

from dpprofile import circulant
from dpprofile.circulant import (
    build_operator,
    generator_vector,
    kernel_normalizer,
    norm_bounds,
    spectrum_floor,
)
from dpprofile.mechanism import ReconstructionConfig
from dpprofile.reconstruct import cached_operator
from dpprofile.twoparty import protocol_config

from oracle import dense_operator, dense_solve

CONFIGS = [(32, 4, 1.0), (64, 6, 0.5), (128, 8, 2.0)]


def make_cfg(n, B, eps):
    return ReconstructionConfig(epsilon=eps, eta=0.05, n=n, d=1000, B=B)


@pytest.fixture(params=CONFIGS, ids=lambda c: f"n{c[0]}B{c[1]}e{c[2]}")
def cfg(request):
    n, B, eps = request.param
    return make_cfg(n, B, eps)


# The build trusts the analytic floor instead of forming the spectrum, so the
# spectrum tests also run at the derived noise bound over a wider range.
SPECTRUM_CFGS = [
    *(pytest.param(make_cfg(n, B, eps), id=f"n{n}B{B}e{eps}") for n, B, eps in CONFIGS),
    *(
        pytest.param(
            ReconstructionConfig(epsilon=eps, eta=0.05, n=n, d=d, allow_small_n=True),
            id=f"derived-n{n}d{d}e{eps}",
        )
        for eps in (0.01, 0.1, 0.5, 1.0, 2.0, 5.0)
        for d in (10**3, 10**6)
        for n in (32, 1000)
    ),
]


# --- generator and spectrum -------------------------------------------------

def test_generator_structure(cfg):
    gen = generator_vector(cfg.epsilon, cfg.n, cfg.B)
    m, B = cfg.m, cfg.B
    p_norm = kernel_normalizer(cfg.epsilon, B)
    assert len(gen) == m
    assert np.count_nonzero(gen) == 2 * B + 1
    np.testing.assert_allclose(
        gen[: B + 1] * p_norm, np.exp(-cfg.epsilon * np.arange(B + 1)), rtol=1e-15
    )
    np.testing.assert_allclose(
        gen[m - B :] * p_norm, np.exp(-cfg.epsilon * np.arange(B, 0, -1)), rtol=1e-15
    )
    assert np.all(gen[B + 1 : m - B] == 0)
    assert gen.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("cfg", SPECTRUM_CFGS)
def test_eigenvalues_match_dft_of_generator(cfg):
    op = build_operator(cfg)
    dft = np.fft.fft(op.generator)
    rel = np.max(np.abs(op.eigenvalues - dft) / np.abs(dft))
    assert rel <= 1e-10


def test_zero_frequency_eigenvalue_is_one(cfg):
    op = build_operator(cfg)
    assert abs(op.eigenvalues[0] - 1.0) < 1e-12


@pytest.mark.parametrize("cfg", SPECTRUM_CFGS)
def test_spectrum_respects_analytic_floor(cfg):
    op = build_operator(cfg)
    floor = spectrum_floor(cfg.epsilon, cfg.B)
    assert floor > 0
    assert np.min(np.abs(op.eigenvalues)) >= floor - 1e-12


def test_degenerate_radius_gives_identity():
    cfg0 = ReconstructionConfig(epsilon=50.0, eta=0.05, n=8, d=100)
    assert cfg0.B == 0
    op = build_operator(cfg0)
    np.testing.assert_allclose(op.eigenvalues, np.ones(op.m), atol=1e-12)
    np.testing.assert_array_equal(op.generator, np.eye(op.m)[0])
    x = np.arange(op.m, dtype=float)
    np.testing.assert_allclose(circulant.apply(op, x), x, atol=1e-12)


def test_wide_operator_holds_nothing_of_window_length():
    cfg = ReconstructionConfig(epsilon=1.0, eta=0.05, n=10**6, d=10**6)
    op = cached_operator(cfg)
    assert len(op.generator) == len(op.eigenvalues) == op.m  # computed, not kept
    for name, value in vars(op).items():
        while isinstance(value, np.ndarray):  # the array and any view's base
            assert value.size < op.m, name
            value = value.base


def test_wide_build_forms_no_window_spectrum(monkeypatch):
    cfg = ReconstructionConfig(epsilon=1.0, eta=0.05, n=10**6, d=10**6)
    rings = []
    half_spectrum = circulant._half_spectrum

    def spy(epsilon, B, ring):
        rings.append(ring)
        return half_spectrum(epsilon, B, ring)

    monkeypatch.setattr(circulant, "_half_spectrum", spy)
    op = build_operator(cfg)
    assert rings and op.m not in rings
    assert max(rings) <= 1024  # a small ring, whatever m is


def test_ill_conditioned_configuration_rejected(monkeypatch):
    # No parameter setting in the valid range drives an eigenvalue below the
    # absolute floor, so exercise the guard by raising the floor above 1.
    monkeypatch.setattr(circulant, "MIN_EIGENVALUE", 2.0)
    with pytest.raises(ValueError, match="ill-conditioned"):
        build_operator(make_cfg(16, 3, 1.0))


@pytest.mark.parametrize("n", [2 * 10**7, 2 * 10**7 + 1])  # odd and even m
def test_ill_conditioned_wide_window_fails_before_length_m_work(monkeypatch, n):
    cfg = ReconstructionConfig(epsilon=1e-6, eta=0.05, n=n, d=3)
    assert cfg.m > 5 * 10**7
    assert spectrum_floor(cfg.epsilon, cfg.B) < circulant.MIN_EIGENVALUE

    def window_spectrum(epsilon, B, ring):
        raise AssertionError(f"formed the spectrum of a ring of {ring}")

    def forward_taps(epsilon, B):
        raise AssertionError(f"formed the {2 * B + 1} forward taps")

    monkeypatch.setattr(circulant, "_half_spectrum", window_spectrum)
    monkeypatch.setattr(circulant, "_kernel_taps", forward_taps)
    with pytest.raises(ValueError, match="ill-conditioned"):
        build_operator(cfg)


# Windows of a small n and a derived B whose least eigenvalue lies off the
# mode nearest theta = pi, with the message each build gave when it formed
# the window's whole spectrum first.
OFF_PI_WINDOWS = [
    (2.1e-6, 5, "5.513e-13"),
    (2.5e-6, 5, "7.813e-13"),
    (2e-6, 6, "5.495e-13"),
    (2.3e-6, 6, "7.268e-13"),
]


@pytest.mark.parametrize("epsilon, n, eig", OFF_PI_WINDOWS)
def test_ill_conditioned_window_off_pi_fails_before_length_m_work(
    monkeypatch, epsilon, n, eig
):
    cfg = ReconstructionConfig(epsilon=epsilon, eta=0.05, n=n, d=1, allow_small_n=True)
    assert cfg.m > 10**7
    near_pi = circulant._eigenvalues(epsilon, cfg.B, cfg.m, np.array([cfg.m // 2]))
    assert abs(near_pi[0]) >= circulant.MIN_EIGENVALUE  # the first check passes

    def window_spectrum(epsilon, B, ring):
        raise AssertionError(f"formed the spectrum of a ring of {ring}")

    monkeypatch.setattr(circulant, "_half_spectrum", window_spectrum)
    message = (
        f"operator is ill-conditioned: |eigenvalue| = {eig} < 1e-12 "
        f"for (n={n}, B={cfg.B}, epsilon={epsilon})"
    )
    with pytest.raises(ValueError) as err:
        build_operator(cfg)
    assert str(err.value) == message


def narrow_windows():
    """(epsilon, B, m) with B at least the conditioning radius and 64 n^2 <= m."""
    rng = np.random.default_rng(12)
    for _ in range(80):
        epsilon = float(np.exp(rng.uniform(math.log(2e-4), math.log(3.0))))
        B = math.ceil(math.log(4 / math.sinh(epsilon)) / epsilon) + int(rng.integers(0, 50))
        n = int(rng.integers(1, math.isqrt((2 * B + 1) // 64) + 2))
        if 64 * n * n <= n + 2 * B + 1:
            yield epsilon, B, n + 2 * B + 1


def test_least_mode_search_finds_the_spectrum_minimum():
    windows = list(narrow_windows())
    assert len(windows) >= 30
    for epsilon, B, m in windows:
        assert spectrum_floor(epsilon, B) > 0
        whole = np.min(np.abs(circulant._half_spectrum(epsilon, B, m)))
        assert circulant._least_mode_near_pi(epsilon, B, m) == whole, (epsilon, B, m)


# --- apply / inverse / left products ----------------------------------------

def test_apply_preserves_ones(cfg):
    op = build_operator(cfg)
    inv = np.linalg.inv(dense_operator(cfg).entries)
    ones = np.ones(op.m)
    np.testing.assert_allclose(circulant.apply(op, ones), ones, atol=1e-9)
    np.testing.assert_allclose(circulant.apply_inverse(op, ones), ones, atol=1e-9)
    np.testing.assert_allclose(circulant.apply_inverse(op, ones), ones @ inv, atol=1e-9)


def test_apply_matches_dense(cfg):
    op = build_operator(cfg)
    dense = dense_operator(cfg)
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = rng.normal(size=op.m)
        np.testing.assert_allclose(
            circulant.apply(op, x), dense.entries @ x, atol=1e-9
        )


def test_apply_basis_vector_extracts_column(cfg):
    op = build_operator(cfg)
    dense = dense_operator(cfg)
    e0 = np.zeros(op.m)
    e0[0] = 1.0
    np.testing.assert_allclose(circulant.apply(op, e0), dense.entries[:, 0], atol=1e-12)


def test_apply_inverse_round_trip_and_dense(cfg):
    op = build_operator(cfg)
    dense = dense_operator(cfg)
    rng = np.random.default_rng(23)
    for _ in range(10):
        x = rng.normal(size=op.m)
        np.testing.assert_allclose(
            circulant.apply_inverse(op, circulant.apply(op, x)), x, atol=1e-9
        )
        np.testing.assert_allclose(
            circulant.apply_inverse(op, x), dense_solve(dense, x), atol=1e-8
        )


def test_left_apply_inverse_matches_dense(cfg):
    # A^{-1} is symmetric, so apply_inverse is also the left product v^T A^{-1}
    op = build_operator(cfg)
    dense = dense_operator(cfg)
    inv = np.linalg.inv(dense.entries)
    rng = np.random.default_rng(29)
    for _ in range(10):
        v = rng.normal(size=op.m)
        np.testing.assert_allclose(circulant.apply_inverse(op, v), v @ inv, atol=1e-8)


def test_left_apply_inverse_adjoint_identity(cfg):
    op = build_operator(cfg)
    inv = np.linalg.inv(dense_operator(cfg).entries)
    rng = np.random.default_rng(31)
    for _ in range(10):
        v, x = rng.normal(size=op.m), rng.normal(size=op.m)
        lhs = float(circulant.apply_inverse(op, v) @ x)
        rhs = float(v @ inv @ x)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_dimension_mismatch_rejected(cfg):
    op = build_operator(cfg)
    with pytest.raises(ValueError):
        circulant.apply(op, np.ones(op.m + 1))
    with pytest.raises(ValueError):
        circulant.apply_inverse(op, np.ones(op.m - 1))


# --- norms ------------------------------------------------------------------

def test_norm_bounds_dominate_dense_norms(cfg):
    op = build_operator(cfg)
    dense = dense_operator(cfg)
    inv = np.linalg.inv(dense.entries)
    bounds = norm_bounds(op)
    norm_inf = np.abs(inv).sum(axis=1).max()
    norm_1 = np.abs(inv).sum(axis=0).max()
    norm_2 = np.linalg.norm(inv, 2)
    assert norm_inf <= bounds.bound_1_inf
    assert norm_1 <= bounds.bound_1_inf
    assert norm_2 <= bounds.bound_2
    # spectral norm equals the reciprocal of the smallest eigenvalue magnitude
    assert norm_2 == pytest.approx(1.0 / np.min(np.abs(op.eigenvalues)), rel=1e-9)
    # row-sum and column-sum norms coincide for circulant inverses
    assert norm_1 == pytest.approx(norm_inf, rel=1e-9)


def test_norm_bounds_identity_limit():
    cfg = ReconstructionConfig(epsilon=50.0, eta=0.05, n=8, d=100, B=2)
    op = build_operator(cfg)
    bounds = norm_bounds(op)
    dense = dense_operator(cfg)
    inv = np.linalg.inv(dense.entries)
    assert bounds.bound_1_inf >= 1.0 and bounds.bound_2 >= 1.0
    assert np.abs(inv).sum(axis=1).max() == pytest.approx(1.0, rel=1e-9)
    assert np.linalg.norm(inv, 2) == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("eps", [0.01, 0.5, 1.0, 2.0, 30.0])
def test_row_sum_bound_equals_the_e_eps_form(eps):
    # the bound is evaluated in q = e^-eps; it equals the textbook form
    # (2 + q + e^eps) / (e^eps - q - 4 q^B) P wherever that does not overflow
    op = cached_operator(ReconstructionConfig(epsilon=eps, eta=0.05, n=8, d=1000,
                                              allow_small_n=True))
    q, e = math.exp(-eps), math.exp(eps)
    textbook = (2 + q + e) / (e - q - 4 * q**op.B) * op.p_norm_const
    assert norm_bounds(op).bound_1_inf == pytest.approx(textbook, rel=1e-14)


@pytest.mark.parametrize("eps", [800.0, 1e308])
def test_norm_bounds_finite_at_huge_epsilon(eps):
    # e^eps overflows past eps ~ 709.8; A is then the identity, and so is
    # its inverse
    op = cached_operator(ReconstructionConfig(epsilon=eps, eta=0.05, n=8, d=1000))
    assert op.B == 0
    assert norm_bounds(op) == (1.0, 1.0)


def test_norm_bounds_signal_bad_denominator():
    # B = 0 at small epsilon makes 1 - e^-2eps - 4 e^-eps negative
    cfg = ReconstructionConfig(epsilon=1.0, eta=0.05, n=8, d=100, B=0)
    op = build_operator(cfg)
    with pytest.raises(ValueError, match="bound undefined"):
        norm_bounds(op)


# --- structural properties ---------------------------------------------------

def test_dense_realization_is_circulant():
    cfg = make_cfg(20, 4, 0.8)  # m = 29 <= 128
    dense = dense_operator(cfg)
    m = dense.m
    for k in range(m - 1):
        np.testing.assert_array_equal(
            dense.entries[k + 1], np.roll(dense.entries[k], 1)
        )


# (label, config, whether the inverse taps span the whole window)
TAP_CASES = [
    ("small-ring", make_cfg(600, 10, 0.5), False),
    ("full-ring-odd", make_cfg(16, 10, 1.0), True),
    ("full-ring-even", make_cfg(7, 6, 0.5), True),
    ("protocol-n4", protocol_config(0.5, 1000), True),
]


@pytest.mark.parametrize("label, tap_cfg, full_ring", TAP_CASES, ids=[c[0] for c in TAP_CASES])
def test_inverse_taps_match_dense(label, tap_cfg, full_ring):
    op = build_operator(tap_cfg)
    assert (op.m % 2 == 0) == (label == "full-ring-even")
    assert (len(op._inv_taps) >= op.m) == full_ring
    inv = np.linalg.inv(dense_operator(tap_cfg).entries)
    np.testing.assert_allclose(inv, inv.T, atol=1e-12)
    rng = np.random.default_rng(37)
    for _ in range(10):
        x = rng.normal(size=op.m)
        np.testing.assert_allclose(circulant.apply_inverse(op, x), inv @ x, atol=1e-8)
        np.testing.assert_allclose(circulant.apply_inverse(op, x), x @ inv, atol=1e-8)
        np.testing.assert_allclose(
            circulant.apply_inverse(op, circulant.apply(op, x)), x, atol=1e-9
        )


# --- a product whose cost does not grow with 1/eps ---------------------------

def test_inverse_taps_are_sparse_at_small_epsilon():
    # at eps = 0.001 the taps span the clusters at 0, +-B, +-2B, ... (half
    # width about 25 B), but only the clusters' few entries are above roundoff
    op = cached_operator(ReconstructionConfig(epsilon=0.001, eta=0.05, n=10**6, d=4))
    assert op.B == 8295 and len(op._inv_taps) > 40 * op.B
    assert np.count_nonzero(op._inv_taps) <= len(op._inv_taps) // 100


@pytest.mark.parametrize("eps", [0.01, 0.1, 0.5, 1.0, 2.0])
def test_inverse_tap_count_does_not_grow_with_inverse_epsilon(eps):
    op = cached_operator(ReconstructionConfig(epsilon=eps, eta=0.05, n=10**6, d=10**6))
    assert np.count_nonzero(op._inv_taps) <= 23


def test_inverse_taps_are_exactly_symmetric():
    for tap_cfg in (make_cfg(600, 10, 0.5), make_cfg(7, 6, 0.5), make_cfg(16, 10, 1.0)):
        taps = build_operator(tap_cfg)._inv_taps
        assert np.array_equal(taps, taps[::-1])


class _CountingNumpy:
    """numpy, with a count of np.add calls: the product's shifted pair sums."""

    def __init__(self):
        self.pair_sums = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def add(self, *args, **kwargs):
        self.pair_sums += 1
        return np.add(*args, **kwargs)


@pytest.mark.parametrize(
    "eps, n, d", [(0.001, 10**6, 4), (0.5, 10**6, 10**6), (1.0, 32, 10**3)]
)
def test_product_forms_one_shifted_pair_per_nonzero_offset(monkeypatch, eps, n, d):
    op = cached_operator(ReconstructionConfig(epsilon=eps, eta=0.05, n=n, d=d))
    counting = _CountingNumpy()
    monkeypatch.setattr(circulant, "np", counting)
    x = np.random.default_rng(41).normal(size=op.m)
    blocks = -(-op.m // circulant._BLOCK)
    products = [(op._inv_taps, circulant.apply_inverse)]
    if op.B < 100:  # the forward taps are dense: 2B+1 nonzeros
        products.append((op._fwd_taps, circulant.apply))
    for taps, product in products:
        counting.pair_sums = 0
        product(op, x)
        nonzero_offsets = (np.count_nonzero(taps) - 1) // 2  # taps[w] is nonzero
        assert counting.pair_sums == blocks * nonzero_offsets


@pytest.mark.parametrize("block", [1, 7, 16, 64, circulant._BLOCK])
def test_blocked_product_matches_dense_for_any_block_size(monkeypatch, block):
    # blocks narrower than the half-width w mix operands that wrap with
    # ones read in place; each product must still be the dense one
    monkeypatch.setattr(circulant, "_BLOCK", block)
    for tap_cfg in (make_cfg(600, 10, 0.5), make_cfg(7, 6, 0.5), make_cfg(64, 6, 0.5)):
        op = build_operator(tap_cfg)
        dense = dense_operator(tap_cfg)
        inv = np.linalg.inv(dense.entries)
        x = np.random.default_rng(43).normal(size=op.m)
        np.testing.assert_allclose(circulant.apply_inverse(op, x), inv @ x, atol=1e-8)
        np.testing.assert_allclose(circulant.apply(op, x), dense.entries @ x, atol=1e-9)
