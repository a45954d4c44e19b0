"""Tests for the FFT-backed deconvolution operator against dense oracles."""

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
from dpprofile.oracle import dense_operator, dense_solve

CONFIGS = [(32, 4, 1.0), (64, 6, 0.5), (128, 8, 2.0)]


def make_cfg(n, B, eps):
    return ReconstructionConfig(epsilon=eps, eta=0.05, n=n, d=1000, B=B)


@pytest.fixture(params=CONFIGS, ids=lambda c: f"n{c[0]}B{c[1]}e{c[2]}")
def cfg(request):
    n, B, eps = request.param
    return make_cfg(n, B, eps)


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


def test_eigenvalues_match_dft_of_generator(cfg):
    op = build_operator(cfg)
    dft = np.fft.fft(op.generator)
    rel = np.max(np.abs(op.eigenvalues - dft) / np.abs(dft))
    assert rel <= 1e-10


def test_zero_frequency_eigenvalue_is_one(cfg):
    op = build_operator(cfg)
    assert abs(op.eigenvalues[0] - 1.0) < 1e-12


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


def test_ill_conditioned_configuration_rejected(monkeypatch):
    # No parameter setting in the valid range drives an eigenvalue below the
    # absolute floor, so exercise the guard by raising the floor above 1.
    monkeypatch.setattr(circulant, "MIN_EIGENVALUE", 2.0)
    with pytest.raises(ValueError, match="ill-conditioned"):
        build_operator(make_cfg(16, 3, 1.0))


# --- apply / inverse / left products ----------------------------------------

def test_apply_preserves_ones(cfg):
    op = build_operator(cfg)
    ones = np.ones(op.m)
    np.testing.assert_allclose(circulant.apply(op, ones), ones, atol=1e-9)
    np.testing.assert_allclose(circulant.apply_inverse(op, ones), ones, atol=1e-9)
    np.testing.assert_allclose(circulant.left_apply_inverse(op, ones), ones, atol=1e-9)


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
    op = build_operator(cfg)
    dense = dense_operator(cfg)
    inv = np.linalg.inv(dense.entries)
    rng = np.random.default_rng(29)
    for _ in range(10):
        v = rng.normal(size=op.m)
        np.testing.assert_allclose(circulant.left_apply_inverse(op, v), v @ inv, atol=1e-8)


def test_left_apply_inverse_adjoint_identity(cfg):
    op = build_operator(cfg)
    rng = np.random.default_rng(31)
    for _ in range(10):
        v, x = rng.normal(size=op.m), rng.normal(size=op.m)
        lhs = float(circulant.left_apply_inverse(op, v) @ x)
        rhs = float(v @ circulant.apply_inverse(op, x))
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


def test_norm_bounds_signal_bad_denominator():
    # B = 0 at small epsilon makes e^eps - e^-eps - 4 negative
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


def test_imaginary_residue_guard(monkeypatch):
    # a non-Hermitian spectrum cannot belong to a real operator; realizing
    # its kernel must trip the residue assertion during construction
    cfg = make_cfg(16, 3, 1.0)
    honest = circulant._eigenvalues_closed_form

    def corrupted(epsilon, n, B):
        eig = honest(epsilon, n, B)
        return eig + np.linspace(0, 1, len(eig)) * 5j

    monkeypatch.setattr(circulant, "_eigenvalues_closed_form", corrupted)
    with pytest.raises(AssertionError, match="imaginary residue"):
        build_operator(cfg)


def test_next_smooth_matches_scipy_next_fast_len():
    from scipy.fft import next_fast_len

    targets = [*range(1, 5001), *range(2 * 10**6 - 50, 2 * 10**6 + 50)]
    for t in targets:
        assert circulant._next_smooth(t) == next_fast_len(t, real=True), t
