"""Tests for the banded-taps deconvolution operator against dense oracles."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from dpprofile import circulant
from dpprofile.circulant import (
    build_operator,
    kernel_normalizer,
    norm_bounds,
    spectrum_floor,
)
from dpprofile.params import (
    ReconstructionConfig,
    max_spectrum_floor,
    min_truncation_radius,
    truncation_radius,
)
from dpprofile.reconstruct import cached_operator
from dpprofile.twoparty import protocol_config

from oracle import (
    dense_operator,
    dense_solve,
    eigenvalues,
    exact_inverse_column,
    factored_column,
    fft_inverse_taps,
    generator_vector,
)

CONFIGS = [(32, 4, 1.0), (64, 6, 0.5), (128, 8, 2.0)]


def make_cfg(n, B, eps):
    return ReconstructionConfig(epsilon=eps, eta=0.05, n=n, d=1000, B=B)


@pytest.fixture(params=CONFIGS, ids=lambda c: f"n{c[0]}B{c[1]}e{c[2]}")
def cfg(request):
    n, B, eps = request.param
    return make_cfg(n, B, eps)


# The build trusts the analytic floor instead of forming the spectrum, so the
# spectrum tests also run at the derived noise bound over a wider range, and
# at the least B the build takes, the conditioning radius, with odd and even m.
SPECTRUM_CFGS = [
    *(pytest.param(make_cfg(n, B, eps), id=f"n{n}B{B}e{eps}") for n, B, eps in CONFIGS),
    *(
        pytest.param(
            ReconstructionConfig(epsilon=eps, eta=0.05, n=n, d=1000,
                                 B=min_truncation_radius(eps), allow_small_n=True),
            id=f"radius-n{n}e{eps:.4g}",
        )
        for eps in (0.01, 0.1, 0.5, 1.0, 2.0, math.asinh(4), 5.0)
        for n in (40, 41)
    ),
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
    m, B = cfg.m, cfg.B
    p_norm = kernel_normalizer(cfg.epsilon, B)
    taps = circulant._kernel_taps(cfg.epsilon, B)  # A's taps at offsets -B..B
    assert len(taps) == 2 * B + 1
    assert np.count_nonzero(taps) == 2 * B + 1
    np.testing.assert_allclose(
        taps * p_norm, np.exp(-cfg.epsilon * np.abs(np.arange(-B, B + 1))), rtol=1e-15
    )
    assert taps.sum() == pytest.approx(1.0, abs=1e-12)
    # laid on the ring, the taps are the closed-form first row of the operator
    first_row = np.roll(np.pad(taps, (0, m - len(taps))), -B)
    np.testing.assert_allclose(
        first_row, generator_vector(cfg.epsilon, cfg.n, B), rtol=1e-15, atol=0
    )


@pytest.mark.parametrize("cfg", SPECTRUM_CFGS)
def test_eigenvalues_match_dft_of_generator(cfg):
    op = build_operator(cfg)
    dft = np.fft.fft(generator_vector(cfg.epsilon, cfg.n, cfg.B))
    rel = np.max(np.abs(eigenvalues(op) - dft) / np.abs(dft))
    assert rel <= 1e-10


def test_zero_frequency_eigenvalue_is_one(cfg):
    op = build_operator(cfg)
    assert abs(eigenvalues(op)[0] - 1.0) < 1e-12


@pytest.mark.parametrize("cfg", SPECTRUM_CFGS)
def test_spectrum_respects_analytic_floor(cfg):
    op = build_operator(cfg)
    floor = spectrum_floor(cfg.epsilon, cfg.B)
    assert floor > 0
    assert np.min(np.abs(eigenvalues(op))) >= floor - 1e-12


def test_degenerate_radius_gives_identity():
    cfg0 = ReconstructionConfig(epsilon=50.0, eta=0.05, n=8, d=100)
    assert cfg0.B == 0
    op = build_operator(cfg0)
    np.testing.assert_allclose(eigenvalues(op), np.ones(op.m), atol=1e-12)
    np.testing.assert_array_equal(circulant._kernel_taps(cfg0.epsilon, cfg0.B), [1.0])
    x = np.arange(op.m, dtype=float)
    np.testing.assert_allclose(circulant.apply_inverse(op, x), x, atol=1e-12)


def test_wide_operator_holds_nothing_of_window_length():
    cfg = ReconstructionConfig(epsilon=1.0, eta=0.05, n=10**6, d=10**6)
    op = cached_operator(cfg)
    assert len(eigenvalues(op)) == op.m  # the oracle computes it; the operator keeps none
    for name in op.__slots__:
        value = getattr(op, name)
        while isinstance(value, np.ndarray):  # the array and any view's base
            assert value.size < op.m, name
            value = value.base


class _NoTransforms:
    """numpy without its FFT module."""

    def __getattr__(self, name):
        if name == "fft":
            raise AssertionError("the build took a transform")
        return getattr(np, name)


@pytest.mark.parametrize("eps", [0.5, 1.0])
def test_wide_build_forms_no_array_of_the_window_length(monkeypatch, eps):
    # N's series is summed on the window's ring in sparse form, so the
    # build's peak allocation is far below one float64 vector of length m
    cfg = ReconstructionConfig(epsilon=eps, eta=0.05, n=10**6, d=10**6)
    monkeypatch.setattr(circulant, "np", _NoTransforms())
    tracemalloc.start()
    try:
        op = build_operator(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < op.m  # bytes: an eighth of one vector of the window


def test_ill_conditioned_configuration_rejected(monkeypatch):
    # No parameter setting in the valid range drives an eigenvalue below the
    # absolute floor, so exercise the guard by raising the floor above 1.
    monkeypatch.setattr(circulant, "MIN_EIGENVALUE", 2.0)
    with pytest.raises(ValueError, match="ill-conditioned"):
        build_operator(make_cfg(16, 3, 1.0))


def neumann_series(epsilon, B, m, scale):
    raise AssertionError(f"summed N's series on a ring of {m}")


def forward_taps(epsilon, B):
    raise AssertionError(f"formed the {2 * B + 1} forward taps")


# (epsilon, B, the conditioning radius ceil(log(4 / sinh eps) / eps))
BELOW_RADIUS = [(0.1, 36, 37), (0.5, 4, 5), (1.0, 1, 2), (1.0, 0, 2)]


@pytest.mark.parametrize("epsilon, B, radius", BELOW_RADIUS)
def test_build_refuses_B_below_the_conditioning_radius_before_any_work(
    monkeypatch, epsilon, B, radius
):
    # the config takes such a B, since binning needs no operator; the build
    # refuses it
    cfg = ReconstructionConfig(epsilon=epsilon, eta=0.05, n=64, d=1000, B=B)
    assert min_truncation_radius(epsilon) == radius
    monkeypatch.setattr(circulant, "_neumann_pairs", neumann_series)
    monkeypatch.setattr(circulant, "_kernel_taps", forward_taps)
    with pytest.raises(ValueError) as err:
        build_operator(cfg)
    assert str(err.value) == (
        f"noise bound B={B} is below the conditioning radius {radius} for "
        f"epsilon={epsilon}, where the operator is not proven invertible"
    )


@pytest.mark.parametrize(
    "epsilon, B", [(0.1, 37), (0.5, 5), (1.0, 2), (math.asinh(4), 0), (5.0, 0)]
)
def test_build_at_the_conditioning_radius_matches_dense(epsilon, B):
    # B = 0 is the radius from epsilon = asinh(4) on, where sinh(eps) >= 4
    assert min_truncation_radius(epsilon) == B
    cfg = ReconstructionConfig(epsilon=epsilon, eta=0.05, n=64, d=1000, B=B)
    op = build_operator(cfg)
    dense = dense_operator(cfg)
    x = np.random.default_rng(47).normal(size=op.m)
    np.testing.assert_allclose(circulant.apply_inverse(op, x), dense_solve(dense, x), atol=1e-8)


@pytest.mark.parametrize("n", [2 * 10**7, 2 * 10**7 + 1])  # odd and even m
def test_ill_conditioned_wide_window_fails_before_length_m_work(monkeypatch, n):
    cfg = ReconstructionConfig(epsilon=1e-6, eta=0.05, n=n, d=3)
    assert cfg.m > 5 * 10**7
    assert spectrum_floor(cfg.epsilon, cfg.B) < circulant.MIN_EIGENVALUE

    monkeypatch.setattr(circulant, "_neumann_pairs", neumann_series)
    monkeypatch.setattr(circulant, "_kernel_taps", forward_taps)
    with pytest.raises(ValueError, match="ill-conditioned"):
        build_operator(cfg)


# Windows of a small n and a derived B whose least eigenvalue lies off the
# mode nearest theta = pi, with the spectrum floor each refusal quotes.
OFF_PI_WINDOWS = [
    (2.1e-6, 5, "5.513e-13"),
    (2.5e-6, 5, "7.813e-13"),
    (2e-6, 6, "5.000e-13"),
    (2.3e-6, 6, "6.613e-13"),
]


@pytest.mark.parametrize("epsilon, n, floor", OFF_PI_WINDOWS)
def test_ill_conditioned_window_off_pi_fails_before_length_m_work(
    monkeypatch, epsilon, n, floor
):
    cfg = ReconstructionConfig(epsilon=epsilon, eta=0.05, n=n, d=1, allow_small_n=True)
    assert cfg.m > 10**7
    monkeypatch.setattr(circulant, "_neumann_pairs", neumann_series)
    message = (
        f"operator is ill-conditioned: spectrum floor = {floor} < 1e-12 "
        f"for (n={n}, B={cfg.B}, epsilon={epsilon})"
    )
    with pytest.raises(ValueError) as err:
        build_operator(cfg)
    assert str(err.value) == message


def test_floor_refuses_wide_windows_whose_exact_minimum_passes(monkeypatch):
    # The floor is a strict lower bound: on these windows the least
    # |eigenvalue| of the whole spectrum is 1.163e-12 and 1.136e-12, above
    # MIN_EIGENVALUE, but the floor is not, and the floor alone decides.
    B = truncation_radius(2.5e-6, 0.05, 1)
    windows = [
        ReconstructionConfig(epsilon=2.5e-6, eta=0.05, n=B + 1, d=1),
        ReconstructionConfig(epsilon=2.4e-6, eta=0.05, n=2, d=1, allow_small_n=True),
    ]
    monkeypatch.setattr(circulant, "_neumann_pairs", neumann_series)
    for cfg, floor in zip(windows, ("7.813e-13", "7.200e-13")):
        assert cfg.m > 10**7
        with pytest.raises(ValueError, match=f"spectrum floor = {floor} < 1e-12"):
            build_operator(cfg)


def test_floor_below_threshold_only_on_windows_past_1e7():
    # A derived B keeps the floor at least tanh^2(eps/2) / 2, so it falls
    # below MIN_EIGENVALUE only at eps < 2.83e-6, where the window is longer
    # than 1e7: only so wide a window is ever refused on the floor.
    refused = 0
    for epsilon in np.linspace(2e-6, 3.3e-6, 27):
        for d in (1, 10**6):
            B = truncation_radius(float(epsilon), 0.05, d)
            for n in (B, 2 * B):
                if spectrum_floor(epsilon, B) < circulant.MIN_EIGENVALUE:
                    refused += 1
                    assert epsilon < 2.83e-6, (epsilon, d, n)
                    assert n + 2 * B + 1 > 10**7, (epsilon, d, n)
    assert 0 < refused < 27 * 4


@pytest.mark.parametrize("epsilon", [1e-6, 2e-6, 1e-3, 0.5, 5.0])
def test_spectrum_floor_rises_with_B_to_its_supremum(epsilon):
    # `sketch` refuses an epsilon whose supremum is below MIN_EIGENVALUE
    sup = max_spectrum_floor(epsilon)
    floors = [spectrum_floor(epsilon, B) for B in (0, 10, 10**3, 10**6, 10**9)]
    assert floors == sorted(floors) and floors[-1] <= sup
    assert spectrum_floor(epsilon, 10**12) == pytest.approx(sup, rel=1e-9)


@pytest.mark.parametrize("cfg", SPECTRUM_CFGS)
def test_spectral_bound_is_the_inverse_floor(cfg):
    floor = spectrum_floor(cfg.epsilon, cfg.B)
    assert norm_bounds(build_operator(cfg)).bound_2 * floor == pytest.approx(1.0)


# --- inverse / left products -----------------------------------------------

def test_apply_inverse_preserves_ones(cfg):
    op = build_operator(cfg)
    inv = np.linalg.inv(dense_operator(cfg).entries)
    ones = np.ones(op.m)
    np.testing.assert_allclose(circulant.apply_inverse(op, ones), ones, atol=1e-9)
    np.testing.assert_allclose(circulant.apply_inverse(op, ones), ones @ inv, atol=1e-9)


def test_apply_inverse_round_trip_and_dense(cfg):
    op = build_operator(cfg)
    dense = dense_operator(cfg)
    rng = np.random.default_rng(23)
    for _ in range(10):
        x = rng.normal(size=op.m)
        np.testing.assert_allclose(
            circulant.apply_inverse(op, dense.entries @ x), x, atol=1e-9
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
    for size in (op.m - 1, op.m + 1):
        with pytest.raises(ValueError):
            circulant.apply_inverse(op, np.ones(size))


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
    assert norm_2 == pytest.approx(1.0 / np.min(np.abs(eigenvalues(op))), rel=1e-9)
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


NEAR_ASINH_4 = [math.asinh(4) * (1 + k * 1e-9) for k in (-1, 0, 1)]


@pytest.mark.parametrize(
    "eps", [*np.geomspace(1e-4, 800.0, 25).tolist(), *NEAR_ASINH_4], ids="{:.10g}".format
)
def test_norm_bounds_finite_and_positive_at_the_conditioning_radius(eps):
    # at B >= the radius q^B <= (1 - q^2) / (8q), so the bounds' denominators
    # are at least (1 - q^2) / 2 and (1 - q)(3 - q) / 4
    cfg = ReconstructionConfig(epsilon=eps, eta=0.05, n=1, d=1,
                               B=min_truncation_radius(eps), allow_small_n=True)
    op = build_operator(cfg)
    bounds = norm_bounds(op)
    q, p_norm = math.exp(-eps), op.p_norm_const
    assert all(math.isfinite(b) and b >= 1.0 for b in bounds)
    assert bounds.bound_1_inf <= 2 * (1 + q) / (1 - q) * p_norm * (1 + 1e-12)
    assert bounds.bound_2 <= 4 * (1 + q) / ((1 - q) * (3 - q)) * p_norm * (1 + 1e-12)


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
    # kernels of 2B + 1 > 64 taps, longer than the first ring once tried
    ("kernel-245", ReconstructionConfig(epsilon=0.1, eta=0.05, n=200, d=10**4), False),
    ("kernel-245-n3000", ReconstructionConfig(epsilon=0.1, eta=0.05, n=3000, d=10**4), False),
    ("kernel-507", ReconstructionConfig(epsilon=0.03, eta=0.05, n=2000, d=100), False),
]


@pytest.mark.parametrize("label, tap_cfg, full_ring", TAP_CASES, ids=[c[0] for c in TAP_CASES])
def test_inverse_taps_match_dense(label, tap_cfg, full_ring):
    op = build_operator(tap_cfg)
    assert (op.m % 2 == 0) == (label == "full-ring-even")
    assert (2 * (op._inv_pairs[-1][0] + 1) + 1 >= op.m) == full_ring
    dense = dense_operator(tap_cfg).entries
    inv = np.linalg.inv(dense)
    # the dense inverse's roundoff grows with cond(A) ||A^{-1}||, and
    # ||A||_1 = 1, so cond(A) = ||A^{-1}||_1
    norm_1 = float(np.abs(inv).sum(axis=0).max())
    np.testing.assert_allclose(inv, inv.T, atol=1e-15 * norm_1**2)
    rng = np.random.default_rng(37)
    for _ in range(10):
        x = rng.normal(size=op.m)
        np.testing.assert_allclose(circulant.apply_inverse(op, x), inv @ x, atol=1e-8)
        np.testing.assert_allclose(circulant.apply_inverse(op, x), x @ inv, atol=1e-8)
        np.testing.assert_allclose(
            circulant.apply_inverse(op, dense @ x), x, atol=1e-9
        )


# --- the factored inverse against its references ------------------------------

def grid_window(eps, d, eta, n):
    """A window of the grid: n a number, or "B" for n equal to the derived B."""
    if n == "B":
        n = max(1, ReconstructionConfig(epsilon=eps, eta=eta, n=1, d=d, allow_small_n=True).B)
    return ReconstructionConfig(epsilon=eps, eta=eta, n=n, d=d, allow_small_n=True)


# eps from 3e-6 to 700 and asinh 4, d from 1 to 1e6, eta 0.05 and 0.5, and n
# in {1, 4, 32, B, 1000}: at the least eps the window is longer than 1e7 and
# N's series wraps the ring several times, at the conditioning radius many
GRID = [
    (eps, d, eta, n)
    for eps in (*np.geomspace(3e-6, 700.0, 30).tolist(), math.asinh(4))
    for d in (1, 1000, 10**6)
    for eta in (0.05, 0.5)
    for n in (1, 4, 32, "B", 1000)
]
GRID_SAMPLE = random.Random(2026).sample(GRID, 48)
FULL_RING_CASES = [case for case in TAP_CASES if case[2]]


def grid_id(window):
    eps, d, eta, n = window
    return f"eps{eps:.3g}-d{d}-eta{eta}-n{n}"


def largest_difference(col, want):
    """max |col - want| over the ring, as a share of want's largest entry."""
    scale = max(abs(v) for v in want.values())
    return max(abs(col.get(u, 0.0) - want.get(u, 0.0)) for u in col.keys() | want.keys()) / scale


@pytest.mark.parametrize("window", GRID_SAMPLE, ids=grid_id)
def test_factored_inverse_matches_its_closed_form_summed_exactly(window):
    # T N on Z_m against the same closed form summed in 40-digit arithmetic
    # from the same double-precision q, 1 - q^2 and P, with no tap dropped:
    # series truncation, tap floor and roundoff together stay within 1e-15
    # of the largest tap
    cfg = grid_window(*window)
    op = build_operator(cfg)
    want = exact_inverse_column(cfg.epsilon, cfg.B, cfg.m)
    assert largest_difference(factored_column(op), want) <= 1e-15


def fft_column(cfg):
    """The FFT-built taps laid on Z_m (a split antipodal tap rejoins)."""
    taps = fft_inverse_taps(cfg)
    w = len(taps) // 2
    col = {}
    for u, tap in zip(range(-w, w + 1), taps.tolist()):
        col[u % cfg.m] = col.get(u % cfg.m, 0.0) + tap
    return col


# the FFT build transforms a ring of up to the window's length, at about 170
# bytes per entry, so it is run on the sample's windows up to 2^20 entries
FFT_WINDOWS = [
    *(pytest.param(grid_window(*w), id=grid_id(w)) for w in GRID_SAMPLE
      if grid_window(*w).m <= 2**20),
    *(pytest.param(cfg, id=label) for label, cfg, _ in FULL_RING_CASES),
]


@pytest.mark.parametrize("cfg", FFT_WINDOWS)
def test_factored_inverse_matches_the_fft_build(cfg):
    # The FFT build's own roundoff reaches 7.5e-15 of the largest tap on
    # rings of awkward length (the window's own, once the taps span it),
    # against the exactly summed closed form, which the factored taps meet
    # within 1e-15 above; so the two builds agree within 1e-14.
    op = build_operator(cfg)
    assert largest_difference(factored_column(op), fft_column(cfg)) <= 1e-14


@pytest.mark.parametrize("label, tap_cfg, full_ring", FULL_RING_CASES, ids=[c[0] for c in FULL_RING_CASES])
def test_full_ring_factored_inverse_matches_its_closed_form_summed_exactly(label, tap_cfg, full_ring):
    op = build_operator(tap_cfg)
    want = exact_inverse_column(tap_cfg.epsilon, tap_cfg.B, tap_cfg.m)
    assert largest_difference(factored_column(op), want) <= 1e-15


@pytest.mark.parametrize(
    "cfg",
    [make_cfg(7, 6, 0.5), make_cfg(16, 10, 1.0), protocol_config(0.5, 1000),
     ReconstructionConfig(epsilon=0.001, eta=0.05, n=10**5, d=4),
     ReconstructionConfig(epsilon=50.0, eta=0.05, n=8, d=100)],
    ids=["full-ring-even", "full-ring-odd", "protocol-n4", "e0.001", "B0"],
)
def test_ones_image_is_the_products_own(cfg):
    # the correction takes A^{-1} 1 from _ones_image; every entry of the
    # product of the all-ones vector is that value bit for bit
    op = build_operator(cfg)
    image = circulant.apply_inverse(op, np.ones(op.m))
    assert np.all(image == circulant._ones_image(op))
    # A^{-1} 1 = 1, up to roundoff on the scale of A^{-1}'s taps
    l1 = sum(abs(tap) for tap in factored_column(op).values())
    assert abs(circulant._ones_image(op) - 1.0) <= 1e-15 * l1


# --- a product whose cost does not grow with 1/eps ---------------------------

def test_inverse_taps_are_sparse_at_small_epsilon():
    # at eps = 0.001 the taps span the clusters at 0, +-B, +-2B, ... (half
    # width about 25 B), but only the clusters' few entries are above roundoff
    op = cached_operator(ReconstructionConfig(epsilon=0.001, eta=0.05, n=10**6, d=4))
    width = 2 * (op._inv_pairs[-1][0] + 1) + 1
    assert op.B == 8295 and width > 40 * op.B
    assert nonzero_taps(op) <= width // 100


def nonzero_taps(op):
    """The nonzero taps of A^{-1} = T N as the operator stores it."""
    return sum(1 for tap in factored_column(op).values() if tap)


@pytest.mark.parametrize("eps", [0.01, 0.1, 0.5, 1.0, 2.0])
def test_inverse_tap_count_does_not_grow_with_inverse_epsilon(eps):
    op = cached_operator(ReconstructionConfig(epsilon=eps, eta=0.05, n=10**6, d=10**6))
    assert nonzero_taps(op) <= 23


def test_inverse_taps_are_exactly_symmetric():
    # one stored tap per offset pair +-u, so the product is mirror-exact
    for tap_cfg in (make_cfg(600, 10, 0.5), make_cfg(7, 6, 0.5), make_cfg(16, 10, 1.0)):
        op = build_operator(tap_cfg)
        offsets = [u for u, _ in op._inv_pairs]
        assert offsets == sorted(set(offsets)) and offsets[0] == 0 and offsets[-1] <= op.m // 2
        half = np.random.default_rng(45).normal(size=op.m)
        x = half + half[::-1]
        y = circulant.apply_inverse(op, x)
        assert np.array_equal(y, y[::-1])


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

    def blocks(w):  # taps reaching w take blocks of at least w // 2
        return -(-op.m // max(circulant._BLOCK, w // 2))

    # T's one pair and N's nonzero offsets (its centre, first, is nonzero)
    circulant.apply_inverse(op, x)
    assert counting.pair_sums == blocks(op._inv_pairs[-1][0]) * len(op._inv_pairs)


@pytest.mark.parametrize("block", [1, 7, 16, 64, circulant._BLOCK])
def test_blocked_product_matches_dense_for_any_block_size(monkeypatch, block):
    # blocks narrower than the half-width w carry their left operands over
    # several blocks and wrap on both sides; each product must still be the
    # dense one
    monkeypatch.setattr(circulant, "_BLOCK", block)
    for tap_cfg in (make_cfg(600, 10, 0.5), make_cfg(7, 6, 0.5), make_cfg(64, 6, 0.5)):
        op = build_operator(tap_cfg)
        dense = dense_operator(tap_cfg)
        inv = np.linalg.inv(dense.entries)
        x = np.random.default_rng(43).normal(size=op.m)
        np.testing.assert_allclose(circulant.apply_inverse(op, x), inv @ x, atol=1e-8)


@seed(2025)
@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(1, 300),
    w_share=st.floats(0.0, 1.0),
    density=st.floats(0.0, 1.0),
    block=st.sampled_from([1, 3, 7]),
    side=st.floats(-1.0, 1.0),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_product_in_place_equals_product_into_a_new_vector(m, w_share, density, block, side, data_seed):
    # with w up to m // 2 and blocks of 1, 3 and 7 entries, a block's left
    # operands come from several blocks before it and its right ones wrap
    # onto entries already written over; the product over x must be the
    # product into a new vector, bit for bit, and both the cyclic sum with
    # the side taps at +-1 (circulants commute, so the reference applies
    # them last)
    rng = np.random.default_rng(data_seed)
    w = int(w_share * (m // 2))
    half = rng.normal(size=w + 1) * (rng.random(w + 1) < density)
    taps = np.concatenate((half[:0:-1], half))
    x = rng.normal(size=m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(circulant, "_BLOCK", block)
        pairs = tuple(enumerate(taps[w:].tolist()))
        fresh = circulant._cyclic_product(pairs, x, side=side)
        y = x.copy()
        in_place = circulant._cyclic_product(pairs, y, out=y, side=side)
    assert in_place is y
    assert in_place.tobytes() == fresh.tobytes()
    want = sum(tap * np.roll(x, u) for u, tap in zip(range(-w, w + 1), taps))
    want = want + side * (np.roll(want, 1) + np.roll(want, -1))
    gain = 1 + 2 * abs(side)
    np.testing.assert_allclose(
        fresh, want, rtol=0, atol=1e-12 * gain * (1 + np.abs(taps).sum()) * np.abs(x).max()
    )


def test_apply_inverse_writes_over_its_operand_and_refuses_a_bad_out(cfg):
    op = build_operator(cfg)
    x = np.random.default_rng(44).normal(size=op.m)
    y = x.copy()
    assert circulant.apply_inverse(op, y, out=y) is y
    assert y.tobytes() == circulant.apply_inverse(op, x).tobytes()
    pair = np.zeros(op.m + 1)
    bad = [(x, np.empty(op.m + 1)), (x, np.empty(op.m, dtype=np.float32)),
           (pair[:-1], pair[1:])]  # the last overlaps x without being x
    for vec, out in bad:
        with pytest.raises(ValueError, match="out must be"):
            circulant.apply_inverse(op, vec, out=out)
