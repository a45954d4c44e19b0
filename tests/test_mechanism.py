"""Tests for the discrete Laplace mechanism and its sketch plumbing."""

import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpprofile import mechanism
from dpprofile.evaluation import true_profile
from dpprofile.mechanism import (
    Histogram,
    PrivateSketch,
    _parse_canonical,
    empirical_profile,
    privatize,
    read_histogram,
    read_int_lines,
    read_sketch,
    sample_dlap,
    sample_geometric,
    update,
    window_pmf,
    write_sketch,
)

from dpprofile.params import (
    MAX_WINDOW,
    ReconstructionConfig,
    _MIN_EPSILON,
    check_seed,
    check_trials,
    check_window,
    min_truncation_radius,
    truncation_radius,
)

from helpers import gof_chi2_pvalue, two_sample_chi2_pvalue
from oracle import unfold


def dlap_pmf(epsilon, t):
    q = math.exp(-epsilon)
    return (1 - q) / (1 + q) * q ** abs(t)


# --- sampling -------------------------------------------------------------

def test_dlap_frequencies_at_ln2():
    rng = np.random.default_rng(12)
    draws = sample_dlap(math.log(2), rng, size=10**6)
    n = len(draws)
    for t, p in ((0, 1 / 3), (1, 1 / 6), (-1, 1 / 6)):
        freq = np.mean(draws == t)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(freq - p) < 4 * sigma


def test_dlap_concentrates_at_huge_epsilon():
    rng = np.random.default_rng(3)
    draws = sample_dlap(50.0, rng, size=10**4)
    assert np.all(draws == 0)


def test_dlap_symmetric_mean():
    rng = np.random.default_rng(99)
    draws = sample_dlap(1.0, rng, size=10**6)
    q = math.exp(-1.0)
    var = 2 * q / (1 - q) ** 2
    assert abs(draws.mean()) < 3 * math.sqrt(var / len(draws))


def test_dlap_rejects_bad_epsilon():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_dlap(0.0, rng, size=1)
    with pytest.raises(ValueError):
        sample_geometric(-1.0, rng, size=1)


def test_geometric_frequencies_at_ln2():
    rng = np.random.default_rng(8)
    draws = sample_geometric(math.log(2), rng, size=10**6)
    n = len(draws)
    for t, p in ((0, 0.5), (1, 0.25)):
        freq = np.mean(draws == t)
        assert abs(freq - p) < 4 * math.sqrt(p * (1 - p) / n)


def test_geometric_huge_epsilon_and_mean():
    rng = np.random.default_rng(4)
    assert np.all(sample_geometric(50.0, rng, size=10**4) == 0)
    draws = sample_geometric(1.0, rng, size=10**6)
    q = math.exp(-1.0)
    mean, var = q / (1 - q), q / (1 - q) ** 2
    assert abs(draws.mean() - mean) < 3 * math.sqrt(var / len(draws))


def test_sampling_is_deterministic_given_seed():
    a = sample_dlap(0.7, np.random.default_rng(123), size=1000)
    b = sample_dlap(0.7, np.random.default_rng(123), size=1000)
    assert np.array_equal(a, b)
    assert np.array_equal(
        sample_dlap(0.7, np.random.default_rng(5), size=1),
        sample_dlap(0.7, np.random.default_rng(5), size=1),
    )


def reference_geometric(epsilon, u):
    """floor(-log(1 - u) / eps) of uniforms u, computed out of place."""
    return np.floor(-np.log(1.0 - u) / epsilon).astype(np.int64)


@pytest.mark.parametrize("epsilon", [1.0, 0.37, 2.5, 1e-3])
def test_samplers_match_reference_formula(epsilon):
    size = 10**5
    u = np.random.default_rng(31).random(2 * size)
    first, second = reference_geometric(epsilon, u[:size]), reference_geometric(epsilon, u[size:])
    g = sample_geometric(epsilon, np.random.default_rng(31), size=size)
    assert g.dtype == np.int64 and np.array_equal(g, first)
    z = sample_dlap(epsilon, np.random.default_rng(31), size=size)
    assert z.dtype == np.int64 and np.array_equal(z, first - second)
    for seed in range(200):  # one draw per seed
        u1, u2 = np.random.default_rng(seed).random(2)
        g = sample_geometric(epsilon, np.random.default_rng(seed), size=1)
        assert g.tolist() == [reference_geometric(epsilon, u1)]
        z = sample_dlap(epsilon, np.random.default_rng(seed), size=1)
        expected = reference_geometric(epsilon, u1) - reference_geometric(epsilon, u2)
        assert z.tolist() == [expected]


@pytest.mark.parametrize("block", [1, 3, 2**15])
def test_samplers_do_not_depend_on_the_block_size(monkeypatch, block):
    # the draws go a block at a time into the output, in stream order
    want_g = sample_geometric(0.8, np.random.default_rng(41), size=10)
    want_z = sample_dlap(0.8, np.random.default_rng(41), size=10)
    monkeypatch.setattr(mechanism, "_BIN_BLOCK", block)
    rng = np.random.default_rng(41)
    assert np.array_equal(sample_geometric(0.8, rng, size=10), want_g)
    rng_z = np.random.default_rng(41)
    assert np.array_equal(sample_dlap(0.8, rng_z, size=10), want_z)
    rng_ref = np.random.default_rng(41)
    rng_ref.random(20)
    assert rng_z.random() == rng_ref.random()  # exactly 2 * size uniforms used
    assert sample_dlap(0.8, rng, size=0).shape == sample_geometric(0.8, rng, size=0).shape == (0,)


# --- privatize ------------------------------------------------------------

def test_privatize_noiseless_limit():
    h = Histogram(counts=np.array([3, 0, 7]), n=8)
    s = privatize(h, 50.0, clip=False, rng=np.random.default_rng(1))
    assert np.array_equal(s.counts, [3, 0, 7])
    assert not s.clipped


def test_privatize_clip_stays_in_range():
    h = Histogram(counts=np.array([0, 1, 2, 3]), n=3)
    for seed in range(20):
        s = privatize(h, 0.3, clip=True, rng=np.random.default_rng(seed))
        assert s.clipped
        assert s.counts.min() >= 0 and s.counts.max() <= 3


def test_privatize_adds_dlap_draws_to_the_counts():
    h = Histogram(counts=np.random.default_rng(2).integers(0, 9, size=1000), n=8)
    before = h.counts.copy()
    noise = sample_dlap(0.5, np.random.default_rng(3), size=h.d)
    s = privatize(h, 0.5, clip=False, rng=np.random.default_rng(3))
    assert np.array_equal(s.counts, before + noise)
    c = privatize(h, 0.5, clip=True, rng=np.random.default_rng(3))
    assert np.array_equal(c.counts, np.clip(before + noise, 0, 8))
    assert np.array_equal(h.counts, before)


def test_privatize_matches_dlap_pmf():
    d = 10**5
    h = Histogram(counts=np.zeros(d, dtype=np.int64), n=5)
    s = privatize(h, 1.0, clip=False, rng=np.random.default_rng(21))
    support = np.arange(-15, 16)
    pmf = np.array([dlap_pmf(1.0, t) for t in support])
    pmf = pmf / pmf.sum()
    assert gof_chi2_pvalue(np.asarray(s.counts), support, pmf) > 0.01


@pytest.mark.parametrize("clip", [False, True])
def test_privatize_peak_allocation_is_about_its_output(clip):
    # numpy reports its buffers to tracemalloc: the 8d bytes of the noisy
    # counts, and block-sized scratch for the uniforms and the second draw
    d = 10**6
    h = Histogram(counts=np.random.default_rng(8).integers(0, 33, d), n=32)
    tracemalloc.start()
    try:
        s = privatize(h, 1.0, clip=clip, rng=np.random.default_rng(9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.d == d
    assert peak <= 1.2 * 8 * d


# --- unfold ---------------------------------------------------------------

def test_unfold_keeps_interior():
    n = 6
    s = PrivateSketch(counts=np.array([1, 2, n - 1]), epsilon=1.0, n=n, clipped=True)
    for seed in range(10):
        out = unfold(s, np.random.default_rng(seed))
        assert np.array_equal(out.counts, s.counts)
        assert not out.clipped


def test_unfold_zero_boundary_huge_epsilon():
    s = PrivateSketch(counts=np.zeros(100, dtype=np.int64), epsilon=50.0, n=4, clipped=True)
    out = unfold(s, np.random.default_rng(0))
    assert np.all(out.counts == 0)


def test_unfold_rejects_unclipped():
    s = PrivateSketch(counts=np.array([1, 2]), epsilon=1.0, n=4, clipped=False)
    with pytest.raises(ValueError):
        unfold(s, np.random.default_rng(0))


@pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("h0", [0, 4])
def test_unfold_matches_direct_distribution(epsilon, h0):
    d, n = 10**5, 4
    h = Histogram(counts=np.full(d, h0, dtype=np.int64), n=n)
    rng_a = np.random.default_rng(100)
    rng_b = np.random.default_rng(200)
    via_clip = unfold(privatize(h, epsilon, clip=True, rng=rng_a), rng_a)
    direct = privatize(h, epsilon, clip=False, rng=rng_b)
    p = two_sample_chi2_pvalue(np.asarray(via_clip.counts), np.asarray(direct.counts))
    assert p > 0.01


# --- update ---------------------------------------------------------------

def test_update_identity_and_inverse():
    s = PrivateSketch(counts=np.array([4, -1, 2]), epsilon=1.0, n=4, clipped=False)
    assert np.array_equal(update(s, np.zeros(3, dtype=int)).counts, s.counts)
    delta = np.array([1, -2, 3])
    back = update(update(s, delta), -delta)
    assert np.array_equal(back.counts, s.counts)


def test_update_rejects_clipped_and_bad_length():
    s = PrivateSketch(counts=np.array([1, 2]), epsilon=1.0, n=4, clipped=True)
    with pytest.raises(ValueError, match="^a clipped sketch cannot be updated; sketch the "
                       "histogram again without clipping$"):
        update(s, np.array([1, 1]))
    s2 = PrivateSketch(counts=np.array([1, 2]), epsilon=1.0, n=4, clipped=False)
    with pytest.raises(ValueError):
        update(s2, np.array([1, 1, 1]))


@pytest.mark.parametrize(
    "count, delta",
    [(5, 2**63 - 1), (-5, -(2**63) + 1), (2**62, 2**62), (-(2**63), -1)],
)
def test_update_rejects_int64_overflow(count, delta):
    s = PrivateSketch(counts=np.array([0, count]), epsilon=1.0, n=4, clipped=False)
    with pytest.raises(ValueError, match="count 1: .* 64-bit"):
        update(s, np.array([0, delta]))


def test_update_rejects_fractional_deltas():
    s = PrivateSketch(counts=np.array([1, 2]), epsilon=1.0, n=4, clipped=False)
    with pytest.raises(ValueError, match="delta must be integers .* got 0.6"):
        update(s, [0.6, 0.4])
    for bad in ([float("nan"), 0.0], [1e30, 0.0]):
        with pytest.raises(ValueError, match="delta must be integers"):
            update(s, bad)
    assert update(s, [1.0, -2.0]).counts.tolist() == [2, 0]  # whole floats are kept


def test_update_accepts_sums_at_the_int64_limits():
    top, bottom = 2**63 - 1, -(2**63)
    s = PrivateSketch(counts=np.array([5, -5, top, bottom]), epsilon=1.0, n=4, clipped=False)
    out = update(s, np.array([top - 5, bottom + 5, bottom, top]))
    assert out.counts.tolist() == [top, bottom, -1, -1]


def test_update_matches_fresh_privatize_distribution():
    d = 10**5
    h = Histogram(counts=np.full(d, 1, dtype=np.int64), n=5)
    shift = np.full(d, 2, dtype=np.int64)
    updated = update(
        privatize(h, 1.0, clip=False, rng=np.random.default_rng(301)), shift
    )
    fresh = privatize(
        Histogram(counts=h.counts + shift, n=5),
        1.0,
        clip=False,
        rng=np.random.default_rng(401),
    )
    p = two_sample_chi2_pvalue(np.asarray(updated.counts), np.asarray(fresh.counts))
    assert p > 0.01


# --- empirical profile ----------------------------------------------------

def test_empirical_profile_small_example():
    cfg = ReconstructionConfig(epsilon=1.0, eta=0.05, n=5, d=4, B=1)
    s = PrivateSketch(counts=np.array([0, 2, 2, 5]), epsilon=1.0, n=5, clipped=False)
    prof = empirical_profile(s, cfg)
    # window is -1..6, array index t + 1
    expected = np.zeros(8)
    expected[0 + 1] = 0.25
    expected[2 + 1] = 0.5
    expected[5 + 1] = 0.25
    np.testing.assert_array_equal(prof.values, expected)


def test_empirical_profile_point_mass():
    cfg = ReconstructionConfig(epsilon=1.0, eta=0.05, n=4, d=10, B=2)
    s = PrivateSketch(counts=np.full(10, 3, dtype=np.int64), epsilon=1.0, n=4, clipped=False)
    prof = empirical_profile(s, cfg)
    assert prof.values[3 + 2] == 1.0
    assert prof.values.sum() == 1.0


def test_empirical_profile_clamps_out_of_window():
    n, B = 4, 2
    cfg = ReconstructionConfig(epsilon=1.0, eta=0.05, n=n, d=3, B=B)
    s = PrivateSketch(
        counts=np.array([n + B + 3, -B - 5, 1]), epsilon=1.0, n=n, clipped=False
    )
    prof = empirical_profile(s, cfg)
    assert prof.values[(n + B) + B] == pytest.approx(1 / 3)  # clamped high
    assert prof.values[0] == pytest.approx(1 / 3)            # clamped low
    assert prof.values.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("low, high", [(0, 0), (-1, 0), (0, 1), (-9, 7)])
def test_empirical_profile_bins_window_edges_as_the_clamp_does(low, high):
    # counts exactly at -B and n + B bin at the window's ends; counts moved
    # beyond either end are clamped, and must bin as the edge counts
    n, B, d = 6, 3, 5
    cfg = ReconstructionConfig(epsilon=1.0, eta=0.05, n=n, d=d, B=B)
    edges = np.array([-B, n + B, 2, -B, n + B])
    moved = edges + np.array([low, high, 0, 0, 0])
    edge_prof = empirical_profile(PrivateSketch(counts=edges, epsilon=1.0, n=n, clipped=False), cfg)
    prof = empirical_profile(PrivateSketch(counts=moved, epsilon=1.0, n=n, clipped=False), cfg)
    expected = np.bincount(np.clip(moved, -B, n + B) + B, minlength=cfg.m) / d
    np.testing.assert_array_equal(edge_prof.values, expected)
    np.testing.assert_array_equal(prof.values, expected)
    assert (prof.n, prof.B, prof.d) == (edge_prof.n, edge_prof.B, edge_prof.d) == (n, B, d)
    assert prof.values[0] == prof.values[-1] == 2 / d


def test_empirical_profile_multiples_of_inverse_d():
    d = 997
    cfg = ReconstructionConfig(epsilon=1.0, eta=0.1, n=8, d=d, B=3)
    rng = np.random.default_rng(5)
    h = Histogram(counts=rng.integers(0, 9, size=d), n=8)
    s = privatize(h, 1.0, clip=False, rng=rng)
    prof = empirical_profile(s, cfg)
    scaled = prof.values * d
    np.testing.assert_allclose(scaled, np.rint(scaled), atol=1e-9)
    assert abs(prof.values.sum() - 1.0) < 1e-12


# --- a clipped sketch, binned as its unfolding --------------------------------

def clipped_sketches(epsilon, n, d, rng):
    """Clipped sketches with entries at both ends, at neither, and at n alone."""
    h = Histogram(counts=rng.integers(0, n + 1, size=d), n=n)
    return {
        "privatized": privatize(h, epsilon, clip=True, rng=rng),
        "interior": PrivateSketch(counts=rng.integers(1, n, size=d), epsilon=epsilon, n=n,
                                  clipped=True),
        "all at n": PrivateSketch(counts=np.full(d, n), epsilon=epsilon, n=n, clipped=True),
    }


BINNING_CASES = [(0.3, 8, 12), (1.0, 32, 20), (2.0, 4, 3), (50.0, 4, 0)]


@pytest.mark.parametrize("block", [1, mechanism._BIN_BLOCK])
@pytest.mark.parametrize("epsilon, n, B", BINNING_CASES)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_clipped_binning_equals_binning_the_unfolded_sketch(monkeypatch, block, epsilon, n, B, seed):
    # counts and pushes are binned a block at a time, whatever the window's
    # length: the same bins, bit for bit, and the same draws used
    monkeypatch.setattr(mechanism, "_BIN_BLOCK", block)
    d = 3000
    cfg = ReconstructionConfig(epsilon=epsilon, eta=0.05, n=n, d=d, B=B, allow_small_n=True)
    for name, s in clipped_sketches(epsilon, n, d, np.random.default_rng(seed)).items():
        with pytest.raises(ValueError, match="a clipped sketch is binned as its unfolding, which needs an rng"):
            empirical_profile(s, cfg)
        rng_a, rng_b = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
        got = empirical_profile(s, cfg, rng_a)
        want = empirical_profile(unfold(s, rng_b), cfg)
        assert got.values.tobytes() == want.values.tobytes(), name
        assert rng_a.random() == rng_b.random(), name


@pytest.mark.parametrize("block", [1, mechanism._BIN_BLOCK])
@pytest.mark.parametrize("epsilon, n, B", BINNING_CASES)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_unclipped_binning_equals_clamping_and_binning_whole(monkeypatch, block, epsilon, n, B,
                                                             seed):
    # blocks of counts past both ends of the window clamp and bin as the
    # whole vector does, bit for bit
    monkeypatch.setattr(mechanism, "_BIN_BLOCK", block)
    d = 3000
    cfg = ReconstructionConfig(epsilon=epsilon, eta=0.05, n=n, d=d, B=B, allow_small_n=True)
    rng = np.random.default_rng(seed)
    wide = rng.integers(-3 * B - 3, n + 3 * B + 4, size=d)
    wide[:2] = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    h = Histogram(counts=rng.integers(0, n + 1, size=d), n=n)
    for s in (privatize(h, epsilon, clip=False, rng=rng),
              PrivateSketch(counts=wide, epsilon=epsilon, n=n, clipped=False)):
        want = np.bincount(np.clip(s.counts, -B, n + B) + B, minlength=cfg.m) / d
        assert empirical_profile(s, cfg).values.tobytes() == want.tobytes()
    assert (wide < -B).any() and (wide > n + B).any()


def clamped_bincount(counts, lo, hi):
    return np.bincount(np.clip(counts, lo, hi) - lo, minlength=hi - lo + 1).astype(np.float64)


INT64_MIN, INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


@settings(max_examples=300, deadline=None)
@given(
    lo=st.one_of(st.integers(-60, 60), st.sampled_from([INT64_MIN, -2**62, INT64_MAX - 40])),
    span=st.integers(0, 40),
    counts=st.lists(
        st.one_of(st.integers(-120, 120),
                  st.sampled_from([INT64_MIN, INT64_MIN + 1, -2**62, 2**62, INT64_MAX - 1,
                                   INT64_MAX])),
        min_size=1, max_size=40),
    block=st.sampled_from([1, 2, 3, 7, 2**15]),
)
def test_bins_equal_clamping_then_counting(lo, span, counts, block):
    hi = lo + span
    counts = np.array(counts, dtype=np.int64)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(mechanism, "_BIN_BLOCK", block)
        got = mechanism._bins(counts, lo, hi)
    assert got.tobytes() == clamped_bincount(counts, lo, hi).tobytes()


@pytest.mark.parametrize("length", [mechanism._BIN_BLOCK - 1, mechanism._BIN_BLOCK,
                                    mechanism._BIN_BLOCK + 1, 3 * mechanism._BIN_BLOCK])
def test_bins_range_check_at_block_edges(length):
    # each value just outside or at the ends of the window, and the int64
    # limits, whose shift by -lo wraps, at the first and last entry of every
    # block, alone in its block
    lo, hi, block = -3, 10, mechanism._BIN_BLOCK
    base = np.random.default_rng(length).integers(lo, hi + 1, size=length)
    want = clamped_bincount(base, lo, hi)
    assert mechanism._bins(base, lo, hi).tobytes() == want.tobytes()
    edges = sorted({i for b in range(0, length, block) for i in (b, b + block - 1)
                    if i < length} | {length - 1})
    for value in (INT64_MIN, INT64_MAX, lo - 1, lo, hi, hi + 1):
        for at in edges:
            counts = base.copy()
            counts[at] = value
            got = mechanism._bins(counts, lo, hi)
            assert got.tobytes() == clamped_bincount(counts, lo, hi).tobytes(), (value, at)


class ClipSpy:
    """numpy, with every np.clip call counted."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def clip(self, *args, **kwargs):
        self.calls += 1
        return np.clip(*args, **kwargs)


def test_reconstructing_an_in_window_sketch_clamps_no_block(monkeypatch):
    # an unclipped sketch inside the window is only shifted; a block that
    # holds a count outside it is the one that is clamped
    from dpprofile.reconstruct import reconstruct_profile

    n, d = 32, 3 * mechanism._BIN_BLOCK + 5
    cfg = ReconstructionConfig(epsilon=1.0, eta=0.05, n=n, d=d)
    rng = np.random.default_rng(12)
    counts = rng.integers(-cfg.B, n + cfg.B + 1, size=d)
    inside = PrivateSketch(counts=counts, epsilon=1.0, n=n, clipped=False)
    counts = counts.copy()
    counts[mechanism._BIN_BLOCK + 7] = n + cfg.B + 1
    outside = PrivateSketch(counts=counts, epsilon=1.0, n=n, clipped=False)
    want_inside, want_outside = reconstruct_profile(inside, cfg), reconstruct_profile(outside, cfg)
    spy = ClipSpy()
    monkeypatch.setattr(mechanism, "np", spy)
    assert reconstruct_profile(inside, cfg).values.tobytes() == want_inside.values.tobytes()
    assert spy.calls == 0
    assert reconstruct_profile(outside, cfg).values.tobytes() == want_outside.values.tobytes()
    assert spy.calls == 1


def test_clipped_sketches_and_histograms_clamp_no_block(monkeypatch):
    # every block is range-checked, and counts in [0, n] never fail the check
    from dpprofile.reconstruct import reconstruct_profile

    n, d = 32, 3 * mechanism._BIN_BLOCK + 5
    cfg = ReconstructionConfig(epsilon=1.0, eta=0.05, n=n, d=d)
    rng = np.random.default_rng(13)
    h = Histogram(counts=rng.integers(0, n + 1, size=d), n=n)
    s = privatize(h, 1.0, clip=True, rng=rng)
    want_profile = true_profile(h).values.tobytes()
    want = reconstruct_profile(s, cfg, np.random.default_rng(14)).values.tobytes()
    spy = ClipSpy()
    monkeypatch.setattr(mechanism, "np", spy)
    assert true_profile(h).values.tobytes() == want_profile
    assert reconstruct_profile(s, cfg, np.random.default_rng(14)).values.tobytes() == want
    assert spy.calls == 0


@pytest.mark.parametrize("binning", ["clipped", "unclipped", "true_profile"])
def test_binning_holds_no_array_of_the_sketch_length(binning):
    # numpy reports its buffers to tracemalloc: neither the 8d bytes of
    # counts nor the pushes are copied or drawn whole, not even for the
    # read-only counts of a histogram
    n, d = 32, 2**20
    rng = np.random.default_rng(6)
    h = Histogram(counts=rng.integers(0, n + 1, size=d), n=n)
    s = privatize(h, 1.0, clip=binning == "clipped", rng=rng)
    cfg = ReconstructionConfig(epsilon=1.0, eta=0.05, n=n, d=d)
    tracemalloc.start()
    try:
        if binning == "true_profile":
            true_profile(h)
        else:
            empirical_profile(s, cfg, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < d


# --- the binned noise law --------------------------------------------------

# (epsilon, n, B): B is set small, so the endpoint tails carry real mass
WINDOW_CASES = [(0.1, 12, 5), (1.0, 6, 2), (5.0, 4, 0)]


@pytest.mark.parametrize("epsilon, n, B", WINDOW_CASES)
def test_window_pmf_rows_and_endpoint_tails(epsilon, n, B):
    values = np.arange(n + 1)
    pmf = window_pmf(values, epsilon, n, B)
    assert pmf.shape == (n + 1, n + 2 * B + 1)
    np.testing.assert_allclose(pmf.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    q = math.exp(-epsilon)
    for c, row in zip(values, pmf):
        assert row[0] == pytest.approx(q ** (B + c) / (1 + q), rel=1e-12)
        assert row[-1] == pytest.approx(q ** (n + B - c) / (1 + q), rel=1e-12)
        inside = np.arange(-B + 1, n + B)
        np.testing.assert_allclose(
            row[1:-1], [dlap_pmf(epsilon, t - c) for t in inside], rtol=1e-12
        )
    assert pmf[0, 0] > 0.01  # the lower tail of count 0 is not negligible


@pytest.mark.parametrize("epsilon, n, B", WINDOW_CASES)
def test_binned_privatize_follows_window_pmf(epsilon, n, B):
    d = 20000
    cfg = ReconstructionConfig(epsilon=epsilon, eta=0.05, n=n, d=d, B=B,
                               allow_small_n=True)
    support = np.arange(-B, n + B + 1)
    rng = np.random.default_rng(31)
    for c in (0, n // 2, n):
        h = Histogram(counts=np.full(d, c, dtype=np.int64), n=n)
        binned = np.rint(empirical_profile(privatize(h, epsilon, False, rng), cfg).values * d)
        samples = np.repeat(support, binned.astype(np.int64))
        pmf = window_pmf([c], epsilon, n, B)[0]
        assert gof_chi2_pvalue(samples, support, pmf) > 0.001, c


def test_window_pmf_rejects_counts_outside_0_n():
    with pytest.raises(ValueError, match="true counts"):
        window_pmf([0, 7], 1.0, 6, 2)
    with pytest.raises(ValueError, match="epsilon"):
        window_pmf([0], float("nan"), 6, 2)


@pytest.mark.parametrize("n", [0, -1, 1.5, 6.0, True, "6", None], ids=repr)
def test_window_pmf_refuses_an_n_that_is_not_a_count(n):
    with pytest.raises(ValueError, match="^maximum count n must be "):
        window_pmf([0, 1], 1.0, n, 2)


@pytest.mark.parametrize("B", [-1, -3, 2.5, 2.0, True, "2", None], ids=repr)
def test_window_pmf_refuses_a_negative_or_non_integer_B(B):
    # B = -1 gave rows summing to 2.086 and 1.0
    with pytest.raises(ValueError, match="^noise bound B must be "):
        window_pmf([0, 1], 1.0, 6, B)


def test_window_pmf_takes_numpy_integers():
    pmf = window_pmf([0, 1], 1.0, np.int64(6), np.int32(2))
    assert pmf.tolist() == window_pmf([0, 1], 1.0, 6, 2).tolist()


def test_window_pmf_at_huge_epsilon_is_the_identity_without_warnings():
    # q = e^-eps is 0: each count bins to itself, and the exponents' overflow
    # to -inf is the intended limit, so nothing is reported
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for epsilon in (800.0, 1e308):
            pmf = window_pmf([0, 2, 4], epsilon, 4, 0)
            assert pmf.tolist() == np.eye(5)[[0, 2, 4]].tolist()


# --- configuration --------------------------------------------------------

def test_truncation_radius_reference_values():
    # eps=1, eta=0.05: data branch ln(2d / (0.05 (e+1))) dominates
    assert truncation_radius(1.0, 0.05, 10**5) == 14
    assert truncation_radius(1.0, 0.05, 10**4) == 12
    assert truncation_radius(1.0, 0.05, 10**3) == 10
    # huge epsilon: both branches negative, clamp at zero
    assert truncation_radius(50.0, 0.05, 10**6) == 0


def test_truncation_radius_conditioning_branch():
    # tiny d: the conditioning branch 8 e^eps / (e^{2 eps} - 1) takes over
    eps = 0.25
    b = truncation_radius(eps, 0.5, 1)
    val = 8 * math.exp(eps) / (math.exp(2 * eps) - 1)
    assert b == math.ceil(math.log(val) / eps)


@pytest.mark.parametrize("epsilon, eta", [(1.0, 1e-320), (5e-17, 1e-300)],
                         ids=["infinite B", "B beyond int64"])
def test_truncation_radius_rejects_B_beyond_int64(epsilon, eta):
    with pytest.raises(ValueError, match="64-bit integer"):
        truncation_radius(epsilon, eta, 10)
    with pytest.raises(ValueError, match="64-bit integer"):
        ReconstructionConfig(epsilon=epsilon, eta=eta, n=4, d=10, allow_small_n=True)


@pytest.mark.parametrize("epsilon", [_MIN_EPSILON, 1e-17, 2.7e-17],
                         ids=["min epsilon", "1e-17", "2.7e-17"])
def test_truncation_radius_where_exp_rounds_to_one(epsilon):
    # e^{-2 eps} rounds to 1 below eps ~ 2.8e-17, so log1p(-e^{-2 eps}) is
    # log1p(-1); the conditioning branch log(4 / sinh(eps)) / eps still holds
    assert math.exp(-2 * epsilon) == 1.0
    b = truncation_radius(epsilon, 0.05, 1000)
    assert 0 < b < 2**63
    assert b == pytest.approx(math.log(4.0 / epsilon) / epsilon, rel=1e-12)
    # such a B fits int64, so the window check is what turns it away
    with pytest.raises(ValueError, match=f"noise bound B={b} .*raise epsilon or eta"):
        ReconstructionConfig(epsilon=epsilon, eta=0.05, n=32, d=1000)


@pytest.mark.parametrize("epsilon", [_MIN_EPSILON, 1e-17, 1e-6, 1e-3, 0.1, 1.0, 5.0, 50.0])
def test_min_truncation_radius_bounds_every_eta_and_d(epsilon):
    b_min = min_truncation_radius(epsilon)
    assert 0 <= b_min < 2**63
    for eta in (0.999, 0.5, 1e-9):
        for d in (1, 4, 10**6):
            try:
                b = truncation_radius(epsilon, eta, d)
            except ValueError:  # B beyond int64, above the bound as well
                continue
            assert b_min <= b
    # the conditioning term is the whole radius at small d
    assert min_truncation_radius(1e-3) == truncation_radius(1e-3, 0.05, 4) == 8295


def test_config_rejects_window_above_cap():
    # n + 2B + 1 = MAX_WINDOW is the largest window taken (B = 0 at eps = 50)
    assert ReconstructionConfig(epsilon=50.0, eta=0.05, n=MAX_WINDOW - 1, d=10).m == MAX_WINDOW
    with pytest.raises(ValueError, match=f"n={MAX_WINDOW} is above"):
        ReconstructionConfig(epsilon=50.0, eta=0.05, n=MAX_WINDOW, d=10)
    with pytest.raises(ValueError, match="window of n \\+ 2B \\+ 1"):
        ReconstructionConfig(epsilon=1.0, eta=0.05, n=MAX_WINDOW - 20, d=10, B=10)
    with pytest.raises(ValueError, match="n=10000000000000000000 is above"):
        check_window(10**19)


def test_config_rejects_small_n():
    with pytest.raises(ValueError, match="n >= B"):
        ReconstructionConfig(epsilon=1.0, eta=0.05, n=4, d=10**5)
    cfg = ReconstructionConfig(epsilon=1.0, eta=0.05, n=4, d=10**5, allow_small_n=True)
    assert cfg.B == 14 and cfg.m == 4 + 28 + 1


def test_config_validation():
    with pytest.raises(ValueError):
        ReconstructionConfig(epsilon=-1.0, eta=0.05, n=4, d=10)
    with pytest.raises(ValueError):
        ReconstructionConfig(epsilon=1.0, eta=1.5, n=4, d=10)
    with pytest.raises(ValueError):
        ReconstructionConfig(epsilon=1.0, eta=0.05, n=8, d=10, B=2, p_norm="l3")


@pytest.mark.parametrize("name, label", [("n", "n"), ("d", "d"), ("B", "noise bound B")])
@pytest.mark.parametrize("value", [40.5, 2.5, 1000.0, np.float64(8.0), True, np.True_, "8", None],
                         ids=repr)
def test_config_refuses_an_n_d_or_b_that_is_not_an_integer(name, label, value):
    kwargs = {"epsilon": 1.0, "eta": 0.05, "n": 40, "d": 1000, name: value}
    with pytest.raises(ValueError, match=f"^{label} must be an integer, got "):
        ReconstructionConfig(**kwargs)


def test_config_takes_numpy_integers_as_ints_and_keeps_its_range_messages():
    cfg = ReconstructionConfig(epsilon=1.0, eta=0.05, n=np.int64(40), d=np.int32(1000),
                               B=np.int64(3))
    assert (cfg.n, cfg.d, cfg.B, cfg.m) == (40, 1000, 3, 47)
    assert all(type(v) is int for v in (cfg.n, cfg.d, cfg.B, cfg.m))
    assert cfg == ReconstructionConfig(epsilon=1.0, eta=0.05, n=40, d=1000, B=3)
    for n, d in ((0, 1000), (40, 0), (-1, -1)):
        with pytest.raises(ValueError, match="^n and d must be >= 1$"):
            ReconstructionConfig(epsilon=1.0, eta=0.05, n=n, d=d)
    with pytest.raises(ValueError, match="^noise bound B must be non-negative$"):
        ReconstructionConfig(epsilon=1.0, eta=0.05, n=40, d=1000, B=-2)


@pytest.mark.parametrize("epsilon", [True, np.True_], ids=repr)
def test_config_refuses_a_bool_epsilon(epsilon):
    with pytest.raises(ValueError, match=r"^epsilon must be a finite number >= .*, got (np\.)?True_?$"):
        ReconstructionConfig(epsilon=epsilon, eta=0.05, n=40, d=1000)
    assert ReconstructionConfig(epsilon=1, eta=0.05, n=40, d=1000).epsilon == 1


@pytest.mark.parametrize("d", [1000.5, 1000.0, np.float64(8.0), True, np.True_, "8", None],
                         ids=repr)
def test_truncation_radius_refuses_a_d_that_is_not_an_integer(d):
    # d = 1000.5 gave 10, and d = True gave 3
    with pytest.raises(ValueError, match="^domain size d must be an integer, got "):
        truncation_radius(1.0, 0.05, d)
    with pytest.raises(ValueError, match="^domain size d must be >= 1$"):
        truncation_radius(1.0, 0.05, 0)
    assert truncation_radius(1.0, 0.05, np.int64(1000)) == truncation_radius(1.0, 0.05, 1000)


@pytest.mark.parametrize("seed", [1.5, 2.0, True, np.True_, "2", None], ids=repr)
def test_check_seed_refuses_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ValueError, match="^master_seed must be an integer, got "):
        check_seed(seed, "master_seed")


def test_check_seed_takes_64_bits_and_names_the_seed():
    for seed in (-1, 2**64, -(2**63), 10**23):
        with pytest.raises(ValueError) as err:
            check_seed(seed, "--seed")
        assert str(err.value) == f"--seed {seed}: must lie in [0, 2**64 - 1]"
    for seed in (0, 2**64 - 1, np.uint64(2**64 - 1), np.int8(7)):
        assert check_seed(seed) == int(seed) and type(check_seed(seed)) is int


@pytest.mark.parametrize("trials", [2.5, 2.0, True, np.True_, "2", None], ids=repr)
def test_check_trials_refuses_trials_that_are_not_an_integer(trials):
    with pytest.raises(ValueError, match="^trials must be an integer, got "):
        check_trials(trials)
    with pytest.raises(ValueError, match="^trials must be >= 1, got 0$"):
        check_trials(0)
    assert check_trials(np.int64(3)) == 3 and type(check_trials(np.int64(3))) is int


def test_histogram_rejects_fractional_counts():
    with pytest.raises(ValueError, match="histogram counts must be integers .* got 1.5"):
        Histogram(counts=[1.5, 2.9], n=4)
    for bad in ([float("nan")], [1e30], np.array([2**63], dtype=np.uint64)):
        with pytest.raises(ValueError, match="histogram counts must be integers"):
            Histogram(counts=bad, n=4)
    assert Histogram(counts=[1.0, 2.0], n=4).counts.tolist() == [1, 2]
    counts = np.array([1, 2])
    assert Histogram(counts=counts, n=4).counts is counts  # int64 is taken as it is


def test_sketch_rejects_fractional_counts():
    with pytest.raises(ValueError, match="sketch counts must be integers .* got 1.5"):
        PrivateSketch(counts=[1.5, 2.9], epsilon=1.0, n=4, clipped=False)
    with pytest.raises(ValueError, match="sketch counts must be integers"):
        PrivateSketch(counts=[float("nan"), 1.0], epsilon=1.0, n=4, clipped=True)
    s = PrivateSketch(counts=np.array([-3, 7], dtype=np.int32), epsilon=1.0, n=4,
                      clipped=False)
    assert s.counts.dtype == np.int64 and s.counts.tolist() == [-3, 7]


def test_histogram_validation():
    with pytest.raises(ValueError):
        Histogram(counts=np.array([1, 9]), n=5)
    with pytest.raises(ValueError):
        Histogram(counts=np.array([-1]), n=5)
    with pytest.raises(ValueError):
        Histogram(counts=np.array([], dtype=np.int64), n=5)
    with pytest.raises(ValueError, match="maximum count n must be >= 1, got 0"):
        Histogram(counts=np.array([0]), n=0)


# n and clipped as read_sketch takes them from a file: an integer >= 1, a bool
@pytest.mark.parametrize("n", [0, -3, 2.5, 2.0, np.float64(3.0), True, np.True_, "3", None],
                         ids=repr)
def test_value_classes_refuse_an_n_that_is_not_an_integer_from_1(n):
    with pytest.raises(ValueError, match="^maximum count n must be"):
        Histogram(counts=[0], n=n)
    with pytest.raises(ValueError, match="^maximum count n must be"):
        PrivateSketch(counts=[0], epsilon=1.0, n=n, clipped=False)


def test_private_sketch_refuses_an_n_past_the_window_and_a_clipped_that_is_not_a_bool():
    with pytest.raises(ValueError, match=f"^n={MAX_WINDOW} is above the largest supported"):
        PrivateSketch(counts=[0], epsilon=1.0, n=MAX_WINDOW, clipped=False)
    for clipped in (1, 0, np.True_, None, "true"):
        with pytest.raises(ValueError, match="^clipped must be a bool, got "):
            PrivateSketch(counts=[0], epsilon=1.0, n=4, clipped=clipped)


@pytest.mark.parametrize("n", [1, 7, np.int64(7), np.uint8(7), MAX_WINDOW - 1], ids=repr)
@pytest.mark.parametrize("clipped", [False, True])
def test_every_sketch_the_class_accepts_writes_and_reads_back(tmp_path, n, clipped):
    h = Histogram(counts=[0, n], n=n)
    assert type(h.n) is int and h.n == n
    extremes = [np.iinfo(np.int64).min, np.iinfo(np.int64).max]
    counts = [0, n, n] if clipped else [0, n, *extremes]
    s = PrivateSketch(counts=counts, epsilon=0.5, n=n, clipped=clipped)
    assert type(s.n) is int and s.n == n
    path = str(tmp_path / "sketch.json")
    write_sketch(path, s)
    back = read_sketch(path)
    assert (back.counts.tolist(), back.epsilon, back.n, back.clipped) == (
        s.counts.tolist(), s.epsilon, s.n, s.clipped)
    # a numpy n is a count, so a sketch of the histogram clips as any other
    assert privatize(h, 1.0, clip=True, rng=np.random.default_rng(1)).n == n


# --- file formats ----------------------------------------------------------

def test_histogram_file_round_trip(tmp_path):
    path = tmp_path / "hist.txt"
    path.write_text("# comment\n3\n0\n\n7\n")
    h = read_histogram(str(path), n=8)
    assert np.array_equal(h.counts, [3, 0, 7])
    out = tmp_path / "copy.txt"
    np.savetxt(str(out), h.counts, fmt="%d")
    again = read_histogram(str(out), n=8)
    assert np.array_equal(again.counts, h.counts)


def test_histogram_file_names_bad_line(tmp_path):
    path = tmp_path / "hist.txt"
    path.write_text("1\nnope\n")
    with pytest.raises(ValueError, match=":2"):
        read_histogram(str(path), n=4)
    path.write_text("1\n2\n9\n")
    with pytest.raises(ValueError, match=":3"):
        read_histogram(str(path), n=4)


def test_sketch_file_round_trip(tmp_path):
    s = PrivateSketch(counts=np.array([5, -2, 0]), epsilon=0.5, n=6, clipped=False)
    path = tmp_path / "sketch.json"
    write_sketch(str(path), s)
    loaded = read_sketch(str(path))
    assert np.array_equal(loaded.counts, s.counts)
    assert loaded.epsilon == s.epsilon and loaded.n == s.n
    assert loaded.clipped == s.clipped
    text = path.read_text()
    assert '"version": 1' in text


def test_sketch_file_rejects_bad_version(tmp_path):
    path = tmp_path / "sketch.json"
    path.write_text('{"version": 2, "epsilon": 1.0, "n": 4, "d": 1, "clipped": false, "counts": [1]}')
    with pytest.raises(ValueError, match="version"):
        read_sketch(str(path))


# --- epsilon validation ----------------------------------------------------

BAD_EPSILONS = [float("nan"), float("inf"), float("-inf"), 0.0, -1.0, 1e-300]


@pytest.mark.parametrize("epsilon", BAD_EPSILONS)
def test_every_epsilon_entry_point_fails_closed(epsilon):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="epsilon"):
        sample_geometric(epsilon, rng, size=3)
    with pytest.raises(ValueError, match="epsilon"):
        sample_dlap(epsilon, rng, size=1)
    with pytest.raises(ValueError, match="epsilon"):
        truncation_radius(epsilon, 0.05, 100)
    with pytest.raises(ValueError, match="epsilon"):
        PrivateSketch(counts=np.array([1, 2]), epsilon=epsilon, n=4, clipped=False)
    with pytest.raises(ValueError, match="epsilon"):
        ReconstructionConfig(epsilon=epsilon, eta=0.05, n=4, d=10, B=1)


def test_smallest_accepted_epsilon_keeps_draws_in_int64():
    # U = 2^-53 is the smallest uniform the sampler can draw
    eps = 1e-17
    assert 53 * math.log(2) / eps < 2**63
    draws = sample_dlap(eps, np.random.default_rng(1), size=1000)
    assert draws.dtype == np.int64 and np.any(draws != 0)


# --- integer-per-line files --------------------------------------------------

def reference_int_lines(path):
    """The plain per-line parse every read_int_lines result must equal."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                values.append(int(text))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected an integer") from None
            if not -(2**63) <= values[-1] < 2**63:
                raise ValueError(f"{path}:{lineno}: out of range")
    return np.array(values, dtype=np.int64)


def outcome(reader, path):
    """The array a reader returns, or the path:lineno its error names."""
    try:
        return reader(path).tolist()
    except ValueError as exc:
        return str(exc).split(": ")[0]


INT_FILE_CASES = {
    "plain": b"3\n0\n7\n",
    "comments": b"# header\n3\n# middle\n4\n",
    "blank lines": b"\n3\n\n  \n4\n\n",
    "crlf": b"3\r\n4\r\n",
    "no trailing newline": b"3\n4",
    "plus sign": b"+5\n1\n",
    "underscore": b"1_0\n2\n",
    "padded": b" 7 \n\t8\t\n",
    "two per line": b"1 2\n",
    "two per line everywhere": b"1 2\n3 4\n",
    "trailing comment": b"3 # x\n",
    "20 digits": b"1\n12345678901234567890\n",
    "int64 edges": b"9223372036854775807\n-9223372036854775808\n",
    "empty": b"",
    "only blanks": b"\n \n",
    "float": b"1\n2.0\n",
    "non-ascii digit": "1\n\u0663\n".encode(),
    "non-ascii letter": "1\n7\u01fe\n".encode(),
    "vertical tab inside": b"7\x0b8\n",
    "negative": b"-3\n4\n",
}


@pytest.mark.parametrize("name", INT_FILE_CASES)
def test_read_int_lines_matches_line_loop(tmp_path, name):
    path = tmp_path / "ints.txt"
    path.write_bytes(INT_FILE_CASES[name])
    assert outcome(read_int_lines, str(path)) == outcome(reference_int_lines, str(path))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from(list("0123456789 -+_#\n\r\t\x0b\x0c.e\u0663")), max_size=30))
def test_read_int_lines_matches_line_loop_on_random_text(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("ints") / "ints.txt"
    path.write_bytes(text.encode())
    assert outcome(read_int_lines, str(path)) == outcome(reference_int_lines, str(path))


def test_histogram_file_range_errors_name_the_line(tmp_path):
    path = tmp_path / "hist.txt"
    path.write_text("1\n2\n-1\n")
    with pytest.raises(ValueError, match=r":3: negative count -1"):
        read_histogram(str(path), n=4)
    path.write_text("1\n# c\n12345678901234567890\n")
    with pytest.raises(ValueError, match=r":3: count 12345678901234567890 exceeds the maximum n=4"):
        read_histogram(str(path), n=4)
    # the first bad line wins, whichever check it fails
    path.write_text("1\n9\noops\n")
    with pytest.raises(ValueError, match=r":2: count 9 exceeds"):
        read_histogram(str(path), n=4)
    path.write_text("# nothing\n\n")
    with pytest.raises(ValueError, match="no counts"):
        read_histogram(str(path), n=4)
    # a maximum count below 1 is refused before the file is read
    with pytest.raises(ValueError, match=r"^maximum count n must be >= 1, got -3$"):
        read_histogram(str(tmp_path / "missing.txt"), n=-3)


# --- sketch files --------------------------------------------------------------

def test_write_sketch_bytes_match_streamed_json(tmp_path):
    s = PrivateSketch(counts=np.array([5, 0, 6, 1]), epsilon=0.5, n=6, clipped=True)
    path = tmp_path / "sketch.json"
    write_sketch(str(path), s)
    streamed = io.StringIO()
    json.dump({"version": 1, "epsilon": 0.5, "n": 6, "d": 4, "clipped": True,
               "counts": [5, 0, 6, 1]}, streamed)
    assert path.read_bytes() == (streamed.getvalue() + "\n").encode()
    assert path.read_bytes() == (
        b'{"version": 1, "epsilon": 0.5, "n": 6, "d": 4, "clipped": true, '
        b'"counts": [5, 0, 6, 1]}\n'
    )


GOOD_SKETCH = {"version": 1, "epsilon": 1.0, "n": 8, "d": 3, "clipped": False,
               "counts": [1, 2, 3]}

BAD_SKETCHES = {
    "fractional counts": dict(GOOD_SKETCH, counts=[1.7, 2.2, 3.9]),
    "integral floats": dict(GOOD_SKETCH, counts=[1.0, 2, 3]),
    "bool counts": dict(GOOD_SKETCH, counts=[1, True, 3]),
    "string counts": dict(GOOD_SKETCH, counts=["1", 2, 3]),
    "nested counts": dict(GOOD_SKETCH, counts=[[1], 2, 3]),
    "counts not a list": dict(GOOD_SKETCH, counts={"a": 1}),
    "huge count": dict(GOOD_SKETCH, counts=[1, 2**70, 3]),
    "empty counts": dict(GOOD_SKETCH, d=0, counts=[]),
    "missing d": {k: v for k, v in GOOD_SKETCH.items() if k != "d"},
    "extra key": dict(GOOD_SKETCH, note="x"),
    "not an object": [1, 2, 3],
    "version 2": dict(GOOD_SKETCH, version=2),
    "version true": dict(GOOD_SKETCH, version=True),
    "float n": dict(GOOD_SKETCH, n=8.0),
    "zero n": dict(GOOD_SKETCH, n=0),
    "string d": dict(GOOD_SKETCH, d="3"),
    "wrong d": dict(GOOD_SKETCH, d=4),
    "clipped as int": dict(GOOD_SKETCH, clipped=0),
    "string epsilon": dict(GOOD_SKETCH, epsilon="1.0"),
    "nan epsilon": dict(GOOD_SKETCH, epsilon=float("nan")),
    "infinite epsilon": dict(GOOD_SKETCH, epsilon=float("inf")),
    "zero epsilon": dict(GOOD_SKETCH, epsilon=0),
    "clipped out of range": dict(GOOD_SKETCH, clipped=True, counts=[1, 9, 3]),
}


@pytest.mark.parametrize("name", BAD_SKETCHES)
def test_read_sketch_rejects_malformed_files(tmp_path, name):
    path = tmp_path / "sketch.json"
    path.write_text(json.dumps(BAD_SKETCHES[name]))
    with pytest.raises(ValueError, match="sketch.json"):
        read_sketch(str(path))


def test_read_sketch_rejects_n_above_cap(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**GOOD_SKETCH, "n": 10**12}))
    with pytest.raises(ValueError, match=f"^{path}: n=1000000000000 is above"):
        read_sketch(str(path))


def test_read_sketch_accepts_integer_epsilon(tmp_path):
    path = tmp_path / "sketch.json"
    path.write_text(json.dumps(dict(GOOD_SKETCH, epsilon=2)))
    s = read_sketch(str(path))
    assert s.epsilon == 2.0 and s.counts.tolist() == [1, 2, 3]


# --- sketch codec: the vectorised writer and reader against plain json ------------

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def reference_read_sketch(path):
    """The plain json reader every read_sketch outcome must equal."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply for a sketch") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    keys = {"version", "epsilon", "n", "d", "clipped", "counts"}
    if not isinstance(obj, dict) or obj.keys() != keys:
        found = sorted(obj) if isinstance(obj, dict) else f"a JSON {type(obj).__name__}"
        raise ValueError(
            f"{path}: a sketch is a JSON object with the keys {sorted(keys)}, got {found}"
        )
    version, epsilon, n, d = obj["version"], obj["epsilon"], obj["n"], obj["d"]
    clipped, counts = obj["clipped"], obj["counts"]
    if type(version) is not int or version != 1:
        raise ValueError(f"{path}: unsupported sketch version {version!r}")
    if type(n) is not int or n < 1:
        raise ValueError(f"{path}: n must be an integer >= 1, got {n!r}")
    if type(d) is not int:
        raise ValueError(f"{path}: d must be an integer, got {d!r}")
    if type(clipped) is not bool:
        raise ValueError(f"{path}: clipped must be true or false, got {clipped!r}")
    if type(epsilon) not in (int, float):
        raise ValueError(f"{path}: epsilon must be a number, got {epsilon!r}")
    if type(counts) is not list:
        raise ValueError(f"{path}: counts must be a list of integers")
    stray = set(map(type, counts)) - {int}
    if stray:
        names = ", ".join(sorted(t.__name__ for t in stray))
        raise ValueError(f"{path}: counts must be integers, found {names}")
    if len(counts) != d:
        raise ValueError(f"{path}: d={d} but {len(counts)} counts present")
    try:
        return PrivateSketch(
            counts=np.fromiter(counts, dtype=np.int64, count=len(counts)),
            epsilon=float(epsilon), n=n, clipped=clipped,
        )
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def sketch_outcome(reader, path):
    """The sketch a reader returns, as plain values, or its full error message."""
    try:
        s = reader(path)
    except ValueError as exc:
        return str(exc)
    return s.counts.tolist(), s.counts.dtype, s.epsilon, s.n, s.clipped


def digit_count_cases():
    for digits in range(1, 20):
        low, high = 10 ** (digits - 1), min(10**digits - 1, INT64_MAX)
        for sign in (1, -1):
            yield f"{sign * low:+d}..{sign * high:+d}", [sign * low, sign * high, 0]


CODEC_CASES = {
    "one element": [7],
    "all zeros": [0] * 17,
    "int64 limits": [INT64_MIN, INT64_MAX, -1, 0, 1],
    **dict(digit_count_cases()),
    "random int64": np.random.default_rng(5).integers(
        INT64_MIN, INT64_MAX, 100_000, endpoint=True
    ).tolist(),
}


def check_codec_case(tmp_path, counts):
    """write_sketch gives json.dumps's bytes, which read back by the fast parse."""
    s = PrivateSketch(counts=np.array(counts, dtype=np.int64), epsilon=0.25, n=3,
                      clipped=False)
    path = tmp_path / "sketch.json"
    write_sketch(str(path), s)
    obj = {"version": 1, "epsilon": 0.25, "n": 3, "d": len(counts), "clipped": False,
           "counts": counts}
    assert path.read_bytes() == (json.dumps(obj) + "\n").encode()
    assert _parse_canonical(path.read_bytes()) is not None
    assert sketch_outcome(read_sketch, str(path)) == sketch_outcome(
        reference_read_sketch, str(path))


@pytest.mark.parametrize("name", CODEC_CASES)
def test_write_sketch_bytes_equal_json_dumps(tmp_path, name):
    check_codec_case(tmp_path, CODEC_CASES[name])


@pytest.mark.parametrize("newline", ["", "\n"], ids=["bare", "newline"])
@pytest.mark.parametrize("name", ["good", *BAD_SKETCHES])
def test_read_sketch_matches_json_reader(tmp_path, name, newline):
    # with the newline the layout is write_sketch's, which the fast parse takes
    obj = GOOD_SKETCH if name == "good" else BAD_SKETCHES[name]
    path = tmp_path / "sketch.json"
    path.write_text(json.dumps(obj) + newline)
    expected = sketch_outcome(reference_read_sketch, str(path))
    assert sketch_outcome(read_sketch, str(path)) == expected
    if name == "good":
        assert expected[0] == [1, 2, 3]


GOOD_HEAD = b'{"version": 1, "epsilon": 1.0, "n": 8, "d": 2, "clipped": false, '

LAYOUT_CASES = {
    "canonical": GOOD_HEAD + b'"counts": [1, 2]}\n',
    "leading zero": GOOD_HEAD + b'"counts": [01, 2]}\n',
    "minus zero": GOOD_HEAD.replace(b'"d": 2', b'"d": 1') + b'"counts": [-0]}\n',
    "no space": GOOD_HEAD + b'"counts": [1,2]}\n',
    "two spaces": GOOD_HEAD + b'"counts": [1,  2]}\n',
    "trailing comma": GOOD_HEAD + b'"counts": [1, 2,]}\n',
    "plus sign": GOOD_HEAD + b'"counts": [+1, 2]}\n',
    "20 digits": GOOD_HEAD + b'"counts": [1, 12345678901234567890]}\n',
    "just past int64": GOOD_HEAD + b'"counts": [1, 9223372036854775808]}\n',
    "float": GOOD_HEAD + b'"counts": [1, 2.0]}\n',
    "exponent": GOOD_HEAD + b'"counts": [1, 2e0]}\n',
    "no trailing newline": GOOD_HEAD + b'"counts": [1, 2]}',
    "no closing brace": GOOD_HEAD + b'"counts": [1, 2]]\n',
    "extra bracket": GOOD_HEAD + b'"counts": [1, 2]]}\n',
    "crlf": GOOD_HEAD + b'"counts": [1, 2]}\r\n',
    "bom": b"\xef\xbb\xbf" + GOOD_HEAD + b'"counts": [1, 2]}\n',
    "duplicate counts key": GOOD_HEAD.replace(b"{", b'{"counts": [7], ', 1)
    + b'"counts": [1, 2]}\n',
    "counts key inside a key": GOOD_HEAD + b'"a\\"counts": [1, 2]}\n',
    "counts key inside a key after counts": GOOD_HEAD
    + b'"counts": [], "a\\"counts": [1, 2]}\n',
    "counts key inside a value": b'{"note": "\\"counts\\": [1, 2]}\\n", '
    + GOOD_HEAD[1:] + b'"counts": [1, 2]}\n',
    "counts not last": GOOD_HEAD.replace(b"{", b'{"counts": [1, 2], ', 1)[:-2]
    + b'}\n',
    "nested object": b'{"a": ' + GOOD_HEAD + b'"counts": [1, 2]}\n',
    "not utf-8": GOOD_HEAD.replace(b"false", b"f\xffalse") + b'"counts": [1, 2]}\n',
    "syntax error": b'{"version": 1,',
    "nan epsilon": GOOD_HEAD.replace(b"1.0", b"NaN") + b'"counts": [1, 2]}\n',
    "arabic digit": GOOD_HEAD + "\"counts\": [1, ٣]}\n".encode(),
    "empty counts": GOOD_HEAD.replace(b'"d": 2', b'"d": 0') + b'"counts": []}\n',
    "more counts than d": GOOD_HEAD + b'"counts": [1, 2, 3]}\n',
    "fewer counts than d": GOOD_HEAD + b'"counts": [111111]}\n',
}


# json.loads gives these the object the fast parse builds (a repeated key:
# the last wins); every other case must be left to json
FAST_LAYOUTS = {"canonical", "duplicate counts key", "nan epsilon", "empty counts"}


@pytest.mark.parametrize("name", LAYOUT_CASES)
def test_read_sketch_matches_json_reader_off_the_canonical_layout(tmp_path, name):
    path = tmp_path / "sketch.json"
    path.write_bytes(LAYOUT_CASES[name])
    assert (_parse_canonical(LAYOUT_CASES[name]) is not None) == (name in FAST_LAYOUTS)
    assert sketch_outcome(read_sketch, str(path)) == sketch_outcome(
        reference_read_sketch, str(path))


MUTATION_BYTES = st.sampled_from([*b"0123456789-+,. e]\n\r\t", *b'"\\[{}x', 0xFF])


MUTATED_COUNTS = dict(
    counts=st.lists(st.integers(INT64_MIN, INT64_MAX), min_size=1, max_size=6),
    edits=st.lists(
        st.tuples(st.sampled_from(["insert", "replace", "delete"]),
                  st.integers(0, 10**6), MUTATION_BYTES),
        min_size=1, max_size=4,
    ),
)


def check_mutated_counts(tmp_path_factory, counts, edits):
    canonical = json.dumps(dict(GOOD_SKETCH, d=len(counts), counts=counts)) + "\n"
    data = bytearray(canonical.encode())
    lo = data.rindex(b"[")
    for op, where, byte in edits:  # edit the counts list, brackets and tail included
        at = lo + where % (len(data) - lo)
        if op == "insert":
            data.insert(at, byte)
        elif op == "replace":
            data[at] = byte
        elif len(data) - lo > 1:
            del data[at]
    path = tmp_path_factory.mktemp("sketch") / "sketch.json"
    path.write_bytes(bytes(data))
    assert sketch_outcome(read_sketch, str(path)) == sketch_outcome(
        reference_read_sketch, str(path))


@settings(max_examples=400, deadline=None)
@given(**MUTATED_COUNTS)
def test_read_sketch_matches_json_reader_on_mutated_counts(tmp_path_factory, counts, edits):
    check_mutated_counts(tmp_path_factory, counts, edits)


# --- the codec in blocks: cuts between pieces, and peak memory ----------------------

def cut_small(monkeypatch, piece=5, block=3):
    """Parse the counts in pieces of about `piece` bytes, format `block` at a time."""
    monkeypatch.setattr(mechanism, "_PARSE_PIECE", piece)
    monkeypatch.setattr(mechanism, "_FORMAT_BLOCK", block)


@settings(max_examples=400, deadline=None)
@given(**MUTATED_COUNTS)
def test_read_sketch_in_small_pieces_matches_json_reader_on_mutated_counts(
    tmp_path_factory, counts, edits
):
    with pytest.MonkeyPatch.context() as monkeypatch:
        cut_small(monkeypatch)
        check_mutated_counts(tmp_path_factory, counts, edits)


SMALL_PIECE_FILES = {
    **LAYOUT_CASES,
    **{f"{name} (json.dumps)": (json.dumps(obj) + "\n").encode()
       for name, obj in BAD_SKETCHES.items()},
}


@pytest.mark.parametrize("name", SMALL_PIECE_FILES)
def test_read_sketch_in_small_pieces_matches_json_reader(tmp_path, monkeypatch, name):
    cut_small(monkeypatch)
    data = SMALL_PIECE_FILES[name]
    path = tmp_path / "sketch.json"
    path.write_bytes(data)
    if name in LAYOUT_CASES:
        assert (_parse_canonical(data) is not None) == (name in FAST_LAYOUTS)
    assert sketch_outcome(read_sketch, str(path)) == sketch_outcome(
        reference_read_sketch, str(path))


@pytest.mark.parametrize("name", CODEC_CASES)
def test_codec_in_small_pieces_keeps_bytes_and_fast_path(tmp_path, monkeypatch, name):
    counts = CODEC_CASES[name]
    # each cut costs tens of numpy calls: the 100 000 random counts take
    # larger pieces, so that the test runs in seconds, not minutes
    cut_small(monkeypatch, *((5, 3) if len(counts) < 1000 else (4096, 256)))
    check_codec_case(tmp_path, counts)


# (d, counts text) for pieces of 1 to 8 bytes, so that some cut lands on each defect
CUT_BODIES = {
    "canonical": (4, b"1111, -1, 22, 0"),
    "no space": (3, b"1111, 1,2"),
    "leading zero": (2, b"1111, 01"),
    "minus zero": (2, b"1111, -0"),
    "trailing separator": (2, b"1111, 2, "),
    "trailing separator counted in d": (3, b"1111, 2, "),
    "a count past d": (2, b"1111, 2, 3"),
    "20 digits across a cut": (3, b"1, 12345678901234567890, 3"),
}


@pytest.mark.parametrize("piece", range(1, 9))
@pytest.mark.parametrize("name", CUT_BODIES)
def test_read_sketch_decides_a_defect_on_a_cut_as_json_does(tmp_path, monkeypatch, name, piece):
    cut_small(monkeypatch, piece, block=2)
    d, body = CUT_BODIES[name]
    data = GOOD_HEAD.replace(b'"d": 2', b'"d": %d' % d) + b'"counts": [' + body + b"]}\n"
    path = tmp_path / "sketch.json"
    path.write_bytes(data)
    assert (_parse_canonical(data) is not None) == (name == "canonical")
    assert sketch_outcome(read_sketch, str(path)) == sketch_outcome(
        reference_read_sketch, str(path))


# json writes a zero only as the token "0": the others with a leading zero
# are off write_sketch's layout (json refuses them, or reads -0 as 0)
ZERO_TOKENS = {b"0": True, b"-0": False, b"00": False, b"01": False, b"-01": False,
               b"10": True, b"-10": True}


@pytest.mark.parametrize("piece", [*range(1, 9), 2**17])
@pytest.mark.parametrize("place", ["first", "middle", "last"])
@pytest.mark.parametrize("token", ZERO_TOKENS)
def test_read_sketch_decides_leading_zeros_as_json_does(tmp_path, monkeypatch, token, place,
                                                        piece):
    # small pieces put the token first or last in its piece, either side of a cut
    monkeypatch.setattr(mechanism, "_PARSE_PIECE", piece)
    body = {"first": token + b", 1111, 2", "middle": b"1111, " + token + b", 22",
            "last": b"1111, 2, " + token}[place]
    data = GOOD_HEAD.replace(b'"d": 2', b'"d": 3') + b'"counts": [' + body + b"]}\n"
    path = tmp_path / "sketch.json"
    path.write_bytes(data)
    assert (_parse_canonical(data) is not None) == ZERO_TOKENS[token]
    assert sketch_outcome(read_sketch, str(path)) == sketch_outcome(
        reference_read_sketch, str(path))


def test_read_sketch_allocates_nothing_for_a_d_the_text_cannot_hold(tmp_path):
    # every count but the last takes at least 3 bytes, so d = 10**12 is refused
    # by the json reader's message before any array is allocated
    data = GOOD_HEAD.replace(b'"d": 2', b'"d": 1000000000000') + b'"counts": [1, 2]}\n'
    path = tmp_path / "sketch.json"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        assert _parse_canonical(data) is None
        outcome = sketch_outcome(read_sketch, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome == f"{path}: d=1000000000000 but 2 counts present"
    assert peak < 2**20


def sketch_d1e6():
    rng = np.random.default_rng(9001)
    h = Histogram(counts=rng.integers(0, 33, 10**6), n=32)
    return privatize(h, 1.0, clip=False, rng=rng)


def test_write_sketch_peak_allocation_is_a_few_blocks(tmp_path):
    s = sketch_d1e6()
    tracemalloc.start()
    try:
        write_sketch(str(tmp_path / "sketch.json"), s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4_000_000


def test_read_sketch_peak_allocation_is_the_file_and_the_counts(tmp_path):
    # numpy reports its buffers to tracemalloc: the file's bytes, the d counts
    # and the pieces in flight
    s = sketch_d1e6()
    path = tmp_path / "sketch.json"
    write_sketch(str(path), s)
    tracemalloc.start()
    try:
        back = read_sketch(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.counts, s.counts)
    assert peak <= path.stat().st_size + 8 * s.d + 4_000_000


@pytest.mark.parametrize("data", [b'{"version": 1,', b'{"version": \xff1}'],
                         ids=["syntax error", "not utf-8"])
def test_read_sketch_undecodable_file_names_the_path(tmp_path, data):
    path = tmp_path / "sketch.json"
    path.write_bytes(data)
    with pytest.raises(ValueError) as err:
        read_sketch(str(path))
    assert str(err.value).startswith(f"{path}: ")


# --- the one-pass parse of integer files: cuts, the layouts it takes, peak memory ---

# line bodies for pieces of 1 to 8 bytes, so that some cut lands on each defect
LINE_CUT_BODIES = {
    "plain": b"1111\n22\n-3\n0\n",
    "a minus inside a line": b"1111\n2-2\n3\n",
    "a lone minus": b"1111\n-\n3\n",
    "two minus signs": b"11\n--3\n",
    "cr": b"1111\r22\r-3\r4",
    "crlf": b"1111\r\n22\r\n-3\r\n",
    "mixed line ends": b"1111\n22\r-3\r\n4\n",
    "blank lines": b"\n1111\n\n\n22\n\n",
    "19 digits": b"1\n9223372036854775807\n-9223372036854775808\n3\n",
    "19 digits past int64": b"1\n9223372036854775808\n3\n",
    "19 digits below int64": b"1\n-9223372036854775809\n3\n",
    "20 digits": b"1\n12345678901234567890\n",
    "a comment line": b"1111\n# 22\n3\n",
    "a hash inside a line": b"1111\n2#2\n3\n",
}

# bodies the one-pass parse must take; it may decline a file that mixes line ends
ONE_PASS_LINE_BODIES = {"plain", "cr", "crlf", "blank lines", "19 digits"}


def one_pass_spy(monkeypatch) -> list:
    """The output arrays of the _parse_ints calls that took their text, as made."""
    taken, parse = [], mechanism._parse_ints

    def spy(data, pos, end, out, sep):
        filled = parse(data, pos, end, out, sep)
        if filled is not None:
            taken.append(out)
        return filled

    monkeypatch.setattr(mechanism, "_parse_ints", spy)
    return taken


def from_one_pass(taken: list, result: np.ndarray) -> bool:
    """Whether result lies in an array that the one-pass parse filled: the line
    loop and json build new arrays, so equal values alone would not tell."""
    return any(np.shares_memory(result, out) for out in taken)


@pytest.mark.parametrize("piece", range(1, 9))
@pytest.mark.parametrize("name", LINE_CUT_BODIES)
def test_read_int_lines_decides_a_defect_on_a_cut_as_the_line_loop_does(
    tmp_path, monkeypatch, name, piece
):
    monkeypatch.setattr(mechanism, "_PARSE_PIECE", piece)
    path = tmp_path / "ints.txt"
    path.write_bytes(LINE_CUT_BODIES[name])
    expected = outcome(reference_int_lines, str(path))
    taken = one_pass_spy(monkeypatch)
    assert outcome(read_int_lines, str(path)) == expected
    if name in ONE_PASS_LINE_BODIES:
        assert from_one_pass(taken, read_int_lines(str(path)))


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet=st.sampled_from(list("0123456789 -+_#\n\r\t\x0b\x0c.e٣")),
                    max_size=60),
       piece=st.integers(1, 8))
def test_read_int_lines_in_small_pieces_matches_line_loop_on_random_text(
    tmp_path_factory, text, piece
):
    path = tmp_path_factory.mktemp("ints") / "ints.txt"
    path.write_bytes(text.encode())
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(mechanism, "_PARSE_PIECE", piece)
        assert outcome(read_int_lines, str(path)) == outcome(reference_int_lines, str(path))


@pytest.mark.parametrize("name", ["plain", "crlf", "no trailing newline", "negative",
                                  "int64 edges"])
def test_one_pass_parse_takes_the_common_int_files(tmp_path, monkeypatch, name):
    path = tmp_path / "ints.txt"
    path.write_bytes(INT_FILE_CASES[name])
    taken = one_pass_spy(monkeypatch)
    values = read_int_lines(str(path))
    assert values.tolist() == reference_int_lines(str(path)).tolist()
    assert from_one_pass(taken, values)


@pytest.mark.parametrize("name", CODEC_CASES)
def test_one_pass_parse_takes_every_written_sketch(tmp_path, monkeypatch, name):
    counts = CODEC_CASES[name]
    path = tmp_path / "sketch.json"
    write_sketch(str(path), PrivateSketch(counts=np.array(counts, dtype=np.int64),
                                          epsilon=0.25, n=3, clipped=False))
    taken = one_pass_spy(monkeypatch)
    back = read_sketch(str(path))
    assert back.counts.tolist() == counts
    assert from_one_pass(taken, back.counts)


# counts texts off write_sketch's layout by a separator: json refuses the first
# five (each "," in them is followed by a " ") and reads the others' spaces
SEPARATOR_BODIES = [b"1, , 2", b", 1, 2", b"1, 2, ", b"1, 2, , ", b", , 1",
                    b" 1, 2", b"1,  2", b"1 , 2", b"1, 2 "]


@pytest.mark.parametrize("piece", [1, 2, 3, 2**17])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("body", SEPARATOR_BODIES)
def test_read_sketch_decides_stray_separators_as_json_does(tmp_path, monkeypatch, body, d, piece):
    monkeypatch.setattr(mechanism, "_PARSE_PIECE", piece)
    data = GOOD_HEAD.replace(b'"d": 2', b'"d": %d' % d) + b'"counts": [' + body + b"]}\n"
    path = tmp_path / "sketch.json"
    path.write_bytes(data)
    assert _parse_canonical(data) is None
    assert sketch_outcome(read_sketch, str(path)) == sketch_outcome(
        reference_read_sketch, str(path))


def test_read_histogram_peak_allocation_is_the_file_and_the_counts(tmp_path):
    counts = np.random.default_rng(9001).integers(0, 33, 10**6)
    path = tmp_path / "hist.txt"
    path.write_text("\n".join(map(str, counts.tolist())) + "\n")
    tracemalloc.start()
    try:
        h = read_histogram(str(path), n=32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(h.counts, counts)
    assert peak <= path.stat().st_size + 8 * len(counts) + 4_000_000


@pytest.mark.parametrize("reader", [lambda path: read_histogram(path, n=4), read_int_lines,
                                    read_sketch], ids=["histogram", "int lines", "sketch"])
def test_every_reader_names_a_missing_file_as_open_does(tmp_path, reader):
    path = str(tmp_path / "missing")
    with pytest.raises(FileNotFoundError) as err:
        reader(path)
    assert str(err.value) == f"[Errno 2] No such file or directory: {path!r}"
