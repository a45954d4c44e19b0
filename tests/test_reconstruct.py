"""Tests for fast inversion, rounding, and the end-to-end reconstruction."""

import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from dpprofile import circulant, mechanism, reconstruct
from dpprofile.mechanism import (
    Histogram,
    PrivateSketch,
    empirical_profile,
    privatize,
)
from dpprofile.params import ReconstructionConfig
from dpprofile.reconstruct import (
    Profile,
    RelaxedSolution,
    cached_operator,
    fast_inversion,
    reconstruct_profile,
    rounding,
    threshold_tau,
    write_profile_csv,
)
from dpprofile._util import lp_norm
from dpprofile.twoparty import protocol_config

from helpers import random_feasible, random_profile
from oracle import (
    bisection_tau,
    circular_apply,
    dense_operator,
    dense_solve,
    direction_vector,
    equality_constrained_ls,
    iterated_adjustment,
    unfold,
)


def make_cfg(n, B, eps, d=1000, p="l2"):
    return ReconstructionConfig(epsilon=eps, eta=0.05, n=n, d=d, B=B, p_norm=p)


# --- direction vector -------------------------------------------------------

def test_direction_vector_l1():
    a = direction_vector(np.array([3.0, -5.0, 1.0]), "l1")
    np.testing.assert_array_equal(a, [0.0, -1.0, 0.0])


def test_direction_vector_l1_tie_takes_lowest_index():
    a = direction_vector(np.array([2.0, -2.0, 1.0]), "l1")
    np.testing.assert_array_equal(a, [1.0, 0.0, 0.0])


def test_direction_vector_l2():
    a = direction_vector(np.array([3.0, 4.0]), "l2")
    np.testing.assert_allclose(a, [0.6, 0.8])


def test_direction_vector_linf():
    a = direction_vector(np.array([3.0, -5.0, 1.0]), "linf")
    np.testing.assert_array_equal(a, [1.0, -1.0, 1.0])
    # sign(0) is +1 by convention
    a0 = direction_vector(np.array([0.0, -1.0]), "linf")
    np.testing.assert_array_equal(a0, [1.0, -1.0])


def test_direction_vector_rejects_zero():
    with pytest.raises(ValueError):
        direction_vector(np.zeros(4), "l2")


@pytest.mark.parametrize("p", ["l1", "l2", "linf"])
def test_direction_vector_has_unit_norm(p):
    rng = np.random.default_rng(0)
    for _ in range(20):
        c = rng.normal(size=rng.integers(1, 30))
        a = direction_vector(c, p)
        assert lp_norm(a, p) == pytest.approx(1.0, abs=1e-12)


# --- fast inversion -----------------------------------------------------------

@pytest.mark.parametrize("p", ["l1", "l2", "linf"])
def test_fast_inversion_noiseless_consistency(p):
    cfg = make_cfg(16, 3, 1.0)
    op = cached_operator(cfg)
    rng = np.random.default_rng(7)
    f = np.concatenate([np.zeros(3), random_profile(16, 1000, rng), np.zeros(3)])
    f_tilde = dense_operator(cfg).entries @ f
    r = fast_inversion(op, f_tilde, p)
    np.testing.assert_allclose(r.values, f, atol=1e-8)


@pytest.mark.parametrize("p", ["l1", "l2", "linf"])
def test_fast_inversion_satisfies_sum_constraint(p):
    cfg = make_cfg(24, 5, 0.7)
    op = cached_operator(cfg)
    rng = np.random.default_rng(11)
    for _ in range(20):
        f_tilde = np.abs(rng.normal(size=op.m))
        f_tilde /= f_tilde.sum()
        r = fast_inversion(op, f_tilde, p)
        assert float(r.core().sum()) == pytest.approx(1.0, abs=1e-9)


def test_fast_inversion_matches_constrained_least_squares():
    cfg = make_cfg(32, 4, 1.0)
    op = cached_operator(cfg)
    dense = dense_operator(cfg)
    rng = np.random.default_rng(13)
    for _ in range(20):
        f_tilde = np.abs(rng.normal(size=op.m))
        f_tilde /= f_tilde.sum()
        fast = fast_inversion(op, f_tilde, "l2").values
        exact = equality_constrained_ls(dense, f_tilde)
        np.testing.assert_allclose(fast, exact, atol=1e-7)


@pytest.mark.parametrize("p", ["l1", "linf"])
def test_fast_inversion_dominates_random_competitors(p):
    cfg = make_cfg(16, 3, 1.0)
    op, dense = cached_operator(cfg), dense_operator(cfg)
    rng = np.random.default_rng(19)
    for _ in range(10):
        f_tilde = np.abs(rng.normal(size=op.m))
        f_tilde /= f_tilde.sum()
        r = fast_inversion(op, f_tilde, p)
        obj = lp_norm(dense.entries @ r.values - f_tilde, p)
        for _ in range(50):
            v = random_feasible(op.m, op.n, op.B, rng)
            competitor = lp_norm(dense.entries @ v - f_tilde, p)
            assert obj <= competitor + 1e-9


# --- threshold search ---------------------------------------------------------

def test_threshold_tau_hand_traced_example():
    assert threshold_tau(np.array([1.0, 0.1, 0.0]), 0.1) == pytest.approx(0.05)


def test_threshold_tau_edge_cases():
    r = np.array([0.3, 0.5, 0.2])
    assert threshold_tau(r, 0.0) == 0.0
    assert threshold_tau(r, float(r.sum())) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        threshold_tau(r, -0.1)
    with pytest.raises(ValueError):
        threshold_tau(r, 1.5)
    assert threshold_tau(np.array([]), 0.0) == 0.0
    assert threshold_tau(np.array([]), 5e-10) == 5e-10


def structured_drain_cases(rng, count):
    """(r, s) pairs of up to 1e4 entries in [0, 1] with ties, zeros and ones,
    and targets s spread over [0, sum r] and pressed against both ends."""
    for _ in range(count):
        k = int(np.exp(rng.uniform(0, np.log(10**4))))
        r = rng.uniform(0, 1, size=k)
        kinds = rng.integers(0, 4, size=k)
        r[kinds == 1] = 0.0
        r[kinds == 2] = 1.0
        r[kinds == 3] = rng.choice(r[:3], size=int(np.sum(kinds == 3)))  # ties
        total = float(r.sum())
        frac = rng.choice([rng.uniform(0, 1), 1e-9, 1e-6, 1 - 1e-6, 1 - 1e-12, 1.0])
        yield r, frac * total


def one_drop_per_pass(length):
    """Entries on which each fixed-point threshold pass (tau = (s - mass of
    the entries dropped so far) / #entries kept) drops exactly one, and the
    target.

    A chain of `length` entries below one entry of 1: the chain's j-th entry
    sits just under the j-th pass's threshold and above the one before, so
    such passes end only when the chain is used up, after length + 1 passes.
    """
    k = length + 1
    tau, gap = 0.5, 0.25
    chain = []
    for j in range(1, length + 1):
        chain.append(tau - gap)  # dropped by pass j, kept by pass j - 1
        step = gap / (k - j)  # the rise of the threshold once it is dropped
        tau, gap = tau + step, step / 2
    r = np.array(chain + [1.0])
    return np.random.default_rng(3).permutation(r), k * 0.5  # s: tau_1 = s / k


def test_threshold_tau_agrees_with_bisection():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        r = rng.uniform(0, 1, size=rng.integers(1, 40))
        s = rng.uniform(0, float(r.sum()))
        fast = threshold_tau(r, s)
        slow = bisection_tau(r, s)
        assert abs(fast - slow) <= 1e-9
        assert float(np.minimum(fast, r).sum()) == pytest.approx(s, abs=1e-9)
    # inputs on which fixed-point passes converge slowly: one entry per pass,
    # and a dense ramp with tau pressed against its top
    adversarial = [one_drop_per_pass(10), (np.linspace(0, 1, 10001), 0.999999 * 5000.5)]
    for r, s in [*structured_drain_cases(rng, 200), *adversarial]:
        fast = threshold_tau(r, s)
        assert abs(fast - bisection_tau(r, s)) <= 1e-9
        assert float(np.minimum(fast, r).sum()) == pytest.approx(s, abs=1e-9)


def spy_on_sorts(monkeypatch):
    """Record the (r, s) of every _sorted_threshold call."""
    sort = reconstruct._sorted_threshold
    calls = []

    def spy(r, s):
        calls.append((r, s))
        return sort(r, s)

    monkeypatch.setattr(reconstruct, "_sorted_threshold", spy)
    return calls


def whole_sorts(calls, r):
    """The recorded sorts of all of r: the short-input and bracket-miss exits."""
    return [call for call in calls if len(call[0]) == len(r)]


def test_threshold_tau_sorts_a_short_input_whole(monkeypatch):
    # under 321 entries no sample entry can bound tau: one sort of all of r
    rng = np.random.default_rng(59)
    calls = spy_on_sorts(monkeypatch)
    for length in (1, 33, 200, 320):
        r = rng.uniform(0, 1, size=length)
        s = 0.3 * float(r.sum())
        calls.clear()
        tau = threshold_tau(r, s)
        assert len(calls) == 1 and len(whole_sorts(calls, r)) == 1
        assert abs(tau - bisection_tau(r, s)) <= 1e-9


def wide_relaxed_solutions(seed=4244):
    """Relaxed l2 solutions at n = d = 1e6 for eps 0.5, 1, 1.5 and 2: one
    uniform-counts histogram with discrete-Laplace noise drawn as the
    difference of two geometric variables, as the benchmark's wide_n inputs
    are drawn from its seed."""
    n = d = 10**6
    state = np.random.SeedSequence(seed).generate_state(5, dtype=np.uint64)
    hist_seed, *noise_seeds = [int(v) >> 1 for v in state]
    hist = np.random.default_rng(hist_seed).integers(0, n + 1, d)
    for eps, noise_seed in zip((0.5, 1.0, 1.5, 2.0), noise_seeds):
        rng = np.random.default_rng(noise_seed)
        q = 1.0 - math.exp(-eps)
        counts = hist + rng.geometric(q, d) - rng.geometric(q, d)
        sketch = PrivateSketch(counts=counts, epsilon=eps, n=n, clipped=False)
        cfg = ReconstructionConfig(epsilon=eps, eta=0.05, n=n, d=d)
        yield fast_inversion(cached_operator(cfg), empirical_profile(sketch, cfg))


def test_bracketed_threshold_agrees_with_sorting_at_scale(monkeypatch):
    for relaxed in wide_relaxed_solutions():
        clipped = np.clip(relaxed.core(), 0.0, 1.0)
        s = float(clipped.sum()) - relaxed.core_sum
        expected = reconstruct._sorted_threshold(clipped, s)
        with monkeypatch.context() as patch:
            calls = spy_on_sorts(patch)
            tau = reconstruct._bracket_threshold(clipped, s)
        assert whole_sorts(calls, clipped) == [], "the sampled bracket missed"
        assert abs(tau - expected) <= 1e-18


@pytest.mark.parametrize("scale", [1, 8])
def test_threshold_tau_falls_back_when_the_bracket_misses(monkeypatch, scale):
    # the sample reads only every 64th entry; those are spread over [0, 1]
    # while every other entry is 0.5, so the sample puts tau near 0.55
    # while the whole array's tau is near 0.4, far outside the bracket;
    # a power-of-two scale of values and target keeps the same miss exactly
    r = np.full(64 * 2500, 0.5 * scale)
    r[::64] = np.linspace(0.0, scale, 2500)
    s = 0.4 * scale * len(r)
    expected = reconstruct._sorted_threshold(r, s)
    calls = spy_on_sorts(monkeypatch)
    tau = threshold_tau(r, s)
    assert len(whole_sorts(calls, r)) == 1
    assert tau == expected
    assert abs(tau - bisection_tau(r, s)) <= 1e-9


def test_rounding_a_wide_window_allocates_under_15_percent_of_it():
    # numpy reports its buffers to tracemalloc: the clip and the drain run in
    # the core itself, and the bracket's sample is sorted once and dropped
    # before the pass; the entries inside the bracket are gathered, then
    # sorted in place and solved beside their prefix sums and plateaus
    relaxed = next(wide_relaxed_solutions())
    core = relaxed.core().copy()
    want = rounding(relaxed, relaxed.n).values
    tracemalloc.start()
    try:
        got = reconstruct._project(core, relaxed.core_sum, out=core)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.values.tobytes() == want.tobytes()
    assert peak <= 0.15 * 8 * len(relaxed.values)


@pytest.mark.parametrize(
    "length",
    [circulant._BLOCK - 1, circulant._BLOCK, circulant._BLOCK + 1, 3 * circulant._BLOCK + 7],
)
def test_blocked_bracket_matches_sorting_across_block_edges(monkeypatch, length):
    rng = np.random.default_rng(length)
    base = rng.exponential(size=length)
    base[rng.random(length) < 0.4] = 0.0  # a clipped window: many zeros
    # entries next to tau on both sides of every block edge and at the end,
    # so a block that loses or repeats an entry moves tau
    edges = [i for b in range(circulant._BLOCK, length, circulant._BLOCK) for i in (b - 1, b)]
    # rounding drains a surplus that is a small share of the window's mass;
    # larger shares leave tau to cancellation in either method
    for frac in (0.01, 0.05, 0.2):
        r = base.copy()
        tau = reconstruct._sorted_threshold(r, frac * float(r.sum()))
        r[edges + [length - 1]] = tau * (1.0 + 1e-3 * rng.uniform(-1, 1, len(edges) + 1))
        total = float(r.sum())
        expected = reconstruct._sorted_threshold(r, frac * total)
        with monkeypatch.context() as patch:
            calls = spy_on_sorts(patch)
            got = reconstruct._bracket_threshold(r, frac * total)
        assert whole_sorts(calls, r) == [], "the sampled bracket missed"
        assert abs(got - expected) <= 1e-15 * expected


def test_blocked_bracket_miss_reaches_the_drain(monkeypatch):
    # test_threshold_tau_falls_back_when_the_bracket_misses's scripted miss,
    # over several blocks and a partial one
    r = np.full(3 * circulant._BLOCK + 7, 0.5)
    r[::64] = np.linspace(0.0, 1.0, len(r[::64]))
    s = 0.4 * len(r)
    expected = reconstruct._sorted_threshold(r, s)
    calls = spy_on_sorts(monkeypatch)
    tau = threshold_tau(r, s)
    assert len(whole_sorts(calls, r)) == 1
    assert tau == expected
    assert abs(tau - bisection_tau(r, s)) <= 1e-9


@seed(1234)
@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    frac=st.floats(0.0, 1.0),
)
def test_threshold_tau_drain_identity(values, frac):
    r = np.array(values)
    s = frac * float(r.sum())
    tau = threshold_tau(r, s)
    assert tau >= 0.0
    assert float(np.minimum(tau, r).sum()) == pytest.approx(s, abs=1e-9)


# --- rounding -----------------------------------------------------------------

def test_rounding_hand_traced_example():
    # window -1..3 for n = 2, B = 1; mass outside 0..n is discarded first
    rel = RelaxedSolution(
        values=np.array([0.15, 1.2, 0.1, -0.3, 0.0]), n=2, B=1, objective_norm="l2"
    )
    out = rounding(rel, 2)
    np.testing.assert_allclose(out.values, [0.95, 0.05, 0.0], atol=1e-12)


def test_rounding_keeps_valid_profiles():
    rng = np.random.default_rng(29)
    f = random_profile(8, 500, rng)
    rel = RelaxedSolution(
        values=np.concatenate([np.zeros(2), f, np.zeros(2)]),
        n=8,
        B=2,
        objective_norm="l1",
    )
    out = rounding(rel, 8)
    np.testing.assert_allclose(out.values, f, atol=1e-12)


def test_rounding_always_feasible():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        n = int(rng.integers(1, 24))
        B = int(rng.integers(0, 6))
        rel = RelaxedSolution(
            values=random_feasible(n + 2 * B + 1, n, B, rng),
            n=n,
            B=B,
            objective_norm="l2",
        )
        out = rounding(rel, n)
        assert out.values.min() >= 0.0
        assert out.values.max() <= 1.0
        assert float(out.values.sum()) == pytest.approx(1.0, abs=1e-9)


def test_rounding_error_control():
    rng = np.random.default_rng(37)
    for _ in range(1000):
        n = int(rng.integers(1, 24))
        B = int(rng.integers(0, 6))
        m = n + 2 * B + 1
        f = np.concatenate([np.zeros(B), random_profile(n, 300, rng), np.zeros(B)])
        r = f + rng.normal(scale=rng.choice([0.05, 0.5, 2.0]), size=m)
        core = r[B : B + n + 1]
        core += (1.0 - core.sum()) / (n + 1)
        rel = RelaxedSolution(values=r, n=n, B=B, objective_norm="l2")
        out = np.concatenate([np.zeros(B), rounding(rel, n).values, np.zeros(B)])
        for p in ("l1", "l2"):
            assert lp_norm(out - f, p) <= lp_norm(r - f, p) + 1e-9
        assert lp_norm(out - f, "linf") <= 2 * lp_norm(r - f, "linf") + 1e-9


def test_rounding_phase3_matches_iterated_adjustment():
    rng = np.random.default_rng(41)
    for _ in range(1000):
        k = int(rng.integers(1, 30))
        r = rng.uniform(0, 1, size=k)
        s = rng.uniform(0, float(r.sum()))
        tau = threshold_tau(r, s)
        via_threshold = r - np.minimum(tau, r)
        via_iteration = iterated_adjustment(r, s)
        np.testing.assert_allclose(via_threshold, via_iteration, atol=1e-9)


@seed(99)
@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 16),
    B=st.integers(0, 4),
    raw=st.lists(st.floats(-3, 3), min_size=25, max_size=25),
)
def test_rounding_feasibility_property(n, B, raw):
    m = n + 2 * B + 1
    values = np.array(raw[:m])
    core = values[B : B + n + 1]
    core += (1.0 - core.sum()) / (n + 1)
    rel = RelaxedSolution(values=values, n=n, B=B, objective_norm="linf")
    out = rounding(rel, n)
    assert out.values.min() >= 0.0 and out.values.max() <= 1.0
    assert float(out.values.sum()) == pytest.approx(1.0, abs=1e-9)


# --- end-to-end pipeline --------------------------------------------------------

def test_reconstruct_noiseless_point_mass():
    d = 2000
    h = Histogram(counts=np.ones(d, dtype=np.int64), n=5)
    cfg = ReconstructionConfig(epsilon=50.0, eta=0.05, n=5, d=d)
    s = privatize(h, 50.0, clip=False, rng=np.random.default_rng(3))
    prof = reconstruct_profile(s, cfg)
    expected = np.zeros(6)
    expected[1] = 1.0
    np.testing.assert_allclose(prof.values, expected, atol=1e-6)


def test_reconstruct_clipped_sketch_requires_rng():
    d = 100
    h = Histogram(counts=np.ones(d, dtype=np.int64), n=5)
    cfg = ReconstructionConfig(epsilon=2.0, eta=0.2, n=5, d=d)
    s = privatize(h, 2.0, clip=True, rng=np.random.default_rng(5))
    with pytest.raises(ValueError, match="rng"):
        reconstruct_profile(s, cfg)
    prof_a = reconstruct_profile(s, cfg, rng=np.random.default_rng(9))
    prof_b = reconstruct_profile(s, cfg, rng=np.random.default_rng(9))
    np.testing.assert_array_equal(prof_a.values, prof_b.values)
    # binned as unfold would unfold it, with the same draws
    unfolded = reconstruct_profile(unfold(s, np.random.default_rng(9)), cfg)
    assert prof_a.values.tobytes() == unfolded.values.tobytes()


def test_reconstruct_deterministic_for_unclipped():
    d = 500
    rng = np.random.default_rng(43)
    h = Histogram(counts=rng.integers(0, 9, size=d), n=8)
    cfg = ReconstructionConfig(epsilon=1.5, eta=0.1, n=8, d=d)
    s = privatize(h, 1.5, clip=False, rng=rng)
    np.testing.assert_array_equal(
        reconstruct_profile(s, cfg).values, reconstruct_profile(s, cfg).values
    )


@pytest.mark.parametrize("p", ["l1", "l2", "linf"])
@pytest.mark.parametrize("clip", [False, True])
@pytest.mark.parametrize("n, d", [(40, 3000), (mechanism._BIN_BLOCK + 100, 40000)])
def test_reconstruction_in_one_buffer_equals_the_public_steps(p, clip, n, d):
    # reconstruct_profile bins, inverts, corrects and rounds in one buffer,
    # on windows shorter and longer than a binning block; the public steps,
    # each into a new array, give the same bytes and leave their inputs'
    # bytes as they were
    rng = np.random.default_rng(n + d)
    h = Histogram(counts=rng.integers(0, n + 1, size=d), n=n)
    s = privatize(h, 0.7, clip=clip, rng=rng)
    cfg = ReconstructionConfig(epsilon=0.7, eta=0.05, n=n, d=d, p_norm=p)
    counts = s.counts.tobytes()
    got = reconstruct_profile(s, cfg, np.random.default_rng(7))
    f = empirical_profile(s, cfg, np.random.default_rng(7))
    f_bytes = f.values.tobytes()
    relaxed = fast_inversion(cached_operator(cfg), f, p)
    relaxed_bytes = relaxed.values.tobytes()
    want = rounding(relaxed, n)
    assert got.values.tobytes() == want.values.tobytes()
    assert s.counts.tobytes() == counts
    assert f.values.tobytes() == f_bytes
    assert relaxed.values.tobytes() == relaxed_bytes
    # the profile is a view of the buffer, which is left read-only too
    with pytest.raises(ValueError):
        got.values.flags.writeable = True


def test_operator_cache_reuses_instances():
    cfg_a = make_cfg(12, 3, 1.25)
    cfg_b = make_cfg(12, 3, 1.25, d=5000)
    assert cached_operator(cfg_a) is cached_operator(cfg_b)


def test_operator_cache_is_bounded():
    reconstruct._operator.cache_clear()
    size = reconstruct._CACHE_SIZE
    cfgs = [make_cfg(12, 3, 1.0 + k / 8) for k in range(size + 1)]
    first = cached_operator(cfgs[0])
    assert cached_operator(cfgs[0]) is first
    for cfg in cfgs[1:]:
        cached_operator(cfg)
    assert reconstruct._operator.cache_info().currsize == size
    rebuilt = cached_operator(cfgs[0])
    assert rebuilt is not first
    assert (rebuilt.m, rebuilt.B, rebuilt.epsilon, rebuilt.p_norm_const) == (
        first.m, first.B, first.epsilon, first.p_norm_const)
    assert rebuilt._inv_pairs == first._inv_pairs
    assert rebuilt._t_side == first._t_side


def test_operator_cache_shared_by_threads():
    reconstruct._operator.cache_clear()
    cfgs = [make_cfg(12, 3, 1.0 + k / 8) for k in range(reconstruct._CACHE_SIZE)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            ops = list(pool.map(lambda i: cached_operator(cfgs[i % len(cfgs)]), range(200), timeout=60))
    finally:
        sys.setswitchinterval(old)
    assert reconstruct._operator.cache_info().currsize == len(cfgs)
    for i, op in enumerate(ops):
        kept = cached_operator(cfgs[i % len(cfgs)])
        assert op.epsilon == kept.epsilon
        np.testing.assert_array_equal(circulant.apply_inverse(op, np.ones(op.m)),
                                      circulant.apply_inverse(kept, np.ones(op.m)))


@pytest.mark.parametrize(
    "cfg",
    [
        protocol_config(0.3, 1000),
        protocol_config(1.0, 1000),
        ReconstructionConfig(epsilon=2.0, eta=0.05, n=32, d=10**4, p_norm="l1"),
        ReconstructionConfig(epsilon=1.0, eta=0.05, n=32, d=10**6, p_norm="l1"),
    ],
    ids=["n4e0.3", "n4e1", "n32e2", "n32e1"],
)
def test_l1_correction_takes_lower_window_edge(cfg):
    # the window image of A^{-1} mirrors about the window centre, so the two
    # window edges tie for the l1 direction; the lower one must win whatever
    # the roundoff of the product
    op = cached_operator(cfg)
    correction, _ = reconstruct._correction_direction(op, "l1")
    basis = dense_operator(cfg).entries @ densify(correction)
    t = int(np.argmax(np.abs(basis)))
    assert abs(abs(basis[t]) - 1.0) < 1e-9
    assert t < op.m - 1 - t


@pytest.mark.parametrize(
    "cfg",
    [
        # m = n + 2B + 1 is odd for even n
        protocol_config(1.0, 1000),
        ReconstructionConfig(epsilon=0.5, eta=0.05, n=7, d=10, B=6),  # full ring
        ReconstructionConfig(epsilon=2.0, eta=0.05, n=33, d=10**4),
        ReconstructionConfig(epsilon=0.5, eta=0.05, n=10**5, d=10**6),  # 4 blocks
        ReconstructionConfig(epsilon=0.5, eta=0.05, n=10**5 + 1, d=10**6),
    ],
    ids=["n4", "n7B6", "n33", "n1e5", "n1e5+1"],
)
def test_window_image_is_exactly_mirror_symmetric(cfg):
    # the folded product treats offsets +-u alike, so no symmetrizing step
    # is needed before the l1 direction picks between the window edges
    op = cached_operator(cfg)
    ones = np.zeros(op.m)
    ones[op.B : op.B + op.n + 1] = 1.0
    c = circulant.apply_inverse(op, ones)
    assert op.m % 2 == (cfg.n + 1) % 2
    assert np.array_equal(c, c[::-1])


def densify(correction):
    """The correction's vector of the window's length."""
    dense = np.full(correction.m, correction.alpha)
    dense[(correction.start + np.arange(len(correction.local))) % correction.m] += correction.local
    return dense


def dense_correction(op, p):
    """The direction a and its image A^{-1} a, through two products of the
    window's length."""
    ones = np.zeros(op.m)
    ones[op.B : op.B + op.n + 1] = 1.0
    a = direction_vector(circulant.apply_inverse(op, ones), p)
    return a, circulant.apply_inverse(op, a)


@pytest.mark.parametrize(
    "cfg",
    [
        protocol_config(1.0, 1000),
        ReconstructionConfig(epsilon=0.5, eta=0.05, n=7, d=10, B=6),  # full ring
        ReconstructionConfig(epsilon=1.0, eta=0.05, n=32, d=10**6),
        ReconstructionConfig(epsilon=0.1, eta=0.05, n=200, d=10**4),
        ReconstructionConfig(epsilon=0.1, eta=0.05, n=3000, d=10**4),
        *(ReconstructionConfig(epsilon=eps, eta=0.05, n=10**6, d=10**6) for eps in (0.5, 1.0, 1.5, 2.0)),
    ],
    ids=["n4", "n7B6", "n32", "n200e0.1", "n3000e0.1", "n1e6e0.5", "n1e6e1", "n1e6e1.5", "n1e6e2"],
)
def test_correction_equals_its_dense_construction(cfg):
    # each correction is a constant plus a part local to the pad, built
    # without a product of the window's length; A^{-1} 1 = 1 makes it the
    # same vector
    op = cached_operator(cfg)
    for p in ("l1", "l2", "linf"):
        a, dense = dense_correction(op, p)
        correction, denom = reconstruct._correction_direction(op, p)
        built = densify(correction)
        assert np.max(np.abs(built - dense)) <= 1e-15 * np.max(np.abs(dense))
        assert denom == pytest.approx(float(dense[op.B : op.B + op.n + 1].sum()), rel=1e-12)
        if p == "l1":  # the same index and sign: the same taps
            np.testing.assert_array_equal(built, dense)
        else:  # mirrored about the pad centre bit for bit, as a^T A^{-1} is
            assert np.array_equal(correction.local, correction.local[::-1])
        if p == "linf":  # the same sign vector
            np.testing.assert_array_equal(np.where(circular_apply(cfg, built) >= 0, 1.0, -1.0), a)


@seed(4096)
@settings(max_examples=25, deadline=None)
@given(
    eps=st.floats(math.log(0.03), math.log(2.0)).map(math.exp),
    n=st.integers(1, 500),
    log_d=st.integers(2, 8),
)
def test_products_and_corrections_match_dense_construction(eps, n, log_d):
    # inverse taps read off a ring no longer than the kernel's 2B + 1 taps
    # were once wrong for about half of the windows with B >= 32, and about
    # half of these epsilons give such a B.  The taps depend on eps and B
    # only, so a small n keeps the window (m <= 1929) cheap to solve densely
    cfg = ReconstructionConfig(epsilon=eps, eta=0.05, n=n, d=10**log_d, allow_small_n=True)
    op = circulant.build_operator(cfg)
    x = np.random.default_rng(n).normal(size=op.m)
    np.testing.assert_allclose(
        circulant.apply_inverse(op, x), dense_solve(dense_operator(cfg), x), atol=1e-8
    )
    for p in ("l1", "l2", "linf"):
        _, dense = dense_correction(op, p)
        built = densify(reconstruct._correction_direction(op, p)[0])
        assert np.max(np.abs(built - dense)) <= 1e-14 * np.max(np.abs(dense))


# at eps = 1e-4, n = 2e5, d = 1e5 (m = 490 175) the reach of A^{-1} covers
# the ring, so each correction's local part is about m long
RING_COVERING = ReconstructionConfig(epsilon=1e-4, eta=0.05, n=2 * 10**5, d=10**5)


@pytest.mark.parametrize(
    "cfg",
    [
        protocol_config(1.0, 1000),
        ReconstructionConfig(epsilon=0.5, eta=0.05, n=7, d=10, B=6),  # full ring
        ReconstructionConfig(epsilon=1.0, eta=0.05, n=32, d=10**6),
        ReconstructionConfig(epsilon=0.1, eta=0.05, n=3000, d=10**4),
        RING_COVERING,
    ],
    ids=["n4", "n7B6", "n32", "n3000e0.1", "ring-covering"],
)
def test_correction_over_its_arc_equals_indexing_the_ring(cfg):
    # the local part, kept as an arc and subtracted a block at a time, gives
    # bit for bit what indexing the ring with (start + j) mod m gives
    op = cached_operator(cfg)
    u = np.random.default_rng(cfg.n).random(op.m)
    for p in ("l1", "l2", "linf"):
        correction, denom = reconstruct._correction_direction(op, p)
        ring = (correction.start + np.arange(len(correction.local))) % op.m
        in_window = (ring >= op.B) & (ring <= op.B + op.n)
        assert denom == correction.alpha * (op.n + 1) + float(correction.local[in_window].sum())
        want = u.copy()
        step = (float(want[op.B : op.B + op.n + 1].sum()) - 1.0) / denom
        if correction.alpha:
            want -= step * correction.alpha
        want[ring] -= step * correction.local
        got = u.copy()
        reconstruct._restore_sum(op, got, p)
        assert got.tobytes() == want.tobytes(), p


@pytest.mark.parametrize("p", ["l1", "l2", "linf"])
def test_restoring_the_sum_allocates_only_block_scratch(p):
    # the correction holds its arc's start, not an index per entry, and is
    # subtracted through one block-sized scratch
    op = cached_operator(RING_COVERING)
    correction, _ = reconstruct._correction_direction(op, p)  # cold: built and cached
    assert len(correction.local) > 0.9 * op.m
    u = np.random.default_rng(3).random(op.m)
    tracemalloc.start()
    try:
        reconstruct._restore_sum(op, u, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 8 * op.m


def test_reconstruction_makes_one_product_of_the_window_length(monkeypatch):
    # the corrections are built on the pad's neighbourhood, so a cold
    # reconstruction, operator build included, reads the window's length
    # once: A^{-1} f, written over f
    reconstruct._operator.cache_clear()
    lengths, in_place = [], []
    product = circulant._cyclic_product

    def spy(pairs, x, out=None, *, side):
        lengths.append(len(x))
        in_place.append(out is x)
        return product(pairs, x, out, side=side)

    monkeypatch.setattr(circulant, "_cyclic_product", spy)
    d = n = 10**5
    h = Histogram(counts=np.random.default_rng(5).integers(0, n + 1, size=d), n=n)
    s = privatize(h, 1.0, clip=False, rng=np.random.default_rng(6))
    for p in ("l1", "l2", "linf"):
        cfg = ReconstructionConfig(epsilon=1.0, eta=0.05, n=n, d=d, p_norm=p)
        lengths.clear()
        in_place.clear()
        reconstruct_profile(s, cfg)
        assert sorted(lengths)[-1] == cfg.m
        assert sorted(lengths)[-2] < cfg.m // 100
        assert in_place[lengths.index(cfg.m)]


# windows whose pad widened by A^{-1}'s reach w each side wraps past itself: 2(B + w) > m
WHOLE_RING_CFGS = [
    protocol_config(0.3, 1000),
    protocol_config(1.0, 1000),
    ReconstructionConfig(epsilon=0.5, eta=0.05, n=7, d=10, B=6),
    ReconstructionConfig(epsilon=1.0, eta=0.05, n=16, d=1000, B=10),
    ReconstructionConfig(epsilon=0.1, eta=0.05, n=1, d=10**4, allow_small_n=True),
]


@pytest.mark.parametrize(
    "cfg",
    [ReconstructionConfig(epsilon=1e-4, eta=0.05, n=2 * 10**5, d=10**5), *WHOLE_RING_CFGS],
    ids=["e1e-4", "n4e0.3", "n4e1", "n7B6", "n16B10", "n1e0.1"],
)
def test_corrections_make_no_array_longer_than_the_ring(monkeypatch, cfg):
    # the window image's pad entries come from an arc of at most m entries,
    # even where the pad widened by w each side would wrap past itself
    op = cached_operator(cfg)
    assert 2 * (op.B + op._inv_pairs[-1][0] + 1) > op.m
    lengths = []
    ring_indices, local_image = reconstruct._ring_indices, reconstruct._local_image

    def ring_spy(m, start, length):
        lengths.append(length)
        return ring_indices(m, start, length)

    def image_spy(op, start, x):
        lengths.append(len(x))
        return local_image(op, start, x)

    monkeypatch.setattr(reconstruct, "_ring_indices", ring_spy)
    monkeypatch.setattr(reconstruct, "_local_image", image_spy)
    for p in ("l1", "l2", "linf"):
        lengths.clear()
        reconstruct._correction_direction.__wrapped__(op, p)
        assert lengths and max(lengths) <= op.m, p


def test_profile_validation():
    with pytest.raises(ValueError):
        Profile(values=np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        Profile(values=np.array([1.5, -0.5]))


@pytest.mark.parametrize(
    "values", [[np.nan, 1.0], [np.nan], [0.5, np.nan, 0.5], [np.inf, 0.0], [1.0, np.inf, -np.inf]]
)
def test_profile_validation_refuses_nan_and_inf(values):
    with pytest.raises(ValueError):
        Profile(values=np.array(values))


@pytest.mark.parametrize("core", [[np.nan, 0.5, 0.5], [np.inf, -np.inf, 1.0], [np.inf, 0.0, 0.0]])
def test_relaxed_solution_refuses_nan_and_inf_in_its_core(core):
    with pytest.raises(ValueError, match="core sums to"), np.errstate(invalid="ignore"):
        RelaxedSolution(values=np.array([0.0, *core, 0.0]), n=2, B=1, objective_norm="l2")


def test_rounding_never_returns_nan():
    # NaN on the pad is discarded with the pad
    rel = RelaxedSolution(
        values=np.array([np.nan, 0.2, 0.3, 0.5, np.nan]), n=2, B=1, objective_norm="l2"
    )
    np.testing.assert_array_equal(rounding(rel, 2).values, [0.2, 0.3, 0.5])
    # NaN in the core that got past validation is refused, not returned
    bad = object.__new__(RelaxedSolution)
    fields = dict(values=np.array([0.0, np.nan, 0.5, 0.5, 0.0]), n=2, B=1, objective_norm="l2", core_sum=1.0)
    for name, value in fields.items():
        object.__setattr__(bad, name, value)
    with pytest.raises(ValueError, match="must lie in"):
        rounding(bad, 2)


@pytest.mark.parametrize("clip", [False, True])
def test_warm_reconstruction_allocates_under_one_and_a_half_windows(clip):
    # numpy reports its buffers to tracemalloc, so the peak is exact: one
    # length-m buffer is binned, inverted, corrected and rounded in place,
    # beside block-sized scratch and the rounding bracket's sample
    n = d = 2**20
    rng = np.random.default_rng(20)
    h = Histogram(counts=rng.integers(0, n + 1, d), n=n)
    sketch = privatize(h, 1.0, clip=clip, rng=rng)
    cfg = ReconstructionConfig(epsilon=1.0, eta=0.05, n=n, d=d)
    # cold: caches the operator and its correction
    reconstruct_profile(sketch, cfg, np.random.default_rng(21))
    tracemalloc.start()
    try:
        reconstruct_profile(sketch, cfg, np.random.default_rng(21))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * cfg.m


def test_write_profile_csv(tmp_path):
    prof = Profile(values=np.array([0.25, 0.5, 0.25]))
    path = tmp_path / "profile.csv"
    write_profile_csv(str(path), prof)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,value"
    assert lines[1] == "0,0.25"
    assert len(lines) == 4
