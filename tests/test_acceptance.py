"""Acceptance suite: one test per release criterion, in order.

Each test exercises its criterion at the stated tolerance and prints a
single PASS line (visible with `pytest -s` or in the captured output).
Statistical checks run with fixed seeds, so outcomes are reproducible.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from dpprofile import circulant
from dpprofile._util import derive_seed, lp_norm
from dpprofile.evaluation import (
    SynthSpec,
    fit_scaling,
    pad_profile,
    run_trial,
    sweep,
    synth_histogram,
    theoretical_bounds,
    true_profile,
)
from dpprofile.mechanism import (
    Histogram,
    PrivateSketch,
    ReconstructionConfig,
    empirical_profile,
    privatize,
    sample_dlap,
    unfold,
)
from dpprofile.reconstruct import (
    Profile,
    RelaxedSolution,
    cached_operator,
    fast_inversion,
    reconstruct_profile,
    rounding,
    threshold_tau,
)
from dpprofile.twoparty import (
    PROTOCOL_N,
    protocol_config,
    run_protocol,
    sensitivity_bound,
)

from helpers import random_feasible, random_profile, two_sample_chi2_pvalue
from oracle import (
    bisection_tau,
    dense_operator,
    equality_constrained_ls,
    iterated_adjustment,
    monte_carlo_generator,
)

OPERATOR_CONFIGS = [(32, 4, 1.0), (64, 6, 0.5), (128, 8, 2.0)]


def passed(number: int, detail: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {number} PASS ({elapsed:.1f}s): {detail}")


def make_cfg(n, B, eps, d=1000):
    return ReconstructionConfig(epsilon=eps, eta=0.05, n=n, d=d, B=B)


def test_01_oracle_equivalence_fft_vs_dense():
    start = time.perf_counter()
    worst = 0.0
    for n, B, eps in OPERATOR_CONFIGS:
        cfg = make_cfg(n, B, eps)
        op = cached_operator(cfg)
        dense = dense_operator(cfg)
        inv = np.linalg.inv(dense.entries)
        rng = np.random.default_rng(derive_seed(1, n))
        for _ in range(50):
            x = rng.normal(size=op.m)
            gaps = [
                np.max(np.abs(circulant.apply(op, x) - dense.entries @ x)),
                np.max(np.abs(circulant.apply_inverse(op, x) - inv @ x)),
                np.max(np.abs(circulant.apply_inverse(op, x) - x @ inv)),
            ]
            worst = max(worst, *map(float, gaps))
            assert all(g <= 1e-8 for g in gaps)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    passed(1, f"apply/inverse/left inverse product vs dense, worst gap {worst:.2e}", elapsed)


def test_02_eigenvalue_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for n, B, eps in OPERATOR_CONFIGS:
        op = cached_operator(make_cfg(n, B, eps))
        dft = np.fft.fft(op.generator)
        rel = float(np.max(np.abs(op.eigenvalues - dft) / np.abs(dft)))
        worst = max(worst, rel)
        assert rel <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    passed(2, f"closed form vs generator DFT, worst rel err {worst:.2e}", elapsed)


def test_03_generator_expectation():
    start = time.perf_counter()
    d, trials = 10**4, 10**3  # trials * d = 1e7
    cfg = ReconstructionConfig(epsilon=1.0, eta=0.05, n=16, d=d)
    op = cached_operator(cfg)
    tol = 5.0 * math.sqrt(math.log(2 * cfg.m) / (2 * trials * d))
    worst = 0.0
    for rep in range(3):
        rng = np.random.default_rng(derive_seed(3, rep))
        prof = Profile(values=random_profile(cfg.n, d, rng))
        mean = monte_carlo_generator(prof, cfg, d, trials, rng)
        target = circulant.apply(op, pad_profile(prof, cfg.B))
        gap = float(np.max(np.abs(mean - target)))
        worst = max(worst, gap)
        assert gap <= tol
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    passed(3, f"Monte-Carlo mean vs operator image, worst gap {worst:.2e} <= {tol:.2e}", elapsed)


def test_04_unfolding_distribution():
    start = time.perf_counter()
    d, n = 10**5, 4
    worst_p = 1.0
    for eps in (0.5, 1.0, 2.0):
        for h0 in (0, n):
            h = Histogram(counts=np.full(d, h0, dtype=np.int64), n=n)
            rng_a = np.random.default_rng(derive_seed(4, int(eps * 10), h0, 0))
            rng_b = np.random.default_rng(derive_seed(4, int(eps * 10), h0, 1))
            via_clip = unfold(privatize(h, eps, clip=True, rng=rng_a), rng_a)
            direct = privatize(h, eps, clip=False, rng=rng_b)
            p = two_sample_chi2_pvalue(
                np.asarray(via_clip.counts), np.asarray(direct.counts)
            )
            worst_p = min(worst_p, p)
            assert p > 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    passed(4, f"clip-then-unfold vs direct sketches, min chi-square p {worst_p:.3f}", elapsed)


def test_05_fast_inversion_optimality():
    start = time.perf_counter()
    worst_l2 = 0.0
    for rep, (n, B, eps) in enumerate([(32, 4, 1.0), (100, 10, 0.5)]):
        cfg = make_cfg(n, B, eps)
        op = cached_operator(cfg)
        dense = dense_operator(cfg)
        rng = np.random.default_rng(derive_seed(5, rep))
        for _ in range(25):
            f_tilde = np.abs(rng.normal(size=op.m))
            f_tilde /= f_tilde.sum()
            fast = fast_inversion(op, f_tilde, "l2").values
            exact = equality_constrained_ls(dense, f_tilde)
            gap = float(np.max(np.abs(fast - exact)))
            worst_l2 = max(worst_l2, gap)
            assert gap <= 1e-7
    cfg = make_cfg(32, 4, 1.0)
    op = cached_operator(cfg)
    rng = np.random.default_rng(derive_seed(5, 99))
    for p in ("l1", "linf"):
        for _ in range(25):
            f_tilde = np.abs(rng.normal(size=op.m))
            f_tilde /= f_tilde.sum()
            r = fast_inversion(op, f_tilde, p)
            obj = lp_norm(circulant.apply(op, r.values) - f_tilde, p)
            for _ in range(100):
                v = random_feasible(op.m, op.n, op.B, rng)
                assert obj <= lp_norm(circulant.apply(op, v) - f_tilde, p) + 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    passed(5, f"l2 matches constrained LS (worst {worst_l2:.2e}); l1/linf dominate competitors", elapsed)


def test_06_rounding_feasibility_and_error():
    start = time.perf_counter()
    rng = np.random.default_rng(derive_seed(6))
    for _ in range(1000):
        n = int(rng.integers(1, 24))
        B = int(rng.integers(0, 6))
        m = n + 2 * B + 1
        f = np.concatenate([np.zeros(B), random_profile(n, 300, rng), np.zeros(B)])
        r = f + rng.normal(scale=rng.choice([0.05, 0.5, 2.0]), size=m)
        core = r[B : B + n + 1]
        core += (1.0 - core.sum()) / (n + 1)
        rel = RelaxedSolution(values=r, n=n, B=B, objective_norm="l2")
        out = rounding(rel, n)
        assert out.values.min() >= 0.0 and out.values.max() <= 1.0
        assert float(out.values.sum()) == pytest.approx(1.0, abs=1e-9)
        out_pad = np.concatenate([np.zeros(B), out.values, np.zeros(B)])
        for p in ("l1", "l2"):
            assert lp_norm(out_pad - f, p) <= lp_norm(r - f, p) + 1e-9
        assert lp_norm(out_pad - f, "linf") <= 2 * lp_norm(r - f, "linf") + 1e-9
    for _ in range(1000):
        k = int(rng.integers(1, 30))
        vals = rng.uniform(0, 1, size=k)
        s = rng.uniform(0, float(vals.sum()))
        tau = threshold_tau(vals, s)
        drained = vals - np.minimum(tau, vals)
        assert float(np.max(np.abs(drained - iterated_adjustment(vals, s)))) <= 1e-9
        assert abs(tau - bisection_tau(vals, s)) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0
    passed(6, "rounding feasible, error-controlled; threshold routes agree", elapsed)


def test_07_matrix_norm_bounds():
    start = time.perf_counter()
    for n, B, eps in OPERATOR_CONFIGS:
        cfg = make_cfg(n, B, eps)
        op = cached_operator(cfg)
        bounds = circulant.norm_bounds(op)
        inv = np.linalg.inv(dense_operator(cfg).entries)
        norm_inf = float(np.abs(inv).sum(axis=1).max())
        norm_1 = float(np.abs(inv).sum(axis=0).max())
        norm_2 = float(np.linalg.norm(inv, 2))
        assert norm_inf <= bounds.bound_1_inf
        assert norm_1 <= bounds.bound_1_inf
        assert norm_2 <= bounds.bound_2
        assert abs(norm_1 - norm_inf) <= 1e-9 * norm_inf
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0
    passed(7, "dense inverse norms under analytic bounds; row/col norms equal", elapsed)


def test_08_error_bound_coverage():
    start = time.perf_counter()
    d, n, eps, eta = 10**5, 32, 1.0, 0.05
    cfg = ReconstructionConfig(epsilon=eps, eta=eta, n=n, d=d)
    h = synth_histogram(SynthSpec("point_mass", d=d, n=n, seed=8, param=1))
    f = true_profile(h)
    op = cached_operator(cfg)
    bounds = theoretical_bounds(cfg, f, op)
    trials = 200
    hits = {"l2": 0, "linf": 0}
    for trial in range(trials):
        rng = np.random.default_rng(derive_seed(8, trial))
        sketch = privatize(h, eps, clip=False, rng=rng)
        f_tilde = empirical_profile(sketch, cfg)
        for p in ("l2", "linf"):
            prof = rounding(fast_inversion(op, f_tilde, p), n)
            err = lp_norm(prof.values - f.values, p)
            hits[p] += err <= bounds.for_norm(p)
    coverage = {p: hits[p] / trials for p in hits}
    assert coverage["l2"] >= 0.90
    assert coverage["linf"] >= 0.90
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    passed(8, f"bound coverage l2={coverage['l2']:.2f}, linf={coverage['linf']:.2f} (target >= 0.90)", elapsed)


def test_09_error_scaling_in_domain_size():
    start = time.perf_counter()
    grid = []
    for d in (10**3, 10**4, 10**5):
        spec = SynthSpec("point_mass", d=d, n=32, seed=9, param=1)
        cfg = ReconstructionConfig(epsilon=1.0, eta=0.05, n=32, d=d)
        grid.append((spec, cfg))
    reports = sweep(grid, trials=50, master_seed=9)
    slope = fit_scaling(reports, "l2")
    assert -0.65 <= slope <= -0.35
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    passed(9, f"log-log slope of mean l2 error vs d is {slope:.3f} (target [-0.65, -0.35])", elapsed)


def prepared_sketch(n_d: int):
    rng = np.random.default_rng(derive_seed(10, n_d))
    h = Histogram(counts=rng.integers(0, n_d + 1, size=n_d), n=n_d)
    sketch = privatize(h, 1.0, clip=False, rng=rng)
    cfg = ReconstructionConfig(epsilon=1.0, eta=0.05, n=n_d, d=n_d)
    return sketch, cfg


def test_10_near_linear_time():
    start = time.perf_counter()
    sketch, cfg = prepared_sketch(10**6)
    reconstruct_profile(sketch, cfg)  # warm the caches before timing
    t0 = time.perf_counter()
    reconstruct_profile(sketch, cfg)
    big = time.perf_counter() - t0
    assert big < 10.0

    # interleave the sizes and take per-size medians: the shared container
    # adds tens of milliseconds of scheduling noise per run, and a median
    # over alternating rounds cancels drift that a per-size mean would not.
    # Process CPU time leaves out time spent descheduled, and each sample
    # runs 2^(20-k) calls back to back, so every size is timed over the
    # same interval and a single stall weighs as much on each.
    prepared = {k: prepared_sketch(2**k) for k in (18, 19, 20)}
    for k in prepared:
        reconstruct_profile(*prepared[k])
    samples = {k: [] for k in prepared}
    for _ in range(7):
        for k in prepared:
            reps = 2 ** (20 - k)
            t0 = time.process_time()
            for _ in range(reps):
                reconstruct_profile(*prepared[k])
            samples[k].append((time.process_time() - t0) / reps)
    med = {k: float(np.median(samples[k])) for k in samples}
    ratio_a = med[19] / med[18]
    ratio_b = med[20] / med[19]
    assert ratio_a <= 2.5 and ratio_b <= 2.5
    elapsed = time.perf_counter() - start
    passed(10, f"1e6 reconstruction in {big:.2f}s; doubling ratios {ratio_a:.2f}, {ratio_b:.2f}", elapsed)


def test_11_two_party_reduction():
    start = time.perf_counter()
    # exact combination identity on noiseless histograms
    rng = np.random.default_rng(derive_seed(11, 0))
    for _ in range(1000):
        d = int(rng.integers(16, 256))
        x = 2 * rng.integers(0, 2, size=d) - 1
        y = 2 * rng.integers(0, 2, size=d) - 1
        combined = np.bincount(x + y + 2, minlength=PROTOCOL_N + 1)
        assert int(x @ y) == combined[4] + combined[0] - combined[2]

    # normalized error stable across three orders of magnitude in d
    norm_means = {}
    for d, trials in ((10**4, 30), (10**5, 30), (10**6, 12)):
        res = run_protocol(d=d, epsilon=1.0, trials=trials, master_seed=11)
        norm_means[d] = float(np.mean([r.abs_error for r in res]) / math.sqrt(d))
    ratio = max(norm_means.values()) / min(norm_means.values())
    assert ratio <= 3.0

    # empirical neighbor sensitivity under shared randomness
    d, eps = 10**4, 1.0
    cfg = protocol_config(eps, d)
    op = cached_operator(cfg)
    delta = sensitivity_bound(op, d)
    rng = np.random.default_rng(derive_seed(11, 1))
    worst = 0.0
    for _ in range(100):
        x = 2 * rng.integers(0, 2, size=d) - 1
        y = 2 * rng.integers(0, 2, size=d) - 1
        y_prime = y.copy()
        flip = int(rng.integers(d))
        y_prime[flip] = -y_prime[flip]
        shared = sample_dlap(eps, rng, size=d)
        r = reconstruct_profile(
            PrivateSketch(counts=x + y + 2 + shared, epsilon=eps, n=PROTOCOL_N,
                          clipped=False), cfg)
        r_prime = reconstruct_profile(
            PrivateSketch(counts=x + y_prime + 2 + shared, epsilon=eps,
                          n=PROTOCOL_N, clipped=False), cfg)
        worst = max(worst, float(np.max(np.abs(r.values - r_prime.values))))
    assert worst <= delta
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    passed(11, f"identity exact; error/sqrt(d) ratio {ratio:.2f} <= 3; sensitivity {worst:.2e} <= {delta:.2e}", elapsed)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "dpprofile", *args], capture_output=True, text=True
    )


def test_12_cli_determinism(tmp_path):
    start = time.perf_counter()
    hist = tmp_path / "hist.txt"
    hist.write_text("\n".join(["1"] * 200) + "\n")

    def twice(name, *args):
        paths = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}"
            res = run_cli(*args, "--output", str(out))
            assert res.returncode == 0, res.stderr
            paths.append(out.read_bytes())
        assert paths[0] == paths[1], f"{name} output differs between reruns"
        return tmp_path / f"{name}_a"

    sketch_path = twice(
        "sketch", "sketch", "--input", str(hist), "--epsilon", "2",
        "--n", "5", "--seed", "42",
    )
    clipped_path = twice(
        "clipped", "sketch", "--input", str(hist), "--epsilon", "2",
        "--n", "5", "--clip", "--seed", "42",
    )
    twice(
        "recon", "reconstruct", "--input", str(sketch_path),
        "--eta", "0.3", "--norm", "l2", "--seed", "7",
    )
    twice(
        "recon_clipped", "reconstruct", "--input", str(clipped_path),
        "--eta", "0.3", "--norm", "linf", "--seed", "7",
    )
    delta = tmp_path / "delta.txt"
    delta.write_text("\n".join(["1"] * 200) + "\n")
    twice("update", "update", "--sketch", str(sketch_path), "--delta", str(delta))
    twice(
        "eval", "eval", "--dist", "uniform", "--d-list", "500,1000",
        "--n", "6", "--epsilon", "2", "--eta", "0.2", "--trials", "2",
        "--seed", "5",
    )
    twice(
        "innerprod", "innerprod", "--d", "1024", "--epsilon", "1",
        "--trials", "2", "--seed", "3",
    )
    elapsed = time.perf_counter() - start
    passed(12, "all five commands byte-identical across reruns", elapsed)
