"""Tests for the two-party inner-product protocol."""

import math

import numpy as np
import pytest

from dpprofile.mechanism import PrivateSketch, sample_dlap
from dpprofile.params import ReconstructionConfig
from dpprofile.reconstruct import cached_operator, reconstruct_profile
from dpprofile.twoparty import (
    PROTOCOL_N,
    protocol_config,
    results_to_csv,
    run_protocol,
    sample_laplace,
    sensitivity_bound,
)

from oracle import PartyVector, alice_message, bob_estimate


def random_party(d, rng):
    return PartyVector(bits=2 * rng.integers(0, 2, size=d) - 1)


def test_party_vector_validation():
    PartyVector(bits=np.array([1, -1, 1]))
    with pytest.raises(ValueError):
        PartyVector(bits=np.array([1, 0, -1]))
    with pytest.raises(ValueError):
        PartyVector(bits=np.array([], dtype=np.int64))


def test_party_vector_rejects_fractional_entries():
    with pytest.raises(ValueError, match="party vector entries must be integers .* got 1.7"):
        PartyVector(bits=[1.7, -1.2])
    with pytest.raises(ValueError, match="party vector entries must be integers"):
        PartyVector(bits=[float("nan"), 1.0])
    assert PartyVector(bits=[1.0, -1.0]).bits.tolist() == [1, -1]


def test_inner_product_identity_on_exact_histogram():
    rng = np.random.default_rng(2)
    for _ in range(200):
        d = int(rng.integers(16, 200))
        x, y = random_party(d, rng), random_party(d, rng)
        combined = np.bincount(x.bits + y.bits + 2, minlength=PROTOCOL_N + 1)
        assert int(x.bits @ y.bits) == combined[4] + combined[0] - combined[2]


def test_alice_message_shifts_by_one():
    rng = np.random.default_rng(3)
    x = PartyVector(bits=np.ones(50, dtype=np.int64))
    msg = alice_message(x, 50.0, rng)
    assert np.all(msg.counts == 2)
    x_neg = PartyVector(bits=-np.ones(50, dtype=np.int64))
    msg_neg = alice_message(x_neg, 50.0, rng)
    assert np.all(msg_neg.counts == 0)
    assert not msg.clipped and msg.n == PROTOCOL_N


def test_bob_estimate_aligned_vectors_near_noiseless():
    d = 10**4
    rng = np.random.default_rng(4)
    x = random_party(d, rng)
    cfg = protocol_config(50.0, d)
    delta = sensitivity_bound(cached_operator(cfg), d)
    msg = alice_message(x, 50.0, rng)
    res = bob_estimate(msg, x, 50.0, delta, rng, x_for_truth=x)
    assert res.true_ip == d
    assert abs(res.m_b - d) < 0.05 * d
    res_anti = bob_estimate(
        alice_message(x, 50.0, rng),
        PartyVector(bits=-x.bits),
        50.0,
        delta,
        rng,
        x_for_truth=x,
    )
    assert res_anti.true_ip == -d
    assert abs(res_anti.m_b + d) < 0.05 * d


def test_sensitivity_bound_scales_inversely_with_d():
    cfg = protocol_config(1.0, 10**4)
    op = cached_operator(cfg)
    assert sensitivity_bound(op, 2 * 10**4) == pytest.approx(
        0.5 * sensitivity_bound(op, 10**4), rel=1e-12
    )


def test_sensitivity_bound_identity_limit():
    d = 10**4
    cfg2 = ReconstructionConfig(
        epsilon=50.0, eta=0.05, n=PROTOCOL_N, d=d, B=2, allow_small_n=True
    )
    op = cached_operator(cfg2)
    assert sensitivity_bound(op, d) == pytest.approx(6.0 / d, rel=1e-6)


def test_empirical_sensitivity_within_bound():
    d, eps = 10**4, 1.0
    cfg = protocol_config(eps, d)
    op = cached_operator(cfg)
    delta = sensitivity_bound(op, d)
    rng = np.random.default_rng(11)
    worst = 0.0
    worst_stat = 0.0
    for _ in range(100):
        x = 2 * rng.integers(0, 2, size=d) - 1
        y = 2 * rng.integers(0, 2, size=d) - 1
        y_prime = y.copy()
        flip = int(rng.integers(d))
        y_prime[flip] = -y_prime[flip]
        shared_noise = sample_dlap(eps, rng, size=d)
        r = reconstruct_profile(
            PrivateSketch(counts=x + y + 2 + shared_noise, epsilon=eps,
                          n=PROTOCOL_N, clipped=False),
            cfg,
        )
        r_prime = reconstruct_profile(
            PrivateSketch(counts=x + y_prime + 2 + shared_noise, epsilon=eps,
                          n=PROTOCOL_N, clipped=False),
            cfg,
        )
        worst = max(worst, float(np.max(np.abs(r.values - r_prime.values))))
        stat = d * (r.values[4] + r.values[0] - r.values[2])
        stat_prime = d * (r_prime.values[4] + r_prime.values[0] - r_prime.values[2])
        worst_stat = max(worst_stat, abs(stat - stat_prime))
    assert worst <= delta
    # the published combination reads three coordinates, so its swing under a
    # neighboring y is at most three per-coordinate sensitivities
    assert worst_stat <= 3 * delta * d


def test_sample_laplace_moments():
    rng = np.random.default_rng(12)
    draws = np.array([sample_laplace(0.5, rng) for _ in range(200000)])
    assert abs(draws.mean()) < 0.01
    # Var = 2 scale^2 = 0.5
    assert np.var(draws) == pytest.approx(0.5, rel=0.05)


def test_run_protocol_deterministic_and_parity():
    results_a = run_protocol(d=256, epsilon=1.0, trials=5, master_seed=9)
    results_b = run_protocol(d=256, epsilon=1.0, trials=5, master_seed=9)
    assert [r.m_b for r in results_a] == [r.m_b for r in results_b]
    for r in results_a:
        assert (r.true_ip - 256) % 2 == 0
        assert r.abs_error == pytest.approx(abs(r.m_b - r.true_ip), abs=1e-9)


def test_run_protocol_rejects_small_d():
    with pytest.raises(ValueError):
        run_protocol(d=8, epsilon=1.0, trials=1, master_seed=0)
    with pytest.raises(ValueError, match=r"2\*\*63 - 1"):
        run_protocol(d=2**63, epsilon=1.0, trials=1, master_seed=0)


@pytest.mark.parametrize("name, value",
                         [("d", 1e6), ("d", 256.0), ("d", True), ("d", "256"),
                          ("trials", 2.5), ("trials", 1.0), ("trials", True)], ids=repr)
def test_run_protocol_refuses_a_d_or_trials_that_is_not_an_integer(name, value):
    kwargs = {"d": 256, "epsilon": 1.0, "trials": 2, "master_seed": 0, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        run_protocol(**kwargs)
    # a numpy integer is taken: 16 is the least d, and 16 trials
    results = run_protocol(**{**kwargs, name: np.int64(16)})
    assert len(results) == (16 if name == "trials" else 2)


@pytest.mark.parametrize("master_seed", [1.5, 2.0, True, "2", None, -1, 2**64], ids=repr)
def test_run_protocol_refuses_a_master_seed_outside_64_bits(master_seed):
    # -1 ran, its seed masked to 2**64 - 1
    with pytest.raises(ValueError, match="^master_seed "):
        run_protocol(d=256, epsilon=1.0, trials=2, master_seed=master_seed)
    top = run_protocol(d=256, epsilon=1.0, trials=2, master_seed=np.uint64(2**64 - 1))
    assert top == run_protocol(d=256, epsilon=1.0, trials=2, master_seed=2**64 - 1)


def per_party_trials(d, epsilon, trials, seed):
    """The protocol run party by party: fresh sign vectors, Alice's message,
    Bob's estimate."""
    delta = sensitivity_bound(cached_operator(protocol_config(epsilon, d)), d)
    rng = np.random.default_rng(seed)
    results = []
    for _ in range(trials):
        x, y = random_party(d, rng), random_party(d, rng)
        m_a = alice_message(x, epsilon, rng)
        results.append(bob_estimate(m_a, y, epsilon, delta, rng, x_for_truth=x))
    return results


def sd_with_error(v):
    """Sample standard deviation and its delta-method standard error."""
    v = np.asarray(v, dtype=np.float64)
    var = v.var(ddof=1)
    fourth = np.mean((v - v.mean()) ** 4)
    return math.sqrt(var), math.sqrt(max(fourth - var**2, 0.0) / len(v)) / (2 * math.sqrt(var))


def test_run_protocol_follows_the_per_party_law():
    # run_protocol draws each trial from its sufficient statistic; the
    # error m_b - true_ip and the inner product itself must have the law of
    # the protocol run item by item
    d, epsilon, trials = 256, 1.0, 2000
    routes = {
        "class": run_protocol(d=d, epsilon=epsilon, trials=trials, master_seed=17),
        "per_party": per_party_trials(d, epsilon, trials, seed=18),
    }
    stats = {}
    for name, results in routes.items():
        err = np.array([r.m_b - r.true_ip for r in results])
        ip = np.array([r.true_ip for r in results], dtype=np.float64)
        err_sd, err_sd_se = sd_with_error(err)
        ip_var = ip.var(ddof=1)
        ip_var_se = math.sqrt(np.mean((ip - ip.mean()) ** 4) - ip_var**2) / math.sqrt(trials)
        stats[name] = {
            "err_mean": (err.mean(), err.std(ddof=1) / math.sqrt(trials)),
            "err_sd": (err_sd, err_sd_se),
            "ip_mean": (ip.mean(), ip.std(ddof=1) / math.sqrt(trials)),
            "ip_var": (ip_var, ip_var_se),
        }
    for key in stats["class"]:
        (a, se_a), (b, se_b) = stats["class"][key], stats["per_party"][key]
        assert abs(a - b) <= 4 * math.hypot(se_a, se_b), (key, a, b)
    # the inner product of two uniform sign vectors has mean 0 and variance d
    assert stats["class"]["ip_var"][0] == pytest.approx(d, rel=0.15)


def test_published_noise_has_the_stated_scale():
    # at epsilon 50 the counts' noise is nil and the reconstruction exact,
    # so m_b - true_ip is d * 3 delta Lap(1/epsilon) alone: Laplace(1) once
    # divided by its scale, with mean 0 and variance 2 (sd of the sample
    # variance sqrt(20 / trials))
    d, epsilon, trials = 1000, 50.0, 2000
    results = run_protocol(d=d, epsilon=epsilon, trials=trials, master_seed=23)
    scale = 3.0 * results[0].delta_used * d / epsilon
    z = np.array([(r.m_b - r.true_ip) / scale for r in results])
    assert abs(z.mean()) <= 4 * math.sqrt(2 / trials)
    assert abs(z.var() - 2.0) <= 4 * math.sqrt(20 / trials)


def test_run_protocol_does_no_work_of_length_d():
    # a trial costs O(m): d = 1e12 sign vectors would need terabytes
    d = 10**12
    for r in run_protocol(d=d, epsilon=1.0, trials=2, master_seed=4):
        assert (r.true_ip - d) % 2 == 0 and abs(r.true_ip) <= d
        assert r.abs_error == abs(r.m_b - r.true_ip)


def test_run_protocol_forms_no_party_message(monkeypatch):
    from dpprofile import mechanism, twoparty

    def refuse(*args, **kwargs):
        raise AssertionError("run_protocol went item by item")

    # privatize draws through sample_dlap, and every histogram or sketch is
    # checked through int64_array; both are looked up in mechanism at call
    # time, so the patch holds however twoparty imports the per-item steps
    monkeypatch.setattr(mechanism, "sample_dlap", refuse)
    monkeypatch.setattr(mechanism, "int64_array", refuse)
    assert not hasattr(twoparty, "privatize") and not hasattr(twoparty, "update")
    assert len(run_protocol(d=1000, epsilon=1.0, trials=3, master_seed=2)) == 3


def test_protocol_error_sublinear_in_d():
    means = {}
    for d, trials in ((10**3, 20), (10**4, 20), (10**5, 12)):
        res = run_protocol(d=d, epsilon=1.0, trials=trials, master_seed=21)
        means[d] = float(np.mean([r.abs_error for r in res]))
    ds = np.array(sorted(means))
    slope = np.polyfit(np.log(ds), np.log([means[d] for d in ds]), 1)[0]
    assert slope <= 0.75


def test_results_csv_shape():
    results = run_protocol(d=64, epsilon=2.0, trials=3, master_seed=1)
    text = results_to_csv(64, results)
    lines = text.splitlines()
    assert lines[0] == "d,trial,true_ip,m_b,abs_error,delta"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "64" and first[1] == "0"
    assert float(first[4]) == pytest.approx(
        abs(float(first[3]) - int(first[2])), abs=1e-9
    )
