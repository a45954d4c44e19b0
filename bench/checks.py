"""Output checks for the benchmark, built apart from the program.

Nothing here imports dpprofile.  Every reference is computed from the
method's definitions: the discrete Laplace law of the noise, the kernel
e^{-eps |j|} / P of the smearing operator, the noise radius B, a dense
constrained least-squares solve, threshold rounding found by bisection, and
the analytic error bounds.  Each check returns a list of failure messages;
an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

from inputs import zipf_counts

# A statistic passes when it lies within this many standard errors of its
# expectation.  At d = 1e6 a correct sampler misses by chance with
# probability about 1e-8 per statistic.
Z_TOL = 6.0

# Dense and FFT references agree with a correct program to about 1e-15; a
# profile shifted by one bin moves some entry by at least 1/d.
PROFILE_ATOL = 1e-10


# --- the method's definitions ------------------------------------------------

def noise_radius(eps: float, eta: float, d: int) -> int:
    """B = ceil((1/eps) ln max{2d / (eta (e^eps + 1)), 8 e^eps / (e^{2 eps} - 1)})."""
    tail = 2.0 * d / (eta * (math.exp(eps) + 1.0))
    cond = 8.0 * math.exp(eps) / (math.exp(2.0 * eps) - 1.0)
    return max(0, math.ceil(math.log(max(tail, cond)) / eps))


def kernel_mass(eps: float, B: int) -> float:
    """P = sum_{|j| <= B} e^{-eps |j|}."""
    return float(sum(math.exp(-eps * abs(j)) for j in range(-B, B + 1)))


def dense_operator(eps: float, n: int, B: int) -> np.ndarray:
    """A[i, k] = e^{-eps dist(i, k)} / P for cyclic distance dist <= B."""
    m = n + 2 * B + 1
    idx = np.arange(m)
    gap = np.abs(idx[:, None] - idx[None, :])
    dist = np.minimum(gap, m - gap)
    return np.where(dist <= B, np.exp(-eps * dist), 0.0) / kernel_mass(eps, B)


def operator_column(eps: float, n: int, B: int) -> np.ndarray:
    """First column of the same operator, for FFT-based references."""
    m = n + 2 * B + 1
    idx = np.arange(m)
    dist = np.minimum(idx, m - idx)
    return np.where(dist <= B, np.exp(-eps * dist), 0.0) / kernel_mass(eps, B)


def window_profile(counts: np.ndarray, n: int, B: int) -> np.ndarray:
    """Fraction of noisy counts at each t in [-B, n+B], outliers at the ends."""
    m = n + 2 * B + 1
    shifted = np.clip(np.asarray(counts, dtype=np.int64), -B, n + B) + B
    return np.bincount(shifted, minlength=m) / len(counts)


def exact_profile(counts: np.ndarray, n: int) -> np.ndarray:
    return np.bincount(np.asarray(counts, dtype=np.int64), minlength=n + 1) / len(counts)


def round_by_bisection(core: np.ndarray) -> np.ndarray:
    """Clip into [0, 1], then lower every entry by min(tau, entry) so the
    total is one, with tau found by bisection."""
    clipped = np.clip(core, 0.0, 1.0)
    surplus = float(clipped.sum()) - 1.0
    if surplus <= 0.0:
        return clipped
    lo, hi = 0.0, float(clipped.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if float(np.minimum(mid, clipped).sum()) < surplus:
            lo = mid
        else:
            hi = mid
    return clipped - np.minimum(hi, clipped)


def dense_l2_profile(counts: np.ndarray, eps: float, eta: float, n: int) -> np.ndarray:
    """min ||A r - f||_2 subject to the window 0..n summing to one, solved as
    a dense KKT system, then rounded by bisection."""
    d = len(counts)
    B = noise_radius(eps, eta, d)
    A = dense_operator(eps, n, B)
    f = window_profile(counts, n, B)
    m = len(f)
    w = np.zeros(m)
    w[B : B + n + 1] = 1.0
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = 2.0 * A.T @ A
    kkt[:m, m] = w
    kkt[m, :m] = w
    rhs = np.concatenate([2.0 * A.T @ f, [1.0]])
    r = np.linalg.solve(kkt, rhs)[:m]
    return round_by_bisection(r[B : B + n + 1])


def fft_l2_profile(counts: np.ndarray, eps: float, eta: float, n: int) -> np.ndarray:
    """The same l2 pipeline through numpy.fft: invert the circulant on the
    window profile, correct the window sum along the least-norm direction,
    round by bisection."""
    d = len(counts)
    B = noise_radius(eps, eta, d)
    col = operator_column(eps, n, B)
    m = len(col)
    spectrum = np.fft.rfft(col)
    f = window_profile(counts, n, B)
    w = np.zeros(m)
    w[B : B + n + 1] = 1.0
    w_hat = np.fft.rfft(w)
    u = np.fft.irfft(np.fft.rfft(f) / spectrum, m)        # A^{-1} f
    c = np.fft.irfft(w_hat / np.conj(spectrum), m)        # A^{-T} w
    g = np.fft.irfft(w_hat / (spectrum * np.conj(spectrum)), m) / np.linalg.norm(c)  # A^{-1} c / |c|
    r = u - ((u @ w - 1.0) / (g @ w)) * g
    return round_by_bisection(r[B : B + n + 1])


def analytic_bounds(eps: float, eta: float, n: int, d: int, truth: np.ndarray) -> dict:
    """High-probability l1 / l2 / linf error bounds of the pipeline."""
    B = noise_radius(eps, eta, d)
    q = math.exp(-eps)
    P = kernel_mass(eps, B)
    inv_1_inf = (2.0 + q + math.exp(eps)) / (math.exp(eps) - q - 4.0 * q**B) * P
    inv_2 = P * (1.0 + q) / (1.0 - q - 2.0 * q ** (B + 1))
    padded = np.concatenate([np.zeros(B), truth, np.zeros(B)])
    expected = np.clip(dense_operator(eps, n, B) @ padded, 0.0, None)
    dev1 = float(np.sqrt(expected).sum()) / math.sqrt(d) + math.sqrt(2.0 * math.log(1.0 / eta) / d)
    dev2 = math.sqrt(1.0 / d) + math.sqrt(math.log(1.0 / eta) / d)
    log_n_eta = math.log(n / eta)
    devinf = math.sqrt(2.0 * log_n_eta / P / d) + log_n_eta / (3.0 * d)
    return {
        "l1": 2.0 * inv_1_inf * dev1,
        "l2": 2.0 * inv_2 * dev2,
        "linf": 2.0 * inv_1_inf * devinf,
    }


def norm(v: np.ndarray, p: str) -> float:
    return float({"l1": np.abs(v).sum(), "l2": np.sqrt(np.square(v).sum()), "linf": np.abs(v).max()}[p])


# --- checks ------------------------------------------------------------------

def _within(name: str, value: float, expect: float, stderr: float) -> list[str]:
    if abs(value - expect) > Z_TOL * stderr:
        return [f"{name} = {value:.6g}, expected {expect:.6g} +- {Z_TOL} x {stderr:.3g}"]
    return []


def check_dlap_noise(noise: np.ndarray, eps: float) -> list[str]:
    """Mean 0, variance 2q/(1-q)^2 and P[Z=0] = (1-q)/(1+q), q = e^-eps."""
    noise = np.asarray(noise, dtype=np.float64)
    d = len(noise)
    q = math.exp(-eps)
    var = 2.0 * q / (1.0 - q) ** 2
    # fourth central moment of the difference of two geometric variables
    mu4 = 2.0 * q * (1.0 + 10.0 * q + q * q) / (1.0 - q) ** 4
    p0 = (1.0 - q) / (1.0 + q)
    return (
        _within("noise mean", float(noise.mean()), 0.0, math.sqrt(var / d))
        + _within("noise variance", float(np.mean(noise * noise)), var, math.sqrt((mu4 - var * var) / d))
        + _within("noise zero mass", float(np.mean(noise == 0)), p0, math.sqrt(p0 * (1 - p0) / d))
    )


def check_clipped(clipped: np.ndarray, hist: np.ndarray, eps: float, n: int) -> list[str]:
    """Counts in [0, n]; where the true count is 0 the clipped count is 0
    with probability P[Z <= 0] = 1 / (1 + q)."""
    out = []
    if clipped.min() < 0 or clipped.max() > n:
        out.append(f"clipped counts span [{clipped.min()}, {clipped.max()}], outside [0, {n}]")
    zero = hist == 0
    k = int(zero.sum())
    p = 1.0 / (1.0 + math.exp(-eps))
    out += _within("P[clipped = 0 | count = 0]", float(np.mean(clipped[zero] == 0)), p, math.sqrt(p * (1 - p) / k))
    return out


def check_update(updated: np.ndarray, sketch: np.ndarray, delta: np.ndarray) -> list[str]:
    if updated.shape != sketch.shape or not np.array_equal(updated - sketch, delta):
        bad = int(np.count_nonzero(updated - sketch != delta)) if updated.shape == sketch.shape else -1
        return [f"updated - sketch differs from the delta file at {bad} entries"]
    return []


def check_profile_valid(values: np.ndarray, n: int) -> list[str]:
    out = []
    if len(values) != n + 1:
        out.append(f"profile has {len(values)} entries, expected {n + 1}")
    if not np.all(np.isfinite(values)) or values.min() < -1e-12 or values.max() > 1 + 1e-12:
        out.append("profile entries outside [0, 1]")
    if abs(float(values.sum()) - 1.0) > 1e-9:
        out.append(f"profile sums to {values.sum()!r}")
    return out


def check_close(name: str, got: np.ndarray, ref: np.ndarray, atol: float = PROFILE_ATOL) -> list[str]:
    if got.shape != ref.shape:
        return [f"{name}: shape {got.shape} vs reference {ref.shape}"]
    gap = float(np.max(np.abs(got - ref)))
    return [f"{name}: max |profile - reference| = {gap:.3e} > {atol:.0e}"] if gap > atol else []


def check_error_within_bound(values, truth, p, bound) -> list[str]:
    err = norm(values - truth, p)
    return [f"{p} error {err:.4g} exceeds the analytic bound {bound:.4g}"] if not err <= bound else []


# --- eval and innerprod ------------------------------------------------------

def parse_csv(text: str) -> tuple[list[dict], dict]:
    rows, notes = [], {}
    lines = text.splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        if line.startswith("# "):
            key, _, val = line[2:].partition("=")
            notes[key] = float(val)
        elif line:
            rows.append(dict(zip(header, line.split(","))))
    return rows, notes


def zipf_bounds(alpha: float, d_list, n: int, eps: float, eta: float) -> dict:
    """Analytic bounds per domain size for a zipf histogram.  The profile of
    rint(n rank^-alpha) does not depend on how the counts are shuffled."""
    return {d: analytic_bounds(eps, eta, n, d, exact_profile(zipf_counts(d, n, alpha), n)) for d in d_list}


def check_eval(text: str, bounds_by_d: dict, eta: float, trials: int) -> list[str]:
    """Bound column equal to the analytic bound, coverage >= 1 - eta per
    (d, norm), and fitted slopes within SLOPE_TOL of -1/2."""
    out = []
    rows, notes = parse_csv(text)
    if len(rows) != len(bounds_by_d) * trials * 3:
        return [f"eval wrote {len(rows)} rows, expected {len(bounds_by_d) * trials * 3}"]
    for d, bounds in bounds_by_d.items():
        for p in ("l1", "l2", "linf"):
            cell = [r for r in rows if int(r["d"]) == d and r["p"] == p]
            if len(cell) != trials:
                out.append(f"d={d} {p}: {len(cell)} rows, expected {trials}")
                continue
            errs = np.array([float(r["err"]) for r in cell])
            bnds = np.array([float(r["bound"]) for r in cell])
            if not np.allclose(bnds, bounds[p], rtol=1e-9, atol=0.0):
                out.append(f"d={d} {p}: bound column {float(bnds[0])!r} != analytic {bounds[p]!r}")
            if not np.all(np.isfinite(errs) & (errs >= 0)):
                out.append(f"d={d} {p}: non-finite or negative errors")
            coverage = float(np.mean(errs <= bounds[p]))
            if coverage < 1.0 - eta:
                out.append(f"d={d} {p}: bound coverage {coverage:.3f} < 1 - eta")
    for p in ("l1", "l2", "linf"):
        slope = notes.get(f"slope_{p}")
        if slope is None or not abs(slope + 0.5) <= SLOPE_TOL:
            out.append(f"fitted slope_{p} = {slope} is not within {SLOPE_TOL} of -1/2")
    return out


def twoparty_delta(d: int, eps: float, eta: float) -> float:
    """Noise scale of the two-party estimate: 6/d times the analytic
    row-sum bound of the inverse operator at n = 4."""
    B = noise_radius(eps, eta, d)
    q = math.exp(-eps)
    return 6.0 / d * (2.0 + q + math.exp(eps)) / (math.exp(eps) - q - 4.0 * q**B) * kernel_mass(eps, B)


def check_innerprod(text: str, d: int, trials: int, delta: float) -> list[str]:
    """true_ip has the parity of d and |true_ip| <= d, abs_error = |m_b -
    true_ip|, the delta column equals the analytic noise scale, and
    abs_error / sqrt(d) stays bounded."""
    out = []
    rows, _ = parse_csv(text)
    if len(rows) != trials:
        return [f"innerprod wrote {len(rows)} rows, expected {trials}"]
    for i, r in enumerate(rows):
        ip, m_b, err = int(r["true_ip"]), float(r["m_b"]), float(r["abs_error"])
        if int(r["d"]) != d or int(r["trial"]) != i:
            out.append(f"row {i}: d/trial columns wrong")
        if (ip - d) % 2 or abs(ip) > d:
            out.append(f"row {i}: true_ip={ip} impossible for d={d} sign vectors")
        if not math.isclose(err, abs(m_b - ip), rel_tol=1e-9, abs_tol=1e-6):
            out.append(f"row {i}: abs_error {err!r} != |m_b - true_ip|")
        if not math.isclose(float(r["delta"]), delta, rel_tol=1e-9):
            out.append(f"row {i}: delta {r['delta']} != analytic {delta!r}")
        if not err / math.sqrt(d) <= INNERPROD_SQRT_D_LIMIT:
            out.append(f"row {i}: abs_error / sqrt(d) = {err / math.sqrt(d):.3g} > {INNERPROD_SQRT_D_LIMIT}")
    return out


# Largest abs_error / sqrt(d) accepted for one inner-product trial.  Over
# 3000 trials at d = 1e5 the ratio behaved like |N(0, 1.76^2)| (mean 1.41,
# 99.9th percentile 5.8, maximum 7.6); 12 is 6.8 sigma.
INNERPROD_SQRT_D_LIMIT = 12.0

# Fitted slopes over 25 sweeps of the eval workload ranged over
# [-0.57, -0.32] (l1), [-0.65, -0.40] (l2) and [-0.64, -0.37] (linf).
SLOPE_TOL = 0.35
