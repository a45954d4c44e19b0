"""Brute-force reference implementations used only by the test suite.

Everything here is quadratic or worse, or works item by item, and exists to
cross-check the fast paths: the operator's generator row from its closed
form, dense realizations of the operator and its product as a circular
convolution, its spectrum in closed form,
its inverse taps as the package once built them (by an FFT on rings of up
to the window's length) and as its closed form gives them in 40-digit
arithmetic, the optimal correction direction on a whole vector, exact
constrained least squares via the stationarity system, the unfolding of a
clipped sketch formed whole, Monte-Carlo simulation of the mass-smearing
process, bisection for the drain threshold, the iterative form of the
rounding adjustment, and the two-party protocol run party by party.  The
package itself never imports this module.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from dpprofile.circulant import kernel_normalizer, spectrum_floor
from dpprofile.mechanism import (
    Histogram,
    PrivateSketch,
    int64_array,
    privatize,
    sample_geometric,
    update,
)
from dpprofile.params import MIN_EIGENVALUE, ReconstructionConfig, min_truncation_radius
from dpprofile.reconstruct import Profile, reconstruct_profile
from dpprofile.twoparty import PROTOCOL_N, ProtocolResult, _publish, protocol_config

__all__ = [
    "generator_vector",
    "DenseOperator",
    "dense_operator",
    "circular_apply",
    "dense_solve",
    "eigenvalues",
    "fft_inverse_taps",
    "exact_inverse_column",
    "factored_column",
    "equality_constrained_ls",
    "unfold",
    "sample_truncated_dlap",
    "monte_carlo_generator",
    "bisection_tau",
    "iterated_adjustment",
    "direction_vector",
    "PartyVector",
    "alice_message",
    "bob_estimate",
]

# Guard against accidentally materializing production-sized matrices.
_MAX_DENSE = 4096
_MAX_KKT = 1024


def generator_vector(epsilon: float, n: int, B: int) -> np.ndarray:
    """First row of the operator on the window of length m = n + 2B + 1.

    Entry l is e^{-eps * ring_distance(0, l)} / P for ring distances up to B
    and zero beyond, where P, the sum of the row, normalizes it to one.
    """
    m = n + 2 * B + 1
    dist = np.minimum(np.arange(m), m - np.arange(m))
    row = np.where(dist <= B, np.exp(-epsilon * dist), 0.0)
    return row / math.fsum(row)


@dataclass(frozen=True)
class DenseOperator:
    """Explicit m-by-m realization of the deconvolution operator."""

    entries: np.ndarray
    n: int
    B: int

    def __post_init__(self):
        self.entries.flags.writeable = False

    @property
    def m(self) -> int:
        return len(self.entries)


def dense_operator(cfg: ReconstructionConfig) -> DenseOperator:
    """Materialize the operator row by row from its generator vector.

    Row k is the k-fold right cyclic shift of the first row, so entry (k, l)
    is e^{-eps * ring_distance(k, l)} / P for ring distances up to B and zero
    beyond.
    """
    m = cfg.m
    if m > _MAX_DENSE:
        raise ValueError(f"dense realization refused for m={m} > {_MAX_DENSE}")
    gen = generator_vector(cfg.epsilon, cfg.n, cfg.B)
    entries = np.empty((m, m))
    for k in range(m):
        entries[k] = np.roll(gen, k)
    return DenseOperator(entries=entries, n=cfg.n, B=cfg.B)


def circular_apply(cfg: ReconstructionConfig, x: np.ndarray) -> np.ndarray:
    """A x on a window too long for dense_operator: the circular convolution
    of x with the generator's 2B + 1 nonzero taps, by np.convolve of x
    wrapped B entries on each side."""
    B = cfg.B
    taps = np.exp(-cfg.epsilon * np.abs(np.arange(-B, B + 1)))
    taps /= math.fsum(taps)
    return np.convolve(np.concatenate((x[len(x) - B :], x, x[:B])), taps, "valid")


def dense_solve(dense: DenseOperator, x: np.ndarray) -> np.ndarray:
    """Solve A y = x with a pivoted dense factorization and check the residual."""
    x = np.asarray(x, dtype=np.float64)
    if dense.m > _MAX_DENSE:
        raise ValueError(f"dense solve refused for m={dense.m}")
    try:
        y = np.linalg.solve(dense.entries, x)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular dense operator: {exc}") from exc
    resid = float(np.max(np.abs(dense.entries @ y - x)))
    if resid > 1e-10 * max(1.0, float(np.max(np.abs(x)))):
        raise AssertionError(f"dense solve residual {resid:.3e} too large")
    return y


def _half_spectrum(epsilon: float, B: int, ring: int) -> np.ndarray:
    """Eigenvalues of modes 0..ring//2 of the kernel wrapped on a ring.

    The other modes mirror these, since the kernel is symmetric.  The
    eigenvalue at angle theta is (1 + 2 sum_{j=1..B} q^j cos(j theta)) / P;
    summing the geometric series collapses it to a ratio of three cosines,
    so each mode costs O(1) scalar operations.
    """
    q = math.exp(-epsilon)
    k = np.arange(ring // 2 + 1)

    def cos_of(j: int) -> np.ndarray:
        return np.cos((2.0 * np.pi / ring) * ((j * k) % ring))

    numer = 1.0 - q * q - 2.0 * q ** (B + 1) * (cos_of(B + 1) - q * cos_of(B))
    denom = 1.0 - 2.0 * q * cos_of(1) + q * q
    return numer / denom / kernel_normalizer(epsilon, B)


def eigenvalues(op) -> np.ndarray:
    """An operator's real spectrum; index i holds the eigenvalue of mode i."""
    half = _half_spectrum(op.epsilon, op.B, op.m)
    return np.concatenate((half, half[1 : op.m - len(half) + 1][::-1]))


def fft_inverse_taps(cfg: ReconstructionConfig) -> np.ndarray:
    """Centred taps of A^{-1}, as the package built them before it summed
    the closed form's series: the inverse spectrum's transform on a small
    ring, exactly symmetric and zero below 1e-15 of the largest tap.

    On a ring longer than the kernel's 2B + 1 taps, the inverse column is
    the line kernel summed over its wrap-arounds, so once the trimmed taps
    fill at most a quarter of such a ring, the wrapped tails are below the
    floor and the ring's taps are the window's.  Rings double from the least
    power of two longer than the kernel, and from 64; one that reaches m
    has the window's own column used whole.  A window of several million
    entries takes seconds and some 170 bytes per entry.
    """
    epsilon, B, m = cfg.epsilon, cfg.B, cfg.m
    if B < min_truncation_radius(epsilon) or spectrum_floor(epsilon, B) < MIN_EIGENVALUE:
        raise ValueError("the operator is not proven invertible")
    ring = max(64, 1 << (2 * B + 1).bit_length())
    while True:
        ring = min(ring, m)
        col = np.fft.irfft(1.0 / _half_spectrum(epsilon, B, ring), ring)
        mag = np.abs(col[: ring // 2 + 1])  # col is symmetric
        w = int(np.flatnonzero(mag > 1e-15 * mag.max())[-1])
        if 4 * w < ring or ring == m:
            break
        ring *= 2
    # taps[w + u] = col[u mod ring] for centred offsets u in [-w, w]
    taps = np.concatenate((col[ring - w :], col[: w + 1]))
    taps = 0.5 * (taps + taps[::-1])
    taps[np.abs(taps) <= 1e-15 * mag.max()] = 0.0
    if 2 * w == ring:
        # offsets -ring/2 and +ring/2 are the same antipodal entry; split it
        taps[0] = taps[-1] = taps[0] / 2.0
    return taps


def exact_inverse_column(epsilon: float, B: int, m: int) -> dict[int, float]:
    """A^{-1}'s first column on Z_m, {ring index: entry}, from the closed
    form P/(1 - q^2) T (I - E)^{-1} summed in 40-digit decimal arithmetic.

    It starts from the package's double-precision q, 1 - q^2 and P (whose
    own rounding it does not judge), sums (I - E)^{-1} = sum_k E^k power by
    power on the ring until a power's l1 norm is below 1e-24, and keeps
    every entry.  It needs no array of the window's length.
    """
    q_f = math.exp(-epsilon)
    with localcontext() as ctx:
        ctx.prec = 40
        q, one_q2 = Decimal(q_f), Decimal(1.0 - q_f * q_f)
        e = defaultdict(Decimal)
        for offset, tap in ((B, -q ** (B + 2)), (-B, -q ** (B + 2)),
                            (B + 1, q ** (B + 1)), (-B - 1, q ** (B + 1))):
            e[offset % m] += tap / one_q2
        power, series = {0: Decimal(1)}, defaultdict(Decimal, {0: Decimal(1)})
        while sum(abs(v) for v in power.values()) >= Decimal("1e-24"):
            nxt = defaultdict(Decimal)
            for u, v in power.items():
                for offset, tap in e.items():
                    nxt[(u + offset) % m] += v * tap
            power = nxt
            for u, v in power.items():
                series[u] += v
        scale = Decimal(kernel_normalizer(epsilon, B)) / one_q2
        col = defaultdict(Decimal)
        for u, v in series.items():
            col[u] += scale * (1 + q * q) * v
            col[(u + 1) % m] -= scale * q * v
            col[(u - 1) % m] -= scale * q * v
        return {u: float(v) for u, v in col.items()}


def factored_column(op) -> dict[int, float]:
    """A^{-1}'s first column on Z_m as an operator stores it, T N laid out
    from N's (offset, tap) pairs and T's side tap: {ring index: entry}."""
    m, side = op.m, op._t_side
    n_col = defaultdict(float)
    for u, tap in op._inv_pairs:
        n_col[u % m] += tap
        if u:
            n_col[-u % m] += tap
    col = defaultdict(float)
    for u, v in n_col.items():
        col[u] += v
        col[(u + 1) % m] += side * v
        col[(u - 1) % m] += side * v
    return dict(col)


def equality_constrained_ls(dense: DenseOperator, f_tilde: np.ndarray) -> np.ndarray:
    """Exact minimizer of ||A r - f||_2 subject to the window sum being one.

    Solves the stationarity system [2 A^T A, e; e^T, 0] [r; lam] = [2 A^T f; 1]
    densely, where e is the indicator of the count window.  A is invertible,
    so the minimizer is unique.
    """
    m = dense.m
    if m > _MAX_KKT:
        raise ValueError(f"constrained solve refused for m={m} > {_MAX_KKT}")
    f = np.asarray(f_tilde, dtype=np.float64)
    if f.shape != (m,):
        raise ValueError(f"profile has shape {f.shape}, expected ({m},)")
    A = dense.entries
    ones = np.zeros(m)
    ones[dense.B : dense.B + dense.n + 1] = 1.0
    system = np.zeros((m + 1, m + 1))
    system[:m, :m] = 2.0 * A.T @ A
    system[:m, m] = ones
    system[m, :m] = ones
    rhs = np.concatenate([2.0 * A.T @ f, [1.0]])
    try:
        solution = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular stationarity system: {exc}") from exc
    return solution[:m]


def unfold(s: PrivateSketch, rng: np.random.Generator) -> PrivateSketch:
    """Convert a clipped sketch into one distributed like an unclipped sketch.

    Interior entries are kept; entries stuck at the boundaries are pushed
    outward by an independent geometric draw (0 becomes -G, n becomes n + G).
    Memorylessness of the geometric distribution makes the result exactly
    distributed as unclipped noisy counts.
    """
    if not s.clipped:
        raise ValueError("sketch is already unclipped")
    counts = s.counts.copy()
    at_zero = np.flatnonzero(counts == 0)
    at_n = np.flatnonzero(counts == s.n)
    if len(at_zero):
        counts[at_zero] -= sample_geometric(s.epsilon, rng, size=len(at_zero))
    if len(at_n):
        counts[at_n] += sample_geometric(s.epsilon, rng, size=len(at_n))
    return PrivateSketch(counts=counts, epsilon=s.epsilon, n=s.n, clipped=False)


def sample_truncated_dlap(
    epsilon: float, B: int, rng: np.random.Generator, size=None
):
    """Two-sided exponential noise conditioned on magnitude at most B.

    Sampled by inverse CDF over the 2B+1 support points, which realizes the
    conditional distribution exactly without rejection.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if B < 0:
        raise ValueError("B must be non-negative")
    support = np.arange(-B, B + 1)
    pmf = np.exp(-epsilon * np.abs(support))
    cdf = np.cumsum(pmf / pmf.sum())
    u = rng.random(size)
    idx = np.searchsorted(cdf, u, side="right")
    out = support[np.minimum(idx, 2 * B)]
    if size is None:
        return int(out)
    return out.astype(np.int64)


def monte_carlo_generator(
    r: Profile,
    cfg: ReconstructionConfig,
    d: int,
    trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Empirical mean of the mass-smearing process applied to a profile.

    Each trial places r[t] * d items at count t, moves every item by an
    independent truncated noise draw, and bins the result into the window
    [-B, n+B]; the mean over trials estimates the operator image of the
    padded profile.
    """
    if trials < 1 or d < 1:
        raise ValueError("trials and d must be >= 1")
    if r.n != cfg.n:
        raise ValueError(f"profile covers counts 0..{r.n}, config expects 0..{cfg.n}")
    scaled = r.values * d
    counts = np.rint(scaled).astype(np.int64)
    if np.max(np.abs(scaled - counts)) > 1e-6:
        raise ValueError("profile entries must be integer multiples of 1/d")
    if counts.sum() != d:
        raise ValueError("profile mass does not correspond to d items")
    items = np.repeat(np.arange(len(counts)), counts)
    m = cfg.m
    acc = np.zeros(m)
    for _ in range(trials):
        noise = sample_truncated_dlap(cfg.epsilon, cfg.B, rng, size=d)
        acc += np.bincount(items + noise + cfg.B, minlength=m)
    return acc / (trials * d)


def bisection_tau(r: np.ndarray, s: float) -> float:
    """Solve sum_t min(tau, r[t]) = s by bisection on the monotone drain map."""
    r = np.asarray(r, dtype=np.float64)
    total = float(r.sum())
    if s < 0 or s > total + 1e-9:
        raise ValueError(f"target s={s} outside [0, sum r = {total}]")
    if s <= 0:
        return 0.0

    def drained(tau: float) -> float:
        return float(np.minimum(tau, r).sum())

    lo, hi = 0.0, max(1.0, float(r.max()))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if drained(mid) < s:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12:
            break
    return 0.5 * (lo + hi)


def iterated_adjustment(r: np.ndarray, s: float) -> np.ndarray:
    """Drain total mass s from r by repeated uniform decrements.

    Works on the ascending order: at step t it lowers every still-active
    entry by the largest uniform amount that neither exhausts the smallest
    active entry nor overshoots the remaining target.  Equivalent to the
    single-threshold drain, and returned in the original entry order.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.min() < 0 or r.max() > 1:
        raise ValueError("entries must lie in [0, 1]")
    total = float(r.sum())
    if s < 0 or s > total + 1e-9:
        raise ValueError(f"target s={s} outside [0, sum r = {total}]")
    order = np.argsort(r, kind="stable")
    work = r[order].copy()
    k = len(work)
    t = 0
    remaining = s
    while t < k and remaining > 0:
        step = min(work[t], remaining / (k - t))
        work[t:] -= step
        remaining -= step * (k - t)
        t += 1
    out = np.empty_like(work)
    out[order] = work
    return out


def direction_vector(c: np.ndarray, p: str) -> np.ndarray:
    """Unit-p-norm vector a maximizing <c, a>.

    l1: a signed standard basis vector at the largest |c_t| (lowest index on
    ties); l2: c normalized; linf: the coordinate-wise sign vector, with
    sign(0) taken as +1.  All three choices are exact maximizers.
    """
    c = np.asarray(c, dtype=np.float64)
    if not np.any(c):
        raise ValueError("cannot build a direction for an all-zero vector")
    if p == "l1":
        t = int(np.argmax(np.abs(c)))  # argmax returns the first maximizer
        a = np.zeros_like(c)
        a[t] = 1.0 if c[t] >= 0 else -1.0
        return a
    if p == "l2":
        return c / np.sqrt(np.sum(np.square(c)))
    if p == "linf":
        return np.where(c >= 0, 1.0, -1.0)
    raise ValueError(f"unknown norm selector {p!r}")


# --- the two-party protocol, party by party ----------------------------------

@dataclass(frozen=True)
class PartyVector:
    """A party's input: a vector with every entry -1 or +1."""

    bits: np.ndarray

    def __post_init__(self):
        bits = int64_array(self.bits, "party vector entries")
        object.__setattr__(self, "bits", bits)
        if bits.ndim != 1 or len(bits) < 1:
            raise ValueError("party vector must be a non-empty 1-d vector")
        if not np.all(np.abs(bits) == 1):
            raise ValueError("party vector entries must be -1 or +1")
        bits.flags.writeable = False

    @property
    def d(self) -> int:
        return len(self.bits)


def alice_message(
    x: PartyVector, epsilon: float, rng: np.random.Generator
) -> PrivateSketch:
    """Alice's single message: a privatized, unclipped sketch of x + 1."""
    h = Histogram(counts=x.bits + 1, n=PROTOCOL_N)
    return privatize(h, epsilon, clip=False, rng=rng)


def bob_estimate(
    m_a: PrivateSketch,
    y: PartyVector,
    epsilon: float,
    delta: float,
    rng: np.random.Generator,
    x_for_truth: PartyVector | None = None,
) -> ProtocolResult:
    """Bob's turn: update the sketch with y + 1, reconstruct, publish.

    The published value is the one twoparty._publish states.  Providing
    x_for_truth fills in the exact inner product for error accounting (it
    is not used by the estimate itself).
    """
    if y.d != m_a.d:
        raise ValueError(f"y has length {y.d}, sketch has length {m_a.d}")
    updated = update(m_a, y.bits + 1)
    r = reconstruct_profile(updated, protocol_config(epsilon, m_a.d))
    m_b = _publish(r.values, m_a.d, delta, epsilon, rng)
    true_ip = int(x_for_truth.bits @ y.bits) if x_for_truth is not None else 0
    return ProtocolResult(
        m_b=m_b, true_ip=true_ip, delta_used=delta, abs_error=abs(m_b - true_ip)
    )
