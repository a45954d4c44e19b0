"""Profile reconstruction from a noisy sketch in near-linear time.

Two stages. Fast inversion solves the sum-constrained relaxation of the
deconvolution problem exactly: it inverts the circulant operator on the
empirical profile and then restores the unit-sum constraint by moving along
the single direction that is cheapest in the chosen norm.  Rounding then
projects the relaxed solution into the feasible polytope (entries in [0, 1]
on the count window, zero outside, total mass one) without amplifying the
l1/l2 error and at most doubling the linf error.  Its last phase is a
Euclidean projection onto the simplex, solved without sorting in expected
linear time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import circulant
from .circulant import CirculantOperator
from .mechanism import (
    EmpiricalProfile,
    PrivateSketch,
    ReconstructionConfig,
    empirical_profile,
    unfold,
)

__all__ = [
    "Profile",
    "RelaxedSolution",
    "direction_vector",
    "fast_inversion",
    "threshold_tau",
    "rounding",
    "cached_operator",
    "reconstruct_profile",
    "write_profile_csv",
]

_SUM_TOL = 1e-9

# Operators kept for reuse (unit-sum corrections: three norms per operator).
# At m ~ 1e6 an operator holds under 2 KB of taps and a correction 8 MB.
_CACHE_SIZE = 8

# Michelot passes in threshold_tau before it sorts the entries still active.
# Relaxed solutions at n = d = 1e6 and eps 0.5-2 take 2-5 passes.
_MAX_PASSES = 8


@dataclass(frozen=True)
class Profile:
    """A valid frequency-of-frequencies vector over counts 0..n."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or len(values) < 1:
            raise ValueError("profile must be a non-empty 1-d vector")
        if values.min() < -_SUM_TOL or values.max() > 1.0 + _SUM_TOL:
            raise ValueError("profile entries must lie in [0, 1]")
        if abs(float(values.sum()) - 1.0) > _SUM_TOL:
            raise ValueError("profile entries must sum to 1")
        values.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.values) - 1


@dataclass(frozen=True)
class RelaxedSolution:
    """Optimum of the sum-constrained relaxation, indexed t = -B .. n+B.

    Entries may stray outside [0, 1]; only the unit sum over the count
    window 0..n is guaranteed.
    """

    values: np.ndarray
    n: int
    B: int
    objective_norm: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if len(values) != self.n + 2 * self.B + 1:
            raise ValueError("relaxed solution has wrong length for (n, B)")
        core_sum = float(values[self.B : self.B + self.n + 1].sum())
        if abs(core_sum - 1.0) > _SUM_TOL:
            raise ValueError(
                f"relaxed solution core sums to {core_sum}, must be 1"
            )
        values.flags.writeable = False

    def core(self) -> np.ndarray:
        """The slice covering counts 0..n."""
        return self.values[self.B : self.B + self.n + 1]


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


@functools.lru_cache(maxsize=3 * _CACHE_SIZE)
def _correction_direction(op: CirculantOperator, p: str) -> tuple[np.ndarray, float]:
    """The unit-sum correction for (operator, norm): (A^{-1} a, <1, A^{-1} a>).

    The window image c = 1^T A^{-1} (= A^{-1} 1, as A is symmetric) and the
    optimal direction a depend only on the operator and the norm, never on
    the data, so they are computed once per pair and memoized.
    """
    ones = np.zeros(op.m)
    ones[op.B : op.B + op.n + 1] = 1.0
    # the window sits centred in the ring and the product is mirror-exact,
    # so c mirrors about the window centre bit for bit, and the l1
    # direction's tie between the two window edges resolves by index (the
    # lowest) instead of by roundoff
    c = circulant.apply_inverse(op, ones)
    a = direction_vector(c, p)
    correction = circulant.apply_inverse(op, a)
    denom = float(correction[op.B : op.B + op.n + 1].sum())
    if abs(denom) < 1e-300:
        raise ArithmeticError(
            "degenerate correction direction; operator spectrum is broken"
        )
    correction.flags.writeable = False
    return correction, denom


def fast_inversion(
    op: CirculantOperator, f_tilde, p: str = "l2"
) -> RelaxedSolution:
    """Optimal solution of the sum-constrained deconvolution relaxation.

    Computes u = A^{-1} f, then corrects the unit-sum violation along
    A^{-1} a, where a is the unit-norm direction whose image has the largest
    window sum.  The returned vector satisfies the sum constraint exactly and
    attains the minimum residual among all vectors that do.
    """
    f = f_tilde.values if isinstance(f_tilde, EmpiricalProfile) else f_tilde
    u = circulant.apply_inverse(op, f)  # rejects a vector of the wrong shape
    correction, denom = _correction_direction(op, p)
    window_sum = float(u[op.B : op.B + op.n + 1].sum())
    u -= ((window_sum - 1.0) / denom) * correction
    return RelaxedSolution(values=u, n=op.n, B=op.B, objective_norm=p)


def threshold_tau(r: np.ndarray, s: float) -> float:
    """Solve sum_t min(tau, r[t]) = s for tau >= 0, in expected linear time.

    Equivalently sum_t max(r[t] - tau, 0) = sum r - s: tau is the threshold
    of the Euclidean projection of r onto a scaled simplex, found by
    Michelot's fixed point (J. Optim. Theory Appl. 1986) with a bounded
    number of passes and a sort of the remaining entries as the fallback.
    """
    r = np.asarray(r, dtype=np.float64)
    total = float(r.sum())
    if s < 0 or s > total + 1e-9:
        raise ValueError(f"target s={s} outside [0, sum r = {total}]")
    if s <= 0:
        return 0.0
    if not len(r):  # an s within the tolerance of the empty sum
        return s
    return _drain_threshold(r, s, total)[0]


def _drain_threshold(r: np.ndarray, s: float, total: float) -> tuple[float, int]:
    """threshold_tau's tau for s > 0, and the number of Michelot passes made.

    A pass takes tau = (s - mass of the inactive entries) / #active and keeps
    active only the entries above it.  Starting from all entries, every
    active set holds the solution's, so tau rises to the solution from below
    and the passes stop when none is dropped.  Each pass is linear in the
    active entries, which usually shrink to the solution's in a few passes;
    an input that drops one entry per pass meets the cap, after which the
    active entries are solved by sorting, as they hold the whole problem.
    """
    active, active_sum = r, total
    for passes in range(1, _MAX_PASSES + 1):
        tau = (s - (total - active_sum)) / len(active)
        kept = active[active > tau]
        # nothing dropped: converged; nothing kept: s reaches sum r
        if len(kept) == len(active) or not len(kept):
            return max(tau, 0.0), passes
        active, active_sum = kept, float(kept.sum())
    return _sorted_threshold(active, s - (total - active_sum)), _MAX_PASSES


def _sorted_threshold(r: np.ndarray, s: float) -> float:
    """threshold_tau by sorting: O(k log k) for k entries.

    On the sorted values the drained mass is piecewise linear in tau; the
    smallest sorted position whose plateau reaches s pins the linear piece,
    and tau follows in closed form.
    """
    rs = np.sort(r)
    k = len(rs)
    prefix = np.concatenate(([0.0], np.cumsum(rs)[:-1]))
    reach = prefix + (k - np.arange(k)) * rs
    hits = np.flatnonzero(reach >= s)
    t_star = int(hits[0]) if len(hits) else k - 1
    tau = (s - float(prefix[t_star])) / (k - t_star)
    return max(tau, 0.0)


def rounding(r: RelaxedSolution, n: int) -> Profile:
    """Project a relaxed solution onto the feasible profile polytope.

    Phase 1 discards mass outside counts 0..n.  Phase 2 clips the window into
    a new array in [0, 1]; the clipping adds a surplus s = sum(clipped) -
    sum(window) of mass, which is provably non-negative.  Phase 3 drains
    exactly s back out of that array, in place, by lowering every entry by
    min(tau, entry) with tau as threshold_tau finds it: this is the Euclidean
    projection of the clipped window onto the simplex, and it takes linear
    time in expectation.
    """
    if n != r.n:
        raise ValueError(f"n={n} does not match the relaxed solution (n={r.n})")
    core = r.core()
    clipped = np.clip(core, 0.0, 1.0)
    clipped_sum = float(clipped.sum())
    s = clipped_sum - float(core.sum())
    if s < -_SUM_TOL:
        raise AssertionError(
            f"clipping surplus {s} is negative; the relaxed input violated "
            "the unit-sum constraint"
        )
    if s > 0:
        tau = _drain_threshold(clipped, s, clipped_sum)[0]
        # max(c - tau, 0) is c - min(tau, c) bit for bit
        clipped -= tau
        np.maximum(clipped, 0.0, out=clipped)
    return Profile(values=clipped)


def cached_operator(cfg: ReconstructionConfig) -> CirculantOperator:
    """The operator for cfg, shared by every config with the same (n, B, epsilon)."""
    return _operator(cfg.n, cfg.B, cfg.epsilon)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _operator(n: int, B: int, epsilon: float) -> CirculantOperator:
    # eta and d only derive B, which is given here
    cfg = ReconstructionConfig(
        epsilon=epsilon, eta=0.5, n=n, d=1, B=B, allow_small_n=True
    )
    return circulant.build_operator(cfg)


def reconstruct_profile(
    s: PrivateSketch,
    cfg: ReconstructionConfig,
    rng: np.random.Generator | None = None,
) -> Profile:
    """Full pipeline: (unfold if clipped) -> bin -> invert -> round.

    Deterministic given the sketch, except that clipped sketches consume
    randomness from rng for the boundary unfolding.
    """
    if s.clipped:
        if rng is None:
            raise ValueError("a clipped sketch needs an rng for unfolding")
        s = unfold(s, rng)
    op = cached_operator(cfg)  # before binning: it refuses an ill-conditioned window
    f_tilde = empirical_profile(s, cfg)
    relaxed = fast_inversion(op, f_tilde, cfg.p_norm)
    return rounding(relaxed, cfg.n)


def write_profile_csv(path: str, profile: Profile) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,value\n")
        for t, v in enumerate(profile.values):
            fh.write(f"{t},{float(v)!r}\n")
