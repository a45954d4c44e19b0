"""Profile reconstruction from a noisy sketch in near-linear time.

One route: bin the sketch into f~, take the product A^{-1} f~
(circulant.apply_inverse), then _profile_from_product, which corrects the
product to unit sum and rounds it.  reconstruct_profile, evaluation's trials
and twoparty's protocol all go that way.  The correction solves the
sum-constrained relaxation of the deconvolution problem exactly: it moves
the product along the single direction that is cheapest in the chosen
norm.  So the product is the one of the window's length a reconstruction
makes: every row of A sums to one, so A^{-1} 1 = 1, and the correction
direction is a constant plus a part local to the 2B pad entries, built once
per operator and norm in work that does not grow with n.  Rounding then
projects the relaxed solution into the feasible polytope (entries in [0, 1]
on the count window, zero outside, total mass one) without amplifying the
l1/l2 error and at most doubling the linf error.  Its last phase is a
Euclidean projection onto the simplex, solved without a full sort: a
strided sample brackets the threshold, and one pass over the window leaves
only the entries inside the bracket to solve exactly.  A window too short
to bracket, or one whose threshold the bracket misses, is solved by sorting
it whole.

Memory: a reconstruction owns one float64 array of the window's length and
does every step in it.  Binning (mechanism._bins) adds the counts to it a
block of 2^15 at a time, through one reused block buffer whatever d and m
are, and divides it by d, so that it holds f~.  apply_inverse writes A^{-1}
f~ = N (T f~) over it in one pass, a cache-sized block (circulant._BLOCK
entries) at a time: it forms T f~ on the block widened by N's half-width w
(a second difference, taken on the binned counts themselves, where its
cancellation is harmless), reading f~ right of the block and carrying the
rest over from the block before, then N's few nonzero taps over that into
the block.  The unit-sum correction is subtracted from it, and its core is
clipped and drained in place and handed to the profile as a view.  The
bracket's pass runs over the core a block at a time with block-sized
scratch; its sample, sorted once, is dropped before the pass, and the
entries inside the bracket, sorted in place, take about a tenth of 8m bytes
with their prefix sums at m ~ 1e6.  At n = d = 2^20 a warm reconstruction's
peak allocation (tracemalloc) is 1.10 times 8m bytes.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import circulant
from .circulant import CirculantOperator
from .mechanism import PrivateSketch, _window_profile
from .params import ReconstructionConfig, _Frozen

__all__ = [
    "Profile",
    "cached_operator",
    "reconstruct_profile",
    "write_profile_csv",
]

_SUM_TOL = 1e-9

# Operators kept for reuse (unit-sum corrections: three norms per operator).
# An operator holds its taps and a correction about 2B + 4w entries around
# the pad (w the reach of A^{-1}'s taps): a few KB each at m ~ 1e6 and
# eps >= 0.5, whatever n is.
_CACHE_SIZE = 8

# The drain threshold is first solved on every _SAMPLE_STRIDE-th entry; the
# bracket then spans _BRACKET_SPREAD sqrt(k) ranks of that k-entry sample on
# either side of the sample's threshold, several standard deviations of a
# sample quantile's rank.
_SAMPLE_STRIDE = 64
_BRACKET_SPREAD = 2


class Profile(_Frozen):
    """A valid frequency-of-frequencies vector over counts 0..n."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1 or len(values) < 1:
            raise ValueError("profile must be a non-empty 1-d vector")
        # written so that NaN fails every check
        if not (values.min() >= -_SUM_TOL and values.max() <= 1.0 + _SUM_TOL):
            raise ValueError("profile entries must lie in [0, 1]")
        if not abs(float(values.sum()) - 1.0) <= _SUM_TOL:
            raise ValueError("profile entries must sum to 1")
        values.flags.writeable = False
        self._set(values=values)

    @property
    def n(self) -> int:
        return len(self.values) - 1


def _core_sum(core: np.ndarray) -> float:
    """The sum of a relaxed solution's core, which must be 1."""
    core_sum = float(core.sum())
    if not abs(core_sum - 1.0) <= _SUM_TOL:  # NaN or inf in the core fails it
        raise ValueError(f"relaxed solution core sums to {core_sum}, must be 1")
    return core_sum


class _Correction(_Frozen):
    """A vector on the ring of length m: alpha everywhere, plus local[j] at
    ring index (start + j) mod m, on an arc of at most m indices.
    """

    __slots__ = ("m", "alpha", "start", "local")

    def __init__(self, m: int, alpha: float, start: int, local: np.ndarray):
        local.flags.writeable = False
        self._set(m=m, alpha=alpha, start=start % m, local=local)

    def runs(self) -> list[tuple[int, int, int]]:
        """The arc as (position j, its ring index, length) runs of ascending
        ring indices: one, or two where it wraps, which it does at most once."""
        head = min(len(self.local), self.m - self.start)
        runs = [(0, self.start, head)]
        if head < len(self.local):
            runs.append((head, 0, len(self.local) - head))
        return runs


def _ring_indices(m: int, start: int, length: int) -> np.ndarray:
    return (start + np.arange(length)) % m


def _local_image(op: CirculantOperator, start: int, x: np.ndarray) -> tuple[int, np.ndarray]:
    """A^{-1} applied to x at ring indices start, start + 1, ...: its image
    (start', values), w entries wider on each side (w the reach of A^{-1}'s
    taps) in O(len(x) nnz), or the whole ring from index 0.

    Padded with w zeros on each side, x fills a ring on which no tap wraps
    an entry of x onto another, so the cyclic product there is the linear
    one; when that ring is no longer than the window's, its entries are the
    image's at distinct ring indices.  A longer image covers the window's
    ring, and is formed there, on x laid on the ring, as the window's own
    product forms it.  Either way the image of an x mirrored about the pad
    centre is an exact mirror too.
    """
    m, w = op.m, op._inv_pairs[-1][0] + 1  # N's reach plus T's
    if len(x) + 2 * w > m:
        ring = np.zeros(m)
        ring[_ring_indices(m, start, len(x))] = x
        return 0, circulant._cyclic_product(op._inv_pairs, ring, side=op._t_side)
    padded = np.zeros(len(x) + 2 * w)
    padded[w : w + len(x)] = x
    return (start - w) % m, circulant._cyclic_product(op._inv_pairs, padded, side=op._t_side)


def _window_image(op: CirculantOperator, unit: float) -> tuple[int, np.ndarray]:
    """c = A^{-1} 1_window near the pad: (start, c on the arc from start).

    c = A^{-1} 1 - A^{-1} 1_pad, so c is `unit` (A^{-1} 1) wherever no tap
    reaches the 2B pad entries, and the arc is the pad widened by the reach
    w of A^{-1}'s taps on both sides, or the whole ring when that covers it.
    Either way the arc is centred on the pad, so reversing it mirrors it
    about the window centre; the operands of both products below are
    mirror-symmetric and the product is mirror-exact, so c is an exact
    mirror too.  Window-side entries are `unit` minus their sum over the
    pad-side taps, and pad-side entries their sum over the window-side taps,
    so an entry that no tap reaches is exactly `unit` or exactly 0.
    """
    m, B, w = op.m, op.B, op._inv_pairs[-1][0] + 1
    start, from_pad = _local_image(op, -B, np.ones(2 * B))
    c = unit - from_pad
    # pad entries: the image of the window's entries on the pad widened by
    # w each side (or on the whole ring), which every tap from the pad reads
    arc = _ring_indices(m, -(B + w), min(2 * (B + w), m))
    at, image = _local_image(op, -(B + w), ((arc >= B) & (arc <= B + op.n)).astype(np.float64))
    pad = _ring_indices(m, -B, 2 * B)
    c[(pad - start) % m] = image[(pad - at) % m]
    return start, c


@functools.lru_cache(maxsize=3 * _CACHE_SIZE)
def _correction_direction(op: CirculantOperator, p: str) -> tuple[_Correction, float]:
    """The unit-sum correction for (operator, norm): (A^{-1} a, <1_window, A^{-1} a>).

    The window image c = 1_window^T A^{-1} (= A^{-1} 1_window, as A is
    symmetric) and the optimal direction a, the unit-p-norm vector that
    maximizes <c, a>, depend only on the operator and the norm, never on
    the data, so they are computed once per pair and memoized.  Every row
    of A sums to one, so A^{-1} 1 = 1: c is constant away from the pad, and
    a and A^{-1} a are each a constant plus a part local to the pad (l2:
    c / ||c||; linf: sign(c) = 1 - 2 [c < 0], sign(0) taken as +1) or local
    alone (l1: e_t at the largest |c_t|).  So each is built as its constant
    and its local part, in work that does not grow with n.  A^{-1} 1 is 1
    up to the tap floor, and is taken as the product's own image of the
    all-ones vector, so the correction is the stored operator's own image.
    The local parts of c
    and of the l2 and linf images are exactly mirror-symmetric, so the l1
    direction's tie between the two window edges resolves by ring index
    (the lowest) instead of by roundoff.
    """
    m, unit = op.m, circulant._ones_image(op)
    start, c = _window_image(op, unit)
    if p == "l1":
        # the largest |c| at the lowest ring index, with ring indices taken
        # for the ties alone; past a shorter arc, c is `unit`, first at ring
        # index start + len(c)
        mag = np.abs(c)
        top = mag.max() if len(c) == m else max(mag.max(), abs(unit))
        ties = np.flatnonzero(mag == top)
        ring, values = (start + ties) % m, c[ties]
        if len(c) < m and abs(unit) == top:
            ring, values = np.append(ring, (start + len(c)) % m), np.append(values, unit)
        j = int(np.argmin(ring))
        sign = 1.0 if values[j] >= 0 else -1.0
        correction = _Correction(m, 0.0, *_local_image(op, int(ring[j]), np.array([sign])))
    elif p == "l2":
        norm = math.sqrt(float(np.sum(np.square(c))) + (m - len(c)) * unit**2)
        correction = _Correction(m, unit * unit / norm, *_local_image(op, start, (c - unit) / norm))
    elif p == "linf":
        correction = _Correction(m, unit, *_local_image(op, start, np.where(c < 0, -2.0, 0.0)))
    else:
        raise ValueError(f"unknown norm selector {p!r}")
    in_window = [correction.local[:0]]  # the local entries on the count window, in arc order
    for j, r, k in correction.runs():
        a, b = max(r, op.B), min(r + k, op.B + op.n + 1)
        if a < b:
            in_window.append(correction.local[j + a - r : j + b - r])
    denom = correction.alpha * (op.n + 1) + float(np.concatenate(in_window).sum())
    if abs(denom) < 1e-300:
        raise ArithmeticError(
            "degenerate correction direction; operator spectrum is broken"
        )
    return correction, denom


def _restore_sum(op: CirculantOperator, u: np.ndarray, p: str) -> None:
    """Correct the product u = A^{-1} f~, in place, into the optimum in norm
    p of the sum-constrained relaxation: the vector of unit window sum with
    the least residual, which may stray outside [0, 1].

    The local part is subtracted over the correction's arc, a block at a
    time through one block-sized scratch, so nothing grows with the arc.
    """
    correction, denom = _correction_direction(op, p)
    window_sum = float(u[op.B : op.B + op.n + 1].sum())
    step = (window_sum - 1.0) / denom
    if correction.alpha:
        u -= step * correction.alpha
    local, block = correction.local, circulant._BLOCK
    scratch = np.empty(min(block, len(local)))
    for j, r, k in correction.runs():
        for lo in range(0, k, block):
            b = min(block, k - lo)
            np.multiply(local[j + lo : j + lo + b], step, out=scratch[:b])
            u[r + lo : r + lo + b] -= scratch[:b]


def _bracket_threshold(r: np.ndarray, s: float) -> float:
    """Solve sum_t min(tau, r[t]) = s for tau >= 0, given 0 < s <= sum r.

    Equivalently sum_t max(r[t] - tau, 0) = sum r - s: tau is the threshold
    of the Euclidean projection of r onto a scaled simplex.  The threshold
    of every _SAMPLE_STRIDE-th entry, for the target scaled to the sample,
    sits at some rank j of the k sorted sample entries; the sample entries
    _BRACKET_SPREAD sqrt(k) ranks below and above j bracket tau as [lo, hi]
    (the sampling idea of Floyd & Rivest, CACM 1975, applied to the
    breakpoints as in Kiwiel, Math. Program. 2008).  One pass over r,
    a cache-sized block at a time with reused block-sized masks, then counts
    the entries above lo and above hi and the drained mass at lo, and
    compacts only the entries inside the bracket, which are solved exactly.
    When s is not between the drained masses at lo and hi, tau is not in the
    bracket, and a sort of all of r solves the problem, as it does at once
    for an r so short (under about 320 entries) that the spread spans the
    whole sample.
    """
    k = -(-len(r) // _SAMPLE_STRIDE)
    spread = _BRACKET_SPREAD * math.isqrt(k) + 1
    if spread >= k:  # no sample entry can bound tau: the bracket holds all of r
        return _sorted_threshold(r, s)
    sample = np.sort(r[::_SAMPLE_STRIDE])
    j = int(np.searchsorted(sample, _threshold_of_sorted(sample, s * k / len(r))))
    lo = float(sample[j - spread]) if j >= spread else 0.0
    hi = float(sample[j + spread]) if j + spread < k else math.inf
    del sample
    n_hi, drained_lo, parts = 0, 0.0, []
    size = min(circulant._BLOCK, len(r))
    above_lo, above_hi, low = np.empty(size, bool), np.empty(size, bool), np.empty(size)
    for start in range(0, len(r), circulant._BLOCK):
        block = r[start : start + circulant._BLOCK]
        b = len(block)
        np.greater(block, lo, out=above_lo[:b])
        np.greater(block, hi, out=above_hi[:b])
        n_hi += int(np.count_nonzero(above_hi[:b]))
        mask = np.logical_xor(above_lo[:b], above_hi[:b], out=above_lo[:b])  # lo < r <= hi
        parts.append(np.compress(mask, block))
        drained_lo += float(np.minimum(block, lo, out=low[:b]).sum())
    del above_lo, above_hi, low  # the block scratch, before the inside solve
    inside = np.concatenate(parts)
    del parts
    below = drained_lo - (len(inside) + n_hi) * lo  # the mass of the entries <= lo
    drained_hi = below + float(inside.sum()) + (n_hi * hi if n_hi else 0.0)
    if not (drained_lo <= s <= drained_hi and (len(inside) or n_hi)):
        return _sorted_threshold(r, s)
    inside.sort()  # this function's own array: sorted in place
    return _threshold_of_sorted(inside, s - below, above=n_hi)


def _sorted_threshold(r: np.ndarray, s: float) -> float:
    """_bracket_threshold's tau by sorting a copy of r: O(k log k) for k entries."""
    return _threshold_of_sorted(np.sort(r), s)


def _threshold_of_sorted(rs: np.ndarray, s: float, above: int = 0) -> float:
    """_bracket_threshold's tau on the k entries of rs, sorted ascending.

    `above` more entries are known to lie above tau, so each drains tau.
    On the sorted values the drained mass is piecewise linear in tau; the
    smallest sorted position whose plateau reaches s pins the linear piece,
    and tau follows in closed form.  When no position reaches s, tau lies
    above every entry: it is shared by the `above` entries or, without
    them, taken by the largest entry.  Besides rs, two arrays of k floats
    (the prefix sums and the plateaus) and a mask of k bytes are made.
    """
    k = len(rs)
    prefix = np.cumsum(rs)  # prefix[t - 1]: the mass of the t smallest entries
    # the plateau at position t: that mass plus (k + above - t) entries at rs[t]
    reach = np.arange(k + above, above, -1, dtype=np.float64)
    reach *= rs
    reach[1:] += prefix[:-1]
    reached = reach >= s
    t_star = int(np.argmax(reached)) if reached.any() else (k if above else k - 1)
    tau = (s - (float(prefix[t_star - 1]) if t_star > 0 else 0.0)) / (k + above - t_star)
    return max(tau, 0.0)


def _project(core: np.ndarray, core_sum: float) -> Profile:
    """Round a relaxed core whose checked sum is core_sum, in place.

    The core is clipped into [0, 1], which adds a surplus s = sum(clipped)
    - core_sum of mass, provably non-negative.  Exactly s is drained back
    out by lowering every entry by min(tau, entry), with tau from
    _bracket_threshold: the Euclidean projection of the clipped core onto
    the simplex.
    """
    clipped = np.clip(core, 0.0, 1.0, out=core)
    s = float(clipped.sum()) - core_sum
    if s < -_SUM_TOL:
        raise AssertionError(
            f"clipping surplus {s} is negative; the relaxed input violated "
            "the unit-sum constraint"
        )
    if s > 0:
        tau = _bracket_threshold(clipped, s)
        # max(c - tau, 0) is c - min(tau, c) bit for bit
        clipped -= tau
        np.maximum(clipped, 0.0, out=clipped)
    return Profile(values=clipped)


def _profile_from_product(op: CirculantOperator, u: np.ndarray, p: str) -> Profile:
    """The profile, in norm p, from the product u = A^{-1} f~, worked out in
    u's own memory: the second half of every reconstruction.

    u is corrected to unit sum (_restore_sum), its core's sum checked
    (_core_sum), and the core clipped and drained (_project), all in place;
    the mass outside the count window is discarded with the pad.  The
    profile's values are a view of u's core, and u is left read-only.
    """
    _restore_sum(op, u, p)
    core = u[op.B : op.B + op.n + 1]
    profile = _project(core, _core_sum(core))
    u.flags.writeable = False
    return profile


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
    """Full pipeline: bin -> invert -> correct -> round.

    Deterministic given the sketch, except that a clipped sketch consumes
    randomness from rng: it is binned as its unfolding (empirical_profile).
    """
    if s.clipped and rng is None:
        raise ValueError("a clipped sketch needs an rng for unfolding")
    op = cached_operator(cfg)  # before binning: it refuses an ill-conditioned window
    # one buffer of the window's length is f~, then A^{-1} f~, then the
    # relaxed solution, whose core becomes the profile
    window = _window_profile(s, cfg, rng)
    circulant.apply_inverse(op, window, out=window)
    return _profile_from_product(op, window, cfg.p_norm)


def write_profile_csv(path: str, profile: Profile) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,value\n")
        for t, v in enumerate(profile.values):
            fh.write(f"{t},{float(v)!r}\n")
