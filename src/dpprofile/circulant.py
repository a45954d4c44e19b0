"""Circulant deconvolution operator applied in near-linear time at any size.

The operator A maps a (padded) profile to the expected empirical profile of
its noisy histogram: each unit of mass is smeared by a truncated two-sided
exponential kernel with decay e^{-eps} and support radius B, normalized so
every row sums to one.  Because the kernel wraps cyclically on the index
window of length m = n + 2B + 1, A is circulant, and because the kernel is
symmetric, so is A: its eigenvalues are real (a cosine closed form), and
its inverse is again a symmetric circulant, so A^{-T} = A^{-1}.

An operator is its taps: A and A^{-1} are each stored as an exactly
symmetric vector of centred taps (the first column at offsets -w..w) and
applied by one cyclic product that visits only the nonzero taps, folding
each pair of offsets +-u into one multiply, at O(m nnz) cost.  The forward
taps are the kernel's 2B + 1 entries; the generator row and the spectrum
are computed on read.  The inverse factors as P/(1-q^2) T (I - E)^{-1},
with q = e^{-eps}, T the 3-tap circulant (-q, 1+q^2, -q) and E a 4-tap
circulant at offsets +-B and +-(B+1) of norm rho = 2q^{B+1}/(1-q).  The
derived B is at least the conditioning radius log(4/sinh eps)/eps, which
holds rho below (1 + q)/4 <= 1/2, so the powers of E, and with them the
inverse taps, fall below the double-precision noise floor within a few
dozen clusters at offsets near 0, +-B, +-2B, ..., each a few dozen taps
wide.  So nnz does not grow with 1/eps, while the half-width w, which
spans the clusters, grows like B.  Taps below the noise floor are zeroed.
When the analytic spectrum floor proves every eigenvalue, the taps are read
off the inverse on a small ring that is still longer than the kernel, where
the wrapped-around tails are far below roundoff, so the build does no work
that grows with m.  Otherwise a window longer than _SPECTRUM_CAP is refused
on the floor alone, before any work of its length, and a shorter one (or
one whose taps would span the whole window) has its spectrum checked
exactly and its own inverse column used whole, which is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .params import MIN_EIGENVALUE, ReconstructionConfig

__all__ = [
    "CirculantOperator",
    "NormBounds",
    "generator_vector",
    "build_operator",
    "apply",
    "apply_inverse",
    "norm_bounds",
]

# Kernel entries below this fraction of the peak are indistinguishable from
# the roundoff already present in an FFT-computed kernel; dropping them
# changes products by strictly less than ordinary transform roundoff.
_TAP_FLOOR = 1e-15

# Longest window whose spectrum is formed to decide invertibility when the
# analytic floor cannot; a longer one is refused on the floor alone.
_SPECTRUM_CAP = 1 << 20

# Smallest ring tried for the inverse taps; rings double from here, or from
# the least power of two longer than the kernel's 2B + 1 taps.
_FIRST_RING = 64

# Outputs per block of the cyclic product: a block's accumulator, its pair
# scratch and the operand slices it reads (256 KB each) stay in a 2 MB L2.
_BLOCK = 1 << 15


@dataclass(eq=False)
class CirculantOperator:
    """The operator as its taps; generator and spectrum are computed on read."""

    m: int
    n: int
    B: int
    epsilon: float
    p_norm_const: float
    _fwd_taps: np.ndarray = field(repr=False)  # centred taps of A (2B+1)
    _inv_taps: np.ndarray = field(repr=False)  # centred taps of A^{-1}

    def __post_init__(self):
        # operators are shared through the cache, so nothing may edit them
        self._fwd_taps.flags.writeable = False
        self._inv_taps.flags.writeable = False

    @property
    def generator(self) -> np.ndarray:
        """First row; 2B+1 non-zeros, scaled by 1/p_norm_const."""
        return generator_vector(self.epsilon, self.n, self.B)

    @property
    def eigenvalues(self) -> np.ndarray:
        """Real spectrum; index i holds the eigenvalue of mode i."""
        half = _half_spectrum(self.epsilon, self.B, self.m)
        return np.concatenate((half, half[1 : self.m - len(half) + 1][::-1]))


class NormBounds(NamedTuple):
    bound_1_inf: float  # bounds both the max-column-sum and max-row-sum norm of A^{-1}
    bound_2: float      # bounds the spectral norm of A^{-1}


def kernel_normalizer(epsilon: float, B: int) -> float:
    """Total mass of the truncated kernel: 1 + 2 sum_{j=1..B} e^{-eps j}."""
    q = math.exp(-epsilon)
    return (1.0 + q - 2.0 * q ** (B + 1)) / (1.0 - q)


def _kernel_taps(epsilon: float, B: int) -> np.ndarray:
    """Centred taps of A: e^{-eps |u|} / P at offsets u = -B..B."""
    decay = np.exp(-epsilon * np.arange(B + 1))
    return np.concatenate((decay[:0:-1], decay)) / kernel_normalizer(epsilon, B)


def generator_vector(epsilon: float, n: int, B: int) -> np.ndarray:
    """First row of the operator: e^{-eps j} / P at cyclic distance j <= B."""
    return np.roll(np.pad(_kernel_taps(epsilon, B), (0, n)), -B)


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


def spectrum_floor(epsilon: float, B: int) -> float:
    """Analytic lower bound on the eigenvalue magnitudes, 1 / bound_2.

    It is strict: the least |eigenvalue| can sit well above it when n is
    near B.  Negative values are possible when B is overridden below the
    derived radius; the bound is then vacuous and only the absolute floor
    applies.
    """
    q = math.exp(-epsilon)
    p_norm = kernel_normalizer(epsilon, B)
    return (1.0 - q - 2.0 * q ** (B + 1)) / ((1.0 + q) * p_norm)


def _inverse_taps(cfg: ReconstructionConfig) -> np.ndarray:
    """Centred taps of A^{-1}, exactly symmetric and zero below the tap floor.

    This is the one place invertibility is decided.  On a ring longer than
    the kernel's 2B + 1 taps, the inverse column is the line kernel summed
    over its wrap-arounds, so once the trimmed taps fill at most a quarter
    of such a ring, the wrapped tails are below the tap floor and the ring's
    taps are the window's.  Rings double from the least power of two longer
    than the kernel only when the analytic floor proves every eigenvalue.
    Otherwise a window longer than _SPECTRUM_CAP is refused on the floor
    alone; a shorter one, or rings that reach m, has its spectrum checked
    and its column used whole.
    """
    epsilon, B, m = cfg.epsilon, cfg.B, cfg.m
    floor = spectrum_floor(epsilon, B)
    if floor >= MIN_EIGENVALUE:
        # a ring no longer than the kernel wraps the kernel onto itself, and
        # the inverse on it is then not the window's
        ring = max(_FIRST_RING, 1 << (2 * B + 1).bit_length())
    elif m > _SPECTRUM_CAP:
        raise _ill_conditioned("spectrum floor", floor, cfg)
    else:
        ring = m
    while True:
        ring = min(ring, m)
        half = _half_spectrum(epsilon, B, ring)
        if ring == m:  # checked wherever the window's spectrum is formed
            min_abs = float(np.min(np.abs(half)))
            if min_abs < MIN_EIGENVALUE:
                raise _ill_conditioned("|eigenvalue|", min_abs, cfg)
            if min_abs < floor - 1e-12:
                raise AssertionError(
                    f"spectrum fell below its analytic floor: {min_abs} < {floor}"
                )
        col = np.fft.irfft(1.0 / half, ring)
        mag = np.abs(col[: ring // 2 + 1])  # col is symmetric
        w = int(np.flatnonzero(mag > _TAP_FLOOR * mag.max())[-1])
        if 4 * w < ring or ring == m:
            break
        ring *= 2
    # taps[w + u] = col[u mod ring] for centred offsets u in [-w, w]
    taps = np.concatenate((col[ring - w :], col[: w + 1]))
    # the column is symmetric up to transform roundoff; the folded product
    # reads one tap per offset pair, so store the pair's mean in both
    taps = 0.5 * (taps + taps[::-1])
    taps[np.abs(taps) <= _TAP_FLOOR * mag.max()] = 0.0
    if 2 * w == ring:
        # offsets -ring/2 and +ring/2 are the same antipodal entry; split it
        taps[0] = taps[-1] = taps[0] / 2.0
    return taps


def _ill_conditioned(what: str, value: float, cfg: ReconstructionConfig) -> ValueError:
    """The refusal of an operator whose least |eigenvalue|, or the floor
    under it, is below MIN_EIGENVALUE."""
    return ValueError(
        f"operator is ill-conditioned: {what} = {value:.3e} < {MIN_EIGENVALUE:g} "
        f"for (n={cfg.n}, B={cfg.B}, epsilon={cfg.epsilon})"
    )


def build_operator(cfg: ReconstructionConfig) -> CirculantOperator:
    """Construct the operator for a configuration and verify its spectrum."""
    return CirculantOperator(
        m=cfg.m,
        n=cfg.n,
        B=cfg.B,
        epsilon=cfg.epsilon,
        p_norm_const=kernel_normalizer(cfg.epsilon, cfg.B),
        _inv_taps=_inverse_taps(cfg),  # first: it refuses before any O(B) work
        _fwd_taps=_kernel_taps(cfg.epsilon, cfg.B),
    )


def _cyclic_product(taps: np.ndarray, x: np.ndarray) -> np.ndarray:
    """out[i] = sum_u taps[w + u] x[(i - u) mod m], for symmetric centred taps
    and a float64 vector x of any length m.

    Symmetric taps fold offsets +-u into t_u (x[i-u] + x[i+u]), and only
    offsets with a nonzero tap are visited, so the cost is O(m nnz).
    Outputs are formed a cache-sized block at a time, each by the same
    sequence of operations, so a mirror-symmetric x gives an exactly
    mirror-symmetric product (floating-point addition commutes).  A block
    whose operands do not wrap reads x itself; only the others copy their
    operand range, wrap-extended by w, so every shifted operand is a plain
    slice and no copy of x of the window's length is made.
    """
    m = len(x)
    w = len(taps) // 2
    offsets = np.flatnonzero(taps[w + 1 :]) + 1
    pairs = list(zip(offsets.tolist(), taps[w + offsets].tolist()))
    out = np.empty(m)
    scratch = np.empty(min(_BLOCK, m))
    for lo in range(0, m, _BLOCK):
        hi = min(lo + _BLOCK, m)
        if w <= lo and hi + w <= m:
            src, base = x, lo
        else:
            src, base = np.take(x, np.arange(lo - w, hi + w), mode="wrap"), w
        k = hi - lo
        acc, pair = out[lo:hi], scratch[:k]
        np.multiply(src[base : base + k], taps[w], out=acc)
        for u, tap in pairs:
            np.add(src[base - u : base - u + k], src[base + u : base + u + k], out=pair)
            pair *= tap
            acc += pair
    return out


def _operand(op: CirculantOperator, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (op.m,):
        raise ValueError(f"vector has shape {x.shape}, operator expects ({op.m},)")
    return x


def apply(op: CirculantOperator, x: np.ndarray) -> np.ndarray:
    """A @ x."""
    return _cyclic_product(op._fwd_taps, _operand(op, x))


def apply_inverse(op: CirculantOperator, x: np.ndarray) -> np.ndarray:
    """A^{-1} @ x; since A is symmetric, also x^T A^{-1}."""
    return _cyclic_product(op._inv_taps, _operand(op, x))


def norm_bounds(op: CirculantOperator) -> NormBounds:
    """Closed-form upper bounds on the operator norms of A^{-1}.

    bound_1_inf covers both the column-sum and row-sum norms (they coincide
    for circulant matrices); bound_2 covers the spectral norm via the
    eigenvalue floor.
    """
    # (2 + q + e^eps) / (e^eps - q - 4 q^B), multiplied through by q so
    # that no term overflows at large epsilon
    q = math.exp(-op.epsilon)
    den_1_inf = 1.0 - q * q - 4.0 * q ** (op.B + 1)
    if den_1_inf <= 0:
        raise ValueError(
            f"row-sum bound undefined: 1 - e^{{-2 eps}} - 4 e^{{-eps (B+1)}} = "
            f"{den_1_inf:.3e} <= 0 for (B={op.B}, epsilon={op.epsilon})"
        )
    bound_1_inf = (1.0 + 2.0 * q + q * q) / den_1_inf * op.p_norm_const
    den_2 = 1.0 - q - 2.0 * q ** (op.B + 1)
    if den_2 <= 0:
        raise ValueError(
            f"spectral bound undefined: 1 - e^-eps - 2 e^{{-eps (B+1)}} = "
            f"{den_2:.3e} <= 0 for (B={op.B}, epsilon={op.epsilon})"
        )
    bound_2 = op.p_norm_const * (1.0 + q) / den_2
    return NormBounds(bound_1_inf=bound_1_inf, bound_2=bound_2)
