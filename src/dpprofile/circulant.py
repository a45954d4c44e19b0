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
taps are the kernel's 2B + 1 entries; the spectrum is computed on read.  The inverse factors as P/(1-q^2) T (I - E)^{-1},
with q = e^{-eps}, T the 3-tap circulant (-q, 1+q^2, -q) and E a 4-tap
circulant at offsets +-B and +-(B+1) of norm rho = 2q^{B+1}/(1-q).  The
derived B is at least the conditioning radius log(4/sinh eps)/eps, which
holds rho below (1 + q)/4 <= 1/2, so the powers of E, and with them the
inverse taps, fall below the double-precision noise floor within a few
dozen clusters at offsets near 0, +-B, +-2B, ..., each a few dozen taps
wide.  So nnz does not grow with 1/eps, while the half-width w, which
spans the clusters, grows like B.  Taps below the noise floor are zeroed.
An operator is built only at B at least that radius, where the analytic
spectrum floor is positive and so proves every eigenvalue nonzero; a lower,
overridden B is refused, and so is a floor below MIN_EIGENVALUE, both
before any work of the window's length.  The taps are read off the inverse
on a small ring that is still longer than the kernel, where the
wrapped-around tails are far below roundoff, so the build does no work that
grows with m; only taps that would span a short window take its own
inverse column whole, which is exact.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .params import MIN_EIGENVALUE, ReconstructionConfig, _Frozen, min_truncation_radius

__all__ = [
    "CirculantOperator",
    "NormBounds",
    "build_operator",
    "apply",
    "apply_inverse",
    "norm_bounds",
]

# Kernel entries below this fraction of the peak are indistinguishable from
# the roundoff already present in an FFT-computed kernel; dropping them
# changes products by strictly less than ordinary transform roundoff.
_TAP_FLOOR = 1e-15

# Smallest ring tried for the inverse taps; rings double from here, or from
# the least power of two longer than the kernel's 2B + 1 taps.
_FIRST_RING = 64

# Outputs per block of the cyclic product: a block's accumulator, its pair
# scratch and the operand slices it reads (256 KB each) stay in a 2 MB L2.
_BLOCK = 1 << 15


class CirculantOperator(_Frozen):
    """The operator as its taps; the spectrum is computed on read.

    Compared and hashed by identity: the correction cache is keyed by it.
    """

    __slots__ = ("m", "n", "B", "epsilon", "p_norm_const", "_fwd_taps", "_inv_taps")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        m: int,
        n: int,
        B: int,
        epsilon: float,
        p_norm_const: float,
        _fwd_taps: np.ndarray,  # centred taps of A (2B+1)
        _inv_taps: np.ndarray,  # centred taps of A^{-1}
    ):
        # operators are shared through the cache, so nothing may edit them
        _fwd_taps.flags.writeable = False
        _inv_taps.flags.writeable = False
        self._set(m=m, n=n, B=B, epsilon=epsilon, p_norm_const=p_norm_const,
                  _fwd_taps=_fwd_taps, _inv_taps=_inv_taps)

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
    near B.  At B >= the conditioning radius it is at least tanh^2(eps/2) / 2.
    """
    q = math.exp(-epsilon)
    p_norm = kernel_normalizer(epsilon, B)
    return (1.0 - q - 2.0 * q ** (B + 1)) / ((1.0 + q) * p_norm)


def _inverse_taps(cfg: ReconstructionConfig) -> np.ndarray:
    """Centred taps of A^{-1}, exactly symmetric and zero below the tap floor.

    This is the one place invertibility is decided, by the analytic floor
    alone, and only at B >= the conditioning radius, where the floor proves
    every eigenvalue.  On a ring longer than the kernel's 2B + 1 taps, the
    inverse column is the line kernel summed over its wrap-arounds, so once
    the trimmed taps fill at most a quarter of such a ring, the wrapped
    tails are below the tap floor and the ring's taps are the window's.
    Rings double from the least power of two longer than the kernel; one
    that reaches m has the window's own column used whole, which is exact.
    """
    epsilon, B, m = cfg.epsilon, cfg.B, cfg.m
    radius = min_truncation_radius(epsilon)
    if B < radius:
        raise ValueError(
            f"noise bound B={B} is below the conditioning radius {radius} for "
            f"epsilon={epsilon}, where the operator is not proven invertible"
        )
    floor = spectrum_floor(epsilon, B)
    if floor < MIN_EIGENVALUE:
        raise ValueError(
            f"operator is ill-conditioned: spectrum floor = {floor:.3e} < "
            f"{MIN_EIGENVALUE:g} for (n={cfg.n}, B={B}, epsilon={epsilon})"
        )
    # a ring no longer than the kernel wraps the kernel onto itself, and the
    # inverse on it is then not the window's
    ring = max(_FIRST_RING, 1 << (2 * B + 1).bit_length())
    while True:
        ring = min(ring, m)
        col = np.fft.irfft(1.0 / _half_spectrum(epsilon, B, ring), ring)
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


def _cyclic_product(taps: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """out[i] = sum_u taps[w + u] x[(i - u) mod m], for 2w + 1 symmetric
    centred taps and a float64 vector x of any length m >= w; out is a new
    vector, or a given float64 one of length m that is x itself or shares no
    memory with it.

    Symmetric taps fold offsets +-u into t_u (x[i-u] + x[i+u]), and only
    offsets with a nonzero tap are visited, so the cost is O(m nnz).
    Outputs are formed a cache-sized block at a time, each by the same
    sequence of operations, so a mirror-symmetric x gives an exactly
    mirror-symmetric product (floating-point addition commutes), and the
    product in place equals the one into a new vector bit for bit.  Each
    block reads its operands from a scratch copy of x's original entries
    (lo - w .. hi + w, wrapped), so every shifted operand is a plain slice
    and out may overwrite x: the w entries left of a block are carried over
    from the block before, and x[:w] is saved for the wraps of the last
    blocks.  No temporary grows with m unless w does.
    """
    m = len(x)
    w = len(taps) // 2
    offsets = np.flatnonzero(taps[w + 1 :]) + 1
    pairs = list(zip(offsets.tolist(), taps[w + offsets].tolist()))
    out = np.empty(m) if out is None else out
    size = min(_BLOCK, m)
    # src[j] holds the original x[(lo - w + j) mod m] for the block at lo
    src, scratch = np.empty(size + 2 * w), np.empty(size)
    head = x[:w].copy()
    for lo in range(0, m, _BLOCK):
        hi = min(lo + _BLOCK, m)
        k, end = hi - lo, min(hi + w, m)
        src[:w] = src[size : size + w] if lo else x[m - w :]
        src[w : w + end - lo] = x[lo:end]
        src[w + end - lo : k + 2 * w] = head[: hi + w - end]
        acc, pair = out[lo:hi], scratch[:k]
        np.multiply(src[w : w + k], taps[w], out=acc)
        for u, tap in pairs:
            np.add(src[w - u : w - u + k], src[w + u : w + u + k], out=pair)
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


def apply_inverse(
    op: CirculantOperator, x: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """A^{-1} @ x; since A is symmetric, also x^T A^{-1}.

    The product goes into a new vector, or into out, a float64 vector of the
    window's length that is x itself or shares no memory with it.
    """
    x = _operand(op, x)
    if out is not None and (
        out.dtype != np.float64
        or out.shape != x.shape
        or (out is not x and np.may_share_memory(out, x))
    ):
        raise ValueError(
            f"out must be a float64 vector of shape ({op.m},), x itself or apart from it"
        )
    return _cyclic_product(op._inv_taps, x, out)


def norm_bounds(op: CirculantOperator) -> NormBounds:
    """Closed-form upper bounds on the operator norms of A^{-1}.

    bound_1_inf covers both the column-sum and row-sum norms (they coincide
    for circulant matrices); bound_2 covers the spectral norm via the
    eigenvalue floor.  An operator is built only at B >= the conditioning
    radius, where q^B <= sinh(eps)/4 = (1 - q^2)/(8q), so the denominators
    are at least (1 - q^2)/2 and (1 - q)(3 - q)/4: both are positive.
    """
    # (2 + q + e^eps) / (e^eps - q - 4 q^B), multiplied through by q so
    # that no term overflows at large epsilon
    q = math.exp(-op.epsilon)
    den_1_inf = 1.0 - q * q - 4.0 * q ** (op.B + 1)
    bound_1_inf = (1.0 + 2.0 * q + q * q) / den_1_inf * op.p_norm_const
    bound_2 = op.p_norm_const * (1.0 + q) / (1.0 - q - 2.0 * q ** (op.B + 1))
    return NormBounds(bound_1_inf=bound_1_inf, bound_2=bound_2)
