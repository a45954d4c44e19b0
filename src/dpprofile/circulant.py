"""Circulant deconvolution operator, inverted in near-linear time at any size.

The operator A maps a (padded) profile to the expected empirical profile of
its noisy histogram: each unit of mass is smeared by a truncated two-sided
exponential kernel with decay e^{-eps} and support radius B, normalized so
every row sums to one.  Because the kernel wraps cyclically on the index
window of length m = n + 2B + 1, A is circulant, and because the kernel is
symmetric, so is A: its eigenvalues are real, and its inverse is again a
symmetric circulant, so A^{-T} = A^{-1}.  Nothing here forms the spectrum:
an analytic floor bounds it, and the inverse comes from its closed form.

A is its kernel's 2B + 1 centred taps, and A^{-1} is stored in factored
form: with q = e^{-eps} and P the kernel's mass, A^{-1} = P/(1-q^2) T N,
where T is the 3-tap circulant (-q, 1 + q^2, -q), N = (I - E)^{-1}, and E
the 4-tap circulant with -q^{B+2}/(1-q^2) at offsets +-B and q^{B+1}/(1-q^2)
at +-(B+1).  E's l1 norm is 2q^{B+1}/(1-q), and the derived B is at least
the conditioning radius log(4/sinh eps)/eps, which holds it at most 1/2, so
N is the Neumann series sum_k E^k, summed on the window's ring Z_m itself
(wrapping commutes with convolution) by sparse powers of E, offsets mod m.
They cluster near offsets 0, +-B, +-2B, ..., so N has few nonzeros whatever
1/eps is (5-13 at d = 1e6 for eps from 0.01 to 2, about 1070 at eps = 0.001
and d = 4) while its half-width grows like B; the build makes no transform
and no array of the window's length.  Only a B at least the radius, where
the analytic spectrum floor proves every eigenvalue nonzero, is built; a
lower B, or a floor below MIN_EIGENVALUE, is refused before any O(B) work.

Reconstruction only ever applies A^{-1}, so that is the one product here:
a cyclic product over N's nonzero taps, folding each pair of offsets +-u
into one multiply, at O(m nnz) cost, with T's three taps applied in the
same blocked pass: T's near-cancelling second difference acts on the
operand itself, then N, whose taps carry the scale P/(1-q^2), on that.
A itself appears only in the analysis, as the expected profile inside the
error bounds, which convolves the profile with _kernel_taps directly.
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
    "apply_inverse",
    "norm_bounds",
]

# N's taps at most this fraction of its centre tap are zeroed, and its series
# stops at a power of l1 norm below it (the rest adds at most twice that to a
# tap): A^{-1}'s taps stay within 1e-15 of the largest of the exact sum's.
_TAP_FLOOR = 5e-16

# Outputs per block of the cyclic product: a block's output, its z, its pair
# scratch and the operand it reads (256 KB each) stay in a 2 MB L2.  Taps that
# reach w > 2^16 take blocks of w/2, so that carrying z over stays cheap.
_BLOCK = 1 << 15


class CirculantOperator(_Frozen):
    """A^{-1}'s factors: N's (offset, tap) pairs and T's side tap.  Compared
    and hashed by identity: the correction cache is keyed by it."""

    __slots__ = ("m", "n", "B", "epsilon", "p_norm_const", "_inv_pairs", "_t_side")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self, m: int, n: int, B: int, epsilon: float, p_norm_const: float,
        _inv_pairs: tuple,  # P(1+q^2)/(1-q^2) N as (offset, tap): 0, then N's other offsets
        _t_side: float,  # T's taps at +-1 over its centre tap: -q/(1+q^2)
    ):
        self._set(m=m, n=n, B=B, epsilon=epsilon, p_norm_const=p_norm_const,
                  _inv_pairs=_inv_pairs, _t_side=_t_side)


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


def spectrum_floor(epsilon: float, B: int) -> float:
    """Analytic lower bound on the eigenvalue magnitudes, 1 / bound_2.

    It is strict: the least |eigenvalue| can sit well above it when n is
    near B.  At B >= the conditioning radius it is at least tanh^2(eps/2) / 2.
    """
    q = math.exp(-epsilon)
    p_norm = kernel_normalizer(epsilon, B)
    return (1.0 - q - 2.0 * q ** (B + 1)) / ((1.0 + q) * p_norm)


def _neumann_pairs(epsilon: float, B: int, m: int, scale: float) -> tuple:
    """scale N on Z_m, N = sum_k E^k, as (offset, tap) pairs: the centre, then
    every offset in 1..m // 2 whose tap is above the floor.  Each power is
    the last convolved with E's four taps, offsets mod m, up to the first of
    l1 norm below the floor.  Each entry gives half of itself to its pair
    +-u's tap, which is so their mean, and at u = m/2 on an even ring (one
    offset) the half that x[i-u] + x[i+u] = 2 x[i+u] needs.
    """
    q = math.exp(-epsilon)
    e_offsets = np.array([B, -B, B + 1, -B - 1]) % m
    e_taps = np.array([-q, -q, 1.0, 1.0]) * (q ** (B + 1) / (1.0 - q * q))
    offsets, taps = [np.zeros(1, dtype=np.int64)], [np.ones(1)]
    while np.abs(taps[-1]).sum() >= _TAP_FLOOR:
        power, at = np.unique((offsets[-1][:, None] + e_offsets) % m, return_inverse=True)
        offsets.append(power)
        taps.append(np.bincount(at.ravel(), weights=(taps[-1][:, None] * e_taps).ravel()))
    offsets, taps = np.concatenate(offsets), np.concatenate(taps)
    folded, at = np.unique(np.minimum(offsets, m - offsets), return_inverse=True)
    pair_taps = np.bincount(at, weights=np.where(offsets == 0, taps, taps / 2))
    keep = np.abs(pair_taps) > _TAP_FLOOR * pair_taps[0]  # N's centre tap, near 1
    return tuple(zip(folded[keep].tolist(), (scale * pair_taps[keep]).tolist()))


def build_operator(cfg: ReconstructionConfig) -> CirculantOperator:
    """Construct the operator for a configuration, if it is proven invertible:
    the one place that is decided, by the analytic floor alone, and only at
    B >= the conditioning radius, where the floor proves every eigenvalue and
    N's series converges.  Both refusals come before any O(B) work.
    """
    epsilon, B = cfg.epsilon, cfg.B
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
    q, p_norm = math.exp(-epsilon), kernel_normalizer(epsilon, B)
    # A^{-1} = P/(1-q^2) T N, with T's centre tap taken into N's scale
    scale = p_norm * (1.0 + q * q) / (1.0 - q * q)
    return CirculantOperator(
        m=cfg.m, n=cfg.n, B=B, epsilon=epsilon, p_norm_const=p_norm,
        _inv_pairs=_neumann_pairs(epsilon, B, cfg.m, scale),
        _t_side=-q / (1.0 + q * q),
    )


def _cyclic_product(
    pairs: tuple, x: np.ndarray, out: np.ndarray | None = None, *, side: float
) -> np.ndarray:
    """sum_u t_u z[(i - u) mod m] for symmetric taps t_u = t_{-u} given as
    (u, t_u) pairs, u = 0 first, then ascending to w, where z is x with a
    side tap r: z[i] = x[i] + r (x[i-1] + x[i+1]).  x is a float64 vector
    of any length m > w; out is a new vector, or a given float64 one of
    length m that is x itself or shares no memory with it.

    Taps fold offsets +-u into t_u (z[i-u] + z[i+u]): O(m nnz).  Outputs are
    formed a block at a time, every entry by the same operations, so a
    mirror-symmetric x gives an exactly mirror-symmetric product, and the
    product in place equals the one into a new vector bit for bit: a block's
    z is formed before its outputs overwrite x, from x right of the block
    (x[:g + 1] is saved for the last blocks' wraps) and the block before's
    last 2g.  No temporary grows with m unless w does.
    """
    m, centre, rest, w = len(x), pairs[0][1], pairs[1:], pairs[-1][0]
    g, out = max(w, 1), np.empty(m) if out is None else out
    block = max(_BLOCK, w // 2)
    size = min(block, m)
    # z[j] is z at ring index lo - g + j for the block at lo
    z, pair, head = np.empty(size + 2 * g), np.empty(size), x[: g + 1].copy()
    for lo in range(0, m, block):
        hi = min(lo + block, m)
        k, new = hi - lo, 2 * g if lo else 0
        z[:new] = z[size : size + new]
        # the x that z's new entries read, T's side tap one past them; with
        # g >= 1 the carried z covers the x left of the block, written over
        a, b = lo - g + new - 1, hi + g + 1
        if lo == 0:  # nothing is written over yet; a ring shorter than b - a wraps more
            short = b > m or -a > m
            xs = x.take(np.arange(a, b), mode="wrap") if short else np.concatenate((x[m + a :], x[:b]))
        else:
            xs = x[a:b] if b <= m else np.concatenate((x[min(a, m) :], head[max(a - m, 0) : b - m]))
        fresh = z[new : k + 2 * g]
        np.add(xs[:-2], xs[2:], out=fresh)
        fresh *= side
        fresh += xs[1:-1]
        acc, p = out[lo:hi], pair[:k]
        np.multiply(z[g : g + k], centre, out=acc)
        for u, tap in rest:
            np.add(z[g - u : g - u + k], z[g + u : g + u + k], out=p)
            p *= tap
            acc += p
    return out


def _ones_image(op: CirculantOperator) -> float:
    """Every entry of A^{-1} 1 (1 up to roundoff) as the product forms it:
    the same operations in the same order, on operands that are all 1."""
    z = (1.0 + 1.0) * op._t_side + 1.0
    y = z * op._inv_pairs[0][1]
    for _, tap in op._inv_pairs[1:]:
        y += (z + z) * tap
    return y


def _operand(op: CirculantOperator, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (op.m,):
        raise ValueError(f"vector has shape {x.shape}, operator expects ({op.m},)")
    return x


def apply_inverse(op: CirculantOperator, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A^{-1} @ x = T (N x); since A is symmetric, also x^T A^{-1}.

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
    return _cyclic_product(op._inv_pairs, x, out, side=op._t_side)


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
