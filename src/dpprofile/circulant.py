"""Circulant deconvolution operator applied in near-linear time at any size.

The operator A maps a (padded) profile to the expected empirical profile of
its noisy histogram: each unit of mass is smeared by a truncated two-sided
exponential kernel with decay e^{-eps} and support radius B, normalized so
every row sums to one.  Because the kernel wraps cyclically on the index
window of length m = n + 2B + 1, A is circulant, and because the kernel is
symmetric, so is A: its eigenvalues are real (a cosine closed form), and
its inverse is again a symmetric circulant, so A^{-T} = A^{-1}.

A and A^{-1} are stored the same way, as a vector of centred taps (the
first column at offsets -w..w), and applied by one cyclic banded product:
the operand is wrap-extended by the half-width w and convolved directly,
at O(m w) cost whatever m is.  The forward taps are the generator's 2B + 1
entries.  The inverse kernel decays geometrically, so its entries fall
below the double-precision noise floor within a few dozen offsets; they are
read off the inverse on a small ring, a power of two doubled until the
trimmed taps sit well inside it, where the wrapped-around tails are far
below roundoff.  When the taps would span the whole window (only at small
m), the window's own inverse column is used whole, which is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .mechanism import ReconstructionConfig

__all__ = [
    "CirculantOperator",
    "NormBounds",
    "generator_vector",
    "build_operator",
    "apply",
    "apply_inverse",
    "norm_bounds",
]

# Eigenvalues below this magnitude mean the configuration cannot be inverted
# reliably; construction refuses instead of regularizing.
MIN_EIGENVALUE = 1e-12

# Kernel entries below this fraction of the peak are indistinguishable from
# the roundoff already present in an FFT-computed kernel; dropping them
# changes products by strictly less than ordinary transform roundoff.
_TAP_FLOOR = 1e-15

# Smallest ring tried for the inverse taps; rings double from here.
_FIRST_RING = 64


@dataclass(eq=False)
class CirculantOperator:
    """The deconvolution operator: generator row, spectrum, product taps."""

    m: int
    n: int
    B: int
    epsilon: float
    p_norm_const: float
    generator: np.ndarray      # first row; 2B+1 non-zeros, scaled by 1/p_norm_const
    eigenvalues: np.ndarray    # real, index i holds the eigenvalue of mode i
    _fwd_taps: np.ndarray = field(repr=False)  # centred taps of A
    _inv_taps: np.ndarray = field(repr=False)  # centred taps of A^{-1}

    def __post_init__(self):
        # operators are shared through the cache, so nothing may edit them
        for arr in (self.generator, self.eigenvalues, self._fwd_taps, self._inv_taps):
            arr.flags.writeable = False


class NormBounds(NamedTuple):
    bound_1_inf: float  # bounds both the max-column-sum and max-row-sum norm of A^{-1}
    bound_2: float      # bounds the spectral norm of A^{-1}


def kernel_normalizer(epsilon: float, B: int) -> float:
    """Total mass of the truncated kernel: 1 + 2 sum_{j=1..B} e^{-eps j}."""
    q = math.exp(-epsilon)
    return (1.0 + q - 2.0 * q ** (B + 1)) / (1.0 - q)


def generator_vector(epsilon: float, n: int, B: int) -> np.ndarray:
    """First row of the operator: e^{-eps j} / P at cyclic distance j <= B."""
    m = n + 2 * B + 1
    p_norm = kernel_normalizer(epsilon, B)
    gen = np.zeros(m)
    decay = np.exp(-epsilon * np.arange(B + 1))
    gen[: B + 1] = decay
    gen[m - B :] = decay[1:][::-1]  # empty when B = 0
    return gen / p_norm


def _half_spectrum(epsilon: float, B: int, ring: int) -> np.ndarray:
    """Eigenvalues of modes 0..ring//2 of the kernel wrapped on a ring.

    The eigenvalue at angle theta is (1 + 2 sum_{j=1..B} q^j cos(j theta)) / P;
    summing the geometric series collapses it to a ratio of three cosines,
    so the spectrum costs O(ring) scalar operations.  The other modes mirror
    these, since the kernel is symmetric.
    """
    q = math.exp(-epsilon)
    k = np.arange(ring // 2 + 1)

    def cos_of(j: int) -> np.ndarray:
        return np.cos((2.0 * np.pi / ring) * ((j * k) % ring))

    numer = 1.0 - q * q - 2.0 * q ** (B + 1) * (cos_of(B + 1) - q * cos_of(B))
    denom = 1.0 - 2.0 * q * cos_of(1) + q * q
    return numer / denom / kernel_normalizer(epsilon, B)


def spectrum_floor(epsilon: float, B: int) -> float:
    """Analytic lower bound on the eigenvalue magnitudes.

    Negative values are possible when B is overridden below the derived
    radius; the bound is then vacuous and only the absolute floor applies.
    """
    q = math.exp(-epsilon)
    p_norm = kernel_normalizer(epsilon, B)
    return (1.0 - q - 2.0 * q ** (B + 1)) / ((1.0 + q) * p_norm)


def _centred(col: np.ndarray, w: int) -> np.ndarray:
    """taps[w + u] = col[u mod len(col)] for centred offsets u in [-w, w]."""
    return np.concatenate((col[len(col) - w :], col[: w + 1]))


def _trimmed_half_width(col: np.ndarray) -> int:
    """Largest offset whose entry is above the tap floor (col is symmetric)."""
    mag = np.abs(col[: len(col) // 2 + 1])
    return int(np.flatnonzero(mag > _TAP_FLOOR * mag.max())[-1])


def _inverse_taps(epsilon: float, B: int, half_spectrum: np.ndarray, m: int) -> np.ndarray:
    """Centred taps of A^{-1}, given the first m//2 + 1 eigenvalues of A.

    On a ring of any size the inverse column is the line kernel summed over
    its wrap-arounds, so once the trimmed taps fill at most a quarter of a
    small ring, the wrapped tails are below the tap floor and the ring's
    taps are the window's.  This needs the symbol bounded away from zero
    (a positive analytic floor); otherwise only the window's own column
    is used.
    """
    ring = _FIRST_RING if spectrum_floor(epsilon, B) > 0 else m
    while ring < m:
        col = np.fft.irfft(1.0 / _half_spectrum(epsilon, B, ring), ring)
        w = _trimmed_half_width(col)
        if 4 * w < ring:
            return _centred(col, w)
        ring *= 2
    col = np.fft.irfft(1.0 / half_spectrum, m)
    w = _trimmed_half_width(col)  # at most m // 2
    taps = _centred(col, w)
    if 2 * w == m:
        # offsets -m/2 and +m/2 are the same antipodal entry; split it
        taps[0] = taps[-1] = col[w] / 2.0
    return taps


def build_operator(cfg: ReconstructionConfig) -> CirculantOperator:
    """Construct the operator for a configuration and verify its spectrum."""
    m = cfg.m
    half = _half_spectrum(cfg.epsilon, cfg.B, m)
    eig = np.concatenate((half, half[1 : m - len(half) + 1][::-1]))
    min_abs = float(np.min(np.abs(half)))
    if min_abs < MIN_EIGENVALUE:
        raise ValueError(
            f"operator is ill-conditioned: min |eigenvalue| = {min_abs:.3e} "
            f"for (n={cfg.n}, B={cfg.B}, epsilon={cfg.epsilon})"
        )
    floor = spectrum_floor(cfg.epsilon, cfg.B)
    if min_abs < floor - 1e-12:
        raise AssertionError(
            f"spectrum fell below its analytic floor: {min_abs} < {floor}"
        )
    gen = generator_vector(cfg.epsilon, cfg.n, cfg.B)
    return CirculantOperator(
        m=m,
        n=cfg.n,
        B=cfg.B,
        epsilon=cfg.epsilon,
        p_norm_const=kernel_normalizer(cfg.epsilon, cfg.B),
        generator=gen,
        eigenvalues=eig,
        _fwd_taps=_centred(gen, cfg.B),
        _inv_taps=_inverse_taps(cfg.epsilon, cfg.B, half, m),
    )


def _cyclic_product(op: CirculantOperator, taps: np.ndarray, x) -> np.ndarray:
    """out[i] = sum_u taps[w + u] x[(i - u) mod m], for centred taps.

    Wrap-extending x by the half-width w turns the cyclic product into the
    m "valid" outputs of a plain linear convolution.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (op.m,):
        raise ValueError(f"vector has shape {x.shape}, operator expects ({op.m},)")
    w = len(taps) // 2
    return np.convolve(np.concatenate((x[op.m - w :], x, x[:w])), taps, mode="valid")


def apply(op: CirculantOperator, x: np.ndarray) -> np.ndarray:
    """A @ x."""
    return _cyclic_product(op, op._fwd_taps, x)


def apply_inverse(op: CirculantOperator, x: np.ndarray) -> np.ndarray:
    """A^{-1} @ x; since A is symmetric, also x^T A^{-1}."""
    return _cyclic_product(op, op._inv_taps, x)


def norm_bounds(op: CirculantOperator) -> NormBounds:
    """Closed-form upper bounds on the operator norms of A^{-1}.

    bound_1_inf covers both the column-sum and row-sum norms (they coincide
    for circulant matrices); bound_2 covers the spectral norm via the
    eigenvalue floor.
    """
    q = math.exp(-op.epsilon)
    e_pos = math.exp(op.epsilon)
    den_1_inf = e_pos - q - 4.0 * q**op.B
    if den_1_inf <= 0:
        raise ValueError(
            f"row-sum bound undefined: e^eps - e^-eps - 4 e^{{-eps B}} = "
            f"{den_1_inf:.3e} <= 0 for (B={op.B}, epsilon={op.epsilon})"
        )
    bound_1_inf = (2.0 + q + e_pos) / den_1_inf * op.p_norm_const
    den_2 = 1.0 - q - 2.0 * q ** (op.B + 1)
    if den_2 <= 0:
        raise ValueError(
            f"spectral bound undefined: 1 - e^-eps - 2 e^{{-eps (B+1)}} = "
            f"{den_2:.3e} <= 0 for (B={op.B}, epsilon={op.epsilon})"
        )
    bound_2 = op.p_norm_const * (1.0 + q) / den_2
    return NormBounds(bound_1_inf=bound_1_inf, bound_2=bound_2)
