"""Circulant deconvolution operator applied in near-linear time at any size.

The operator A maps a (padded) profile to the expected empirical profile of
its noisy histogram: each unit of mass is smeared by a truncated two-sided
exponential kernel with decay e^{-eps} and support radius B, normalized so
every row sums to one.  Because the kernel wraps cyclically on the index
window of length m = n + 2B + 1, A is circulant, and because the kernel is
symmetric, so is A: its eigenvalues are real (a cosine closed form), and
its inverse is again a symmetric circulant, so A^{-T} = A^{-1}.

An operator is its taps: A and A^{-1} are each stored as a vector of centred
taps (the first column at offsets -w..w) and applied by one cyclic banded
product: the operand is wrap-extended by the half-width w and convolved
directly, at O(m w) cost whatever m is.  The forward taps are the kernel's
2B + 1 entries; the generator row and the spectrum are computed on read.
The inverse kernel decays geometrically, so its entries fall below the
double-precision noise floor within a few dozen offsets.  When the analytic
spectrum floor proves every eigenvalue, they are read off the inverse on a
small ring, where the wrapped-around tails are far below roundoff, so the
build does no work that grows with m.  Otherwise, or when the taps would
span the whole window (only at small m), the window's spectrum is checked
and its own inverse column is used whole, which is exact.
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


def _inverse_taps(cfg: ReconstructionConfig) -> np.ndarray:
    """Centred taps of A^{-1}; the one place the spectrum is checked.

    On a ring of any size the inverse column is the line kernel summed over
    its wrap-arounds, so once the trimmed taps fill at most a quarter of a
    small ring, the wrapped tails are below the tap floor and the ring's
    taps are the window's.  Rings double from a small one only when the
    analytic floor proves every eigenvalue; otherwise, or when the rings
    reach m, the window's spectrum is checked and its column used whole.
    """
    epsilon, B, m = cfg.epsilon, cfg.B, cfg.m
    floor = spectrum_floor(epsilon, B)
    ring = _FIRST_RING if floor >= MIN_EIGENVALUE else m
    while True:
        ring = min(ring, m)
        half = _half_spectrum(epsilon, B, ring)
        if ring == m:  # checked wherever the window's spectrum is formed
            min_abs = float(np.min(np.abs(half)))
            if min_abs < MIN_EIGENVALUE:
                raise ValueError(
                    f"operator is ill-conditioned: min |eigenvalue| = {min_abs:.3e} "
                    f"for (n={cfg.n}, B={B}, epsilon={epsilon})"
                )
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
    if 2 * w == ring:
        # offsets -ring/2 and +ring/2 are the same antipodal entry; split it
        taps[0] = taps[-1] = col[w] / 2.0
    return taps


def build_operator(cfg: ReconstructionConfig) -> CirculantOperator:
    """Construct the operator for a configuration and verify its spectrum."""
    return CirculantOperator(
        m=cfg.m,
        n=cfg.n,
        B=cfg.B,
        epsilon=cfg.epsilon,
        p_norm_const=kernel_normalizer(cfg.epsilon, cfg.B),
        _fwd_taps=_kernel_taps(cfg.epsilon, cfg.B),
        _inv_taps=_inverse_taps(cfg),
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
