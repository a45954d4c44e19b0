"""Circulant deconvolution operator applied in near-linear time at any size.

The operator A maps a (padded) profile to the expected empirical profile of
its noisy histogram: each unit of mass is smeared by a truncated two-sided
exponential kernel with decay e^{-eps} and support radius B, normalized so
every row sums to one.  Because the kernel wraps cyclically on the index
window of length m = n + 2B + 1, A is circulant: its eigenvalues have a
closed form, its inverse is again circulant, and both act on a vector as a
cyclic convolution with their first column.

Products are computed in the time domain.  The forward kernel is banded by
construction (2B + 1 taps); the inverse kernel decays geometrically, so its
entries fall below the double-precision noise floor within a few multiples
of B, after which keeping them only adds roundoff.  A kernel that is narrow
relative to m is applied as a direct banded convolution with wraparound,
which streams through cache and costs O(m B) with a small constant,
regardless of how m factorizes.  Kernels that span the whole ring (only
possible at small m) fall back to one zero-padded FFT convolution at a
5-smooth length.  Both routes are algebraically exact cyclic products.
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
    "left_apply_inverse",
    "norm_bounds",
]

# Eigenvalues below this magnitude mean the configuration cannot be inverted
# reliably; construction refuses instead of regularizing.
MIN_EIGENVALUE = 1e-12

# Imaginary parts above this (scaled) threshold when realizing a kernel from
# its spectrum indicate a bug in the transform plumbing, not data.
_IMAG_TOL = 1e-8

# Kernel entries below this fraction of the peak are indistinguishable from
# the roundoff already present in an FFT-computed kernel; dropping them
# changes products by strictly less than ordinary transform roundoff.
_TAP_FLOOR = 1e-15


@dataclass(eq=False)
class _Kernel:
    """One circulant factor, stored however it is cheapest to apply.

    Banded kernels keep their centered taps plus the taps' transform at the
    overlap-save block length; full-ring kernels keep the first column's
    transform at a zero-padding length covering a whole linear convolution.
    """

    half_width: int
    taps: np.ndarray | None = None
    spectrum: np.ndarray | None = None
    block_len: int = 0   # overlap-save block size (banded kernels)
    pad_len: int = 0     # full linear-convolution length (full kernels)


@dataclass(eq=False)
class CirculantOperator:
    """The deconvolution operator: generator row, spectrum, product kernels."""

    m: int
    n: int
    B: int
    epsilon: float
    p_norm_const: float
    generator: np.ndarray      # first row; 2B+1 non-zeros, scaled by 1/p_norm_const
    eigenvalues: np.ndarray    # complex, index i holds the eigenvalue of mode i
    _fwd: _Kernel = field(repr=False, default=None)
    _inv: _Kernel = field(repr=False, default=None)
    _inv_left: _Kernel = field(repr=False, default=None)
    # memo for derived data-independent vectors (callers guard concurrency)
    cache: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        self.generator.flags.writeable = False
        self.eigenvalues.flags.writeable = False


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
    if B > 0:
        gen[m - B :] = decay[1:][::-1]
    return gen / p_norm


def _eigenvalues_closed_form(epsilon: float, n: int, B: int) -> np.ndarray:
    """Spectrum of the operator without touching the generator row.

    Summing the two geometric tails of the kernel collapses the transform of
    the generator into a ratio of short complex expressions, one per mode, so
    the full spectrum costs O(m) scalar operations.
    """
    m = n + 2 * B + 1
    q = math.exp(-epsilon)
    p_norm = kernel_normalizer(epsilon, B)
    w = np.exp(-2j * np.pi * np.arange(m) / m)
    w_inv = np.conj(w)  # |w| = 1
    # 1 + sum_{j=1..B} q^j (w^j + w^-j), with both geometric tails summed in
    # closed form over the common denominator (1 - q w)(1 - q w^-1).
    numer = (
        1.0
        - q * q
        - q ** (B + 1)
        * (w ** (B + 1) + w_inv ** (B + 1) - q * w**B - q * w_inv**B)
    )
    denom = 1.0 - q * w - q * w_inv + q * q
    return numer / denom / p_norm


def spectrum_floor(epsilon: float, B: int) -> float:
    """Analytic lower bound on the eigenvalue magnitudes.

    Negative values are possible when B is overridden below the derived
    radius; the bound is then vacuous and only the absolute floor applies.
    """
    q = math.exp(-epsilon)
    p_norm = kernel_normalizer(epsilon, B)
    return (1.0 - q - 2.0 * q ** (B + 1)) / ((1.0 + q) * p_norm)


def _cyclic_reverse(v: np.ndarray) -> np.ndarray:
    """out[k] = v[-k mod m]; maps a first row to a first column and back."""
    return np.concatenate((v[:1], v[:0:-1]))


def _next_smooth(target: int) -> int:
    """Smallest integer >= target with no prime factor above 5.

    Real transforms of such lengths factor entirely into the radix-2/3/5
    passes of the FFT, which keeps them fast whatever m is.
    """
    best = 1 << (target - 1).bit_length()  # the power of two at or above
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two lifting p35 to the target
            p2 = 1 << (-(-target // p35) - 1).bit_length()
            best = min(best, p2 * p35)
            p35 *= 3
        p5 *= 5
    return best


def _kernel_from_spectrum(spectral: np.ndarray, m: int) -> np.ndarray:
    """First column of the circulant whose eigenvalues are `spectral`.

    The column comes out of a complex transform; a real operator must leave
    only roundoff in the imaginary part, so anything larger is treated as an
    implementation bug.
    """
    col = np.fft.fft(spectral) / m
    resid = float(np.max(np.abs(col.imag)))
    scale = float(np.max(np.abs(col.real)))
    if resid > _IMAG_TOL * (1.0 + scale):
        raise AssertionError(
            f"imaginary residue {resid:.3e} while realizing a kernel; "
            "transform plumbing is broken"
        )
    return np.ascontiguousarray(col.real)


def _pack_kernel(col: np.ndarray) -> _Kernel:
    """Choose the cheapest exact representation for a first-column kernel."""
    m = len(col)
    dist = np.minimum(np.arange(m), m - np.arange(m))
    alive = np.abs(col) > _TAP_FLOOR * float(np.max(np.abs(col)))
    half_width = int(dist[alive].max()) if alive.any() else 0
    if 2 * half_width + 1 < m:
        # taps[w + u] = col[u mod m] for centered offsets u in [-w, w]
        taps = np.concatenate((col[m - half_width :], col[: half_width + 1]))
        # blocks hold at least 8 half-widths so the overlap stays small, and
        # never exceed what a single block covering the whole ring needs
        block_len = _next_smooth(
            max(8 * half_width, min(4096, m + 2 * half_width))
        )
        return _Kernel(
            half_width=half_width,
            taps=taps,
            spectrum=np.fft.rfft(taps, block_len),
            block_len=block_len,
        )
    pad_len = _next_smooth(2 * m - 1)
    return _Kernel(
        half_width=(m - 1) // 2,
        spectrum=np.fft.rfft(col, pad_len),
        pad_len=pad_len,
    )


def _banded_cyclic(x: np.ndarray, kernel: _Kernel) -> np.ndarray:
    """Cyclic convolution with a narrow centered kernel by overlap-save.

    The operand is wrap-extended by the kernel half-width, split into
    fixed-size overlapping blocks, and convolved blockwise with batched real
    transforms.  The block size depends only on the kernel width, so the
    cost is exactly linear in m and every block stays cache-resident.
    """
    m = len(x)
    w = kernel.half_width
    if w == 0:
        return kernel.taps[0] * x
    blk = kernel.block_len
    step = blk - 2 * w
    n_blocks = -(-m // step)
    padded = np.zeros(n_blocks * step + 2 * w)
    padded[:w] = x[m - w :]
    padded[w : w + m] = x
    padded[w + m : 2 * w + m] = x[:w]
    blocks = np.lib.stride_tricks.sliding_window_view(padded, blk)[::step]
    stacked = np.fft.irfft(
        np.fft.rfft(blocks, axis=1) * kernel.spectrum, blk, axis=1
    )
    return stacked[:, 2 * w : blk].reshape(-1)[:m].copy()


def _apply_kernel(kernel: _Kernel, x: np.ndarray) -> np.ndarray:
    m = len(x)
    if kernel.taps is not None:
        return _banded_cyclic(x, kernel)
    # full-ring kernel: zero-padded linear convolution, folded back cyclically
    z = np.fft.irfft(
        np.fft.rfft(x, kernel.pad_len) * kernel.spectrum, kernel.pad_len
    )
    out = z[:m].copy()
    out[: m - 1] += z[m : 2 * m - 1]
    return out


def build_operator(cfg: ReconstructionConfig) -> CirculantOperator:
    """Construct the operator for a configuration and verify its spectrum."""
    gen = generator_vector(cfg.epsilon, cfg.n, cfg.B)
    eig = _eigenvalues_closed_form(cfg.epsilon, cfg.n, cfg.B)
    min_abs = float(np.min(np.abs(eig)))
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
    col_inv = _kernel_from_spectrum(1.0 / eig, cfg.m)  # first column of A^{-1}
    return CirculantOperator(
        m=cfg.m,
        n=cfg.n,
        B=cfg.B,
        epsilon=cfg.epsilon,
        p_norm_const=kernel_normalizer(cfg.epsilon, cfg.B),
        generator=gen,
        eigenvalues=eig,
        _fwd=_pack_kernel(_cyclic_reverse(gen)),
        _inv=_pack_kernel(col_inv),
        _inv_left=_pack_kernel(_cyclic_reverse(col_inv)),
    )


def _check_dim(op: CirculantOperator, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (op.m,):
        raise ValueError(f"vector has shape {x.shape}, operator expects ({op.m},)")
    return x


def apply(op: CirculantOperator, x: np.ndarray) -> np.ndarray:
    """A @ x."""
    return _apply_kernel(op._fwd, _check_dim(op, x))


def apply_inverse(op: CirculantOperator, x: np.ndarray) -> np.ndarray:
    """A^{-1} @ x, via the reciprocal-spectrum kernel."""
    return _apply_kernel(op._inv, _check_dim(op, x))


def left_apply_inverse(op: CirculantOperator, v: np.ndarray) -> np.ndarray:
    """v^T A^{-1}, i.e. the transposed inverse applied to v.

    Transposing a circulant reverses its kernel cyclically, so this is one
    more convolution with a precomputed kernel.
    """
    return _apply_kernel(op._inv_left, _check_dim(op, v))


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
