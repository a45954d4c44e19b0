"""Discrete Laplace mechanism for histograms.

Covers coordinate-wise privatization (with optional clipping into [0, n]),
recovery of an unclipped-distributed sketch from a clipped one via the
memorylessness of the geometric distribution, additive sketch updates, and
extraction of the empirical frequency-of-frequencies vector used by the
reconstruction pipeline.
"""

from __future__ import annotations

import json
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Histogram",
    "PrivateSketch",
    "EmpiricalProfile",
    "ReconstructionConfig",
    "truncation_radius",
    "sample_geometric",
    "sample_dlap",
    "privatize",
    "unfold",
    "update",
    "empirical_profile",
    "read_int_lines",
    "read_histogram",
    "write_histogram",
    "read_sketch",
    "write_sketch",
]


# sample_geometric draws U from (0, 1] on a 2^-53 grid, so -ln(U) never
# exceeds 53 ln 2.  Below this epsilon a draw -ln(U) / epsilon could leave
# int64 (2^62 keeps the difference of two draws in range as well).
_MIN_EPSILON = 53 * math.log(2) / 2**62


def _check_epsilon(epsilon: float) -> None:
    """Reject an epsilon that would not give the noise its distribution.

    NaN and infinity cast to the same int64 for both geometric draws, so
    they would add no noise at all; tiny values overflow the cast.
    """
    if not (math.isfinite(epsilon) and epsilon >= _MIN_EPSILON):
        raise ValueError(
            f"epsilon must be a finite number >= {_MIN_EPSILON:.3g}, got {epsilon!r}"
        )


@dataclass(frozen=True)
class Histogram:
    """Per-item occurrence counts over a domain of size d, each in [0, n]."""

    counts: np.ndarray
    n: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 1 or len(counts) < 1:
            raise ValueError("histogram must be a non-empty 1-d integer vector")
        if self.n < 1:
            raise ValueError("maximum count n must be >= 1")
        if counts.min() < 0 or counts.max() > self.n:
            raise ValueError(f"histogram counts must lie in [0, {self.n}]")
        counts.flags.writeable = False

    @property
    def d(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class PrivateSketch:
    """Noise-perturbed counts together with the mechanism metadata."""

    counts: np.ndarray
    epsilon: float
    n: int
    clipped: bool

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 1 or len(counts) < 1:
            raise ValueError("sketch counts must be a non-empty 1-d integer vector")
        _check_epsilon(self.epsilon)
        if self.clipped and (counts.min() < 0 or counts.max() > self.n):
            raise ValueError("clipped sketch has counts outside [0, n]")
        counts.flags.writeable = False

    @property
    def d(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class EmpiricalProfile:
    """Frequency-of-frequencies of a noisy histogram, indexed t = -B .. n+B.

    values[t + B] is the fraction of domain items whose noisy count equals t;
    every entry is an integer multiple of 1/d and the entries sum to one.
    """

    values: np.ndarray
    n: int
    B: int
    d: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if len(values) != self.n + 2 * self.B + 1:
            raise ValueError("empirical profile has wrong length for (n, B)")
        values.flags.writeable = False

    @property
    def m(self) -> int:
        return len(self.values)


def truncation_radius(epsilon: float, eta: float, d: int) -> int:
    """Smallest integer noise bound B so that, except with probability <= eta,
    every one of the d independent noise draws has magnitude at most B, and
    the deconvolution operator stays well conditioned.

    Computed as ceil( (1/eps) * ln(max{ 2d / (eta (e^eps + 1)),
    8 e^eps / (e^{2 eps} - 1) }) ), clamped below at zero.
    """
    _check_epsilon(epsilon)
    if not 0 < eta < 1:
        raise ValueError("eta must lie in (0, 1)")
    if d < 1:
        raise ValueError("domain size d must be >= 1")
    # log of 2d / (eta (e^eps + 1)), rewritten to avoid overflow at large eps
    log_tail = math.log(2 * d / eta) - (epsilon + math.log1p(math.exp(-epsilon)))
    # log of 8 e^eps / (e^{2 eps} - 1) = log(4 / sinh(eps)), same treatment
    log_cond = math.log(8.0) - epsilon - math.log1p(-math.exp(-2 * epsilon))
    b_real = max(log_tail, log_cond) / epsilon
    return max(0, math.ceil(b_real))


@dataclass(frozen=True)
class ReconstructionConfig:
    """Parameters of one sketch-to-profile reconstruction.

    B defaults to truncation_radius(epsilon, eta, d). Construction fails when
    n < B unless allow_small_n is set, because the error guarantee of the
    pipeline assumes n >= B.
    """

    epsilon: float
    eta: float
    n: int
    d: int
    p_norm: str = "l2"
    B: int = field(default=-1)  # -1: derive from (epsilon, eta, d)
    allow_small_n: bool = False

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        if not 0 < self.eta < 1:
            raise ValueError("eta must lie in (0, 1)")
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be >= 1")
        if self.p_norm not in ("l1", "l2", "linf"):
            raise ValueError(f"unknown norm selector {self.p_norm!r}")
        if self.B == -1:
            object.__setattr__(
                self, "B", truncation_radius(self.epsilon, self.eta, self.d)
            )
        if self.B < 0:
            raise ValueError("noise bound B must be non-negative")
        if self.n < self.B and not self.allow_small_n:
            raise ValueError(
                f"maximum count n={self.n} is below the noise bound B={self.B}; "
                "the error guarantee requires n >= B "
                "(raise n, raise epsilon, or relax eta)"
            )

    @property
    def m(self) -> int:
        return self.n + 2 * self.B + 1


def sample_geometric(epsilon: float, rng: np.random.Generator, size=None):
    """Geometric variable G >= 0 with P[G = t] = (1 - e^{-eps}) e^{-eps t}.

    Drawn as floor(-ln(U) / eps) with U uniform on (0, 1], which realizes the
    pmf exactly with a single uniform per sample.
    """
    _check_epsilon(epsilon)
    u = 1.0 - rng.random(size)  # in (0, 1]: keeps the logarithm finite
    g = np.floor(-np.log(u) / epsilon).astype(np.int64)
    if size is None:
        return int(g)
    return g


def sample_dlap(epsilon: float, rng: np.random.Generator, size=None):
    """Two-sided integer noise with P[Z = t] proportional to e^{-eps |t|}.

    Realized as the difference of two independent geometric draws, which has
    exactly the target pmf ((1 - e^{-eps}) / (1 + e^{-eps})) e^{-eps |t|}.
    """
    g1 = sample_geometric(epsilon, rng, size)
    g2 = sample_geometric(epsilon, rng, size)
    if size is None:
        return int(g1 - g2)
    return g1 - g2


def privatize(
    h: Histogram, epsilon: float, clip: bool, rng: np.random.Generator
) -> PrivateSketch:
    """Add independent two-sided geometric noise to every count.

    With clip=True the perturbed counts are folded back into [0, n]; the
    returned sketch records which variant produced it.
    """
    noise = sample_dlap(epsilon, rng, size=h.d)
    counts = h.counts + noise
    if clip:
        counts = np.clip(counts, 0, h.n)
    return PrivateSketch(counts=counts, epsilon=epsilon, n=h.n, clipped=clip)


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


def update(s: PrivateSketch, delta: np.ndarray) -> PrivateSketch:
    """Shift an unclipped sketch by an integer delta vector.

    Adding delta to the noisy counts yields a sketch distributed as if the
    mechanism had been run on the shifted histogram; this only holds without
    clipping, so clipped sketches are rejected.
    """
    if s.clipped:
        raise ValueError("clipped sketches are not updatable; unfold first")
    delta = np.asarray(delta, dtype=np.int64)
    if delta.shape != s.counts.shape:
        raise ValueError(
            f"delta has length {len(delta)}, sketch has length {s.d}"
        )
    counts = s.counts + delta
    # int64 addition wraps silently.  No sum can when the extreme ones fit;
    # otherwise a sum whose sign differs from both operands' has wrapped.
    lo = int(s.counts.min()) + int(delta.min())
    hi = int(s.counts.max()) + int(delta.max())
    if lo < _INT64_MIN or hi > _INT64_MAX:
        wrapped = ((s.counts ^ counts) & (delta ^ counts)) < 0
        if wrapped.any():
            i = int(np.argmax(wrapped))
            raise ValueError(
                f"count {i}: {s.counts[i]} + {delta[i]} does not fit in a 64-bit integer"
            )
    return PrivateSketch(counts=counts, epsilon=s.epsilon, n=s.n, clipped=False)


def empirical_profile(
    s: PrivateSketch, cfg: ReconstructionConfig
) -> EmpiricalProfile:
    """Bin the noisy counts into the window [-B, n+B] and normalize by d.

    Counts outside the window (noise larger than B, which happens with
    probability at most eta by the choice of B) are clamped to the nearest
    endpoint so that the result always sums to exactly one.
    """
    if s.clipped:
        raise ValueError("unfold the sketch before taking its profile")
    if s.n != cfg.n or s.d != cfg.d:
        raise ValueError("config (n, d) does not match the sketch")
    if not math.isclose(s.epsilon, cfg.epsilon, rel_tol=1e-12):
        raise ValueError("config epsilon does not match the sketch")
    m = cfg.m
    shifted = np.clip(s.counts, -cfg.B, cfg.n + cfg.B) + cfg.B
    binned = np.bincount(shifted, minlength=m)
    values = binned / s.d
    return EmpiricalProfile(values=values, n=cfg.n, B=cfg.B, d=s.d)


# --- file formats ---------------------------------------------------------
#
# Integer file (histograms, update deltas): plain text, one integer per line,
# blank lines and lines beginning with '#' ignored.  Sketch file: a flat JSON
# object with exactly the keys in _SKETCH_KEYS.

_INT64_MIN = int(np.iinfo(np.int64).min)
_INT64_MAX = int(np.iinfo(np.int64).max)


def _load_int_column(path: str) -> np.ndarray | None:
    """Parse a plain one-integer-per-line file with a single numpy call.

    Returns None for anything else (comment lines, underscores, several
    values on a line, no values at all), so that the caller's line loop
    decides.  The file is decoded as ASCII because numpy's integer parser
    reads some non-ASCII letters as digits.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # "input contained no data"
            values = np.loadtxt(
                path, dtype=np.int64, comments=None, ndmin=2, encoding="ascii"
            )
    except (ValueError, OverflowError):
        return None
    # whitespace inside a line splits it into columns; the loop rejects it
    if values.shape[1] != 1 or not values.size:
        return None
    return values.ravel()


def read_int_lines(
    path: str,
    lo: int = _INT64_MIN,
    hi: int = _INT64_MAX,
    out_of_range: Callable[[int], str] | None = None,
) -> np.ndarray:
    """Integers of a file holding one per line, as an int64 vector.

    Blank lines and lines starting with '#' are skipped.  Every value must lie
    in [lo, hi] (by default the int64 range); out_of_range(value) gives the
    message for one that does not.  Errors name the line as path:lineno.
    """
    values = _load_int_column(path)
    if values is not None and lo <= values.min() and values.max() <= hi:
        return values
    # Whatever the single-call parse did not accept is decided line by line,
    # so accepted inputs and error messages do not depend on the fast path.
    parsed = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                value = int(text)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: expected an integer, got {text!r}"
                ) from None
            if not lo <= value <= hi:
                reason = (
                    out_of_range(value)
                    if out_of_range is not None
                    else f"{value} does not fit in a 64-bit integer"
                )
                raise ValueError(f"{path}:{lineno}: {reason}")
            parsed.append(value)
    return np.array(parsed, dtype=np.int64)


def read_histogram(path: str, n: int) -> Histogram:
    def out_of_range(value: int) -> str:
        if value < 0:
            return f"negative count {value}"
        return f"count {value} exceeds the maximum n={n}"

    counts = read_int_lines(path, 0, n, out_of_range)
    if not len(counts):
        raise ValueError(f"{path}: no counts found")
    return Histogram(counts=counts, n=n)


def write_histogram(path: str, h: Histogram) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for c in h.counts:
            fh.write(f"{int(c)}\n")


_SKETCH_KEYS = frozenset(("version", "epsilon", "n", "d", "clipped", "counts"))


def _is_json_int(value) -> bool:
    return type(value) is int  # json gives bool for true/false, a subclass of int


def read_sketch(path: str) -> PrivateSketch:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply for a sketch") from None
    if not isinstance(obj, dict) or obj.keys() != _SKETCH_KEYS:
        found = sorted(obj) if isinstance(obj, dict) else f"a JSON {type(obj).__name__}"
        raise ValueError(
            f"{path}: a sketch is a JSON object with the keys "
            f"{sorted(_SKETCH_KEYS)}, got {found}"
        )
    version, epsilon, n, d = obj["version"], obj["epsilon"], obj["n"], obj["d"]
    clipped, counts = obj["clipped"], obj["counts"]
    if not _is_json_int(version) or version != 1:
        raise ValueError(f"{path}: unsupported sketch version {version!r}")
    if not _is_json_int(n) or n < 1:
        raise ValueError(f"{path}: n must be an integer >= 1, got {n!r}")
    if not _is_json_int(d):
        raise ValueError(f"{path}: d must be an integer, got {d!r}")
    if type(clipped) is not bool:
        raise ValueError(f"{path}: clipped must be true or false, got {clipped!r}")
    if type(epsilon) not in (int, float):
        raise ValueError(f"{path}: epsilon must be a number, got {epsilon!r}")
    if type(counts) is not list:
        raise ValueError(f"{path}: counts must be a list of integers")
    stray = set(map(type, counts)) - {int}
    if stray:
        names = ", ".join(sorted(t.__name__ for t in stray))
        raise ValueError(f"{path}: counts must be integers, found {names}")
    if len(counts) != d:
        raise ValueError(f"{path}: d={d} but {len(counts)} counts present")
    try:
        return PrivateSketch(
            counts=np.fromiter(counts, dtype=np.int64, count=len(counts)),
            epsilon=float(epsilon),
            n=n,
            clipped=clipped,
        )
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_sketch(path: str, s: PrivateSketch) -> None:
    obj = {
        "version": 1,
        "epsilon": float(s.epsilon),
        "n": int(s.n),
        "d": int(s.d),
        "clipped": bool(s.clipped),
        "counts": s.counts.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj) + "\n")
