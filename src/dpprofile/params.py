"""Scalar parameters of the mechanism and the reconstruction, and their checks.

The privacy budget epsilon, the failure probability eta, the maximum count
n, the noise bound B that they give and the window m = n + 2B + 1 it sets
are plain numbers, so their maths needs the standard library alone.  The
command line checks its flags here before it loads numpy, and every layer
imports these names from here, along with _Frozen, the base of the
package's value classes.
"""

from __future__ import annotations

import math

__all__ = [
    "ReconstructionConfig",
    "MAX_WINDOW",
    "MIN_EIGENVALUE",
    "check_eta",
    "check_fit",
    "check_integer",
    "check_max_count",
    "check_seed",
    "check_trials",
    "check_window",
    "max_spectrum_floor",
    "truncation_radius",
    "min_truncation_radius",
]


# sample_geometric draws U from (0, 1] on a 2^-53 grid, so -ln(U) never
# exceeds 53 ln 2.  Below this epsilon a draw -ln(U) / epsilon could leave
# int64 (2^62 keeps the difference of two draws in range as well).
_MIN_EPSILON = 53 * math.log(2) / 2**62


def _check_epsilon(epsilon: float) -> None:
    """Reject an epsilon that would not give the noise its distribution.

    NaN and infinity cast to the same int64 for both geometric draws, so
    they would add no noise at all; tiny values overflow the cast.  A bool
    (Python's or numpy's, both named "bool") is a flag, not a budget.
    """
    if type(epsilon).__name__ == "bool" or not (
        math.isfinite(epsilon) and epsilon >= _MIN_EPSILON
    ):
        raise ValueError(
            f"epsilon must be a finite number >= {_MIN_EPSILON:.3g}, got {epsilon!r}"
        )


def check_eta(eta: float) -> None:
    """Reject a failure probability outside (0, 1); NaN fails the comparison."""
    if not 0 < eta < 1:
        raise ValueError("eta must lie in (0, 1)")


def check_integer(value, name: str) -> int:
    """value as an int, rejecting anything but an integer: a numpy integer
    is one; a bool, a float (whole or not) and a string are not.  name
    starts the message.
    """
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_max_count(n: int) -> int:
    """n as an int, rejecting anything but an integer >= 1."""
    n = check_integer(n, "maximum count n")
    if n < 1:
        raise ValueError(f"maximum count n must be >= 1, got {n}")
    return n


def check_seed(seed: int, name: str = "seed") -> int:
    """seed as an int, rejecting anything but an integer in [0, 2^64 - 1]
    (numpy refuses a negative seed; derive_seed would wrap it)."""
    seed = check_integer(seed, name)
    if not 0 <= seed < 2**64:
        raise ValueError(f"{name} {seed}: must lie in [0, 2**64 - 1]")
    return seed


def check_trials(trials: int) -> int:
    """trials as an int, rejecting anything but an integer >= 1."""
    trials = check_integer(trials, "trials")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    return trials


def check_fit(trials_per_d: dict[int, int]) -> None:
    """Reject a sweep too thin to fit the error scaling law: the fit needs
    at least three distinct domain sizes d, with at least twenty trials at
    each.  trials_per_d maps each d to its number of trials.
    """
    if len(trials_per_d) < 3:
        raise ValueError(f"need >= 3 distinct d values, got {len(trials_per_d)}")
    for d, trials in trials_per_d.items():
        if trials < 20:
            raise ValueError(f"need >= 20 trials per d, got {trials} at d={d}")


# Largest reconstruction window m = n + 2B + 1.  A first reconstruction at a
# given (n, B, epsilon) peaks (tracemalloc) at about 10 bytes per window entry
# when n fills the window (n = d = 1e6, eps 1), some 1 GB at this cap, and at
# about 75 when B does and the unit-sum corrections span the window (eps 1e-5,
# n = 1.7e6, d = 1e6), some 7.5 GB here; past the cap, sizes fail closed with a
# message instead of failing to allocate.  B >= 0, so it also caps n at
# MAX_WINDOW - 1.
# The eval command holds its synthetic domain sizes d to the same cap (a
# d-length histogram is 8 bytes per item, 0.8 GB here).
MAX_WINDOW = 10**8


# Eigenvalues below this magnitude mean the configuration cannot be inverted
# reliably; construction refuses instead of regularizing.
MIN_EIGENVALUE = 1e-12


def max_spectrum_floor(epsilon: float) -> float:
    """tanh^2(eps/2), the supremum over B of the operator's spectrum floor.

    The floor rises with the noise bound B towards this limit.  When the
    limit is below MIN_EIGENVALUE (epsilon below about 2e-6), the derived B
    makes every window far too long for its spectrum to be checked, so the
    floor refuses the operator whatever eta and d are.
    """
    return math.tanh(epsilon / 2) ** 2


def check_window(n: int, B: int = 0, remedy: str = "raise epsilon or eta") -> None:
    """Reject a maximum count n and noise bound B whose window exceeds MAX_WINDOW.

    With the default B = 0 this checks n alone: a sketch with a larger n has
    no reconstruction, whatever its noise bound.  remedy ends the message
    about B; a caller whose eta is fixed names epsilon alone.
    """
    if n + 1 > MAX_WINDOW:
        raise ValueError(
            f"n={n} is above the largest supported maximum count {MAX_WINDOW - 1}"
        )
    if n + 2 * B + 1 > MAX_WINDOW:
        raise ValueError(
            f"noise bound B={B} with n={n} gives a window of n + 2B + 1 = "
            f"{n + 2 * B + 1} counts, above the supported {MAX_WINDOW} ({remedy})"
        )


def truncation_radius(epsilon: float, eta: float, d: int) -> int:
    """Smallest integer noise bound B so that, except with probability <= eta,
    every one of the d independent noise draws has magnitude at most B, and
    the deconvolution operator stays well conditioned.

    Computed as ceil( (1/eps) * ln(max{ 2d / (eta (e^eps + 1)),
    8 e^eps / (e^{2 eps} - 1) }) ), clamped below at zero.
    """
    _check_epsilon(epsilon)
    check_eta(eta)
    d = check_integer(d, "domain size d")
    if d < 1:
        raise ValueError("domain size d must be >= 1")
    # log of 2d / (eta (e^eps + 1)), rewritten to avoid overflow at large eps
    log_tail = math.log(2 * d / eta) - (epsilon + math.log1p(math.exp(-epsilon)))
    b_real = max(log_tail, _log_conditioning(epsilon)) / epsilon
    if not b_real < 2**63:  # inf when 2d / eta overflows, e.g. a subnormal eta
        raise ValueError(
            f"eta={eta!r} with epsilon={epsilon!r} and d={d} gives a noise bound "
            f"B of {b_real:.3g}, which does not fit in a 64-bit integer"
        )
    return max(0, math.ceil(b_real))


def _log_conditioning(epsilon: float) -> float:
    """log of 8 e^eps / (e^{2 eps} - 1) = log(4 / sinh(eps)), without overflow."""
    e2 = math.exp(-2 * epsilon)  # 1.0 below eps ~ 2.8e-17, where log1p(-1) fails
    log_gap = math.log1p(-e2) if e2 < 1.0 else math.log(-math.expm1(-2 * epsilon))
    return math.log(8.0) - epsilon - log_gap


def min_truncation_radius(epsilon: float) -> int:
    """A lower bound on truncation_radius(epsilon, eta, d) over every eta and d.

    The conditioning term of the noise bound depends on epsilon alone, so a
    sketch whose window n + 2 * this + 1 exceeds MAX_WINDOW has no
    reconstruction at any eta.  It fits int64 for every valid epsilon.
    """
    _check_epsilon(epsilon)
    return max(0, math.ceil(_log_conditioning(epsilon) / epsilon))


class _Frozen:
    """Base of the package's value classes, whose attributes are read-only.

    A value class lists its attributes in __slots__ and sets each once, in
    __init__, through _set; assigning or deleting one afterwards raises
    AttributeError.  Values are shared (an operator through its cache, the
    arrays a sketch holds), so no caller may edit one under another.  Two
    values of one class compare equal, and hash, by their attributes, and
    copy and pickle keep them.

    A plain class, not a dataclass: a dataclass generates and execs its
    methods when its module is imported, about 1 ms per class, and loading
    `dataclasses` loads `inspect`, `ast` and `dis` as well.
    """

    __slots__ = ()

    def _set(self, **attributes) -> None:
        for name, value in attributes.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    # copy and pickle restore a value through these, not through __setattr__
    __getstate__ = _values

    def __setstate__(self, state: tuple) -> None:
        self._set(**dict(zip(self.__slots__, state)))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class ReconstructionConfig(_Frozen):
    """Parameters of one sketch-to-profile reconstruction.

    B defaults to truncation_radius(epsilon, eta, d). Construction fails when
    n < B unless allow_small_n is set, because the error guarantee of the
    pipeline assumes n >= B.  An overridden B is accepted, since binning
    needs no invertible operator; building the operator refuses a B below
    min_truncation_radius(epsilon).
    """

    __slots__ = ("epsilon", "eta", "n", "d", "p_norm", "B", "allow_small_n")

    def __init__(
        self,
        epsilon: float,
        eta: float,
        n: int,
        d: int,
        p_norm: str = "l2",
        B: int = -1,  # -1: derive from (epsilon, eta, d)
        allow_small_n: bool = False,
    ):
        _check_epsilon(epsilon)
        check_eta(eta)
        n, d = check_integer(n, "n"), check_integer(d, "d")
        if n < 1 or d < 1:
            raise ValueError("n and d must be >= 1")
        if p_norm not in ("l1", "l2", "linf"):
            raise ValueError(f"unknown norm selector {p_norm!r}")
        B = check_integer(B, "noise bound B")
        if B == -1:
            B = truncation_radius(epsilon, eta, d)
        if B < 0:
            raise ValueError("noise bound B must be non-negative")
        check_window(n, B)
        if n < B and not allow_small_n:
            raise ValueError(
                f"maximum count n={n} is below the noise bound B={B}; "
                "the error guarantee requires n >= B "
                "(raise n, raise epsilon, or relax eta)"
            )
        self._set(epsilon=epsilon, eta=eta, n=n, d=d, p_norm=p_norm, B=B,
                  allow_small_n=allow_small_n)

    @property
    def m(self) -> int:
        return self.n + 2 * self.B + 1
