"""Discrete Laplace mechanism for histograms.

Covers coordinate-wise privatization (with optional clipping into [0, n]),
recovery of an unclipped-distributed sketch from a clipped one via the
memorylessness of the geometric distribution, additive sketch updates,
extraction of the empirical frequency-of-frequencies vector used by the
reconstruction pipeline, and the exact law of one binned noisy count.
"""

from __future__ import annotations

import io
import json
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .params import ReconstructionConfig, _check_epsilon, check_max_count, check_window

__all__ = [
    "Histogram",
    "PrivateSketch",
    "EmpiricalProfile",
    "sample_geometric",
    "sample_dlap",
    "window_pmf",
    "privatize",
    "unfold",
    "update",
    "empirical_profile",
    "read_int_lines",
    "read_histogram",
    "read_sketch",
    "write_sketch",
]


def int64_array(values, what: str) -> np.ndarray:
    """values as an int64 array, refusing any entry the cast would change.

    Boolean and integer input that int64 holds is taken as it is (no copy for
    int64), after a dtype check alone.  Floats, uint64 and Python objects are
    cast and compared with the cast, so 1.5, nan, 1e30 and 2**63 raise a
    ValueError instead of being truncated or wrapped.
    """
    arr = np.asarray(values)
    if np.can_cast(arr.dtype, np.int64):
        return arr.astype(np.int64, copy=False)
    if arr.dtype.kind not in "ufO":
        raise ValueError(f"{what} must be integers, got an array of {arr.dtype}")
    with np.errstate(invalid="ignore"):  # nan and values past int64 cast to garbage
        cast = arr.astype(np.int64)
    changed = np.flatnonzero(cast != arr)
    if len(changed):
        value = arr.ravel()[changed[:1]].tolist()[0]
        raise ValueError(f"{what} must be integers within the 64-bit range, got {value!r}")
    return cast


@dataclass(frozen=True)
class Histogram:
    """Per-item occurrence counts over a domain of size d, each in [0, n]."""

    counts: np.ndarray
    n: int

    def __post_init__(self):
        counts = int64_array(self.counts, "histogram counts")
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 1 or len(counts) < 1:
            raise ValueError("histogram must be a non-empty 1-d integer vector")
        check_max_count(self.n)
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
        counts = int64_array(self.counts, "sketch counts")
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


def sample_geometric(epsilon: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """`size` geometric draws G >= 0, P[G = t] = (1 - e^{-eps}) e^{-eps t}, as int64.

    Drawn as floor(-ln(U) / eps) with U uniform on (0, 1], a single uniform
    per sample.  This matches the pmf only up to floating point: U lies on a
    2^-53 grid, so no draw exceeds 53 ln(2) / eps (about 36.7 / eps) and the
    far tail is distorted.  The exact discrete-Laplace item of ROADMAP.md
    plans an exact integer sampler.
    """
    _check_epsilon(epsilon)
    u = rng.random(size)
    # In place, in the buffer of the uniforms.  log(x) / -eps equals
    # -log(x) / eps bit for bit: IEEE division is symmetric in sign.
    np.subtract(1.0, u, out=u)  # in (0, 1]: keeps the logarithm finite
    np.log(u, out=u)
    np.divide(u, -epsilon, out=u)
    np.floor(u, out=u)
    return u.astype(np.int64)


def sample_dlap(epsilon: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """`size` two-sided integer draws, P[Z = t] proportional to e^{-eps |t|}.

    Realized as the difference of two independent geometric draws, which has
    exactly the target pmf ((1 - e^{-eps}) / (1 + e^{-eps})) e^{-eps |t|}
    when the draws are exact; sample_geometric says where they are not.
    """
    g1 = sample_geometric(epsilon, rng, size)
    g1 -= sample_geometric(epsilon, rng, size)
    return g1


def window_pmf(values, epsilon: float, n: int, B: int) -> np.ndarray:
    """Law of a noisy count binned into the window [-B, n+B], per true count.

    Row r, column t + B holds P(clip(c + Z, -B, n+B) = t) for c = values[r]
    in [0, n] and Z distributed as sample_dlap's target, with q = e^{-eps}:
    (1 - q) / (1 + q) q^|t - c| inside the window, and at its endpoints the
    whole tail beyond them, q^(B + c) / (1 + q) and q^(n + B - c) / (1 + q).
    A histogram with k_c items at count c thus bins, under privatize then
    empirical_profile, to the sum over c of Multinomial(k_c, row of c).
    """
    _check_epsilon(epsilon)
    c = np.asarray(values, dtype=np.int64)
    if c.ndim != 1 or (len(c) and (c.min() < 0 or c.max() > n)):
        raise ValueError(f"true counts must be a 1-d vector in [0, {n}]")
    m = n + 2 * B + 1
    q = math.exp(-epsilon)
    # a huge epsilon makes the exponents -inf, whose exp is the 0 wanted
    with np.errstate(over="ignore"):
        # row c is the slice of q^|k| over k = -(n+B)..n+B that starts at k = -B - c
        decay = np.exp(-epsilon * np.abs(np.arange(-(n + B), n + B + 1)))
        pmf = np.lib.stride_tricks.sliding_window_view(decay, m)[n - c]
        pmf *= -math.expm1(-epsilon) / (1.0 + q)
        pmf[:, 0] = np.exp(-epsilon * (B + c)) / (1.0 + q)
        pmf[:, -1] = np.exp(-epsilon * (n + B - c)) / (1.0 + q)
    return pmf


def privatize(
    h: Histogram, epsilon: float, clip: bool, rng: np.random.Generator
) -> PrivateSketch:
    """Add independent two-sided geometric noise to every count.

    With clip=True the perturbed counts are folded back into [0, n]; the
    returned sketch records which variant produced it.
    """
    counts = sample_dlap(epsilon, rng, size=h.d)
    counts += h.counts
    if clip:
        np.clip(counts, 0, h.n, out=counts)
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
    delta = int64_array(delta, "delta")
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
    endpoint so that the result always sums to exactly one.  The shifted
    copy of the counts is freed before the division, so binning holds at
    most two arrays of its inputs' lengths at a time.
    """
    if s.clipped:
        raise ValueError("unfold the sketch before taking its profile")
    if s.n != cfg.n or s.d != cfg.d:
        raise ValueError("config (n, d) does not match the sketch")
    if not math.isclose(s.epsilon, cfg.epsilon, rel_tol=1e-12):
        raise ValueError("config epsilon does not match the sketch")
    shifted = np.clip(s.counts, -cfg.B, cfg.n + cfg.B)
    shifted += cfg.B
    binned = np.bincount(shifted, minlength=cfg.m)
    del shifted
    values = binned / s.d
    return EmpiricalProfile(values=values, n=cfg.n, B=cfg.B, d=s.d)


# --- file formats ---------------------------------------------------------
#
# Integer file (histograms, update deltas): plain text, one integer per line,
# blank lines and lines beginning with '#' ignored.  Sketch file: a flat JSON
# object with exactly the keys in _SKETCH_KEYS.  Both read their integers by
# one vectorised parse, _parse_ints, of the layouts written here; it declines
# everything else, which the line loop or json then decides.

_INT64_MIN = int(np.iinfo(np.int64).min)
_INT64_MAX = int(np.iinfo(np.int64).max)

# codec block sizes, in counts and in bytes: no codec temporary grows with d
_FORMAT_BLOCK = 2**15
_PARSE_PIECE = 2**17

# 1, 10 .. 10**18: the value of each digit place of an int64
_POW10 = 10 ** np.arange(19, dtype=np.uint64)

_JSON_SEP = b", "


def _parse_ints(data: bytes, pos: int, end: int, out: np.ndarray, sep: bytes) -> int | None:
    """Parse the integers of data[pos:end] into out: their number, or None.

    With sep ", " the text must be json.dumps's of int64 values joined by ", ";
    with another, tokens -?[0-9]+ split by runs of "\n" and "\r".  Each piece,
    cut at the first sep past _PARSE_PIECE bytes, is checked by counts of its
    allowed bytes and bounded by the edges of its runs of token bytes; out,
    viewed as uint64, takes the magnitudes by one gather per digit place.
    Anything else, or more values than out holds, returns None.
    """
    text, filled = np.frombuffer(data, dtype=np.uint8), 0
    canonical = sep == _JSON_SEP
    counted = b"-" + (sep if canonical else b"\n\r")  # the allowed bytes besides digits
    while True:
        cut = data.find(sep, pos + _PARSE_PIECE, end)
        cut = end if cut < 0 else cut
        piece = text[pos:cut]
        minus, *gaps = (np.count_nonzero(piece == c) for c in counted)
        # "-" and the digits make the tokens: every separator byte sorts below
        token = np.diff(piece >= ord("-"), prepend=False, append=False)
        starts, ends = np.flatnonzero(token).reshape(-1, 2).T  # the edges of each token
        neg = piece[starts] == ord("-")
        ndig = ends - starts - neg
        top = int(ndig.max(initial=0))
        if (
            np.count_nonzero(piece - ord("0") < 10) + minus + sum(gaps) != len(piece)
            or np.count_nonzero(neg) != minus  # a "-" inside a token
            or filled + len(starts) > len(out)
            or ndig.min(initial=1) < 1 or top > 19
        ) or canonical and (
            len(starts) != gaps[0] + 1 or starts[0]  # one "," between two tokens, none first
            # each "," is followed by a " ", and each " " past the first byte follows a ","
            or not ((piece[:-1] == ord(",")) == (piece[1:] == ord(" "))).all()
            or ((piece[starts + neg] == ord("0")) & (ends - starts > 1)).any()  # 01, -0
        ):
            return None
        values = out[filled : filled + len(starts)]
        magnitude, at = values.view(np.uint64), ends - 1
        magnitude[:] = piece[at] - ord("0")
        for place in range(1, top):
            at -= 1
            digit = piece[at] - ord("0")
            digit *= ndig > place  # a place that a shorter token lacks adds 0
            magnitude += np.multiply(digit, _POW10[place], dtype=np.uint64)
        # 19 digits fit in a uint64, so one comparison bounds them to int64
        if top == 19 and (magnitude > np.uint64(_INT64_MAX) + neg).any():
            return None
        if minus:
            values *= 1 - 2 * neg.view(np.int8)  # 2**63 is its own negative
        filled += len(starts)
        if cut == end:
            return filled
        pos = cut + len(sep)


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
    Bare integers with LF, CRLF or CR line ends take one vectorised parse.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    lf, cr = (np.count_nonzero(np.frombuffer(data, dtype=np.uint8) == c) for c in b"\n\r")
    # a slot per line when all lines end alike (LF, CRLF or CR); a file that
    # mixes them may overflow the slots, and then the loop decides
    values = np.empty(max(lf, cr) + 1, dtype=np.int64)
    filled = _parse_ints(data, 0, len(data), values, b"\n" if lf else b"\r")
    if filled is not None:
        values = values[:filled]
        if not filled or lo <= values.min() and values.max() <= hi:
            return values
    # Whatever the one-pass parse did not accept is decided line by line,
    # so accepted inputs and error messages do not depend on the fast path.
    parsed = []
    out_of_range = out_of_range or (lambda value: f"{value} does not fit in a 64-bit integer")
    # decoded as open(path, encoding="utf-8") does, newlines included
    for lineno, line in enumerate(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: expected an integer, got {text!r}") from None
        if not lo <= value <= hi:
            raise ValueError(f"{path}:{lineno}: {out_of_range(value)}")
        parsed.append(value)
    return np.array(parsed, dtype=np.int64)


def read_histogram(path: str, n: int) -> Histogram:
    check_max_count(n)  # before the file is read

    def out_of_range(value: int) -> str:
        if value < 0:
            return f"negative count {value}"
        return f"count {value} exceeds the maximum n={n}"

    counts = read_int_lines(path, 0, n, out_of_range)
    if not len(counts):
        raise ValueError(f"{path}: no counts found")
    return Histogram(counts=counts, n=n)


_SKETCH_KEYS = frozenset(("version", "epsilon", "n", "d", "clipped", "counts"))

# write_sketch puts the counts last: <head>"counts": [<counts>]}\n
_COUNTS_KEY = b'"counts": '
_SKETCH_END = b"}\n"


def _format_counts(counts: np.ndarray) -> Iterator[bytes]:
    """json.dumps(counts.tolist())[1:-1] of an int64 vector, in chunks.

    The chunks, one per block of _FORMAT_BLOCK counts, concatenate to the
    text byte for byte: every chunk but the first starts with its ", ".  A
    block's digits are computed for all its counts at once and scattered
    into one byte buffer laid out as ", <sign><digits>" per count.
    """
    for lo in range(0, len(counts), _FORMAT_BLOCK):
        values = counts[lo : lo + _FORMAT_BLOCK]
        rest = np.abs(values).view(np.uint64)  # |INT64_MIN| wraps to 2**63
        width = (values < 0) + np.uint8(3)  # the ", ", a sign and one digit
        ndigits = 1
        for power in _POW10[1:]:  # k + 1 digits from the k-th power of 10 up
            longer = rest >= power
            if not longer.any():
                break
            width += longer
            ndigits += 1
        last = np.cumsum(width, dtype=np.intp)  # one past each count's last digit
        text = np.full(last[-1] + 1, ord(" "), dtype=np.uint8)  # + a spare byte
        last -= width
        text[last] = ord(",")
        # every count gets a "-"; the digits overwrite it where it is not negative
        text[last + 2] = ord("-")
        last += width - np.uint8(1)  # each count's last digit
        for _ in range(ndigits):
            digit = rest.astype(np.uint8)
            np.floor_divide(rest, 10, out=rest)
            # the digit is below 10, so the low bytes give it exactly
            digit -= rest.astype(np.uint8) * np.uint8(10)
            digit += ord("0")
            text[last] = digit
            last -= 1
            np.copyto(last, len(text) - 1, where=rest == 0)  # finished: the spare
        yield text[2 if lo == 0 else 0 : -1].tobytes()


def _parse_canonical(data: bytes) -> dict | None:
    """The sketch object of a file in write_sketch's exact layout, else None.

    The counts key must close with the file's last quote, so that it is not
    inside a string.  If json parses the head before it, with an empty list
    for the counts, to an object with exactly the sketch keys, that list is
    the object's last entry, and json.loads of the whole file gives the same
    object with the counts in it.  _parse_ints takes the counts into one
    array of the head's d only as JSON integers within int64 joined by ", ".
    Anything else, a sketch in another layout or a d that is not the number
    of counts included, returns None.
    """
    start = data.rfind(b'"') - len(b'"counts')  # a one-byte search is fast
    at_key = start >= 0 and data.startswith(_COUNTS_KEY + b"[", start)
    if not at_key or not data.endswith(b"]" + _SKETCH_END):
        return None
    pos = start + len(_COUNTS_KEY)
    try:
        obj = json.loads(data[:pos].decode("utf-8") + "[]}")
    except (ValueError, RecursionError):  # decoding and JSON errors alike
        return None
    if not isinstance(obj, dict) or obj.keys() != _SKETCH_KEYS:
        return None
    d, pos, end = obj["d"], pos + 1, len(data) - len(b"]" + _SKETCH_END)
    # every count but the last takes a digit and a ", " at least, so the text
    # bounds the array before it is allocated
    if type(d) is not int or not 0 <= 3 * d <= end - pos + 2:
        return None
    obj["counts"] = np.empty(d, dtype=np.int64)
    if pos < end and _parse_ints(data, pos, end, obj["counts"], _JSON_SEP) != d:
        return None
    return obj


def read_sketch(path: str) -> PrivateSketch:
    """Read a sketch file, failing with a ValueError that names the path.

    A file in write_sketch's layout takes a vectorised parse, piece by piece;
    any other JSON is parsed whole.  Both go through the same checks, so the
    outcome, value or message, does not depend on the path taken.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    obj = _parse_canonical(data)
    if obj is None:
        try:  # decoded as open(path, encoding="utf-8") does, newlines included
            obj = json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply for a sketch") from None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(obj, dict) or obj.keys() != _SKETCH_KEYS:
        found = sorted(obj) if isinstance(obj, dict) else f"a JSON {type(obj).__name__}"
        keys = sorted(_SKETCH_KEYS)
        raise ValueError(f"{path}: a sketch is a JSON object with the keys {keys}, got {found}")
    version, epsilon, n, d = obj["version"], obj["epsilon"], obj["n"], obj["d"]
    clipped, counts = obj["clipped"], obj["counts"]
    # type(x) is int: json gives bool, a subclass of int, for true and false
    if type(version) is not int or version != 1:
        raise ValueError(f"{path}: unsupported sketch version {version!r}")
    if type(n) is not int or n < 1:
        raise ValueError(f"{path}: n must be an integer >= 1, got {n!r}")
    try:
        check_window(n)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if type(d) is not int:
        raise ValueError(f"{path}: d must be an integer, got {d!r}")
    if type(clipped) is not bool:
        raise ValueError(f"{path}: clipped must be true or false, got {clipped!r}")
    if type(epsilon) not in (int, float):
        raise ValueError(f"{path}: epsilon must be a number, got {epsilon!r}")
    if type(counts) is list:
        stray = set(map(type, counts)) - {int}
        if stray:
            names = ", ".join(sorted(t.__name__ for t in stray))
            raise ValueError(f"{path}: counts must be integers, found {names}")
    elif type(counts) is not np.ndarray:  # an ndarray comes from _parse_canonical
        raise ValueError(f"{path}: counts must be a list of integers")
    if len(counts) != d:
        raise ValueError(f"{path}: d={d} but {len(counts)} counts present")
    try:
        counts = np.asarray(counts, dtype=np.int64)  # JSON integers: kept, or it overflows
        return PrivateSketch(counts=counts, epsilon=float(epsilon), n=n, clipped=clipped)
    except (ValueError, OverflowError) as exc:  # OverflowError: a count beyond int64
        raise ValueError(f"{path}: {exc}") from None


def write_sketch(path: str, s: PrivateSketch) -> None:
    """Write the bytes of json.dumps(sketch object) + "\\n", counts last.

    Each block of counts is written as soon as it is formatted.
    """
    head = json.dumps({"version": 1, "epsilon": float(s.epsilon), "n": int(s.n),
                       "d": int(s.d), "clipped": bool(s.clipped), "counts": []})
    with open(path, "wb") as fh:
        fh.write(head[: -len("]}")].encode())  # up to '"counts": ['
        fh.writelines(_format_counts(s.counts))
        fh.write(b"]" + _SKETCH_END)
