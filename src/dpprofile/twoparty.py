"""Two-party inner-product estimation built on the updatable sketch.

Alice holds x and Bob holds y, both sign vectors of length d.  Alice sends a
privatized sketch of x + 1; Bob shifts it additively by y + 1, reconstructs
the profile of the combined histogram (whose counts all lie in {0, 2, 4}),
and publishes d * (r[4] + r[0] - r[2]) plus calibrated Laplace noise.  On the
noiseless histogram that combination equals <x, y> exactly, because matching
coordinates land on counts 0 or 4 and mismatches land on 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import derive_seed
from .circulant import CirculantOperator, norm_bounds
from .mechanism import Histogram, PrivateSketch, ReconstructionConfig, privatize, update
from .reconstruct import cached_operator, reconstruct_profile

__all__ = [
    "PartyVector",
    "ProtocolResult",
    "PROTOCOL_N",
    "protocol_config",
    "sensitivity_bound",
    "alice_message",
    "bob_estimate",
    "run_protocol",
    "results_to_csv",
]

# Counts of (x + 1) + (y + 1) lie in {0, 2, 4}, so the histogram cap is 4.
PROTOCOL_N = 4

PROTOCOL_CSV_HEADER = "d,trial,true_ip,m_b,abs_error,delta"


@dataclass(frozen=True)
class PartyVector:
    """A party's input: a vector with every entry -1 or +1."""

    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.int64)
        object.__setattr__(self, "bits", bits)
        if bits.ndim != 1 or len(bits) < 1:
            raise ValueError("party vector must be a non-empty 1-d vector")
        if not np.all(np.abs(bits) == 1):
            raise ValueError("party vector entries must be -1 or +1")
        bits.flags.writeable = False

    @property
    def d(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class ProtocolResult:
    m_b: float        # Bob's published estimate
    true_ip: int      # exact <x, y>
    delta_used: float # sensitivity bound that calibrated the output noise
    abs_error: float

    def __post_init__(self):
        if abs(self.abs_error - abs(self.m_b - self.true_ip)) > 1e-6:
            raise ValueError("abs_error does not match |m_b - true_ip|")


def protocol_config(
    epsilon: float, d: int, eta: float = 0.05, p: str = "l2"
) -> ReconstructionConfig:
    """Reconstruction configuration used by Bob.

    The n >= B requirement is waived here: the protocol pins n = 4 while B
    grows as epsilon shrinks, and the pipeline stays well defined either way
    (only the high-probability error guarantee stops applying).
    """
    return ReconstructionConfig(
        epsilon=epsilon, eta=eta, n=PROTOCOL_N, d=d, p_norm=p, allow_small_n=True
    )


def sensitivity_bound(op: CirculantOperator, d: int) -> float:
    """Worst-case linf change of the reconstructed profile across neighbors.

    A unit change in one histogram count moves one 1/d unit of empirical
    profile mass between two bins; inversion amplifies that by at most
    3 ||A^{-1}||_inf / d, and rounding by at most another factor of two,
    giving (6 / d) times the analytic row-sum bound.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    return 6.0 / d * norm_bounds(op).bound_1_inf


def sample_laplace(scale: float, rng: np.random.Generator) -> float:
    """Continuous Laplace draw with the given scale, via inverse CDF.

    A floating-point draw, so Bob's published value is not exactly epsilon-DP:
    the logarithm of a uniform on a 2^-53 grid reaches only some doubles and
    caps the tail at about 36 * scale (52 ln 2), and the low-order bits of the
    released value can betray the input (Mironov, "On Significance of the
    Least Significant Bits for Differential Privacy", CCS 2012).  The exact
    discrete-Laplace item of ROADMAP.md tracks an exact sampler.
    """
    u = rng.random() - 0.5  # uniform on [-1/2, 1/2)
    return -scale * np.sign(u) * np.log1p(-2.0 * abs(u))


def alice_message(
    x: PartyVector, epsilon: float, rng: np.random.Generator
) -> PrivateSketch:
    """Alice's single message: a privatized, unclipped sketch of x + 1."""
    h = Histogram(counts=x.bits + 1, n=PROTOCOL_N)
    return privatize(h, epsilon, clip=False, rng=rng)


def bob_estimate(
    m_a: PrivateSketch,
    y: PartyVector,
    epsilon: float,
    delta: float,
    rng: np.random.Generator,
    x_for_truth: PartyVector | None = None,
    eta: float = 0.05,
    p: str = "l2",
) -> ProtocolResult:
    """Bob's turn: update the sketch with y + 1, reconstruct, publish.

    The published value is d * (r[4] + r[0] - r[2] + 3 delta Lap(1/epsilon));
    the tripled noise scale covers the three profile coordinates the
    statistic reads.  Providing x_for_truth fills in the exact inner product
    for error accounting (it is not used by the estimate itself).
    """
    if y.d != m_a.d:
        raise ValueError(f"y has length {y.d}, sketch has length {m_a.d}")
    updated = update(m_a, y.bits + 1)
    cfg = protocol_config(epsilon, m_a.d, eta=eta, p=p)
    r = reconstruct_profile(updated, cfg)
    noise = sample_laplace(1.0 / epsilon, rng)
    m_b = m_a.d * (r.values[4] + r.values[0] - r.values[2] + 3.0 * delta * noise)
    if x_for_truth is not None:
        true_ip = int(x_for_truth.bits @ y.bits)
    else:
        true_ip = 0
    return ProtocolResult(
        m_b=float(m_b),
        true_ip=true_ip,
        delta_used=delta,
        abs_error=abs(float(m_b) - true_ip),
    )


def run_protocol(
    d: int,
    epsilon: float,
    trials: int,
    master_seed: int,
    eta: float = 0.05,
    p: str = "l2",
) -> list[ProtocolResult]:
    """End-to-end protocol on fresh random (x, y) pairs, one per trial."""
    if d < 16:
        raise ValueError("d must be >= 16")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cfg = protocol_config(epsilon, d, eta=eta, p=p)
    delta = sensitivity_bound(cached_operator(cfg), d)
    results = []
    for trial in range(trials):
        rng = np.random.default_rng(derive_seed(master_seed, trial))
        x = PartyVector(bits=2 * rng.integers(0, 2, size=d) - 1)
        y = PartyVector(bits=2 * rng.integers(0, 2, size=d) - 1)
        m_a = alice_message(x, epsilon, rng)
        results.append(
            bob_estimate(m_a, y, epsilon, delta, rng, x_for_truth=x, eta=eta, p=p)
        )
    return results


def results_to_csv(d: int, results: list[ProtocolResult]) -> str:
    lines = [PROTOCOL_CSV_HEADER]
    for trial, res in enumerate(results):
        lines.append(
            f"{d},{trial},{res.true_ip},{float(res.m_b)!r},"
            f"{float(res.abs_error)!r},{float(res.delta_used)!r}"
        )
    return "\n".join(lines) + "\n"
