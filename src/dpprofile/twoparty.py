"""Two-party inner-product estimation built on the updatable sketch.

Alice holds x and Bob holds y, both sign vectors of length d.  Alice sends a
privatized sketch of x + 1; Bob shifts it additively by y + 1, reconstructs
the profile of the combined histogram (whose counts all lie in {0, 2, 4}),
and publishes d * (r[4] + r[0] - r[2]) plus calibrated Laplace noise.  On the
noiseless histogram that combination equals <x, y> exactly, because matching
coordinates land on counts 0 or 4 and mismatches land on 2.

The protocol is the paper's lower-bound reduction, so the package only
simulates it: run_protocol draws each trial on random sign vectors from its
sufficient statistic.  Bob's output depends on (x, y) only through the class
sizes of x + y + 2, and given them the binned noisy profile he reconstructs
from is one multinomial per class over mechanism.window_pmf, so a trial
costs O(m) whatever d is.  The item-by-item form of the two parties is the
test suite's reference for that law, not package API.
"""

from __future__ import annotations

import numpy as np

from ._util import derive_seed
from .circulant import CirculantOperator, norm_bounds
from .mechanism import window_pmf
from .params import ReconstructionConfig, _Frozen, check_integer, check_seed, check_trials
from .reconstruct import cached_operator, fast_inversion, rounding

__all__ = [
    "ProtocolResult",
    "PROTOCOL_N",
    "PROTOCOL_ETA",
    "protocol_config",
    "sensitivity_bound",
    "run_protocol",
    "results_to_csv",
]

# Counts of (x + 1) + (y + 1) lie in {0, 2, 4}, so the histogram cap is 4.
PROTOCOL_N = 4
# The failure probability of Bob's noise bound.
PROTOCOL_ETA = 0.05

# The combined counts and their law when x and y are uniform sign vectors:
# a coordinate lands on 0 or 4 when the signs agree, on 2 when they differ.
_COMBINED_COUNTS = np.array([0, 2, 4])
_COMBINED_LAW = np.array([0.25, 0.5, 0.25])

PROTOCOL_CSV_HEADER = "d,trial,true_ip,m_b,abs_error,delta"


class ProtocolResult(_Frozen):
    __slots__ = ("m_b", "true_ip", "delta_used", "abs_error")

    def __init__(
        self,
        m_b: float,         # Bob's published estimate
        true_ip: int,       # exact <x, y>
        delta_used: float,  # sensitivity bound that calibrated the output noise
        abs_error: float,
    ):
        if abs(abs_error - abs(m_b - true_ip)) > 1e-6:
            raise ValueError("abs_error does not match |m_b - true_ip|")
        self._set(m_b=m_b, true_ip=true_ip, delta_used=delta_used, abs_error=abs_error)


def protocol_config(epsilon: float, d: int) -> ReconstructionConfig:
    """Reconstruction configuration used by Bob.

    The n >= B requirement is waived here: the protocol pins n = 4 while B
    grows as epsilon shrinks, and the pipeline stays well defined either way
    (only the high-probability error guarantee stops applying).
    """
    return ReconstructionConfig(
        epsilon=epsilon, eta=PROTOCOL_ETA, n=PROTOCOL_N, d=d, p_norm="l2", allow_small_n=True
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


def _publish(r: np.ndarray, d: int, delta: float, epsilon: float, rng) -> float:
    """Bob's released value d * (r[4] + r[0] - r[2] + 3 delta Lap(1/epsilon)).

    The tripled noise scale covers the three profile coordinates the
    statistic reads.
    """
    noise = sample_laplace(1.0 / epsilon, rng)
    return float(d * (r[4] + r[0] - r[2] + 3.0 * delta * noise))


def run_protocol(
    d: int, epsilon: float, trials: int, master_seed: int
) -> list[ProtocolResult]:
    """End-to-end protocol on fresh uniform random (x, y) pairs, one per trial.

    Each trial draws the protocol's outputs from their exact law without
    forming x or y: the class sizes (k0, k2, k4) of x + y + 2 as
    Multinomial(d; 1/4, 1/2, 1/4), then the binned noisy profile of Bob's
    updated sketch as the sum over classes of Multinomial(k_c, window_pmf
    row of c) / d.  Bob reconstructs that profile (l2 objective) and
    publishes as _publish states, and the exact inner product is k0 + k4 - k2.  A trial costs O(m), with
    m = 4 + 2B + 1, so d may be any integer that int64 holds.
    """
    d = check_integer(d, "d")
    if not 16 <= d < 2**63:
        raise ValueError(f"d must lie in [16, 2**63 - 1], got {d}")
    trials = check_trials(trials)
    master_seed = check_seed(master_seed, "master_seed")
    cfg = protocol_config(epsilon, d)
    op = cached_operator(cfg)
    delta = sensitivity_bound(op, d)
    pmf = window_pmf(_COMBINED_COUNTS, epsilon, PROTOCOL_N, cfg.B)
    results = []
    for trial in range(trials):
        rng = np.random.default_rng(derive_seed(master_seed, trial))
        k0, k2, k4 = rng.multinomial(d, _COMBINED_LAW).tolist()
        f_tilde = rng.multinomial([k0, k2, k4], pmf).sum(axis=0) / d
        r = rounding(fast_inversion(op, f_tilde, cfg.p_norm), PROTOCOL_N)
        m_b = _publish(r.values, d, delta, epsilon, rng)
        true_ip = k0 + k4 - k2
        results.append(ProtocolResult(
            m_b=m_b, true_ip=true_ip, delta_used=delta, abs_error=abs(m_b - true_ip)
        ))
    return results


def results_to_csv(d: int, results: list[ProtocolResult]) -> str:
    lines = [PROTOCOL_CSV_HEADER]
    for trial, res in enumerate(results):
        lines.append(
            f"{d},{trial},{res.true_ip},{float(res.m_b)!r},"
            f"{float(res.abs_error)!r},{float(res.delta_used)!r}"
        )
    return "\n".join(lines) + "\n"
