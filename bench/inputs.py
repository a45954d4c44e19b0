"""Input generators.  Everything the program receives is made here from the
benchmark seed, except the two fail-closed probe files, which are fixed."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np


def sub_seeds(seed: int, k: int) -> list[int]:
    """k independent 63-bit seeds derived from the benchmark seed."""
    state = np.random.SeedSequence(seed).generate_state(k, dtype=np.uint64)
    return [int(s) >> 1 for s in state]


def zipf_counts(d: int, n: int, alpha: float) -> np.ndarray:
    """Counts rint(n * rank^-alpha) for ranks 1..d, in rank order."""
    return np.rint(n * np.arange(1, d + 1, dtype=np.float64) ** -alpha).astype(np.int64)


def dlap(eps: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Discrete Laplace noise, P[Z = t] proportional to e^{-eps |t|}, as the
    difference of two geometric variables (numpy's sampler, not the program's)."""
    p = 1.0 - math.exp(-eps)
    return rng.geometric(p, size) - rng.geometric(p, size)


def write_lines(path: Path, values: np.ndarray) -> None:
    path.write_text("\n".join(map(str, values.tolist())) + "\n", encoding="utf-8")


# pipeline_d1e6 -------------------------------------------------------------

PIPE_D, PIPE_N, PIPE_EPS, PIPE_ETA, PIPE_ALPHA = 1_000_000, 32, 1.0, 0.05, 1.1

# Probe inputs: valid except for the one defect each probe is about.
PROBE_HIST = "".join(f"{c}\n" for c in (3, 1, 4, 1, 5, 2, 6, 5, 3, 5))
PROBE_FRACTIONAL = (
    '{"version": 1, "epsilon": 1.0, "n": 8, "d": 3, "clipped": false, '
    '"counts": [1.7, 2.2, 3.9]}\n'
)


def pipeline_inputs(seed: int, work: Path) -> tuple[np.ndarray, np.ndarray]:
    """Shuffled zipf histogram and a +-1 delta vector, written to work/."""
    hist_seed, delta_seed = sub_seeds(seed, 2)
    hist = zipf_counts(PIPE_D, PIPE_N, PIPE_ALPHA)
    np.random.default_rng(hist_seed).shuffle(hist)
    delta = 2 * np.random.default_rng(delta_seed).integers(0, 2, PIPE_D) - 1
    write_lines(work / "hist.txt", hist)
    write_lines(work / "delta.txt", delta)
    (work / "probe_hist.txt").write_text(PROBE_HIST, encoding="utf-8")
    (work / "probe_fractional.json").write_text(PROBE_FRACTIONAL, encoding="utf-8")
    return hist, delta


# wide_n --------------------------------------------------------------------

WIDE_D = WIDE_N = 1_000_000
WIDE_EPSILONS = (0.5, 1.0, 1.5, 2.0)
WIDE_ETA = 0.05
WIDE_WARM_PASSES = 5  # passes over all four sketches after the cold one


def wide_inputs(seed: int) -> list[np.ndarray]:
    """Noisy counts of one uniform-counts histogram, once per epsilon."""
    hist_seed, *noise_seeds = sub_seeds(seed, 1 + len(WIDE_EPSILONS))
    hist = np.random.default_rng(hist_seed).integers(0, WIDE_N + 1, WIDE_D)
    return [
        hist + dlap(eps, WIDE_D, np.random.default_rng(s))
        for eps, s in zip(WIDE_EPSILONS, noise_seeds)
    ]


# sweep ---------------------------------------------------------------------

SWEEP_D_LIST = (10_000, 100_000, 1_000_000)
SWEEP_N, SWEEP_EPS, SWEEP_ETA, SWEEP_ALPHA, SWEEP_TRIALS = 32, 1.0, 0.05, 1.1, 20
IP_D, IP_EPS, IP_ETA, IP_TRIALS = 1_000_000, 1.0, 0.05, 10
