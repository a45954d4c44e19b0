"""Profile estimation from discrete-Laplace privatized histograms.

A histogram over a domain of d items is privatized by adding two-sided
geometric noise to every count.  This package reconstructs the dataset
profile (the fraction of items appearing exactly t times, t = 0..n) from the
noisy sketch in near-linear time by inverting a circulant smearing operator
and projecting the result back onto the profile polytope, and ships the
measurement harness that checks the achievable error against analytic
bounds.
"""

from .circulant import (
    CirculantOperator,
    NormBounds,
    apply,
    apply_inverse,
    build_operator,
    norm_bounds,
)
from .mechanism import (
    EmpiricalProfile,
    Histogram,
    PrivateSketch,
    ReconstructionConfig,
    empirical_profile,
    privatize,
    read_histogram,
    read_sketch,
    sample_dlap,
    sample_geometric,
    truncation_radius,
    unfold,
    update,
    write_histogram,
    write_sketch,
)
from .reconstruct import (
    Profile,
    RelaxedSolution,
    direction_vector,
    fast_inversion,
    reconstruct_profile,
    rounding,
    threshold_tau,
)
from .evaluation import (
    ErrorReport,
    SynthSpec,
    fit_scaling,
    run_trial,
    sweep,
    synth_histogram,
    theoretical_bounds,
    true_profile,
)
from .twoparty import (
    PartyVector,
    ProtocolResult,
    alice_message,
    bob_estimate,
    run_protocol,
    sensitivity_bound,
)

__version__ = "0.1.0"
