"""Profile estimation from discrete-Laplace privatized histograms.

A histogram over a domain of d items is privatized by adding two-sided
geometric noise to every count.  This package reconstructs the dataset
profile (the fraction of items appearing exactly t times, t = 0..n) from the
noisy sketch in near-linear time by inverting a circulant smearing operator
and projecting the result back onto the profile polytope, and ships the
measurement harness that checks the achievable error against analytic
bounds.

Each layer module is imported on first use (PEP 562): `import dpprofile`
loads none of them, and `dpprofile.X` or `from dpprofile import X` loads
only the module that defines X.  `ReconstructionConfig` and
`truncation_radius` are defined in `params`, the scalar parameter maths,
which needs no numpy.
"""

import sys as _sys

# layer module -> the names the package re-exports from it
_EXPORTS = {
    "circulant": (
        "CirculantOperator",
        "NormBounds",
        "apply_inverse",
        "build_operator",
        "norm_bounds",
    ),
    "params": (
        "ReconstructionConfig",
        "truncation_radius",
    ),
    "mechanism": (
        "EmpiricalProfile",
        "Histogram",
        "PrivateSketch",
        "empirical_profile",
        "privatize",
        "read_histogram",
        "read_sketch",
        "sample_dlap",
        "sample_geometric",
        "update",
        "write_sketch",
    ),
    "reconstruct": (
        "Profile",
        "reconstruct_profile",
    ),
    "evaluation": (
        "ErrorReport",
        "SynthSpec",
        "fit_scaling",
        "sweep",
        "synth_histogram",
        "theoretical_bounds",
        "true_profile",
    ),
    "twoparty": (
        "ProtocolResult",
        "run_protocol",
        "sensitivity_bound",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_OWNER])

__version__ = "0.1.0"


def __getattr__(name: str):
    layer = name if name in _EXPORTS else _OWNER.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import statement's route, which binds the submodule here (so this
    # runs once per layer) and which `python -X importtime` reports;
    # importlib.import_module does not report the module it loads.
    __import__(f"{__name__}.{layer}")
    module = _sys.modules[f"{__name__}.{layer}"]
    return module if layer == name else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
