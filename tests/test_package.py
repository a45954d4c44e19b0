"""The package namespace, whose layer modules load on first use."""

import json
import subprocess
import sys

import pytest

import dpprofile

# The public names of the package: the layer modules and the names they
# re-export.
PUBLIC = [
    "CirculantOperator", "EmpiricalProfile", "ErrorReport", "Histogram",
    "NormBounds", "PrivateSketch", "Profile", "ProtocolResult",
    "ReconstructionConfig", "RelaxedSolution", "SynthSpec",
    "apply", "apply_inverse", "build_operator", "circulant",
    "empirical_profile", "evaluation", "fast_inversion",
    "fit_scaling", "mechanism", "norm_bounds", "params", "privatize", "read_histogram",
    "read_sketch", "reconstruct", "reconstruct_profile", "rounding",
    "run_protocol", "sample_dlap", "sample_geometric",
    "sensitivity_bound", "sweep", "synth_histogram", "theoretical_bounds",
    "threshold_tau", "true_profile", "truncation_radius", "twoparty", "unfold",
    "update", "write_sketch",
]

# Names the package no longer has, each with the layer that defined it.
REMOVED = {
    "direction_vector": "reconstruct",
    "write_histogram": "mechanism",
    "run_trial": "evaluation",
    "PartyVector": "twoparty",
    "alice_message": "twoparty",
    "bob_estimate": "twoparty",
    "generator_vector": "circulant",
}

LAYERS = ("circulant", "params", "mechanism", "reconstruct", "evaluation", "twoparty")


def run_python(code):
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def test_every_public_name_resolves_to_its_layer_object():
    for name in PUBLIC:
        value = getattr(dpprofile, name)
        if name in LAYERS:
            assert value is sys.modules[f"dpprofile.{name}"]
        else:
            owner = sys.modules[value.__module__]
            assert owner.__name__ in {f"dpprofile.{layer}" for layer in LAYERS}
            assert getattr(owner, name) is value


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        dpprofile.no_such_name
    assert not hasattr(dpprofile, "left_apply_inverse")
    for name, layer in REMOVED.items():
        assert not hasattr(dpprofile, name), name
        module = getattr(dpprofile, layer)
        assert not hasattr(module, name) and name not in module.__all__, name
    assert not hasattr(dpprofile.CirculantOperator, "generator")
    with pytest.raises(ImportError):
        from dpprofile import no_such_name  # noqa: F401


def test_fresh_namespace_lists_the_public_names_and_loads_no_layer():
    before, loaded, star, after = run_python(
        "import json, sys, dpprofile\n"
        "public = lambda: [n for n in dir(dpprofile) if not n.startswith('_')]\n"
        "before = public()\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('dpprofile.'))\n"
        "ns = {}\n"
        "exec('from dpprofile import *', ns)\n"
        "star = sorted(n for n in ns if not n.startswith('_'))\n"
        "print(json.dumps([before, loaded, star, public()]))\n"
    )
    assert before == PUBLIC
    assert loaded == []
    assert star == PUBLIC
    assert after == PUBLIC
    assert sorted(dpprofile.__all__) == PUBLIC


def test_a_name_loads_only_the_layers_its_module_needs():
    # the parameter module needs no numpy; the mechanism imports it
    for name, layers in (
        ("PrivateSketch", ["dpprofile.mechanism", "dpprofile.params"]),
        ("ReconstructionConfig", ["dpprofile.params"]),
    ):
        loaded, numpy_loaded = run_python(
            "import json, sys\n"
            f"from dpprofile import {name}\n"
            "print(json.dumps([sorted(m for m in sys.modules if m.startswith('dpprofile.')),\n"
            "                  'numpy' in sys.modules]))\n"
        )
        assert loaded == layers, name
        assert numpy_loaded == ("dpprofile.mechanism" in layers), name
