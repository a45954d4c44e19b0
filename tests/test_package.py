"""The package namespace, whose layer modules load on first use."""

import copy
import inspect
import json
import pickle
import subprocess
import sys

import numpy as np
import pytest

import dpprofile
from dpprofile.circulant import CirculantOperator
from dpprofile.evaluation import BoundTriple, ErrorReport, SynthSpec, _Cell
from dpprofile.mechanism import EmpiricalProfile, Histogram, PrivateSketch
from dpprofile.params import ReconstructionConfig, truncation_radius
from dpprofile.reconstruct import Profile, RelaxedSolution, _Correction, cached_operator
from dpprofile.twoparty import ProtocolResult

# The public names of the package: the layer modules and the names they
# re-export.
PUBLIC = [
    "CirculantOperator", "EmpiricalProfile", "ErrorReport", "Histogram",
    "NormBounds", "PrivateSketch", "Profile", "ProtocolResult",
    "ReconstructionConfig", "RelaxedSolution", "SynthSpec",
    "apply_inverse", "build_operator", "circulant",
    "empirical_profile", "evaluation", "fast_inversion",
    "fit_scaling", "mechanism", "norm_bounds", "params", "privatize", "read_histogram",
    "read_sketch", "reconstruct", "reconstruct_profile", "rounding",
    "run_protocol", "sample_dlap", "sample_geometric",
    "sensitivity_bound", "sweep", "synth_histogram", "theoretical_bounds",
    "threshold_tau", "true_profile", "truncation_radius", "twoparty",
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
    "unfold": "mechanism",
    "_half_spectrum": "circulant",
    "apply": "circulant",
    "pad_profile": "evaluation",
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
    for name in ("generator", "eigenvalues", "_fwd_taps"):
        assert not hasattr(dpprofile.CirculantOperator, name), name
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


@pytest.mark.parametrize(
    "statement, unwanted",
    [
        # the flag checks run before numpy loads, and load no code generator
        ("import dpprofile.params", ["dataclasses", "inspect", "numpy"]),
        # json serves the sketch codec alone (numpy itself loads inspect)
        ("import dpprofile.evaluation", ["dataclasses", "json"]),
        ("import dpprofile.twoparty", ["dataclasses", "json"]),
        # the inverse is summed from its closed form, so no reconstruction,
        # clipped or not, in any norm, takes a transform: numpy loads
        # numpy.fft only on use
        pytest.param(
            "import numpy as np\n"
            "from dpprofile import Histogram, ReconstructionConfig, privatize, reconstruct_profile\n"
            "rng = np.random.default_rng(1)\n"
            "h = Histogram(counts=rng.integers(0, 33, size=1000), n=32)\n"
            "for clip in (False, True):\n"
            "    for p in ('l1', 'l2', 'linf'):\n"
            "        cfg = ReconstructionConfig(epsilon=1.0, eta=0.05, n=32, d=1000, p_norm=p)\n"
            "        reconstruct_profile(privatize(h, 1.0, clip, rng), cfg, rng)",
            ["numpy.fft", "scipy"],
            id="reconstruct_profile",
        ),
    ],
)
def test_a_layer_loads_no_module_it_does_not_use(statement, unwanted):
    loaded = run_python(
        f"import sys\n{statement}\n"
        f"loaded = [m for m in {unwanted!r} if m in sys.modules]\n"
        "import json\n"
        "print(json.dumps(loaded))\n"
    )
    assert loaded == []


# --- the value classes ----------------------------------------------------------

REQUIRED = inspect.Parameter.empty


def value_classes():
    """(class, its constructor's parameters and defaults, keyword arguments
    that build one) for every value class of the package."""
    cfg = ReconstructionConfig(epsilon=1.0, eta=0.05, n=8, d=100)
    op = cached_operator(cfg)
    return [
        (ReconstructionConfig,
         dict(epsilon=REQUIRED, eta=REQUIRED, n=REQUIRED, d=REQUIRED, p_norm="l2", B=-1,
              allow_small_n=False),
         dict(epsilon=1.0, eta=0.05, n=8, d=100)),
        (Histogram, dict(counts=REQUIRED, n=REQUIRED), dict(counts=np.array([0, 3, 8]), n=8)),
        (PrivateSketch,
         dict(counts=REQUIRED, epsilon=REQUIRED, n=REQUIRED, clipped=REQUIRED),
         dict(counts=np.array([-1, 3, 9]), epsilon=1.0, n=8, clipped=False)),
        (EmpiricalProfile,
         dict(values=REQUIRED, n=REQUIRED, B=REQUIRED, d=REQUIRED),
         dict(values=np.full(5, 0.2), n=2, B=1, d=5)),
        (CirculantOperator,
         dict(m=REQUIRED, n=REQUIRED, B=REQUIRED, epsilon=REQUIRED, p_norm_const=REQUIRED,
              _inv_pairs=REQUIRED, _t_side=REQUIRED),
         dict(m=op.m, n=op.n, B=op.B, epsilon=op.epsilon, p_norm_const=op.p_norm_const,
              _inv_pairs=op._inv_pairs, _t_side=op._t_side)),
        (Profile, dict(values=REQUIRED), dict(values=np.array([0.25, 0.75]))),
        (RelaxedSolution,
         dict(values=REQUIRED, n=REQUIRED, B=REQUIRED, objective_norm=REQUIRED),
         dict(values=np.array([0.1, 0.5, 0.5, -0.1]), n=1, B=1, objective_norm="l2")),
        (_Correction,
         dict(m=REQUIRED, alpha=REQUIRED, start=REQUIRED, local=REQUIRED),
         dict(m=5, alpha=0.5, start=4, local=np.array([1.0, 2.0]))),
        (ErrorReport,
         {name: REQUIRED for name in ("d", "n", "epsilon", "eta", "p", "trial", "err", "bound")},
         dict(d=10, n=4, epsilon=1.0, eta=0.05, p="l2", trial=0, err=0.1, bound=0.2)),
        (SynthSpec,
         dict(distribution=REQUIRED, d=REQUIRED, n=REQUIRED, seed=REQUIRED, param=0.0),
         dict(distribution="uniform_counts", d=10, n=4, seed=1)),
        (BoundTriple, dict(b1=REQUIRED, b2=REQUIRED, binf=REQUIRED),
         dict(b1=1.0, b2=0.5, binf=0.25)),
        (_Cell,
         dict(h=REQUIRED, f=REQUIRED, op=REQUIRED, bounds=REQUIRED, classes=REQUIRED,
              pmf=REQUIRED),
         dict(h=None, f=Profile(values=np.full(9, 1 / 9)), op=op,
              bounds=BoundTriple(b1=1.0, b2=0.5, binf=0.25), classes=None, pmf=None)),
        (ProtocolResult,
         dict(m_b=REQUIRED, true_ip=REQUIRED, delta_used=REQUIRED, abs_error=REQUIRED),
         dict(m_b=3.5, true_ip=2, delta_used=0.1, abs_error=1.5)),
    ]


def attributes(value):
    """The attributes of a value, arrays as lists and values as their attributes."""
    def plain(v):
        if isinstance(v, np.ndarray):
            return v.tolist()
        return attributes(v) if hasattr(v, "__slots__") else v

    return [plain(getattr(value, name)) for name in value.__slots__]


def test_value_classes_keep_their_constructors():
    for cls, parameters, kwargs in value_classes():
        signature = inspect.signature(cls).parameters.values()
        assert [(p.name, p.default) for p in signature] == list(parameters.items()), cls
        # positional and keyword construction agree; omitted ones take the defaults
        positional = cls(*(kwargs[name] for name in parameters if name in kwargs))
        assert attributes(positional) == attributes(cls(**kwargs)), cls
    cfg = ReconstructionConfig(1.0, 0.05, 8, 100)
    assert (cfg.p_norm, cfg.B, cfg.allow_small_n) == ("l2", truncation_radius(1.0, 0.05, 100), False)
    assert SynthSpec("uniform_counts", 10, 4, 1).param == 0.0


def test_value_classes_are_read_only():
    for cls, _, kwargs in value_classes():
        value = cls(**kwargs)
        before = attributes(value)
        for name in (*cls.__slots__, "not_a_field"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, 0)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(value, name)
        assert attributes(value) == before, cls
        assert not hasattr(value, "__dict__"), cls


def test_value_classes_survive_copy_and_pickle():
    for cls, _, kwargs in value_classes():
        value = cls(**kwargs)
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(clone) is cls and attributes(clone) == attributes(value), cls
            with pytest.raises(AttributeError):
                clone.not_a_field = 0


def test_error_report_compares_by_value():
    fields = dict(d=10, n=4, epsilon=1.0, eta=0.05, p="l2", trial=0, err=0.1, bound=0.2)
    report = ErrorReport(**fields)
    assert report == ErrorReport(**fields)
    assert hash(report) == hash(ErrorReport(**fields))
    assert report != ErrorReport(**{**fields, "err": 0.2})
