"""Property-based fuzz of numeric flag values, through `cli.main` in process.

`sketch --epsilon/--n` and `reconstruct --eta` are drawn from the values
that break parsing and sizing: NaN, the infinities, zero, negatives,
subnormals, epsilons around the smallest one the sampler supports, and
integers up to 1e20.  Whatever the value, a command must exit 0 with an
output that parses, or 2 with no output and no `.tmp` file; never 1.  The
examples are derandomized, so every run draws the same ones.
"""

import json
import math
import os
import tempfile

from hypothesis import given, settings, strategies as st

from dpprofile.cli import main
from dpprofile.mechanism import _MIN_EPSILON

FUZZ = settings(derandomize=True, max_examples=150, deadline=None)

NUMBERS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "-1", "-1e-300",
                     "1e-320", "5e-324", "1e308", "0.05", "0.5", "1", "2"]),
    st.floats(7e-18, 3e-17).map(repr),  # across the smallest supported epsilon
    st.floats(1e-3, 60.0).map(repr),
    st.integers(-10**20, 10**20).map(str),
)
COUNTS = st.one_of(
    st.integers(-5, 100).map(str),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["99999999", "100000000", "nan", "1.5"]),
)

HIST = "3\n0\n7\n2\n"
SKETCH_COUNTS = [3, 0, 7, 50, -2]


def run(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse turns away a value it cannot parse
        return exc.code


def outputs(folder, inputs):
    return sorted(set(os.listdir(folder)) - set(inputs))


@FUZZ
@given(epsilon=NUMBERS, n=COUNTS, clip=st.booleans())
def test_sketch_flag_values_fail_closed(epsilon, n, clip):
    with tempfile.TemporaryDirectory() as folder:
        hist = os.path.join(folder, "hist.txt")
        with open(hist, "w") as fh:
            fh.write(HIST)
        out = os.path.join(folder, "sketch.json")
        argv = ["sketch", "--input", hist, "--output", out,
                f"--epsilon={epsilon}", f"--n={n}", "--seed", "3"]
        code = run(argv + ["--clip"] if clip else argv)
        assert code in (0, 2)
        if code == 2:
            assert outputs(folder, ["hist.txt"]) == []
            return
        assert outputs(folder, ["hist.txt"]) == ["sketch.json"]
        with open(out) as fh:
            obj = json.load(fh)
        assert obj["epsilon"] == float(epsilon) and obj["n"] == int(n)
        assert obj["d"] == 4 and obj["clipped"] == clip


@FUZZ
@given(
    eta=NUMBERS,
    epsilon=st.one_of(st.floats(_MIN_EPSILON, 3e-17), st.floats(0.01, 60.0)),
)
def test_reconstruct_eta_values_fail_closed(eta, epsilon):
    with tempfile.TemporaryDirectory() as folder:
        sketch = os.path.join(folder, "sketch.json")
        with open(sketch, "w") as fh:
            json.dump({"version": 1, "epsilon": epsilon, "n": 50, "d": len(SKETCH_COUNTS),
                       "clipped": False, "counts": SKETCH_COUNTS}, fh)
        out = os.path.join(folder, "profile.csv")
        code = run(["reconstruct", "--input", sketch, "--output", out, f"--eta={eta}"])
        assert code in (0, 2)
        if code == 2:
            assert outputs(folder, ["sketch.json"]) == []
            return
        assert outputs(folder, ["sketch.json"]) == ["profile.csv"]
        with open(out) as fh:
            header, *rows = fh.read().splitlines()
        assert header == "t,value"
        values = [float(row.split(",")[1]) for row in rows]
        assert [int(row.split(",")[0]) for row in rows] == list(range(51))
        assert all(math.isfinite(v) for v in values)
        assert abs(sum(values) - 1.0) < 1e-9
