"""Property-based fuzz of flag values and input files, through `cli.main` in process.

`sketch --epsilon/--n`, `reconstruct --eta` and the flags of `eval` and
`innerprod` are drawn from the values that break parsing and sizing: NaN,
the infinities, zero, negatives, subnormals, epsilons around the smallest
one the sampler supports and past the largest whose exponential is finite,
integers up to 1e20, and domain sizes past the supported cap or past int64.
Histogram and delta files, and sketch JSON mutated from a valid sketch, are
drawn as described further down.  Whatever the input, a command must exit 0
with an output that parses, or 2 with no output and no `.tmp` file; never 1.
A flag value refused with exit 2 is named in the message: the command's own
`error: --<flag>...` line, or argparse's `error: argument --<flag>` for a
value it cannot parse.  The examples are derandomized, so every run draws
the same ones.  `--seed` is checked by every command, at the ends of and
just past the 64-bit range.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from dpprofile.cli import main
from dpprofile.params import _MIN_EPSILON

FUZZ = settings(derandomize=True, max_examples=150, deadline=None)
FILE_FUZZ = settings(derandomize=True, max_examples=100, deadline=None)
FUZZ_EVAL = settings(derandomize=True, max_examples=100, deadline=None)

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


def run(argv) -> tuple[int, str]:
    """The exit code of a command and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse turns away a value it cannot parse
            code = exc.code
    return code, err.getvalue()


def names_what_it_refuses(err: str, *inputs: str) -> bool:
    """Whether a refusal's message starts by naming a flag or one of `inputs`."""
    starts = ("error: --", *(f"error: {path}:" for path in inputs))
    return any(line.startswith(starts) or ": error: argument --" in line
               for line in err.splitlines())


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
        code, err = run(argv + ["--clip"] if clip else argv)
        assert code in (0, 2)
        if code == 2:
            # a count of the histogram above --n is refused at its line
            assert names_what_it_refuses(err, hist), err
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
        code, err = run(["reconstruct", "--input", sketch, "--output", out, f"--eta={eta}"])
        assert code in (0, 2)
        if code == 2:
            assert names_what_it_refuses(err), err
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


# eval and innerprod: a valid set of flags with one or two of them replaced.
# Domain sizes are small, or past what may be allocated (eval's cap of 1e8)
# or drawn (int64), so no example builds a large array.
EPSILONS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-1", "5e-324", "1e-300",
                     "709.7", "710", "800", "1e308", "1.7976931348623157e308"]),
    st.floats(7e-18, 3e-17).map(repr),  # a noise bound past the window cap
    st.floats(0.05, 60.0).map(repr),
    st.floats(60.0, 1e308).map(repr),  # huge finite: e^eps overflows past ~709.8
)
PAST_CAP = st.sampled_from([10**8 + 1, 10**12, 2**63 - 1, 2**63, 10**30])
SMALL_TRIALS = st.integers(-1, 3).map(str)
EVAL_FLAGS = {
    "--dist": (st.sampled_from(["uniform", "uniform:7", "point_mass:1", "zipf:-1", "other"]),
               "zipf:1.1"),
    "--d-list": (st.lists(st.one_of(st.integers(-2, 3000), PAST_CAP), max_size=3)
                 .map(lambda ds: ",".join(map(str, ds))), "200,400"),
    "--n": (st.integers(-1, 40).map(str), "16"),
    "--epsilon": (EPSILONS, "2"),
    "--eta": (st.sampled_from(["0.3", "0", "1", "nan", "1e-320"]), "0.1"),
    "--trials": (SMALL_TRIALS, "2"),
}
INNERPROD_FLAGS = {
    "--d": (st.one_of(st.integers(-2, 3000), PAST_CAP).map(str), "1000"),
    "--epsilon": (EPSILONS, "1"),
    "--trials": (SMALL_TRIALS, "2"),
}


def drawn_flags(data, table, replaced) -> dict:
    flags = {flag: valid for flag, (_, valid) in table.items()}
    for flag in replaced:
        flags[flag] = data.draw(table[flag][0], label=flag)
    return flags


@FUZZ_EVAL
@given(data=st.data(), replaced=st.lists(st.sampled_from(sorted(EVAL_FLAGS)),
                                         max_size=2, unique=True))
def test_eval_flag_values_fail_closed(data, replaced):
    flags = drawn_flags(data, EVAL_FLAGS, replaced)
    with tempfile.TemporaryDirectory() as folder:
        out = os.path.join(folder, "eval.csv")
        argv = [f"{flag}={value}" for flag, value in flags.items()]
        code, err = run(["eval", *argv, "--output", out, "--seed", "3"])
        assert code in (0, 2)
        if code == 2:
            assert names_what_it_refuses(err), err
            assert outputs(folder, []) == []
            return
        assert outputs(folder, []) == ["eval.csv"]
        with open(out) as fh:
            header, *rows = fh.read().splitlines()
        assert header == "d,n,epsilon,eta,trial,p,err,bound,seconds"
        cells = [tok for tok in flags["--d-list"].split(",") if tok]
        assert len(rows) == 3 * len(cells) * int(flags["--trials"])
        for row in rows:
            err, bound = map(float, row.split(",")[6:8])
            assert math.isfinite(err) and math.isfinite(bound)


@FUZZ_EVAL
@given(data=st.data(), replaced=st.lists(st.sampled_from(sorted(INNERPROD_FLAGS)),
                                         max_size=2, unique=True))
def test_innerprod_flag_values_fail_closed(data, replaced):
    flags = drawn_flags(data, INNERPROD_FLAGS, replaced)
    with tempfile.TemporaryDirectory() as folder:
        out = os.path.join(folder, "ip.csv")
        argv = [f"{flag}={value}" for flag, value in flags.items()]
        code, err = run(["innerprod", *argv, "--output", out, "--seed", "3"])
        assert code in (0, 2)
        if code == 2:
            assert names_what_it_refuses(err), err
            assert outputs(folder, []) == []
            return
        assert outputs(folder, []) == ["ip.csv"]
        with open(out) as fh:
            header, *rows = fh.read().splitlines()
        assert header == "d,trial,true_ip,m_b,abs_error,delta"
        assert len(rows) == int(flags["--trials"])
        d = int(flags["--d"])
        for row in rows:
            true_ip, m_b = int(row.split(",")[2]), float(row.split(",")[3])
            assert (true_ip - d) % 2 == 0 and abs(true_ip) <= d
            assert math.isfinite(m_b)


# --seed: one check in `main`, before any command reads its input.  Paths in
# these argvs name files of the test's folder.
SEED_COMMANDS = {
    "sketch": ["sketch", "--input", "hist.txt", "--output", "out",
               "--epsilon", "1", "--n", "50", "--clip"],
    "reconstruct": ["reconstruct", "--input", "clipped.json", "--output", "out",
                    "--eta", "0.05"],
    "update": ["update", "--sketch", "sketch.json", "--delta", "delta.txt",
               "--output", "out"],
    "eval": ["eval", "--dist", "zipf:1.1", "--d-list", "200", "--n", "8",
             "--epsilon", "2", "--eta", "0.2", "--trials", "1", "--output", "out"],
    "innerprod": ["innerprod", "--d", "1000", "--epsilon", "1", "--trials", "1",
                  "--output", "out"],
}
SEED_INPUTS = {
    "hist.txt": HIST,
    "clipped.json": json.dumps({"version": 1, "epsilon": 1.0, "n": 50, "d": 4,
                                "clipped": True, "counts": [3, 0, 7, 50]}),
    "sketch.json": json.dumps({"version": 1, "epsilon": 1.0, "n": 50, "d": 5,
                               "clipped": False, "counts": SKETCH_COUNTS}),
    "delta.txt": "1\n-1\n0\n2\n-2\n",
}


def seed_argv(command, folder, seed) -> list[str]:
    paths = {*SEED_INPUTS, "out"}
    argv = [os.path.join(folder, a) if a in paths else a for a in SEED_COMMANDS[command]]
    return [*argv, "--seed", str(seed)]


@pytest.mark.parametrize("command", sorted(SEED_COMMANDS))
def test_seed_outside_64_bits_is_refused_before_any_input(command):
    for seed in (-1, 2**64, -3, 10**23):
        with tempfile.TemporaryDirectory() as folder:  # no input file exists
            code, err = run(seed_argv(command, folder, seed))
            assert code == 2, err
            assert err.startswith(f"error: --seed {seed}: "), err
            assert os.listdir(folder) == []


@pytest.mark.parametrize("command", sorted(SEED_COMMANDS))
def test_seed_at_the_ends_of_64_bits_is_accepted(command):
    for seed in (0, 2**64 - 1):
        with tempfile.TemporaryDirectory() as folder:
            for name, text in SEED_INPUTS.items():
                with open(os.path.join(folder, name), "w") as fh:
                    fh.write(text)
            code, err = run(seed_argv(command, folder, seed))
            assert code == 0, err
            assert outputs(folder, SEED_INPUTS) == ["out"]


# --- file contents ------------------------------------------------------------
#
# Integer files are drawn line by line from the shapes that break a parser:
# signs, padding, blanks, comments, fractions, exponents, underscores,
# non-ASCII digits and whitespace, values past int64, bytes that are not
# UTF-8, with LF, CRLF or CR line ends.  Sketch files are a valid sketch with
# one or two entries replaced, added or removed.

# lines a histogram with n = 100 accepts
GOOD_LINES = st.one_of(
    st.integers(0, 100).map(str),
    st.sampled_from(["", "   ", "# a comment", " # indented", "+3", "-0", " 7 ",
                     "\t3", "0003", "1_0", "٣", "３", "١٢", "\x0c5"]),
)
# lines it rejects; a delta file takes the in-range integers among them
BAD_LINES = st.one_of(
    st.sampled_from(["#", "1.5", "1/2", "1e3", "0x10", "1__0", "_1", "3 4", "3,",
                     "9223372036854775807", "9223372036854775808",
                     "-9223372036854775809", "nan", "inf", "\x00", "\xe9", "-3"]),
    st.integers(-10**20, 10**20).map(str),
)
INT_FILES = st.tuples(
    st.lists(GOOD_LINES, max_size=8),
    st.lists(st.tuples(st.integers(0, 8), BAD_LINES), max_size=1),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.booleans(),  # final line end
    st.sampled_from([b""] * 6 + [b"\xff", b"\xef\xbb\xbf"]),  # stray byte, BOM
).map(lambda t: file_bytes(*t))


def file_bytes(lines, bad, end, final, prefix) -> bytes:
    for at, line in bad:
        lines = lines[:at] + [line] + lines[at:]
    return prefix + end.join(lines).encode("utf-8") + (end.encode() if final else b"")


def write_bytes(folder, name, data):
    path = os.path.join(folder, name)
    with open(path, "wb") as fh:
        fh.write(data)
    return path


@FILE_FUZZ
@given(data=INT_FILES)
def test_sketch_histogram_contents_fail_closed(data):
    with tempfile.TemporaryDirectory() as folder:
        hist = write_bytes(folder, "hist.txt", data)
        out = os.path.join(folder, "sketch.json")
        code, _ = run(["sketch", "--input", hist, "--output", out,
                    "--epsilon", "50", "--n", "100", "--seed", "3"])
        assert code in (0, 2)
        if code == 2:
            assert outputs(folder, ["hist.txt"]) == []
            return
        assert outputs(folder, ["hist.txt"]) == ["sketch.json"]
        with open(out) as fh:
            obj = json.load(fh)
        # at epsilon 50 a count moves with probability about 1e-21
        assert obj["counts"] == int_lines(data)
        assert all(0 <= c <= 100 for c in obj["counts"])


@FILE_FUZZ
@given(data=INT_FILES)
def test_update_delta_contents_fail_closed(data):
    with tempfile.TemporaryDirectory() as folder:
        sketch = write_sketch_obj(folder, valid_sketch())
        delta = write_bytes(folder, "delta.txt", data)
        out = os.path.join(folder, "updated.json")
        code, _ = run(["update", "--sketch", sketch, "--delta", delta, "--output", out])
        assert code in (0, 2)
        if code == 2:
            assert outputs(folder, ["sketch.json", "delta.txt"]) == []
            return
        assert outputs(folder, ["sketch.json", "delta.txt"]) == ["updated.json"]
        with open(out) as fh:
            obj = json.load(fh)
        assert obj["counts"] == [c + x for c, x in zip(SKETCH_COUNTS, int_lines(data))]


def int_lines(data: bytes) -> list[int]:
    """The integers of a file as the one-per-line format defines them."""
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    values = []
    for line in text.split("\n"):
        line = line.strip()
        if line and not line.startswith("#"):
            values.append(int(line))
    return values


def valid_sketch() -> dict:
    return {"version": 1, "epsilon": 1.0, "n": 50, "d": len(SKETCH_COUNTS),
            "clipped": False, "counts": list(SKETCH_COUNTS)}


def write_sketch_obj(folder, obj) -> str:
    path = os.path.join(folder, "sketch.json")
    with open(path, "w") as fh:
        fh.write(obj if isinstance(obj, str) else json.dumps(obj))
    return path


DEEP = "[" * 100000 + "]" * 100000  # past the JSON parser's recursion limit
VALUES = st.one_of(
    st.sampled_from([None, False, "", "1", 1.5, -1, 0, 1, 10**8 - 1, 10**8,
                     2**63 - 1, 2**63, -2**63 - 1, 10**30, -10**30, float("nan"),
                     float("inf"), 1e-320, 1e308, [], {}, [1.5], ["1"], [True],
                     [None], [[1]], [2**63], [-2**63 - 1]]),
    st.integers(-10**20, 10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(-10**20, 10**20), min_size=4, max_size=6),
)
KEYS = st.sampled_from(["version", "epsilon", "n", "d", "clipped", "counts", "extra"])
PLAUSIBLE = st.sampled_from([
    ("set", "epsilon", 0.5), ("set", "epsilon", 2), ("set", "n", 60), ("set", "n", 40),
    ("set", "clipped", True), ("set", "counts", [0, 0, 0, 0, 0]),
    ("set", "counts", [0, 9, 40, 1, 2]),
])
EDITS = st.lists(
    st.one_of(PLAUSIBLE, st.tuples(st.sampled_from(["set", "drop"]), KEYS, VALUES)),
    min_size=1, max_size=2,
)


def mutated_sketch(edits, deep: bool):
    obj = valid_sketch()
    for kind, key, value in edits:
        if kind == "drop":
            obj.pop(key, None)
        else:
            obj[key] = value
    if not deep:
        return json.dumps(obj)
    obj["counts"] = "deep"
    return json.dumps(obj).replace('"deep"', DEEP)


@FILE_FUZZ
@given(
    edits=EDITS,
    deep=st.sampled_from([False] * 7 + [True]),
    command=st.sampled_from(["reconstruct", "update"]),
)
def test_mutated_sketch_json_fails_closed(edits, deep, command):
    with tempfile.TemporaryDirectory() as folder:
        sketch = write_sketch_obj(folder, mutated_sketch(edits, deep))
        inputs = ["sketch.json"]
        if command == "reconstruct":
            out = os.path.join(folder, "profile.csv")
            argv = ["reconstruct", "--input", sketch, "--output", out, "--eta", "0.05"]
        else:
            delta = write_bytes(folder, "delta.txt", b"1\n-1\n0\n2\n-2\n")
            inputs.append("delta.txt")
            out = os.path.join(folder, "updated.json")
            argv = ["update", "--sketch", sketch, "--delta", delta, "--output", out]
        code, _ = run(argv)
        assert code in (0, 2)
        if code == 2:
            assert outputs(folder, inputs) == []
            return
        assert outputs(folder, inputs) == [os.path.basename(out)]
        with open(out) as fh:
            text = fh.read()
        if command == "reconstruct":
            header, *rows = text.splitlines()
            assert header == "t,value" and rows
        else:
            assert json.loads(text)["d"] == 5
