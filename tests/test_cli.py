"""End-to-end tests of the command-line interface via subprocesses."""

import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from dpprofile import params
from dpprofile.cli import _write_atomic, _write_atomic_via, main

from helpers import run_trial


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "dpprofile", *args],
        capture_output=True,
        text=True,
    )


def left_behind(out):
    """The output path and any temp file of it left in its folder."""
    return sorted(out.parent.glob(out.name + "*"))


@pytest.fixture
def hist_file(tmp_path):
    path = tmp_path / "hist.txt"
    path.write_text("1\n1\n1\n")
    return str(path)


# --- sketch -----------------------------------------------------------------

def test_sketch_noiseless(hist_file, tmp_path):
    out = str(tmp_path / "sketch.json")
    res = run_cli("sketch", "--input", hist_file, "--output", out,
                  "--epsilon", "50", "--n", "5", "--seed", "1")
    assert res.returncode == 0, res.stderr
    obj = json.loads(Path(out).read_text())
    assert obj["counts"] == [1, 1, 1]
    assert obj["version"] == 1 and obj["d"] == 3 and not obj["clipped"]


def test_sketch_missing_epsilon_exits_2(hist_file, tmp_path):
    res = run_cli("sketch", "--input", hist_file,
                  "--output", str(tmp_path / "s.json"), "--n", "5")
    assert res.returncode == 2
    assert "epsilon" in res.stderr


def test_sketch_bad_input_line_exits_2_no_partial_output(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1\noops\n")
    out = tmp_path / "s.json"
    res = run_cli("sketch", "--input", str(bad), "--output", str(out),
                  "--epsilon", "1", "--n", "5")
    assert res.returncode == 2
    assert "2" in res.stderr  # names the offending line
    assert not out.exists()


@pytest.mark.parametrize("epsilon", ["nan", "inf", "1e-300"])
def test_sketch_unusable_epsilon_exits_2_no_output(hist_file, tmp_path, epsilon):
    out = tmp_path / "s.json"
    res = run_cli("sketch", "--input", hist_file, "--output", str(out),
                  "--epsilon", epsilon, "--n", "5")
    assert res.returncode == 2
    assert "epsilon" in res.stderr
    assert not left_behind(out)


def test_sketch_n_above_cap_exits_2_naming_n(hist_file, tmp_path, capsys):
    out = tmp_path / "s.json"
    code = main(["sketch", "--input", hist_file, "--output", str(out),
                 "--epsilon", "1", "--n", "100000000000000000000"])
    assert code == 2
    assert "error: --n: n=100000000000000000000 is above" in capsys.readouterr().err
    assert not left_behind(out)


@pytest.mark.parametrize("epsilon", ["1e-17", "3e-07"])
def test_sketch_epsilon_with_no_window_exits_2_naming_epsilon(hist_file, tmp_path, capsys, epsilon):
    # whatever eta and d, B >= log(4 / sinh(eps)) / eps, so no reconstruction
    # of such a sketch fits the window cap
    out = tmp_path / "s.json"
    code = main(["sketch", "--input", hist_file, "--output", str(out),
                 "--epsilon", epsilon, "--n", "5"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --epsilon {float(epsilon)!r} (least B at any eta): noise bound B=")
    # sketch has no --eta, and no eta would narrow the window anyway
    assert err.endswith("(raise epsilon)\n")
    assert not left_behind(out)


@pytest.mark.parametrize("epsilon", ["1e-06", "1.9e-06"])
def test_sketch_epsilon_with_no_invertible_operator_exits_2_naming_epsilon(
    hist_file, tmp_path, capsys, epsilon
):
    # the window fits the cap, but the operator's spectrum floor is below
    # tanh^2(eps/2) < 1e-12 for every noise bound, so no reconstruction exists
    out = tmp_path / "s.json"
    code = main(["sketch", "--input", hist_file, "--output", str(out),
                 "--epsilon", epsilon, "--n", "5"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --epsilon {float(epsilon)!r}: every operator is ill-conditioned")
    assert not left_behind(out)


def test_sketch_epsilon_just_above_the_spectrum_bound_is_written(hist_file, tmp_path):
    out = tmp_path / "s.json"
    assert main(["sketch", "--input", hist_file, "--output", str(out),
                 "--epsilon", "2.1e-06", "--n", "5"]) == 0
    assert json.loads(out.read_text())["epsilon"] == 2.1e-6


def test_sketch_deterministic(hist_file, tmp_path):
    out_a, out_b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for out in (out_a, out_b):
        res = run_cli("sketch", "--input", hist_file, "--output", out,
                      "--epsilon", "0.5", "--n", "5", "--seed", "42")
        assert res.returncode == 0
    assert Path(out_a).read_bytes() == Path(out_b).read_bytes()


# --- reconstruct ---------------------------------------------------------------

def write_sketch_file(tmp_path, counts, epsilon, n, clipped=False):
    path = tmp_path / "sketch.json"
    obj = {"version": 1, "epsilon": epsilon, "n": n, "d": len(counts),
           "clipped": clipped, "counts": counts}
    path.write_text(json.dumps(obj))
    return str(path)


def test_reconstruct_point_mass(tmp_path):
    sketch = write_sketch_file(tmp_path, [1] * 200, 50.0, 5)
    out = str(tmp_path / "profile.csv")
    res = run_cli("reconstruct", "--input", sketch, "--output", out,
                  "--eta", "0.05", "--norm", "l2")
    assert res.returncode == 0, res.stderr
    assert "B=0" in res.stderr and "P_norm=" in res.stderr and "seconds=" in res.stderr
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "t,value"
    values = {int(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
    assert values[1] == pytest.approx(1.0, abs=1e-6)
    assert sum(values.values()) == pytest.approx(1.0, abs=1e-9)


def test_reconstruct_prints_p_norm_with_one_operator_lookup(tmp_path, capsys, monkeypatch):
    from dpprofile import circulant, reconstruct

    lookups = []
    cached_operator = reconstruct.cached_operator

    def counting(cfg):
        lookups.append(cfg)
        return cached_operator(cfg)

    monkeypatch.setattr(reconstruct, "cached_operator", counting)
    sketch = write_sketch_file(tmp_path, [1, 2, 3, 9] * 50, 1.0, 8)
    out = tmp_path / "profile.csv"
    assert main(["reconstruct", "--input", sketch, "--output", str(out), "--eta", "0.05"]) == 0
    assert len(lookups) == 1
    p_norm = circulant.kernel_normalizer(1.0, lookups[0].B)
    assert p_norm == cached_operator(lookups[0]).p_norm_const
    assert f"B={lookups[0].B} P_norm={p_norm!r} seconds=" in capsys.readouterr().err


def test_reconstruct_clipped_sketch_uses_seed(tmp_path):
    counts = [0] * 50 + [2] * 100 + [5] * 50
    sketch = write_sketch_file(tmp_path, counts, 2.0, 5, clipped=True)
    out_a, out_b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for out in (out_a, out_b):
        res = run_cli("reconstruct", "--input", sketch, "--output", out,
                      "--eta", "0.3", "--norm", "l1", "--seed", "7")
        assert res.returncode == 0, res.stderr
    assert Path(out_a).read_text() == Path(out_b).read_text()
    total = sum(float(r.split(",")[1]) for r in Path(out_a).read_text().splitlines()[1:])
    assert total == pytest.approx(1.0, abs=1e-9)


def test_reconstruct_small_n_exits_2(tmp_path):
    # eps=0.5, d=1000, eta=0.05 gives a noise bound far above n=2
    sketch = write_sketch_file(tmp_path, [1] * 1000, 0.5, 2)
    res = run_cli("reconstruct", "--input", sketch,
                  "--output", str(tmp_path / "p.csv"), "--eta", "0.05")
    assert res.returncode == 2
    assert "n >= B" in res.stderr


def test_reconstruct_subnormal_eta_exits_2_naming_eta(tmp_path, capsys):
    sketch = write_sketch_file(tmp_path, [1] * 200, 1.0, 50)
    out = tmp_path / "p.csv"
    code = main(["reconstruct", "--input", sketch, "--output", str(out), "--eta", "1e-320"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --eta 1e-320: ") and "64-bit integer" in err
    assert not left_behind(out)


def test_reconstruct_tiny_epsilon_exits_2_naming_the_window(tmp_path, capsys):
    # the sketch's epsilon is valid, but its noise bound B ~ 1.5e18 leaves
    # no window to reconstruct on
    sketch = write_sketch_file(tmp_path, [1] * 200, 2.7e-17, 50)
    out = tmp_path / "p.csv"
    code = main(["reconstruct", "--input", sketch, "--output", str(out), "--eta", "0.05"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --eta 0.05: noise bound B=") and "raise epsilon or eta" in err
    assert not left_behind(out)


def test_reconstruct_ill_conditioned_window_fails_before_binning(tmp_path, capsys, monkeypatch):
    # eps = 1e-6 fits the window cap (m ~ 5e7), but no operator on it is
    # invertible; the refusal must come before any work of the window's length
    from dpprofile import reconstruct

    def binning(*args):
        raise AssertionError("binned the sketch before checking the operator")

    monkeypatch.setattr(reconstruct, "_window_profile", binning)
    sketch = write_sketch_file(tmp_path, [1, 2, 3], 1e-6, 2 * 10**7)
    out = tmp_path / "p.csv"
    code = main(["reconstruct", "--input", sketch, "--output", str(out), "--eta", "0.05"])
    assert code == 2
    assert "operator is ill-conditioned" in capsys.readouterr().err
    assert not left_behind(out)


def test_reconstruct_n_above_cap_exits_2_naming_n(tmp_path, capsys):
    sketch = write_sketch_file(tmp_path, [1] * 200, 1.0, 10**12)
    out = tmp_path / "p.csv"
    code = main(["reconstruct", "--input", sketch, "--output", str(out), "--eta", "0.05"])
    assert code == 2
    assert f"error: {sketch}: n=1000000000000 is above" in capsys.readouterr().err
    assert not left_behind(out)


MALFORMED_SKETCHES = {
    "fractional counts": '{"version": 1, "epsilon": 1.0, "n": 8, "d": 3, "clipped": false, '
                         '"counts": [1.7, 2.2, 3.9]}',
    "bool counts": '{"version": 1, "epsilon": 1.0, "n": 8, "d": 2, "clipped": false, '
                   '"counts": [1, true]}',
    "missing d": '{"version": 1, "epsilon": 1.0, "n": 8, "clipped": false, "counts": [1]}',
    "not an object": "[1, 2, 3]",
    "nan epsilon": '{"version": 1, "epsilon": NaN, "n": 8, "d": 1, "clipped": false, '
                   '"counts": [1]}',
    "deeply nested": "[" * 100_000 + "]" * 100_000,
}


@pytest.mark.parametrize("name", MALFORMED_SKETCHES)
def test_reconstruct_malformed_sketch_exits_2_no_output(tmp_path, capsys, name):
    sketch = tmp_path / "sketch.json"
    sketch.write_text(MALFORMED_SKETCHES[name])
    out = tmp_path / "p.csv"
    code = main(["reconstruct", "--input", str(sketch), "--output", str(out), "--eta", "0.05"])
    assert code == 2
    assert "sketch.json" in capsys.readouterr().err
    assert not left_behind(out)


@pytest.mark.parametrize("command", ["reconstruct", "update"])
@pytest.mark.parametrize("data", [b'{"version": 1,', b'{"version": \xff1}'],
                         ids=["syntax error", "not utf-8"])
def test_undecodable_sketch_exits_2_naming_the_file(tmp_path, capsys, command, data):
    sketch = tmp_path / "sketch.json"
    sketch.write_bytes(data)
    delta = tmp_path / "delta.txt"
    delta.write_text("1\n")
    out = tmp_path / "out"
    args = {
        "reconstruct": ["--input", str(sketch), "--eta", "0.05"],
        "update": ["--sketch", str(sketch), "--delta", str(delta)],
    }[command]
    code = main([command, *args, "--output", str(out)])
    assert code == 2
    assert f"error: {sketch}: " in capsys.readouterr().err
    assert not left_behind(out)


# --- update ---------------------------------------------------------------------

def test_update_round_trip(tmp_path):
    sketch = write_sketch_file(tmp_path, [4, -1, 2], 1.0, 5)
    delta = tmp_path / "delta.txt"
    delta.write_text("1\n-2\n3\n")
    mid, back = str(tmp_path / "mid.json"), str(tmp_path / "back.json")
    res = run_cli("update", "--sketch", sketch, "--delta", str(delta), "--output", mid)
    assert res.returncode == 0, res.stderr
    assert json.loads(Path(mid).read_text())["counts"] == [5, -3, 5]
    neg = tmp_path / "neg.txt"
    neg.write_text("-1\n2\n-3\n")
    res = run_cli("update", "--sketch", mid, "--delta", str(neg), "--output", back)
    assert res.returncode == 0
    assert json.loads(Path(back).read_text())["counts"] == [4, -1, 2]


def test_update_zero_delta_identity(tmp_path):
    sketch = write_sketch_file(tmp_path, [3, 1, 2], 1.0, 5)
    delta = tmp_path / "zeros.txt"
    delta.write_text("0\n0\n0\n")
    out = str(tmp_path / "out.json")
    assert run_cli("update", "--sketch", sketch, "--delta", str(delta),
                   "--output", out).returncode == 0
    assert json.loads(Path(out).read_text())["counts"] == [3, 1, 2]


@pytest.mark.parametrize("bad", ["oops", "2.5", "12345678901234567890"])
def test_update_names_bad_delta_line(tmp_path, capsys, bad):
    sketch = write_sketch_file(tmp_path, [1, 2, 3], 1.0, 5)
    delta = tmp_path / "d.txt"
    delta.write_text(f"0\n# note\n{bad}\n0\n")
    out = tmp_path / "o.json"
    code = main(["update", "--sketch", sketch, "--delta", str(delta), "--output", str(out)])
    assert code == 2
    assert "d.txt:3: " in capsys.readouterr().err
    assert not out.exists()


def test_update_overflow_exits_2_no_output(tmp_path, capsys):
    sketch = write_sketch_file(tmp_path, [1, 5, 3], 1.0, 5)
    delta = tmp_path / "d.txt"
    delta.write_text(f"0\n{2**63 - 1}\n0\n")
    out = tmp_path / "o.json"
    code = main(["update", "--sketch", sketch, "--delta", str(delta), "--output", str(out)])
    assert code == 2
    assert "64-bit" in capsys.readouterr().err
    assert not left_behind(out)


def test_update_rejects_clipped(tmp_path):
    sketch = write_sketch_file(tmp_path, [1, 2, 3], 1.0, 5, clipped=True)
    delta = tmp_path / "d.txt"
    delta.write_text("0\n0\n0\n")
    res = run_cli("update", "--sketch", sketch, "--delta", str(delta),
                  "--output", str(tmp_path / "o.json"))
    assert res.returncode == 2
    assert "clipped" in res.stderr


def test_update_refuses_a_clipped_sketch_before_reading_the_delta(tmp_path, capsys):
    sketch = write_sketch_file(tmp_path, [1, 2, 3], 1.0, 5, clipped=True)
    out = tmp_path / "o.json"
    code = main(["update", "--sketch", sketch, "--delta", str(tmp_path / "missing.txt"),
                 "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: --sketch {sketch}: a clipped sketch cannot be updated; "
        "sketch the histogram again without --clip\n"
    )
    assert not left_behind(out)


def test_update_rejects_dimension_mismatch(tmp_path):
    sketch = write_sketch_file(tmp_path, [1, 2, 3], 1.0, 5)
    delta = tmp_path / "d.txt"
    delta.write_text("0\n0\n")
    res = run_cli("update", "--sketch", sketch, "--delta", str(delta),
                  "--output", str(tmp_path / "o.json"))
    assert res.returncode == 2


# --- eval ------------------------------------------------------------------------

def test_eval_row_cardinality(tmp_path):
    out = str(tmp_path / "eval.csv")
    res = run_cli("eval", "--dist", "point_mass:1", "--d-list", "1000",
                  "--n", "8", "--epsilon", "2", "--eta", "0.1",
                  "--trials", "2", "--output", out)
    assert res.returncode == 0, res.stderr
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "d,n,epsilon,eta,trial,p,err,bound,seconds"
    assert len(lines) == 1 + 6  # 1 cell x 2 trials x 3 norms


def test_eval_deterministic(tmp_path):
    args = ("eval", "--dist", "zipf:1.1", "--d-list", "500,1000",
            "--n", "6", "--epsilon", "2", "--eta", "0.2",
            "--trials", "2", "--seed", "5")
    out_a, out_b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert run_cli(*args, "--output", out_a).returncode == 0
    assert run_cli(*args, "--output", out_b).returncode == 0
    assert Path(out_a).read_bytes() == Path(out_b).read_bytes()


def test_eval_empty_d_list_exits_2(tmp_path):
    res = run_cli("eval", "--dist", "uniform", "--d-list", ",",
                  "--n", "8", "--epsilon", "1", "--eta", "0.1",
                  "--trials", "1", "--output", str(tmp_path / "e.csv"))
    assert res.returncode == 2


def test_eval_d_list_above_cap_exits_2_before_any_histogram(tmp_path, capsys, monkeypatch):
    # a d of 1e12 would allocate 7.28 TiB; every d is checked before the
    # first cell is built
    from dpprofile import evaluation

    def refuse(spec):
        raise AssertionError(f"built a histogram of d={spec.d}")

    monkeypatch.setattr(evaluation, "_synth_counts", refuse)
    out = tmp_path / "e.csv"
    code = main(["eval", "--dist", "zipf:1.1", "--d-list", "2000,1000000000000,4000",
                 "--n", "64", "--epsilon", "1", "--eta", "0.05", "--trials", "2",
                 "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "error: --d-list: domain size 1000000000000 is above the largest supported 100000000")
    assert not left_behind(out)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--n", "0", "--n must be >= 1, got 0"),
        ("--n", "-1", "--n must be >= 1, got -1"),
        ("--eta", "0", "--eta must lie in (0, 1), got 0.0"),
        ("--eta", "nan", "--eta must lie in (0, 1), got nan"),
        ("--d-list", "2000,0,4000", "--d-list: domain size 0 must be >= 1"),
        ("--trials", "0", "--trials: trials must be >= 1, got 0"),
        ("--dist", "zipf:nan",
         "--dist 'zipf:nan': zipf exponent must be a finite number > 0, got nan"),
        ("--dist", "zipf:inf",
         "--dist 'zipf:inf': zipf exponent must be a finite number > 0, got inf"),
        ("--dist", "zipf:0", "--dist 'zipf:0': zipf exponent must be a finite number > 0, got 0.0"),
        ("--dist", "zipf:x", "--dist 'zipf:x': zipf needs an exponent, e.g. zipf:1.1"),
        ("--dist", "point_mass:1.5",
         "--dist 'point_mass:1.5': point_mass needs an integer count, e.g. point_mass:1"),
        ("--dist", "point_mass:65",
         "--dist 'point_mass:65': point mass must be an integer count in [0, 64], got 65"),
        ("--dist", "beta", "--dist 'beta': unknown distribution 'beta'"),
        ("--dist", "uniform:7", "--dist 'uniform:7': uniform takes no parameter"),
    ],
)
def test_eval_refusal_names_the_flag_and_value(tmp_path, capsys, flag, value, message):
    flags = {"--dist": "zipf:1.1", "--d-list": "2000,4000", "--n": "64", "--epsilon": "1",
             "--eta": "0.05", "--trials": "2", "--output": str(tmp_path / "e.csv")}
    flags[flag] = value
    code = main(["eval", *(tok for item in flags.items() for tok in item)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("epsilon", ["800", "1e308"])
def test_eval_and_innerprod_accept_huge_epsilon(tmp_path, epsilon):
    # e^eps overflows past eps ~ 709.8; the counts' noise is then nil, and
    # Bob's output noise has scale 18 bound_1_inf / eps, so both commands
    # must come out exact or nearly, without an error or a warning
    out = tmp_path / "e.csv"
    assert main(["eval", "--dist", "zipf:1.1", "--d-list", "1000,2000", "--n", "8",
                 "--epsilon", epsilon, "--eta", "0.1", "--trials", "2",
                 "--output", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 12 and all(float(r[6]) < 1e-12 for r in rows)
    out = tmp_path / "i.csv"
    assert main(["innerprod", "--d", "1000", "--epsilon", epsilon, "--trials", "3",
                 "--output", str(out)]) == 0
    for line in out.read_text().splitlines()[1:]:
        assert float(line.split(",")[4]) < 1.0


def test_eval_fit_appends_slopes(tmp_path):
    out = str(tmp_path / "eval.csv")
    res = run_cli("eval", "--dist", "point_mass:1",
                  "--d-list", "1000,3000,10000", "--n", "8",
                  "--epsilon", "1.5", "--eta", "0.1", "--trials", "20",
                  "--output", out, "--fit")
    assert res.returncode == 0, res.stderr
    lines = Path(out).read_text().splitlines()
    slopes = [l for l in lines if l.startswith("#")]
    assert [s.split("=")[0] for s in slopes] == [
        "# slope_l1", "# slope_l2", "# slope_linf"
    ]


@pytest.mark.parametrize(
    "d_list, trials, message",
    [
        ("1000,10000,100000", "5", "--fit: need >= 20 trials per d, got 5 at d=1000"),
        ("1000,1000", "20", "--fit: need >= 3 distinct d values, got 1"),
    ],
)
def test_eval_fit_too_thin_exits_2_before_the_sweep(tmp_path, capsys, monkeypatch,
                                                    d_list, trials, message):
    from dpprofile import evaluation

    def refuse(*args, **kwargs):
        raise AssertionError("ran the sweep")

    monkeypatch.setattr(evaluation, "sweep", refuse)
    out = tmp_path / "e.csv"
    code = main(["eval", "--dist", "point_mass:1", "--d-list", d_list, "--n", "8",
                 "--epsilon", "2", "--eta", "0.1", "--trials", trials, "--fit",
                 "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not left_behind(out)


def test_eval_fit_counts_the_trials_of_a_repeated_d(tmp_path):
    # each d is listed twice, so it has 2 x 10 rows
    out = tmp_path / "e.csv"
    assert main(["eval", "--dist", "point_mass:1", "--d-list", "1000,1000,2000,2000,3000,3000",
                 "--n", "8", "--epsilon", "2", "--eta", "0.1", "--trials", "10", "--fit",
                 "--output", str(out)]) == 0
    assert out.read_text().count("# slope_") == 3


def test_eval_fit_with_a_zero_mean_error_exits_2_and_writes_nothing(tmp_path):
    # at epsilon 1e300 the noise is 0, so every error is 0 and has no logarithm
    out = tmp_path / "e.csv"
    res = run_cli("eval", "--dist", "zipf:1.1", "--d-list", "100,200,300", "--n", "8",
                  "--epsilon", "1e300", "--eta", "0.05", "--trials", "20", "--fit",
                  "--output", str(out))
    assert res.returncode == 2
    assert res.stderr == ("error: --fit: the l1 mean error at d=100 is 0.0; the log-log fit "
                          "needs a finite mean error > 0 at every d\n")
    assert not left_behind(out)


# --- atomic output ------------------------------------------------------------------

def test_a_file_named_like_the_old_temp_survives(hist_file, tmp_path):
    sketch = ["sketch", "--input", hist_file, "--epsilon", "1", "--n", "5"]
    mine = tmp_path / "s.json.tmp"
    mine.write_text("mine\n")
    assert main([*sketch, "--output", str(tmp_path / "s.json")]) == 0
    # an output that is a folder fails at the rename, after the temp is written
    folder = tmp_path / "dir"
    folder.mkdir()
    theirs = tmp_path / "dir.tmp"
    theirs.write_text("mine\n")
    assert main([*sketch, "--output", str(folder)]) == 2
    assert mine.read_text() == theirs.read_text() == "mine\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "dir", "dir.tmp", "hist.txt", "s.json", "s.json.tmp"
    ]


def test_concurrent_writers_each_leave_a_complete_file(tmp_path):
    out = tmp_path / "e.csv"
    texts = ["".join(f"{who},{i}\n" for i in range(20)) for who in "ab"]
    halfway = threading.Barrier(2, timeout=30)  # both writers are mid-file at once
    errors = []

    def write(text):
        def writer(tmp):
            with open(tmp, "w") as fh:
                fh.write(text[:50])
                fh.flush()
                halfway.wait()
                fh.write(text[50:])

        try:
            _write_atomic_via(str(out), writer)
        except Exception as exc:  # a thread's exception would otherwise be lost
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(text,)) for text in texts]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert errors == []
    assert out.read_text() in texts
    assert [p.name for p in tmp_path.iterdir()] == ["e.csv"]


def test_output_mode_follows_the_umask(tmp_path):
    old = os.umask(0o027)
    try:
        _write_atomic(str(tmp_path / "atomic"), "x\n")
        with open(tmp_path / "plain", "w") as fh:
            fh.write("x\n")
    finally:
        os.umask(old)
    modes = {stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == {0o640}


# --- innerprod ----------------------------------------------------------------------

def test_eval_fit_equals_independent_trials(tmp_path, monkeypatch):
    # sweep builds each cell's histogram, profile and bounds once; the rows
    # must be exactly those of running every trial on its own
    from dpprofile import evaluation

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    out = tmp_path / "eval.csv"
    assert main(["eval", "--dist", "zipf:1.1", "--d-list", "200,400,800", "--n", "8",
                 "--epsilon", "2", "--eta", "0.2", "--trials", "20", "--fit",
                 "--seed", "11", "--output", str(out)]) == 0
    reports = []
    for cell, d in enumerate((200, 400, 800)):
        spec = evaluation.SynthSpec("zipf", d=d, n=8, param=1.1,
                                    seed=evaluation.derive_seed(11, cell, 1 << 32))
        cfg = evaluation.ReconstructionConfig(epsilon=2.0, eta=0.2, n=8, d=d)
        for trial in range(20):
            seed = evaluation.derive_seed(11, cell, trial)
            reports += run_trial(spec, cfg, seed, trial=trial)
    slopes = {p: evaluation.fit_scaling(reports, p) for p in evaluation.NORMS}
    assert out.read_text() == evaluation.rows_to_csv(reports, slopes)


def test_innerprod_csv_and_determinism(tmp_path):
    args = ("innerprod", "--d", "4096", "--epsilon", "50",
            "--trials", "2", "--seed", "3")
    out_a, out_b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert run_cli(*args, "--output", out_a).returncode == 0
    assert run_cli(*args, "--output", out_b).returncode == 0
    assert Path(out_a).read_bytes() == Path(out_b).read_bytes()
    lines = Path(out_a).read_text().splitlines()
    assert lines[0] == "d,trial,true_ip,m_b,abs_error,delta"
    for line in lines[1:]:
        d, trial, true_ip, m_b, abs_err, delta = line.split(",")
        assert int(d) == 4096
        # near-noiseless run: estimate lands close relative to d
        assert float(abs_err) < 0.05 * 4096
        assert float(delta) > 0


def test_innerprod_small_d_exits_2(tmp_path):
    res = run_cli("innerprod", "--d", "8", "--epsilon", "1",
                  "--trials", "1", "--output", str(tmp_path / "x.csv"))
    assert res.returncode == 2


def test_innerprod_d_past_int64_exits_2_naming_d(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["innerprod", "--d", str(2**63), "--epsilon", "1", "--trials", "1",
                 "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --d must lie in [16, 2**63 - 1]")
    assert not left_behind(out)


# --- flag values refused before any input ---------------------------------------
#
# The input files named here do not exist: a command that read its input
# first would fail on that instead.

EPSILON_RULE = f"epsilon must be a finite number >= {params._MIN_EPSILON:.3g}"
EARLY_REFUSALS = {
    "sketch --n 0": (["sketch", "--input", "missing.txt", "--output", "s.json",
                      "--epsilon", "1", "--n", "0"],
                     "--n: maximum count n must be >= 1, got 0"),
    "sketch --n -3": (["sketch", "--input", "missing.txt", "--output", "s.json",
                       "--epsilon", "1", "--n", "-3"],
                      "--n: maximum count n must be >= 1, got -3"),
    "reconstruct --eta nan": (["reconstruct", "--input", "missing.json", "--output", "p.csv",
                               "--eta", "nan"],
                              "--eta nan: eta must lie in (0, 1)"),
    "eval --trials 0": (["eval", "--dist", "zipf:1.1", "--d-list", "1000", "--n", "8",
                         "--epsilon", "1", "--eta", "0.1", "--trials", "0",
                         "--output", "e.csv"],
                        "--trials: trials must be >= 1, got 0"),
    "innerprod --trials 0": (["innerprod", "--d", "1000", "--epsilon", "1", "--trials", "0",
                              "--output", "i.csv"],
                             "--trials: trials must be >= 1, got 0"),
    "sketch --epsilon inf": (["sketch", "--input", "missing.txt", "--output", "s.json",
                              "--epsilon", "inf", "--n", "8"],
                             f"--epsilon inf: {EPSILON_RULE}, got inf"),
    "eval --epsilon nan": (["eval", "--dist", "zipf:1.1", "--d-list", "1000", "--n", "8",
                            "--epsilon", "nan", "--eta", "0.1", "--trials", "2",
                            "--output", "e.csv"],
                           f"--epsilon nan: {EPSILON_RULE}, got nan"),
    "innerprod --epsilon -1": (["innerprod", "--d", "1000", "--epsilon", "-1", "--trials", "1",
                                "--output", "i.csv"],
                               f"--epsilon -1.0: {EPSILON_RULE}, got -1.0"),
    "eval --n 1e20": (["eval", "--dist", "zipf:1.1", "--d-list", "1000", "--n", str(10**20),
                       "--epsilon", "1", "--eta", "0.1", "--trials", "2", "--output", "e.csv"],
                      f"--n: n={10**20} is above the largest supported maximum count 99999999"),
    "eval window": (["eval", "--dist", "zipf:1.1", "--d-list", "1000", "--n", "16",
                     "--epsilon", "1e-06", "--eta", "0.1", "--trials", "2", "--output", "e.csv"],
                    "--epsilon 1e-06 with --eta 0.1: maximum count n=16 is below the noise "
                    "bound B=15201805; the error guarantee requires n >= B (raise n, raise "
                    "epsilon, or relax eta)"),
}


@pytest.mark.parametrize("args, message", EARLY_REFUSALS.values(), ids=EARLY_REFUSALS)
def test_flag_refusal_comes_before_any_input_and_names_the_flag(
    tmp_path, capsys, monkeypatch, args, message
):
    monkeypatch.chdir(tmp_path)
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_innerprod_window_refusal_names_epsilon(tmp_path, capsys):
    # the protocol's window at eps 1e-7 is past the supported cap
    out = tmp_path / "i.csv"
    assert main(["innerprod", "--d", "1000", "--epsilon", "1e-7", "--trials", "1",
                 "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --epsilon 1e-07: noise bound B=")
    # innerprod has no --eta flag (the protocol fixes eta), so the advice
    # names epsilon alone
    assert "eta" not in err and err.endswith("(raise epsilon)\n")
    assert list(tmp_path.iterdir()) == []


# --- runtime dependencies ---------------------------------------------------------

def test_cli_import_pulls_in_no_scipy():
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, dpprofile, dpprofile.cli; "
         "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


# --- import graph -------------------------------------------------------------
#
# Each command imports only the layers it runs, so a short-lived `sketch` or
# `update` process does not pay for the reconstruction or the sweep.

LATER_LAYERS = {f"dpprofile.{layer}" for layer in ("circulant", "reconstruct", "evaluation", "twoparty")}


def imported_modules(*args, returncode=0, cwd=None):
    """Every module a `python -X importtime` process imports, by name."""
    res = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True, cwd=cwd
    )
    assert res.returncode == returncode, res.stderr
    return {
        line.rpartition("|")[2].strip()
        for line in res.stderr.splitlines()
        if line.startswith("import time:")
    }


@pytest.fixture
def sketch_files(hist_file, tmp_path):
    plain, clipped = str(tmp_path / "plain.json"), str(tmp_path / "clipped.json")
    for path, flags in ((plain, ()), (clipped, ("--clip",))):
        res = run_cli("sketch", "--input", hist_file, "--output", path,
                      "--epsilon", "1", "--n", "5", *flags)
        assert res.returncode == 0, res.stderr
    return plain, clipped


def test_sketch_and_update_load_only_the_mechanism(hist_file, sketch_files, tmp_path):
    delta = tmp_path / "delta.txt"
    delta.write_text("1\n0\n-1\n")
    runs = {
        "sketch": ("sketch", "--input", hist_file, "--output", str(tmp_path / "s.json"),
                   "--epsilon", "1", "--n", "5"),
        "update": ("update", "--sketch", sketch_files[0], "--delta", str(delta),
                   "--output", str(tmp_path / "u.json")),
    }
    for command, args in runs.items():
        modules = imported_modules("-m", "dpprofile", *args)
        assert "dpprofile.mechanism" in modules, command  # the report lists layers
        unwanted = modules & (LATER_LAYERS | {"concurrent.futures"})
        assert not unwanted, (command, unwanted)


@pytest.mark.parametrize(
    "args, code",
    [
        (["--help"], 0),
        (["sketch", "--help"], 0),
        (["sketch", "--n", "5"], 2),  # argparse: required flags missing
        (["sketch", "--input", "missing.txt", "--output", "s.json", "--epsilon", "nan",
          "--n", "8"], 2),
        (["innerprod", "--d", "1000", "--epsilon", "nan", "--trials", "1",
          "--output", "i.csv"], 2),
        *[(args, 2) for args, _ in EARLY_REFUSALS.values()],
    ],
    ids=["--help", "sketch --help", "usage error", "sketch --epsilon nan",
         "innerprod --epsilon nan", *EARLY_REFUSALS],
)
def test_help_usage_errors_and_flag_refusals_load_no_numpy(tmp_path, args, code):
    # the interpreter's start is the whole cost of a process that only
    # prints help or refuses a flag value: no numpy, and no code generator
    modules = imported_modules("-m", "dpprofile", *args, returncode=code, cwd=tmp_path)
    assert "dpprofile.cli" in modules  # the report lists the package's modules
    assert not {m for m in modules if m.partition(".")[0] == "numpy"}
    assert not modules & {"dataclasses", "inspect"}
    assert "dpprofile.mechanism" not in modules
    assert list(tmp_path.iterdir()) == []


def test_reconstruct_loads_neither_evaluation_nor_twoparty(sketch_files, tmp_path):
    plain, clipped = sketch_files
    lazy_random = "numpy.random" not in imported_modules("-c", "import numpy")
    for sketch, norm in ((plain, "l2"), (clipped, "l1")):
        modules = imported_modules("-m", "dpprofile", "reconstruct", "--input", sketch,
                                   "--output", str(tmp_path / "p.csv"), "--eta", "0.1",
                                   "--norm", norm)
        assert {"dpprofile.reconstruct", "dpprofile.circulant"} <= modules
        assert not modules & {"dpprofile.evaluation", "dpprofile.twoparty"}, sketch
        # only unfolding a clipped sketch draws randomness; numpy 2 loads
        # numpy.random on first use, numpy 1 with numpy itself
        if sketch == clipped:
            assert "numpy.random" in modules
        elif lazy_random:
            assert "numpy.random" not in modules


def test_import_dpprofile_loads_no_layer_module():
    modules = imported_modules("-c", "import dpprofile")
    assert "dpprofile" in modules
    assert not {m for m in modules if m.startswith("dpprofile.")}


def test_refused_reconstruct_loads_neither_reconstruct_nor_circulant(tmp_path):
    # a sketch that read_sketch refuses, then a valid sketch whose noise
    # bound leaves no window: both stop before the reconstruction loads
    bad = tmp_path / "bad.json"
    bad.write_text(MALFORMED_SKETCHES["fractional counts"])
    no_window = write_sketch_file(tmp_path, [1] * 200, 2.7e-17, 50)
    for sketch in (str(bad), no_window):
        modules = imported_modules("-m", "dpprofile", "reconstruct", "--input", sketch,
                                   "--output", str(tmp_path / "p.csv"), "--eta", "0.05",
                                   returncode=2)
        assert "dpprofile.mechanism" in modules  # the report lists layers
        assert not modules & {"dpprofile.reconstruct", "dpprofile.circulant"}, sketch


def test_class_route_eval_starts_no_thread(tmp_path):
    # every cell of a point-mass grid takes the class route, whose trials
    # hold the GIL, so no pool is started or even imported however many
    # CPUs the process may run on
    script = (
        "import os, sys, threading\n"
        "os.sched_getaffinity = lambda pid: {0, 1, 2, 3}\n"
        "from dpprofile.cli import main\n"
        "started = []\n"
        "start = threading.Thread.start\n"
        "threading.Thread.start = lambda self: (started.append(self.name), start(self))\n"
        "code = main(sys.argv[1:])\n"
        "print(code, len(started), 'concurrent.futures' in sys.modules)\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", script, "eval", "--dist", "point_mass:1",
         "--d-list", "1000,2000", "--n", "8", "--epsilon", "2", "--eta", "0.1",
         "--trials", "4", "--output", str(tmp_path / "e.csv")],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["0", "0", "False"]


# --- BLAS threads -------------------------------------------------------------------

BLAS_PROBE = (
    "import os, sys\n"
    "from dpprofile.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else -1\n"
    "print(code, os.environ.get('OPENBLAS_NUM_THREADS'), tasks)\n"
)


def run_blas_probe(hist_file, tmp_path, **env):
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    res = subprocess.run(
        [sys.executable, "-c", BLAS_PROBE, "sketch", "--input", hist_file,
         "--output", str(tmp_path / "s.json"), "--epsilon", "1", "--n", "5"],
        capture_output=True, text=True, env={**base, **env},
    )
    assert res.returncode == 0, res.stderr
    code, value, tasks = res.stdout.split()
    assert code == "0"
    return value, int(tasks)


def test_cli_pins_openblas_to_one_thread(hist_file, tmp_path):
    value, tasks = run_blas_probe(hist_file, tmp_path)
    assert value == "1"
    if tasks < 0:
        pytest.skip("no /proc/self/task to count the process's threads")
    assert tasks == 1  # numpy is loaded, and OpenBLAS started no worker


def test_cli_keeps_a_preset_openblas_thread_count(hist_file, tmp_path):
    assert run_blas_probe(hist_file, tmp_path, OPENBLAS_NUM_THREADS="2")[0] == "2"


def test_cli_leaves_an_in_process_callers_environment_alone(hist_file, tmp_path, monkeypatch):
    # numpy is loaded in this process, so its BLAS threads are already set
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert main(["sketch", "--input", hist_file, "--output", str(tmp_path / "s.json"),
                 "--epsilon", "1", "--n", "5"]) == 0
    assert "OPENBLAS_NUM_THREADS" not in os.environ
