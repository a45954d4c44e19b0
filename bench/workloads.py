"""The three workloads.  Each runs whole rounds of the same operations, times
every operation in CPU seconds, scales that to reference speed with
calibrate.py, and checks the outputs with `checks`.

A round returns a `Round`.  The CLI workloads run each command as its own
process and take its CPU time from the kernel's accounting of the finished
child; `wide_n` runs its library calls inside one worker process per round
(wide_worker.py), which times them with process_time.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import calibrate
import checks
import inputs
from tracer import EVAL_THREADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# A command that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 60


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["DP_PROFILE_THREADS"] = str(EVAL_THREADS)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class Round:
    cpu: dict = field(default_factory=dict)     # stage -> CPU seconds of each call
    ref: dict = field(default_factory=dict)     # the same at reference speed
    wall: dict = field(default_factory=dict)    # stage -> wall seconds of each call
    peak_rss_mb: float = 0.0                    # largest process of the round
    setup: list = field(default_factory=list)   # set-up CPU seconds made in the round
    attempted: int = 0
    failed: list = field(default_factory=list)  # names of failed operations
    hashes: dict = field(default_factory=dict)  # output -> sha256
    spans: list = field(default_factory=list)   # one span list per traced process
    unstable: bool = False                      # a warm result differed from the cold one

    @property
    def total_cpu(self) -> float:
        return sum(sum(calls) for calls in self.cpu.values())



def run_child(cmd: list[str], cwd: Path) -> tuple[int | None, float, float, float, str]:
    """Run one process to its end.

    Returns (exit code, CPU s, wall s, peak RSS MB, stdout); the exit code is
    None when the process was killed for running past CHILD_TIMEOUT_S.  CPU
    time and peak RSS are the kernel's accounting of that one child.
    """
    with tempfile.TemporaryFile(dir=cwd) as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out, stderr=subprocess.DEVNULL)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode()
    killed = code == -signal.SIGKILL
    return (None if killed else code), usage.ru_utime + usage.ru_stime, wall, usage.ru_maxrss / 1024.0, stdout


def probe_ok(code: int | None, out: Path) -> bool:
    """A fail-closed probe passes on exit code 2 with no output left behind."""
    return code == 2 and not out.exists() and not out.with_name(out.name + ".tmp").exists()


def rerun_problems(rounds: list[Round]) -> list[str]:
    """Outputs made from the same seed must be byte-identical in every round."""
    problems = []
    for output in sorted({k for r in rounds for k in r.hashes}):
        if len({r.hashes[output] for r in rounds if output in r.hashes}) > 1:
            problems.append(f"{output} differs between rounds run with the same seed")
    return problems


def round_ref_cpu(rounds: list[Round]) -> float:
    """CPU seconds of one round at reference speed, each stage taken as the
    median over the run of its calls, times its calls per round.  The stages
    come from every round that timed them, so a round that crashed before
    timing anything drops out of the medians instead of dropping its stages."""
    calls: dict[str, int] = {}
    for r in rounds:
        for stage, values in r.ref.items():
            calls[stage] = max(calls.get(stage, 0), len(values))
    return sum(n * median(v for r in rounds for v in r.ref.get(stage, [])) for stage, n in calls.items())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def median(values) -> float:
    return float(np.median(np.asarray(list(values), dtype=np.float64)))


@dataclass
class Op:
    stage: str
    args: list[str]
    output: str | None = None
    probe: bool = False       # succeeds only on exit 2 with no output left
    cli: bool = True          # run through dpprofile's CLI (and traceable)
    cal_after: bool = True    # run the calibration job after it; short operations share one


class CliWorkload:
    """A workload made of CLI commands run one after another."""

    name = ""
    setup_repeats = 3

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def setup(self) -> float:
        """Make the workload's inputs; returns the CPU seconds it took."""
        raise NotImplementedError

    def prepare(self) -> list[float]:
        """Set up several times; CPU seconds of each, at reference speed."""
        cal = calibrate.measure(self.work)
        times = []
        for _ in range(self.setup_repeats):
            cpu = self.setup()
            cal_after = calibrate.measure(self.work)
            times.append(calibrate.at_reference_speed(cpu, cal, cal_after))
            cal = cal_after
        return times

    def round(self, traced: bool) -> Round:
        r = Round()
        cal, since_cal = calibrate.measure(self.work), []
        ops = self.ops()
        for op in ops:
            for suffix in ("", ".tmp"):
                if op.output:
                    (self.work / (op.output + suffix)).unlink(missing_ok=True)
        for i, op in enumerate(ops):
            if op.cli and traced:
                spans_file = self.work / f"spans-{i}.json"
                cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans_file), *op.args]
            elif op.cli:
                cmd = [sys.executable, "-m", "dpprofile", *op.args]
            else:
                cmd = [sys.executable, *op.args]
            code, cpu, wall, rss, _ = run_child(cmd, self.work)
            r.peak_rss_mb = max(r.peak_rss_mb, rss)
            out = self.work / op.output if op.output else None
            if op.probe:
                ok = probe_ok(code, out)
            else:
                ok = code == 0 and (out is None or out.exists())
            r.attempted += 1
            if not ok:
                r.failed.append(op.stage)
            r.cpu[op.stage] = [cpu]
            r.wall[op.stage] = [wall]
            since_cal.append(op.stage)
            if op.cal_after:
                cal_after = calibrate.measure(self.work)
                for stage in since_cal:
                    r.ref[stage] = [calibrate.at_reference_speed(r.cpu[stage][0], cal, cal_after)]
                cal, since_cal = cal_after, []
            if ok and out is not None and not op.probe:
                r.hashes[op.output] = sha256(out)
            if op.cli and traced and spans_file.exists():
                r.spans.append(json.loads(spans_file.read_text()))
                spans_file.unlink()
        return r

    def check(self, rounds: list[Round]) -> list[str]:
        """Checks the outputs of the last round.  An output that some round
        failed to make is reported, so that it cannot go unchecked."""
        ok = set.intersection(*({op.output for op in self.ops() if op.stage not in r.failed} for r in rounds))
        missing = [f"{op.output} was not made in every round, so it was not checked"
                   for op in self.ops() if op.output and not op.probe and op.output not in ok]
        return missing + rerun_problems(rounds) + self.check_outputs(self.load_outputs(ok))

    def stage_report(self, rounds: list[Round]) -> dict:
        """Median over the rounds of every operation's CPU seconds at
        reference speed, and of its wall seconds as measured."""
        report = {}
        for stage in rounds[0].cpu:
            base = stage[: -len("_s")] if stage.endswith("_s") else stage
            report[f"{base}_s"] = {"value": median(r.ref[stage][0] for r in rounds), "unit": "s"}
            report[f"{base}_wall_s"] = {"value": median(r.wall[stage][0] for r in rounds), "unit": "s"}
        return report


def cli_seed(value: int) -> list[str]:
    return ["--seed", str(value)]


class Pipeline(CliWorkload):
    """Curator and analyst path at d = 1e6 through the CLI."""

    name = "pipeline_d1e6"

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.cli_seeds = inputs.sub_seeds(seed + (1 << 40), 4)

    def setup(self) -> float:
        start = time.process_time()
        self.hist, self.delta = inputs.pipeline_inputs(self.seed, self.work)
        return time.process_time() - start

    def ops(self) -> list[Op]:
        eps, n, eta = str(inputs.PIPE_EPS), str(inputs.PIPE_N), str(inputs.PIPE_ETA)
        s = self.cli_seeds
        return [
            Op("import_s", ["-c", "import dpprofile"], cli=False, cal_after=False),
            Op("probe_nan_epsilon", ["sketch", "--input", "probe_hist.txt", "--output",
                                     "probe_nan.json", "--epsilon", "nan", "--n", "8"],
               "probe_nan.json", probe=True, cal_after=False),
            Op("probe_fractional_counts", ["reconstruct", "--input", "probe_fractional.json",
                                           "--output", "probe_fractional.csv", "--eta", eta],
               "probe_fractional.csv", probe=True),
            Op("sketch_s", ["sketch", "--input", "hist.txt", "--output", "sketch.json",
                            "--epsilon", eps, "--n", n, *cli_seed(s[0])], "sketch.json"),
            Op("sketch_clip_s", ["sketch", "--input", "hist.txt", "--output", "sketch_clip.json",
                                 "--epsilon", eps, "--n", n, "--clip", *cli_seed(s[1])], "sketch_clip.json"),
            Op("reconstruct_s", ["reconstruct", "--input", "sketch.json", "--output", "profile.csv",
                                 "--eta", eta, "--norm", "l2", *cli_seed(s[2])], "profile.csv",
               cal_after=False),
            Op("reconstruct_clip_s", ["reconstruct", "--input", "sketch_clip.json", "--output",
                                      "profile_clip.csv", "--eta", eta, "--norm", "l1",
                                      *cli_seed(s[3])], "profile_clip.csv"),
            Op("update_s", ["update", "--sketch", "sketch.json", "--delta", "delta.txt",
                            "--output", "updated.json"], "updated.json"),
        ]

    def load_outputs(self, ok: set) -> dict:
        out = {"hist": self.hist, "delta": self.delta}
        for name in ("sketch.json", "sketch_clip.json", "updated.json"):
            if name in ok:
                obj = json.loads((self.work / name).read_text())
                obj["counts"] = np.array(obj["counts"])
                out[name] = obj
        for name in ("profile.csv", "profile_clip.csv"):
            if name in ok:
                out[name] = np.loadtxt(self.work / name, delimiter=",", skiprows=1, ndmin=2)
        return out

    def stage_report(self, rounds: list[Round]) -> dict:
        report = super().stage_report(rounds)
        sketch = self.work / "sketch.json"
        if sketch.exists():
            report["sketch_bytes"] = {"value": sketch.stat().st_size, "unit": "bytes"}
        return report

    @staticmethod
    def check_outputs(out: dict) -> list[str]:
        D, N, EPS, ETA = inputs.PIPE_D, inputs.PIPE_N, inputs.PIPE_EPS, inputs.PIPE_ETA
        hist, problems = out["hist"], []

        def sketch_meta(name, clipped):
            obj = out[name]
            want = {"version": 1, "epsilon": EPS, "n": N, "d": D, "clipped": clipped}
            got = {k: obj.get(k) for k in want}
            bad = [] if got == want else [f"{name}: header {got} != {want}"]
            if obj["counts"].dtype.kind != "i" or obj["counts"].shape != (D,):
                bad.append(f"{name}: counts are not {D} integers")
            return bad

        if "sketch.json" in out:
            bad = sketch_meta("sketch.json", False)
            problems += bad or checks.check_dlap_noise(out["sketch.json"]["counts"] - hist, EPS)
        if "sketch_clip.json" in out:
            bad = sketch_meta("sketch_clip.json", True)
            problems += bad or checks.check_clipped(out["sketch_clip.json"]["counts"], hist, EPS, N)
        if "updated.json" in out and "sketch.json" in out:
            bad = sketch_meta("updated.json", False)
            problems += bad or checks.check_update(
                out["updated.json"]["counts"], out["sketch.json"]["counts"], out["delta"])
        for name in ("profile.csv", "profile_clip.csv"):
            if name in out and not np.array_equal(out[name][:, 0], np.arange(N + 1)):
                problems.append(f"{name}: t column is not 0..{N}")
        if "profile.csv" in out and "sketch.json" in out:
            values = out["profile.csv"][:, 1]
            problems += checks.check_profile_valid(values, N)
            ref = checks.dense_l2_profile(out["sketch.json"]["counts"], EPS, ETA, N)
            problems += checks.check_close("profile.csv vs dense l2 reference", values, ref)
        if "profile_clip.csv" in out:
            values = out["profile_clip.csv"][:, 1]
            truth = checks.exact_profile(hist, N)
            bound = checks.analytic_bounds(EPS, ETA, N, D, truth)["l1"]
            problems += checks.check_profile_valid(values, N)
            problems += checks.check_error_within_bound(values, truth, "l1", bound)
        return problems


class Sweep(CliWorkload):
    """Research path: the eval sweep and the two-party protocol through the CLI."""

    name = "sweep"
    setup_repeats = 5

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.eval_seed, self.ip_seed = inputs.sub_seeds(seed, 2)

    def setup(self) -> float:
        """The commands make their own histograms from --seed, so there are no
        input files to make.  Set-up is the program's cold start, the one step
        before the first command: interpreter, `import dpprofile`, argparse."""
        code, cpu, *_ = run_child([sys.executable, "-m", "dpprofile", "--help"], self.work)
        if code != 0:
            raise RuntimeError(f"python3 -m dpprofile --help exited with {code}")
        return cpu

    def ops(self) -> list[Op]:
        return [
            Op("eval_s", ["eval", "--dist", f"zipf:{inputs.SWEEP_ALPHA}", "--d-list",
                          ",".join(map(str, inputs.SWEEP_D_LIST)), "--n", str(inputs.SWEEP_N),
                          "--epsilon", str(inputs.SWEEP_EPS), "--eta", str(inputs.SWEEP_ETA),
                          "--trials", str(inputs.SWEEP_TRIALS), "--fit", "--output", "eval.csv",
                          *cli_seed(self.eval_seed)], "eval.csv"),
            Op("innerprod_s", ["innerprod", "--d", str(inputs.IP_D), "--epsilon", str(inputs.IP_EPS),
                               "--trials", str(inputs.IP_TRIALS), "--output", "innerprod.csv",
                               *cli_seed(self.ip_seed)], "innerprod.csv"),
        ]

    def load_outputs(self, ok: set) -> dict:
        out = {
            "bounds": checks.zipf_bounds(
                inputs.SWEEP_ALPHA, inputs.SWEEP_D_LIST, inputs.SWEEP_N, inputs.SWEEP_EPS, inputs.SWEEP_ETA),
            "ip_delta": checks.twoparty_delta(inputs.IP_D, inputs.IP_EPS, inputs.IP_ETA),
        }
        for name in ("eval.csv", "innerprod.csv"):
            if name in ok:
                out[name] = (self.work / name).read_text()
        return out

    @staticmethod
    def check_outputs(out: dict) -> list[str]:
        problems = []
        if "eval.csv" in out:
            problems += checks.check_eval(out["eval.csv"], out["bounds"], inputs.SWEEP_ETA, inputs.SWEEP_TRIALS)
        if "innerprod.csv" in out:
            problems += checks.check_innerprod(out["innerprod.csv"], inputs.IP_D, inputs.IP_TRIALS, out["ip_delta"])
        return problems


class WideN:
    """Library reconstruction at n = d = 1e6, four operators, cold then warm."""

    name = "wide_n"

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.saved = work / "wide_profiles.npy"

    def prepare(self) -> list[float]:
        return []  # the worker makes its inputs and times that itself

    def round(self, traced: bool) -> Round:
        r = Round()
        cmd = [sys.executable, str(BENCH / "wide_worker.py"), str(self.seed)]
        if not self.saved.exists():
            cmd += ["--save", str(self.saved)]
        spans_file = self.work / "wide_spans.json"
        if traced:
            cmd += ["--trace", str(spans_file)]
        code, _, _, r.peak_rss_mb, stdout = run_child(cmd, self.work)
        per_pass = len(inputs.WIDE_EPSILONS)
        r.attempted = per_pass * (1 + inputs.WIDE_WARM_PASSES)
        if code != 0:
            r.failed = ["reconstruct"] * r.attempted
            return r
        rep = json.loads(stdout.strip().splitlines()[-1])
        # calibration runs: before set-up, after it, after each cold call, after each warm pass
        cals = rep["cals"]
        r.setup = [calibrate.at_reference_speed(rep["setup_s"], cals[0], cals[1])]
        for i, eps in enumerate(inputs.WIDE_EPSILONS):
            warm = rep["warm_cpu"][i::per_pass]
            r.cpu[f"cold_eps{eps}"] = [rep["cold_cpu"][i]]
            r.ref[f"cold_eps{eps}"] = [calibrate.at_reference_speed(rep["cold_cpu"][i], *cals[1 + i : 3 + i])]
            r.cpu[f"warm_eps{eps}"] = warm
            r.ref[f"warm_eps{eps}"] = [
                calibrate.at_reference_speed(c, *cals[1 + per_pass + j : 3 + per_pass + j]) for j, c in enumerate(warm)]
            r.wall[f"cold_eps{eps}"] = [rep["cold_wall"][i]]
            r.wall[f"warm_eps{eps}"] = rep["warm_wall"][i::per_pass]
        r.hashes = {f"profile_eps{eps}": h for eps, h in zip(inputs.WIDE_EPSILONS, rep["hashes"])}
        r.unstable = rep["unstable"]
        if traced:
            r.spans.append(json.loads(spans_file.read_text()))
            spans_file.unlink()
        return r

    def check(self, rounds: list[Round]) -> list[str]:
        problems = rerun_problems(rounds)
        if any(r.unstable for r in rounds):
            problems.append("a warm reconstruction differs from the cold one of the same sketch")
        if not self.saved.exists():
            return problems + ["no round finished, so no profile was checked"]
        return problems + self.check_outputs(self.load_outputs())

    def load_outputs(self) -> dict:
        return {"profiles": list(np.load(self.saved)), "counts": inputs.wide_inputs(self.seed)}

    @staticmethod
    def check_outputs(out: dict) -> list[str]:
        problems = []
        for eps, counts, got in zip(inputs.WIDE_EPSILONS, out["counts"], out["profiles"]):
            problems += checks.check_profile_valid(got, inputs.WIDE_N)
            ref = checks.fft_l2_profile(counts, eps, inputs.WIDE_ETA, inputs.WIDE_N)
            problems += checks.check_close(f"eps={eps} profile vs numpy.fft reference", got, ref)
        return problems

    def stage_report(self, rounds: list[Round]) -> dict:
        """Median over the rounds of the mean CPU seconds (at reference speed)
        and wall seconds of one reconstruction, cold and warm."""
        def per_call(r, kind, attr):
            calls = [v for eps in inputs.WIDE_EPSILONS for v in getattr(r, attr).get(f"{kind}_eps{eps}", [])]
            return sum(calls) / len(calls)

        done = [r for r in rounds if r.ref]
        return {
            f"reconstruct_{kind}{suffix}": {"value": median(per_call(r, kind, attr) for r in done), "unit": "s"}
            for kind in ("cold", "warm") for suffix, attr in (("_s", "ref"), ("_wall_s", "wall"))
        }


WORKLOADS = {w.name: w for w in (Pipeline, WideN, Sweep)}
