"""Show that every output check fires.

    python3 bench/mutants.py [--workload NAME ...] [--seed N]

For each workload: make the inputs, run one round, confirm that the real
outputs pass, then hand the checks deliberately corrupted copies (a sketch
with the noise removed, a profile shifted by one bin, an update off by one,
...) and confirm that each is rejected.  Exits 1 if a real output fails or
a corrupted one passes.
"""

from __future__ import annotations

import argparse
import copy
import math
import shutil
import sys
from pathlib import Path

import numpy as np

import inputs
from workloads import ROOT, WORKLOADS, Round, probe_ok, rerun_problems, round_ref_cpu


def _counts(name, fn):
    def mutate(out):
        out[name]["counts"] = fn(out)
    return mutate


def _header(name, **changes):
    def mutate(out):
        out[name].update(changes)
    return mutate


def _column(name, fn):
    def mutate(out):
        out[name][:, 1] = fn(out[name][:, 1])
    return mutate


def _nudge(v):
    v = v.copy()
    v[np.argmax(v)] -= 1e-8
    v[np.argmin(v)] += 1e-8
    return v


PIPELINE = [
    ("sketch with the noise removed", _counts("sketch.json", lambda o: o["hist"].copy())),
    ("sketch noise doubled", _counts("sketch.json", lambda o: 2 * o["sketch.json"]["counts"] - o["hist"])),
    ("sketch noise at eps 0.9", _counts("sketch.json", lambda o: o["hist"] + inputs.dlap(
        0.9, inputs.PIPE_D, np.random.default_rng(0)))),
    ("sketch counts fractional", _counts("sketch.json", lambda o: o["sketch.json"]["counts"] + 0.5)),
    ("sketch header says clipped", _header("sketch.json", clipped=True)),
    ("clipped sketch with the noise removed", _counts("sketch_clip.json", lambda o: o["hist"].copy())),
    ("clipped count above n", _counts("sketch_clip.json", lambda o: np.where(
        np.arange(inputs.PIPE_D) == 0, inputs.PIPE_N + 1, o["sketch_clip.json"]["counts"]))),
    ("update off by one", _counts("updated.json", lambda o: o["updated.json"]["counts"] + (
        np.arange(inputs.PIPE_D) == 7))),
    ("l2 profile shifted by one bin", _column("profile.csv", lambda v: np.roll(v, 1))),
    ("l2 profile moved by 1e-8", _column("profile.csv", _nudge)),
    ("clipped-sketch profile shifted by one bin", _column("profile_clip.csv", lambda v: np.roll(v, 1))),
    ("clipped-sketch profile scaled by 1.01", _column("profile_clip.csv", lambda v: v * 1.01)),
]


def _profile(i, fn):
    def mutate(out):
        out["profiles"][i] = fn(out["profiles"][i])
    return mutate


def _swap(out):
    out["profiles"][0], out["profiles"][1] = out["profiles"][1], out["profiles"][0]


WIDE = [
    ("profile shifted by one bin", _profile(0, lambda v: np.roll(v, 1))),
    ("profile moved by 1e-8", _profile(0, _nudge)),
    ("profiles of two epsilons swapped", _swap),
]


def _csv(name, fn):
    def mutate(out):
        lines = out[name].splitlines()
        out[name] = "\n".join(fn(lines)) + "\n"
    return mutate


def _edit_rows(col, fn, rows=(1,)):
    def edit(lines):
        header = lines[0].split(",")
        k = header.index(col)
        for i in rows:
            cells = lines[i].split(",")
            cells[k] = fn(cells)
            lines[i] = ",".join(cells)
        return lines
    return edit


def _ip_far(cells):
    m_b = int(cells[2]) + 20 * math.sqrt(inputs.IP_D)
    cells[3] = repr(m_b)
    return repr(abs(m_b - int(cells[2])))


SWEEP = [
    ("eval: two errors above the bound", _csv("eval.csv", _edit_rows(
        "err", lambda c: repr(2 * float(c[7])), rows=(1, 4)))),
    ("eval: bound column off by 1e-6", _csv("eval.csv", _edit_rows(
        "bound", lambda c: repr(float(c[7]) * (1 + 1e-6))))),
    ("eval: fitted slope 0", _csv("eval.csv", lambda ls: [
        "# slope_l2=0.0" if l.startswith("# slope_l2") else l for l in ls])),
    ("eval: a row missing", _csv("eval.csv", lambda ls: ls[:5] + ls[6:])),
    ("innerprod: true_ip of the wrong parity", _csv("innerprod.csv", _edit_rows(
        "true_ip", lambda c: str(int(c[2]) + 1)))),
    ("innerprod: abs_error != |m_b - true_ip|", _csv("innerprod.csv", _edit_rows(
        "abs_error", lambda c: repr(float(c[4]) + 1.0)))),
    ("innerprod: error of 20 sqrt(d)", _csv("innerprod.csv", _edit_rows("abs_error", _ip_far))),
    ("innerprod: delta off by 1e-6", _csv("innerprod.csv", _edit_rows(
        "delta", lambda c: repr(float(c[5]) * (1 + 1e-6))))),
]

MUTANTS = {"pipeline_d1e6": PIPELINE, "wide_n": WIDE, "sweep": SWEEP}


def shared_rules(work: Path) -> list[tuple[str, bool]]:
    """The rerun, probe and missing-output rules, on hand-made cases."""
    out = work / "probe_out.json"
    same, other = Round(hashes={"x.csv": "a"}), Round(hashes={"x.csv": "b"})
    cases = [("rerun: identical outputs pass", not rerun_problems([same, same])),
             ("rerun: one byte differs, rejected", bool(rerun_problems([same, other]))),
             ("probe: exit 2, no file passes", probe_ok(2, out))]
    out.write_text("{}")
    cases += [("probe: exit 0 with output, rejected", not probe_ok(0, out)),
              ("probe: exit 2 with output left, rejected", not probe_ok(2, out))]
    out.unlink()
    cases += [("probe: exit 1, rejected", not probe_ok(1, out))]
    crashed = Round(failed=["reconstruct"] * 24)
    cases += [
        ("round cpu: a crashed first round keeps the stages of the others",
         round_ref_cpu([crashed, Round(ref={"a": [1.0]}), Round(ref={"a": [3.0]})]) == 2.0),
        ("missing output: a CLI output no round made, rejected",
         len(WORKLOADS["sweep"](work, 1).check([Round(failed=["eval_s", "innerprod_s"])])) == 2),
        ("missing output: wide_n with no saved profile, rejected",
         bool(WORKLOADS["wide_n"](work, 1).check([crashed]))),
    ]
    return cases


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", choices=sorted(MUTANTS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    work = ROOT / ".bench_work" / "mutants"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bad = 0
    try:
        for name, ok in shared_rules(work):
            print(f"{'ok ' if ok else 'BAD'} {name}")
            bad += not ok
        for workload in args.workload or list(MUTANTS):
            wl = WORKLOADS[workload](work, args.seed)
            wl.prepare()
            rounds = [wl.round(traced=False)]
            if workload == "wide_n":
                # two of the four epsilons keep the numpy.fft references short
                out = {k: v[:2] for k, v in wl.load_outputs().items()}
            else:
                out = wl.load_outputs({op.output for op in wl.ops() if op.stage not in rounds[0].failed})
            real = wl.check_outputs(out)
            print(f"{'ok ' if not real else 'BAD'} {workload}: real outputs pass" + "".join(f"\n    {p}" for p in real))
            bad += bool(real)
            for label, mutate in MUTANTS[workload]:
                broken = copy.deepcopy(out)
                mutate(broken)
                found = wl.check_outputs(broken)
                print(f"{'ok ' if found else 'BAD'} {workload}: {label}: "
                      + (found[0] if found else "NOT DETECTED"))
                bad += not found
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
