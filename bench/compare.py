"""Collect sets of benchmark runs and compare them against BENCHMARK.json.

    python3 bench/compare.py collect --out A.jsonl [--workload W ...] [--seeds 1-10]
    python3 bench/compare.py spread A.jsonl
    python3 bench/compare.py compare A.jsonl B.jsonl

`collect` runs bench/run.py once per (workload, seed), with the run length
of BENCHMARK.json, and appends the result and the per-stage figures to a
JSON-lines file.  `spread` prints, for each
workload and metric, the median and the quartile spread (Q3 - Q1) / median
as statistics.quantiles(values, n=4) gives it.  `compare` treats A as the
baseline and reports, metric by metric and workload by workload, how far
B's median moved in the metric's worse direction, against the bound in
BENCHMARK.json.  Both exit 1 when a bound is exceeded.  `compare` also
holds each stage figure measured at reference speed to the bound of its
workload's round_cpu_s and marks it WORSE past it; that verdict is printed
only, it does not change the exit code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args) -> int:
    spec = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    with open(args.out, "a", encoding="utf-8") as fh:
        for workload in workloads:
            for seed in parse_seeds(args.seeds):
                cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                    return 1
                stages = next((json.loads(l[len("# stages "):]) for l in lines if l.startswith("# stages ")), {})
                row = {"workload": workload, "seed": seed, "result": json.loads(lines[-1]), "stages": stages}
                fh.write(json.dumps(row) + "\n")
                fh.flush()
                m = row["result"]["metrics"]
                print(f"{workload} seed {seed}: correct={row['result']['correct']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in m.items()), flush=True)
    return 0


def load_runs(path: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for line in Path(path).read_text().splitlines():
        row = json.loads(line)
        runs.setdefault(row["workload"], []).append(row)
    return runs


def values(rows: list[dict], metric: str) -> list[float]:
    out = []
    for row in rows:
        m = row["result"]["metrics"].get(metric) or row["stages"].get(metric)
        if m is not None:
            out.append(float(m["value"]))
    return out


def summary(vals: list[float]) -> tuple[float, float]:
    """(median, (Q3 - Q1) / median)."""
    med = statistics.median(vals)
    if len(vals) < 2:
        return med, float("nan")
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def failed_share(rows: list[dict]) -> str:
    shares = {f"{r['result']['failed']}/{r['result']['attempted']}" for r in rows}
    ratios = {r["result"]["failed"] / r["result"]["attempted"] for r in rows}
    return f"{sorted(shares)}" + ("" if len(ratios) == 1 else "  MIXED")


def stage_names(rows: list[dict]) -> list[str]:
    return sorted({k for r in rows for k in r["stages"]})


def spread(args) -> int:
    spec = load_spec()
    bad = 0
    for workload, rows in load_runs(args.file).items():
        correct = all(r["result"]["correct"] for r in rows)
        print(f"{workload}: {len(rows)} runs, all correct={correct}, failed/attempted {failed_share(rows)}")
        bad += not correct
        for m in spec["end_to_end"]:
            med, sp = summary(values(rows, m["name"]))
            verdict = "ok" if sp <= m["bound"] else "TOO WIDE"
            bad += verdict != "ok"
            print(f"  {m['name']:28s} median {med:12.5g} {m['unit']:5s} spread {sp:7.3f} bound {m['bound']:.3f} "
                  f"(a third: {m['bound'] / 3:.3f})  {verdict}")
        for name in stage_names(rows):
            med, sp = summary(values(rows, name))
            print(f"  stage {name:22s} median {med:12.5g}       spread {sp:7.3f}")
    return 1 if bad else 0


def compare(args) -> int:
    spec = load_spec()
    base, new = load_runs(args.base), load_runs(args.new)
    bad = 0
    for workload in base:
        if workload not in new:
            continue
        print(f"{workload}: failed/attempted base {failed_share(base[workload])} "
              f"new {failed_share(new[workload])}")
        for m in spec["end_to_end"]:
            (mb, sb), (mn, sn) = summary(values(base[workload], m["name"])), summary(values(new[workload], m["name"]))
            worse = (mn - mb) / mb if m["better"] == "lower" else (mb - mn) / mb
            verdict = "ok" if worse <= m["bound"] else "WORSE"
            bad += verdict != "ok"
            print(f"  {m['name']:28s} base {mb:11.5g} new {mn:11.5g} {m['unit']:5s} "
                  f"worse by {worse:+.3f} (bound {m['bound']:.3f})  spreads {sb:.3f} / {sn:.3f}  {verdict}")
        stage_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "round_cpu_s")
        for name in stage_names(base[workload]):
            (mb, sb), (mn, sn) = summary(values(base[workload], name)), summary(values(new[workload], name))
            change = (mn - mb) / mb
            # wall figures are as measured, not scaled to reference speed
            verdict = "(wall)" if name.endswith("_wall_s") else "ok" if change <= stage_bound else "WORSE"
            print(f"  stage {name:22s} base {mb:11.5g} new {mn:11.5g}       "
                  f"change {change:+.3f} (bound {stage_bound:.3f})  spreads {sb:.3f} / {sn:.3f}  {verdict}")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description="collect and compare benchmark runs")
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("collect")
    p.add_argument("--out", required=True)
    p.add_argument("--workload", action="append")
    p.add_argument("--seeds", default="1-10")
    p.set_defaults(func=collect)
    p = sub.add_parser("spread")
    p.add_argument("file")
    p.set_defaults(func=spread)
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(func=compare)
    args = ap.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
