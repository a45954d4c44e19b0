"""dpprofile benchmark: one workload per call.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and uses the package under src/.
Prints a readable report, then as its last line one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end ones (set-up time, CPU seconds per round, peak RSS);
with --trace 1 they are the per-layer figures from spans recorded around
each layer's public functions, plus the tracing overhead.

Timings are CPU seconds (user + system) of the processes doing the work,
scaled to a reference machine speed with calibrate.py; the wall seconds of
every stage are printed as measured.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from workloads import ROOT, SRC, WORKLOADS, median, round_ref_cpu  # noqa: E402
from tracer import layer_metrics, metric_unit  # noqa: E402

# Rounds every run makes at least, so that the medians and the byte-identical
# rerun checks always have several samples.  Past these, a run starts another
# round only if, at the mean pace so far, it ends within --seconds.
MIN_ROUNDS = 3


def end_to_end(setup: list[float], rounds: list) -> dict:
    return {
        "setup_s": {"value": median(setup), "unit": "s"},
        "round_cpu_s": {"value": round_ref_cpu(rounds), "unit": "s"},
        "peak_rss_mb": {"value": max(r.peak_rss_mb for r in rounds), "unit": "MB"},
    }


def per_layer(pairs: list) -> dict:
    """Median over traced rounds of each figure, and the CPU cost of tracing
    as the difference from the untraced round run just before."""
    figures = [layer_metrics(traced.spans) for _, traced in pairs]
    overhead = [traced.total_cpu - plain.total_cpu for plain, traced in pairs]
    for f, o, (plain, _) in zip(figures, overhead, pairs):
        f["trace.overhead_s"] = o
        f["trace.overhead_share"] = o / plain.total_cpu
    return {key: {"value": median(f[key] for f in figures), "unit": metric_unit(key)} for key in figures[0]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "dpprofile" / "__init__.py").is_file():
        print(f"error: no dpprofile package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](work, args.seed)
        setup = wl.prepare()
        rounds, pairs = [], []
        start = time.perf_counter()
        steps = 0
        while len(rounds) < MIN_ROUNDS or (time.perf_counter() - start) * (steps + 1) / steps <= args.seconds:
            steps += 1
            if args.trace:
                pairs.append((wl.round(traced=False), wl.round(traced=True)))
                rounds.extend(pairs[-1])
            else:
                rounds.append(wl.round(traced=False))
        measured = time.perf_counter() - start
        problems = wl.check(rounds)
        stages = wl.stage_report([plain for plain, _ in pairs] if args.trace else rounds)
        setup += [s for r in rounds for s in r.setup]
        metrics = per_layer(pairs) if args.trace else end_to_end(setup, rounds)
        if args.trace:
            trace_file = ROOT / ".bench_work" / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps([r.spans for _, r in pairs]))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = [name for r in rounds for name in r.failed]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(rounds)} in {measured:.1f} s wall")
    print(f"operations attempted {attempted}  failed {len(failed)}"
          + (f"  ({', '.join(sorted(set(failed)))})" if failed else ""))
    for name, m in {**metrics, **stages}.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    print("checks: " + ("all passed" if not problems else "FAILED"))
    for p in problems:
        print(f"  - {p}")
    print("# stages " + json.dumps(stages))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
