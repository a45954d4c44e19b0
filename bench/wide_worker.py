"""One round of the wide_n workload, in a fresh process.

    python3 bench/wide_worker.py SEED [--save FILE] [--trace FILE]

Makes the four noisy sketches from SEED, reconstructs each once while its
operator is built (the cold pass), then cycles inputs.WIDE_WARM_PASSES more
times over all four with the operators cached.  Prints one JSON line with the CPU and
wall seconds of every reconstruction, the CPU seconds of the calibration
job run before set-up, after it, after each cold reconstruction and after
each warm pass, and a hash of every profile.  --save writes the profiles
for the checks; --trace records spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time

import numpy as np

import calibrate
import inputs


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("seed", type=int)
    ap.add_argument("--save")
    ap.add_argument("--trace")
    args = ap.parse_args()

    import dpprofile
    from dpprofile import PrivateSketch, ReconstructionConfig

    cals = [calibrate.measure(".")]
    start = time.process_time()
    sketches = [
        PrivateSketch(counts=counts, epsilon=eps, n=inputs.WIDE_N, clipped=False)
        for eps, counts in zip(inputs.WIDE_EPSILONS, inputs.wide_inputs(args.seed))
    ]
    cfgs = [
        ReconstructionConfig(epsilon=eps, eta=inputs.WIDE_ETA, n=inputs.WIDE_N, d=inputs.WIDE_D, p_norm="l2")
        for eps in inputs.WIDE_EPSILONS
    ]
    setup_s = time.process_time() - start
    cals.append(calibrate.measure("."))

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    report = {"setup_s": setup_s, "cals": cals, "cold_cpu": [], "cold_wall": [], "warm_cpu": [], "warm_wall": []}
    first, unstable = [], False
    for pass_index in range(1 + inputs.WIDE_WARM_PASSES):
        kind = "cold" if pass_index == 0 else "warm"
        for i, (sketch, cfg) in enumerate(zip(sketches, cfgs)):
            cpu, wall = time.process_time(), time.perf_counter()
            profile = dpprofile.reconstruct_profile(sketch, cfg)
            report[f"{kind}_cpu"].append(time.process_time() - cpu)
            report[f"{kind}_wall"].append(time.perf_counter() - wall)
            if pass_index == 0:
                first.append(profile.values)
                cals.append(calibrate.measure("."))
            else:
                unstable |= not np.array_equal(profile.values, first[i])
        if pass_index > 0:
            cals.append(calibrate.measure("."))
    report["hashes"] = [hashlib.sha256(v.tobytes()).hexdigest() for v in first]
    report["unstable"] = unstable
    if tracer is not None:
        tracing.dump(tracer, args.trace)
    if args.save:
        np.save(args.save, np.stack(first))
    print(json.dumps(report))


if __name__ == "__main__":
    main()
