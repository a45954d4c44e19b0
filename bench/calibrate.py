"""A fixed job that measures how fast the machine is running right now.

    python3 bench/calibrate.py

The benchmark runs it as its own process between the program's operations
and scales their CPU time by CAL_REF_S / (its CPU time), taking the mean of
the runs just before and just after each operation.  The job does the kinds
of work the program's commands do (start an interpreter, import numpy,
parse and print integers, JSON, sort, FFT, bincount) on inputs that never
change, and it never imports dpprofile, so a change to the program cannot
move it.

Why: on the shared 2-vCPU machine the benchmark was built on, the CPU time
of one fixed command swung by up to 2x within minutes as other tenants
loaded the host.  Over 16 rounds of the pipeline_d1e6 commands the
correlation of each command's CPU time with the calibration runs beside it
was 0.65-0.93, and the quartile spread of a round's CPU time fell from 0.35
as measured to 0.07 once scaled.
"""

import os
import subprocess
import sys

# CPU seconds this job takes on an unloaded machine of the kind the
# reference figures in README.md were measured on.
CAL_REF_S = 0.35


def measure(cwd) -> float:
    """CPU seconds of one run of this job as a child process."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)], cwd=cwd, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"calibration job exited with {proc.returncode}")
    return usage.ru_utime + usage.ru_stime


def at_reference_speed(cpu_s: float, cal_before: float, cal_after: float) -> float:
    """CPU seconds rescaled to the speed at which this job takes CAL_REF_S."""
    return cpu_s * CAL_REF_S / ((cal_before + cal_after) / 2)


def _job() -> None:
    import json

    import numpy as np

    ints = list(range(200_000))
    text = json.dumps(ints)
    x = np.random.default_rng(0).random(1 << 20)
    json.loads(text)
    "\n".join(map(str, ints))
    [int(s) for s in text[1:-1].split(", ")]
    np.sort(x)
    np.fft.rfft(x)
    np.bincount((x * 1000).astype(np.int64))


if __name__ == "__main__":
    _job()
