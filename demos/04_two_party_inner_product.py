"""Two parties estimate an inner product through a private sketch.

Alice holds a sign vector x, Bob holds y.  Alice sends one privatized sketch
of x + 1; Bob adds y + 1 to it (sketches are additively updatable), rebuilds
the profile of the combined histogram, and publishes a noisy combination of
three profile coordinates that equals <x, y> on noiseless data.  The error
of the published estimate grows like sqrt(d), not d.

Bob's output noise is a continuous Laplace draw computed in floating point,
so the published value is a demonstration of accuracy, not an exactly
epsilon-DP release (Mironov, CCS 2012).
"""

import numpy as np

from dpprofile import run_protocol

for d in (10_000, 100_000):
    results = run_protocol(d=d, epsilon=1.0, trials=12, master_seed=1)
    errs = np.array([r.abs_error for r in results])
    print(f"d = {d}: delta = {results[0].delta_used:.2e}")
    print(f"   mean |estimate - truth| = {errs.mean():9.1f}"
          f"   normalized by sqrt(d) = {errs.mean() / np.sqrt(d):.2f}")

print("(Bob's Laplace noise is a floating-point draw: this shows accuracy,"
      " not an exactly epsilon-DP release)")

# a single verbose trial
results = run_protocol(d=10_000, epsilon=1.0, trials=3, master_seed=5)
for i, r in enumerate(results):
    print(f"trial {i}: true <x,y> = {r.true_ip:6d}, published = {r.m_b:10.1f}, "
          f"error = {r.abs_error:8.1f}")
