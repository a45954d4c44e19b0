"""A look inside the deconvolution operator.

Builds the circulant smearing operator for a small configuration, prints its
generator row and its spectrum (the DFT of the dense matrix's first column),
and checks the fast inverse and the analytic norm bounds against a dense
matrix realized from the kernel's closed form.
"""

import numpy as np

from dpprofile import ReconstructionConfig, apply_inverse, build_operator, norm_bounds

cfg = ReconstructionConfig(epsilon=1.0, eta=0.05, n=12, d=1000, B=3)
op = build_operator(cfg)

# the first row from its closed form: e^{-eps * ring distance} / P, zero past
# B; row k of the circulant is that row shifted right k times
idx = np.arange(op.m)
dist = np.minimum(idx, op.m - idx)
row = np.where(dist <= op.B, np.exp(-cfg.epsilon * dist), 0.0) / op.p_norm_const
dense = np.stack([np.roll(row, k) for k in range(op.m)])

print(f"window m = {op.m}, kernel radius B = {op.B}, normalizer = {op.p_norm_const:.4f}")
print("generator row (first few entries):", np.round(row[: op.B + 2], 4))
# a circulant's eigenvalues are the DFT of its first column, real here
# because the kernel is symmetric
eigenvalues = np.fft.fft(dense[:, 0]).real
print("eigenvalue magnitudes:", np.round(np.abs(eigenvalues), 3))
print("zero-frequency eigenvalue:", eigenvalues[0])

rng = np.random.default_rng(1)
x = rng.normal(size=op.m)
print(
    "fast inverse vs dense solve:",
    np.max(np.abs(apply_inverse(op, x) - np.linalg.solve(dense, x))),
)

bounds = norm_bounds(op)
inv = np.linalg.inv(dense)
print(f"row-sum norm of the inverse: {np.abs(inv).sum(axis=1).max():.4f}"
      f" (analytic bound {bounds.bound_1_inf:.4f})")
print(f"spectral norm of the inverse: {np.linalg.norm(inv, 2):.4f}"
      f" (analytic bound {bounds.bound_2:.4f})")
