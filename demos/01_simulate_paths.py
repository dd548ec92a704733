"""Simulate information-process paths and inspect the default encoding.

The information process is a Brownian bridge pinned at zero at a random
default time.  Before the default it diffuses; from the first grid knot at
or after the default on it sits at exact floating-point zero, so downstream
code can detect the default state without thresholds.
"""

import numpy as np

from infobridge import (
    DefaultDistribution,
    ModelContext,
    RandomStream,
    TimeGrid,
    quadratic_variation,
    running_max_abs,
    sample_path_direct,
    sample_path_given_tau,
)

ctx = ModelContext(DefaultDistribution.exponential(1.0))
grid = TimeGrid.regular(2.0, 0.01)

print("Direct construction (default time drawn, then Brownian increments):")
for i in range(5):
    p = sample_path_direct(ctx, grid, RandomStream(master_seed=7, path_index=i))
    qv = quadratic_variation(p.beta)[-1]
    m = running_max_abs(p)[-1]
    state = "defaulted in window" if p.tau <= 2.0 else "survived the window"
    print(f"  path {i}: tau = {p.tau:6.3f} ({state}); quadratic variation "
          f"{qv:.3f} ~ min(tau, 2) = {min(p.tau, 2.0):.3f}; max |beta| = {m:.3f}")

print()
print("Conditional construction (pinning horizon fixed at r = 1.5):")
for i in range(3):
    p = sample_path_given_tau(1.5, grid, RandomStream(8, i))
    after = p.beta[p.grid.knots >= 1.5]
    print(f"  path {i}: beta at the horizon and beyond is exactly zero: "
          f"{np.all(after == 0.0)}")

print()
print("The same seed reproduces the same path bit for bit:")
a = sample_path_direct(ctx, grid, RandomStream(42, 3))
b = sample_path_direct(ctx, grid, RandomStream(42, 3))
print(f"  identical: {np.array_equal(a.beta, b.beta)}")
