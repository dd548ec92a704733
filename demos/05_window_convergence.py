"""Window approximation of the compensator and its small-lag trend.

K^h averages the conditional probability of defaulting within the next lag
h along the path; as h shrinks it approaches the local-time compensator K.
The demo shows the gap |K^h - K| at t = 1 shrinking with h on a few paths,
and the kernel view of the same smoothing: the time-averaged Gaussian
density concentrates to a point mass as its lag shrinks.  A path's rates at
every lag come from one ``window_rates`` call; ``laplacian_approximation``
then reads one lag at a time.
"""

import math

import numpy as np

from infobridge import (
    DefaultDistribution,
    ModelContext,
    RandomStream,
    TimeGrid,
    averaged_gaussian_kernel,
    compensator_curve,
    laplacian_approximation,
    occupation_estimate,
    sample_path_direct,
    window_rates,
)
from infobridge.laws import compensator_weights

ctx = ModelContext(DefaultDistribution.exponential(1.0))
dt = 0.015
grid = TimeGrid.regular(1.0, dt)
lags = (0.2, 0.1, 0.05, 0.025)
weights = compensator_weights(ctx, grid.knots)  # once per grid, shared by every path

print("Per-path gap |K^h(1) - K(1)| as the lag h shrinks:")
print("  seed   " + "   ".join(f"h={h:<5g}" for h in lags))
sums = np.zeros(len(lags))
n = 12
for i in range(n):
    p = sample_path_direct(ctx, grid, RandomStream(88, i))
    lt = occupation_estimate(p, 0.0, math.sqrt(dt))
    k1 = compensator_curve(p, lt, weights)[p.grid.index_of(1.0)]
    window = window_rates(p, ctx, lags)  # every lag's rates from one pass
    gaps = [abs(laplacian_approximation(p, h, window)[p.grid.index_of(1.0)]
                - k1) for h in lags]
    sums += gaps
    print(f"  {i:4d}   " + "   ".join(f"{g:7.4f}" for g in gaps))
print("  mean   " + "   ".join(f"{g:7.4f}" for g in sums / n))

print()
print("The smoothing kernel behind the h -> 0 limit:")
for h in (1.0, 0.1, 0.01):
    at0 = averaged_gaussian_kernel(h, 0.0)
    at1 = averaged_gaussian_kernel(h, 1.0)
    print(f"  lag {h:5g}: value at 0 = {at0:8.3f}, at 1 = {at1:.2e} "
          "(mass piles onto the origin)")
