"""Local-time estimation along simulated paths.

Two independent estimators of the local time of the information process at a
level x, both returned as nondecreasing curves on the path's grid:

* the occupation estimator measures time spent in the band [x-eps, x+eps]
  before the default time and divides by the band width 2*eps;
* the Tanaka estimator telescopes |beta - x| against the discrete stochastic
  integral of the sign, with sign(0) = -1 (right local time).

The discrete Tanaka sum is not monotone path by path; it is projected onto
its running maximum so its increments always form a nonnegative measure,
which the compensator integration requires.  The occupation-time identity,
which converts time integrals along the path into level integrals against
the local time, is exposed as a residual for test gating rather than assumed.

The band credits are closed-form: the expected time a Brownian bridge spends
in the band is the band integral of its expected local time (Borodin and
Salminen, *Handbook of Brownian Motion*, Part II 1.3.8), whose antiderivative
in the level is elementary apart from one ``erfcx``.  They are the only
credit route.  Each step's credit depends on its own endpoints and span
alone, so a batch of paths, one path and a single step give the same bits.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx

from .errors import DomainError
from .paths import TimeGrid

_SQRT_PI = math.sqrt(math.pi)
# A bridge step of length dt whose endpoints clear a level by more than its
# crossing reach sqrt(14 dt) touches the level with probability exp(-28) ~ 1e-12.
_CROSSING_REACH2 = 14.0

__all__ = [
    "LocalTimeCurve",
    "occupation_estimate",
    "tanaka_estimate",
    "occupation_formula_residual",
    "level_grid",
]


@dataclass(frozen=True)
class LocalTimeCurve:
    """Nondecreasing estimate of the local time at one level on a path grid."""

    x: float
    grid: TimeGrid
    values: np.ndarray


def _band_time_credits(a, b, spans, x, epsilon):
    """Expected time a Brownian bridge between the step endpoints spends in
    [x - epsilon, x + epsilon], per step, in closed form.

    Over a step of span D from a to b, the bridge's expected local time at a
    level z above the midpoint, with half-spread d, is
    sqrt(pi D / 2) erfcx(rho max(|z|, d)) exp(-rho^2 max(z^2 - d^2, 0)) with
    rho = sqrt(2 / D).  Its integral from 0 to y is (D/2)(s + t(y)) with
    s = sign(y), w = rho |y|, m = max(w, rho d) and
    t(y) = s exp((rho d - m)(rho d + m)) (sqrt(pi) w erfcx(m) - 1), and the
    credit is its difference between the two band ends.  The +-1 sign terms
    are summed apart from the small t terms, so a step far from the band
    does not lose its credit to cancellation.

    Steps whose endpoints clear the band by more than the bridge's crossing
    reach (excursion probability below ~1e-12) are flushed to exact zero, so
    a path that stays safely away from a band accrues literal zero there.
    """
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    gap = np.maximum(np.maximum(lo - (x + epsilon), (x - epsilon) - hi), 0.0)
    live = gap * gap <= _CROSSING_REACH2 * spans
    credits = np.zeros(spans.shape)
    if not live.any():
        return credits
    a, b, spans = a[live], b[live], spans[live]
    rho = np.sqrt(2.0 / spans)
    rd = 0.5 * rho * np.abs(b - a)
    # one row per band end, measured from the step's midpoint
    y = np.subtract.outer((epsilon, -epsilon), 0.5 * (a + b) - x)
    s = np.sign(y)
    w = rho * np.abs(y)
    m = np.maximum(w, rd)
    t = s * np.exp((rd - m) * (rd + m)) * (_SQRT_PI * w * erfcx(m) - 1.0)
    credits[live] = 0.5 * spans * ((s[0] - s[1]) + (t[0] - t[1]))
    return credits


@dataclass(frozen=True)
class BandCreditTable:
    """The step length and band half-width an ensemble's occupation credits
    are computed for; it holds no credits.

    Every credit comes from ``_band_time_credits``.  The record stays, and so
    does ``occupation_estimate``'s ``credit_table`` keyword, because the
    benchmark's tracer wraps ``ensemble.BandCreditTable`` by name and tells
    the per-path occupation route by that keyword; both go when the package
    keeps its own stage timers (ROADMAP item 3).
    """

    span: float
    epsilon: float


def occupation_estimate(path, x, epsilon, credit_table=None):
    """Occupation-based local time at level x with band half-width epsilon.

    Each step before the default time contributes the expected time in the
    band [x - epsilon, x + epsilon] of the Brownian-bridge interpolation of
    its endpoint values, divided by the band width.  Deep inside the band
    this credit is the full step, far away it is zero, so the rule reduces
    to the usual band indicator away from the band edges; near the edges,
    and in particular over the partial step that ends at the default time,
    it captures the within-step excursions that knot indicators cannot see.
    Without the approach term the compensator built from this curve
    under-counts by O(sqrt(dt)) per unit default mass, far above Monte Carlo
    resolution at usable step sizes.

    The estimate vanishes identically once the band clears the knot values
    by the within-step crossing reach, a bit beyond the running knot
    maximum: the continuum path genuinely overshoots the knots, and clamping
    the credit at the knot maximum would break the occupation-time identity.

    Credits are computed only on the path's ``live_steps``, the steps whose
    left knot lies before the default time, with the lengths
    ``path.spans``; the curve keeps its value after them.  On a batch of
    paths the live steps of every row go through the credits in one call.
    A ``credit_table`` changes no credit; it must be for this ``epsilon``.
    """
    if epsilon <= 0.0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    if credit_table is not None and credit_table.epsilon != epsilon:
        raise DomainError(f"credit table is for epsilon {credit_table.epsilon}, "
                          f"not {epsilon}")
    w, live = path.live
    spans = path.spans[..., :w][live]
    a = path.beta[..., :w][live]
    b = path.beta[..., 1:w + 1][live]
    credits = _band_time_credits(a, b, spans, x, epsilon)
    steps = np.zeros(path.beta[..., :w].shape)
    steps[live] = credits / (2.0 * epsilon)
    head = np.zeros(steps.shape[:-1] + (w + 1,))
    np.cumsum(steps, axis=-1, out=head[..., 1:])
    return LocalTimeCurve(float(x), path.grid, path.stopped(head))


def tanaka_estimate(path, x):
    """Discrete Tanaka local time at level x.

    The sum |beta_t - x| - |beta_0 - x| - sum of sign(beta - x) increments,
    with sign(0) = -1, projected onto its running maximum.  The path is zero
    from the default time on, so the sum runs over its ``live_steps`` and
    the curve keeps its value after them.
    """
    w, _ = path.live
    beta = path.beta[..., :w + 1]
    centered = beta - x
    sgn = np.where(centered > 0.0, 1.0, -1.0)
    stoch = np.empty(beta.shape)
    stoch[..., 0] = 0.0
    np.cumsum(sgn[..., :-1] * (beta[..., 1:] - beta[..., :-1]), axis=-1,
              out=stoch[..., 1:])
    raw = np.abs(centered) - np.abs(centered[..., :1]) - stoch
    return LocalTimeCurve(float(x), path.grid,
                          path.stopped(np.maximum.accumulate(raw, axis=-1)))


def level_grid(path, dx):
    """Symmetric level grid with spacing dx covering the path's range.

    Spans [-M, M] where M is the running maximum of |beta| at the horizon,
    extended by a margin so boundary bands still cover everything the
    estimator can credit: the within-step crossing reach plus one spacing.
    """
    if dx <= 0.0:
        raise DomainError(f"dx must be positive, got {dx}")
    m = float(np.max(np.abs(path.beta)))
    step = float(np.max(np.diff(path.grid.knots)))
    margin = math.sqrt(_CROSSING_REACH2 * step) + 2.0 * dx
    n = int(np.ceil((m + margin) / dx))
    return np.arange(-n, n + 1) * dx


def occupation_formula_residual(path, h, levels, curves):
    """Gap between the two sides of the occupation-time identity.

    Left side: left-endpoint Riemann sum of h(s, beta_s) over [0, min(t_max, tau)].
    Right side: sum over levels x of dx times the Stieltjes integral of
    h(s, x) against the estimated local-time measure at x (left-endpoint
    evaluation on knot increments).  ``h`` must accept numpy arrays.
    """
    knots = path.grid.knots
    active = knots[:-1] < path.tau
    lhs = float(np.sum(h(knots[:-1][active], path.beta[:-1][active])
                       * path.spans[active]))

    levels = np.asarray(levels, dtype=float)
    if len(levels) > 1:
        dx = float(levels[1] - levels[0])
    else:
        dx = 0.0
    rhs = 0.0
    for x, curve in zip(levels, curves):
        dl = np.diff(curve.values)
        rhs += dx * float(np.sum(h(knots[:-1], x) * dl))
    return abs(lhs - rhs)
