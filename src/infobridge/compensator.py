"""Compensation of the default indicator along simulated paths.

The default indicator H jumps from 0 to 1 at the default time.  Its
compensator K is the increasing process that makes H - K a martingale; for
the information process it is the integral of

    f(s) / survivor_density(s, 0)

against the local-time measure of the path at level zero, stopped at the
default time.  This module computes K path by path from an estimated
local-time curve and the per-grid ``laws.compensator_weights``, together
with the window approximation

    K^h_t = integral of (1/h) P(default in (s, s+h) | state at s) ds

whose h -> 0 limit recovers K, and the averaged Gaussian kernel that stands
in for the local-time measure in that limit.  The conditional rates of
every lag come from one ``window_rates`` call, which builds the survivor
panels of a path, or of a batch of paths, once; ``laplacian_approximation``
integrates one lag's rates along each path.  The martingale test itself
(functionals, reductions and the gate verdict) lives in ``ensemble``.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx

from . import laws
from .errors import DomainError
from .paths import TimeGrid

__all__ = [
    "CompensatorCurve",
    "compensator_curve",
    "WindowRates",
    "laplacian_approximation",
    "window_rates",
    "averaged_gaussian_kernel",
    "build_curve",
]


@dataclass(frozen=True)
class CompensatorCurve:
    """The compensator of one path on the path grid."""

    grid: TimeGrid
    K: np.ndarray


def compensator_curve(path, lt, weights):
    """Compensator of the default indicator along one path.

    Accumulates weight(s) * (local-time increment at level 0) over the steps
    before the default time, where ``weights`` holds the per-knot weight
    f(s) / survivor_density(s, 0) on the path grid, computed once per grid by
    ``laws.compensator_weights``.  The weight lives on the law domain
    (0, t_cut): it is zero at s = 0, so the step out of the time origin adds
    nothing (the local-time mass there carries total compensator weight
    F(dt), negligible at any usable step size), and zero from the tail cut
    on.  The sum runs over the path's ``live_steps`` only; K keeps its value
    from the knot that ends the step holding the default time on.

    ``lt`` must be a local-time curve at level 0 on the same grid; on a
    batch of paths, one row per path.
    """
    if lt.x != 0.0:
        raise DomainError(f"compensator needs the local time at level 0, got {lt.x}")
    if lt.values.shape != path.beta.shape or not (
            lt.grid is path.grid or np.array_equal(lt.grid.knots, path.grid.knots)):
        raise DomainError("local-time curve lives on a different grid")
    w, _ = path.live
    incr = weights[:w] * np.diff(lt.values[..., :w + 1], axis=-1)
    head = np.zeros(incr.shape[:-1] + (w + 1,))
    np.cumsum(incr, axis=-1, out=head[..., 1:])
    return path.stopped(head)


@dataclass(frozen=True)
class WindowRates:
    """The window rates of ``path`` (one path or a batch) at every lag:
    ``steps`` marks the steps whose left knot is positive and lies before
    both the default time and the tail cut, one row per path, and
    ``rates[a]`` holds lag ``lags[a]``'s rate at them in row-major order."""

    path: object
    lags: tuple
    steps: np.ndarray
    rates: np.ndarray


def window_rates(path, ctx, lags):
    """The conditional window rates of ``path`` at its marked steps' left
    knots, for every lag of ``lags`` at once.

    One ``laws.SurvivorPanels`` holds the marked states of every row: its
    survivor is every rate's denominator, and partial sums of its panels
    give every lag's numerator in one ``laws.hazard_window_rates`` call.
    Each state is a row of its own in both, so a batch row has the bits of
    its one-path call.
    """
    left = path.grid.knots[:-1]
    steps = (left > 0.0) & (left < np.minimum(path.tau, ctx.t_cut)[..., None])
    panels = laws.SurvivorPanels.build(ctx, np.broadcast_to(left, steps.shape)[steps],
                                       path.beta[..., :-1][steps])
    return WindowRates(path, tuple(float(h) for h in lags), steps,
                       laws.hazard_window_rates(ctx, panels, lags))


def laplacian_approximation(path, h, window):
    """Window approximation of the compensator with lag h.

    Each step before the default time contributes its length times the
    conditional rate (1/h) P(tau in (s, s+h) | beta_s, tau > s) evaluated at
    the left knot; steps from the default time on contribute nothing (the
    conditional jump probability is zero once the default has happened).
    Time zero lies outside the law domain, so the step out of it uses the
    rate of step 1 (0 when step 1 carries none).  On a batch, one curve per
    row.  ``window`` is ``window_rates(path, ctx, lags)`` for this path
    object, with h among its lags.
    """
    if window.path is not path:
        raise DomainError("window rates belong to another path object")
    if h not in window.lags:
        raise DomainError(f"window lag {h} is not one of the record's lags {window.lags}")
    spans = path.spans
    rate = np.zeros(spans.shape)
    rate[window.steps] = window.rates[window.lags.index(h)]
    if rate.shape[-1] > 1:
        rate[..., 0] = rate[..., 1]
    out = np.zeros(path.beta.shape)
    np.cumsum(spans * rate, axis=-1, out=out[..., 1:])
    return out


def averaged_gaussian_kernel(h, x):
    """Average over u in (0, h] of the centered Gaussian density at x.

    A probability density in x for every h in (0, 1]; concentrates to the
    Dirac mass at zero as h shrinks.  Closed form, with a = |x|/sqrt(2h):
    exp(-a^2) (sqrt(2h/pi) - |x| erfcx(a)) / h.
    """
    if not (0.0 < h <= 1.0):
        raise DomainError(f"kernel lag must lie in (0, 1], got {h}")
    ax = abs(x)
    a = ax / math.sqrt(2.0 * h)
    return math.exp(-a * a) * (math.sqrt(2.0 * h / math.pi) - ax * float(erfcx(a))) / h


def build_curve(path, lt, weights):
    """The compensator of ``path`` with its grid."""
    return CompensatorCurve(path.grid, compensator_curve(path, lt, weights))
