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
every lag of a path come from one ``window_rates`` call, which builds the
path's survivor panels once; ``laplacian_approximation`` integrates one
lag's rates along the path.  The martingale test itself
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


def _window_knots(path, ctx):
    """Left knots of the steps that carry a window rate: positive knots
    before both the default time and the tail cut."""
    left = np.arange(1, len(path.grid.knots) - 1)
    return left[path.grid.knots[left] < min(path.tau, ctx.t_cut)]


@dataclass(frozen=True)
class WindowRates:
    """The window rates of one path at every lag: ``rates[a]`` holds the
    rate of lag ``lags[a]`` at each window state (``s``, ``x`` = |beta|)."""

    lags: tuple
    s: np.ndarray
    x: np.ndarray
    rates: np.ndarray


def window_rates(path, ctx, lags):
    """The conditional window rates of ``path`` at its window knots, for
    every lag of ``lags`` at once.

    The path's survivor panels (``laws.SurvivorPanels``) are built once: the
    survivor is the denominator of every rate, and partial sums of its
    panels give every lag's numerator, all lags in one
    ``laws.hazard_window_rates`` call.  ``laplacian_approximation`` reads
    one lag's row of the record.
    """
    idx = _window_knots(path, ctx)
    panels = laws.SurvivorPanels.build(ctx, path.grid.knots[idx], path.beta[idx])
    return WindowRates(tuple(float(h) for h in lags), panels.s, panels.x,
                       laws.hazard_window_rates(ctx, panels, lags))


def laplacian_approximation(path, h, ctx, window):
    """Window approximation of the compensator with lag h.

    Each step before the default time contributes its length times the
    conditional rate (1/h) P(tau in (s, s+h) | beta_s, tau > s) evaluated at
    the left knot; steps from the default time on contribute nothing (the
    conditional jump probability is zero once the default has happened).
    Time zero lies outside the law domain, so the step out of it uses the
    rate of the first positive knot.

    ``window`` is ``window_rates(path, ctx, lags)`` with h among its lags,
    shared by every lag of the path.
    """
    if h not in window.lags:
        raise DomainError(f"window lag {h} is not one of the record's lags {window.lags}")
    knots = path.grid.knots
    spans = path.spans
    incr = np.zeros(len(spans))
    idx = _window_knots(path, ctx)
    if not (np.array_equal(window.s, knots[idx])
            and np.array_equal(window.x, np.abs(path.beta[idx]))):
        raise DomainError("window rates belong to other states than the "
                          "window knots of this path")
    if len(idx):
        rates = window.rates[window.lags.index(h)]
        incr[idx] = spans[idx] * rates
        if knots[0] < path.tau and idx[0] == 1:
            incr[0] = spans[0] * rates[0]
    return np.concatenate([[0.0], np.cumsum(incr)])


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
