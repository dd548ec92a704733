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

whose h -> 0 limit recovers K.  It also holds the test functionals and the
EnsembleReport with its gate verdict; the reductions that fill the report
work on the ensemble's statistics table (``ensemble.summarize_table``).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import laws
from .errors import DomainError
from .paths import TimeGrid
from .quadrature import integrate_finite

__all__ = [
    "CompensatorCurve",
    "indicator_curve",
    "compensator_curve",
    "laplacian_approximation",
    "window_survivor",
    "averaged_gaussian_kernel",
    "build_curve",
    "parse_functional",
    "EnsembleReport",
]


@dataclass(frozen=True)
class CompensatorCurve:
    """Per-path curves on the path grid: indicator and compensator."""

    grid: TimeGrid
    tau: float
    H: np.ndarray
    K: np.ndarray

    def at(self, curve, t):
        return float(curve[self.grid.index_of(t)])


def indicator_curve(path):
    """Default indicator H on the path grid.

    1 from the first knot at or after the default time on, that is from the
    right end of the partial step that ends at the default.
    """
    return (path.grid.knots >= path.tau).astype(float)


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

    ``lt`` must be a local-time curve at level 0 on the same grid.
    """
    if lt.x != 0.0:
        raise DomainError(f"compensator needs the local time at level 0, got {lt.x}")
    if lt.values.shape != path.beta.shape or not np.array_equal(
            lt.grid.knots, path.grid.knots):
        raise DomainError("local-time curve lives on a different grid")
    n = path.live_steps
    incr = weights[:n] * np.diff(lt.values[:n + 1])
    return path.stopped(np.concatenate([[0.0], np.cumsum(incr)]))


def _window_knots(path, ctx):
    """Left knots of the steps that carry a window rate: positive knots
    before both the default time and the tail cut."""
    left = np.arange(1, len(path.spans))
    return left[path.grid.knots[left] < min(path.tau, ctx.t_cut)]


def window_survivor(path, ctx):
    """Scaled survivor densities at the window knots of ``path``, with their
    panels (``laws.SurvivorPanels``).

    The survivor is the denominator of every window rate along the path, and
    partial sums of its panels give every lag's numerator; compute it once
    per path and pass it to ``laplacian_approximation`` for each lag.
    """
    idx = _window_knots(path, ctx)
    return laws.SurvivorPanels.build(ctx, path.grid.knots[idx], path.beta[idx])


def laplacian_approximation(path, h, ctx, survivor):
    """Window approximation of the compensator with lag h.

    Each step before the default time contributes its length times the
    conditional rate (1/h) P(tau in (s, s+h) | beta_s, tau > s) evaluated at
    the left knot; steps from the default time on contribute nothing (the
    conditional jump probability is zero once the default has happened).
    Time zero lies outside the law domain, so the step out of it uses the
    rate of the first positive knot.

    ``survivor`` is ``window_survivor(path, ctx)``, shared by every lag of
    the path.
    """
    if not 0.0 < h < math.inf:
        raise DomainError(f"window lag must be positive and finite, got {h}")
    knots = path.grid.knots
    spans = path.spans
    incr = np.zeros(len(spans))
    idx = _window_knots(path, ctx)
    if not (np.array_equal(survivor.s, knots[idx])
            and np.array_equal(survivor.x, np.abs(path.beta[idx]))):
        raise DomainError("survivor panels belong to other states than the "
                          "window knots of this path")
    if len(idx):
        rates = laws.hazard_window_rates(ctx, survivor, h)
        incr[idx] = spans[idx] * rates
        if knots[0] < path.tau and idx[0] == 1:
            incr[0] = spans[0] * rates[0]
    return np.concatenate([[0.0], np.cumsum(incr)])


def averaged_gaussian_kernel(h, x, spec=None):
    """Average over u in (0, h] of the centered Gaussian density at x.

    A probability density in x for every h in (0, 1]; concentrates to the
    Dirac mass at zero as h shrinks.  Evaluated by quadrature after the
    substitution u = z**2, which removes the u**-0.5 endpoint behavior.
    """
    if not (0.0 < h <= 1.0):
        raise DomainError(f"kernel lag must lie in (0, 1], got {h}")
    x2 = x * x

    def integrand(u):
        return math.exp(-0.5 * math.log(2.0 * math.pi * u) - x2 / (2.0 * u))

    pts = None if x == 0.0 else [x2 / 16.0, x2, min(16.0 * x2, h)]
    val, _ = integrate_finite(integrand, 0.0, h, singular_at_a=True,
                              interior_points=pts)
    return val / h


def build_curve(path, lt, weights):
    """Assemble the per-path curve bundle (indicator and compensator)."""
    K = compensator_curve(path, lt, weights)
    return CompensatorCurve(path.grid, path.tau, indicator_curve(path), K)


# ---------------------------------------------------------------------------
# martingale tests: functionals and the gate verdict
# ---------------------------------------------------------------------------

def parse_functional(text):
    """Functional of the information value used in martingale tests.

    ``one`` (constant), ``abs_beta`` (absolute value), or
    ``indicator_beta_above:<c>``.  Returns (label, callable on arrays).
    """
    text = text.strip()
    if text == "one":
        return "one", lambda b: np.ones_like(b)
    if text == "abs_beta":
        return "abs_beta", np.abs
    if text.startswith("indicator_beta_above:"):
        try:
            c = float(text.split(":", 1)[1])
        except ValueError:
            c = math.nan  # reported with the non-finite thresholds below
        if not math.isfinite(c):
            raise DomainError(f"bad threshold in functional {text!r}")
        return f"indicator_beta_above({c:g})", lambda b: (b > c).astype(float)
    raise DomainError(f"unknown functional {text!r}")


@dataclass(frozen=True)
class EnsembleReport:
    """Cross-path summary: per-time means/errors and the residual test table."""

    times: np.ndarray
    mean_H: np.ndarray
    mean_K: np.ndarray
    F: np.ndarray
    stderr_H: np.ndarray
    stderr_K: np.ndarray
    n_paths: int
    residuals: list = field(default_factory=list)
    # residual rows: (s, t, label, residual, stderr, passed)
    gate_multiplier: float = 3.0

    def gates(self):
        """Verdict on the mean gates, one ``(kind, j, gap, bound, ok)`` row each.

        For report time ``times[j]``, kind ``"F"`` compares |mean_K - F(t)|
        with ``gate_multiplier`` standard errors of mean_K, and kind ``"H"``
        compares |mean_K - mean_H| with ``gate_multiplier`` combined standard
        errors.  A gate passes when its gap is at most its bound, so a NaN gap
        fails.  Residual gates are decided where the residuals are reduced
        and carried in ``residuals``.
        """
        mult = self.gate_multiplier
        rows = []
        for j in range(len(self.times)):
            gap = abs(self.mean_K[j] - self.F[j])
            bound = mult * self.stderr_K[j]
            rows.append(("F", j, gap, bound, bool(gap <= bound)))
            gap = abs(self.mean_K[j] - self.mean_H[j])
            bound = mult * math.hypot(self.stderr_H[j], self.stderr_K[j])
            rows.append(("H", j, gap, bound, bool(gap <= bound)))
        return rows

    def all_gates_pass(self):
        return (all(row[4] for row in self.gates())
                and all(row[5] for row in self.residuals))
