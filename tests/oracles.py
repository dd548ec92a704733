"""Independent brute-force oracles used to pin expected values in the tests.

Everything here deliberately avoids the package's own quadrature and law
routines: plain composite rules and dense tabulations only, so the expected
values frozen into the tests were produced by a different route than the code
they check.

The ``full_grid_*`` functions are the reference constructions of the per-path
kernels: they draw and process every grid step, also those after the default
time, and look credit cells up with ``np.searchsorted``.  The package stops
at the step holding the default time and must match them bit for bit.
"""

import math

import numpy as np


def composite_simpson(f, a, b, panels):
    """Composite Simpson rule with an even number of panels."""
    n = 2 * (panels // 2)
    x = np.linspace(a, b, n + 1)
    y = f(x)
    h = (b - a) / n
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def riemann_midpoint(f, a, b, n):
    """Midpoint Riemann sum with n equal cells."""
    edges = np.linspace(a, b, n + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    return float(np.sum(f(mid)) * (edges[1] - edges[0]))


def riemann_sqrt_sub(f, a, z_hi, n):
    """Midpoint sum for integral of f over (a, a + z_hi^2) after v = a + z^2.

    Handles an integrable (v-a)**-0.5 endpoint singularity of f at a.
    """
    def g(z):
        return 2.0 * z * f(a + z * z)

    return riemann_midpoint(g, 0.0, z_hi, n)


def tabulated_density(fn, hi, step):
    """Dense tabulation of fn on [0, hi], renormalized to unit trapezoid mass."""
    t = np.arange(0.0, hi + step, step)
    f = fn(t)
    return t, f / np.trapezoid(f, t)


# ---------------------------------------------------------------------------
# full-grid per-path kernels
# ---------------------------------------------------------------------------

def full_grid_path(ctx, grid, gen):
    """(tau, beta): one uniform, one normal per grid step, one more normal
    when tau lies beyond the grid, and beta on every knot."""
    tau = ctx.dist.sample_tau(gen)
    knots = grid.knots
    z = gen.standard_normal(len(knots) - 1)
    w = np.concatenate([[0.0], np.cumsum(np.sqrt(np.diff(knots)) * z)])
    if tau <= grid.t_max:
        k = max(int(np.searchsorted(knots, tau)) - 1, 0)
        w_tau = w[k] + math.sqrt(tau - knots[k]) * z[k]
    else:
        w_tau = w[-1] + math.sqrt(tau - grid.t_max) * gen.standard_normal()
    beta = np.where(knots < tau, w - knots / tau * w_tau, 0.0)
    beta[0] = 0.0
    return tau, beta


def full_grid_spans(path):
    knots = path.grid.knots
    return np.clip(np.minimum(knots[1:], path.tau) - knots[:-1], 0.0, None)


def searchsorted_credit(table, a, b):
    """Bilinear credit lookup with ``np.searchsorted`` cells."""
    nodes = table.nodes
    lim = nodes[-1]
    out = np.zeros(a.shape)
    live = (np.abs(a) < lim) & (np.abs(b) < lim)
    if not np.any(live):
        return out
    al, bl = a[live], b[live]
    ia = np.clip(np.searchsorted(nodes, al) - 1, 0, len(nodes) - 2)
    ib = np.clip(np.searchsorted(nodes, bl) - 1, 0, len(nodes) - 2)
    wa = (al - nodes[ia]) / (nodes[ia + 1] - nodes[ia])
    wb = (bl - nodes[ib]) / (nodes[ib + 1] - nodes[ib])
    out[live] = ((1 - wa) * (1 - wb) * table.table[ia, ib]
                 + wa * (1 - wb) * table.table[ia + 1, ib]
                 + (1 - wa) * wb * table.table[ia, ib + 1]
                 + wa * wb * table.table[ia + 1, ib + 1])
    return out


def full_grid_occupation(path, x, epsilon, table=None):
    """Occupation local-time values, masking the steps at or after tau."""
    from infobridge.localtime import _band_time_credits

    live = path.grid.knots[:-1] < path.tau
    spans = full_grid_spans(path)[live]
    a = path.beta[:-1][live]
    b = path.beta[1:][live]
    if table is not None:
        regular = np.abs(spans - table.span) <= 1e-9 * table.span
        credits = np.zeros(len(spans))
        credits[regular] = searchsorted_credit(table, a[regular] - x, b[regular] - x)
        if not np.all(regular):
            irr = ~regular
            credits[irr] = _band_time_credits(a[irr], b[irr], spans[irr], x, epsilon)
    else:
        credits = _band_time_credits(a, b, spans, x, epsilon)
    incr = np.zeros(len(live))
    incr[live] = credits
    return np.concatenate([[0.0], np.cumsum(incr / (2.0 * epsilon))])


def full_grid_tanaka(path, x, monotone=True):
    beta = path.beta
    centered = beta - x
    sgn = np.where(centered > 0.0, 1.0, -1.0)
    stoch = np.concatenate([[0.0], np.cumsum(sgn[:-1] * np.diff(beta))])
    raw = np.abs(centered) - abs(centered[0]) - stoch
    return np.maximum.accumulate(raw) if monotone else raw


def full_grid_compensator(lt_values, weights):
    return np.concatenate([[0.0], np.cumsum(weights[:-1] * np.diff(lt_values))])
