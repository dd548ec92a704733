"""Independent brute-force oracles used to pin expected values in the tests.

Everything here deliberately avoids the package's own quadrature and law
routines: plain composite rules and dense tabulations only, so the expected
values frozen into the tests were produced by a different route than the code
they check.

The ``full_grid_*`` functions are the reference constructions of the per-path
kernels: they draw and process every grid step, also those after the default
time, and look credit cells up with ``np.searchsorted``.  The package stops
at the step holding the default time and must match them bit for bit.

``adaptive_recover_b`` is one exception to the first rule: it reads the
drift from the package's scalar law, per knot, as the reference for the
tabulated drift that ``paths.recover_b`` interpolates.  ``general_density``
is another: it applies a law's own kernel by the general rule, the
reference for the bits of ``density_f``, which skips exact identities.  ``adaptive_band_credit``
calls scipy's adaptive QUADPACK rule directly, not the package's wrappers:
the band credit is integrated in time over the bridge's Gaussian marginals,
not in level over its local time as the package does.
"""

import math
import warnings

import numpy as np
from scipy import integrate
from scipy.special import ndtr


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


def adaptive_band_credit(a, b, span, x, epsilon):
    """Expected time a Brownian bridge from a to b over ``span`` spends in
    [x - epsilon, x + epsilon]: the band probability of its Gaussian marginal
    integrated in time.  Levels are in units of sqrt(span) and time in units
    of span, and the substitution v = sin(th)**2 makes the integrand smooth
    where the marginal's variance vanishes at both ends."""
    root = math.sqrt(span)
    lo, hi = (x - epsilon - a) / root, (x + epsilon - a) / root
    rise = (b - a) / root

    def integrand(th):
        v = math.sin(th) ** 2
        sd = math.sqrt(v * (1.0 - v))
        if sd == 0.0:
            return 0.0
        mean = rise * v
        return (ndtr((hi - mean) / sd) - ndtr((lo - mean) / sd)) * math.sin(2.0 * th)

    with warnings.catch_warnings():
        # roundoff at these tolerances is reported where the value is exact
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, _ = integrate.quad(integrand, 0.0, 0.5 * math.pi, epsabs=1e-15,
                                  epsrel=1e-14, limit=1000)
    return value * span


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
        # irregular steps and steps with one endpoint beyond the table are
        # computed exactly
        regular = np.abs(spans - table.span) <= 1e-9 * table.span
        lim = table.nodes[-1]
        exact = ~regular | ((np.abs(a - x) < lim) != (np.abs(b - x) < lim))
        credits = np.zeros(len(spans))
        credits[regular] = searchsorted_credit(table, a[regular] - x, b[regular] - x)
        if np.any(exact):
            credits[exact] = _band_time_credits(a[exact], b[exact], spans[exact], x, epsilon)
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


def indicator_curve(path):
    """Default indicator H on the path grid: 1 from the first knot at or
    after the default time on, the right end of the partial step that ends
    at the default."""
    return (path.grid.knots >= path.tau).astype(float)


def full_grid_compensator(lt_values, weights):
    return np.concatenate([[0.0], np.cumsum(weights[:-1] * np.diff(lt_values))])


# ---------------------------------------------------------------------------
# full-curve drift recovery and probe readout
# ---------------------------------------------------------------------------

def drift_table_evaluate(table, s, beta):
    """``DriftTable.evaluate`` with ``np.clip`` bounds and 2-D gathers."""
    s = np.asarray(s, dtype=float)
    beta = np.asarray(beta, dtype=float)
    ax = np.clip(np.abs(beta), 0.0, table.x_nodes[-1])
    si = np.clip(np.searchsorted(table.s_nodes, s, side="right") - 1,
                 0, len(table.s_nodes) - 2)
    sw = (s - table.s_nodes[si]) / (table.s_nodes[si + 1] - table.s_nodes[si])
    sw = np.clip(sw, 0.0, 1.0)
    xi = np.clip(np.searchsorted(table.x_nodes, ax, side="right") - 1,
                 0, len(table.x_nodes) - 2)
    xw = (ax - table.x_nodes[xi]) / (table.x_nodes[xi + 1] - table.x_nodes[xi])
    v00 = table.values[si, xi]
    v01 = table.values[si, xi + 1]
    v10 = table.values[si + 1, xi]
    v11 = table.values[si + 1, xi + 1]
    interp = (1 - sw) * ((1 - xw) * v00 + xw * v01) + sw * ((1 - xw) * v10 + xw * v11)
    return np.sign(beta) * interp


def full_grid_recover_b(path, drift_table):
    """b on every knot: the drift of each full step before tau, masked out
    of a full-length increment vector and summed behind a leading zero."""
    knots = path.grid.knots
    beta = path.beta
    steps = np.diff(knots)
    include = knots[1:] < path.tau
    incr = np.zeros(len(steps))
    if np.any(include):
        u = drift_table_evaluate(drift_table, knots[:-1][include], beta[:-1][include])
        incr[include] = u * steps[include]
    return beta + np.concatenate([[0.0], np.cumsum(incr)])


def adaptive_recover_b(path, ctx):
    """b with the drift of every full step before tau taken per knot from
    ``laws.mean_reversion_drift`` at the step's left knot (0 at s = 0),
    summed behind a leading zero and held from tau on."""
    from infobridge.laws import mean_reversion_drift

    knots = path.grid.knots
    beta = path.beta
    incr = np.zeros(len(knots) - 1)
    for k in range(len(incr)):
        if knots[k + 1] < path.tau and knots[k] > 0.0:
            u = mean_reversion_drift(float(knots[k]), float(beta[k]), ctx)
            incr[k] = u * (knots[k + 1] - knots[k])
    return beta + np.concatenate([[0.0], np.cumsum(incr)])


def general_density(dist, t):
    """f(t) of ``dist`` by the general rule, with no exact identity skipped:
    pdf((t - loc) / scale) / scale where f_lo <= y <= f_hi and t >= 0, NaN
    where y is NaN and 0 elsewhere, on the law's own kernel ``_pdf``.  An
    array of at least one dimension."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    y = (t - dist._loc) / dist._scale
    inside = (dist._f_lo <= y) & (y <= dist._f_hi) & (t >= 0)
    out = np.where(np.isnan(y), np.nan, 0.0)
    out[inside] = dist._pdf(y[inside]) / dist._scale
    return out


def full_grid_quadratic_variation(b):
    d = np.diff(b)
    return np.concatenate([[0.0], np.cumsum(d * d)])


def full_curve_row(job, path):
    """Every per-path field of one ensemble row from curves over the whole
    path grid, each read at its knots by ``np.searchsorted``."""
    from infobridge.compensator import laplacian_approximation, window_rates

    knots = path.grid.knots
    at = lambda ts: np.searchsorted(knots, np.asarray(ts, dtype=float))
    table = job.credit_table if job.estimator == "occupation" else None
    lt = (full_grid_tanaka(path, 0.0) if job.estimator == "tanaka"
          else full_grid_occupation(path, 0.0, job.eps, table))
    t_idx = at(job.times)
    row = {"tau": path.tau,
           "H": np.asarray(job.times) >= path.tau,
           "K": full_grid_compensator(lt, job.weights)[t_idx],
           "beta": path.beta[at(job.s_nodes)]}
    if job.kh:
        window = window_rates(path, job.ctx, job.kh)
        row["Kh"] = np.array([laplacian_approximation(path, h, job.ctx, window)[t_idx]
                              for h in job.kh])
    if job.drift_table is not None:
        b = full_grid_recover_b(path, job.drift_table)
        row["b"] = b[at(job.b_nodes)]
        if job.qv_nodes:
            row["qv_b"] = full_grid_quadratic_variation(b)[at(job.qv_nodes)]
    if job.lt_probe:
        j = at([t for t, _ in job.lt_probe])
        row["lt_occ"] = np.array([full_grid_occupation(path, x, job.eps)[k]
                                  for k, (_, x) in zip(j, job.lt_probe)])
        row["lt_tan"] = np.array([full_grid_tanaka(path, x)[k]
                                  for k, (_, x) in zip(j, job.lt_probe)])
    return row
