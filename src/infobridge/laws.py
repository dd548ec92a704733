"""Conditional laws of the information process.

The information process is a Brownian bridge from 0 to 0 whose pinning
horizon is the random default time tau with density f.  Writing
p(t, x, y) for the Gaussian density and ``bridge_density(t, r, x)`` for the
time-t marginal density of a bridge of length r, every analytic quantity of
the model reduces to tail integrals of ``bridge_density(t, v, x) * f(v)``:

* ``survivor_density(s, x)``   -- subprobability density of the information
  value at ``x`` on the event that default has not yet happened,
  ``integral over v in (s, inf) of bridge_density(s, v, x) f(v)``;
* its reciprocal, which normalizes the a-posteriori law of tau and weighs
  the local-time measure inside the default compensator;
* ``posterior_density(t, r, x)`` -- conditional density of tau at r given a
  current information value x and no default yet;
* ``survival_probability`` / ``conditional_expectation`` -- integrals of
  Borel functions against that posterior;
* ``mean_reversion_drift(s, x)`` -- conditional mean of beta_s / (tau - s)
  on survival, the drift removed when recovering the driving Brownian
  motion.

Numerical scaling
-----------------
The bridge exponent splits as

    -v x^2 / (2 s (v - s)) = -x^2/(2s) - x^2/(2 (v - s)),

so every tail integral is computed in the "scaled" form with the constant
factor exp(-x^2/(2s)) pulled out.  Ratios of scaled integrals (posterior,
survival, drift, hazard rates) then remain finite for arbitrarily large |x|,
and products are assembled in log space and exponentiated once.  The scaled
integrand retains an integrable (v-s)**-0.5 endpoint singularity that the
quadrature layer removes by substitution.

Every tail integral stops at the context's ``t_cut``: the law's ``tail_cut``
at the quadrature policy's cutoff mass.  That cut is also the one domain of
every law: states (s, x) are admitted for 0 < s < t_cut, survival is 0 from
t_cut on, and the compensator weight is 0 at s = 0 (it vanishes like sqrt(s)
there) and from t_cut on.  Two evaluation routes exist: scalar adaptive
quadrature through ``_tail`` (the reference used by the public operations)
and a fixed-rule Gauss-Legendre panel scheme vectorized over grid knots,
with one layout (``_tail_layout``) and one integrand kernel
(``_panel_terms``).  ``SurvivorPanels`` is the panel route's survivor entry:
the compensator weights and the survivor of the window rates read it.  The
window numerator over (s, s + h) is not a third integral: it is a partial
sum of the survivor's own panels plus one panel up to s + h.  The drift
table takes survivor and drift terms from one kernel pass per column.  The
two routes are cross-checked in the test suite.

Every panel kernel runs in row tiles of at most ``quadrature.TILE_ELEMENTS``
(rows x nodes) elements, 64 KiB per temporary, and writes each tile's row
sums into outputs allocated once.  A window path's survivor spans about 36k
(rows x nodes) elements and the weights on a fine grid millions; whole
arrays that size lie above the allocator's mmap threshold and would be
mapped and page-faulted afresh on every call.  Each row sums the same nodes
in the same order whatever the tiling, so the results do not depend on it.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .distributions import DefaultDistribution
from .errors import DomainError, IntegrabilityError
from .quadrature import QuadratureSpec, integrate_semi_infinite, row_tiles

__all__ = [
    "ModelContext",
    "gaussian_density",
    "bridge_density",
    "survivor_density",
    "inverse_survivor_density",
    "survivor_density_floor",
    "posterior_density",
    "conditional_expectation",
    "survival_probability",
    "mean_reversion_drift",
    "SurvivorPanels",
    "DriftTable",
]

_POSTERIOR_FLUSH = 1e-300


@dataclass(frozen=True)
class ModelContext:
    """A default-time law together with the quadrature policy used on it.

    Carries a small memo table for the scaled survivor integral: posterior,
    survival and drift evaluations at a fixed state (s, x) all divide by the
    same tail integral, and curve evaluations repeat states heavily.
    """

    dist: DefaultDistribution
    quad: QuadratureSpec = field(default_factory=QuadratureSpec)
    _memo: dict = field(default_factory=dict, compare=False, repr=False)

    @cached_property
    def t_cut(self):
        """Where every tail integral against f stops; the law domain is
        (0, t_cut).  Computed once per context.  A law whose cut overflows
        (lognormal:0,300) has no finite domain: ``DomainError``."""
        with np.errstate(over="ignore"):
            cut = self.dist.tail_cut(self.quad.tail_cutoff_mass)
        if not math.isfinite(cut):
            raise DomainError(f"the tail cut of {self.dist} at mass "
                              f"{self.quad.tail_cutoff_mass} is not finite")
        return cut

    def _check_interior_time(self, s, name="s"):
        if not (0.0 < s < self.t_cut):
            raise DomainError(f"{name}={s} outside (0, t_cut={self.t_cut})")


def gaussian_density(t, x, y):
    """Density at x of a Gaussian with mean y and variance t (t > 0)."""
    if t <= 0.0:
        raise DomainError(f"variance must be positive, got {t}")
    return math.exp(-0.5 * math.log(2.0 * math.pi * t) - (x - y) ** 2 / (2.0 * t))


def bridge_density(t, r, x):
    """Time-t marginal density at x of a 0-to-0 bridge of length r.

    Zero for r <= t: a bridge of length r sits at 0 from time r on.
    """
    if t <= 0.0:
        raise DomainError(f"time must be positive, got {t}")
    if r <= t:
        return 0.0
    return gaussian_density(t * (r - t) / r, x, 0.0)


# ---------------------------------------------------------------------------
# scaled tail integrals, scalar adaptive route
# ---------------------------------------------------------------------------

def _scaled_survivor_integrand(s, x, ctx):
    """Integrand of the scaled survivor density: the exp(-x^2/(2s)) factor
    is pulled out, leaving exp(-x^2/(2(v-s))) which vanishes at v = s."""
    x2 = x * x
    f = ctx.dist.density_f

    def integrand(v):
        w = v - s
        fv = float(f(v))
        if fv == 0.0 or w <= 0.0:
            return 0.0
        return math.sqrt(v / (2.0 * math.pi * s * w)) * math.exp(-x2 / (2.0 * w)) * fv

    return integrand


def _tail(integrand, lower, ctx, points=None):
    """Integral of ``integrand`` over (lower, ctx.t_cut); the integrand may
    carry a (v - lower)**-0.5 singularity at the lower end.  The subdivision
    starts on ``points`` and on the law's breakpoints inside the interval."""
    points = [*(points or ()), *ctx.dist.breakpoints.tolist()]
    val, _ = integrate_semi_infinite(integrand, lower, ctx.quad,
                                     truncation=ctx.t_cut, interior_points=points)
    return val


def _layer_points(s, x):
    """Sharp-feature hints for the adaptive rule: after v = s + z**2 the
    factor exp(-x^2/(2(v-s))) turns on around z ~ |x|/sqrt(2)."""
    if x == 0.0:
        return None
    half_x2 = 0.5 * x * x
    return [s + half_x2 / 16.0, s + half_x2, s + 16.0 * half_x2]


def _scaled_survivor(s, x, ctx):
    """Scaled survivor density: survivor_density * exp(+x^2/(2s)).

    Even in x; memoized on the context at the level |x|.
    """
    key = (s, abs(x))
    cached = ctx._memo.get(key)
    if cached is not None:
        return cached
    val = _tail(_scaled_survivor_integrand(s, x, ctx), s, ctx,
                _layer_points(s, x))
    if len(ctx._memo) > 100_000:
        ctx._memo.clear()
    ctx._memo[key] = val
    return val


_SURVIVOR_TINY = np.finfo(float).tiny


def _survivor_denominator(s, x, ctx):
    """``_scaled_survivor`` as the denominator of a conditional law.  A state
    where it underflows below the smallest normal float (exp:1.0 at s = 0.5
    from |x| ~ 167 on) has no representable conditional law: the subnormal
    denominator has lost precision against its numerators, and further out
    it is 0."""
    val = _scaled_survivor(s, x, ctx)
    if val < _SURVIVOR_TINY:
        raise DomainError(f"survivor density at s={s}, x={x} underflows "
                          f"below the smallest normal float")
    return val


def survivor_density(s, x, ctx):
    """Joint density of {information value = x, no default by s}.

    Strictly positive on 0 < s < t_cut; decreasing in |x|.
    """
    ctx._check_interior_time(s)
    return math.exp(-x * x / (2.0 * s)) * _scaled_survivor(s, x, ctx)


def inverse_survivor_density(s, x, ctx):
    """Reciprocal of ``survivor_density``; normalizes the posterior law of tau."""
    ctx._check_interior_time(s)
    with np.errstate(over="ignore"):
        return float(np.exp(x * x / (2.0 * s)) / _scaled_survivor(s, x, ctx))


def survivor_density_floor(t0, t, x, ctx):
    """A strictly positive lower bound for ``survivor_density(s, x)`` on s in [t0, t].

    Obtained by bounding the bridge prefactor below by (2 pi t)**-0.5 and the
    exponent by its worst case over the window, then integrating f beyond t.
    """
    if not (0.0 < t0 < t < ctx.t_cut):
        raise DomainError(f"need 0 < t0 < t < t_cut={ctx.t_cut}, got t0={t0}, t={t}")
    f = ctx.dist.density_f
    x2 = x * x
    pref = 1.0 / math.sqrt(2.0 * math.pi * t)

    def integrand(v):
        w = v - t
        fv = float(f(v))
        if fv == 0.0 or w <= 0.0:
            return 0.0
        return pref * math.exp(-x2 * t / (2.0 * t0 * w)) * fv

    return math.exp(-x2 / (2.0 * t0)) * _tail(integrand, t, ctx)


def _log_scaled_bridge(t, r, x):
    """log of the scaled bridge density: bridge_density * exp(+x^2/(2t))."""
    w = r - t
    return 0.5 * math.log(r / (2.0 * math.pi * t * w)) - x * x / (2.0 * w)


def posterior_density(t, r, x, ctx):
    """A-posteriori density of tau at r given information value x at t < tau.

    Zero for r <= t.  Values that would underflow past 1e-300 are flushed to
    exact zero rather than left subnormal.
    """
    ctx._check_interior_time(t, "t")
    if r <= t:
        return 0.0
    fr = float(ctx.dist.density_f(r))
    if fr == 0.0:
        return 0.0
    log_post = (_log_scaled_bridge(t, r, x) + math.log(fr)
                - math.log(_survivor_denominator(t, x, ctx)))
    if log_post < -690.0:
        return 0.0
    val = math.exp(log_post)
    return 0.0 if val < _POSTERIOR_FLUSH else val


def conditional_expectation(g_of_tau, t, x, ctx, g_breakpoints=None):
    """Posterior mean of ``g_of_tau(tau)`` given information value x at t < tau.

    Computed as the ratio of two scaled tail integrals, so the overall
    exp(-x^2/(2t)) factor cancels.  Jumps or kinks of ``g_of_tau`` (digital
    payoffs, indicators) should be declared through ``g_breakpoints`` so the
    subdivision starts on them.  Raises IntegrabilityError when the integrand
    is still non-negligible at the truncation point, i.e. the law's tail
    cut cannot bound ``|g_of_tau| * f``.
    """
    ctx._check_interior_time(t, "t")
    base = _scaled_survivor_integrand(t, x, ctx)

    def integrand(v):
        return g_of_tau(v) * base(v)

    denom = _survivor_denominator(t, x, ctx)
    if not math.isfinite(ctx.dist.t1):
        # Preflight at the truncation point: the cut only bounds the tail
        # if the integrand is already negligible out there.
        t_cut = ctx.t_cut
        try:
            probe = abs(integrand(t_cut)) * max(t_cut - t, 1.0)
        except OverflowError:
            probe = math.inf
        if not math.isfinite(probe) or probe > max(
                1e6 * ctx.quad.abs_tol, 1e3 * ctx.quad.tail_cutoff_mass * denom):
            raise IntegrabilityError(
                "integrand not negligible at the truncation point; "
                "the tail cut cannot bound |g(tau)| f(tau)")
    interior = list(_layer_points(t, x) or [])
    if g_breakpoints is not None:
        interior.extend(g_breakpoints)
    return _tail(integrand, t, ctx, interior or None) / denom


def survival_probability(t, u, x, ctx):
    """P(tau > u | information value x at time t, no default by t).

    Equals 1 at u = t, is nonincreasing in u, and is 0 from the tail cut on.
    """
    ctx._check_interior_time(t, "t")
    if u < t:
        raise DomainError(f"need u >= t, got t={t}, u={u}")
    if not (u < ctx.t_cut):
        return 0.0
    if u == t:
        return 1.0
    num = _tail(_scaled_survivor_integrand(t, x, ctx), u, ctx)
    return min(1.0, max(0.0, num / _survivor_denominator(t, x, ctx)))


def mean_reversion_drift(s, x, ctx):
    """Conditional mean of beta_s / (tau - s) on survival, given beta_s = x.

    This is the drift that pulls the information process toward zero as the
    default approaches.  It is odd in x and defined as 0 at x = 0, where the
    conditioning event coincides with default having already happened and the
    stopped drift integral no longer sees the value.
    """
    ctx._check_interior_time(s)
    if x == 0.0:
        return 0.0
    base = _scaled_survivor_integrand(s, x, ctx)

    def integrand(v):
        # 0 where v - s is 0 in floats, as in the survivor integrand
        w = v - s
        return base(v) / w if w > 0.0 else 0.0

    num = _tail(integrand, s, ctx, _layer_points(s, x))
    return x * num / _survivor_denominator(s, x, ctx)


# ---------------------------------------------------------------------------
# vectorized fixed-rule route (tables for large ensembles)
# ---------------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)
_PANELS_LIN = 8
_PANELS_LOG = 12
_LAYER_DECADES = 4.5  # log window below |x|/sqrt(2): exp(-x^2/(2 z^2)) is 0 there
_UNDER_LAYER = 9.0    # log width integrated when the layer lies beyond the upper limit
_DRIFT_N_X = 140      # drift-table levels: 0, then geometric from _DRIFT_X_MIN on
_DRIFT_X_MIN = 1e-3


def _panel_edges(lo, hi, n_panels):
    """Edges of n_panels equal panels of [lo, hi] per row."""
    lo = np.asarray(lo, dtype=float)[:, None]
    hi = np.asarray(hi, dtype=float)[:, None]
    return lo + (hi - lo) * np.linspace(0.0, 1.0, n_panels + 1)[None, :]


def _panel_terms(edges, log, s_rows, x_rows, f, reversion=False):
    """Weighted integrand terms at the Gauss-Legendre nodes of the panels
    between consecutive ``edges`` of each row (rows x 24 nodes per panel).

    The panel variable is z, with v = s + z**2, or log z when ``log``.  The
    survivor terms are 2 sqrt(v / (2 pi s)) exp(-(x/z)^2 / 2) f(v) times the
    node weight (and z on log panels).  With ``reversion`` the call returns
    them together with the drift terms: the same products divided by z^2
    (that is, v - s) before the node weights are applied.  Everything is
    computed in place on a few (rows x nodes) buffers; each product keeps the
    operand order of the plain expression, so sums over the same panels are
    bit-identical.
    """
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    n = edges.shape[0]
    zn = half[:, :, None] * _GL_X[None, None, :]
    zn += mid[:, :, None]
    zn = zn.reshape(n, -1)
    if log:
        np.exp(zn, out=zn)
    s_col = s_rows[:, None]
    v = zn * zn
    v += s_col
    with np.errstate(divide="ignore", over="ignore"):
        vals = v / (2.0 * math.pi * s_col)
        np.sqrt(vals, out=vals)
        vals *= 2.0
        expo = x_rows[:, None] / zn
        expo *= expo
        expo *= -0.5
        np.exp(expo, out=expo)
        vals *= expo
        vals *= f(v)
        terms = [vals]
        if reversion:
            terms.append(np.divide(vals, np.multiply(zn, zn, out=expo), out=expo))
    weights = np.multiply(half[:, :, None], _GL_W[None, None, :],
                          out=v.reshape(half.shape + _GL_W.shape)).reshape(n, -1)
    for t in terms:
        t *= weights
        if log:
            t *= zn
    return tuple(terms) if reversion else vals


def _tail_layout(s, x, ctx):
    """Panels of the integrals over v = s + z**2 in (s, ctx.t_cut).

    Rows with |x| effectively zero get linear panels in z; other rows get
    log-spaced panels resolving the boundary layer of exp(-x^2/(2 z^2)) at
    z ~ |x|.  Returns ``(rows, log, edges)`` per nonempty row group, with
    ``rows`` a mask over the states; states from the cut on are in none.
    """
    t_cut = ctx.t_cut
    live = s < t_cut
    z_hi = np.sqrt(t_cut - s[live])
    layer = np.abs(x[live]) / math.sqrt(2.0)
    lin = layer <= z_hi * 1e-8
    groups = []
    if np.any(lin):
        rows = np.zeros(s.shape, dtype=bool)
        rows[live] = lin
        groups.append((rows, False,
                       _panel_edges(np.zeros(lin.sum()), z_hi[lin], _PANELS_LIN)))
    logr = ~lin
    if np.any(logr):
        lo_w = np.log(layer[logr]) - _LAYER_DECADES
        hi_w = np.log(z_hi[logr])
        # If the boundary layer sits beyond the upper limit the integral is
        # effectively zero; integrate a short window under it anyway.
        lo_w = np.where(lo_w < hi_w - 1e-12, lo_w, hi_w - _UNDER_LAYER)
        rows = np.zeros(s.shape, dtype=bool)
        rows[live] = logr
        groups.append((rows, True, _panel_edges(lo_w, hi_w, _PANELS_LOG)))
    return groups


@dataclass(frozen=True)
class SurvivorPanels:
    """Scaled survivor densities at states (s, x), with the panels that sum
    to them: the one survivor entry of the panel route.

    ``survivor`` is the sum of the survivor terms of ``_panel_terms`` over
    the panels of ``_tail_layout``; states from the tail cut on get 0.  Per
    row group (linear panels in z, log panels in log z), ``groups`` keeps
    ``(rows, log, edges, below)``: the panel edges in the panel variable
    and, at each edge, the sum of the panels below it.  An integral of the
    survivor integrand over (s, u) for any u before the cut is then one of
    those sums plus a single panel up to u.  ``build`` broadcasts s against
    x, so a scalar level serves a whole grid of times.
    """

    s: np.ndarray
    x: np.ndarray
    survivor: np.ndarray
    groups: tuple

    @classmethod
    def build(cls, ctx, s, x):
        s, x = np.broadcast_arrays(np.asarray(s, dtype=float),
                                   np.abs(np.asarray(x, dtype=float)))
        survivor = np.zeros(s.shape)
        groups = []
        for rows, log, edges in _tail_layout(s, x, ctx):
            s_g, x_g = s[rows], x[rows]
            n, n_panels = edges.shape[0], edges.shape[1] - 1
            total, panel = np.empty(n), np.empty((n, n_panels))
            for t in row_tiles(n, n_panels * _GL_X.size):
                terms = _panel_terms(edges[t], log, s_g[t], x_g[t], ctx.dist.density_f)
                total[t] = np.sum(terms, axis=1)
                panel[t] = terms.reshape(-1, n_panels, _GL_X.size).sum(axis=2)
            survivor[rows] = total
            below = np.zeros(edges.shape)
            np.cumsum(panel, axis=1, out=below[:, 1:])
            groups.append((rows, log, edges, below))
        return cls(s, x, survivor, tuple(groups))


def _ratio(num, den):
    """num / den where den > 0, else 0."""
    out = np.zeros(den.shape)
    ok = den > 0.0
    out[ok] = num[ok] / den[ok]
    return out


def compensator_weights(ctx, knots):
    """Per-knot weight f(s) / survivor_density(s, 0) driving the compensator.

    Knots outside the law domain (0, t_cut) get weight zero: the weight
    vanishes like sqrt(s) at the time origin, and the local-time measure
    carries no mass from the tail cut on.  So do knots where the survivor
    density is not positive.
    """
    knots = np.asarray(knots, dtype=float)
    w = np.zeros(knots.shape)
    live = (knots > 0.0) & (knots < ctx.t_cut)
    s = knots[live]
    w[live] = _ratio(np.asarray(ctx.dist.density_f(s), dtype=float),
                     SurvivorPanels.build(ctx, s, 0.0).survivor)
    return w


def hazard_window_rates(ctx, panels, h):
    """Vectorized conditional rate (1/h) P(tau in (s, s+h) | beta_s = x, tau > s)
    at the states of ``panels`` (a ``SurvivorPanels``).

    Ratio of the h-window numerator to the survivor density; the common
    exp(-x^2/(2s)) scale cancels, so the rate is stable for any |x|.  The
    numerator reuses the survivor's panels: the sum of the full panels below
    the window's end z = sqrt((s + h) - s) (log z on log rows) plus one
    Gauss-Legendre panel from the last full edge up to it, 24 integrand
    evaluations per state.  Where the boundary layer lies beyond the
    window's end, that panel spans the short window under it, as the
    survivor's own panels do at the tail cut.  The window stops at the tail
    cut like the survivor integral does: where s + h reaches it (the end of
    a bounded support) the numerator is the survivor itself and the rate is
    exactly 1/h, with no panel straddling the edge of f.  The lag must be
    positive and finite.
    """
    if not 0.0 < h < math.inf:
        raise DomainError(f"window lag must be positive and finite, got {h}")
    s, x, den, t_cut = panels.s, panels.x, panels.survivor, ctx.t_cut
    top = s + h
    num = np.where(top < t_cut, 0.0, den)
    for rows, log, edges, below in panels.groups:
        part = (top[rows] < t_cut) & (top[rows] > s[rows])
        if not np.any(part):
            continue
        s_part = s[rows][part]
        target = np.sqrt(top[rows][part] - s_part)
        if log:
            target = np.log(target)
        edges, below = edges[part], below[part]
        k = np.sum(edges[:, 1:] <= target[:, None], axis=1)
        i = np.arange(len(k))
        start = edges[i, k]
        if log:  # the layer beyond the window's end, as in _tail_layout
            start = np.where(edges[:, 0] < target - 1e-12, start,
                             target - _UNDER_LAYER)
        ends, x_part = np.stack([start, target], axis=1), x[rows][part]
        last = np.empty(len(k))
        for t in row_tiles(len(k), _GL_X.size):
            last[t] = np.sum(_panel_terms(ends[t], log, s_part[t], x_part[t],
                                          ctx.dist.density_f), axis=1)
        num[np.flatnonzero(rows)[part]] = below[i, k] + last
    return np.clip(_ratio(num, den) / h, 0.0, 1.0 / h)


class DriftTable:
    """Tabulated mean-reversion drift on a (time, level) grid.

    Stores u(s, x) for x >= 0 on a log-spaced level grid (plus the x -> 0+
    limit f(s)/survivor_density(s, 0) at the first column) and evaluates by
    bilinear interpolation with odd reflection in x.  Built once per run
    configuration; large ensembles interpolate instead of integrating per
    knot.  Each level column is one ``_panel_terms`` pass per row tile,
    whose survivor and drift terms share the integrand evaluations; nodes
    from the tail cut on get 0.  Every level must fall on log rows: a level
    too small against the cut's z range raises ``DomainError``.
    """

    def __init__(self, s_nodes, x_nodes, values):
        self.s_nodes = s_nodes
        self.x_nodes = x_nodes
        self.values = values
        self._s_gaps = np.diff(s_nodes)
        self._x_gaps = np.diff(x_nodes)

    @classmethod
    def build(cls, ctx, s_nodes, x_max=None):
        s_nodes = np.asarray(s_nodes, dtype=float)
        if len(s_nodes) < 2:
            raise DomainError("a drift table needs at least two time nodes")
        if x_max is None:
            x_max = 8.0 * math.sqrt(max(float(s_nodes[-1]), 1.0))
        x_pos = np.geomspace(_DRIFT_X_MIN, x_max, _DRIFT_N_X - 1)
        x_nodes = np.concatenate([[0.0], x_pos])
        s_eval = s_nodes.copy()
        if s_eval[0] <= 0.0:
            s_eval[0] = s_eval[1]
        values = np.zeros((len(s_nodes), _DRIFT_N_X))
        values[:, 0] = compensator_weights(ctx, s_eval)
        for j, xj in enumerate(x_pos, start=1):
            x = np.full(s_eval.shape, xj)
            den, num = np.zeros(s_eval.shape), np.zeros(s_eval.shape)
            for rows, log, edges in _tail_layout(s_eval, x, ctx):
                if not log:
                    raise DomainError("drift integral requires a nonzero level x")
                s_g, x_g = s_eval[rows], x[rows]
                den_g, num_g = np.empty(len(s_g)), np.empty(len(s_g))
                for t in row_tiles(len(s_g), (edges.shape[1] - 1) * _GL_X.size):
                    den_g[t], num_g[t] = (
                        np.sum(terms, axis=1) for terms in _panel_terms(
                            edges[t], log, s_g[t], x_g[t], ctx.dist.density_f,
                            reversion=True))
                den[rows], num[rows] = den_g, num_g
            values[:, j] = _ratio(xj * num, den)
        return cls(s_nodes, x_nodes, values)

    def evaluate(self, s, beta):
        """Interpolated drift at times ``s`` and information values ``beta``.

        Bounds are ``np.minimum``/``np.maximum`` pairs with the operand
        order of ``np.clip`` (so a -0.0 weight stays -0.0), cell widths
        come from the node gaps, and the corners are flat gathers of the
        value table.
        """
        s = np.asarray(s, dtype=float)
        beta = np.asarray(beta, dtype=float)
        s_nodes, x_nodes = self.s_nodes, self.x_nodes
        ax = np.minimum(np.abs(beta), x_nodes[-1])
        si = np.minimum(np.maximum(np.searchsorted(s_nodes, s, side="right") - 1, 0),
                        len(s_nodes) - 2)
        sw = np.minimum(np.maximum(0.0, (s - s_nodes[si]) / self._s_gaps[si]), 1.0)
        xi = np.minimum(np.maximum(np.searchsorted(x_nodes, ax, side="right") - 1, 0),
                        len(x_nodes) - 2)
        xw = (ax - x_nodes[xi]) / self._x_gaps[xi]
        uw = 1 - xw
        row = self.values.shape[1]
        k = si * row + xi
        flat = self.values.ravel()
        lo = uw * flat[k]
        lo += xw * flat[k + 1]
        hi = uw * flat[k + row]
        hi += xw * flat[k + row + 1]
        interp = (1 - sw) * lo + sw * hi
        return np.sign(beta) * interp
