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

The band credits integrate each step over 24 Gauss-Legendre times.  The
(steps x 24) kernel runs in row tiles of at most ``quadrature.TILE_ELEMENTS``
elements, 64 KiB per temporary: a credit table's build covers ~10^5 node
pairs, and whole (pairs x 24) arrays would each be mapped and page-faulted
by the allocator.  Each row sums its own 24 nodes in the same order
whatever the tiling.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import DomainError
from .paths import TimeGrid
from .quadrature import row_tiles

_GL_U, _GL_W = np.polynomial.legendre.leggauss(24)
_GL_U1 = _GL_U + 1.0
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
    [x - epsilon, x + epsilon], per step, by Gauss-Legendre quadrature in
    time.

    Steps whose endpoints clear the band by more than the bridge's crossing
    reach (excursion probability below ~1e-12) are flushed to exact zero, so
    a path that stays safely away from a band accrues literal zero there.
    The other steps are integrated in row tiles.
    """
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    gap = np.maximum(np.maximum(lo - (x + epsilon), (x - epsilon) - hi), 0.0)
    live = gap * gap <= _CROSSING_REACH2 * spans
    credits = np.zeros(len(spans))
    if not live.any():
        return credits
    a_live, b_live, s_live = a[live], b[live], spans[live]
    out = np.empty(len(s_live))
    for t in row_tiles(len(s_live), _GL_U.size):
        al, bl, sl = a_live[t], b_live[t], s_live[t][:, None]
        u = 0.5 * sl * _GL_U1
        w = 0.5 * sl * _GL_W
        mean = al[:, None] + (bl - al)[:, None] * u / sl
        sd = np.sqrt(np.maximum(u * (sl - u) / sl, 1e-300))
        prob = ndtr((x + epsilon - mean) / sd) - ndtr((x - epsilon - mean) / sd)
        out[t] = np.sum(prob * w, axis=1)
    credits[live] = out
    return credits


class BandCreditTable:
    """Precomputed step credits for the occupation estimator.

    For a fixed step length and band half-width, the expected in-band time
    is a smooth function of the two endpoint values; large ensembles look it
    up on a two-dimensional endpoint grid (dense inside the band, step-scale
    spacing outside) instead of integrating per step.  Irregular steps (the
    partial step that ends at the default time) are always integrated
    exactly.
    """

    def __init__(self, span, epsilon):
        self.span = float(span)
        self.epsilon = float(epsilon)
        reach = math.sqrt(_CROSSING_REACH2 * span)
        lim = epsilon + reach
        fine_to = min(4.0 * epsilon + 2.0 * math.sqrt(span), lim)
        inner = np.arange(0.0, fine_to, min(epsilon, math.sqrt(span)) / 10.0)
        outer = np.arange(fine_to, lim * (1 + 1e-9), math.sqrt(span) / 25.0)
        half = np.unique(np.concatenate([inner, outer, [lim]]))
        self.nodes = np.concatenate([-half[::-1][:-1], half])
        aa, bb = np.meshgrid(self.nodes, self.nodes, indexing="ij")
        flat_a, flat_b = aa.ravel(), bb.ravel()
        spans = np.full(flat_a.shape, self.span)
        self.table = _band_time_credits(flat_a, flat_b, spans, 0.0,
                                        epsilon).reshape(aa.shape)
        self._flat = self.table.ravel()
        self._gaps = np.diff(self.nodes)
        self._build_cells()

    def _build_cells(self):
        """Bucketed cell index: uniform buckets of the endpoint axis, each
        holding at most ``len(self._bucket_nodes)`` nodes.

        A query q falls in bucket j = int((q - lo) * inv_width), with the
        same float operations as the nodes' own buckets, so j is monotone in
        q: every node of an earlier bucket lies below q and every node of a
        later one above it.  The cell of q, ``searchsorted(nodes, q) - 1``,
        is then the count of nodes in earlier buckets, minus one, plus the
        count of bucket j's own nodes that lie below q.
        """
        nodes = self.nodes
        lo = nodes[0]
        # half the smallest gap keeps one node per bucket on the tables'
        # piecewise-uniform grids; the floor bounds the bucket count when
        # two nodes nearly coincide
        width = max(np.min(self._gaps) / 2.0, (nodes[-1] - lo) / (8 * len(nodes)))
        self._lo, self._inv_width = lo, 1.0 / width
        node_bucket = self._bucket(nodes)
        buckets = np.arange(node_bucket[-1] + 1)
        first = np.searchsorted(node_bucket, buckets)   # first node of bucket >= j
        per_bucket = int(np.max(np.bincount(node_bucket)))
        padded = np.concatenate([nodes, np.full(per_bucket, np.inf)])
        self._cell_base = first - 1
        self._bucket_nodes = [padded[first + r] for r in range(per_bucket)]

    def _bucket(self, q):
        return ((q - self._lo) * self._inv_width).astype(np.intp)

    def _cell(self, q):
        """``np.searchsorted(self.nodes, q) - 1`` for ``|q| < nodes[-1]``."""
        j = self._bucket(q)
        cell = self._cell_base[j]
        for node in self._bucket_nodes:
            cell += node[j] < q
        return cell

    def credit(self, a, b):
        """Bilinear lookup of the expected band time for endpoint arrays."""
        lim = self.nodes[-1]
        out = np.zeros(a.shape)
        live = (np.abs(a) < lim) & (np.abs(b) < lim)
        if not live.any():
            return out
        q = np.concatenate((a[live], b[live]))   # both endpoints in one pass
        cell = self._cell(q)
        w = (q - self.nodes[cell]) / self._gaps[cell]
        u = 1 - w
        m = len(q) // 2
        wa, wb, ua, ub = w[:m], w[m:], u[:m], u[m:]
        row = len(self.nodes)
        k = cell[:m] * row + cell[m:]
        flat = self._flat
        out[live] = (ua * ub * flat[k] + wa * ub * flat[k + row]
                     + ua * wb * flat[k + 1] + wa * wb * flat[k + row + 1])
        return out


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
    ``path.spans``; the curve keeps its value after them.  With
    ``credit_table`` (built for this ``epsilon``) the full-length steps are
    looked up and the partial step is integrated.
    """
    if epsilon <= 0.0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    if credit_table is not None and credit_table.epsilon != epsilon:
        raise DomainError(f"credit table is for epsilon {credit_table.epsilon}, "
                          f"not {epsilon}")
    n = path.live_steps
    spans = path.spans[:n]
    a = path.beta[:n]
    b = path.beta[1:n + 1]
    if credit_table is not None:
        # every credit depends on its own step alone: look all steps up, then
        # integrate the irregular ones over their table values
        credits = credit_table.credit(a - x, b - x)
        irr = np.flatnonzero(np.abs(spans - credit_table.span)
                             > 1e-9 * credit_table.span)
        if len(irr):
            credits[irr] = _band_time_credits(a[irr], b[irr], spans[irr], x, epsilon)
    else:
        credits = _band_time_credits(a, b, spans, x, epsilon)
    head = np.concatenate([[0.0], np.cumsum(credits / (2.0 * epsilon))])
    return LocalTimeCurve(float(x), path.grid, path.stopped(head))


def tanaka_estimate(path, x, monotone=True):
    """Discrete Tanaka local time at level x.

    Raw curve: |beta_t - x| - |beta_0 - x| - sum of sign(beta - x) increments,
    with sign(0) = -1.  With ``monotone=True`` (default) the curve is
    projected onto its running maximum.  The path is zero from the default
    time on, so the sum runs over its ``live_steps`` and the curve keeps its
    value after them.
    """
    beta = path.beta[:path.live_steps + 1]
    centered = beta - x
    sgn = np.where(centered > 0.0, 1.0, -1.0)
    stoch = np.concatenate([[0.0], np.cumsum(sgn[:-1] * np.diff(beta))])
    raw = np.abs(centered) - abs(centered[0]) - stoch
    head = np.maximum.accumulate(raw) if monotone else raw
    return LocalTimeCurve(float(x), path.grid, path.stopped(head))


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
