"""Discretized realizations of the information process.

Two constructions of the same law:

* ``sample_path_direct`` draws the default time, then builds the bridge from
  plain Brownian increments through
  ``beta_t = W_t - t / max(tau, t) * W_{max(tau, t)}``;
* ``sample_path_given_tau`` fixes the pinning horizon and samples the exact
  Gaussian bridge transitions sequentially (via the equivalent martingale
  cumulative form, which is the same recursion with the draws consumed in
  the same order).

The default state is encoded exactly: at every knot at or after the default
time the stored value is literal floating-point zero, so downstream modules
can detect default without tolerance thresholds.  Every path lives on the
grid its caller passed in.  The grid step that contains the default time is
a partial step: it ends at the default time with value zero, and its length
(``InformationPath.spans``) is cut there, which keeps the frozen tail, the
quadratic variation and the local time free of O(dt) bias at the default.
No step after it moves the path, so ``sample_path_direct`` draws normals only
through that step, and the per-path curves (local time, compensator) are
computed on the first ``InformationPath.live_steps`` steps and held
constant after them (``InformationPath.stopped``).

An ``InformationPath`` may also hold a batch of paths on one grid: ``tau``
of shape (rows,) and ``beta`` of shape (rows, knots).  ``spans``,
``stopped``, ``quadratic_variation``, ``recover_b``, the two local-time
estimators and ``compensator_curve`` work along the last axis, so a single
path is a batch of one.  Rows stop at different steps: a batch is computed
up to its longest row's last live step, the elementwise kernels see only
each row's own live steps (picked by mask), running sums and maxima run
along each row in order, and every row is held from its own last live knot
on, so each row has the bits of its single-path call.

Randomness comes from counter-based streams: path ``i`` of master seed ``m``
uses a Philox generator keyed by the 128-bit pair (m, i), so ensembles are
reproducible path-by-path no matter how work is scheduled across processes.
How many normals a path draws depends on its default time, so a caller that
passes one raw Generator to several calls gets later draws that depend on
the earlier paths' default times; streams keyed per path are unaffected.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError

__all__ = [
    "TimeGrid",
    "RandomStream",
    "InformationPath",
    "sample_path_direct",
    "sample_path_given_tau",
    "quadratic_variation",
    "running_max_abs",
    "recover_b",
    "restrict_path",
]

_U64 = (1 << 64) - 1


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing knots from 0; the last one is the horizon."""

    knots: np.ndarray

    @property
    def t_max(self):
        return float(self.knots[-1])

    @classmethod
    def regular(cls, t_max, dt):
        """Equal steps of at most ``dt`` from 0 to ``t_max``."""
        if dt <= 0.0:
            raise DomainError(f"dt must be positive, got {dt}")
        if t_max <= dt:
            raise DomainError(f"t_max must exceed dt, got t_max={t_max}, dt={dt}")
        steps = t_max / dt
        try:
            knots = np.linspace(0.0, t_max, int(math.ceil(steps - 1e-12)) + 1)
        except (OverflowError, ValueError, MemoryError) as exc:
            raise DomainError(f"dt={dt} gives {steps:.3g} steps, more than can "
                              f"be allocated") from exc
        return cls(knots)

    def index_of(self, t):
        """Index of the knot equal to ``t``; raises if absent."""
        pos = int(np.searchsorted(self.knots, t))
        if pos >= len(self.knots) or self.knots[pos] != t:
            raise DomainError(f"time {t} is not a grid knot")
        return pos


@dataclass(frozen=True)
class RandomStream:
    """Counter-based random stream for one path of one ensemble.

    Streams with distinct (master_seed, path_index) pairs are independent by
    the keying scheme of the underlying Philox generator, and a given pair
    always reproduces the same draws.
    """

    master_seed: int
    path_index: int = 0

    def generator(self):
        key = (int(self.master_seed) & _U64) | (int(self.path_index) << 64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class InformationPath:
    """One discretized realization of (default time, information process),
    or a batch of them on one grid (``tau`` of shape (rows,), ``beta`` of
    shape (rows, knots))."""

    tau: float
    grid: TimeGrid
    beta: np.ndarray

    @cached_property
    def live_steps(self):
        """Number of grid steps whose left knot lies before the default time
        (an array with one count per row for a batch).

        These steps, the last of them the one holding the default time (or
        the last grid step when the default lies beyond the horizon), are
        the only ones that move the path, its local time or its compensator.
        """
        n = np.searchsorted(self.grid.knots[:-1], self.tau)
        return n if isinstance(n, np.ndarray) else int(n)

    @cached_property
    def live(self):
        """``_steps_before(self.live_steps)``: the largest live-step count
        and the index of every row's live steps in an array of that many."""
        return _steps_before(self.live_steps)

    @cached_property
    def spans(self):
        """Step lengths cut at the default time.

        The step containing the default time ends there; later steps have
        length zero.  Computed once per path and read-only: every caller
        shares the array.
        """
        knots = self.grid.knots
        w, live = self.live
        out = np.zeros(self.beta.shape[:-1] + (len(knots) - 1,))
        cut = np.minimum(knots[1:w + 1], np.asarray(self.tau)[..., None]) - knots[:w]
        out[..., :w][live] = cut[live]
        out.flags.writeable = False
        return out

    def stopped(self, head):
        """A curve on the path grid stopped at the default time: ``head``
        holds its values on the knots of the steps it sums, and the curve
        keeps its last value after them.  On a batch ``head`` runs as far
        as its longest row, and every row must already hold its own last
        value on the knots after its steps: each curve here is a running
        sum or maximum whose steps past a row's count are exactly zero."""
        out = np.empty(head.shape[:-1] + (len(self.grid.knots),))
        out[..., :head.shape[-1]] = head
        out[..., head.shape[-1]:] = head[..., -1:]
        return out

    def validate(self):
        """Check the exact-zero encoding of the default state."""
        k = self.grid.knots
        if self.beta[0] != 0.0:
            raise AssertionError("path must start at zero")
        after = self.beta[k >= self.tau]
        if after.size and np.any(after != 0.0):
            raise AssertionError("nonzero value at or after the default time")
        before = self.beta[(k > 0.0) & (k < self.tau)]
        if before.size and np.any(before == 0.0):
            raise AssertionError("exact zero before the default time")


def _steps_before(n):
    """The first ``n`` steps of each path, for a count ``n`` per path (an
    int, or an array with one count per row of a batch).

    Returns the largest count ``w`` and the index of those steps in an
    array of ``w`` steps per row: ``...`` when every row has all ``w`` of
    them, else a mask.
    """
    if not isinstance(n, np.ndarray):
        return int(n), ...
    w = int(n.max())
    return w, (... if n.min() == w else np.arange(w) < n[:, None])


def _generator_of(rng):
    return rng.generator() if hasattr(rng, "generator") else rng


def sample_path_direct(ctx, grid, rng):
    """Draw the default time, then the bridge from raw Brownian increments.

    The draw order per stream is fixed: one uniform for the default time,
    then one standard normal per grid step up to and including the step
    that holds the default time, or per grid step and one extra normal to
    reach the default time when it lies beyond the grid horizon.  Inside the
    grid, the normal of the step containing the default time also carries W
    from the step's left knot to the default time.  Steps after it draw
    nothing: the path is zero there.  A Generator's first m normals do not
    depend on how many more it is asked for, so every drawn value, and the
    path, is the one a draw of every grid step gives.
    """
    gen = _generator_of(rng)
    tau = ctx.dist.sample_tau(gen)
    knots = grid.knots
    path = InformationPath(tau, grid, np.zeros(len(knots)))
    n = path.live_steps
    if n == 0:  # tau = 0: the path starts in default
        return path
    z = gen.standard_normal(n)
    w = np.empty(n + 1)
    w[0] = 0.0
    np.cumsum(np.sqrt(np.diff(knots[:n + 1])) * z, out=w[1:])
    if tau <= grid.t_max:
        w_tau = w[n - 1] + math.sqrt(tau - knots[n - 1]) * z[n - 1]
        m = n  # knots before tau; knot n is at or past it
    else:
        w_tau = w[-1] + math.sqrt(tau - grid.t_max) * gen.standard_normal()
        m = n + 1
    path.beta[1:m] = w[1:m] - knots[1:m] / tau * w_tau
    return path


def sample_path_given_tau(r, grid, rng):
    """Exact sequential bridge transitions for a fixed pinning horizon r.

    Given the value at t_k, the value at t_{k+1} < r is Gaussian with mean
    scaled by (r - t_{k+1}) / (r - t_k) and variance
    (t_{k+1} - t_k)(r - t_{k+1}) / (r - t_k); from r on the path is zero.
    The recursion is evaluated in its equivalent cumulative form
    beta_k = (r - t_k) * sum_j z_j * sqrt(dt_j / ((r - t_j)(r - t_{j+1}))).
    """
    if r <= 0.0:
        raise DomainError(f"bridge length must be positive, got {r}")
    gen = _generator_of(rng)
    knots = grid.knots
    live = knots[1:] < r  # steps whose right endpoint needs a draw
    t0, t1 = knots[:-1][live], knots[1:][live]
    z = gen.standard_normal(int(live.sum()))
    dm = z * np.sqrt((t1 - t0) / ((r - t0) * (r - t1)))
    m = np.cumsum(dm)
    beta = np.zeros(len(knots))
    beta[1:][live] = (r - t1) * m
    return InformationPath(float(r), grid, beta)


def quadratic_variation(values):
    """Running sum of squared increments of a curve's knot values, such as
    ``path.beta`` or ``recover_b``'s b, along the last axis; flat from the
    default time on."""
    d = values[..., 1:] - values[..., :-1]
    out = np.empty(values.shape)
    out[..., 0] = 0.0
    np.cumsum(d * d, axis=-1, out=out[..., 1:])
    return out


def running_max_abs(path):
    """Running maximum of the absolute information value."""
    return np.maximum.accumulate(np.abs(path.beta))


def recover_b(path, drift_table):
    """Driving Brownian motion (stopped at default) recovered from the path.

    Adds back the mean-reversion drift, read from ``drift_table`` (a
    ``laws.DriftTable``), via a left-endpoint Riemann sum over the full steps
    before the default time; the partial step ending at the default time is
    skipped (the drift integrand blows up there while staying integrable,
    and the omitted contribution vanishes with dt).  Those full steps are a
    prefix of the grid's steps: the drift is evaluated on their left knots
    alone and summed into the output, which keeps the sum from the default
    time on.  A caller that reads b only up to some knot may pass the path's
    head ending there (same default time, the grid cut at that knot) and
    gets the same values on its knots.  On a batch, each row is its own path.
    """
    knots = path.grid.knots
    m = np.searchsorted(knots[1:], path.tau)  # full steps before tau, per row
    w, full = _steps_before(m)
    beta = path.beta[..., :w]
    left = np.broadcast_to(knots[:w], beta.shape)[full]
    width = np.broadcast_to(knots[1:w + 1] - knots[:w], beta.shape)[full]
    incr = np.zeros(beta.shape)
    incr[full] = drift_table.evaluate(left, beta[full]) * width
    head = np.zeros(beta.shape[:-1] + (w + 1,))
    np.cumsum(incr, axis=-1, out=head[..., 1:])
    return path.stopped(head) + path.beta


def restrict_path(path, coarse_grid):
    """The same realization viewed on a coarser grid.

    The result lives on ``coarse_grid`` itself, with values selected from
    the fine path; every coarse knot must be a knot of the path.  Its step
    containing the default time is again a partial step.  Used for
    step-halving control runs.
    """
    knots = coarse_grid.knots
    idx = np.searchsorted(path.grid.knots, knots)
    if np.any(idx >= len(path.grid.knots)) or np.any(path.grid.knots[idx] != knots):
        raise DomainError("coarse grid is not a subset of the path grid")
    return InformationPath(path.tau, coarse_grid, path.beta[idx].copy())
