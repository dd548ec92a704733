"""The stopped per-path route against the full-grid reference construction.

Sampling draws normals only through the step that holds the default time,
and the local-time and compensator curves are computed on the steps before
it and held after.  Every array must equal the full-grid construction of
``oracles`` bit for bit, on several laws and step sizes, including a default
in the first step, a default exactly on a knot and a default beyond the
horizon.
"""

import math

import numpy as np
import pytest

from infobridge.compensator import compensator_curve
from infobridge.distributions import parse_distribution
from infobridge.laws import ModelContext, compensator_weights
from infobridge.localtime import BandCreditTable, occupation_estimate, tanaka_estimate
from infobridge.paths import RandomStream, TimeGrid, sample_path_direct

from oracles import (
    full_grid_compensator,
    full_grid_occupation,
    full_grid_path,
    full_grid_spans,
    full_grid_tanaka,
)

LAWS = ("exp:1.0", "gamma:2,2", "uniform:0,0.5", "lognormal:0,0.5")
STEPS = ((0.01, 1.0), (2.5e-4, 0.2))   # (dt, band half-width in units of sqrt(dt))


class _StubGen:
    """Generator whose uniform is fixed; normals come from a Philox stream."""

    def __init__(self, u, seed):
        self.u = u
        self.normals = RandomStream(seed, 0).generator()

    def random(self):
        return self.u

    def standard_normal(self, size=None):
        return self.normals.standard_normal(size)


@pytest.fixture(scope="module", params=STEPS, ids=["dt0.01", "dt2.5e-4"])
def setting(request):
    dt, coeff = request.param
    eps = coeff * math.sqrt(dt)
    return dt, eps, BandCreditTable(dt, eps)


def _same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _check(ctx, grid, w, make_gen, eps, table):
    path = sample_path_direct(ctx, grid, make_gen())
    tau, beta = full_grid_path(ctx, grid, make_gen())
    assert path.tau == tau
    _same(path.beta, beta)
    _same(path.spans, full_grid_spans(path))
    for x in (0.0, 0.6 * eps):
        lt = occupation_estimate(path, x, eps, credit_table=table)
        _same(lt.values, full_grid_occupation(path, x, eps, table))
        _same(occupation_estimate(path, x, eps).values,
              full_grid_occupation(path, x, eps))
    for x in (0.0, -0.05):
        _same(tanaka_estimate(path, x).values, full_grid_tanaka(path, x))
    for lt in (occupation_estimate(path, 0.0, eps, credit_table=table),
               tanaka_estimate(path, 0.0)):
        _same(compensator_curve(path, lt, w), full_grid_compensator(lt.values, w))
    return path


@pytest.mark.parametrize("law", LAWS)
def test_prefix_route_matches_full_grid(law, setting):
    dt, eps, table = setting
    ctx = ModelContext(parse_distribution(law))
    grid = TimeGrid.regular(2.0, dt)
    w = compensator_weights(ctx, grid.knots)
    n = 12 if dt < 0.005 else 40
    for i in range(n):
        _check(ctx, grid, w, lambda: RandomStream(909, i).generator(), eps, table)


def _u_on_knot(dist, knots):
    """A uniform whose inversion lands exactly on an interior knot."""
    for k in range(len(knots) // 10, len(knots) // 10 + 40):
        u = float(dist.cdf_F(knots[k]))
        lo = hi = u
        for _ in range(64):
            for c in (lo, hi):
                if 0.0 <= c < 1.0 and dist.quantile(c) == knots[k]:
                    return c
            lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, 1.0)
    raise AssertionError("no uniform inverts onto a knot")


@pytest.mark.parametrize("law", LAWS)
def test_prefix_route_at_the_edges(law, setting):
    dt, eps, table = setting
    ctx = ModelContext(parse_distribution(law))
    grid = TimeGrid.regular(2.0, dt)
    w = compensator_weights(ctx, grid.knots)
    # default inside the first step
    p = _check(ctx, grid, w, lambda: _StubGen(1e-300, 5), eps, table)
    assert 0.0 < p.tau < grid.knots[1] and p.live_steps == 1
    # default exactly on a knot: the step ending there is the last live one
    u = _u_on_knot(ctx.dist, grid.knots)
    p = _check(ctx, grid, w, lambda: _StubGen(u, 6), eps, table)
    k = int(np.flatnonzero(grid.knots == p.tau)[0])
    assert p.live_steps == k
    # default beyond the horizon: every step and one extra normal
    short = TimeGrid.regular(0.4, dt)
    p = _check(ctx, short, compensator_weights(ctx, short.knots),
               lambda: _StubGen(0.999, 7), eps, table)
    assert p.tau > short.t_max and p.live_steps == len(short.knots) - 1


def test_normals_are_a_prefix_of_a_longer_draw():
    for m, n in ((0, 5), (1, 8000), (3435, 8000), (7999, 8000)):
        short = RandomStream(31, 4).generator().standard_normal(m)
        long = RandomStream(31, 4).generator().standard_normal(n)
        assert short.tobytes() == long[:m].tobytes()
