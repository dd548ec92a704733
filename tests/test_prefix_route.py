"""The stopped per-path route against the full-grid reference construction.

Sampling draws normals only through the step that holds the default time,
and the local-time and compensator curves are computed on the steps before
it and held after.  Every array must equal the full-grid construction of
``oracles`` bit for bit, on several laws and step sizes, including a default
in the first step, a default exactly on a knot and a default beyond the
horizon.

The ensemble reads each recorded group on the head of the path that ends at
the group's last knot; every ``EnsembleTable`` array must equal the readout
of the whole-grid curves (``oracles.full_curve_row``) bit for bit, with the
default before, at and after every recorded knot.
"""

import math

import numpy as np
import pytest

from dataclasses import fields, replace

from infobridge import ensemble
from infobridge.compensator import compensator_curve
from infobridge.distributions import parse_distribution
from infobridge.ensemble import EnsembleJob, EnsembleTable, run_ensemble
from infobridge.errors import DomainError
from infobridge.laws import DriftTable, ModelContext, compensator_weights
from infobridge.localtime import BandCreditTable, occupation_estimate, tanaka_estimate
from infobridge.quadrature import TILE_ELEMENTS
from infobridge.paths import (
    RandomStream,
    TimeGrid,
    recover_b,
    restrict_path,
    sample_path_direct,
)

from oracles import (
    drift_table_evaluate,
    full_curve_row,
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
        _same(lt.values, full_grid_occupation(path, x, eps))
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


# ---------------------------------------------------------------------------
# recorded groups read on the path's head
# ---------------------------------------------------------------------------

_ROW_FIELDS = [f.name for f in fields(EnsembleTable) if "dims" in f.metadata]


def _run_on(job, paths, monkeypatch):
    """``job`` run serially with ``paths`` as its sampled paths."""
    monkeypatch.setattr(ensemble, "sample_path_direct",
                        lambda ctx, grid, rng: paths[rng.path_index])
    return run_ensemble(job, len(paths), workers=1)


def _rows_match(job, paths, monkeypatch):
    """Run ``job`` serially on ``paths``, compare every table array with the
    whole-grid readout of each path, and return the table."""
    table = _run_on(job, paths, monkeypatch)
    for i, path in enumerate(paths):
        want = full_curve_row(job, path)
        for name in _ROW_FIELDS:
            got = getattr(table, name)[i]
            if name in want:
                ref = np.asarray(want[name], dtype=float).reshape(got.shape)
                _same(got, ref)
            else:
                assert got.size == 0, name
    return table


def _job(ctx, grid, estimator, **recorded):
    dt = float(np.min(np.diff(grid.knots)))
    eps = 0.5 * math.sqrt(dt)
    table = BandCreditTable(dt, eps) if estimator == "occupation" else None
    fields_ = dict(times=(0.5, 2.0), s_nodes=(0.5,), kh=(0.2,),
                   drift_table=DriftTable.build(ctx, np.linspace(0.0, 2.0, 11)))
    fields_.update(recorded)
    return EnsembleJob(ctx=ctx, grid=grid, master_seed=0, eps=eps,
                       estimator=estimator,
                       weights=compensator_weights(ctx, grid.knots),
                       credit_table=table, **fields_)


def _defaults_around(dist, knots, recorded):
    """Uniforms whose default times fall just before, on (where a uniform
    inverts exactly onto the knot) and just after every recorded knot, in
    the first step and beyond the horizon."""
    us = [1e-300, 1.0 - 1e-4]
    for r in recorded:
        k = int(np.flatnonzero(knots == r)[0])
        for t in (r - 0.3 * (r - knots[k - 1]), r):
            us.append(float(dist.cdf_F(t)))
        if k + 1 < len(knots):
            us.append(float(dist.cdf_F(r + 0.3 * (knots[k + 1] - r))))
    return us


def _irregular_grid(dist):
    """A 43-knot grid on [0, 2] with two knots that are exact quantiles, so
    a default can fall on them; returns the grid, those knots and their
    uniforms."""
    u1, u2 = float(dist.cdf_F(0.62)), float(dist.cdf_F(1.13))
    r1, r2 = dist.quantile(u1), dist.quantile(u2)
    grid = TimeGrid(np.unique(np.concatenate([np.linspace(0.0, 2.0, 41), [r1, r2]])))
    return grid, (r1, r2), (u1, u2)


@pytest.mark.parametrize("law,estimator", [("gamma:2,2", "tanaka"),
                                           ("exp:1.0", "occupation")])
def test_recorded_groups_read_on_heads(law, estimator, monkeypatch):
    ctx = ModelContext(parse_distribution(law))
    dist = ctx.dist
    grid, (r1, r2), (u1, u2) = _irregular_grid(dist)
    knots = grid.knots
    first = float(knots[1])
    recorded = (first, 0.5, r1, r2, 2.0)
    us = _defaults_around(dist, knots, recorded) + [u1, u2]
    paths = [sample_path_direct(ctx, grid, _StubGen(u, 40 + i)) for i, u in enumerate(us)]
    taus = [p.tau for p in paths]
    assert taus[0] < first and taus[1] > grid.t_max
    assert r1 in taus and r2 in taus
    probes = ((r1, 0.0), (r2, 0.1), (2.0, -0.1), (first, 0.0))
    jobs = [
        # K's group ends before t_max; b's head is shorter than its QV's
        _job(ctx, grid, estimator, times=(0.5, r1, r2), b_nodes=(r1,),
             qv_nodes=(r2,), lt_probe=probes),
        # K's group ends at t_max (the path itself); b without QV
        _job(ctx, grid, estimator, b_nodes=(0.5, r2), lt_probe=probes[2:]),
        # QV without b, on a head longer than K's
        _job(ctx, grid, estimator, times=(first, r1), qv_nodes=(r1, 2.0)),
    ]
    for job in jobs:
        _rows_match(job, paths, monkeypatch)


def test_recorded_groups_on_a_restricted_grid(monkeypatch):
    ctx = ModelContext(parse_distribution("gamma:2,2"))
    fine = TimeGrid.regular(2.0, 0.01)
    pick = [0, 3, 4, 10, 11, 12, 30, 50, 51, 77, 100, 140, 150, 199, 200]
    coarse = TimeGrid(fine.knots[pick])
    paths = [restrict_path(sample_path_direct(ctx, fine, RandomStream(55, i)), coarse)
             for i in range(24)]
    assert any(p.tau < coarse.t_max for p in paths)
    k = [float(t) for t in coarse.knots]
    recorded = dict(times=(k[7], k[10]), s_nodes=(k[7],), b_nodes=(k[6], k[10]),
                    qv_nodes=(k[11],),
                    lt_probe=((k[10], 0.0), (k[2], 0.0), (k[12], 0.2)))
    for estimator in ("tanaka", "occupation"):
        _rows_match(_job(ctx, coarse, estimator, **recorded), paths, monkeypatch)


def _batched_paths(ctx, grid, sample, seed):
    """Paths filling two sub-batches of a chunk and part of a third; the
    first three rows of the second sub-batch default at time 0, exactly on
    an interior knot and beyond the horizon."""
    per_batch = TILE_ELEMENTS // len(grid.knots)
    edges = [sample(_StubGen(u, seed + k)) for k, u in
             enumerate((0.0, _u_on_knot(ctx.dist, grid.knots), 1.0 - 1e-6))]
    assert edges[0].live_steps == 0 and edges[1].tau in grid.knots
    assert edges[2].tau > grid.t_max
    paths = [sample(RandomStream(seed, i)) for i in range(2 * per_batch + 37)]
    paths[per_batch:per_batch + 3] = edges
    return paths


@pytest.mark.parametrize("estimator", ["tanaka", "occupation"])
@pytest.mark.parametrize("grid_kind", ["irregular", "restricted"])
def test_rows_do_not_depend_on_their_sub_batch(grid_kind, estimator, monkeypatch):
    # Enough paths for several sub-batches: each row equals its whole-grid
    # readout, and the same paths run in another order give the same rows.
    ctx = ModelContext(parse_distribution("gamma:2,2"))
    if grid_kind == "irregular":
        grid, (r1, r2), _ = _irregular_grid(ctx.dist)
        paths = _batched_paths(ctx, grid, lambda rng: sample_path_direct(ctx, grid, rng), 60)
    else:
        fine = TimeGrid.regular(2.0, 0.01)
        grid = TimeGrid(fine.knots[sorted(set(range(0, 201, 4)) | {3, 11, 51, 77, 199})])
        r1, r2 = float(grid.knots[13]), float(grid.knots[27])
        paths = _batched_paths(
            ctx, grid, lambda rng: restrict_path(sample_path_direct(ctx, fine, rng), grid), 61)
    assert len(paths) > 2 * TILE_ELEMENTS // len(grid.knots)
    mid, end = float(grid.knots[len(grid.knots) // 4]), grid.t_max
    job = _job(ctx, grid, estimator, times=(mid, r1, end), s_nodes=(r1,),
               b_nodes=(mid, r2), qv_nodes=(r1,),
               lt_probe=((r1, 0.0), (r2, 0.2), (end, -0.1)))
    table = _rows_match(job, paths, monkeypatch)
    order = np.random.default_rng(7).permutation(len(paths))
    shuffled = _run_on(job, [paths[i] for i in order], monkeypatch)
    for name in _ROW_FIELDS:
        _same(getattr(shuffled, name), getattr(table, name)[order])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("group", ["b_nodes", "qv_nodes", "lt_probe"])
def test_off_grid_recorded_time_raises_before_any_path(group, workers, monkeypatch):
    ctx = ModelContext(parse_distribution("gamma:2,2"))
    grid = TimeGrid.regular(2.0, 0.01)
    job = _job(ctx, grid, "tanaka")
    off = 0.505
    value = ((off, 0.0),) if group == "lt_probe" else (0.5, off)
    job = replace(job, **{group: value})

    def no_path(*args):
        raise AssertionError("a path was sampled")

    monkeypatch.setattr(ensemble, "sample_path_direct", no_path)
    with pytest.raises(DomainError, match="not a grid knot"):
        run_ensemble(job, 1024, workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("group", ["b_nodes", "qv_nodes"])
def test_b_without_drift_table_raises_before_any_path(group, workers, monkeypatch):
    ctx = ModelContext(parse_distribution("gamma:2,2"))
    grid = TimeGrid.regular(2.0, 0.01)
    job = replace(_job(ctx, grid, "tanaka"), drift_table=None, **{group: (0.5,)})

    def no_path(*args):
        raise AssertionError("a path was sampled")

    monkeypatch.setattr(ensemble, "sample_path_direct", no_path)
    with pytest.raises(DomainError, match="drift_table"):
        run_ensemble(job, 1024, workers=workers)


def test_drift_table_alone_recovers_no_b(monkeypatch):
    ctx = ModelContext(parse_distribution("gamma:2,2"))
    grid = TimeGrid.regular(2.0, 0.05)
    job = _job(ctx, grid, "tanaka", lt_probe=((1.0, 0.0),))
    assert job.drift_table is not None and not job.b_nodes and not job.qv_nodes
    calls = []

    def counted(*args):
        calls.append(args)
        return recover_b(*args)

    monkeypatch.setattr(ensemble.paths, "recover_b", counted)
    table = run_ensemble(job, 30, workers=1)
    assert calls == []
    assert table.b.shape == (30, 0) and table.qv_b.shape == (30, 0)


def test_drift_evaluate_matches_reference():
    ctx = ModelContext(parse_distribution("gamma:2,2"))
    table = DriftTable.build(ctx, np.linspace(0.0, 2.0, 11))
    x_max = table.x_nodes[-1]
    rng = np.random.default_rng(12)
    s_edge = np.array([-0.0, 0.0, -0.5, 0.05, 1.0, 2.0, 2.5, 1e9])
    b_edge = np.array([0.0, -0.0, 1e-12, -1e-12, x_max, -x_max,
                       2.0 * x_max, -3.0 * x_max, 0.7, -0.7])
    s_grid, b_grid = (a.ravel() for a in np.meshgrid(s_edge, b_edge))
    for n in (1, 7, 64, 1000):
        s = rng.uniform(-0.5, 2.5, n)
        b = rng.normal(0.0, x_max / 2.0, n)
        _same(table.evaluate(s, b), drift_table_evaluate(table, s, b))
    _same(table.evaluate(s_grid, b_grid), drift_table_evaluate(table, s_grid, b_grid))
    for s0, b0 in zip(s_grid, b_grid):
        got = table.evaluate(np.array([s0]), np.array([b0]))
        _same(got, drift_table_evaluate(table, np.array([s0]), np.array([b0])))
