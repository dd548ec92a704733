import math
import tracemalloc

import numpy as np
import pytest

from infobridge.distributions import DefaultDistribution
from infobridge.errors import DomainError
from infobridge.laws import ModelContext
from infobridge.localtime import (
    BandCreditTable,
    _band_time_credits,
    level_grid,
    occupation_estimate,
    occupation_formula_residual,
    tanaka_estimate,
)
from infobridge.paths import (
    InformationPath,
    RandomStream,
    TimeGrid,
    running_max_abs,
    sample_path_direct,
    sample_path_given_tau,
)

from oracles import full_grid_tanaka, searchsorted_credit


@pytest.fixture(scope="module")
def ctx_exp():
    return ModelContext(DefaultDistribution.exponential(1.0))


def _ramp_path():
    """Deterministic unit-slope path beta_s = s - 1 on [0, 2] (no default)."""
    n = 1024
    knots = np.arange(n + 1) / 512.0
    grid = TimeGrid(knots, 2.0)
    return InformationPath(9.0, grid, knots - 1.0, "direct")


def test_occupation_on_unit_slope_ramp():
    p = _ramp_path()
    for eps in (0.25, 0.1, 0.5):
        curve = occupation_estimate(p, 0.0, eps)
        assert abs(curve.values[-1] - 1.0) <= 1.0 / 512.0 / (2.0 * eps) + 1e-12


def test_occupation_zero_without_occupancy():
    p = _ramp_path()
    curve = occupation_estimate(p, 3.0, 0.5)
    assert np.all(curve.values == 0.0)


def test_occupation_rejects_bad_epsilon():
    with pytest.raises(DomainError):
        occupation_estimate(_ramp_path(), 0.0, 0.0)


def test_occupation_rejects_credit_table_for_other_epsilon():
    table = BandCreditTable(1.0 / 512.0, 0.1)
    with pytest.raises(DomainError):
        occupation_estimate(_ramp_path(), 0.0, 0.25, credit_table=table)


@pytest.mark.parametrize("dt, coeff", [(2.5e-4, 0.2), (0.01, 1.0), (0.005, 1.0)])
def test_bucketed_cell_index_matches_searchsorted(dt, coeff):
    table = BandCreditTable(dt, coeff * math.sqrt(dt))
    nodes = table.nodes
    lim = nodes[-1]
    rng = np.random.default_rng(4242)
    q = np.concatenate([
        rng.uniform(-lim, lim, 200_000),
        nodes[1:-1],
        np.nextafter(nodes, -np.inf),
        np.nextafter(nodes, np.inf),
    ])
    q = q[np.abs(q) < lim]
    assert np.array_equal(table._cell(q), np.searchsorted(nodes, q) - 1)
    # the lookup equals the searchsorted bilinear formula bit for bit
    a = rng.uniform(-1.1 * lim, 1.1 * lim, 50_000)
    b = np.concatenate([a[1:] + rng.normal(0.0, math.sqrt(dt), len(a) - 1), q[:1]])
    for x, y in ((a, b), (q, q[::-1]), (q, np.roll(q, 7))):
        assert table.credit(x, y).tobytes() == searchsorted_credit(table, x, y).tobytes()


def test_credit_table_is_tile_invariant_and_small():
    # The table is one call per a-row; one call over all node pairs runs
    # other row tiles.  The 339-node table itself is 0.9 MiB; built from
    # full-size node-pair arrays it peaked at 10.3 MiB, untiled at 156 MiB.
    span, eps = 2.5e-4, 0.2 * math.sqrt(2.5e-4)
    tracemalloc.start()
    try:
        table = BandCreditTable(span, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    aa, bb = np.meshgrid(table.nodes, table.nodes, indexing="ij")
    pairs = _band_time_credits(aa.ravel(), bb.ravel(), np.full(aa.size, span),
                               0.0, eps)
    assert pairs.tobytes() == table.table.tobytes()


@pytest.mark.parametrize("ratio", [1e-300, 1e-3, 0.02, 100.0, 1e300])
def test_credit_table_above_node_cap_is_domain_error(ratio):
    # epsilon / sqrt(span) alone sets the node count; 0.02 would need 2167
    # nodes and 100 would need 2077, above the cap of 2048
    with pytest.raises(DomainError):
        BandCreditTable(0.01, ratio * 0.1)


def test_tanaka_raw_is_zero_for_constant_sign(ctx_exp):
    grid = TimeGrid.regular(1.0, 0.01)
    p = sample_path_given_tau(2.0, ctx_exp, grid, RandomStream(17, 0))
    assert np.max(np.abs(full_grid_tanaka(p, -5.0, monotone=False))) < 1e-12
    assert np.max(np.abs(tanaka_estimate(p, -5.0).values)) < 1e-12


def test_tanaka_projection_is_monotone_envelope(ctx_exp):
    grid = TimeGrid.regular(2.0, 0.005)
    p = sample_path_direct(ctx_exp, grid, RandomStream(23, 4))
    raw = full_grid_tanaka(p, 0.0, monotone=False)
    proj = tanaka_estimate(p, 0.0).values
    assert np.all(np.diff(proj) >= 0.0)
    assert np.all(proj >= raw - 1e-15)
    assert np.allclose(proj, np.maximum.accumulate(raw))


def _first_defaulting_path(ctx, grid, seed, before):
    for i in range(500):
        p = sample_path_direct(ctx, grid, RandomStream(seed, i))
        if p.tau < before:
            return p
    raise AssertionError("no defaulting path found")


def test_estimates_frozen_after_default(ctx_exp):
    grid = TimeGrid.regular(3.0, 0.01)
    p = _first_defaulting_path(ctx_exp, grid, 91, 2.0)
    j = int(np.searchsorted(p.grid.knots, p.tau))
    for curve in (occupation_estimate(p, 0.0, 0.05), tanaka_estimate(p, 0.0)):
        assert np.all(curve.values[j:] == curve.values[j])


def test_support_bound_beyond_crossing_reach(ctx_exp):
    # Beyond the knot running max plus the within-step crossing reach the
    # estimates vanish identically (the continuum path overshoots the knots,
    # so the support margin scales with sqrt(dt)).
    grid = TimeGrid.regular(2.0, 0.005)
    reach = 0.04 + math.sqrt(14.0 * 0.005)
    for i in range(10):
        p = sample_path_direct(ctx_exp, grid, RandomStream(37, i))
        m = running_max_abs(p)[-1]
        for x in (m + reach + 0.01, -(m + reach + 0.01), m + 2.0):
            occ = occupation_estimate(p, x, 0.04)
            tan = tanaka_estimate(p, x)
            assert np.all(occ.values == 0.0)
            assert np.max(np.abs(tan.values)) < 1e-12


def test_cross_estimator_ensemble_means_agree(ctx_exp):
    # Both estimators target the same local time; their ensemble means at
    # (t, x) = (1, 0) agree within 3 SE of the paired difference.
    dt = 1e-3
    grid = TimeGrid.regular(1.0, dt)
    eps = math.sqrt(dt)
    n = 256
    occ = np.empty(n)
    tan = np.empty(n)
    for i in range(n):
        p = sample_path_direct(ctx_exp, grid, RandomStream(606, i))
        occ[i] = occupation_estimate(p, 0.0, eps).values[-1]
        tan[i] = tanaka_estimate(p, 0.0).values[-1]
    se = math.sqrt(occ.var(ddof=1) + tan.var(ddof=1)) / math.sqrt(n)
    assert abs(occ.mean() - tan.mean()) <= 3.0 * se


def test_occupation_formula_residual_zero_h():
    p = _ramp_path()
    levels = level_grid(p, 0.1)
    curves = [occupation_estimate(p, float(x), 0.05) for x in levels]
    res = occupation_formula_residual(p, lambda s, x: np.zeros_like(s), levels, curves)
    assert res == 0.0


def test_occupation_formula_residual_unit_h(ctx_exp):
    dt = 1e-3
    grid = TimeGrid.regular(1.0, dt)
    eps = math.sqrt(dt)
    rels = []
    for i in range(20):
        p = sample_path_direct(ctx_exp, grid, RandomStream(515, i))
        levels = level_grid(p, eps)
        curves = [occupation_estimate(p, float(x), eps) for x in levels]
        res = occupation_formula_residual(p, lambda s, x: np.ones_like(s),
                                          levels, curves)
        horizon = min(p.tau, 1.0)
        rels.append(res / horizon)
    assert np.mean(rels) <= 0.05


def test_occupation_formula_residual_indicator(ctx_exp):
    dt = 1e-3
    grid = TimeGrid.regular(1.0, dt)
    eps = math.sqrt(dt)
    rels = []
    for i in range(20):
        p = sample_path_direct(ctx_exp, grid, RandomStream(525, i))
        levels = level_grid(p, eps)
        curves = [occupation_estimate(p, float(x), eps) for x in levels]
        res = occupation_formula_residual(
            p, lambda s, x: np.where(np.abs(x) <= 0.5, 1.0, 0.0), levels, curves)
        rels.append(res / min(p.tau, 1.0))
    assert np.mean(rels) <= 0.05


def test_aggregate_level_continuity(ctx_exp):
    # Ensemble mean of the local time as a function of the level has no jump
    # above the Monte Carlo noise band on a fine level grid.
    dt = 2e-3
    grid = TimeGrid.regular(1.0, dt)
    eps = math.sqrt(dt)
    levels = np.arange(-30, 31) * 0.01
    n = 400
    vals = np.empty((n, len(levels)))
    for i in range(n):
        p = sample_path_direct(ctx_exp, grid, RandomStream(717, i))
        knots = p.grid.knots
        steps = np.diff(knots)
        active = knots[:-1] < p.tau
        left = p.beta[:-1]
        for j, x in enumerate(levels):
            inband = active & (np.abs(left - x) <= eps)
            vals[i, j] = np.sum(steps[inband]) / (2.0 * eps)
    means = vals.mean(axis=0)
    jumps = np.abs(np.diff(means))
    se = vals.std(axis=0, ddof=1) / math.sqrt(n)
    band = 3.0 * np.sqrt(se[1:] ** 2 + se[:-1] ** 2)
    assert np.all(jumps <= band)

