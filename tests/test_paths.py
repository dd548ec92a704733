import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from infobridge.distributions import DefaultDistribution, parse_distribution
from infobridge.errors import DomainError
from infobridge.laws import DriftTable, ModelContext
from infobridge.paths import (
    InformationPath,
    RandomStream,
    TimeGrid,
    quadratic_variation,
    recover_b,
    restrict_path,
    running_max_abs,
    sample_path_direct,
    sample_path_given_tau,
)

from oracles import adaptive_recover_b

KS2_CRIT_1PCT = 1.6276


@pytest.fixture(scope="module")
def ctx_exp():
    return ModelContext(DefaultDistribution.exponential(1.0))


def _bridge_values(r, grid, master_seed, n_paths, idx):
    """Stack bridge-conditional path values at the given knot indices."""
    ctx = ModelContext(DefaultDistribution.exponential(1.0))
    out = np.empty((n_paths, len(idx)))
    for i in range(n_paths):
        p = sample_path_given_tau(r, ctx, grid, RandomStream(master_seed, i))
        out[i] = p.beta[idx]
    return out


# -- grid and streams ----------------------------------------------------------

def test_regular_grid_shape():
    g = TimeGrid.regular(2.0, 0.25)
    assert g.knots[0] == 0.0 and g.knots[-1] == 2.0
    assert np.all(np.diff(g.knots) <= 0.25 + 1e-15)


def test_grid_validation():
    with pytest.raises(DomainError):
        TimeGrid.regular(1.0, 0.0)
    with pytest.raises(DomainError):
        TimeGrid.regular(0.1, 0.25)


def test_grid_end_is_its_last_knot(ctx_exp):
    # The horizon is read from the knots, so a path whose default lies past
    # the last knot is live on every positive knot: no grid can claim a
    # horizon beyond its knots and leave the last one at zero.
    knots = np.linspace(0.0, 2.0, 201)
    grid = TimeGrid(knots)
    assert [f.name for f in dataclasses.fields(TimeGrid)] == ["knots"]
    assert grid.t_max == 2.0
    late = [p for p in (sample_path_direct(ctx_exp, grid, RandomStream(21, i))
                        for i in range(60)) if p.tau > 2.0]
    assert late
    for p in late:
        p.validate()
        assert p.live_steps == len(knots) - 1 and p.beta[-1] != 0.0


def test_stream_determinism_and_independence():
    a1 = RandomStream(5, 1).generator().standard_normal(4)
    a2 = RandomStream(5, 1).generator().standard_normal(4)
    b = RandomStream(5, 2).generator().standard_normal(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


# -- direct construction ---------------------------------------------------------

def test_direct_path_zero_after_default(ctx_exp):
    grid = TimeGrid.regular(4.0, 0.05)
    for i in range(50):
        p = sample_path_direct(ctx_exp, grid, RandomStream(123, i))
        after = p.beta[p.grid.knots >= p.tau]
        assert np.all(after == 0.0)
        p.validate()


class ZeroUniform:
    """Generator stand-in whose uniform draw is exactly 0.0."""

    def random(self):
        return 0.0

    def standard_normal(self, size=None):
        raise AssertionError("a path that starts in default draws no normals")


@pytest.mark.parametrize("law", ["exp:1.0", "gamma:2,2", "lognormal:0,0.5",
                                 "uniform:0,0.5"])
def test_default_at_time_zero_gives_the_zero_path(law):
    ctx = ModelContext(parse_distribution(law))
    grid = TimeGrid.regular(1.0, 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = sample_path_direct(ctx, grid, ZeroUniform())
    assert p.tau == 0.0 and p.live_steps == 0
    assert p.beta.tobytes() == np.zeros(len(grid.knots)).tobytes()
    assert not np.any(p.spans)
    p.validate()


def test_direct_path_bit_identical_reruns(ctx_exp):
    grid = TimeGrid.regular(2.0, 0.01)
    p1 = sample_path_direct(ctx_exp, grid, RandomStream(77, 3))
    p2 = sample_path_direct(ctx_exp, grid, RandomStream(77, 3))
    assert p1.tau == p2.tau
    assert np.array_equal(p1.beta, p2.beta)


def test_direct_conditional_variance_matches_bridge_law(ctx_exp):
    # Paths with default time near 2 must show bridge variance t(r-t)/r at t=1.
    grid = TimeGrid.regular(1.0, 0.05)
    n = 10 ** 5
    vals = np.empty(n)
    taus = np.empty(n)
    for i in range(n):
        p = sample_path_direct(ctx_exp, grid, RandomStream(2026, i))
        taus[i] = p.tau
        vals[i] = p.beta[p.grid.index_of(1.0)]
    sel = vals[(taus >= 1.95) & (taus <= 2.05)]
    assert len(sel) > 1000
    var = sel.var(ddof=1)
    se = var * math.sqrt(2.0 / (len(sel) - 1))
    assert abs(var - 0.5) <= 3.0 * se


def test_stopping_identity_exact_zero_iff_default(ctx_exp):
    grid = TimeGrid.regular(3.0, 0.1)
    violations = 0
    for i in range(1000):
        p = sample_path_direct(ctx_exp, grid, RandomStream(9, i))
        k = p.grid.knots
        zero = p.beta == 0.0
        expect = k >= p.tau
        violations += int(np.any(zero[k > 0] != expect[k > 0]))
    assert violations == 0


# -- bridge-conditional construction ----------------------------------------------

def test_bridge_marginal_moments(ctx_exp):
    grid = TimeGrid.regular(1.5, 0.05)
    idx = [grid.index_of(0.5), grid.index_of(1.0), grid.index_of(1.5)]
    vals = _bridge_values(2.0, grid, 31, 10 ** 4, idx)
    n = vals.shape[0]
    for j, t in enumerate((0.5, 1.0, 1.5)):
        target = t * (2.0 - t) / 2.0
        mean = vals[:, j].mean()
        var = vals[:, j].var(ddof=1)
        kurt = stats.kurtosis(vals[:, j], fisher=False)
        assert abs(mean) <= 3.0 * math.sqrt(target / n)
        assert abs(var - target) <= 3.0 * target * math.sqrt(2.0 / (n - 1))
        assert abs(kurt - 3.0) <= 3.0 * math.sqrt(24.0 / n)


def test_bridge_zero_from_length_on(ctx_exp):
    grid = TimeGrid.regular(3.0, 0.25)
    p = sample_path_given_tau(2.0, ctx_exp, grid, RandomStream(4, 0))
    k = p.grid.knots
    assert np.all(p.beta[k >= 2.0] == 0.0)
    assert np.all(p.beta[(k > 0) & (k < 2.0)] != 0.0)


def test_bridge_rejects_nonpositive_length(ctx_exp):
    with pytest.raises(DomainError):
        sample_path_given_tau(0.0, ctx_exp, TimeGrid.regular(1.0, 0.1),
                              RandomStream(1, 0))


def test_construction_equivalence_kolmogorov_smirnov(ctx_exp):
    # Direct paths conditioned on tau in a narrow bin around r, against
    # bridge-conditional paths of length r, compared at t = 0.5.
    grid = TimeGrid.regular(0.5, 0.05)
    r = 2.0
    n_direct = 2 * 10 ** 5
    vals = np.empty(n_direct)
    taus = np.empty(n_direct)
    for i in range(n_direct):
        p = sample_path_direct(ctx_exp, grid, RandomStream(1312, i))
        taus[i] = p.tau
        vals[i] = p.beta[-1]
    direct = vals[(taus >= r - 0.01) & (taus <= r + 0.01)]
    assert len(direct) > 300
    bridge = _bridge_values(r, grid, 1414, 10 ** 4, [grid.index_of(0.5)])[:, 0]
    res = stats.ks_2samp(direct, bridge)
    n, m = len(direct), len(bridge)
    crit = KS2_CRIT_1PCT * math.sqrt((n + m) / (n * m))
    assert res.statistic < crit


# -- one grid for every path ------------------------------------------------------

def test_paths_live_on_the_caller_grid(ctx_exp):
    # Every construction keeps the grid it was given; the step containing the
    # default time is cut there, so the spans add up to min(tau, t_max).
    fine = TimeGrid.regular(2.0, 0.01)
    coarse = TimeGrid.regular(2.0, 0.02)
    paths = []
    for i in range(20):
        p = sample_path_direct(ctx_exp, fine, RandomStream(606, i))
        assert p.grid is fine
        q = restrict_path(p, coarse)
        assert q.grid is coarse
        paths += [p, q]
    for r in (0.013, 1.0, 1.5051, 2.0, 3.7):
        p = sample_path_given_tau(r, ctx_exp, fine, RandomStream(607, 0))
        assert p.grid is fine
        paths.append(p)
    taus = [p.tau for p in paths]
    assert min(taus) < 2.0 < max(taus)
    for p in paths:
        spans = p.spans
        assert spans is p.spans and not spans.flags.writeable
        assert len(spans) == len(p.grid.knots) - 1
        assert np.all(spans >= 0.0)
        assert abs(spans.sum() - min(p.tau, p.grid.t_max)) <= 1e-12
        p.validate()


# -- derived processes ------------------------------------------------------------

def test_quadratic_variation_tracks_time_before_default():
    ctx = ModelContext(DefaultDistribution.uniform(8.0, 10.0))
    grid = TimeGrid.regular(2.0, 1e-3)
    p = sample_path_direct(ctx, grid, RandomStream(2026, 0))
    assert p.tau > 2.0
    qv = quadratic_variation(p.beta)
    assert abs(qv[-1] - 2.0) / 2.0 <= 0.05


def test_quadratic_variation_frozen_after_default(ctx_exp):
    grid = TimeGrid.regular(4.0, 0.02)
    for i in range(200):
        p = sample_path_direct(ctx_exp, grid, RandomStream(55, i))
        if p.tau < 4.0:
            break
    assert p.tau < 4.0
    qv = quadratic_variation(p.beta)
    j = int(np.searchsorted(p.grid.knots, p.tau))
    assert np.all(qv[j:] == qv[j])


def test_quadratic_variation_exact_on_synthetic_path():
    n = 1024
    knots = np.arange(n + 1) / 1024.0
    grid = TimeGrid(knots)
    step = math.sqrt(1.0 / 1024.0)
    beta = np.where(np.arange(n + 1) % 2 == 1, step, 0.0)  # increments +-sqrt(dt)
    p = InformationPath(9.0, grid, beta)
    qv = quadratic_variation(p.beta)
    assert np.array_equal(qv, knots)


def test_running_max_abs(ctx_exp):
    grid = TimeGrid.regular(2.0, 0.01)
    p = sample_path_direct(ctx_exp, grid, RandomStream(8, 1))
    m = running_max_abs(p)
    assert m[0] == 0.0
    assert np.all(np.diff(m) >= 0.0)
    assert m[-1] == np.max(np.abs(p.beta))


def test_recover_b_constant_after_default(ctx_exp):
    grid = TimeGrid.regular(4.0, 0.05)
    for i in range(100):
        p = sample_path_direct(ctx_exp, grid, RandomStream(66, i))
        if p.tau < 3.0:
            break
    table = DriftTable.build(ctx_exp, p.grid.knots, x_max=10.0)
    b = recover_b(p, table)
    j = int(np.searchsorted(p.grid.knots, p.tau))
    assert np.allclose(b[j:], b[j], atol=0.0)


def test_recover_b_table_route_matches_exact(ctx_exp):
    grid = TimeGrid.regular(0.5, 0.05)
    p = sample_path_direct(ctx_exp, grid, RandomStream(12, 5))
    table = DriftTable.build(ctx_exp, p.grid.knots, x_max=10.0)
    b_fast = recover_b(p, table)
    b_slow = adaptive_recover_b(p, ctx_exp)
    assert np.max(np.abs(b_fast - b_slow)) < 5e-3


def test_recover_b_at_a_tiny_level(ctx_exp):
    # |beta| = 4.3e-8 at t = 0.01, where the per-knot adaptive drift raises
    # NonConvergence; the table's x = 0 column holds the x -> 0+ limit.
    grid = TimeGrid.regular(2.0, 0.01)
    p = sample_path_direct(ctx_exp, grid, RandomStream(7, 9649))
    assert 0.0 < abs(p.beta[1]) < 1e-7 and p.tau > 0.02
    b = recover_b(p, DriftTable.build(ctx_exp, grid.knots))
    assert np.all(np.isfinite(b))


def test_recover_b_martingale_increments(ctx_exp):
    # Mean increment of b over [0.5, 1.0] vanishes and its quadratic variation
    # up to 1 matches E[min(1, tau)] = 1 - exp(-1), both within 3 SE.
    grid = TimeGrid.regular(1.0, 0.004)
    table = DriftTable.build(ctx_exp, grid.knots, x_max=10.0)
    n = 2000
    inc = np.empty(n)
    qv1 = np.empty(n)
    for i in range(n):
        p = sample_path_direct(ctx_exp, grid, RandomStream(424242, i))
        b = recover_b(p, table)
        g = p.grid
        inc[i] = b[g.index_of(1.0)] - b[g.index_of(0.5)]
        d = np.diff(b[: g.index_of(1.0) + 1])
        qv1[i] = float(np.sum(d * d))
    se_inc = inc.std(ddof=1) / math.sqrt(n)
    assert abs(inc.mean()) <= 3.0 * se_inc
    target = 1.0 - math.exp(-1.0)
    se_qv = qv1.std(ddof=1) / math.sqrt(n)
    assert abs(qv1.mean() - target) <= 3.0 * se_qv


@pytest.mark.parametrize("tau, beta, message", [
    (9.0, [0.5, 0.1, 0.2, 0.3, 0.4], "start at zero"),
    (0.5, [0.0, 0.1, 0.2, 0.3, 0.4], "at or after the default time"),
    (9.0, [0.0, 0.1, 0.0, 0.3, 0.4], "exact zero before the default time"),
], ids=["nonzero-start", "nonzero-after-default", "zero-before-default"])
def test_validate_rejects_a_broken_zero_encoding(tau, beta, message):
    p = InformationPath(tau, TimeGrid(np.linspace(0.0, 1.0, 5)), np.array(beta))
    with pytest.raises(AssertionError, match=message):
        p.validate()


def test_restrict_path_needs_a_subset_grid(ctx_exp):
    p = sample_path_direct(ctx_exp, TimeGrid.regular(1.0, 0.01), RandomStream(3, 9))
    for coarse in (TimeGrid.regular(1.0, 0.03), TimeGrid.regular(2.0, 0.5)):
        with pytest.raises(DomainError, match="not a subset"):
            restrict_path(p, coarse)


def test_restrict_path_keeps_values(ctx_exp):
    fine = TimeGrid.regular(1.0, 0.005)
    coarse = TimeGrid.regular(1.0, 0.01)
    p = sample_path_direct(ctx_exp, fine, RandomStream(3, 9))
    q = restrict_path(p, coarse)
    assert q.tau == p.tau
    for t in (0.25, 0.5, 1.0):
        assert q.beta[q.grid.index_of(t)] == p.beta[p.grid.index_of(t)]
    assert np.all(q.beta[q.grid.knots >= p.tau] == 0)
