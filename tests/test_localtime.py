import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

from oracles import adaptive_band_credit, full_grid_tanaka


@pytest.fixture(scope="module")
def ctx_exp():
    return ModelContext(DefaultDistribution.exponential(1.0))


def _ramp_path():
    """Deterministic unit-slope path beta_s = s - 1 on [0, 2] (no default)."""
    n = 1024
    knots = np.arange(n + 1) / 512.0
    grid = TimeGrid(knots)
    return InformationPath(9.0, grid, knots - 1.0)


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


def test_credit_table_edge_step_is_exact():
    # The credit_table keyword changes no credit.  A batch with a partial
    # step at tau, and steps from the band's centre at 0 and at -0.3 to
    # beyond eps + sqrt(14 span), where a lookup table of endpoint credits
    # would end, read at levels on and off 0.
    span, eps = 1.0 / 512.0, 0.1
    reach = eps + math.sqrt(14.0 * span)
    rng = np.random.default_rng(77)
    beta = np.zeros((3, 1025))
    beta[0, 2:] = reach
    beta[1, 1:3], beta[1, 3:] = -0.3, -0.3 - reach
    beta[2, 1:] = np.cumsum(rng.normal(0.0, math.sqrt(span), 1024))
    tau = np.array([9.0, 9.0, 700.4 / 512.0])
    beta[2, 701:] = 0.0
    p = InformationPath(tau, TimeGrid(np.arange(1025) / 512.0), beta)
    assert 0.0 < p.spans[2, 700] < span
    record = BandCreditTable(span, eps)
    for x in (0.0, -0.3, 0.05, reach):
        got = occupation_estimate(p, x, eps, credit_table=record).values
        assert got.tobytes() == occupation_estimate(p, x, eps).values.tobytes()
    credit = _band_time_credits(np.zeros(1), np.full(1, reach), np.array([span]), 0.0, eps)[0]
    assert 0.1 * span < credit < 0.5 * span
    got = occupation_estimate(p, 0.0, eps, credit_table=record).values
    assert got[0, 2] - got[0, 1] == pytest.approx(credit / (2.0 * eps), rel=1e-12)


def _band_edge_cases():
    """(a, b, span, x, epsilon): endpoints on the band edges, inside, across
    and just within the crossing reach, a = b, spans down to 1e-12 and
    epsilon from 0.02 to 100 sqrt(span).  Off-zero levels are used where
    sqrt(span) is large against the rounding of x, which limits any route
    to about ulp(x) / sqrt(span)."""
    cases = []
    for span in (1e-12, 1e-6, 2.5e-4, 0.01, 1.0):
        root = math.sqrt(span)
        for coeff in (0.02, 0.2, 1.0, 5.0, 100.0):
            eps = coeff * root
            offsets = ((eps, eps), (-eps, eps), (eps, eps + root), (-eps, -eps - root),
                       (-eps - 0.5 * root, eps), (0.0, 0.0), (0.5 * eps, 0.5 * eps),
                       (-2.0 * eps, 3.0 * eps), (eps + 3.0 * root, eps + 3.5 * root),
                       (-eps - 3.7 * root, -eps - 3.7 * root))
            for x in ((0.0, -0.7) if span >= 2.5e-4 else (0.0,)):
                cases.extend((x + da, x + db, span, x, eps) for da, db in offsets)
    return cases


def test_band_credits_match_adaptive_reference():
    worst = 0.0
    for a, b, span, x, eps in _band_edge_cases():
        got = _band_time_credits(np.array([a]), np.array([b]), np.array([span]), x, eps)[0]
        worst = max(worst, abs(got - adaptive_band_credit(a, b, span, x, eps)) / span)
    assert worst <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(log_span=st.floats(-12.0, 1.0), log_coeff=st.floats(-3.0, 3.0),
       x=st.floats(-2.0, 2.0), seed=st.integers(0, 2 ** 32 - 1))
def test_band_credits_lie_between_zero_and_span(log_span, log_coeff, x, seed):
    # The local time is nondecreasing only if no credit is negative, and no
    # step spends more than its span in the band.
    span = 10.0 ** log_span
    root = math.sqrt(span)
    eps = 10.0 ** log_coeff * root
    rng = np.random.default_rng(seed)
    a = x + rng.normal(0.0, eps + 4.0 * root, 2000)
    b = a + rng.normal(0.0, root, 2000) * 10.0 ** rng.uniform(-3.0, 1.0, 2000)
    spans = span * rng.uniform(1e-3, 1.0, 2000)
    credits = _band_time_credits(a, b, spans, x, eps)
    assert np.all(credits >= 0.0)
    assert np.all(credits <= spans)


def test_widest_configurable_band_does_not_overflow(ctx_exp):
    # RunConfig admits lt_eps_coeff up to 1e150; a RuntimeWarning fails here
    for dt in (0.25, 0.005):
        grid = TimeGrid.regular(1.0, dt)
        for i in range(20):
            p = sample_path_direct(ctx_exp, grid, RandomStream(31, i))
            lt = occupation_estimate(p, 0.0, 1e150 * dt ** 0.5)
            assert np.all(np.isfinite(lt.values)) and np.all(lt.values >= 0.0)


def test_tanaka_raw_is_zero_for_constant_sign(ctx_exp):
    grid = TimeGrid.regular(1.0, 0.01)
    p = sample_path_given_tau(2.0, grid, RandomStream(17, 0))
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


def test_level_grid_needs_positive_spacing():
    for dx in (0.0, -0.1):
        with pytest.raises(DomainError):
            level_grid(_ramp_path(), dx)


def test_occupation_formula_residual_single_level():
    # one level spans no width: the right side is 0, the gap the left side
    p = _ramp_path()
    curve = occupation_estimate(p, 0.0, 0.05)
    res = occupation_formula_residual(p, lambda s, x: np.ones_like(s), [0.0], [curve])
    assert res == float(np.sum(p.spans))


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

