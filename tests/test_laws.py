import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infobridge.distributions import DefaultDistribution, parse_distribution
from infobridge.errors import DomainError, NonConvergence
from infobridge.laws import (
    DriftTable,
    ModelContext,
    bridge_density,
    compensator_weights,
    conditional_expectation,
    gaussian_density,
    hazard_window_rates,
    inverse_survivor_density,
    mean_reversion_drift,
    posterior_density,
    survival_probability,
    SurvivorPanels,
    survivor_density,
    survivor_density_floor,
    _layer_points,
    _log_scaled_bridge,
    _scaled_survivor,
    _scaled_survivor_integrand,
)
from infobridge.paths import TimeGrid
from infobridge.quadrature import TILE_ELEMENTS, integrate_finite

# Frozen oracle values.  Riemann oracles: midpoint sums with 1e6 cells after
# the substitution v = s + z^2 on z in (0, 20] (or the finite support).
# Arbitrary-precision values: mpmath at 50 digits.
GAUSS_MODE = 0.39894228040143267794          # (2 pi)^-1/2
GAUSS_HALF_1_0 = 0.20755374871029735167      # exp(-1)/sqrt(pi)
BRIDGE_1_2_0 = 0.56418958354775628695        # 1/sqrt(pi)
BRIDGE_05_3_04 = 0.51007160328141132396
D_EXP1_S1_X0 = 0.31224630517693697
D_UNIF02_S19_X0 = 0.12725468648801724
D_EXP1_S1_X05 = 0.1511455673933895
FLOOR_EXP1 = 0.10485031221242185             # floor(t0=0.5, t=1, x=0.3)
POSTERIOR_EXP1_1_2_05 = 0.39342962970950784
COND_MEAN_TAU_EXP1 = 2.0155455482132405      # E[tau | beta_1 = 0.5, tau > 1]
SURVIVAL_EXP1_1_2_03 = 0.30325518645275773
DRIFT_EXP1_1_05 = 1.2212566900923643


@pytest.fixture(scope="module")
def ctx_exp():
    return ModelContext(DefaultDistribution.exponential(1.0))


@pytest.fixture(scope="module")
def ctx_unif():
    return ModelContext(DefaultDistribution.uniform(0.0, 2.0))


# -- Gaussian and bridge kernels ---------------------------------------------

def test_gaussian_mode_value():
    assert abs(gaussian_density(1.0, 0.0, 0.0) - GAUSS_MODE) < 1e-15


@pytest.mark.parametrize("t,y", [(0.3, -1.2), (1.0, 0.0), (2.5, 4.0)])
def test_gaussian_at_its_mode(t, y):
    assert abs(gaussian_density(t, y, y) - 1.0 / math.sqrt(2 * math.pi * t)) < 1e-15


def test_gaussian_high_precision_point():
    assert abs(gaussian_density(0.5, 1.0, 0.0) - GAUSS_HALF_1_0) < 1e-15


def test_gaussian_rejects_nonpositive_variance():
    with pytest.raises(DomainError):
        gaussian_density(0.0, 0.0, 0.0)


def test_bridge_density_interior_value():
    assert abs(bridge_density(1.0, 2.0, 0.0) - BRIDGE_1_2_0) < 1e-15


def test_bridge_density_zero_after_length():
    for x in (-1.0, 0.0, 2.5):
        assert bridge_density(2.0, 1.5, x) == 0.0


def test_bridge_density_high_precision_point():
    assert abs(bridge_density(0.5, 3.0, 0.4) - BRIDGE_05_3_04) < 1e-12


# -- survivor density and its reciprocal -------------------------------------

def test_survivor_density_matches_riemann_oracle(ctx_exp):
    assert abs(survivor_density(1.0, 0.0, ctx_exp) - D_EXP1_S1_X0) < 1e-6


def test_survivor_density_peaks_at_zero_level(ctx_exp):
    d0 = survivor_density(1.0, 0.0, ctx_exp)
    for x in (0.2, -0.7, 1.5, 3.0):
        assert survivor_density(1.0, x, ctx_exp) <= d0


def test_survivor_density_bounded_support_oracle(ctx_unif):
    assert abs(survivor_density(1.9, 0.0, ctx_unif) - D_UNIF02_S19_X0) < 1e-6


def test_reciprocal_identity(ctx_exp):
    for s, x in ((0.3, 0.0), (1.0, 0.5), (2.0, -1.2)):
        prod = survivor_density(s, x, ctx_exp) * inverse_survivor_density(s, x, ctx_exp)
        assert abs(prod - 1.0) < 1e-12


def test_survivor_density_domain(ctx_exp, ctx_unif):
    with pytest.raises(DomainError):
        survivor_density(0.0, 0.0, ctx_exp)
    with pytest.raises(DomainError):
        survivor_density(2.0, 0.0, ctx_unif)
    # an unbounded law: states at or past the tail cut are outside the domain
    cut = ctx_exp.t_cut
    for s in (cut, cut + 1.0):
        for law in (survivor_density, mean_reversion_drift):
            with pytest.raises(DomainError):
                law(s, 0.3, ctx_exp)
        with pytest.raises(DomainError):
            survival_probability(s, s + 1.0, 0.3, ctx_exp)
        with pytest.raises(DomainError):
            posterior_density(s, s + 1.0, 0.3, ctx_exp)


# -- lower bound (floor) ------------------------------------------------------

def test_floor_at_zero_level_closed_form(ctx_exp):
    t0, t = 0.5, 1.0
    expect = (1.0 - ctx_exp.dist.cdf_F(t)) / math.sqrt(2 * math.pi * t)
    assert abs(survivor_density_floor(t0, t, 0.0, ctx_exp) - expect) < 1e-9


def test_floor_matches_riemann_oracle(ctx_exp):
    assert abs(survivor_density_floor(0.5, 1.0, 0.3, ctx_exp) - FLOOR_EXP1) < 1e-6


def test_floor_is_below_survivor_density(ctx_exp):
    t0, t = 0.25, 2.0
    for x in (0.0, 0.5, -0.5, 1.0, -1.0):
        c = survivor_density_floor(t0, t, x, ctx_exp)
        assert c > 0.0
        for s in np.linspace(t0, t, 23):
            assert c <= survivor_density(float(s), x, ctx_exp) * (1 + 1e-9)


def test_inverse_density_bounded_by_floor(ctx_exp):
    t0, t, x = 0.25, 2.0, 0.5
    bound = 1.0 / survivor_density_floor(t0, t, x, ctx_exp)
    for s in np.linspace(t0, t, 50):
        assert inverse_survivor_density(float(s), x, ctx_exp) <= bound * (1 + 1e-9)


# -- posterior law ------------------------------------------------------------

def test_posterior_normalization(ctx_exp):
    for t in (0.25, 0.5, 1.0, 2.0):
        for x in (-1.0, -0.1, 0.1, 1.0):
            z_hi = 20.0
            n = 50_000
            dz = z_hi / n
            z = (np.arange(n) + 0.5) * dz
            r = t + z * z
            vals = np.array([posterior_density(t, float(rr), x, ctx_exp) for rr in r])
            mass = float(np.sum(2.0 * z * vals) * dz)
            assert abs(mass - 1.0) < 1e-6


def test_posterior_zero_before_t(ctx_exp):
    assert posterior_density(1.0, 1.0, 0.3, ctx_exp) == 0.0
    assert posterior_density(1.0, 0.5, 0.3, ctx_exp) == 0.0


def test_posterior_matches_riemann_oracle(ctx_exp):
    val = posterior_density(1.0, 2.0, 0.5, ctx_exp)
    assert abs(val - POSTERIOR_EXP1_1_2_05) < 1e-6


def test_posterior_far_tail_flushes_to_zero(ctx_exp):
    assert posterior_density(1.0, 1.0 + 1e-13, 60.0, ctx_exp) == 0.0


def test_underflowing_survivor_is_a_domain_error(ctx_exp):
    # On exp:1.0 at s = 0.5 the scaled survivor falls below the smallest
    # normal float from |x| ~ 167 on and to 0 from |x| ~ 170.5 on: the
    # conditional laws raise, the densities do not.  A subnormal denominator
    # has lost precision (the drift read 8.15 at x = 170 and 0 at x = 170.4).
    s = 0.5
    for x in (168.0, 170.4, 200.0):
        for law in (lambda: survival_probability(s, 1.0, x, ctx_exp),
                    lambda: posterior_density(s, 1.0, x, ctx_exp),
                    lambda: mean_reversion_drift(s, x, ctx_exp),
                    lambda: conditional_expectation(lambda r: r, s, x, ctx_exp)):
            with pytest.raises(DomainError, match="underflows"):
                law()
    x = 200.0
    assert survivor_density(s, x, ctx_exp) == 0.0
    assert inverse_survivor_density(s, x, ctx_exp) == math.inf
    assert survivor_density_floor(0.4, s, x, ctx_exp) == 0.0
    for x in (150.0, 166.0):
        assert 0.0 <= survival_probability(s, 1.0, x, ctx_exp) <= 1.0
        assert posterior_density(s, 1.0, x, ctx_exp) >= 0.0
        assert math.isfinite(conditional_expectation(lambda r: r, s, x, ctx_exp))
    # the drift keeps rising by about 0.0495 per unit of x and stays odd
    assert 0.0 < mean_reversion_drift(s, 150.0, ctx_exp) < mean_reversion_drift(
        s, 166.0, ctx_exp) == -mean_reversion_drift(s, -166.0, ctx_exp)


# -- conditional expectation and survival -------------------------------------

def test_conditional_expectation_of_one(ctx_exp):
    val = conditional_expectation(lambda r: 1.0, 1.0, 0.5, ctx_exp)
    assert abs(val - 1.0) < 1e-6


def test_conditional_expectation_indicator_is_survival(ctx_exp):
    t, u, x = 1.0, 2.0, 0.3
    ind = conditional_expectation(lambda r: 1.0 if r > u else 0.0, t, x, ctx_exp,
                                  g_breakpoints=[u])
    assert abs(ind - survival_probability(t, u, x, ctx_exp)) < 1e-9


def test_conditional_mean_of_tau_matches_oracle(ctx_exp):
    val = conditional_expectation(lambda r: r, 1.0, 0.5, ctx_exp)
    assert abs(val - COND_MEAN_TAU_EXP1) < 1e-5


def test_non_finite_tail_cut_is_domain_error():
    # the lognormal:0,300 quantile overflows; no RuntimeWarning escapes
    ctx = ModelContext(parse_distribution("lognormal:0,300"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            ctx.t_cut


def test_survival_is_one_at_t(ctx_exp):
    assert survival_probability(1.0, 1.0, 0.4, ctx_exp) == 1.0


def test_survival_vanishes_at_horizon(ctx_unif, ctx_exp):
    assert survival_probability(1.0, 2.0 - 1e-9, 0.3, ctx_unif) < 1e-6
    assert survival_probability(1.0, ctx_exp.t_cut + 5.0, 0.3, ctx_exp) == 0.0


def test_survival_matches_riemann_oracle(ctx_exp):
    val = survival_probability(1.0, 2.0, 0.3, ctx_exp)
    assert abs(val - SURVIVAL_EXP1_1_2_03) < 1e-6


def _exp_table(n):
    """exp(1) density tabulated on ``n`` equal steps of [0, 20]."""
    t = np.linspace(0.0, 20.0, n)
    return DefaultDistribution.from_table(t, np.exp(-t))


_LAWS = {spec: parse_distribution(spec) for spec in
         ("exp:1.0", "gamma:2,2", "lognormal:0,0.5", "uniform:0,3")}
_LAWS["table21"] = _exp_table(21)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(law=st.sampled_from(sorted(_LAWS)), frac=st.floats(0.005, 0.95),
       x=st.floats(-4.0, 4.0).filter(bool),
       reach=st.lists(st.floats(0.0, 1.5), min_size=1, max_size=6))
def test_survival_monotone_and_bounded(law, frac, x, reach):
    # across the tail cut, on every family and a table law
    ctx = ModelContext(_LAWS[law])
    cut = ctx.t_cut
    t = frac * cut
    us = sorted([t, math.nextafter(cut, 0.0), cut]
                + [t + r * (cut - t) for r in reach])
    vals = [survival_probability(t, u, x, ctx) for u in us]
    assert vals[0] == 1.0
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(v == 0.0 for u, v in zip(us, vals) if u >= cut)


def test_table_law_scalar_route_matches_segment_sum():
    # A 401-knot table: the adaptive rule starts on every knot, and each
    # table segment integrated on its own is the reference.
    ctx = ModelContext(_exp_table(401))
    knots = ctx.dist.breakpoints

    def segments(integrand, lower):
        edges = [lower, *knots[(knots > lower) & (knots < ctx.t_cut)], ctx.t_cut]
        return sum(integrate_finite(integrand, a, b, ctx.quad, singular_at_a=(k == 0))[0]
                   for k, (a, b) in enumerate(zip(edges, edges[1:])))

    # s = 0.3 lies one ulp below the knot 0.30000000000000004, so the first
    # segment samples v with v - s == 0 in floats
    for s, x in ((0.05, 0.3), (1.47, -1.2), (3.6, 0.8), (0.3, 0.2)):
        base = _scaled_survivor_integrand(s, x, ctx)
        den = segments(base, s)
        u = s + 0.5
        surv = segments(base, u) / den
        post = math.exp(_log_scaled_bridge(s, u, x)
                        + math.log(ctx.dist.density_f(u)) - math.log(den))
        drift = x * segments(lambda v: base(v) / (v - s) if v > s else 0.0, s) / den
        assert abs(survival_probability(s, u, x, ctx) - surv) < 1e-9
        assert abs(posterior_density(s, u, x, ctx) - post) < 1e-9
        assert abs(mean_reversion_drift(s, x, ctx) - drift) < 1e-9


# -- drift ---------------------------------------------------------------------

def test_drift_vanishes_at_zero(ctx_exp):
    assert mean_reversion_drift(1.0, 0.0, ctx_exp) == 0.0


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(law=st.sampled_from(sorted(_LAWS)), frac=st.floats(0.005, 0.95),
       x=st.floats(1e-3, 4.0))
def test_drift_sign_and_oddness(law, frac, x):
    ctx = ModelContext(_LAWS[law])
    s = frac * ctx.t_cut
    up = mean_reversion_drift(s, x, ctx)
    assert up > 0.0
    assert mean_reversion_drift(s, -x, ctx) == -up


def test_drift_at_tiny_level_raises_no_zero_division(ctx_exp):
    # QUADPACK samples v with v - s == 0 in floats here; the integrand is 0
    # there.  The x -> 0+ limit is not resolved: the adaptive rule may give
    # up, but only with the package's own error.
    for x in (1e-6, 1e-8):
        try:
            assert mean_reversion_drift(0.5, x, ctx_exp) > 0.0
        except NonConvergence:
            pass


def test_drift_matches_riemann_oracle(ctx_exp):
    assert abs(mean_reversion_drift(1.0, 0.5, ctx_exp) - DRIFT_EXP1_1_05) < 1e-5


def test_drift_matches_kernel_regression(ctx_exp):
    # Independent simulation oracle: draw (tau, beta_s), Nadaraya-Watson at x.
    s, x = 1.0, 0.5
    gen = np.random.Generator(np.random.Philox(key=777))
    n = 400_000
    tau = -np.log1p(-gen.random(n))
    alive = tau > s
    beta = np.zeros(n)
    var = s * (tau[alive] - s) / tau[alive]
    beta[alive] = gen.standard_normal(alive.sum()) * np.sqrt(var)
    y = np.zeros(n)
    y[alive] = beta[alive] / (tau[alive] - s)
    bw = 0.04
    w = np.exp(-0.5 * ((beta - x) / bw) ** 2)
    est = float(np.sum(w * y) / np.sum(w))
    resid = y - est
    se = math.sqrt(float(np.sum((w * resid) ** 2))) / float(np.sum(w))
    exact = mean_reversion_drift(s, x, ctx_exp)
    assert abs(est - exact) <= 3.0 * se


# -- symmetry -------------------------------------------------------------------

def test_law_level_functions_are_even_in_x(ctx_exp):
    rng = np.random.default_rng(5)
    for _ in range(5):
        s = float(rng.uniform(0.3, 2.0))
        x = float(rng.uniform(0.1, 2.0))
        assert abs(bridge_density(s, s + 1.3, x) - bridge_density(s, s + 1.3, -x)) < 1e-15
        assert abs(survivor_density(s, x, ctx_exp) - survivor_density(s, -x, ctx_exp)) < 1e-12
        assert abs(posterior_density(s, s + 0.7, x, ctx_exp)
                   - posterior_density(s, s + 0.7, -x, ctx_exp)) < 1e-12
        assert abs(survival_probability(s, s + 0.5, x, ctx_exp)
                   - survival_probability(s, s + 0.5, -x, ctx_exp)) < 1e-12


# -- regularity of the inverse survivor density ---------------------------------

def test_inverse_density_continuity_under_grid_refinement(ctx_exp):
    x = 0.4

    def max_jump(n):
        s = np.linspace(0.25, 2.0, n)
        g = np.array([inverse_survivor_density(float(v), x, ctx_exp) for v in s])
        return float(np.max(np.abs(np.diff(g))))

    assert max_jump(160) < max_jump(40)


def test_inverse_density_uniform_convergence_in_x(ctx_exp):
    s_grid = np.linspace(0.25, 2.0, 15)
    x = 0.5
    base = np.array([inverse_survivor_density(float(s), x, ctx_exp) for s in s_grid])
    sups = []
    for k in range(1, 5):
        xn = x + 2.0 ** -k
        vals = np.array([inverse_survivor_density(float(s), xn, ctx_exp) for s in s_grid])
        sups.append(float(np.max(np.abs(vals - base))))
    assert all(a > b for a, b in zip(sups, sups[1:]))
    assert sups[-1] < sups[0] / 4.0


# -- vectorized route agrees with the adaptive route -----------------------------

def test_scaled_survivor_grid_matches_adaptive(ctx_exp, ctx_unif):
    rng = np.random.default_rng(21)
    for ctx in (ctx_exp, ctx_unif):
        hi = min(ctx.dist.t1, 3.0)
        s = rng.uniform(0.05, hi - 0.05, size=24)
        x = np.concatenate([np.zeros(6), rng.uniform(0.001, 5.0, size=18)])
        fast = SurvivorPanels.build(ctx, s, x).survivor
        slow = np.array([_scaled_survivor(float(a), float(b), ctx)
                         for a, b in zip(s, x)])
        np.testing.assert_allclose(fast, slow, rtol=1e-7, atol=1e-12)


def test_scaled_reversion_grid_matches_adaptive():
    # The drift table at its nodes, every sixth level from the last one down
    # to 1e-3, against the adaptive drift.  On uniform:0,3 at s = 2.5 the
    # top levels put the boundary layer 9.6-12.6 times beyond the cut's z
    # range, where the panels' short window under the layer is off by up to
    # 2.2e-5 relative.
    s = np.array([0.1, 0.5, 1.0, 1.7, 2.5])
    for law, tol in (("exp:1.0", 1e-7), ("gamma:2,2", 1e-7),
                     ("lognormal:0,0.5", 1e-7), ("uniform:0,3", 5e-5)):
        ctx = ModelContext(_LAWS[law])
        table = DriftTable.build(ctx, s)
        for j in range(len(table.x_nodes) - 1, 0, -6):
            xj = float(table.x_nodes[j])
            for i, sv in enumerate(s):
                exact = mean_reversion_drift(float(sv), xj, ctx)
                assert abs(table.values[i, j] - exact) < tol * max(abs(exact), 1e-6), \
                    (law, sv, xj)


def test_drift_table_rejects_levels_on_linear_rows():
    # exp:1e-9 cuts near t = 2e10: against that z range the level 1e-3 falls
    # on linear rows, where the drift integral has no boundary layer to
    # resolve.
    ctx = ModelContext(parse_distribution("exp:1e-9"))
    with pytest.raises(DomainError, match="nonzero level"):
        DriftTable.build(ctx, np.linspace(0.0, 2.0, 5))


def test_compensator_weights_match_scalar():
    knots = np.linspace(0.0, 2.0, 9)
    for law in ("exp:1.0", "gamma:2,2", "lognormal:0,0.5", "uniform:0,3"):
        ctx = ModelContext(_LAWS[law])
        w = compensator_weights(ctx, knots)
        # time zero lies outside the law domain (0, t_cut): the weight is 0 there
        assert w[0] == 0.0
        for k, s in enumerate(knots[1:], start=1):
            expect = float(ctx.dist.density_f(s)) * inverse_survivor_density(
                float(s), 0.0, ctx)
            assert abs(w[k] - expect) < 1e-7 * expect, (law, s)


def test_compensator_weights_masked_beyond_horizon(ctx_unif, ctx_exp):
    knots = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
    w = compensator_weights(ctx_unif, knots)
    assert w[0] == 0.0 and w[-2] == 0.0 and w[-1] == 0.0
    assert np.all(w[1:4] > 0.0)
    # an unbounded law: zero from its tail cut on
    cut = ctx_exp.t_cut
    w = compensator_weights(ctx_exp, np.array([0.0, 1.0, cut, cut + 1.0]))
    assert w[0] == 0.0 and w[1] > 0.0 and w[2] == 0.0 and w[3] == 0.0


def test_hazard_window_rates_match_scalar():
    from infobridge.distributions import parse_distribution
    from infobridge.laws import _scaled_survivor_integrand
    from infobridge.quadrature import integrate_finite

    h = 0.1
    cases = [
        ("exp:1.0", (0.3, 1.0, 1.7, 1.2), (0.2, -0.8, 1.5, 3.5)),
        ("gamma:2,2", (0.3, 1.0, 1.7, 1.2), (0.2, -3.2, 1.5, 0.05)),
        # the last two rows have s + h > t1, where the rate is 1/h
        ("uniform:0,3", (0.3, 1.7, 2.5, 2.95, 2.97), (0.2, -3.2, 1.0, 0.4, 0.3)),
    ]
    for spec, s, x in cases:
        ctx = ModelContext(parse_distribution(spec))
        panels = SurvivorPanels.build(ctx, np.array(s), np.array(x))
        rates = hazard_window_rates(ctx, panels, h)
        for sv, xv, rv in zip(s, x, rates):
            num, _ = integrate_finite(
                _scaled_survivor_integrand(sv, xv, ctx),
                sv, min(sv + h, ctx.t_cut), ctx.quad, singular_at_a=True)
            slow = num / _scaled_survivor(sv, xv, ctx) / h
            assert abs(rv - slow) < 1e-6 * max(slow, 1e-9), (spec, sv, xv)
            assert 0.0 <= rv <= 1.0 / h


def test_hazard_window_rates_reject_bad_input(ctx_exp):
    panels = SurvivorPanels.build(ctx_exp, np.array([0.5, 1.0]), np.array([0.2, -0.4]))
    for h in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(DomainError):
            hazard_window_rates(ctx_exp, panels, h)
    # a lag below the spacing of floats at s leaves an empty window
    panels = SurvivorPanels.build(ctx_exp, np.array([1.0, 1.0]), np.array([0.0, 0.3]))
    assert np.array_equal(hazard_window_rates(ctx_exp, panels, 1e-17), [0.0, 0.0])


def test_hazard_window_consistent_with_indicator_expectation(ctx_exp):
    # Same quantity through the posterior-expectation operator.
    h, sv, xv = 0.25, 0.8, 0.4
    panels = SurvivorPanels.build(ctx_exp, np.array([sv]), np.array([xv]))
    rate = float(hazard_window_rates(ctx_exp, panels, h)[0])
    prob = conditional_expectation(lambda r: 1.0 if r < sv + h else 0.0, sv, xv, ctx_exp)
    assert abs(rate - prob / h) < 1e-6 * max(prob / h, 1e-9)


@pytest.mark.parametrize("law", ["exp:1.0", "gamma:2,2", "lognormal:0,0.5",
                                 "uniform:0,3"])
def test_survivor_panels_match_tail_grid(law):
    # On linear rows (|x| <= 1e-9), log rows and layers beyond the cut, the
    # sums below each row's top edge add up the survivor's panels in another
    # order.
    ctx = ModelContext(_LAWS[law])
    cut = ctx.t_cut
    s = np.array([0.01, 0.3, 0.5 * cut, 0.9 * cut, 0.999 * cut, 0.2, 0.7, 1.1])
    x = np.array([0.0, -1e-9, 1e-12, 2.5, -0.3, 40.0, 0.0, -7.0])
    panels = SurvivorPanels.build(ctx, s, x)
    assert np.array_equal(panels.x, np.abs(x))
    top = np.zeros(s.shape)
    for rows, _, _, below in panels.groups:
        top[rows] = below[:, -1]
    np.testing.assert_allclose(top, panels.survivor, rtol=1e-13, atol=0.0)


def test_panel_kernels_are_tile_invariant():
    # 1000 states span several row tiles of the survivor panels (28 log or 42
    # linear rows each) and of the window's last panel (341 rows of 24
    # nodes), with a partial last tile, linear rows (x = 0), log rows and
    # states past the cut: one call equals per-state calls bit for bit, the
    # sums below each edge included.
    ctx = ModelContext(_LAWS["gamma:2,2"])
    rng = np.random.default_rng(15)
    n = 1000
    s = rng.uniform(0.01, 1.05 * ctx.t_cut, n)
    x = np.where(rng.random(n) < 0.4, 0.0, rng.normal(0.0, 2.0, n))
    panels = SurvivorPanels.build(ctx, s, x)
    assert len(panels.groups) == 2
    assert np.any(s >= ctx.t_cut) and not np.any(panels.survivor[s >= ctx.t_cut])
    rates = {h: hazard_window_rates(ctx, panels, h) for h in (0.05, 0.5)}
    for rows, _, edges, below in panels.groups:
        assert np.count_nonzero(rows) * 24 > TILE_ELEMENTS
        for j, i in enumerate(np.flatnonzero(rows)):
            one = SurvivorPanels.build(ctx, s[i:i + 1], x[i:i + 1])
            (_, _, one_edges, one_below), = one.groups
            assert one.survivor.tobytes() == panels.survivor[i:i + 1].tobytes()
            assert one_edges.tobytes() == edges[j:j + 1].tobytes()
            assert one_below.tobytes() == below[j:j + 1].tobytes()
            for h, r in rates.items():
                assert hazard_window_rates(ctx, one, h).tobytes() == r[i:i + 1].tobytes()


def test_compensator_weights_peak_memory():
    # Row tiles bound every temporary of the headline grid's weights (8001
    # knots, 192 nodes per knot); untiled they peaked at 85 MiB.
    ctx = ModelContext(DefaultDistribution.exponential(1.0))
    knots = TimeGrid.regular(2.0, 2.5e-4).knots
    tracemalloc.start()
    try:
        compensator_weights(ctx, knots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def _level(kind, magnitude, h):
    """An information value of the given kind: 0, a linear-row level
    (|x| <= 1e-9), a free level, or a boundary layer |x|/sqrt(2) beyond
    sqrt(h), up to 10**2.5 times (past e**4.5 it lies below the first edge)."""
    if kind == "zero":
        return 0.0
    if kind == "tiny":
        return 1e-9 * magnitude
    if kind == "free":
        return 4.0 * magnitude
    return math.copysign(math.sqrt(2.0 * h) * 10.0 ** (2.5 * abs(magnitude)), magnitude)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(law=st.sampled_from(["exp:1.0", "gamma:2,2", "lognormal:0,0.5", "uniform:0,3"]),
       h=st.floats(1e-3, 1.0),
       states=st.lists(st.tuples(st.floats(0.005, 1.0),
                                 st.sampled_from(["zero", "tiny", "free", "layer"]),
                                 st.floats(-1.0, 1.0)),
                       min_size=1, max_size=6))
def test_hazard_window_rates_match_scalar_property(law, h, states):
    # Partial sums of the survivor's panels against the adaptive reference
    # over (s, min(s + h, t_cut)); states with frac near 1 reach the cut,
    # where the rate is exactly 1/h.
    ctx = ModelContext(_LAWS[law])
    cut = ctx.t_cut
    s = np.array([math.nextafter(frac * cut, 0.0) for frac, _, _ in states])
    x = np.array([_level(kind, m, h) for _, kind, m in states])
    panels = SurvivorPanels.build(ctx, s, x)
    rates = hazard_window_rates(ctx, panels, h)
    for sv, xv, den, rv in zip(s.tolist(), x.tolist(), panels.survivor, rates):
        assert 0.0 <= rv <= 1.0 / h
        if sv + h >= cut:
            assert rv == (1.0 / h if den > 0.0 else 0.0)
            continue
        points = _layer_points(sv, xv)
        num, _ = integrate_finite(_scaled_survivor_integrand(sv, xv, ctx),
                                  sv, sv + h, ctx.quad, singular_at_a=True,
                                  interior_points=points)
        ref_den = _scaled_survivor(sv, xv, ctx)
        slow = num / ref_den / h if ref_den > 0.0 else 0.0
        assert abs(rv - slow) < 1e-6 * max(slow, 1e-9), (law, h, sv, xv)


def test_drift_table_matches_exact(ctx_exp):
    knots = np.linspace(0.0, 2.0, 201)
    table = DriftTable.build(ctx_exp, knots, x_max=8.0)
    rng = np.random.default_rng(31)
    s = rng.uniform(0.05, 1.95, size=40)
    x = np.concatenate([rng.uniform(-3.0, 3.0, size=38), [1e-4, -1e-4]])
    approx = table.evaluate(s, x)
    for sv, xv, av in zip(s, x, approx):
        exact = mean_reversion_drift(float(sv), float(xv), ctx_exp)
        assert abs(av - exact) <= 2e-3 * max(1.0, abs(exact))
    assert table.evaluate(np.array([1.0]), np.array([0.0]))[0] == 0.0
    with pytest.raises(DomainError):
        DriftTable.build(ctx_exp, [0.5])


def test_conditional_expectation_integrability_guard(ctx_exp):
    from infobridge.errors import IntegrabilityError

    with pytest.raises(IntegrabilityError):
        conditional_expectation(lambda r: math.exp(r * r), 1.0, 0.3, ctx_exp)
    with pytest.raises(IntegrabilityError):
        conditional_expectation(lambda r: math.exp(r ** 3), 1.0, 0.3, ctx_exp)
