import math

import numpy as np
import pytest
from scipy import stats

from infobridge.cli import _gate_lines
from infobridge.compensator import (
    averaged_gaussian_kernel,
    compensator_curve,
    laplacian_approximation,
    window_rates,
)
from infobridge.config import RunConfig
from infobridge.distributions import DefaultDistribution
from infobridge.ensemble import (
    EnsembleReport,
    EnsembleTable,
    build_job,
    parse_functional,
    run_ensemble,
    summarize_table,
    table_martingale_residual,
)
from infobridge.errors import DomainError, InsufficientPaths
from infobridge.laws import ModelContext, compensator_weights
from infobridge.localtime import occupation_estimate
from infobridge.paths import (
    InformationPath,
    RandomStream,
    TimeGrid,
    sample_path_direct,
)
from infobridge.quadrature import integrate_finite

from oracles import indicator_curve

# Frozen closed forms: average over u in (0,h] of E[cos(N(0,u))] is
# 2 (1 - exp(-h/2)) / h.
COS_KERNEL = {1.0: 0.78693868057473315279,
              0.1: 0.97541150998571981817,
              0.01: 0.99750416146353732949}


@pytest.fixture(scope="module")
def ctx_exp():
    return ModelContext(DefaultDistribution.exponential(1.0))


def _job(ctx, dt=2e-3, t_max=1.0, seed=5150, zero_k=False, kh=()):
    # eps = sqrt(dt)
    cfg = RunConfig(dt=dt, t_max=t_max, seed=seed, lt_eps_coeff=1.0,
                    report_times=(0.5, 1.0),
                    residual_pairs=((0.5, 1.0),), kh=kh, zero_k=zero_k)
    return build_job(ctx, TimeGrid.regular(t_max, dt), cfg)


@pytest.fixture(scope="module")
def table_2000(ctx_exp):
    return run_ensemble(_job(ctx_exp), 2000, workers=1)


@pytest.fixture(scope="module")
def table_zero_k(ctx_exp):
    return run_ensemble(_job(ctx_exp, zero_k=True), 400, workers=1)


# -- compensator along one path -------------------------------------------------

def test_compensator_zero_without_local_time(ctx_exp):
    # A path staying above the band by more than the crossing reach accrues
    # exactly zero local time at zero, hence a identically zero compensator.
    n = 1024
    knots = np.arange(n + 1) / 512.0
    grid = TimeGrid(knots)
    beta = 1.0 + knots
    p = InformationPath(9.0, grid, beta)
    lt = occupation_estimate(p, 0.0, 0.25)
    assert np.all(lt.values == 0.0)
    k = compensator_curve(p, lt, compensator_weights(ctx_exp, knots))
    assert np.all(k == 0.0)


def test_compensator_frozen_after_default(ctx_exp):
    grid = TimeGrid.regular(3.0, 0.01)
    for i in range(300):
        p = sample_path_direct(ctx_exp, grid, RandomStream(41, i))
        if p.tau < 2.0:
            break
    lt = occupation_estimate(p, 0.0, 0.1)
    k = compensator_curve(p, lt, compensator_weights(ctx_exp, grid.knots))
    j = int(np.searchsorted(p.grid.knots, p.tau))
    assert np.all(k[j:] == k[j])
    assert np.all(np.diff(k) >= 0.0)


def test_compensator_mean_tracks_default_probability(table_2000):
    k1 = table_2000.K[:, table_2000.time_index(1.0)]
    se = k1.std(ddof=1) / math.sqrt(len(k1))
    target = 1.0 - math.exp(-1.0)
    assert abs(k1.mean() - target) <= 3.0 * se


def test_compensator_grid_and_level_validation(ctx_exp):
    grid = TimeGrid.regular(1.0, 0.1)
    p = sample_path_direct(ctx_exp, grid, RandomStream(2, 0))
    weights = compensator_weights(ctx_exp, grid.knots)
    lt_bad_level = occupation_estimate(p, 0.5, 0.1)
    with pytest.raises(DomainError):
        compensator_curve(p, lt_bad_level, weights)
    other = sample_path_direct(ctx_exp, TimeGrid.regular(1.0, 0.05),
                               RandomStream(2, 1))
    lt_other = occupation_estimate(other, 0.0, 0.1)
    with pytest.raises(DomainError):
        compensator_curve(p, lt_other, weights)


# -- window approximation ---------------------------------------------------------

def test_window_approximation_monotone_and_stopped(ctx_exp):
    grid = TimeGrid.regular(3.0, 0.02)
    for i in range(300):
        p = sample_path_direct(ctx_exp, grid, RandomStream(43, i))
        if p.tau < 2.0:
            break
    kh = laplacian_approximation(p, 0.1, window_rates(p, ctx_exp, [0.1]))
    assert np.all(np.diff(kh) >= 0.0)
    j = int(np.searchsorted(p.grid.knots, p.tau))
    assert np.all(kh[j:] == kh[j])


def test_window_approximation_mean_matches_window_probability(ctx_exp):
    # E[K^h_t] = (1/h) integral over s in (0,t] of (F(s+h) - F(s)) ds, up to
    # O(dt) time discretization; check within Monte Carlo error.
    h, t = 0.2, 1.0
    table = run_ensemble(_job(ctx_exp, dt=5e-3, kh=(h,)), 500, workers=1)
    vals = table.Kh[:, 0, table.time_index(t)]
    f = ctx_exp.dist.cdf_F
    target, _ = integrate_finite(lambda s: (f(s + h) - f(s)) / h, 0.0, t)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - target) <= 3.0 * se + 0.01


def test_window_rejects_bad_lag(ctx_exp):
    # A bad lag cannot enter the record, and the curve reads only the lags
    # the record holds.
    grid = TimeGrid.regular(1.0, 0.1)
    p = sample_path_direct(ctx_exp, grid, RandomStream(3, 0))
    for h in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(DomainError):
            window_rates(p, ctx_exp, [0.1, h])
    window = window_rates(p, ctx_exp, [0.2, 0.1])
    for h in (0.0, -0.1, math.inf, math.nan, 0.05, 0.1 + 1e-12):
        with pytest.raises(DomainError):
            laplacian_approximation(p, h, window)


def test_window_rejects_other_paths_survivor(ctx_exp):
    # The record of another path object, even with this path's lag, is
    # refused: another path, a batch holding this path as a row, and an
    # equal copy of this path.
    grid = TimeGrid.regular(1.0, 0.1)
    p = sample_path_direct(ctx_exp, grid, RandomStream(3, 0))
    other = sample_path_direct(ctx_exp, grid, RandomStream(3, 1))
    batch = InformationPath(np.array([p.tau, other.tau]), grid, np.stack([p.beta, other.beta]))
    copy = InformationPath(p.tau, p.grid, p.beta.copy())
    for owner in (other, batch, copy):
        with pytest.raises(DomainError):
            laplacian_approximation(p, 0.1, window_rates(owner, ctx_exp, [0.1]))


def test_ensemble_window_matches_path_curves(ctx_exp):
    job = _job(ctx_exp, dt=0.01, kh=(0.2, 0.05))
    table = run_ensemble(job, 24, workers=1)
    t_idx = np.searchsorted(job.grid.knots, np.asarray(job.times))
    for i in range(24):
        p = sample_path_direct(ctx_exp, job.grid, RandomStream(job.master_seed, i))
        window = window_rates(p, ctx_exp, job.kh)
        curves = [laplacian_approximation(p, h, window)[t_idx]
                  for h in job.kh]
        assert np.array_equal(table.Kh[i], np.array(curves))


# -- averaged Gaussian kernel ------------------------------------------------------

@pytest.mark.parametrize("h", [1.0, 0.1, 0.01])
def test_kernel_is_probability_density(h):
    hi = 12.0 * math.sqrt(h) + 1.0
    val, _ = integrate_finite(lambda x: averaged_gaussian_kernel(h, x), 0.0, hi)
    assert abs(2.0 * val - 1.0) < 1e-6


def _kernel_reference(h, x):
    return (2.0 * h * math.exp(-x * x / (2 * h)) / math.sqrt(2 * math.pi * h)
            - 2.0 * abs(x) * stats.norm.sf(abs(x) / math.sqrt(h))) / h


def test_kernel_matches_closed_form():
    for h, x in ((0.3, 0.2), (1.0, 0.0), (0.05, 0.4), (0.7, -1.1),
                 (1.0, 1e-6), (0.3, 1e-6)):
        assert abs(averaged_gaussian_kernel(h, x) - _kernel_reference(h, x)) < 1e-10
    # Far in the tail the value is about 1e-107: compare relatively.
    closed = _kernel_reference(0.01, 2.2)
    assert abs(averaged_gaussian_kernel(0.01, 2.2) - closed) <= 1e-9 * closed


def test_kernel_vanishes_away_from_zero_as_h_shrinks():
    vals = [averaged_gaussian_kernel(h, 1.0) for h in (1.0, 0.1, 0.01)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-20


def test_kernel_concentrates_to_point_mass():
    gaps = []
    for h in (1.0, 0.1, 0.01):
        hi = 12.0 * math.sqrt(h) + 1.0
        val, _ = integrate_finite(lambda x: math.cos(x) * averaged_gaussian_kernel(h, x),
                                  0.0, hi)
        assert abs(2.0 * val - COS_KERNEL[h]) < 1e-6
        gaps.append(1.0 - 2.0 * val)
    assert gaps[0] > gaps[1] > gaps[2] > 0.0


def test_kernel_domain():
    for h in (0.0, -0.1, 1.5):
        with pytest.raises(DomainError):
            averaged_gaussian_kernel(h, 0.0)


# -- martingale residuals and summaries ---------------------------------------------

def test_martingale_residual_gate(table_2000):
    for spec in ("one", "indicator_beta_above:0.2", "abs_beta"):
        res, se = table_martingale_residual(table_2000, 0.5, 1.0, spec)
        assert abs(res) <= 3.0 * se


def test_zero_compensator_ablation_fails_gate(ctx_exp, table_zero_k):
    res, se = table_martingale_residual(table_zero_k, 0.5, 1.0, "one")
    expect = ctx_exp.dist.cdf_F(1.0) - ctx_exp.dist.cdf_F(0.5)
    assert res > 3.0 * se
    assert abs(res - expect) <= 5.0 * se


def test_martingale_residual_requires_paths(ctx_exp):
    table = run_ensemble(_job(ctx_exp), 99, workers=1)
    with pytest.raises(InsufficientPaths):
        table_martingale_residual(table, 0.5, 1.0, "one")


def test_ensemble_summary_tracks_distribution(ctx_exp, table_2000):
    rep = summarize_table(table_2000, ctx_exp, (0.5, 1.0),
                          residual_matrix=((0.5, 1.0),),
                          functionals=("one", "abs_beta"))
    for j in range(2):
        assert abs(rep.mean_H[j] - rep.F[j]) <= 3.0 * rep.stderr_H[j]
        comb = math.hypot(rep.stderr_H[j], rep.stderr_K[j])
        assert abs(rep.mean_K[j] - rep.mean_H[j]) <= 3.0 * comb
    assert rep.all_gates_pass()
    assert len(rep.residuals) == 2


def test_ensemble_summary_ablation_fails(ctx_exp, table_zero_k):
    rep = summarize_table(table_zero_k, ctx_exp, (1.0,),
                          residual_matrix=((0.5, 1.0),), functionals=("one",))
    assert not rep.all_gates_pass()


def test_ensemble_summary_empty(ctx_exp):
    with pytest.raises(InsufficientPaths):
        summarize_table(EnsembleTable.empty(_job(ctx_exp), 0), ctx_exp, (1.0,))


def test_nan_mean_fails_gates():
    # A NaN gap must fail its gate, in the verdict and in the report lines.
    one = np.array([0.1])
    rep = EnsembleReport(times=np.array([1.0]), mean_H=one, mean_K=np.array([np.nan]),
                         F=one, stderr_H=one, stderr_K=one, n_paths=100)
    assert not rep.all_gates_pass()
    lines, ok = _gate_lines(rep)
    assert ok is False
    assert [line.split()[0] for line in lines] == ["FAIL", "FAIL"]


def test_gate_lines_of_a_hand_built_report():
    # Two report times (one passing, one failing) and three residual rows:
    # a pass, a fail and a NaN residual, which must fail.
    rep = EnsembleReport(
        times=np.array([0.5, 1.0]), mean_H=np.array([0.4, 0.62]),
        mean_K=np.array([0.39, 0.7]), F=np.array([0.393469, 0.632121]),
        stderr_H=np.array([0.01, 0.012]), stderr_K=np.array([0.008, 0.01]),
        n_paths=400,
        residual_stats=((0.25, 0.75, "one", 0.004, 0.003),
                        (0.5, 1.0, "abs_beta", -0.05, 0.01),
                        (1.0, 2.0, "indicator_beta_above(0.2)", math.nan, 0.002)))
    lines, ok = _gate_lines(rep)
    assert lines == [
        "PASS mean_K vs F(t) at t=0.5: |0.390000 - 0.393469| = 0.003469 <= 0.024000",
        "PASS mean_K vs mean_H at t=0.5: gap = 0.010000 <= 0.038419",
        "FAIL mean_K vs F(t) at t=1: |0.700000 - 0.632121| = 0.067879 <= 0.030000",
        "FAIL mean_K vs mean_H at t=1: gap = 0.080000 <= 0.046861",
        "PASS residual (s=0.25, t=0.75, one): +0.004000 within 3 x 0.003000",
        "FAIL residual (s=0.5, t=1, abs_beta): -0.050000 within 3 x 0.010000",
        "FAIL residual (s=1, t=2, indicator_beta_above(0.2)): +nan within 3 x 0.002000",
    ]
    assert ok is False
    assert [row[5] for row in rep.residuals] == [True, False, False]


def test_parse_functional():
    label, fn = parse_functional("indicator_beta_above:0.2")
    assert label == "indicator_beta_above(0.2)"
    assert fn(np.array([0.1, 0.3])).tolist() == [0.0, 1.0]
    assert parse_functional("one")[0] == "one"
    assert parse_functional("abs_beta")[1](np.array([-2.0]))[0] == 2.0
    with pytest.raises(DomainError):
        parse_functional("square")


def test_indicator_curve(ctx_exp):
    grid = TimeGrid.regular(3.0, 0.05)
    p = sample_path_direct(ctx_exp, grid, RandomStream(101, 7))
    H = indicator_curve(p)
    assert np.all(np.diff(H) >= 0.0)
    if p.tau <= 3.0:
        j = int(np.searchsorted(p.grid.knots, p.tau))
        assert H[j] == 1.0
        assert H[j - 1] == 0.0


def test_grid_refinement_continuity(ctx_exp):
    # Continuity shadow of the compensator: with the band held fixed, the
    # largest knot increment of K shrinks roughly in half when the time grid
    # is halved (the same realization viewed at both resolutions).
    from infobridge.paths import restrict_path

    eps = 0.05
    fine = TimeGrid.regular(1.0, 2e-3)
    coarse = TimeGrid.regular(1.0, 4e-3)
    w_fine = compensator_weights(ctx_exp, fine.knots)
    w_coarse = compensator_weights(ctx_exp, coarse.knots)
    inc_c, inc_f = [], []
    for i in range(150):
        pf = sample_path_direct(ctx_exp, fine, RandomStream(787, i))
        pc = restrict_path(pf, coarse)
        kc = compensator_curve(pc, occupation_estimate(pc, 0.0, eps), w_coarse)
        kf = compensator_curve(pf, occupation_estimate(pf, 0.0, eps), w_fine)
        inc_c.append(np.max(np.diff(kc)))
        inc_f.append(np.max(np.diff(kf)))
    ratio = np.mean(inc_f) / np.mean(inc_c)
    assert 0.4 <= ratio <= 0.7, ratio
