import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from infobridge.distributions import DefaultDistribution, parse_distribution
from infobridge.errors import ConfigError, DomainError
from infobridge.quadrature import QuadratureSpec, integrate_finite, integrate_semi_infinite

from oracles import general_density, riemann_midpoint, tabulated_density

# Frozen from the dense-tabulation oracle (step 5e-5 on [0, 30]).
GAMMA21_TABULATED_AT_1 = 0.36787944124915106

KS_CRIT_1PCT = 1.6276  # sqrt(-0.5 * ln(0.005)); statistic gate c / sqrt(n)


def _gen(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def test_exponential_density_at_one():
    d = DefaultDistribution.exponential(1.0)
    assert abs(d.density_f(1.0) - math.exp(-1.0)) < 1e-14


def test_uniform_density_outside_support():
    d = DefaultDistribution.uniform(0.0, 2.0)
    assert d.density_f(3.0) == 0.0


def test_gamma_density_matches_tabulated_oracle():
    t, f = tabulated_density(lambda v: v * np.exp(-v), 30.0, 5e-5)
    oracle = float(np.interp(1.0, t, f))
    assert abs(oracle - GAMMA21_TABULATED_AT_1) < 1e-12
    d = DefaultDistribution.gamma(2.0, 1.0)
    assert abs(d.density_f(1.0) - oracle) < 1e-9


def test_density_vanishes_at_infinity():
    # the gamma kernel is inf - inf at +inf for shapes above 1
    for d in (DefaultDistribution.exponential(1.0),
              DefaultDistribution.gamma(3.0, 1.0),
              DefaultDistribution.gamma(0.5, 2.0),
              DefaultDistribution.uniform(0.0, 2.0),
              DefaultDistribution.lognormal(0.0, 0.5),
              DefaultDistribution.from_table([0.0, 1.0, 2.0], [1.0, 2.0, 1.0])):
        with np.errstate(all="raise"):
            assert d.density_f(math.inf) == 0.0
            assert _bits(d.density_f(np.array([math.inf, -math.inf]))) == _bits([0.0, 0.0])


def test_cdf_zero_at_origin():
    for d in (DefaultDistribution.exponential(1.0),
              DefaultDistribution.gamma(2.0, 1.0),
              DefaultDistribution.uniform(0.0, 2.0),
              DefaultDistribution.lognormal(0.0, 0.5)):
        assert d.cdf_F(0.0) == 0.0


def test_scalar_density_is_the_array_value():
    # At this t, log(t) ** 2 on a numpy float (pow) and on an array (a
    # product) differ by one ulp; scipy.stats evaluates on arrays, and so
    # must a scalar call.
    d = DefaultDistribution.lognormal(0.0, 0.5)
    t = 4.847166970951467
    assert d.density_f(t) == d.density_f(np.array([t]))[0] == stats.lognorm(s=0.5).pdf(t)


def test_exponential_median():
    d = DefaultDistribution.exponential(1.0)
    assert abs(d.cdf_F(math.log(2.0)) - 0.5) < 1e-14


def test_uniform_cdf_is_linear():
    d = DefaultDistribution.uniform(0.0, 2.0)
    assert abs(d.cdf_F(0.5) - 0.25) < 1e-14


def test_sampler_mean_gate():
    d = DefaultDistribution.exponential(1.0)
    gen = _gen(42)
    n = 10 ** 5
    draws = d.quantile(gen.random(n))
    assert abs(draws.mean() - 1.0) <= 3.0 / math.sqrt(n)


def test_uniform_sampler_support():
    d = DefaultDistribution.uniform(0.0, 2.0)
    gen = _gen(7)
    draws = np.array([d.sample_tau(gen) for _ in range(500)])
    assert np.all((draws > 0.0) & (draws < 2.0))


def test_sampler_determinism():
    d = DefaultDistribution.gamma(2.0, 1.0)
    a = [d.sample_tau(_gen(99)) for _ in range(1)]
    b = [d.sample_tau(_gen(99)) for _ in range(1)]
    seq_a = [d.sample_tau(g) for g in [_gen(3)] for _ in range(5)]
    seq_b = [d.sample_tau(g) for g in [_gen(3)] for _ in range(5)]
    assert a == b and seq_a == seq_b


def test_effective_horizon():
    assert DefaultDistribution.exponential(1.0).t1 == math.inf
    assert DefaultDistribution.uniform(0.0, 2.0).t1 == 2.0
    t = np.linspace(0.0, 5.0, 501)
    d = DefaultDistribution.from_table(t, np.exp(-t))
    assert d.t1 == 5.0


@pytest.mark.parametrize("d", [
    DefaultDistribution.exponential(1.3),
    DefaultDistribution.gamma(2.0, 1.5),
    DefaultDistribution.uniform(0.0, 2.0),
    DefaultDistribution.lognormal(-0.2, 0.6),
])
def test_sampler_kolmogorov_smirnov(d):
    gen = _gen(20260811)
    n = 10 ** 4
    draws = d.quantile(gen.random(n))
    stat = stats.kstest(draws, d.cdf_F).statistic
    assert stat < KS_CRIT_1PCT / math.sqrt(n)


@pytest.mark.parametrize("d", [
    DefaultDistribution.exponential(0.7),
    DefaultDistribution.gamma(3.0, 2.0),
    DefaultDistribution.uniform(0.5, 3.0),
    DefaultDistribution.lognormal(0.1, 0.4),
])
def test_unit_mass(d):
    spec = QuadratureSpec()
    t1 = d.t1
    if math.isfinite(t1):
        mass, _ = integrate_finite(lambda v: float(d.density_f(v)), 0.0, t1, spec)
    else:
        cut = d.tail_cut(spec.tail_cutoff_mass)
        mass, _ = integrate_semi_infinite(lambda v: float(d.density_f(v)), 0.0,
                                          spec, truncation=cut)
        mass += 1.0 - d.cdf_F(cut)
    assert abs(mass - 1.0) <= 1e-9


@pytest.mark.parametrize("d,grid", [
    (DefaultDistribution.exponential(1.0), np.linspace(0.1, 4.0, 17)),
    (DefaultDistribution.gamma(2.0, 1.0), np.linspace(0.1, 6.0, 17)),
    (DefaultDistribution.uniform(0.0, 2.0), np.linspace(0.1, 1.9, 10)),
    (DefaultDistribution.lognormal(0.0, 0.5), np.linspace(0.2, 4.0, 17)),
])
def test_density_is_derivative_of_cdf(d, grid):
    h = 1e-5
    for t in grid:
        num = (d.cdf_F(t + h) - d.cdf_F(t - h)) / (2.0 * h)
        assert abs(num - d.density_f(t)) < 1e-5


def test_table_roundtrip_and_quantile():
    t = np.linspace(0.0, 5.0, 401)
    d = DefaultDistribution.from_table(t, (1.0 + t) * np.exp(-t))
    u = np.linspace(0.001, 0.999, 57)
    q = d.quantile(u)
    back = d.cdf_F(q)
    assert np.max(np.abs(back - u)) < 1e-12
    assert np.all(np.diff(q) > 0)
    assert np.array_equal(pickle.loads(pickle.dumps(d)).quantile(u), q)


def test_table_is_renormalized():
    t = np.linspace(0.0, 5.0, 1001)
    d = DefaultDistribution.from_table(t, 7.3 * np.exp(-t))
    mass = riemann_midpoint(lambda v: d.density_f(v), 0.0, 5.0, 2 * 10 ** 6)
    assert abs(mass - 1.0) < 1e-9


def test_table_file_loading(tmp_path):
    t = np.linspace(0.0, 4.0, 201)
    f = np.exp(-t)
    path = tmp_path / "law.csv"
    lines = ["t,f"] + [f"{a:.17g},{b:.17g}" for a, b in zip(t, f)]
    path.write_text("\n".join(lines) + "\n")
    d = DefaultDistribution.from_table_file(str(path))
    assert d.t1 == 4.0
    assert abs(d.density_f(1.0) - math.exp(-1.0) / (1.0 - math.exp(-4.0))) < 1e-3


def test_table_validation():
    with pytest.raises(DomainError):
        DefaultDistribution.from_table([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        DefaultDistribution.from_table([0.0, 1.0], [1.0, -1.0])
    with pytest.raises(DomainError):
        DefaultDistribution.from_table([-1.0, 1.0], [1.0, 1.0])
    for t, f in (([0.0, 1.0, 2.0], [1.0, math.nan, 1.0]),
                 ([0.0, 1.0, 2.0], [1.0, math.inf, 1.0]),
                 ([0.0, 1.0, 2.0], [1.0, 1.0]),         # arrays that do not match
                 ([0.0, 1.0, 2.0], [0.0, 0.0, 0.0]),    # zero mass
                 ([0.0, 1.0, math.inf], [1.0, 1.0, 1.0]),
                 ([0.0, math.nan, 2.0], [1.0, 1.0, 1.0])):
        with pytest.raises(DomainError):
            DefaultDistribution.from_table(t, f)


def test_repr_names_the_law():
    table = DefaultDistribution.from_table([0.0, 1.0, 2.0], [1.0, 2.0, 1.0])
    assert repr(table) == "DefaultDistribution(table, 3 knots, t1=2.0)"
    assert repr(parse_distribution("gamma:2,2")) == "DefaultDistribution(gamma:2,2)"


@pytest.mark.parametrize("make", [
    lambda: DefaultDistribution("weibull", (1.0, 2.0)),
    lambda: DefaultDistribution.exponential(0.0),
    lambda: DefaultDistribution.exponential(-1.0),
    lambda: DefaultDistribution.gamma(0.0, 1.0),
    lambda: DefaultDistribution.gamma(2.0, -1.0),
    lambda: DefaultDistribution.lognormal(0.0, 0.0),
    lambda: DefaultDistribution.lognormal(0.0, -0.5),
])
def test_factories_reject_bad_parameters(make):
    # an unknown kind, and a nonpositive rate, shape or sigma
    with pytest.raises(DomainError):
        make()


def test_table_file_with_another_header_is_config_error(tmp_path):
    for header in ("time,density", "f,t", "t,g"):
        path = tmp_path / "law.csv"
        path.write_text(f"{header}\n0,1\n1,1\n")
        with pytest.raises(ConfigError, match="header"):
            DefaultDistribution.from_table_file(str(path))


def test_parse_distribution():
    assert parse_distribution("exp:1.0").kind == "exponential"
    assert parse_distribution("gamma:2,1").kind == "gamma"
    assert parse_distribution("uniform:0,2").t1 == 2.0
    assert parse_distribution("lognormal:0.0,0.5").kind == "lognormal"
    # valid supports with a positive lower edge, and a wide lognormal spread
    assert parse_distribution("uniform:0.001,2.9").t1 == 2.9
    assert parse_distribution("uniform:0.0001,0.9").t1 == 0.9
    assert parse_distribution("lognormal:0,3").kind == "lognormal"
    for bad in ("exp", "exp:a", "gamma:1", "weibull:1,2", "uniform:2,1",
                "exp:nan", "gamma:inf,1", "lognormal:nan,0.5", "uniform:0,inf"):
        with pytest.raises(ConfigError):
            parse_distribution(bad)


def test_quantile_domain():
    d = DefaultDistribution.exponential(1.0)
    for bad in (1.0, -1e-300, np.float64(1.0), np.array([0.5, 1.0])):
        with pytest.raises(DomainError):
            d.quantile(bad)
    assert math.isnan(d.quantile(math.nan))


# scipy.stats is the reference for the closed-form kernels: per family, the
# parameter strategy and the frozen scipy law with the same parameters.
_SCIPY_FAMILIES = {
    "exponential": (st.tuples(st.floats(1e-3, 1e3)),
                    lambda rate: stats.expon(scale=1.0 / rate)),
    "gamma": (st.tuples(st.floats(0.05, 50.0), st.floats(1e-2, 1e2)),
              lambda shape, rate: stats.gamma(a=shape, scale=1.0 / rate)),
    "uniform": (st.tuples(st.floats(0.0, 10.0), st.floats(1e-3, 10.0)).map(
                    lambda p: (p[0], p[0] + p[1])),
                lambda lo, hi: stats.uniform(loc=lo, scale=hi - lo)),
    "lognormal": (st.tuples(st.floats(-3.0, 3.0), st.floats(0.05, 3.0)),
                  lambda mu, sigma: stats.lognorm(s=sigma, scale=math.exp(mu))),
}


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data(), kind=st.sampled_from(sorted(_SCIPY_FAMILIES)))
def test_kernels_match_scipy_stats(data, kind):
    params_strategy, frozen_law = _SCIPY_FAMILIES[kind]
    params = data.draw(params_strategy)
    d = DefaultDistribution(kind, params)
    frozen = frozen_law(*params)
    edges = [0.0, d.tail_cut(1e-12)] + ([d.params[0]] if kind == "uniform" else [])
    t = np.concatenate([
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        [-1.0, -1e-300, -0.0, 1e-300, np.inf],
        d.quantile(np.linspace(0.0, 0.999, 7)),
        data.draw(st.lists(st.floats(-5.0, 1e3), max_size=20)),
    ])
    with np.errstate(all="ignore"):
        # f(+inf) is 0 on every law; scipy.stats is NaN there for gamma
        # shapes above 1
        f_ref = np.where((t < 0) | (t == np.inf), 0.0, frozen.pdf(t))
        cdf_ref = np.where(t < 0, 0.0, frozen.cdf(t))
        assert _bits(d.density_f(t)) == _bits(f_ref)
        assert _bits(d.cdf_F(t)) == _bits(cdf_ref)
        clone = pickle.loads(pickle.dumps(d))
        assert _bits(clone.density_f(t)) == _bits(f_ref)
        for v in t.tolist():
            f, cdf = d.density_f(v), d.cdf_F(v)
            assert type(f) is float and type(cdf) is float
            assert _bits(f) == _bits(np.where(v < 0 or v == math.inf, 0.0, frozen.pdf(v)))
            assert _bits(cdf) == _bits(np.where(v < 0, 0.0, frozen.cdf(v)))
    u = np.array(data.draw(st.lists(st.floats(0.0, 0.999999), min_size=1, max_size=10)))
    assert type(d.quantile(float(u[0]))) is float
    assert np.max(np.abs(d.cdf_F(d.quantile(u)) - u)) <= 1e-9


@st.composite
def _any_law(draw):
    """A parametric law from the scipy-checked families, or a table law."""
    kind = draw(st.sampled_from(sorted(_SCIPY_FAMILIES) + ["table"]))
    if kind != "table":
        return DefaultDistribution(kind, draw(_SCIPY_FAMILIES[kind][0]))
    steps = draw(st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=12))
    t = draw(st.floats(0.0, 2.0)) + np.concatenate([[0.0], np.cumsum(steps)])
    f = draw(st.lists(st.floats(0.0, 5.0), min_size=len(t), max_size=len(t)))
    return DefaultDistribution.from_table(t, np.array(f) + 1e-3)


# Laws whose density is positive at both closed ends of its support.
_EDGE_LAWS = (DefaultDistribution.uniform(1.0, 3.0),
              DefaultDistribution.from_table([0.5, 1.0, 2.0], [1.0, 0.5, 0.25]))


def _support_ends(d):
    if d.kind == "uniform":
        return list(d.params)
    if d.kind == "table":
        return [float(d.breakpoints[0]), float(d.breakpoints[-1])]
    return []


def _assert_float_calls_match_array(d, t):
    floats = [d.density_f(float(v)) for v in t]
    assert all(type(v) is float for v in floats)
    scalars = np.array(floats)
    assert _bits([d.density_f(v) for v in t]) == _bits(scalars)  # np.float64 in
    assert _bits(d.density_f(t)) == _bits(scalars)
    assert _bits(d.density_f(t.reshape(1, -1))) == _bits(scalars.reshape(1, -1))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data(), d=_any_law())
def test_density_array_matches_scalar_calls(data, d):
    # Nodes all inside the support take the whole-array route; a mix with
    # negative, beyond-support and NaN nodes takes the masked route.  The
    # exact support ends, signed zeros and +inf go in the mix.
    inside = d.quantile(np.array(data.draw(
        st.lists(st.floats(0.0, 0.999), min_size=1, max_size=30))))
    beyond = d.tail_cut(1e-12) + np.array(data.draw(
        st.lists(st.floats(1e-9, 100.0), max_size=5)))
    negative = np.array(data.draw(st.lists(st.floats(-50.0, -1e-300), max_size=5)))
    edges = np.array(_support_ends(d) + [0.0, -0.0, np.inf])
    mixed = np.concatenate([inside, beyond, negative, edges, [np.nan]])
    mixed = mixed[np.array(data.draw(st.permutations(range(len(mixed)))))]
    with np.errstate(all="ignore"):
        for t in (inside, mixed):
            _assert_float_calls_match_array(d, t)
        for law in _EDGE_LAWS:
            ends = np.array(_support_ends(law))
            assert np.all(law.density_f(ends) > 0)
            _assert_float_calls_match_array(law, ends)
            _assert_float_calls_match_array(law, np.concatenate([ends, edges]))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data(), d=_any_law())
def test_quantile_float_matches_array(data, d):
    u = np.array([0.0] + data.draw(st.lists(
        st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=30)))
    floats = [d.quantile(float(v)) for v in u]
    assert all(type(v) is float for v in floats)
    assert _bits(floats) == _bits(d.quantile(u))


# density_f skips the subtraction of a zero loc, both divisions by a unit
# scale and the t >= 0 reduction where y is t itself; each is an exact
# identity, so every law keeps the bits of the general rule.
_GENERAL_RULE_LAWS = {
    **{spec: parse_distribution(spec) for spec in (
        "exp:1.0", "exp:2.5", "gamma:2,2", "lognormal:0,0.5", "lognormal:1,0.3",
        "uniform:0,1", "uniform:1,3")},
    "table401": DefaultDistribution.from_table(np.linspace(0.0, 20.0, 401),
                                               np.exp(-np.linspace(0.0, 20.0, 401))),
}


@pytest.mark.parametrize("spec", sorted(_GENERAL_RULE_LAWS))
def test_density_has_the_bits_of_the_general_rule(spec):
    d = _GENERAL_RULE_LAWS[spec]
    cut = d.tail_cut(1e-9)
    # all inside the support (the whole-array route), then a mix with
    # signed zeros, NaN, infinities, subnormals and points beyond the
    # support on both sides (the masked route)
    inside = d.quantile(np.linspace(1e-6, 0.999, 257))
    beyond = np.array([cut, np.nextafter(cut, np.inf), cut + 1.0, 1e300,
                       np.finfo(float).max])
    below = d.quantile(0.0) - np.array([1e-9, 0.5, 2.0])
    special = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, -1e-320, 5e-324, -1.0])
    mixed = np.concatenate([inside[::8], beyond, below, special])
    with np.errstate(all="ignore"):
        for t in (inside, mixed):
            ref = _bits(general_density(d, t))
            assert _bits(d.density_f(t)) == ref
            assert _bits([d.density_f(float(v)) for v in t]) == ref
