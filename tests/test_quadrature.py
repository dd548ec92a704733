import math

import numpy as np
import pytest

from infobridge.distributions import DefaultDistribution
from infobridge.errors import DomainError, NonConvergence
from infobridge.quadrature import QuadratureSpec, integrate_finite, integrate_semi_infinite

from oracles import composite_simpson, riemann_midpoint

SPEC = QuadratureSpec()

# Frozen oracle outputs (regenerated live below where cheap).
SIMPSON_SIN_1E6 = 1.9999999999999991      # composite Simpson, 1e6 panels on [0, pi]
RIEMANN_HALF_GAUSS_1E7 = 1.0000000000010412  # midpoint sum, 1e7 cells on [0, 50]
SQRT_PI_OVER_E = 0.6520493321732922       # 2. int_0^inf exp(-1-z^2) dz = sqrt(pi)/e


def test_polynomial_is_exact():
    value, err = integrate_finite(lambda x: x, 0.0, 1.0, SPEC)
    assert abs(value - 0.5) < 1e-13
    assert err < 1e-9


def test_inverse_sqrt_singularity_via_substitution():
    value, _ = integrate_finite(lambda v: v ** -0.5, 0.0, 1.0, SPEC, singular_at_a=True)
    assert abs(value - 2.0) < 1e-10


def test_sine_matches_simpson_oracle():
    oracle = composite_simpson(np.sin, 0.0, math.pi, 10 ** 6)
    assert abs(oracle - SIMPSON_SIN_1E6) < 1e-12
    value, _ = integrate_finite(math.sin, 0.0, math.pi, SPEC)
    assert abs(value - oracle) < 1e-9


def test_exponential_tail_with_envelope():
    env = DefaultDistribution.exponential(1.0)
    value, err = integrate_semi_infinite(lambda x: math.exp(-x), 0.0, SPEC,
                                         truncation=env.tail_cut(SPEC.tail_cutoff_mass))
    assert abs(value - 1.0) <= 1e-8
    assert err > 0


def test_exponential_tail_with_explicit_truncation():
    value, _ = integrate_semi_infinite(lambda x: math.exp(-x), 0.0, SPEC, truncation=60.0)
    assert abs(value - 1.0) < 1e-10


def test_singular_tail_closed_form():
    value, _ = integrate_semi_infinite(lambda v: (v - 1.0) ** -0.5 * math.exp(-v),
                                       1.0, SPEC, truncation=40.0)
    assert abs(value - SQRT_PI_OVER_E) < 1e-9 * SQRT_PI_OVER_E + 1e-12


def test_half_gaussian_matches_riemann_oracle():
    oracle = riemann_midpoint(lambda x: x * np.exp(-0.5 * x * x), 0.0, 50.0, 10 ** 7)
    assert abs(oracle - RIEMANN_HALF_GAUSS_1E7) < 1e-11
    value, _ = integrate_semi_infinite(lambda x: x * math.exp(-0.5 * x * x),
                                       0.0, SPEC, truncation=50.0)
    assert abs(value - 1.0) < 1e-9
    assert abs(value - oracle) < 2e-9


def test_linearity_on_random_smooth_integrands():
    rng = np.random.default_rng(20260811)
    for _ in range(25):
        a1, b1, c1 = rng.uniform(0.2, 3.0, size=3)
        a2, b2, c2 = rng.uniform(0.2, 3.0, size=3)
        alpha, beta = rng.uniform(-2.0, 2.0, size=2)

        def f(x):
            return a1 * math.exp(-b1 * x) + math.cos(c1 * x)

        def g(x):
            return a2 * math.sin(b2 * x) + math.exp(-c2 * x * x)

        lo, hi = 0.0, float(rng.uniform(0.5, 4.0))
        vf, ef = integrate_finite(f, lo, hi, SPEC)
        vg, eg = integrate_finite(g, lo, hi, SPEC)
        vc, ec = integrate_finite(lambda x: alpha * f(x) + beta * g(x), lo, hi, SPEC)
        combined = alpha * vf + beta * vg
        budget = 2.0 * (max(SPEC.abs_tol, SPEC.rel_tol * abs(vf * alpha))
                        + max(SPEC.abs_tol, SPEC.rel_tol * abs(vg * beta))
                        + max(SPEC.abs_tol, SPEC.rel_tol * abs(vc)))
        assert abs(vc - combined) <= budget


def test_truncation_consistency():
    env = DefaultDistribution.exponential(1.0)
    tight = QuadratureSpec(tail_cutoff_mass=5e-10)
    v1, e1 = integrate_semi_infinite(lambda x: math.exp(-x), 0.0, SPEC,
                                     truncation=env.tail_cut(SPEC.tail_cutoff_mass))
    v2, _ = integrate_semi_infinite(lambda x: math.exp(-x), 0.0, tight,
                                    truncation=env.tail_cut(tight.tail_cutoff_mass))
    assert abs(v1 - v2) < e1


def test_bounds_out_of_order():
    with pytest.raises(DomainError):
        integrate_finite(lambda x: x, 1.0, 0.0, SPEC)


def test_degenerate_interval_is_zero():
    assert integrate_finite(lambda x: x, 2.0, 2.0, SPEC) == (0.0, 0.0)
    assert integrate_semi_infinite(lambda x: math.exp(-x), 5.0, SPEC,
                                   truncation=5.0) == (0.0, 0.0)


def test_nonconvergence_when_budget_exhausted():
    # 1/v is not integrable at 0: the default budget runs out
    with pytest.raises(NonConvergence):
        integrate_finite(lambda v: 1.0 / v, 0.0, 1.0, SPEC)


def test_truncation_below_lower_bound_is_out_of_order():
    with pytest.raises(DomainError):
        integrate_semi_infinite(lambda x: math.exp(-x), 5.0, SPEC, truncation=4.0)
    with pytest.raises(DomainError):
        integrate_semi_infinite(lambda x: math.exp(-x), 5.0, SPEC,
                                truncation=math.nan)


def test_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureSpec(tail_cutoff_mass=1e-3)
