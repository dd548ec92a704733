"""Deterministic one-dimensional quadrature.

Wraps adaptive Gauss-Kronrod subdivision (QUADPACK via scipy) behind the two
entry points the model needs: plain finite intervals, and semi-infinite
tails that may carry an inverse-square-root singularity at the lower
endpoint, truncated at a point the caller supplies.  Where a tail is cut is a
property of the law being integrated against
(``DefaultDistribution.tail_cut``), not of the integrator.

The singularity is never handed to the adaptive rule directly: with the
substitution v = a + z**2 an integrand behaving like (v - a)**-0.5 near a
becomes smooth, so the subdivision spends its budget on genuine structure.

``row_tiles`` splits the (rows x nodes) arrays of the fixed-rule
Gauss-Legendre kernels in ``laws`` into row tiles.
"""

import math
import warnings
from dataclasses import dataclass

from .errors import DomainError, NonConvergence

__all__ = ["QuadratureSpec", "integrate_finite", "integrate_semi_infinite",
           "TILE_ELEMENTS", "row_tiles"]

# 8192 float64 values, 64 KiB per temporary: half of glibc's default 128 KiB
# mmap threshold, so a tile's temporaries are reused from the heap instead of
# being mapped and page-faulted afresh on every call, and a few of them fit
# in L2 together.  On a 2-core Xeon the window survivor (exp:1.0, dt 0.005)
# cost 1.2-1.3 ms per path at this size, 1.4-1.9 ms at 16384 and 2.0-2.8 ms
# at 32768, about what it cost untiled.
TILE_ELEMENTS = 8192


def row_tiles(n_rows, row_width):
    """Slices of ``range(n_rows)``, in order, each covering at most
    ``TILE_ELEMENTS`` elements of rows ``row_width`` wide (one row at least).
    A kernel whose rows are independent gives the same bits per row on any
    tiling."""
    step = max(1, TILE_ELEMENTS // row_width)
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for adaptive quadrature.

    rel_tol / abs_tol are the usual mixed tolerance targets.  tail_cutoff_mass
    is the probability mass a default law may leave beyond the point where its
    tail integrals are cut (``DefaultDistribution.tail_cut``); it is kept at
    most 1e-6 so truncation error stays far below any Monte Carlo noise floor.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    tail_cutoff_mass: float = 1e-9

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise DomainError("rel_tol and abs_tol must be positive")
        if not (0.0 < self.tail_cutoff_mass <= 1e-6):
            raise DomainError("tail_cutoff_mass must lie in (0, 1e-6]")


def _quad(f, a, b, spec, points=None):
    """Adaptive quadrature on [a, b]; raises NonConvergence on a bad estimate."""
    # imported on first use: scipy.integrate holds about 26 MB, and a run
    # that only samples paths never calls it
    from scipy import integrate

    points = sorted(p for p in points or () if a < p < b) or None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = integrate.quad(
            f, a, b,
            epsabs=spec.abs_tol,
            epsrel=spec.rel_tol,
            limit=200 + len(points or ()),  # one more per starting point
            points=points,
            full_output=True,
        )
    value, err = out[0], out[1]
    if len(out) > 3:
        # QUADPACK flagged trouble; accept only if the estimate still meets a
        # loosened version of the requested tolerance.
        target = max(spec.abs_tol, spec.rel_tol * abs(value))
        if not math.isfinite(value) or err > 10.0 * target:
            raise NonConvergence(
                f"quadrature on [{a}, {b}] did not converge: {out[3]}"
            )
    return value, err


def integrate_finite(integrand, a, b, spec=QuadratureSpec(), interior_points=None):
    """Integrate ``integrand``, finite on (a, b), over [a, b] with a <= b.

    The subdivision starts from ``interior_points``, known sharp features,
    instead of having to discover them.  Returns (value, error estimate).
    """
    if not a <= b:
        raise DomainError(f"integration bounds out of order: a={a}, b={b}")
    if a == b:
        return 0.0, 0.0
    return _quad(integrand, a, b, spec, points=interior_points)


def integrate_semi_infinite(integrand, a, spec=QuadratureSpec(), *, truncation,
                            interior_points=None):
    """Integrate ``integrand`` over [a, oo), cut at ``truncation``.

    Always taken after the substitution v = a + z**2, so the integrand may
    carry a (v - a)**-0.5 singularity at a; ``interior_points`` are given in
    v.  The caller chooses ``truncation`` as a point beyond which the
    integral is negligible; a cut below ``a`` raises ``DomainError``.  The
    reported error estimate includes a term for the discarded tail, sized by
    the cutoff mass relative to the computed value.
    """
    b = float(truncation)
    if not a <= b:
        raise DomainError(f"integration bounds out of order: a={a}, b={b}")
    z_points = [math.sqrt(p - a) for p in interior_points or () if p > a]
    value, err = integrate_finite(lambda z: 2.0 * z * integrand(a + z * z),
                                  0.0, math.sqrt(b - a), spec, interior_points=z_points)
    return value, err + abs(value) * spec.tail_cutoff_mass
