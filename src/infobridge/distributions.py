"""Laws of the default time.

A ``DefaultDistribution`` bundles the density f, distribution function F,
quantile function, a seeded sampler, the effective horizon
t1 = sup{t : F(t) < 1}, and the point where tail integrals against f stop
(``tail_cut``).  Parametric families are backed by scipy.stats;
user-tabulated densities are piecewise linear, renormalized at load.

All model quantities downstream are computed only for times below t1, and
bounded-support laws are therefore admitted even though the density of a
uniform law is discontinuous at its endpoints.
"""

import math

import numpy as np
from scipy import special as _special
from scipy import stats as _stats

from .errors import ConfigError, DomainError
from .quadrature import QuadratureSpec, integrate_finite

__all__ = ["DefaultDistribution", "parse_distribution"]

_KINDS = ("exponential", "gamma", "uniform", "lognormal", "table")

_MASS_TOL = 1e-9


class DefaultDistribution:
    """Law of the strictly positive random default time.

    Construct through the classmethod factories (``exponential``, ``gamma``,
    ``uniform``, ``lognormal``, ``from_table``) or from a CLI spec string via
    ``parse_distribution``.  Instances are immutable and safe to share across
    worker processes.
    """

    def __init__(self, kind, params, table=None):
        if kind not in _KINDS:
            raise DomainError(f"unknown distribution kind {kind!r}")
        self.kind = kind
        self.params = tuple(float(p) for p in params)
        if not all(math.isfinite(p) for p in self.params):
            raise DomainError(f"{kind} parameters must be finite, got {self.params}")
        self._table = table
        self._frozen = None
        if kind == "exponential":
            (rate,) = self.params
            if rate <= 0:
                raise DomainError("exponential rate must be positive")
            self._frozen = _stats.expon(scale=1.0 / rate)
            self.t1 = math.inf
        elif kind == "gamma":
            shape, rate = self.params
            if shape <= 0 or rate <= 0:
                raise DomainError("gamma shape and rate must be positive")
            self._frozen = _stats.gamma(a=shape, scale=1.0 / rate)
            self.t1 = math.inf
        elif kind == "uniform":
            lo, hi = self.params
            if not (0.0 <= lo < hi):
                raise DomainError("uniform support must satisfy 0 <= a < b")
            self._frozen = _stats.uniform(loc=lo, scale=hi - lo)
            self.t1 = hi
        elif kind == "lognormal":
            mu, sigma = self.params
            if sigma <= 0:
                raise DomainError("lognormal sigma must be positive")
            self._frozen = _stats.lognorm(s=sigma, scale=math.exp(mu))
            self.t1 = math.inf
        else:  # table
            t, f, cdf = table
            self._t = t
            self._f = f
            self._cdf = cdf
            self.t1 = float(t[-1])
        self._check_unit_mass()

    # -- factories ----------------------------------------------------------

    @classmethod
    def exponential(cls, rate):
        return cls("exponential", (rate,))

    @classmethod
    def gamma(cls, shape, rate):
        return cls("gamma", (shape, rate))

    @classmethod
    def uniform(cls, lo, hi):
        return cls("uniform", (lo, hi))

    @classmethod
    def lognormal(cls, mu, sigma):
        return cls("lognormal", (mu, sigma))

    @classmethod
    def from_table(cls, t, f):
        """Piecewise-linear density through the points (t_i, f_i).

        The knots must be strictly increasing with t_0 >= 0 and f >= 0.
        The density is renormalized so its trapezoid mass is exactly 1.
        """
        t = np.asarray(t, dtype=float)
        f = np.asarray(f, dtype=float)
        if t.ndim != 1 or t.size < 2 or f.shape != t.shape:
            raise DomainError("table needs matching 1-d arrays with >= 2 rows")
        if not np.all(np.diff(t) > 0):
            raise DomainError("table times must be strictly increasing")
        if t[0] < 0:
            raise DomainError("table support must start at t >= 0")
        if np.any(f < 0):
            raise DomainError("table density values must be nonnegative")
        mass = np.trapezoid(f, t)
        if mass <= 0:
            raise DomainError("table density has zero mass")
        f = f / mass
        seg = 0.5 * (f[1:] + f[:-1]) * np.diff(t)
        cdf = np.concatenate([[0.0], np.cumsum(seg)])
        cdf[-1] = 1.0
        return cls("table", (), table=(t, f, cdf))

    @classmethod
    def from_table_file(cls, path):
        """Load a CSV with header ``t,f`` and strictly increasing t."""
        rows = np.genfromtxt(path, delimiter=",", names=True)
        if rows.dtype.names is None or rows.dtype.names[:2] != ("t", "f"):
            raise ConfigError(f"{path}: expected CSV header 't,f'")
        return cls.from_table(rows["t"], rows["f"])

    # -- law ----------------------------------------------------------------

    def density_f(self, t):
        """Density of the default time at ``t`` (vectorized)."""
        t = np.asarray(t, dtype=float)
        if self.kind == "table":
            out = np.interp(t, self._t, self._f, left=0.0, right=0.0)
        else:
            out = self._frozen.pdf(t)
            out = np.where(t < 0, 0.0, out)
        return out if out.ndim else float(out)

    def cdf_F(self, t):
        """P(tau <= t) (vectorized)."""
        t = np.asarray(t, dtype=float)
        if self.kind == "table":
            out = self._table_cdf(t)
        else:
            out = self._frozen.cdf(t)
            out = np.where(t < 0, 0.0, out)
        return out if out.ndim else float(out)

    def quantile(self, u):
        """Inverse distribution function, defined for u in [0, 1).

        Closed-form (or special-function) inversions per family; the frozen
        scipy ppf carries too much per-call dispatch for path loops.
        """
        u = np.asarray(u, dtype=float)
        if np.any((u < 0) | (u >= 1)):
            raise DomainError("quantile argument must lie in [0, 1)")
        if self.kind == "exponential":
            out = -np.log1p(-u) / self.params[0]
        elif self.kind == "gamma":
            shape, rate = self.params
            out = _special.gammaincinv(shape, u) / rate
        elif self.kind == "uniform":
            lo, hi = self.params
            out = lo + (hi - lo) * u
        elif self.kind == "lognormal":
            mu, sigma = self.params
            out = np.exp(mu + sigma * _special.ndtri(np.maximum(u, 1e-320)))
            out = np.where(u == 0.0, 0.0, out)
        else:
            out = self._table_quantile(u)
        return out if out.ndim else float(out)

    def sample_tau(self, rng):
        """One draw of the default time by inversion of the supplied stream.

        ``rng`` is a numpy Generator (or anything with a ``generator()``
        accessor, e.g. a RandomStream).  The draw consumes exactly one
        uniform, so a stream's draw sequence is reproducible.
        """
        gen = rng.generator() if hasattr(rng, "generator") else rng
        return float(self.quantile(gen.random()))

    def tail_cut(self, mass):
        """Where tail integrals against f stop: t1 when it is finite (f
        vanishes beyond it), else the quantile that leaves ``mass`` beyond it."""
        if math.isfinite(self.t1):
            return self.t1
        return float(self.quantile(1.0 - mass))

    # -- internals ----------------------------------------------------------

    def _table_cdf(self, t):
        tk, fk, ck = self._t, self._f, self._cdf
        idx = np.clip(np.searchsorted(tk, t, side="right") - 1, 0, len(tk) - 2)
        x = np.clip(t - tk[idx], 0.0, None)
        slope = (fk[idx + 1] - fk[idx]) / (tk[idx + 1] - tk[idx])
        val = ck[idx] + fk[idx] * x + 0.5 * slope * x * x
        val = np.where(t <= tk[0], 0.0, val)
        val = np.where(t >= tk[-1], 1.0, val)
        return np.clip(val, 0.0, 1.0)

    def _table_quantile(self, u):
        tk, fk, ck = self._t, self._f, self._cdf
        idx = np.clip(np.searchsorted(ck, u, side="right") - 1, 0, len(tk) - 2)
        du = u - ck[idx]
        slope = (fk[idx + 1] - fk[idx]) / (tk[idx + 1] - tk[idx])
        # Root of 0.5*slope*x^2 + f_i*x = du, written to avoid cancellation.
        disc = np.sqrt(np.maximum(fk[idx] ** 2 + 2.0 * slope * du, 0.0))
        denom = fk[idx] + disc
        x = np.where(denom > 0, 2.0 * du / np.where(denom > 0, denom, 1.0), 0.0)
        return tk[idx] + np.clip(x, 0.0, tk[idx + 1] - tk[idx])

    def _check_unit_mass(self):
        spec = QuadratureSpec()
        if self.kind == "table":
            # Piecewise-linear density: integrate segment by segment so the
            # adaptive rule never chases interpolation kinks.
            mass = 0.0
            for lo, hi in zip(self._t[:-1], self._t[1:]):
                seg, _ = integrate_finite(self.density_f, float(lo), float(hi), spec)
                mass += seg
        else:
            # From the lower support edge (the adaptive rule may never sample
            # a short gap below it) up to the tail cut, plus the cut tail mass.
            lower = self.params[0] if self.kind == "uniform" else 0.0
            cut = self.tail_cut(spec.tail_cutoff_mass)
            mass, _ = integrate_finite(self.density_f, lower, cut, spec)
            mass += 1.0 - float(self.cdf_F(cut))
        if abs(mass - 1.0) > _MASS_TOL:
            raise DomainError(f"density mass {mass!r} differs from 1")

    def __repr__(self):
        if self.kind == "table":
            return f"DefaultDistribution(table, {len(self._t)} knots, t1={self.t1})"
        args = ",".join(f"{p:g}" for p in self.params)
        return f"DefaultDistribution({self.kind}:{args})"


def parse_distribution(text):
    """Parse a distribution spec string.

    Grammar: ``exp:<rate>``, ``gamma:<shape>,<rate>``, ``uniform:<a>,<b>``,
    ``lognormal:<mu>,<sigma>``, ``table:<path>``.
    """
    if ":" not in text:
        raise ConfigError(f"malformed distribution spec {text!r}")
    head, _, rest = text.partition(":")
    head = head.strip().lower()
    if head == "table":
        return DefaultDistribution.from_table_file(rest.strip())
    try:
        args = [float(tok) for tok in rest.split(",")] if rest.strip() else []
    except ValueError as exc:
        raise ConfigError(f"bad numeric parameter in {text!r}") from exc
    try:
        if head == "exp" and len(args) == 1:
            return DefaultDistribution.exponential(args[0])
        if head == "gamma" and len(args) == 2:
            return DefaultDistribution.gamma(*args)
        if head == "uniform" and len(args) == 2:
            return DefaultDistribution.uniform(*args)
        if head == "lognormal" and len(args) == 2:
            return DefaultDistribution.lognormal(*args)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unrecognized distribution spec {text!r}")
