"""Laws of the default time.

A ``DefaultDistribution`` bundles the density f, distribution function F,
quantile function, a seeded sampler, the effective horizon
t1 = sup{t : F(t) < 1}, the point where tail integrals against f stop
(``tail_cut``), and the kinks of a tabulated f (``breakpoints``).
Parametric families are scipy.special kernels, written as scipy.stats
evaluates them; tabulated densities are piecewise linear.  ``density_f``
and ``quantile`` take a float or an array: a float in gives a float out,
computed by the same kernels with the same ufuncs, so it has the bits of
the array element at that point.  (The adaptive law integrals call them
once per node on floats; wrapping each node in an array cost ten times the
kernel.)

All model quantities downstream are computed only for times below the tail
cut, and bounded-support laws are therefore admitted even though the
density of a uniform law is discontinuous at its endpoints.
"""

import math

import numpy as np
from scipy import special as _special

from .errors import ConfigError, DomainError

__all__ = ["DefaultDistribution", "parse_distribution"]

_KINDS = ("exponential", "gamma", "uniform", "lognormal", "table")

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _lognormal_pdf(y, sigma):
    # For y > 0 only (density_f gives 0 at y = 0).  The square is a product:
    # ``**`` on a numpy float goes through pow, which can round differently
    # from the product an array gets.
    lz = np.log(y)
    return np.exp(-(lz * lz) / (2 * (sigma * sigma)) - np.log(sigma * y * _SQRT_2PI))


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
        # f(t) = pdf(y) / scale and F(t) = cdf(y) with y = (t - loc) / scale,
        # on the support [lo, hi] in y; ppf maps u straight to t.
        self.t1 = math.inf
        # Kinks of f where tail integrals should start a new subinterval.
        self.breakpoints = np.empty(0)
        self._loc, self._scale, self._lo, self._hi = 0.0, 1.0, 0.0, math.inf
        if kind == "exponential":
            (rate,) = self.params
            if rate <= 0:
                raise DomainError("exponential rate must be positive")
            self._scale = 1.0 / rate
            self._pdf = lambda y: np.exp(-y)
            self._cdf = lambda y: -_special.expm1(-y)
            self._ppf = lambda u: -np.log1p(-u) / rate
        elif kind == "gamma":
            shape, rate = self.params
            if shape <= 0 or rate <= 0:
                raise DomainError("gamma shape and rate must be positive")
            self._scale = 1.0 / rate
            log_norm = _special.gammaln(shape)
            self._pdf = lambda y: np.exp(_special.xlogy(shape - 1.0, y) - y - log_norm)
            self._cdf = lambda y: _special.gammainc(shape, y)
            self._ppf = lambda u: _special.gammaincinv(shape, u) / rate
        elif kind == "uniform":
            lo, hi = self.params
            if not (0.0 <= lo < hi):
                raise DomainError("uniform support must satisfy 0 <= a < b")
            self._loc, self._scale, self._hi = lo, hi - lo, 1.0
            self.t1 = hi
            self._pdf = np.ones_like
            self._cdf = lambda y: y
            self._ppf = lambda u: lo + (hi - lo) * u
        elif kind == "lognormal":
            mu, sigma = self.params
            if sigma <= 0:
                raise DomainError("lognormal sigma must be positive")
            self._scale = math.exp(mu)
            self._pdf = lambda y: _lognormal_pdf(y, sigma)
            self._cdf = lambda y: _special.ndtr(np.log(y) / sigma)
            self._ppf = lambda u: np.where(
                u == 0.0, 0.0, np.exp(mu + sigma * _special.ndtri(np.maximum(u, 1e-320))))
        else:  # table
            t, f, _ = table
            self._lo, self._hi = float(t[0]), float(t[-1])
            self.t1 = self._hi
            self.breakpoints = t
            self._pdf = lambda y: np.interp(y, t, f)
            self._cdf = self._table_cdf
            self._ppf = self._table_quantile
        # f is evaluated on [f_lo, f_hi], so f(+inf) is 0 on every law (the
        # gamma kernel is inf - inf there), and the lognormal kernel never
        # takes log(0): its f(0) is exp(-inf) = 0.
        self._f_lo = math.ulp(0.0) if kind == "lognormal" else self._lo
        self._f_hi = min(self._hi, np.finfo(float).max)

    def __reduce__(self):
        # The kernels are closures; rebuild them from the defining data.
        return (DefaultDistribution, (self.kind, self.params, self._table))

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

        Knots finite and strictly increasing with t_0 >= 0; f finite, >= 0.
        The density is renormalized so its trapezoid mass is exactly 1.
        """
        t = np.asarray(t, dtype=float)
        f = np.asarray(f, dtype=float)
        if t.ndim != 1 or t.size < 2 or f.shape != t.shape:
            raise DomainError("table needs matching 1-d arrays with >= 2 rows")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(f))):
            raise DomainError("table times and densities must be finite")
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
        try:
            rows = np.genfromtxt(path, delimiter=",", names=True)
        except ValueError as exc:  # rows of the wrong length
            raise ConfigError(f"{path}: {exc}") from exc
        if rows.dtype.names is None or rows.dtype.names[:2] != ("t", "f"):
            raise ConfigError(f"{path}: expected CSV header 't,f'")
        return cls.from_table(rows["t"], rows["f"])

    # -- law ----------------------------------------------------------------

    def density_f(self, t):
        """Density of the default time at ``t``: a float for a float, else
        an array of t's shape.  Both come from the same kernel, so a float
        has the bits of the array element at that point."""
        if isinstance(t, float):
            y = (t - self._loc) / self._scale
            if self._f_lo <= y <= self._f_hi and t >= 0:
                return float(self._pdf(y) / self._scale)
            return math.nan if math.isnan(y) else 0.0
        ta, y = self._standardize(t)
        # Three reductions settle the common all-inside case; a NaN fails
        # them (every comparison with NaN is false) and takes the masks.
        # t < 0 as well: y = (t - loc) / scale can underflow to -0.0.
        if y.size and (y.min() >= self._f_lo and y.max() <= self._f_hi
                       and ta.min() >= 0):
            out = self._pdf(y) / self._scale
        else:
            inside = (self._f_lo <= y) & (y <= self._f_hi) & (ta >= 0)
            out = np.where(np.isnan(y), np.nan, 0.0)
            out[inside] = self._pdf(y[inside]) / self._scale
        return out if np.ndim(t) else float(out[0])

    def cdf_F(self, t):
        """P(tau <= t) (vectorized)."""
        _, y = self._standardize(t)
        out = np.where(np.isnan(y), np.nan, 0.0)
        out[y >= self._hi] = 1.0
        inside = (self._lo < y) & (y < self._hi)
        out[inside] = self._cdf(y[inside])
        return out if np.ndim(t) else float(out[0])

    def quantile(self, u):
        """Inverse distribution function, defined for u in [0, 1); NaN
        passes through.

        Closed-form (or special-function) inversion of each family: a float
        for a float, with the bits of the array element at that point, else
        an array of u's shape.
        """
        if isinstance(u, float):
            if u < 0 or u >= 1:
                raise DomainError("quantile argument must lie in [0, 1)")
            return float(self._ppf(u))
        u = np.asarray(u, dtype=float)
        if np.any((u < 0) | (u >= 1)):
            raise DomainError("quantile argument must lie in [0, 1)")
        out = self._ppf(u)
        return out if out.ndim else float(out)

    def sample_tau(self, gen):
        """One draw of the default time by inversion of the numpy Generator
        ``gen``.  The draw consumes exactly one uniform, so a stream's draw
        sequence is reproducible.
        """
        return self.quantile(gen.random())

    def tail_cut(self, mass):
        """Where tail integrals against f stop: t1 when it is finite (f
        vanishes beyond it), else the quantile that leaves ``mass`` beyond it."""
        if math.isfinite(self.t1):
            return self.t1
        return self.quantile(1.0 - mass)

    # -- internals ----------------------------------------------------------

    def _standardize(self, t):
        """t as a >= 1-d array and y = (t - loc) / scale.  ``cdf_F`` sends
        a float through here; ``density_f`` gives a float a branch of its
        own through the same kernels, with the same bits."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return t, (t - self._loc) / self._scale

    def _table_cdf(self, t):
        # Exact integral of the piecewise-linear density; t0 < t < t_last.
        tk, fk, ck = self._table
        idx = np.searchsorted(tk, t, side="right") - 1
        x = t - tk[idx]
        slope = (fk[idx + 1] - fk[idx]) / (tk[idx + 1] - tk[idx])
        return np.clip(ck[idx] + fk[idx] * x + 0.5 * slope * x * x, 0.0, 1.0)

    def _table_quantile(self, u):
        tk, fk, ck = self._table
        # np.minimum/np.maximum: np.clip is several times slower on a scalar.
        idx = np.minimum(np.maximum(np.searchsorted(ck, u, side="right") - 1, 0), len(tk) - 2)
        du = u - ck[idx]
        slope = (fk[idx + 1] - fk[idx]) / (tk[idx + 1] - tk[idx])
        # Root of 0.5*slope*x^2 + f_i*x = du, written to avoid cancellation.
        # A product, not ``** 2``: see _lognormal_pdf.
        disc = np.sqrt(np.maximum(fk[idx] * fk[idx] + 2.0 * slope * du, 0.0))
        denom = fk[idx] + disc
        x = np.where(denom > 0, 2.0 * du / np.where(denom > 0, denom, 1.0), 0.0)
        return tk[idx] + np.clip(x, 0.0, tk[idx + 1] - tk[idx])

    def __repr__(self):
        if self.kind == "table":
            return f"DefaultDistribution(table, {len(self._table[0])} knots, t1={self.t1})"
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
