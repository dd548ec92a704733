"""Run configuration: flat key=value files plus command-line overrides.

The file format is deliberately primitive — one ``key = value`` pair per
line, ``#`` comments, no sections — so acceptance configurations are
diffable and round-trip exactly.
"""

from dataclasses import dataclass, fields
from typing import ClassVar, get_args, get_origin

import numpy as np

from .ensemble import EnsembleReport, parse_functional
from .errors import ConfigError, DomainError
from .paths import TimeGrid
from .quadrature import QuadratureSpec

__all__ = ["RunConfig", "FIELD_TYPES", "parse_config_file", "load_config"]


@dataclass(frozen=True)
class RunConfig:
    dist: str = "exp:1.0"
    dt: float = 0.01
    t_max: float = 2.0
    paths: int = 1000
    seed: int = 0
    lt_estimator: str = "occupation"
    lt_eps_coeff: float = 1.0
    kh: tuple[float, ...] = ()
    report_times: tuple[float, ...] = (0.5, 1.0, 2.0)
    residual_pairs: tuple[tuple[float, float], ...] = ((0.25, 0.75), (0.5, 1.0), (1.0, 2.0))
    functionals: tuple[str, ...] = ("one", "indicator_beta_above:0.2", "abs_beta")
    out: str = "."
    zero_k: bool = False

    # Numerical and gate policy, the same for every run and so not config
    # keys: the quadrature tolerances, the law mass left beyond the tail cut
    # and the gates' multiple of a standard error.
    rel_tol: ClassVar[float] = QuadratureSpec.rel_tol
    abs_tol: ClassVar[float] = QuadratureSpec.abs_tol
    tail_cutoff_mass: ClassVar[float] = QuadratureSpec.tail_cutoff_mass
    gate_multiplier: ClassVar[float] = EnsembleReport.gate_multiplier

    @property
    def eps(self):
        """Occupation-estimator band half-width, lt_eps_coeff * sqrt(dt)."""
        return self.lt_eps_coeff * self.dt ** 0.5

    def validate(self, command=None):
        """Check base consistency; a nonempty list of report times on the
        grid is enforced only for commands that consume report times, and a
        nonempty list of window lags only for the convergence command."""
        for f in fields(self):
            val = getattr(self, f.name)
            if _scalar(f.type) is float and not np.all(np.isfinite(val)):
                raise ConfigError(f"{f.name} must be finite, got {val}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.dt <= 0.0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.t_max <= self.dt:
            raise ConfigError(f"t_max must exceed dt, got {self.t_max}")
        if self.paths < 1:
            raise ConfigError(f"paths must be at least 1, got {self.paths}")
        if self.lt_estimator not in ("occupation", "tanaka"):
            raise ConfigError(f"unknown local-time estimator {self.lt_estimator!r}")
        if self.lt_eps_coeff <= 0.0:
            raise ConfigError("lt_eps_coeff must be positive")
        if self.lt_estimator == "occupation" and not (self.lt_eps_coeff <= 1e150
                                                      and self.eps > 0.0):
            # the band credits square sqrt(2 dt / span) * lt_eps_coeff, which
            # overflows on a full step from lt_eps_coeff = 9.5e153 on: 1e150
            # keeps every step longer than 1e-8 dt clear
            raise ConfigError(f"lt_eps_coeff must lie in (0, 1e150] and give a positive "
                              f"band half-width, got {self.lt_eps_coeff}")
        if any(h <= 0.0 for h in self.kh):
            raise ConfigError("window lags must be positive")
        if not all(a > b for a, b in zip(self.kh, self.kh[1:])):
            raise ConfigError("window lags must be strictly decreasing")
        if command == "convergence" and not self.kh:
            raise ConfigError("convergence needs a nonempty list of window lags (kh)")
        if command not in ("compensator", "convergence"):
            return self
        if not self.report_times:
            # with no report time neither command has a gate to decide
            raise ConfigError(f"{command} needs a nonempty list of report times")
        grid = TimeGrid.regular(self.t_max, self.dt)
        named = list(self.report_times)
        if command == "compensator":
            named += [t for p in self.residual_pairs for t in p]
        for t in named:
            if not (0.0 < t <= self.t_max):
                raise ConfigError(f"report time {t} outside (0, t_max]")
            try:
                grid.index_of(t)
            except DomainError:
                raise ConfigError(f"report time {t} does not lie on the grid") from None
        for s, t in self.residual_pairs:
            if not s < t:
                raise ConfigError(f"residual pair ({s}, {t}) needs s < t")
        for f in self.functionals:
            try:
                parse_functional(f)
            except DomainError as exc:
                raise ConfigError(str(exc)) from None
        return self


_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def _scalar(kind):
    """The item type at the bottom of a (nested) tuple annotation."""
    while get_args(kind):
        kind = get_args(kind)[0]
    return kind


def _parse_value(text, kind):
    """Value of annotation ``kind`` written as ``text``: a tuple[X, ...] is a
    comma list of X, and a fixed tuple is its items joined by colons."""
    if kind is bool:
        return _BOOL[text.strip().lower()]
    if kind in (str, int, float):
        return kind(text.strip())
    args = get_args(kind)
    if get_origin(kind) is tuple and args[1:] == (Ellipsis,):
        return tuple(_parse_value(tok, args[0]) for tok in text.split(",") if tok.strip())
    if get_origin(kind) is tuple:
        toks = text.split(":")
        return tuple(_parse_value(tok, a) for tok, a in zip(toks, args, strict=True))
    raise TypeError(f"no parser for the annotation {kind!r}")


FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def parse_config_file(path):
    """Read a key=value file into an (unvalidated) override mapping."""
    overrides = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in FIELD_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                overrides[key] = _parse_value(value, FIELD_TYPES[key])
            except (ValueError, KeyError) as exc:
                raise ConfigError(f"bad value for {key!r}: {value.strip()!r}") from exc
    return overrides


def load_config(config_path=None, command=None, **flag_overrides):
    """RunConfig from an optional file plus non-None flag overrides."""
    values = {} if config_path is None else parse_config_file(config_path)
    for key, val in flag_overrides.items():
        if key not in FIELD_TYPES:
            raise ConfigError(f"unknown configuration key {key!r}")
        if val is not None:
            values[key] = val
    return RunConfig(**values).validate(command)
