"""Batch front door.

Subcommands
-----------
simulate      write sampled paths (``paths.csv``)
survival      conditional survival curve from one information state
              (``survival.csv``)
compensator   ensemble run with compensator curves, summary statistics,
              martingale residual gates and a pass/fail report
              (``curves.csv``, ``summary.csv``, ``residuals.csv``,
              ``report.txt``)
convergence   window-approximation gaps against the local-time compensator
              on fixed seeds, with the compensator weights built once per run
              (``convergence.csv``, ``report.txt``)

Every subcommand takes ``--config <file>``; flags override file values and
each subcommand accepts only the flags of the options it reads:

simulate, convergence   --dist --paths --dt --t-max --seed --out
compensator             the same plus --zero-k
survival                --dist --dt --t-max --out, and the state --t --x

Exit codes: 0 success / all gates pass, 1 gate failure, 2 configuration
error, 3 I/O error.  The compensator's worker count comes from the
INFOBRIDGE_WORKERS environment variable (default and cap: available CPUs);
it must be an integer.  ``convergence`` runs its paths serially in this
process and ignores the variable.
"""

import argparse
import math
import os
import sys

import numpy as np

from . import laws
from .compensator import build_curve, laplacian_approximation, window_rates
from .config import FIELD_TYPES, load_config
from .distributions import parse_distribution
from .ensemble import (
    build_job,
    run_ensemble,
    summarize_table,
    write_curves_csv,
    write_paths_csv,
    write_residuals_csv,
    write_summary_csv,
    _fmt,
)
from .errors import ConfigError, DomainError, InfoBridgeError, InsufficientPaths
from .localtime import occupation_estimate, tanaka_estimate
from .paths import RandomStream, TimeGrid, sample_path_direct
from .quadrature import QuadratureSpec

EXIT_OK = 0
EXIT_GATE_FAIL = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def _context(cfg):
    quad = QuadratureSpec(rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
                          tail_cutoff_mass=cfg.tail_cutoff_mass)
    ctx = laws.ModelContext(parse_distribution(cfg.dist), quad)
    ctx.t_cut  # a non-finite cut stops every subcommand before it writes
    return ctx


def _outdir(cfg):
    os.makedirs(cfg.out, exist_ok=True)
    return cfg.out


def _check_outdir(cfg):
    """Raise before a long run, creating nothing, the I/O error that
    ``_outdir`` would raise after it: the nearest existing ancestor of
    ``cfg.out`` must be a writable directory."""
    base = os.path.abspath(cfg.out) if cfg.out else ""
    while base and not os.path.exists(base):
        base = os.path.dirname(base)
    if not (os.path.isdir(base) and os.access(base, os.W_OK | os.X_OK)):
        raise OSError(f"cannot create the output directory {cfg.out!r}")


def cmd_simulate(cfg):
    ctx = _context(cfg)
    grid = TimeGrid.regular(cfg.t_max, cfg.dt)
    out = _outdir(cfg)
    paths = (sample_path_direct(ctx, grid, RandomStream(cfg.seed, i))
             for i in range(cfg.paths))
    with open(os.path.join(out, "paths.csv"), "w", newline="") as fh:
        write_paths_csv(paths, fh)
    return EXIT_OK


def cmd_survival(cfg, t, x):
    ctx = _context(cfg)
    if not (0.0 < t < min(cfg.t_max, ctx.t_cut)):
        raise DomainError(f"t={t} must lie in (0, min(t_max, t_cut={ctx.t_cut}))")
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x}")
    if x == 0.0:
        raise DomainError("x must be nonzero (zero encodes the default state)")
    grid = TimeGrid.regular(cfg.t_max, cfg.dt)
    us = grid.knots[grid.knots >= t]
    if us[0] != t:
        us = np.concatenate([[t], us])
    probs = [laws.survival_probability(t, float(u), x, ctx) for u in us]
    out = _outdir(cfg)
    with open(os.path.join(out, "survival.csv"), "w", newline="") as fh:
        fh.write("u,P_tau_gt_u\n")
        for u, p in zip(us, probs):
            fh.write(f"{_fmt(u)},{_fmt(p)}\n")
    return EXIT_OK


def _gate_lines(report):
    mult = report.gate_multiplier
    lines = []
    for kind, i, gap, bound, ok in report.gates():
        verdict = "PASS" if ok else "FAIL"
        if kind == "F":
            lines.append(f"{verdict} mean_K vs F(t) at t={report.times[i]:g}: "
                         f"|{report.mean_K[i]:.6f} - {report.F[i]:.6f}| = {gap:.6f} "
                         f"<= {bound:.6f}")
        elif kind == "H":
            lines.append(f"{verdict} mean_K vs mean_H at t={report.times[i]:g}: "
                         f"gap = {gap:.6f} <= {bound:.6f}")
        else:
            s, t, label, res, se = report.residual_stats[i]
            lines.append(f"{verdict} residual (s={s:g}, t={t:g}, {label}): "
                         f"{res:+.6f} within {mult:g} x {se:.6f}")
    return lines, report.all_gates_pass()


def cmd_compensator(cfg):
    ctx = _context(cfg)
    job = build_job(ctx, TimeGrid.regular(cfg.t_max, cfg.dt), cfg)
    _check_outdir(cfg)
    try:
        table = run_ensemble(job, cfg.paths)
        report = summarize_table(table, ctx, cfg.report_times,
                                 residual_matrix=cfg.residual_pairs,
                                 functionals=cfg.functionals,
                                 gate_multiplier=cfg.gate_multiplier)
    except InsufficientPaths as exc:
        with open(os.path.join(_outdir(cfg), "report.txt"), "w", newline="") as fh:
            fh.write(f"FAIL insufficient paths: {exc}\n")
        return EXIT_GATE_FAIL
    out = _outdir(cfg)
    with open(os.path.join(out, "curves.csv"), "w", newline="") as fh:
        write_curves_csv(table, fh)
    with open(os.path.join(out, "summary.csv"), "w", newline="") as fh:
        write_summary_csv(report, fh)
    with open(os.path.join(out, "residuals.csv"), "w", newline="") as fh:
        write_residuals_csv(report, fh)
    lines, ok = _gate_lines(report)
    with open(os.path.join(out, "report.txt"), "w", newline="") as fh:
        fh.write(f"paths: {report.n_paths}\n")
        for line in lines:
            fh.write(line + "\n")
        fh.write(("ALL GATES PASS" if ok else "GATE FAILURES PRESENT") + "\n")
    return EXIT_OK if ok else EXIT_GATE_FAIL


def cmd_convergence(cfg):
    ctx = _context(cfg)
    grid = TimeGrid.regular(cfg.t_max, cfg.dt)
    weights = laws.compensator_weights(ctx, grid.knots)
    times = cfg.report_times
    idx = [grid.index_of(t) for t in times]
    _check_outdir(cfg)
    gaps = np.zeros((len(cfg.kh), len(times)))
    for i in range(cfg.paths):
        path = sample_path_direct(ctx, grid, RandomStream(cfg.seed, i))
        if cfg.lt_estimator == "tanaka":
            lt = tanaka_estimate(path, 0.0)
        else:
            lt = occupation_estimate(path, 0.0, cfg.eps)
        curve = build_curve(path, lt, weights)
        kref = curve.K[idx]
        window = window_rates(path, ctx, cfg.kh)
        for a, h in enumerate(cfg.kh):
            kh = laplacian_approximation(path, h, ctx, window)[idx]
            gaps[a] += np.abs(kh - kref)
    gaps /= cfg.paths
    out = _outdir(cfg)
    with open(os.path.join(out, "convergence.csv"), "w", newline="") as fh:
        fh.write("h,t,abs_gap_Kh_K\n")
        for a, h in enumerate(cfg.kh):
            for j, t in enumerate(times):
                fh.write(f"{_fmt(h)},{_fmt(t)},{_fmt(gaps[a, j])}\n")
    lines = []
    ok_all = True
    for j, t in enumerate(times):
        if len(cfg.kh) < 2:
            lines.append(f"TREND t={t:g}: insufficient points")
            continue
        ok = bool(np.all(np.diff(gaps[:, j]) < 0.0))
        ok_all &= ok
        lines.append(f"{'PASS' if ok else 'FAIL'} TREND t={t:g}: gaps "
                     + " > ".join(f"{g:.6f}" for g in gaps[:, j])
                     + (" decreasing" if ok else " not decreasing"))
    with open(os.path.join(out, "report.txt"), "w", newline="") as fh:
        for line in lines:
            fh.write(line + "\n")
        fh.write(("TREND OK" if ok_all else "TREND FAILURES PRESENT") + "\n")
    return EXIT_OK if ok_all else EXIT_GATE_FAIL


# The RunConfig fields each subcommand reads and so accepts as flags; a flag
# takes the type of its field's annotation.
_COMMON = ("dist", "paths", "dt", "t_max", "seed", "out")
_FLAGS = {"simulate": _COMMON, "survival": ("dist", "dt", "t_max", "out"),
          "compensator": _COMMON + ("zero_k",), "convergence": _COMMON}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="infobridge",
        description="Monte Carlo engine for the bridge-information default model")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, names in _FLAGS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None)
        for name in names:
            flag, kind = "--" + name.replace("_", "-"), FIELD_TYPES[name]
            if kind is bool:
                p.add_argument(flag, action="store_true", default=None)
            else:
                p.add_argument(flag, type=kind, default=None)
        if command == "survival":
            p.add_argument("--t", type=float, required=True)
            p.add_argument("--x", type=float, required=True)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, command=args.command,
                          **{name: getattr(args, name) for name in _FLAGS[args.command]})
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "survival":
            return cmd_survival(cfg, args.t, args.x)
        if args.command == "compensator":
            return cmd_compensator(cfg)
        return cmd_convergence(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InfoBridgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GATE_FAIL


if __name__ == "__main__":
    sys.exit(main())
