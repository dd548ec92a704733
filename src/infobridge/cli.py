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

Every file goes through one save call, ``_save``, which creates ``--out``;
a run that exits with code 2 saves nothing and so creates no directory.

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
    csv_rows,
    run_ensemble,
    summarize_table,
    write_curves_csv,
    write_paths_csv,
    write_residuals_csv,
    write_summary_csv,
)
from .errors import ConfigError, DomainError, InfoBridgeError, InsufficientPaths
from .localtime import occupation_estimate, tanaka_estimate
from .paths import RandomStream, TimeGrid, sample_path_direct

EXIT_OK = 0
EXIT_GATE_FAIL = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def _context(cfg):
    ctx = laws.ModelContext(parse_distribution(cfg.dist))
    ctx.t_cut  # a non-finite cut stops every subcommand before it writes
    return ctx


def _save(cfg, name, write, obj):
    """Write ``obj`` to the file ``name`` in ``cfg.out``, creating the
    directory, through ``write(obj, fh)``."""
    os.makedirs(cfg.out, exist_ok=True)
    with open(os.path.join(cfg.out, name), "w", newline="") as fh:
        write(obj, fh)


def _write_text(text, fh):
    fh.write(text)


def _check_outdir(cfg):
    """Raise before a long run, creating nothing, the I/O error that
    ``_save`` would raise after it: the nearest existing ancestor of
    ``cfg.out`` must be a writable directory."""
    base = os.path.abspath(cfg.out) if cfg.out else ""
    while base and not os.path.exists(base):
        base = os.path.dirname(base)
    if not (os.path.isdir(base) and os.access(base, os.W_OK | os.X_OK)):
        raise OSError(f"cannot create the output directory {cfg.out!r}")


def cmd_simulate(cfg):
    ctx = _context(cfg)
    grid = TimeGrid.regular(cfg.t_max, cfg.dt)
    paths = (sample_path_direct(ctx, grid, RandomStream(cfg.seed, i))
             for i in range(cfg.paths))
    _save(cfg, "paths.csv", write_paths_csv, paths)
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
    _save(cfg, "survival.csv", _write_text, "u,P_tau_gt_u\n" + csv_rows(us, probs))
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
                                 functionals=cfg.functionals)
    except InsufficientPaths as exc:
        _save(cfg, "report.txt", _write_text, f"FAIL insufficient paths: {exc}\n")
        return EXIT_GATE_FAIL
    _save(cfg, "curves.csv", write_curves_csv, table)
    _save(cfg, "summary.csv", write_summary_csv, report)
    _save(cfg, "residuals.csv", write_residuals_csv, report)
    lines, ok = _gate_lines(report)
    lines = [f"paths: {report.n_paths}", *lines,
             "ALL GATES PASS" if ok else "GATE FAILURES PRESENT"]
    _save(cfg, "report.txt", _write_text, "\n".join(lines) + "\n")
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
            kh = laplacian_approximation(path, h, window)[idx]
            gaps[a] += np.abs(kh - kref)
    gaps /= cfg.paths
    _save(cfg, "convergence.csv", _write_text, "h,t,abs_gap_Kh_K\n" + csv_rows(
        np.repeat(cfg.kh, len(times)), np.tile(times, len(cfg.kh)), gaps.ravel()))
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
    lines.append("TREND OK" if ok_all else "TREND FAILURES PRESENT")
    _save(cfg, "report.txt", _write_text, "\n".join(lines) + "\n")
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
