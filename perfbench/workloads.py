"""The four benchmark workloads.

Each workload turns the benchmark seed into its inputs (master seeds, query
states, law order), runs them untraced the way a user does, runs them again
serially under a ``Tracer``, and reduces its outputs to the values the
checks compare.  Only generated configs and states reach the program.
"""

import math
import os
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from infobridge import cli, laws
from infobridge.config import RunConfig, load_config
from infobridge.distributions import parse_distribution
from infobridge.ensemble import (
    build_job,
    run_ensemble,
    summarize_table,
    write_curves_csv,
    write_residuals_csv,
    write_summary_csv,
)
from infobridge.laws import DriftTable, ModelContext
from infobridge.paths import TimeGrid
from infobridge.quadrature import QuadratureSpec

WORKERS = max(1, min(2, os.cpu_count() or 1))
_now = time.perf_counter
_TABLE_FIELDS = ("tau", "H", "K", "beta", "Kh", "b", "qv_b", "lt_occ", "lt_tan")


@dataclass
class Run:
    """One execution of a workload's inputs."""

    wall: float                 # config to written artifacts
    setups: list                # seconds of each set-up the run made
    work: float                 # ensemble, convergence or query time, without set-up
    items: int                  # paths or law queries completed
    outputs: dict               # name -> array; traced and untraced must match bit for bit
    artifacts: dict             # file name -> bytes written
    latencies: list = field(default_factory=list)   # per law query, seconds
    info: dict = field(default_factory=dict)        # gate z-scores, exit codes


def _master_seed(seed, salt):
    return int(np.random.default_rng([seed, salt]).integers(1, 2 ** 62))


def _direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _read_all(out, names):
    arts = {}
    for name in names:
        with open(os.path.join(out, name), "rb") as fh:
            arts[name] = fh.read()
    return arts


def _stderr(col):
    col = np.asarray(col, dtype=float)
    return float(col.std(ddof=1) / math.sqrt(len(col)))


# ---------------------------------------------------------------------------
# ensemble workloads: headline and short-tanaka
# ---------------------------------------------------------------------------

class EnsembleWorkload:
    """Runs the calls ``cmd_compensator`` makes, plus any extra set-up."""

    artifacts = ("curves.csv", "summary.csv", "residuals.csv")
    parallel = True

    def __init__(self, name, salt, fields, drift=False):
        self.name = name
        self.salt = salt
        self.fields = fields
        self.drift = drift

    def inputs(self, seed, n):
        return RunConfig(**self.fields, paths=n, seed=_master_seed(seed, self.salt))

    def _setup(self, ctx, grid, cfg, call):
        job = call("ensemble.build_job", build_job, ctx, grid, cfg)
        if self.drift:
            table = call("laws.drift_table_build", DriftTable.build, ctx, grid.knots)
            job = replace(job, drift_table=table, b_nodes=(0.5, 1.0),
                          qv_nodes=(1.0,), lt_probe=((1.0, 0.0),))
        return job

    def _finish(self, table, ctx, cfg, out, call):
        report = call("ensemble.summarize", summarize_table, table, ctx,
                      cfg.report_times, residual_matrix=cfg.residual_pairs,
                      functionals=cfg.functionals,
                      gate_multiplier=cfg.gate_multiplier)
        call("ensemble.csv_write", _write_ensemble_csvs, table, report, out)
        return report

    def run(self, cfg, out, workers=WORKERS):
        t0 = _now()
        cfg = cfg.validate("compensator")
        ctx = cli._context(cfg)
        grid = TimeGrid.regular(cfg.t_max, cfg.dt)
        t1 = _now()
        job = self._setup(ctx, grid, cfg, _direct)
        t2 = _now()
        table = run_ensemble(job, cfg.paths, workers=workers)
        t3 = _now()
        report = self._finish(table, ctx, cfg, out, _direct)
        t4 = _now()
        return Run(wall=t4 - t0, setups=[t2 - t1], work=t3 - t2, items=cfg.paths,
                   outputs=_table_outputs(table),
                   artifacts=_read_all(out, self.artifacts),
                   info={"gates": _gate_z(report)})

    def traced(self, cfg, out, tracer):
        """The same calls, serial, with every layer boundary wrapped."""
        with tracer.installed():
            t0 = _now()
            cfg = cfg.validate("compensator")
            ctx = cli._context(cfg)
            grid = TimeGrid.regular(cfg.t_max, cfg.dt)
            job = self._setup(ctx, grid, cfg, tracer.call)
            t1 = _now()
            table = run_ensemble(job, cfg.paths, workers=1)
            t2 = _now()
            self._finish(table, ctx, cfg, out, tracer.call)
        return Run(wall=_now() - t0, setups=[], work=t2 - t1, items=cfg.paths,
                   outputs=_table_outputs(table),
                   artifacts=_read_all(out, self.artifacts))

    def summary(self, run):
        """Values and Monte Carlo standard errors the reference check compares."""
        o = run.outputs
        vals, errs = {}, {}
        for key in ("H", "K"):
            vals[f"mean_{key}"] = o[key].mean(axis=0).tolist()
            errs[f"mean_{key}"] = [_stderr(c) for c in o[key].T]
        for key in ("b", "qv_b", "lt_occ", "lt_tan"):
            if o[key].shape[1]:
                vals[f"mean_{key}"] = o[key].mean(axis=0).tolist()
                errs[f"mean_{key}"] = [_stderr(c) for c in o[key].T]
        gates = run.info.get("gates")
        if gates is not None:
            vals["residual"] = [g["value"] for g in gates if g["kind"] == "residual"]
            errs["residual"] = [g["stderr"] for g in gates if g["kind"] == "residual"]
        return {"values": vals, "stderr": errs}

    def invariants(self, run):
        o = run.outputs
        K = o["K"]
        yield "tau finite and positive", bool(np.all(np.isfinite(o["tau"]) & (o["tau"] > 0)))
        yield "H in {0,1}", bool(np.all((o["H"] == 0.0) | (o["H"] == 1.0)))
        yield "K finite", bool(np.all(np.isfinite(K)))
        yield "K nonnegative and nondecreasing", bool(
            np.all(K >= 0.0) and np.all(np.diff(K, axis=1) >= 0.0))
        if self.drift:
            yield "b finite", bool(np.all(np.isfinite(o["b"])))
            yield "qv_b finite and nonnegative", bool(
                np.all(np.isfinite(o["qv_b"]) & (o["qv_b"] >= 0.0)))
            yield "local-time probes finite and nonnegative", bool(
                np.all(np.isfinite(o["lt_occ"]) & (o["lt_occ"] >= 0.0)
                       & np.isfinite(o["lt_tan"]) & (o["lt_tan"] >= 0.0)))


def _write_ensemble_csvs(table, report, out):
    with open(os.path.join(out, "curves.csv"), "w", newline="") as fh:
        write_curves_csv(table, fh)
    with open(os.path.join(out, "summary.csv"), "w", newline="") as fh:
        write_summary_csv(report, fh)
    with open(os.path.join(out, "residuals.csv"), "w", newline="") as fh:
        write_residuals_csv(report, fh)


def _table_outputs(table):
    return {name: np.array(getattr(table, name)) for name in _TABLE_FIELDS}


def _gate_z(report):
    """Every gate of the report as a z-score (information, not a check)."""
    gates = []
    for j, t in enumerate(report.times):
        gap = report.mean_K[j] - report.F[j]
        gates.append({"kind": "mean_K-F", "t": float(t), "value": float(gap),
                      "stderr": float(report.stderr_K[j])})
        se = math.hypot(report.stderr_H[j], report.stderr_K[j])
        gates.append({"kind": "mean_K-mean_H", "t": float(t),
                      "value": float(report.mean_K[j] - report.mean_H[j]),
                      "stderr": float(se)})
    for (s, t, label, res, se, _) in report.residuals:
        gates.append({"kind": "residual", "t": float(t), "s": float(s),
                      "functional": label, "value": float(res), "stderr": float(se)})
    for g in gates:
        g["z"] = g["value"] / g["stderr"] if g["stderr"] > 0 else math.inf
    return gates


# ---------------------------------------------------------------------------
# window: the convergence command
# ---------------------------------------------------------------------------

class WindowWorkload:
    """``infobridge convergence`` run in-process through ``cli.main``, as
    ``commands`` commands of equal size, each with its own master seed."""

    name = "window"
    salt = 3
    parallel = False
    commands = 8
    fields = (("dist", "exp:1.0"), ("dt", "0.005"), ("t_max", "1.0"),
              ("kh", "0.2,0.1,0.05,0.025"), ("report_times", "0.5,1.0"))

    def inputs(self, seed, n):
        """Config texts of ``commands`` commands, ``n`` paths in all."""
        if n % self.commands:
            raise ValueError(f"window needs a multiple of {self.commands} paths")
        seeds = np.random.default_rng([seed, self.salt]).integers(
            1, 2 ** 62, size=self.commands)
        head = [f"{k} = {v}" for k, v in self.fields] + [f"paths = {n // self.commands}"]
        return ["\n".join(head + [f"seed = {int(m)}"]) + "\n" for m in seeds]

    def _command(self, text, out, k, call):
        """Write the config of command ``k`` and run it."""
        sub = os.path.join(out, str(k))
        os.makedirs(sub, exist_ok=True)
        cfg_path = os.path.join(sub, "window.cfg")
        with open(cfg_path, "w") as fh:
            fh.write(text)
        os.environ["INFOBRIDGE_WORKERS"] = str(WORKERS)
        code = call("cli.main", cli.main,
                    ["convergence", "--config", cfg_path, "--out", sub])
        return code, load_config(cfg_path, command="convergence")

    def _artifacts(self, out):
        return {f"{k}/{name}": data for k in range(self.commands)
                for name, data in _read_all(os.path.join(out, str(k)),
                                            ("convergence.csv", "report.txt")).items()}

    def _outputs(self, arts):
        return {"gaps": np.concatenate([_parse_gaps(arts[f"{k}/convergence.csv"])
                                        for k in range(self.commands)])}

    def run(self, texts, out):
        """Set-up of a command is the time from calling it to its first path's
        random stream: config, context, grid and ``compensator_weights``."""
        first = []
        stream = cli.RandomStream

        def mark(*args):
            if not first:
                first.append(_now())
            return stream(*args)

        setups, codes, items = [], [], 0
        t0 = _now()
        for k, text in enumerate(texts):
            first.clear()
            cli.RandomStream = mark
            try:
                c0 = _now()
                code, cfg = self._command(text, out, k, _direct)
            finally:
                cli.RandomStream = stream
            if not first:
                raise RuntimeError("convergence no longer makes its streams through "
                                   "cli.RandomStream; move the set-up mark")
            setups.append(first[0] - c0)
            codes.append(code)
            items += cfg.paths
        wall = _now() - t0
        arts = self._artifacts(out)
        return Run(wall=wall, setups=setups, work=wall - sum(setups), items=items,
                   outputs=self._outputs(arts), artifacts=arts,
                   info={"exit_codes": codes})

    def traced(self, texts, out, tracer):
        """The same commands with their callees wrapped; per-path K and K^h are
        captured at the report times."""
        per_path = {}
        times = [float(t) for t in dict(self.fields)["report_times"].split(",")]

        def keep_k(args, curve):
            idx = [curve.grid.index_of(t) for t in times]
            per_path[tracer.current_request] = {"K": curve.K[idx], "Kh": []}

        def keep_kh(args, values):
            path = args[0]
            idx = [path.grid.index_of(t) for t in times]
            per_path[tracer.current_request]["Kh"].append(values[idx])

        tracer.hooks["compensator.curve"] = keep_k
        tracer.hooks["compensator.window"] = keep_kh
        path_gaps, means, codes, items = [], [], [], 0
        t0 = _now()
        for k, text in enumerate(texts):
            per_path.clear()
            with tracer.installed():
                code, cfg = self._command(text, out, k, tracer.call)
            gaps = np.array([np.abs(np.array(per_path[i]["Kh"]) - per_path[i]["K"])
                             for i in range(cfg.paths)])          # (paths, lags, times)
            mean = np.zeros(gaps.shape[1:])
            for g in gaps:          # the command's own summation order
                mean += g
            means.append(mean / cfg.paths)
            path_gaps.append(gaps)
            codes.append(code)
            items += cfg.paths
        wall = _now() - t0
        arts = self._artifacts(out)
        outputs = self._outputs(arts)
        same = np.array_equal(np.concatenate([m.ravel() for m in means]), outputs["gaps"])
        return Run(wall=wall, setups=[], work=wall, items=items,
                   outputs=outputs, artifacts=arts,
                   info={"exit_codes": codes, "path_gaps": path_gaps, "checks": [
                       ("per-path gaps average to convergence.csv bit for bit", same)]})

    def summary(self, run):
        """Every command's mean gaps; with per-path gaps, their standard errors."""
        vals = {"gaps": run.outputs["gaps"].tolist()}
        path_gaps = run.info.get("path_gaps")
        if path_gaps is None:
            return {"values": vals}
        errs = [_stderr(g[:, a, j]) for g in path_gaps
                for a in range(g.shape[1]) for j in range(g.shape[2])]
        return {"values": vals, "stderr": {"gaps": errs}}

    def invariants(self, run):
        gaps = run.outputs["gaps"]
        yield "convergence exit codes are 0 or 1", all(
            c in (0, 1) for c in run.info["exit_codes"])
        yield "convergence gaps finite and nonnegative", bool(
            gaps.size and np.all(np.isfinite(gaps) & (gaps >= 0.0)))


def _parse_gaps(raw):
    lines = raw.decode().strip().splitlines()[1:]
    return np.array([float(line.split(",")[2]) for line in lines])


# ---------------------------------------------------------------------------
# laws: scalar law queries, one fresh context each
# ---------------------------------------------------------------------------

FAMILIES = ("exp:1.0", "gamma:2,2", "lognormal:0,0.5", "uniform:0,3")
HORIZON = (0.25, 0.5, 1.0)      # u - t for the survival curve and the posterior
QUAD = QuadratureSpec(rel_tol=RunConfig.rel_tol, abs_tol=RunConfig.abs_tol,
                      tail_cutoff_mass=RunConfig.tail_cutoff_mass)


@dataclass(frozen=True)
class Query:
    dist: str
    t: float
    x: float


class LawsWorkload:
    """Closed loop of law queries: survival curve, posterior, drift."""

    name = "laws"
    salt = 4
    parallel = False
    artifacts = ("laws.csv",)

    def __init__(self, src):
        self.src = src

    def inputs(self, seed, n):
        """``n // 4`` states per family, stratified in t and |x| so every seed
        asks for the same mix of work; the seed sets the jitter, the signs and
        the order."""
        rng = np.random.default_rng([seed, self.salt])
        m = max(1, n // len(FAMILIES))
        queries = []
        for dist in FAMILIES:
            t = 0.1 + 0.9 * (rng.permutation(m) + rng.random(m)) / m
            ax = np.sqrt(t) * (0.05 + 2.0 * (rng.permutation(m) + rng.random(m)) / m)
            sign = np.where(rng.random(m) < 0.5, -1.0, 1.0)
            queries += [Query(dist, float(a), float(b)) for a, b in zip(t, sign * ax)]
        return [queries[k] for k in rng.permutation(len(queries))]

    def _import_seconds(self):
        """Start-up a fresh ``infobridge`` CLI process pays before its first
        law evaluation."""
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src + os.pathsep + env.get("PYTHONPATH", "")
        t0 = _now()
        subprocess.run([sys.executable, "-c", "import infobridge.cli"],
                       env=env, check=True)
        return _now() - t0

    def _loop(self, queries, out, tracer=None):
        values, memo, lat = [], [], []
        t0 = _now()
        for k, q in enumerate(queries):
            if tracer is not None:
                tracer.current_request = k
            q0 = _now()
            with tracer.span("laws.query") if tracer is not None else nullcontext():
                ctx = ModelContext(parse_distribution(q.dist), QUAD)
                us = [q.t + h for h in HORIZON]
                row = [laws.survival_probability(q.t, u, q.x, ctx) for u in us]
                row += [laws.posterior_density(q.t, u, q.x, ctx) for u in us]
                row.append(laws.mean_reversion_drift(q.t, q.x, ctx))
            lat.append(_now() - q0)
            values.append(row)
            memo.append(len(ctx._memo))
        with open(os.path.join(out, "laws.csv"), "w", newline="") as fh:
            fh.write("dist,t,x," + ",".join(f"S_{h:g}" for h in HORIZON) + ","
                     + ",".join(f"post_{h:g}" for h in HORIZON) + ",drift\n")
            for q, row in zip(queries, values):
                fh.write(f"{q.dist.replace(',', ';')},{q.t!r},{q.x!r},"
                         + ",".join(format(v, ".17g") for v in row) + "\n")
        wall = _now() - t0
        return Run(wall=wall, setups=[], work=sum(lat), items=len(queries),
                   outputs={"values": np.array(values), "memo": np.array(memo)},
                   artifacts=_read_all(out, self.artifacts), latencies=lat,
                   info={"queries": queries})

    def run(self, queries, out):
        setup = self._import_seconds()
        run = self._loop(queries, out)
        run.setups.append(setup)
        return run

    def traced(self, queries, out, tracer):
        with tracer.installed():
            return self._loop(queries, out, tracer)

    def summary(self, run):
        """Every law value, in query order."""
        vals = run.outputs["values"]
        nh = len(HORIZON)
        return {"values": {"survival": vals[:, :nh].ravel().tolist(),
                           "posterior": vals[:, nh:2 * nh].ravel().tolist(),
                           "drift": vals[:, -1].tolist()}}

    def invariants(self, run):
        vals = run.outputs["values"]
        nh = len(HORIZON)
        surv, post, drift = vals[:, :nh], vals[:, nh:2 * nh], vals[:, -1]
        x = np.array([q.x for q in run.info["queries"]])
        yield "survival in [0,1]", bool(np.all((surv >= 0.0) & (surv <= 1.0)))
        yield "survival nonincreasing in u", bool(np.all(np.diff(surv, axis=1) <= 0.0))
        yield "posterior finite and nonnegative", bool(
            np.all(np.isfinite(post) & (post >= 0.0)))
        yield "drift finite with the sign of x", bool(
            np.all(np.isfinite(drift) & (np.sign(drift) == np.sign(x))))


def make_workloads(src):
    headline = EnsembleWorkload("headline", 1, dict(
        dist="exp:1.0", dt=0.00025, t_max=2.0, lt_eps_coeff=0.2,
        report_times=(0.5, 1.0, 2.0),
        residual_pairs=((0.25, 0.75), (0.5, 1.0), (1.0, 2.0)),
        functionals=("one", "indicator_beta_above:0.2", "abs_beta")))
    tanaka = EnsembleWorkload("short-tanaka", 2, dict(
        dist="gamma:2,2", dt=0.01, t_max=2.0, lt_estimator="tanaka"), drift=True)
    return {w.name: w for w in (headline, tanaka, WindowWorkload(), LawsWorkload(src))}
