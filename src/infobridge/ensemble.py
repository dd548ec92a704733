"""Config-driven Monte Carlo over path ensembles.

A job bundles everything one path needs (context, grid, precomputed
compensator weights, drift table, probe times); workers map fixed-size
chunks of path indices to blocks of per-path statistics.  A chunk draws each
path from its own stream and runs its paths in sub-batches of at most
``quadrature.TILE_ELEMENTS`` knots (rows x grid knots), each one (rows x
knots) ``InformationPath`` and one call per stage (local time, compensator,
b, its quadratic variation, the probes); a long path runs alone.  Each
recorded group (H, K and K^h at ``times``, beta at ``s_nodes``, b at
``b_nodes``, its quadratic variation at ``qv_nodes``, each ``lt_probe``
time) reads the paths only up to its last knot: ``run_ensemble`` maps every
recorded time to its knot once per run (``_KnotPlan``) and the curves of a
group are computed on the head of the sub-batch ending there.  K^h runs per
path.  b and its quadratic variation are recorded only with a drift table,
and b is recovered only for a job that records either of them.  Every row
of a batched stage has the bits of that path run alone (``paths`` says
why).  Path ``i`` always uses the stream keyed by (master seed, i), chunk
and sub-batch boundaries do not depend on the worker count, and blocks are
written back by chunk index, so the assembled arrays — and every CSV
derived from them — are bit-identical no matter how many processes run the
job.

The reductions (means, standard errors, martingale residuals of the test
functionals) work on the assembled table; they are the only route from paths
to an EnsembleReport, whose ``gates()`` list is the one martingale verdict.
"""

import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import laws, paths
from .compensator import compensator_curve, laplacian_approximation, window_rates
from .errors import ConfigError, DomainError, InsufficientPaths
from .localtime import BandCreditTable, occupation_estimate, tanaka_estimate
from .paths import InformationPath, RandomStream, TimeGrid, sample_path_direct
from .quadrature import row_tiles

__all__ = [
    "EnsembleJob",
    "EnsembleTable",
    "build_job",
    "run_ensemble",
    "resolve_workers",
    "parse_functional",
    "EnsembleReport",
    "table_martingale_residual",
    "summarize_table",
    "write_paths_csv",
    "write_curves_csv",
    "write_summary_csv",
    "write_residuals_csv",
]

WORKERS_ENV = "INFOBRIDGE_WORKERS"
_CHUNK = 512


@dataclass(frozen=True)
class EnsembleJob:
    """Everything a worker needs to reduce one path to its statistics."""

    ctx: "laws.ModelContext"
    grid: "object"
    master_seed: int
    eps: float
    estimator: str                      # 'occupation' | 'tanaka'
    weights: np.ndarray                 # compensator weights on the base knots
    times: tuple                        # where H and K are recorded
    s_nodes: tuple                      # where beta is recorded
    kh: tuple = ()                      # window lags recorded at `times`
    credit_table: object = None         # occupation step length and band; no credits
    drift_table: object = None          # needed for b and its quadratic variation
    b_nodes: tuple = ()                 # where b is recorded
    qv_nodes: tuple = ()                # where the quadratic variation of b is recorded
    lt_probe: tuple = ()                # (t, x) pairs for estimator cross-probes


def _per_path(*dims):
    """A table field with one row per path; ``dims`` name the job tuples whose
    lengths give the shape of a row."""
    return field(metadata={"dims": dims})


@dataclass
class EnsembleTable:
    """Struct-of-arrays holding one row of statistics per path."""

    job: EnsembleJob
    tau: np.ndarray = _per_path()
    H: np.ndarray = _per_path("times")
    K: np.ndarray = _per_path("times")
    beta: np.ndarray = _per_path("s_nodes")
    Kh: np.ndarray = _per_path("kh", "times")
    b: np.ndarray = _per_path("b_nodes")
    qv_b: np.ndarray = _per_path("qv_nodes")
    lt_occ: np.ndarray = _per_path("lt_probe")
    lt_tan: np.ndarray = _per_path("lt_probe")

    @classmethod
    def empty(cls, job, n):
        """Table for ``n`` paths of ``job`` with its arrays left unfilled."""
        try:
            return cls(job=job, **_empty_block(job, n))
        except (ValueError, MemoryError) as exc:
            raise DomainError(f"a table of {n} paths cannot be allocated") from exc

    @property
    def n_paths(self):
        return len(self.tau)

    def time_index(self, t):
        try:
            return self.job.times.index(t)
        except ValueError:
            raise DomainError(f"time {t} was not recorded") from None

    def s_index(self, s):
        try:
            return self.job.s_nodes.index(s)
        except ValueError:
            raise DomainError(f"state time {s} was not recorded") from None


def build_job(ctx, grid, cfg):
    """Assemble an EnsembleJob from a run configuration.

    Records H/K at the union of report times and residual-pair endpoints,
    and the information value at every residual-pair start.  The zero-K
    ablation (``cfg.zero_k``) is a zero weight vector: K is identically 0.
    """
    pair_times = [t for pair in cfg.residual_pairs for t in pair]
    times = tuple(sorted(set(cfg.report_times) | set(pair_times)))
    s_nodes = tuple(sorted({s for s, _ in cfg.residual_pairs}))
    for t in times:
        grid.index_of(t)  # validates alignment
    weights = (np.zeros(len(grid.knots)) if cfg.zero_k
               else laws.compensator_weights(ctx, grid.knots))
    step = float(grid.knots[1] - grid.knots[0])
    table = BandCreditTable(step, cfg.eps) if cfg.lt_estimator == "occupation" else None
    return EnsembleJob(
        ctx=ctx, grid=grid, master_seed=cfg.seed, eps=cfg.eps,
        estimator=cfg.lt_estimator, weights=weights,
        times=times, s_nodes=s_nodes, kh=tuple(cfg.kh), credit_table=table,
    )


def _empty_block(job, n):
    """Unfilled ``(n, ...)`` arrays, one per per-path field of EnsembleTable."""
    return {f.name: np.empty((n,) + tuple(len(getattr(job, d))
                                          for d in f.metadata["dims"]))
            for f in fields(EnsembleTable) if "dims" in f.metadata}


@dataclass(frozen=True)
class _Knots:
    """One recorded group: the grid index of each of its times, and the
    prefix of the grid that ends at its last knot (the grid itself when
    that knot ends the grid)."""

    index: np.ndarray
    grid: TimeGrid

    @classmethod
    def of(cls, grid, times):
        index = np.array([grid.index_of(t) for t in times], dtype=np.intp)
        end = int(index.max()) + 1 if len(index) else 1
        if end < len(grid.knots):
            grid = TimeGrid(grid.knots[:end])
        return cls(index, grid)

    def head(self, tau, beta):
        """The path ``(tau, beta)`` up to this group's last knot, with the
        same default time; ``beta`` may hold one path per row."""
        return InformationPath(tau, self.grid, beta[..., :len(self.grid.knots)])


@dataclass(frozen=True)
class _KnotPlan:
    """The knots of every recorded group of a job, found once per run.

    Building it sends every recorded time through ``TimeGrid.index_of``, so
    a time off the grid raises ``DomainError`` before any path runs, and so
    does a job that records b or its quadratic variation without a drift
    table.  Both come from one drift recovery on the longer of their two
    heads.
    """

    times: _Knots
    s_nodes: _Knots
    b_nodes: _Knots
    qv_nodes: _Knots
    drift: _Knots
    lt_probe: tuple

    @classmethod
    def of(cls, job):
        if (job.b_nodes or job.qv_nodes) and job.drift_table is None:
            raise DomainError("b_nodes and qv_nodes need a drift_table")
        grid = job.grid
        b, qv = _Knots.of(grid, job.b_nodes), _Knots.of(grid, job.qv_nodes)
        return cls(times=_Knots.of(grid, job.times),
                   s_nodes=_Knots.of(grid, job.s_nodes),
                   b_nodes=b, qv_nodes=qv,
                   drift=max(b, qv, key=lambda g: len(g.grid.knots)),
                   lt_probe=tuple(_Knots.of(grid, (t,)) for t, _ in job.lt_probe))


def _record_rows(job, plan, batch, block, rows):
    """Record the statistics of the sampled paths ``batch`` in rows ``rows``
    of ``block``.

    The paths go through each stage as one (rows x knots) batch, a lone path
    as itself.  Every curve here is a running sum or maximum, so its value
    at a knot depends on the steps before that knot alone: each recorded
    group is computed on the head of the batch that ends at the group's
    last knot (``plan``) and read there, with the bits of the whole-grid
    curve of each path.  K^h stays per path: its panel work does not shrink
    with the batch.  A path's lags share one ``window_rates`` call.
    """
    if len(batch) == 1:
        tau, beta = batch[0].tau, batch[0].beta
    else:
        tau, beta = np.array([p.tau for p in batch]), np.stack([p.beta for p in batch])
    block["tau"][rows] = tau
    block["H"][rows] = np.asarray(job.times) >= np.asarray(tau)[..., None]
    block["beta"][rows] = beta[..., plan.s_nodes.index]
    if job.times:
        head = plan.times.head(tau, beta)
        if job.estimator == "tanaka":
            lt = tanaka_estimate(head, 0.0)
        else:
            lt = occupation_estimate(head, 0.0, job.eps,
                                     credit_table=job.credit_table)
        t_idx = plan.times.index
        block["K"][rows] = compensator_curve(head, lt, job.weights)[..., t_idx]
        if job.kh:
            for k, p in enumerate(batch, rows.start):
                path = plan.times.head(p.tau, p.beta)
                window = window_rates(path, job.ctx, job.kh)
                for a, h in enumerate(job.kh):
                    block["Kh"][k, a] = laplacian_approximation(
                        path, h, job.ctx, window)[t_idx]
    if job.b_nodes or job.qv_nodes:
        b = paths.recover_b(plan.drift.head(tau, beta), job.drift_table)
        block["b"][rows] = b[..., plan.b_nodes.index]
        if job.qv_nodes:
            block["qv_b"][rows] = paths.quadratic_variation(b)[..., plan.qv_nodes.index]
    for a, ((_, x), probe) in enumerate(zip(job.lt_probe, plan.lt_probe)):
        head = probe.head(tau, beta)
        j = probe.index[0]
        block["lt_occ"][rows, a] = occupation_estimate(head, x, job.eps).values[..., j]
        block["lt_tan"][rows, a] = tanaka_estimate(head, x).values[..., j]


_JOB = None
_PLAN = None


def _set_job(job, plan):
    global _JOB, _PLAN
    _JOB, _PLAN = job, plan


def _run_chunk(bounds):
    """Statistics block of the paths ``range(*bounds)``, drawn in order and
    recorded in sub-batches of at most ``quadrature.TILE_ELEMENTS`` knots."""
    start, stop = bounds
    job = _JOB
    block = _empty_block(job, stop - start)
    for rows in row_tiles(stop - start, len(job.grid.knots)):
        batch = [sample_path_direct(job.ctx, job.grid,
                                    RandomStream(job.master_seed, start + k))
                 for k in range(rows.start, rows.stop)]
        _record_rows(job, _PLAN, batch, block, rows)
    return start, block


def resolve_workers(explicit=None):
    """Worker count: explicit argument, else the environment capped at the
    CPU count, else the CPUs."""
    if explicit:
        return max(1, int(explicit))
    cpus = os.cpu_count() or 1
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return min(max(1, int(env)), cpus)
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    return cpus


def _chunks(n_paths):
    """Path index ranges of ``_CHUNK`` paths, the last one possibly shorter."""
    return [(a, min(a + _CHUNK, n_paths)) for a in range(0, n_paths, _CHUNK)]


def run_ensemble(job, n_paths, workers=None):
    """Run ``n_paths`` paths of the job; bit-identical for any worker count.

    The knot plan and the table are built here, before any worker starts,
    so a recorded time off the grid or a path count whose table cannot be
    allocated raises ``DomainError`` in the caller.  The pool never
    has more workers than there are chunks, nor, when the count comes from
    the environment, than there are CPUs.
    """
    if n_paths < 1:
        raise InsufficientPaths("need at least one path")
    plan = _KnotPlan.of(job)
    table = EnsembleTable.empty(job, n_paths)
    chunks = _chunks(n_paths)
    workers = min(resolve_workers(workers), len(chunks))

    def paste(start, block):
        stop = start + len(block["tau"])
        for name, rows in block.items():
            getattr(table, name)[start:stop] = rows

    if workers <= 1:
        _set_job(job, plan)
        for bounds in chunks:
            paste(*_run_chunk(bounds))
    else:
        import multiprocessing as mp

        mp_ctx = mp.get_context()
        with mp_ctx.Pool(workers, initializer=_set_job, initargs=(job, plan)) as pool:
            for start, block in pool.imap(_run_chunk, chunks):
                paste(start, block)
    return table


# ---------------------------------------------------------------------------
# martingale test: functionals, reductions and the gate verdict
# ---------------------------------------------------------------------------

def parse_functional(text):
    """Functional of the information value used in martingale tests.

    ``one`` (constant), ``abs_beta`` (absolute value), or
    ``indicator_beta_above:<c>``.  Returns (label, callable on arrays).
    """
    text = text.strip()
    if text == "one":
        return "one", lambda b: np.ones_like(b)
    if text == "abs_beta":
        return "abs_beta", np.abs
    if text.startswith("indicator_beta_above:"):
        try:
            c = float(text.split(":", 1)[1])
        except ValueError:
            c = math.nan  # reported with the non-finite thresholds below
        if not math.isfinite(c):
            raise DomainError(f"bad threshold in functional {text!r}")
        return f"indicator_beta_above({c:g})", lambda b: (b > c).astype(float)
    raise DomainError(f"unknown functional {text!r}")


@dataclass(frozen=True)
class EnsembleReport:
    """Cross-path summary: per-time means/errors and the residual statistics."""

    times: np.ndarray
    mean_H: np.ndarray
    mean_K: np.ndarray
    F: np.ndarray
    stderr_H: np.ndarray
    stderr_K: np.ndarray
    n_paths: int
    residual_stats: tuple = ()          # rows (s, t, label, residual, stderr)
    gate_multiplier: float = 3.0

    def gates(self):
        """Every gate of the report, one ``(kind, i, gap, bound, ok)`` row each.

        Per report time ``times[i]``, kind ``"F"`` bounds |mean_K - F(t)| by
        ``gate_multiplier`` standard errors of mean_K and kind ``"H"`` bounds
        |mean_K - mean_H| by as many combined ones; then kind ``"residual"``
        bounds |residual| of ``residual_stats[i]`` by as many of its own.  A
        gate passes when its gap is at most its bound, so a NaN gap fails.
        """
        mult = self.gate_multiplier
        rows = []
        for j in range(len(self.times)):
            rows.append(("F", j, abs(self.mean_K[j] - self.F[j]),
                         mult * self.stderr_K[j]))
            rows.append(("H", j, abs(self.mean_K[j] - self.mean_H[j]),
                         mult * math.hypot(self.stderr_H[j], self.stderr_K[j])))
        rows += [("residual", i, abs(res), mult * se)
                 for i, (_, _, _, res, se) in enumerate(self.residual_stats)]
        return [(kind, i, gap, bound, bool(gap <= bound))
                for kind, i, gap, bound in rows]

    @property
    def residuals(self):
        """Residual rows ``(s, t, label, residual, stderr, passed)``."""
        oks = [ok for kind, *_, ok in self.gates() if kind == "residual"]
        return [row + (ok,) for row, ok in zip(self.residual_stats, oks)]

    def all_gates_pass(self):
        return all(ok for *_, ok in self.gates())


def table_martingale_residual(table, s, t, functional):
    """Monte Carlo test statistic for the compensated-indicator martingale.

    The sample mean over paths of ((H_t - K_t) - (H_s - K_s)) * Z_s, with Z_s
    the functional of the information value at s named by the spec string
    ``functional`` (``parse_functional``), returned with its standard error.
    Small for every adapted functional exactly when K compensates H.
    """
    if not (0.0 < s < t):
        raise DomainError(f"need 0 < s < t, got s={s}, t={t}")
    _check_paths(table.n_paths)
    _, fn = parse_functional(functional)
    js, jt = table.time_index(s), table.time_index(t)
    z = fn(table.beta[:, table.s_index(s)])
    ys = ((table.H[:, jt] - table.K[:, jt]) - (table.H[:, js] - table.K[:, js])) * z
    return float(ys.mean()), float(ys.std(ddof=1) / math.sqrt(len(ys)))


def _check_paths(n):
    if n < 100:
        raise InsufficientPaths(f"need at least 100 paths, got {n}")


def summarize_table(table, ctx, report_times, residual_matrix=(),
                    functionals=("one",), gate_multiplier=EnsembleReport.gate_multiplier):
    """EnsembleReport from a statistics table at the report times.

    ``residual_matrix`` is a sequence of (s, t) pairs; every functional spec
    in ``functionals`` is tested on each pair, and the report's gates decide
    each residual against ``gate_multiplier`` standard errors.
    """
    if table.n_paths < 2:
        raise InsufficientPaths(f"a standard error needs at least 2 paths, "
                                f"got {table.n_paths}")
    times = np.asarray(report_times, dtype=float)
    cols = [table.time_index(float(t)) for t in times]
    hs = table.H[:, cols]
    ks = table.K[:, cols]
    n = table.n_paths
    stats = tuple((s, t, parse_functional(spec)[0],
                   *table_martingale_residual(table, s, t, spec))
                  for (s, t) in residual_matrix for spec in functionals)
    return EnsembleReport(
        times=times,
        mean_H=hs.mean(axis=0),
        mean_K=ks.mean(axis=0),
        F=np.asarray(ctx.dist.cdf_F(times), dtype=float),
        stderr_H=hs.std(axis=0, ddof=1) / math.sqrt(n),
        stderr_K=ks.std(axis=0, ddof=1) / math.sqrt(n),
        n_paths=n,
        residual_stats=stats,
        gate_multiplier=gate_multiplier,
    )


# ---------------------------------------------------------------------------
# CSV artifacts (17 significant digits, locale-free)
# ---------------------------------------------------------------------------

def _fmt(x):
    return format(float(x), ".17g")


def write_paths_csv(paths, fh):
    """``path_id,t,beta,in_default`` with one row per knot per path."""
    fh.write("path_id,t,beta,in_default\n")
    for i, p in enumerate(paths):
        mask = p.grid.knots >= p.tau
        for t, b, d in zip(p.grid.knots, p.beta, mask):
            fh.write(f"{i},{_fmt(t)},{_fmt(b)},{1 if d else 0}\n")


def write_curves_csv(table, fh):
    """``path_id,t,H,K`` (+ ``Kh_<h>`` per configured lag) at the report times."""
    heads = "".join(f",Kh_{h:g}" for h in table.job.kh)
    fh.write("path_id,t,H,K" + heads + "\n")
    for i in range(table.n_paths):
        for j, t in enumerate(table.job.times):
            extra = "".join("," + _fmt(table.Kh[i, a, j])
                            for a in range(len(table.job.kh)))
            fh.write(f"{i},{_fmt(t)},{_fmt(table.H[i, j])},{_fmt(table.K[i, j])}"
                     + extra + "\n")


def write_summary_csv(report, fh):
    fh.write("t,mean_H,mean_K,F_t,stderr_H,stderr_K\n")
    for j in range(len(report.times)):
        fh.write(",".join(_fmt(v) for v in (
            report.times[j], report.mean_H[j], report.mean_K[j], report.F[j],
            report.stderr_H[j], report.stderr_K[j])) + "\n")


def write_residuals_csv(report, fh):
    fh.write("s,t,functional,residual,stderr,pass\n")
    for (s, t, label, res, se, ok) in report.residuals:
        fh.write(f"{_fmt(s)},{_fmt(t)},{label},{_fmt(res)},{_fmt(se)},"
                 f"{1 if ok else 0}\n")
