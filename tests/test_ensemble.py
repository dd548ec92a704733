import io
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from infobridge import ensemble
from infobridge.compensator import build_curve
from infobridge.config import RunConfig
from infobridge.distributions import DefaultDistribution, parse_distribution
from infobridge.ensemble import (
    build_job,
    run_ensemble,
    summarize_table,
    table_martingale_residual,
    write_curves_csv,
    write_paths_csv,
    write_residuals_csv,
    write_summary_csv,
)
from infobridge.errors import DomainError, InsufficientPaths
from infobridge.laws import ModelContext
from infobridge.localtime import occupation_estimate
from infobridge.paths import RandomStream, TimeGrid, sample_path_direct

from oracles import indicator_curve


CFG = RunConfig(dist="exp:1.0", dt=0.01, t_max=1.5, paths=300, seed=314,
                lt_eps_coeff=0.5, report_times=(0.5, 1.0),
                residual_pairs=((0.5, 1.0),),
                functionals=("one", "abs_beta"))


@pytest.fixture(scope="module")
def ctx():
    return ModelContext(DefaultDistribution.exponential(1.0))


@pytest.fixture(scope="module")
def job(ctx):
    grid = TimeGrid.regular(CFG.t_max, CFG.dt)
    return build_job(ctx, grid, CFG)


@pytest.fixture(scope="module")
def table(job):
    return run_ensemble(job, CFG.paths, workers=1)


def test_worker_count_invariance(job):
    # 1100 paths are three chunks, so the pool runs three workers; an
    # explicit count is not capped at the CPUs
    one = run_ensemble(job, 1100, workers=1)
    three = run_ensemble(job, 1100, workers=3)
    for name in ("tau", "H", "K", "beta"):
        assert np.array_equal(getattr(one, name), getattr(three, name))


def test_worker_count_from_environment_is_capped_at_cpus(monkeypatch):
    # Read from the arithmetic alone: no pool is started.
    monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 4)
    monkeypatch.setenv("INFOBRIDGE_WORKERS", "100000")
    chunks = ensemble._chunks(10 ** 6)
    assert len(chunks) == 1954 and chunks[-1] == (999936, 10 ** 6)
    assert ensemble.resolve_workers() == 4
    assert min(ensemble.resolve_workers(), len(chunks)) == 4
    assert min(ensemble.resolve_workers(), len(ensemble._chunks(700))) == 2
    for env, expect in (("3", 3), ("0", 1), ("-7", 1)):
        monkeypatch.setenv("INFOBRIDGE_WORKERS", env)
        assert ensemble.resolve_workers() == expect
    monkeypatch.delenv("INFOBRIDGE_WORKERS")
    assert ensemble.resolve_workers() == 4
    assert ensemble.resolve_workers(6) == 6  # an explicit count is the caller's
    monkeypatch.setattr(ensemble.os, "cpu_count", lambda: None)
    monkeypatch.setenv("INFOBRIDGE_WORKERS", "100000")
    assert ensemble.resolve_workers() == 1


def test_table_matches_per_path_module(ctx, job, table):
    # The driver must reproduce the per-path objects row by row.
    grid = TimeGrid.regular(CFG.t_max, CFG.dt)
    eps = CFG.lt_eps_coeff * CFG.dt ** 0.5
    for i in (0, 7, 123, 299):
        p = sample_path_direct(ctx, grid, RandomStream(CFG.seed, i))
        assert p.tau == table.tau[i]
        lt = occupation_estimate(p, 0.0, eps, credit_table=job.credit_table)
        curve = build_curve(p, lt, job.weights)
        H = indicator_curve(p)
        for j, t in enumerate(job.times):
            k = curve.grid.index_of(t)
            assert H[k] == table.H[i, j]
            assert curve.K[k] == table.K[i, j]
        for j, s in enumerate(job.s_nodes):
            assert p.beta[p.grid.index_of(s)] == table.beta[i, j]


class _ZeroUniform:
    """Generator stand-in whose uniform draw is exactly 0.0."""

    def random(self):
        return 0.0


@pytest.mark.parametrize("estimator", ["occupation", "tanaka"])
def test_default_at_time_zero_row(ctx, estimator, monkeypatch):
    # tau = 0 is a path that starts in default: H = 1 and K = 0 everywhere.
    cfg = RunConfig(dt=0.01, t_max=1.5, lt_estimator=estimator, kh=(0.2,),
                    report_times=(0.5, 1.0), residual_pairs=((0.5, 1.0),))
    job = build_job(ctx, TimeGrid.regular(cfg.t_max, cfg.dt), cfg)
    monkeypatch.setattr(ensemble, "RandomStream", lambda seed, i: _ZeroUniform())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = run_ensemble(job, 1, workers=1)
    assert row.tau[0] == 0.0
    assert np.all(row.H == 1.0)
    assert np.all(row.K == 0.0) and np.all(row.Kh == 0.0)
    assert np.all(row.beta == 0.0)


def test_summary_matches_numpy_oracle(ctx, table):
    # The reductions against direct sums over the table's columns.
    n = table.n_paths
    js, jt = table.time_index(0.5), table.time_index(1.0)
    y = (table.H[:, jt] - table.K[:, jt]) - (table.H[:, js] - table.K[:, js])
    z = np.abs(table.beta[:, table.s_index(0.5)])
    for spec, ys in (("one", y), ("abs_beta", y * z)):
        mean = ys.sum() / n
        se = math.sqrt(((ys - mean) ** 2).sum() / (n - 1) / n)
        res = table_martingale_residual(table, 0.5, 1.0, spec)
        assert res == pytest.approx((mean, se), rel=1e-12, abs=1e-15)

    rep = summarize_table(table, ctx, (0.5, 1.0))
    cols = table.H[:, [js, jt]], table.K[:, [js, jt]]
    means = [c.sum(axis=0) / n for c in cols]
    np.testing.assert_allclose(rep.mean_K, means[1], rtol=1e-14)
    np.testing.assert_allclose(rep.mean_H, means[0], rtol=1e-14)
    stderr_h = np.sqrt(((cols[0] - means[0]) ** 2).sum(axis=0) / (n - 1) / n)
    np.testing.assert_allclose(rep.stderr_H, stderr_h, rtol=1e-12)


def test_stderr_scales_with_path_count(ctx, job):
    small = summarize_table(run_ensemble(job, 200, workers=1), ctx, (1.0,))
    big = summarize_table(run_ensemble(job, 800, workers=1), ctx, (1.0,))
    ratio = small.stderr_K[0] / big.stderr_K[0]
    assert abs(ratio - 2.0) <= 0.4
    assert small.stderr_H[0] > 0 and big.stderr_H[0] > 0


def test_pool_never_exceeds_chunk_count(job, table, monkeypatch):
    # 1100 paths make three chunks; a pool of eight is clamped to three.
    # The fake pool runs the chunks in this process.
    import multiprocessing

    sizes = []

    class FakePool:
        def __init__(self, size, initializer, initargs):
            sizes.append(size)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items):
            return map(fn, items)

    class FakeContext:
        Pool = FakePool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: FakeContext)
    big = run_ensemble(job, 1100, workers=8)
    assert sizes == [3]
    assert np.array_equal(big.K[:CFG.paths], table.K)
    assert np.array_equal(big.tau[:CFG.paths], table.tau)


_SPAWN_RUN = """
import multiprocessing
from dataclasses import fields

import numpy as np

from infobridge import ensemble
from infobridge.config import RunConfig
from infobridge.distributions import parse_distribution
from infobridge.ensemble import EnsembleTable, build_job, run_ensemble
from infobridge.laws import ModelContext
from infobridge.paths import TimeGrid

multiprocessing.set_start_method("spawn")
cfg = RunConfig(dist="gamma:2,2", dt=0.02, t_max=1.0, seed=8, kh=(0.1,),
                report_times=(0.5, 1.0), residual_pairs=((0.5, 1.0),))
job = build_job(ModelContext(parse_distribution(cfg.dist)),
                TimeGrid.regular(cfg.t_max, cfg.dt), cfg)
one = run_ensemble(job, 600, workers=1)


def inherited(*args):
    raise AssertionError("a worker ran with the parent's memory")


# A forked worker would see this patch; a spawned one imports afresh.
ensemble.sample_path_direct = inherited
two = run_ensemble(job, 600, workers=2)
print(all(np.array_equal(getattr(one, f.name), getattr(two, f.name))
          for f in fields(EnsembleTable) if f.name != "job"))
"""


def test_spawned_workers_match_one_worker():
    # Workers started by spawn rebuild the job from its pickle instead of
    # inheriting it; two chunks on two of them give the serial table's bits.
    # The start method is the platform default, which the script sets.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    out = subprocess.run([sys.executable, "-c", _SPAWN_RUN], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    assert out.strip() == "True"


def test_insufficient_paths(ctx, job):
    tiny = run_ensemble(job, 10, workers=1)
    with pytest.raises(InsufficientPaths):
        table_martingale_residual(tiny, 0.5, 1.0, "one")
    with pytest.raises(InsufficientPaths):
        run_ensemble(job, 0)
    # one path has no standard error, with or without residual pairs
    with pytest.raises(InsufficientPaths):
        summarize_table(run_ensemble(job, 1, workers=1), ctx, (0.5,))


def test_build_job_rejects_off_grid_times(ctx):
    bad = RunConfig(dt=0.01, t_max=1.5, report_times=(0.3333,),
                    residual_pairs=(), functionals=("one",))
    with pytest.raises(DomainError):
        build_job(ctx, TimeGrid.regular(1.5, 0.01), bad)


def test_unrecorded_time_raises(table):
    with pytest.raises(DomainError):
        table.time_index(0.77)
    # 1.0 is a recorded time but not the state time of a residual pair
    with pytest.raises(DomainError, match="state time"):
        table.s_index(1.0)


def test_residual_needs_s_before_t(table):
    for s, t in ((1.0, 0.5), (0.5, 0.5)):
        with pytest.raises(DomainError, match="0 < s < t"):
            table_martingale_residual(table, s, t, "one")


def test_csv_writers_are_deterministic(ctx, job, table):
    rep = summarize_table(table, ctx, (0.5, 1.0),
                          residual_matrix=((0.5, 1.0),), functionals=("one",))
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        write_summary_csv(rep, buf)
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[0] == "t,mean_H,mean_K,F_t,stderr_H,stderr_K"

    buf = io.StringIO()
    write_residuals_csv(rep, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "s,t,functional,residual,stderr,pass"
    assert lines[1].split(",")[2] == "one"
    assert lines[1].split(",")[5] in ("0", "1")

    buf = io.StringIO()
    write_curves_csv(table, buf)
    assert buf.getvalue().splitlines()[0] == "path_id,t,H,K"


def test_paths_csv_schema(ctx):
    grid = TimeGrid.regular(1.0, 0.25)
    paths = [sample_path_direct(ctx, grid, RandomStream(9, i)) for i in range(2)]
    buf = io.StringIO()
    write_paths_csv(paths, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "path_id,t,beta,in_default"
    assert len(lines) - 1 >= 2 * 5
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0 and first[3] in ("0", "1")


def test_seventeen_digit_serialization(ctx, job, table):
    rep = summarize_table(table, ctx, (1.0,))
    buf = io.StringIO()
    write_summary_csv(rep, buf)
    val = buf.getvalue().splitlines()[1].split(",")[1]
    assert float(val) == rep.mean_H[0]


def test_tanaka_feed_config_switch(ctx):
    # The compensator can be fed by the Tanaka estimator behind the config
    # switch; the driver must match the per-path route.
    cfg = RunConfig(dist="exp:1.0", dt=0.01, t_max=1.0, paths=64, seed=21,
                    lt_estimator="tanaka", report_times=(1.0,),
                    residual_pairs=(), functionals=("one",))
    grid = TimeGrid.regular(cfg.t_max, cfg.dt)
    job = build_job(ctx, grid, cfg)
    assert job.credit_table is None
    table = run_ensemble(job, cfg.paths, workers=1)
    from infobridge.compensator import compensator_curve
    from infobridge.localtime import tanaka_estimate
    for i in (0, 13, 63):
        p = sample_path_direct(ctx, grid, RandomStream(cfg.seed, i))
        k = compensator_curve(p, tanaka_estimate(p, 0.0), job.weights)
        assert k[p.grid.index_of(1.0)] == table.K[i, 0]


# Scaling time by c and the path by sqrt(c) maps a run of one law onto the
# run of its time-scaled law on the grid of step c * dt: the same uniform
# gives tau -> c tau and the same normals give beta -> sqrt(c) beta, while
# K and K^h (with h -> c h) are unchanged.  Occupation bands scale with
# sqrt(dt), so one lt_eps_coeff serves both runs.  This exercises weights,
# survivor panels, tail cuts, credit tables and window rates on every family.
SCALED_LAWS = [
    ("exp:1.0", "exp:0.5", 2.0), ("exp:1.0", "exp:4.0", 0.25),
    ("gamma:2,2", "gamma:2,1", 2.0), ("uniform:0,3", "uniform:0,6", 2.0),
    ("uniform:1,3", "uniform:2,6", 2.0),
    ("lognormal:0,0.5", f"lognormal:{math.log(2.0)!r},0.5", 2.0),
]


def _scaled_run(spec, c, estimator):
    """40 paths of ``spec`` on [0, 2c] at step 0.01 c, seed 7."""
    cfg = RunConfig(dist=spec, dt=0.01 * c, t_max=2.0 * c, seed=7,
                    lt_estimator=estimator,
                    report_times=(0.5 * c, 1.0 * c, 2.0 * c), residual_pairs=(),
                    kh=(0.2 * c, 0.05 * c) if estimator == "occupation" else ())
    job = build_job(ModelContext(parse_distribution(spec)),
                    TimeGrid.regular(cfg.t_max, cfg.dt), cfg)
    return run_ensemble(job, 40, workers=1)


@pytest.mark.parametrize("base, scaled, c", SCALED_LAWS,
                         ids=[f"{a}-{b}" for a, b, _ in SCALED_LAWS])
def test_scale_covariance(base, scaled, c):
    for estimator in ("occupation", "tanaka"):
        one, other = _scaled_run(base, 1.0, estimator), _scaled_run(scaled, c, estimator)
        np.testing.assert_allclose(other.tau, c * one.tau, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(other.K, one.K, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(other.Kh, one.Kh, rtol=1e-12, atol=1e-14)
