"""Every CSV artifact against its row-by-row reference (``oracles``).

The package writes its tables through one row formatter,
``ensemble.csv_rows``; the references write one ``format(float(v),
".17g")`` per value, as the writers did row by row.  The bytes must agree
on tables holding signed zeros, NaN, infinities, the smallest subnormal and
the largest float, with 0, 1 and 3 lags, no residual rows, and more paths
than one formatting chunk.
"""

import io
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infobridge import cli, laws
from infobridge.cli import main
from infobridge.ensemble import (
    EnsembleJob,
    EnsembleReport,
    EnsembleTable,
    csv_rows,
    write_curves_csv,
    write_paths_csv,
    write_residuals_csv,
    write_summary_csv,
)
from infobridge.paths import InformationPath, TimeGrid

from oracles import (
    loop_write_convergence_csv,
    loop_write_curves_csv,
    loop_write_paths_csv,
    loop_write_residuals_csv,
    loop_write_summary_csv,
    loop_write_survival_csv,
)

SPECIAL = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                    1.7976931348623157e308, 1.0, 0.1, 1.0 / 3.0, 2.0 ** 60])
LABELS = ("one", "indicator_beta_above:0.2", "abs_beta")


def _values(rng, shape):
    """Floats of ``shape``: about half special values, half of any scale."""
    wide = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    return np.where(rng.random(shape) < 0.5, rng.choice(SPECIAL, size=shape), wide)


def _bytes(write, obj):
    buf = io.StringIO(newline="")
    write(obj, buf)
    return buf.getvalue().encode()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_paths=st.sampled_from([0, 1, 3, 513, 1100]),
       lags=st.sampled_from([0, 1, 3]), n_times=st.integers(1, 4),
       n_residuals=st.integers(0, 5))
def test_ensemble_writers_match_row_loops(seed, n_paths, lags, n_times, n_residuals):
    rng = np.random.default_rng(seed)
    times = tuple(np.sort(_values(rng, n_times)).tolist())
    kh = tuple(_values(rng, lags).tolist())
    job = EnsembleJob(ctx=None, grid=None, master_seed=0, eps=1.0, estimator="tanaka",
                      weights=np.zeros(0), times=times, s_nodes=(), kh=kh)
    table = EnsembleTable.empty(job, n_paths)
    table.tau[:] = _values(rng, n_paths)
    table.H[:] = rng.random(table.H.shape) < 0.5
    table.K[:] = _values(rng, table.K.shape)
    table.Kh[:] = _values(rng, table.Kh.shape)
    assert _bytes(write_curves_csv, table) == _bytes(loop_write_curves_csv, table)

    stats = tuple((*_values(rng, 2).tolist(), LABELS[k % 3], *_values(rng, 2).tolist())
                  for k in range(n_residuals))
    report = EnsembleReport(*(_values(rng, n_times) for _ in range(6)), n_paths=n_paths,
                            residual_stats=stats)
    # the residual rows' verdicts come from gate arithmetic on these values
    with np.errstate(all="ignore"):
        for write, loop in ((write_summary_csv, loop_write_summary_csv),
                            (write_residuals_csv, loop_write_residuals_csv)):
            assert _bytes(write, report) == _bytes(loop, report)

    grids = (TimeGrid.regular(1.0, 0.25), TimeGrid(np.array([0.0, 5e-324, 0.3, 1e300])))
    paths = [InformationPath(float(tau), grids[k % 2], _values(rng, len(grids[k % 2].knots)))
             for k, tau in enumerate(_values(rng, 3))]
    assert _bytes(write_paths_csv, iter(paths)) == _bytes(loop_write_paths_csv, paths)


def test_csv_rows_shapes():
    assert csv_rows() == "" and csv_rows([], []) == ""
    assert csv_rows([1, 2], [True, False], ["a", "b"], [0.5, -0.0]) == "1,1,a,0.5\n2,0,b,-0\n"
    with pytest.raises(ValueError, match="longer"):
        csv_rows([1.0], [1.0, 2.0])


def test_survival_file_matches_row_loop(tmp_path, monkeypatch):
    probs = iter(SPECIAL.tolist() * 2)
    monkeypatch.setattr(laws, "survival_probability", lambda t, u, x, ctx: next(probs))
    out = str(tmp_path / "s")
    assert main(["survival", "--dist", "exp:1.0", "--dt", "0.25", "--t-max", "3",
                 "--t", "0.3", "--x", "0.5", "--out", out]) == 0
    us = np.concatenate([[0.3], np.arange(2, 13) * 0.25])
    want = _bytes(lambda obj, fh: loop_write_survival_csv(us, obj, fh), SPECIAL.tolist())
    assert (tmp_path / "s" / "survival.csv").read_bytes() == want


def test_convergence_file_matches_row_loop(tmp_path, monkeypatch):
    # one path whose K is 0 and whose K^h curves hold special values: each
    # gap is the absolute value of one of them
    grid = TimeGrid.regular(1.0, 0.1)
    kh = (0.2, 0.1, 0.05)
    values = _values(np.random.default_rng(3), (len(kh), len(grid.knots)))
    curves = iter(values)
    monkeypatch.setattr(cli, "build_curve",
                        lambda path, lt, w: SimpleNamespace(K=np.zeros(len(grid.knots))))
    monkeypatch.setattr(cli, "laplacian_approximation", lambda path, h, window: next(curves))
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dist = exp:1.0\ndt = 0.1\nt_max = 1\nkh = 0.2,0.1,0.05\n"
                   "report_times = 0.5,1.0\npaths = 1\n")
    assert main(["convergence", "--config", str(cfg), "--out", str(tmp_path / "c")]) in (0, 1)
    gaps = np.abs(values[:, [5, 10]])
    want = _bytes(lambda obj, fh: loop_write_convergence_csv(kh, (0.5, 1.0), obj, fh), gaps)
    assert (tmp_path / "c" / "convergence.csv").read_bytes() == want
