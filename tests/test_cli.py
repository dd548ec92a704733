import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from infobridge.cli import _build_parser, main
from infobridge.config import FIELD_TYPES, load_config
from infobridge.distributions import DefaultDistribution, parse_distribution
from infobridge.ensemble import build_job, run_ensemble
from infobridge.laws import ModelContext
from infobridge.paths import TimeGrid

SURVIVAL_EXP1_1_2_03 = 0.30325518645275773  # frozen Riemann oracle (see laws tests)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _survival_rows(out):
    rows = [line.split(",") for line in
            _read(os.path.join(out, "survival.csv")).decode().splitlines()[1:]]
    return (np.array([float(r[0]) for r in rows]),
            np.array([float(r[1]) for r in rows]))


def test_simulate_schema_and_determinism(tmp_path):
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    args = ["simulate", "--dist", "exp:1.0", "--paths", "2", "--dt", "0.25",
            "--t-max", "1.0", "--seed", "77"]
    assert main(args + ["--out", d1]) == 0
    assert main(args + ["--out", d2]) == 0
    lines = _read(os.path.join(d1, "paths.csv")).decode().splitlines()
    assert lines[0] == "path_id,t,beta,in_default"
    assert len(lines) - 1 >= 2 * 5
    assert _read(os.path.join(d1, "paths.csv")) == _read(os.path.join(d2, "paths.csv"))
    # a valid law with a wide spread loads and runs
    assert main(args + ["--dist", "lognormal:0,3", "--out", str(tmp_path / "c")]) == 0


def test_simulate_rejects_zero_dt(tmp_path):
    assert main(["simulate", "--dt", "0", "--out", str(tmp_path)]) == 2
    assert main(["simulate", "--dt", "nan", "--out", str(tmp_path)]) == 2
    assert main(["simulate", "--t-max", "inf", "--out", str(tmp_path)]) == 2
    for seed in ("-1", str(2 ** 64)):
        assert main(["simulate", "--paths", "1", "--seed", seed,
                     "--out", str(tmp_path)]) == 2
    law = tmp_path / "law.csv"
    law.write_text("t,f\n0,1\n1,nan\n2,0.5\n")
    assert main(["simulate", "--dist", f"table:{law}", "--out", str(tmp_path)]) == 2


def test_table_with_short_row_is_config_error(tmp_path):
    law = tmp_path / "law.csv"
    law.write_text("t,f\n0\n")
    assert main(["simulate", "--dist", f"table:{law}", "--out", str(tmp_path)]) == 2


def test_unallocatable_step_count_is_domain_error(tmp_path):
    # Step counts that fail before any allocation: 2e17 and 2e300 knots are
    # beyond any address space, and 5e-324 makes t_max / dt infinite.
    base = ["survival", "--dist", "exp:1.0", "--t-max", "2", "--t", "1",
            "--x", "0.3", "--out", str(tmp_path)]
    for dt in ("1e-17", "1e-300", "5e-324"):
        assert main(base + ["--dt", dt]) == 2


def test_survival_curve(tmp_path):
    out = str(tmp_path)
    rc = main(["survival", "--dist", "exp:1.0", "--dt", "0.1", "--t-max", "2.5",
               "--t", "1.0", "--x", "0.3", "--out", out])
    assert rc == 0
    us, ps = _survival_rows(out)
    assert us[0] == 1.0 and ps[0] == 1.0
    assert np.all(np.diff(ps) <= 1e-12)
    at2 = ps[np.argmin(np.abs(us - 2.0))]
    assert abs(at2 - SURVIVAL_EXP1_1_2_03) < 1e-6

    # exp:1.0 is cut near 20.72: rows from there on are 0, and the rows
    # below it are those of a grid that stops short of the cut.
    base = ["survival", "--dist", "exp:1.0", "--dt", "1", "--t", "1", "--x", "0.3"]
    short, far = str(tmp_path / "short"), str(tmp_path / "far")
    assert main(base + ["--t-max", "20", "--out", short]) == 0
    assert main(base + ["--t-max", "30", "--out", far]) == 0
    assert _read(os.path.join(far, "survival.csv")).startswith(
        _read(os.path.join(short, "survival.csv")))
    us, ps = _survival_rows(far)
    assert us[-1] == 30.0 and np.all(ps[us >= 21.0] == 0.0) and ps[us == 20.0] > 0.0

    # a table law with 21 knots
    t = np.linspace(0.0, 20.0, 21)
    law = tmp_path / "law.csv"
    law.write_text("t,f\n" + "".join(f"{a!r},{b!r}\n" for a, b in
                                     zip(t.tolist(), np.exp(-t).tolist())))
    out = str(tmp_path / "out")
    assert main(["survival", "--dist", f"table:{law}", "--dt", "0.1",
                 "--t-max", "2", "--t", "0.5", "--x", "0.3", "--out", out]) == 0
    us, ps = _survival_rows(out)
    assert us[0] == 0.5 and ps[0] == 1.0
    assert np.all((ps > 0.0) & (ps <= 1.0)) and np.all(np.diff(ps) <= 1e-12)


def test_survival_domain_errors(tmp_path):
    out = str(tmp_path)
    base = ["survival", "--dist", "exp:1.0", "--dt", "0.1", "--t-max", "2.0",
            "--out", out]
    assert main(base + ["--t", "1.0", "--x", "0.0"]) == 2
    assert main(base + ["--t", "3.0", "--x", "0.3"]) == 2
    assert main(base + ["--t", "1.0", "--x", "nan"]) == 2
    # a state at or past the tail cut, below t_max
    far = ["survival", "--dt", "1", "--t-max", "30", "--x", "0.3", "--out", out]
    assert main(far + ["--dist", "exp:1.0", "--t", "21"]) == 2
    cut = ModelContext(DefaultDistribution.exponential(1.0)).t_cut
    assert main(far + ["--dist", "exp:1.0", "--t", repr(cut)]) == 2
    assert main(far + ["--dist", "uniform:0,2", "--t", "2"]) == 2


def test_other_package_errors_exit_1(tmp_path, monkeypatch, capsys):
    # a package error that is neither bad input nor bad i/o, here a
    # quadrature that does not converge, exits 1 with its message
    from infobridge import laws
    from infobridge.errors import NonConvergence

    def fails(*args):
        raise NonConvergence("quadrature on [0, 1] did not converge")

    monkeypatch.setattr(laws, "survival_probability", fails)
    out = tmp_path / "out"
    assert main(["survival", "--dist", "exp:1.0", "--dt", "0.5", "--t-max", "2",
                 "--t", "0.5", "--x", "0.3", "--out", str(out)]) == 1
    assert "error: quadrature on [0, 1] did not converge" in capsys.readouterr().err
    assert not out.exists()


def test_survival_with_underflowing_survivor_exits_2(tmp_path):
    base = ["survival", "--dist", "exp:1.0", "--dt", "0.5", "--t-max", "2.5",
            "--t", "0.5", "--out", str(tmp_path)]
    for x in ("200", "168"):
        assert main(base + ["--x", x]) == 2
        assert not (tmp_path / "survival.csv").exists()
    assert main(base + ["--x", "150"]) == 0


def test_law_with_non_finite_tail_cut_exits_2(tmp_path, monkeypatch):
    # lognormal:0,300 leaves mass 1e-9 beyond a point past the largest float
    monkeypatch.setenv("INFOBRIDGE_WORKERS", "1")
    out = tmp_path / "run"
    assert main(["simulate", "--dist", "lognormal:0,300", "--paths", "400",
                 "--dt", "0.25", "--t-max", "1", "--out", str(out)]) == 2
    cfg = _compensator_cfg(tmp_path, dist="lognormal:0,300")
    assert main(["compensator", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_oversized_credit_table_exits_2(tmp_path, monkeypatch):
    # an lt_eps_coeff outside [1e-8, 1e150] is refused before anything is
    # written
    monkeypatch.setenv("INFOBRIDGE_WORKERS", "1")
    for coeff in ("1e-300", "1e300"):
        out = tmp_path / coeff
        cfg = _compensator_cfg(tmp_path, lt_eps_coeff=coeff)
        assert main(["compensator", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
    # a band far narrower than a step runs
    out = tmp_path / "narrow"
    cfg = _compensator_cfg(tmp_path, lt_eps_coeff="1e-3", paths="200")
    assert main(["compensator", "--config", cfg, "--out", str(out)]) in (0, 1)
    rows = _read(out / "curves.csv").decode().splitlines()[1:]
    k = np.array([float(r.split(",")[3]) for r in rows])
    assert len(k) == 400 and np.all(np.isfinite(k)) and k.max() > 0.0


def _compensator_cfg(tmp_path, **extra):
    lines = {
        "dist": "exp:1.0", "dt": "0.005", "t_max": "1.0", "paths": "600",
        "seed": "42", "lt_eps_coeff": "0.5",
        "report_times": "0.5,1.0", "residual_pairs": "0.5:1.0",
        "functionals": "one,abs_beta",
    }
    lines.update(extra)
    p = tmp_path / "comp.cfg"
    p.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return str(p)


def test_compensator_run_passes_gates(tmp_path, monkeypatch):
    monkeypatch.setenv("INFOBRIDGE_WORKERS", "1")
    cfg = _compensator_cfg(tmp_path)
    out = str(tmp_path / "run")
    rc = main(["compensator", "--config", cfg, "--out", out])
    assert rc == 0
    report = _read(os.path.join(out, "report.txt")).decode()
    assert "ALL GATES PASS" in report
    summary = _read(os.path.join(out, "summary.csv")).decode().splitlines()
    assert summary[0] == "t,mean_H,mean_K,F_t,stderr_H,stderr_K"
    assert len(summary) == 3
    curves = _read(os.path.join(out, "curves.csv")).decode().splitlines()
    assert curves[0] == "path_id,t,H,K"
    assert len(curves) == 1 + 600 * 2
    residuals = _read(os.path.join(out, "residuals.csv")).decode().splitlines()
    assert residuals[0] == "s,t,functional,residual,stderr,pass"
    assert all(line.rsplit(",", 1)[1] == "1" for line in residuals[1:])


def test_compensator_worker_count_invariance(tmp_path, monkeypatch):
    cfg = _compensator_cfg(tmp_path, paths="400")
    outs = []
    for workers, sub in (("1", "w1"), ("2", "w2")):
        monkeypatch.setenv("INFOBRIDGE_WORKERS", workers)
        out = str(tmp_path / sub)
        assert main(["compensator", "--config", cfg, "--out", out]) == 0
        outs.append(out)
    for name in ("summary.csv", "curves.csv", "residuals.csv"):
        assert _read(os.path.join(outs[0], name)) == _read(os.path.join(outs[1], name))


def test_compensator_zero_k_ablation_fails(tmp_path, monkeypatch):
    monkeypatch.setenv("INFOBRIDGE_WORKERS", "1")
    cfg = _compensator_cfg(tmp_path)
    out = str(tmp_path / "ablation")
    rc = main(["compensator", "--config", cfg, "--out", out, "--zero-k"])
    assert rc == 1
    residuals = _read(os.path.join(out, "residuals.csv")).decode().splitlines()
    one_rows = [r for r in residuals[1:] if r.split(",")[2] == "one"]
    assert any(r.rsplit(",", 1)[1] == "0" for r in one_rows)


def test_compensator_rejects_repeated_lag(tmp_path, monkeypatch):
    # a repeated lag would write two identical Kh_ columns into curves.csv
    monkeypatch.setenv("INFOBRIDGE_WORKERS", "1")
    cfg = _compensator_cfg(tmp_path, paths="200", kh="0.1,0.1")
    assert main(["compensator", "--config", cfg, "--out", str(tmp_path / "run")]) == 2


def test_compensator_insufficient_paths(tmp_path, monkeypatch):
    monkeypatch.setenv("INFOBRIDGE_WORKERS", "1")
    cfg = _compensator_cfg(tmp_path, paths="10")
    out = str(tmp_path / "few")
    rc = main(["compensator", "--config", cfg, "--out", out])
    assert rc == 1
    assert "insufficient paths" in _read(os.path.join(out, "report.txt")).decode()


def _convergence_cfg(tmp_path, kh, paths="2", report_times="1.0"):
    p = tmp_path / "conv.cfg"
    p.write_text(f"""
dist = exp:1.0
dt = 0.02
t_max = 1.2
paths = {paths}
seed = 5
kh = {kh}
report_times = {report_times}
""")
    return str(p)


def test_convergence_writes_gaps(tmp_path):
    cfg = _convergence_cfg(tmp_path, "0.2,0.1")
    out = str(tmp_path / "conv")
    rc = main(["convergence", "--config", cfg, "--out", out])
    assert rc in (0, 1)
    lines = _read(os.path.join(out, "convergence.csv")).decode().splitlines()
    assert lines[0] == "h,t,abs_gap_Kh_K"
    assert len(lines) == 1 + 2
    assert float(lines[1].split(",")[0]) == 0.2


def test_convergence_single_h_marks_insufficient(tmp_path):
    cfg = _convergence_cfg(tmp_path, "0.2")
    out = str(tmp_path / "conv1")
    rc = main(["convergence", "--config", cfg, "--out", out])
    assert rc == 0
    assert "insufficient points" in _read(os.path.join(out, "report.txt")).decode()


def test_convergence_empty_h_is_config_error(tmp_path):
    cfg = _convergence_cfg(tmp_path, "")
    assert main(["convergence", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_empty_report_times_is_config_error(tmp_path, monkeypatch):
    # with no report time neither command decides a gate, so neither may
    # write a passing verdict
    monkeypatch.setenv("INFOBRIDGE_WORKERS", "1")
    comp = _compensator_cfg(tmp_path, dt="0.05", paths="200", report_times="",
                            residual_pairs="")
    conv = _convergence_cfg(tmp_path, "0.2,0.1", report_times="")
    for command, cfg in (("compensator", comp), ("convergence", conv)):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()


def test_convergence_gaps_are_the_ensemble_routes(tmp_path):
    """K^h and K have two routes: the convergence command's own per-path
    loop and ``run_ensemble``'s chunks.  With either local-time estimator
    they agree bit for bit: ``convergence.csv`` holds the mean of |K^h - K|
    summed over the ensemble table's rows in path order.  Merging the
    routes keeps this test as it is."""
    for estimator in ("tanaka", "occupation"):
        cfg_path = tmp_path / f"{estimator}.cfg"
        cfg_path.write_text("dist = gamma:2,2\ndt = 0.01\nt_max = 1.0\npaths = 40\n"
                            f"seed = 11\nlt_estimator = {estimator}\nkh = 0.2,0.05\n"
                            "report_times = 0.5,1.0\nresidual_pairs =\n")
        out = tmp_path / estimator
        assert main(["convergence", "--config", str(cfg_path), "--out", str(out)]) in (0, 1)
        rows = [line.split(",") for line in
                _read(out / "convergence.csv").decode().splitlines()[1:]]
        cfg = load_config(str(cfg_path), command="convergence")
        job = build_job(ModelContext(parse_distribution(cfg.dist)),
                        TimeGrid.regular(cfg.t_max, cfg.dt), cfg)
        table = run_ensemble(job, cfg.paths, workers=1)
        gaps = np.zeros(table.Kh.shape[1:])
        for kh, k in zip(table.Kh, table.K):
            gaps += np.abs(kh - k)
        gaps /= cfg.paths
        assert [(float(h), float(t)) for h, t, _ in rows] == [
            (h, t) for h in cfg.kh for t in job.times]
        assert np.array_equal([float(g) for _, _, g in rows], gaps.ravel())


def test_convergence_requires_decreasing_h(tmp_path):
    cfg = _convergence_cfg(tmp_path, "0.1,0.2")
    assert main(["convergence", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("flags", [
    ["convergence", "--zero-k"],
    ["simulate", "--paths", "1", "--dt", "0.5", "--zero-k"],
    ["survival", "--dt", "0.1", "--t", "1.0", "--x", "0.3", "--paths", "5"],
    ["survival", "--dt", "0.1", "--t", "1.0", "--x", "0.3", "--seed", "5"],
    ["survival", "--dt", "0.1", "--t", "1.0", "--x", "0.3", "--zero-k"],
], ids=["convergence-zero-k", "simulate-zero-k", "survival-paths", "survival-seed",
        "survival-zero-k"])
def test_flags_a_command_does_not_read_are_rejected(tmp_path, flags):
    cfg = _convergence_cfg(tmp_path, "0.2")
    with pytest.raises(SystemExit) as exc:
        main(flags + ["--config", cfg, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2


def test_flag_types_follow_annotations():
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    seen = set()
    for parser in sub.choices.values():
        for action in parser._actions:
            if action.dest not in FIELD_TYPES:
                continue
            seen.add(action.dest)
            assert action.default is None
            if FIELD_TYPES[action.dest] is bool:
                assert isinstance(action, argparse._StoreTrueAction)
            else:
                assert action.type is FIELD_TYPES[action.dest]
    assert seen == {"dist", "paths", "dt", "t_max", "seed", "out", "zero_k"}


def test_module_entry_point_exit_codes(tmp_path):
    # ``python -m infobridge.cli`` hands main's exit code to the process
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    base = [sys.executable, "-m", "infobridge.cli", "simulate", "--paths", "1",
            "--t-max", "1", "--out", str(tmp_path / "out")]
    ok = subprocess.run(base + ["--dt", "0.5"], env=env, capture_output=True, text=True,
                        timeout=120)
    assert ok.returncode == 0, ok.stderr
    assert (tmp_path / "out" / "paths.csv").stat().st_size > 0
    bad = subprocess.run(base + ["--dt", "0"], env=env, capture_output=True, text=True,
                         timeout=120)
    assert bad.returncode == 2 and "configuration error" in bad.stderr


def test_missing_config_file_is_io_error(tmp_path):
    rc = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
               "--out", str(tmp_path)])
    assert rc == 3


def test_non_integer_worker_count_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("INFOBRIDGE_WORKERS", "abc")
    cfg = _compensator_cfg(tmp_path, paths="200")
    assert main(["compensator", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert "INFOBRIDGE_WORKERS" in capsys.readouterr().err


def test_unwritable_out_is_io_error_before_the_run(tmp_path, monkeypatch):
    # the output directory is checked before any path is sampled
    import infobridge.cli as cli

    def ran(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run_ensemble", ran)
    monkeypatch.setattr(cli, "sample_path_direct", ran)
    plain = tmp_path / "plain_file"
    plain.write_text("not a directory\n")
    cfg = _compensator_cfg(tmp_path, kh="0.1")
    for command in ("compensator", "convergence"):
        for out in (plain / "out", plain / "a" / "b", plain):
            assert main([command, "--config", cfg, "--out", str(out)]) == 3
    assert plain.read_text() == "not a directory\n"


def test_survival_close_to_time_zero(tmp_path):
    # the Gaussian factor underflows on the nodes where the time would not
    # be representable, so t = 1e-300 is computed; 5e-324 is not
    base = ["survival", "--dist", "exp:1.0", "--dt", "0.5", "--t-max", "2", "--x", "1"]
    out = tmp_path / "tiny"
    assert main(base + ["--t", "1e-300", "--out", str(out)]) == 0
    us, ps = _survival_rows(str(out))
    assert us[0] == 1e-300 and ps[0] == 1.0 and np.all((ps[1:] > 0.0) & (ps[1:] < 1.0))
    out = tmp_path / "subnormal"
    assert main(base + ["--t", "5e-324", "--out", str(out)]) == 2
    assert not out.exists()
