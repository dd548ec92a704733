from pathlib import Path

import pytest

from infobridge.cli import main
from infobridge.config import (FIELD_TYPES, RunConfig, _parse_value, load_config,
                               parse_config_file)
from infobridge.errors import ConfigError

README = Path(__file__).resolve().parent.parent / "README.md"


def _write(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


def test_parse_file_with_comments(tmp_path):
    path = _write(tmp_path, """
# headline run
dist = exp:1.3
dt = 0.002          # fine grid
paths = 500
report_times = 0.5,1.0
residual_pairs = 0.25:0.75,0.5:1.0
functionals = one,abs_beta
zero_k = true
""")
    cfg = load_config(path, command="compensator", t_max=2.0)
    assert cfg.dist == "exp:1.3"
    assert cfg.dt == 0.002
    assert cfg.paths == 500
    assert cfg.report_times == (0.5, 1.0)
    assert cfg.residual_pairs == ((0.25, 0.75), (0.5, 1.0))
    assert cfg.zero_k is True


def test_flag_overrides_file(tmp_path):
    path = _write(tmp_path, "paths = 10\nseed = 3\n")
    cfg = load_config(path, paths=99)
    assert cfg.paths == 99
    assert cfg.seed == 3


def test_defaults_without_file():
    cfg = load_config()
    assert cfg.dist == "exp:1.0"
    assert cfg.lt_estimator == "occupation"
    # the occupation band half-width is lt_eps_coeff * sqrt(dt)
    assert RunConfig(dt=0.01, lt_eps_coeff=0.2).eps == 0.2 * 0.01 ** 0.5


def test_policy_constants_are_not_fields():
    # the quadrature tolerances, the tail-cut mass and the gate multiplier
    # are the same for every run: class constants, not config keys
    values = dict(rel_tol=1e-9, abs_tol=1e-12, tail_cutoff_mass=1e-9, gate_multiplier=3.0)
    for name, value in values.items():
        assert getattr(RunConfig, name) == value
        assert getattr(RunConfig(), name) == value
        assert name not in FIELD_TYPES
        with pytest.raises(ConfigError):
            load_config(None, **{name: value})
    assert len(FIELD_TYPES) == 13


def test_unknown_key(tmp_path):
    # retired keys are unknown as well, and the CLI exits 2 on them before
    # it creates the output directory
    out = tmp_path / "out"
    for line in ("volatility = 2\n", "lt_eps_power = 0.5\n", "workers = 2\n",
                 "rel_tol = 1e-9\n", "abs_tol = 1e-12\n", "tail_cutoff_mass = 1e-9\n",
                 "gate_multiplier = 3.0\n"):
        path = _write(tmp_path, line)
        with pytest.raises(ConfigError):
            parse_config_file(path)
        for command in ("simulate", "compensator"):
            assert main([command, "--config", path, "--out", str(out)]) == 2
            assert not out.exists()


def test_malformed_line(tmp_path):
    path = _write(tmp_path, "just some words\n")
    with pytest.raises(ConfigError):
        parse_config_file(path)


def test_bad_value(tmp_path):
    path = _write(tmp_path, "dt = fast\n")
    with pytest.raises(ConfigError):
        parse_config_file(path)


@pytest.mark.parametrize("kwargs", [
    dict(dt=0.0),
    dict(dt=-0.1),
    dict(t_max=0.005, dt=0.01),
    dict(paths=0),
    dict(lt_estimator="splines"),
    dict(lt_eps_coeff=0.0),
    dict(kh=(0.1, -0.2)),
    dict(dt=float("nan")),
    dict(t_max=float("inf")),
    dict(lt_eps_coeff=float("nan")),
    dict(lt_eps_coeff=1e300),
    dict(lt_eps_coeff=5e-324),  # the band half-width underflows to 0
    dict(kh=(0.2, float("nan"))),
    dict(report_times=(0.5, float("inf"))),
    dict(residual_pairs=((0.5, float("nan")),)),
    # RandomStream keys on the seed modulo 2**64: these would alias 0 and 2**64 - 1
    dict(seed=2 ** 64),
    dict(seed=-1),
    # window lags are strictly decreasing for every command
    dict(kh=(0.1, 0.1)),
    dict(kh=(0.1, 0.2)),
])
def test_base_validation(kwargs):
    with pytest.raises(ConfigError):
        RunConfig(**kwargs).validate()


def test_band_coefficient_is_bounded_only_for_the_occupation_estimator():
    # tanaka runs never read the band half-width
    RunConfig(lt_estimator="tanaka", lt_eps_coeff=1e300).validate()
    RunConfig(lt_estimator="tanaka", lt_eps_coeff=5e-324).validate()
    RunConfig(lt_eps_coeff=1e150).validate()
    with pytest.raises(ConfigError):
        RunConfig(lt_eps_coeff=1.01e150).validate()
    with pytest.raises(ConfigError):
        RunConfig(lt_estimator="tanaka", lt_eps_coeff=-1.0).validate()


def test_report_times_checked_for_compensator():
    cfg = RunConfig(dt=0.01, t_max=1.0, report_times=(0.5, 2.0),
                    residual_pairs=(), functionals=("one",))
    with pytest.raises(ConfigError):
        cfg.validate("compensator")
    # the same configuration is fine for a plain simulation
    cfg.validate("simulate")


def test_empty_report_times_refused_for_gate_commands():
    # with no report time, compensator and convergence decide no gate
    cfg = RunConfig(dt=0.05, t_max=1.0, report_times=(), residual_pairs=(),
                    kh=(0.2, 0.1))
    for command in ("compensator", "convergence"):
        with pytest.raises(ConfigError, match="report times"):
            cfg.validate(command)
    cfg.validate("simulate")
    cfg.validate("survival")


def test_off_grid_report_time():
    cfg = RunConfig(dt=0.3, t_max=1.2, report_times=(0.5,),
                    residual_pairs=(), functionals=("one",))
    with pytest.raises(ConfigError):
        cfg.validate("compensator")


def test_residual_pair_ordering():
    cfg = RunConfig(dt=0.01, t_max=2.0, report_times=(1.0,),
                    residual_pairs=((1.0, 0.5),), functionals=("one",))
    with pytest.raises(ConfigError):
        cfg.validate("compensator")


def test_bad_functional():
    for bad in ("square", "indicator_beta_above:abc", "indicator_beta_above:nan",
                "indicator_beta_above:inf"):
        cfg = RunConfig(dt=0.01, t_max=2.0, report_times=(1.0,),
                        residual_pairs=(), functionals=(bad,))
        with pytest.raises(ConfigError):
            cfg.validate("compensator")


def test_unknown_flag_override():
    with pytest.raises(ConfigError):
        load_config(None, tolerance=1.0)


def test_seed_range_edges():
    RunConfig(seed=0).validate()
    RunConfig(seed=2 ** 64 - 1).validate()


# One value per RunConfig field, each different from its default.
SAMPLE = dict(
    dist="gamma:2,2", dt=0.02, t_max=1.0, paths=7, seed=2 ** 64 - 1,
    lt_estimator="tanaka", lt_eps_coeff=0.3, kh=(0.2, 0.1), report_times=(0.5, 1.0),
    residual_pairs=((0.5, 1.0),), functionals=("one", "abs_beta"), out="some/dir",
    zero_k=True,
)


def _text(value):
    """A RunConfig value as a config file writes it."""
    if not isinstance(value, tuple):
        return str(value)
    return ",".join(":".join(map(str, v)) if isinstance(v, tuple) else str(v)
                    for v in value)


def test_every_field_round_trips(tmp_path):
    assert SAMPLE.keys() == FIELD_TYPES.keys()
    default = RunConfig()
    assert all(getattr(default, k) != v for k, v in SAMPLE.items())
    path = _write(tmp_path, "".join(f"{k} = {_text(v)}\n" for k, v in SAMPLE.items()))
    parsed = parse_config_file(path)
    assert parsed == SAMPLE
    assert all(type(parsed[k]) is type(v) for k, v in SAMPLE.items())
    assert load_config(path, command="compensator") == RunConfig(**SAMPLE)


def test_unhandled_annotation_fails_loudly():
    # a field whose annotation the parser does not know is a programming
    # error, not a bad value in somebody's file
    for kind in (list[float], dict, tuple, complex):
        with pytest.raises(TypeError):
            _parse_value("1", kind)


def test_readme_config_block_lists_every_field(tmp_path):
    text = README.read_text()
    start = text.index("```", text.index("Configuration files are flat"))
    block = text[text.index("\n", start) + 1:text.index("```", start + 3)]
    parsed = parse_config_file(_write(tmp_path, block))
    assert parsed.keys() == FIELD_TYPES.keys()
    RunConfig(**parsed).validate("compensator")
