"""The exit-code contract of the command line, searched with hypothesis.

Config files are drawn from the ``RunConfig`` annotations: each float,
int, str, bool and tuple field gets a mix of ordinary values and bad ones
(zero, negative, NaN, +-inf, subnormal and huge numbers, malformed text,
empty and unsorted tuples, times off the grid).  Every subcommand then runs
in-process through ``cli.main`` on one worker.  Whatever the draw, the run
must end in exit code 0, 1 or 2 (3 only when the draw names a path that
cannot be read or written), no exception may escape, and an exit 2 must
leave no output directory behind.

Each draw is an ordinary config with at most two fields made bad, so most
draws get past the first check.  Valid draws stay small: the ordinary
values of ``dt`` and ``t_max`` give at most 40 steps, ``paths`` is at most
3, and a bad ``dt`` or ``t_max`` (never both) fails before a grid is
allocated.  A huge path count is drawn for no command: on ``simulate`` and
``convergence`` it is a valid run that never ends.
"""

import contextlib
import io
import os
import tempfile
from typing import get_args, get_origin

from hypothesis import HealthCheck, example, given, settings, strategies as st

from infobridge.cli import EXIT_CONFIG, EXIT_GATE_FAIL, EXIT_IO, EXIT_OK, main
from infobridge.config import FIELD_TYPES

# Ordinary values of each field, as config-file text.  The grids they make
# have at most 40 steps.
GOOD = {
    "dist": ("exp:1.0", "gamma:2,2", "uniform:0,3", "uniform:1,3", "lognormal:0,0.5",
             "table:{table}"),
    "dt": ("0.05", "0.1", "0.25"),
    "t_max": ("0.5", "1.0", "2.0"),
    "paths": ("1", "2", "3"),
    "seed": ("0", "7", "18446744073709551615"),
    "lt_estimator": ("occupation", "tanaka"),
    "lt_eps_coeff": ("0.5", "1.0"),
    "kh": ("0.2,0.1", "0.1,0.05", "0.1"),
    "report_times": ("0.5", "0.5,1.0", "0.25,0.5"),
    "residual_pairs": ("0.25:0.5", "0.5:1.0", "0.25:0.5,0.5:1.0"),
    "functionals": ("one", "one,abs_beta", "indicator_beta_above:0.2"),
    "out": ("{out}",),
    "zero_k": ("false", "true"),
    "t": ("0.5", "1.0", "0.25"),  # the state of the survival command
    "x": ("0.3", "-0.5", "1.0"),
}
# Bad values by annotation.  No finite positive number here makes a grid
# that can be allocated from an ordinary dt or t_max.
BAD_FLOATS = ("0", "-0.0", "-1", "nan", "inf", "-inf", "5e-324", "1e-300", "1e300",
              "1.7976931348623157e308", "1e999", "", "abc")
BAD_INTS = ("0", "-1", "1.5", "abc", "")
BAD_STRINGS = {
    "dist": ("", "exp", "exp:", "exp:0", "exp:-1", "exp:nan", "exp:inf", "exp:5e-324",
             "exp:1e300", "gamma:2", "gamma:0,1", "uniform:3,1", "uniform:1,1",
             "lognormal:0,300", "lognormal:nan,1", "weibull:1", "table:{bad_table}",
             "table:{short_table}", "table:{missing}"),
    "lt_estimator": ("", "bogus", "Tanaka"),
    "functionals": ("", "bogus", "indicator_beta_above:nan", "indicator_beta_above:"),
    "out": ("", "{file}/out"),
}
# Values that are bad only for their field: in range for the annotation.
BAD_EXTRA = {"dt": ("1e-17",), "t_max": ("1e17",), "lt_eps_coeff": ("9.9e-9",),
             "seed": ("18446744073709551616", "100000000000000000000000000000"),
             "t": ("0", "3", "1.7976931348623157e308"), "x": ("0", "200")}
# Items of the float tuples besides the bad numbers: times on and off the grids.
TIMES = ("0.5", "1.0", "0.25", "2.0", "0.33", "0.2", "0.1", "0.05")
# Draws that name a path which cannot be read or written: exit 3 is allowed.
BAD_PATHS = {"dist": ("table:{missing}",), "out": ("", "{file}/out")}
COMMANDS = ("simulate", "survival", "compensator", "convergence")
TYPES = {**FIELD_TYPES, "t": float, "x": float}


def _bad(name, kind):
    """Text of a bad value of annotation ``kind`` for field ``name``."""
    extra = BAD_EXTRA.get(name, ())
    if kind is float:
        return st.sampled_from(BAD_FLOATS + extra)
    if kind is int:
        return st.sampled_from(BAD_INTS + extra)
    if kind is bool:
        return st.sampled_from(("maybe", ""))
    if kind is str:
        return st.sampled_from(BAD_STRINGS[name])
    args = get_args(kind)
    if get_origin(kind) is tuple and args[1:] == (Ellipsis,):
        # empty, unsorted, repeated and partly bad lists
        if args[0] is float:
            item = st.sampled_from(TIMES + BAD_FLOATS)
        elif args[0] is str:
            item = st.sampled_from(BAD_STRINGS[name] + ("one", "abs_beta"))
        else:
            item = _bad(name, args[0])
        return st.lists(item, max_size=3).map(",".join)
    if get_origin(kind) is tuple:  # a pair of times, or a malformed one
        item = st.sampled_from(TIMES + BAD_FLOATS)
        return st.lists(item, min_size=1, max_size=3).map(":".join)
    raise TypeError(f"no strategy for the annotation {kind!r}")


@st.composite
def draws(draw):
    """(command, {field: text}, survival state, names a bad path).  An ordinary
    config with at most two fields made bad."""
    command = draw(st.sampled_from(COMMANDS))
    names = sorted(FIELD_TYPES) + (["t", "x"] if command == "survival" else [])
    # dt = 1e300 with t_max = 1.8e308 is a valid grid of 1.8e8 steps
    broken = draw(st.sets(st.sampled_from(names), max_size=2)
                  .filter(lambda b: not {"dt", "t_max"} <= b))
    text = {name: draw(_bad(name, TYPES[name]) if name in broken
                       else st.sampled_from(GOOD[name])) for name in names}
    bad_path = any(text[name] in BAD_PATHS.get(name, ()) for name in broken)
    state = ("--t", text.pop("t"), "--x", text.pop("x")) if command == "survival" else ()
    return command, text, state, bad_path


def _write_inputs(base):
    names = {
        "table": os.path.join(base, "law.csv"),
        "bad_table": os.path.join(base, "bad.csv"),
        "short_table": os.path.join(base, "short.csv"),
        "missing": os.path.join(base, "no_such_law.csv"),
        "file": os.path.join(base, "plain_file"),
        "out": os.path.join(base, "out"),
    }
    with open(names["table"], "w") as fh:
        fh.write("t,f\n" + "".join(f"{t},{2.0 ** -t / 1.4426950408889634}\n"
                                   for t in range(31)))
    with open(names["bad_table"], "w") as fh:
        fh.write("t,f\n0,1\n1,nan\n2,0.5\n")
    with open(names["short_table"], "w") as fh:
        fh.write("t,f\n0\n")
    with open(names["file"], "w") as fh:
        fh.write("not a directory\n")
    return names


def _run(command, text, state, bad_path):
    with tempfile.TemporaryDirectory() as base:
        names = _write_inputs(base)
        cfg = os.path.join(base, "run.cfg")
        with open(cfg, "w") as fh:
            fh.write("".join(f"{key} = {val.format(**names)}\n" for key, val in text.items()))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = main([command, "--config", cfg, *state])
            except SystemExit as exc:  # argparse rejects a --t or --x
                code = exc.code
        allowed = {EXIT_OK, EXIT_GATE_FAIL, EXIT_CONFIG} | ({EXIT_IO} if bad_path else set())
        assert code in allowed, (code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == EXIT_CONFIG:
            assert not os.path.exists(names["out"]), err.getvalue()


def _ordinary(command, **changes):
    """A draw with the first ordinary value of every field but ``changes``."""
    text = {name: GOOD[name][0] for name in FIELD_TYPES}
    text.update(changes)
    state = ("--t", GOOD["t"][0], "--x", GOOD["x"][0]) if command == "survival" else ()
    return command, text, state, False


# Faults the search found, kept as fixed cases.  Before they were mended
# the first never returned (it built a list of 3.6e16 chunks) and each of
# the others raised an exception through cli.main.
@example(drawn=_ordinary("compensator", paths="18446744073709551616"))
@example(drawn=_ordinary("compensator", paths="1", residual_pairs=""))
@example(drawn=_ordinary("convergence", lt_eps_coeff="1e300"))
@example(drawn=_ordinary("compensator", lt_eps_coeff="5e-324"))
@example(drawn=("survival", _ordinary("survival")[1], ("--t", "5e-324", "--x", "1.0"), False))
@settings(max_examples=500, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=draws())
def test_every_config_ends_in_a_documented_exit_code(drawn, monkeypatch):
    monkeypatch.setenv("INFOBRIDGE_WORKERS", "1")
    _run(*drawn)
