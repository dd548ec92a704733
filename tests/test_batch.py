"""A batch of paths against its single-path calls.

``InformationPath`` holds one path or a batch of them on one grid, and the
curve routines work along the last axis.  Each row of a batch must equal
the call on that row's path alone, bit for bit, for live-step counts from
0 (a default at time 0) to the whole grid (a default beyond the horizon),
defaults inside a step and on a knot, and rows of equal and of different
counts.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from infobridge.compensator import compensator_curve
from infobridge.distributions import parse_distribution
from infobridge.laws import DriftTable, ModelContext, compensator_weights
from infobridge.localtime import BandCreditTable, occupation_estimate, tanaka_estimate
from infobridge.paths import InformationPath, TimeGrid, quadratic_variation, recover_b

DT = 0.05
EPS = math.sqrt(DT)
CTX = ModelContext(parse_distribution("gamma:2,2"))
GRIDS = (
    TimeGrid.regular(1.0, DT),
    # irregular steps
    TimeGrid(np.unique(np.concatenate([np.linspace(0.0, 1.0, 21),
                                       [0.03, 0.12, 0.51, 0.98]]))),
)
WEIGHTS = [compensator_weights(CTX, g.knots) for g in GRIDS]
CREDITS = BandCreditTable(DT, EPS)
DRIFT = DriftTable.build(CTX, np.linspace(0.0, 1.0, 11))


@st.composite
def batches(draw):
    """A grid index and the (tau, beta) rows of a batch on that grid."""
    g = draw(st.integers(0, len(GRIDS) - 1))
    knots = GRIDS[g].knots
    rows = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    taus, betas = [], []
    for _ in range(rows):
        n = draw(st.integers(0, len(knots) - 1))          # live steps
        if n == 0:
            tau = 0.0
        else:
            where = draw(st.sampled_from(["inside", "knot", "beyond"]
                                         if n == len(knots) - 1 else ["inside", "knot"]))
            if where == "inside":
                tau = knots[n - 1] + draw(st.floats(0.01, 0.99)) * (knots[n] - knots[n - 1])
            else:
                tau = knots[n] if where == "knot" else knots[-1] + 0.5
        beta = np.zeros(len(knots))
        moving = (knots > 0.0) & (knots < tau)
        beta[moving] = np.cumsum(rng.normal(0.0, 1.5 * EPS, moving.sum()))
        taus.append(float(tau))
        betas.append(beta)
    return g, taus, np.stack(betas)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(drawn=batches(), x=st.floats(-2.0 * EPS, 2.0 * EPS))
def test_batch_rows_equal_single_path_calls(drawn, x):
    g, taus, betas = drawn
    grid, weights = GRIDS[g], WEIGHTS[g]
    batch = InformationPath(np.array(taus), grid, betas)
    singles = [InformationPath(t, grid, b) for t, b in zip(taus, betas)]

    def each(fn):
        return fn(batch), [fn(p) for p in singles]

    # a curve of arbitrary values past each row's count is held from there
    w = max(p.live_steps for p in singles)
    head = np.random.default_rng(len(taus)).normal(size=(len(taus), w + 1))
    checks = {
        "stopped": (batch.stopped(head),
                    [p.stopped(h[:p.live_steps + 1]) for p, h in zip(singles, head)]),
        "spans": each(lambda p: p.spans),
        "tanaka": each(lambda p: tanaka_estimate(p, x).values),
        "tanaka at 0": each(lambda p: tanaka_estimate(p, 0.0).values),
        "occupation": each(lambda p: occupation_estimate(p, x, EPS).values),
        "occupation with table": each(
            lambda p: occupation_estimate(p, x, EPS, credit_table=CREDITS).values),
        "K tanaka": each(lambda p: compensator_curve(p, tanaka_estimate(p, 0.0), weights)),
        "K occupation": each(lambda p: compensator_curve(
            p, occupation_estimate(p, 0.0, EPS, credit_table=CREDITS), weights)),
        "b": each(lambda p: recover_b(p, DRIFT)),
        "qv of b": each(lambda p: quadratic_variation(recover_b(p, DRIFT))),
        "qv of beta": each(lambda p: quadratic_variation(p.beta)),
    }
    for name, (got, want) in checks.items():
        assert got.shape == (len(taus), len(grid.knots) - (name == "spans")), name
        for row, ref in zip(got, want):
            assert row.tobytes() == ref.tobytes(), name
