"""Golden traces: the race preset at a 2,000-query budget, and a small mlp.

The rows were recorded once and are compared to rtol 1e-12, so any change to
a perturbation stream, a seed derivation or the order of the arithmetic in a
step shows here.  The in-process replay of C9 cannot catch such a change,
since both of its runs use the same code.  A change that alters the trajectories on
purpose must record the new rows and say so.

The mlp is the only objective with one-row blocks (its biases), which take
the full-space estimate while its weights hold factors, so its rows pin
which blocks hold a factor.
"""

import dataclasses

import pytest

from zomat import presets
from zomat.harness import build_objective
from zomat.objectives import make_mlp
from zomat.optimizers import OptimizerConfig, run, steps_for_budget

#: (step, cumulative queries, loss) at fixed steps, objective seed 100, run seed 0
GOLDEN = {
    "mezo": [
        (0, 0, 0.8122471549401709),
        (10, 20, 0.7910970835478534),
        (100, 200, 0.5824397032368103),
        (250, 500, 0.4154843779419777),
        (400, 800, 0.304774672405528),
        (500, 1000, 0.25348134371844033),
        (1000, 2000, 0.12294439844812766),
    ],
    "subspace_mezo": [
        (0, 0, 0.8122471549401709),
        (10, 20, 0.7992591065670849),
        (100, 200, 0.5461892596943283),
        (250, 500, 0.35462572298603856),
        (400, 800, 0.2578755418607924),
        (500, 1000, 0.21313811039184158),
        (1000, 2000, 0.11664798534629486),
    ],
    "lozo": [
        (0, 0, 0.8122471549401709),
        (10, 20, 0.8020706732211514),
        (100, 200, 0.5672882970325612),
        (250, 500, 0.35787956594225834),
        (400, 800, 0.2556409810660175),
        (500, 1000, 0.2098659775913805),
        (1000, 2000, 0.11396544906166156),
    ],
    "zo_muon": [
        (0, 0, 0.8122471549401709),
        (10, 50, 0.7907209732456499),
        (100, 500, 0.6124748046135426),
        (250, 1250, 0.37441219654520824),
        (400, 2000, 0.2226831738688131),
    ],
}

#: (step, cumulative queries, loss) of every row, mlp widths (4, 6, 3), run seed 3
GOLDEN_MLP = {
    "mezo": [
        (0, 0, 1.654296362931186),
        (50, 100, 0.4081892562025983),
        (100, 200, 0.16312454847023503),
        (150, 300, 0.10620606294126715),
        (200, 400, 0.08139609321552203),
    ],
    "subspace_mezo": [
        (0, 0, 1.654296362931186),
        (50, 100, 0.36982721198013674),
        (100, 200, 0.29387687828506676),
        (150, 300, 0.19590048304789454),
        (200, 400, 0.1673303665598509),
    ],
    "lozo": [
        (0, 0, 1.654296362931186),
        (50, 100, 0.2712063684066527),
        (100, 200, 0.12857564119416146),
        (150, 300, 0.08396159077492875),
        (200, 400, 0.07241783985577942),
    ],
    "zo_muon": [
        (0, 0, 1.654296362931186),
        (20, 100, 1.2490786197519663),
        (40, 200, 0.9091944635448449),
        (60, 300, 0.7132225053483355),
        (80, 400, 0.6298075262348067),
    ],
}

#: per-kind settings of the mlp runs, each under a 400-query budget
MLP_CONFIGS = {
    "mezo": OptimizerConfig(learning_rate=0.05),
    "subspace_mezo": OptimizerConfig(learning_rate=0.05, rank=2, resample_interval=20),
    "lozo": OptimizerConfig(learning_rate=0.02, rank=2, resample_interval=20),
    "zo_muon": OptimizerConfig(learning_rate=0.02, rank=2, resample_interval=20, n_queries=4),
}


def _assert_rows(rows, golden):
    assert [row[:2] for row in rows] == [row[:2] for row in golden]
    for (step, _, loss), (_, _, expected) in zip(rows, golden):
        assert loss == pytest.approx(expected, rel=1e-12, abs=0.0), f"step {step}"


EXPERIMENT = presets.quadratic_race_config(objective_seed=100, run_seed=0, budget=2000)


@pytest.mark.parametrize("entry", EXPERIMENT.optimizers, ids=lambda e: e.label)
def test_race_trace_matches_golden(entry):
    obj = build_objective(EXPERIMENT.objective)
    steps = steps_for_budget(entry.kind, entry.config, EXPERIMENT.query_budget)
    cfg = dataclasses.replace(entry.config, total_steps=steps)
    result = run(
        obj, obj.initial_params, cfg, entry.kind,
        seed=EXPERIMENT.seed, eval_every=EXPERIMENT.eval_every,
    )
    golden = GOLDEN[entry.kind]
    wanted = {step for step, _, _ in golden}
    rows = [(r.step, r.queries, r.loss) for r in result.records if r.step in wanted]
    _assert_rows(rows, golden)
    assert result.records[-1].step == steps


@pytest.mark.parametrize("kind", GOLDEN_MLP)
def test_mlp_trace_matches_golden(kind):
    obj = make_mlp((4, 6, 3), n_samples=24, seed=7)
    steps = steps_for_budget(kind, MLP_CONFIGS[kind], 400)
    cfg = dataclasses.replace(MLP_CONFIGS[kind], total_steps=steps)
    result = run(obj, obj.initial_params, cfg, kind, seed=3, eval_every=steps // 4)
    _assert_rows([(r.step, r.queries, r.loss) for r in result.records], GOLDEN_MLP[kind])
