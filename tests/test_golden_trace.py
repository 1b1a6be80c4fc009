"""Golden traces: the race preset at a 2,000-query budget, and a small mlp.

The rows were recorded once and are compared to rtol 1e-12, so any change to
a Gaussian stream, a seed derivation or the order of the arithmetic in a step
shows here.  The in-process replay of C9 cannot catch such a change, since
both of its runs use the same code.  A change that alters the trajectories on
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
        (10, 20, 0.7686912433921835),
        (100, 200, 0.5357910441022331),
        (250, 500, 0.3718126873988242),
        (400, 800, 0.27263838937727103),
        (500, 1000, 0.22334232957029732),
        (1000, 2000, 0.10380415590855858),
    ],
    "subspace_mezo": [
        (0, 0, 0.8122471549401709),
        (10, 20, 0.7969262611796335),
        (100, 200, 0.49633486720070924),
        (250, 500, 0.32732515203585955),
        (400, 800, 0.24681108077467315),
        (500, 1000, 0.20975190900416477),
        (1000, 2000, 0.10148141074063019),
    ],
    "lozo": [
        (0, 0, 0.8122471549401709),
        (10, 20, 0.7816007728304035),
        (100, 200, 0.5293222446613415),
        (250, 500, 0.3704918268587343),
        (400, 800, 0.268209440065011),
        (500, 1000, 0.22569888955228018),
        (1000, 2000, 0.1169063293860779),
    ],
    "zo_muon": [
        (0, 0, 0.8122471549401709),
        (10, 50, 0.786028690366136),
        (100, 500, 0.6024981349858585),
        (250, 1250, 0.36152161129863547),
        (400, 2000, 0.22731519595980668),
    ],
}

#: (step, cumulative queries, loss) of every row, mlp widths (4, 6, 3), run seed 3
GOLDEN_MLP = {
    "mezo": [
        (0, 0, 1.654296362931186),
        (50, 100, 0.25643507642565183),
        (100, 200, 0.12876067870215552),
        (150, 300, 0.09095531558171921),
        (200, 400, 0.06682399138723431),
    ],
    "subspace_mezo": [
        (0, 0, 1.654296362931186),
        (50, 100, 0.5555217086229427),
        (100, 200, 0.3694640789306655),
        (150, 300, 0.2857887332905033),
        (200, 400, 0.2047135439531876),
    ],
    "lozo": [
        (0, 0, 1.654296362931186),
        (50, 100, 0.45359815129589326),
        (100, 200, 0.22116812935292943),
        (150, 300, 0.1246481535661013),
        (200, 400, 0.09240550394406526),
    ],
    "zo_muon": [
        (0, 0, 1.654296362931186),
        (20, 100, 1.4415809425101973),
        (40, 200, 1.1725243039509692),
        (60, 300, 0.9355593361221833),
        (80, 400, 0.7134288286524072),
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
