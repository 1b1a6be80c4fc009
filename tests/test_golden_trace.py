"""Golden trace of the race preset at a 2,000-query budget.

The rows were recorded once and are compared to rtol 1e-12, so any change to
a Gaussian stream, a seed derivation or the order of the arithmetic in a step
shows here.  The in-process replay of C9 cannot catch such a change, since
both of its runs use the same code.  A change that alters the trajectories on
purpose must record the new rows and say so.
"""

import dataclasses

import pytest

from zomat import presets
from zomat.harness import build_objective
from zomat.optimizers import run, steps_for_budget

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
    assert [row[:2] for row in rows] == [row[:2] for row in golden]
    for (step, _, loss), (_, _, expected) in zip(rows, golden):
        assert loss == pytest.approx(expected, rel=1e-12, abs=0.0), f"step {step}"
    assert result.records[-1].step == steps
