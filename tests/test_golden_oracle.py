"""Golden variance reports: the variance suite's Monte-Carlo runs at seeds 0
and 1000.

Each figure was recorded once and is compared by ``repr``, so any change to
an estimate's arithmetic, its perturbation stream, the sample ranges or the
order in which their moments merge shows here.  The CPU-count comparison of
``zomat verify all`` cannot catch such a change, since both of its runs use
the same code.  A change that alters the oracle's samples on purpose must
record the new figures and say so.
"""

import pytest

from zomat.estimators import EstimatorConfig
from zomat.objectives import make_quadratic
from zomat.oracle import FULL_RGE, SUBSPACE_RGE, EstimatorSpec, measure_variance

#: Per seed, (per_entry_variance, reference_variance, ratio) of each spec of
#: ``oracle.verify_variance``: the forward full estimate at Nq 4, then the
#: subspace estimate at r 8, each against the single-query forward reference,
#: which is read off the first query of the Nq-4 spec's samples.
GOLDEN = {
    0: [
        ("16.86912524561467", "67.29018606825161", "3.988955271153998"),
        ("8.48499930206383", "67.29018606825161", "7.930488108806848"),
    ],
    1000: [
        ("16.297004168096546", "65.27573556621425", "4.005382516499553"),
        ("8.162512308217085", "65.27573556621425", "7.997015269490264"),
    ],
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_variance_reports_match_the_recorded_figures(seed):
    objective = make_quadratic(64, 32, 8, seed=seed + 17)
    specs = [EstimatorSpec(FULL_RGE, EstimatorConfig(mu=1e-3, n_queries=4)),
             EstimatorSpec(SUBSPACE_RGE, EstimatorConfig(mu=1e-3), rank=8)]
    reports = measure_variance(specs, objective, objective.initial_params, 10_000, seed)
    assert [(repr(r.per_entry_variance), repr(r.reference_variance), repr(r.ratio))
            for r in reports] == GOLDEN[seed]
