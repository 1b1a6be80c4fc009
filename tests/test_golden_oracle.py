"""Golden variance reports: the variance suite's Monte-Carlo runs at seeds 0
and 1000.

Each figure was recorded once and is compared by ``repr``, so any change to
an estimate's arithmetic, its Gaussian stream, the sample ranges or the order
in which their moments merge shows here.  The CPU-count comparison of
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
#: subspace estimate at r 8, each against the single-query forward reference.
GOLDEN = {
    0: [
        ("16.655474953284674", "66.86618285646895", "4.014666831418222"),
        ("8.321914817021248", "66.86618285646895", "8.034951609899208"),
    ],
    1000: [
        ("16.643228591364192", "68.80314321995013", "4.134002176455749"),
        ("8.290877412321198", "68.80314321995013", "8.298656438666038"),
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
