"""Frozen desk-scale experiment presets.

The race preset is a planted low-rank quadratic (single 64x64 block, planted
curvature rank 8) engineered so the compared methods are separated by their
structural properties rather than by tuning luck:

  - the planted spectrum spans two decades (condition 100), which throttles
    scale-following methods to the rate of the weakest direction they must
    drain;
  - the ridge is zero, so energy outside the planted block neither moves nor
    counts and query budgets are spent entirely on the planted directions;
  - the start sits close enough to the minimizer that constant-length steps
    (zo_muon's whitened ones) can cover the distance within the query budget.

As measured, zo_muon's lead here comes from its constant step norm, not
from whitening: at the 1% target a Frobenius-normalized lift
``P g sqrt(k) / ||g||_F`` (the same step norm, no whitening) needs as many
queries as zo_muon's ``P msign(g)``, a median of 11,050 over seeds 0-4 for
both (measured with Gaussian draws at ``mu = 1e-3``).  Whether whitening pays anywhere at desk scale is an open question in
ROADMAP.md.

Learning rates were tuned per method on this preset by grid search
(minimizing the median queries to reach 1% of the initial loss over five
seeds); the grids and the winning values are recorded in the README.

The smoothing scale is fair to both difference schemes (``RACE_MU``).  A
forward coefficient is ``<P^T G, D> + (mu/2) tr(D^T P^T H P D)``: its second
term has mean ``(mu/2) n tr(P^T H P)``, 11.2 mu on objective seed 100 with a
random P, against ``||P^T G||_F`` = 0.042 at 1% of the initial loss, so at
``mu = 1e-3`` the forward kinds (zo_muon, subspace_mezo) carried a
curvature offset of about a quarter of the signal, which grows relative to
it as the loss falls.  The central kinds (mezo, lozo) take the symmetric
quotient, exact on a quadratic, and their counts do not move with mu.
Measured with Gaussian draws at the frozen rates (median queries to 1% over
objective seeds 100-104 / 105-109): zo_muon needs 11,050 / 10,950 at
``mu = 1e-3``, 10,400 / 10,450 at 1e-4 and 10,500 / 10,050 at 1e-5;
subspace_mezo 13,200 / 14,400 at 1e-3 and 12,260 / 13,460 at 1e-4.  The
gain levels off from 1e-4 down, where the float64 round-off of a
coefficient, ``eps f / mu``, is about 1e-12, far below the signal.  So the
forward kinds run at 1e-4, and mezo and lozo keep 1e-3.  With the ±1
draws of :mod:`zomat.streams` the C7 ordering holds at these values
(zo_muon first in 4 of 5 seeds, mean ratio to mezo 0.922), and fails with
every kind at 1e-3 (1 of 5, ratio 1.014).
"""

from __future__ import annotations

from .harness import ExperimentConfig, ObjectiveSpec, OptimizerEntry
from .optimizers import LOZO, MEZO, SUBSPACE_MEZO, ZO_MUON, OptimizerConfig

#: objective geometry of the race preset
RACE_OBJECTIVE = dict(
    m=64, n=64, rank=8, delta=0.0, block_condition=100.0, init_offset=0.12
)

RACE_BUDGET = 20_000
RACE_EVAL_EVERY = 10
RACE_RESAMPLE_INTERVAL = 100

#: per-method tuned learning rates (grid-search winners, see module docstring)
RACE_LEARNING_RATES = {
    MEZO: 1e-2,
    SUBSPACE_MEZO: 6e-2,
    LOZO: 1e-3,
    ZO_MUON: 2.8e-2,
}


#: per-method smoothing scale: 1e-4 for the forward kinds, whose estimates
#: carry a curvature offset proportional to mu (see module docstring)
RACE_MU = {
    MEZO: 1e-3,
    SUBSPACE_MEZO: 1e-4,
    LOZO: 1e-3,
    ZO_MUON: 1e-4,
}


def race_optimizer_entry(kind: str, rank: int = 8, label: str | None = None,
                         **overrides) -> OptimizerEntry:
    fields = dict(
        learning_rate=RACE_LEARNING_RATES[kind],
        mu=RACE_MU[kind],
        rank=rank,
        resample_interval=RACE_RESAMPLE_INTERVAL,
        msign_backend="svd",
    )
    if kind == ZO_MUON:
        fields["n_queries"] = 4
    fields.update(overrides)
    return OptimizerEntry(label=label or kind, kind=kind, config=OptimizerConfig(**fields))


def _race_experiment(name, entries, objective_seed, run_seed, budget) -> ExperimentConfig:
    """The race objective and experiment fields around the given optimizers."""
    return ExperimentConfig(
        name=name,
        seed=run_seed,
        query_budget=budget,
        objective=ObjectiveSpec(
            kind="quadratic", options=dict(RACE_OBJECTIVE, seed=objective_seed)
        ),
        optimizers=tuple(entries),
        eval_every=RACE_EVAL_EVERY,
        loss_threshold_fractions=(0.01,),
    )


def quadratic_race_config(
    objective_seed: int = 100,
    run_seed: int = 0,
    budget: int = RACE_BUDGET,
) -> ExperimentConfig:
    """The comparison experiment the acceptance ordering is checked on,
    named ``quadrace``: mezo, subspace_mezo, lozo and zo_muon, in that order."""
    entries = [race_optimizer_entry(kind) for kind in (MEZO, SUBSPACE_MEZO, LOZO, ZO_MUON)]
    return _race_experiment("quadrace", entries, objective_seed, run_seed, budget)


def rank_study_config(
    objective_seed: int = 100,
    run_seed: int = 0,
    budget: int = RACE_BUDGET,
) -> ExperimentConfig:
    """Projection-rank ablation (acceptance check C8), named ``rankstudy``:
    the race preset's spectral optimizer at subspace ranks 2, 8 and 32
    (labels ``zo_muon_r2``, ``zo_muon_r8``, ``zo_muon_r32``), sharing
    everything else.  The planted curvature rank (8) should win; too small a
    rank discards gradient directions, too large a rank spends the whitened
    step on noise."""
    entries = [race_optimizer_entry(ZO_MUON, rank=r, label=f"zo_muon_r{r}") for r in (2, 8, 32)]
    return _race_experiment("rankstudy", entries, objective_seed, run_seed, budget)

