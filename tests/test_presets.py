from zomat import presets
from zomat.harness import config_to_ini, parse_config_text, run_experiment
from zomat.optimizers import LOZO, MEZO, SUBSPACE_MEZO, ZO_MUON


def test_race_config_structure():
    exp = presets.quadratic_race_config()
    assert [e.kind for e in exp.optimizers] == [MEZO, SUBSPACE_MEZO, LOZO, ZO_MUON]
    assert exp.query_budget == 20_000
    assert exp.loss_threshold_fractions == (0.01,)
    assert exp.objective.options["block_condition"] == 100.0
    zo = exp.optimizers[-1].config
    assert zo.n_queries == 4
    assert zo.rank == 8
    assert zo.msign_backend == "svd"
    assert zo.resample_interval == 100


def test_race_ini_round_trips_to_equivalent_config():
    for exp in (
        presets.quadratic_race_config(objective_seed=7, run_seed=3),
        presets.rank_study_config(),
    ):
        assert parse_config_text(config_to_ini(exp)) == exp


def test_rank_study_labels_and_ranks():
    exp = presets.rank_study_config()
    assert [e.label for e in exp.optimizers] == ["zo_muon_r2", "zo_muon_r8", "zo_muon_r32"]
    assert [e.config.rank for e in exp.optimizers] == [2, 8, 32]
    assert all(e.kind == ZO_MUON for e in exp.optimizers)


def test_rank_study_smoke_run(tmp_path):
    exp = presets.rank_study_config(budget=200)
    summary = run_experiment(exp, out_dir=tmp_path)
    assert set(summary["results"]) == {"zo_muon_r2", "zo_muon_r8", "zo_muon_r32"}
    for res in summary["results"].values():
        assert res["queries"] <= 200
