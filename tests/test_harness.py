import dataclasses
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zomat import cli, harness, linalg, presets
from zomat.linalg import NumericalError
from zomat.harness import (
    ConfigError,
    ExperimentConfig,
    ObjectiveSpec,
    OptimizerEntry,
    build_objective,
    config_to_ini,
    parse_config_text,
    queries_to_threshold,
    read_trace_csv,
    run_experiment,
    write_trace_csv,
)
from zomat.estimators import MIN_MU
from zomat.objectives import Objective
from zomat.optimizers import LOZO, MEZO, OPTIMIZER_KINDS, ZO_MUON, OptimizerConfig, StepRecord
from zomat.params import ParamSpace

TINY_CONFIG = """
[experiment]
name = tiny
seed = 1
query_budget = 40
eval_every = 2
loss_threshold_fractions = 1.0, 1e-9

[objective]
kind = quadratic
m = 6
n = 5
rank = 2
seed = 4

[optimizer:mezo]
kind = mezo
learning_rate = 1e-3

[optimizer:spectral]
kind = zo_muon
learning_rate = 1e-2
n_queries = 4
rank = 2
"""

#: a 16x16 quadratic whose second optimizer diverges on its first step
DIVERGING_CONFIG = """
[experiment]
name = div
seed = 0
query_budget = 200
eval_every = 10
loss_threshold_fractions = 0.99

[objective]
kind = quadratic
m = 16
n = 16
rank = 4
seed = 1

[optimizer:zo_muon]
kind = zo_muon
learning_rate = 1e-2
n_queries = 4
rank = 4

[optimizer:blowup]
kind = mezo
learning_rate = 1e160

[optimizer:mezo]
kind = mezo
learning_rate = 1e-3
"""


def strip_elapsed(path):
    lines = path.read_text().splitlines()
    return [",".join(line.split(",")[:3]) for line in lines]


class TestParsing:
    def test_tiny_config_parses(self):
        exp = parse_config_text(TINY_CONFIG)
        assert exp.name == "tiny"
        assert exp.seed == 1
        assert exp.query_budget == 40
        assert exp.eval_every == 2
        assert exp.loss_threshold_fractions == (1.0, 1e-9)
        assert exp.objective.kind == "quadratic"
        assert [e.label for e in exp.optimizers] == ["mezo", "spectral"]
        assert exp.optimizers[1].config.n_queries == 4

    def test_label_defaults_to_kind(self):
        text = TINY_CONFIG.replace("[optimizer:spectral]\nkind = zo_muon", "[optimizer:zo_muon]")
        exp = parse_config_text(text)
        assert exp.optimizers[1].kind == "zo_muon"
        assert exp.optimizers[1].label == "zo_muon"

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", "..", "."])
    def test_experiment_name_must_be_a_file_name(self, name):
        text = TINY_CONFIG.replace("name = tiny", f"name = {name}")
        with pytest.raises(ConfigError, match=r"^\[experiment\] field 'name' .*file name"):
            parse_config_text(text)

    @pytest.mark.parametrize("label", ["sub/zo_muon", "a\\b", "..", "."])
    def test_optimizer_label_must_be_a_file_name(self, label):
        text = TINY_CONFIG.replace("[optimizer:spectral]", f"[optimizer:{label}]")
        message = rf"^\[optimizer:{re.escape(label)}\] field 'label' .*file name"
        with pytest.raises(ConfigError, match=message):
            parse_config_text(text)

    @pytest.mark.parametrize("name", ["../escaped", "a\\b", "nul\0", ".."])
    def test_code_built_names_must_be_file_names(self, name):
        exp = parse_config_text(TINY_CONFIG)
        with pytest.raises(ConfigError, match=r"^\[experiment\] field 'name'"):
            dataclasses.replace(exp, name=name)
        entry = exp.optimizers[0]
        with pytest.raises(ConfigError, match=r"field 'label'"):
            OptimizerEntry(label=name, kind=entry.kind, config=entry.config)

    @pytest.mark.parametrize("old, new", [
        ("name = tiny", "name = ../escaped"),
        ("[optimizer:spectral]", "[optimizer:sub/zo_muon]"),
    ])
    def test_rejected_names_write_nothing(self, old, new, tmp_path):
        # rejected at parse time, before any optimizer runs or any file is written
        path = tmp_path / "bad.ini"
        path.write_text(TINY_CONFIG.replace(old, new))
        assert cli.main(["run", str(path), "--out-dir", str(tmp_path / "a" / "out")]) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["bad.ini"]

    def test_missing_experiment_section(self):
        with pytest.raises(ConfigError, match=r"missing \[experiment\]"):
            parse_config_text("[objective]\nkind = quadratic\n")

    def test_missing_required_field_names_section_and_field(self):
        text = TINY_CONFIG.replace("query_budget = 40\n", "")
        with pytest.raises(ConfigError, match=r"\[experiment\].*query_budget"):
            parse_config_text(text)

    # required: ObjectiveSpec's kind, and each factory argument with no default
    @pytest.mark.parametrize("line, key", [("kind = quadratic\n", "kind"), ("n = 5\n", "n")])
    def test_missing_required_objective_key(self, line, key):
        message = rf"^\[objective\] is missing required field '{key}'$"
        with pytest.raises(ConfigError, match=message):
            parse_config_text(TINY_CONFIG.replace(line, "", 1))

    def test_bad_value_names_field(self):
        text = TINY_CONFIG.replace("query_budget = 40", "query_budget = soon")
        with pytest.raises(ConfigError, match="query_budget.*soon"):
            parse_config_text(text)

    def test_unknown_objective_kind(self):
        text = TINY_CONFIG.replace("kind = quadratic", "kind = rosenbrock")
        with pytest.raises(ConfigError, match="rosenbrock.*valid|unknown kind"):
            parse_config_text(text)

    @pytest.mark.parametrize("kind", ["logreg", "logreg_csv"])
    def test_removed_objective_kind_lists_valid(self, kind):
        text = TINY_CONFIG.replace("kind = quadratic", f"kind = {kind}")
        with pytest.raises(ConfigError, match=rf"^\[objective\] unknown kind '{kind}'; "
                                              r"valid: quadratic, mlp$"):
            parse_config_text(text)

    def test_unknown_optimizer_kind_lists_valid(self):
        text = TINY_CONFIG.replace("kind = zo_muon", "kind = adam")
        with pytest.raises(ConfigError, match="adam.*mezo.*zo_muon"):
            parse_config_text(text)

    def test_missing_learning_rate(self):
        text = TINY_CONFIG.replace("learning_rate = 1e-3\n", "")
        with pytest.raises(ConfigError, match="learning_rate"):
            parse_config_text(text)

    def test_duplicate_labels(self):
        # [optimizer] with kind mezo collides with the [optimizer:mezo] label
        text = TINY_CONFIG + "\n[optimizer]\nkind = mezo\nlearning_rate = 1e-3\n"
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(text)

    def test_duplicate_sections_rejected_with_line(self):
        text = TINY_CONFIG + "\n[optimizer:mezo]\nkind = mezo\nlearning_rate = 1e-3\n"
        with pytest.raises(ConfigError, match="line"):
            parse_config_text(text)

    def test_no_optimizers(self):
        text = TINY_CONFIG.split("[optimizer:mezo]")[0]
        with pytest.raises(ConfigError, match="no \\[optimizer"):
            parse_config_text(text)

    def test_malformed_text_has_line_info(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config_text("name = tiny\n")

    def test_invalid_optimizer_value_is_reported(self):
        text = TINY_CONFIG.replace("learning_rate = 1e-2", "learning_rate = -5")
        with pytest.raises(ConfigError, match=r"\[optimizer:spectral\]"):
            parse_config_text(text)

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("mu = 1e-13", "mu=1e-13 is below the underflow floor 1e-12"),
        ],
    )
    def test_optimizer_value_that_fails_at_step_zero_rejected(self, lines, message):
        with pytest.raises(ConfigError, match=rf"^\[optimizer:spectral\]: {message}"):
            parse_config_text(TINY_CONFIG + lines + "\n")

    def test_misspelt_optimizer_key_suggests_the_real_one(self):
        text = TINY_CONFIG.replace("n_queries = 4", "n_querys = 16")
        with pytest.raises(
            ConfigError, match=r"\[optimizer:spectral\].*'n_querys'.*did you mean 'n_queries'"
        ):
            parse_config_text(text)

    @pytest.mark.parametrize(
        "line", ["projection_strategy = sketching", "sketch_momentum_beta = 0.9"]
    )
    def test_removed_sketching_keys_rejected(self, line):
        text = TINY_CONFIG + line + "\n"  # into the last section, [optimizer:spectral]
        with pytest.raises(ConfigError, match=r"\[optimizer:spectral\].*" + line.split()[0]):
            parse_config_text(text)

    @pytest.mark.parametrize("line", ["rnak = 4", "n_samples = 40"])
    def test_unknown_objective_key_rejected(self, line):
        # n_samples belongs to other objective kinds, not to quadratic
        text = TINY_CONFIG.replace("seed = 4\n", f"seed = 4\n{line}\n")
        with pytest.raises(ConfigError, match=r"\[objective\].*" + line.split()[0]):
            parse_config_text(text)

    def test_unknown_experiment_key_rejected(self):
        text = TINY_CONFIG.replace("eval_every = 2", "eval_evry = 2")
        with pytest.raises(ConfigError, match=r"\[experiment\].*did you mean 'eval_every'"):
            parse_config_text(text)

    @pytest.mark.parametrize(
        "section, hint",
        [
            ("optimiser:extra", r"did you mean \[optimizer:extra\]"),
            ("optimizers:extra", r"did you mean \[optimizer:extra\]"),
            ("optimizerb", r"did you mean \[optimizer\]"),
            ("experiments", r"did you mean \[experiment\]"),
            ("objective:extra", r"valid: \[experiment\], \[objective\], \[optimizer:<label>\]"),
            ("logging", r"valid: \[experiment\]"),
        ],
    )
    def test_unknown_section_rejected(self, section, hint):
        text = TINY_CONFIG + f"\n[{section}]\nkind = mezo\nlearning_rate = 1e-3\n"
        with pytest.raises(ConfigError, match=rf"unknown section \[{section}\]; {hint}"):
            parse_config_text(text)

    # configparser would copy [DEFAULT]'s keys into every other section and
    # blame them on it
    @pytest.mark.parametrize("body", ["seed = 3\n", "foo = 1\n", ""],
                             ids=["known-key", "unknown-key", "empty"])
    def test_default_section_rejected(self, body):
        text = f"[DEFAULT]\n{body}" + TINY_CONFIG
        with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]; valid: \[experiment\]"):
            parse_config_text(text)

    def test_mezo_multi_query_rejected_at_parse_time(self):
        text = TINY_CONFIG + "\n[optimizer:b]\nkind = mezo\nlearning_rate = 1e-3\nn_queries = 4\n"
        with pytest.raises(ConfigError, match=r"\[optimizer:b\].*n_queries=1"):
            parse_config_text(text)

    def test_lozo_multi_query_rejected_at_parse_time(self):
        # lozo takes one central difference per step whatever n_queries says
        text = TINY_CONFIG + "\n[optimizer:l]\nkind = lozo\nlearning_rate = 1e-3\nn_queries = 4\n"
        with pytest.raises(ConfigError, match=r"\[optimizer:l\]: lozo .*n_queries=1"):
            parse_config_text(text)

    def test_race_preset_and_readme_example_parse(self):
        race = presets.quadratic_race_config()
        assert parse_config_text(config_to_ini(race)) == race
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = parse_config_text(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
        assert example.optimizers[0].config.n_queries == 4
        assert example.objective.options["rank"] == 8
        assert parse_config_text(config_to_ini(example)) == example

    @pytest.mark.parametrize("name", ["run_100%", "%(seed)s", "50%%"])
    def test_percent_in_a_value_is_literal(self, name):
        exp = parse_config_text(TINY_CONFIG.replace("name = tiny", f"name = {name}"))
        assert exp.name == name
        assert parse_config_text(config_to_ini(exp)) == exp

    @pytest.mark.parametrize(
        "line, bad, key",
        [
            ("seed = 1", "seed = -1", "seed"),
            ("query_budget = 40", "query_budget = -5", "query_budget"),
            ("eval_every = 2", "eval_every = 0", "eval_every"),
            ("loss_threshold_fractions = 1.0", "loss_threshold_fractions = inf",
             "loss_threshold_fractions"),
            ("loss_threshold_fractions = 1.0", "loss_threshold_fractions = -inf",
             "loss_threshold_fractions"),
            ("loss_threshold_fractions = 1.0", "loss_threshold_fractions = 0.5, nan",
             "loss_threshold_fractions"),
            ("loss_threshold_fractions = 1.0", "loss_threshold_fractions = nan",
             "loss_threshold_fractions"),
            ("loss_threshold_fractions = 1.0", "loss_threshold_fractions = 0.1, inf",
             "loss_threshold_fractions"),
            # a fraction <= 0 names a loss no run reaches; two whose threshold
            # keys (six significant digits) agree would share one summary key
            ("loss_threshold_fractions = 1.0", "loss_threshold_fractions = 0.5, 0",
             "loss_threshold_fractions"),
            ("loss_threshold_fractions = 1.0", "loss_threshold_fractions = -1",
             "loss_threshold_fractions"),
            ("loss_threshold_fractions = 1.0", "loss_threshold_fractions = 0.5, 0.50000001",
             "loss_threshold_fractions"),
            ("loss_threshold_fractions = 1.0", "loss_threshold_fractions = 0.01, 0.01",
             "loss_threshold_fractions"),
        ],
    )
    def test_out_of_range_experiment_field_rejected(self, line, bad, key):
        text = TINY_CONFIG.replace(line, bad)
        with pytest.raises(ConfigError, match=rf"\[experiment\] field '{key}' has invalid value"):
            parse_config_text(text)

    def test_threshold_fractions_apart_in_six_digits_accepted(self):
        text = TINY_CONFIG.replace("= 1.0, 1e-9", "= 0.5, 0.50001")
        assert parse_config_text(text).loss_threshold_fractions == (0.5, 0.50001)

    @pytest.mark.parametrize(
        "options, message",
        [
            (dict(m=6, n=5, rnak=2, seed=4), r"unknown key 'rnak'; did you mean 'rank'\?"),
            (dict(m=6, n=5, seed=4), r"is missing required field 'rank'"),
            (dict(m=6.7, n=5, rank=2), r"field 'm' has invalid value 6\.7: must be an integer"),
            (dict(m=6, n=True, rank=2), r"field 'n' has invalid value True: must be an integer"),
            (dict(m=6, n=5, rank="2.5"), r"field 'rank' has invalid value '2\.5'"),
        ],
        ids=["unknown", "missing", "fractional", "bool", "fractional_text"],
    )
    def test_code_built_objective_options_checked(self, options, message):
        # refused when the spec is built, as the same option in an INI file is
        with pytest.raises(ConfigError, match=rf"^\[objective\] {message}"):
            ObjectiveSpec("quadratic", options)

    def test_code_built_objective_options_cast(self):
        spec = ObjectiveSpec("quadratic", dict(m="6", n=5.0, rank=2, delta="0.5"))
        assert spec.options == dict(m=6, n=5, rank=2, delta=0.5)
        assert ObjectiveSpec("mlp", dict(widths=[4, 6, 3], n_samples=24)).options == dict(
            widths=(4, 6, 3), n_samples=24
        )
        with pytest.raises(ConfigError, match=r"^\[objective\] field 'widths' has invalid value"):
            ObjectiveSpec("mlp", dict(widths=[4, 6.5, 3], n_samples=24))

    @pytest.mark.parametrize("kind, options", [
        ("quadratic", dict(m=6, n=5, rank=2)),
        ("mlp", dict(widths=(4, 6, 3), n_samples=24)),
    ])
    def test_objective_seed_defaults_to_zero(self, kind, options):
        built = build_objective(ObjectiveSpec(kind, options))
        seeded = build_objective(ObjectiveSpec(kind, dict(options, seed=0)))
        assert built.initial_params.names == seeded.initial_params.names
        for name, value in built.initial_params.items():
            assert np.array_equal(value, seeded.initial_params[name])
        assert built.loss(built.initial_params) == seeded.loss(seeded.initial_params)

    def test_objective_factory_error_names_section_and_key(self):
        exp = parse_config_text(TINY_CONFIG.replace("rank = 2\nseed = 4", "rank = 80\nseed = 4"))
        with pytest.raises(ConfigError, match=r"^\[objective\] need 1 <= rank <= m, got rank=80, m=6"):
            build_objective(exp.objective)


#: single-line values without inline-comment markers, '%' included
_words = st.text("abcXYZ019_-.%()/", min_size=1, max_size=12)
#: experiment names and optimizer labels: file names, so no '/', '.' or '..'
_names = st.text("abcXYZ019_-.%()", min_size=1, max_size=12).filter(lambda w: w not in (".", ".."))
_magnitudes = st.floats(min_value=1e-300, max_value=1e300)
_signed = _magnitudes | _magnitudes.map(lambda v: -v)
_counts = st.integers(0, 10**6)


def _drop_none(**options):
    return {key: value for key, value in options.items() if value is not None}


_widths = st.lists(st.integers(1, 64), min_size=2, max_size=4)

# an option left out (None) takes its factory's default, the seed's included
_objective_specs = st.one_of(
    st.builds(
        lambda options: ObjectiveSpec("quadratic", _drop_none(**options)),
        st.fixed_dictionaries({
            "m": st.integers(1, 128), "n": st.integers(1, 128), "rank": st.integers(1, 128),
            "seed": st.none() | _counts, "delta": st.none() | _magnitudes,
            "block_condition": st.none() | _magnitudes, "init_offset": st.none() | _signed,
        }),
    ),
    st.builds(lambda w, a, s: ObjectiveSpec("mlp", _drop_none(widths=w, n_samples=a, seed=s)),
              _widths | _widths.map(tuple), st.integers(1, 500), st.none() | _counts),
)


@st.composite
def _optimizer_entry(draw, label):
    kind = draw(st.sampled_from(OPTIMIZER_KINDS))
    config = OptimizerConfig(
        learning_rate=draw(_magnitudes),
        mu=draw(st.floats(min_value=MIN_MU, max_value=1e300)),
        n_queries=1 if kind in (MEZO, LOZO) else draw(st.integers(1, 16)),
        rank=draw(st.integers(1, 64)),
        resample_interval=draw(st.integers(1, 1000)),
        msign_backend=draw(st.sampled_from(["svd", "ns"])),
    )
    return OptimizerEntry(label=label, kind=kind, config=config)


@st.composite
def experiment_configs(draw):
    labels = draw(st.lists(_names, min_size=1, max_size=4, unique=True))
    return ExperimentConfig(
        name=draw(_names),
        seed=draw(_counts),
        query_budget=draw(_counts),
        objective=draw(_objective_specs),
        optimizers=tuple(draw(_optimizer_entry(label)) for label in labels),
        eval_every=draw(st.integers(1, 100)),
        out_dir=draw(st.none() | _words),
        # positive, and apart in their six-digit threshold keys
        loss_threshold_fractions=tuple(draw(st.lists(_magnitudes, max_size=3,
                                                     unique_by=lambda v: f"{v:g}"))),
    )


class TestConfigToIni:
    @settings(max_examples=300, deadline=None)
    @given(experiment_configs())
    def test_round_trip(self, exp):
        assert parse_config_text(config_to_ini(exp)) == exp

    def test_experiment_defaults_round_trip(self):
        race = presets.quadratic_race_config()
        exp = ExperimentConfig(query_budget=40, objective=race.objective,
                               optimizers=race.optimizers)
        assert (exp.name, exp.seed, exp.eval_every) == ("experiment", 0, 1)
        assert parse_config_text(config_to_ini(exp)) == exp

    @pytest.mark.parametrize("name", ["a ;b", "a #b", ";a", "#a", " a", "a\t", "a\nb", "a\r"])
    def test_rejects_a_name_that_would_not_read_back(self, name):
        exp = dataclasses.replace(presets.quadratic_race_config(), name=name)
        with pytest.raises(ValueError, match=r"^\[experiment\] name = .* would not read back"):
            config_to_ini(exp)

    def test_rejects_a_path_that_would_not_read_back(self):
        exp = dataclasses.replace(presets.quadratic_race_config(), out_dir="d ;x")
        with pytest.raises(ValueError, match=r"^\[experiment\] out_dir = 'd ;x'"):
            config_to_ini(exp)

    @pytest.mark.parametrize("label", ["a ;b", "a\nb"])
    def test_rejects_a_label_that_would_not_read_back(self, label):
        race = presets.quadratic_race_config()
        entry = dataclasses.replace(race.optimizers[0], label=label)
        with pytest.raises(ValueError, match=r"^section 'optimizer:a.*b' would not read back"):
            config_to_ini(dataclasses.replace(race, optimizers=(entry,)))

    @pytest.mark.parametrize("name", ["a;b", "a#b", ""])
    def test_accepts_markers_not_after_whitespace(self, name):
        exp = dataclasses.replace(presets.quadratic_race_config(), name=name)
        assert parse_config_text(config_to_ini(exp)) == exp


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        records = [
            StepRecord(step=0, queries=0, loss=3.25, elapsed_ms=0.0),
            StepRecord(step=5, queries=10, loss=0.017654321987654, elapsed_ms=1.5),
        ]
        path = tmp_path / "trace.csv"
        write_trace_csv(path, records)
        assert read_trace_csv(path) == records

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n")
        with pytest.raises(ValueError, match="header"):
            read_trace_csv(path)

    def test_empty_file_names_the_path(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match=re.escape(f"{path}: empty file")):
            read_trace_csv(path)

    @pytest.mark.parametrize("row,got", [("0,0,1.5", 3), ("0,0,1.5,0.1,9", 5)])
    def test_wrong_column_count_names_path_and_line(self, tmp_path, row, got):
        path = tmp_path / "short.csv"
        path.write_text(f"step,queries,loss,elapsed_ms\n0,0,2.0,0.0\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: expected 4 columns, got {got}")):
            read_trace_csv(path)

    def test_non_numeric_value_names_path_and_line(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("step,queries,loss,elapsed_ms\n0,0,2.0,0.0\nx,0,1.5,0.1\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: non-numeric value")):
            read_trace_csv(path)


class TestRunExperiment:
    def test_writes_traces_and_summary(self, tmp_path):
        exp = parse_config_text(TINY_CONFIG)
        summary = run_experiment(exp, out_dir=tmp_path)
        mezo_csv = tmp_path / "tiny_mezo.csv"
        spectral_csv = tmp_path / "tiny_spectral.csv"
        assert mezo_csv.exists() and spectral_csv.exists()
        assert (tmp_path / "summary.json").exists()
        loaded = json.loads((tmp_path / "summary.json").read_text())
        assert loaded["results"].keys() == {"mezo", "spectral"}
        assert summary["results"]["mezo"]["queries"] == 40
        assert summary["results"]["spectral"]["queries"] == 40

    def test_budget_fairness_bounds(self, tmp_path):
        exp = parse_config_text(TINY_CONFIG.replace("query_budget = 40", "query_budget = 43"))
        summary = run_experiment(exp, out_dir=tmp_path)
        for label, cost in (("mezo", 2), ("spectral", 5)):
            queries = summary["results"][label]["queries"]
            assert queries <= 43
            assert queries >= 43 - (cost - 1)

    def test_mezo_budget_100_reaches_exactly_100(self, tmp_path):
        text = TINY_CONFIG.replace("query_budget = 40", "query_budget = 100")
        exp = parse_config_text(text)
        summary = run_experiment(exp, out_dir=tmp_path)
        assert summary["results"]["mezo"]["queries"] == 100
        records = read_trace_csv(tmp_path / "tiny_mezo.csv")
        assert records[-1].queries == 100

    def test_zero_step_budget_writes_header_only(self, tmp_path):
        exp = parse_config_text(TINY_CONFIG.replace("query_budget = 40", "query_budget = 1"))
        run_experiment(exp, out_dir=tmp_path)
        for name in ("tiny_mezo.csv", "tiny_spectral.csv"):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines == ["step,queries,loss,elapsed_ms"]

    def test_deterministic_modulo_elapsed(self, tmp_path):
        exp = parse_config_text(TINY_CONFIG)
        run_experiment(exp, out_dir=tmp_path / "a")
        run_experiment(exp, out_dir=tmp_path / "b")
        for name in ("tiny_mezo.csv", "tiny_spectral.csv"):
            assert strip_elapsed(tmp_path / "a" / name) == strip_elapsed(tmp_path / "b" / name)

    def test_seed_override_changes_trace(self, tmp_path):
        exp = parse_config_text(TINY_CONFIG)
        run_experiment(exp, out_dir=tmp_path / "a")
        run_experiment(dataclasses.replace(exp, seed=99), out_dir=tmp_path / "b")
        assert strip_elapsed(tmp_path / "a" / "tiny_mezo.csv") != strip_elapsed(
            tmp_path / "b" / "tiny_mezo.csv"
        )

    def test_threshold_equal_to_initial_reached_at_first_record(self, tmp_path):
        exp = parse_config_text(TINY_CONFIG)
        summary = run_experiment(exp, out_dir=tmp_path)
        key = "1x_initial"
        for label in ("mezo", "spectral"):
            assert summary["results"][label]["queries_to_threshold"][key] == 0

    def test_unreachable_threshold_not_reached(self, tmp_path):
        exp = parse_config_text(TINY_CONFIG)
        summary = run_experiment(exp, out_dir=tmp_path)
        for label in ("mezo", "spectral"):
            assert summary["results"][label]["queries_to_threshold"]["1e-09x_initial"] is None

    def test_diverging_optimizer_keeps_results(self, tmp_path):
        summary = run_experiment(parse_config_text(DIVERGING_CONFIG), out_dir=tmp_path)
        results = json.loads((tmp_path / "summary.json").read_text())["results"]
        assert results == summary["results"]
        assert {label: r["status"] for label, r in results.items()} == {
            "zo_muon": "ok", "blowup": "diverged", "mezo": "ok",
        }
        assert "returned" in results["blowup"]["error"]
        # it completed one step and failed inside the second
        assert results["blowup"]["steps"] == 1
        assert results["blowup"]["error"].endswith("at step 1")
        assert "error" not in results["mezo"]
        # the rows recorded before the divergence are kept
        partial = read_trace_csv(tmp_path / "div_blowup.csv")
        assert [r.step for r in partial] == [0]
        assert results["blowup"]["final_loss"] == partial[0].loss == summary["initial_loss"]
        # the optimizers on either side ran their whole budget
        for label in ("zo_muon", "mezo"):
            assert results[label]["queries"] == 200
            assert read_trace_csv(tmp_path / f"div_{label}.csv")[-1].queries == 200

    def test_failing_optimizer_keeps_results(self, tmp_path, monkeypatch):
        # msign fails on zo_muon's third step; blowup diverges at the trace
        # loss of step 1, an evaluation that records no row; mezo runs after
        calls = []
        msign = linalg.msign_svd

        def failing_msign(g, *args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise NumericalError("SVD did not converge for a 4x16 matrix")
            return msign(g, *args, **kwargs)

        monkeypatch.setattr(linalg, "msign_svd", failing_msign)
        text = DIVERGING_CONFIG.replace("eval_every = 10", "eval_every = 1")
        summary = run_experiment(parse_config_text(text), out_dir=tmp_path)
        results = json.loads((tmp_path / "summary.json").read_text())["results"]
        assert results == summary["results"]
        assert {label: r["status"] for label, r in results.items()} == {
            "zo_muon": "error", "blowup": "diverged", "mezo": "ok",
        }
        assert results["blowup"]["error"].endswith("returned inf at step 1")
        for label, result in results.items():
            rows = read_trace_csv(tmp_path / f"div_{label}.csv")
            assert result["eval_queries"] == len(rows), label
        failed = results["zo_muon"]
        assert failed["steps"] == 2
        assert failed["error"] == (
            "NumericalError at step 2: msign failed on block 'x': "
            "SVD did not converge for a 4x16 matrix"
        )
        assert failed["traceback"].startswith("Traceback")
        assert "failing_msign" in failed["traceback"]
        assert failed["queries"] == 3 * 5
        partial = read_trace_csv(tmp_path / "div_zo_muon.csv")
        assert [r.step for r in partial] == [0, 1, 2]
        assert failed["final_loss"] == partial[-1].loss
        assert results["mezo"]["queries"] == 200

    def test_warning_raised_as_error_fails_only_its_optimizer(self, tmp_path):
        # under `python -W error`, zo_muon's single-query warning is an
        # exception raised before its first step; the others still run
        text = TINY_CONFIG.replace("n_queries = 4\n", "")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = run_experiment(parse_config_text(text), out_dir=tmp_path)
        results = summary["results"]
        assert results["mezo"]["status"] == "ok"
        spectral = results["spectral"]
        assert spectral["status"] == "error" and spectral["steps"] == 0
        assert spectral["error"].startswith("UserWarning at step 0: zo_muon with n_queries=1")
        assert spectral["final_loss"] is None and read_trace_csv(tmp_path / "tiny_spectral.csv") == []
        assert json.loads((tmp_path / "summary.json").read_text())["results"] == results

    @pytest.mark.parametrize("backend", ["svd", "ns"])
    def test_overflowing_zo_muon_estimate_diverges(self, tmp_path, monkeypatch, backend):
        # values of +-1e307 a mu apart give an infinite finite difference, so
        # the estimate zo_muon hands to msign is not finite
        def overflowing(x):
            return 1e307 * (float(np.sign(np.sum(x["x"]))) or 1.0)

        monkeypatch.setattr(harness, "build_objective", lambda spec: Objective(
            "overflow", overflowing, ParamSpace({"x": np.zeros((6, 5))})))
        config = OptimizerConfig(learning_rate=1.0, n_queries=4, rank=2, msign_backend=backend)
        exp = dataclasses.replace(parse_config_text(DIVERGING_CONFIG),
                                  optimizers=(OptimizerEntry("zo_muon", ZO_MUON, config),))
        with np.errstate(over="ignore", invalid="ignore"):
            [result] = run_experiment(exp, out_dir=tmp_path)["results"].values()
        assert result["status"] == "diverged"
        assert result["error"] == "estimate for block 'x' is not finite at step 0"
        assert result["steps"] == 0
        assert [r.step for r in read_trace_csv(tmp_path / "div_zo_muon.csv")] == [0]

    def test_error_before_the_first_step_propagates(self):
        # a kind that cannot run is refused when its entry is built
        exp = parse_config_text(TINY_CONFIG)
        with pytest.raises(ConfigError,
                           match=r"^\[optimizer:mezo\]: unknown optimizer kind 'adam'"):
            dataclasses.replace(exp.optimizers[0], kind="adam")

    @pytest.mark.parametrize("kind, n_queries", [("bogus", 1), (LOZO, 2)])
    def test_bad_second_entry_rejected_before_any_output(self, tmp_path, kind, n_queries):
        exp = parse_config_text(TINY_CONFIG)
        with pytest.raises(ConfigError, match=rf"^\[optimizer:b\]: .*{kind}"):
            bad = OptimizerEntry("b", kind, OptimizerConfig(1e-3, n_queries=n_queries))
            run_experiment(dataclasses.replace(exp, optimizers=(exp.optimizers[0], bad)),
                           out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_duplicate_labels_rejected_before_any_output(self, tmp_path):
        exp = parse_config_text(TINY_CONFIG)
        with pytest.raises(ConfigError, match=r"^\[optimizer:mezo\] duplicate label 'mezo'"):
            run_experiment(dataclasses.replace(exp, optimizers=exp.optimizers + exp.optimizers[:1]),
                           out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    # a flag's override goes through dataclasses.replace, which runs the same
    # casts; a bool or a non-integral number is rejected, not truncated by int()
    @pytest.mark.parametrize("seed", [-1, "x", True, 2.7, float("inf")])
    def test_bad_seed_override_rejected_up_front(self, seed):
        exp = parse_config_text(TINY_CONFIG)
        with pytest.raises(ConfigError, match=rf"^\[experiment\] field 'seed' has invalid value "
                                              rf"{re.escape(repr(seed))}: "):
            dataclasses.replace(exp, seed=seed)

    @pytest.mark.parametrize("eval_every", [0, -3, "x", 2.7, True, float("nan")])
    def test_bad_eval_every_override_rejected_up_front(self, eval_every):
        exp = parse_config_text(TINY_CONFIG)
        with pytest.raises(ConfigError, match=rf"^\[experiment\] field 'eval_every' has invalid "
                                              rf"value {re.escape(repr(eval_every))}: "):
            dataclasses.replace(exp, eval_every=eval_every)

    # a config built in code gets the parser's checks
    @pytest.mark.parametrize("key, value", [
        ("seed", -1), ("eval_every", 0), ("query_budget", -5), ("query_budget", 40.7),
        ("loss_threshold_fractions", (0.5, float("nan"))),
        ("loss_threshold_fractions", (0.5, 0.50000001, -1.0)),
        ("loss_threshold_fractions", (0.0,)), ("loss_threshold_fractions", (0.25, 0.25)),
    ])
    def test_bad_config_value_rejected_up_front(self, tmp_path, key, value):
        exp = parse_config_text(TINY_CONFIG)
        with pytest.raises(ConfigError, match=rf"^\[experiment\] field '{key}' has invalid value"):
            run_experiment(dataclasses.replace(exp, **{key: value}), out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_one_objective_built_per_optimizer(self, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(harness, "build_objective",
                            lambda spec: built.append(spec) or build_objective(spec))
        exp = parse_config_text(TINY_CONFIG)
        run_experiment(exp, out_dir=tmp_path)
        assert built == [exp.objective] * len(exp.optimizers)

    def test_no_optimizers_rejected_up_front(self):
        exp = parse_config_text(TINY_CONFIG)
        with pytest.raises(ConfigError, match=r"^experiment 'tiny' has no \[optimizer:<label>\]"):
            dataclasses.replace(exp, optimizers=())

    def test_initial_loss_read_from_trace(self, tmp_path, monkeypatch):
        calls = []
        loss = harness.objectives_mod.Objective.loss
        monkeypatch.setattr(
            harness.objectives_mod.Objective, "loss",
            lambda obj, x: calls.append(1) or loss(obj, x),
        )
        summary = run_experiment(parse_config_text(TINY_CONFIG), out_dir=tmp_path)
        rows = sum(
            len(read_trace_csv(tmp_path / f"tiny_{label}.csv")) for label in ("mezo", "spectral")
        )
        assert len(calls) == rows
        assert summary["initial_loss"] == read_trace_csv(tmp_path / "tiny_mezo.csv")[0].loss

    def test_zero_step_budget_still_reports_initial_loss(self, tmp_path):
        exp = parse_config_text(TINY_CONFIG.replace("query_budget = 40", "query_budget = 1"))
        summary = run_experiment(exp, out_dir=tmp_path)
        objective = harness.build_objective(exp.objective)
        assert summary["initial_loss"] == objective.loss(objective.initial_params)
        assert all(r["status"] == "ok" for r in summary["results"].values())

    def test_queries_to_threshold_helper(self):
        records = [
            StepRecord(0, 0, 10.0, 0.0),
            StepRecord(1, 2, 5.0, 0.0),
            StepRecord(2, 4, 1.0, 0.0),
        ]
        assert queries_to_threshold(records, 5.0) == 2
        assert queries_to_threshold(records, 0.5) is None


class TestOtherObjectives:
    def test_mlp_objective_parses_and_runs(self, tmp_path):
        text = """
[experiment]
name = mlprun
query_budget = 30

[objective]
kind = mlp
widths = 5, 8, 4
n_samples = 40
seed = 2

[optimizer:zo_muon]
kind = zo_muon
learning_rate = 1e-2
n_queries = 4
rank = 4
"""
        exp = parse_config_text(text)
        assert exp.objective.options["widths"] == (5, 8, 4)
        summary = run_experiment(exp, out_dir=tmp_path / "out")
        # 30 // 5 = 6 steps at 5 queries each
        assert summary["results"]["zo_muon"]["steps"] == 6
        assert summary["results"]["zo_muon"]["queries"] == 30


class TestCompare:
    def test_ratios_against_mezo(self, tmp_path):
        exp = parse_config_text(TINY_CONFIG)
        summary, rows = harness.compare_experiment(exp, out_dir=tmp_path)
        by_key = {(label, key): (q, ratio) for label, key, q, ratio in rows}
        q, ratio = by_key[("mezo", "1x_initial")]
        assert q == 0
        # ratio against a zero-query baseline is undefined, stays None
        assert by_key[("spectral", "1e-09x_initial")] == (None, None)

    def test_compare_requires_threshold(self, tmp_path):
        text = TINY_CONFIG.replace("loss_threshold_fractions = 1.0, 1e-9\n", "")
        exp = parse_config_text(text)
        with pytest.raises(ConfigError, match="threshold"):
            harness.compare_experiment(exp, out_dir=tmp_path)


class TestOutDirResolution:
    def test_flag_wins(self, monkeypatch):
        monkeypatch.setenv(harness.OUT_DIR_ENV, "/env/dir")
        assert str(harness.resolve_out_dir("flag", "config")) == "flag"

    def test_config_beats_env(self, monkeypatch):
        monkeypatch.setenv(harness.OUT_DIR_ENV, "/env/dir")
        assert str(harness.resolve_out_dir(None, "config")) == "config"

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv(harness.OUT_DIR_ENV, "envdir")
        assert str(harness.resolve_out_dir(None, None)) == "envdir"

    def test_default(self, monkeypatch):
        monkeypatch.delenv(harness.OUT_DIR_ENV, raising=False)
        assert str(harness.resolve_out_dir(None, None)) == "runs"


class TestCli:
    def write_config(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(TINY_CONFIG)
        return path

    def test_run_exits_zero(self, tmp_path, capsys):
        code = cli.main(["run", str(self.write_config(tmp_path)), "--out-dir", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "mezo" in out and "summary" in out
        assert (tmp_path / "out" / "summary.json").exists()

    def test_run_env_var_default_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(harness.OUT_DIR_ENV, str(tmp_path / "envout"))
        code = cli.main(["run", str(self.write_config(tmp_path))])
        assert code == 0
        assert (tmp_path / "envout" / "summary.json").exists()

    def test_compare_prints_table(self, tmp_path, capsys):
        code = cli.main(
            ["compare", str(self.write_config(tmp_path)), "--out-dir", str(tmp_path / "out")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "not reached" in out
        assert "threshold" in out

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_diverged_optimizer_exits_one(self, tmp_path, capsys, command):
        path = tmp_path / "div.ini"
        path.write_text(DIVERGING_CONFIG)
        code = cli.main([command, str(path), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        captured = capsys.readouterr()
        assert "blowup diverged" in captured.err
        assert "summary" in captured.out
        assert (tmp_path / "out" / "div_mezo.csv").exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_failed_optimizer_exits_one(self, tmp_path, capsys, monkeypatch, command):
        def failing_msign(g, *args, **kwargs):
            raise NumericalError("SVD did not converge")

        monkeypatch.setattr(linalg, "msign_svd", failing_msign)
        code = cli.main([command, str(self.write_config(tmp_path)), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        captured = capsys.readouterr()
        assert "spectral error: NumericalError at step 0" in captured.err
        assert (tmp_path / "out" / "tiny_spectral.csv").exists()
        assert (tmp_path / "out" / "tiny_mezo.csv").exists()

    def test_config_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(TINY_CONFIG.replace("kind = zo_muon", "kind = adam"))
        code = cli.main(["run", str(path)])
        assert code == 2
        assert "adam" in capsys.readouterr().err

    def test_bad_objective_geometry_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(TINY_CONFIG.replace("rank = 2\nseed = 4", "rank = 80\nseed = 4"))
        code = cli.main(["run", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "config error: [objective] need 1 <= rank <= m" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("seed = 4\n", "seed = 4\ndelta = nan\n", "[objective] delta must be finite"),
            ("rank = 2\nseed = 4\n", "rank = 2\nseed = 4\nblock_condition = inf\n",
             "[objective] block_condition must be finite"),
            ("loss_threshold_fractions = 1.0, 1e-9", "loss_threshold_fractions = inf",
             "[experiment] field 'loss_threshold_fractions' has invalid value 'inf'"),
            ("seed = 4\n", "seed = 4\ndelta = 1e308\n", "[objective] initial loss is inf"),
            ("seed = 4\n", "seed = 4\ninit_offset = 1e200\n", "[objective] initial loss is inf"),
            ("seed = 4\n", "seed = -1\n", "[objective] seed must be non-negative, got -1"),
        ],
        ids=["delta", "block_condition", "loss_threshold_fractions", "delta_overflow",
             "offset_overflow", "objective_seed"],
    )
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_non_finite_value_exits_two(self, tmp_path, capsys, old, new, message, command):
        path = tmp_path / "bad.ini"
        path.write_text(TINY_CONFIG.replace(old, new, 1))
        code = cli.main([command, str(path), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lines", ["mu = 1e-13", "mu = nan", "mu = inf"])
    def test_optimizer_value_out_of_range_exits_two(self, tmp_path, capsys, lines):
        path = tmp_path / "bad.ini"
        path.write_text(TINY_CONFIG + lines + "\n")
        code = cli.main(["run", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "config error: [optimizer:spectral]: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # a bad --seed or --eval-every is refused by the config's own check
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_negative_seed_flag_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        code = cli.main([command, str(self.write_config(tmp_path)), "--out-dir", str(out),
                         "--seed", "-5"])
        assert code == 2
        assert ("config error: [experiment] field 'seed' has invalid value '-5': "
                "must be at least 0") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_eval_every_below_one_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        code = cli.main([command, str(self.write_config(tmp_path)), "--out-dir", str(out),
                         "--eval-every", "0"])
        assert code == 2
        assert ("config error: [experiment] field 'eval_every' has invalid value '0': "
                "must be at least 1") in capsys.readouterr().err
        assert not out.exists()

    def test_percent_in_name_runs(self, tmp_path, capsys):
        path = tmp_path / "pct.ini"
        path.write_text(TINY_CONFIG.replace("name = tiny", "name = run_100%"))
        code = cli.main(["run", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "run_100%_mezo.csv").exists()

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = cli.main(["run", str(tmp_path / "nope.ini")])
        assert code == 2

    def test_verify_prop1_passes(self, capsys):
        code = cli.main(["verify", "prop1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_verify_msign_prints_medians(self, capsys):
        code = cli.main(["verify", "msign"])
        assert code == 0
        assert "k10" in capsys.readouterr().out

    def test_verify_unknown_selector_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", "everything"])
        assert excinfo.value.code == 2

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = self.write_config(tmp_path)
        cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "a")])
        cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "b"), "--seed", "77"])
        assert strip_elapsed(tmp_path / "a" / "tiny_mezo.csv") != strip_elapsed(
            tmp_path / "b" / "tiny_mezo.csv"
        )

    def test_eval_every_flag(self, tmp_path):
        cfg = self.write_config(tmp_path)
        cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "a"), "--eval-every", "1"])
        cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "b"), "--eval-every", "10"])
        a = read_trace_csv(tmp_path / "a" / "tiny_mezo.csv")
        b = read_trace_csv(tmp_path / "b" / "tiny_mezo.csv")
        assert len(a) > len(b)
