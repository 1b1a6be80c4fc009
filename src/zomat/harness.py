"""Experiment harness: config parsing, seeded comparison runs, trace CSVs.

Configs are flat INI-style key-value text with one section per optimizer:

    [experiment]
    name = quad64
    seed = 0
    query_budget = 20000
    eval_every = 10
    loss_threshold_fractions = 0.01      ; optional, x initial loss

    [objective]
    kind = quadratic                     ; quadratic | mlp
    m = 64
    n = 64
    rank = 8
    seed = 3

    [optimizer:zo_muon]
    kind = zo_muon
    learning_rate = 1e-2
    n_queries = 4
    rank = 8

Unknown sections (anything but ``[experiment]``, ``[objective]``,
``[optimizer]`` and ``[optimizer:<label>]``), unknown keys, out-of-range
experiment fields (a negative seed) and per-kind constraints (mezo's single
query) are rejected with a :class:`ConfigError` naming the section and the
key, with a did-you-mean where one is close.  The config objects run these
checks when they are built, so a config built in code or changed with
``dataclasses.replace`` is checked as a parsed one is.  Values are literal:
a ``%`` is not interpolated.  :func:`config_to_ini` writes a config back as
text that parses to an equal one; both directions read the same field tables.

Every optimizer's step count is derived from the shared query budget and its
per-step query cost, so compared runs consume (up to remainder) the same
number of function evaluations.  One CSV per optimizer is written with the
header ``step,queries,loss,elapsed_ms``; content is deterministic for a fixed
config and seed apart from the elapsed_ms column.  An optimizer that diverges
(its objective returns a non-finite value) keeps the rows it recorded before
it diverged and is marked ``diverged`` in ``summary.json`` with the steps
it completed and an error naming the step; one that fails in any other way
(say a ``NumericalError`` from msign) is kept the same way and marked
``error``.  Either way the others run on.
"""

from __future__ import annotations

import configparser
import csv
import dataclasses
import difflib
import json
import math
import os
import re
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from . import objectives as objectives_mod
from .objectives import EvaluationError
from .optimizers import (
    MEZO,
    OptimizerConfig,
    StepRecord,
    check_kind,
    run,
    steps_for_budget,
)

OUT_DIR_ENV = "ZOMAT_OUT_DIR"
#: per-optimizer ``status`` values in ``summary.json``
OK = "ok"
DIVERGED = "diverged"
ERROR = "error"


class ConfigError(ValueError):
    """Malformed experiment config; the message names the section and field."""


@dataclass(frozen=True)
class ObjectiveSpec:
    kind: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        _reject_unknown("objective", self.options, _objective_fields(self.kind))


@dataclass(frozen=True)
class OptimizerEntry:
    label: str
    kind: str
    config: OptimizerConfig

    def __post_init__(self):
        try:
            check_kind(self.kind, self.config)
        except ValueError as exc:
            raise ConfigError(f"[optimizer:{self.label}]: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Checked when built: each [experiment] field by its cast (and stored as
    the cast returns it), at least one optimizer, unique labels."""

    name: str
    seed: int
    query_budget: int
    objective: ObjectiveSpec
    optimizers: tuple
    eval_every: int = 1
    out_dir: str | None = None
    loss_threshold_fractions: tuple = ()

    def __post_init__(self):
        for key, (cast, _) in _EXPERIMENT_FIELDS.items():
            if getattr(self, key) is not None:
                object.__setattr__(self, key, _cast("experiment", key, getattr(self, key), cast))
        if not self.optimizers:
            raise ConfigError(f"experiment {self.name!r} has no [optimizer:<label>] section")
        labels = [entry.label for entry in self.optimizers]
        for label in labels:
            if labels.count(label) > 1:
                raise ConfigError(f"[optimizer:{label}] duplicate label {label!r}")


#: the ``default`` of a key that must be present
_REQUIRED = object()


def _get(section, key, cast, default=None):
    if key not in section:
        if default is _REQUIRED:
            raise ConfigError(f"[{section.name}] is missing required field {key!r}")
        return default
    return _cast(section.name, key, section[key], cast)


def _cast(section_name, key, raw, cast):
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"[{section_name}] field {key!r} has invalid value {raw!r}: {exc}"
        ) from exc


def _float_list(raw):
    if isinstance(raw, str):
        raw = [part for part in raw.split(",") if part.strip()]
    values = tuple(map(float, raw))
    if not all(map(math.isfinite, values)):
        raise ValueError("entries must be finite")
    return values


def _int_list(raw):
    return tuple(int(part) for part in str(raw).split(",") if part.strip())


def _int_at_least(low):
    def cast(raw):
        # INI text goes through int(); a number must be integral and not a bool
        if isinstance(raw, bool) or not isinstance(raw, str) and raw % 1 != 0:
            raise ValueError("must be an integer")
        value = int(raw)
        if value < low:
            raise ValueError(f"must be at least {low}")
        return value

    return cast


def _reject_unknown(section_name, keys, known):
    """Reject the first of ``keys`` not in ``known``, suggesting the closest one."""
    for key in keys:
        if key not in known:
            close = difflib.get_close_matches(key, known, n=1)
            hint = f"did you mean {close[0]!r}?" if close else f"valid: {', '.join(known)}"
            raise ConfigError(f"[{section_name}] unknown key {key!r}; {hint}")


def _read(section, fields, known=()):
    """``section``'s values of ``fields`` (INI key -> (cast, default)), after
    rejecting any key that is neither a field nor in ``known``; a None value
    is left out."""
    _reject_unknown(section.name, section, (*known, *fields))
    values = {key: _get(section, key, cast, default) for key, (cast, default) in fields.items()}
    return {key: value for key, value in values.items() if value is not None}


def _reject_unknown_sections(parser, origin):
    """Reject a section that is not [experiment], [objective], [optimizer] or
    [optimizer:<label>], suggesting the closest valid name."""
    for name in parser.sections():
        head, sep, label = name.partition(":")
        if name in ("experiment", "objective") or head == "optimizer":
            continue
        valid = ("optimizer",) if sep else ("experiment", "objective", "optimizer")
        close = difflib.get_close_matches(head, valid, n=1)
        hint = (f"did you mean [{close[0]}{sep}{label}]?" if close
                else "valid: [experiment], [objective], [optimizer:<label>]")
        raise ConfigError(f"{origin}: unknown section [{name}]; {hint}")


# The field tables below are the config grammar: the parser reads them, the
# writer (config_to_ini) walks them, and build_objective calls the factories.
# Each maps an INI key to (cast, default); a None default is left out.

#: [experiment]: ExperimentConfig's fields but its objective and optimizers
_EXPERIMENT_FIELDS = {
    "name": (str, "experiment"),
    "seed": (_int_at_least(0), 0),
    "query_budget": (_int_at_least(0), _REQUIRED),
    "eval_every": (_int_at_least(1), 1),
    "out_dir": (str, None),
    "loss_threshold_fractions": (_float_list, ()),
}

#: [objective]: per kind, the factory its options are passed to and its fields
_OBJECTIVES = {
    "quadratic": (objectives_mod.make_quadratic, {
        "m": (int, _REQUIRED), "n": (int, _REQUIRED), "rank": (int, _REQUIRED),
        "seed": (int, 0), "delta": (float, None), "block_condition": (float, None),
        "init_offset": (float, None),
    }),
    "mlp": (objectives_mod.make_mlp, {
        "widths": (_int_list, _REQUIRED), "n_samples": (int, _REQUIRED), "seed": (int, 0),
    }),
}
OBJECTIVE_KINDS = tuple(_OBJECTIVES)


def _objective_fields(kind):
    if kind not in _OBJECTIVES:
        raise ConfigError(f"[objective] unknown kind {kind!r}; valid: {', '.join(OBJECTIVE_KINDS)}")
    return _OBJECTIVES[kind][1]


#: [optimizer:<label>]: OptimizerConfig's fields but total_steps
_OPTIMIZER_FIELDS = {
    "learning_rate": (float, _REQUIRED),
    "mu": (float, None),
    "n_queries": (int, None),
    "rank": (int, None),
    "resample_interval": (int, None),
    "msign_backend": (str, None),
}


def parse_config_text(text: str, origin: str = "<config>") -> ExperimentConfig:
    # no interpolation: a '%' in a value (a name, a directory) is literal
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"{origin}: {exc}") from exc

    _reject_unknown_sections(parser, origin)
    if "experiment" not in parser:
        raise ConfigError(f"{origin}: missing [experiment] section")
    if "objective" not in parser:
        raise ConfigError(f"{origin}: missing [objective] section")
    experiment = _read(parser["experiment"], _EXPERIMENT_FIELDS)

    obj_section = parser["objective"]
    kind = _get(obj_section, "kind", str, _REQUIRED)
    options = _read(obj_section, _objective_fields(kind), known=("kind",))

    entries = []
    for section_name in parser.sections():
        if section_name in ("experiment", "objective"):
            continue
        section = parser[section_name]
        label = section_name.split(":", 1)[1] if ":" in section_name else None
        opt_kind = _get(section, "kind", str, default=label)
        if opt_kind is None:
            raise ConfigError(f"[{section_name}] needs a kind (or a :label naming one)")
        fields = _read(section, _OPTIMIZER_FIELDS, known=("kind",))
        try:
            config = OptimizerConfig(**fields)
        except ValueError as exc:
            raise ConfigError(f"[{section_name}]: {exc}") from exc
        entries.append(OptimizerEntry(label=label or opt_kind, kind=opt_kind, config=config))
    return ExperimentConfig(
        **experiment,
        objective=ObjectiveSpec(kind=kind, options=options),
        optimizers=tuple(entries),
    )


def parse_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, origin=str(path))


def _sections(exp: ExperimentConfig) -> dict:
    """Section name -> {INI key: value} of ``exp``, by the field tables."""
    sections = {
        "experiment": {key: getattr(exp, key) for key in _EXPERIMENT_FIELDS},
        "objective": {"kind": exp.objective.kind, **exp.objective.options},
    }
    for entry in exp.optimizers:
        sections[f"optimizer:{entry.label}"] = {
            "kind": entry.kind, **{key: getattr(entry.config, key) for key in _OPTIMIZER_FIELDS}
        }
    return sections


#: a string the parser reads back differently: a line break, outer whitespace,
#: or a comment marker at the start or after whitespace
_UNREADABLE = re.compile(r"[\n\r]|^\s|\s$|(^|\s)[;#]")


def _ini_value(section, key, value) -> str:
    if isinstance(value, tuple):
        return ", ".join(map(str, value))
    if isinstance(value, str) and _UNREADABLE.search(value):
        raise ValueError(f"[{section}] {key} = {value!r} would not read back the same")
    # str of a float is its repr, the shortest text that reads back exactly
    return str(value)


def config_to_ini(exp: ExperimentConfig) -> str:
    """INI text that :func:`parse_config_text` reads back to ``exp``.

    Every field is written (floats by ``repr``, tuples comma-joined) except
    an unset ``out_dir`` and an empty threshold list.  A string value or label
    that would read back differently is a ``ValueError`` naming the section
    (and the key).
    """
    lines = []
    for name, values in _sections(exp).items():
        if _UNREADABLE.search(f"[{name}]"):
            raise ValueError(f"section {name!r} would not read back the same")
        lines.append(f"[{name}]")
        lines += [f"{key} = {_ini_value(name, key, value)}" for key, value in values.items()
                  if value is not None and value != ()]
        lines.append("")
    return "\n".join(lines)


def build_objective(spec: ObjectiveSpec):
    """Fresh objective instance (its query counter starts at zero); a
    factory's rejection of the options, or a required option left out, is a
    :class:`ConfigError`."""
    try:
        return _OBJECTIVES[spec.kind][0](**spec.options)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[objective] {exc}") from exc


def resolve_out_dir(cli_value=None, config_value=None) -> Path:
    """Output directory precedence: CLI flag, config, environment, ./runs."""
    for candidate in (cli_value, config_value, os.environ.get(OUT_DIR_ENV)):
        if candidate:
            return Path(candidate)
    return Path("runs")


def write_trace_csv(path, records) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "queries", "loss", "elapsed_ms"])
        for rec in records:
            writer.writerow([rec.step, rec.queries, repr(rec.loss), repr(rec.elapsed_ms)])


def read_trace_csv(path):
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, no trace header")
        if header != ["step", "queries", "loss", "elapsed_ms"]:
            raise ValueError(f"{path}: unexpected header {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
            try:
                records.append(StepRecord(int(row[0]), int(row[1]), float(row[2]), float(row[3])))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric value") from exc
    return records


def queries_to_threshold(records, threshold: float):
    """First cumulative query count at which the recorded loss reaches the
    threshold, or None when it never does."""
    for rec in records:
        if rec.loss <= threshold:
            return rec.queries
    return None


def run_experiment(exp: ExperimentConfig, out_dir=None) -> dict:
    """Run every configured optimizer under the shared query budget.

    Writes one ``<experiment>_<label>.csv`` per optimizer, as soon as it
    finishes, plus a ``summary.json`` holding each optimizer's status, final
    loss and queries-to-threshold for every configured threshold, and an echo
    of the configuration.  The initial loss is read from the first step-0
    trace row.  An optimizer that diverges gets status ``diverged`` with the
    error message, which names the step; one that raises any other exception
    gets status ``error`` with the exception's type and message and the step,
    and its traceback.
    Either way its ``steps`` are the steps it completed, its CSV and results
    cover the rows recorded before it failed, and the next optimizer runs.
    ``exp`` checked itself when it was built; the objective is built, and
    its factory's checks run, before the output directory is made.
    Returns the summary dict.
    """
    out_path = resolve_out_dir(out_dir, exp.out_dir)

    results, traces = {}, {}
    for entry in exp.optimizers:
        objective = build_objective(exp.objective)
        total_steps = steps_for_budget(entry.kind, entry.config, exp.query_budget)
        config = dataclasses.replace(entry.config, total_steps=total_steps)
        out_path.mkdir(parents=True, exist_ok=True)
        status, steps = {"status": OK}, total_steps
        try:
            records = run(objective, objective.initial_params, config, entry.kind,
                          seed=exp.seed, eval_every=exp.eval_every).records
        except EvaluationError as exc:
            records, steps = exc.partial_trace, exc.steps
            status = {"status": DIVERGED, "error": str(exc)}
        except Exception as exc:
            if not hasattr(exc, "partial_trace"):
                raise  # not raised by a step: a fault of the harness, not a failed run
            records, steps = exc.partial_trace, exc.steps
            status = {"status": ERROR, "error": f"{type(exc).__name__} at step {steps}: {exc}",
                      "traceback": "".join(traceback.format_exception(exc))}
        csv_path = out_path / f"{exp.name}_{entry.label}.csv"
        write_trace_csv(csv_path, records)
        traces[entry.label] = records
        results[entry.label] = {
            "kind": entry.kind,
            **status,
            "steps": steps,
            "queries": objective.query_count,
            "eval_queries": objective.eval_count,
            "final_loss": records[-1].loss if records else None,
            "trace_csv": csv_path.name,
        }

    first = next((records[0] for records in traces.values() if records), None)
    # when no optimizer took a step there is no trace row to read it from
    initial_loss = first.loss if first else objective.loss(objective.initial_params)
    thresholds = {f"{frac:g}x_initial": frac * initial_loss
                  for frac in exp.loss_threshold_fractions}
    for label, records in traces.items():
        results[label]["queries_to_threshold"] = {
            key: queries_to_threshold(records, value) for key, value in thresholds.items()
        }

    sections = _sections(exp)
    summary = {
        "experiment": exp.name,
        "seed": exp.seed,
        "query_budget": exp.query_budget,
        "eval_every": exp.eval_every,
        "initial_loss": initial_loss,
        "thresholds": thresholds,
        "objective": sections["objective"],
        "optimizers": {e.label: sections[f"optimizer:{e.label}"] for e in exp.optimizers},
        "results": results,
    }
    with open(out_path / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return summary


def compare_experiment(exp: ExperimentConfig, out_dir=None):
    """Queries-to-threshold table with ratios against the mezo row.

    Requires at least one configured threshold.  Returns (summary, rows)
    where each row is (label, threshold_key, queries or None, ratio or None).
    """
    if not exp.loss_threshold_fractions:
        raise ConfigError("compare needs loss_threshold_fractions in [experiment]")
    summary = run_experiment(exp, out_dir=out_dir)
    results = summary["results"]
    baseline = next((entry.label for entry in exp.optimizers if entry.kind == MEZO), None)
    rows = []
    for key in summary["thresholds"]:
        base_q = results[baseline]["queries_to_threshold"][key] if baseline else None
        for entry in exp.optimizers:
            q = results[entry.label]["queries_to_threshold"][key]
            rows.append((entry.label, key, q, q / base_q if q is not None and base_q else None))
    return summary, rows
