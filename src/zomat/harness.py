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

A key left out takes the default of the parameter it feeds; one without a
default is required.  Unknown sections (anything but ``[experiment]``,
``[objective]``, ``[optimizer]`` and ``[optimizer:<label>]``; ``[DEFAULT]``
too), unknown or missing keys, bad values (a negative seed, a fractional
``m``, a name or label that is not a file name) and per-kind constraints
(mezo's single query) are rejected with a :class:`ConfigError` naming the
section and the key, with a did-you-mean where one is close.  The config
objects cast and check their fields when built, so a config built in code or
changed with ``dataclasses.replace`` is checked as a parsed one is.  Values
are literal: a ``%`` is not interpolated.  :func:`config_to_ini` writes a
config back as text that parses to an equal one; both directions read the
same field tables.

Every optimizer's step count is derived from the shared query budget and its
per-step query cost, so compared runs consume (up to remainder) the same
number of function evaluations.  One CSV per optimizer is written with the
header ``step,queries,loss,elapsed_ms``; content is deterministic for a fixed
config and seed apart from the elapsed_ms column.  An optimizer that diverges
(its objective returns a non-finite value, or zo_muon's estimate overflows)
keeps the rows it recorded before it diverged and is marked ``diverged`` in
``summary.json`` with the steps it completed and an error naming the step;
one that fails in any other way (say a ``NumericalError`` from msign) is kept
the same way and marked ``error``.  Either way the others run on.
"""

from __future__ import annotations

import configparser
import csv
import dataclasses
import difflib
import inspect
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
    """Checked when built: the kind, the option keys (none unknown, the
    factory's required ones present), each value stored as its cast returns."""

    kind: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _OBJECTIVES:
            raise ConfigError(
                f"[objective] unknown kind {self.kind!r}; valid: {', '.join(_OBJECTIVES)}"
            )
        factory, fields = _OBJECTIVES[self.kind]
        _check_keys("objective", self.options, fields, factory)
        object.__setattr__(self, "options", {
            key: _cast("objective", key, value, fields[key]) for key, value in self.options.items()
        })


@dataclass(frozen=True)
class OptimizerEntry:
    label: str
    kind: str
    config: OptimizerConfig

    def __post_init__(self):
        label = _cast(f"optimizer:{self.label}", "label", self.label, _file_name)
        object.__setattr__(self, "label", label)
        try:
            check_kind(self.kind, self.config)
        except ValueError as exc:
            raise ConfigError(f"[optimizer:{self.label}]: {exc}") from exc


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Checked when built: each [experiment] field by its cast (and stored as
    the cast returns it), at least one optimizer, unique labels."""

    name: str = "experiment"
    seed: int = 0
    query_budget: int
    objective: ObjectiveSpec
    optimizers: tuple
    eval_every: int = 1
    out_dir: str | None = None
    loss_threshold_fractions: tuple = ()

    def __post_init__(self):
        for key, cast in _EXPERIMENT_FIELDS.items():
            if getattr(self, key) is not None:
                object.__setattr__(self, key, _cast("experiment", key, getattr(self, key), cast))
        if not self.optimizers:
            raise ConfigError(f"experiment {self.name!r} has no [optimizer:<label>] section")
        labels = [entry.label for entry in self.optimizers]
        for label in labels:
            if labels.count(label) > 1:
                raise ConfigError(f"[optimizer:{label}] duplicate label {label!r}")


def _cast(section_name, key, raw, cast):
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"[{section_name}] field {key!r} has invalid value {raw!r}: {exc}"
        ) from exc


def _parts(raw):
    """The non-blank parts of a comma-separated string, or ``raw`` itself."""
    return [part for part in raw.split(",") if part.strip()] if isinstance(raw, str) else raw


def _fractions(raw):
    """Positive finite fractions whose ``f"{frac:g}x_initial"`` keys differ."""
    values = tuple(map(float, _parts(raw)))
    if not all(0 < v < math.inf for v in values):
        raise ValueError("entries must be positive and finite")
    if len({f"{v:g}" for v in values}) < len(values):
        raise ValueError("entries must differ in their first six significant digits")
    return values


def _file_name(raw):
    """A name that output file names are made of: no path separator or NUL,
    and not ``.`` or ``..``."""
    name = str(raw)
    if name in (".", "..") or any(c in name for c in "/\\\0"):
        raise ValueError("must be a file name: no '/', '\\' or NUL, and not '.' or '..'")
    return name


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


#: any integer; the objective factories and OptimizerConfig check their ranges
_integer = _int_at_least(-math.inf)


def _int_list(raw):
    return tuple(map(_integer, _parts(raw)))


def _check_keys(section_name, keys, fields, target):
    """Reject the first of ``keys`` not in ``fields``, suggesting the closest
    one, then the first of ``fields`` that ``target``'s signature requires
    (gives no default) but ``keys`` lacks."""
    for key in keys:
        if key not in fields:
            close = difflib.get_close_matches(key, fields, n=1)
            hint = f"did you mean {close[0]!r}?" if close else f"valid: {', '.join(fields)}"
            raise ConfigError(f"[{section_name}] unknown key {key!r}; {hint}")
    for key, param in inspect.signature(target).parameters.items():
        if key in fields and param.default is param.empty and key not in keys:
            raise ConfigError(f"[{section_name}] is missing required field {key!r}")


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
# Each maps an INI key to its cast.  A key's default, and whether it is
# required, are those of the parameter it feeds: a field of ExperimentConfig
# or OptimizerConfig, or an argument of the objective factory.

#: [experiment]: ExperimentConfig's fields but its objective and optimizers
_EXPERIMENT_FIELDS = {
    "name": _file_name, "seed": _int_at_least(0), "query_budget": _int_at_least(0),
    "eval_every": _int_at_least(1), "out_dir": str, "loss_threshold_fractions": _fractions,
}

#: [objective]: per kind, the factory its options are passed to and its fields
_OBJECTIVES = {
    "quadratic": (objectives_mod.make_quadratic, {
        "m": _integer, "n": _integer, "rank": _integer, "seed": _integer,
        "delta": float, "block_condition": float, "init_offset": float,
    }),
    "mlp": (objectives_mod.make_mlp, {
        "widths": _int_list, "n_samples": _integer, "seed": _integer,
    }),
}

#: [optimizer:<label>]: OptimizerConfig's fields but total_steps
_OPTIMIZER_FIELDS = {
    "learning_rate": float, "mu": float, "n_queries": _integer, "rank": _integer,
    "resample_interval": _integer, "msign_backend": str,
}


def parse_config_text(text: str, origin: str = "<config>") -> ExperimentConfig:
    # no interpolation: a '%' in a value (a name, a directory) is literal; and
    # no default section, whose keys configparser would copy into every other
    # one: [DEFAULT] is a section like any other, and unknown (no header line
    # can name a section "\n")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None,
                                       default_section="\n")
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"{origin}: {exc}") from exc

    _reject_unknown_sections(parser, origin)
    if "experiment" not in parser:
        raise ConfigError(f"{origin}: missing [experiment] section")
    if "objective" not in parser:
        raise ConfigError(f"{origin}: missing [objective] section")
    experiment = dict(parser["experiment"])
    _check_keys("experiment", experiment, _EXPERIMENT_FIELDS, ExperimentConfig)
    options = dict(parser["objective"])
    if "kind" not in options:
        raise ConfigError("[objective] is missing required field 'kind'")
    objective = ObjectiveSpec(kind=options.pop("kind"), options=options)

    entries = []
    for section_name in parser.sections():
        if section_name in ("experiment", "objective"):
            continue
        section = parser[section_name]
        label = section_name.split(":", 1)[1] if ":" in section_name else None
        opt_kind = section.get("kind", label)
        if opt_kind is None:
            raise ConfigError(f"[{section_name}] needs a kind (or a :label naming one)")
        # kind is not an OptimizerConfig parameter, so it is never required here
        _check_keys(section_name, section, ("kind", *_OPTIMIZER_FIELDS), OptimizerConfig)
        fields = {key: _cast(section_name, key, section[key], cast)
                  for key, cast in _OPTIMIZER_FIELDS.items() if key in section}
        try:
            config = OptimizerConfig(**fields)
        except ValueError as exc:
            raise ConfigError(f"[{section_name}]: {exc}") from exc
        entries.append(OptimizerEntry(label=label or opt_kind, kind=opt_kind, config=config))
    return ExperimentConfig(
        **experiment,
        objective=objective,
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
    """Fresh objective instance (its query counter starts at zero); the
    factory's rejection of the options is a :class:`ConfigError`."""
    try:
        return _OBJECTIVES[spec.kind][0](**spec.options)
    except ValueError as exc:
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
    trace row.  An optimizer that diverges (an :class:`EvaluationError`: a
    non-finite objective value, or a zo_muon estimate that overflowed) gets
    status ``diverged`` with the error message, which names the step; one
    that raises any other exception gets status ``error`` with the
    exception's type and message and the step, and its traceback.
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
        except Exception as exc:
            records, steps = exc.partial_trace, exc.steps
            if isinstance(exc, EvaluationError):
                status = {"status": DIVERGED, "error": str(exc)}
            else:
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
            "eval_queries": len(records),
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
