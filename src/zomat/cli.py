"""Command-line front-end: run, compare, verify.

Exit codes: 0 on success, 1 when a verification check fails or an optimizer
run diverges or fails, 2 for usage or configuration errors.  The default output
directory can be set through the ZOMAT_OUT_DIR environment variable and
overridden per call with --out-dir.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import harness, oracle
from .harness import ConfigError


def non_negative_int(raw) -> int:
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _add_common(parser):
    # no type: _experiment checks --seed and --eval-every as the config does
    parser.add_argument("config", help="experiment config file (INI-style)")
    parser.add_argument("--seed", help="override the config seed")
    parser.add_argument("--out-dir", default=None, help="output directory")
    parser.add_argument("--eval-every", help="steps between loss recordings")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="zomat",
        description="Zeroth-order matrix optimization benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run every optimizer in a config")
    _add_common(run_p)

    cmp_p = sub.add_parser("compare", help="run and print a queries-to-threshold table")
    _add_common(cmp_p)

    verify_p = sub.add_parser("verify", help="run the verification oracles")
    verify_p.add_argument(
        "suite",
        choices=[*oracle.VERIFY_SUITES, "all"],
        help="which checks to run",
    )
    verify_p.add_argument("--seed", type=non_negative_int, default=0)
    return parser


def _finish(summary, out) -> int:
    """Print the summary path and any failed optimizers; the exit code."""
    print(f"summary: {out / 'summary.json'}")
    results = summary["results"]
    failed = {label: res for label, res in results.items() if res["status"] != harness.OK}
    for label, res in failed.items():
        print(f"{label} {res['status']}: {res['error']}", file=sys.stderr)
    return 1 if failed else 0


def _experiment(args):
    """The config file's experiment with the --seed and --eval-every flags
    applied; the config checks them as it does its own values."""
    exp = harness.parse_config(args.config)
    flags = {"seed": args.seed, "eval_every": args.eval_every}
    return dataclasses.replace(exp, **{key: v for key, v in flags.items() if v is not None})


def _cmd_run(args) -> int:
    exp = _experiment(args)
    summary = harness.run_experiment(exp, out_dir=args.out_dir)
    out = harness.resolve_out_dir(args.out_dir, exp.out_dir)
    for label, res in summary["results"].items():
        final = res["final_loss"]
        final_txt = f"{final:.6g}" if final is not None else "n/a"
        print(
            f"{label}: {res['status']} steps={res['steps']} queries={res['queries']} "
            f"final_loss={final_txt} -> {res['trace_csv']}"
        )
    return _finish(summary, out)


def _cmd_compare(args) -> int:
    exp = _experiment(args)
    summary, rows = harness.compare_experiment(exp, out_dir=args.out_dir)
    print(f"{'optimizer':<18} {'threshold':<16} {'queries':>10} {'vs mezo':>8}")
    for label, key, queries, ratio in rows:
        q_txt = str(queries) if queries is not None else "not reached"
        r_txt = f"{ratio:.3f}" if ratio is not None else "-"
        print(f"{label:<18} {key:<16} {q_txt:>10} {r_txt:>8}")
    return _finish(summary, harness.resolve_out_dir(args.out_dir, exp.out_dir))


def _cmd_verify(args) -> int:
    results = oracle.run_verification(args.suite, seed=args.seed)
    failed = 0
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status}  {check.name}: {check.detail}")
        failed += 0 if check.passed else 1
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_verify(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
