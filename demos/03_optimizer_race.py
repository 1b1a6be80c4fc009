"""Head-to-head optimizer comparison on the planted low-rank quadratic.

Runs the four query-based optimizers under a shared 20,000-query budget
(step counts scaled inversely with per-step query cost), writes one trace
CSV per optimizer plus summary.json, prints the queries-to-threshold table,
and, when matplotlib is importable, saves a loss-vs-queries plot.

The same experiment is reachable from the command line: this script also
writes its config as INI text (``harness.config_to_ini``) next to its
outputs, so you can re-run it, with the same traces, as

    zomat compare <out_dir>/quadrace.ini --out-dir <out_dir>

Run with:  python demos/03_optimizer_race.py [out_dir]
"""

import sys
from pathlib import Path

from zomat.harness import compare_experiment, config_to_ini, read_trace_csv
from zomat.presets import quadratic_race_config

out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("runs/quadrace")
out_dir.mkdir(parents=True, exist_ok=True)

exp = quadratic_race_config(objective_seed=101, run_seed=1)
(out_dir / "quadrace.ini").write_text(config_to_ini(exp))

summary, rows = compare_experiment(exp, out_dir=out_dir)

print(f"initial loss {summary['initial_loss']:.4f}, "
      f"budget {summary['query_budget']} queries\n")
print(f"{'optimizer':<16} {'steps':>6} {'final loss':>12} {'to 1% of f0':>12} {'vs mezo':>8}")
ratio_by_label = {label: ratio for label, _, _, ratio in rows}
queries_by_label = {label: q for label, _, q, _ in rows}
for label, res in summary["results"].items():
    q = queries_by_label.get(label)
    ratio = ratio_by_label.get(label)
    print(
        f"{label:<16} {res['steps']:>6} {res['final_loss']:>12.5f} "
        f"{q if q is not None else 'not reached':>12} "
        f"{f'{ratio:.3f}' if ratio is not None else '-':>8}"
    )
print(f"\ntraces and summary.json in {out_dir}/")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the plot")
else:
    fig, ax = plt.subplots(figsize=(7, 4.5))
    for label, res in summary["results"].items():
        records = read_trace_csv(out_dir / res["trace_csv"])
        ax.plot([r.queries for r in records], [r.loss for r in records], label=label)
    ax.axhline(0.01 * summary["initial_loss"], color="gray", ls="--", lw=0.8,
               label="1% of initial loss")
    ax.set_yscale("log")
    ax.set_xlabel("function queries")
    ax.set_ylabel("loss")
    ax.set_title("planted low-rank quadratic, shared 20k query budget")
    ax.legend()
    fig.tight_layout()
    fig.savefig(out_dir / "loss_vs_queries.png", dpi=120)
    print(f"plot saved to {out_dir / 'loss_vs_queries.png'}")
