"""Table 2 — Grouping-accuracy comparison on LogHub (16 datasets).

Runs ByteBrain (Spark pipeline) plus the 13 syntax baselines and the 3
simulated semantic baselines on every LogHub-lite dataset; prints the
GA matrix with the paper's per-method averages alongside, plus the
per-method throughput (§5.3's efficiency comparison in table form).
"""
from __future__ import annotations

import json
import os
import sys

from repro.baselines import BASELINES, SEMANTIC_BASELINES
from repro.eval.harness import run_baseline, run_bytebrain_sequential, run_bytebrain_spark
from repro.logs import LOGHUB, loghub_lite

PAPER_AVG = {
    "AEL": 0.76, "Drain": 0.87, "IPLoM": 0.80, "LenMa": 0.77, "LFA": 0.64,
    "LogCluster": 0.65, "LogMine": 0.74, "Logram": 0.83, "LogSig": 0.52,
    "MoLFI": 0.58, "SHISO": 0.68, "SLCT": 0.63, "Spell": 0.79,
    "UniParser": 0.99, "LogPPT": 0.92, "LILAC": 0.94, "ByteBrain": 0.98,
}


def run(spark=None, *, datasets=None, budget_s: float = 30.0) -> list:
    """All (method, dataset) results; ByteBrain uses the Spark pipeline
    when a session is supplied, else the sequential path."""
    results = []
    for name in datasets or LOGHUB:
        pdf, _ = loghub_lite(name)
        if spark is not None:
            results.append(run_bytebrain_spark(spark, name, pdf))
        # Always include the paper's "ByteBrain Sequential" single-core
        # variant — at 2k-log scale the Spark job is dominated by fixed
        # scheduling overhead (the paper's Fig.-12 small-dataset point).
        results.append(run_bytebrain_sequential(name, pdf))
        for b in list(BASELINES) + list(SEMANTIC_BASELINES):
            results.append(run_baseline(b, name, pdf, budget_s=budget_s))
    return results


def render(results, paper_avg: dict = PAPER_AVG) -> str:
    """GA matrix with each method's average next to the paper's."""
    from _common import fmt_table

    datasets = sorted({r.dataset for r in results})
    methods = []
    for r in results:
        if r.method not in methods:
            methods.append(r.method)
    by = {(r.method, r.dataset): r for r in results}
    header = ["Method"] + datasets + ["Avg", "PaperAvg", "logs/s"]
    rows = []
    for m in methods:
        cells, gas, tput = [], [], []
        for d in datasets:
            r = by.get((m, d))
            if r is None or r.failed:
                cells.append("\\")
            else:
                cells.append(f"{r.ga:.2f}")
                gas.append(r.ga)
                tput.append(r.logs_per_sec)
        avg = sum(gas) / max(len(gas), 1)
        key = "ByteBrain" if m.startswith("ByteBrain") else m
        rows.append([m] + cells + [f"{avg:.2f}", f"{paper_avg.get(key, float('nan')):.2f}",
                                   f"{sum(tput)/max(len(tput),1):,.0f}"])
    return fmt_table(header, rows)


def main() -> None:
    from _common import get_spark

    spark = get_spark("table2") if os.environ.get("TABLE2_SPARK", "1") == "1" else None
    results = run(spark)
    print("Table 2 (reproduction): group accuracy on LogHub-lite")
    print(render(results))
    out = os.environ.get("TABLE2_JSON")
    if out:
        json.dump(
            [r.__dict__ for r in results], open(out, "w"), indent=1, default=float
        )


if __name__ == "__main__":
    sys.path.insert(0, __file__.rsplit("/", 1)[0])
    main()
