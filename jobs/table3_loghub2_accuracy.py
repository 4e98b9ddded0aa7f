"""Table 3 — Grouping-accuracy comparison on LogHub-2.0 (14 datasets).

Same matrix as Table 2 on the sqrt-scaled LogHub-2.0-lite corpora; slow
baselines run under a wall-clock budget and render as "\\" when they
fail to finish, exactly like the paper's missing entries.
"""
from __future__ import annotations

import json
import os
import sys

from repro.baselines import BASELINES, SEMANTIC_BASELINES
from repro.eval.harness import run_baseline, run_bytebrain_sequential, run_bytebrain_spark
from repro.logs import LOGHUB2, loghub2_lite

PAPER_AVG = {
    "AEL": 0.86, "Drain": 0.84, "IPLoM": 0.79, "LenMa": 0.81, "LFA": 0.61,
    "LogCluster": 0.57, "LogMine": 0.75, "Logram": 0.34, "LogSig": 0.18,
    "MoLFI": 0.52, "SHISO": 0.54, "SLCT": 0.40, "Spell": 0.73,
    "UniParser": 0.66, "LogPPT": 0.56, "LILAC": 0.93, "ByteBrain": 0.90,
}


def run(spark=None, *, datasets=None, scale: float = 1.0, budget_s: float = 60.0) -> list:
    results = []
    for name in datasets or LOGHUB2:
        pdf, _ = loghub2_lite(name, scale=scale)
        if spark is not None:
            results.append(run_bytebrain_spark(spark, name, pdf))
        else:
            results.append(run_bytebrain_sequential(name, pdf))
        for b in list(BASELINES) + list(SEMANTIC_BASELINES):
            results.append(run_baseline(b, name, pdf, budget_s=budget_s))
    return results


def main() -> None:
    from _common import get_spark
    from table2_loghub_accuracy import render

    scale = float(os.environ.get("TABLE3_SCALE", "1.0"))
    budget = float(os.environ.get("TABLE3_BUDGET_S", "60"))
    spark = get_spark("table3") if os.environ.get("TABLE3_SPARK", "1") == "1" else None
    results = run(spark, scale=scale, budget_s=budget)
    print("Table 3 (reproduction): group accuracy on LogHub-2.0-lite "
          f"(scale={scale}, budget={budget}s)")
    print(render(results, PAPER_AVG))
    out = os.environ.get("TABLE3_JSON")
    if out:
        json.dump([r.__dict__ for r in results], open(out, "w"), indent=1, default=float)


if __name__ == "__main__":
    sys.path.insert(0, __file__.rsplit("/", 1)[0])
    main()
