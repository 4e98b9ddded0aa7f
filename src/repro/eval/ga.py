"""Grouping Accuracy (GA), the paper's §5.1.3 metric.

A log is correct iff its predicted group contains exactly the logs of
its ground-truth template — equivalently, a predicted group counts only
when it maps 1:1 onto a ground-truth group of the same size. Both
ByteBrain paths and every baseline are scored by this one pandas
implementation; the Spark harness collects its matched labels first.
"""
from __future__ import annotations

import pandas as pd


def grouping_accuracy(pred: list, gt: list) -> float:
    """Strict GA over parallel label lists."""
    if len(pred) != len(gt):
        raise ValueError("pred and gt must align")
    if not pred:
        return 1.0
    # Labels may be any hashable (ints, strings, tuples); canonicalize
    # to strings so pandas grouping never has to order mixed types.
    dfx = pd.DataFrame({"p": [repr(x) for x in pred], "g": [repr(x) for x in gt]})
    pair = dfx.groupby(["p", "g"], sort=False).size().reset_index(name="c")
    pstat = pair.groupby("p").agg(pn=("g", "nunique"), psz=("c", "sum"))
    gstat = pair.groupby("g").agg(gn=("p", "nunique"), gsz=("c", "sum"))
    j = pair.join(pstat, on="p").join(gstat, on="g")
    ok = j[(j.pn == 1) & (j.gn == 1) & (j.psz == j.gsz)]["c"].sum()
    return float(ok) / len(dfx)
