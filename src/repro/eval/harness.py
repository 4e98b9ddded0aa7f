"""Per-method, per-dataset evaluation runner for Tables 2 and 3.

Throughput follows the paper's definition (§5.1.3): total log count
divided by combined training + matching wall time. ByteBrain runs
either through the full Spark pipeline or the sequential reference path
(the paper's *ByteBrain Sequential*); baselines run driver-side exactly
like the single-node Logparser toolkit the paper benchmarks.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines import make_baseline
from repro.baselines.base import BudgetExceeded
from repro.baselines.semantic import SimulatedSemanticParser
from repro.core import ParserConfig, match_df, match_sequential, train_model, train_model_sequential
from repro.eval.ga import grouping_accuracy
from repro.logs.corpus import to_spark

#: Query-time saturation threshold (§5.5.1 sweeps it; 0.8 sits on the
#: stable plateau of our sensitivity sweep).
QUERY_THRESHOLD = 0.8


@dataclass
class MethodResult:
    method: str
    dataset: str
    ga: float
    seconds: float
    logs_per_sec: float
    n_groups: int = 0
    failed: bool = False  # exceeded budget (the paper's "\" entries)


def run_bytebrain_sequential(
    dataset: str, pdf: pd.DataFrame, cfg: ParserConfig | None = None
) -> MethodResult:
    """Train + match on one corpus with the single-threaded path."""
    messages = pdf["message"].tolist()
    t0 = time.perf_counter()
    model = train_model_sequential(messages, cfg)
    nids = match_sequential(messages, model, threshold=QUERY_THRESHOLD)
    dt = time.perf_counter() - t0
    ga = grouping_accuracy(nids, pdf["template_id"].tolist())
    return MethodResult("ByteBrain-Seq", dataset, ga, dt, len(messages) / dt, len(set(nids)))


def run_bytebrain_spark(
    spark: SparkSession, dataset: str, pdf: pd.DataFrame, cfg: ParserConfig | None = None
) -> MethodResult:
    """Train + match on one corpus with the Spark pipeline."""
    df = to_spark(spark, pdf).cache()
    n = df.count()  # materialize input before the clock starts
    t0 = time.perf_counter()
    model = train_model(spark, df, cfg=cfg)
    matched = match_df(spark, df, model, threshold=QUERY_THRESHOLD).cache()
    matched.count()
    dt = time.perf_counter() - t0
    pred = matched.select("log_id", "template_id").toPandas()
    matched.unpersist()
    joined = pred.merge(pdf[["log_id", "template_id"]], on="log_id", suffixes=("", "_gt"))
    ga = grouping_accuracy(joined["template_id"].tolist(), joined["template_id_gt"].tolist())
    n_groups = int(pred["template_id"].nunique())
    df.unpersist()
    return MethodResult("ByteBrain", dataset, ga, dt, n / dt, n_groups)


def run_baseline(
    name: str, dataset: str, pdf: pd.DataFrame, budget_s: float | None = None, **kw
) -> MethodResult:
    """Run one baseline parser on one corpus.

    ``budget_s`` bounds wall time; exceeding it yields a failed result,
    mirroring the paper's "failed to finish" table entries.
    """
    messages = pdf["message"].tolist()
    gt = pdf["template_id"].tolist()
    if name == "LogSig":
        # LogSig requires the cluster count up front (§2); following the
        # toolkit benchmarks it receives the ground-truth count.
        kw.setdefault("k", int(pdf["template_id"].nunique()))
    parser = make_baseline(name, **kw)
    if isinstance(parser, SimulatedSemanticParser):
        parser.bind(gt)
    t0 = time.perf_counter()
    try:
        pred = parser.parse(messages, budget_s=budget_s)
    except BudgetExceeded:
        dt = time.perf_counter() - t0
        return MethodResult(parser.name, dataset, float("nan"), dt, 0.0, 0, failed=True)
    dt = time.perf_counter() - t0
    return MethodResult(
        parser.name, dataset, grouping_accuracy(pred, gt), dt, len(messages) / dt, len(set(pred))
    )
