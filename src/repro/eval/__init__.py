"""Evaluation harness: grouping accuracy (§5.1.3) and throughput."""

from repro.eval.ga import grouping_accuracy
from repro.eval.harness import MethodResult, run_baseline, run_bytebrain_sequential, run_bytebrain_spark

__all__ = [
    "grouping_accuracy",
    "MethodResult",
    "run_baseline",
    "run_bytebrain_sequential",
    "run_bytebrain_spark",
]
