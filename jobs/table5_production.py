"""Table 5 — Production-topic evaluation (Volcano Engine TLS analogue).

For each synthetic production topic (DESIGN.md §3.3): corpus volume,
offline training time (Spark pipeline over a training sample, as the
paper's training Pods do), serialized model size, and online matching
throughput in MB/s — the "keeps up with ingestion" quantity the
paper's Log Volume column demonstrates.
"""
from __future__ import annotations

import os
import sys
import time

from repro.core import match_sequential, train_model, train_model_sequential
from repro.logs.production import PRODUCTION_TOPICS, production_corpus

PAPER_ROWS = {
    "text-stream": ("Text stream processing", "189 MB/s", "3 MB", "0.91s"),
    "web-access-high": ("Webserver access log", "57.8 MB/s", "10 MB", "7.98s"),
    "web-access-low": ("Webserver access log", "47.7 MB/s", "3 MB", "1.02s"),
    "go-http-api": ("Go HTTP API server", "3.51 MB/s", "7 MB", "1.65s"),
    "go-search": ("Go search server", "2.46 MB/s", "7 MB", "4.64s"),
}


def run(spark=None, *, target_mb: float = 8.0, train_sample: int = 20_000) -> list[dict]:
    rows = []
    for topic in PRODUCTION_TOPICS:
        pdf = production_corpus(topic, target_mb=target_mb)
        volume_mb = (pdf["message"].str.len().sum() + len(pdf)) / (1 << 20)
        sample = pdf["message"].iloc[:train_sample].tolist()
        t0 = time.perf_counter()
        if spark is not None:
            import pandas as pd

            sdf = spark.createDataFrame(pd.DataFrame({"message": sample}))
            model = train_model(spark, sdf)
        else:
            model = train_model_sequential(sample)
        train_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        match_sequential(pdf["message"].tolist(), model)
        match_s = time.perf_counter() - t0
        rows.append(
            {
                "topic": topic,
                "corpus_mb": round(volume_mb, 2),
                "train_s": round(train_s, 2),
                "model_mb": round(model.nbytes / (1 << 20), 3),
                "n_templates": len(model.nodes),
                "match_mb_per_s": round(volume_mb / match_s, 2),
                "paper": PAPER_ROWS[topic],
            }
        )
    return rows


def main() -> None:
    from _common import fmt_table, get_spark

    spark = get_spark("table5") if os.environ.get("TABLE5_SPARK", "1") == "1" else None
    rows = run(spark, target_mb=float(os.environ.get("TABLE5_MB", "8")))
    header = ["Topic", "Corpus", "Train", "Model", "#Nodes", "Match MB/s",
              "paper: volume", "model", "train"]
    body = [
        [r["topic"], f"{r['corpus_mb']} MB", f"{r['train_s']}s", f"{r['model_mb']} MB",
         r["n_templates"], r["match_mb_per_s"], r["paper"][1], r["paper"][2], r["paper"][3]]
        for r in rows
    ]
    print("Table 5 (reproduction): production-topic metrics, ours vs paper")
    print(fmt_table(header, body))


if __name__ == "__main__":
    sys.path.insert(0, __file__.rsplit("/", 1)[0])
    main()
