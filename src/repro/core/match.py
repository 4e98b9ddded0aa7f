"""Online matching (§4.8) — Spark job + sequential reference path.

Logs are matched against stored template texts (never by recomputing
clustering distances): per length bucket, candidates are scanned in
descending saturation order with an equal-or-wildcard position test.
The Spark path deduplicates token sequences first (matching is a pure
function of the token sequence), matches the distinct sequences inside
``mapInPandas`` with the model broadcast to executors, and joins the
verdicts back — so duplicate-heavy streams pay once per unique log.
Logs that match nothing become temporary singleton templates (§3).
"""
from __future__ import annotations

from typing import Iterator

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.config import ParserConfig
from repro.core.model import ParserModel, _SEP
from repro.core.tokenizer import preprocess_message
from repro.core.train import preprocess_df

#: executor-side model cache keyed by the model broadcast's id (unique
#: within a SparkContext, unlike the id() of a collectable string), so
#: the matching index is built once per executor, not once per task.
_MODEL_CACHE: dict[int, ParserModel] = {}


def _ancestor_map(model: ParserModel, threshold: float | None) -> dict[int, int]:
    if threshold is None:
        return {}
    return {nd.nid: model.ancestor_at(nd.nid, threshold) for nd in model.nodes}


def match_sequential(
    messages: list[str],
    model: ParserModel,
    cfg: ParserConfig | None = None,
    *,
    threshold: float | None = None,
    add_unmatched: bool = True,
) -> list[int]:
    """Match each message; returns the node id per message (-1 only when
    ``add_unmatched`` is off and nothing matches)."""
    cfg = cfg or ParserConfig()
    memo: dict[tuple[str, ...], int] = {}
    out: list[int] = []
    for msg in messages:
        toks = tuple(preprocess_message(msg, replace=cfg.replace_variables))
        nid = memo.get(toks)
        if nid is None:
            if cfg.naive_match and model.train_assignment:
                nid = model.train_assignment.get(_SEP.join(toks), -1)
                if nid < 0:
                    nid = model.match_tokens(toks)
            else:
                nid = model.match_tokens(toks)
            if nid < 0 and add_unmatched and toks:
                nid = model.add_temp_template(toks).nid
            memo[toks] = nid
        out.append(nid)
    if threshold is not None:
        anc = {nid: model.ancestor_at(nid, threshold) for nid in set(out) if nid >= 0}
        out = [anc.get(nid, nid) for nid in out]
    return out


def match_df(
    spark: SparkSession,
    df: DataFrame,
    model: ParserModel,
    cfg: ParserConfig | None = None,
    *,
    col: str = "message",
    id_col: str = "log_id",
    threshold: float | None = None,
) -> DataFrame:
    """Spark online matching.

    Returns ``(id_col, template_id, template)`` with ``template_id`` the
    matched node id (-1 for unmatched — call ``add_unmatched_df`` to
    absorb those as temporary templates first if desired).
    """
    cfg = cfg or ParserConfig()
    pre = (
        preprocess_df(df.select(id_col, col), col, cfg)
        .withColumn("tok_key", F.concat_ws(_SEP, "tokens"))
        .select(id_col, "tok_key")
    )
    uniq = pre.select("tok_key").distinct()
    blob = model.to_json()
    b_model = spark.sparkContext.broadcast(blob)
    b_anc = spark.sparkContext.broadcast(_ancestor_map(model, threshold))
    key = b_model._jbroadcast.id()  # pyspark exposes the id only via the JVM handle

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        m = _MODEL_CACHE.get(key)
        if m is None:
            m = ParserModel.from_json(b_model.value)
            _MODEL_CACHE.clear()
            _MODEL_CACHE[key] = m
        anc = b_anc.value
        for pdf in batches:
            nids = []
            for tk in pdf["tok_key"]:
                nid = m.match_tokens(tuple(tk.split(_SEP)))
                nids.append(anc.get(nid, nid))
            yield pd.DataFrame({"tok_key": pdf["tok_key"], "template_id": nids})

    verdicts = uniq.mapInPandas(run, schema="tok_key string, template_id long")
    out = pre.join(verdicts, on="tok_key", how="left").select(
        F.col(id_col), F.col("template_id")
    )
    text_map = {nd.nid: nd.text() for nd in model.nodes}
    b_text = spark.sparkContext.broadcast(text_map)

    @F.pandas_udf("string")
    def tmpl_text(nid: pd.Series) -> pd.Series:
        tm = b_text.value
        return nid.map(lambda x: tm.get(int(x), "")) if len(nid) else nid.astype(str)

    return out.withColumn("template", tmpl_text(F.col("template_id")))


def add_unmatched_df(
    spark: SparkSession, df: DataFrame, model: ParserModel, cfg: ParserConfig | None = None,
    *, col: str = "message",
) -> int:
    """Absorb logs that match no template as temporary templates (§3).
    Returns how many temporary templates were added."""
    cfg = cfg or ParserConfig()
    pre = preprocess_df(df, col, cfg).withColumn("tok_key", F.concat_ws(_SEP, "tokens"))
    uniq = [r["tok_key"] for r in pre.select("tok_key").distinct().collect()]
    added = 0
    for tk in uniq:
        toks = tuple(tk.split(_SEP))
        if model.match_tokens(toks) < 0:
            model.add_temp_template(toks)
            added += 1
    return added
