"""Online matching (§4.8) — Spark job + sequential reference path.

Logs are matched against stored template texts (never by recomputing
clustering distances): per length bucket, candidates are scanned in
descending saturation order with an equal-or-wildcard position test.
The Spark path is one stage without a shuffle: Catalyst preprocessing,
then one ``mapInPandas`` task per core that matches with the model
broadcast to executors, memoizes verdicts per token tuple within the
task and attaches each matched id's threshold ancestor and text. A
global dedup plus join back costs two shuffles, and each Python task a
fixed start-up cost that outweighs small inputs' matching work.
Logs that match nothing become temporary singleton templates (§3).
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.config import ParserConfig
from repro.core.model import ParserModel, _SEP
from repro.core.tokenizer import preprocess_message
from repro.core.train import preprocess_df

#: executor-side model cache keyed by the model broadcast's id (unique
#: within a SparkContext, unlike the id() of a collectable string), so
#: the matching index is built once per executor, not once per task.
_MODEL_CACHE: dict[int, ParserModel] = {}


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
    # Verdicts per raw message, then per token tuple: a repeated message
    # skips preprocessing, a repeated token tuple the index.
    seen: dict[str, int] = {}
    memo: dict[tuple[str, ...], int] = {}
    out: list[int] = []
    for msg in messages:
        nid = seen.get(msg)
        if nid is None:
            toks = tuple(preprocess_message(msg))
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
            seen[msg] = nid
        out.append(nid)
    if threshold is not None:
        anc = {nid: model.ancestor_at(nid, threshold) for nid in set(out) if nid >= 0}
        out = [anc.get(nid, nid) for nid in out]
    return out


def _executor_pass(
    spark: SparkSession, df: DataFrame, model: ParserModel,
    col: str, keep: list[str], run: Callable, schema: str,
) -> DataFrame:
    """``run(executor_model, memo, batches)`` as one ``mapInPandas`` over
    the ``(*keep, tokens)`` rows of the non-empty logs, one partition per
    core, with a fresh ``_match_ids`` memo per task."""
    blob = spark.sparkContext.broadcast(model.to_json())
    key = blob._jbroadcast.id()  # pyspark exposes the id only via the JVM handle

    def task(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        m = _MODEL_CACHE.get(key)
        if m is None:
            m = ParserModel.from_json(blob.value)
            _MODEL_CACHE.clear()
            _MODEL_CACHE[key] = m
        return run(m, {}, batches)

    pre = preprocess_df(df.select(*keep, col), col).select(*keep, "tokens")
    return pre.coalesce(spark.sparkContext.defaultParallelism).mapInPandas(task, schema=schema)


def _match_ids(model: ParserModel, tokens: Iterable, memo: dict[tuple[str, ...], int]) -> list[int]:
    """Matched node id (-1: none) per token array, memoized on the tuple."""
    out = []
    for toks in map(tuple, tokens):
        nid = memo.get(toks)
        if nid is None:
            nid = memo[toks] = model.match_tokens(toks)
        out.append(nid)
    return out


def match_df(
    spark: SparkSession,
    df: DataFrame,
    model: ParserModel,
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

    def run(m: ParserModel, memo: dict, batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        verdicts: dict[int, tuple[int, str]] = {-1: (-1, "")}
        for pdf in batches:
            nids = _match_ids(m, pdf["tokens"], memo)
            for nid in set(nids).difference(verdicts):
                tid = nid if threshold is None else m.ancestor_at(nid, threshold)
                verdicts[nid] = (tid, m.nodes[tid].text())
            out = pd.DataFrame([verdicts[nid] for nid in nids], columns=["template_id", "template"])
            out.insert(0, id_col, pdf[id_col].to_numpy())
            yield out

    id_type = df.schema[id_col].dataType.simpleString()
    schema = f"`{id_col}` {id_type}, template_id long, template string"
    return _executor_pass(spark, df, model, col, [id_col], run, schema)


def add_unmatched_df(
    spark: SparkSession, df: DataFrame, model: ParserModel, *, col: str = "message"
) -> int:
    """Absorb logs that match no template as temporary templates (§3).
    Returns how many temporary templates were added. Executors return
    the distinct token arrays that matched nothing; the driver re-checks
    each, in sorted order, against the growing model, because a temporary
    template holding a literal ``*`` can absorb a later array."""

    def run(m: ParserModel, memo: dict, batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            _match_ids(m, pdf["tokens"], memo)
        unmatched = [list(t) for t, nid in memo.items() if nid < 0]
        yield pd.DataFrame({"tokens": pd.Series(unmatched, dtype=object)})

    rows = _executor_pass(spark, df, model, col, [], run, "tokens array<string>").collect()
    added = 0
    for toks in sorted({tuple(r["tokens"]) for r in rows}):
        if model.match_tokens(toks) < 0:
            model.add_temp_template(toks)
            added += 1
    return added
