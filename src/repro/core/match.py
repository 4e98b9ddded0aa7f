"""Online matching (§4.8) — Spark job + sequential reference path.

Logs are matched against stored template texts (never by recomputing
clustering distances): per length bucket, candidates are scanned in
descending saturation order with an equal-or-wildcard position test.
Every path runs one per-message loop, ``_match_ids``: a verdict memo per
raw message, ``preprocess_message``, a verdict memo per token tuple,
then the index. The Spark path is one stage without a shuffle: one
``mapInPandas`` task per core runs that loop with the model broadcast to
executors and attaches each matched id's threshold ancestor and text. A
global dedup plus join back costs two shuffles, and each Python task a
fixed start-up cost that outweighs small inputs' matching work.
Logs that match nothing become temporary singleton templates (§3).
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.model import ParserModel
from repro.core.tokenizer import preprocess_message

#: executor-side model cache keyed by the model broadcast's id (unique
#: within a SparkContext, unlike the id() of a collectable string), so
#: the matching index is built once per executor, not once per task.
_MODEL_CACHE: dict[int, ParserModel] = {}

#: Spark tasks' verdict for a null message or one without tokens; such
#: rows are left out of ``match_df``'s output.
_NO_TOKENS = -2


def _match_ids(
    lookup: Callable[[tuple[str, ...]], int],
    messages: Iterable[str | None],
    seen: dict[str | None, int],
    memo: dict[tuple[str, ...], int],
) -> list[int]:
    """Node id per message (a null one has no tokens), ``lookup(tokens)``
    on a miss. Verdicts are memoized per raw message (``seen``), then per
    token tuple (``memo``): a repeated message skips preprocessing, a
    repeated token tuple the lookup."""
    out = []
    for msg in messages:
        nid = seen.get(msg)
        if nid is None:
            toks = tuple(preprocess_message(msg)) if msg else ()
            nid = memo.get(toks)
            if nid is None:
                nid = memo[toks] = lookup(toks)
            seen[msg] = nid
        out.append(nid)
    return out


def match_sequential(
    messages: list[str | None],
    model: ParserModel,
    *,
    threshold: float | None = None,
    add_unmatched: bool = True,
) -> list[int]:
    """Match each message; returns the node id per message, -1 for a null
    message or one without tokens and, when ``add_unmatched`` is off, for
    one that matches nothing. The model's naive-match ``train_assignment``,
    if any, is looked up before the template texts."""

    def lookup(toks: tuple[str, ...]) -> int:
        nid = model.train_assignment.get(toks, -1)
        if nid < 0:
            nid = model.match_tokens(toks)
        if nid < 0 and add_unmatched and toks:
            nid = model.add_temp_template(toks).nid
        return nid

    out = _match_ids(lookup, messages, {}, {})
    if threshold is not None:
        anc = {nid: model.ancestor_at(nid, threshold) for nid in set(out) if nid >= 0}
        out = [anc.get(nid, nid) for nid in out]
    return out


def _executor_pass(
    spark: SparkSession, df: DataFrame, model: ParserModel,
    col: str, keep: list[str], run: Callable, schema: str,
) -> DataFrame:
    """``run(executor_model, seen, memo, batches)`` as one ``mapInPandas``
    over the ``(*keep, col)`` rows, one partition per core, with fresh
    ``_match_ids`` memos per task that give null and token-less messages
    ``_NO_TOKENS``."""
    blob = spark.sparkContext.broadcast(model.to_json())
    key = blob._jbroadcast.id()  # pyspark exposes the id only via the JVM handle

    def task(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        m = _MODEL_CACHE.get(key)
        if m is None:
            m = ParserModel.from_json(blob.value)
            _MODEL_CACHE.clear()
            _MODEL_CACHE[key] = m
        return run(m, {}, {(): _NO_TOKENS}, batches)

    rows = df.select(*keep, col).coalesce(spark.sparkContext.defaultParallelism)
    return rows.mapInPandas(task, schema=schema)


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

    Returns ``(id_col, template_id, template)`` per message with tokens,
    ``template_id`` the matched node id (-1 for unmatched — call
    ``add_unmatched_df`` to absorb those as temporary templates first if
    desired).
    """

    def run(
        m: ParserModel, seen: dict, memo: dict, batches: Iterator[pd.DataFrame]
    ) -> Iterator[pd.DataFrame]:
        verdicts: dict[int, tuple[int, str]] = {-1: (-1, "")}
        for pdf in batches:
            nids = np.array(_match_ids(m.match_tokens, pdf[col], seen, memo), dtype=np.int64)
            has_tokens = nids != _NO_TOKENS
            nids = nids[has_tokens].tolist()
            for nid in set(nids).difference(verdicts):
                tid = nid if threshold is None else m.ancestor_at(nid, threshold)
                verdicts[nid] = (tid, m.nodes[tid].text())
            out = pd.DataFrame([verdicts[nid] for nid in nids], columns=["template_id", "template"])
            out.insert(0, id_col, pdf[id_col].to_numpy()[has_tokens])
            yield out

    id_type = df.schema[id_col].dataType.simpleString()
    schema = f"`{id_col}` {id_type}, template_id long, template string"
    return _executor_pass(spark, df, model, col, [id_col], run, schema)


def add_unmatched_df(
    spark: SparkSession, df: DataFrame, model: ParserModel, *, col: str = "message"
) -> int:
    """Absorb logs that match no template as temporary templates (§3).
    Returns how many temporary templates were added. Executors return
    the distinct token tuples that matched nothing; the driver re-checks
    each, in sorted order, against the growing model, because a temporary
    template holding a literal ``*`` can absorb a later tuple."""

    def run(
        m: ParserModel, seen: dict, memo: dict, batches: Iterator[pd.DataFrame]
    ) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            _match_ids(m.match_tokens, pdf[col], seen, memo)
        unmatched = [list(t) for t, nid in memo.items() if nid == -1]
        yield pd.DataFrame({"tokens": pd.Series(unmatched, dtype=object)})

    rows = _executor_pass(spark, df, model, col, [], run, "tokens array<string>").collect()
    added = 0
    for toks in sorted({tuple(r["tokens"]) for r in rows}):
        if model.match_tokens(toks) < 0:
            model.add_temp_template(toks)
            added += 1
    return added
