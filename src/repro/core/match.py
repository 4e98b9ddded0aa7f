"""Online matching (§4.8) — Spark job + sequential reference path.

Logs are matched against stored template texts (never by recomputing
clustering distances): per length bucket, candidates are scanned in
descending saturation order with an equal-or-wildcard position test.
Every path runs one per-message loop, ``_match_ids``: a verdict memo per
raw message, ``preprocess_message``, a verdict memo per token tuple,
then the index. Both matchers give a null message, one without tokens
and (without ``add_unmatched``) one that matches nothing the id -1.

The Spark path is one stage without a shuffle: one ``mapInPandas`` task
per core loads the broadcast JSON model, builds its index once, runs
that loop and attaches each matched id's threshold ancestor and text.
A global dedup plus join back costs two shuffles, and each Python task a
fixed start-up cost that outweighs small inputs' matching work.
Logs that match nothing become temporary singleton templates (§3).
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.model import ParserModel
from repro.core.tokenizer import preprocess_message


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
    cols: list[str], run: Callable, schema: str,
) -> DataFrame:
    """``run(executor_model, batches)`` as one ``mapInPandas`` over the
    ``cols`` of ``df``, one partition per core. Each task loads its own
    copy of the broadcast JSON model."""
    blob = spark.sparkContext.broadcast(model.to_json())

    def task(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        return run(ParserModel.from_json(blob.value), batches)

    rows = df.select(*cols).coalesce(spark.sparkContext.defaultParallelism)
    return rows.mapInPandas(task, schema=schema)


def match_df(
    spark: SparkSession, df: DataFrame, model: ParserModel, *, threshold: float | None = None
) -> DataFrame:
    """Spark online matching of a ``(log_id, message)`` frame.

    Returns one ``(log_id, template_id, template)`` row per input row,
    as ``match_sequential(..., add_unmatched=False)`` numbers them:
    ``template_id`` is the matched node id, -1 and ``""`` for a null
    message, one without tokens or one that matches nothing (call
    ``add_unmatched_df`` first to absorb those as temporary templates).
    """

    def run(m: ParserModel, batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        seen: dict[str | None, int] = {}
        memo: dict[tuple[str, ...], int] = {}
        verdicts: dict[int, tuple[int, str]] = {-1: (-1, "")}
        for pdf in batches:
            nids = _match_ids(m.match_tokens, pdf["message"], seen, memo)
            for nid in set(nids).difference(verdicts):
                tid = nid if threshold is None else m.ancestor_at(nid, threshold)
                verdicts[nid] = (tid, m.nodes[tid].text())
            out = pd.DataFrame([verdicts[nid] for nid in nids], columns=["template_id", "template"])
            out.insert(0, "log_id", pdf["log_id"].to_numpy())
            yield out

    id_type = df.schema["log_id"].dataType.simpleString()
    schema = f"log_id {id_type}, template_id long, template string"
    return _executor_pass(spark, df, model, ["log_id", "message"], run, schema)


def add_unmatched_df(spark: SparkSession, df: DataFrame, model: ParserModel) -> int:
    """Absorb logs of the ``message`` column that match no template as
    temporary templates (§3). Returns how many temporary templates were
    added. Executors return the distinct token tuples that matched
    nothing; the driver re-checks each, in sorted order, against the
    growing model, because a temporary template holding a literal ``*``
    can absorb a later tuple."""

    def run(m: ParserModel, batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        seen: dict[str | None, int] = {}
        memo: dict[tuple[str, ...], int] = {}
        for pdf in batches:
            _match_ids(m.match_tokens, pdf["message"], seen, memo)
        unmatched = [list(t) for t, nid in memo.items() if nid == -1 and t]
        yield pd.DataFrame({"tokens": pd.Series(unmatched, dtype=object)})

    rows = _executor_pass(spark, df, model, ["message"], run, "tokens array<string>").collect()
    added = 0
    for toks in sorted({tuple(r["tokens"]) for r in rows}):
        if model.match_tokens(toks) < 0:
            model.add_temp_template(toks)
            added += 1
    return added
