"""Offline training (§3, §4): Spark job + sequential reference path.

Both paths preprocess with ``_keyed_tokens``: each message (under dedup,
each distinct raw message with its count) goes through
``preprocess_message`` and gets its initial-group key (§4.2). On Spark
that runs in one ``mapInPandas`` task per core, and each initial group
is then clustered independently inside ``applyInPandas`` — the paper's
"hierarchical clustering can be performed concurrently for each group".
Both paths hand each group to ``_cluster_group``, the one per-group
training body (canonical order, dedup merge, sampling guard, hash
encoding of §4.1.4, clustering), and both turn each group's tree into
model nodes with ``_add_tree``, groups in key order. The sequential path
runs it single-threaded (the paper's *ByteBrain Sequential*) and adds
each tree as soon as it is built; Spark collects the trees as one
frame (``_TREE_SCHEMA``) and ``_assemble`` adds them on the driver.
The two are asserted to produce the same model in tests.
"""
from __future__ import annotations

import zlib
from collections import Counter
from collections.abc import Iterable, Iterator
from itertools import chain, repeat

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.cluster import TreeRow, build_tree
from repro.core.config import ParserConfig
from repro.core.model import ParserModel, hash_tokens
from repro.core.tokenizer import preprocess_message

_TREE_SCHEMA = (
    "group_key string, idx long, parent long, template array<string>, "
    "saturation double, n_logs long"
)


def _group_seed(group_key: str) -> int:
    """Seed of one group's clustering RNG: the same on both paths."""
    return zlib.crc32(group_key.encode()) & 0x7FFFFFFF


def _keyed_tokens(
    messages: Iterable[str | None], cfg: ParserConfig
) -> Iterator[tuple[str, tuple[str, ...], int]]:
    """``(group key, token tuple, count)`` per message with tokens; null
    and blank messages yield nothing. Under ``cfg.dedup`` each distinct
    raw message is preprocessed once and carries its count; the "w/o
    dedup" ablation (§5.4.3) preprocesses every message, count 1. The key
    (§4.2) is the token count and the first ``prefix_k`` tokens joined
    with ``|``; it also seeds the group's clustering RNG."""
    counted = Counter(messages).items() if cfg.dedup else zip(messages, repeat(1))
    for msg, cnt in counted:
        if msg and (toks := tuple(preprocess_message(msg))):
            yield "|".join((str(len(toks)), *toks[: cfg.prefix_k])), toks, cnt


def _cluster_group(
    group_key: str,
    texts: list[tuple[str, ...]],
    counts: np.ndarray | list[int],
    cfg: ParserConfig,
) -> tuple[list[TreeRow], list[tuple[str, ...]]]:
    """Cluster one initial group; returns its tree rows and the
    canonically ordered texts their ``rows`` index into.

    The Spark path delivers token tuples in shuffle order, the sequential
    path in insertion order; sorting by token text makes the two paths
    produce bit-identical trees. Under ``cfg.dedup`` equal tuples (raw
    messages that differ only in a replaced variable, or on Spark the
    same tuple from several tasks) then become one unique log, their
    counts summed. Oversized groups keep their most frequent unique logs
    (the paper's random-sampling guard, deterministic here). The kept
    logs' distinct tokens are then hashed once each (§4.1.4) into the
    matrix ``build_tree`` clusters.
    """
    order = sorted(range(len(texts)), key=texts.__getitem__)
    texts = [texts[i] for i in order]
    counts = np.asarray(counts, dtype=np.int64)[order]
    if cfg.dedup:
        starts = [i for i in range(len(texts)) if i == 0 or texts[i] != texts[i - 1]]
        texts, counts = [texts[i] for i in starts], np.add.reduceat(counts, starts)
    if len(texts) > cfg.max_unique_per_group:
        keep = np.argsort(-counts, kind="stable")[: cfg.max_unique_per_group]
        texts, counts = [texts[i] for i in keep], counts[keep]
    vocab = list(set(chain.from_iterable(texts)))
    hash_of = dict(zip(vocab, hash_tokens(vocab).tolist()))
    n, m = len(texts), len(texts[0])  # a group's logs share their length
    flat = map(hash_of.__getitem__, chain.from_iterable(texts))
    mat = np.fromiter(flat, np.int64, n * m).reshape(n, m)
    rng = np.random.default_rng(_group_seed(group_key))
    return build_tree(mat, counts, texts, cfg.cluster, rng), texts


def _add_tree(model: ParserModel, group_key: str, rows) -> int:
    """Append one group's tree rows (``parent``, ``template``,
    ``saturation``, ``n_logs``; local-index order) as model nodes. Local
    parent ``p`` becomes nid ``root + p``; returns ``root``."""
    root = len(model.nodes)
    for r in rows:
        model.add_node(parent=root + r.parent if r.parent >= 0 else -1, template=tuple(r.template),
                       saturation=r.saturation, n_logs=r.n_logs, group_key=group_key)
    return root


def _assemble(tree_rows: pd.DataFrame) -> ParserModel:
    """Collected Spark tree rows (any order) -> model, groups in key order."""
    model = ParserModel()
    tree_rows = tree_rows.sort_values(["group_key", "idx"])
    for gk, grp in tree_rows.groupby("group_key", sort=False):
        _add_tree(model, gk, grp.itertuples(index=False))
    return model


def train_model(
    spark: SparkSession, df: DataFrame, *, cfg: ParserConfig | None = None
) -> ParserModel:
    """Spark offline training of the ``message`` column: returns the
    template-tree model. One ``mapInPandas`` task per core preprocesses
    and keys its messages, then one shuffle brings each initial group to
    an ``applyInPandas`` task. The "w/ naive match" ablation needs the
    training assignment, which only ``train_model_sequential`` records."""
    cfg = cfg or ParserConfig()
    if cfg.naive_match:
        raise ValueError("naive_match is a sequential-path ablation: use train_model_sequential")

    def preprocess(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        msgs = chain.from_iterable(pdf["message"] for pdf in batches)
        rows = [(gk, list(toks), cnt) for gk, toks, cnt in _keyed_tokens(msgs, cfg)]
        yield pd.DataFrame(rows, columns=["group_key", "tokens", "cnt"])

    def run_group(key: tuple, pdf: pd.DataFrame) -> pd.DataFrame:
        gk = str(key[0])
        texts = [tuple(t) for t in pdf["tokens"]]
        rows = _cluster_group(gk, texts, pdf["cnt"].to_numpy(), cfg)[0]
        # Integer column labels: Spark takes ``_TREE_SCHEMA``'s columns by position.
        return pd.DataFrame(
            [(gk, i, r.parent, list(r.template), r.saturation, r.n_logs)
             for i, r in enumerate(rows)]
        )

    keyed = df.select("message").coalesce(spark.sparkContext.defaultParallelism).mapInPandas(
        preprocess, schema="group_key string, tokens array<string>, cnt long"
    )
    trees = keyed.groupBy("group_key").applyInPandas(run_group, schema=_TREE_SCHEMA)
    return _assemble(trees.toPandas())


def train_model_sequential(
    messages: list[str], cfg: ParserConfig | None = None
) -> ParserModel:
    """Single-threaded training on a message list (*ByteBrain
    Sequential*): identical kernel, no Spark."""
    cfg = cfg or ParserConfig()
    groups: dict[str, tuple[list[tuple[str, ...]], list[int]]] = {}
    for key, toks, cnt in _keyed_tokens(messages, cfg):
        texts, counts = groups.setdefault(key, ([], []))
        texts.append(toks)
        counts.append(cnt)

    model = ParserModel()
    for gk in sorted(groups):
        rows, texts = _cluster_group(gk, *groups[gk], cfg)
        root = _add_tree(model, gk, rows)
        if cfg.naive_match:
            # Deepest node containing each unique log = its training
            # assignment (the "w/ naive match" ablation, §5.4.1). Rows
            # are in preorder, so a log's last node is its deepest.
            for i, r in enumerate(rows):
                for u in r.rows.tolist():
                    model.train_assignment[texts[u]] = root + i
    return model
