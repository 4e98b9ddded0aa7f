"""Offline training (§3, §4): Spark job + sequential reference path.

The Spark path is pure Catalyst up to the clustering kernel: variable
replacement (`regexp_replace` chain), tokenization (`split`), dedup
(`groupBy` on the token array), hash encoding (`transform(tokens,
xxhash64)` — Catalyst's native 64-bit hash, §4.1.4) and initial-group
keys (§4.2). Each initial group is then clustered independently inside
``applyInPandas`` — the paper's "hierarchical clustering can be
performed concurrently for each group". The sequential path runs the
identical kernel single-threaded (the paper's *ByteBrain Sequential*)
and is asserted to produce the same template bank in tests.
"""
from __future__ import annotations

import zlib
from collections import Counter
from collections.abc import Collection

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.cluster import TreeRow, build_tree
from repro.core.config import ParserConfig
from repro.core.model import ParserModel, hash_tokens, _SEP
from repro.core.tokenizer import preprocess_message, spark_replace_variables, spark_tokenize

_TREE_SCHEMA = (
    "group_key string, idx long, parent long, template string, "
    "saturation double, n_logs long, n_unique long, depth long"
)


def _group_seed(group_key: str) -> int:
    """Seed of one group's clustering RNG: the same on both paths."""
    return zlib.crc32(group_key.encode()) & 0x7FFFFFFF


def _canonicalize(mat, counts, texts, cfg: ParserConfig):
    """Canonical row order + OOM sampling guard.

    The Spark path delivers unique logs in shuffle order, the sequential
    path in insertion order; sorting by token text makes the two paths
    (and any hash function) produce bit-identical trees. Oversized
    groups keep their most frequent unique logs (the paper's random-
    sampling guard, deterministic here).
    """
    order = sorted(range(len(mat)), key=lambda i: texts[i])
    mat, counts = mat[order], counts[order]
    texts = [texts[i] for i in order]
    if len(mat) > cfg.max_unique_per_group:
        keep = np.argsort(-counts, kind="stable")[: cfg.max_unique_per_group]
        mat, counts = mat[keep], counts[keep]
        texts = [texts[i] for i in keep]
    return mat, counts, texts


def _cluster_group(
    group_key: str,
    mat: np.ndarray,
    counts: np.ndarray,
    texts: list[tuple[str, ...]],
    cfg: ParserConfig,
) -> tuple[list[TreeRow], list[tuple[str, ...]]]:
    """Cluster one initial group; returns its tree rows and the
    canonically ordered texts their ``rows`` index into."""
    mat, counts, texts = _canonicalize(mat, counts, texts, cfg)
    rng = np.random.default_rng(_group_seed(group_key))
    return build_tree(mat, counts, texts, cfg.cluster, rng), texts


def _tree_frame(group_key: str, rows: list[TreeRow]) -> pd.DataFrame:
    """Tree rows of one group as a pandas frame (``_TREE_SCHEMA``)."""
    return pd.DataFrame(
        {
            "group_key": group_key,
            "idx": [r.idx for r in rows],
            "parent": [r.parent for r in rows],
            "template": [_SEP.join(r.template) for r in rows],
            "saturation": [r.saturation for r in rows],
            "n_logs": [r.n_logs for r in rows],
            "n_unique": [r.n_unique for r in rows],
            "depth": [r.depth for r in rows],
        }
    )


def _assemble(model: ParserModel, tree_rows: pd.DataFrame) -> ParserModel:
    """Tree rows (any group order) -> model nodes with global ids."""
    if tree_rows.empty:
        return model
    for gk, grp in tree_rows.groupby("group_key", sort=True):
        grp = grp.sort_values("idx")
        local_to_global: dict[int, int] = {}
        for row in grp.itertuples(index=False):
            node = model.add_node(
                parent=local_to_global.get(int(row.parent), -1) if row.parent >= 0 else -1,
                template=tuple(row.template.split(_SEP)),
                saturation=float(row.saturation),
                n_logs=int(row.n_logs),
                depth=int(row.depth),
                group_key=str(gk),
            )
            local_to_global[int(row.idx)] = node.nid
    return model


def preprocess_df(df: DataFrame, col: str) -> DataFrame:
    """Catalyst preprocessing: variable replacement + tokenization."""
    out = df.withColumn("tokens", spark_tokenize(spark_replace_variables(F.col(col))))
    return out.withColumn("n_tokens", F.size("tokens")).filter(F.col("n_tokens") > 0)


def group_key_col(cfg: ParserConfig):
    """Initial-grouping key (§4.2): token count + k-prefix tokens, the
    same text as ``train_model_sequential``'s key (it seeds the group's
    clustering RNG)."""
    key = F.col("n_tokens").cast("string")
    if cfg.prefix_k > 0:
        key = F.concat_ws("|", key, F.concat_ws("|", F.slice("tokens", 1, cfg.prefix_k)))
    return key


def train_model(
    spark: SparkSession, df: DataFrame, *, col: str = "message", cfg: ParserConfig | None = None
) -> ParserModel:
    """Spark offline training: returns the template-tree model. The
    "w/ naive match" ablation needs the training assignment, which only
    ``train_model_sequential`` records."""
    cfg = cfg or ParserConfig()
    if cfg.naive_match:
        raise ValueError("naive_match is a sequential-path ablation: use train_model_sequential")
    pre = preprocess_df(df, col)
    if cfg.dedup:
        uniq = pre.groupBy("tokens", "n_tokens").agg(F.count(F.lit(1)).alias("cnt"))
    else:
        uniq = pre.select("tokens", "n_tokens").withColumn("cnt", F.lit(1))
    uniq = uniq.withColumn("hashes", F.transform("tokens", lambda t: F.xxhash64(t)))
    uniq = uniq.withColumn("group_key", group_key_col(cfg))

    def run_group(key: tuple, pdf: pd.DataFrame) -> pd.DataFrame:
        mat = np.array([np.asarray(h, dtype=np.int64) for h in pdf["hashes"]], dtype=np.int64)
        counts = pdf["cnt"].to_numpy(dtype=np.int64)
        texts = [tuple(t) for t in pdf["tokens"]]
        return _tree_frame(str(key[0]), _cluster_group(str(key[0]), mat, counts, texts, cfg)[0])

    tree_rows = (
        uniq.groupBy("group_key")
        .applyInPandas(run_group, schema=_TREE_SCHEMA)
        .toPandas()
    )
    return _assemble(ParserModel(), tree_rows)


def train_model_sequential(
    messages: list[str], cfg: ParserConfig | None = None
) -> ParserModel:
    """Single-threaded training on a message list (*ByteBrain
    Sequential*): identical kernel, no Spark."""
    cfg = cfg or ParserConfig()
    entries: Collection[tuple[tuple[str, ...], int]]
    if cfg.dedup:
        # Each distinct raw message is preprocessed once and adds its
        # count to its token tuple (messages that differ only in a
        # replaced variable share one).
        counts_by_tokens: dict[tuple[str, ...], int] = {}
        for msg, cnt in Counter(messages).items():
            toks = tuple(preprocess_message(msg))
            if toks:
                counts_by_tokens[toks] = counts_by_tokens.get(toks, 0) + cnt
        entries = counts_by_tokens.items()
    else:
        # "w/o dedup" ablation (§5.4.3): every log is preprocessed and
        # clustered as its own row.
        entries = [
            (toks, 1)
            for msg in messages
            if (toks := tuple(preprocess_message(msg)))
        ]
    # One blake2b hash per distinct token of the call.
    vocab = list({t for toks, _ in entries for t in toks})
    hash_of = dict(zip(vocab, hash_tokens(vocab).tolist()))
    groups: dict[str, list[tuple[tuple[str, ...], int]]] = {}
    for toks, cnt in entries:
        key = str(len(toks))
        if cfg.prefix_k > 0:
            key += "|" + "|".join(toks[: cfg.prefix_k])
        groups.setdefault(key, []).append((toks, cnt))

    model = ParserModel()
    frames = []
    assignment: dict[str, tuple[str, int]] = {}
    for gk in sorted(groups):
        texts = [t for t, _ in groups[gk]]
        mat = np.array([[hash_of[t] for t in toks] for toks in texts], dtype=np.int64)
        counts = np.array([c for _, c in groups[gk]], dtype=np.int64)
        rows, ctexts = _cluster_group(gk, mat, counts, texts, cfg)
        frames.append(_tree_frame(gk, rows))
        if cfg.naive_match:
            # Deepest node containing each unique log = its training
            # assignment (the "w/ naive match" ablation, §5.4.1).
            deepest: dict[int, tuple[int, int]] = {}
            for r in rows:
                for u in r.rows:
                    cur = deepest.get(int(u))
                    if cur is None or r.depth >= cur[0]:
                        deepest[int(u)] = (r.depth, r.idx)
            for u, (_, local_idx) in deepest.items():
                assignment[_SEP.join(ctexts[u])] = (gk, local_idx)
    _assemble(model, pd.concat(frames, ignore_index=True) if frames else pd.DataFrame())
    if cfg.naive_match and assignment:
        # Map (group, local idx) -> global nid.
        key_of: dict[tuple[str, int], int] = {}
        per_group_counter: dict[str, int] = {}
        for nd in model.nodes:
            local = per_group_counter.get(nd.group_key, 0)
            key_of[(nd.group_key, local)] = nd.nid
            per_group_counter[nd.group_key] = local + 1
        model.train_assignment = {
            text: key_of[(gk, local)] for text, (gk, local) in assignment.items()
        }
    return model
