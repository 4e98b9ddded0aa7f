"""Hierarchical clustering (§4.3) and the single clustering process (§4.4).

One *single clustering process* splits a node's unique logs into ≥2
clusters with a K-Means-like loop over the Eq.-2 positional similarity:
K-Means++-style seeding (random first centre, farthest log second),
iterative reassignment with balanced tie-breaking (§4.6), and cluster
injection whenever a converged cluster fails to improve the parent's
saturation (§4.4 "ensure saturation increase"). Early-stop shortcuts
(§4.7) skip the loop entirely for trivial nodes.

For speed the kernel factorizes the group's hash matrix once into
per-column integer codes, and the saturation statistics operate on the
code matrix directly (hashes and codes give identical distinctness-based
results, asserted in tests). Each multi-log row set is evaluated once
per ``build_tree`` call by one memoized ``evaluate``: its statistics
(``node_stats``: one sort and one ``bincount`` over all columns), its
resolved masks (``resolved_masks``) and its saturation. ``build_tree``
reads it for every multi-log node, ``split_node`` for its early stops
and for the ensure-saturation-increase check, so a cluster that check
scored is not scored again when it becomes a child. A one-log node is
saturated by definition (s = 1, its template is its log) and becomes a
leaf without statistics. Eq. 2 takes one ``bincount`` per cluster over
vocabulary-offset codes and sums positions left to right, so every
similarity, and hence every tie-break, is bit-identical to a
per-position loop and trained models stay byte-identical.

``build_tree`` applies the process recursively until every node reaches
the saturation target, producing the template tree rows that
``ParserModel`` assembles.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.config import ClusterConfig
from repro.core.distance import similarity_matrix_codes
from repro.core.saturation import node_stats, resolved_masks, saturation
from repro.core.tokenizer import WILDCARD

_EPS = 1e-12
#: a node at or above this saturation is not split further.
SAT_TARGET = 1.0 - 1e-9
#: reassignment rounds of one single clustering process.
MAX_ITERS = 12
#: cap on the clusters of one split (a safety bound; the paper's bound is
#: the number of token positions).
MAX_CLUSTERS = 64

Stats = tuple[np.ndarray, np.ndarray, float]
Masks = tuple[np.ndarray, np.ndarray]
#: (node_stats, resolved_masks, raw saturation) of a multi-log row set
NodeEval = tuple[Stats, Masks, float]


def factorize(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hash matrix -> (codes, vocab): per-column dense integer codes."""
    n, m = mat.shape
    codes = np.empty((n, m), dtype=np.int32)
    vocab = np.empty(m, dtype=np.int64)
    for i in range(m):
        vals, inv = np.unique(mat[:, i], return_inverse=True)
        codes[:, i] = inv
        vocab[i] = len(vals)
    return codes, vocab


def _assign(sims: np.ndarray, rng: np.random.Generator, balanced: bool) -> np.ndarray:
    """Cluster index per log: argmax similarity, ties broken uniformly
    at random when ``balanced`` (§4.6), else first-cluster-wins."""
    mx = sims.max(axis=1, keepdims=True)
    ties = sims >= mx - _EPS
    if not balanced:
        return ties.argmax(axis=1)
    noise = rng.random(sims.shape)
    return np.where(ties, noise, -1.0).argmax(axis=1)


def _early_split(
    codes: np.ndarray, rows: np.ndarray, stats: Stats, masks: Masks
) -> list[np.ndarray] | None:
    """§4.7 early stops, on node-relative indices. Returns a partition
    (list of relative row-index arrays) or None when the full clustering
    process is required."""
    n = len(rows)
    if n == 2:
        return [np.array([0]), np.array([1])]
    nu = stats[0]
    const, var = masks
    unresolved = np.flatnonzero(~(const | var))
    if len(unresolved) == 1:
        # Single unresolved position: split directly by its values.
        # Children ordered by first row so the split is independent of
        # the hash function's value ordering.
        p = int(unresolved[0])
        vals, inv = np.unique(codes[rows, p], return_inverse=True)
        if len(vals) < 2:
            return None
        children = [np.flatnonzero(inv == j) for j in range(len(vals))]
        return sorted(children, key=lambda c: int(c[0]))
    if len(unresolved) > 1 and bool((nu[unresolved] >= n).all()):
        # Completely distinct unresolved positions: each log separate.
        return [np.array([i]) for i in range(n)]
    return None


def split_node(
    codes: np.ndarray,
    vocab: np.ndarray,
    counts: np.ndarray,
    rows: np.ndarray,
    parent_sat: float,
    cfg: ClusterConfig,
    rng: np.random.Generator,
    evaluate: Callable[[np.ndarray], NodeEval],
) -> list[np.ndarray] | None:
    """One single clustering process on the multi-log node ``rows``.

    ``evaluate(rows)`` returns the ``NodeEval`` of a multi-log row set
    (memoized by ``build_tree``): the early stops read the node's own,
    the ensure-saturation-increase check the saturation of every
    converged multi-log cluster. Returns the partition as absolute
    row-index arrays, or None when the node cannot (or need not) be
    split further.
    """
    n = len(rows)
    if cfg.early_stop:
        stats, masks, _ = evaluate(rows)
        early = _early_split(codes, rows, stats, masks)
        if early is not None:
            return [rows[c] for c in early] if len(early) > 1 else None

    sub = codes[rows]
    cnt = counts[rows].astype(np.float64)

    def sims_for(clusters: list[np.ndarray]) -> np.ndarray:
        return similarity_matrix_codes(sub, vocab, counts[rows], clusters, cfg)

    # --- K-Means++-like seeding (§4.4) -------------------------------
    if cfg.kmeanspp:
        c0 = int(rng.choice(n, p=cnt / cnt.sum()))
        s0 = sims_for([np.array([c0])])[:, 0]
        s0[c0] = np.inf
        c1 = int(s0.argmin())
    else:
        c0, c1 = map(int, rng.choice(n, size=2, replace=False))
    clusters = [np.array([c0]), np.array([c1])]

    prev_assign: np.ndarray | None = None
    sims = sims_for(clusters)
    for it in range(MAX_ITERS):
        assign = _assign(sims, rng, cfg.balanced)
        clusters = [c for j in range(sims.shape[1]) if len(c := np.flatnonzero(assign == j))]
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            # No injection in the last round: without a reassignment after
            # it, the injected log would also stay in its old cluster.
            if (not cfg.ensure_sat_increase or len(clusters) >= min(n, MAX_CLUSTERS)
                    or it + 1 == MAX_ITERS):
                break
            # Converged: inject a new cluster if some multi-log cluster
            # failed to improve on the parent's saturation (§4.4).
            bad = [c for c in clusters if len(c) > 1 and evaluate(rows[c])[2] <= parent_sat + _EPS]
            if not bad:
                break
            pool = np.concatenate(bad)
            if cfg.kmeanspp:
                worst = pool[sims[pool].max(axis=1).argmin()]
            else:
                worst = rng.choice(pool)
            clusters.append(np.array([int(worst)]))
            prev_assign = None  # force another reassignment round
        else:
            prev_assign = assign
        sims = sims_for(clusters)
    if len(clusters) < 2:
        return None
    # Deterministic child order regardless of centroid history.
    return [rows[c] for c in sorted(clusters, key=lambda c: int(c[0]))]


@dataclass
class TreeRow:
    """One clustering-tree node produced by ``build_tree``."""

    parent: int  # index in ``build_tree``'s list; -1 for the group root
    template: tuple[str, ...]
    saturation: float
    n_logs: int
    rows: np.ndarray  # unique-log indices (training assignment)


def build_tree(
    mat: np.ndarray,
    counts: np.ndarray,
    texts: list[tuple[str, ...]],
    cfg: ClusterConfig,
    rng: np.random.Generator,
) -> list[TreeRow]:
    """Hierarchically cluster one initial group into a template tree.

    ``mat``: (n_unique, m) hash matrix; ``counts``: duplicate count per
    unique log; ``texts``: token strings per unique log (for template
    rendering). Node saturations are clamped to be non-decreasing along
    root→leaf paths so query-time ancestor walks are well-defined.
    """
    codes, vocab = factorize(mat)
    evaluated: dict[bytes, NodeEval] = {}

    def evaluate(rows: np.ndarray) -> NodeEval:
        """``NodeEval`` of a multi-log row set, computed once per tree."""
        key = rows.tobytes()
        if key not in evaluated:
            sub, cnt = codes[rows], counts[rows]
            stats = node_stats(sub, cnt)
            masks = resolved_masks(sub, cfg, cnt, stats)
            evaluated[key] = stats, masks, saturation(sub, cfg, cnt, stats=stats, masks=masks)
        return evaluated[key]

    out: list[TreeRow] = []
    stack: list[tuple[np.ndarray, int]] = [(np.arange(mat.shape[0]), -1)]
    while stack:
        rows, parent = stack.pop()
        n_logs = int(counts[rows].sum())
        if len(rows) == 1:
            # Saturated by definition (s = 1): the log is its own template.
            out.append(TreeRow(parent, texts[int(rows[0])], 1.0, n_logs, rows))
            continue
        (nu, _, _), _, sat = evaluate(rows)
        if parent >= 0:
            sat = max(sat, out[parent].saturation)  # monotone down the tree
        first = texts[int(rows[0])]
        template = tuple(first[i] if nu[i] == 1 else WILDCARD for i in range(len(nu)))
        idx = len(out)
        out.append(TreeRow(parent, template, float(sat), n_logs, rows))
        if sat >= SAT_TARGET:
            continue
        children = split_node(codes, vocab, counts, rows, sat, cfg, rng, evaluate)
        if children is not None:
            stack.extend((child, idx) for child in children)
    return out
