"""Per-column reference implementations of the clustering kernel's
statistics, kept for tests only: the vectorised kernel in
``repro.core`` must reproduce them exactly (``==``, not ``isclose``).
"""
from __future__ import annotations

import numpy as np

from repro.core.config import ClusterConfig
from repro.core.distance import CONST_WEIGHT
from repro.core.saturation import _PAIR_MIX


def node_stats_reference(
    mat: np.ndarray, counts: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """``saturation.node_stats`` one column at a time via ``np.unique``."""
    n, m = mat.shape
    w = np.ones(n) if counts is None else counts.astype(np.float64)
    nu = np.empty(m, dtype=np.int64)
    topc = np.empty(m, dtype=np.float64)
    for i in range(m):
        _, inv = np.unique(mat[:, i], return_inverse=True)
        per_val = np.bincount(inv, weights=w)
        nu[i] = len(per_val)
        topc[i] = per_val.max()
    return nu, topc, float(w.sum())


def independent_reference(
    mat: np.ndarray, nu: np.ndarray, cand: np.ndarray, beta: float
) -> np.ndarray:
    """``saturation._independent`` one candidate pair at a time, counting
    each pair's distinct keys with ``np.unique``."""
    n = mat.shape[0]
    k = len(cand)
    ok = np.ones(k, dtype=bool)
    cols = [mat[:, int(i)].astype(np.int64) for i in cand]
    for a in range(k):
        for b in range(a + 1, k):
            d = len(np.unique(cols[a] * _PAIR_MIX + cols[b]))
            if d < beta * min(n, int(nu[cand[a]]) * int(nu[cand[b]])):
                ok[a] = ok[b] = False
    return ok


def cluster_similarity(
    mat: np.ndarray,
    counts: np.ndarray,
    member_idx: np.ndarray,
    cfg: ClusterConfig,
) -> np.ndarray:
    """Eq.-2 similarity of every log in ``mat`` to one cluster.

    ``mat`` is the node's (n, m) hash matrix, ``counts`` the duplicate
    count per unique log, ``member_idx`` the rows currently in the
    cluster. Returns a length-n float array in [0, 1].
    """
    n, m = mat.shape
    sub = mat[member_idx]
    w_cnt = counts[member_idx].astype(np.float64)
    total = w_cnt.sum()
    weights = np.zeros(m, dtype=np.float64)
    freqs = np.zeros((n, m), dtype=np.float64)
    for i in range(m):
        vals, inv = np.unique(sub[:, i], return_inverse=True)
        per_val = np.bincount(inv, weights=w_cnt)
        n_i = len(vals)
        if cfg.position_importance:
            weights[i] = CONST_WEIGHT if n_i <= 1 else 1.0 / (n_i - 1)
        else:
            weights[i] = 1.0
        # f_i(L, C): frequency of L's token at position i within C.
        pos = np.clip(np.searchsorted(vals, mat[:, i]), 0, n_i - 1)
        hit = vals[pos] == mat[:, i]
        freqs[:, i] = np.where(hit, per_val[pos], 0.0) / total
    wsum = weights.sum()
    return freqs @ weights / wsum if wsum > 0 else np.zeros(n)


def similarity_matrix(
    mat: np.ndarray,
    counts: np.ndarray,
    clusters: list[np.ndarray],
    cfg: ClusterConfig,
) -> np.ndarray:
    """(n, k) similarity of every log to every cluster (hash matrix)."""
    return np.column_stack(
        [cluster_similarity(mat, counts, c, cfg) for c in clusters]
    )


def similarity_matrix_codes_reference(
    codes: np.ndarray,
    vocab: np.ndarray,
    counts: np.ndarray,
    clusters: list[np.ndarray],
    cfg: ClusterConfig,
) -> np.ndarray:
    """``distance.similarity_matrix_codes`` with one ``bincount`` per
    (cluster, position) and a left-to-right accumulation over positions."""
    n, m = codes.shape
    sims = np.empty((n, len(clusters)), dtype=np.float64)
    for j, member in enumerate(clusters):
        w_cnt = counts[member].astype(np.float64)
        weights = np.empty(m, dtype=np.float64)
        acc = np.zeros(n, dtype=np.float64)
        sub = codes[member]
        for i in range(m):
            per_val = np.bincount(sub[:, i], weights=w_cnt, minlength=int(vocab[i]))
            n_i = int(np.count_nonzero(per_val))
            if cfg.position_importance:
                weights[i] = CONST_WEIGHT if n_i <= 1 else 1.0 / (n_i - 1)
            else:
                weights[i] = 1.0
            acc += weights[i] * per_val[codes[:, i]]
        sims[:, j] = acc / (w_cnt.sum() * weights.sum())
    return sims
