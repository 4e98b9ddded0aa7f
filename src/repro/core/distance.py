"""Positional similarity distance (§4.4, Eq. 2).

Eq. 2 combines, per position, the frequency of the log's token within
the cluster (weighted by duplicate counts) and a position-importance
weight ``w_i = 1/(n_i - 1)`` that discounts high-variability positions.
Its value grows with similarity, and the paper assigns each log to the
cluster of "smallest distance (i.e., the highest positional
similarity)" — we therefore treat Eq. 2 as a similarity and assign to
the argmax (DESIGN.md §4). Constant positions (``n_i = 1``) get the
finite cap ``CONST_WEIGHT`` instead of the paper's infinite weight.

The clustering kernel works on per-column factorized codes; a
per-position reference over raw hash matrices lives with the tests,
which assert the two agree.
"""
from __future__ import annotations

import numpy as np

from repro.core.config import ClusterConfig

#: weight of a fully-constant position, whose paper weight 1/(n_i - 1) is
#: infinite (DESIGN.md §4, ``W_CONST``).
CONST_WEIGHT = 2.0


def similarity_matrix_codes(
    codes: np.ndarray,
    vocab: np.ndarray,
    counts: np.ndarray,
    clusters: list[np.ndarray],
    cfg: ClusterConfig,
) -> np.ndarray:
    """(n, k) Eq.-2 similarity over factorized codes.

    ``codes``: (n, m) int32 with ``codes[:, i]`` in [0, vocab[i]);
    ``clusters``: row-index arrays. Each column's codes are offset by
    the cumulative vocabulary so one ``bincount`` per cluster yields
    every position's per-value weights. Positions are summed left to
    right (``cumsum``, not a pairwise ``sum`` or a matmul), so each
    similarity — and every argmax tie it decides — is bit-identical to
    a per-position accumulation.
    """
    n, m = codes.shape
    off = np.zeros(m, dtype=np.int64)
    np.cumsum(vocab[:-1], out=off[1:])
    codes_off = codes + off
    n_vals = int(vocab.sum())
    cnt = counts.astype(np.float64)
    sims = np.empty((n, len(clusters)), dtype=np.float64)
    for j, member in enumerate(clusters):
        w_cnt = cnt[member]
        per_val = np.bincount(
            codes_off[member].ravel(), weights=np.repeat(w_cnt, m), minlength=n_vals
        )
        if cfg.position_importance:
            n_i = np.add.reduceat(per_val > 0, off)
            weights = np.where(n_i <= 1, CONST_WEIGHT, 1.0 / np.maximum(n_i - 1, 1))
        else:
            weights = np.ones(m)
        acc = np.cumsum(per_val[codes_off] * weights, axis=1)[:, -1]
        sims[:, j] = acc / (w_cnt.sum() * weights.sum())
    return sims
