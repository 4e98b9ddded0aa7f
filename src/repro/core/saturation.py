"""Saturation score (§4.5, Eq. 3).

Saturation measures how fully the token positions of a node's logs are
resolved into constants or variables, and it terminates hierarchical
clustering. Implementation notes (DESIGN.md §4):

* a position is resolved when all its tokens are identical (constant)
  or when it is a *likely variable*. Likely variables must (a) have ≥3
  distinct tokens, (b) be near-uniform in true (duplicate-weighted) log
  frequency — a template mixture is skewed by the Zipf law of template
  frequencies — and (c) be pairwise independent of every other
  candidate position: mixture "constants" are structurally correlated
  across positions (the paper's Fig.-5 Set-2 discussion), while genuine
  variables vary freely. A fully-distinct position over otherwise
  constant logs (Set 1) passes all three and yields saturation 1;
* resolved positions play the role of ``m_c`` in ``f_c`` and ``p_c``;
* ``f_v`` follows the printed formula, clamped into [0, 1].

All entry points take an ``(n, m)`` integer matrix for the node's
*unique* logs — raw 64-bit hashes or factorized codes give identical
results, since every statistic is distinctness/count based — plus the
optional duplicate multiplicities. ``resolved_masks`` and ``saturation``
accept the node's ``node_stats`` (and ``saturation`` its masks) when the
caller already has them, so the clustering kernel evaluates each tree
node once. The independence filter counts the distinct pairs of every
candidate pair with one row-wise sort of their pair keys.
"""
from __future__ import annotations

import math

import numpy as np

from repro.core.config import ClusterConfig

#: multiplier for combining two code columns into pair keys; an odd
#: constant keeps the map injective-in-practice under int64 wraparound.
_PAIR_MIX = np.int64(-0x61C8864680B583EB)  # 0x9E3779B97F4A7C15 as signed

#: pair-key elements sorted at once by ``_independent`` (4 MiB of int64)
_PAIR_CHUNK = 1 << 19

# Bounds of the likely-variable test in ``resolved_masks`` (DESIGN.md §4).
#: a candidate's top value covers at most ``VARIABLE_UNIFORMITY * n / n_u``
#: logs: near-uniform like a free variable, not a Zipf-skewed mixture.
VARIABLE_UNIFORMITY = 3.0
#: ... and at most this share of the node (the relative bound is vacuous
#: when n_u <= VARIABLE_UNIFORMITY): a dominated position is an enum.
VARIABLE_MAX_SHARE = 0.5
#: two candidates must form at least ``VARIABLE_INDEPENDENCE *
#: min(n_unique, n_i * n_j)`` distinct value pairs, else they are
#: structurally correlated (a template mixture) and neither is credited.
VARIABLE_INDEPENDENCE = 0.6


def node_stats(
    mat: np.ndarray, counts: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-position (distinct count, top-value weighted count) plus the
    duplicate-weighted log total for a node matrix.

    One pass over all columns: a stable sort of every column turns each
    distinct value into a run, ``nu`` counts run starts per column and a
    single ``bincount`` over column-major run ids sums each value's
    weights. Weights are integer counts, so the float sums are exact and
    equal to a per-column ``np.unique`` + ``bincount``.
    """
    n, m = mat.shape
    w = np.ones(n) if counts is None else counts.astype(np.float64)
    cols = mat.T
    order = np.argsort(cols, axis=1, kind="stable")
    srt = cols[np.arange(m)[:, None], order]
    starts = np.empty((m, n), dtype=bool)
    starts[:, 0] = True
    np.not_equal(srt[:, 1:], srt[:, :-1], out=starts[:, 1:])
    run = np.cumsum(starts.ravel()) - 1
    per_val = np.bincount(run, weights=w[order].ravel())
    return starts.sum(axis=1), np.maximum.reduceat(per_val, run[::n]), float(w.sum())


def _independent(
    mat: np.ndarray, nu: np.ndarray, cand: np.ndarray, beta: float, chunk: int = _PAIR_CHUNK
) -> np.ndarray:
    """Pairwise-independence filter over candidate positions.

    Returns a boolean mask over ``cand``: a candidate survives only if,
    against every other candidate, the observed distinct-pair count
    reaches ``beta * min(n_unique, n_i * n_j)`` — correlated mixture
    columns produce far fewer distinct pairs than independent variables.

    Each candidate pair's rows are combined into one int64 key per row
    (``a * _PAIR_MIX + b``, wrapping); the keys of up to ``chunk``
    elements' worth of pairs are sorted along the row axis at once and
    their distinct counts are the run starts.
    """
    n = mat.shape[0]
    ok = np.ones(len(cand), dtype=bool)
    a, b = np.triu_indices(len(cand), 1)
    cols = mat[:, cand].T.astype(np.int64)
    nu_c = nu[cand].astype(np.int64)
    need = beta * np.minimum(n, nu_c[a] * nu_c[b])
    step = max(1, chunk // n)
    for lo in range(0, len(a), step):
        pa, pb = a[lo : lo + step], b[lo : lo + step]
        keys = cols[pa] * _PAIR_MIX + cols[pb]
        keys.sort(axis=1)
        distinct = 1 + np.count_nonzero(keys[:, 1:] != keys[:, :-1], axis=1)
        bad = distinct < need[lo : lo + step]
        ok[pa[bad]] = ok[pb[bad]] = False
    return ok


def resolved_masks(
    mat: np.ndarray,
    cfg: ClusterConfig,
    counts: np.ndarray | None = None,
    stats: tuple[np.ndarray, np.ndarray, float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(constant_mask, likely_variable_mask) per position."""
    nu, topc, n_w = node_stats(mat, counts) if stats is None else stats
    const = nu == 1
    m = len(nu)
    if not cfg.variable_credit or n_w <= 1:
        return const, np.zeros(m, dtype=bool)
    bound = np.minimum(
        np.ceil(VARIABLE_UNIFORMITY * n_w / np.maximum(nu, 1)),
        np.maximum(1.0, VARIABLE_MAX_SHARE * n_w),
    )
    # A binary position is indistinguishable from a two-template
    # mixture by these statistics, hence the >=3 floor.
    cand = np.flatnonzero((~const) & (nu >= 3) & (topc <= bound))
    var = np.zeros(m, dtype=bool)
    if len(cand):
        var[cand[_independent(mat, nu, cand, VARIABLE_INDEPENDENCE)]] = True
    return const, var


def saturation(
    mat: np.ndarray,
    cfg: ClusterConfig,
    counts: np.ndarray | None = None,
    stats: tuple[np.ndarray, np.ndarray, float] | None = None,
    masks: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Eq. 3 with resolved-variable credit; 1.0 for singletons and for
    fully-resolved nodes, strictly below 1.0 otherwise. ``stats`` and
    ``masks`` are the node's ``node_stats`` and ``resolved_masks`` when
    the caller already has them."""
    m = mat.shape[1]
    if stats is None:
        stats = node_stats(mat, counts)
    nu, _topc, n_w = stats
    const, var = resolved_masks(mat, cfg, counts, stats) if masks is None else masks
    m_r = int(const.sum() + var.sum())
    if m_r == m:
        return 1.0
    f_c = m_r / m
    if not cfg.variable_credit:
        # Ablation "w/o variable in saturation": s(C) = f_c.
        return f_c
    unresolved = ~(const | var)
    log_n = math.log(max(n_w, 2.0))
    f_v = min(
        min(max((math.log(int(u)) - 1.0) / log_n, 0.0), 1.0)
        for u in nu[unresolved]
    )
    if not cfg.confidence_factor:
        # Ablation "w/o confidence factor": s(C) = f_v * f_c.
        return f_v * f_c
    p_c = 1.0 / (2 * m - m_r - 1)
    return (f_v * p_c + (1.0 - p_c)) * f_c
