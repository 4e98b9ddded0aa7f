"""The vectorised kernel statistics equal the per-column references
exactly: node statistics and Eq.-2 similarities feed argmax/argmin tie
breaks, and the independence filter decides which positions count as
resolved, so any difference could change the trained tree."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.cluster import factorize
from repro.core.config import ClusterConfig
from repro.core.distance import similarity_matrix_codes
from repro.core.saturation import _independent, node_stats, resolved_masks, saturation
from tests.kernel_reference import (
    independent_reference,
    node_stats_reference,
    similarity_matrix_codes_reference,
)


@st.composite
def node_matrices(draw):
    """(mat, counts, rows): an int64 hash matrix drawn from a small pool
    of values (negative hashes and duplicate rows included), integer
    duplicate counts, and a non-contiguous subset of its rows. Every
    element is drawn (``fill=st.nothing()``): hypothesis would otherwise
    fill most of an array with one value."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 16))  # >= 8 reaches numpy's pairwise summation
    pool = draw(
        st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=24, unique=True)
    )
    mat = draw(hnp.arrays(np.int64, (n, m), elements=st.sampled_from(pool), fill=st.nothing()))
    if n > 1 and draw(st.booleans()):
        mat[-1] = mat[0]  # duplicate row
    counts = draw(hnp.arrays(np.int64, n, elements=st.integers(1, 1000), fill=st.nothing()))
    rows = np.flatnonzero(draw(hnp.arrays(np.bool_, n, elements=st.booleans(), fill=st.nothing())))
    if not len(rows):
        rows = np.array([n - 1])
    return mat, counts, rows


def assert_stats_equal(got, want):
    assert got[0].tolist() == want[0].tolist()
    assert got[1].tolist() == want[1].tolist()
    assert got[2] == want[2]


@settings(max_examples=200, deadline=None)
@given(node_matrices(), st.booleans())
def test_node_stats_equals_reference_on_hashes(case, weighted):
    mat, counts, rows = case
    cnt = counts[rows] if weighted else None
    assert_stats_equal(node_stats(mat[rows], cnt), node_stats_reference(mat[rows], cnt))


@settings(max_examples=200, deadline=None)
@given(node_matrices())
def test_node_stats_equals_reference_on_codes(case):
    mat, counts, rows = case
    codes, _ = factorize(mat)
    sub = codes[rows]
    assert_stats_equal(node_stats(sub, counts[rows]), node_stats_reference(sub, counts[rows]))
    # Codes and hashes give the same distinctness-based statistics.
    assert_stats_equal(node_stats(sub, counts[rows]), node_stats(mat[rows], counts[rows]))


@settings(max_examples=200, deadline=None)
@given(
    node_matrices(),
    st.integers(1, 4),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_similarity_matrix_codes_equals_reference(case, k, importance, rnd):
    mat, counts, rows = case
    cfg = ClusterConfig(position_importance=importance)
    codes, vocab = factorize(mat)
    sub, cnt = codes[rows], counts[rows]
    # k clusters over the node's relative rows; empty ones are dropped,
    # as split_node does, and a cluster may be a single log.
    labels = [rnd.randrange(k) for _ in range(len(rows))]
    clusters = [np.flatnonzero(np.array(labels) == j) for j in range(k)]
    clusters = [c for c in clusters if len(c)]
    got = similarity_matrix_codes(sub, vocab, cnt, clusters, cfg)
    want = similarity_matrix_codes_reference(sub, vocab, cnt, clusters, cfg)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def independence_cases(draw):
    """(mat, nu, cand, beta, chunk) for the independence filter: a node
    matrix, its distinct counts, 0–12 candidate positions and a pair-key
    chunk small enough that the candidate pairs cross chunk boundaries."""
    mat, counts, rows = draw(node_matrices())
    sub = mat[rows]
    if draw(st.booleans()):
        sub = factorize(sub)[0]  # code matrix
    m = sub.shape[1]
    cand = np.array(
        sorted(draw(st.sets(st.integers(0, m - 1), max_size=min(m, 12)))), dtype=np.int64
    )
    beta = draw(st.sampled_from([0.0, 0.3, 0.6, 1.0, 1.5]))
    chunk = draw(st.integers(1, 3 * len(sub)))
    return sub, node_stats(sub)[0], cand, beta, chunk


@settings(max_examples=300, deadline=None)
@given(independence_cases())
def test_independent_equals_reference(case):
    mat, nu, cand, beta, chunk = case
    want = independent_reference(mat, nu, cand, beta)
    assert _independent(mat, nu, cand, beta, chunk).tolist() == want.tolist()
    assert _independent(mat, nu, cand, beta).tolist() == want.tolist()


@settings(max_examples=200, deadline=None)
@given(node_matrices(), st.booleans(), st.booleans())
def test_saturation_with_stats_and_masks_equals_saturation(case, credit, confidence):
    mat, counts, rows = case
    cfg = ClusterConfig(variable_credit=credit, confidence_factor=confidence)
    sub, cnt = mat[rows], counts[rows]
    stats = node_stats(sub, cnt)
    masks = resolved_masks(sub, cfg, cnt, stats)
    assert saturation(sub, cfg, cnt, stats=stats, masks=masks) == saturation(sub, cfg, cnt)
