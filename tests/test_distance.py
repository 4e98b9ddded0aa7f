"""Positional similarity distance (§4.4, Eq. 2)."""
import numpy as np
import pytest

from repro.core.cluster import factorize
from repro.core.config import ClusterConfig
from repro.core.distance import similarity_matrix_codes
from repro.core.model import hash_tokens
from tests.kernel_reference import cluster_similarity, similarity_matrix

CFG = ClusterConfig()


def mat_of(rows):
    return np.vstack([hash_tokens(r) for r in rows])


ROWS = [
    ["svc", "get", "u1", "ok"],
    ["svc", "get", "u2", "ok"],
    ["svc", "put", "u3", "fail"],
    ["svc", "del", "u4", "fail"],
]


class TestEq2:
    def test_member_similarity_high(self):
        m = mat_of(ROWS)
        c = np.arange(4)
        sims = cluster_similarity(m, np.ones(4), c, CFG)
        # Every log shares the constant position fully.
        assert (sims > 0).all() and (sims <= 1).all()

    def test_identical_log_max(self):
        m = mat_of([ROWS[0]] * 3 + [ROWS[2]])
        sims = cluster_similarity(m, np.ones(4), np.array([0, 1, 2]), CFG)
        assert sims[0] == pytest.approx(sims[1]) == pytest.approx(1.0)
        assert sims[3] < sims[0]

    def test_range_zero_to_one(self):
        m = mat_of(ROWS)
        sims = cluster_similarity(m, np.ones(4), np.array([0, 1]), CFG)
        assert ((0.0 <= sims) & (sims <= 1.0)).all()

    def test_counts_weighting(self):
        """Duplicate counts shift per-position frequencies."""
        m = mat_of(ROWS[:2] + [ROWS[2]])
        heavy = cluster_similarity(m, np.array([10, 1, 1]), np.arange(3), CFG)
        flat = cluster_similarity(m, np.ones(3), np.arange(3), CFG)
        assert heavy[0] > flat[0]  # row 0 dominates its cluster now

    def test_position_importance_off(self):
        cfg = ClusterConfig(position_importance=False)
        m = mat_of(ROWS)
        a = cluster_similarity(m, np.ones(4), np.arange(4), CFG)
        b = cluster_similarity(m, np.ones(4), np.arange(4), cfg)
        assert not np.allclose(a, b)  # weights change the ordering

    def test_const_weight_caps_infinity(self):
        # A fully-constant position must not produce inf/nan.
        m = mat_of([["a", str(i)] for i in range(5)])
        sims = cluster_similarity(m, np.ones(5), np.arange(5), CFG)
        assert np.isfinite(sims).all()


class TestCodesFastPath:
    @pytest.mark.parametrize("position_importance", [True, False])
    def test_codes_path_matches_reference(self, position_importance):
        cfg = ClusterConfig(position_importance=position_importance)
        rng = np.random.default_rng(3)
        rows = [
            ["s", f"a{rng.integers(3)}", f"b{rng.integers(5)}", f"c{i%2}"]
            for i in range(30)
        ]
        m = mat_of(rows)
        codes, vocab = factorize(m)
        counts = rng.integers(1, 5, len(rows))
        clusters = [np.arange(10), np.arange(10, 30)]
        ref = similarity_matrix(m, counts, clusters, cfg)
        fast = similarity_matrix_codes(codes, vocab, counts, clusters, cfg)
        np.testing.assert_allclose(ref, fast, atol=1e-12)

    def test_factorize_shapes(self):
        m = mat_of(ROWS)
        codes, vocab = factorize(m)
        assert codes.shape == m.shape
        assert vocab.tolist() == [1, 3, 4, 2]
