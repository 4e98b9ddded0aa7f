"""Saturation score (§4.5) — formula properties and paper examples."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ClusterConfig
from repro.core.model import hash_tokens
from repro.core.saturation import node_stats, resolved_masks, saturation

CFG = ClusterConfig()


def mat_of(rows):
    return np.vstack([hash_tokens(r) for r in rows])


SET1 = [
    "UserService createUser token abc123 success".split(),
    "UserService createUser token xyz789 success".split(),
    "UserService createUser token def456 success".split(),
]
SET2 = [
    "UserService createUser token abc123 success".split(),
    "UserService deleteUser token xyz789 failed".split(),
    "UserService queryUser token def456 success".split(),
]


class TestPaperExamples:
    def test_set1_fully_saturated(self):
        """Fig. 5 Set 1: the fully-distinct token position is a likely
        variable, so the node needs no further splits (s = 1)."""
        assert saturation(mat_of(SET1), CFG) == 1.0

    def test_set2_not_saturated(self):
        """Fig. 5 Set 2: variability across action/status positions
        keeps the node unsaturated."""
        s = saturation(mat_of(SET2), CFG)
        assert 0.0 < s < 1.0

    def test_singleton_is_one(self):
        assert saturation(mat_of([SET2[0]]), CFG) == 1.0

    def test_all_constant_is_one(self):
        assert saturation(mat_of([SET1[0]] * 4), CFG) == 1.0


class TestResolvedMasks:
    def test_constants_detected(self):
        const, var = resolved_masks(mat_of(SET1), CFG)
        assert const.tolist() == [True, True, True, False, True]

    def test_fully_distinct_is_variable(self):
        _, var = resolved_masks(mat_of(SET1), CFG)
        assert var.tolist() == [False, False, False, True, False]

    def test_binary_position_never_variable(self):
        rows = [["a", x, str(i)] for i, x in enumerate(["u", "v"] * 3)]
        _, var = resolved_masks(mat_of(rows), CFG)
        assert not var[1]

    def test_skewed_position_not_variable(self):
        """A dominant value (template mixture / skewed enum) fails the
        top-share cap even with >=3 distinct tokens."""
        rows = [["a", "dom", str(i)] for i in range(8)]
        rows += [["a", "x", "90"], ["a", "y", "91"], ["a", "z", "92"]]
        _, var = resolved_masks(mat_of(rows), CFG)
        assert not var[1]

    def test_correlated_positions_not_variable(self):
        """Two positions that always co-vary (mixture constants) fail
        the pairwise-independence test."""
        pairs = [("alpha", "one"), ("beta", "two"), ("gamma", "three"), ("delta", "four")]
        rows = [["svc", a, b] for a, b in pairs for _ in range(3)]
        # Make rows unique via a 4th fully-distinct column.
        rows = [r + [f"id{i}"] for i, r in enumerate(rows)]
        _, var = resolved_masks(mat_of(rows), CFG)
        assert not var[1] and not var[2]
        assert var[3]  # the id column itself is a clean variable

    def test_independent_positions_are_variables(self):
        rng = np.random.default_rng(0)
        rows = [
            ["svc", f"u{rng.integers(8)}", f"k{rng.integers(8)}", f"id{i}"]
            for i in range(60)
        ]
        _, var = resolved_masks(mat_of(rows), CFG)
        assert var[1] and var[2] and var[3]

    def test_variable_credit_off(self):
        cfg = ClusterConfig(variable_credit=False)
        _, var = resolved_masks(mat_of(SET1), cfg)
        assert not var.any()


class TestAblationFormulas:
    def test_without_variable_credit_is_fc(self):
        cfg = ClusterConfig(variable_credit=False)
        s = saturation(mat_of(SET1), cfg)
        assert s == pytest.approx(4 / 5)  # m_c/m

    def test_without_confidence_factor(self):
        cfg = ClusterConfig(confidence_factor=False)
        full = saturation(mat_of(SET2), CFG)
        no_conf = saturation(mat_of(SET2), cfg)
        assert no_conf <= full  # dropping (1-p_c) shrinks the score

    def test_duplicate_weighting_matters(self):
        """A position uniform over unique rows but skewed in true log
        counts must not be credited."""
        rows = [["a", f"v{i}", f"id{i}"] for i in range(6)]
        m = mat_of(rows)
        skewed = np.array([100, 1, 1, 1, 1, 1])
        _, var_flat = resolved_masks(m, CFG)
        _, var_skew = resolved_masks(m, CFG, counts=skewed)
        assert var_flat[1] and not var_skew[1]


class TestStats:
    def test_distinct_counts(self):
        nu = node_stats(mat_of(SET2))[0]
        assert nu.tolist() == [1, 3, 1, 3, 2]

    def test_node_stats_weighted_total(self):
        nu, topc, n_w = node_stats(mat_of(SET1), np.array([5, 3, 2]))
        assert n_w == 10.0
        assert topc[0] == 10.0  # constant position carries full weight


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=3, max_size=3),
        min_size=1,
        max_size=12,
    )
)
def test_saturation_in_unit_interval(rows):
    s = saturation(mat_of(rows), CFG)
    assert 0.0 <= s <= 1.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=30))
def test_identical_rows_saturated(n):
    assert saturation(mat_of([["x", "y", "z"]] * n), CFG) == 1.0
