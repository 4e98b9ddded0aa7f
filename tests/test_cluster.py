"""Hierarchical clustering kernel (§4.3–§4.7)."""
import numpy as np
import pytest

import repro.core.cluster as cluster
import repro.core.train as train
from repro.core import train_model_sequential
from repro.core.cluster import build_tree, factorize, split_node
from repro.core.config import ClusterConfig
from repro.core.model import hash_tokens
from repro.core.saturation import node_stats, resolved_masks, saturation
from repro.logs import loghub_lite

CFG = ClusterConfig()


def prep(rows, counts=None):
    texts = [tuple(r) for r in rows]
    mat = np.vstack([hash_tokens(r) for r in rows])
    cnt = np.asarray(counts) if counts is not None else np.ones(len(rows), dtype=np.int64)
    return mat, cnt, texts


def tree_of(rows, cfg=CFG, counts=None, seed=0):
    mat, cnt, texts = prep(rows, counts)
    return build_tree(mat, cnt, texts, cfg, np.random.default_rng(seed))


def split_root(codes, vocab, cnt, parent_sat):
    """``split_node`` on every row, with an ``evaluate`` that scores a
    row set the way ``build_tree``'s does (without its memo)."""

    def evaluate(rows):
        sub, c = codes[rows], cnt[rows]
        stats = node_stats(sub, c)
        masks = resolved_masks(sub, CFG, c, stats)
        return stats, masks, saturation(sub, CFG, c, stats=stats, masks=masks)

    rows = np.arange(len(codes))
    rng = np.random.default_rng(0)
    return split_node(codes, vocab, cnt, rows, parent_sat, CFG, rng, evaluate)


def assert_children_partition(tree):
    """Each node's children's unique logs concatenate, sorted, to exactly
    its own: no log is lost and none sits in two siblings."""
    by_parent: dict[int, list] = {}
    for r in tree[1:]:
        by_parent.setdefault(r.parent, []).append(r.rows)
    for parent, parts in by_parent.items():
        np.testing.assert_array_equal(np.sort(np.concatenate(parts)), tree[parent].rows)


SET2 = [
    "UserService createUser token abc123 success".split(),
    "UserService deleteUser token xyz789 failed".split(),
    "UserService queryUser token def456 success".split(),
]


class TestEarlyStops:
    def test_two_logs_split_to_singletons(self):
        mat, cnt, _ = prep(SET2[:2])
        codes, vocab = factorize(mat)
        children = split_root(codes, vocab, cnt, 0.1)
        assert sorted(len(c) for c in children) == [1, 1]

    def test_single_unresolved_position_direct_split(self):
        # Skewed values at position 1 (no variable credit) force the
        # direct value split; duplicates keep their rows together.
        rows = [["a", "x", "c"]] * 5 + [["a", "y", "c"], ["a", "z", "c"]]
        mat, cnt, _ = prep(rows)
        codes, vocab = factorize(mat)
        children = split_root(codes, vocab, cnt, 0.1)
        # Split directly by the 3 distinct values at position 1.
        assert sorted(len(c) for c in children) == [1, 1, 5]

    def test_singleton_not_split(self):
        """A one-log group is a single leaf: saturated, its log the template."""
        (leaf,) = tree_of(SET2[:1])
        assert (leaf.parent, leaf.template, leaf.saturation) == (-1, tuple(SET2[0]), 1.0)


class TestTreeInvariants:
    def test_root_covers_everything(self):
        rows = tree_of(SET2 * 2)
        assert rows[0].parent == -1
        assert rows[0].n_logs == 6

    def test_children_partition_parent(self):
        assert_children_partition(tree_of(SET2 + [["UserService", "createUser", "token", "zzz", "success"]]))

    @pytest.mark.parametrize("name", ["Mac", "Thunderbird", "Hadoop", "BGL"])
    def test_children_partition_parent_on_corpora(self, monkeypatch, name):
        """Every tree trained on these corpora is an exact partition. The
        ensure-saturation-increase check injects no cluster in a split's
        last round, where the injected log would stay in its old cluster
        too (before, each of these corpora had such a split)."""
        trees = []

        def build_tree(*args, **kwargs):
            trees.append(cluster.build_tree(*args, **kwargs))
            return trees[-1]

        monkeypatch.setattr(train, "build_tree", build_tree)
        train_model_sequential(loghub_lite(name)[0]["message"].tolist())
        assert trees
        for tree in trees:
            assert_children_partition(tree)

    def test_saturation_monotone_down(self):
        pdfrows = [f"svc op{i%4} val{i} ok".split() for i in range(40)]
        tree = tree_of(pdfrows)
        for r in tree[1:]:
            assert r.saturation >= tree[r.parent].saturation - 1e-12

    def test_leaves_saturated(self):
        tree = tree_of(SET2)
        children = {r.parent for r in tree}
        for i, r in enumerate(tree):
            if i not in children:  # leaf
                assert r.saturation == pytest.approx(1.0)

    def test_template_constants_and_wildcards(self):
        tree = tree_of(SET2)
        root = tree[0]
        assert root.template[0] == "UserService"
        assert root.template[2] == "token"
        assert root.template[1] == "*" and root.template[3] == "*"

    def test_deterministic(self):
        rows = [f"a b{i%5} c{i%3} d{i}".split() for i in range(60)]
        t1 = [(r.template, r.parent, round(r.saturation, 9)) for r in tree_of(rows)]
        t2 = [(r.template, r.parent, round(r.saturation, 9)) for r in tree_of(rows)]
        assert t1 == t2

    def test_seed_changes_allowed_but_templates_stable(self):
        """Different seeds may reorder the tree but the leaf template
        set over a clean corpus stays the same."""
        rows = [f"a b{i%5} id{i} ok".split() for i in range(50)]
        s0 = {r.template for r in tree_of(rows, seed=0)}
        s1 = {r.template for r in tree_of(rows, seed=1)}
        assert ("a", "*", "*", "ok") in s0 and ("a", "*", "*", "ok") in s1


class TestSet2Behaviour:
    def test_set2_fully_resolves(self):
        """Fig. 5 Set 2 ends with each log its own template."""
        tree = tree_of(SET2)
        leaves = [r for i, r in enumerate(tree) if i not in {x.parent for x in tree}]
        assert sorted(len(r.rows) for r in leaves) == [1, 1, 1]

    def test_set1_single_node(self):
        rows = [
            "UserService createUser token abc123 success".split(),
            "UserService createUser token xyz789 success".split(),
            "UserService createUser token def456 success".split(),
        ]
        tree = tree_of(rows)
        assert len(tree) == 1
        assert tree[0].template == ("UserService", "createUser", "token", "*", "success")


class TestAblations:
    ROWS = [f"svc op{i % 3} u{i % 7} id{i} ok".split() for i in range(60)]

    def test_no_early_stop_still_partitions(self):
        # Skewed action field keeps the root unsaturated so the full
        # clustering process must run even without early stops.
        rows = [f"svc {'load' if i % 10 else 'save'} id{i} ok".split() for i in range(40)]
        tree = tree_of(rows, ClusterConfig(early_stop=False))
        assert len(tree) >= 3

    def test_no_balanced_deterministic_ties(self):
        t1 = [(r.template, r.parent) for r in tree_of(self.ROWS, ClusterConfig(balanced=False))]
        t2 = [(r.template, r.parent) for r in tree_of(self.ROWS, ClusterConfig(balanced=False))]
        assert t1 == t2

    def test_random_centroids_runs(self):
        tree = tree_of(self.ROWS, ClusterConfig(kmeanspp=False))
        assert tree[0].n_logs == 60

    def test_no_ensure_sat_increase_runs(self):
        tree = tree_of(self.ROWS, ClusterConfig(ensure_sat_increase=False))
        assert tree[0].n_logs == 60

    def test_duplicate_rows_without_dedup(self):
        """The kernel tolerates duplicate rows (pipeline w/o dedup)."""
        rows = (self.ROWS[:5] * 6)
        tree = tree_of(rows)
        assert tree[0].n_logs == 30
