"""ParserModel: matching (§4.8), query traversal (§3), persistence."""
import json

import pytest

from repro.core import ParserConfig, train_model, train_model_sequential
from repro.core.model import ParserModel, token_hash64
from repro.logs import loghub_lite
from repro.logs.corpus import to_spark


def build_model():
    """Small hand-built tree: root -> (A, B); A -> (A1, A2)."""
    m = ParserModel()
    root = m.add_node(parent=-1, template=("svc", "*", "*"), saturation=0.4, n_logs=10, group_key="3")
    a = m.add_node(parent=root.nid, template=("svc", "get", "*"), saturation=0.7, n_logs=6)
    b = m.add_node(parent=root.nid, template=("svc", "put", "*"), saturation=0.8, n_logs=4)
    a1 = m.add_node(parent=a.nid, template=("svc", "get", "alpha"), saturation=1.0, n_logs=3)
    a2 = m.add_node(parent=a.nid, template=("svc", "get", "beta"), saturation=1.0, n_logs=3)
    return m, (root, a, b, a1, a2)


def node_fields(model: ParserModel) -> list[tuple]:
    return [(nd.nid, nd.parent, nd.template, nd.saturation, nd.n_logs, nd.depth, nd.group_key)
            for nd in model.nodes]


class TestMatching:
    def test_most_precise_first(self):
        m, (root, a, b, a1, a2) = build_model()
        assert m.match_tokens(("svc", "get", "alpha")) == a1.nid
        assert m.match_tokens(("svc", "get", "gamma")) == a.nid  # falls to wildcard
        assert m.match_tokens(("svc", "put", "x")) == b.nid

    def test_unmatched_length(self):
        m, _ = build_model()
        assert m.match_tokens(("svc", "get")) == -1

    def test_unmatched_token(self):
        m, _ = build_model()
        # 'svc' is constant at position 0 in every template -> no match.
        assert m.match_tokens(("other", "get", "x")) == -1

    def test_temp_template_roundtrip(self):
        m, _ = build_model()
        assert m.match_tokens(("a", "b")) == -1
        nd = m.add_temp_template(("a", "b"))
        assert m.match_tokens(("a", "b")) == nd.nid
        assert nd.saturation == 1.0

    def test_wildcard_log_token_matches_wildcard(self):
        m, (root, a, *_ ) = build_model()
        assert m.match_tokens(("svc", "get", "*")) == a.nid


class TestQuery:
    def test_ancestor_walk(self):
        m, (root, a, b, a1, a2) = build_model()
        assert m.ancestor_at(a1.nid, 0.9) == a1.nid
        assert m.ancestor_at(a1.nid, 0.6) == a.nid
        assert m.ancestor_at(a1.nid, 0.3) == root.nid
        assert m.ancestor_at(b.nid, 0.75) == b.nid

    def test_below_own_saturation_returns_self(self):
        m, (root, *_ ) = build_model()
        assert m.ancestor_at(root.nid, 0.99) == root.nid

    def test_templates_at_threshold(self):
        m, (root, a, b, a1, a2) = build_model()
        t09 = {nd.nid for nd in m.templates_at(0.9)}
        assert t09 == {a1.nid, a2.nid}
        t06 = {nd.nid for nd in m.templates_at(0.6)}
        assert t06 == {a.nid, b.nid}
        t01 = {nd.nid for nd in m.templates_at(0.1)}
        assert t01 == {root.nid}


class TestPersistence:
    def test_json_roundtrip(self):
        m, _ = build_model()
        assert node_fields(ParserModel.from_json(m.to_json())) == node_fields(m)

    def test_threshold_query_survives_roundtrip(self):
        """Eq. 3 can give 0.7999999999999999 where the exact value is
        0.8; the model stores what its JSON copy reads back, so both
        walk to the same ancestor at the default threshold 0.8."""
        m = ParserModel()
        m.add_node(parent=-1, template=("a", "*"), saturation=0.7999999999999999, n_logs=2, group_key="2")
        m.add_node(parent=0, template=("a", "b"), saturation=1.0, n_logs=1)
        m2 = ParserModel.from_json(m.to_json())
        assert m.ancestor_at(1, 0.8) == m2.ancestor_at(1, 0.8) == 0

    def test_roundtrip_matching_identical(self):
        m, _ = build_model()
        m2 = ParserModel.from_json(m.to_json())
        for toks in [("svc", "get", "alpha"), ("svc", "put", "q"), ("svc", "x", "y")]:
            assert m.match_tokens(toks) == m2.match_tokens(toks)

    def test_nbytes_positive_and_small(self):
        m, _ = build_model()
        assert 0 < m.nbytes < 10_000

    def test_token_hash_deterministic(self):
        assert token_hash64("abc") == token_hash64("abc")
        assert token_hash64("abc") != token_hash64("abd")


class TestMerge:
    def test_merge_identical_templates(self):
        m1, _ = build_model()
        m2, _ = build_model()
        before = len(m1.nodes)
        mapping = m1.merge_from(m2)
        assert len(m1.nodes) == before  # everything merged
        assert m1.nodes[0].n_logs == 20  # counts added

    def test_merge_new_template_attached(self):
        m1, _ = build_model()
        m2, _ = build_model()
        m2.add_node(parent=0, template=("svc", "del", "*"), saturation=0.9, n_logs=2)
        m1.merge_from(m2)
        texts = {nd.text() for nd in m1.nodes}
        assert "svc del *" in texts

    def test_merge_below_threshold_stays_separate(self):
        m1, _ = build_model()
        m2 = ParserModel()
        m2.add_node(parent=-1, template=("xxx", "yyy", "zzz"), saturation=0.5, n_logs=1, group_key="3")
        before = len(m1.nodes)
        m1.merge_from(m2, sim_threshold=0.9)
        assert len(m1.nodes) == before + 1


class TestJsonCopyIsTheModel:
    """``from_json(to_json(m))`` gives back every node field, the depth and
    a child's group key (which the JSON rows do not hold) included."""

    @pytest.fixture(scope="class")
    def hdfs(self):
        return loghub_lite("HDFS")[0]

    @staticmethod
    def assert_copy_is_model(model: ParserModel) -> None:
        rows = json.loads(model.to_json())["nodes"]
        assert [len(r) for r in rows] == [5 if nd.parent < 0 else 4 for nd in model.nodes]
        for nd in model.nodes:
            if nd.parent >= 0:
                up = model.nodes[nd.parent]
                assert (nd.depth, nd.group_key) == (up.depth + 1, up.group_key)
            else:
                assert nd.depth == 0
        assert node_fields(ParserModel.from_json(model.to_json())) == node_fields(model)

    def test_sequential(self, hdfs):
        model = train_model_sequential(hdfs["message"].tolist(), ParserConfig(prefix_k=1))
        assert len({nd.group_key for nd in model.nodes}) > 2
        assert max(nd.depth for nd in model.nodes) >= 2
        self.assert_copy_is_model(model)

    def test_spark(self, spark, hdfs):
        model = train_model(spark, to_spark(spark, hdfs), cfg=ParserConfig(prefix_k=1))
        assert max(nd.depth for nd in model.nodes) >= 2
        self.assert_copy_is_model(model)

    def test_after_temp_templates(self, hdfs):
        model = train_model_sequential(hdfs["message"].tolist(), ParserConfig(prefix_k=1))
        for toks in [("brand", "new"), ("one",)]:
            nd = model.add_temp_template(toks)
            assert (nd.parent, nd.depth, nd.group_key) == (-1, 0, "temp")
        self.assert_copy_is_model(model)

    def test_after_merge(self, hdfs):
        msgs, cfg = hdfs["message"].tolist(), ParserConfig(prefix_k=1)
        model = train_model_sequential(msgs[: len(msgs) // 2], cfg)
        newer = train_model_sequential(msgs[len(msgs) // 2 :], cfg)
        before = len(model.nodes)
        model.merge_from(newer, sim_threshold=1.0)
        assert any(nd.parent >= 0 for nd in model.nodes[before:])
        self.assert_copy_is_model(model)

    def test_merge_attaches_child_below_merged_parent(self):
        m1, (root, a, *_) = build_model()
        m2, _ = build_model()
        m2.add_node(parent=a.nid, template=("svc", "get", "gamma"), saturation=1.0, n_logs=1)
        mapping = m1.merge_from(m2)
        new = m1.nodes[mapping[len(m2.nodes) - 1]]
        assert new.nid == len(m1.nodes) - 1 and new.parent == a.nid
        assert (new.depth, new.group_key) == (a.depth + 1, a.group_key) == (2, "3")
        self.assert_copy_is_model(m1)
