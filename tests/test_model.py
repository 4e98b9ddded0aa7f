"""ParserModel: matching (§4.8), query traversal (§3), persistence."""
import pytest

from repro.core.model import ParserModel, token_hash64


def build_model():
    """Small hand-built tree: root -> (A, B); A -> (A1, A2)."""
    m = ParserModel()
    root = m.add_node(parent=-1, template=("svc", "*", "*"), saturation=0.4, n_logs=10, depth=0, group_key="3")
    a = m.add_node(parent=root.nid, template=("svc", "get", "*"), saturation=0.7, n_logs=6, depth=1, group_key="3")
    b = m.add_node(parent=root.nid, template=("svc", "put", "*"), saturation=0.8, n_logs=4, depth=1, group_key="3")
    a1 = m.add_node(parent=a.nid, template=("svc", "get", "alpha"), saturation=1.0, n_logs=3, depth=2, group_key="3")
    a2 = m.add_node(parent=a.nid, template=("svc", "get", "beta"), saturation=1.0, n_logs=3, depth=2, group_key="3")
    return m, (root, a, b, a1, a2)


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
        m2 = ParserModel.from_json(m.to_json())
        assert [(n.parent, n.template, n.saturation) for n in m.nodes] == [
            (n.parent, n.template, n.saturation) for n in m2.nodes
        ]

    def test_threshold_query_survives_roundtrip(self):
        """Eq. 3 can give 0.7999999999999999 where the exact value is
        0.8; the model stores what its JSON copy reads back, so both
        walk to the same ancestor at the default threshold 0.8."""
        m = ParserModel()
        m.add_node(parent=-1, template=("a", "*"), saturation=0.7999999999999999,
                   n_logs=2, depth=0, group_key="2")
        m.add_node(parent=0, template=("a", "b"), saturation=1.0, n_logs=1, depth=1, group_key="2")
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
        m2.add_node(parent=0, template=("svc", "del", "*"), saturation=0.9, n_logs=2, depth=1, group_key="3")
        m1.merge_from(m2)
        texts = {nd.text() for nd in m1.nodes}
        assert "svc del *" in texts

    def test_merge_below_threshold_stays_separate(self):
        m1, _ = build_model()
        m2 = ParserModel()
        m2.add_node(parent=-1, template=("xxx", "yyy", "zzz"), saturation=0.5, n_logs=1, depth=0, group_key="3")
        before = len(m1.nodes)
        m1.merge_from(m2, sim_threshold=0.9)
        assert len(m1.nodes) == before + 1
