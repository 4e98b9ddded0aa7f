"""End-to-end sequential pipeline: train, match, query, ablations."""
import copy
import inspect
from collections import Counter

import pandas as pd
import pytest

import repro.core.cluster as cluster
import repro.core.match as match
import repro.core.saturation as saturation
import repro.core.train as train
from repro.core import (
    ParserConfig,
    ParserModel,
    match_df,
    match_sequential,
    train_model,
    train_model_sequential,
)
from repro.core.config import ClusterConfig
from repro.core.tokenizer import WILDCARD, preprocess_message
from repro.eval.ga import grouping_accuracy
from repro.logs import loghub_lite

SET1 = [f"UserService createUser token abc{i} success" for i in range(5)]
SET2 = [
    "UserService createUser token abc123 success",
    "UserService deleteUser token xyz789 failed",
    "UserService queryUser token def456 success",
]


class TestTrain:
    def test_set1_single_template(self):
        model = train_model_sequential(SET1)
        assert len(model.nodes) == 1
        assert model.nodes[0].text() == "UserService createUser token * success"

    def test_set2_tree(self):
        model = train_model_sequential(SET2)
        assert model.nodes[0].parent == -1
        assert len(model.nodes) >= 4  # root + (eventually) 3 singletons

    def test_empty_messages_skipped(self):
        model = train_model_sequential(["", "  ", "a b"])
        assert len(model.nodes) == 1

    @pytest.mark.parametrize("messages", [[], ["", "  ", "\t"]], ids=["empty", "all-blank"])
    def test_no_tokens_gives_empty_model(self, messages):
        model = train_model_sequential(messages)
        assert model.nodes == []
        # An empty model still matches: every log becomes a temporary template.
        assert match_sequential(["a b", "a b"], model) == [0, 0]
        assert model.nodes[0].text() == "a b"

    def test_lengths_grouped_separately(self):
        model = train_model_sequential(["a b", "a b c", "a b c d"])
        assert len({nd.group_key for nd in model.nodes}) == 3

    def test_prefix_grouping(self):
        cfg = ParserConfig(prefix_k=1)
        model = train_model_sequential(["alpha x1 y", "beta x2 y"], cfg)
        assert len({nd.group_key for nd in model.nodes}) == 2

    def test_separator_in_message(self, spark):
        """A token may hold any character, ``\\x1f`` (a control character,
        not a Listing-1 delimiter) included: the model's JSON keeps each
        template as an array of tokens, so a saved model gives every
        template back unchanged, and each log still matches its own leaf
        on the JSON copy and through ``match_df``."""
        msgs = ["user a\x1fb logged in", "user c\x1fd logged in", "user e logged out"] * 3
        assert preprocess_message(msgs[0]) == ["user", "a\x1fb", "logged", "in"]
        model = train_model_sequential(msgs)
        for nd in model.nodes:
            assert len(nd.template) == int(nd.group_key.split("|")[0])
        loaded = ParserModel.from_json(model.to_json())
        assert [nd.template for nd in loaded.nodes] == [nd.template for nd in model.nodes]
        leaves = []
        for msg in msgs:
            toks = tuple(preprocess_message(msg))
            nid = loaded.match_tokens(toks)
            assert loaded.nodes[nid].template == toks  # its own leaf
            leaves.append(nid)
        df = spark.createDataFrame(pd.DataFrame({"message": msgs, "log_id": range(len(msgs))}))
        out = match_df(spark, df, model).toPandas().sort_values("log_id")
        assert out["template_id"].tolist() == leaves

    def test_counts_accumulate(self):
        model = train_model_sequential(SET1 * 3)
        assert model.nodes[0].n_logs == 15

    def test_deterministic(self):
        pdf, _ = loghub_lite("Zookeeper")
        msgs = pdf["message"].tolist()
        a = train_model_sequential(msgs)
        b = train_model_sequential(msgs)
        assert [(n.parent, n.template, n.saturation) for n in a.nodes] == [
            (n.parent, n.template, n.saturation) for n in b.nodes
        ]


class TestMatch:
    def test_training_logs_match(self):
        model = train_model_sequential(SET1 + SET2)
        nids = match_sequential(SET1 + SET2, model, add_unmatched=False)
        assert all(n >= 0 for n in nids)

    def test_unseen_variable_value_matches(self):
        model = train_model_sequential(SET1)
        nids = match_sequential(["UserService createUser token NEW999 success"], model)
        assert nids[0] == 0

    def test_unmatched_becomes_temp_template(self):
        model = train_model_sequential(SET1)
        before = len(model.nodes)
        nids = match_sequential(["totally different log line here"], model)
        assert len(model.nodes) == before + 1
        assert nids[0] == before
        # A second occurrence now matches the temp template.
        nids2 = match_sequential(["totally different log line here"], model)
        assert nids2[0] == before
        # A null message or one without tokens has nothing to absorb.
        assert match_sequential([" ,; ", None], model) == [-1, -1]
        assert len(model.nodes) == before + 1

    def test_threshold_coarsens(self):
        model = train_model_sequential(SET2)
        fine = match_sequential(SET2, model, threshold=None)
        coarse = match_sequential(SET2, model, threshold=0.01)
        assert len(set(coarse)) <= len(set(fine))
        assert len(set(coarse)) == 1  # everything rolls up to the root

    def test_ga_on_dataset(self):
        pdf, _ = loghub_lite("HDFS")
        model = train_model_sequential(pdf["message"].tolist())
        nids = match_sequential(pdf["message"].tolist(), model, threshold=0.8)
        assert grouping_accuracy(nids, pdf["template_id"].tolist()) > 0.8


class TestNaiveMatchAblation:
    def test_naive_assignment_populated(self):
        cfg = ParserConfig(naive_match=True)
        model = train_model_sequential(SET2, cfg)
        assert len(model.train_assignment) == 3
        parents = {nd.parent for nd in model.nodes}
        for toks, nid in model.train_assignment.items():
            # The deepest node holding the log: the leaf of its own tokens.
            assert nid not in parents
            assert model.nodes[nid].template == toks

    def test_naive_assignment_stays_in_memory(self):
        """``to_json`` does not write the training assignment: the JSON
        copy matches by template text, as the model does without it."""
        msgs = loghub_lite("Zookeeper")[0]["message"].tolist()
        model = train_model_sequential(msgs[:300], ParserConfig(naive_match=True))
        assert model.train_assignment
        loaded = ParserModel.from_json(model.to_json())
        assert loaded.train_assignment == {}
        text_only = copy.deepcopy(model)
        text_only.train_assignment.clear()
        assert match_sequential(msgs, loaded, threshold=0.8) == match_sequential(
            msgs, text_only, threshold=0.8
        )

    def test_naive_vs_text_match_close(self):
        """§5.4.1: text matching ≈ training assignment (GA within 5%)."""
        pdf, _ = loghub_lite("Zookeeper")
        msgs = pdf["message"].tolist()
        gt = pdf["template_id"].tolist()
        m_n = train_model_sequential(msgs, ParserConfig(naive_match=True))
        for toks, nid in m_n.train_assignment.items():
            # Each log's node, in whichever group, holds it.
            tmpl = m_n.nodes[nid].template
            assert len(tmpl) == len(toks)
            assert all(t in (WILDCARD, tok) for t, tok in zip(tmpl, toks))
        ga_naive = grouping_accuracy(match_sequential(msgs, m_n, threshold=0.8), gt)
        m_t = train_model_sequential(msgs)
        ga_text = grouping_accuracy(match_sequential(msgs, m_t, threshold=0.8), gt)
        assert abs(ga_naive - ga_text) < 0.05


class TestDedupAblation:
    def test_no_dedup_same_templates(self):
        cfg = ParserConfig(dedup=False)
        model = train_model_sequential(SET1, cfg)
        texts = {nd.text() for nd in model.nodes}
        assert "UserService createUser token * success" in texts

    def test_no_dedup_counts(self):
        cfg = ParserConfig(dedup=False)
        model = train_model_sequential(SET1 * 2, cfg)
        assert model.nodes[0].n_logs == 10


class TestComputeOnce:
    """Training and matching preprocess each distinct message once, and
    training evaluates each tree node once."""

    @pytest.mark.parametrize("dedup", [True, False])
    def test_preprocess_once_per_message(self, monkeypatch, dedup):
        msgs = loghub_lite("Zookeeper")[0]["message"].tolist()
        seen = []
        real = train.preprocess_message

        def counted(msg, **kwargs):
            seen.append(msg)
            return real(msg, **kwargs)

        monkeypatch.setattr(train, "preprocess_message", counted)
        train_model_sequential(msgs, ParserConfig(dedup=dedup))
        # With dedup once per distinct raw message; without (the §5.4.3
        # ablation) once per message.
        assert Counter(seen) == Counter(set(msgs) if dedup else msgs)

    @pytest.mark.parametrize("naive_match", [False, True])
    def test_sequential_builds_no_frame(self, monkeypatch, naive_match):
        """The sequential path adds each group's tree to the model
        directly, without a pandas round trip."""
        msgs = loghub_lite("Zookeeper")[0]["message"].tolist()

        def no_frame(*args, **kwargs):
            raise AssertionError("pandas DataFrame built")

        monkeypatch.setattr(train.pd, "DataFrame", no_frame)
        model = train_model_sequential(msgs, ParserConfig(naive_match=naive_match))
        assert model.nodes
        assert bool(model.train_assignment) == naive_match

    def test_match_preprocesses_once_per_message(self, monkeypatch):
        msgs = loghub_lite("Zookeeper")[0]["message"].tolist()
        model = train_model_sequential(msgs[:200])
        batch = msgs[200:600]
        assert len(set(batch)) < len(batch)
        seen = []
        real = match.preprocess_message

        def counted(msg, **kwargs):
            seen.append(msg)
            return real(msg, **kwargs)

        monkeypatch.setattr(match, "preprocess_message", counted)
        match_sequential(batch, model)
        assert Counter(seen) == Counter(set(batch))

    @pytest.mark.parametrize("threshold", [None, 0.8])
    @pytest.mark.parametrize("naive_match", [False, True])
    def test_match_memo_keeps_ids(self, threshold, naive_match):
        """A batch with repeated and unmatched messages gets the ids its
        messages get when matched one call each, in order."""
        msgs = loghub_lite("Zookeeper")[0]["message"].tolist()
        cfg = ParserConfig(naive_match=naive_match)
        model = train_model_sequential(msgs[:200], cfg)
        batch = msgs[200:600]
        alone = copy.deepcopy(model)
        want = [match_sequential([m], alone, threshold=threshold)[0] for m in batch]
        assert match_sequential(batch, model, threshold=threshold) == want
        assert len(model.nodes) == len(alone.nodes)

    # Android: a cluster scored by the ensure-saturation-increase checks
    # of two different splits.
    @pytest.mark.parametrize("name", ["Mac", "Android"])
    def test_each_node_evaluated_once(self, monkeypatch, name):
        """No (sub-matrix, counts) pair reaches ``node_stats`` or
        ``resolved_masks`` twice within one ``build_tree``, and no one-log
        node reaches them at all."""
        calls = {"node_stats": Counter(), "resolved_masks": Counter()}
        rows_seen = Counter()

        def counted(fn):
            sig = inspect.signature(fn)

            def wrapper(*args, **kwargs):
                bound = sig.bind(*args, **kwargs).arguments
                calls[fn.__name__][bound["mat"].tobytes(), bound["counts"].tobytes()] += 1
                rows_seen[bound["mat"].shape[0]] += 1
                return fn(*args, **kwargs)

            return wrapper

        originals = (saturation.node_stats, saturation.resolved_masks)
        for module in (cluster, saturation):
            for fn in originals:
                monkeypatch.setattr(module, fn.__name__, counted(fn))
        real_build_tree = train.build_tree
        n_trees = 0

        def build_tree(mat, counts, *args, **kwargs):
            nonlocal n_trees
            n_trees += 1
            for c in calls.values():
                c.clear()
            rows = real_build_tree(mat, counts, *args, **kwargs)
            for fn_calls in calls.values():
                assert all(n == 1 for n in fn_calls.values())
            return rows

        monkeypatch.setattr(train, "build_tree", build_tree)
        train_model_sequential(loghub_lite(name)[0]["message"].tolist(), ParserConfig())
        assert n_trees > 0
        assert rows_seen[1] == 0 and rows_seen.total() > 0


class TestSamplingGuard:
    def test_max_unique_per_group(self):
        cfg = ParserConfig(max_unique_per_group=10)
        msgs = [f"svc op val{i}" for i in range(50)]
        model = train_model_sequential(msgs, cfg)
        # Only 10 of the 50 unique logs were clustered.
        assert model.nodes[0].n_logs == 10
        assert all(len(nd.template) == 3 for nd in model.nodes)

    def test_max_unique_per_group_spark(self, spark):
        """Both paths keep the same unique logs: the most frequent, ties
        in token order."""
        cfg = ParserConfig(max_unique_per_group=10)
        msgs = [f"svc op val{i}" for i in range(50) for _ in range(1 + i % 3)]
        df = spark.createDataFrame(pd.DataFrame({"message": msgs}))
        model = train_model(spark, df, cfg=cfg)
        assert model.nodes[0].n_logs == 30  # ten logs seen three times each
        assert model.to_json() == train_model_sequential(msgs, cfg).to_json()
