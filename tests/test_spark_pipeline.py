"""Spark pipeline integration: mapInPandas preprocessing, applyInPandas
training, mapInPandas matching — asserted equal to the sequential path
and oracle-checked where a SQL equivalent exists."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import (
    ParserConfig,
    ParserModel,
    match_df,
    match_sequential,
    train_model,
    train_model_sequential,
)
from repro.core.match import add_unmatched_df
from repro.core.tokenizer import preprocess_message
from repro.core.train import _TREE_SCHEMA, _assemble
from repro.logs import loghub_lite
from repro.logs.corpus import to_spark
from repro.oracle import assert_equivalent
from tests.test_tokenizer import _parity_messages


@pytest.fixture(scope="module")
def corpus(spark):
    pdf, bank = loghub_lite("HDFS")
    return to_spark(spark, pdf).cache(), pdf


@pytest.fixture(scope="module")
def repeated(spark):
    """Mac-lite three times over (every log duplicated), cached in more
    partitions than there are cores, with a model trained on its first
    30%. A model trained on 30% of HDFS-lite matches every HDFS log;
    on Mac 13 logs match nothing."""
    pdf, _ = loghub_lite("Mac")
    rep = pd.concat([pdf] * 3, ignore_index=True)
    rep["log_id"] = range(len(rep))
    parts = 3 * spark.sparkContext.defaultParallelism
    df = spark.createDataFrame(rep).repartition(parts).cache()
    df.count()
    msgs = rep["message"].tolist()
    return df, msgs, train_model_sequential(msgs[: int(0.3 * len(pdf))])


def _plan_nodes(plan):
    """Physical operator names, looking through adaptive execution."""
    if plan.nodeName() == "AdaptiveSparkPlan":
        plan = plan.executedPlan()
    yield plan.nodeName()
    children = plan.children()
    for i in range(children.size()):
        yield from _plan_nodes(children.apply(i))


#: Hand-picked edge cases for the tokenizer: control characters,
#: Unicode spaces, non-ASCII digits, line terminators after a final
#: period, and non-ASCII letters and digits next to a variable.
EDGE_MESSAGES = [
    "UserService createUser token=abc123 success",
    "at 2024-07-01 12:30:45 from 10.1.2.3:443 done.",
    'say "hello" now; path /var/log/x.log {a} [b] <c>',
    "http://example.com/x?y=1&z=2",
    "trailing period. and, commas",
    "a\x1fb c",
    "a\xa0b c",
    "a\u2003b c",
    "ip ١٢٣.١.١.١ end",
    "at ٢٠٢٤-٠٧-٠١ ١٢:٣٠:٤٥ and ٢٠٢٤/٠٧/٠١ ١٢:٣٠:٤٥ end",
    "end.\u2028",
    "end.\u2029",
    "end.\x85",
    "end.\n",
    "a.\x0bb.\x0cc",
    "é0x1f end",
    "²0x1f end",
    "a\u03010x1f end",
    "0x1f² end",
    "½" + "a1" * 16,
]


def _ran_stages(sc, group: str) -> list:
    """Stages of a job group that ran tasks. A cached input's lineage is
    listed as a stage too, but skipped."""
    tracker = sc.statusTracker()
    stages = [
        tracker.getStageInfo(st)
        for job in tracker.getJobIdsForGroup(group)
        for st in tracker.getJobInfo(job).stageIds
    ]
    return [st for st in stages if st.numCompletedTasks + st.numFailedTasks > 0]


class TestSparkPreprocessing:
    """Spark tasks preprocess with ``preprocess_message``, the sequential
    path's function."""

    @pytest.mark.parametrize("dedup", [True, False])
    def test_group_counts_against_duckdb(self, spark, corpus, dedup):
        """Each length group's root holds every log of that length."""
        df, pdf = corpus
        model = train_model(spark, df, cfg=ParserConfig(dedup=dedup))
        roots = pd.DataFrame(
            [(int(nd.group_key), nd.n_logs) for nd in model.nodes if nd.parent < 0],
            columns=["n_tokens", "n"],
        )
        # DuckDB reference over the pure-Python preprocessing.
        ref = pd.DataFrame(
            {"n_tokens": [len(t) for m in pdf["message"] if (t := preprocess_message(m))]}
        )
        assert_equivalent(
            spark.createDataFrame(roots),
            "SELECT n_tokens, COUNT(*) AS n FROM ref GROUP BY 1",
            ref=ref,
        )

    def test_blank_and_null_messages_skipped(self, spark):
        """Training skips null and blank messages; matching gives them -1
        and an empty template, as ``match_sequential`` does."""
        msgs = ["a b c", None, "a b d", "", "  ", " ,; ", "x y"]
        pdf = pd.DataFrame({"message": pd.Series(msgs, dtype=object), "log_id": range(len(msgs))})
        df = spark.createDataFrame(pdf, "message string, log_id long")
        model = train_model(spark, df)
        assert sum(nd.n_logs for nd in model.nodes if nd.parent < 0) == 3
        out = match_df(spark, df, model).toPandas().sort_values("log_id")
        assert out["log_id"].tolist() == list(range(len(msgs)))
        assert [tid >= 0 for tid in out["template_id"]] == [True, False, True, False, False, False, True]
        assert out["template_id"].tolist() == match_sequential(msgs, model, add_unmatched=False)
        assert [t for tid, t in zip(out["template_id"], out["template"]) if tid < 0] == [""] * 4

    def test_edge_messages_equal_sequential(self, spark):
        """``match_df`` gives every row the id and text ``match_sequential``
        gives its message, at the leaves and at a threshold: -1 and ``""``
        for a null or blank message and for one that matches nothing."""
        msgs = EDGE_MESSAGES + _parity_messages(3000) + [None, "", "  ", " ,; "]
        model = train_model_sequential(msgs[: len(msgs) // 2])
        pdf = pd.DataFrame({"message": pd.Series(msgs, dtype=object), "log_id": range(len(msgs))})
        df = spark.createDataFrame(pdf, "message string, log_id long")
        for threshold in (None, 0.8):
            out = match_df(spark, df, model, threshold=threshold).toPandas().sort_values("log_id")
            seq = match_sequential(msgs, model, threshold=threshold, add_unmatched=False)
            assert -1 in seq and max(seq) >= 0
            assert out["log_id"].tolist() == list(range(len(msgs)))
            assert out["template_id"].tolist() == seq
            assert out["template"].tolist() == [model.nodes[i].text() if i >= 0 else "" for i in seq]

    def test_match_df_schema(self, spark, corpus):
        """The output columns and types callers read: the benchmark's
        checks select ``log_id`` and aggregate ``template_id``."""
        df, pdf = corpus
        model = train_model_sequential(pdf["message"].tolist()[:50])
        fields = [(f.name, f.dataType.simpleString()) for f in match_df(spark, df, model).schema]
        assert fields == [("log_id", "bigint"), ("template_id", "bigint"), ("template", "string")]

    def test_train_two_stages_match_no_regex_plan(self, spark, corpus):
        """Training runs the preprocessing stage and the per-group stage,
        with one shuffle between them; matching runs no Catalyst regex."""
        df, _ = corpus
        sc = spark.sparkContext
        sc.setJobGroup("train-model-two-stages", "train_model stage count")
        try:
            model = train_model(spark, df)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert len(_ran_stages(sc, "train-model-two-stages")) == 2
        plan = match_df(spark, df, model)._jdf.queryExecution().executedPlan().toString()
        assert "MapInPandas" in plan and "regexp_replace" not in plan


class TestTrainParity:
    PARITY = [
        ("HDFS", {}),
        ("Zookeeper", {}),
        ("HDFS", {"prefix_k": 1}),
        ("Zookeeper", {"prefix_k": 1}),
        ("HDFS", {"dedup": False}),
        ("HDFS", {"early_stop": False}),
        ("HDFS", {"variable_credit": False}),
        ("HDFS", {"balanced": False}),
    ]

    @pytest.mark.parametrize(
        "dataset, change",
        PARITY,
        ids=["-".join([d, *(f"{k}={v}" for k, v in c.items())]) for d, c in PARITY],
    )
    def test_spark_equals_sequential(self, spark, dataset, change):
        pdf, _ = loghub_lite(dataset)
        cfg = ParserConfig().ablate(**change)
        m_spark = train_model(spark, to_spark(spark, pdf), cfg=cfg)
        m_seq = train_model_sequential(pdf["message"].tolist(), cfg)
        assert m_spark.to_json() == m_seq.to_json()

    @pytest.mark.parametrize("dedup", [True, False])
    @pytest.mark.parametrize("prefix_k", [0, 1, 2])
    def test_spark_equals_sequential_random(self, spark, prefix_k, dedup):
        """Seeded random messages over the tokenizer parity alphabet
        (controls, ``\\x1f``, ``²``, a combining mark, ...), half of them
        twice."""
        msgs = _parity_messages(300, seed=1)
        msgs += msgs[:150]
        cfg = ParserConfig(prefix_k=prefix_k, dedup=dedup)
        df = spark.createDataFrame(pd.DataFrame({"message": msgs}))
        m_seq = train_model_sequential(msgs, cfg)
        assert train_model(spark, df, cfg=cfg).to_json() == m_seq.to_json()
        assert all(len(nd.template) == int(nd.group_key.split("|")[0]) for nd in m_seq.nodes)

    @pytest.mark.parametrize("messages", [[], ["", "  ", " ,; "]], ids=["empty", "all-blank"])
    def test_no_tokens_gives_empty_model(self, spark, messages):
        df = spark.createDataFrame(
            pd.DataFrame({"message": pd.Series(messages, dtype=object)}), "message string"
        )
        model = train_model(spark, df)
        assert model.nodes == []
        assert model.to_json() == train_model_sequential(messages).to_json()

    def test_naive_match_rejected(self, spark):
        # Only the sequential path records the training assignment that
        # the "w/ naive match" ablation matches with.
        df = spark.createDataFrame(pd.DataFrame({"message": ["a b", "a c"]}))
        with pytest.raises(ValueError, match="naive_match"):
            train_model(spark, df, cfg=ParserConfig(naive_match=True))

    def test_prefix_grouping_spark(self, spark):
        pdf = pd.DataFrame({"message": ["alpha x1 y", "beta x2 y"] * 5, "log_id": range(10)})
        cfg = ParserConfig(prefix_k=1)
        model = train_model(spark, spark.createDataFrame(pdf), cfg=cfg)
        assert len({nd.group_key for nd in model.nodes}) == 2

    def test_prefix_key_joins_tokens(self, spark):
        """``|`` is not a token delimiter, so the key ``3|a|b|c`` covers
        both splits of these messages on both paths."""
        msgs = ["a|b c x", "a b|c x"]
        cfg = ParserConfig(prefix_k=2)
        m_seq = train_model_sequential(msgs, cfg)
        df = spark.createDataFrame(pd.DataFrame({"message": msgs}))
        assert train_model(spark, df, cfg=cfg).to_json() == m_seq.to_json()
        assert {nd.group_key for nd in m_seq.nodes} == {"3|a|b|c"}

    def test_assemble_ignores_row_order(self):
        """``_assemble`` rebuilds the sequential model from the tree rows
        of several groups collected in any order. The frame takes its
        column names from ``_TREE_SCHEMA``, so a column the rows do not
        carry fails here."""
        pdf, _ = loghub_lite("HDFS")
        model = train_model_sequential(pdf["message"].tolist(), ParserConfig(prefix_k=1))
        roots: dict[str, int] = {}
        rows = []
        for nd in model.nodes:
            root = roots.setdefault(nd.group_key, nd.nid)
            parent = nd.parent - root if nd.parent >= 0 else -1
            rows.append(
                (nd.group_key, nd.nid - root, parent, list(nd.template),
                 nd.saturation, nd.n_logs)
            )
        assert len(roots) > 2
        columns = [col.split()[0] for col in _TREE_SCHEMA.split(", ")]
        frame = pd.DataFrame(rows, columns=columns).sample(frac=1.0, random_state=0)
        assert _assemble(frame).to_json() == model.to_json()


class TestMatchDF:
    def test_match_equals_sequential(self, spark, corpus):
        """On a Spark-trained model, executors (which read the model's
        JSON copy) and the driver give the same templates at the default
        threshold. Linux-lite holds nodes whose Eq.-3 saturation is
        0.7999999999999999 and whose JSON copy reads 0.8."""
        linux = loghub_lite("Linux")[0]
        for df, pdf in [corpus, (to_spark(spark, linux), linux)]:
            model = train_model(spark, df)
            out = (
                match_df(spark, df, model, threshold=0.8)
                .toPandas()
                .sort_values("log_id")
            )
            seq = match_sequential(
                pdf["message"].tolist(), model, threshold=0.8, add_unmatched=False
            )
            texts_spark = out["template"].tolist()
            texts_seq = [model.nodes[i].text() if i >= 0 else "" for i in seq]
            assert texts_spark == texts_seq

    def test_all_training_logs_matched(self, spark, corpus):
        df, pdf = corpus
        model = train_model(spark, df)
        out = match_df(spark, df, model)
        assert out.filter(F.col("template_id") < 0).count() == 0

    @pytest.mark.parametrize("threshold", [None, 0.8])
    def test_repeated_logs_equal_sequential(self, spark, repeated, threshold):
        df, msgs, model = repeated
        out = match_df(spark, df, model, threshold=threshold).toPandas().sort_values("log_id")
        seq = match_sequential(msgs, model, threshold=threshold, add_unmatched=False)
        assert out["log_id"].tolist() == list(range(len(msgs)))
        assert -1 in seq
        assert out["template_id"].tolist() == seq
        assert out["template"].tolist() == [model.nodes[i].text() if i >= 0 else "" for i in seq]

    def test_one_stage_one_task_per_core(self, spark, repeated):
        df, _, model = repeated
        sc = spark.sparkContext
        out = match_df(spark, df, model, threshold=0.8)
        sc.setJobGroup("match-df-one-stage", "match_df stage and task count")
        try:
            out.write.format("noop").mode("overwrite").save()
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        nodes = list(_plan_nodes(out._jdf.queryExecution().executedPlan()))
        assert "MapInPandas" in nodes and not any("Exchange" in n for n in nodes)
        tracker = sc.statusTracker()
        stages = [
            tracker.getStageInfo(st)
            for job in tracker.getJobIdsForGroup("match-df-one-stage")
            for st in tracker.getJobInfo(job).stageIds
        ]
        # The cached input's lineage is listed as a stage too, but skipped.
        ran = [st for st in stages if st.numCompletedTasks + st.numFailedTasks > 0]
        assert len(ran) == 1
        assert ran[0].numCompletedTasks <= sc.defaultParallelism

    def test_add_unmatched_df_absorbs_corpus(self, spark, repeated):
        df, msgs, trained = repeated
        model = ParserModel.from_json(trained.to_json())
        # Driver-side reference: every distinct token array in sorted
        # order, absorbed when the growing model does not match it.
        ref = ParserModel.from_json(trained.to_json())
        expected = 0
        for toks in sorted({t for m in msgs if (t := tuple(preprocess_message(m)))}):
            if ref.match_tokens(toks) < 0:
                ref.add_temp_template(toks)
                expected += 1
        assert expected > 0
        assert add_unmatched_df(spark, df, model) == expected
        assert model.to_json() == ref.to_json()
        assert add_unmatched_df(spark, df, model) == 0
        out = match_df(spark, df, model)
        assert out.filter(F.col("template_id") < 0).count() == 0

    def test_add_unmatched_df(self, spark, corpus):
        df, pdf = corpus
        model = train_model(spark, df)
        extra = spark.createDataFrame(
            pd.DataFrame({"message": ["never seen message body qq"], "log_id": [0]})
        )
        added = add_unmatched_df(spark, extra, model)
        assert added == 1
        out = match_df(spark, extra, model).toPandas()
        assert (out["template_id"] >= 0).all()
