"""Spark pipeline integration: Catalyst preprocessing, applyInPandas
training, mapInPandas matching — asserted equal to the sequential path
and oracle-checked where a SQL equivalent exists."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import ParserConfig, match_df, match_sequential, train_model, train_model_sequential
from repro.core.match import add_unmatched_df
from repro.core.train import preprocess_df
from repro.logs import loghub_lite
from repro.logs.corpus import to_spark
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def corpus(spark):
    pdf, bank = loghub_lite("HDFS")
    return to_spark(spark, pdf).cache(), pdf


class TestPreprocessDF:
    def test_dedup_counts_against_duckdb(self, spark, corpus):
        df, pdf = corpus
        cfg = ParserConfig()
        pre = preprocess_df(df, "message", cfg)
        agg = (
            pre.withColumn("tok_key", F.concat_ws("␟", "tokens"))
            .groupBy("n_tokens")
            .agg(F.count(F.lit(1)).alias("n"), F.countDistinct("tok_key").alias("uniq"))
        )
        # DuckDB reference over the pure-Python preprocessing.
        from repro.core.tokenizer import preprocess_message

        rows = []
        for m in pdf["message"]:
            toks = preprocess_message(m)
            if toks:
                rows.append({"n_tokens": len(toks), "tok_key": "␟".join(toks)})
        ref = pd.DataFrame(rows)
        assert_equivalent(
            agg,
            "SELECT n_tokens, COUNT(*) AS n, COUNT(DISTINCT tok_key) AS uniq "
            "FROM ref GROUP BY 1",
            ref=ref,
        )

    def test_empty_token_rows_dropped(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"message": ["a b", " ,; "]}))
        pre = preprocess_df(df, "message", ParserConfig())
        assert pre.count() == 1


class TestTrainParity:
    @pytest.mark.parametrize("dataset", ["HDFS", "Zookeeper"])
    def test_spark_equals_sequential(self, spark, dataset):
        pdf, _ = loghub_lite(dataset)
        cfg = ParserConfig()
        m_spark = train_model(spark, to_spark(spark, pdf), cfg=cfg)
        m_seq = train_model_sequential(pdf["message"].tolist(), cfg)
        a = sorted((nd.text(), round(nd.saturation, 9), nd.n_logs) for nd in m_spark.nodes)
        b = sorted((nd.text(), round(nd.saturation, 9), nd.n_logs) for nd in m_seq.nodes)
        assert a == b

    @pytest.mark.parametrize("messages", [[], ["", "  ", " ,; "]], ids=["empty", "all-blank"])
    def test_no_tokens_gives_empty_model(self, spark, messages):
        df = spark.createDataFrame(
            pd.DataFrame({"message": pd.Series(messages, dtype=object)}), "message string"
        )
        model = train_model(spark, df)
        assert model.nodes == []
        assert model.to_json() == train_model_sequential(messages).to_json()

    def test_prefix_grouping_spark(self, spark):
        pdf = pd.DataFrame({"message": ["alpha x1 y", "beta x2 y"] * 5, "log_id": range(10)})
        cfg = ParserConfig(prefix_k=1)
        model = train_model(spark, spark.createDataFrame(pdf), cfg=cfg)
        assert len({nd.group_key for nd in model.nodes}) == 2


class TestMatchDF:
    def test_match_equals_sequential(self, spark, corpus):
        df, pdf = corpus
        cfg = ParserConfig()
        model = train_model(spark, df, cfg=cfg)
        out = (
            match_df(spark, df, model, cfg, threshold=0.8)
            .toPandas()
            .sort_values("log_id")
        )
        seq = match_sequential(
            pdf["message"].tolist(), model, cfg, threshold=0.8, add_unmatched=False
        )
        texts_spark = out["template"].tolist()
        texts_seq = [model.nodes[i].text() if i >= 0 else "" for i in seq]
        assert texts_spark == texts_seq

    def test_all_training_logs_matched(self, spark, corpus):
        df, pdf = corpus
        cfg = ParserConfig()
        model = train_model(spark, df, cfg=cfg)
        out = match_df(spark, df, model, cfg)
        assert out.filter(F.col("template_id") < 0).count() == 0

    def test_add_unmatched_df(self, spark, corpus):
        df, pdf = corpus
        cfg = ParserConfig()
        model = train_model(spark, df, cfg=cfg)
        extra = spark.createDataFrame(
            pd.DataFrame({"message": ["never seen message body qq"], "log_id": [0]})
        )
        added = add_unmatched_df(spark, extra, model, cfg)
        assert added == 1
        out = match_df(spark, extra, model, cfg).toPandas()
        assert (out["template_id"] >= 0).all()
