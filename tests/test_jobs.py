"""Job entrypoints (one per paper table) run end-to-end on small inputs."""
import sys

import pytest

sys.path.insert(0, "jobs")

import table1_dataset_stats  # noqa: E402
import table2_loghub_accuracy  # noqa: E402
import table3_loghub2_accuracy  # noqa: E402
import table4_saturation_templates  # noqa: E402
import table5_production  # noqa: E402


class TestTable1:
    def test_rows_cover_all_datasets(self):
        rows = table1_dataset_stats.run()
        assert len(rows) == 16
        hdfs = next(r for r in rows if r["dataset"] == "HDFS")
        assert hdfs["lh_logs"] == 2000
        assert hdfs["lh_bank"] == 14
        assert hdfs["paper_lh2_logs"] == 11_167_740


class TestTable2:
    def test_one_dataset_matrix(self, spark):
        results = table2_loghub_accuracy.run(spark, datasets=["HDFS"], budget_s=30)
        methods = {r.method for r in results}
        assert "ByteBrain" in methods and "Drain" in methods and "LILAC" in methods
        assert "ByteBrain-Seq" in methods
        assert len(results) == 18  # spark + sequential + 16 baselines
        ga = {r.method: r.ga for r in results}
        assert ga["ByteBrain"] == ga["ByteBrain-Seq"]
        text = table2_loghub_accuracy.render(results)
        assert "HDFS" in text and "ByteBrain" in text


class TestTable3:
    def test_one_dataset_small_scale(self, spark):
        results = table3_loghub2_accuracy.run(
            spark, datasets=["Proxifier"], scale=0.3, budget_s=30
        )
        bb = next(r for r in results if r.method == "ByteBrain")
        assert bb.ga > 0.5


class TestTable4:
    def test_threshold_progression(self):
        out = table4_saturation_templates.run(n_logs=1200)
        counts = [len(out[t]) for t in (0.05, 0.78, 0.9, 0.95)]
        assert counts == sorted(counts)  # finer thresholds, more templates
        # Low threshold: wildcard-dominated skeletons.
        assert any("*" in t for t in out[0.05])
        # High threshold pins process names (the paper's 0.95 row).
        assert any("audioserver" in t for t in out[0.95])
        assert all("tag *" in t for t in out[0.95])


class TestTable5:
    def test_production_rows(self):
        rows = table5_production.run(None, target_mb=0.5, train_sample=3000)
        assert len(rows) == 5
        for r in rows:
            assert r["train_s"] > 0
            assert r["model_mb"] > 0
            assert r["match_mb_per_s"] > 0
            assert r["model_mb"] < r["corpus_mb"]  # storage-efficiency claim
