"""Table-5 bench: production-topic training + matching throughput."""
import time

from repro.core import ParserConfig, match_sequential, train_model_sequential
from repro.logs.production import production_corpus


def test_bench_table5_topic(benchmark):
    pdf = production_corpus("go-http-api", target_mb=1.0)
    msgs = pdf["message"].tolist()

    def pipeline():
        model = train_model_sequential(msgs[:5000], ParserConfig())
        t0 = time.perf_counter()
        match_sequential(msgs, model)
        return (pdf["message"].str.len().sum() / (1 << 20)) / (time.perf_counter() - t0)

    mbps = benchmark.pedantic(pipeline, rounds=2, iterations=1)
    assert mbps > 0.05  # sane matching throughput in MB/s
