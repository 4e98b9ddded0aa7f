"""Micro-benchmarks for the ByteBrain core pipeline stages."""
import numpy as np
import pytest

from repro.core import ParserConfig, match_sequential, train_model_sequential
from repro.core.cluster import build_tree
from repro.core.config import ClusterConfig
from repro.core.model import hash_tokens
from repro.core.tokenizer import preprocess_message
from repro.logs import loghub_lite


@pytest.fixture(scope="module")
def corpus():
    pdf, _ = loghub_lite("HDFS")
    return pdf["message"].tolist()


def test_bench_preprocess(benchmark, corpus):
    """Variable replacement + tokenization, pure-Python path."""
    benchmark(lambda: [preprocess_message(m) for m in corpus])


def test_bench_cluster_kernel(benchmark, corpus):
    """Hierarchical clustering on one pre-built group."""
    toks = {}
    for m in corpus:
        t = tuple(preprocess_message(m))
        toks[t] = toks.get(t, 0) + 1
    by_len = {}
    for t, c in toks.items():
        by_len.setdefault(len(t), []).append((t, c))
    texts, counts = zip(*max(by_len.values(), key=len))
    mat = np.vstack([hash_tokens(t) for t in texts])
    cnt = np.array(counts)
    cfg = ClusterConfig()

    benchmark(
        lambda: build_tree(mat, cnt, list(texts), cfg, np.random.default_rng(0))
    )


def test_bench_train_sequential(benchmark, corpus):
    benchmark.pedantic(lambda: train_model_sequential(corpus, ParserConfig()), rounds=2, iterations=1)


def test_bench_match_sequential(benchmark, corpus):
    model = train_model_sequential(corpus)
    benchmark(lambda: match_sequential(corpus, model, threshold=0.8, add_unmatched=False))
