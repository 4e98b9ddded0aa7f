"""Golden model digests: a kernel change that is meant to be a pure
performance change must leave every trained model byte-identical.

The digests are ``sha256(ParserModel.to_json())`` recorded before the
clustering kernel was vectorised (one-pass node statistics, one
``bincount`` per cluster for Eq. 2). ``naive_match`` only adds the
training assignment, which ``to_json`` does not serialize, so that case
pins a digest of the assignment too. ``web-access-high`` (recorded
before training computed each node's statistics once) is one length
group of all-unique access lines clustered as a single tree: it pins the
independence filter on many rows and the reuse of the
ensure-saturation-increase check's cluster statistics. A change that
alters the trees on purpose must re-record these with
``PYTHONPATH=src python -m tests.record_golden --write`` and say so.
"""
import hashlib
import json

import pytest

from repro.core import ParserConfig, train_model_sequential
from repro.logs import loghub_lite
from repro.logs.production import production_corpus

VARIANTS = {
    "default": {},
    "prefix_k=1": {"prefix_k": 1},
    "early_stop=False": {"early_stop": False},
    "dedup=False": {"dedup": False},
    "variable_credit=False": {"variable_credit": False},
    "naive_match=True": {"naive_match": True},
}

#: corpus -> the variants pinned on it
CORPORA = {
    **{name: tuple(VARIANTS) for name in ("HDFS", "Zookeeper", "Hadoop", "Mac")},
    "web-access-high": ("default",),
}

GOLDEN = {
    "HDFS": {
        "default": "bda0a2798a568d776f2d96abca4d0e45cffa94a14f7423df51b33a53e628de63",
        "prefix_k=1": "0a203a49b001ca800bda03df6a435a2dcb7004f637ae7ef7a6d77593842b952b",
        "early_stop=False": "bda0a2798a568d776f2d96abca4d0e45cffa94a14f7423df51b33a53e628de63",
        "dedup=False": "bda0a2798a568d776f2d96abca4d0e45cffa94a14f7423df51b33a53e628de63",
        "variable_credit=False": "563983fac3b5ab240eb4d0a3d78d4d7552b9976d1ab79bb44a11157978a9f69e",
        "naive_match=True": (
            "bda0a2798a568d776f2d96abca4d0e45cffa94a14f7423df51b33a53e628de63",
            "72ffbbb4f56e7bc2ae5bb6d475bd26b871c270dd3d29a2deacb6d5102959580e",
        ),
    },
    "Zookeeper": {
        "default": "433446c15d95b6a5e7bcd50a3befaf40d7e957a2846bd769b9e683f10e2b591e",
        "prefix_k=1": "dba68a3aaacd16c21b01e718eb67f5cf96812bdf0d10a29ef0620824cf5835c3",
        "early_stop=False": "5ae36f9a7776f018c048fccd98ea5f2458baee8082308d8294a2328edea93906",
        "dedup=False": "bbad5696748cf39d6029c915a4bcd61ca7cdd9c83dc309666fbad88d2fc7449a",
        "variable_credit=False": "131ccccceebd8b18d49378a69d14b61f634ca9762ee2816c63f127017c4fdeb5",
        "naive_match=True": (
            "433446c15d95b6a5e7bcd50a3befaf40d7e957a2846bd769b9e683f10e2b591e",
            "a5da60b98684f3276032aed1e42894e469b8167880d8b8f154de428d7d1596e6",
        ),
    },
    "Hadoop": {
        "default": "1d694b85d0ec96a754171dbee0c469a1d4e41d9b84c4918061f98ef7c77a10e5",
        "prefix_k=1": "df9972089633e2820f59c81522887f31f8ccd291740df5926c22b6b3f56ae9f4",
        "early_stop=False": "b60b72a8d353be54a8b1d59c27c949148e48f21401e45256d933ebb33980c41c",
        "dedup=False": "b71df3279bd81d8056e11a28ceea5ccfc3a04c653e0186218bd7bea5495dd9ff",
        "variable_credit=False": "136ff0dbc551340efaf4d4c2f9e58f2ebff0e968d1e246f7827817420ceb0679",
        "naive_match=True": (
            "1d694b85d0ec96a754171dbee0c469a1d4e41d9b84c4918061f98ef7c77a10e5",
            "ad8e07d42eb9142825a32296fd2e342ddd3152d6ecfbbff0de667695ba3650a2",
        ),
    },
    "Mac": {
        "default": "59a4c46353be54fd016aed25940a597d2810cdd7a1d70fad9dd0fe738b78235e",
        "prefix_k=1": "aaef16944f6a9665727bd181cec7a15ce219b79b5de0eb6b770d03c5d9224860",
        "early_stop=False": "aabc49ff81cc0f4786cebcde4ddaa16931f182b27c4a57abe6fc34eac031c5d2",
        "dedup=False": "c0d7a8047bcc093cdbc5de5cd825043a3e7eac8c75d5817e145267e96e4365c9",
        "variable_credit=False": "7bbefd2e0ecb21804ddcf0a92fa2b14b906492b2b4e47955bf0f9483d223562d",
        "naive_match=True": (
            "59a4c46353be54fd016aed25940a597d2810cdd7a1d70fad9dd0fe738b78235e",
            "cddd441386bb3be6261b4f10ce3b2edfa5f72d6b6215d8dc6974f1a3957f8bee",
        ),
    },
    "web-access-high": {
        "default": "6b894b9f41eb60bf9c94e69b735299b21b74c153b68f1bca442c3e178f31a61e",
    },
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def model_digest(msgs: list[str], variant: str) -> str | tuple[str, str]:
    cfg = ParserConfig().ablate(**VARIANTS[variant])
    model = train_model_sequential(msgs, cfg)
    if cfg.naive_match:
        return sha256(model.to_json()), sha256(json.dumps(sorted(model.train_assignment.items())))
    return sha256(model.to_json())


def corpus_messages(name: str) -> list[str]:
    if name == "web-access-high":
        return production_corpus(name, target_mb=0.25)["message"].tolist()
    return loghub_lite(name)[0]["message"].tolist()


@pytest.fixture(scope="module")
def messages():
    """Corpus name -> messages, each corpus loaded once per module."""
    loaded: dict[str, list[str]] = {}

    def get(name: str) -> list[str]:
        if name not in loaded:
            loaded[name] = corpus_messages(name)
        return loaded[name]

    return get


@pytest.mark.parametrize(
    "name,variant", [(name, v) for name, variants in CORPORA.items() for v in variants]
)
def test_model_digest_unchanged(messages, name, variant):
    assert model_digest(messages(name), variant) == GOLDEN[name][variant]
