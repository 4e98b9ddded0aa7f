"""Golden model digests: a kernel change that is meant to be a pure
performance change must leave every trained model byte-identical.

The digests are ``sha256(ParserModel.to_json())``, first recorded before
the clustering kernel was vectorised (one-pass node statistics, one
``bincount`` per cluster for Eq. 2) and re-recorded, with every node
unchanged, when templates went from separator-joined strings to JSON
arrays. They were re-recorded again when ``split_node`` stopped injecting
a cluster in its last round: the moved models lost only the one-log
leaves that had duplicated a log of a sibling. They were re-recorded
once more, with every node's (parent, template, saturation, n_logs,
depth, group key) unchanged, when the JSON rows dropped the depth and a
child's group key, which ``add_node`` derives from the parent link.
``naive_match`` only adds the training assignment, which
``to_json`` does not serialize, so that case pins a digest of the
assignment (token tuple -> node id) too. ``web-access-high`` (recorded
before training computed each node's statistics once) is one length
group of all-unique access lines clustered as a single tree: it pins the
independence filter on many rows and the reuse of the
ensure-saturation-increase check's cluster statistics. A change that
alters the trees or their JSON form on purpose must re-record these with
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
        "default": "d0225dabfb2cd132c560f9ce28c32a8135dc15f8109c1bd84c429aa4a94e4f4c",
        "prefix_k=1": "a625deee3e195f0c6f96280170553eba3a5e26beaf5337d9e2fc9992b3387dd2",
        "early_stop=False": "d0225dabfb2cd132c560f9ce28c32a8135dc15f8109c1bd84c429aa4a94e4f4c",
        "dedup=False": "d0225dabfb2cd132c560f9ce28c32a8135dc15f8109c1bd84c429aa4a94e4f4c",
        "variable_credit=False": "ad2c143206f85a4696c168de736d33cf0ff10afb1a0b7d52b5347260523b2fcb",
        "naive_match=True": (
            "d0225dabfb2cd132c560f9ce28c32a8135dc15f8109c1bd84c429aa4a94e4f4c",
            "1578ade730b1bd9e76b9b22450596864390f7415d993943d69589ddd47128d8e",
        ),
    },
    "Zookeeper": {
        "default": "8162fb92a178c0ecb930459e266adfe7a6e92666e4b5cc17c1dba179f6474a9e",
        "prefix_k=1": "16d8421bc3d385f238dd73c7093b8eb93f63f52b90da4b22052b5a78ef78df25",
        "early_stop=False": "4640b945a4f12dcac9ea80ee04b48cf581634dbae80a86e4f1a29b141ab1cc80",
        "dedup=False": "f454a03878b5e0d24f494b0c3abd66ffc00ea26383a7ff5a25fdf8bda08ba65e",
        "variable_credit=False": "7477446e764262f3ecb461b31a690e8f1d6af8c5ea2458aba13651d5369ffa2f",
        "naive_match=True": (
            "8162fb92a178c0ecb930459e266adfe7a6e92666e4b5cc17c1dba179f6474a9e",
            "9ff6a26a01be8953621d41ed6525d53e6091540563feac0aa47537d85159338f",
        ),
    },
    "Hadoop": {
        "default": "1ec9542931d8829da0c4f7c575a3c3d5cfd11b1371eadc6a4137955a3bb33e2d",
        "prefix_k=1": "0cadb88df064551e996148941a27d80bcf3202ed4c8365c8613d449d1324a0ca",
        "early_stop=False": "861648914da644386fff93c2561b0ebfa80b9459120a6050f430fc6df213f6d2",
        "dedup=False": "ce4707072ed5f66b071acea05a3e8bf71eb45ac097febe8e3bdfbcbfa6f1a75b",
        "variable_credit=False": "69582f7ff2977db5baa74ddc6679a36e857ac82f5ae64896660a13c807544108",
        "naive_match=True": (
            "1ec9542931d8829da0c4f7c575a3c3d5cfd11b1371eadc6a4137955a3bb33e2d",
            "23dd0f3fa4882125d508ecb7c2827afc18a47f368d3bcfd5479faeb2be996019",
        ),
    },
    "Mac": {
        "default": "f7f43b15062d2a60b68845e50e0d7d7c6f26bdbd7e48e7868c024ca234b10520",
        "prefix_k=1": "164dab4a7d06eece2a9d8c139f6b0f27ff598427baeb7ae3d96bc7a25681c1b2",
        "early_stop=False": "e60fcc11cac02bf89a747151bb8a258b436b4b4a163d52f9f12f3db9f413b117",
        "dedup=False": "0275850ee7f485a30e05a1a7e0d9b6e8e3d1d9207e1fb71924e0e7eb45f66450",
        "variable_credit=False": "8e25ba8faefda6321613bea9a0032a71702f440a646799dc5cfa2aa4cd412759",
        "naive_match=True": (
            "f7f43b15062d2a60b68845e50e0d7d7c6f26bdbd7e48e7868c024ca234b10520",
            "90b62092d04a9389cfc4c2ca715aebdf84e6296506a04591227bd2ddb1edfb44",
        ),
    },
    "web-access-high": {
        "default": "c0aca21790936619ac85c966020fa06ab91a7048abf6919bbe23185c29c17c4b",
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
