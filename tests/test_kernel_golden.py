"""Golden model digests: a kernel change that is meant to be a pure
performance change must leave every trained model byte-identical.

The digests are ``sha256(ParserModel.to_json())``, first recorded before
the clustering kernel was vectorised (one-pass node statistics, one
``bincount`` per cluster for Eq. 2) and re-recorded, with every node
unchanged, when templates went from separator-joined strings to JSON
arrays. They were re-recorded again when ``split_node`` stopped injecting
a cluster in its last round: the moved models lost only the one-log
leaves that had duplicated a log of a sibling. ``naive_match`` only adds the training assignment, which
``to_json`` does not serialize, so that case pins a digest of the
assignment (token tuple -> node id) too. ``web-access-high`` (recorded
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
        "default": "299f6f78f4a0806e26a20cbfff73b89be626cbe5216096f012d57b7770b31015",
        "prefix_k=1": "6a3ba40cfcb96646623666665e443b4f9d16c6e78dacb9ce845386ed3bc26ece",
        "early_stop=False": "299f6f78f4a0806e26a20cbfff73b89be626cbe5216096f012d57b7770b31015",
        "dedup=False": "299f6f78f4a0806e26a20cbfff73b89be626cbe5216096f012d57b7770b31015",
        "variable_credit=False": "84794ba7770bba7e2326ce54faa025c2870443b0b2b71a9f5ac339ec06253336",
        "naive_match=True": (
            "299f6f78f4a0806e26a20cbfff73b89be626cbe5216096f012d57b7770b31015",
            "1578ade730b1bd9e76b9b22450596864390f7415d993943d69589ddd47128d8e",
        ),
    },
    "Zookeeper": {
        "default": "f543938580e23ceb98beed3ce19761d77935c4cabef8a412c1fa9ee50fc9caf0",
        "prefix_k=1": "c3ab693550100296deaf80aa493bec3caf7150d39a72e7e9e3b466b0076a813d",
        "early_stop=False": "6a84b6ffc439e7b2a56da9c18417a0a67b13ff4f1790463f30eb3f7abcafe983",
        "dedup=False": "6c23e3c9052fd9d880fd4dcd8537506ea4c5d68ccc09c4604e4ce2a28e4e14c9",
        "variable_credit=False": "bcc60179aa5244e70e9b1192ec522113bb39aa946f5d0eeadc82aed867f36c3a",
        "naive_match=True": (
            "f543938580e23ceb98beed3ce19761d77935c4cabef8a412c1fa9ee50fc9caf0",
            "9ff6a26a01be8953621d41ed6525d53e6091540563feac0aa47537d85159338f",
        ),
    },
    "Hadoop": {
        "default": "b14b63db0d3fb13ffbe98f1618773c5befd44c5639f0154269c5d4408c059377",
        "prefix_k=1": "454e76fe7ae17ad854dab726205e47a0c491c9fd355e4223e7bb02ddf84c69ef",
        "early_stop=False": "f0013e7abb08bde61982a4d54bb02f0f870ae92cce5b9a94f226971a32972d35",
        "dedup=False": "f67b8d7494e2444c883e25c33f01be3416acbc997faed78984d3a10e16b836db",
        "variable_credit=False": "a5c80b2698dc40fa56653a61cbc186b0ab1e3b49a74723786aeb8b7a67c810e7",
        "naive_match=True": (
            "b14b63db0d3fb13ffbe98f1618773c5befd44c5639f0154269c5d4408c059377",
            "23dd0f3fa4882125d508ecb7c2827afc18a47f368d3bcfd5479faeb2be996019",
        ),
    },
    "Mac": {
        "default": "fc87a055cb695059ef781d84644447adeb2166556d4a86408a6f58ef59b7da21",
        "prefix_k=1": "109dff9dae144f54b286afc6d84cc08c10a492fef3148ee7cdd5e997e2427a5f",
        "early_stop=False": "0d68c35441eb308182c45cc3cdd988721a2e212491fab35b62e0d81419ed5689",
        "dedup=False": "7edc7042a188591a632f04461494c1eab5910354271b73d3412cc023ceb9bb50",
        "variable_credit=False": "725a92da4ccb78760cdb1e7b7606b1aee9de194e8641369fed50ccad0f457710",
        "naive_match=True": (
            "fc87a055cb695059ef781d84644447adeb2166556d4a86408a6f58ef59b7da21",
            "90b62092d04a9389cfc4c2ca715aebdf84e6296506a04591227bd2ddb1edfb44",
        ),
    },
    "web-access-high": {
        "default": "1b50ddca74972721212b94a1dc20ece33d2f9d2b206230128ace91d1c2b0e711",
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
