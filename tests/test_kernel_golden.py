"""Golden model digests: a kernel change that is meant to be a pure
performance change must leave every trained model byte-identical.

The digests are ``sha256(ParserModel.to_json())``, first recorded before
the clustering kernel was vectorised (one-pass node statistics, one
``bincount`` per cluster for Eq. 2) and re-recorded, with every node
unchanged, when templates went from separator-joined strings to JSON
arrays. ``naive_match`` only adds the training assignment, which
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
        "variable_credit=False": "cbbe4fc42aae6bcdd48e81c3e23799d3c6d4396edd28ed8591dc8c05ab3bd8ea",
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
        "variable_credit=False": "05d3bf7ba365419c0352a4ca4bad27650775fb372fa859be4b1e595dcdea562a",
        "naive_match=True": (
            "f543938580e23ceb98beed3ce19761d77935c4cabef8a412c1fa9ee50fc9caf0",
            "9ff6a26a01be8953621d41ed6525d53e6091540563feac0aa47537d85159338f",
        ),
    },
    "Hadoop": {
        "default": "20261f027a39b5b55d25a6760ca01fd60b6acd965f0b27841893f8c6644adf60",
        "prefix_k=1": "454e76fe7ae17ad854dab726205e47a0c491c9fd355e4223e7bb02ddf84c69ef",
        "early_stop=False": "47f7804e3366942c3784902337143f41348c666784be956e71b4d4bd13ca820d",
        "dedup=False": "f67b8d7494e2444c883e25c33f01be3416acbc997faed78984d3a10e16b836db",
        "variable_credit=False": "617efbe3ec98cc11323e1eb8cd3cea0b97bb9c8e136a73e4b7a37c129d589665",
        "naive_match=True": (
            "20261f027a39b5b55d25a6760ca01fd60b6acd965f0b27841893f8c6644adf60",
            "4e4bf07ba119a75c7bb9bddaf8986e6394fe9c972b83d8eddb14cdb302b7a892",
        ),
    },
    "Mac": {
        "default": "3e7d8bf508d91606c528d951f8c6cd442be272330de48b1b7ddb4a0e64cd1ad7",
        "prefix_k=1": "109dff9dae144f54b286afc6d84cc08c10a492fef3148ee7cdd5e997e2427a5f",
        "early_stop=False": "872151dee1354e89cdd85c2d50b15a3519a2481d0a68b9830d8b8e95423af3c4",
        "dedup=False": "1577a0d7a1a7f5c3b3258a7878d2a192b571c7a4dcf44fcb69deb74d3285ae63",
        "variable_credit=False": "b50fcfd30c3bd2c4d997c32a0d8df2861f21f52b52c885a62d19326009d16661",
        "naive_match=True": (
            "3e7d8bf508d91606c528d951f8c6cd442be272330de48b1b7ddb4a0e64cd1ad7",
            "ba932edb72381d078854ed3d3a70cb85eb49c5d9b51effffc58211aa6f47d63d",
        ),
    },
    "web-access-high": {
        "default": "3a5062cd3fe8abbae1fd4ac30c754474f70cd5e767d1c959a7487838a901bfe1",
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
