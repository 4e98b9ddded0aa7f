"""Golden match digests: a matcher change that is meant to be a pure
performance change must give every log the same node id.

Each case trains a model on a LogHub-lite corpus (all of it, or its
first 30% so that unmatched logs become temporary templates), then
matches the whole corpus with ``match_sequential`` in 100-log batches on
that one live model. The golden value is ``sha256`` of the JSON list of
matched ids, paired with the model's final node count. The digests were
recorded before the matching index moved from 64-bit token hashes to
vocabulary codes, and re-recorded when ``split_node`` stopped injecting
a cluster in its last round, which changed some trained Hadoop and Mac
trees. A change that alters matches on purpose must re-record
them with ``PYTHONPATH=src python -m tests.record_golden --write`` and
say so.
"""
import hashlib
import json

import pytest

from repro.core import ParserConfig, match_sequential, train_model_sequential
from repro.logs import loghub_lite

CORPORA = ("HDFS", "Zookeeper", "Hadoop", "Mac")

#: case -> (share of the corpus trained on, config fields, query threshold)
CASES = {
    "all": (1.0, {}, None),
    "all@0.8": (1.0, {}, 0.8),
    "first30%": (0.3, {}, None),
    "first30%@0.8": (0.3, {}, 0.8),
    "all,naive_match@0.8": (1.0, {"naive_match": True}, 0.8),
    "first30%,naive_match@0.8": (0.3, {"naive_match": True}, 0.8),
}

GOLDEN = {
    "HDFS": {
        "all": (
            "29559a211f33191cc17ce6e29071f49bc00bdb220daa63fadc9fe00a6cbcd11b",
            20,
        ),
        "all@0.8": (
            "29559a211f33191cc17ce6e29071f49bc00bdb220daa63fadc9fe00a6cbcd11b",
            20,
        ),
        "first30%": (
            "a652ae2b363d9db3c11d552312c8c7746a885a2965cb9e92d7ae42aa02042cb3",
            21,
        ),
        "first30%@0.8": (
            "a652ae2b363d9db3c11d552312c8c7746a885a2965cb9e92d7ae42aa02042cb3",
            21,
        ),
        "all,naive_match@0.8": (
            "29559a211f33191cc17ce6e29071f49bc00bdb220daa63fadc9fe00a6cbcd11b",
            20,
        ),
        "first30%,naive_match@0.8": (
            "a652ae2b363d9db3c11d552312c8c7746a885a2965cb9e92d7ae42aa02042cb3",
            21,
        ),
    },
    "Zookeeper": {
        "all": (
            "6811ef01f0f77f2d29d8a40b8398e10309b17f0cd9a777d3e99663c6dd4ccb8d",
            98,
        ),
        "all@0.8": (
            "9a77042e42bc5816ec2d687785ecb78898b633fb29d5979e25273f2fe9681a21",
            98,
        ),
        "first30%": (
            "507ceab0115843c79b11191d63fb4824924929c9fd7829b0f371adfd86877b7e",
            91,
        ),
        "first30%@0.8": (
            "b7d39284d0da9d1ef233f11a5a027ae32fd4b97a5950f72633a42c814a811530",
            91,
        ),
        "all,naive_match@0.8": (
            "9a77042e42bc5816ec2d687785ecb78898b633fb29d5979e25273f2fe9681a21",
            98,
        ),
        "first30%,naive_match@0.8": (
            "b7d39284d0da9d1ef233f11a5a027ae32fd4b97a5950f72633a42c814a811530",
            91,
        ),
    },
    "Hadoop": {
        "all": (
            "06b50b4dd0736738c3fb2cb12513b7fa1d34e4c9c0676d6f401894d754ad93a7",
            218,
        ),
        "all@0.8": (
            "e43781f1caeb28fedc8da44a52e3e5d015795d48778812300d49b2470fceca63",
            218,
        ),
        "first30%": (
            "1a399f556777ebe26596055aec8463c38a41aa1abb0a2397bbcfc46a47824489",
            134,
        ),
        "first30%@0.8": (
            "b50a22af62f3769a6b14bdf820bfab4f36864cf5886487b53a3f7d58c12feb70",
            134,
        ),
        "all,naive_match@0.8": (
            "e43781f1caeb28fedc8da44a52e3e5d015795d48778812300d49b2470fceca63",
            218,
        ),
        "first30%,naive_match@0.8": (
            "b50a22af62f3769a6b14bdf820bfab4f36864cf5886487b53a3f7d58c12feb70",
            134,
        ),
    },
    "Mac": {
        "all": (
            "2f6acd6ec7352ea2e0eb4266e7e68dbe08b76ecf98d36e5277daee0f397d8689",
            333,
        ),
        "all@0.8": (
            "f3b9a68ecb77a7571a30775b97a414ba868f91b8fbadc4bf40cce679e3761f2e",
            333,
        ),
        "first30%": (
            "a168cc33d11188b7e61d9500fe46041df37ee587845a497de286e901d0eb696f",
            144,
        ),
        "first30%@0.8": (
            "792b4603ce2570107b4bbaa2ff2ba748302f76ccab2d92f57401b8f8e7f97241",
            144,
        ),
        "all,naive_match@0.8": (
            "06481df828507beb92cf52ef7b4c0b840851fe64795c99e7b706bcdba1803df2",
            333,
        ),
        "first30%,naive_match@0.8": (
            "68ae242f6b459ad725ab77fde2130492e44cadb45ca2a29a4b53486c1a042f25",
            144,
        ),
    },
}


def match_digest(msgs: list[str], case: str) -> tuple[str, int]:
    share, fields, threshold = CASES[case]
    cfg = ParserConfig().ablate(**fields)
    model = train_model_sequential(msgs[: int(len(msgs) * share)], cfg)
    ids: list[int] = []
    for i in range(0, len(msgs), 100):
        ids += match_sequential(msgs[i : i + 100], model, threshold=threshold)
    return hashlib.sha256(json.dumps(ids).encode()).hexdigest(), len(model.nodes)


@pytest.fixture(scope="module", params=CORPORA)
def corpus(request):
    return request.param, loghub_lite(request.param)[0]["message"].tolist()


@pytest.mark.parametrize("case", list(CASES))
def test_match_digest_unchanged(corpus, case):
    name, msgs = corpus
    assert match_digest(msgs, case) == GOLDEN[name][case]
