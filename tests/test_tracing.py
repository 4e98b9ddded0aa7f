"""The per-layer benchmark's tracer (``perfbench/tracing.py``) fits the
program: every name it wraps exists, and a traced sequential pass yields
the layer metrics the benchmark reports. A kernel refactor that renames
a traced function, moves a call out of a namespace the tracer patches
(the metric would silently read 0) or changes what a span note reads
(``build_tree``'s first argument must stay the group's unique-logs ×
tokens matrix) fails here, not only in a ``perfbench/run.py --trace 1``
run."""
import importlib
import inspect

import repro.core.cluster as cluster
import repro.core.train as train
from perfbench.tracing import FUNCTIONS, METHODS, Tracer, kernel_metrics
from repro.core import ParserModel, match_df, match_sequential, train_model, train_model_sequential
from repro.core.tokenizer import preprocess_message
from repro.logs import loghub_lite

#: Train-phase spans behind the benchmark's per-layer metrics.
TRAIN_SPANS = [
    "tokenizer.preprocess_message",
    "cluster.build_tree",
    "cluster.split_node",
    "cluster.factorize",
    "saturation.node_stats",
    "saturation.saturation",
    "saturation.resolved_masks",
    "distance.similarity_matrix_codes",
    "model.hash_tokens",
]


def test_traced_names_resolve():
    for _, mod_name, attr in FUNCTIONS:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), (mod_name, attr)
    for attr in METHODS:
        assert callable(ParserModel.__dict__.get(attr)), attr


def test_benchmark_calls_bind():
    """Every call ``perfbench/run.py`` makes into the program binds to the
    program's signatures, so a signature change that would break the
    benchmark's runs fails here."""
    calls = [
        (train_model_sequential, ("msgs",), {}),
        (match_sequential, ("stream", "model"), {"threshold": 0.8}),
        (train_model, ("spark", "df"), {}),
        (match_df, ("spark", "df", "model"), {"threshold": 0.8}),
        (ParserModel.from_json, ("blob",), {}),
    ]
    for f, args, kwargs in calls:
        inspect.signature(f).bind(*args, **kwargs)


def test_traced_pass_reports_layers():
    msgs = loghub_lite("Zookeeper")[0]["message"].tolist()
    logs, stream = msgs[:200], msgs[200:400]
    tracer = Tracer()
    tracer.pass_id = 1
    with tracer.installed():
        with tracer.span("train", phase="train"):
            model = train_model_sequential(logs)
        trained_nodes = len(model.nodes)
        trained = model.to_json()
        with tracer.span("match", phase="match"):
            match_sequential(stream, model)
    m = kernel_metrics(tracer, 1, len(logs), len(stream), trained_nodes)
    unique = {toks for msg in logs if (toks := tuple(preprocess_message(msg)))}
    for name in TRAIN_SPANS:
        assert tracer.select(name, 1, "train"), name
    assert tracer.select("tokenizer.preprocess_message", 1, "match")
    assert m["train.unique_logs"] == len(unique)
    assert m["model.match_tokens.calls"] >= 1
    # Tracing changes no result, and the wrappers are gone afterwards.
    assert trained == train_model_sequential(logs).to_json()
    assert train.build_tree is cluster.build_tree


def test_max_depth_is_longest_parent_chain():
    """The benchmark's ``model.max_depth`` is ``max(nd.depth)`` over the
    model after matching has added temporary templates, read outside any
    traced call, so no span notices a lost or wrong depth: it must equal
    the longest parent chain of the model."""
    msgs = loghub_lite("Mac")[0]["message"].tolist()
    model = train_model_sequential(msgs[:600])
    trained = len(model.nodes)
    match_sequential(msgs[600:], model)
    assert len(model.nodes) > trained

    def chain(nid: int) -> int:
        parent = model.nodes[nid].parent
        return 0 if parent < 0 else 1 + chain(parent)

    longest = max(chain(nd.nid) for nd in model.nodes)
    assert longest >= 2
    assert max(nd.depth for nd in model.nodes) == longest
