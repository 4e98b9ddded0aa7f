"""In-memory spans around calls into each layer of the parser.

Wrappers are installed from here, on the names each caller looks up
(``repro.core.train.build_tree`` rather than ``repro.core.cluster``'s,
both ``cluster.node_stats`` and ``saturation.node_stats``), and removed
again after the traced pass; the program itself is not modified. A span
records name, start, end, parent span, pass id and phase (the
benchmark's own ``train``/``match``/``sweep`` span it ran under). Self
time is a span's duration minus its children's.
"""
from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from time import perf_counter

from repro.core.model import ParserModel

#: (span name, module, attribute): module-level functions, patched in the
#: namespace of the module that calls them.
FUNCTIONS = [
    ("tokenizer.preprocess_message", "repro.core.train", "preprocess_message"),
    ("tokenizer.preprocess_message", "repro.core.match", "preprocess_message"),
    ("cluster.build_tree", "repro.core.train", "build_tree"),
    ("cluster.split_node", "repro.core.cluster", "split_node"),
    ("cluster.factorize", "repro.core.cluster", "factorize"),
    ("saturation.node_stats", "repro.core.cluster", "node_stats"),
    ("saturation.node_stats", "repro.core.saturation", "node_stats"),
    ("saturation.saturation", "repro.core.cluster", "saturation"),
    ("saturation.resolved_masks", "repro.core.cluster", "resolved_masks"),
    ("saturation.resolved_masks", "repro.core.saturation", "resolved_masks"),
    ("distance.similarity_matrix_codes", "repro.core.cluster", "similarity_matrix_codes"),
    ("model.hash_tokens", "repro.core.train", "hash_tokens"),
    ("model.hash_tokens", "repro.core.model", "hash_tokens"),
]
#: ParserModel methods, patched on the class.
METHODS = ["match_tokens", "add_temp_template", "ancestor_at", "templates_at", "to_json"]
#: Leaf calls too small and too many (a query sweep makes close to a million
#: ``ancestor_at`` calls) for a span each: they add to a per-(name, pass,
#: phase) call count and time instead, and to their parent's child time.
AGGREGATED = {"model.ancestor_at"}

_NAME, _START, _END, _PARENT, _PASS, _PHASE, _CHILD, _NOTE = range(8)


def _build_tree_note(args, kwargs):
    """Unique logs in the group handed to ``build_tree``."""
    return int(args[0].shape[0])


class Tracer:
    """Span recorder; spans stay in memory until ``dump``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pass_id = 0
        self.phase = ""
        self.totals: dict[tuple[str, int, str], list] = {}  # -> [calls, seconds]

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.pass_id, self.phase, 0.0, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        rec = self.spans[idx]
        rec[_END] = perf_counter()
        self._stack.pop()
        if rec[_PARENT] >= 0:
            self.spans[rec[_PARENT]][_CHILD] += rec[_END] - rec[_START]

    @contextmanager
    def span(self, name: str, phase: str | None = None):
        """Span around a block; ``phase`` labels everything under it."""
        prev = self.phase
        if phase is not None:
            self.phase = phase
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self.phase = prev

    def wrap(self, name: str, fn, note=None):
        """``fn`` recording a span per call (``_open``/``_close`` inlined:
        the tokenizer runs tens of thousands of times per pass)."""
        if name in AGGREGATED:
            return self._wrap_aggregated(name, fn)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.pass_id, self.phase, 0.0,
                   None if note is None else note(args, kwargs)]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[_END] = end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][_CHILD] += end - rec[_START]

        traced.__wrapped__ = fn
        return traced

    def _wrap_aggregated(self, name: str, fn):
        spans, stack, totals = self.spans, self._stack, self.totals

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                tot = totals.setdefault((name, self.pass_id, self.phase), [0, 0.0])
                tot[0] += 1
                tot[1] += dt
                if stack:
                    spans[stack[-1]][_CHILD] += dt

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block."""
        saved = []
        for name, mod_name, attr in FUNCTIONS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            note = _build_tree_note if attr == "build_tree" else None
            setattr(mod, attr, self.wrap(name, fn, note))
        for attr in METHODS:
            fn = ParserModel.__dict__[attr]
            saved.append((ParserModel, attr, fn))
            setattr(ParserModel, attr, self.wrap(f"model.{attr}", fn))
        from_json = ParserModel.__dict__["from_json"]
        saved.append((ParserModel, "from_json", from_json))
        ParserModel.from_json = classmethod(self.wrap("model.from_json", from_json.__func__))
        try:
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def select(self, name: str, pass_id: int | None = None, phase: str | None = None) -> list[list]:
        return [
            s for s in self.spans
            if s[_NAME] == name
            and (pass_id is None or s[_PASS] == pass_id)
            and (phase is None or s[_PHASE] == phase)
        ]

    def total(self, name: str, pass_id: int) -> tuple[int, float]:
        """(calls, seconds) of an aggregated name in one pass."""
        tots = [v for (n, p, _), v in self.totals.items() if n == name and p == pass_id]
        return sum(v[0] for v in tots), sum(v[1] for v in tots)

    def dump(self, path, metrics: dict) -> None:
        """Write every span, the aggregated totals and the derived metrics
        as one JSON file."""
        fields = ["name", "start", "end", "parent", "pass", "phase", "child_s", "note"]
        totals = [[n, p, ph, c, t] for (n, p, ph), (c, t) in self.totals.items()]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans, "totals": totals, "metrics": metrics}, fh)


def self_s(spans: list[list]) -> float:
    return sum(s[_END] - s[_START] - s[_CHILD] for s in spans)


def dur_s(s: list) -> float:
    return s[_END] - s[_START]


def kernel_metrics(
    tr: Tracer, pass_id: int, n_logs_trained: int, n_logs_matched: int, trained_nodes: int
) -> dict[str, float]:
    """Per-layer metrics of one traced sequential pass (train + match + sweep)."""
    q = lambda name, phase=None: tr.select(name, pass_id, phase)  # noqa: E731
    tok = q("tokenizer.preprocess_message")
    trees = q("cluster.build_tree")
    tree_s = [dur_s(s) for s in trees]
    group_sizes = [s[_NOTE] for s in trees]
    node_stats = q("saturation.node_stats")
    matches = q("model.match_tokens")
    temps = q("model.add_temp_template")
    m = {
        "tokenizer.preprocess_message.calls": len(tok),
        "tokenizer.preprocess_message.train_self_s": self_s(q("tokenizer.preprocess_message", "train")),
        "tokenizer.preprocess_message.match_self_s": self_s(q("tokenizer.preprocess_message", "match")),
        "train.logs": n_logs_trained,
        "train.unique_logs": sum(group_sizes),
        "train.groups": len(group_sizes),
        "train.largest_group_unique": max(group_sizes, default=0),
        "train.largest_group_share": max(tree_s, default=0.0) / (sum(tree_s) or 1.0),
        "cluster.build_tree.calls": len(trees),
        "cluster.build_tree.self_s": self_s(trees),
        "cluster.build_tree.max_s": max(tree_s, default=0.0),
        "cluster.split_node.calls": len(q("cluster.split_node")),
        "cluster.split_node.self_s": self_s(q("cluster.split_node")),
        "cluster.factorize.self_s": self_s(q("cluster.factorize")),
        "saturation.node_stats.calls": len(node_stats),
        "saturation.node_stats.self_s": self_s(node_stats),
        "saturation.node_stats.calls_per_node": len(node_stats) / max(trained_nodes, 1),
        "saturation.saturation.calls": len(q("saturation.saturation")),
        "saturation.saturation.self_s": self_s(q("saturation.saturation")),
        "saturation.resolved_masks.calls": len(q("saturation.resolved_masks")),
        "saturation.resolved_masks.self_s": self_s(q("saturation.resolved_masks")),
        "distance.similarity_matrix_codes.calls": len(q("distance.similarity_matrix_codes")),
        "distance.similarity_matrix_codes.self_s": self_s(q("distance.similarity_matrix_codes")),
        "model.match_tokens.calls": len(matches),
        "model.match_tokens.self_s": self_s(matches),
        "model.match_tokens.max_ms": 1e3 * max((dur_s(s) for s in matches), default=0.0),
        "model.add_temp_template.calls": len(temps),
        "model.unmatched_ratio": len(temps) / max(len(matches), 1),
        "model.hash_tokens.train_self_s": self_s(q("model.hash_tokens", "train")),
        "model.hash_tokens.match_self_s": self_s(q("model.hash_tokens", "match")),
        "model.ancestor_at.calls": tr.total("model.ancestor_at", pass_id)[0],
        "model.ancestor_at.self_s": tr.total("model.ancestor_at", pass_id)[1],
        "model.templates_at.self_s": self_s(q("model.templates_at")),
        "model.to_json.self_s": self_s(q("model.to_json")),
        "model.from_json.self_s": self_s(q("model.from_json")),
        "match.match_sequential.self_s": self_s(q("match.match_sequential")),
        "match.memo_hit_ratio": 1.0 - len(matches) / max(n_logs_matched, 1),
    }
    m["train.dedup_ratio"] = m["train.unique_logs"] / max(n_logs_trained, 1)
    return m
