"""The trained parser model: template tree, matching index, queries.

The model stores only node metadata (template tokens, saturation,
parent/child links, counts) — exactly what the paper keeps in its
internal topic (§3) — so it is small and JSON-serializable, each
template as an array of its tokens. Online matching (§4.8) never
recomputes distances: logs are matched against template texts in
descending saturation order. The index codes every template token with
one vocabulary (a dict probe per log token, and exact token equality),
keeps one inverted index per length bucket on the most discriminative
token position, and scans a log's candidates in rank order, stopping at
the first hit, so each log only inspects a handful of templates.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from repro.core.tokenizer import WILDCARD


def token_hash64(token: str) -> int:
    """Deterministic 64-bit token hash (§4.1.4): both training paths
    encode each initial group's distinct tokens with it, in
    ``train._cluster_group``. Matching does not hash: it codes tokens
    with the model's vocabulary."""
    return int.from_bytes(hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "big", signed=True)


def hash_tokens(tokens) -> np.ndarray:
    return np.array([token_hash64(t) for t in tokens], dtype=np.int64)


@dataclass
class TemplateNode:
    """One clustering-tree node (a template at some precision level)."""

    nid: int
    parent: int  # -1 when the node is a group root / temporary template
    template: tuple[str, ...]
    saturation: float
    n_logs: int
    depth: int  # ``add_node`` sets depth and group_key from the parent link
    group_key: str

    def text(self) -> str:
        return " ".join(self.template)


class _LengthBucket:
    """Matching index for all templates of one token count.

    Row ``r`` is the template of saturation rank ``r`` (descending
    saturation, deepest first on ties, then node id). A template is
    stored as an ``itemgetter`` over its non-wildcard positions plus the
    vocabulary codes it holds there, so a log (coded with the same
    vocabulary, ``-1`` for a token no template has) matches row ``r``
    iff ``getters[r](codes) == vals[r]``: token equality is exact, and
    ``-1`` can only meet a wildcard. Rows are keyed by their token at the
    most discriminative position ``p*``; any template matching a log
    either agrees with the log at ``p*`` or holds a wildcard there, so
    scanning ``index[log[p*]]`` in rank order up to the first hit, then
    ``wild_rows`` up to that rank, finds the first match in saturation
    order exactly.
    """

    def __init__(self, nodes: list[TemplateNode], vocab: dict[str, int]):
        order = sorted(nodes, key=lambda nd: (-nd.saturation, -nd.depth))
        self.nids = [nd.nid for nd in order]
        rows = [[-1 if tok == WILDCARD else vocab[tok] for tok in nd.template] for nd in order]
        fixed = ([p for p, code in enumerate(codes) if code >= 0] for codes in rows)
        self.getters = [itemgetter(*ps) if ps else lambda c: () for ps in fixed]
        self.vals = [get(codes) for get, codes in zip(self.getters, rows)]
        # Pick p*: minimize expected candidates = #wild + #nonwild/#distinct.
        best, best_cost = 0, float("inf")
        for p in range(len(rows[0])):
            held = [codes[p] for codes in rows if codes[p] >= 0]
            distinct = len(set(held))
            cost = (len(rows) - len(held)) + (len(held) / distinct if distinct else 0.0)
            if cost < best_cost:
                best, best_cost = p, cost
        self.pstar = best
        by_code: dict[int, list[int]] = {}
        for r, codes in enumerate(rows):
            by_code.setdefault(codes[best], []).append(r)
        self.wild_rows = tuple(by_code.pop(-1, ()))
        self.index = {code: tuple(rs) for code, rs in by_code.items()}

    def match(self, codes: list[int]) -> int:
        """First matching template's nid in saturation order, or -1."""
        getters, vals = self.getters, self.vals
        hit = len(self.nids)
        for r in self.index.get(codes[self.pstar], ()):
            if getters[r](codes) == vals[r]:
                hit = r
                break
        for r in self.wild_rows:
            if r >= hit:
                break
            if getters[r](codes) == vals[r]:
                hit = r
                break
        return self.nids[hit] if hit < len(self.nids) else -1


class ParserModel:
    """Trained ByteBrain model: nodes + lazy matching index."""

    def __init__(self):
        self.nodes: list[TemplateNode] = []
        self._buckets: dict[int, _LengthBucket] | None = None
        self._vocab: dict[str, int] = {}  # template token -> code, built with _buckets
        #: training assignment of the "naive match" ablation: token tuple
        #: -> nid of the clustering-tree node; in memory only, ``to_json``
        #: does not write it.
        self.train_assignment: dict[tuple[str, ...], int] = {}

    # -- construction -------------------------------------------------
    def add_node(self, parent: int, template: tuple[str, ...], saturation: float,
                 n_logs: int, group_key: str = "") -> TemplateNode:
        """Append a node; the only code that sets its depth and group. A
        root (``parent`` -1) has depth 0 and keeps ``group_key``; a child
        is one level below its parent, in its parent's group. Saturation
        is stored rounded to 6 places, the precision ``to_json`` keeps, so
        a model and its JSON copy answer threshold queries alike."""
        depth = 0
        if parent >= 0:
            depth, group_key = self.nodes[parent].depth + 1, self.nodes[parent].group_key
        node = TemplateNode(len(self.nodes), parent, template, round(float(saturation), 6),
                            n_logs, depth, group_key)
        self.nodes.append(node)
        self._buckets = None
        return node

    def add_temp_template(self, tokens: tuple[str, ...]) -> TemplateNode:
        """Insert an unmatched log as a temporary singleton template
        (§3, online matching) so subsequent logs of its kind match."""
        return self.add_node(parent=-1, template=tuple(tokens), saturation=1.0, n_logs=1,
                             group_key="temp")

    # -- matching (§4.8) ----------------------------------------------
    def _ensure_index(self) -> dict[int, _LengthBucket]:
        if self._buckets is None:
            vocab: dict[str, int] = {}
            by_len: dict[int, list[TemplateNode]] = {}
            for nd in self.nodes:
                for tok in nd.template:
                    vocab.setdefault(tok, len(vocab))
                by_len.setdefault(len(nd.template), []).append(nd)
            self._vocab = vocab
            self._buckets = {m: _LengthBucket(nds, vocab) for m, nds in by_len.items()}
        return self._buckets

    def match_tokens(self, tokens: tuple[str, ...]) -> int:
        """nid of the most precise matching template, or -1."""
        bucket = self._ensure_index().get(len(tokens))
        if bucket is None:
            return -1
        vocab = self._vocab
        return bucket.match([vocab.get(t, -1) for t in tokens])

    # -- query-time precision control (§3 Query) ----------------------
    def ancestor_at(self, nid: int, threshold: float) -> int:
        """Coarsest ancestor whose saturation still meets ``threshold``
        (the matched node itself when even it falls below)."""
        cur = nid
        while True:
            parent = self.nodes[cur].parent
            if parent < 0 or self.nodes[parent].saturation < threshold:
                return cur
            cur = parent

    def templates_at(self, threshold: float) -> list[TemplateNode]:
        """All maximal nodes with saturation >= threshold — the template
        set a user sees at one slider position (Table 4)."""
        out = []
        for nd in self.nodes:
            if nd.saturation >= threshold and (
                nd.parent < 0 or self.nodes[nd.parent].saturation < threshold
            ):
                out.append(nd)
        return out

    # -- persistence & size (§5.4.4, Table 5) -------------------------
    def to_json(self) -> str:
        """Rows ``[parent, template, saturation, n_logs]`` in nid order, a
        root's with its group key: ``add_node``'s arguments, nothing derived."""
        return json.dumps(
            {
                "nodes": [
                    [nd.parent, nd.template, nd.saturation, nd.n_logs]
                    + ([nd.group_key] if nd.parent < 0 else [])
                    for nd in self.nodes
                ]
            }
        )

    @classmethod
    def from_json(cls, blob: str) -> "ParserModel":
        model = cls()
        for parent, tmpl, *rest in json.loads(blob)["nodes"]:
            model.add_node(parent, tuple(tmpl), *rest)
        return model

    @property
    def nbytes(self) -> int:
        return len(self.to_json().encode("utf-8"))

    # -- periodic-retrain merge (§3 Offline Training) ------------------
    def merge_from(self, newer: "ParserModel", sim_threshold: float = 0.8) -> dict[int, int]:
        """Merge a newly trained model into this one.

        Nodes whose (group, parent, template) similarity — fraction of
        positions that agree exactly — reaches ``sim_threshold`` are
        merged (counts added); others are attached as new child nodes,
        as described in §3. Returns the nid mapping newer→self.
        """
        by_parent: dict[tuple[str, int], list[TemplateNode]] = {}
        for nd in self.nodes:
            by_parent.setdefault((nd.group_key, nd.parent), []).append(nd)
        mapping: dict[int, int] = {}
        for nd in newer.nodes:  # parents first: a node's parent has a smaller nid
            parent_here = mapping[nd.parent] if nd.parent >= 0 else -1
            best, best_sim = None, 0.0
            for cand in by_parent.get((nd.group_key, parent_here), []):
                if len(cand.template) != len(nd.template):
                    continue
                agree = sum(a == b for a, b in zip(cand.template, nd.template))
                sim = agree / len(nd.template)
                if sim > best_sim:
                    best, best_sim = cand, sim
            if best is not None and best_sim >= sim_threshold:
                best.n_logs += nd.n_logs
                best.saturation = max(best.saturation, nd.saturation)
                mapping[nd.nid] = best.nid
            else:
                new = self.add_node(parent=parent_here, template=nd.template, n_logs=nd.n_logs,
                                    saturation=nd.saturation, group_key=nd.group_key)
                by_parent.setdefault((nd.group_key, parent_here), []).append(new)
                mapping[nd.nid] = new.nid
        self._buckets = None
        return mapping
