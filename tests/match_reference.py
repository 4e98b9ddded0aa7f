"""Brute-force reference for online matching (§4.8), kept for tests
only: ``ParserModel.match_tokens`` must return exactly what it returns."""
from __future__ import annotations

from repro.core.model import TemplateNode
from repro.core.tokenizer import WILDCARD


def reference_match(nodes: list[TemplateNode], tokens: tuple[str, ...]) -> int:
    """nid of the first node in ``(-saturation, -depth, nid)`` order whose
    template has the log's length and, at every position, the log's token
    or a wildcard; -1 when none does."""
    for nd in sorted(nodes, key=lambda nd: (-nd.saturation, -nd.depth, nd.nid)):
        if len(nd.template) == len(tokens) and all(
            t == WILDCARD or t == tok for t, tok in zip(nd.template, tokens)
        ):
            return nd.nid
    return -1
